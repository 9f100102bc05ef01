"""Decorated rooted trees, planted trees, forests, and their surgery.

A tree carries one label on every vertex and one on every edge.  Children
are an unordered multiset; the canonical representative keeps them sorted
by (edge label, subtree), recursively, so structural equality coincides
with labeled isomorphism.  A planted tree hangs its body from an extra
undecorated root through a decorated plant edge; that extra root is not a
vertex.  A forest is a multiset of planted trees.

Vertex addresses are paths: the tuple of child positions (in canonical
order) leading down from the root.  An edge is addressed by the path of
its upper endpoint, so the plant edge of a planted tree is the empty path.
Surgery invalidates addresses, so an address refers only to the tree it
was taken from.  Surgery keeps trees canonical without re-sorting them:
grafting changes one child at each level on the path from the root to the
target, so at each such level that child is taken out and its new version
put back in by bisection against the siblings, which are already sorted;
at the target the new edge goes in the same way.  Only :func:`node` sorts
a whole family of children.

The hash, ``sort_key``, ``vertex_count`` and ``shape`` of a tree are each
computed on first use and then kept in a slot of that tree.  Subtrees are
shared between trees, so a grafted tree recomputes them only along the
path that changed.

Operations that juggle many decorations at once (the deformed coproduct
and product in :mod:`rtcalc.hopf`, the vertex actions in
:mod:`rtcalc.postlie`) work on a flattened "sites" view: vertices get fixed
integer indices, the shape is frozen, and only the label arrays move.  The
result is folded back into canonical trees at the very end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product as iproduct
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .decorations import Label

VertexId = Tuple[int, ...]
ForestVertexId = Tuple[int, Tuple[int, ...]]


class DecoratedTree:
    """A vertex label and a tuple of (edge label, subtree) children.

    Trees, planted trees and forests are immutable by convention, and keep
    their keys in slots filled on first use.  The constructor takes the
    children as given; :func:`node` is the canonical one.
    """

    __slots__ = ("label", "children", "_key", "_hash", "_count", "_shape")

    def __init__(self, label: Label, children: Tuple[Tuple[Label, "DecoratedTree"], ...] = ()):
        self.label = label
        self.children = children
        self._key = self._hash = self._count = self._shape = None

    @property
    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = (self.label.sort_key(), tuple(map(_child_key, self.children)))
        return key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.label, self.children))
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label and self.children == other.children

    @property
    def vertex_count(self) -> int:
        n = self._count
        if n is None:
            n = self._count = 1 + sum([c.vertex_count for _, c in self.children])
        return n

    @property
    def shape(self):
        """The underlying unlabeled rooted tree, as a nested sorted tuple."""
        shape = self._shape
        if shape is None:
            shape = self._shape = tuple(sorted([c.shape for _, c in self.children]))
        return shape

    def render(self) -> str:
        inner = "".join([f" [{e.render()}]{c.render()}" for e, c in self.children])
        return f"({self.label.render()}{inner})"

    def __repr__(self) -> str:
        return f"DecoratedTree{self.render()}"


def _child_key(child: Tuple[Label, DecoratedTree]):
    return (child[0].sort_key(), child[1].sort_key)


def node(label: Label, children: Iterable[Tuple[Label, DecoratedTree]] = ()) -> DecoratedTree:
    """Canonical constructor: sorts the children multiset.

    Each child's key is computed once, and the sort is stable, so equal
    keys keep their input order.
    """
    kids = tuple(children)
    if len(kids) > 1:
        kids = tuple(sorted(kids, key=_child_key))
    return DecoratedTree(label, kids)


def _insert_child(children: Tuple, child: Tuple[Label, DecoratedTree]) -> Tuple:
    """Sorted ``children`` with ``child`` put in at its canonical place."""
    i = bisect_right(children, _child_key(child), key=_child_key)
    return children[:i] + (child,) + children[i:]


def leaf(label: Label) -> DecoratedTree:
    return DecoratedTree(label, ())


def canonicalize(tree: DecoratedTree) -> DecoratedTree:
    """Re-sort every level; idempotent."""
    return node(tree.label, ((e, canonicalize(c)) for e, c in tree.children))


class PlantedTree:
    """A body tree hanging from an undecorated root through a plant edge."""

    __slots__ = ("plant", "body", "_key", "_hash")

    def __init__(self, plant: Label, body: DecoratedTree):
        self.plant = plant
        self.body = body
        self._key = self._hash = None

    @property
    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = (self.plant.sort_key(), self.body.sort_key)
        return key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.plant, self.body))
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.plant == other.plant and self.body == other.body

    @property
    def vertex_count(self) -> int:
        return self.body.vertex_count

    @property
    def shape(self):
        return self.body.shape

    def render(self) -> str:
        return f"[{self.plant.render()}]{self.body.render()}"

    def __repr__(self) -> str:
        return f"PlantedTree{self.render()}"


class Forest:
    """A tuple of planted trees; :func:`forest` is the canonical constructor."""

    __slots__ = ("trees", "_key", "_hash")

    def __init__(self, trees: Tuple[PlantedTree, ...] = ()):
        self.trees = trees
        self._key = self._hash = None

    @property
    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = tuple([t.sort_key for t in self.trees])
        return key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.trees)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.trees == other.trees

    @property
    def vertex_count(self) -> int:
        return sum(t.vertex_count for t in self.trees)

    def __len__(self) -> int:
        return len(self.trees)

    def render(self) -> str:
        if not self.trees:
            return "1"
        return " ".join(t.render() for t in self.trees)

    def __repr__(self) -> str:
        return f"Forest({self.render()})"


EMPTY_FOREST = Forest()


def forest(trees: Iterable[PlantedTree]) -> Forest:
    """Canonical constructor: sorts the multiset of planted trees."""
    return Forest(tuple(sorted(trees, key=lambda t: t.sort_key)))


def forest_mul(f: Forest, g: Forest) -> Forest:
    return forest(f.trees + g.trees)


# ---------------------------------------------------------------------------
# Vertex addressing on canonical trees


def vertex_ids(tree: DecoratedTree) -> List[VertexId]:
    """All vertex paths in depth-first preorder."""
    out: List[VertexId] = [()]
    for i, (_, c) in enumerate(tree.children):
        out.extend((i,) + p for p in vertex_ids(c))
    return out


def subtree_at(tree: DecoratedTree, path: VertexId) -> DecoratedTree:
    for i in path:
        tree = tree.children[i][1]
    return tree


def label_at(tree: DecoratedTree, path: VertexId) -> Label:
    return subtree_at(tree, path).label


def edge_label_at(tree: DecoratedTree, path: VertexId) -> Label:
    """The label of the edge whose upper endpoint is ``path`` (nonempty)."""
    if not path:
        raise ValueError("the root of a bare tree has no incoming edge")
    parent = subtree_at(tree, path[:-1])
    return parent.children[path[-1]][0]


def forest_vertex_ids(f: Forest) -> List[ForestVertexId]:
    return [(ci, p) for ci, t in enumerate(f.trees) for p in vertex_ids(t.body)]


def graft_at(
    x: DecoratedTree,
    target: VertexId,
    y: DecoratedTree,
    edge: Label,
    relabel: Optional[Label] = None,
) -> DecoratedTree:
    """Attach ``x`` below the vertex ``target`` of ``y`` through a new edge.

    ``relabel``, when given, replaces the target vertex's decoration in the
    same stroke.  When ``x`` and ``y`` are canonical so is the result: on
    the path to the target, each level puts its one changed child back in
    at its sorted place.  Addresses into ``y`` do not survive.
    """
    if not target:
        lab = y.label if relabel is None else relabel
        return DecoratedTree(lab, _insert_child(y.children, (edge, x)))
    i = target[0]
    e, c = y.children[i]
    updated = graft_at(x, target[1:], c, edge, relabel)
    return DecoratedTree(y.label, _insert_child(y.children[:i] + y.children[i + 1 :], (e, updated)))


def split_root_edge(p: PlantedTree, edge: VertexId) -> Tuple[PlantedTree, PlantedTree]:
    """Cut one edge leaving the body root of ``p``.

    ``edge`` is the address of the edge's upper endpoint, a path of length
    one.  Returns (branch planted on the cut edge, remainder with its
    original plant edge).
    """
    if len(edge) != 1:
        raise ValueError("split_root_edge cuts only edges incident to the body root")
    i = edge[0]
    if not 0 <= i < len(p.body.children):
        raise ValueError(f"no child {i} at the body root")
    elab, branch = p.body.children[i]
    rest = node(p.body.label, p.body.children[:i] + p.body.children[i + 1 :])
    return PlantedTree(elab, branch), PlantedTree(p.plant, rest)


# ---------------------------------------------------------------------------
# Sites: a flattened, index-stable view of a forest (or a bare tree)


@dataclass(frozen=True)
class Sites:
    """Fixed shape plus initial decorations, vertices indexed 0..n-1.

    ``parent[v]`` is -1 when the edge into v comes from an undecorated
    root (a plant edge), or when v is the root of a bare tree, in which
    case ``elabel[v]`` is None.  Everywhere else ``elabel[v]`` decorates
    the edge whose upper endpoint is v, so edges are indexed by their
    upper endpoint.
    """

    parent: Tuple[int, ...]
    elabel: Tuple[Optional[Label], ...]
    vlabel: Tuple[Label, ...]
    vid: Tuple[ForestVertexId, ...] = ()

    @cached_property
    def children(self) -> Tuple[Tuple[int, ...], ...]:
        kids: List[List[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def roots(self) -> Tuple[int, ...]:
        return tuple(v for v, p in enumerate(self.parent) if p < 0)

    @property
    def size(self) -> int:
        return len(self.parent)

    def initial_state(self) -> Tuple[Tuple[Optional[Label], ...], Tuple[Label, ...]]:
        return (self.elabel, self.vlabel)

    def index_of(self, vid: ForestVertexId) -> int:
        return self.vid.index(vid)


State = Tuple[Tuple[Optional[Label], ...], Tuple[Label, ...]]


def _explode_tree(
    t: DecoratedTree,
    comp: int,
    path: VertexId,
    parent_ix: int,
    elab: Optional[Label],
    parent_arr: List[int],
    elabels: List[Optional[Label]],
    vlabels: List[Label],
    vids: List[ForestVertexId],
) -> None:
    ix = len(parent_arr)
    parent_arr.append(parent_ix)
    elabels.append(elab)
    vlabels.append(t.label)
    vids.append((comp, path))
    for i, (e, c) in enumerate(t.children):
        _explode_tree(c, comp, path + (i,), ix, e, parent_arr, elabels, vlabels, vids)


def forest_sites(f: Forest) -> Sites:
    parent: List[int] = []
    elabels: List[Optional[Label]] = []
    vlabels: List[Label] = []
    vids: List[ForestVertexId] = []
    for ci, t in enumerate(f.trees):
        _explode_tree(t.body, ci, (), -1, t.plant, parent, elabels, vlabels, vids)
    return Sites(tuple(parent), tuple(elabels), tuple(vlabels), tuple(vids))


def tree_sites(t: DecoratedTree) -> Sites:
    parent: List[int] = []
    elabels: List[Optional[Label]] = []
    vlabels: List[Label] = []
    vids: List[ForestVertexId] = []
    _explode_tree(t, 0, (), -1, None, parent, elabels, vlabels, vids)
    return Sites(tuple(parent), tuple(elabels), tuple(vlabels), tuple(vids))


def _build_subtree(sites: Sites, state: State, v: int, keep: Optional[FrozenSet[int]]) -> DecoratedTree:
    elabels, vlabels = state
    kids = []
    for c in sites.children[v]:
        if keep is not None and c not in keep:
            continue
        kids.append((elabels[c], _build_subtree(sites, state, c, keep)))
    return node(vlabels[v], kids)


def rebuild_tree(sites: Sites, state: State) -> DecoratedTree:
    """Fold a single-component bare-tree sites view back into a tree."""
    (root,) = sites.roots
    return _build_subtree(sites, state, root, None)


def rebuild_forest(sites: Sites, state: State, parent: Optional[Sequence[int]] = None) -> Forest:
    """Fold a sites view back into a canonical forest.

    ``parent`` optionally overrides the stored parent array (same length),
    which is how grafting engines describe their reattachments.
    """
    par = tuple(parent) if parent is not None else sites.parent
    elabels, vlabels = state
    kids: List[List[int]] = [[] for _ in par]
    roots = []
    for v, p in enumerate(par):
        if p < 0:
            roots.append(v)
        else:
            kids[p].append(v)

    def build(v: int) -> DecoratedTree:
        return node(vlabels[v], ((elabels[c], build(c)) for c in kids[v]))

    return forest(PlantedTree(elabels[r], build(r)) for r in roots)


def restrict_state(sites: Sites, state: State, keep: FrozenSet[int]) -> Forest:
    """The sub-forest on ``keep``: kept vertices, edges with upper end kept.

    A kept vertex whose parent is dropped (or was already a plant) roots a
    new component planted on its incoming edge, decoration included.
    """
    elabels, _ = state
    comps = []
    for v in sorted(keep):
        if sites.parent[v] < 0 or sites.parent[v] not in keep:
            comps.append(PlantedTree(elabels[v], _build_subtree(sites, state, v, keep)))
    return forest(comps)


def upper_subsets(sites: Sites) -> List[FrozenSet[int]]:
    """All vertex subsets closed under passing from a vertex to its children."""

    def below(v: int) -> FrozenSet[int]:
        out = {v}
        for c in sites.children[v]:
            out |= below(c)
        return frozenset(out)

    def ups(v: int) -> List[FrozenSet[int]]:
        # Either v is in (then its whole subtree is), or the part splits
        # into independent choices over the child subtrees.
        combos: List[FrozenSet[int]] = [frozenset()]
        for c in sites.children[v]:
            combos = [s | t for s in combos for t in ups(c)]
        return combos + [below(v)]

    parts: List[FrozenSet[int]] = [frozenset()]
    for r in sites.roots:
        parts = [s | t for s in parts for t in ups(r)]
    return parts


def upper_parts(f: Forest) -> List[FrozenSet[ForestVertexId]]:
    """All upper parts of a forest, as sets of vertex addresses."""
    sites = forest_sites(f)
    return [frozenset(sites.vid[v] for v in part) for part in upper_subsets(sites)]


def restrict(f: Forest, part: FrozenSet[ForestVertexId]) -> Forest:
    """The planted sub-forest of ``f`` induced by a vertex subset."""
    sites = forest_sites(f)
    lookup = {vid: ix for ix, vid in enumerate(sites.vid)}
    keep = frozenset(lookup[vid] for vid in part)
    return restrict_state(sites, sites.initial_state(), keep)


# ---------------------------------------------------------------------------
# Grafting maps and forest-level grafting


def grafting_maps(f: Forest, g: Forest) -> List[Tuple[Optional[ForestVertexId], ...]]:
    """Every assignment of each tree of ``f`` to a vertex of ``g`` or to None.

    Returned as tuples indexed like ``f.trees``; there are
    (vertex_count(g) + 1)^len(f.trees) of them.
    """
    targets: List[Optional[ForestVertexId]] = [None]
    targets.extend(forest_vertex_ids(g))
    return list(iproduct(targets, repeat=len(f.trees)))


def _combined_sites(
    f: Forest, g: Forest
) -> Tuple[Sites, Sites, Tuple[int, ...], Tuple[Optional[Label], ...], Tuple[Label, ...], Dict[ForestVertexId, int], Tuple[int, ...]]:
    """Shared scaffolding for grafting ``f`` over ``g``.

    g's vertices keep indices 0..|g|-1; f's are shifted up by |g|.  Returns
    the two sites, the combined parent/label arrays, the index of each g
    vertex address, and the shifted index of each f component root.
    """
    sg = forest_sites(g)
    sf = forest_sites(f)
    off = sg.size
    parent = tuple(sg.parent) + tuple(p + off if p >= 0 else -1 for p in sf.parent)
    elabel = sg.elabel + sf.elabel
    vlabel = sg.vlabel + sf.vlabel
    g_index = {vid: ix for ix, vid in enumerate(sg.vid)}
    f_roots = tuple(r + off for r in sf.roots)
    return sf, sg, parent, elabel, vlabel, g_index, f_roots


def graft_forest(
    f: Forest, g: Forest, gmap: Sequence[Optional[ForestVertexId]]
) -> Forest:
    """Attach each tree of ``f`` at its assigned vertex of ``g`` (None: leave planted)."""
    if len(gmap) != len(f.trees):
        raise ValueError("one target per tree of the grafted forest")
    _, _, parent, elabel, vlabel, g_index, f_roots = _combined_sites(f, g)
    par = list(parent)
    for i, target in enumerate(gmap):
        if target is not None:
            par[f_roots[i]] = g_index[target]
    scaffold = Sites(tuple(par), elabel, vlabel)
    return rebuild_forest(scaffold, (elabel, vlabel))


# ---------------------------------------------------------------------------
# Isomorphisms of underlying planted forests


def _tree_isos(t1: DecoratedTree, t2: DecoratedTree) -> List[Dict[VertexId, VertexId]]:
    """All shape isomorphisms between two trees, decorations ignored."""
    if t1.shape != t2.shape:
        return []
    n1 = len(t1.children)
    idx2 = list(range(len(t2.children)))
    out: List[Dict[VertexId, VertexId]] = []
    child_shapes1 = [c.shape for _, c in t1.children]
    child_shapes2 = [c.shape for _, c in t2.children]
    for perm in permutations(idx2, n1):
        if any(child_shapes1[i] != child_shapes2[j] for i, j in enumerate(perm)):
            continue
        parts: List[List[Dict[VertexId, VertexId]]] = []
        ok = True
        for i, j in enumerate(perm):
            sub = _tree_isos(t1.children[i][1], t2.children[j][1])
            if not sub:
                ok = False
                break
            parts.append(sub)
        if not ok:
            continue
        for combo in iproduct(*parts):
            iso: Dict[VertexId, VertexId] = {(): ()}
            for i, j in enumerate(perm):
                for p, q in combo[i].items():
                    iso[(i,) + p] = (perm[i],) + q
            out.append(iso)
    return out


def isomorphisms(f1: Forest, f2: Forest) -> List[Dict[ForestVertexId, ForestVertexId]]:
    """All isomorphisms of the underlying undecorated planted forests.

    An isomorphism matches components bijectively and maps vertices
    shape-preservingly inside each; planting, sources and targets are
    preserved by construction.  Edges follow vertices (each vertex owns
    its incoming edge, the plant edge included).
    """
    if len(f1.trees) != len(f2.trees):
        return []
    k = len(f1.trees)
    out: List[Dict[ForestVertexId, ForestVertexId]] = []
    shapes1 = [t.shape for t in f1.trees]
    shapes2 = [t.shape for t in f2.trees]
    for perm in permutations(range(k)):
        if any(shapes1[i] != shapes2[perm[i]] for i in range(k)):
            continue
        parts = []
        ok = True
        for i in range(k):
            sub = _tree_isos(f1.trees[i].body, f2.trees[perm[i]].body)
            if not sub:
                ok = False
                break
            parts.append(sub)
        if not ok:
            continue
        for combo in iproduct(*parts):
            iso: Dict[ForestVertexId, ForestVertexId] = {}
            for i in range(k):
                for p, q in combo[i].items():
                    iso[(i, p)] = (perm[i], q)
            out.append(iso)
    return out
