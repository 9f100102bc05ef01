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

Operations that move many decorations of a forest at once work on a
flattened "sites" view: vertices get fixed integer indices, the shape is
described by a parent array, and only the label arrays move.  The cut
coproduct and the grafting scaffold of the deformed product in
:mod:`rtcalc.hopf` use it, the scaffold by rewriting the parent array, as
do the vertex actions in :mod:`rtcalc.postlie`.  The result is folded back
into canonical trees at the very end.  The edge-product operator does not
need it: it recurses over subtrees (:mod:`rtcalc.prelie`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

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


def rebuild_forest(parent: Sequence[int], state: State) -> Forest:
    """Fold label arrays over a parent array back into a canonical forest.

    ``parent`` reads as in :class:`Sites`: -1 marks a root, planted on its
    incoming edge.  Grafting describes its reattachments by rewriting the
    parent array of a sites view.
    """
    elabels, vlabels = state
    kids: List[List[int]] = [[] for _ in parent]
    roots = []
    for v, p in enumerate(parent):
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
