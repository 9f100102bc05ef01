"""Brute-force forest oracles for the tests.

The "sites" view flattens a forest: vertices get fixed integer indices in
depth-first preorder, the shape is a parent array, and only the label
arrays move.  The package used to run its forest operators on it; they now
recurse over canonical trees, and the implementations they replaced live
here as oracles on top of the same view:

- ``graft_basis``: grafting by rewriting the parent array, one assignment
  at a time, the map acting over whole label-array states;
- ``cut_coproduct``: the sum over upper vertex subsets, each severed edge
  acting in site order, both sides rebuilt by restriction;
- ``vertex_action_on_tree``: relabelling one site of the label array.

``grafting_maps`` and ``graft_forest`` graft one assignment at a time with
the identity map, and ``isomorphisms`` lists every isomorphism of the
underlying planted forests.  The package computes the same sums directly:
the deformed product over all assignments at once, the pairing as the
symmetry factor of a forest against itself.

``PermanentPairing`` is the pairing before that: a base pairing of
(edge', vertex', edge, vertex) extended to forests as a permanent over
the trees of the two forests, and over the children of each pair of
vertices of equal shape; ``delta_base`` is the base it was always given.
``pair_forests_by_double_loop`` and ``pair_tensor_by_double_loop`` pair
two combinations term against term.

The path-address surgery that grafting and the post-Lie vertex action
used before :func:`rtcalc.trees.vertex_sum` is kept here too: a vertex is
addressed by the tuple of child positions leading down from the root, and
``graft_at`` and ``relabel_at`` rebuild the path from the root to one
address, putting the changed child back in by bisection at each level.

``theta_nested``, ``graft_phi_nested``, ``graft_free_nested`` and
``theta_bar_nested`` are the edge-product operator and the grafting
products as they summed before one integer-pair accumulation,
:func:`rtcalc.lincomb.multilinear`, summed each: one ``LinComb`` per local
state or per term, reduced again by each enclosing ``map_terms``, and
``theta_bar_nested`` scaling each forest's image and adding the images by
``lc_sum``.  ``star_product_by_scaling``, ``go_triangle_by_scaling``,
``cut_coproduct_by_scaling``, ``bilinear_by_scaling``,
``ext_triangle_by_scaling`` and ``ext_bracket_by_scaling`` are the forest
and post-Lie operators in that last form: the image of each choice of basis
terms, a ``LinComb``, scaled by the product of the coefficients and added;
the two post-Lie ones first split each extension element into its planted
trees and its generator names and take each case on its own part.

``canonicalize`` re-sorts every level of a tree with ``node``.
``tuple_label_key`` is the label key that the key strings of
:mod:`rtcalc.decorations` replaced: ``(0, basis_id, name)``, ``(1,
entries)``, ``(2, symbol)``, and ``(4, left, right)`` for a product label.
On it rest the nested sort keys, (label key, ((edge key, subtree key),
...)), of ``nested_key`` and its planted and forest forms, and the flat
preorder tuples of ``flat_tuple_key`` and its forms, the label keys in
preorder with ``()`` ending each subtree.  The key strings of
:mod:`rtcalc.trees` must order as both, independently of how the strings
are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from functools import partial
from itertools import permutations, product as iproduct
from math import prod
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from constructions import Pr
from rtcalc.decorations import Label, MultiIndex, Sym
from rtcalc.hopf import _graft_basis, _graft_into
from rtcalc.hopf import cut_coproduct as cut_coproduct_by_recursion
from rtcalc.lincomb import LinComb, lc_sum
from rtcalc.postlie import _vertex_action_on_tree
from rtcalc.prelie import planted_graft
from rtcalc.trees import (
    DecoratedTree,
    Forest,
    PlantedTree,
    forest,
    insert_child,
    node,
    vertex_sum,
)

VertexId = Tuple[int, ...]  # child positions down from the root
ForestVertexId = Tuple[int, VertexId]


# ---------------------------------------------------------------------------
# Canonical form by re-sorting, and the nested sort keys


def canonicalize(tree: DecoratedTree) -> DecoratedTree:
    """Re-sort every level; idempotent."""
    return node(tree.label, ((e, canonicalize(c)) for e, c in tree.children))


def tuple_label_key(label) -> tuple:
    if isinstance(label, Sym):
        return (0, label.basis_id, label.name)
    if isinstance(label, MultiIndex):
        return (1, label.entries)
    if isinstance(label, Pr):
        return (4, tuple_label_key(label.left), tuple_label_key(label.right))
    return (2, label.symbol)


def nested_key(tree: DecoratedTree) -> tuple:
    return (tuple_label_key(tree.label), tuple((tuple_label_key(e), nested_key(c)) for e, c in tree.children))


def nested_planted_key(p: PlantedTree) -> tuple:
    return (tuple_label_key(p.plant), nested_key(p.body))


def nested_forest_key(f: Forest) -> tuple:
    return tuple(nested_planted_key(p) for p in f.trees)


def flat_tuple_key(tree: DecoratedTree) -> tuple:
    key = (tuple_label_key(tree.label),)
    for e, c in tree.children:
        key += (tuple_label_key(e),) + flat_tuple_key(c)
    return key + ((),)


def flat_tuple_planted_key(p: PlantedTree) -> tuple:
    return (tuple_label_key(p.plant),) + flat_tuple_key(p.body)


def flat_tuple_forest_key(f: Forest) -> tuple:
    return tuple(x for p in f.trees for x in flat_tuple_planted_key(p))


# ---------------------------------------------------------------------------
# Vertex addresses and surgery at one address


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


def _rebuild_path(
    y: DecoratedTree, target: VertexId, at_target: Callable[[DecoratedTree], DecoratedTree]
) -> DecoratedTree:
    """``y`` with the subtree at ``target`` replaced by ``at_target`` of it.

    When ``y`` and the replacement are canonical so is the result: each
    level on the path puts its one changed child back in at its sorted
    place among the siblings, which are already sorted.
    """
    if not target:
        return at_target(y)
    i = target[0]
    e, c = y.children[i]
    updated = _rebuild_path(c, target[1:], at_target)
    return DecoratedTree(y.label, insert_child(y.children[:i] + y.children[i + 1 :], (e, updated)))


def graft_at(
    x: DecoratedTree,
    target: VertexId,
    y: DecoratedTree,
    edge: Label,
    relabel: Optional[Label] = None,
) -> DecoratedTree:
    """Attach ``x`` below the vertex ``target`` of ``y`` through a new edge.

    ``relabel``, when given, replaces the target vertex's decoration in the
    same stroke.  When ``x`` and ``y`` are canonical so is the result, and
    the new edge goes in at its sorted place.
    """

    def attach(s: DecoratedTree) -> DecoratedTree:
        return DecoratedTree(s.label if relabel is None else relabel, insert_child(s.children, (edge, x)))

    return _rebuild_path(y, target, attach)


def relabel_at(y: DecoratedTree, target: VertexId, label: Label) -> DecoratedTree:
    """``y`` with the vertex ``target`` decorated ``label``, kept canonical."""
    return _rebuild_path(y, target, lambda s: DecoratedTree(label, s.children))


def graft_phi_by_address(phi, x: LinComb, a: Label, y: LinComb) -> LinComb:
    """``rtcalc.prelie.graft_phi`` one (term pair, vertex, image term) at a time."""

    def per_pair(tx, ty):
        return LinComb(
            (graft_at(tx, v, ty, a2, relabel=b2), c)
            for v in vertex_ids(ty)
            for (a2, b2), c in phi(a, label_at(ty, v)).items()
        )

    return lc_sum(cx * cy * per_pair(tx, ty) for tx, cx in x.items() for ty, cy in y.items())


def graft_free_by_address(x: LinComb, a: Label, y: LinComb) -> LinComb:
    """``rtcalc.prelie.graft_free`` one (term pair, vertex) at a time."""

    def per_pair(tx, ty):
        return LinComb((graft_at(tx, v, ty, a), 1) for v in vertex_ids(ty))

    return lc_sum(cx * cy * per_pair(tx, ty) for tx, cx in x.items() for ty, cy in y.items())


def vertex_action_by_address(psi, p, t: PlantedTree) -> LinComb:
    """The post-Lie vertex action on ``t``, one vertex address at a time."""
    body = t.body
    return LinComb(
        (PlantedTree(t.plant, relabel_at(body, v, nb)), c)
        for v in vertex_ids(body)
        for nb, c in psi.vertex(p, label_at(body, v)).items()
    )


def forest_vertex_ids(f: Forest) -> List[ForestVertexId]:
    return [(ci, p) for ci, t in enumerate(f.trees) for p in vertex_ids(t.body)]


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


def apply_at(phi, states: LinComb, e_ix: int, v_ix: int) -> LinComb:
    """Act on one (edge, vertex) slot pair of label-array states.

    ``states`` combines pairs (edge labels, vertex labels) of tuples; the
    map acts on the edge label at ``e_ix`` together with the vertex label
    at ``v_ix`` and leaves every other slot alone.
    """

    def step(state):
        elabels, vlabels = state
        return LinComb(
            (
                (
                    elabels[:e_ix] + (a2,) + elabels[e_ix + 1 :],
                    vlabels[:v_ix] + (b2,) + vlabels[v_ix + 1 :],
                ),
                c,
            )
            for (a2, b2), c in phi(elabels[e_ix], vlabels[v_ix]).items()
        )

    return states.map_terms(step)


# ---------------------------------------------------------------------------
# The forest operators on the sites view


def graft_basis(phi, F: Forest, G: Forest, *, stay: bool) -> LinComb:
    """Graft each tree of F onto a vertex of G, summed over assignments.

    F's vertices follow G's in one sites view.  An assignment rewrites the
    parent of each root of F to its target vertex, and the map acts on
    (plant edge of that root, target), roots taken in F's order.  With
    ``stay`` a tree of F may also keep its plant edge and stay beside G.
    """
    sg = forest_sites(G)
    sf = forest_sites(F)
    off = sg.size
    parent_base = sg.parent + tuple(p + off if p >= 0 else -1 for p in sf.parent)
    elabel = sg.elabel + sf.elabel
    vlabel = sg.vlabel + sf.vlabel
    f_roots = [r + off for r in sf.roots]

    def assignment(targets: Tuple[int, ...]) -> LinComb:
        parent = list(parent_base)
        states = LinComb.of((elabel, vlabel))
        for root, target in zip(f_roots, targets):
            if target >= 0:
                parent[root] = target
                states = apply_at(phi, states, root, target)
        return states.map_terms(lambda st: LinComb.of(rebuild_forest(parent, st)))

    choices = range(-1 if stay else 0, sg.size)
    return lc_sum(assignment(gmap) for gmap in iproduct(choices, repeat=len(f_roots)))


def cut_coproduct(phi, x: LinComb) -> LinComb:
    """Sum over upper vertex subsets, the map running over every severed
    edge in site order; both sides are restrictions of the acted state."""

    def cuts(f: Forest) -> LinComb:
        sites = forest_sites(f)
        everything = frozenset(range(sites.size))

        def split(part: FrozenSet[int]) -> LinComb:
            states = LinComb.of(sites.initial_state())
            for v in sorted(part):
                pr = sites.parent[v]
                if pr >= 0 and pr not in part:
                    states = apply_at(phi, states, v, pr)
            rest = everything - part
            return states.map_terms(
                lambda st: LinComb.of((restrict_state(sites, st, part), restrict_state(sites, st, rest)))
            )

        return lc_sum(split(part) for part in upper_subsets(sites))

    return lc_sum(c * cuts(f) for f, c in x.items())


def vertex_action_on_tree(psi, p, t: PlantedTree) -> LinComb:
    """Sum over sites of t with the vertex action applied at that site."""
    sites = tree_sites(t.body)
    elabels, vlabels = sites.initial_state()
    return LinComb(
        (PlantedTree(t.plant, rebuild_tree(sites, (elabels, vlabels[:v] + (nb,) + vlabels[v + 1 :]))), c)
        for v in range(sites.size)
        for nb, c in psi.vertex(p, vlabels[v]).items()
    )


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
    return rebuild_forest(par, (elabel, vlabel))


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


# ---------------------------------------------------------------------------
# The pairing as a permanent over children


class PermanentPairing:
    """A base pairing ``base(e', v', e, v)`` extended to forests: the sum,
    over the isomorphisms of the underlying planted forests, of the product
    of the base over corresponding (incoming edge, vertex) pairs, taken as
    a permanent over trees and, at each vertex, over children."""

    def __init__(self, base: Callable[[Label, Label, Label, Label], object]):
        self.base = base
        self._memo: Dict = {}

    def _tree(self, p1: PlantedTree, p2: PlantedTree):
        key = (p1, p2)
        if key not in self._memo:
            self._memo[key] = self._planted(p1.plant, p1.body, p2.plant, p2.body)
        return self._memo[key]

    def _planted(self, e1: Label, t1: DecoratedTree, e2: Label, t2: DecoratedTree):
        if t1.shape != t2.shape:
            return 0
        head = self.base(e1, t1.label, e2, t2.label)
        if not head or not t1.children:
            return head
        grid = [[self._planted(f1, c1, f2, c2) for f2, c2 in t2.children] for f1, c1 in t1.children]
        return head * permanent(grid)

    def forests(self, f1: Forest, f2: Forest):
        if len(f1.trees) != len(f2.trees) or f1.vertex_count != f2.vertex_count:
            return 0
        return permanent([[self._tree(t1, t2) for t2 in f2.trees] for t1 in f1.trees])


def permanent(grid: List[List]) -> object:
    """The sum, over the bijections of rows to columns, of the products of
    the entries they pick; 1 for the empty grid."""
    n = len(grid)
    return sum(
        (prod(grid[i][j] for i, j in enumerate(cols)) for cols in permutations(range(n))),
        0,
    )


def delta_base(e2: Label, v2: Label, e: Label, v: Label) -> int:
    """Matching decorations pair to 1, all others to 0."""
    return 1 if (e2, v2) == (e, v) else 0


def pair_forests_by_double_loop(pairing, x: LinComb, y: LinComb):
    """Every term of ``x`` against every term of ``y``."""
    return sum((c1 * c2 * pairing.forests(f1, f2) for f1, c1 in x.items() for f2, c2 in y.items()), 0)


def pair_tensor_by_double_loop(pairing, x: LinComb, y: LinComb):
    """Every pair of ``x`` against every pair of ``y``, factorwise."""
    return sum(
        (
            c1 * c2 * pairing.forests(f1, f2) * pairing.forests(g1, g2)
            for (f1, g1), c1 in x.items()
            for (f2, g2), c2 in y.items()
        ),
        0,
    )


# ---------------------------------------------------------------------------
# Theta and grafting by nested reductions


def _edge_image_nested(phi, s: DecoratedTree, memo: Dict) -> LinComb:
    """One ``LinComb`` per local state, summed again by ``map_terms``."""
    if not s.children:
        return LinComb.of(s)
    image = memo.get(s)
    if image is not None:
        return image
    kid_terms = [_edge_image_nested(phi, c, memo).items() for _, c in s.children]
    local = phi.act_at_vertex(tuple(e for e, _ in s.children), s.label)

    def assemble(state) -> LinComb:
        edges, b = state
        return LinComb(
            (node(b, zip(edges, (t for t, _ in combo))), prod(c for _, c in combo))
            for combo in iproduct(*kid_terms)
        )

    image = memo[s] = local.map_terms(assemble)
    return image


def theta_nested(phi, x: LinComb) -> LinComb:
    """``rtcalc.prelie.theta`` without its guard, by nested reductions."""
    memo: Dict = {}
    return x.map_terms(lambda t: _edge_image_nested(phi, t, memo))


def _graft_sum_nested(x: LinComb, y: LinComb, attach: Callable) -> LinComb:
    """A ``LinComb`` per vertex sum, reduced by ``y.map_terms`` and ``x.map_terms``."""

    def per_term(tx: DecoratedTree) -> LinComb:
        memo: Dict = {}
        local = partial(attach, tx)
        return y.map_terms(lambda ty: LinComb(vertex_sum(ty, local, memo)))

    return x.map_terms(per_term)


def graft_phi_nested(phi, x: LinComb, a: Label, y: LinComb) -> LinComb:
    def attach(tx: DecoratedTree, s: DecoratedTree):
        kids = s.children
        return [(DecoratedTree(b2, insert_child(kids, (a2, tx))), c) for (a2, b2), c in phi(a, s.label).items()]

    return _graft_sum_nested(x, y, attach)


def graft_free_nested(x: LinComb, a: Label, y: LinComb) -> LinComb:
    return _graft_sum_nested(x, y, lambda tx, s: ((DecoratedTree(s.label, insert_child(s.children, (a, tx))), 1),))


def theta_bar_nested(phi, x: LinComb) -> LinComb:
    """``rtcalc.hopf.theta_bar`` without its guard: a ``LinComb`` of the
    products of the tree images, per forest."""

    def images(f: Forest) -> LinComb:
        bodies = [_edge_image_nested(phi, t.body, {}).items() for t in f.trees]
        return LinComb(
            (
                forest(PlantedTree(t.plant, body) for t, (body, _) in zip(f.trees, combo)),
                prod(c for _, c in combo),
            )
            for combo in iproduct(*bodies)
        )

    return lc_sum(c * images(f) for f, c in x.items())


# ---------------------------------------------------------------------------
# Forest and post-Lie operators by scaling each basis image


def star_product_by_scaling(phi, x: LinComb, y: LinComb) -> LinComb:
    """``rtcalc.hopf.star_product`` without its guard."""
    memo: Dict = {}
    return lc_sum(cx * cy * _graft_basis(phi, fx, fy, memo) for fx, cx in x.items() for fy, cy in y.items())


def go_triangle_by_scaling(phi, x: LinComb, p: LinComb) -> LinComb:
    """``rtcalc.hopf.go_triangle`` without its guard."""
    memo: Dict = {}

    def grafted(F: Forest, pt: PlantedTree) -> LinComb:
        return _graft_into(phi, pt.body, F.trees, memo).map_terms(lambda t: LinComb.of(PlantedTree(pt.plant, t)))

    return lc_sum(c * cp * grafted(F, pt) for pt, cp in p.items() for F, c in x.items())


def cut_coproduct_by_scaling(phi, x: LinComb) -> LinComb:
    """The cut coproduct of each forest of ``x`` alone, scaled and added."""
    return lc_sum(c * cut_coproduct_by_recursion(phi, LinComb.of(f)) for f, c in x.items())


def bilinear_by_scaling(table_of: Callable, x: LinComb, y: LinComb) -> LinComb:
    """``PostLieBase.bracket_lin`` or ``triangle_lin`` for the structure
    constants ``table_of`` (``bracket_of`` or ``triangle_of``)."""
    return lc_sum((c * c2) * table_of(p, q) for p, c in x.items() for q, c2 in y.items())


def _split_ext(x: LinComb) -> Tuple[LinComb, LinComb]:
    """An extension element's planted part and generator part."""
    planted = LinComb((t, c) for t, c in x.items() if isinstance(t, PlantedTree))
    return planted, x - planted


def ext_triangle_by_scaling(phi, P, psi, u: LinComb, w: LinComb) -> LinComb:
    (up, ug), (wp, wg) = _split_ext(u), _split_ext(w)
    parts = [(c1 * c2) * planted_graft(phi, p1, p2) for p1, c1 in up.items() for p2, c2 in wp.items()]
    parts += [(c * c2) * _vertex_action_on_tree(psi, g, p2) for g, c in ug.items() for p2, c2 in wp.items()]
    return lc_sum(parts) + bilinear_by_scaling(P.triangle_of, ug, wg)


def ext_bracket_by_scaling(P, psi, u: LinComb, w: LinComb) -> LinComb:
    (up, ug), (wp, wg) = _split_ext(u), _split_ext(w)
    terms = [
        (PlantedTree(na, p1.body), c1 * c2 * c3)
        for p1, c1 in up.items()
        for g, c2 in wg.items()
        for na, c3 in psi.edge(g, p1.plant).items()
    ]
    terms += [
        (PlantedTree(na, p2.body), -c1 * c2 * c3)
        for g, c1 in ug.items()
        for p2, c2 in wp.items()
        for na, c3 in psi.edge(g, p2.plant).items()
    ]
    return LinComb(terms) + bilinear_by_scaling(P.bracket_of, ug, wg)
