"""Grafting products on decorated trees and the edge-by-edge decoration map.

``graft_free`` sums, over the vertices of the right tree, the attachment
of the left tree through a new edge with the given decoration.  The
deformed variant ``graft_phi`` runs a decoration map over the fresh (edge,
target vertex) pair at each attachment; the free product is the special
case of the identity map.  Both are one recursion,
:func:`rtcalc.trees.vertex_sum`, with the attachment at the root of a
subtree as its local step: the map acts on (new edge, decoration of v)
only, so what a graft at v gives does not depend on where v sits, and the
grafts into one subtree are computed once per term of the left factor.
The family of deformed products satisfies the mutual pre-Lie relation
exactly when the map is tree-compatible, which is what
``multiple_prelie_defect`` measures.

``theta`` applies the decoration map once across every (edge, lower
endpoint) pair of a tree.  For tree-compatible maps the edge order is
irrelevant and the operator intertwines the free product with the
deformed one; ``theta_morphism_defect`` measures that statement.

The operator factorises over subtrees.  The edge from v down to its
parent p acts on two label slots only: the decoration of that edge and
the decoration of p.  Two edges with different lower endpoints therefore
act on disjoint slots and commute, whatever the map; only edges that
share a lower endpoint, that is siblings, see each other's output, and
only through the label of their common parent.  The decoration of v
itself is touched only by v's own child edges.  Hence the image of
``node(b, [(e_1, T_1), ..., (e_k, T_k)])`` is the local action of the
map on (e_1, ..., e_k; b), the child edges taken in sibling order,
combined with one term of the image of each T_i.  ``theta`` evaluates
that bottom-up and computes each distinct subtree once per call.  The
forest operator :func:`rtcalc.hopf.theta_bar` runs it on each tree body.
Grafting and the subtree images of ``theta`` are multilinear extensions,
each summed by one :func:`rtcalc.lincomb.multilinear`, which reduces each
output coefficient once.

The root-split coproduct at the bottom of the module cuts one root edge
at a time off a planted tree; regrafting the pieces back at the root
scales every tree by its number of root edges, and the kernel picks out
exactly the planted single vertices.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Tuple

from .decorations import Label
from .lincomb import LinComb, multilinear
from .phimaps import PhiMap, ensure_usable
from .trees import (
    DecoratedTree,
    PlantedTree,
    insert_child,
    node,
    split_root_edge,
    vertex_sum,
)

TreeComb = LinComb  # combinations of DecoratedTree
PlantedComb = LinComb  # combinations of PlantedTree


def _graft_sum(x: TreeComb, y: TreeComb, attach: Callable) -> TreeComb:
    """The sum over terms tx of ``x``, terms ty of ``y`` and vertices v of
    ty of ``attach(tx, s)``, the terms that graft tx at the root of the
    subtree s of ty hanging from v.

    Each term of ``x`` runs :func:`rtcalc.trees.vertex_sum` with a memo of
    its own, shared by the terms of ``y``.  The memos are kept by term of
    ``x``, so all of them live until the call returns.
    """
    scopes: Dict[DecoratedTree, Tuple[Callable, Dict]] = {}

    def grafts(tx: DecoratedTree, ty: DecoratedTree):
        scope = scopes.get(tx)
        if scope is None:
            scope = scopes[tx] = (partial(attach, tx), {})
        return vertex_sum(ty, *scope)

    return multilinear(grafts, x, y)


def graft_phi(phi: PhiMap, x: TreeComb, a: Label, y: TreeComb) -> TreeComb:
    """The deformed grafting product of two tree combinations.

    Every term of ``x`` is attached below every vertex v of every term of
    ``y``; the map acts on the pair (new edge decoration, decoration of
    v): each term c (a2, b2) of its image attaches through an edge
    decorated a2 and redecorates v as b2, with coefficient c.  Well
    defined for any linear map, compatible or not.
    """

    def attach(tx: DecoratedTree, s: DecoratedTree):
        kids = s.children
        return [(DecoratedTree(b2, insert_child(kids, (a2, tx))), c) for (a2, b2), c in phi(a, s.label).items()]

    return _graft_sum(x, y, attach)


def graft_free(x: TreeComb, a: Label, y: TreeComb) -> TreeComb:
    """Undeformed grafting: attach below every vertex, edge decorated ``a``,
    keeping the vertex's decoration."""
    return _graft_sum(x, y, lambda tx, s: ((DecoratedTree(s.label, insert_child(s.children, (a, tx))), 1),))


def _edge_image(phi: PhiMap, s: DecoratedTree, memo: Dict[DecoratedTree, TreeComb]) -> TreeComb:
    """The operator on the subtree ``s``, computed once per ``memo``.

    The root's child edges act on (edge label, root label) one at a time
    through :meth:`PhiMap.act_at_vertex`, in canonical sibling order; each
    resulting local term is combined with one term of every child image by
    :func:`rtcalc.lincomb.multilinear`.  A subtree's image does not depend
    on where it sits, so ``memo`` holds it for every distinct subtree seen.
    """
    if not s.children:
        return LinComb.of(s)
    image = memo.get(s)
    if image is not None:
        return image
    kids = []
    for _, c in s.children:  # a loop, not a comprehension: one frame per level
        kids.append(_edge_image(phi, c, memo))
    local = phi.act_at_vertex(tuple(e for e, _ in s.children), s.label)
    build = lambda state, *ts: ((node(state[1], zip(state[0], ts)), 1),)  # state: (edge labels, root label)
    image = memo[s] = multilinear(build, local, *kids)
    return image


def apply_edge_maps(phi: PhiMap, t: DecoratedTree) -> TreeComb:
    """Run the map over every (edge, lower endpoint) pair of one tree.

    The edge into v acts only on the decorations of that edge and of v's
    parent p, so edges with different lower endpoints act on disjoint
    slots and commute: only the order among siblings matters, and siblings
    act in canonical order.  The tree is evaluated bottom-up, each vertex
    combining its local action with the images of its child subtrees.
    """
    return _edge_image(phi, t, {})


def theta(phi: PhiMap, x: TreeComb) -> TreeComb:
    """The edge-product operator attached to a tree-compatible map.

    Refuses a map refuted on the labels of all the terms of ``x``
    together (on the full bases when they are finite).  The image of ``node(b, [(e_i, T_i)])`` is the local action
    of the map on (e_1, ..., e_k; b), combined with the images of the
    subtrees T_i, which are computed once per call and shared across the
    terms of ``x``; see :func:`apply_edge_maps` for why only the order of
    siblings matters.
    """
    ensure_usable(phi, (t for t, _ in x.items()))
    memo: Dict[DecoratedTree, TreeComb] = {}
    return x.map_terms(lambda t: _edge_image(phi, t, memo))


def multiple_prelie_defect(
    product: Callable[[TreeComb, Label, TreeComb], TreeComb],
    a: Label,
    a2: Label,
    x: TreeComb,
    y: TreeComb,
    z: TreeComb,
) -> TreeComb:
    """Residual of the mutual pre-Lie relation for one product family.

    Zero for all inputs and all index pairs (a, a2) exactly when the
    family is pre-Lie in the multiple sense.
    """
    left = product(x, a, product(y, a2, z)) - product(product(x, a, y), a2, z)
    right = product(y, a2, product(x, a, z)) - product(product(y, a2, x), a, z)
    return left - right


def theta_morphism_defect(phi: PhiMap, x: TreeComb, a: Label, y: TreeComb) -> TreeComb:
    """Residual of the intertwining property of the edge-product operator:
    the operator of ``phi`` applied to the free product of ``x`` and ``y``,
    less the phi-deformed product of their images.  Zero for all inputs
    when ``phi`` is tree-compatible.
    """
    return theta(phi, graft_free(x, a, y)) - graft_phi(phi, theta(phi, x), a, theta(phi, y))


# ---------------------------------------------------------------------------
# Root-split coproduct on planted trees


def planted_graft(phi: PhiMap, u: PlantedTree, w: PlantedTree) -> PlantedComb:
    """Graft the body of u onto the body of w through phi, keeping w's plant."""
    grafted = graft_phi(phi, LinComb.of(u.body), u.plant, LinComb.of(w.body))
    return grafted.map_terms(lambda t: LinComb.of(PlantedTree(w.plant, t)))


def root_split(p: PlantedTree) -> LinComb:
    """Cut each root edge in turn: pairs (branch planted on the cut edge,
    remainder on the original plant edge)."""
    return LinComb((split_root_edge(p, i), 1) for i in range(len(p.body.children)))


def nap_coproduct(x: PlantedComb) -> LinComb:
    """Linear extension of the root split to combinations."""
    return x.map_terms(root_split)


def root_regraft(pairs: LinComb) -> PlantedComb:
    """Reattach the first component at the body root of the second."""

    def one(pair: Tuple[PlantedTree, PlantedTree]) -> PlantedComb:
        branch, rest = pair
        regrown = node(rest.body.label, rest.body.children + ((branch.plant, branch.body),))
        return LinComb.of(PlantedTree(rest.plant, regrown))

    return pairs.map_terms(one)


def nap_eigen_defect(x: PlantedComb) -> PlantedComb:
    """Regraft-after-split minus (number of root edges) times the input.

    Zero on every planted tree; stated per basis tree since the scaling
    weight depends on the tree.
    """
    return x.map_terms(
        lambda p: root_regraft(root_split(p)) - LinComb.of(p, len(p.body.children))
    )
