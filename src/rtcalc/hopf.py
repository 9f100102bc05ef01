"""Forest algebra: deformed products, coproducts, and the duality pairing.

The symmetric algebra on planted trees carries two coproducts.  The
deshuffle coproduct splits the multiset of trees with multinomial
multiplicities and makes planted trees primitive.  The cut coproduct sums
over upper parts of the vertex set: the upper part keeps the vertices
whose children all stay with them, every severed edge runs the decoration
map against its lower endpoint, and the severed edges replant the upper
components.

The deformed forest product grafts each tree of the left factor onto a
chosen vertex of the right factor or leaves it alone, running the
decoration map over each (grafted edge, target vertex) pair.  For a
tree-compatible map this is associative and dual to the cut coproduct
under the isomorphism pairing below.  ``go_triangle`` is the same sum
with every tree grafted.  Both run on one recursion, ``_graft_into``,
which sends each tree to the root or into one child and is memoised on
(subtree, trees sent into it); the product first sends each tree of the
left factor to stay or into one tree of the right.  It sums assignments by
``LinComb(pairs)``: their coefficients are integers, and summing each
through the integer-pair loop of :func:`rtcalc.lincomb.multilinear` cost
about 11% of hopf-duality's jobs_per_s.  The forest edge-product operator
``theta_bar`` runs the tree recursion of :mod:`rtcalc.prelie` on each tree
body.  Each operator refuses, by one :func:`rtcalc.phimaps.ensure_usable`,
a map refuted on the labels of all the terms of its inputs together, then
sums over those terms unsorted, by :func:`rtcalc.lincomb.multilinear` or
:meth:`LinComb.map_terms`.

The pairing is the isomorphism pairing of the Grossman-Larson and
Connes-Kreimer algebras (Hoffman, "Combinatorics of rooted trees and Hopf
algebras", Trans. AMS 355, 2003): <F, G> = sigma(F) [F = G], where the
symmetry factor sigma(F) counts the automorphisms of F that keep every
label.  It equals the sum, over the isomorphisms of the underlying
forests, of the product of decoration deltas.  Forests are canonical and
interned, so [F = G] is an identity test, and sigma is a product over runs
of equal trees and equal children.  Combinations pair by looking each
term of the shorter up in the other.

The product, the cut coproduct and ``theta_bar`` are local in the sense
:mod:`rtcalc.prelie` explains for the edge-product operator: the map acts
only on an edge and its lower endpoint, so operations at different
vertices touch disjoint label slots, and the edges meeting at one vertex
act one after another through :meth:`rtcalc.phimaps.PhiMap.act_at_vertex`.
Each operator therefore works on canonical trees directly, rebuilding
only the vertices it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct
from math import comb, factorial, prod
from typing import Dict, List, Tuple

from .lincomb import LinComb, Scalar, as_scalar, multilinear
from .phimaps import PhiMap, ensure_usable, transpose_map
from .prelie import apply_edge_maps
from .trees import EMPTY_FOREST, DecoratedTree, Forest, PlantedTree, forest, forest_mul, node

ForestComb = LinComb  # combinations of Forest
PairComb = LinComb  # combinations of (Forest, Forest)

UNIT = LinComb.of(EMPTY_FOREST)


def forest_elem(f: Forest) -> ForestComb:
    return LinComb.of(f)


def _planted(*combs: ForestComb):
    """The planted trees of the forests of ``combs``, unsorted."""
    return (p for c in combs for f, _ in c.items() for p in f.trees)


def _runs(items: Tuple) -> List[List]:
    """Each run of equal neighbours in ``items`` as ``[item, length]``.  The
    trees of a forest and the children of a vertex are sorted, so a run is
    the multiplicity of an equal tree or child."""
    runs: List[List] = []
    for x in items:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return runs


# ---------------------------------------------------------------------------
# Deformed forest product


def _groups(trees: Tuple[PlantedTree, ...], n: int):
    """Every way to send each of ``trees`` to one of ``n`` places, as the
    list of trees each place gets, in the order of ``trees``."""
    for targets in iproduct(range(n), repeat=len(trees)):
        groups: List[List[PlantedTree]] = [[] for _ in range(n)]
        for p, i in zip(trees, targets):
            groups[i].append(p)
        yield groups


def _graft_into(phi: PhiMap, t: DecoratedTree, trees: Tuple[PlantedTree, ...], memo: Dict) -> LinComb:
    """Graft every planted tree of ``trees`` onto a vertex of ``t``, summed
    over assignments.

    Each tree goes to the root or into one child.  The trees kept at the
    root run the map over (plant edge, root label) in the order of
    ``trees`` and hang from the root on the edges it returns; each child
    takes the sum for the trees sent into it, and a child that gets none
    is kept as it is.  ``memo`` holds the sum of each (subtree, trees)
    seen, so it must be scoped to one map.
    """
    key = (t, trees)
    hit = memo.get(key)
    if hit is not None:
        return hit
    kids = t.children
    pairs = []
    for here, *inner in _groups(trees, len(kids) + 1):
        local = phi.act_at_vertex(tuple(p.plant for p in here), t.label).items()
        below = [
            _graft_into(phi, c, tuple(g), memo).items() if g else ((c, 1),) for (_, c), g in zip(kids, inner)
        ]
        new = [p.body for p in here]
        for combo in iproduct(*below):
            grown = tuple((e, c) for (e, _), (c, _) in zip(kids, combo))
            coeff = prod(k for _, k in combo)
            for (edges, b), c in local:
                pairs.append((node(b, grown + tuple(zip(edges, new))), coeff * c))
    hit = memo[key] = LinComb(pairs)
    return hit


def _graft_basis(phi: PhiMap, F: Forest, G: Forest, memo: Dict) -> ForestComb:
    """Graft each tree of F onto a vertex of G or leave it planted beside G,
    summed over assignments.

    Each tree of F stays or goes into one tree of G, and
    :func:`_graft_into` places the trees each tree of G gets; trees of G
    that get none are kept as they are.
    """
    pairs = []
    for staying, *inner in _groups(F.trees, len(G.trees) + 1):
        options = [
            [(PlantedTree(g.plant, body), c) for body, c in _graft_into(phi, g.body, tuple(group), memo).items()]
            if group
            else ((g, 1),)
            for g, group in zip(G.trees, inner)
        ]
        for combo in iproduct(*options):
            pairs.append((forest(staying + [g for g, _ in combo]), prod(c for _, c in combo)))
    return LinComb(pairs)


def star_product(phi: PhiMap, x: ForestComb, y: ForestComb) -> ForestComb:
    """The deformed product of two forest combinations.

    Each tree of the left factor either stays planted or grafts onto a
    vertex of the right factor, the map acting on each grafted pair.  The
    empty forest is the unit.  Refuses maps refuted on the labels of both
    factors, since the result would depend on internal application order.
    """
    ensure_usable(phi, _planted(x, y))
    memo: Dict = {}
    return multilinear(lambda f, g: _graft_basis(phi, f, g, memo).items(), x, y)


def go_triangle(phi: PhiMap, x: ForestComb, p: LinComb) -> LinComb:
    """Graft every tree of each forest term somewhere onto one planted tree.

    Unlike the product, nothing may stay behind: the assignments run over
    vertices of the target only, so the result is again a combination of
    planted trees.  With a one-tree forest on the left this coincides
    with the deformed grafting of planted elements.  Refuses a map refuted
    on the labels of ``x`` and ``p`` together.
    """
    ensure_usable(phi, chain(_planted(x), (pt for pt, _ in p.items())))
    memo: Dict = {}

    def grafted(F: Forest, pt: PlantedTree):
        return ((PlantedTree(pt.plant, t), c) for t, c in _graft_into(phi, pt.body, F.trees, memo).items())

    return multilinear(grafted, x, p)


# ---------------------------------------------------------------------------
# Coproducts


def deshuffle(x: ForestComb) -> PairComb:
    """Split the multiset of trees in all ways, with multinomial weights.

    Repeated trees contribute binomial factors; planted trees are
    primitive and the empty forest is grouplike.
    """

    def split(f: Forest) -> PairComb:
        groups = _runs(f.trees)

        def halves(picks: Tuple[int, ...]):
            weight = 1
            left: List[PlantedTree] = []
            right: List[PlantedTree] = []
            for (t, m), k in zip(groups, picks):
                weight *= comb(m, k)
                left.extend([t] * k)
                right.extend([t] * (m - k))
            return (forest(left), forest(right)), weight

        return LinComb(halves(picks) for picks in iproduct(*[range(m + 1) for _, m in groups]))

    return x.map_terms(split)


def _cuts_below(phi: PhiMap, t: DecoratedTree) -> LinComb:
    """The cuts of ``t`` that keep its root below, as a combination of
    pairs (upper planted trees, lower tree).

    Each child is either severed, the whole child going up replanted on
    its edge, or kept, the recursion continuing inside it.  For each
    choice of severed children their edges run the map against the
    root's label once, in canonical sibling order.
    """
    if not t.children:
        return LinComb.of(((), t))
    below = []
    for _, c in t.children:  # a loop, not a comprehension: one frame per level
        below.append(_cuts_below(phi, c).items())
    pairs = []
    for keep in iproduct((False, True), repeat=len(t.children)):
        severed = [i for i, k in enumerate(keep) if not k]
        kept = [i for i, k in enumerate(keep) if k]
        local = phi.act_at_vertex(tuple(t.children[i][0] for i in severed), t.label).items()
        for combo in iproduct(*[below[i] for i in kept]):
            above = tuple(u for (ups, _), _ in combo for u in ups)
            kids = [(t.children[i][0], lower) for i, ((_, lower), _) in zip(kept, combo)]
            coeff = prod(c for _, c in combo)
            for (images, b), c in local:
                ups = tuple(PlantedTree(a, t.children[i][1]) for a, i in zip(images, severed)) + above
                pairs.append(((ups, node(b, kids)), coeff * c))
    return LinComb(pairs)


def cut_coproduct(phi: PhiMap, x: ForestComb) -> PairComb:
    """Sum over upper parts, the map running over every severed edge.

    By the root recursion of Connes and Kreimer: each planted tree either
    goes up whole, untouched, or keeps its root below, and then at each
    vertex below every child is either severed or kept (``_cuts_below``).
    A severed edge runs the map against its lower endpoint; plant edges
    have no decorated lower endpoint and move with their tree, untouched.
    The upper part lands in the left factor, replanted on the severed
    edges.  Refuses a map refuted on the labels of all the terms of ``x``
    together.
    """
    ensure_usable(phi, _planted(x))

    def cuts(f: Forest) -> PairComb:
        options = [
            [((p,), (), 1)]
            + [(ups, (PlantedTree(p.plant, lower),), c) for (ups, lower), c in _cuts_below(phi, p.body).items()]
            for p in f.trees
        ]
        return LinComb(
            (
                (
                    forest([u for ups, _, _ in combo for u in ups]),
                    forest([w for _, lows, _ in combo for w in lows]),
                ),
                prod(c for _, _, c in combo),
            )
            for combo in iproduct(*options)
        )

    return x.map_terms(cuts)


def theta_bar(phi: PhiMap, x: ForestComb) -> ForestComb:
    """Edge-product operator on forests.

    Runs :func:`rtcalc.prelie.apply_edge_maps` on the body of each tree
    and multiplies the images by :func:`rtcalc.lincomb.multilinear`; plant
    edges have no decorated lower endpoint and keep their labels.  An
    algebra morphism by construction.  Refuses a map refuted on the labels
    of all the terms of ``x`` together.
    """
    ensure_usable(phi, _planted(x))

    def images(f: Forest) -> ForestComb:
        build = lambda *bs: ((forest(PlantedTree(t.plant, b) for t, b in zip(f.trees, bs)), 1),)
        return multilinear(build, *[apply_edge_maps(phi, t.body) for t in f.trees])

    return x.map_terms(images)


# ---------------------------------------------------------------------------
# Pairing


class Pairing:
    """The isomorphism pairing of forests: ``forests(F, G)`` is the symmetry
    factor of F when F and G are equal, and 0 otherwise.

    Forests are interned and canonical, so equality is identity.  The
    symmetry factor counts the label-preserving automorphisms: the product,
    over each run of m equal trees of a forest or m equal children of a
    vertex, of m! times the run's own factor to the m-th.  Each tree body's
    factor is kept in ``_memo``, which lives as long as the object.
    """

    def __init__(self) -> None:
        self._memo: Dict[DecoratedTree, int] = {}

    def _sigma(self, t: DecoratedTree) -> int:
        hit = self._memo.get(t)
        if hit is not None:
            return hit
        s = 1
        for (_, c), m in _runs(t.children):  # a loop, not a comprehension: one frame per level
            s *= factorial(m) * self._sigma(c) ** m
        self._memo[t] = s
        return s

    def forests(self, f1: Forest, f2: Forest) -> int:
        if f1 is not f2:
            return 0
        s = 1
        for p, m in _runs(f1.trees):
            s *= factorial(m) * self._sigma(p.body) ** m
        return s


def delta_pairing() -> Pairing:
    """The pairing under which matching decorations pair to 1, and forests
    to their symmetry factor."""
    return Pairing()


def pair_forests(pairing: Pairing, x: ForestComb, y: ForestComb) -> Scalar:
    """Bilinear extension of the forest pairing to combinations.

    Only a forest against itself pairs, so the terms of the shorter
    combination are looked up in the other; an exact sum, in storage order.
    """
    if len(y) < len(x):
        x, y = y, x
    total = 0
    for f, c in x.items():
        d = y.coeff(f)
        if d:
            total += c * d * pairing.forests(f, f)
    return as_scalar(total)


def pair_tensor(pairing: Pairing, x: PairComb, y: PairComb) -> Scalar:
    """Pair two combinations of forest pairs factorwise: only a pair against
    itself pairs, so the terms of the shorter are looked up in the other."""
    if len(y) < len(x):
        x, y = y, x
    total = 0
    for (f, g), c in x.items():
        d = y.coeff((f, g))
        if d:
            total += c * d * pairing.forests(f, f) * pairing.forests(g, g)
    return as_scalar(total)


def counit(x: ForestComb) -> Scalar:
    return x.coeff(EMPTY_FOREST)


@dataclass(frozen=True)
class PairingDefect:
    identity: str
    inputs: Tuple
    lhs: Scalar
    rhs: Scalar


def hopf_pairing_defects(phi: PhiMap, pairing: Pairing, forests: List[Forest]) -> List[PairingDefect]:
    """Check the four duality identities over sample forests, ``forests``
    on both sides of the pairing.

    The cut coproduct runs ``phi`` and the forest product runs its
    transpose (:func:`rtcalc.phimaps.transpose_map`), the adjoint that
    duality needs; so the bases of ``phi`` must be finite, and an infinite
    one raises ``ValueError``.  Returns the violations of the counit and
    product-coproduct identities, empty when everything holds.
    """
    phi_t = transpose_map(phi)
    defects: List[PairingDefect] = []

    for f in forests:
        lhs = pair_forests(pairing, UNIT, forest_elem(f))
        rhs = counit(forest_elem(f))
        if lhs != rhs:
            defects.append(PairingDefect("unit-counit", (f,), lhs, rhs))
    for f in forests:
        lhs = pair_forests(pairing, forest_elem(f), UNIT)
        rhs = counit(forest_elem(f))
        if lhs != rhs:
            defects.append(PairingDefect("counit-unit", (f,), lhs, rhs))

    # Both identities only pair forests of matching total size, so the
    # forests are bucketed by vertex count once.
    sizes = [(f, f.vertex_count) for f in forests]
    by_size: Dict[int, List[Forest]] = {}
    for f, n in sizes:
        by_size.setdefault(n, []).append(f)
    cut_cache = {f: cut_coproduct(phi, forest_elem(f)) for f in forests}
    for x1, nx in sizes:
        for y1, ny in sizes:
            targets = by_size.get(nx + ny)
            if not targets:
                continue
            prod = star_product(phi_t, forest_elem(x1), forest_elem(y1))
            for f in targets:
                lhs = pair_forests(pairing, prod, forest_elem(f))
                rhs = pair_tensor(
                    pairing, LinComb.of((x1, y1)), cut_cache[f]
                )
                if lhs != rhs:
                    defects.append(PairingDefect("product-vs-cut", (x1, y1, f), lhs, rhs))

    for x1, nx in sizes:
        dx = deshuffle(forest_elem(x1))
        for f, nf in sizes:
            for g in by_size.get(nx - nf, ()):
                lhs = pair_tensor(pairing, dx, LinComb.of((f, g)))
                rhs = pair_forests(pairing, forest_elem(x1), forest_elem(forest_mul(f, g)))
                if lhs != rhs:
                    defects.append(PairingDefect("deshuffle-vs-product", (x1, f, g), lhs, rhs))

    return defects
