"""Multi-index decorations for singular stochastic PDEs.

Edge and vertex labels both live in N^{d+1}.  The elementary map lowers
one coordinate on both sides of a pair at once, weighted by the vertex
entry; these steps pairwise commute and are locally nilpotent, so the
exponential of any coefficient-weighted span is defined and is the
product of the one-coordinate exponentials: a binomial sum whose weights
are coordinatewise products of integers over one denominator.  The
closed-form map reads its images from per-map tables that it fills
lazily and that die with it.  The resulting one-parameter family is a
semigroup under composition, with the sign-flipped member as inverse.

``noise_extend`` adds one edge symbol and one vertex symbol via a direct
sum with a zero block; a caller names that map or the closed form, since
a config holds only ``d`` and the coefficients.  Generators X_0 .. X_d
act on decorations by raising vertex labels and lowering edge labels;
together with the closed-form map at coefficients (1, .., 1), or its
noise extension, they satisfy the post-Lie compatibility conditions.
``xi_admissible`` characterizes the planted trees generated from the
three one-edge shapes, and ``xi_generation_probe`` re-derives each
admissible tree constructively.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import product as iproduct
from math import comb
from operator import sub
from typing import Dict, Iterable, Tuple

from .decorations import (
    STAR,
    XI,
    Label,
    MultiIndex,
    MultiIndexBasis,
    NoiseOnlyBasis,
    mi_unit,
)
from .lincomb import LinComb, Scalar, as_scalar, exact_div, lc_sum
from .phimaps import PhiMap, direct_sum, exp_series, zero_map
from .postlie import PostLieBase, PsiPair, postlie_base
from .prelie import planted_graft
from .trees import DecoratedTree, PlantedTree, node


@dataclass(frozen=True)
class SpdeConfig:
    """Coordinate count and deformation coefficients."""

    d: int
    lam: Tuple[Scalar, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        lam = tuple(as_scalar(c) for c in self.lam)
        if len(lam) != self.d + 1:
            raise ValueError(f"need {self.d + 1} coefficients, got {len(lam)}")
        object.__setattr__(self, "lam", lam)

    def negated(self) -> "SpdeConfig":
        return replace(self, lam=tuple(-c for c in self.lam))


def partial_j(j: int, a: MultiIndex, b: MultiIndex) -> LinComb:
    """One lowering step: b_j (a - e_j) (x) (b - e_j), zero at the boundary."""
    if not 0 <= j < len(a):
        raise ValueError(f"direction {j} out of range for length-{len(a)} multi-indices")
    eps = mi_unit(j, len(a) - 1)
    na = a.sub(eps)
    nb = b.sub(eps)
    if na is None or nb is None:
        return LinComb()
    return LinComb.of((na, nb), b[j])


def partial_lambda(cfg: SpdeConfig) -> PhiMap:
    """Coefficient-weighted span of the lowering steps.

    Compatible by construction: the steps pairwise commute on mixed
    slots, and that property passes to linear combinations.
    """
    basis = MultiIndexBasis(cfg.d)

    def act(a: Label, b: Label) -> LinComb:
        return lc_sum(partial_j(j, a, b).scale(c) for j, c in enumerate(cfg.lam))

    return PhiMap(basis, basis, act, compat_by_construction=True)


def phi_lambda(cfg: SpdeConfig) -> PhiMap:
    """Closed form of exp(partial_lambda): a binomial sum over l <= min(a, b).

    The lowering steps commute, so the exponential is the product of the
    one-coordinate exponentials, and (a, b) goes to the sum over
    l <= m = min(a, b) of prod_j C(b_j, l_j) lambda_j^{l_j} times
    (a - l, b - l), with 0^0 = 1.  Three tables in the closure hold what
    the images share: the l <= m of each box m, the weight of each l under
    each vertex label b, and the interned a - l of each label a, for edge
    and vertex labels alike.  They are filled one entry at a time, only
    for the l that some image visits, and live and die with the map.
    """
    basis = MultiIndexBasis(cfg.d)
    ratios = tuple((c.numerator, c.denominator) for c in cfg.lam)
    boxes: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
    weights: Dict[Label, Dict[Tuple[int, ...], Scalar]] = defaultdict(dict)
    lowered: Dict[Label, Dict[Tuple[int, ...], MultiIndex]] = defaultdict(dict)

    def weight(be: Tuple[int, ...], low: Tuple[int, ...]) -> Scalar:
        num = den = 1
        for bj, lj, (n, d) in zip(be, low, ratios):
            if lj:
                num *= comb(bj, lj) * n**lj
                den *= d**lj
        return exact_div(num, den)

    def act(a: Label, b: Label) -> LinComb:
        # Distinct l give distinct a - l, so the terms need no merging;
        # only lambda^l can vanish, since C(b, l) >= 1 for l <= b.
        ae, be = a.entries, b.entries
        m = tuple(map(min, ae, be))
        box = boxes.get(m)
        if box is None:
            box = boxes[m] = tuple(iproduct(*(range(x + 1) for x in m)))
        row, a_low, b_low = weights[b], lowered[a], lowered[b]
        terms = {}
        for low in box:
            w = row.get(low)
            if w is None:
                w = row[low] = weight(be, low)
            if w:
                na = a_low.get(low)
                if na is None:
                    na = a_low[low] = MultiIndex(tuple(map(sub, ae, low)))
                nb = b_low.get(low)
                if nb is None:
                    nb = b_low[low] = MultiIndex(tuple(map(sub, be, low)))
                terms[(na, nb)] = w
        return LinComb._raw(terms)

    return PhiMap(basis, basis, act, compat_by_construction=True)


def phi_lambda_via_exp(cfg: SpdeConfig) -> PhiMap:
    """The same map built through the series, as an independent cross-check.

    Termination is guaranteed input by input: the n-th power of the span
    kills any pair (a, b) once n exceeds |min(a, b)|, so the series runs
    uncapped.
    """
    return exp_series(partial_lambda(cfg), max_iter=None)


def noise_extend(cfg: SpdeConfig) -> PhiMap:
    """Extension to the noise symbols: direct sum with the zero block.

    The mixed scalars are 0 and 1, so a multi-index edge over the noise
    source vertex is killed while the noise edge over a multi-index
    vertex is left alone.
    """
    block = zero_map(NoiseOnlyBasis(XI), NoiseOnlyBasis(STAR))
    return direct_sum(phi_lambda(cfg), block, 0, 1)


def spde_psi(d: int) -> Tuple[PostLieBase, PsiPair]:
    """Abelian generators X_0 .. X_d with raising and lowering actions.

    The vertex action raises coordinate i, the edge action lowers it
    with the vanish convention, and both kill the noise symbols, so one
    pair serves the labels with and without noise.  The pair meets the
    compatibility conditions for the closed-form map when every
    coefficient equals 1; the actions do not depend on the coefficients,
    so only ``d`` is asked for.

    Both actions memoise their images in one dict, keyed by (action,
    generator, label), which lives and dies with the returned pair.
    """
    unit = {f"X_{i}": mi_unit(i, d) for i in range(d + 1)}
    images: Dict[Tuple[str, str, Label], LinComb] = {}

    def edge(gen: str, a: Label) -> LinComb:
        key = ("edge", gen, a)
        image = images.get(key)
        if image is None:
            lowered = None if a is XI else a.sub(unit[gen])
            image = images[key] = LinComb() if lowered is None else LinComb.of(lowered)
        return image

    def vertex(gen: str, b: Label) -> LinComb:
        key = ("vertex", gen, b)
        image = images.get(key)
        if image is None:
            image = images[key] = LinComb() if b is STAR else LinComb.of(b.add(unit[gen]))
        return image

    return postlie_base(tuple(unit)), PsiPair(edge, vertex)


# ---------------------------------------------------------------------------
# The noise-generated planted subalgebra


def xi_admissible(p: PlantedTree) -> bool:
    """Membership test for the subalgebra generated by the one-edge shapes.

    Three conditions: a noise plant carries the bare source vertex,
    every noise edge ends at a source vertex, and source vertices are
    leaves.  A tree without noise labels meets all three.
    """
    if p.plant is XI and (p.body.label is not STAR or p.body.children):
        return False
    return _body_admissible(p.body)


def _body_admissible(t: DecoratedTree) -> bool:
    if t.label is STAR and t.children:
        return False
    for elabel, child in t.children:
        if elabel is XI and child.label is not STAR:
            return False
        if not _body_admissible(child):
            return False
    return True


class NotReached(Exception):
    """A probe target could not be rebuilt from the generators."""

    def __init__(self, residual: LinComb, message: str):
        super().__init__(message)
        self.residual = residual


def xi_generation_probe(cfg: SpdeConfig, targets: Iterable[PlantedTree]) -> bool:
    """Rebuild each admissible planted tree from the one-edge generators,
    under the noise extension of the closed-form map at ``cfg.lam``.

    Follows the inductive construction: detach the first child subtree,
    apply the sign-flipped map to the pair (edge label, root label) so
    that grafting back onto the root reconstitutes the target exactly,
    and recurse into the strictly smaller factors and into the deeper
    grafting terms, which have one root child less.  Raises
    :class:`NotReached` with the offending element if any step leaves a
    residual outside the subalgebra, and ``ValueError`` on a target that
    is not admissible.  The work grows with the size of the targets, which
    the caller bounds (the battery draws them from a pool of bounded size).
    """
    phi = noise_extend(cfg)
    phi_inv = noise_extend(cfg.negated())
    trees = list(targets)
    for p in trees:
        if not xi_admissible(p):
            raise ValueError(f"target {p.render()} is not admissible")
    verified: set = set()
    for p in trees:
        _probe(phi, phi_inv, p, verified)
    return True


def _probe(phi: PhiMap, phi_inv: PhiMap, p: PlantedTree, verified: set) -> None:
    if p in verified:
        return
    if not p.body.children:
        verified.add(p)
        return
    edge_label, first = p.body.children[0]
    rest_children = p.body.children[1:]
    correction = phi_inv(edge_label, p.body.label)
    parts = []
    for (new_edge, new_root), coeff in correction.sorted_items():
        left = PlantedTree(new_edge, first)
        right = PlantedTree(p.plant, node(new_root, rest_children))
        _probe(phi, phi_inv, left, verified)
        _probe(phi, phi_inv, right, verified)
        parts.append(planted_graft(phi, left, right).scale(coeff))
    residual = lc_sum(parts) - LinComb.of(p)
    if residual.coeff(p) != 0:
        raise NotReached(residual, f"target {p.render()} not met with coefficient 1")
    for q, _ in residual.sorted_items():
        if not xi_admissible(q):
            raise NotReached(residual, f"residual term {q.render()} left the subalgebra")
        if len(q.body.children) >= len(p.body.children):
            raise NotReached(residual, f"residual term {q.render()} did not shrink")
        _probe(phi, phi_inv, q, verified)
    verified.add(p)
