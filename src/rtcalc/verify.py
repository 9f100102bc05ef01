"""Property battery behind ``rtcalc verify-suite``.

Each check re-derives one of the package's structural guarantees on a
seeded sample and reports a one-line summary.  The ``small`` level is a
quick smoke run; ``full`` widens every grid to the sizes the test suite
freezes.  All sampling is seeded per check, so both levels are
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from .decorations import (
    STAR,
    XI,
    Label,
    MultiIndex,
    MultiIndexBasis,
    lambda_pow,
    mi,
    symbols,
)
from .hopf import (
    cut_coproduct,
    delta_pairing,
    deshuffle,
    forest_elem,
    hopf_pairing_defects,
    star_product,
)
from .lincomb import LinComb, multilinear
from .phimaps import (
    Compatible,
    assemble,
    block_matrix,
    blocks_commute,
    build_JD,
    check_compat,
    classify_m2,
    default_block_bases,
    from_blocks,
    from_table,
    AlreadyJD,
    NotCompatible,
)
from .postlie import postlie_axiom_defects, psi_compat_defects
from .prelie import (
    graft_phi,
    nap_coproduct,
    nap_eigen_defect,
    planted_graft,
    multiple_prelie_defect,
    theta,
    theta_morphism_defect,
)
from .ratmat import det, mat, nullspace
from .spde import (
    SpdeConfig,
    noise_extend,
    partial_lambda,
    phi_lambda,
    phi_lambda_via_exp,
    spde_psi,
    xi_admissible,
    xi_generation_probe,
)
from .trees import EMPTY_FOREST, DecoratedTree, Forest, PlantedTree, forest, forest_mul, leaf, node


class Defect(Exception):
    """A check found a counterexample."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Scale:
    table_maps: int
    lam_samples: int
    spde_dims: Tuple[int, ...]
    entry_bound: int
    power_order: int
    theta_vertices: int
    theta_inverse_vertices: int
    star_vertices: int
    pairing_vertices: int
    psi_dims: Tuple[int, ...]
    psi_entries: int
    adm_vertices: int
    m2_grids: int
    nap_vertices: int


SCALES: Dict[str, Scale] = {
    "small": Scale(
        table_maps=16,
        lam_samples=2,
        spde_dims=(0, 1),
        entry_bound=2,
        power_order=3,
        theta_vertices=2,
        theta_inverse_vertices=3,
        star_vertices=3,
        pairing_vertices=2,
        psi_dims=(0, 1),
        psi_entries=2,
        adm_vertices=2,
        m2_grids=24,
        nap_vertices=3,
    ),
    "full": Scale(
        table_maps=50,
        lam_samples=5,
        spde_dims=(0, 1, 2),
        entry_bound=3,
        power_order=4,
        theta_vertices=3,
        theta_inverse_vertices=4,
        star_vertices=4,
        pairing_vertices=3,
        psi_dims=(0, 1, 2),
        psi_entries=3,
        adm_vertices=3,
        m2_grids=100,
        nap_vertices=4,
    ),
}


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small decorated shapes


def _compositions(n: int) -> Iterable[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _levels(n: int, elabels: Sequence[Label], vlabels: Sequence[Label]) -> List[Tuple[DecoratedTree, ...]]:
    """The decorated trees with exactly k vertices, for k = 0..n, each level
    built from the ones below it in a table local to the call."""
    levels: List[Tuple[DecoratedTree, ...]] = [(), tuple(leaf(v) for v in vlabels)]
    for k in range(2, n + 1):
        acc: Set[DecoratedTree] = set()
        for root in vlabels:
            for split in _compositions(k - 1):
                pools = [[(e, t) for e in elabels for t in levels[part]] for part in split]
                acc.update(node(root, combo) for combo in iproduct(*pools))
        levels.append(tuple(sorted(acc, key=lambda t: t.sort_key)))
    return levels


def trees_up_to(n: int, elabels: Sequence[Label], vlabels: Sequence[Label]) -> List[DecoratedTree]:
    return [t for level in _levels(n, elabels, vlabels)[1 : n + 1] for t in level]


def planted_up_to(n: int, elabels: Sequence[Label], vlabels: Sequence[Label]) -> List[PlantedTree]:
    return [PlantedTree(e, t) for e in elabels for t in trees_up_to(n, elabels, vlabels)]


def forests_up_to(n: int, elabels: Sequence[Label], vlabels: Sequence[Label]) -> List[Forest]:
    """All forests with at most n total vertices, the empty forest included."""
    pool = planted_up_to(n, elabels, vlabels)
    acc: Set[Forest] = {EMPTY_FOREST}
    frontier = {EMPTY_FOREST}
    while frontier:
        frontier = {forest(f.trees + (p,)) for f in frontier for p in pool if f.vertex_count + p.body.vertex_count <= n}
        frontier -= acc
        acc |= frontier
    return sorted(acc, key=lambda f: f.sort_key)


# ---------------------------------------------------------------------------
# Shared sampling helpers


def _rand_rat(rng: random.Random, top: int = 2, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def _rand_mat(rng: random.Random, n: int):
    return mat([[_rand_rat(rng) for _ in range(n)] for _ in range(n)])


def _random_table_map(rng: random.Random, E, V):
    table = {}
    for a in E.labels():
        for b in V.labels():
            entries = []
            for a2 in E.labels():
                for b2 in V.labels():
                    if rng.random() < 0.4:
                        entries.append((_rand_rat(rng), a2, b2))
            table[(a, b)] = entries
    return from_table(E, V, table)


def _random_jd_map(rng: random.Random, m: int, form: str):
    return build_JD(_rand_mat(rng, m), _rand_mat(rng, m), form)


def _mi_pairs(d: int, bound: int) -> List[Tuple[MultiIndex, MultiIndex]]:
    labels = MultiIndexBasis(d).labels_up_to(bound)
    return [(a, b) for a in labels for b in labels]


def _ones(d: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(1) for _ in range(d + 1))


# ---------------------------------------------------------------------------
# The checks


def _check_table_census(scale: Scale) -> str:
    rng = random.Random(101)
    E, V = default_block_bases(2, 2)
    elabels, vlabels = E.labels(), V.labels()
    singles = [LinComb.of(leaf(v)) for v in vlabels]
    n_compatible = n_refuted = 0
    for i in range(scale.table_maps):
        if i % 2 == 0:
            phi = from_blocks(_random_jd_map(rng, 2, "J" if i % 4 == 0 else "D"), E, V)
        else:
            phi = _random_table_map(rng, E, V)
        verdict = check_compat(phi)

        def product(x, lab, y, phi=phi):
            return graft_phi(phi, x, lab, y)

        defect_free = all(
            multiple_prelie_defect(product, a, a2, x, y, z).is_zero
            for a in elabels
            for a2 in elabels
            for x in singles
            for y in singles
            for z in singles
        )
        if isinstance(verdict, Compatible) != defect_free:
            raise Defect(f"map {i}: verdict {verdict} disagrees with the grafting relation")
        if defect_free:
            n_compatible += 1
        else:
            n_refuted += 1
    if not n_compatible or not n_refuted:
        raise Defect("sample never hit one of the two verdicts; widen it")
    return f"{n_compatible} compatible and {n_refuted} refuted maps agree with the relation"


def _check_semigroup(scale: Scale) -> str:
    rng = random.Random(102)
    pairs_checked = 0
    for d in scale.spde_dims:
        grid = _mi_pairs(d, scale.entry_bound)
        for _ in range(scale.lam_samples):
            lam = tuple(_rand_rat(rng) for _ in range(d + 1))
            mu = tuple(_rand_rat(rng) for _ in range(d + 1))
            f_lam = phi_lambda(SpdeConfig(d, lam))
            f_mu = phi_lambda(SpdeConfig(d, mu))
            f_sum = phi_lambda(SpdeConfig(d, tuple(x + y for x, y in zip(lam, mu))))
            f_inv = phi_lambda(SpdeConfig(d, tuple(-x for x in lam)))
            for a, b in grid:
                if f_lam.apply(f_mu(a, b)) != f_sum(a, b):
                    raise Defect(f"composition broke at d={d}, ({a.render()},{b.render()})")
                if f_inv.apply(f_lam(a, b)) != LinComb.of((a, b)):
                    raise Defect(f"inverse broke at d={d}, ({a.render()},{b.render()})")
                pairs_checked += 1
    return f"composition and inverse hold on {pairs_checked} label pairs"


def _power_reference(cfg: SpdeConfig, a: MultiIndex, b: MultiIndex, n: int) -> LinComb:
    cap = a.min_with(b)
    terms = []
    for entries in iproduct(*(range(e + 1) for e in cap.entries)):
        l = MultiIndex(entries)
        if l.degree == n:
            terms.append(((a.sub(l), b.sub(l)), factorial(n) * lambda_pow(cfg.lam, l) * b.binom(l)))
    return LinComb(terms)


def _check_exp_cross(scale: Scale) -> str:
    rng = random.Random(103)
    pairs_checked = powers_checked = 0
    for d in scale.spde_dims:
        grid = _mi_pairs(d, scale.entry_bound)
        for _ in range(scale.lam_samples):
            cfg = SpdeConfig(d, tuple(_rand_rat(rng) for _ in range(d + 1)))
            closed = phi_lambda(cfg)
            series = phi_lambda_via_exp(cfg)
            for a, b in grid:
                if closed(a, b) != series(a, b):
                    raise Defect(f"series disagrees at d={d}, ({a.render()},{b.render()})")
                pairs_checked += 1
    cfg = SpdeConfig(1, (Fraction(1), Fraction(-2)))
    dmap = partial_lambda(cfg)
    for a, b in _mi_pairs(1, scale.entry_bound):
        power = LinComb.of((a, b))
        for n in range(1, scale.power_order + 1):
            power = dmap.apply(power)
            if power != _power_reference(cfg, a, b, n):
                raise Defect(f"power {n} mismatch at ({a.render()},{b.render()})")
            powers_checked += 1
    return f"closed form matches the series on {pairs_checked} pairs, powers on {powers_checked}"


def _check_theta(scale: Scale) -> str:
    rng = random.Random(104)
    d0 = [mi(0), mi(1)]
    cases = [(phi_lambda(SpdeConfig(0, (Fraction(1),))), d0, d0)]
    E, V = default_block_bases(2, 2)
    cases.append((from_blocks(_random_jd_map(rng, 2, "D"), E, V), list(E.labels()), list(V.labels())))
    triples = 0
    for phi, elabels, vlabels in cases:
        ts = trees_up_to(scale.theta_vertices, elabels, vlabels)
        for x in ts:
            for y in ts:
                for a in elabels:
                    defect = theta_morphism_defect(phi, LinComb.of(x), a, LinComb.of(y))
                    if not defect.is_zero:
                        raise Defect(f"morphism defect on ({x.render()}, {a.render()}, {y.render()})")
                    triples += 1
    lam = (Fraction(1, 2),)
    fwd = phi_lambda(SpdeConfig(0, lam))
    back = phi_lambda(SpdeConfig(0, tuple(-x for x in lam)))
    labels = [mi(k) for k in range(3)]
    inverses = 0
    for t in trees_up_to(scale.theta_inverse_vertices, labels, labels):
        if theta(fwd, theta(back, LinComb.of(t))) != LinComb.of(t):
            raise Defect(f"operator inverse failed on {t.render()}")
        inverses += 1
    return f"morphism on {triples} triples, inverse on {inverses} trees"


def _star_phi(rng: random.Random):
    E = symbols("a", ("a1",))
    V = symbols("b", ("b1", "b2"))
    blk = _rand_mat(rng, 2)
    return from_blocks(block_matrix([[blk]]), E, V), E, V


def _tensor_star(phi, star_cache, dx: LinComb, dy: LinComb) -> LinComb:
    """The product of two combinations of forest pairs, factor by factor."""

    def factorwise(fg1, fg2):
        (f1, g1), (f2, g2) = fg1, fg2
        left, right = _cached_star(phi, star_cache, f1, f2), _cached_star(phi, star_cache, g1, g2)
        return multilinear(lambda fa, fb: (((fa, fb), 1),), left, right).items()

    return multilinear(factorwise, dx, dy)


def _cached_star(phi, cache, f: Forest, g: Forest) -> LinComb:
    key = (f, g)
    hit = cache.get(key)
    if hit is None:
        hit = star_product(phi, forest_elem(f), forest_elem(g))
        cache[key] = hit
    return hit


def _check_star(scale: Scale) -> str:
    rng = random.Random(105)
    phi, E, V = _star_phi(rng)
    fs = forests_up_to(scale.star_vertices, E.labels(), V.labels())
    cache: Dict = {}
    assoc = 0
    for x in fs:
        for y in fs:
            if x.vertex_count + y.vertex_count > scale.star_vertices:
                continue
            for z in fs:
                if x.vertex_count + y.vertex_count + z.vertex_count > scale.star_vertices:
                    continue
                left = _cached_star(phi, cache, x, y).map_terms(lambda f: _cached_star(phi, cache, f, z))
                right = _cached_star(phi, cache, y, z).map_terms(lambda f: _cached_star(phi, cache, x, f))
                if left != right:
                    raise Defect(f"associativity broke on ({x.render()}, {y.render()}, {z.render()})")
                assoc += 1
    coprod_ok = 0
    for x in fs:
        for y in fs:
            if x.vertex_count + y.vertex_count > scale.star_vertices:
                continue
            lhs = deshuffle(_cached_star(phi, cache, x, y))
            rhs = _tensor_star(phi, cache, deshuffle(forest_elem(x)), deshuffle(forest_elem(y)))
            if lhs != rhs:
                raise Defect(f"product-coproduct compatibility broke on ({x.render()}, {y.render()})")
            coprod_ok += 1
    return f"associativity on {assoc} triples, coproduct compatibility on {coprod_ok} pairs"


def _check_cut_coproduct(scale: Scale) -> str:
    rng = random.Random(106)
    phi, E, V = _star_phi(rng)
    fs = forests_up_to(scale.star_vertices, E.labels(), V.labels())

    def delta_left(gh):  # (Δ ⊗ id) on one pair
        g, h = gh
        return (((g1, g2, h), c) for (g1, g2), c in cut_coproduct(phi, forest_elem(g)).items())

    def delta_right(gh):  # (id ⊗ Δ) on one pair
        g, h = gh
        return (((g, h1, h2), c) for (h1, h2), c in cut_coproduct(phi, forest_elem(h)).items())

    def pairwise_mul(fp, gp):
        (f1, f2), (g1, g2) = fp, gp
        return (((forest_mul(f1, g1), forest_mul(f2, g2)), 1),)

    coassoc = mult = 0
    for f in fs:
        dx = cut_coproduct(phi, forest_elem(f))
        if multilinear(delta_left, dx) != multilinear(delta_right, dx):
            raise Defect(f"coassociativity broke on {f.render()}")
        coassoc += 1
    for f in fs:
        for g in fs:
            if f.vertex_count + g.vertex_count > scale.star_vertices:
                continue
            lhs = cut_coproduct(phi, forest_elem(forest_mul(f, g)))
            rhs = multilinear(pairwise_mul, cut_coproduct(phi, forest_elem(f)), cut_coproduct(phi, forest_elem(g)))
            if lhs != rhs:
                raise Defect(f"multiplicativity broke on ({f.render()}, {g.render()})")
            mult += 1
    return f"coassociative on {coassoc} forests, multiplicative on {mult} pairs"


def _check_pairing(scale: Scale) -> str:
    rng = random.Random(107)
    E, V = default_block_bases(2, 2)
    phi = from_blocks(_random_jd_map(rng, 2, "J"), E, V)
    fs = forests_up_to(scale.pairing_vertices, E.labels(), V.labels())
    defects = hopf_pairing_defects(phi, delta_pairing(), fs)
    if defects:
        d = defects[0]
        raise Defect(f"{d.identity} broke on {d.inputs}: {d.lhs} != {d.rhs}")
    return f"four identities over {len(fs)} forests per side"


def _check_spde_actions(scale: Scale) -> str:
    label_pairs = 0
    for d in scale.psi_dims:
        for noise in (False, True):
            cfg = SpdeConfig(d, _ones(d))
            phi = noise_extend(cfg) if noise else phi_lambda(cfg)
            base, psi = spde_psi(d)
            mis = list(MultiIndexBasis(d).labels_up_to(scale.psi_entries))
            elabels = mis + [XI] if noise else mis
            vlabels = mis + [STAR] if noise else mis
            defects = psi_compat_defects(phi, base, psi, elabels, vlabels)
            if defects:
                d0 = defects[0]
                raise Defect(f"{d0.condition} defect at d={d}, noise={noise}")
            label_pairs += len(elabels) * len(vlabels)
    phi = noise_extend(SpdeConfig(1, _ones(1)))
    base, psi = spde_psi(1)
    elems = [
        LinComb.of("X_0"),
        LinComb.of("X_1"),
        LinComb.of(PlantedTree(mi(1, 0), leaf(mi(0, 1)))),
        LinComb.of(PlantedTree(XI, leaf(STAR))),
        LinComb.of("X_0") + LinComb.of(PlantedTree(mi(0, 1), node(mi(1, 1), ((XI, leaf(STAR)),)))),
    ]
    triples = 0
    for u in elems:
        for v in elems:
            for w in elems:
                if not postlie_axiom_defects(phi, base, psi, u, v, w).all_zero:
                    raise Defect("an extension axiom left a residual")
                triples += 1
    return f"action compatibility on {label_pairs} label pairs, axioms on {triples} triples"


def _adm_labels(cfg: SpdeConfig) -> Tuple[List[Label], List[Label]]:
    mis = list(MultiIndexBasis(cfg.d).labels_up_to(1))
    return mis + [XI], mis + [STAR]


def _admissible_pool(cfg: SpdeConfig, max_vertices: int) -> List[PlantedTree]:
    elabels, vlabels = _adm_labels(cfg)
    return [p for p in planted_up_to(max_vertices, elabels, vlabels) if xi_admissible(p)]


def _check_admissible_closure(scale: Scale) -> str:
    cfg = SpdeConfig(0, _ones(0))
    phi = noise_extend(cfg)
    pool = _admissible_pool(cfg, scale.adm_vertices)
    products = 0
    for u in pool:
        for w in pool:
            for q, _ in planted_graft(phi, u, w).sorted_items():
                if not xi_admissible(q):
                    raise Defect(f"{u.render()} times {w.render()} left the subalgebra at {q.render()}")
            products += 1
    return f"{products} products of {len(pool)} admissible trees stay admissible"


def _check_generation(scale: Scale) -> str:
    cfg = SpdeConfig(0, _ones(0))
    pool = _admissible_pool(cfg, scale.adm_vertices)
    xi_generation_probe(cfg, pool)
    return f"all {len(pool)} admissible trees rebuilt from the one-edge generators"


def _check_block_census(scale: Scale) -> str:
    rng = random.Random(110)
    n_commuting = n_not = 0
    for i in range(scale.m2_grids):
        m = 2 if i % 2 == 0 else 3
        if i % 3 == 0:
            M = _random_jd_map(rng, m, "J" if i % 2 == 0 else "D")
        else:
            M = block_matrix([[_rand_mat(rng, 2) for _ in range(m)] for _ in range(m)])
        com = blocks_commute(M)
        verdict = check_compat(from_blocks(M))
        if com != isinstance(verdict, Compatible):
            raise Defect(f"grid {i}: commutation and verdict disagree")
        if com:
            n_commuting += 1
        else:
            n_not += 1
    if not n_commuting or not n_not:
        raise Defect("census sample missed one of the two verdicts")
    for size in (2, 3):
        A, B = _rand_mat(rng, size), _rand_mat(rng, size)
        if det(assemble(build_JD(A, B, "D"))) != det(A) * det(B):
            raise Defect(f"diagonal-form determinant identity failed at size {size}")
        if det(assemble(build_JD(A, B, "J"))) != det(A) ** 2:
            raise Defect(f"nilpotent-form determinant identity failed at size {size}")
    good = classify_m2(_random_jd_map(rng, 2, "J"))
    if not isinstance(good, AlreadyJD):
        raise Defect("a built normal form was not recognized")
    bad = classify_m2(block_matrix([[mat([[0, 1], [0, 0]]), mat([[1, 0], [0, 0]])],
                                    [mat([[0, 0], [0, 0]]), mat([[0, 0], [1, 0]])]]))
    if not isinstance(bad, NotCompatible):
        raise Defect("a noncommuting grid was not rejected")
    return f"{n_commuting} commuting / {n_not} noncommuting grids agree; determinants match"


def _check_nap(scale: Scale) -> str:
    E = symbols("a", ("a1", "a2"))
    V = symbols("b", ("b1",))
    for p in planted_up_to(scale.nap_vertices, E.labels(), V.labels()):
        if not nap_eigen_defect(LinComb.of(p)).is_zero:
            raise Defect(f"regraft eigen relation failed on {p.render()}")
    basis = planted_up_to(3, E.labels(), V.labels())
    pair_index: Dict = {}
    columns = []
    for p in basis:
        img = nap_coproduct(LinComb.of(p))
        for key, _ in img.items():
            pair_index.setdefault(key, len(pair_index))
        columns.append(img)
    rows = [[Fraction(0)] * len(basis) for _ in range(len(pair_index))]
    for j, img in enumerate(columns):
        for key, c in img.items():
            rows[pair_index[key]][j] = c
    kernel_dim = len(nullspace(mat(rows), len(basis)))
    single = [p for p in basis if not p.body.children]
    if kernel_dim != len(single):
        raise Defect(f"kernel dimension {kernel_dim} != {len(single)} single-vertex trees")
    for p in single:
        if not nap_coproduct(LinComb.of(p)).is_zero:
            raise Defect(f"{p.render()} is not in the kernel")
    return f"eigen relation up to {scale.nap_vertices} vertices; kernel is the {len(single)} single-vertex trees"


_CHECKS: List[Tuple[str, Callable[[Scale], str]]] = [
    ("compat-verdict-vs-grafting", _check_table_census),
    ("lambda-semigroup-inverse", _check_semigroup),
    ("closed-form-vs-series", _check_exp_cross),
    ("theta-morphism-inverse", _check_theta),
    ("star-assoc-deshuffle", _check_star),
    ("cut-coproduct-laws", _check_cut_coproduct),
    ("hopf-pairing-duality", _check_pairing),
    ("spde-actions", _check_spde_actions),
    ("noise-closure", _check_admissible_closure),
    ("noise-generation", _check_generation),
    ("block-census-dets", _check_block_census),
    ("regraft-eigen-kernel", _check_nap),
]


def battery(level: str) -> List[CheckResult]:
    """Run every check at the requested level and collect the reports."""
    if level not in SCALES:
        raise ValueError(f"unknown level {level!r}; pick one of {sorted(SCALES)}")
    scale = SCALES[level]
    results = []
    for name, fn in _CHECKS:
        try:
            results.append(CheckResult(name, True, fn(scale)))
        except Defect as e:
            results.append(CheckResult(name, False, str(e)))
        except Exception as e:  # noqa: BLE001 - a crashed check is a failed check
            results.append(CheckResult(name, False, f"crashed: {type(e).__name__}: {e}"))
    return results
