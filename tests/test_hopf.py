import dataclasses
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from forest_oracles import (
    PermanentPairing,
    apply_at,
    cut_coproduct as oracle_cut_coproduct,
    cut_coproduct_by_scaling,
    go_triangle_by_scaling,
    star_product_by_scaling,
    theta_bar_nested,
    delta_base,
    forest_sites,
    graft_basis,
    graft_forest,
    grafting_maps,
    isomorphisms,
    pair_forests_by_double_loop,
    pair_tensor_by_double_loop,
    rebuild_forest,
)
from rtcalc.decorations import symbols
from rtcalc.hopf import (
    UNIT,
    Pairing,
    counit,
    cut_coproduct,
    delta_pairing,
    deshuffle,
    forest_elem,
    go_triangle,
    hopf_pairing_defects,
    pair_forests,
    pair_tensor,
    star_product,
    theta_bar,
)
from rtcalc.lincomb import LinComb, lc_sum, term_key
from rtcalc.phimaps import (
    IncompatiblePhi,
    Refuted,
    build_JD,
    check_compat,
    default_block_bases,
    direct_sum,
    from_blocks,
    from_table,
    identity_map,
    tensor_map,
)
from rtcalc.prelie import graft_phi, theta
from rtcalc.spde import SpdeConfig, phi_lambda
from rtcalc.trees import (
    EMPTY_FOREST,
    PlantedTree,
    forest,
    forest_mul,
    leaf,
    node,
)
from rtcalc.verify import forests_up_to, planted_up_to

E = symbols("E", ["a1", "a2", "a3", "a4"])
V = symbols("V", ["b1", "b2", "b3", "b4"])
a1, a2, a3, a4 = E.labels()
b1, b2, b3, b4 = V.labels()

ID = identity_map(E, V)


def shift_map():
    """Decomposable monomial map: edges and vertices both cycle by one."""
    es = E.labels()
    vs = V.labels()
    f = {a: LinComb.of(es[(i + 1) % 4]) for i, a in enumerate(es)}
    g = {b: LinComb.of(vs[(i + 1) % 4]) for i, b in enumerate(vs)}
    return tensor_map(E, V, lambda a: f[a], lambda b: g[b])


def planted(plant, body):
    return forest([PlantedTree(plant, body)])


def all_planted(max_vertices, elabels, vlabels):
    by_size = {1: [leaf(v) for v in vlabels]}
    for n in range(2, max_vertices + 1):
        seen = set()
        for k in range(1, n):
            for sub in by_size[k]:
                for rest in by_size[n - k]:
                    for e in elabels:
                        seen.add(node(rest.label, rest.children + ((e, sub),)))
        by_size[n] = sorted(seen, key=lambda t: t.sort_key)
    out = []
    for n in range(1, max_vertices + 1):
        for body in by_size[n]:
            for e in elabels:
                out.append(PlantedTree(e, body))
    return out


def all_forests(max_vertices, elabels, vlabels):
    trees = all_planted(max_vertices, elabels, vlabels)
    out = [EMPTY_FOREST]
    for k in range(1, max_vertices + 1):
        for combo in combinations_with_replacement(trees, k):
            if sum(t.vertex_count for t in combo) <= max_vertices:
                out.append(forest(combo))
    return sorted(set(out), key=lambda f: f.sort_key)


def tensor_each(pairs, fn):
    """Apply a Forest -> ForestComb map to both slots of a pair combination."""
    out = LinComb()
    for (l, r), c in pairs.items():
        for fl, cl in fn(l).items():
            for fr, cr in fn(r).items():
                out = out + LinComb.of((fl, fr), c * cl * cr)
    return out


# ---------------------------------------------------------------------------
# star product


def test_star_unit_laws():
    g = forest_elem(planted(a3, node(b3, [(a4, leaf(b4))])))
    assert star_product(ID, LinComb.of(EMPTY_FOREST), g) == g
    assert star_product(ID, g, LinComb.of(EMPTY_FOREST)) == g


def test_star_two_single_vertices_identity():
    x = forest_elem(planted(a1, leaf(b1)))
    y = forest_elem(planted(a2, leaf(b2)))
    got = star_product(ID, x, y)
    stay = forest([PlantedTree(a1, leaf(b1)), PlantedTree(a2, leaf(b2))])
    grafted = planted(a2, node(b2, [(a1, leaf(b1))]))
    assert got == LinComb.of(stay) + forest_elem(grafted)


def test_star_two_singles_onto_ladder_matches_display():
    # Transcription of the nine assignment groups for a decomposable map
    # that shifts both alphabets by one step.
    phi = shift_map()
    x = LinComb.of(
        forest([PlantedTree(a1, leaf(b1)), PlantedTree(a2, leaf(b2))])
    )
    y = forest_elem(planted(a3, node(b3, [(a4, leaf(b4))])))
    got = star_product(phi, x, y)

    both_low = planted(
        a3, node(b1, [(a2, leaf(b1)), (a3, leaf(b2)), (a4, leaf(b4))])
    )
    first_low = planted(
        a3, node(b4, [(a2, leaf(b1)), (a4, node(b1, [(a3, leaf(b2))]))])
    )
    second_low = planted(
        a3, node(b4, [(a3, leaf(b2)), (a4, node(b1, [(a2, leaf(b1))]))])
    )
    both_high = planted(
        a3, node(b3, [(a4, node(b2, [(a2, leaf(b1)), (a3, leaf(b2))]))])
    )
    x1_stays_low = forest_mul(
        planted(a1, leaf(b1)),
        planted(a3, node(b4, [(a3, leaf(b2)), (a4, leaf(b4))])),
    )
    x1_stays_high = forest_mul(
        planted(a1, leaf(b1)),
        planted(a3, node(b3, [(a4, node(b1, [(a3, leaf(b2))]))])),
    )
    x2_stays_low = forest_mul(
        planted(a2, leaf(b2)),
        planted(a3, node(b4, [(a2, leaf(b1)), (a4, leaf(b4))])),
    )
    x2_stays_high = forest_mul(
        planted(a2, leaf(b2)),
        planted(a3, node(b3, [(a4, node(b1, [(a2, leaf(b1))]))])),
    )
    nothing_moves = forest_mul(
        forest_mul(planted(a1, leaf(b1)), planted(a2, leaf(b2))),
        planted(a3, node(b3, [(a4, leaf(b4))])),
    )
    want = lc_sum(
        LinComb.of(f)
        for f in [
            both_low,
            first_low,
            second_low,
            both_high,
            x1_stays_low,
            x1_stays_high,
            x2_stays_low,
            x2_stays_high,
            nothing_moves,
        ]
    )
    assert got == want


def test_star_associative_sample():
    rng = random.Random(7)
    E2 = symbols("E", ["a1", "a2"])
    V2 = symbols("V", ["b1", "b2"])
    pool = all_forests(2, E2.labels(), V2.labels())
    phi = identity_map(E2, V2)
    for _ in range(12):
        f, g, h = (LinComb.of(rng.choice(pool)) for _ in range(3))
        lhs = star_product(phi, star_product(phi, f, g), h)
        rhs = star_product(phi, f, star_product(phi, g, h))
        assert lhs == rhs


def test_star_respects_vertex_grading():
    phi = shift_map()
    x = forest_elem(planted(a1, node(b1, [(a2, leaf(b2))])))
    y = forest_elem(planted(a3, node(b3, [(a4, leaf(b4))])))
    out = star_product(phi, x, y)
    assert all(f.vertex_count == 4 for f, _ in out.items())


# ---------------------------------------------------------------------------
# go_triangle


def test_go_triangle_empty_forest_is_identity():
    p = LinComb.of(PlantedTree(a3, node(b3, [(a4, leaf(b4))])))
    assert go_triangle(ID, LinComb.of(EMPTY_FOREST), p) == p


def test_go_triangle_single_tree_matches_planted_grafting():
    phi = shift_map()
    body = node(b1, [(a2, leaf(b2))])
    target_body = node(b3, [(a4, leaf(b4))])
    got = go_triangle(
        phi, forest_elem(planted(a1, body)), LinComb.of(PlantedTree(a3, target_body))
    )
    want = graft_phi(phi, LinComb.of(body), a1, LinComb.of(target_body)).map_terms(
        lambda t: LinComb.of(PlantedTree(a3, t))
    )
    assert got == want


def test_go_triangle_two_singles_identity_count():
    x = LinComb.of(forest([PlantedTree(a1, leaf(b1)), PlantedTree(a2, leaf(b2))]))
    p = LinComb.of(PlantedTree(a3, node(b3, [(a4, leaf(b4))])))
    got = go_triangle(ID, x, p)
    assert sum(1 for _ in got.items()) == 4
    assert all(t.vertex_count == 4 for t, _ in got.items())


# ---------------------------------------------------------------------------
# deshuffle


def test_deshuffle_primitive_tree():
    t = planted(a1, leaf(b1))
    got = deshuffle(forest_elem(t))
    assert got == LinComb.of((t, EMPTY_FOREST)) + LinComb.of((EMPTY_FOREST, t))


def test_deshuffle_square_has_binomial():
    t = PlantedTree(a1, leaf(b1))
    sq = forest([t, t])
    single = forest([t])
    got = deshuffle(LinComb.of(sq))
    want = (
        LinComb.of((sq, EMPTY_FOREST))
        + LinComb.of((single, single), 2)
        + LinComb.of((EMPTY_FOREST, sq))
    )
    assert got == want


def test_deshuffle_empty_is_grouplike():
    assert deshuffle(UNIT) == LinComb.of((EMPTY_FOREST, EMPTY_FOREST))


def test_deshuffle_cocommutative_and_coassociative():
    E2 = symbols("E", ["a1"])
    V2 = symbols("V", ["b1", "b2"])
    for f in all_forests(3, E2.labels(), V2.labels()):
        d = deshuffle(LinComb.of(f))
        flipped = d.map_terms(lambda lr: LinComb.of((lr[1], lr[0])))
        assert d == flipped
        left = LinComb()
        for (l, r), c in d.items():
            for (l2, r2), c2 in deshuffle(LinComb.of(l)).items():
                left = left + LinComb.of((l2, r2, r), c * c2)
        right = LinComb()
        for (l, r), c in d.items():
            for (l2, r2), c2 in deshuffle(LinComb.of(r)).items():
                right = right + LinComb.of((l, l2, r2), c * c2)
        assert left == right


def test_bialgebra_compatibility_deshuffle_star():
    # deshuffle(x * y) = deshuffle(x) * deshuffle(y) slotwise, for the
    # deformed product.
    phi = shift_map()
    x = forest_elem(planted(a1, leaf(b1)))
    y = forest_elem(planted(a2, node(b2, [(a3, leaf(b3))])))
    lhs = deshuffle(star_product(phi, x, y))
    rhs = LinComb()
    for (xl, xr), c in deshuffle(x).items():
        for (yl, yr), c2 in deshuffle(y).items():
            prod_l = star_product(phi, LinComb.of(xl), LinComb.of(yl))
            prod_r = star_product(phi, LinComb.of(xr), LinComb.of(yr))
            for fl, cl in prod_l.items():
                for fr, cr in prod_r.items():
                    rhs = rhs + LinComb.of((fl, fr), c * c2 * cl * cr)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# cut coproduct


def test_cut_single_vertex():
    x = planted(a1, leaf(b1))
    got = cut_coproduct(ID, forest_elem(x))
    assert got == LinComb.of((x, EMPTY_FOREST)) + LinComb.of((EMPTY_FOREST, x))


def test_cut_two_ladder_middle_term():
    phi = shift_map()
    x = planted(a1, node(b1, [(a2, leaf(b2))]))
    got = cut_coproduct(phi, forest_elem(x))
    middle = LinComb.of((planted(a3, leaf(b2)), planted(a1, leaf(b2))))
    want = (
        LinComb.of((x, EMPTY_FOREST))
        + LinComb.of((EMPTY_FOREST, x))
        + middle
    )
    assert got == want


def test_cut_cherry_matches_display():
    # The five upper parts of the planted cherry, spelled out for the
    # shift map; the one-vertex right factor keeps its own plant edge.
    phi = shift_map()
    x = planted(a3, node(b3, [(a1, leaf(b1)), (a2, leaf(b2))]))
    got = cut_coproduct(phi, forest_elem(x))
    want = (
        LinComb.of((x, EMPTY_FOREST))
        + LinComb.of((EMPTY_FOREST, x))
        + LinComb.of(
            (planted(a2, leaf(b1)), planted(a3, node(b4, [(a2, leaf(b2))])))
        )
        + LinComb.of(
            (planted(a3, leaf(b2)), planted(a3, node(b4, [(a1, leaf(b1))])))
        )
        + LinComb.of(
            (
                forest_mul(planted(a2, leaf(b1)), planted(a3, leaf(b2))),
                planted(a3, leaf(b1)),
            )
        )
    )
    assert got == want


def test_cut_counit_laws():
    phi = shift_map()
    x = forest_elem(planted(a1, node(b1, [(a2, leaf(b2)), (a3, leaf(b3))])))
    d = cut_coproduct(phi, x)
    left = lc_sum(LinComb.of(r, c * counit(LinComb.of(l))) for (l, r), c in d.items())
    right = lc_sum(LinComb.of(l, c * counit(LinComb.of(r))) for (l, r), c in d.items())
    assert left == x
    assert right == x


def test_cut_coassociative_and_multiplicative():
    E2 = symbols("E", ["a1", "a2"])
    V2 = symbols("V", ["b1", "b2"])
    ea, eb = E2.labels()
    va, vb = V2.labels()
    phi = from_blocks(build_JD([[1, 2], [0, 3]], [[1, 0], [4, 1]], "J"), E2, V2)
    pool = [
        forest([PlantedTree(ea, node(va, [(eb, leaf(vb))]))]),
        forest(
            [
                PlantedTree(ea, node(va, [(ea, leaf(va)), (eb, leaf(vb))])),
            ]
        ),
        forest(
            [
                PlantedTree(eb, leaf(va)),
                PlantedTree(ea, node(vb, [(ea, leaf(vb))])),
            ]
        ),
        forest([PlantedTree(ea, node(va, [(ea, node(vb, [(eb, leaf(va))]))]))]),
    ]
    for f in pool:
        d = cut_coproduct(phi, LinComb.of(f))
        lhs = LinComb()
        for (l, r), c in d.items():
            for (l2, r2), c2 in cut_coproduct(phi, LinComb.of(l)).items():
                lhs = lhs + LinComb.of((l2, r2, r), c * c2)
        rhs = LinComb()
        for (l, r), c in d.items():
            for (l2, r2), c2 in cut_coproduct(phi, LinComb.of(r)).items():
                rhs = rhs + LinComb.of((l, l2, r2), c * c2)
        assert lhs == rhs
    f, g = pool[0], pool[2]
    lhs = cut_coproduct(phi, LinComb.of(forest_mul(f, g)))
    rhs = LinComb()
    for (l, r), c in cut_coproduct(phi, LinComb.of(f)).items():
        for (l2, r2), c2 in cut_coproduct(phi, LinComb.of(g)).items():
            rhs = rhs + LinComb.of((forest_mul(l, l2), forest_mul(r, r2)), c * c2)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# theta_bar


def test_theta_bar_fixes_planted_vertices():
    f = forest([PlantedTree(a1, leaf(b1)), PlantedTree(a2, leaf(b2))])
    assert theta_bar(shift_map(), LinComb.of(f)) == LinComb.of(f)


def test_theta_bar_cherry_matches_display():
    phi = shift_map()
    x = planted(a3, node(b3, [(a1, leaf(b1)), (a2, leaf(b2))]))
    got = theta_bar(phi, forest_elem(x))
    want = forest_elem(
        planted(a3, node(b1, [(a2, leaf(b1)), (a3, leaf(b2))]))
    )
    assert got == want


def test_theta_bar_is_algebra_morphism_into_deformed_product():
    phi = shift_map()
    x = forest_elem(planted(a1, leaf(b1)))
    y = forest_elem(planted(a2, node(b2, [(a3, leaf(b3))])))
    lhs = theta_bar(phi, star_product(ID, x, y))
    rhs = star_product(phi, theta_bar(phi, x), theta_bar(phi, y))
    assert lhs == rhs


def test_theta_bar_intertwines_coproducts():
    phi = shift_map()
    x = forest_elem(planted(a3, node(b3, [(a1, leaf(b1)), (a2, leaf(b2))])))
    lhs = cut_coproduct(ID, theta_bar(phi, x))
    rhs = tensor_each(cut_coproduct(phi, x), lambda f: theta_bar(phi, LinComb.of(f)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# pairing


def test_pair_ladders():
    pr = delta_pairing()
    lad = planted(a1, node(b1, [(a2, node(b2, [(a3, leaf(b3))]))]))
    assert pair_forests(pr, forest_elem(lad), forest_elem(lad)) == 1
    other = planted(a1, node(b1, [(a2, node(b2, [(a3, leaf(b4))]))]))
    assert pair_forests(pr, forest_elem(lad), forest_elem(other)) == 0


def test_pair_cherry_symmetry_counts():
    pr = delta_pairing()
    same = planted(a3, node(b3, [(a1, leaf(b1)), (a1, leaf(b1))]))
    assert pair_forests(pr, forest_elem(same), forest_elem(same)) == 2
    mixed = planted(a3, node(b3, [(a1, leaf(b1)), (a2, leaf(b2))]))
    assert pair_forests(pr, forest_elem(mixed), forest_elem(mixed)) == 1


def test_pair_repeated_trees():
    pr = delta_pairing()
    t = PlantedTree(a1, leaf(b1))
    sq = forest([t, t])
    assert pair_forests(pr, LinComb.of(sq), LinComb.of(sq)) == 2


def test_pair_shape_mismatch():
    pr = delta_pairing()
    lad = planted(a1, node(b1, [(a2, leaf(b2))]))
    ch = planted(a1, node(b1, [(a2, leaf(b2)), (a3, leaf(b3))]))
    assert pair_forests(pr, forest_elem(lad), forest_elem(ch)) == 0


# ---------------------------------------------------------------------------
# Hopf pairing


def test_hopf_pairing_identity_sweep():
    E2 = symbols("E", ["a1"])
    V2 = symbols("V", ["b1", "b2"])
    phi = identity_map(E2, V2)
    pool = all_forests(3, E2.labels(), V2.labels())
    defects = hopf_pairing_defects(phi, delta_pairing(), pool)
    assert defects == []


def test_hopf_pairing_transpose_map():
    E2 = symbols("E", ["a1", "a2"])
    V2 = symbols("V", ["b1", "b2"])
    phi = from_blocks(build_JD([[2, 1], [0, 1]], [[0, 1], [1, 0]], "J"), E2, V2)
    pool = all_forests(2, E2.labels(), V2.labels())
    defects = hopf_pairing_defects(phi, delta_pairing(), pool)
    assert defects == []


def test_pair_tensor_factorwise():
    pr = delta_pairing()
    t = planted(a1, leaf(b1))
    u = planted(a2, leaf(b2))
    x = LinComb.of((t, u))
    assert pair_tensor(pr, x, x) == 1
    assert pair_tensor(pr, x, LinComb.of((u, t))) == 0


def oracle_pairing_defects(phi, phi2, pairing, primed, unprimed):
    """The two triple loops of ``hopf_pairing_defects`` before forests were
    bucketed by vertex count: every triple, filtered by total size."""
    defects = []
    cut_cache = {f: cut_coproduct(phi, forest_elem(f)) for f in unprimed}
    for x1 in primed:
        for y1 in primed:
            prod = star_product(phi2, forest_elem(x1), forest_elem(y1))
            for f in unprimed:
                if x1.vertex_count + y1.vertex_count != f.vertex_count:
                    continue
                lhs = pair_forests(pairing, prod, forest_elem(f))
                rhs = pair_tensor(pairing, LinComb.of((x1, y1)), cut_cache[f])
                if lhs != rhs:
                    defects.append(("product-vs-cut", (x1, y1, f), lhs, rhs))
    for x1 in primed:
        dx = deshuffle(forest_elem(x1))
        for f in unprimed:
            for g in unprimed:
                if f.vertex_count + g.vertex_count != x1.vertex_count:
                    continue
                lhs = pair_tensor(pairing, dx, LinComb.of((f, g)))
                rhs = pair_forests(pairing, forest_elem(x1), forest_elem(forest_mul(f, g)))
                if lhs != rhs:
                    defects.append(("deshuffle-vs-product", (x1, f, g), lhs, rhs))
    return defects


class SkewedPairing(Pairing):
    """The delta pairing, off by one on each two-tree forest against itself,
    so that the product identities fail on a known set of triples."""

    def forests(self, f1, f2):
        value = super().forests(f1, f2)
        return value + 1 if f1 == f2 and len(f1.trees) == 2 else value


def test_bucketed_pairing_defects_match_the_unbucketed_loops():
    E2 = symbols("E", ["a1"])
    V2 = symbols("V", ["b1", "b2"])
    phi = identity_map(E2, V2)
    pairing = SkewedPairing()
    # Unsorted by size, so the order of the defects is checked as well.
    pool = all_forests(3, E2.labels(), V2.labels())
    random.Random(5).shuffle(pool)
    got = hopf_pairing_defects(phi, pairing, pool)
    want = oracle_pairing_defects(phi, phi, pairing, pool, pool)
    assert len(want) > 0
    assert [(d.identity, d.inputs, d.lhs, d.rhs) for d in got] == want


# ---------------------------------------------------------------------------
# Differential tests against the replaced implementations
#
# The oracles are the earlier implementations on the flattened sites view
# (``forest_oracles``): the grafting scaffold of the product and
# ``go_triangle`` rewriting parent arrays, the cut coproduct summed over
# upper vertex subsets, and ``theta_bar`` expanding label-array states edge
# by edge across the whole forest.

E2 = symbols("E", ["a1", "a2"])
V2 = symbols("V", ["b1", "b2"])


def oracle_go_triangle(phi, x, p):
    return lc_sum(
        (c * cp) * graft_basis(phi, F, forest([pt]), stay=False).map_terms(lambda f: LinComb.of(f.trees[0]))
        for pt, cp in p.items()
        for F, c in x.items()
    )


def oracle_theta_bar(phi, x):
    out = LinComb()
    for f, c in x.items():
        sites = forest_sites(f)
        states = LinComb.of(sites.initial_state())
        for v in range(sites.size):
            if sites.parent[v] >= 0:
                states = apply_at(phi, states, v, sites.parent[v])
        out = out + c * states.map_terms(lambda st: LinComb.of(rebuild_forest(sites.parent, st)))
    return out


def refuted_table_map(seed):
    """A seeded table map on the 2x2 symbol bases, refuted by the checker but
    flagged compatible, so that the guards let it through and the order in
    which each operator applies it shows in the result."""
    rng = random.Random(seed)
    table = {}
    for a, b in product(E2.labels(), V2.labels()):
        table[(a, b)] = [
            (Fraction(rng.randint(-2, 2), rng.randint(1, 3)), a2, b2)
            for a2, b2 in product(E2.labels(), V2.labels())
            if rng.random() < 0.6
        ]
    phi = from_table(E2, V2, table)
    assert isinstance(check_compat(phi), Refuted)
    return dataclasses.replace(phi, compat_by_construction=True)


def differential_maps():
    j_form = from_blocks(build_JD([[1, 2], [0, 3]], [[1, 0], [4, 1]], "J"), E2, V2)
    return [refuted_table_map(41), j_form]


@pytest.mark.parametrize("which", range(2))
def test_theta_bar_matches_forest_state_expansion(which):
    phi = differential_maps()[which]
    pool = all_forests(3, E2.labels(), V2.labels())
    assert len(pool) == 219
    for f in pool:
        assert theta_bar(phi, LinComb.of(f)) == oracle_theta_bar(phi, LinComb.of(f))
    x = LinComb((f, Fraction(k % 5 - 2, 1 + k % 3)) for k, f in enumerate(pool[::11]))
    assert theta_bar(phi, x) == oracle_theta_bar(phi, x)


def repeated_tree_forests():
    """Forests in which a planted tree of up to two vertices appears twice,
    alone or beside another tree, and forests of three equal single
    vertices."""
    trees = all_planted(2, E2.labels(), V2.labels())
    out = [forest([p, p]) for p in trees]
    out += [forest([p, p, q]) for p, q in zip(trees, trees[1:] + trees[:1])]
    out += [forest([p, p, p]) for p in trees if p.vertex_count == 1]
    return out


@pytest.mark.parametrize("which", range(2))
def test_star_product_and_go_triangle_match_their_own_scaffolds(which):
    phi = differential_maps()[which]
    pool = all_forests(2, E2.labels(), V2.labels())
    assert len(pool) ** 2 == 961
    for f in pool:
        for g in pool:
            assert star_product(phi, LinComb.of(f), LinComb.of(g)) == graft_basis(phi, f, g, stay=True)
    targets = all_planted(2, E2.labels(), V2.labels())
    assert len(pool) * len(targets) == 620
    for f in pool:
        for pt in targets:
            x, p = LinComb.of(f), LinComb.of(pt)
            assert go_triangle(phi, x, p) == oracle_go_triangle(phi, x, p)
    # Equal trees of F that share a target act on its label one after the
    # other, so their order shows under a refuted map.
    repeated = repeated_tree_forests()
    assert len(repeated) == 44
    right = [g for g in pool if g.vertex_count <= 1] + [g for g in pool if g.vertex_count == 2][::9]
    for f in repeated:
        for g in right:
            assert star_product(phi, LinComb.of(f), LinComb.of(g)) == graft_basis(phi, f, g, stay=True)
        for pt in targets[::3]:
            x, p = LinComb.of(f), LinComb.of(pt)
            assert go_triangle(phi, x, p) == oracle_go_triangle(phi, x, p)
    # Three-vertex targets whose root has two equal children, so that the
    # sums of equal siblings come from one memo entry, under left forests
    # of two trees.
    cherries = [
        PlantedTree(e, node(b, [(a, leaf(v))] * 2))
        for e, b, a, v in product(E2.labels(), V2.labels(), E2.labels(), V2.labels())
    ]
    pairs = [f for f in pool if len(f.trees) == 2]
    assert (len(cherries), len(pairs)) == (16, 10)
    for f in pairs:
        for pt in cherries:
            x, p = LinComb.of(f), LinComb.of(pt)
            assert go_triangle(phi, x, p) == oracle_go_triangle(phi, x, p)
            g = forest([pt])
            assert star_product(phi, x, LinComb.of(g)) == graft_basis(phi, f, g, stay=True)


def forests_of_four(seed, per_shape):
    """A seeded sample of ``per_shape`` forests for each shape of forest
    with four vertices, labels drawn from the 2x2 bases."""
    rng = random.Random(seed)
    by_shape = {}
    for p in all_planted(4, E2.labels(), V2.labels()):
        by_shape.setdefault((p.vertex_count, p.shape), []).append(p)
    shapes = sorted(by_shape)
    forest_shapes = [
        combo
        for k in range(1, 5)
        for combo in combinations_with_replacement(shapes, k)
        if sum(n for n, _ in combo) == 4
    ]
    assert len(forest_shapes) == 9
    return [
        forest([rng.choice(by_shape[s]) for s in combo]) for combo in forest_shapes for _ in range(per_shape)
    ]


@pytest.mark.parametrize("which", range(2))
def test_cut_coproduct_matches_the_upper_subset_sum(which):
    phi = differential_maps()[which]
    pool = all_forests(3, E2.labels(), V2.labels()) + forests_of_four(47, 60)
    assert len(pool) == 219 + 540
    for f in pool:
        assert cut_coproduct(phi, LinComb.of(f)) == oracle_cut_coproduct(phi, LinComb.of(f))
    x = LinComb((f, Fraction(k % 5 - 2, 1 + k % 3)) for k, f in enumerate(pool[::13]))
    assert cut_coproduct(phi, x) == oracle_cut_coproduct(phi, x)


def test_star_product_under_the_identity_sums_the_grafting_maps():
    phi = identity_map(E2, V2)
    pool = all_forests(2, E2.labels(), V2.labels())
    for f in pool:
        for g in pool:
            want = lc_sum(LinComb.of(graft_forest(f, g, m)) for m in grafting_maps(f, g))
            assert star_product(phi, LinComb.of(f), LinComb.of(g)) == want


def test_pairing_is_the_sum_over_isomorphisms():
    # Under the delta base, the pairing of two forests counts the
    # isomorphisms of their underlying forests that keep every label.
    pool = all_forests(3, E2.labels(), V2.labels())
    pairing = delta_pairing()
    decorations = {}
    for f in pool:
        s = forest_sites(f)
        decorations[f] = dict(zip(s.vid, zip(s.elabel, s.vlabel)))
    nonzero = 0
    for f1 in pool:
        d1 = decorations[f1]
        for f2 in pool:
            d2 = decorations[f2]
            want = sum(all(d1[v] == d2[w] for v, w in iso.items()) for iso in isomorphisms(f1, f2))
            assert pairing.forests(f1, f2) == want
            nonzero += want != 0
    assert nonzero == len(pool)


def test_symmetry_factors_match_the_permanent_pairing():
    old = PermanentPairing(delta_base)
    new = delta_pairing()
    pool = all_forests(3, E2.labels(), V2.labels())
    assert len(pool) == 219
    for f1 in pool:
        for f2 in pool:
            assert new.forests(f1, f2) == old.forests(f1, f2)
    diagonal = forests_up_to(4, E2.labels(), V2.labels())
    assert len(diagonal) == 1718
    # Runs of equal trees or children whose own factor is 2, which needs
    # more than four vertices: two equal cherries side by side or under
    # one vertex, and three under one vertex.
    cherries = [p for p in all_planted(3, E2.labels(), V2.labels()) if new.forests(forest([p]), forest([p])) == 2]
    assert len(cherries) == 16
    for p in cherries:
        diagonal.append(forest([p, p]))
        for m in (2, 3):
            diagonal.append(forest([PlantedTree(p.plant, node(p.body.label, [(p.plant, p.body)] * m))]))
    values = [new.forests(f, f) for f in diagonal]
    assert values == [old.forests(f, f) for f in diagonal]
    assert {1, 2, 4, 6, 8, 24, 48} <= set(values)


def test_the_combination_pairings_match_the_double_loops():
    rng = random.Random(23)
    pool = all_forests(3, E2.labels(), V2.labels())
    pairing = delta_pairing()
    old = PermanentPairing(delta_base)

    def comb(terms, size):
        picks = [rng.choice(terms) for _ in range(size)]
        return LinComb((t, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for t in picks)

    nonzero = 0
    for _ in range(40):
        # Drawn from a few forests, so the two sides share terms.
        few = rng.sample(pool, 5)
        x, y = comb(few, rng.randint(0, 6)), comb(few, rng.randint(0, 9))
        want = pair_forests_by_double_loop(old, x, y)
        assert pair_forests(pairing, x, y) == want == pair_forests(pairing, y, x)
        pairs = [(f, g) for f in few[:3] for g in few[:3]]
        x, y = comb(pairs, rng.randint(0, 6)), comb(pairs, rng.randint(0, 9))
        want2 = pair_tensor_by_double_loop(old, x, y)
        assert pair_tensor(pairing, x, y) == want2 == pair_tensor(pairing, y, x)
        nonzero += (want != 0) + (want2 != 0)
    assert nonzero >= 40


def test_refusals_name_the_canonically_first_term():
    # A map refuted on (e1, e1, v1) and on (e2, e2, v2), joined to phi_lambda
    # so that the basis is infinite and each refusal scans only the labels
    # of the operands.  Those of all the terms are scanned together, in
    # canonical order, so a combination is refused on the first refuting
    # triple over all of them, whatever order it was built in.  Here that
    # triple is also the first over the canonically first forest alone.
    Es, Vs = symbols("e", ["e1", "e2"]), symbols("v", ["v1", "v2"])
    (e1, e2), (v1, v2) = Es.labels(), Vs.labels()
    table = {
        (e1, v1): [(-1, e1, v2), (-1, e2, v1)],
        (e1, v2): [(1, e1, v1), (-1, e1, v2), (2, e2, v1), (-1, e2, v2)],
        (e2, v1): [(-1, e1, v2), (2, e2, v2)],
        (e2, v2): [(1, e1, v1), (-1, e1, v2)],
    }
    phi = direct_sum(phi_lambda(SpdeConfig(0, (1,))), from_table(Es, Vs, table), 1, 1)
    f1 = forest([PlantedTree(e1, node(v1, [(e1, leaf(v1))]))])
    f2 = forest([PlantedTree(e2, node(v2, [(e2, leaf(v2))]))])
    first = min((f1, f2), key=term_key)
    operations = [
        lambda x: star_product(phi, x, UNIT),
        lambda x: go_triangle(phi, x, LinComb.of(PlantedTree(e1, leaf(v2)))),
        lambda x: cut_coproduct(phi, x),
        lambda x: theta_bar(phi, x),
    ]

    def refusal(op, x):
        with pytest.raises(IncompatiblePhi) as exc:
            op(x)
        return str(exc.value)

    for op in operations:
        alone = {f: refusal(op, LinComb.of(f)) for f in (f1, f2)}
        assert alone[f1] != alone[f2]
        for order in ((f1, f2), (f2, f1)):
            assert refusal(op, LinComb((f, 1) for f in order)) == alone[first]


def test_terms_that_pass_alone_are_refused_together():
    # A block-diagonal table: e1 acts on the vertex labels by a nilpotent
    # matrix and e2 by a projection.  Each commutes with itself, so a forest
    # with one of the two edge labels passes, but the two do not commute at
    # v1.  Joined to phi_lambda, the map is on an infinite basis and not
    # flagged, so the operators scan the labels of both terms together.
    Es, Vs = symbols("e", ["e1", "e2"]), symbols("v", ["v1", "v2"])
    (e1, e2), (v1, v2) = Es.labels(), Vs.labels()
    table = {(e1, v1): [(1, e1, v2)], (e2, v1): [(1, e2, v1)]}
    phi = direct_sum(phi_lambda(SpdeConfig(0, (1,))), from_table(Es, Vs, table), 1, 1)
    f1, f2 = forest([PlantedTree(e1, leaf(v1))]), forest([PlantedTree(e2, leaf(v1))])
    operations = [
        lambda x: star_product(phi, x, UNIT),
        lambda x: cut_coproduct(phi, x),
        lambda x: theta_bar(phi, x),
    ]
    for op in operations:
        for f in (f1, f2):
            op(LinComb.of(f))
        for order in ((f1, f2), (f2, f1)):
            with pytest.raises(IncompatiblePhi, match=r"^Refuted\(a=e1, a'=e2, b=v1\)$"):
                op(LinComb((f, 1) for f in order))


def test_a_refuted_finite_map_is_refused_on_a_zero_operand():
    # On finite bases the map's own verdict decides, whatever the operands.
    bad = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    zero = LinComb()
    operations = [
        lambda: theta(bad, zero),
        lambda: star_product(bad, zero, UNIT),
        lambda: go_triangle(bad, zero, zero),
        lambda: cut_coproduct(bad, zero),
        lambda: theta_bar(bad, zero),
    ]
    for op in operations:
        with pytest.raises(IncompatiblePhi):
            op()


# ---------------------------------------------------------------------------
# Multilinear sums against the scale-then-add forms they replaced


def assert_same(got, want):
    """Equal combinations whose coefficients are stored alike."""
    assert got == want
    assert all(type(c) is type(want.coeff(t)) for t, c in got.items())


def test_forest_operators_match_their_scaled_sums():
    rng = random.Random(20)
    mat2 = lambda: [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
    BE, BV = default_block_bases(2, 2)
    phi = from_blocks(build_JD(mat2(), mat2(), "D"), BE, BV)
    fs = forests_up_to(3, BE.labels(), BV.labels())
    targets = planted_up_to(2, BE.labels(), BV.labels())
    assert (len(fs), len(targets)) == (219, 20)
    for f in fs:
        x = LinComb.of(f)
        assert_same(cut_coproduct(phi, x), cut_coproduct_by_scaling(phi, x))
        assert_same(theta_bar(phi, x), theta_bar_nested(phi, x))
        for g in fs:
            if f.vertex_count + g.vertex_count <= 3:
                y = LinComb.of(g)
                assert_same(star_product(phi, x, y), star_product_by_scaling(phi, x, y))
        if f.vertex_count <= 2:
            for pt in targets:
                p = LinComb.of(pt)
                assert_same(go_triangle(phi, x, p), go_triangle_by_scaling(phi, x, p))
    # Multi-term fractional combinations meet on common output terms.
    small = [f for f in fs if f.vertex_count <= 2]
    fractional = lambda pool, k: LinComb((rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(k))
    for _ in range(20):
        x, y, p = fractional(small, 4), fractional(small, 4), fractional(targets, 3)
        z = fractional(fs, 6)
        assert_same(star_product(phi, x, y), star_product_by_scaling(phi, x, y))
        assert_same(go_triangle(phi, x, p), go_triangle_by_scaling(phi, x, p))
        assert_same(cut_coproduct(phi, z), cut_coproduct_by_scaling(phi, z))
        assert_same(theta_bar(phi, z), theta_bar_nested(phi, z))
