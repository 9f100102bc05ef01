import dataclasses
import gc
import random
from fractions import Fraction
from itertools import product

import pytest

from forest_oracles import (
    graft_free_by_address,
    graft_free_nested,
    graft_phi_by_address,
    graft_phi_nested,
    rebuild_tree,
    theta_bar_nested,
    theta_nested,
    tree_sites,
)
from rtcalc.decorations import Sym, mi, symbols
from rtcalc.hopf import theta_bar
from rtcalc.lincomb import LinComb, lc_sum
from rtcalc.phimaps import (
    IncompatiblePhi,
    Refuted,
    build_JD,
    check_compat,
    default_block_bases,
    from_blocks,
    from_table,
    identity_map,
    tensor_map,
)
from rtcalc.prelie import (
    apply_edge_maps,
    graft_free,
    graft_phi,
    multiple_prelie_defect,
    nap_coproduct,
    nap_eigen_defect,
    root_regraft,
    root_split,
    theta,
    theta_morphism_defect,
)
from rtcalc.spde import SpdeConfig, phi_lambda
from rtcalc.postlie import PsiPair, _vertex_action_on_tree
from rtcalc.trees import (
    DecoratedTree,
    PlantedTree,
    forest,
    leaf,
    node,
    vertex_sum,
)
from rtcalc.verify import forests_up_to, trees_up_to

E = symbols("E", ["a1", "a2"])
V = symbols("V", ["b1", "b2"])
a1, a2 = E.labels()
b1, b2 = V.labels()


def ladder(*pairs):
    """ladder((v0, e1), (v1, e2), ..., (vn,)): v0 at the root."""
    t = leaf(pairs[-1][0])
    for v, e in reversed(pairs[:-1]):
        t = node(v, [(e, t)])
    return t


def all_trees(max_vertices, elabels, vlabels):
    """Every decorated tree with at most the given number of vertices."""
    by_size = {1: [leaf(v) for v in vlabels]}
    for n in range(2, max_vertices + 1):
        acc = []
        # Partition n-1 vertices into child subtrees; build by attaching a
        # first child of size k to a smaller tree's root.  To avoid
        # duplicates, collect via a set of canonical trees instead.
        seen = set()
        for k in range(1, n):
            for sub in by_size[k]:
                for rest in by_size[n - k]:
                    for e in elabels:
                        t = node(rest.label, rest.children + ((e, sub),))
                        seen.add(t)
        acc = sorted(seen, key=lambda t: t.sort_key)
        by_size[n] = acc
    out = []
    for n in range(1, max_vertices + 1):
        out.extend(by_size[n])
    return out


def test_graft_free_on_single_vertices():
    x = LinComb.of(leaf(b1))
    y = LinComb.of(leaf(b2))
    out = graft_free(x, a1, y)
    assert out == LinComb.of(node(b2, [(a1, leaf(b1))]))


def test_graft_free_sums_over_all_vertices():
    x = LinComb.of(leaf(b1))
    y = LinComb.of(ladder((b1, a2), (b2,)))
    out = graft_free(x, a1, y)
    assert len(out) == 2
    assert sum(c for _, c in out.items()) == 2


def test_graft_phi_identity_is_free():
    phi = identity_map(E, V)
    x = LinComb.of(ladder((b1, a1), (b2,)))
    y = LinComb.of(node(b2, [(a2, leaf(b1))]))
    assert graft_phi(phi, x, a1, y) == graft_free(x, a1, y)


def test_graft_phi_relabels_target():
    phi = from_table(E, V, {(a1, b2): [(Fraction(1, 2), a2, b1)]})
    out = graft_phi(phi, LinComb.of(leaf(b1)), a1, LinComb.of(leaf(b2)))
    assert out == LinComb.of(node(b1, [(a2, leaf(b1))]), Fraction(1, 2))
    # Target pairs the table misses vanish.
    assert graft_phi(phi, LinComb.of(leaf(b1)), a1, LinComb.of(leaf(b1))).is_zero


def test_graft_is_bilinear():
    phi = identity_map(E, V)
    x = LinComb.of(leaf(b1)) + 2 * LinComb.of(leaf(b2))
    y = LinComb.of(leaf(b1))
    out = graft_phi(phi, x, a1, y)
    assert out == graft_phi(phi, LinComb.of(leaf(b1)), a1, y) + 2 * graft_phi(
        phi, LinComb.of(leaf(b2)), a1, y
    )


def test_multiple_prelie_defect_free_product():
    rng = random.Random(2)
    trees = all_trees(2, [a1, a2], [b1, b2])
    for _ in range(20):
        x, y, z = (LinComb.of(rng.choice(trees)) for _ in range(3))
        ia, ia2 = rng.choice([a1, a2]), rng.choice([a1, a2])
        d = multiple_prelie_defect(graft_free, ia, ia2, x, y, z)
        assert d.is_zero


def test_multiple_prelie_defect_detects_incompatible():
    bad = from_table(
        E,
        V,
        {
            (a1, b1): [(1, a2, b2)],
            (a1, b2): [(1, a1, b1)],
            (a2, b1): [(1, a2, b1)],
            (a2, b2): [(1, a1, b2)],
        },
    )

    def prod(x, a, y):
        return graft_phi(bad, x, a, y)

    found = False
    for ia, ia2, lx, ly, lz in product([a1, a2], [a1, a2], [b1, b2], [b1, b2], [b1, b2]):
        d = multiple_prelie_defect(
            prod, ia, ia2, LinComb.of(leaf(lx)), LinComb.of(leaf(ly)), LinComb.of(leaf(lz))
        )
        if not d.is_zero:
            found = True
            break
    assert found


def test_apply_edge_maps_leaves_leaf_labels_alone():
    phi = from_table(
        E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)], (a2, b1): [(2, a2, b1)]}
    )
    t = ladder((b1, a1), (b2,))  # root b1, upper vertex b2
    out = apply_edge_maps(phi, t)
    assert out == LinComb.of(ladder((b2, a2), (b2,)))


def test_theta_on_single_vertex_is_identity():
    phi = from_table(E, V, {(a1, b1): [(1, a2, b2)]})
    # Compatible on nothing to check for a single vertex: no edges at all.
    assert theta(phi, LinComb.of(leaf(b1))) == LinComb.of(leaf(b1))


def test_theta_refuses_refuted_map():
    bad = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    t = LinComb.of(ladder((b1, a1), (b2,)))
    with pytest.raises(IncompatiblePhi):
        theta(bad, t)


def test_theta_order_independent_for_compatible():
    rng = random.Random(4)

    def rand_endo(labels):
        img = {l: LinComb([(m, rng.randint(-2, 2)) for m in labels]) for l in labels}
        return lambda l: img[l]

    phi = tensor_map(E, V, rand_endo(list(E.labels())), rand_endo(list(V.labels())))
    for t in all_trees(4, [a1, a2], [b1, b2])[:80]:
        assert theta(phi, LinComb.of(t)) == oracle_apply_edge_maps(phi, t, reversed_order(t))


def test_theta_morphism_identity_psi():
    rng = random.Random(9)

    def rand_endo(labels):
        img = {l: LinComb([(m, rng.randint(-2, 2)) for m in labels]) for l in labels}
        return lambda l: img[l]

    phi = tensor_map(E, V, rand_endo(list(E.labels())), rand_endo(list(V.labels())))
    trees = all_trees(2, [a1, a2], [b1, b2])
    for tx, ty, a in product(trees[:6], trees[:6], [a1, a2]):
        d = theta_morphism_defect(phi, LinComb.of(tx), a, LinComb.of(ty))
        assert d.is_zero


# --- root split -------------------------------------------------------------


def test_root_split_cherry():
    cherry = PlantedTree(a1, node(b1, [(a1, leaf(b2)), (a2, leaf(b1))]))
    out = root_split(cherry)
    assert len(out) == 2
    terms = dict(out.items())
    first = (
        PlantedTree(a1, leaf(b2)),
        PlantedTree(a1, node(b1, [(a2, leaf(b1))])),
    )
    second = (
        PlantedTree(a2, leaf(b1)),
        PlantedTree(a1, node(b1, [(a1, leaf(b2))])),
    )
    assert set(terms) == {first, second}
    assert all(c == 1 for c in terms.values())


def test_root_split_single_vertex_is_zero():
    assert root_split(PlantedTree(a1, leaf(b1))).is_zero


def test_regraft_after_split_scales_by_root_degree():
    deep = PlantedTree(
        a2,
        node(
            b1,
            [
                (a1, leaf(b2)),
                (a2, node(b2, [(a1, leaf(b1))])),
                (a1, leaf(b1)),
            ],
        ),
    )
    assert nap_eigen_defect(LinComb.of(deep)).is_zero
    assert root_regraft(root_split(deep)) == LinComb.of(deep, 3)


def test_nap_coproduct_linear():
    p = PlantedTree(a1, node(b1, [(a1, leaf(b2))]))
    q = PlantedTree(a2, node(b2, [(a2, leaf(b1))]))
    x = LinComb.of(p, 2) + LinComb.of(q, -1)
    assert nap_coproduct(x) == 2 * root_split(p) - root_split(q)


# --- differential tests against the replaced implementations -----------------
#
# The oracles below are the implementations that the bottom-up recursion and
# the single accumulation replaced: the edge-product operator expanding whole
# label-array states edge by edge across the tree, and the grafting products
# folding per-pair combinations with ``lc_sum``.


def oracle_apply_edge_maps(phi, t, order=None):
    """State expansion: run the map edge by edge over (labels, labels) states."""
    sites = tree_sites(t)
    edges = order if order is not None else tuple(range(1, sites.size))
    states = LinComb.of(sites.initial_state())
    for v in edges:
        parent = sites.parent[v]

        def step(state, v=v, parent=parent):
            elabels, vlabels = state
            out = LinComb()
            for (a2, b2), c in phi(elabels[v], vlabels[parent]).items():
                ne = elabels[:v] + (a2,) + elabels[v + 1 :]
                nv = vlabels[:parent] + (b2,) + vlabels[parent + 1 :]
                out = out + LinComb.of((ne, nv), c)
            return out

        states = states.map_terms(step)
    return states.map_terms(lambda state: LinComb.of(rebuild_tree(sites, state)))


def reversed_order(t):
    return tuple(range(t.vertex_count - 1, 0, -1))


def random_table_map(seed):
    """A seeded table map on the 2x2 symbol bases; not tree-compatible."""
    rng = random.Random(seed)
    table = {}
    for a, b in product(E.labels(), V.labels()):
        table[(a, b)] = [
            (Fraction(rng.randint(-2, 2), rng.randint(1, 3)), a2, b2)
            for a2, b2 in product(E.labels(), V.labels())
            if rng.random() < 0.6
        ]
    return from_table(E, V, table)


def test_edge_maps_match_state_expansion_for_a_noncompatible_table_map():
    phi = random_table_map(31)
    assert isinstance(check_compat(phi), Refuted)
    trees = trees_up_to(4, E.labels(), V.labels())
    assert len(trees) == 438
    order_sensitive = 0
    for t in trees:
        canonical = oracle_apply_edge_maps(phi, t)
        backwards = oracle_apply_edge_maps(phi, t, reversed_order(t))
        assert apply_edge_maps(phi, t) == canonical
        order_sensitive += canonical != backwards
    # The map is far enough from compatible that order shows on some trees.
    assert order_sensitive > 0


def test_equal_subtrees_follow_their_own_sibling_order():
    # Two equal cherries under one root, on a map for which the order of
    # the cherry's siblings shows.  The cherry is computed once and reused
    # for the second copy, which must still follow canonical order.
    phi = dataclasses.replace(random_table_map(31), compat_by_construction=True)
    cherry = node(b1, [(a1, leaf(b1)), (a2, leaf(b2))])
    assert oracle_apply_edge_maps(phi, cherry) != oracle_apply_edge_maps(phi, cherry, reversed_order(cherry))
    t = node(b2, [(a1, cherry), (a1, cherry)])
    assert tree_sites(t).parent[1:] == (0, 1, 1, 0, 4, 4)
    canonical = oracle_apply_edge_maps(phi, t)
    backwards = oracle_apply_edge_maps(phi, t, reversed_order(t))
    assert canonical != backwards
    assert apply_edge_maps(phi, t) == canonical


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-1, 2)])
def test_theta_matches_state_expansion_for_phi_lambda(lam):
    phi = phi_lambda(SpdeConfig(0, (lam,)))
    labels = [mi(k) for k in range(3)]
    trees = trees_up_to(4, labels, labels)
    for t in trees:
        assert theta(phi, LinComb.of(t)) == oracle_apply_edge_maps(phi, t)
    # A multi-term input shares subtrees between its terms.
    x = LinComb((t, Fraction(k % 5 - 2, 1 + k % 3)) for k, t in enumerate(trees[::97]))
    assert theta(phi, x) == x.map_terms(lambda t: oracle_apply_edge_maps(phi, t))


def test_theta_matches_state_expansion_for_a_d_form_block_map():
    rng = random.Random(33)
    mat2 = lambda: [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
    BE, BV = default_block_bases(2, 2)
    phi = from_blocks(build_JD(mat2(), mat2(), "D"), BE, BV)
    for t in trees_up_to(4, BE.labels(), BV.labels()):
        assert theta(phi, LinComb.of(t)) == oracle_apply_edge_maps(phi, t, reversed_order(t))


def cancelling_pair(b, a, other):
    """x, y whose grafts meet on the ladder b -a- b -a- b with opposite signs.

    Attaching leaf(b) at the top of ladder(b, a, b) and ladder(b, a, b)
    onto leaf(b) give the same tree when the map fixes (a, b); the
    coefficients 1 * 1 and 2 * (-1/2) then cancel.
    """
    lad = ladder((b, a), (b,))
    x = LinComb.of(leaf(b)) + LinComb.of(lad, 2) + LinComb.of(node(other, [(a, leaf(b))]), Fraction(-1, 3))
    y = LinComb.of(lad) + LinComb.of(leaf(b), Fraction(-1, 2)) + LinComb.of(leaf(other), 3)
    return x, y, ladder((b, a), (b, a), (b,))


def graft_cases():
    table = from_table(
        E,
        V,
        {
            (a1, b1): [(1, a1, b1), (Fraction(2, 3), a2, b2)],
            (a1, b2): [(-1, a2, b1)],
            (a2, b1): [(Fraction(1, 2), a1, b2), (1, a2, b1)],
        },
    )
    d1 = phi_lambda(SpdeConfig(1, (Fraction(1, 2), Fraction(-2, 3))))
    return [
        (table, [a1, a2], [b1, b2]),
        (d1, [mi(1, 0), mi(0, 1)], [mi(1, 1), mi(0, 2)]),
    ]


@pytest.mark.parametrize("case", range(2))
def test_graft_phi_matches_lc_sum_fold(case):
    phi, elabels, vlabels = graft_cases()[case]
    a, (b, other) = elabels[0], vlabels
    x, y, meet = cancelling_pair(b, a, other)
    got = graft_phi(phi, x, a, y)
    assert got == graft_phi_by_address(phi, x, a, y)
    # The meeting tree cancels in the sum though each side produces it.
    assert got.coeff(meet) == 0
    assert graft_phi(phi, LinComb.of(leaf(b)), a, LinComb.of(ladder((b, a), (b,)))).coeff(meet) != 0
    # Random multi-term combinations with small rational coefficients.
    rng = random.Random(34 + case)
    pool = trees_up_to(3, elabels, vlabels)
    for _ in range(15):
        x = LinComb((rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(4))
        y = LinComb((rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(4))
        assert graft_phi(phi, x, a, y) == graft_phi_by_address(phi, x, a, y)


def test_graft_free_matches_lc_sum_fold():
    x, y, meet = cancelling_pair(b1, a1, b2)
    got = graft_free(x, a1, y)
    assert got == graft_free_by_address(x, a1, y)
    assert got.coeff(meet) == 0
    rng = random.Random(36)
    pool = trees_up_to(3, [a1, a2], [b1, b2])
    for _ in range(15):
        x = LinComb((rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(4))
        y = LinComb((rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(4))
        assert graft_free(x, a1, y) == graft_free_by_address(x, a1, y)


# ---------------------------------------------------------------------------
# The vertex-sum recursion against grafting one vertex address at a time


def vertex_sum_maps():
    """A seeded table map that the checker refutes, flagged compatible
    anyway, and a phi_lambda map with fractional coefficients."""
    table = random_table_map(41)
    assert isinstance(check_compat(table), Refuted)
    d1 = phi_lambda(SpdeConfig(1, (Fraction(1, 2), Fraction(-2, 3))))
    return {
        "table": (dataclasses.replace(table, compat_by_construction=True), [a1, a2], [b1, b2]),
        "phi_lambda": (d1, [mi(1, 0), mi(0, 1)], [mi(1, 1), mi(0, 2)]),
    }


@pytest.mark.parametrize("case", ["table", "phi_lambda"])
def test_grafting_matches_the_address_oracle_on_all_small_pairs(case):
    phi, elabels, vlabels = vertex_sum_maps()[case]
    xs = trees_up_to(2, elabels, vlabels)
    ys = trees_up_to(4, elabels, vlabels)
    assert (len(xs), len(ys)) == (10, 438)
    for i, tx in enumerate(xs):
        x = LinComb.of(tx)
        a = elabels[i % 2]
        for ty in ys:
            y = LinComb.of(ty)
            assert graft_phi(phi, x, a, y) == graft_phi_by_address(phi, x, a, y)
            assert graft_free(x, a, y) == graft_free_by_address(x, a, y)


def wide_tree(rng, elabels, vlabels, depth):
    """A canonical tree whose sibling families repeat equal children and
    reuse subtrees drawn from a small pool."""
    if depth == 0:
        return leaf(rng.choice(vlabels))
    pool = [(rng.choice(elabels), wide_tree(rng, elabels, vlabels, depth - 1)) for _ in range(2)]
    kids = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    return node(rng.choice(vlabels), kids)


@pytest.mark.parametrize("case", ["table", "phi_lambda"])
def test_grafting_matches_the_address_oracle_on_multi_term_combinations(case):
    # The terms of y share subtrees, so the memo serves several terms, and
    # their sibling families repeat equal children, so runs of equal
    # children take the multiplicity path.
    phi, elabels, vlabels = vertex_sum_maps()[case]
    rng = random.Random(f"vertex-sum:{case}")
    small = trees_up_to(2, elabels, vlabels)
    for _ in range(12):
        shared = wide_tree(rng, elabels, vlabels, 2)
        ys = [shared, node(rng.choice(vlabels), [(rng.choice(elabels), shared)] * 2)]
        ys += [wide_tree(rng, elabels, vlabels, 2) for _ in range(3)]
        y = LinComb((t, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for t in ys)
        x = LinComb((rng.choice(small), Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(3))
        for a in elabels:
            assert graft_phi(phi, x, a, y) == graft_phi_by_address(phi, x, a, y)
            assert graft_free(x, a, y) == graft_free_by_address(x, a, y)


def test_vertex_sum_visits_each_distinct_subtree_once_and_counts_equal_siblings():
    cherry = node(b2, [(a1, leaf(b2))] * 2)
    y1 = node(b1, [(a1, leaf(b2))] * 3 + [(a2, cherry)])
    y2 = node(b2, [(a2, node(b2, [(a1, leaf(b2))] * 2))])
    seen = []

    def local(s):
        seen.append(s)
        return [(DecoratedTree(b1, s.children), 1)]

    memo = {}
    first = vertex_sum(y1, local, memo)
    second = vertex_sum(y2, local, memo)
    # leaf(b2), cherry, y1 and y2: y2's child equals the cherry inside y1.
    assert len(seen) == len(set(seen)) == 4
    assert set(seen) == {leaf(b2), cherry, y1, y2}
    # The three equal leaves under y1's root give one term, counted three
    # times; the cherry's two leaves give one term counted twice.
    relabelled_leaf = node(b1, [(a1, leaf(b2))] * 2 + [(a1, leaf(b1)), (a2, cherry)])
    assert (relabelled_leaf, 3) in first
    assert len(first) == 1 + 1 + (1 + 1)
    assert len(second) == 1 + 1 + 1
    assert vertex_sum(y2, local, memo) is second


def test_grafting_and_the_vertex_action_leave_no_cyclic_garbage():
    # The memo of each call is a local passed down the recursion, so it
    # and every image in it are freed by reference counting at return.
    phi, elabels, vlabels = vertex_sum_maps()["phi_lambda"]
    ys = trees_up_to(3, elabels, vlabels)
    x = LinComb.of(ys[4])
    y = LinComb((t, i + 1) for i, t in enumerate(ys))
    psi = PsiPair(edge=lambda p, e: LinComb(), vertex=lambda p, b: LinComb([(b, 2), (vlabels[0], Fraction(1, 3))]))
    planted = PlantedTree(elabels[0], ys[-1])
    calls = [
        lambda: graft_phi(phi, x, elabels[0], y),
        lambda: graft_free(x, elabels[1], y),
        lambda: _vertex_action_on_tree(psi, "p", planted),
    ]
    for call in calls:
        call()  # fill the map's own image cache first
        gc.collect()
        gc.disable()
        try:
            assert call()
            assert gc.collect() == 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# One accumulation against the nested reductions it replaced


def assert_same(got, want):
    """Equal combinations whose coefficients are stored alike: an ``int``
    exactly when the value is integral."""
    assert got == want
    assert all(type(c) is type(want.coeff(t)) for t, c in got.items())
    assert all(type(c) is int or c.denominator > 1 for t, c in got.items())


def fractional(rng, terms, k):
    return LinComb((rng.choice(terms), Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(k))


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-1, 2)])
def test_theta_and_grafting_match_the_nested_reductions_for_phi_lambda(lam):
    phi, back = (phi_lambda(SpdeConfig(0, (s * lam,))) for s in (1, -1))
    labels = [mi(k) for k in range(3)]
    trees = trees_up_to(4, labels, labels)
    assert len(trees) == 6492
    for t in trees:
        image = theta(phi, LinComb.of(t))
        assert_same(image, theta_nested(phi, LinComb.of(t)))
        # Applying the inverse map cancels every term but t.
        assert_same(theta(back, image), theta_nested(back, image))
    for f in forests_up_to(3, labels, labels):
        assert_same(theta_bar(phi, LinComb.of(f)), theta_bar_nested(phi, LinComb.of(f)))
    small = trees_up_to(2, labels, labels)
    for a in labels:
        for tx in small:
            for ty in small:
                x, y = LinComb.of(tx), LinComb.of(ty)
                assert_same(graft_phi(phi, x, a, y), graft_phi_nested(phi, x, a, y))
                assert_same(graft_free(x, a, y), graft_free_nested(x, a, y))
    # Multi-term inputs with fractional coefficients share subtrees and
    # meet on common output terms.
    rng = random.Random(f"nested:{lam}")
    for _ in range(20):
        x, y = fractional(rng, trees, 4), fractional(rng, trees, 4)
        a = rng.choice(labels)
        assert_same(theta(phi, x), theta_nested(phi, x))
        assert_same(graft_phi(phi, x, a, y), graft_phi_nested(phi, x, a, y))
        assert_same(graft_free(x, a, y), graft_free_nested(x, a, y))
        f = forest(PlantedTree(rng.choice(labels), t) for t, _ in x.items())
        z = LinComb.of(f, Fraction(-2, 3)) + LinComb.of(forest([PlantedTree(a, rng.choice(trees))]), 3)
        assert_same(theta_bar(phi, z), theta_bar_nested(phi, z))


def test_theta_and_grafting_match_the_nested_reductions_for_a_d_form_block_map():
    rng = random.Random(35)
    mat2 = lambda: [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
    BE, BV = default_block_bases(2, 2)
    phi = from_blocks(build_JD(mat2(), mat2(), "D"), BE, BV)
    trees = trees_up_to(3, BE.labels(), BV.labels())
    assert len(trees) == 62
    for t in trees:
        assert_same(theta(phi, LinComb.of(t)), theta_nested(phi, LinComb.of(t)))
    for f in forests_up_to(3, BE.labels(), BV.labels()):
        assert_same(theta_bar(phi, LinComb.of(f)), theta_bar_nested(phi, LinComb.of(f)))
    (e1, _), (v1, v2) = BE.labels(), BV.labels()
    x, y, meet = cancelling_pair(v1, e1, v2)
    assert graft_free(x, e1, y).coeff(meet) == 0
    assert_same(graft_free(x, e1, y), graft_free_nested(x, e1, y))
    for a in BE.labels():
        for tx in trees:
            x = LinComb.of(tx)
            for ty in trees:
                y = LinComb.of(ty)
                assert_same(graft_phi(phi, x, a, y), graft_phi_nested(phi, x, a, y))
                assert_same(graft_free(x, a, y), graft_free_nested(x, a, y))
        x, y = fractional(rng, trees, 5), fractional(rng, trees, 5)
        assert_same(graft_phi(phi, x, a, y), graft_phi_nested(phi, x, a, y))
        assert_same(theta(phi, graft_free(x, a, y)), theta_nested(phi, graft_free_nested(x, a, y)))
