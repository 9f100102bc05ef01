"""The stored-scalar invariant: a coefficient is an ``int`` until a denominator appears.

Every coefficient a ``LinComb`` holds, and every pairing value, is an
``int`` that is not a ``bool`` or a ``Fraction`` whose reduced denominator
is greater than 1, never a ``float``.  The operators are fed fractional
inputs whose products and sums often come back to whole numbers, which is
where a ``Fraction`` with denominator 1 would slip through.
"""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from rtcalc.decorations import lambda_pow, mi, symbols
from rtcalc.hopf import cut_coproduct, delta_pairing, forest_elem, pair_forests, pair_tensor, star_product
from rtcalc.lincomb import LinComb, as_scalar, exact_div, lc_sum
from rtcalc.phimaps import build_JD, from_blocks
from rtcalc.ratmat import det, inv2, mat, nullspace, rref
from rtcalc.spde import SpdeConfig, phi_lambda
from rtcalc.trees import EMPTY_FOREST
from rtcalc.verify import forests_up_to


def is_stored_scalar(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_stored(comb: LinComb):
    for _, c in comb.items():
        assert is_stored_scalar(c) and c != 0, (c, type(c))


halves = st.fractions(min_value=-4, max_value=4, max_denominator=4)
scalars = st.one_of(st.integers(-6, 6), halves, halves.map(str))
terms = st.sampled_from(["u", "v", "w"])
pair_lists = st.lists(st.tuples(terms, scalars), max_size=8)


@example([("u", Fraction(1, 2)), ("u", Fraction(1, 2)), ("v", "4/2")], [("v", -2)], Fraction(2))
@given(pair_lists, pair_lists, halves)
def test_lincomb_operations_store_ints_until_a_denominator_appears(p, q, k):
    x, y = LinComb(p), LinComb(q)
    assert_stored(x)
    assert_stored(lc_sum([x, y, x]))
    assert_stored(x - y)
    assert_stored(-x)
    assert_stored(x.scale(k))
    assert_stored(x.map_terms(lambda t: LinComb([(t, k), ("w", Fraction(1, 2))])))
    assert_stored(LinComb.of("u", k))


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5])
def test_bool_and_float_are_refused(bad):
    with pytest.raises(TypeError):
        as_scalar(bad)
    with pytest.raises(TypeError):
        LinComb([("u", bad)])


def test_integral_values_come_back_as_ints():
    assert type(as_scalar(Fraction(6, 3))) is int
    assert type(as_scalar("4/2")) is int
    assert type(lambda_pow((Fraction(1, 2), 2), mi(0, 3))) is int
    assert lambda_pow((Fraction(1, 2), 2), mi(2, 1)) == Fraction(1, 2)
    assert type(exact_div(6, 3)) is int and exact_div(6, 3) == 2
    assert exact_div(1, 3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


divisible = st.one_of(st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=8))


@example(6, -3)
@example(-7, -2)
@example(Fraction(3, 2), Fraction(-1, 2))
@example(Fraction(4, 3), Fraction(2, 3))
@example(0, Fraction(-5, 7))
@given(divisible, divisible)
def test_exact_div_is_the_fraction_quotient_stored(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)
        return
    q = exact_div(a, b)
    assert q == Fraction(a, b)
    assert type(q) is (int if Fraction(a, b).denominator == 1 else Fraction)


@settings(max_examples=25, deadline=None)
@given(st.lists(halves, min_size=2, max_size=2))
def test_phi_lambda_images_store_ints_until_a_denominator_appears(lam):
    cfg = SpdeConfig(1, tuple(lam))
    phi = phi_lambda(cfg)
    for a in phi.edge_basis.labels_up_to(2):
        for b in phi.vertex_basis.labels_up_to(2):
            assert_stored(phi(a, b))


E, V = symbols("E", ("e1", "e2")), symbols("V", ("v1", "v2"))
FORESTS = forests_up_to(2, E.labels(), V.labels())
cells = st.lists(st.lists(halves, min_size=2, max_size=2), min_size=2, max_size=2)


@settings(max_examples=15, deadline=None)
@given(cells, cells, st.sampled_from(["J", "D"]), st.sampled_from(FORESTS), st.sampled_from(FORESTS))
def test_hopf_operators_store_ints_until_a_denominator_appears(A, B, form, f, g):
    # J- and D-form block maps commute blockwise, so they are compatible.
    phi = from_blocks(build_JD(A, B, form), E, V)
    x = LinComb([(f, Fraction(1, 2)), (g, 2)])
    assert_stored(star_product(phi, x, forest_elem(g)))
    assert_stored(cut_coproduct(phi, x))


@settings(max_examples=15, deadline=None)
@example([Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(2)], FORESTS[1], FORESTS[2])
@given(st.lists(halves, min_size=4, max_size=4), st.sampled_from(FORESTS), st.sampled_from(FORESTS))
def test_pairing_values_store_ints_until_a_denominator_appears(weights, f, g):
    w1, w2, w3, w4 = weights
    pairing = delta_pairing()
    x, y = LinComb([(f, w1), (g, w2)]), LinComb([(f, w3), (g, w4), (EMPTY_FOREST, w1)])
    assert is_stored_scalar(pair_forests(pairing, x, y))
    xx = LinComb([((f, g), w1), ((g, f), w2), ((f, f), w3)])
    yy = LinComb([((f, g), w4), ((g, f), w3), ((g, g), w2)])
    assert is_stored_scalar(pair_tensor(pairing, xx, yy))


matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(matrices)
def test_exact_division_on_int_matrices_agrees_with_fractions(rows):
    ints = mat(rows)
    fracs = tuple(tuple(Fraction(x) for x in row) for row in rows)
    assert all(type(x) is int for row in ints for x in row)
    d = det(ints)
    assert is_stored_scalar(d) and d == det(fracs)
    red, pivots = rref(ints)
    assert (red, pivots) == rref(fracs)
    assert all(is_stored_scalar(x) for row in red for x in row)
    if len(rows) == 2 and d:
        inv = inv2(ints)
        assert inv == inv2(fracs)
        assert all(is_stored_scalar(x) for row in inv for x in row)


def leibniz(rows):
    """The determinant by its definition: a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


rational_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(halves, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(rational_matrices)
def test_det_is_the_leibniz_sum(rows):
    assert det(mat(rows)) == leibniz(rows)


def test_nullspace_of_a_matrix_with_no_rows_is_everything():
    assert nullspace(mat([]), 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
