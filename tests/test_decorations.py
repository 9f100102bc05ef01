from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from rtcalc.decorations import (
    STAR,
    XI,
    MultiIndex,
    MultiIndexBasis,
    NoiseOnlyBasis,
    Sym,
    SymbolBasis,
    UnionBasis,
    bases_disjoint,
    lambda_pow,
    mi,
    mi_unit,
    mi_zero,
    symbols,
    union_bases,
)
from rtcalc.lincomb import LinComb, term_key
from rtcalc.phimaps import direct_sum, identity_map

from constructions import Pr, ProductBasis, tensor_product

small_mi = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3).map(
    lambda es: MultiIndex(tuple(es))
)


def test_entrywise_comparisons():
    a, b = mi(1, 2), mi(2, 2)
    assert a.leq(b) and not b.leq(a)
    assert a.min_with(b) == a
    assert mi(3, 0).min_with(mi(1, 5)) == mi(1, 0)


def test_sub_returns_none_not_zero():
    assert mi(1, 0).sub(mi(0, 1)) is None
    assert mi(1, 1).sub(mi(1, 1)) == mi(0, 0)
    assert mi(1, 1).sub(mi(1, 1)) is not None


def test_binom_is_entrywise_product():
    assert mi(3, 2).binom(mi(2, 1)) == 6
    with pytest.raises(ValueError):
        mi(1, 0).binom(mi(2, 0))


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        mi(1, 2).leq(mi(1, 2, 3))


def test_lambda_pow_zero_conventions():
    # 0^0 = 1 on both the exponent-zero and the base-zero-with-zero-exponent side.
    assert lambda_pow([Fraction(0), Fraction(5)], mi(0, 1)) == 5
    assert lambda_pow([Fraction(0)], mi(0)) == 1
    assert lambda_pow([Fraction(2, 3)], mi(2)) == Fraction(4, 9)


def test_degree_and_units():
    assert mi(2, 0, 1).degree == 3
    assert mi_unit(1, 2) == mi(0, 1, 0)
    assert mi_zero(1) == mi(0, 0)


@given(small_mi, small_mi)
def test_min_is_greatest_lower_bound(a, b):
    if len(a) != len(b):
        return
    m = a.min_with(b)
    assert m.leq(a) and m.leq(b)
    assert a.sub(m) is not None and b.sub(m) is not None


@given(small_mi)
def test_binom_vandermonde_chain(b):
    # Sum over the box below b of the entrywise binomials equals 2^|b|.
    d = len(b) - 1
    box = [MultiIndex(t) for t in product(*[range(e + 1) for e in b.entries])]
    assert sum(b.binom(l) for l in box) == 2 ** b.degree


def test_label_order_symbols_then_multiindices_then_noise():
    a = Sym("E", "a1")
    b = Sym("E", "a2")
    assert term_key(a) < term_key(b)
    assert term_key(Sym("D", "z")) < term_key(a)
    assert term_key(b) < term_key(mi(0, 0))
    assert term_key(mi(0, 5)) < term_key(mi(1, 0))
    assert term_key(mi(9, 9, 9)) < term_key(XI)
    assert term_key(mi(9)) < term_key(STAR)


def test_every_label_key_is_a_nonempty_tuple_led_by_an_int_kind_tag():
    # The flat tree keys end each subtree with (), which must sort below every label key.
    for label in (Sym("E", "a1"), mi(0), mi(2, 0, 1), XI, STAR, Pr(Sym("E", "a1"), mi(1, 0)), Pr(XI, STAR)):
        key = label.sort_key
        assert isinstance(key, tuple) and key and type(key[0]) is int
        assert () < key


def test_noise_labels_hash_and_compare_by_identity_with_a_stored_key():
    # Python-level __eq__ and __hash__ would run on every intern-table and memo lookup.
    Noise = type(XI)
    assert Noise.__eq__ is object.__eq__ and Noise.__hash__ is object.__hash__
    assert XI != STAR and XI == XI and {XI: 1}[XI] == 1
    assert not hasattr(XI, "__dict__") and XI.sort_key is XI.sort_key
    assert (STAR.sort_key, XI.sort_key) == ((2, "*"), (2, "Xi"))


def test_render():
    assert mi(1, 0).render() == "<1,0>"
    assert XI.render() == "Xi"
    assert STAR.render() == "*"
    assert Sym("E", "a1").render() == "a1"
    assert Pr(Sym("E", "a"), mi(1)).render() == "(a,<1>)"


def test_symbol_basis():
    E = symbols("E", ["a1", "a2"])
    assert E.is_finite
    assert E.contains(Sym("E", "a1"))
    assert not E.contains(Sym("F", "a1"))
    assert E.resolve_name("a2") == Sym("E", "a2")
    assert E.resolve_name("zz") is None
    assert [l.name for l in E.labels()] == ["a1", "a2"]
    with pytest.raises(ValueError):
        symbols("E", ["x", "x"])


def test_multiindex_basis_slices():
    B = MultiIndexBasis(1)
    assert not B.is_finite
    assert B.contains(mi(0, 3)) and not B.contains(mi(1))
    assert len(B.labels_up_to(2)) == 9
    with pytest.raises(ValueError):
        B.labels()


def noisy(d, noise):
    """The noise-extended multi-index basis: a direct-sum basis."""
    return union_bases(MultiIndexBasis(d), NoiseOnlyBasis(noise))


def test_noise_basis_membership():
    Be = noisy(0, XI)
    Bv = noisy(0, STAR)
    assert Be.contains(XI) and not Be.contains(STAR)
    assert Bv.contains(STAR) and Bv.contains(mi(4))
    assert Be.labels_up_to(1) == (mi(0), mi(1), XI)
    assert Be.resolve_name("Xi") == XI


def test_union_fuses_noise_line():
    fused = union_bases(NoiseOnlyBasis(XI), MultiIndexBasis(0))
    assert fused == noisy(0, XI)
    assert fused.labels_up_to(1) == (mi(0), mi(1), XI)
    fused2 = union_bases(NoiseOnlyBasis(STAR), MultiIndexBasis(2))
    assert fused2 == noisy(2, STAR)
    assert hash(fused2) == hash(noisy(2, STAR))
    assert fused2.labels_up_to(0) == (mi(0, 0, 0), STAR)


def test_union_of_symbol_bases():
    E1 = symbols("E1", ["a"])
    E2 = symbols("E2", ["b"])
    u = union_bases(E1, E2)
    assert isinstance(u, UnionBasis)
    assert u.is_finite
    assert u.labels() == (Sym("E1", "a"), Sym("E2", "b"))
    assert u.resolve_name("a") == Sym("E1", "a")


def test_disjointness_guard():
    assert not bases_disjoint(MultiIndexBasis(1), MultiIndexBasis(1))
    assert bases_disjoint(MultiIndexBasis(1), MultiIndexBasis(2))
    with pytest.raises(ValueError):
        union_bases(symbols("E", ["a"]), symbols("E", ["a", "b"]))
    A, B, C = symbols("A", ["a"]), symbols("B", ["b"]), symbols("C", ["c"])
    AB = UnionBasis(A, B)
    assert not bases_disjoint(AB, A) and not bases_disjoint(B, AB)
    assert not bases_disjoint(AB, UnionBasis(C, B))
    assert bases_disjoint(AB, C) and bases_disjoint(C, AB)
    assert not bases_disjoint(ProductBasis(A, B), ProductBasis(A, B))
    assert bases_disjoint(ProductBasis(A, B), ProductBasis(C, B))
    assert bases_disjoint(ProductBasis(A, B), ProductBasis(A, C))
    assert bases_disjoint(ProductBasis(A, B), A)
    # Both noise-extended bases hold XI, whatever their lengths.
    assert not bases_disjoint(noisy(0, XI), noisy(1, XI))
    assert not bases_disjoint(noisy(1, XI), NoiseOnlyBasis(XI))
    assert bases_disjoint(noisy(0, XI), noisy(1, STAR))
    assert not bases_disjoint(noisy(1, STAR), MultiIndexBasis(1))


def test_direct_sum_refuses_overlapping_summands():
    E, V = symbols("E", ["a"]), symbols("V", ["b"])
    E2, V2 = symbols("E2", ["a"]), symbols("V2", ["b"])
    p, q = identity_map(E, V), identity_map(E2, V2)
    with pytest.raises(ValueError, match="disjoint"):
        direct_sum(direct_sum(p, q, 1, 1), p, 1, 1)
    t = tensor_product(p, p)
    with pytest.raises(ValueError, match="disjoint"):
        direct_sum(t, t, 1, 1)
    s = direct_sum(direct_sum(p, q, 1, 1), tensor_product(p, q), 1, 1)
    ab = (Pr(*E.labels(), *E2.labels()), Pr(*V.labels(), *V2.labels()))
    assert s(*ab) == LinComb.of(ab)
