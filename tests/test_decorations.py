import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rtcalc
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
from forest_oracles import tuple_label_key

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


KIND_CODES = {0: "\x01", 1: "\x02", 2: "\x03", 4: "\x04"}


def test_every_label_key_is_a_string_led_by_its_kind_code():
    # The tree keys end each subtree with "\x00", which must sort below every label key.
    labels = (Sym("E", "a1"), mi(0), mi(2, 0, 1), XI, STAR, Pr(Sym("E", "a1"), mi(1, 0)), Pr(XI, STAR))
    for label in labels:
        key = label.sort_key
        assert isinstance(key, str) and key[0] == KIND_CODES[tuple_label_key(label)[0]] > "\x00"
    for x in labels:
        for y in labels:
            assert cmp(x.sort_key, y.sort_key) == cmp(tuple_label_key(x), tuple_label_key(y))


def cmp(a, b):
    return (a > b) - (a < b)


# Strings around the escapes and the end code, prefixes of each other,
# Latin-1, BMP and non-BMP characters.
names = st.text(st.sampled_from(["\x00", "\x01", "\x02", "a", "b", "\xff", "\u0100", "\U0001f600"]), max_size=3)
# Entries about the one-character limit, the byte-length steps and far above.
ENTRY_EDGES = [0, 1, 199, 253, 254, 255, 508, 509, 510, 253 + 2**16, 254 + 2**16, 10**6, 2**64 - 1, 2**64, 10**30]
entries = st.one_of(st.sampled_from(ENTRY_EDGES), st.integers(0, 600), st.integers(0, 10**40))
any_labels = st.one_of(
    st.builds(Sym, names, names),
    st.lists(entries, min_size=1, max_size=3).map(lambda es: MultiIndex(tuple(es))),
    st.sampled_from([XI, STAR]),
)


@given(any_labels, any_labels)
@settings(max_examples=300)
@example(Sym("E", "\x00"), Sym("E", "\x01"))
@example(Sym("E", "\x00"), Sym("E", "\x01\x01"))
@example(Sym("E\x00", "z"), Sym("E", "zz"))
@example(Sym("E", ""), Sym("E", "\x00"))
@example(mi(0), mi(0, 0))
@example(mi(253), mi(254))
@example(mi(509), mi(510))
@example(mi(2**64, 0), mi(10**30))
def test_label_keys_order_as_the_tuples_and_none_is_a_prefix_of_another(x, y):
    kx, ky = x.sort_key, y.sort_key
    assert cmp(kx, ky) == cmp(tuple_label_key(x), tuple_label_key(y))
    assert (kx == ky) == (x is y)
    assert kx == ky or not (ky.startswith(kx) or kx.startswith(ky))
    assert kx[0] > "\x00"


def test_small_entries_and_ascii_names_give_latin_1_keys():
    for label in (mi(0), mi(199, 0, 5), Sym("E", "a1"), Sym("", "x y"), XI, STAR):
        assert label.sort_key.encode("latin-1")
    assert len(mi(199, 0).sort_key) == 4 and len(Sym("E", "a1").sort_key) == 6


def test_multiindex_refuses_bool_entries():
    # In a fresh interpreter no (1, 0) is interned yet, so the bool tuple would be stored.
    code = (
        "from rtcalc.decorations import MultiIndex, mi\n"
        "try:\n"
        "    MultiIndex((True, 0))\n"
        "except ValueError as e:\n"
        "    print('refused:', e)\n"
        "print(mi(1, 0).render())\n"
    )
    src = str(Path(rtcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60).stdout
    assert out == "refused: multi-index entries must be nonnegative ints: (True, 0)\n<1,0>\n"
    with pytest.raises(ValueError):
        MultiIndex((False, 3, 141421))
    assert mi(0, 3, 141421).render() == "<0,3,141421>" and mi(1, 0).render() == "<1,0>"


def test_symbols_refuse_names_and_basis_ids_that_are_not_strings():
    for basis_id, name in ((1, "a"), ("E", 1), ("E", b"a"), (None, "a"), ("E", ("a",))):
        with pytest.raises(TypeError, match="must be strings"):
            Sym(basis_id, name)


def test_noise_labels_hash_and_compare_by_identity_with_a_stored_key():
    # Python-level __eq__ and __hash__ would run on every intern-table and memo lookup.
    Noise = type(XI)
    assert Noise.__eq__ is object.__eq__ and Noise.__hash__ is object.__hash__
    assert XI != STAR and XI == XI and {XI: 1}[XI] == 1
    assert not hasattr(XI, "__dict__") and XI.sort_key is XI.sort_key
    assert (STAR.sort_key, XI.sort_key) == ("\x03*\x00", "\x03Xi\x00")
    assert mi(10**30).sort_key < STAR.sort_key < XI.sort_key


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
