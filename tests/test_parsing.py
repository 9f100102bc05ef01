from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcalc.decorations import STAR, XI, MultiIndexBasis, NoiseOnlyBasis, Sym, mi, symbols, union_bases
from rtcalc.lincomb import LinComb
from rtcalc.parsing import (
    ParseError,
    parse_ext_elem,
    parse_forest_comb,
    parse_label,
    parse_tree_comb,
    render_comb,
)
from rtcalc.trees import EMPTY_FOREST, PlantedTree, forest, leaf, node

E_SYM = symbols("a", ("a1", "a2"))
V_SYM = symbols("b", ("b1", "b2"))
MI1 = MultiIndexBasis(1)
E_NOISE = union_bases(MultiIndexBasis(1), NoiseOnlyBasis(XI))
V_NOISE = union_bases(MultiIndexBasis(1), NoiseOnlyBasis(STAR))


def a(i):
    return Sym("a", f"a{i}")


def b(i):
    return Sym("b", f"b{i}")


# -- labels


def test_parse_label_symbol_and_multiindex():
    assert parse_label("a2", E_SYM) == a(2)
    assert parse_label(" <1,2> ", MI1) == mi(1, 2)
    assert parse_label("< 0 , 3 >", MI1) == mi(0, 3)


def test_parse_label_noise_names():
    assert parse_label("Xi", E_NOISE) == XI
    assert parse_label("*", V_NOISE) == STAR


def test_a_missing_label_is_named_with_its_article():
    with pytest.raises(ParseError, match="expected an edge label, got '1'"):
        parse_label("1", E_SYM, "edge")
    with pytest.raises(ParseError, match="expected a vertex label, got '1'"):
        parse_label("1", V_SYM, "vertex")


def test_parse_label_rejects_wrong_basis():
    with pytest.raises(ParseError, match="unknown"):
        parse_label("b1", E_SYM)
    with pytest.raises(ParseError, match="not in the"):
        parse_label("<1,2,3>", MI1)
    with pytest.raises(ParseError, match="not in the"):
        parse_label("*", MI1)


# -- single shapes


def test_parse_tree_golden():
    got = parse_tree_comb("(b1 [a1] (b2) [a2] (b1))", E_SYM, V_SYM)
    want = node(b(1), [(a(1), leaf(b(2))), (a(2), leaf(b(1)))])
    assert got == LinComb.of(want)


def test_parse_is_whitespace_insensitive():
    tight = parse_tree_comb("(b1[a1](b2))", E_SYM, V_SYM)
    loose = parse_tree_comb(" ( b1\n   [ a1 ] ( b2 ) ) ", E_SYM, V_SYM)
    assert tight == loose


def test_parse_canonicalizes_child_order():
    one = parse_tree_comb("(b1 [a1] (b2) [a2] (b1))", E_SYM, V_SYM)
    two = parse_tree_comb("(b1 [a2] (b1) [a1] (b2))", E_SYM, V_SYM)
    assert one == two


def test_parse_planted_and_forest():
    p = parse_forest_comb("[a1](b2)", E_SYM, V_SYM)
    assert p == LinComb.of(forest([PlantedTree(a(1), leaf(b(2)))]))

    f = parse_forest_comb("[a1](b1) [a2](b2)", E_SYM, V_SYM)
    want = forest([PlantedTree(a(1), leaf(b(1))), PlantedTree(a(2), leaf(b(2)))])
    assert f == LinComb.of(want)


def test_empty_forest_and_zero():
    assert parse_forest_comb("1", E_SYM, V_SYM) == LinComb.of(EMPTY_FOREST)
    assert parse_forest_comb("3/2", E_SYM, V_SYM) == LinComb.of(EMPTY_FOREST, Fraction(3, 2))
    assert parse_forest_comb("0", E_SYM, V_SYM) == LinComb()
    assert parse_tree_comb("0", E_SYM, V_SYM) == LinComb()


# -- combinations


def test_signs_and_coefficients():
    t1 = "(b1)"
    t2 = "(b2)"
    got = parse_tree_comb(f"-{t1} + 1/2*{t2}", E_SYM, V_SYM)
    want = LinComb.of(leaf(b(1)), -1) + LinComb.of(leaf(b(2)), Fraction(1, 2))
    assert got == want


def test_coefficient_star_is_optional():
    with_star = parse_tree_comb("2*(b1)", E_SYM, V_SYM)
    without = parse_tree_comb("2 (b1)", E_SYM, V_SYM)
    assert with_star == without == LinComb.of(leaf(b(1)), 2)


def test_like_terms_collect():
    got = parse_tree_comb("(b1) + (b1) - 2*(b1)", E_SYM, V_SYM)
    assert got.is_zero


# -- errors carry position


def test_error_position_points_at_token():
    with pytest.raises(ParseError, match=r"^1:5"):
        parse_tree_comb("(b1 b2)", E_SYM, V_SYM)
    with pytest.raises(ParseError, match=r"^2:2"):
        parse_tree_comb("(b1\n b2)", E_SYM, V_SYM)


def test_error_on_trailing_junk():
    with pytest.raises(ParseError, match="expected '\\+'"):
        parse_tree_comb("(b1) (b2)", E_SYM, V_SYM)


def test_error_on_unclosed_tree():
    with pytest.raises(ParseError, match="expected"):
        parse_tree_comb("(b1 [a1] (b2)", E_SYM, V_SYM)


def test_error_on_stray_character():
    with pytest.raises(ParseError, match="stray"):
        parse_tree_comb("(b1) ; (b2)", E_SYM, V_SYM)


def test_error_on_bare_number_outside_forests():
    with pytest.raises(ParseError, match="bare number"):
        parse_tree_comb("2 + (b1)", E_SYM, V_SYM)


def test_error_on_planted_where_tree_expected():
    with pytest.raises(ParseError, match="expected a tree"):
        parse_tree_comb("[a1](b1)", E_SYM, V_SYM)


@pytest.mark.parametrize(
    "parse, src, at",
    [
        (lambda src: parse_tree_comb(src, E_SYM, V_SYM), "(b1) + 1/0*(b2)", "1:8"),
        (lambda src: parse_forest_comb(src, E_SYM, V_SYM), "0/0", "1:1"),
        (lambda src: parse_ext_elem(src, MI1, MI1, ("X_0",)), "X_0\n - 3/0 X_0", "2:4"),
    ],
    ids=["tree", "forest", "ext-elem"],
)
def test_error_on_zero_denominator_points_at_the_number(parse, src, at):
    with pytest.raises(ParseError, match=f"^{at}: zero denominator in"):
        parse(src)


# -- round trips

tree_sym = st.deferred(
    lambda: st.builds(
        node,
        st.sampled_from(V_SYM.labels()),
        st.lists(st.tuples(st.sampled_from(E_SYM.labels()), tree_sym), max_size=2),
    )
)

tree_noise = st.deferred(
    lambda: st.builds(
        node,
        st.sampled_from(V_NOISE.labels_up_to(1)),
        st.lists(st.tuples(st.sampled_from(E_NOISE.labels_up_to(1)), tree_noise), max_size=2),
    )
)

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def comb_of(term_st):
    return st.builds(
        lambda pairs: sum((LinComb.of(t, c) for t, c in pairs), LinComb()),
        st.lists(st.tuples(term_st, coeffs), max_size=3),
    )


@settings(max_examples=60, deadline=None)
@given(comb_of(tree_sym.filter(lambda t: t.vertex_count <= 6)))
def test_roundtrip_tree_combs_symbol_labels(x):
    assert parse_tree_comb(render_comb(x), E_SYM, V_SYM) == x


@settings(max_examples=60, deadline=None)
@given(comb_of(tree_noise.filter(lambda t: t.vertex_count <= 6)))
def test_roundtrip_tree_combs_noise_labels(x):
    assert parse_tree_comb(render_comb(x), E_NOISE, V_NOISE) == x


planted_noise = st.builds(
    PlantedTree,
    st.sampled_from(E_NOISE.labels_up_to(1)),
    tree_noise.filter(lambda t: t.vertex_count <= 5),
)


@settings(max_examples=60, deadline=None)
@given(comb_of(planted_noise))
def test_roundtrip_planted_combs(x):
    # A planted tree renders as the forest of that one tree.
    as_forests = x.map_terms(lambda p: LinComb.of(forest([p])))
    assert parse_forest_comb(render_comb(x), E_NOISE, V_NOISE) == as_forests


@settings(max_examples=60, deadline=None)
@given(comb_of(st.builds(lambda ts: forest(ts), st.lists(planted_noise, max_size=2))))
def test_roundtrip_forest_combs(x):
    assert parse_forest_comb(render_comb(x), E_NOISE, V_NOISE) == x


# -- extension elements


def test_parse_ext_elem_mixes_generators_and_planted_trees():
    planted = PlantedTree(mi(1), leaf(mi(0)))
    got = parse_ext_elem("X_0 - 2*[<1>](<0>)", MultiIndexBasis(0), MultiIndexBasis(0), ("X_0",))
    assert got == LinComb.of("X_0") + LinComb.of(planted, -2)
    got = parse_ext_elem("2 X_0", MultiIndexBasis(0), MultiIndexBasis(0), ("X_0",))
    assert got == LinComb.of("X_0", 2)
    got = parse_ext_elem("-[<1>](<0>) + 0", MultiIndexBasis(0), MultiIndexBasis(0), ("X_0",))
    assert got == LinComb.of(planted, -1)


def test_parse_ext_elem_zero_and_errors():
    assert parse_ext_elem("0", MI1, MI1, ("X_0",)).is_zero
    with pytest.raises(ParseError, match="unknown generator"):
        parse_ext_elem("X_9", MI1, MI1, ("X_0",))
    with pytest.raises(ParseError, match="expected a generator"):
        parse_ext_elem("(b1)", E_SYM, V_SYM, ("X_0",))
