from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from rtcalc.lincomb import LinComb, as_scalar, lc_sum, multilinear, term_key

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
terms = st.sampled_from(["u", "v", "w", "x", "y"])
combos = st.lists(st.tuples(terms, rationals), max_size=8).map(LinComb)


def test_zero_is_empty():
    assert LinComb().is_zero
    assert LinComb.of("t", 0).is_zero
    assert len(LinComb.of("t", 2)) == 1


def test_merging_and_cancellation():
    x = LinComb([("t", 2), ("t", 3)])
    assert x.coeff("t") == 5
    assert (x - x).is_zero
    assert x + LinComb.of("t", -5) == LinComb()


def test_scale():
    x = LinComb([("a", Fraction(1, 2)), ("b", 3)])
    assert (2 * x).coeff("a") == 1
    assert x.scale(0).is_zero
    assert (-x).coeff("b") == -3


def test_map_terms_is_linear():
    x = LinComb([("a", 2), ("b", Fraction(1, 3))])
    y = x.map_terms(lambda t: LinComb.of(t.upper(), 2))
    assert y == LinComb([("A", 4), ("B", Fraction(2, 3))])


def test_render_examples():
    assert LinComb().render() == "0"
    x = LinComb([("t1", Fraction(3, 2)), ("t2", -1)])
    assert x.render() == "3/2*t1 - t2"
    assert LinComb.of("t", -2).render() == "-2*t"
    assert LinComb.of("t").render() == "t"


def test_render_is_deterministic_under_insertion_order():
    a = LinComb([("y", 1), ("x", 2)])
    b = LinComb([("x", 2), ("y", 1)])
    assert a.render() == b.render() == "2*x + y"


def test_as_scalar_parses_fraction_strings():
    assert as_scalar("3/6") == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_term_key_on_tuples():
    assert term_key(("a", ("b", "c"))) == ("a", ("b", "c"))


@given(combos, combos)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(combos, combos, combos)
def test_addition_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(combos, rationals, rationals)
def test_scaling_distributes(x, a, b):
    assert x.scale(a) + x.scale(b) == x.scale(a + b)


@given(combos)
def test_sub_self_is_zero(x):
    assert (x - x).is_zero


@given(st.lists(combos, max_size=5))
def test_lc_sum_matches_fold(parts):
    total = LinComb()
    for p in parts:
        total = total + p
    assert lc_sum(parts) == total


def test_lc_sum_drops_cancelled_terms():
    x = LinComb([("a", Fraction(1, 2)), ("b", 3)])
    y = LinComb([("c", -1)])
    assert lc_sum([x, -x, y]) == y
    assert dict(lc_sum([x, -x, y]).items()) == {"c": -1}
    # A term that cancels and then comes back.
    assert lc_sum([x, -x, x, y]) == x + y
    assert lc_sum([]).is_zero


def is_stored_scalar(c):
    """An ``int`` that is not a ``bool``, or a ``Fraction`` with denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def map_terms_by_fraction_fold(x, fn):
    """The plain ``Fraction`` fold that ``map_terms`` replaced, kept as its oracle."""
    acc = {}
    for term, c in x.items():
        for image, weight in fn(term).items():
            total = acc.get(image, Fraction(0)) + c * weight
            if total:
                acc[image] = total
            else:
                acc.pop(image, None)
    return acc


mixed_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)
images = st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), mixed_rationals), max_size=5).map(LinComb)


@example(
    LinComb([("u", 1), ("v", 1)]),
    {"u": LinComb([("A", Fraction(1, 2)), ("B", Fraction(1, 3))]), "v": LinComb([("A", Fraction(-1, 2))])},
)
@example(LinComb([("u", Fraction(2, 3)), ("v", Fraction(-4, 9))]), {"u": LinComb([("A", 2)]), "v": LinComb([("A", 3)])})
@example(LinComb([("u", 5)]), {})
@given(
    st.lists(st.tuples(terms, mixed_rationals), max_size=8).map(LinComb),
    st.dictionaries(terms, images),
)
def test_map_terms_matches_fraction_fold(x, table):
    fn = lambda t: table.get(t, LinComb())
    got = x.map_terms(fn)
    assert dict(got.items()) == map_terms_by_fraction_fold(x, fn)
    for _, c in got.items():
        assert is_stored_scalar(c) and c != 0 and gcd(c.numerator, c.denominator) == 1


def fraction_fold(pairs):
    """The plain ``Fraction`` fold that the summing loop replaced, kept as its oracle."""
    acc = {}
    for term, c in pairs:
        total = acc.get(term, Fraction(0)) + Fraction(c)
        if total:
            acc[term] = total
        else:
            acc.pop(term, None)
    return acc


def negated(pairs):
    return [(term, -Fraction(c)) for term, c in pairs]


scalars = st.one_of(st.integers(-6, 6), rationals, rationals.map(str))
pair_lists = st.lists(st.tuples(terms, scalars), max_size=10)


@example([("u", 1), ("u", "-1/2"), ("v", Fraction(2, 3))], [("u", "1/2")], 2, [])
@given(pair_lists, pair_lists, st.integers(0, 10), st.lists(pair_lists, max_size=4))
def test_summing_matches_fraction_fold(p, q, k, parts):
    # Sums that cancel to zero: p against all of its negation, and against a prefix of it.
    for pairs in (p, q, p + negated(p), p + negated(p[:k]), q + p + negated(q)):
        got = LinComb(pairs)
        assert dict(got.items()) == fraction_fold(pairs)
        assert all(is_stored_scalar(c) for _, c in got.items())
    x, y = LinComb(p), LinComb(q)
    assert dict((x + y).items()) == fraction_fold(p + q)
    assert dict((x - y).items()) == fraction_fold(p + negated(q))
    assert (x - x).is_zero
    everything = parts + [p, negated(p)]
    total = lc_sum(LinComb(ps) for ps in everything)
    assert dict(total.items()) == fraction_fold([tc for ps in everything for tc in ps])


stored_scalars = st.one_of(st.integers(-6, 6), rationals).map(as_scalar)
factors = st.lists(st.lists(st.tuples(terms, stored_scalars), max_size=3).map(LinComb), max_size=4)
# What fn sends a tuple of terms to: several pairs, fractional ones among
# them, that meet and cancel on common outputs.
outputs = st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), mixed_rationals), max_size=4)


def multilinear_fold(fn, fs):
    """The sum over one term of each factor of ``fn(*terms)``, weighted by
    the product of the coefficients, as a plain ``Fraction`` fold."""
    pairs = []
    for combo in iproduct(*[f.items() for f in fs]):
        weight = Fraction(1)
        for _, c in combo:
            weight *= c
        pairs += [(t, weight * Fraction(c)) for t, c in fn(*[t for t, _ in combo])]
    return fraction_fold(pairs)


# Caught, each on a mutated copy of lincomb: a dropped lcm rescale (the
# third example), zeros kept in the output (the second) and a dropped
# factor coefficient (the first).
@example([LinComb([("u", Fraction(1, 2)), ("v", 3)]), LinComb([("w", Fraction(-2, 3))])], {})
@example([LinComb([("u", Fraction(1, 2)), ("v", Fraction(-1, 2))]), LinComb([("w", 3)])], {("u", "w"): [("A", 1)], ("v", "w"): [("A", 1)]})
@example([LinComb([("u", 1), ("v", 1)])], {("u",): [("A", Fraction(1, 2)), ("B", 2)], ("v",): [("A", Fraction(1, 3))]})
@given(factors, st.dictionaries(st.tuples(terms, terms) | st.tuples(terms), outputs))
def test_multilinear_matches_fraction_fold(fs, table):
    fn = lambda *ts: table.get(ts, [("".join(ts), 1)])
    got = multilinear(fn, *fs)
    assert dict(got.items()) == multilinear_fold(fn, fs)
    for _, c in got.items():
        assert is_stored_scalar(c) and c != 0 and gcd(c.numerator, c.denominator) == 1


def test_multilinear_calls_fn_once_per_choice_of_terms():
    calls = []

    def fn(*ts):
        calls.append(ts)
        return [("".join(ts), Fraction(1, 2)), ("z", -1)]

    assert multilinear(fn) == LinComb([("", Fraction(1, 2)), ("z", -1)])
    assert calls == [()]
    calls.clear()
    # An empty factor leaves no choice of terms, so the sum is zero.
    assert multilinear(fn, LinComb.of("u"), LinComb()).is_zero
    assert calls == []
    x, y = LinComb([("u", 2), ("v", Fraction(1, 3))]), LinComb([("w", 3)])
    assert multilinear(fn, x, y) == LinComb([("uw", 3), ("vw", Fraction(1, 2)), ("z", -7)])
    assert sorted(calls) == [("u", "w"), ("v", "w")]


@given(pair_lists, st.randoms(use_true_random=False))
def test_output_order_does_not_depend_on_insertion_order(pairs, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    x, y = LinComb(pairs), LinComb(shuffled)
    assert x == y
    assert x.sorted_items() == y.sorted_items()
    assert x.render() == y.render()
    assert [t for t, _ in x.sorted_items()] == sorted(t for t, _ in x.items())


def render_by_magnitude(x, render_term=str):
    """The earlier ``LinComb.render``, kept as the oracle: the sign from
    comparing each coefficient with 0, the magnitude from ``abs``."""
    if x.is_zero:
        return "0"
    pieces = []
    for i, (term, c) in enumerate(x.sorted_items()):
        mag = abs(c)
        body = render_term(term) if mag == 1 else f"{mag}*{render_term(term)}"
        if i == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


render_coeffs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2)]) | rationals


@example([])
@example([("u", -1), ("v", 1)])
@example([(("u", "v"), Fraction(-1, 2)), (("v", "w"), 1), (("v", "u"), Fraction(1, 2))])
@example([("u", -2), ("v", -1), ("w", Fraction(-7, 3))])
@given(st.lists(st.tuples(terms, render_coeffs), max_size=8) | st.lists(st.tuples(st.tuples(terms, terms), render_coeffs), max_size=8))
def test_render_matches_the_sign_and_magnitude_form(pairs):
    x = LinComb(pairs)
    assert x.render() == render_by_magnitude(x)
    joined = lambda t: "(x)".join(t) if isinstance(t, tuple) else t.upper()
    assert x.render(joined) == render_by_magnitude(x, joined)
