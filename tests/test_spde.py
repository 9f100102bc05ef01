import dataclasses
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rtcalc
from rtcalc.decorations import STAR, XI, MultiIndex, MultiIndexBasis, NoiseOnlyBasis, lambda_pow, mi, mi_unit
from rtcalc.lincomb import LinComb, as_scalar
from rtcalc.mapfiles import build_phi
from rtcalc.phimaps import PhiMap, VerifiedUpToBound, check_compat, compose, direct_sum, zero_map
from rtcalc.postlie import (
    PsiPair,
    ext_bracket,
    ext_triangle,
    postlie_axiom_defects,
    psi_compat_defects,
)
from rtcalc.prelie import graft_phi, theta
import rtcalc.spde as spde
from rtcalc.spde import (
    SpdeConfig,
    noise_extend,
    partial_j,
    partial_lambda,
    phi_lambda,
    phi_lambda_via_exp,
    spde_psi,
    xi_admissible,
    xi_generation_probe,
)
from rtcalc.trees import PlantedTree, leaf, node
from rtcalc.verify import _mi_pairs


def pairs_up_to(d, bound):
    rng = range(bound + 1)
    labels = [MultiIndex(t) for t in product(rng, repeat=d + 1)]
    return [(a, b) for a in labels for b in labels]


def run_python(script, timeout=60):
    """Run ``script`` in a fresh interpreter importing rtcalc from this tree;
    one that runs past ``timeout`` seconds fails the test."""
    src = str(Path(rtcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def pair_comb(*entries):
    out = LinComb()
    for a, b, c in entries:
        out = out + LinComb.of((a, b), c)
    return out


# ---------------------------------------------------------------------------
# The lowering steps


def test_partial_j_weighted_lowering():
    assert partial_j(0, mi(2), mi(3)) == LinComb.of((mi(1), mi(2)), 3)


def test_partial_j_boundary_conventions():
    assert partial_j(0, mi(0), mi(3)).is_zero
    assert partial_j(1, mi(2, 2), mi(2, 0)).is_zero


def test_partial_j_direction_out_of_range():
    with pytest.raises(ValueError):
        partial_j(2, mi(1, 1), mi(1, 1))


def test_partial_lambda_zero_and_unit_coefficients():
    zero = partial_lambda(SpdeConfig(1, (0, 0)))
    assert zero(mi(2, 2), mi(2, 2)).is_zero
    first = partial_lambda(SpdeConfig(1, (1, 0)))
    for a, b in pairs_up_to(1, 2):
        assert first(a, b) == partial_j(0, a, b)


def test_partial_lambda_verified_up_to_bound():
    verdict = check_compat(partial_lambda(SpdeConfig(1, (1, -2))), bound=3)
    assert isinstance(verdict, VerifiedUpToBound)


def test_partial_steps_commute():
    # The two lowering directions commute as maps on pairs.
    one = partial_lambda(SpdeConfig(1, (1, 0)))
    other = partial_lambda(SpdeConfig(1, (0, 1)))
    for a, b in pairs_up_to(1, 3):
        assert one.apply(other(a, b)) == other.apply(one(a, b))


# ---------------------------------------------------------------------------
# The closed form and its series construction


def test_phi_lambda_two_term_example():
    ph = phi_lambda(SpdeConfig(0, (1,)))
    assert ph(mi(1), mi(2)) == pair_comb((mi(1), mi(2), 1), (mi(0), mi(1), 2))


def test_phi_lambda_fractional_coefficients():
    ph = phi_lambda(SpdeConfig(1, (Fraction(1, 2), 2)))
    got = ph(mi(1, 1), mi(2, 1))
    expected = pair_comb(
        (mi(1, 1), mi(2, 1), 1),
        (mi(0, 1), mi(1, 1), 1),
        (mi(1, 0), mi(2, 0), 2),
        (mi(0, 0), mi(1, 0), 2),
    )
    assert got == expected


def test_phi_lambda_identity_cases():
    ph = phi_lambda(SpdeConfig(1, (3, -1)))
    assert ph(mi(0, 0), mi(2, 2)) == LinComb.of((mi(0, 0), mi(2, 2)))
    assert ph(mi(2, 2), mi(0, 0)) == LinComb.of((mi(2, 2), mi(0, 0)))
    at_zero = phi_lambda(SpdeConfig(1, (0, 0)))
    for a, b in pairs_up_to(1, 2):
        assert at_zero(a, b) == LinComb.of((a, b))


def test_phi_lambda_matches_series_construction():
    # Zero entries make lambda^l vanish for some l; the closed form must
    # drop those terms itself, and store no zero coefficient.
    lams = {
        0: [(Fraction(-1, 2),), (0,), (Fraction(-7, 3),)],
        1: [(Fraction(-1, 2), 0), (0, Fraction(-3, 2)), (0, 0), (-2, Fraction(5, 4))],
        2: [(Fraction(-1, 2), 0, Fraction(1, 2)), (0, Fraction(-2, 3), 0), (-1, 0, -3)],
    }
    for d in range(3):
        bound = 3 if d < 2 else 2
        for lam in lams[d]:
            cfg = SpdeConfig(d, lam)
            closed = phi_lambda(cfg)
            series = phi_lambda_via_exp(cfg)
            for a, b in pairs_up_to(d, bound):
                image = closed(a, b)
                assert image == series(a, b)
                assert all(c != 0 for _, c in image.items())


def test_series_construction_runs_past_sixty_four_terms():
    # The series at (a, b) has |min(a, b)| + 1 terms, so it ends on every
    # input however long it runs; no cap may cut it short.
    cases = [
        (SpdeConfig(0, (1,)), mi(70), mi(70)),
        (SpdeConfig(1, (Fraction(1, 2), -1)), mi(65, 1), mi(66, 3)),
    ]
    for cfg, a, b in cases:
        assert a.min_with(b).degree > 64
        assert phi_lambda_via_exp(cfg)(a, b) == phi_lambda(cfg)(a, b)


def phi_lambda_reference(cfg):
    """The closed form as it was summed before the per-label tables: for
    each l <= min(a, b), the weight lambda^l C(b, l) in ``Fraction``
    arithmetic, memoised by (b, l), and the lowered labels a - l and
    b - l, memoised by (entries, l)."""
    monomials, coeffs, lowered = {}, {}, {}

    def lower(entries, low):
        key = (entries, low)
        m = lowered.get(key)
        if m is None:
            m = lowered[key] = MultiIndex(tuple(x - y for x, y in zip(entries, low)))
        return m

    def act(a, b):
        terms = {}
        ae, be = a.entries, b.entries
        for low in product(*(range(min(x, y) + 1) for x, y in zip(ae, be))):
            key = (be, low)
            coeff = coeffs.get(key)
            if coeff is None:
                weight = monomials.get(low)
                if weight is None:
                    weight = monomials[low] = lambda_pow(cfg.lam, MultiIndex(low))
                coeff = coeffs[key] = as_scalar(weight * b.binom(MultiIndex(low)))
            if coeff:
                terms[(lower(ae, low), lower(be, low))] = coeff
        return LinComb._raw(terms)

    return PhiMap(MultiIndexBasis(cfg.d), MultiIndexBasis(cfg.d), act, compat_by_construction=True)


# Zero entries (0^0 = 1), +-1, other integers and negative fractions.
REFERENCE_LAMBDAS = {
    0: [(0,), (1,), (-1,), (3,), (Fraction(-2, 3),), (Fraction(5, 2),)],
    1: [(0, 0), (1, -1), (0, -4), (Fraction(-1, 2), 0), (Fraction(-3, 4), Fraction(-2, 5)), (-1, Fraction(7, 3))],
    2: [(0, 1, -1), (2, 0, Fraction(-1, 3)), (Fraction(-5, 2), -3, 0), (Fraction(-1, 2), Fraction(-2, 3), 1)],
}


@pytest.mark.parametrize("d", [0, 1, 2])
def test_phi_lambda_matches_the_replaced_closed_form(d):
    for lam in REFERENCE_LAMBDAS[d]:
        cfg = SpdeConfig(d, lam)
        fast, reference = phi_lambda(cfg), phi_lambda_reference(cfg)
        for a, b in _mi_pairs(d, 3):
            got, expected = fast(a, b), reference(a, b)
            assert got == expected, (lam, a, b)
            assert {t: type(c) for t, c in got.items()} == {t: type(c) for t, c in expected.items()}
            assert all(type(c) is int or c.denominator != 1 for _, c in got.items())


def test_phi_lambda_work_stays_with_the_output_on_a_huge_vertex_label():
    # With a = 0 the image is the pair itself; a table row filled over the
    # whole box below b would never finish.
    out = run_python(
        """
        from fractions import Fraction
        from rtcalc.decorations import mi
        from rtcalc.spde import SpdeConfig, phi_lambda

        a, b = mi(0, 0, 0), mi(10**6, 10**6, 10**6)
        ph = phi_lambda(SpdeConfig(2, (Fraction(-1, 2), 3, 0)))
        print(ph(a, b).sorted_items() == [((a, b), 1)])
        """
    )
    assert out == "True\n"


def test_power_lemma_reference_formula():
    # n-fold application of the span against the multinomial closed form.
    cfg = SpdeConfig(1, (1, -2))
    span = partial_lambda(cfg)
    for a, b in pairs_up_to(1, 2):
        cur = LinComb.of((a, b))
        for n in range(1, 5):
            cur = span.apply(cur)
            expected = LinComb()
            m = a.min_with(b)
            for entries in product(*(range(e + 1) for e in m.entries)):
                l = MultiIndex(entries)
                if l.degree != n:
                    continue
                coeff = factorial(n) * lambda_pow(cfg.lam, l) * b.binom(l)
                expected = expected + LinComb.of((a.sub(l), b.sub(l)), coeff)
            assert cur == expected


def test_powers_vanish_past_the_nilpotency_index():
    span = partial_lambda(SpdeConfig(1, (1, 1)))
    a, b = mi(2, 1), mi(1, 3)
    cur = LinComb.of((a, b))
    for _ in range(a.min_with(b).degree + 1):
        cur = span.apply(cur)
    assert cur.is_zero


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=2, max_size=2),
)
def test_semigroup_law(aes, bes, lams, mus):
    a, b = MultiIndex(tuple(aes)), MultiIndex(tuple(bes))
    first = phi_lambda(SpdeConfig(1, tuple(lams)))
    second = phi_lambda(SpdeConfig(1, tuple(mus)))
    added = phi_lambda(SpdeConfig(1, tuple(l + m for l, m in zip(lams, mus))))
    assert first.apply(second(a, b)) == added(a, b)


def test_inverse_at_flipped_sign():
    cfg = SpdeConfig(1, (1, Fraction(2, 3)))
    forward = phi_lambda(cfg)
    backward = phi_lambda(cfg.negated())
    for a, b in pairs_up_to(1, 3):
        assert backward.apply(forward(a, b)) == LinComb.of((a, b))
        assert forward.apply(backward(a, b)) == LinComb.of((a, b))


# ---------------------------------------------------------------------------
# Noise extension


def test_noise_extension_rules():
    ph = noise_extend(SpdeConfig(0, (1,)))
    assert ph(XI, mi(2)) == LinComb.of((XI, mi(2)))
    assert ph(mi(2), STAR).is_zero
    assert ph(XI, STAR).is_zero


def test_noise_extension_restricts_to_closed_form():
    cfg = SpdeConfig(1, (1, -1))
    extended = noise_extend(cfg)
    plain = phi_lambda(SpdeConfig(1, (1, -1)))
    for a, b in pairs_up_to(1, 2):
        assert extended(a, b) == plain(a, b)
    assert extended.compat_by_construction
    assert isinstance(check_compat(extended, bound=2), VerifiedUpToBound)


def test_noise_extension_acts_on_the_map_file_noise_bases():
    extended = noise_extend(SpdeConfig(1, (1, 2)))
    basis = {"kind": "multiindex_noise", "d": 1}
    from_file = build_phi({"builder": "zero", "edge_basis": basis, "vertex_basis": basis})
    assert from_file.edge_basis == extended.edge_basis
    assert from_file.vertex_basis == extended.vertex_basis


def test_noise_block_first_is_the_same_extension():
    cfg = SpdeConfig(1, (1, 2))
    extended = noise_extend(cfg)
    flipped = direct_sum(zero_map(NoiseOnlyBasis(XI), NoiseOnlyBasis(STAR)), phi_lambda(cfg), 1, 0)
    assert flipped.edge_basis == extended.edge_basis
    assert flipped.vertex_basis == extended.vertex_basis
    twice = compose(extended, flipped)
    doubled = noise_extend(SpdeConfig(1, (2, 4)))
    edges = extended.edge_basis.labels_up_to(2)
    verts = extended.vertex_basis.labels_up_to(2)
    assert edges[-1] == XI and verts[-1] == STAR
    for a in edges:
        for b in verts:
            assert flipped(a, b) == extended(a, b)
            assert twice(a, b) == doubled(a, b)


def test_noise_extension_runs_each_action_once_per_pair(monkeypatch):
    calls = {}

    def counting_phi_lambda(cfg):
        inner = phi_lambda(cfg)

        def counted(a, b):
            calls[(a, b)] = calls.get((a, b), 0) + 1
            return inner.action(a, b)

        return dataclasses.replace(inner, action=counted)

    monkeypatch.setattr(spde, "phi_lambda", counting_phi_lambda)
    ph = noise_extend(SpdeConfig(1, (1, 2)))
    pairs = pairs_up_to(1, 2) + [(XI, mi(1, 1)), (mi(1, 0), STAR), (XI, STAR)]
    first = {ab: ph(*ab) for ab in pairs}
    for _ in range(3):
        for ab, image in first.items():
            assert ph(*ab) is image
    assert calls == {ab: 1 for ab in pairs_up_to(1, 2)}
    plain = phi_lambda(SpdeConfig(1, (1, 2)))
    assert all(first[ab] == plain(*ab) for ab in pairs_up_to(1, 2))
    with pytest.raises(ValueError, match="edge label"):
        ph(STAR, mi(0, 0))
    assert (STAR, mi(0, 0)) not in calls


def test_one_config_gives_the_closed_form_and_its_noise_extension():
    cfg = SpdeConfig(0, (1,))
    assert not phi_lambda(cfg).edge_basis.contains(XI)
    ph = noise_extend(cfg)
    assert ph.edge_basis.contains(XI) and ph.vertex_basis.contains(STAR)
    assert ph(XI, mi(1)) == LinComb.of((XI, mi(1)))


def test_config_validation():
    with pytest.raises(ValueError):
        SpdeConfig(1, (1,))
    with pytest.raises(ValueError):
        SpdeConfig(-1, ())


# ---------------------------------------------------------------------------
# Generator actions


def test_generator_actions_raise_and_lower():
    _, psi = spde_psi(1)
    assert psi.vertex("X_1", mi(0, 2)) == LinComb.of(mi(0, 3))
    assert psi.edge("X_0", mi(0, 5)).is_zero
    assert psi.edge("X_1", mi(0, 5)) == LinComb.of(mi(0, 4))


def test_generator_actions_kill_noise_symbols():
    _, psi = spde_psi(1)
    assert psi.edge("X_0", XI).is_zero
    assert psi.vertex("X_1", STAR).is_zero


def test_generator_base_is_trivial():
    P, _ = spde_psi(2)
    assert P.names == ("X_0", "X_1", "X_2")
    for p in P.names:
        for q in P.names:
            assert P.bracket_of(p, q).is_zero
            assert P.triangle_of(p, q).is_zero


def test_actions_compatible_at_unit_coefficients():
    cfg = SpdeConfig(1, (1, 1))
    P, psi = spde_psi(cfg.d)
    rng = range(3)
    labels = [MultiIndex(t) for t in product(rng, repeat=2)]
    assert psi_compat_defects(phi_lambda(cfg), P, psi, labels, labels) == []


def test_actions_compatible_with_noise_symbols():
    cfg = SpdeConfig(0, (1,))
    P, psi = spde_psi(cfg.d)
    edge_labels = [mi(0), mi(1), mi(2), XI]
    vertex_labels = [mi(0), mi(1), mi(2), STAR]
    assert psi_compat_defects(noise_extend(cfg), P, psi, edge_labels, vertex_labels) == []


def test_actions_incompatible_away_from_unit_coefficients():
    cfg = SpdeConfig(0, (2,))
    P, psi = spde_psi(cfg.d)
    labels = [mi(0), mi(1), mi(2)]
    defects = psi_compat_defects(phi_lambda(cfg), P, psi, labels, labels)
    assert defects and all(d.condition == "map-intertwining" for d in defects)


def test_broken_edge_action_breaks_the_associator_axiom():
    # Clamping instead of vanishing at the boundary is a genuine mutation:
    # the intertwining condition fails, and so does the third axiom.
    cfg = SpdeConfig(0, (1,))
    P, psi = spde_psi(cfg.d)

    def clamped_edge(gen, a):
        lowered = a.sub(mi_unit(0, 0))
        return LinComb.of(a if lowered is None else lowered)

    broken = PsiPair(clamped_edge, psi.vertex)
    labels = [mi(0), mi(1)]
    conditions = {d.condition for d in psi_compat_defects(phi_lambda(cfg), P, broken, labels, labels)}
    assert conditions == {"map-intertwining"}

    u = LinComb.of("X_0")
    v = LinComb.of(PlantedTree(mi(0), leaf(mi(0))))
    defects = postlie_axiom_defects(phi_lambda(cfg), P, broken, u, v, v)
    assert not defects.associator.is_zero


def test_axioms_hold_on_sample_extension_triples():
    cfg = SpdeConfig(1, (1, 1))
    P, psi = spde_psi(cfg.d)
    ph = noise_extend(cfg)
    elems = [
        LinComb.of("X_0"),
        LinComb.of("X_1"),
        LinComb.of(PlantedTree(mi(1, 0), leaf(mi(0, 1)))),
        LinComb.of(PlantedTree(XI, leaf(STAR))),
        LinComb.of(PlantedTree(mi(0, 1), node(mi(1, 1), [(XI, leaf(STAR))]))),
        LinComb.of("X_0") + LinComb.of(PlantedTree(mi(1, 1), leaf(STAR))),
    ]
    for u in elems:
        for v in elems:
            for w in elems:
                assert postlie_axiom_defects(ph, P, psi, u, v, w).all_zero


# ---------------------------------------------------------------------------
# Transcribed displays


def test_generator_bumps_each_vertex_of_a_planted_tree():
    cfg = SpdeConfig(1, (1, 1))
    P, psi = spde_psi(cfg.d)
    ph = phi_lambda(cfg)
    a, a1, a2, a3 = mi(1, 1), mi(1, 0), mi(0, 1), mi(2, 0)
    b1, b2, b3, b4 = mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 2)

    def tree(r1, r2, r3, r4):
        return PlantedTree(
            a, node(r1, [(a1, node(r2, [(a2, leaf(r3))])), (a3, leaf(r4))])
        )

    e = mi_unit(1, 1)
    got = ext_triangle(ph, P, psi, LinComb.of("X_1"), LinComb.of(tree(b1, b2, b3, b4)))
    expected = (
        LinComb.of(tree(b1.add(e), b2, b3, b4))
        + LinComb.of(tree(b1, b2.add(e), b3, b4))
        + LinComb.of(tree(b1, b2, b3.add(e), b4))
        + LinComb.of(tree(b1, b2, b3, b4.add(e)))
    )
    assert got == expected


def test_bracket_lowers_the_plant_label():
    cfg = SpdeConfig(1, (1, 1))
    P, psi = spde_psi(cfg.d)
    body = node(mi(0, 0), [(mi(1, 0), leaf(mi(1, 0))), (mi(2, 0), leaf(mi(2, 2)))])
    carried = LinComb.of(PlantedTree(mi(1, 1), body))
    got = ext_bracket(P, psi, carried, LinComb.of("X_1"))
    assert got == LinComb.of(PlantedTree(mi(1, 0), body))
    grounded = LinComb.of(PlantedTree(mi(1, 0), body))
    assert ext_bracket(P, psi, grounded, LinComb.of("X_1")).is_zero


def test_generator_skips_noise_vertices():
    cfg = SpdeConfig(1, (1, 1))
    P, psi = spde_psi(cfg.d)
    ph = noise_extend(cfg)
    a1, a2 = mi(1, 0), mi(0, 1)
    b1, b2 = mi(0, 1), mi(2, 0)

    def tree(r1, r2):
        return PlantedTree(a1, node(r1, [(a2, leaf(r2)), (XI, leaf(STAR))]))

    e = mi_unit(0, 1)
    got = ext_triangle(ph, P, psi, LinComb.of("X_0"), LinComb.of(tree(b1, b2)))
    assert got == LinComb.of(tree(b1.add(e), b2)) + LinComb.of(tree(b1, b2.add(e)))


def test_grafting_display_with_binomial_weights():
    # Two-vertex chain onto a three-vertex fork, one lowering direction.
    ph = phi_lambda(SpdeConfig(0, (1,)))
    x = node(mi(2), [(mi(1), leaf(mi(0)))])
    y = node(mi(3), [(mi(2), leaf(mi(1))), (mi(0), leaf(mi(0)))])

    def onto_fork_root(edge, root):
        return node(root, [(mi(2), leaf(mi(1))), (mi(0), leaf(mi(0))), (edge, x)])

    def onto_heavy_leaf(edge, label):
        return node(mi(3), [(mi(2), node(label, [(edge, x)])), (mi(0), leaf(mi(0)))])

    def onto_light_leaf(edge, label):
        return node(mi(3), [(mi(2), leaf(mi(1))), (mi(0), node(label, [(edge, x)]))])

    got = graft_phi(ph, LinComb.of(x), mi(2), LinComb.of(y))
    expected = (
        LinComb.of(onto_heavy_leaf(mi(2), mi(1)))
        + LinComb.of(onto_heavy_leaf(mi(1), mi(0)))
        + LinComb.of(onto_light_leaf(mi(2), mi(0)))
        + LinComb.of(onto_fork_root(mi(2), mi(3)))
        + LinComb.of(onto_fork_root(mi(1), mi(2)), 3)
        + LinComb.of(onto_fork_root(mi(0), mi(1)), 3)
    )
    assert got == expected


def test_grafting_display_with_noise_leaf():
    # Same shape with the noise leaf: the group grafted there disappears.
    ph = noise_extend(SpdeConfig(0, (1,)))
    x = node(mi(0), [(mi(0), leaf(mi(1)))])
    y = node(mi(2), [(mi(0), leaf(mi(1))), (XI, leaf(STAR))])

    def onto_root(edge, root):
        return node(root, [(mi(0), leaf(mi(1))), (XI, leaf(STAR)), (edge, x)])

    def onto_leaf(edge, label):
        return node(mi(2), [(mi(0), node(label, [(edge, x)])), (XI, leaf(STAR))])

    got = graft_phi(ph, LinComb.of(x), mi(1), LinComb.of(y))
    expected = (
        LinComb.of(onto_leaf(mi(1), mi(1)))
        + LinComb.of(onto_leaf(mi(0), mi(0)))
        + LinComb.of(onto_root(mi(1), mi(2)))
        + LinComb.of(onto_root(mi(0), mi(1)), 2)
    )
    assert got == expected


def test_grafting_onto_a_bare_noise_vertex_is_zero():
    ph = noise_extend(SpdeConfig(0, (1,)))
    got = graft_phi(ph, LinComb.of(leaf(mi(1))), mi(1), LinComb.of(leaf(STAR)))
    assert got.is_zero


def test_edge_operator_ladder_display():
    ph = phi_lambda(SpdeConfig(0, (1,)))
    got = theta(ph, LinComb.of(node(mi(3), [(mi(2), leaf(mi(0)))])))
    expected = (
        LinComb.of(node(mi(3), [(mi(2), leaf(mi(0)))]))
        + LinComb.of(node(mi(2), [(mi(1), leaf(mi(0)))]), 3)
        + LinComb.of(node(mi(1), [(mi(0), leaf(mi(0)))]), 3)
    )
    assert got == expected


def test_edge_operator_inverts_at_flipped_sign():
    cfg = SpdeConfig(0, (1,))
    forward = phi_lambda(cfg)
    backward = phi_lambda(cfg.negated())
    samples = [
        leaf(mi(2)),
        node(mi(2), [(mi(1), leaf(mi(2)))]),
        node(mi(1), [(mi(1), leaf(mi(0))), (mi(2), leaf(mi(2)))]),
        node(mi(2), [(mi(2), node(mi(1), [(mi(1), leaf(mi(2)))])), (mi(0), leaf(mi(1)))]),
    ]
    for t in samples:
        x = LinComb.of(t)
        assert theta(backward, theta(forward, x)) == x
        assert theta(forward, theta(backward, x)) == x


# ---------------------------------------------------------------------------
# The noise-generated subalgebra


def adm_cfg():
    return SpdeConfig(1, (1, 1))


def test_admissibility_of_the_generators():
    assert xi_admissible(PlantedTree(XI, leaf(STAR)))
    assert xi_admissible(PlantedTree(mi(1, 0), leaf(STAR)))
    assert xi_admissible(PlantedTree(mi(1, 0), leaf(mi(0, 2))))


def test_admissibility_rejections():
    assert not xi_admissible(PlantedTree(XI, leaf(mi(0, 0))))
    assert not xi_admissible(PlantedTree(XI, node(STAR, [(mi(0, 0), leaf(STAR))])))
    assert not xi_admissible(PlantedTree(mi(0, 0), node(mi(1, 1), [(XI, leaf(mi(0, 0)))])))
    assert not xi_admissible(PlantedTree(mi(0, 0), node(STAR, [(mi(0, 0), leaf(mi(0, 0)))])))


def test_admissibility_accepts_noise_leaves():
    p = PlantedTree(
        mi(1, 0), node(mi(2, 1), [(XI, leaf(STAR)), (mi(0, 1), leaf(mi(1, 1)))])
    )
    assert xi_admissible(p)


def test_admissibility_holds_on_a_noise_free_tree():
    assert xi_admissible(PlantedTree(mi(1, 0), node(mi(2, 1), [(mi(0, 1), leaf(mi(1, 1)))])))


def admissible_pool():
    return [
        PlantedTree(XI, leaf(STAR)),
        PlantedTree(mi(1, 1), leaf(STAR)),
        PlantedTree(mi(2, 0), leaf(mi(1, 2))),
        PlantedTree(mi(1, 0), node(mi(1, 1), [(XI, leaf(STAR))])),
        PlantedTree(mi(0, 1), node(mi(2, 1), [(mi(1, 0), leaf(mi(0, 0)))])),
    ]


def test_products_of_admissible_elements_stay_admissible():
    cfg = adm_cfg()
    ph = noise_extend(cfg)
    pool = admissible_pool()
    for u in pool:
        for w in pool:
            grafted = graft_phi(ph, LinComb.of(u.body), u.plant, LinComb.of(w.body))
            for body, _ in grafted.items():
                assert xi_admissible(PlantedTree(w.plant, body))


def test_probe_accepts_the_generators():
    cfg = adm_cfg()
    assert xi_generation_probe(
        cfg,
        [
            PlantedTree(XI, leaf(STAR)),
            PlantedTree(mi(2, 0), leaf(STAR)),
            PlantedTree(mi(1, 1), leaf(mi(0, 2))),
        ],
    )


def test_probe_builds_the_two_vertex_chain():
    cfg = adm_cfg()
    chain = PlantedTree(mi(1, 1), node(mi(2, 0), [(mi(1, 0), leaf(mi(0, 3)))]))
    assert xi_generation_probe(cfg, [chain])


def test_probe_handles_noise_edges_and_wide_roots():
    cfg = adm_cfg()
    wide = PlantedTree(
        mi(1, 0),
        node(
            mi(2, 2),
            [(XI, leaf(STAR)), (mi(1, 1), leaf(mi(1, 0))), (mi(0, 1), leaf(STAR))],
        ),
    )
    deep = PlantedTree(
        mi(0, 1),
        node(mi(1, 1), [(mi(1, 0), node(mi(1, 2), [(XI, leaf(STAR))]))]),
    )
    assert xi_generation_probe(cfg, [wide, deep])


def test_probe_rejects_inadmissible_targets():
    cfg = adm_cfg()
    with pytest.raises(ValueError):
        xi_generation_probe(cfg, [PlantedTree(XI, leaf(mi(0, 0)))])
