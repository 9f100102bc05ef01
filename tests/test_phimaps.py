import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import pytest

from rtcalc.decorations import Sym, symbols
from rtcalc.lincomb import LinComb
from rtcalc.phimaps import (
    AlreadyJD,
    BlockMatrix,
    Compatible,
    IncompatiblePhi,
    NeedsAlgebraicExtension,
    NonNilpotentError,
    NotCompatible,
    PhiMap,
    Refuted,
    assemble,
    block_matrix,
    blocks_commute,
    build_JD,
    check_compat,
    classify_m2,
    compose,
    direct_sum,
    ensure_usable,
    exp_series,
    from_blocks,
    from_table,
    identity_map,
    polynomial,
    refuted_on,
    tensor_map,
    transpose_map,
    zero_map,
)
import rtcalc.phimaps as phimaps
from rtcalc.ratmat import det, identity, inv2, mat, mat_mul
from rtcalc.spde import SpdeConfig, phi_lambda

from constructions import Pr, mixed_commutation_defect, refuted_on_by_full_scan, tensor_product, to_blocks

E = symbols("E", ["a1", "a2"])
V = symbols("V", ["b1", "b2"])
a1, a2 = E.labels()
b1, b2 = V.labels()


def rand_blocks(rng, m, n, lo=-3, hi=3):
    return block_matrix(
        [
            [[[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)] for _ in range(m)]
            for _ in range(m)
        ]
    )


def pair(a, b, c=1):
    return LinComb.of((a, b), c)


def test_identity_and_zero_are_compatible():
    assert isinstance(check_compat(identity_map(E, V)), Compatible)
    assert isinstance(check_compat(zero_map(E, V)), Compatible)


def test_from_table_validates_labels():
    with pytest.raises(ValueError):
        from_table(E, V, {(a1, Sym("X", "nope")): [(1, a1, b1)]})
    with pytest.raises(ValueError):
        from_table(E, V, {(a1, b1): [(1, Sym("X", "oops"), b1)]})


def test_table_defaults_to_zero():
    phi = from_table(E, V, {(a1, b1): [(2, a2, b2)]})
    assert phi(a2, b2).is_zero
    assert phi(a1, b1) == pair(a2, b2, 2)


def test_defect_detects_noncommuting_slots():
    # Send (a1, b1) to (a2, b2) and stop; acting in the two slot orders on
    # (a1, a1, b1) then differs in which slots got consumed.
    phi = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    d = mixed_commutation_defect(phi, phi, a1, a1, b1)
    assert not d.is_zero
    verdict = check_compat(phi)
    assert isinstance(verdict, Refuted)
    lhs_terms = dict(verdict.lhs.items())
    rhs_terms = dict(verdict.rhs.items())
    assert lhs_terms != rhs_terms


def test_decomposable_maps_are_compatible():
    rng = random.Random(7)

    def rand_endo(labels):
        img = {l: LinComb([(m, rng.randint(-2, 2)) for m in labels]) for l in labels}
        return lambda l: img[l]

    f, g = rand_endo(list(E.labels())), rand_endo(list(V.labels()))
    phi = tensor_map(E, V, f, g)
    assert phi.compat_by_construction
    assert isinstance(check_compat(phi), Compatible)
    # The image is built unsummed; it must equal the term-by-term sum.
    for a in E.labels():
        for b in V.labels():
            image = phi(a, b)
            want = LinComb([((a2, b2), ca * cb) for a2, ca in f(a).items() for b2, cb in g(b).items()])
            assert image == want
            assert all(c for _, c in image.items())


def test_direct_sum_blocks_and_compatibility():
    E2 = symbols("F", ["c1"])
    V2 = symbols("W", ["d1"])
    phi1 = identity_map(E, V)
    phi2 = zero_map(E2, V2)
    s = direct_sum(phi1, phi2, Fraction(1, 2), 3)
    c1, d1 = E2.labels()[0], V2.labels()[0]
    assert s(a1, b1) == pair(a1, b1)
    assert s(c1, d1).is_zero
    assert s(a1, d1) == pair(a1, d1, Fraction(1, 2))
    assert s(c1, b2) == pair(c1, b2, 3)
    assert isinstance(check_compat(s), Compatible)


def test_direct_sum_refuted_when_summand_is():
    bad = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    E2 = symbols("F", ["c1"])
    V2 = symbols("W", ["d1"])
    s = direct_sum(bad, zero_map(E2, V2), 0, 1)
    assert isinstance(check_compat(s), Refuted)


def test_compose_pointwise():
    phi = from_table(E, V, {(a1, b1): [(2, a2, b1)]})
    psi = from_table(E, V, {(a2, b1): [(1, a1, b2)]})
    c = compose(psi, phi)
    assert c(a1, b1) == pair(a1, b2, 2)


def test_mixed_commutation_defect_vanishes_for_identity():
    phi = identity_map(E, V)
    psi = from_table(E, V, {(a1, b1): [(1, a2, b2)]})
    assert mixed_commutation_defect(phi, psi, a1, a1, b1).is_zero


def test_polynomial_powers():
    # Nilpotent shift: (a1,b1) -> (a2,b2) -> 0.
    phi = from_table(E, V, {(a1, b1): [(3, a2, b2)]})
    sq = polynomial(phi, [0, 0, 1])
    assert sq(a1, b1).is_zero  # phi^2 = 0 here
    affine = polynomial(phi, [Fraction(1, 2), 1])
    assert affine(a1, b1) == pair(a1, b1, Fraction(1, 2)) + pair(a2, b2, 3)


def test_exp_series_nilpotent_and_not():
    phi = from_table(E, V, {(a1, b1): [(1, a2, b2)]})
    e = exp_series(phi)
    assert e(a1, b1) == pair(a1, b1) + pair(a2, b2)
    assert e(a2, b2) == pair(a2, b2)
    ident = identity_map(E, V)
    with pytest.raises(NonNilpotentError):
        exp_series(ident, max_iter=8)(a1, b1)


def test_exp_series_max_iter_caps_the_terms():
    # A two-term series: (a1,b1) -> (a2,b2) -> 0.
    table = from_table(E, V, {(a1, b1): [(1, a2, b2)]})
    calls = []
    phi = PhiMap(E, V, lambda a, b: calls.append((a, b)) or table(a, b))
    with pytest.raises(NonNilpotentError, match="still alive after 0 terms"):
        exp_series(phi, max_iter=0)(a1, b1)
    assert calls == []
    with pytest.raises(NonNilpotentError, match="still alive after 1 terms"):
        exp_series(phi, max_iter=1)(a1, b1)
    assert calls == [(a1, b1)]
    assert exp_series(phi, max_iter=2)(a1, b1) == pair(a1, b1) + pair(a2, b2)
    assert calls == [(a1, b1), (a2, b2)]


def test_tensor_product_acts_slotwise():
    phi = from_table(E, V, {(a1, b1): [(2, a2, b1)]})
    psi = identity_map(E, V)
    tp = tensor_product(phi, psi)
    out = tp(Pr(a1, a2), Pr(b1, b2))
    assert out == LinComb.of((Pr(a2, a2), Pr(b1, b2)), 2)
    assert isinstance(check_compat(tensor_product(identity_map(E, V), psi)), Compatible)


def test_transpose_is_matrix_transpose():
    phi = from_table(E, V, {(a1, b1): [(2, a2, b2), (1, a1, b1)]})
    pt = transpose_map(phi)
    assert pt(a2, b2) == pair(a1, b1, 2)
    assert pt(a1, b1) == pair(a1, b1)
    assert pt(a2, b1).is_zero


def test_ensure_usable_raises_on_refuted():
    bad = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    with pytest.raises(IncompatiblePhi):
        ensure_usable(bad, ())
    ensure_usable(identity_map(E, V), ())


def first_defect(phi, edge_labels, vertex_labels):
    """The first triple, in scan order, with a nonzero slot-action defect,
    and the defect there; (None, None) when there is none."""
    for a in edge_labels:
        for a2 in edge_labels:
            for b in vertex_labels:
                d = mixed_commutation_defect(phi, phi, a, a2, b)
                if d:
                    return (a, a2, b), d
    return None, None


def assert_scan_matches_the_slot_oracle(phi, edge_labels, vertex_labels):
    """``refuted_on`` against the slot-action oracle on the scan of each
    triple, the triple's two edge labels in its order: the same first
    witness, and lhs - rhs equal to the oracle's defect there.  Returns the
    verdicts seen, True for a refutation."""
    seen = set()
    for a in edge_labels:
        for a2 in edge_labels:
            for b in vertex_labels:
                es = (a,) if a == a2 else (a, a2)
                bad = refuted_on(phi, es, (b,))
                witness, defect = first_defect(phi, es, (b,))
                if bad is None:
                    assert witness is None
                else:
                    assert bad.witness == witness
                    assert bad.lhs - bad.rhs == defect
                seen.add(bad is not None)
    return seen


def test_the_scan_agrees_with_the_slot_action_oracle():
    rng = random.Random(2401)
    pairs = [(a, b) for a in E.labels() for b in V.labels()]
    seen = set()
    for _ in range(40):
        table = {
            ab: [(rng.randint(-2, 2), *rng.choice(pairs)) for _ in range(rng.randint(0, 2))]
            for ab in rng.sample(pairs, rng.randint(1, 4))
        }
        seen |= assert_scan_matches_the_slot_oracle(from_table(E, V, table), E.labels(), V.labels())
    assert seen == {True, False}
    lam = phi_lambda(SpdeConfig(1, (1, Fraction(1, 2))))
    mu = phi_lambda(SpdeConfig(1, (-2, 3)))
    phi = compose(lam, mu)
    labels = phi.edge_basis.labels_up_to(2)
    assert assert_scan_matches_the_slot_oracle(phi, labels, labels) == {False}
    assert refuted_on(phi, labels, labels) is None
    assert first_defect(phi, labels, labels) == (None, None)


def assert_same_verdict(phi, edge_labels, vertex_labels):
    """``refuted_on`` and the full scan: the same triple, lhs and rhs, or
    both None.  Returns True for a refutation."""
    got = refuted_on(phi, edge_labels, vertex_labels)
    want = refuted_on_by_full_scan(phi, edge_labels, vertex_labels)
    if want is None:
        assert got is None
        return False
    assert (got.witness, got.lhs, got.rhs) == (want.witness, want.lhs, want.rhs)
    return True


def test_the_half_scan_finds_the_full_scan_witness():
    E3 = symbols("E", ["a1", "a2", "a3"])
    rng = random.Random(2501)
    pairs = [(a, b) for a in E3.labels() for b in V.labels()]
    seen, diagonal = set(), 0
    for _ in range(200):
        table = {
            ab: [(rng.randint(-2, 2), *rng.choice(pairs)) for _ in range(rng.randint(0, 2))]
            for ab in rng.sample(pairs, rng.randint(1, 5))
        }
        phi = from_table(E3, V, table)
        for es in (E3.labels(), E3.labels()[::-1]):
            seen.add(assert_same_verdict(phi, es, V.labels()))
        bad = refuted_on(phi, E3.labels(), V.labels())
        diagonal += bad is not None and bad.witness[0] == bad.witness[1]
    assert seen == {True, False} and diagonal > 0
    phi = compose(phi_lambda(SpdeConfig(1, (1, Fraction(1, 2)))), phi_lambda(SpdeConfig(1, (-2, 3))))
    labels = phi.edge_basis.labels_up_to(2)
    assert assert_same_verdict(phi, labels, labels) is False


class Untouched:
    """An iterator of trees that fails the test if anything advances it."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("the guard walked a tree")


def test_flagged_and_finite_maps_walk_no_tree():
    lam = phi_lambda(SpdeConfig(0, (1,)))
    flagged = [identity_map(E, V), lam, dataclasses.replace(compose(lam, lam), compat_by_construction=True)]
    for phi in flagged + [from_table(E, V, {(a1, b1): [(2, a1, b1)]})]:
        ensure_usable(phi, Untouched())
    bad = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    with pytest.raises(IncompatiblePhi):
        ensure_usable(bad, Untouched())


# --- block bridge -----------------------------------------------------------


def test_block_roundtrip():
    rng = random.Random(3)
    M = rand_blocks(rng, 2, 2)
    phi = from_blocks(M)
    assert to_blocks(phi) == M


def poly_block_family(rng, m, n):
    """Blocks that are random polynomials in one fixed matrix: they commute."""
    N = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    blocks = []
    for _ in range(m):
        row = []
        for _ in range(m):
            c0, c1 = rng.randint(-2, 2), rng.randint(-2, 2)
            blk = [
                [c0 * (1 if i == j else 0) + c1 * N[i][j] for j in range(n)]
                for i in range(n)
            ]
            row.append(mat(blk))
        blocks.append(tuple(row))
    return BlockMatrix(m, n, tuple(blocks))


def test_blocks_commute_matches_check_compat():
    rng = random.Random(11)
    seen_both = set()
    for k in range(60):
        M = rand_blocks(rng, 2, 2, -2, 2) if k % 2 else poly_block_family(rng, 2, 2)
        agree = blocks_commute(M)
        verdict = check_compat(from_blocks(M))
        assert agree == isinstance(verdict, Compatible)
        seen_both.add(agree)
    assert seen_both == {True, False}


def test_build_JD_forms_commute():
    A = [[1, 2], [0, 3]]
    B = [[4, 1], [2, 2]]
    for form in ("J", "D"):
        M = build_JD(A, B, form)
        assert blocks_commute(M)
        assert isinstance(check_compat(from_blocks(M)), Compatible)


def test_det_identities_for_cells():
    rng = random.Random(5)
    for _ in range(10):
        m = rng.choice([2, 3])
        A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        dj = det(assemble(build_JD(A, B, "J")))
        dd = det(assemble(build_JD(A, B, "D")))
        assert dj == det(mat(A)) ** 2
        assert dd == det(mat(A)) * det(mat(B))


def test_classify_scalar_blocks():
    M = block_matrix([[[[2, 0], [0, 2]], [[5, 0], [0, 5]]], [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]])
    res = classify_m2(M)
    assert isinstance(res, AlreadyJD)
    assert res.form == "J"
    assert res.b == ((0, 0), (0, 0))
    assert res.basis_change == identity(2)
    assert res.a == ((2, 5), (0, 1))


def test_classify_diagonal_blocks():
    M = block_matrix([[[[1, 0], [0, 2]]]])
    res = classify_m2(M)
    assert isinstance(res, AlreadyJD)
    assert res.form == "D"
    assert res.basis_change == identity(2)


def test_classify_conjugated_d_form():
    # Conjugate a D-family by an invertible P and expect recovery.
    P = mat([[1, 1], [1, 2]])
    Pi = inv2(P)
    cells = [[(1, 2), (3, 3)], [(0, 1), (2, 5)]]
    grid = [
        [mat_mul(P, mat_mul(mat([[a, 0], [0, b]]), Pi)) for (a, b) in row] for row in cells
    ]
    M = BlockMatrix(2, 2, tuple(tuple(row) for row in grid))
    res = classify_m2(M)
    assert isinstance(res, AlreadyJD)
    assert res.form == "D"
    Q = res.basis_change
    Qi = inv2(Q)
    for i in range(2):
        for j in range(2):
            conj = mat_mul(Qi, mat_mul(M.blocks[i][j], Q))
            assert conj[0][1] == 0 and conj[1][0] == 0
            assert (conj[0][0], conj[1][1]) == (res.a[i][j], res.b[i][j])


def test_classify_conjugated_j_form():
    P = mat([[2, 1], [1, 1]])
    Pi = inv2(P)
    cells = [[(1, 2)], [(0, 0)]]  # single column so make a 1x1 grid instead
    M = BlockMatrix(
        1, 2, ((mat_mul(P, mat_mul(mat([[3, 1], [0, 3]]), Pi)),),)
    )
    res = classify_m2(M)
    assert isinstance(res, AlreadyJD)
    assert res.form == "J"
    Q = res.basis_change
    conj = mat_mul(inv2(Q), mat_mul(M.blocks[0][0], Q))
    assert conj == mat([[3, res.b[0][0]], [0, 3]])


def test_classify_noncommuting():
    M = block_matrix([[[[0, 1], [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]])
    res = classify_m2(M)
    assert isinstance(res, NotCompatible)


def test_classify_needs_extension():
    # Rotation-like block: eigenvalues are irrational.
    M = block_matrix([[[[0, 2], [1, 0]]]])
    res = classify_m2(M)
    assert isinstance(res, NeedsAlgebraicExtension)
    assert res.block == (0, 0)


def test_assemble_convention():
    M = block_matrix([[[[1, 2], [3, 4]], [[5, 6], [7, 8]]], [[[0, 0], [0, 0]], [[9, 0], [0, 9]]]])
    full = assemble(M)
    assert full[0][2] == 5  # block (0,1), entry (0,0)
    assert full[3][3] == 9


# --- caching policy ---------------------------------------------------------


def counting(action):
    calls = {}

    def counted(a, b):
        calls[(a, b)] = calls.get((a, b), 0) + 1
        return action(a, b)

    return counted, calls


def test_table_map_runs_its_action_once_per_pair():
    phi = from_table(E, V, {(a1, b1): [(2, a2, b2), (1, a1, b1)], (a2, b2): [(3, a1, b2)]})
    counted, calls = counting(phi.action)
    phi = dataclasses.replace(phi, action=counted)
    first = {(a, b): phi(a, b) for a in E.labels() for b in V.labels()}
    for _ in range(3):
        for (a, b), image in first.items():
            assert phi(a, b) is image
    assert calls == {ab: 1 for ab in first}
    assert first[(a1, b1)] == pair(a2, b2, 2) + pair(a1, b1)


def test_replace_starts_an_empty_memo():
    phi = from_table(E, V, {(a1, b1): [(1, a2, b2)]})
    phi(a1, b1)
    counted, calls = counting(phi.action)
    fresh = dataclasses.replace(phi, action=counted)
    assert fresh(a1, b1) == phi(a1, b1)
    assert calls == {(a1, b1): 1}


def test_label_outside_the_basis_raises_every_time_and_is_not_stored():
    counted, calls = counting(identity_map(E, V).action)
    phi = PhiMap(E, V, counted)
    stray = Sym("E", "a3")
    for _ in range(3):
        with pytest.raises(ValueError, match="edge label a3"):
            phi(stray, b1)
        with pytest.raises(ValueError, match="vertex label a1"):
            phi(a1, a1)
    assert calls == {}
    assert phi(a1, b1) == pair(a1, b1)
    assert calls == {(a1, b1): 1}


def test_finite_verdict_is_computed_once(monkeypatch):
    scans = []
    real = phimaps.refuted_on

    def counted(*args):
        scans.append(args[0])
        return real(*args)

    monkeypatch.setattr(phimaps, "refuted_on", counted)
    bad = from_table(E, V, {(a1, b1): [(1, a2, b2)], (a1, b2): [(1, a1, b1)]})
    for _ in range(3):
        with pytest.raises(IncompatiblePhi):
            ensure_usable(bad, ())
    assert isinstance(check_compat(bad), Refuted)
    assert len(scans) == 1
    good = from_table(E, V, {(a1, b1): [(2, a1, b1)]})
    assert isinstance(check_compat(good), Compatible)
    ensure_usable(good, ())
    assert len(scans) == 2


def test_guarded_map_is_freed_when_dropped():
    phi = from_table(E, V, {(a1, b1): [(3, a1, b1)]})
    ensure_usable(phi, ())
    phi(a1, b1)
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None
