import random
from fractions import Fraction
from itertools import product

import pytest

from forest_oracles import (
    bilinear_by_scaling,
    ext_bracket_by_scaling,
    ext_triangle_by_scaling,
    vertex_action_by_address,
    vertex_action_on_tree,
)
from rtcalc.decorations import mi, symbols
from rtcalc.lincomb import LinComb
from rtcalc.phimaps import build_JD, default_block_bases, from_blocks, identity_map, tensor_map
from rtcalc.postlie import (
    PsiPair,
    _vertex_action_on_tree,
    ext_bracket,
    ext_triangle,
    postlie_axiom_defects,
    postlie_base,
    psi_compat_defects,
    render_ext,
)
from rtcalc.trees import PlantedTree, leaf, node
from rtcalc.verify import planted_up_to

E = symbols("E", ["a1", "a2", "a3"])
V = symbols("V", ["b1", "b2", "b3"])
a1, a2, a3 = E.labels()
b1, b2, b3 = V.labels()

ID = identity_map(E, V)


def zero_psi():
    return PsiPair(edge=lambda p, a: LinComb(), vertex=lambda p, b: LinComb())


# ---------------------------------------------------------------------------
# PostLieBase validation


def test_trivial_base_accepts():
    P = postlie_base(["p", "q"])
    assert P.bracket_of("p", "q").is_zero
    assert P.triangle_of("p", "q").is_zero


def test_solvable_bracket_accepts():
    P = postlie_base(
        ["p", "q"],
        bracket_consts={("p", "q"): [(1, "q")], ("q", "p"): [(-1, "q")]},
    )
    assert P.bracket_of("p", "q") == LinComb.of("q")


def test_non_antisymmetric_rejected():
    with pytest.raises(ValueError, match="antisymmetric"):
        postlie_base(["p", "q"], bracket_consts={("p", "q"): [(1, "q")]})


def test_bad_triangle_rejected():
    with pytest.raises(ValueError, match="associator"):
        postlie_base(["p", "q"], triangle_consts={("p", "q"): [(1, "p")]})


def test_unknown_generator_rejected():
    with pytest.raises(ValueError, match="unknown"):
        postlie_base(["p"], bracket_consts={("p", "r"): [(1, "p")]})


# ---------------------------------------------------------------------------
# Extension products


def vertex_bump_psi():
    # Every generator acts the same way: labels cycle by one step.
    etab = {a: LinComb.of(E.labels()[(i + 1) % 3]) for i, a in enumerate(E.labels())}
    vtab = {b: LinComb.of(V.labels()[(i + 1) % 3]) for i, b in enumerate(V.labels())}
    return PsiPair(edge=lambda p, a: etab[a], vertex=lambda p, b: vtab[b])


def test_generator_acts_vertex_by_vertex():
    # The cherry with three decorated vertices: one relabel per vertex.
    P = postlie_base(["p"])
    psi = vertex_bump_psi()
    x = PlantedTree(a1, node(b1, [(a2, leaf(b2)), (a3, leaf(b3))]))
    got = ext_triangle(ID, P, psi, LinComb.of("p"), LinComb.of(x))
    want = (
        LinComb.of(PlantedTree(a1, node(b2, [(a2, leaf(b2)), (a3, leaf(b3))])))
        + LinComb.of(PlantedTree(a1, node(b1, [(a2, leaf(b3)), (a3, leaf(b3))])))
        + LinComb.of(PlantedTree(a1, node(b1, [(a2, leaf(b2)), (a3, leaf(b1))])))
    )
    assert got == want


def test_planted_triangle_generator_vanishes():
    P = postlie_base(["p"])
    psi = vertex_bump_psi()
    x = LinComb.of(PlantedTree(a1, leaf(b1)))
    assert ext_triangle(ID, P, psi, x, LinComb.of("p")).is_zero


def test_generator_triangle_generator_uses_constants():
    P = postlie_base(
        ["p", "q"],
        triangle_consts={("p", "p"): [(1, "q")]},
    )
    got = ext_triangle(ID, P, zero_psi(), LinComb.of("p"), LinComb.of("p"))
    assert got == LinComb.of("q")


def test_bracket_acts_on_plant_label():
    P = postlie_base(["p"])
    psi = vertex_bump_psi()
    x = PlantedTree(a1, node(b1, [(a2, leaf(b2))]))
    got = ext_bracket(P, psi, LinComb.of(x), LinComb.of("p"))
    assert got == LinComb.of(PlantedTree(a2, node(b1, [(a2, leaf(b2))])))
    flipped = ext_bracket(P, psi, LinComb.of("p"), LinComb.of(x))
    assert flipped == -got


def test_bracket_between_planted_vanishes():
    P = postlie_base(["p"])
    psi = vertex_bump_psi()
    x = LinComb.of(PlantedTree(a1, leaf(b1)))
    y = LinComb.of(PlantedTree(a2, leaf(b2)))
    assert ext_bracket(P, psi, x, y).is_zero


def test_bracket_antisymmetric_on_mixed_elements():
    P = postlie_base(
        ["p", "q"],
        bracket_consts={("p", "q"): [(1, "q")], ("q", "p"): [(-1, "q")]},
    )
    psi = vertex_bump_psi()
    u = LinComb.of(PlantedTree(a1, leaf(b1))) + LinComb.of("p", 2) + LinComb.of("q", -1)
    assert ext_bracket(P, psi, u, u).is_zero


def test_ext_elem_arithmetic():
    u = LinComb.of("p") + LinComb.of(PlantedTree(a1, leaf(b1)))
    v = u - u
    assert v.is_zero
    w = Fraction(1, 2) * u
    assert w.coeff("p") == Fraction(1, 2)
    assert w.coeff(PlantedTree(a1, leaf(b1))) == Fraction(1, 2)


def test_render_ext_prints_the_planted_part_then_the_generators():
    planted = PlantedTree(mi(1), leaf(mi(0)))
    mixed = LinComb.of("X_0", -1) + LinComb.of(planted) + LinComb.of("X_1", -2)
    assert render_ext(mixed) == "[<1>](<0>) + -X_0 - 2*X_1"
    assert render_ext(LinComb.of(planted, Fraction(-1, 2))) == "-1/2*[<1>](<0>)"
    assert render_ext(LinComb.of("X_1", 3)) == "3*X_1"
    assert render_ext(mixed - mixed) == "0"


# ---------------------------------------------------------------------------
# Compatibility of the actions with phi


def swap_shift_phi():
    # Decomposable: edges swap a1/a2 (a3 fixed), vertices step down once
    # (b2 -> b1, b3 -> b2, b1 -> 0), so the vertex factor is nilpotent.
    def f(a):
        return LinComb.of({a1: a2, a2: a1, a3: a3}[a])

    def g(b):
        return LinComb() if b == b1 else LinComb.of(V.labels()[V.labels().index(b) - 1])

    return tensor_map(E, V, f, g)


def diagonal_psi(mu):
    # Edge action mu * id; vertex action kills b1 and scales b2, 2*b3 by mu.
    def edge(p, a):
        return LinComb.of(a, mu)

    def vertex(p, b):
        if b == b1:
            return LinComb()
        if b == b2:
            return LinComb.of(b2, mu)
        return LinComb.of(b3, 2 * mu)

    return PsiPair(edge=edge, vertex=vertex)


def test_psi_compat_holds_for_scaling_family():
    # The vertex action satisfies [lower, action] = mu * lower on the
    # chain b3 -> b2 -> b1 -> 0, matching the edge action mu * id.
    P = postlie_base(["p"])
    psi = diagonal_psi(Fraction(1))
    defects = psi_compat_defects(swap_shift_phi(), P, psi, E.labels(), V.labels())
    assert defects == []


def test_psi_compat_flags_noncommuting_vertex_actions():
    P = postlie_base(["p", "q"])
    vmats = {
        "p": {b1: LinComb(), b2: LinComb.of(b2), b3: LinComb.of(b3, 2)},
        "q": {b1: LinComb.of(b2), b2: LinComb.of(b1), b3: LinComb.of(b3)},
    }
    psi = PsiPair(edge=lambda p, a: LinComb(), vertex=lambda p, b: vmats[p][b])
    defects = psi_compat_defects(ID, P, psi, E.labels(), V.labels())
    kinds = {d.condition for d in defects}
    assert "vertex-action-bracket" in kinds


def test_psi_compat_flags_broken_intertwining():
    P = postlie_base(["p"])
    psi = diagonal_psi(Fraction(1))
    defects = psi_compat_defects(ID, P, psi, E.labels(), V.labels())
    kinds = {d.condition for d in defects}
    assert "map-intertwining" in kinds


def test_psi_compat_triangle_condition():
    P = postlie_base(
        ["p", "q"],
        bracket_consts={("p", "q"): [(1, "q")], ("q", "p"): [(-1, "q")]},
    )
    # The edge action of q must vanish for the bracket condition to have
    # a chance; give it a nonzero action instead and watch it fail.
    psi = PsiPair(
        edge=lambda p, a: LinComb.of(a) if p == "q" else LinComb(),
        vertex=lambda p, b: LinComb(),
    )
    defects = psi_compat_defects(ID, P, psi, E.labels(), V.labels())
    assert any(d.condition == "edge-action-bracket" for d in defects)


# ---------------------------------------------------------------------------
# The axioms on the extension


def small_elements(P, elabels, vlabels, max_vertices=2):
    bodies = [leaf(b) for b in vlabels]
    if max_vertices >= 2:
        bodies += [
            node(b, [(a, leaf(b2))])
            for b in vlabels
            for a in elabels
            for b2 in vlabels
        ]
    out = [LinComb.of(g) for g in P.names]
    out += [LinComb.of(PlantedTree(a, t)) for a in elabels for t in bodies]
    return out


def test_axioms_hold_for_compliant_actions():
    E2 = symbols("E", ["a1", "a2"])
    V2 = symbols("V", ["b1", "b2"])
    ea, eb = E2.labels()
    va, vb = V2.labels()

    def f(a):
        return LinComb.of(eb if a == ea else ea)

    def g(b):
        return LinComb.of(va) if b == vb else LinComb()

    phi = tensor_map(E2, V2, f, g)

    def edge(p, a):
        return LinComb.of(a) if p == "p1" else LinComb.of(a, 2)

    def vertex(p, b):
        mu = 1 if p == "p1" else 2
        return LinComb.of(vb, mu) if b == vb else LinComb()

    P = postlie_base(["p1", "p2"])
    psi = PsiPair(edge=edge, vertex=vertex)
    assert psi_compat_defects(phi, P, psi, E2.labels(), V2.labels()) == []

    pool = small_elements(P, E2.labels(), V2.labels())
    for u, v, w in product(pool, repeat=3):
        d = postlie_axiom_defects(phi, P, psi, u, v, w)
        assert d.all_zero, (render_ext(u), render_ext(v), render_ext(w))


def test_axioms_fail_for_mutant_actions():
    E2 = symbols("E", ["a1", "a2"])
    V2 = symbols("V", ["b1", "b2"])
    ea, eb = E2.labels()
    va, vb = V2.labels()

    def f(a):
        return LinComb.of(eb if a == ea else ea)

    def g(b):
        return LinComb.of(va) if b == vb else LinComb()

    phi = tensor_map(E2, V2, f, g)

    def edge(p, a):
        return LinComb.of(a) if p == "p1" else LinComb.of(a, 2)

    def vertex(p, b):
        if p == "p1":
            return LinComb.of(vb) if b == vb else LinComb()
        # Mutant: the second action swaps the vertex labels and does not
        # commute with the first, so the extension cannot be post-Lie.
        return LinComb.of(va) if b == vb else LinComb.of(vb)

    P = postlie_base(["p1", "p2"])
    psi = PsiPair(edge=edge, vertex=vertex)
    assert psi_compat_defects(phi, P, psi, E2.labels(), V2.labels()) != []

    pool = small_elements(P, E2.labels(), V2.labels())
    witness = None
    for u, v, w in product(pool, repeat=3):
        d = postlie_axiom_defects(phi, P, psi, u, v, w)
        if not d.all_zero:
            witness = (u, v, w)
            break
    assert witness is not None


def test_planted_triples_reduce_to_pre_lie():
    P = postlie_base(["p"])
    psi = zero_psi()
    u = LinComb.of(PlantedTree(a1, leaf(b1)))
    v = LinComb.of(PlantedTree(a2, leaf(b2)))
    w = LinComb.of(PlantedTree(a3, node(b3, [(a1, leaf(b1))])))
    d = postlie_axiom_defects(ID, P, psi, u, v, w)
    assert d.jacobi.is_zero
    assert d.derivation.is_zero
    assert d.associator.is_zero


def seeded_vertex_psi(seed):
    """A seeded vertex action on V with fractional, zero and multi-term
    images, different for each of two generators."""
    rng = random.Random(seed)
    vtab = {
        (p, b): LinComb((b2, Fraction(rng.randint(-2, 2), rng.randint(1, 3))) for b2 in V.labels() if rng.random() < 0.6)
        for p in ("p", "q")
        for b in V.labels()
    }
    return PsiPair(edge=lambda p, a: LinComb(), vertex=lambda p, b: vtab[(p, b)])


@pytest.mark.parametrize("psi", [vertex_bump_psi(), seeded_vertex_psi(53)], ids=["bump", "seeded"])
def test_vertex_action_matches_the_sites_relabelling(psi):
    # Relabelling one vertex re-sorts its siblings and every level above,
    # so trees with equal-shaped siblings are the ones that test this.
    pool = planted_up_to(4, E.labels()[:2], V.labels())
    assert len(pool) == 4068
    for p in ("p", "q"):
        for t in pool:
            assert _vertex_action_on_tree(psi, p, t) == vertex_action_on_tree(psi, p, t)


@pytest.mark.parametrize("psi", [vertex_bump_psi(), seeded_vertex_psi(59)], ids=["bump", "seeded"])
def test_vertex_action_matches_relabelling_one_address_at_a_time(psi):
    # Bodies with up to four vertices and plants from a2, a3, so the pool
    # differs from the one above; runs of equal siblings take the
    # multiplicity path of the vertex sum.
    pool = planted_up_to(4, E.labels()[1:], V.labels())
    for p in ("p", "q"):
        for t in pool:
            assert _vertex_action_on_tree(psi, p, t) == vertex_action_by_address(psi, p, t)


# ---------------------------------------------------------------------------
# Multilinear sums against the scale-then-add forms they replaced


def test_extension_products_match_their_scaled_sums():
    rng = random.Random(20)
    frac = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    BE, BV = default_block_bases(2, 2)
    phi = from_blocks(build_JD(*([[frac() for _ in range(2)] for _ in range(2)] for _ in range(2)), "D"), BE, BV)
    P = postlie_base(
        ["p", "q"],
        bracket_consts={("p", "q"): [(1, "q")], ("q", "p"): [(-1, "q")]},
        triangle_consts={("p", "q"): [(Fraction(1, 2), "q")]},
    )
    etab = {(g, a): LinComb((rng.choice(BE.labels()), frac()) for _ in range(2)) for g in P.names for a in BE.labels()}
    vtab = {(g, b): LinComb((rng.choice(BV.labels()), frac()) for _ in range(2)) for g in P.names for b in BV.labels()}
    psi = PsiPair(edge=lambda g, a: etab[g, a], vertex=lambda g, b: vtab[g, b])
    basis = small_elements(P, BE.labels(), BV.labels())
    assert len(basis) == 2 + 2 * (2 + 8)
    for u in basis:
        for w in basis:
            assert ext_triangle(phi, P, psi, u, w) == ext_triangle_by_scaling(phi, P, psi, u, w)
            assert ext_bracket(P, psi, u, w) == ext_bracket_by_scaling(P, psi, u, w)
    # Multi-term fractional elements meet on common output terms.
    planted = planted_up_to(2, BE.labels(), BV.labels())
    for _ in range(20):
        x, y = (LinComb((rng.choice(P.names), frac()) for _ in range(3)) for _ in range(2))
        assert P.bracket_lin(x, y) == bilinear_by_scaling(P.bracket_of, x, y)
        assert P.triangle_lin(x, y) == bilinear_by_scaling(P.triangle_of, x, y)
        u, w = (LinComb((rng.choice(planted), frac()) for _ in range(3)) + z for z in (x, y))
        assert ext_triangle(phi, P, psi, u, w) == ext_triangle_by_scaling(phi, P, psi, u, w)
        assert ext_bracket(P, psi, u, w) == ext_bracket_by_scaling(P, psi, u, w)
