"""Acceptance battery: one test per shipped guarantee, printed as a line each.

Every check is exact (rational equality, no tolerances).  Run with -s to
see the pass lines; the test names number the guarantees 01 to 11.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from rtcalc.cli import main as cli_main
from rtcalc.decorations import (
    STAR,
    XI,
    MultiIndex,
    lambda_pow,
    mi,
    mi_unit,
    symbols,
)
from rtcalc.hopf import (
    cut_coproduct,
    delta_pairing,
    deshuffle,
    forest_elem,
    hopf_pairing_defects,
    star_product,
)
from rtcalc.lincomb import LinComb
from rtcalc.phimaps import (
    BlockMatrix,
    Compatible,
    block_matrix,
    blocks_commute,
    build_JD,
    check_compat,
    default_block_bases,
    from_blocks,
    from_table,
)
from rtcalc.postlie import (
    ext_bracket,
    ext_triangle,
    postlie_axiom_defects,
    psi_compat_defects,
)
from rtcalc.prelie import (
    graft_free,
    graft_phi,
    multiple_prelie_defect,
    nap_coproduct,
    nap_eigen_defect,
    planted_graft,
    theta,
)
from rtcalc.ratmat import nullspace
from rtcalc.spde import SpdeConfig, noise_extend, partial_lambda, phi_lambda, phi_lambda_via_exp, spde_psi, xi_admissible, xi_generation_probe
from rtcalc.trees import EMPTY_FOREST, PlantedTree, forest, forest_mul, leaf, node
from rtcalc.verify import forests_up_to, planted_up_to, trees_up_to


def report(num, detail):
    print(f"ACCEPTANCE {num:02d} PASS: {detail}")


def rand_rat(rng, top=2, den=3):
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def rand_mat(rng, n):
    return [[rand_rat(rng) for _ in range(n)] for _ in range(n)]


def mi_labels(d, bound):
    return [MultiIndex(t) for t in iproduct(range(bound + 1), repeat=d + 1)]


def apply_pair(phi, comb):
    return comb.map_terms(lambda ab: phi(*ab))


def random_table(rng, E, V):
    table = {}
    for a in E.labels():
        for b in V.labels():
            if rng.random() < 0.25:
                continue
            table[(a, b)] = [
                (Fraction(rng.randint(1, 3)), rng.choice(E.labels()), rng.choice(V.labels()))
                for _ in range(rng.randint(1, 2))
            ]
    return from_table(E, V, table)


def random_jd(rng, m, form):
    return build_JD(rand_mat(rng, m), rand_mat(rng, m), form)


# ---------------------------------------------------------------------------


def test_criterion_01_compat_verdict_matches_grafting_relation():
    t0 = time.monotonic()
    rng = random.Random(2101)
    E, V = default_block_bases(2, 2)
    elabels, vlabels = E.labels(), V.labels()
    singles = [LinComb.of(leaf(b)) for b in vlabels]
    n_compatible = n_refuted = 0
    for i in range(50):
        if i % 2 == 0:
            phi = from_blocks(random_jd(rng, 2, "J" if i % 4 == 0 else "D"), E, V)
        else:
            phi = random_table(rng, E, V)

        def product(x, lab, y, phi=phi):
            return graft_phi(phi, x, lab, y)

        defect_free = all(
            multiple_prelie_defect(product, a, a2, x, y, z).is_zero
            for a in elabels
            for a2 in elabels
            for x in singles
            for y in singles
            for z in singles
        )
        assert isinstance(check_compat(phi), Compatible) == defect_free, f"map {i}"
        if defect_free:
            n_compatible += 1
        else:
            n_refuted += 1
    elapsed = time.monotonic() - t0
    assert n_refuted >= 10 and n_compatible >= 10
    assert elapsed < 60
    report(1, f"{n_compatible}+{n_refuted} maps agree with the relation in {elapsed:.1f}s")


def test_criterion_02_coefficient_family_semigroup_and_inverse():
    t0 = time.monotonic()
    rng = random.Random(2102)
    pairs = 0
    for d in (0, 1, 2):
        labels = mi_labels(d, 3)
        grid = [(a, b) for a in labels for b in labels]
        for _ in range(5):
            lam = tuple(rand_rat(rng) for _ in range(d + 1))
            mu = tuple(rand_rat(rng) for _ in range(d + 1))
            f_lam = phi_lambda(SpdeConfig(d, lam))
            f_mu = phi_lambda(SpdeConfig(d, mu))
            f_sum = phi_lambda(SpdeConfig(d, tuple(x + y for x, y in zip(lam, mu))))
            f_inv = phi_lambda(SpdeConfig(d, tuple(-x for x in lam)))
            for a, b in grid:
                assert apply_pair(f_lam, f_mu(a, b)) == f_sum(a, b)
                assert apply_pair(f_inv, f_lam(a, b)) == LinComb.of((a, b))
                pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report(2, f"composition and inverse on {pairs} pairs in {elapsed:.1f}s")


def test_criterion_03_closed_form_equals_series_and_powers():
    rng = random.Random(2103)
    pairs = 0
    for d in (0, 1, 2):
        labels = mi_labels(d, 3)
        grid = [(a, b) for a in labels for b in labels]
        for _ in range(5):
            cfg = SpdeConfig(d, tuple(rand_rat(rng) for _ in range(d + 1)))
            closed = phi_lambda(cfg)
            series = phi_lambda_via_exp(cfg)
            for a, b in grid:
                assert closed(a, b) == series(a, b)
                pairs += 1

    cfg = SpdeConfig(1, (Fraction(1), Fraction(-2)))
    dmap = partial_lambda(cfg)
    powers = 0
    for a, b in [(a, b) for a in mi_labels(1, 3) for b in mi_labels(1, 3)]:
        power = LinComb.of((a, b))
        for n in range(1, 5):
            power = apply_pair(dmap, power)
            want = LinComb(
                [
                    (
                        (a.sub(l), b.sub(l)),
                        factorial(n) * lambda_pow(cfg.lam, l) * b.binom(l),
                    )
                    for l in (
                        MultiIndex(t)
                        for t in iproduct(*(range(e + 1) for e in a.min_with(b).entries))
                    )
                    if l.degree == n
                ]
            )
            assert power == want
            powers += 1
    report(3, f"series agrees on {pairs} pairs, powers up to 4 on {powers}")


def test_criterion_04_edge_operator_is_a_morphism_with_inverse():
    t0 = time.monotonic()
    rng = random.Random(2104)
    d0 = [mi(0), mi(1)]
    E, V = default_block_bases(2, 2)
    families = [
        (phi_lambda(SpdeConfig(0, (Fraction(1),))), d0, d0),
        (from_blocks(random_jd(rng, 2, "D"), E, V), list(E.labels()), list(V.labels())),
    ]
    identities = 0
    for phi, elabels, vlabels in families:
        ts = trees_up_to(3, elabels, vlabels)
        for x in ts:
            tx = theta(phi, LinComb.of(x))
            for y in ts:
                ty = theta(phi, LinComb.of(y))
                for a in elabels:
                    lhs = theta(phi, graft_free(LinComb.of(x), a, LinComb.of(y)))
                    assert lhs == graft_phi(phi, tx, a, ty)
                    identities += 1

    fwd = phi_lambda(SpdeConfig(0, (Fraction(1, 2),)))
    back = phi_lambda(SpdeConfig(0, (Fraction(-1, 2),)))
    labels = [mi(k) for k in range(3)]
    inverses = 0
    for t in trees_up_to(4, labels, labels):
        assert theta(fwd, theta(back, LinComb.of(t))) == LinComb.of(t)
        inverses += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(4, f"morphism on {identities} triples, inverse on {inverses} trees in {elapsed:.1f}s")


def test_criterion_05_deformed_forest_product_and_cut_coproduct_laws():
    E1 = symbols("a", ("a1",))
    V2 = symbols("b", ("b1", "b2"))
    phi = from_blocks(block_matrix([[[[1, 1], [0, 2]]]]), E1, V2)
    pool = forests_up_to(4, E1.labels(), V2.labels())

    def star(f, g):
        return star_product(phi, forest_elem(f), forest_elem(g))

    assoc = 0
    nonempty = [f for f in pool if f.vertex_count >= 1]
    for f in nonempty:
        for g in nonempty:
            if f.vertex_count + g.vertex_count >= 4:
                continue
            for h in nonempty:
                if f.vertex_count + g.vertex_count + h.vertex_count > 4:
                    continue
                lhs = star(f, g).map_terms(
                    lambda r: star_product(phi, forest_elem(r), forest_elem(h))
                )
                rhs = star(g, h).map_terms(
                    lambda r: star_product(phi, forest_elem(f), forest_elem(r))
                )
                assert lhs == rhs
                assoc += 1

    def tensor_star(dx, dy):
        out = {}
        for (f1, g1), c1 in dx.items():
            for (f2, g2), c2 in dy.items():
                left = star(f1, f2)
                right = star(g1, g2)
                for fl, cl in left.items():
                    for fr, cr in right.items():
                        key = (fl, fr)
                        out[key] = out.get(key, Fraction(0)) + c1 * c2 * cl * cr
        return LinComb(list(out.items()))

    bialg = 0
    for f in nonempty:
        for g in nonempty:
            if f.vertex_count + g.vertex_count > 4:
                continue
            lhs = star(f, g).map_terms(lambda r: deshuffle(forest_elem(r)))
            rhs = tensor_star(deshuffle(forest_elem(f)), deshuffle(forest_elem(g)))
            assert lhs == rhs
            bialg += 1

    coassoc = 0
    for f in pool:
        d = cut_coproduct(phi, forest_elem(f))
        lhs = LinComb(
            [
                ((l2, r2, r), c * c2)
                for (l, r), c in d.items()
                for (l2, r2), c2 in cut_coproduct(phi, forest_elem(l)).items()
            ]
        )
        rhs = LinComb(
            [
                ((l, l2, r2), c * c2)
                for (l, r), c in d.items()
                for (l2, r2), c2 in cut_coproduct(phi, forest_elem(r)).items()
            ]
        )
        assert lhs == rhs
        coassoc += 1

    multipl = 0
    for f in nonempty:
        for g in nonempty:
            if f.vertex_count + g.vertex_count > 4:
                continue
            lhs = cut_coproduct(phi, forest_elem(forest_mul(f, g)))
            rhs = LinComb(
                [
                    ((forest_mul(l, l2), forest_mul(r, r2)), c * c2)
                    for (l, r), c in cut_coproduct(phi, forest_elem(f)).items()
                    for (l2, r2), c2 in cut_coproduct(phi, forest_elem(g)).items()
                ]
            )
            assert lhs == rhs
            multipl += 1

    # The worked five-upper-parts display, term for term.
    E4 = symbols("E", ["a1", "a2", "a3", "a4"])
    V4 = symbols("V", ["b1", "b2", "b3", "b4"])
    a1, a2, a3, a4 = E4.labels()
    b1, b2, b3, b4 = V4.labels()
    es, vs = E4.labels(), V4.labels()
    shift = from_table(
        E4,
        V4,
        {
            (a, b): [(1, es[(i + 1) % 4], vs[(j + 1) % 4])]
            for i, a in enumerate(es)
            for j, b in enumerate(vs)
        },
    )

    def planted(plant, body):
        return forest([PlantedTree(plant, body)])

    cherry = planted(a3, node(b3, [(a1, leaf(b1)), (a2, leaf(b2))]))
    got = cut_coproduct(shift, forest_elem(cherry))
    want = (
        LinComb.of((cherry, EMPTY_FOREST))
        + LinComb.of((EMPTY_FOREST, cherry))
        + LinComb.of((planted(a2, leaf(b1)), planted(a3, node(b4, [(a2, leaf(b2))]))))
        + LinComb.of((planted(a3, leaf(b2)), planted(a3, node(b4, [(a1, leaf(b1))]))))
        + LinComb.of(
            (
                forest_mul(planted(a2, leaf(b1)), planted(a3, leaf(b2))),
                planted(a3, leaf(b1)),
            )
        )
    )
    assert got == want
    report(
        5,
        f"associativity on {assoc}, bialgebra on {bialg}, coassociativity on "
        f"{coassoc}, multiplicativity on {multipl}, display matches",
    )


def test_criterion_06_dual_pairing_identities_under_transpose():
    t0 = time.monotonic()
    E, V = default_block_bases(2, 2)
    phi = from_blocks(build_JD([[1, 2], [0, 3]], [[1, 0], [4, 1]], "J"), E, V)
    pool = forests_up_to(3, E.labels(), V.labels())
    defects = hopf_pairing_defects(phi, delta_pairing(), pool)
    assert defects == []
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(6, f"four identities over {len(pool)} forests per side in {elapsed:.1f}s")


def test_criterion_07_generator_actions_fit_the_extension():
    checked = 0
    for d in (0, 1, 2):
        for noise in (False, True):
            cfg = SpdeConfig(d, tuple(Fraction(1) for _ in range(d + 1)))
            P, psi = spde_psi(cfg.d)
            ph = noise_extend(cfg) if noise else phi_lambda(cfg)
            edge_labels = list(mi_labels(d, 3))
            vertex_labels = list(mi_labels(d, 3))
            if noise:
                edge_labels.append(XI)
                vertex_labels.append(STAR)
            assert psi_compat_defects(ph, P, psi, edge_labels, vertex_labels) == []
            checked += len(edge_labels) * len(vertex_labels)

            z, u = mi_labels(d, 1)[0], mi_labels(d, 1)[1]
            elems = [
                LinComb.of(P.names[0]),
                LinComb.of(P.names[-1]),
                LinComb.of(PlantedTree(u, leaf(z))),
                LinComb.of(PlantedTree(u, node(z, [(u, leaf(u))]))) + LinComb.of(P.names[0]),
                LinComb.of(PlantedTree(z, node(u, [(u, leaf(z)), (z, leaf(u))]))),
            ]
            if noise:
                elems.append(LinComb.of(PlantedTree(XI, leaf(STAR))))
            for x in elems:
                for y in elems:
                    for w in elems:
                        assert postlie_axiom_defects(ph, P, psi, x, y, w).all_zero

    # Display one: a generator bumps each vertex of a planted tree in turn.
    cfg = SpdeConfig(1, (Fraction(1), Fraction(1)))
    P, psi = spde_psi(cfg.d)
    ph = phi_lambda(cfg)
    a, a1, a2, a3 = mi(1, 1), mi(1, 0), mi(0, 1), mi(2, 0)
    b1, b2, b3, b4 = mi(0, 0), mi(1, 0), mi(0, 1), mi(2, 2)

    def tree(r1, r2, r3, r4):
        return PlantedTree(a, node(r1, [(a1, node(r2, [(a2, leaf(r3))])), (a3, leaf(r4))]))

    e = mi_unit(1, 1)
    got = ext_triangle(ph, P, psi, LinComb.of("X_1"), LinComb.of(tree(b1, b2, b3, b4)))
    assert got == (
        LinComb.of(tree(b1.add(e), b2, b3, b4))
        + LinComb.of(tree(b1, b2.add(e), b3, b4))
        + LinComb.of(tree(b1, b2, b3.add(e), b4))
        + LinComb.of(tree(b1, b2, b3, b4.add(e)))
    )

    # Display two: the mixed bracket lowers the plant label by one step.
    body = node(mi(0, 0), [(mi(1, 0), leaf(mi(1, 0))), (mi(2, 0), leaf(mi(2, 2)))])
    carried = LinComb.of(PlantedTree(mi(1, 1), body))
    got = ext_bracket(P, psi, carried, LinComb.of("X_1"))
    assert got == LinComb.of(PlantedTree(mi(1, 0), body))
    report(7, f"actions compatible on {checked} label pairs, axioms and displays hold")


def test_criterion_08_block_grids_commutation_census_and_determinants():
    rng = random.Random(2108)
    n_commuting = n_not = 0
    for i in range(100):
        m = 2 if i % 2 == 0 else 3
        if i % 3 == 0:
            M = random_jd(rng, m, "J" if i % 2 == 0 else "D")
        else:
            M = block_matrix(
                [[rand_mat(rng, 2) for _ in range(m)] for _ in range(m)]
            )
        commute = blocks_commute(M)
        verdict = check_compat(from_blocks(M))
        assert commute == isinstance(verdict, Compatible), f"grid {i}"
        if commute:
            n_commuting += 1
        else:
            n_not += 1
    assert n_commuting and n_not

    from rtcalc.ratmat import det

    def assemble_det(form, A, B):
        M = build_JD(A, B, form)
        assert blocks_commute(M)
        assert isinstance(check_compat(from_blocks(M)), Compatible)
        from rtcalc.phimaps import assemble

        return det(assemble(M))

    dets = 0
    for m in (2, 3):
        for _ in range(5):
            A, B = rand_mat(rng, m), rand_mat(rng, m)
            assert assemble_det("D", A, B) == det(A) * det(B)
            assert assemble_det("J", A, B) == det(A) ** 2
            dets += 2
    report(8, f"{n_commuting} commuting / {n_not} noncommuting grids, {dets} determinant identities")


def test_criterion_09_regraft_eigenrelation_and_coproduct_kernel():
    E = symbols("a", ("a1", "a2"))
    V = symbols("b", ("b1",))
    pool4 = planted_up_to(4, E.labels(), V.labels())
    for p in pool4:
        assert nap_eigen_defect(LinComb.of(p)).is_zero

    pool3 = planted_up_to(3, E.labels(), V.labels())
    index = {p: i for i, p in enumerate(pool3)}
    targets = {}
    columns = []
    for p in pool3:
        img = nap_coproduct(LinComb.of(p))
        col = {}
        for pair, c in img.items():
            row = targets.setdefault(pair, len(targets))
            col[row] = c
        columns.append(col)
    matrix = [
        [columns[j].get(i, Fraction(0)) for j in range(len(pool3))]
        for i in range(len(targets))
    ]
    kernel = nullspace(matrix, len(pool3))
    singles = [p for p in pool3 if p.vertex_count == 1]
    assert len(kernel) == len(singles) == 2
    single_ix = {index[p] for p in singles}
    for vec in kernel:
        support = {i for i, c in enumerate(vec) if c}
        assert support <= single_ix
    for p in singles:
        assert nap_coproduct(LinComb.of(p)).is_zero
    report(9, f"eigen relation on {len(pool4)} trees, kernel is the {len(singles)} single vertices")


def test_criterion_10_noise_admissible_trees_closed_and_generated():
    t0 = time.monotonic()
    cfg = SpdeConfig(0, (Fraction(1),))
    phi = noise_extend(cfg)
    elabels = [mi(0), mi(1), XI]
    vlabels = [mi(0), mi(1), STAR]
    pool = [p for p in planted_up_to(3, elabels, vlabels) if xi_admissible(p)]
    assert len(pool) == 259
    products = 0
    for u in pool:
        for w in pool:
            for p, _ in planted_graft(phi, u, w).items():
                assert xi_admissible(p)
            products += 1
    assert xi_generation_probe(cfg, pool)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(10, f"{products} products of {len(pool)} admissible trees closed, all regenerated, {elapsed:.1f}s")


def test_criterion_11_grafting_displays_via_cli(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"builder": "phi_lambda", "d": 0, "lambda": ["1"]}))
    xf = tmp_path / "x.txt"
    xf.write_text("(<2> [<1>](<0>))\n")
    yf = tmp_path / "y.txt"
    yf.write_text("(<3> [<2>](<1>) [<0>](<0>))\n")
    code = cli_main(["graft", "--phi", str(phi), "--a", "<2>", str(xf), str(yf)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "3*(<1> [<0>](<0>) [<0>](<2> [<1>](<0>)) [<2>](<1>))"
        " + 3*(<2> [<0>](<0>) [<1>](<2> [<1>](<0>)) [<2>](<1>))"
        " + (<3> [<0>](<0>) [<2>](<0> [<1>](<2> [<1>](<0>))))"
        " + (<3> [<0>](<0>) [<2>](<1>) [<2>](<2> [<1>](<0>)))"
        " + (<3> [<0>](<0>) [<2>](<1> [<2>](<2> [<1>](<0>))))"
        " + (<3> [<0>](<0> [<2>](<2> [<1>](<0>))) [<2>](<1>))\n"
    )

    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"builder": "noise_extend", "d": 0, "lambda": ["1"]}))
    xn = tmp_path / "xn.txt"
    xn.write_text("(<0> [<0>](<1>))\n")
    yn = tmp_path / "yn.txt"
    yn.write_text("(<2> [<0>](<1>) [Xi](*))\n")
    code = cli_main(["graft", "--phi", str(noise), "--a", "<1>", str(xn), str(yn)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "2*(<1> [<0>](<0> [<0>](<1>)) [<0>](<1>) [Xi](*))"
        " + (<2> [<0>](<0> [<0>](<0> [<0>](<1>))) [Xi](*))"
        " + (<2> [<0>](<1>) [<1>](<0> [<0>](<1>)) [Xi](*))"
        " + (<2> [<0>](<1> [<1>](<0> [<0>](<1>))) [Xi](*))\n"
    )
    report(11, "both grafting displays byte-exact through the command line")
