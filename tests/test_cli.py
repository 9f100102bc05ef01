import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import rtcalc
from rtcalc import cli
from rtcalc.cli import main

PHI_D1 = {"builder": "phi_lambda", "d": 1, "lambda": ["1", "1"]}
PHI_D0 = {"builder": "phi_lambda", "d": 0, "lambda": ["1"]}
PHI_D0_TWO = {"builder": "phi_lambda", "d": 0, "lambda": ["2"]}
NOISE_D0 = {"builder": "noise_extend", "d": 0, "lambda": ["1"]}
PSI_D0 = {"builder": "spde_psi", "d": 0, "noise": False}

SYM_BASES = {
    "edge_basis": {"kind": "symbols", "id": "a", "names": ["a1", "a2"]},
    "vertex_basis": {"kind": "symbols", "id": "b", "names": ["b1", "b2"]},
}

BAD_TABLE = {
    "builder": "table",
    **SYM_BASES,
    "entries": [
        {"on": ["a1", "b1"], "terms": [[1, "a1", "b1"]]},
        {"on": ["a1", "b2"], "terms": [[1, "a1", "b2"]]},
        {"on": ["a2", "b1"], "terms": [[1, "a2", "b1"]]},
        {"on": ["a2", "b2"], "terms": [["1/2", "a2", "b2"], [1, "a1", "b1"]]},
    ],
}

IDENTITY_SYM = {"builder": "identity", **SYM_BASES}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jfile(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def tfile(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# apply-phi and check-compat


def test_apply_phi_text(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    code, out, _ = run(capsys, "apply-phi", "--phi", phi, "--a", "<1,0>", "--b", "<2,1>")
    assert code == 0
    assert out == "2*<0,0> (x) <1,1> + <1,0> (x) <2,1>\n"


def test_apply_phi_structured(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    code, out, _ = run(
        capsys, "apply-phi", "--phi", phi, "--a", "<1,0>", "--b", "<2,1>",
        "--format", "structured",
    )
    assert code == 0
    assert json.loads(out) == {
        "terms": [["2", "<0,0>", "<1,1>"], ["1", "<1,0>", "<2,1>"]]
    }


def test_apply_phi_series_builder_prints_the_closed_form_past_sixty_four_terms(tmp_path, capsys):
    outs = []
    for builder in ("phi_lambda", "phi_lambda_exp"):
        phi = jfile(tmp_path, f"{builder}.json", {"builder": builder, "d": 0})
        code, out, err = run(capsys, "apply-phi", "--phi", phi, "--a", "<70>", "--b", "<70>")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].count("(x)") == 71


def test_apply_phi_rejects_label_outside_basis(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    code, _, err = run(capsys, "apply-phi", "--phi", phi, "--a", "<1>", "--b", "<0,0>")
    assert code == 2
    assert "1:1" in err and "edge basis" in err


def test_check_compat_bounded(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    code, out, _ = run(capsys, "check-compat", "--phi", phi, "--bound", "3")
    assert code == 0
    assert out == "VerifiedUpToBound(3)\n"


def test_check_compat_refutes_bad_table(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", BAD_TABLE)
    code, out, _ = run(capsys, "check-compat", "--phi", phi)
    assert code == 1
    assert out.startswith("Refuted(")


def test_check_compat_infinite_basis_needs_bound(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    code, _, err = run(capsys, "check-compat", "--phi", phi)
    assert code == 2
    assert "--bound" in err


def test_check_compat_refuses_a_negative_bound(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    with pytest.raises(SystemExit) as exc:
        main(["check-compat", "--phi", phi, "--bound", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --bound: must be nonnegative, got -1" in err


# ---------------------------------------------------------------------------
# Products and operators on tree files


def test_graft_deformed_golden(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    x = tfile(tmp_path, "x.txt", "(<1,0>)")
    y = tfile(tmp_path, "y.txt", "(<0,0> [<1,1>](<1,0>))")
    code, out, _ = run(capsys, "graft", "--phi", phi, "--a", "<1,0>", x, y)
    assert code == 0
    assert out == (
        "(<0,0> [<1,0>](<1,0>) [<1,1>](<1,0>))"
        " + (<0,0> [<1,1>](<0,0> [<0,0>](<1,0>)))"
        " + (<0,0> [<1,1>](<1,0> [<1,0>](<1,0>)))\n"
    )


def test_graft_growth_golden(tmp_path, capsys):
    # y_(k+1) = graft(x0, y_k), each output fed back in as the next y, as the
    # graft-growth workload of perfbench grows its combinations.  Four steps
    # give 1,350 trees of 10 vertices with up to five siblings at a vertex,
    # so the digest pins the canonical order of many-sibling families.
    phi = jfile(tmp_path, "phi.json", {"builder": "phi_lambda", "d": 1, "lambda": ["-2/3", "1/2"]})
    x = tfile(tmp_path, "x.txt", "(<1,0> [<0,2>](<0,2>))")
    y = x
    for _ in range(4):
        code, out, _ = run(capsys, "graft", "--phi", phi, "--a", "<1,1>", x, y)
        assert code == 0
        y = tfile(tmp_path, "y.txt", out.rstrip("\n"))
    assert out.count(" + ") + out.count(" - ") + 1 == 1350
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c2f72333bd0c05d3d9957f750ad302dffc5f88f4494f77b3c4eca9fff20a5d96"
    )


def test_graft_free_drops_deformation_terms(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    x = tfile(tmp_path, "x.txt", "(<1,0>)")
    y = tfile(tmp_path, "y.txt", "(<0,0> [<1,1>](<1,0>))")
    code, out, _ = run(capsys, "graft-free", "--phi", phi, "--a", "<1,0>", x, y)
    assert code == 0
    assert out == (
        "(<0,0> [<1,0>](<1,0>) [<1,1>](<1,0>))"
        " + (<0,0> [<1,1>](<1,0> [<1,0>](<1,0>)))\n"
    )


def test_graft_equals_graft_free_under_identity(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", IDENTITY_SYM)
    x = tfile(tmp_path, "x.txt", "(b1)")
    y = tfile(tmp_path, "y.txt", "(b2 [a1](b1))")
    code1, out1, _ = run(capsys, "graft", "--phi", phi, "--a", "a2", x, y)
    code2, out2, _ = run(capsys, "graft-free", "--phi", phi, "--a", "a2", x, y)
    assert code1 == code2 == 0
    assert out1 == out2


def test_theta_ladder_golden(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    t = tfile(tmp_path, "t.txt", "(<3> [<2>](<0>))")
    code, out, _ = run(capsys, "theta", "--phi", phi, t)
    assert code == 0
    assert out == "3*(<1> [<0>](<0>)) + 3*(<2> [<1>](<0>)) + (<3> [<2>](<0>))\n"


def test_star_golden(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    f1 = tfile(tmp_path, "f1.txt", "[<1,0>](<0,0>)")
    f2 = tfile(tmp_path, "f2.txt", "[<0,1>](<1,0>)")
    code, out, _ = run(capsys, "star", "--phi", phi, f1, f2)
    assert code == 0
    assert out == (
        "[<0,1>](<0,0> [<0,0>](<0,0>))"
        " + [<0,1>](<1,0>) [<1,0>](<0,0>)"
        " + [<0,1>](<1,0> [<1,0>](<0,0>))\n"
    )


def test_coprod_on_single_vertex_is_primitive(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    f = tfile(tmp_path, "f.txt", "[<0,1>](<1,0>)")
    code, out, _ = run(capsys, "coprod", "--phi", phi, f)
    assert code == 0
    assert out == "1 (x) [<0,1>](<1,0>) + [<0,1>](<1,0>) (x) 1\n"


def test_deshuffle_splits_a_two_tree_forest(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    f = tfile(tmp_path, "f.txt", "[<1,0>](<0,0>) [<0,1>](<0,0>)")
    code, out, _ = run(capsys, "deshuffle", "--phi", phi, f)
    assert code == 0
    assert out == (
        "1 (x) [<0,1>](<0,0>) [<1,0>](<0,0>)"
        " + [<0,1>](<0,0>) (x) [<1,0>](<0,0>)"
        " + [<0,1>](<0,0>) [<1,0>](<0,0>) (x) 1"
        " + [<1,0>](<0,0>) (x) [<0,1>](<0,0>)\n"
    )


def test_pair_diagonal_and_off_diagonal(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    f1 = tfile(tmp_path, "f1.txt", "[<1,0>](<0,0>)")
    f2 = tfile(tmp_path, "f2.txt", "[<0,1>](<1,0>)")
    code, out, _ = run(capsys, "pair", "--phi", phi, f1, f1)
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "pair", "--phi", phi, f1, f2)
    assert (code, out) == (0, "0\n")


def test_pair_counts_forest_symmetry(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    f = tfile(tmp_path, "f.txt", "[<1,0>](<0,0>) [<1,0>](<0,0>)")
    code, out, _ = run(capsys, "pair", "--phi", phi, f, f)
    assert (code, out) == (0, "2\n")


# ---------------------------------------------------------------------------
# Generator actions


def test_psi_check_clean_at_unit_coefficients(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    code, out, _ = run(capsys, "psi-check", "--psi", psi, "--phi", phi, "--bound", "2")
    assert code == 0
    assert "no defects" in out


def test_psi_check_refuses_a_negative_bound(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    with pytest.raises(SystemExit) as exc:
        main(["psi-check", "--psi", psi, "--phi", phi, "--bound", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --bound: must be nonnegative, got -1" in err


@pytest.mark.parametrize(
    "command, message",
    [("check-compat", "the bases are infinite"), ("psi-check", "the edge basis is infinite")],
    ids=["check-compat", "psi-check"],
)
def test_an_infinite_basis_without_bound_exits_2_naming_the_flag(tmp_path, capsys, command, message):
    argv = ["--phi", jfile(tmp_path, "phi.json", PHI_D0)]
    if command == "psi-check":
        argv += ["--psi", jfile(tmp_path, "psi.json", PSI_D0)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err == f"rtcalc: error: {message}; pass an explicit --bound\n"


def test_psi_check_flags_other_coefficients(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0_TWO)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    code, out, _ = run(capsys, "psi-check", "--psi", psi, "--phi", phi, "--bound", "2")
    assert code == 1
    assert "map-intertwining" in out


def test_postlie_check_zero_residuals(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    u = tfile(tmp_path, "u.txt", "X_0")
    v = tfile(tmp_path, "v.txt", "[<2>](<1>)")
    w = tfile(tmp_path, "w.txt", "[<1>](<0>)")
    code, out, _ = run(capsys, "postlie-check", "--phi", phi, "--psi", psi, u, v, w)
    assert code == 0
    assert out == "jacobi: 0\nderivation: 0\nassociator: 0\n"


def test_postlie_check_nonzero_residual(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0_TWO)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    u = tfile(tmp_path, "u.txt", "X_0")
    v = tfile(tmp_path, "v.txt", "[<2>](<1>)")
    w = tfile(tmp_path, "w.txt", "[<1>](<0>)")
    code, out, _ = run(
        capsys, "postlie-check", "--phi", phi, "--psi", psi, u, v, w,
        "--format", "structured",
    )
    assert code == 1
    assert json.loads(out)["all_zero"] is False


def test_postlie_check_accepts_mixed_elements(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    u = tfile(tmp_path, "u.txt", "X_0 + 2*[<1>](<0>)")
    v = tfile(tmp_path, "v.txt", "X_0")
    w = tfile(tmp_path, "w.txt", "[<2>](<1> [<1>](<0>))")
    code, _, _ = run(capsys, "postlie-check", "--phi", phi, "--psi", psi, u, v, w)
    assert code == 0


def test_psi_tables_builder_roundtrip(tmp_path, capsys):
    psi = jfile(
        tmp_path,
        "psi.json",
        {
            "builder": "psi_tables",
            "generators": ["g"],
            **SYM_BASES,
            "edge": [{"on": ["g", "a1"], "terms": [[1, "a2"]]}],
            "vertex": [],
        },
    )
    phi = jfile(tmp_path, "phi.json", IDENTITY_SYM)
    code, out, _ = run(capsys, "psi-check", "--psi", psi, "--phi", phi)
    assert code == 1
    assert "map-intertwining" in out


def test_psi_check_prints_one_line_per_edge_action_bracket_defect(tmp_path, capsys):
    # g sends a1 to a2 and h sends a2 to a1, so the two edge actions do not
    # commute; under the zero map the intertwining condition holds.
    psi = jfile(
        tmp_path,
        "psi.json",
        {
            "builder": "psi_tables",
            "generators": ["g", "h"],
            **SYM_BASES,
            "edge": [{"on": ["g", "a1"], "terms": [[1, "a2"]]}, {"on": ["h", "a2"], "terms": [[1, "a1"]]}],
        },
    )
    phi = jfile(tmp_path, "phi.json", {"builder": "zero", **SYM_BASES})
    code, out, _ = run(capsys, "psi-check", "--psi", psi, "--phi", phi)
    assert code == 1
    assert out == (
        "edge-action-bracket at gens=(g, h) label=a1: -a1\n"
        "edge-action-bracket at gens=(g, h) label=a2: a2\n"
        "edge-action-bracket at gens=(h, g) label=a1: a1\n"
        "edge-action-bracket at gens=(h, g) label=a2: -a2\n"
    )


# ---------------------------------------------------------------------------
# Demos, classification, suite


def test_spde_demo_plain(capsys):
    code, out, _ = run(capsys, "spde-demo", "--d", "0")
    assert code == 0
    assert "config: d=0 lambda=(1) noise=off" in out
    assert "phi(<2> (x) <3>) = 3*<0> (x) <1> + 3*<1> (x) <2> + <2> (x) <3>" in out
    assert "inverse check" in out
    assert "admissible" not in out


def test_spde_demo_with_noise(capsys):
    code, out, _ = run(capsys, "spde-demo", "--d", "0", "--noise")
    assert code == 0
    assert "extended phi on Xi (x) <3> = Xi (x) <3>" in out
    assert "extended phi on <2> (x) * = 0" in out
    assert "admissible [Xi](*): True" in out
    assert "admissible [Xi](<0>): False" in out


def test_spde_demo_lambda_csv(capsys):
    code, out, _ = run(capsys, "spde-demo", "--d", "1", "--lambda", "1,1/2")
    assert code == 0
    assert "lambda=(1,1/2)" in out


def test_spde_demo_rejects_wrong_lambda_length(capsys):
    code, _, err = run(capsys, "spde-demo", "--d", "1", "--lambda", "1")
    assert code == 2
    assert "lambda" in err


def test_spde_demo_structured_lines(capsys):
    code, out, _ = run(capsys, "spde-demo", "--d", "0", "--format", "structured")
    assert code == 0
    lines = json.loads(out)["lines"]
    assert lines[0] == "config: d=0 lambda=(1) noise=off"


def test_classify_m2_already_jd(tmp_path, capsys):
    grid = jfile(
        tmp_path,
        "grid.json",
        {
            "builder": "blocks",
            "jd": {"A": [[0, 1], [0, 0]], "B": [[0, "1/2"], [0, 0]], "form": "J"},
        },
    )
    code, out, _ = run(capsys, "classify-m2", "--phi", grid)
    assert code == 0
    assert out.splitlines()[0] == "AlreadyJD(form=J)"


def test_classify_m2_diagonalizes(tmp_path, capsys):
    grid = jfile(
        tmp_path, "grid.json", {"builder": "blocks", "blocks": [[[[1, 1], [0, 2]]]]}
    )
    code, out, _ = run(capsys, "classify-m2", "--phi", grid, "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "AlreadyJD" and data["form"] == "D"
    assert data["basis_change"] == [["1", "1"], ["1", "0"]]


def test_classify_m2_noncommuting(tmp_path, capsys):
    grid = jfile(
        tmp_path,
        "grid.json",
        {
            "builder": "blocks",
            "blocks": [
                [[[0, 1], [0, 0]], [[1, 0], [0, 1]]],
                [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            ],
        },
    )
    code, out, _ = run(capsys, "classify-m2", "--phi", grid)
    assert code == 1
    assert out.startswith("NotCompatible:")


def test_classify_m2_irrational_eigenvalues(tmp_path, capsys):
    grid = jfile(
        tmp_path, "grid.json", {"builder": "blocks", "blocks": [[[[0, 1], [2, 0]]]]}
    )
    code, out, _ = run(capsys, "classify-m2", "--phi", grid)
    assert code == 0
    assert out.startswith("NeedsAlgebraicExtension:")


@pytest.mark.parametrize("grid", [5, [], PHI_D0])
def test_classify_m2_wants_a_blocks_object(tmp_path, capsys, grid):
    code, out, err = run(capsys, "classify-m2", "--phi", jfile(tmp_path, "grid.json", grid))
    assert code == 2
    assert out == ""
    assert err.startswith("rtcalc: error:") and "expected a 'blocks' map" in err


def test_classify_m2_refuses_a_key_the_blocks_builder_does_not_read(tmp_path, capsys):
    grid = jfile(tmp_path, "grid.json", {"builder": "blocks", "blocks": [[[[1]]]], "block": [[[[2]]]]})
    code, out, err = run(capsys, "classify-m2", "--phi", grid)
    assert (code, out) == (2, "")
    assert err == f"rtcalc: error: {grid}: builder 'blocks' does not read 'block'\n"


def test_classify_m2_refuses_a_key_jd_does_not_read(tmp_path, capsys):
    obj = {"builder": "blocks", "jd": {"A": [[1]], "B": [[0]], "form": "J", "fromm": "D"}}
    grid = jfile(tmp_path, "grid.json", obj)
    code, out, err = run(capsys, "classify-m2", "--phi", grid)
    assert (code, out) == (2, "")
    assert err == f"rtcalc: error: {grid}: 'jd' does not read 'fromm'\n"


def test_verify_suite_small(capsys):
    code, out, _ = run(capsys, "verify-suite", "--level", "small")
    assert code == 0
    assert "12/12 checks passed at level small" in out
    assert out.count("ok ") >= 12


# ---------------------------------------------------------------------------
# Failure modes and determinism


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    code, _, err = run(capsys, "theta", "--phi", phi, str(tmp_path / "nope.txt"))
    assert code == 2
    assert "rtcalc: error:" in err


def test_invalid_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "check-compat", "--phi", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_parse_error_carries_position(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    t = tfile(tmp_path, "t.txt", "(<1,0> [<0,0>]")
    code, _, err = run(capsys, "theta", "--phi", phi, t)
    assert code == 2
    assert "2:1" in err


@pytest.mark.parametrize(
    "phi, key",
    [
        ({"builder": "blocks", "blocks": 5}, "'blocks'"),
        ({"builder": "blocks", "blocks": [[5]]}, "'blocks'"),
        ({"builder": "blocks", "blocks": [[[[1, 0], [0, 1]]], [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]]}, "'blocks'"),
        ({"builder": "blocks", "blocks": [[[[1, 0], [0]]]]}, "'blocks'"),
        ({"builder": "blocks", "jd": {"A": [[1], 2], "B": [[1]], "form": "J"}}, "'jd.A'"),
        ({"builder": "blocks", "jd": [1, 2]}, "'jd'"),
        ({"builder": "phi_lambda", "d": 1.5}, "'d'"),
        ({"builder": "phi_lambda", "d": "one"}, "'d'"),
        ({"builder": "phi_lambda", "d": [1]}, "'d'"),
        ({"builder": "phi_lambda", "d": 0, "lambda": 5}, "'lambda'"),
        ({"builder": "phi_lambda", "d": 0, "lambda": ["1/0"]}, "bad rational '1/0'"),
        ({"builder": "transpose", "of": {"builder": "phi_lambda", "d": 0, "lambda": ["1/0"]}}, ".of: bad rational"),
        (
            {
                "builder": "identity",
                "edge_basis": {"kind": "symbols", "id": "a", "names": 5},
                "vertex_basis": {"kind": "symbols", "id": "b", "names": ["b1"]},
            },
            "'names'",
        ),
        ({"builder": "table", **SYM_BASES, "entries": 5}, "'entries'"),
        ({"builder": "table", **SYM_BASES, "entries": [5]}, "'entries'"),
        ({"builder": "table", **SYM_BASES, "entries": [{"on": ["a1", "b1"], "terms": [[1, "a1"]]}]}, "'terms'"),
        ({"builder": "polynomial", "of": {"builder": "phi_lambda", "d": 0}, "coeffs": 5}, "'coeffs'"),
        ({"builder": "polynomial", "of": {"builder": "phi_lambda", "d": 0}, "coeffs": [1, True]}, "bad rational True"),
        ({"builder": "exp", "of": {"builder": "phi_lambda", "d": 0}, "max_iter": -1}, "'max_iter'"),
        ({"builder": "phi_lambda_exp", "d": 0, "max_iter": -3}, "builder 'phi_lambda_exp' does not read 'max_iter'"),
        (
            {
                "builder": "identity",
                "edge_basis": {"kind": "multiindex", "d": -1},
                "vertex_basis": {"kind": "multiindex", "d": -1},
            },
            "'d'",
        ),
        (
            {
                "builder": "identity",
                "edge_basis": {"kind": "multiindex_noise", "d": -2},
                "vertex_basis": {"kind": "multiindex_noise", "d": -2},
            },
            "'d'",
        ),
        ({"builder": "phi_lambda", "d": 0, "lamda": ["1/2"]}, "builder 'phi_lambda' does not read 'lamda'"),
        ({"builder": "phi_lambda", "d": 0, "name": "phi"}, "does not read 'name'"),
        ({**PHI_D0, "assert_compatible": True}, "builder 'phi_lambda' does not read 'assert_compatible'"),
        (
            {"builder": "identity", **SYM_BASES, "edge_basis": {**SYM_BASES["edge_basis"], "id": None}},
            ".edge_basis: 'id' must be a string, not None",
        ),
        (
            {"builder": "identity", **SYM_BASES, "vertex_basis": {**SYM_BASES["vertex_basis"], "id": 7}},
            ".vertex_basis: 'id' must be a string, not 7",
        ),
        (
            {"builder": "exp", "of": {"builder": "phi_lambda", "d": 0, "lamda": [2]}},
            ".of: builder 'phi_lambda' does not read 'lamda'",
        ),
        (
            {"builder": "compose", "outer": IDENTITY_SYM, "inner": {**IDENTITY_SYM, "max_iter": 3, "coeffs": []}},
            ".inner: builder 'identity' does not read 'coeffs', 'max_iter'",
        ),
        (
            {"builder": "identity", **SYM_BASES, "vertex_basis": {**SYM_BASES["vertex_basis"], "d": 1}},
            ".vertex_basis: basis kind 'symbols' does not read 'd'",
        ),
        ({"builder": "blocks", "blocks": [[[[1]]]], "jd": {}}, "'blocks' or 'jd'"),
        (
            {"builder": "blocks", "jd": {"A": [[1]], "B": [[0]], "form": "J", "fromm": "D"}},
            ": 'jd' does not read 'fromm'",
        ),
        (
            {
                "builder": "table",
                **SYM_BASES,
                "entries": [{"on": ["a1", "b1"], "terms": [[1, "a1", "b1"]], "term": [[5, "a1", "b1"]]}],
            },
            "entries[0]: an entry of 'entries' does not read 'term'",
        ),
    ],
    ids=[
        "blocks-int", "blocks-nested-int", "blocks-ragged-rows", "blocks-ragged-block",
        "jd-ragged", "jd-list", "d-float", "d-string", "d-list",
        "lambda-int", "lambda-zero-denominator", "transpose-lambda-zero-denominator", "names-int", "entries-int", "entries-item-int", "terms-short",
        "coeffs-int", "coeffs-bool", "exp-max-iter-negative", "phi-lambda-exp-max-iter-negative",
        "multiindex-d-negative", "multiindex-noise-d-negative",
        "lamda-misspelt", "name-refused", "assert-compatible-refused", "id-null", "id-int", "nested-of-unknown-key", "nested-inner-unknown-keys", "basis-unknown-key",
        "blocks-and-jd", "jd-unknown-key", "entry-unknown-key",
    ],
)
def test_malformed_map_file_exits_2_naming_the_key(tmp_path, capsys, phi, key):
    path = jfile(tmp_path, "phi.json", phi)
    t = tfile(tmp_path, "t.txt", "(<0>)")
    code, out, err = run(capsys, "theta", "--phi", path, t)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("rtcalc: error:")
    assert key in err
    assert err.count(path) == 1
    assert "Traceback" not in err


PSI_SYM = {"builder": "psi_tables", "generators": ["g"], **SYM_BASES}


@pytest.mark.parametrize(
    "psi, postlie, key",
    [
        ({**PSI_SYM, "generators": 5}, None, "'generators'"),
        ({**PSI_SYM, "edge": 7}, None, "'edge'"),
        ({**PSI_SYM, "vertex": [5]}, None, "vertex[0]: each of 'vertex'"),
        ({**PSI_SYM, "edge": [{"on": "g", "terms": []}]}, None, "edge[0]: 'on'"),
        ({**PSI_SYM, "edge": [{"on": ["g", "a1"], "terms": [[1]]}]}, None, "edge[0]: each of 'terms'"),
        ({**PSI_SYM, "edge": [{"on": ["g", "a1"], "terms": 3}]}, None, "edge[0]: 'terms'"),
        ({**PSI_SYM, "bracket": [{"on": ["g"], "terms": [[1, "g"]]}]}, None, "bracket[0]: 'on'"),
        ({**PSI_SYM, "triangle": [{"on": ["g", "g"], "terms": [["1/2"]]}]}, None, "triangle[0]: each of 'terms'"),
        (PSI_SYM, {"generators": "g"}, "'generators'"),
        (PSI_SYM, {"generators": ["g"], "bracket": [{"on": ["g", "g", "g"], "terms": []}]}, "bracket[0]: 'on'"),
        ({"builder": "spde_psi", "d": 0, "noise": "no"}, None, "'noise'"),
        ({"builder": "spde_psi", "d": 0, "nosie": True}, None, "builder 'spde_psi' does not read 'nosie'"),
        ({**PSI_D0, "lambda": ["2"]}, None, "builder 'spde_psi' does not read 'lambda'"),
        ({**PSI_SYM, "assert_compatible": True}, None, "does not read 'assert_compatible'"),
        ({**PSI_SYM, "generators": [1]}, None, "each of 'generators' must be a string, not 1"),
        (
            {**PSI_SYM, "edge": [{"on": [1, "a1"], "terms": [[1, "a2"]]}]},
            None,
            "edge[0]: a generator in 'on' must be a string, not 1",
        ),
        ({**PSI_SYM, "bracket": [{"on": [1, 1], "terms": []}]}, None, "bracket[0]: a generator in 'on' must be a string"),
        (
            {**PSI_SYM, "triangle": [{"on": ["g", "g"], "terms": [[1, 1]]}]},
            None,
            "triangle[0]: a generator in 'terms' must be a string, not 1",
        ),
        (PSI_SYM, {"generators": [None]}, "each of 'generators' must be a string, not None"),
        (
            {**PSI_SYM, "edge": [{"on": ["g", "a1"], "terms": [[1, "a2"]], "extra": 1}]},
            None,
            "edge[0]: an entry of 'edge' does not read 'extra'",
        ),
        (
            PSI_SYM,
            {"generators": ["g"], "brackets": [{"on": ["g", "g"], "terms": [[1, "g"]]}]},
            ": a post-Lie file does not read 'brackets'",
        ),
    ],
    ids=[
        "generators-int", "edge-int", "vertex-item-int", "on-string", "terms-short", "terms-int",
        "bracket-on-short", "triangle-terms-short", "postlie-generators-string", "postlie-on-long",
        "noise-string", "noise-misspelt", "spde-psi-lambda", "psi-assert-compatible",
        "generators-item-int", "edge-on-generator-int", "bracket-on-generator-int", "triangle-terms-generator-int",
        "postlie-generators-item-null", "edge-entry-unknown-key",
        "postlie-unknown-key",
    ],
)
def test_malformed_psi_file_exits_2_naming_the_key(tmp_path, capsys, psi, postlie, key):
    path = jfile(tmp_path, "psi.json", psi)
    argv = ["psi-check", "--phi", jfile(tmp_path, "phi.json", IDENTITY_SYM), "--psi", path]
    if postlie is not None:
        path = jfile(tmp_path, "postlie.json", postlie)
        argv += ["--postlie", path]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("rtcalc: error:")
    assert key in err
    assert err.count(path) == 1
    assert "Traceback" not in err


def test_postlie_file_naming_a_generator_the_actions_lack_exits_2(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    psi = jfile(tmp_path, "psi.json", PSI_D0)
    postlie = jfile(tmp_path, "postlie.json", {"generators": ["X_0", "g"]})
    code, out, err = run(capsys, "psi-check", "--phi", phi, "--psi", psi, "--postlie", postlie, "--bound", "1")
    assert (code, out) == (2, "")
    assert err == f"rtcalc: error: {postlie}: {psi} has no generator 'g'\n"


@pytest.mark.parametrize("command", ["psi-check", "postlie-check"])
@pytest.mark.parametrize(
    "phi, psi",
    [
        (IDENTITY_SYM, PSI_D0),
        (PHI_D0, PSI_SYM),
        (PHI_D0, {**PSI_D0, "noise": True}),
        (NOISE_D0, PSI_D0),
        (PHI_D0, {**PSI_D0, "d": 1}),
        ({**IDENTITY_SYM, "vertex_basis": {"kind": "symbols", "id": "b", "names": ["b1"]}}, PSI_SYM),
    ],
    ids=["symbols-vs-spde", "multiindex-vs-tables", "noise-vs-plain", "plain-vs-noise", "d0-vs-d1", "names"],
)
def test_actions_on_other_bases_than_the_map_exit_2_naming_both_files(tmp_path, capsys, command, phi, psi):
    phi, psi = jfile(tmp_path, "phi.json", phi), jfile(tmp_path, "psi.json", psi)
    argv = ["--bound", "1"] if command == "psi-check" else [tfile(tmp_path, f"{k}.txt", "g") for k in "uvw"]
    code, out, err = run(capsys, command, "--phi", phi, "--psi", psi, *argv)
    assert (code, out) == (2, "")
    assert err == f"rtcalc: error: {psi}: the actions are on other label bases than the map of {phi}\n"


def test_internal_error_exits_2_in_one_line(tmp_path, capsys, monkeypatch):
    def broken(phi, x):
        raise TypeError("bad\nstate")

    monkeypatch.setattr(cli, "theta", broken)
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    t = tfile(tmp_path, "t.txt", "(<0>)")
    code, out, err = run(capsys, "theta", "--phi", phi, t)
    assert code == 2
    assert out == ""
    assert err == "rtcalc: internal error: TypeError: bad state\n"


def test_missing_required_flag_exits_2(tmp_path, capsys):
    t = tfile(tmp_path, "t.txt", "(<1,0>)")
    with pytest.raises(SystemExit) as exc:
        main(["theta", t])
    assert exc.value.code == 2


def ladder_text(depth):
    """The ladder (<0> [<0>](<0> ...)) with ``depth`` vertices."""
    return "(<0>" + " [<0>](<0>" * (depth - 1) + ")" * depth


def run_process(*argv, hash_seed=None, timeout=120):
    """Run the CLI in a fresh interpreter, so the stack starts as it does
    from the shell rather than under the test runner's frames; with
    ``hash_seed``, under that ``PYTHONHASHSEED``.  A run past ``timeout``
    seconds fails the test."""
    src = str(Path(rtcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run(
        [sys.executable, "-m", "rtcalc.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )
    return done.returncode, done.stdout, done.stderr


def test_theta_on_a_too_deep_ladder_exits_2_without_traceback(tmp_path):
    # One vertex per frame of the default recursion limit: parsing a tree
    # takes at least one frame per level, so no ladder this deep fits.
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    t = tfile(tmp_path, "t.txt", ladder_text(1000))
    code, out, err = run_process("theta", "--phi", phi, t)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert "recursion limit" in err and "nesting depth" in err


@pytest.mark.parametrize("command", ["theta", "graft", "coprod", "pair"])
def test_an_800_deep_ladder_succeeds(tmp_path, command):
    # Parsing, the operators and printing each take one frame per level.
    # graft takes the ladder as its left factor, so the output is the one
    # tree (<0> [<0>]ladder): a leaf grafted onto every vertex of the ladder
    # would give 800 trees whose 320,000 rebuilt vertices each keep their
    # own key and text, about 6 GB.
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    text = ladder_text(800)
    t = tfile(tmp_path, "t.txt", "[<0>]" + text if command in ("coprod", "pair") else text)
    argv = {
        "theta": ("theta", "--phi", phi, t),
        "graft": ("graft", "--phi", phi, "--a", "<0>", t, tfile(tmp_path, "y.txt", "(<0>)")),
        "coprod": ("coprod", "--phi", phi, t),
        "pair": ("pair", "--phi", phi, t, t),
    }[command]
    code, out, err = run_process(*argv)
    assert (code, err) == (0, "")
    # A ladder has no symmetry, so it pairs with itself to 1.
    want = {"theta": text + "\n", "graft": f"(<0> [<0>]{text})\n", "pair": "1\n"}
    if command in want:
        assert out == want[command]
    else:
        # The terms are 1 (x) the tree, the tree (x) 1 and one cut per edge.
        assert out.count(" (x) ") == 801


def test_theta_on_a_240_deep_ladder_still_succeeds(tmp_path):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    text = ladder_text(240)
    t = tfile(tmp_path, "t.txt", text)
    code, out, err = run_process("theta", "--phi", phi, t)
    assert code == 0
    assert err == ""
    # With lambda = 1 at d = 0 the map fixes (<0>, <0>), so theta fixes the ladder.
    assert out == text + "\n"


def test_graft_onto_a_huge_vertex_label_does_work_in_the_output_terms(tmp_path):
    # The image of (<1,1>, <10^6,10^6>) sums over the four l <= <1,1>,
    # whatever the size of the vertex label.
    phi = jfile(tmp_path, "phi.json", {"builder": "phi_lambda", "d": 1, "lambda": ["1/2", "0"]})
    x = tfile(tmp_path, "x.txt", "(<0,0> [<1,1>](<0,0>))")
    y = tfile(tmp_path, "y.txt", "(<1000000,1000000>)")
    code, out, err = run_process("graft", "--phi", phi, "--a", "<1,1>", x, y, timeout=30)
    assert (code, err) == (0, "")
    assert out == (
        "500000*(<999999,1000000> [<0,1>](<0,0> [<1,1>](<0,0>)))"
        " + (<1000000,1000000> [<1,1>](<0,0> [<1,1>](<0,0>)))\n"
    )


def test_output_is_deterministic(tmp_path, capsys):
    phi = jfile(tmp_path, "phi.json", PHI_D1)
    f1 = tfile(tmp_path, "f1.txt", "[<1,0>](<0,0>)")
    f2 = tfile(tmp_path, "f2.txt", "[<0,1>](<1,0>)")
    _, first, _ = run(capsys, "star", "--phi", phi, f1, f2)
    _, second, _ = run(capsys, "star", "--phi", phi, f1, f2)
    assert first == second


# ---------------------------------------------------------------------------
# Recorded outputs
#
# cli_goldens.json holds the stdout, stderr and exit code of each case in
# GOLDEN_CASES, and the SHA-256 of ``graft`` on a 240-deep ladder.  The
# grafting and post-Lie cases (GRAFT_CASES) were recorded from the
# path-address implementation of grafting and of the post-Lie vertex action
# (commit cc5f058); their inputs have multi-term operands, fractional
# coefficients, equal siblings and, for ``a2``, a refuted table map, so every
# branch of the vertex sum shows in the bytes.  The other cases were recorded
# from the subcommand handlers as each was written out by hand (commit
# 5a61031): every subcommand in both formats, every verdict of check-compat
# and classify-m2, spde-demo at d = 0, 1, 2 with and without noise, a
# refusal, a parse error, a missing flag, and every --help text.
# ``python tests/record_cli_goldens.py`` (with ``src`` on PYTHONPATH)
# records them again.

GOLDENS = json.loads((Path(__file__).resolve().parent / "cli_goldens.json").read_text())

GOLDEN_INPUTS = {
    "phi_frac.json": {"builder": "phi_lambda", "d": 1, "lambda": ["-2/3", "1/2"]},
    "phi_d1.json": PHI_D1,
    "phi_table.json": BAD_TABLE,
    "phi_identity.json": IDENTITY_SYM,
    "phi_d0.json": PHI_D0,
    "phi_d0_two.json": PHI_D0_TWO,
    "psi_d0.json": PSI_D0,
    "grid_jd.json": {"builder": "blocks", "jd": {"A": [[0, 1], [0, 0]], "B": [[0, "1/2"], [0, 0]], "form": "J"}},
    "grid_diag.json": {"builder": "blocks", "blocks": [[[[1, 1], [0, 2]]]]},
    "grid_noncommuting.json": {
        "builder": "blocks",
        "blocks": [[[[0, 1], [0, 0]], [[1, 0], [0, 1]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
    },
    "grid_irrational.json": {"builder": "blocks", "blocks": [[[[0, 1], [2, 0]]]]},
    "x.txt": "(<1,0> [<0,2>](<0,2>)) - 1/2*(<0,1>)",
    "y.txt": (
        "(<0,0> [<1,1>](<1,0>) [<1,1>](<1,0>))"
        " + 2/3*(<1,0> [<0,1>](<1,0>) [<0,1>](<1,0> [<1,1>](<1,0>) [<1,1>](<1,0>)))"
    ),
    "xs.txt": "(b1) + 2*(b2 [a1](b1))",
    "ys.txt": "(b2 [a1](b1) [a1](b1)) - 3/2*(b1 [a2](b2 [a1](b1) [a1](b1)) [a2](b1))",
    "u.txt": "X_0 + 2*[<1>](<0>)",
    "v.txt": "X_0 - 1/2*[<2>](<1> [<1>](<0>) [<1>](<0>))",
    "w.txt": "[<2>](<1> [<1>](<0>) [<0>](<2>))",
    "f1.txt": "[<1,1>](<2,0> [<0,1>](<1,0>)) - 3/2*[<1,0>](<0,1>) [<0,1>](<1,0>)",
    "f2.txt": "[<0,1>](<1,0> [<1,0>](<0,0>)) + 1/3*[<1,1>](<0,1>)",
    "fs.txt": "[a1](b2 [a2](b1)) [a2](b1)",
    "broken.txt": "(<1,0> [<0,0>]",
}

GRAFT_CASES = {
    "graft-lambda": ("graft", "--phi", "phi_frac.json", "--a", "<1,1>", "x.txt", "y.txt"),
    "graft-table": ("graft", "--phi", "phi_table.json", "--a", "a2", "xs.txt", "ys.txt"),
    "graft-free-lambda": ("graft-free", "--phi", "phi_frac.json", "--a", "<1,1>", "x.txt", "y.txt"),
    "graft-free-table": ("graft-free", "--phi", "phi_table.json", "--a", "a2", "xs.txt", "ys.txt"),
    "psi-check-clean": ("psi-check", "--psi", "psi_d0.json", "--phi", "phi_d0.json", "--bound", "2"),
    "psi-check-defects": ("psi-check", "--psi", "psi_d0.json", "--phi", "phi_d0_two.json", "--bound", "2"),
    "postlie-check-zero": ("postlie-check", "--phi", "phi_d0.json", "--psi", "psi_d0.json", "u.txt", "v.txt", "w.txt"),
    "postlie-check-residual": (
        "postlie-check", "--phi", "phi_d0_two.json", "--psi", "psi_d0.json", "u.txt", "v.txt", "w.txt",
    ),
}

SUBCOMMANDS = (
    "apply-phi", "check-compat", "graft", "graft-free", "theta", "star", "coprod", "deshuffle",
    "pair", "postlie-check", "psi-check", "spde-demo", "classify-m2", "verify-suite",
)

# Cases whose output argparse writes: one form each, run without --format.
ARGPARSE_CASES = {
    "help": ("--help",),
    **{f"help-{name}": (name, "--help") for name in SUBCOMMANDS},
    "missing-flag": ("theta", "x.txt"),
}

GOLDEN_CASES = {
    **GRAFT_CASES,
    "apply-phi": ("apply-phi", "--phi", "phi_frac.json", "--a", "<1,1>", "--b", "<2,1>"),
    "check-compat-compatible": ("check-compat", "--phi", "phi_identity.json"),
    "check-compat-refuted": ("check-compat", "--phi", "phi_table.json"),
    "check-compat-bounded": ("check-compat", "--phi", "phi_frac.json", "--bound", "2"),
    "theta": ("theta", "--phi", "phi_frac.json", "y.txt"),
    "star": ("star", "--phi", "phi_frac.json", "f1.txt", "f2.txt"),
    "coprod": ("coprod", "--phi", "phi_frac.json", "f1.txt"),
    "deshuffle": ("deshuffle", "--phi", "phi_frac.json", "f1.txt"),
    "pair": ("pair", "--phi", "phi_frac.json", "f1.txt", "f1.txt"),
    "classify-m2-jd": ("classify-m2", "--phi", "grid_jd.json"),
    "classify-m2-diagonal": ("classify-m2", "--phi", "grid_diag.json"),
    "classify-m2-noncommuting": ("classify-m2", "--phi", "grid_noncommuting.json"),
    "classify-m2-irrational": ("classify-m2", "--phi", "grid_irrational.json"),
    **{
        f"spde-demo-d{d}{'-noise' if noise else ''}": ("spde-demo", "--d", str(d), *(("--noise",) if noise else ()))
        for d in (0, 1, 2)
        for noise in (False, True)
    },
    "spde-demo-lambda": ("spde-demo", "--d", "1", "--lambda", "1,-1/2"),
    "refused": ("theta", "--phi", "phi_table.json", "ys.txt"),
    "parse-error": ("theta", "--phi", "phi_frac.json", "broken.txt"),
    **ARGPARSE_CASES,
}


def golden_forms(case):
    return ("text",) if case in ARGPARSE_CASES else ("text", "structured")


def write_golden_inputs(directory):
    for name, content in GOLDEN_INPUTS.items():
        if name.endswith(".json"):
            jfile(directory, name, content)
        else:
            tfile(directory, name, content)


def golden_argv(case, fmt):
    """The argv of ``case`` in form ``fmt``, naming its input files relative to their directory."""
    argv = list(GOLDEN_CASES[case])
    return argv if case in ARGPARSE_CASES else argv + ["--format", fmt]


def run_in(directory, argv):
    """``rtcalc argv`` run in this process from ``directory``, with help text wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(home)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize(
    "case, fmt", [(case, fmt) for case in sorted(GOLDEN_CASES) for fmt in golden_forms(case)]
)
def test_cli_matches_the_recorded_bytes(tmp_path, case, fmt):
    if case in ARGPARSE_CASES and GOLDENS["argparse_python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip("argparse lays out usage and help differently in other Python versions")
    write_golden_inputs(tmp_path)
    assert run_in(tmp_path, golden_argv(case, fmt)) == GOLDENS["cases"][case][fmt]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("case", sorted(GRAFT_CASES))
def test_grafting_commands_match_the_recorded_bytes(tmp_path, case, fmt):
    want = GOLDENS["cases"][case][fmt]
    write_golden_inputs(tmp_path)
    argv = [str(tmp_path / arg) if arg in GOLDEN_INPUTS else arg for arg in golden_argv(case, fmt)]
    for seed in (0, 1):
        code, out, err = run_process(*argv, hash_seed=seed)
        assert {"code": code, "stdout": out, "stderr": err} == want, (case, fmt, seed)


# sha256 of `rtcalc verify-suite --level small --format structured`, recorded
# before trees and labels were interned.
VERIFY_SMALL_SHA256 = "0d5cafb81af957c822509a0fe51e21515621d0ce11594eaf6c47be3c1d2c3433"


@pytest.mark.parametrize("seed", [0, 1])
def test_output_does_not_depend_on_the_hash_seed(tmp_path, seed):
    # Interned values hash by identity, so a set of them iterates in an
    # order set by allocation; none of that order may reach the output.
    write_golden_inputs(tmp_path)
    for case in ("star", "coprod"):
        for fmt in ("text", "structured"):
            argv = [str(tmp_path / arg) if arg in GOLDEN_INPUTS else arg for arg in golden_argv(case, fmt)]
            code, out, err = run_process(*argv, hash_seed=seed)
            assert {"code": code, "stdout": out, "stderr": err} == GOLDENS["cases"][case][fmt], (case, fmt)
    code, out, err = run_process("verify-suite", "--level", "small", "--format", "structured", hash_seed=seed)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SMALL_SHA256


def test_graft_on_a_240_deep_ladder_gives_the_recorded_bytes(tmp_path):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    x = tfile(tmp_path, "x.txt", "(<0>)")
    y = tfile(tmp_path, "y.txt", ladder_text(240))
    code, out, err = run_process("graft", "--phi", phi, "--a", "<0>", x, y)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["ladder_240_sha256"]


def test_graft_on_a_too_deep_ladder_exits_2_without_traceback(tmp_path):
    phi = jfile(tmp_path, "phi.json", PHI_D0)
    x = tfile(tmp_path, "x.txt", "(<0>)")
    y = tfile(tmp_path, "y.txt", ladder_text(1000))
    code, out, err = run_process("graft", "--phi", phi, "--a", "<0>", x, y)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert "recursion limit" in err and "nesting depth" in err
