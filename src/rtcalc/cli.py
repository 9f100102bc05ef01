"""rtcalc: compute with decorated trees and edge-vertex maps from the shell.

Every subcommand reads map descriptions from JSON files (see
:mod:`rtcalc.mapfiles`) and tree expressions from files in the textual
grammar of :mod:`rtcalc.parsing`.  Output is canonical and
byte-deterministic: combinations print in term order with reduced
rationals, and ``--format structured`` swaps the text for JSON carrying
the same data.  Exit status: 0 on success (all residuals zero), 1 when
a computation surfaces a refutation or a nonzero residual, 2 on usage,
parse, or validation errors, on input nested too deeply for the
interpreter's recursion limit, and on any other exception, which is
reported in one line as an internal error.

A subcommand is one row of :data:`SUBCOMMANDS` (its name, its help line,
the names of its flags in :data:`FLAGS`, the names of its operand files,
and its handler) plus the handler itself.  A handler whose result is a
combination prints it through :func:`_comb_out`, given the rendered
factors of one term: text joins them with `` (x) ``, structured output
has one ``[coefficient, *factors]`` row per term.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .decorations import DecorationBasis
from .hopf import cut_coproduct, delta_pairing, deshuffle, pair_forests, star_product
from .lincomb import LinComb
from .mapfiles import load_blockmatrix, load_phi, load_psi
from .parsing import parse_ext_elem, parse_forest_comb, parse_label, parse_tree_comb
from .phimaps import (
    AlreadyJD,
    IncompatiblePhi,
    NeedsAlgebraicExtension,
    NonNilpotentError,
    NotCompatible,
    Refuted,
    check_compat,
    classify_m2,
)
from .postlie import postlie_axiom_defects, psi_compat_defects, render_ext
from .prelie import graft_free, graft_phi, theta
from .spde import SpdeConfig, noise_extend, phi_lambda, spde_psi, xi_admissible


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit(args, text: str, data) -> None:
    if args.format == "structured":
        print(json.dumps(data, indent=2))
    else:
        print(text)


def _single(t) -> List[str]:
    """The factors of a tree or forest term: the term itself."""
    return [t.render()]


def _pair(t) -> List[str]:
    """The factors of a term that is a pair of labels or of forests."""
    return [t[0].render(), t[1].render()]


def _render_pair(t) -> str:
    return " (x) ".join(_pair(t))


def _comb_out(args, comb: LinComb, parts: Callable[..., List[str]]) -> int:
    _emit(
        args,
        comb.render(lambda t: " (x) ".join(parts(t))),
        {"terms": [[str(c), *parts(t)] for t, c in comb.sorted_items()]},
    )
    return 0


def _operands(args, parse: Optional[Callable] = None):
    """The map of ``--phi``, the ``--a`` edge label if the subcommand takes
    one, and its operand files parsed by ``parse`` over the map's bases,
    read in that order."""
    phi = load_phi(args.phi)
    a = parse_label(args.a, phi.edge_basis, "edge") if "a" in args else None
    return phi, a, [parse(_read(getattr(args, f)), phi.edge_basis, phi.vertex_basis) for f in args.files]


def _span(basis: DecorationBasis, bound: Optional[int], what: str) -> Sequence:
    if basis.is_finite:
        return basis.labels()
    if bound is None:
        raise UsageError(f"the {what} basis is infinite; pass an explicit --bound")
    return basis.labels_up_to(bound)


def _matrix_text(m) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in m) + "]"


def _matrix_data(m) -> list:
    return [[str(x) for x in row] for row in m]


# -- subcommand handlers


def _cmd_apply_phi(args) -> int:
    phi, a, _ = _operands(args)
    b = parse_label(args.b, phi.vertex_basis, "vertex")
    return _comb_out(args, phi(a, b), _pair)


def _cmd_check_compat(args) -> int:
    phi = load_phi(args.phi)
    finite = phi.edge_basis.is_finite and phi.vertex_basis.is_finite
    if not finite and args.bound is None:
        raise UsageError("the bases are infinite; pass an explicit --bound")
    verdict = check_compat(phi, bound=args.bound)
    data = {"verdict": type(verdict).__name__}
    if isinstance(verdict, Refuted):
        data["witness"] = [l.render() for l in verdict.witness]
    elif hasattr(verdict, "bound"):
        data["bound"] = verdict.bound
    _emit(args, str(verdict), data)
    return 1 if isinstance(verdict, Refuted) else 0


def _cmd_graft(args) -> int:
    phi, a, (x, y) = _operands(args, parse_tree_comb)
    return _comb_out(args, graft_phi(phi, x, a, y), _single)


def _cmd_graft_free(args) -> int:
    _, a, (x, y) = _operands(args, parse_tree_comb)
    return _comb_out(args, graft_free(x, a, y), _single)


def _cmd_theta(args) -> int:
    phi, _, (x,) = _operands(args, parse_tree_comb)
    return _comb_out(args, theta(phi, x), _single)


def _cmd_star(args) -> int:
    phi, _, (x, y) = _operands(args, parse_forest_comb)
    return _comb_out(args, star_product(phi, x, y), _single)


def _cmd_coprod(args) -> int:
    phi, _, (x,) = _operands(args, parse_forest_comb)
    return _comb_out(args, cut_coproduct(phi, x), _pair)


def _cmd_deshuffle(args) -> int:
    _, _, (x,) = _operands(args, parse_forest_comb)
    return _comb_out(args, deshuffle(x), _pair)


def _cmd_pair(args) -> int:
    _, _, (xprime, y) = _operands(args, parse_forest_comb)
    value = pair_forests(delta_pairing(), xprime, y)
    _emit(args, str(value), {"value": str(value)})
    return 0


def _cmd_postlie_check(args) -> int:
    phi = load_phi(args.phi)
    base, psi = load_psi(args.psi, (phi.edge_basis, phi.vertex_basis))
    elems = [
        parse_ext_elem(_read(getattr(args, f)), phi.edge_basis, phi.vertex_basis, base.names) for f in args.files
    ]
    defects = postlie_axiom_defects(phi, base, psi, *elems)
    data = {name: render_ext(getattr(defects, name)) for name in ("jacobi", "derivation", "associator")}
    _emit(args, "\n".join(f"{name}: {d}" for name, d in data.items()), {**data, "all_zero": defects.all_zero})
    return 0 if defects.all_zero else 1


def _cmd_psi_check(args) -> int:
    phi = load_phi(args.phi)
    base, psi = load_psi(args.psi, (phi.edge_basis, phi.vertex_basis))
    edge_labels = _span(phi.edge_basis, args.bound, "edge")
    vertex_labels = _span(phi.vertex_basis, args.bound, "vertex")
    defects = psi_compat_defects(phi, base, psi, edge_labels, vertex_labels)
    rows = [
        {
            "condition": d.condition,
            "gens": list(d.gens),
            "label": _render_defect_term(d.label),
            "residual": d.residual.render(_render_defect_term),
        }
        for d in defects
    ]
    text = "\n".join(
        f"{r['condition']} at gens=({', '.join(r['gens'])}) label={r['label']}: {r['residual']}" for r in rows
    ) or f"no defects on {len(edge_labels)} edge label(s) x {len(vertex_labels)} vertex label(s)"
    _emit(args, text, {"defects": rows})
    return 1 if rows else 0


def _render_defect_term(t) -> str:
    """Defect slots hold either one label or an (edge, vertex) pair."""
    if isinstance(t, tuple):
        return _render_pair(t)
    return t.render()


def _parse_lambda(args, d: int) -> Tuple[Fraction, ...]:
    if args.lam is None:
        return tuple(Fraction(1) for _ in range(d + 1))
    try:
        parts = tuple(Fraction(part.strip()) for part in args.lam.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --lambda: {e}")
    if len(parts) != d + 1:
        raise UsageError(f"--lambda needs {d + 1} coefficients, got {len(parts)}")
    return parts


def _cmd_spde_demo(args) -> int:
    from .decorations import STAR, XI, mi_unit, mi_zero
    from .trees import PlantedTree, leaf, node

    d = args.d
    lam = _parse_lambda(args, d)
    try:
        cfg = SpdeConfig(d, lam)
    except ValueError as e:
        raise UsageError(str(e))
    lines: List[str] = []
    lam_text = ",".join(str(c) for c in cfg.lam)
    lines.append(f"config: d={d} lambda=({lam_text}) noise={'on' if args.noise else 'off'}")

    zero = mi_zero(d)
    e0 = mi_unit(0, d)
    a = e0.add(e0)
    b = a.add(e0 if d == 0 else mi_unit(d, d))
    phi = phi_lambda(cfg)
    lines.append(f"phi({a.render()} (x) {b.render()}) = " + phi(a, b).render(_render_pair))
    back = phi_lambda(cfg.negated()).apply(phi(a, b))
    lines.append(
        "inverse check: phi^(-lambda) applied to that image = " + back.render(_render_pair)
    )

    x = LinComb.of(leaf(a))
    y = LinComb.of(node(b, [(e0, leaf(zero))]))
    g = graft_phi(phi, x, e0, y)
    lines.append(f"graft of {a.render()}-leaf onto a 2-chain along {e0.render()}:")
    lines.append("  " + g.render(lambda t: t.render()))

    chain = node(a, [(e0, leaf(zero))])
    lines.append(
        f"theta on {chain.render()} = " + theta(phi, LinComb.of(chain)).render(lambda t: t.render())
    )

    base, psi = spde_psi(cfg.d)
    lines.append(
        f"psi vertex action {base.names[0]} on {zero.render()} = "
        + psi.vertex(base.names[0], zero).render(lambda l: l.render())
    )
    lines.append(
        f"psi edge action {base.names[0]} on {zero.render()} = "
        + psi.edge(base.names[0], zero).render(lambda l: l.render())
    )

    if args.noise:
        ext = noise_extend(cfg)
        lines.append(f"extended phi on Xi (x) {b.render()} = " + ext(XI, b).render(_render_pair))
        lines.append(f"extended phi on {a.render()} (x) * = " + ext(a, STAR).render(_render_pair))
        noisy = node(b, [(e0, leaf(zero)), (XI, leaf(STAR))])
        g2 = graft_phi(ext, x, e0, LinComb.of(noisy))
        lines.append("graft onto a tree with a noise branch (no term lands on *):")
        lines.append("  " + g2.render(lambda t: t.render()))
        good = PlantedTree(XI, leaf(STAR))
        bad = PlantedTree(XI, leaf(zero))
        lines.append(f"admissible {good.render()}: {xi_admissible(good)}")
        lines.append(f"admissible {bad.render()}: {xi_admissible(bad)}")

    text = "\n".join(lines)
    _emit(args, text, {"lines": lines})
    return 0


def _cmd_classify_m2(args) -> int:
    M = load_blockmatrix(args.phi)
    result = classify_m2(M)
    if isinstance(result, AlreadyJD):
        text = "\n".join(
            [
                f"AlreadyJD(form={result.form})",
                f"a = {_matrix_text(result.a)}",
                f"b = {_matrix_text(result.b)}",
                f"basis change = {_matrix_text(result.basis_change)}",
            ]
        )
        data = {
            "result": "AlreadyJD",
            "form": result.form,
            "a": _matrix_data(result.a),
            "b": _matrix_data(result.b),
            "basis_change": _matrix_data(result.basis_change),
        }
        _emit(args, text, data)
        return 0
    if isinstance(result, NotCompatible):
        (i, j), (k, l) = result.witness
        text = f"NotCompatible: blocks ({i},{j}) and ({k},{l}) do not commute"
        _emit(args, text, {"result": "NotCompatible", "witness": [[i, j], [k, l]]})
        return 1
    assert isinstance(result, NeedsAlgebraicExtension)
    i, j = result.block
    text = f"NeedsAlgebraicExtension: block ({i},{j}) has no rational eigenvalue"
    _emit(args, text, {"result": "NeedsAlgebraicExtension", "block": [i, j]})
    return 0


def _cmd_verify_suite(args) -> int:
    from .verify import battery

    results = battery(args.level)
    width = max(len(r.name) for r in results)
    lines = [
        f"{'ok  ' if r.ok else 'FAIL'} {r.name.ljust(width)}  {r.detail}" for r in results
    ]
    ok = all(r.ok for r in results)
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} checks passed at level {args.level}")
    _emit(
        args,
        "\n".join(lines),
        {"level": args.level, "ok": ok, "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]},
    )
    return 0 if ok else 1


# -- parser assembly


def nonnegative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return int(text)


FLAGS = {
    "phi": dict(required=True, metavar="FILE", help="map description (JSON)"),
    "psi": dict(required=True, metavar="FILE", help="generator-action description (JSON)"),
    "a": dict(required=True, metavar="LABEL", help="edge label"),
    "b": dict(required=True, metavar="LABEL", help="vertex label"),
    "bound": dict(type=nonnegative_int, metavar="N", help="entry bound for infinite bases"),
    "d": dict(type=int, required=True, metavar="N"),
    "lambda": dict(dest="lam", metavar="CSV", help="d+1 rationals (default: all 1)"),
    "noise": dict(action="store_true"),
    "level": dict(choices=("small", "full"), default="small"),
}

# (name, help, flags, operand files, handler), in the order --help lists them.
SUBCOMMANDS = (
    ("apply-phi", "apply a map to one (edge, vertex) pair", ("phi", "a", "b"), (), _cmd_apply_phi),
    ("check-compat", "tree-compatibility verdict for a map", ("phi", "bound"), (), _cmd_check_compat),
    ("graft", "deformed grafting of two tree expressions", ("phi", "a"), ("x", "y"), _cmd_graft),
    ("graft-free", "plain grafting (the map supplies bases only)", ("phi", "a"), ("x", "y"), _cmd_graft_free),
    ("theta", "edge-product operator on a tree expression", ("phi",), ("x",), _cmd_theta),
    ("star", "deformed Grossman-Larson product of forests", ("phi",), ("x", "y"), _cmd_star),
    ("coprod", "deformed cut coproduct of a forest expression", ("phi",), ("x",), _cmd_coprod),
    ("deshuffle", "deshuffle coproduct (the map supplies bases only)", ("phi",), ("x",), _cmd_deshuffle),
    ("pair", "dual pairing of a primed and an unprimed forest", ("phi",), ("xprime", "y"), _cmd_pair),
    (
        "postlie-check",
        "axiom residuals on the extension, for three elements",
        ("phi", "psi"),
        ("u", "v", "w"),
        _cmd_postlie_check,
    ),
    (
        "psi-check",
        "compatibility residuals of generator actions against a map",
        ("phi", "psi", "bound"),
        (),
        _cmd_psi_check,
    ),
    ("spde-demo", "worked multi-index examples for a chosen dimension", ("d", "lambda", "noise"), (), _cmd_spde_demo),
    ("classify-m2", "joint normal form of a 'blocks' map with 2-dim vertex side", ("phi",), (), _cmd_classify_m2),
    ("verify-suite", "run the property battery", ("level",), (), _cmd_verify_suite),
)


def _add_common(sp, flags: Sequence[str]) -> None:
    for name in flags:
        sp.add_argument(f"--{name}", **FLAGS[name])
    sp.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtcalc",
        description="exact computations with decorated rooted trees and edge-vertex maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, flags, files, handler in SUBCOMMANDS:
        sp = sub.add_parser(name, help=summary)
        _add_common(sp, flags)
        for f in files:
            sp.add_argument(f, metavar=f"{f.upper()}_FILE")
        sp.set_defaults(func=handler, files=files)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, NonNilpotentError, OSError, ValueError) as e:
        # ParseError and MapFileError are ValueErrors.
        print(f"rtcalc: error: {e}", file=sys.stderr)
        return 2
    except IncompatiblePhi as e:
        print(f"rtcalc: incompatible map: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print(
            f"rtcalc: error: recursion limit ({sys.getrecursionlimit()} frames) exceeded; "
            "the nesting depth of the input may be too great",
            file=sys.stderr,
        )
        return 2
    except Exception as e:  # noqa: BLE001 - exit 1 is reserved for refutations
        message = " ".join(str(e).splitlines())
        print(f"rtcalc: internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
