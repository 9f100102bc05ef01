"""JSON descriptions of edge-vertex maps, generator actions, and block grids.

A map file is one JSON object selected by its ``builder`` field.  Bases
are denoted by objects like ``{"kind": "symbols", "id": "a", "names":
["a1", "a2"]}`` or ``{"kind": "multiindex", "d": 1}``; the noise label
of ``multiindex_noise`` and ``noise_only`` bases is chosen by the slot
they appear in (edge slots get Xi, vertex slots get *).  A
``multiindex_noise`` basis is the direct-sum basis ``union_bases(
MultiIndexBasis(d), NoiseOnlyBasis(noise))``, the basis ``noise_extend``
acts on; its noise label comes after the multi-indices.  Rationals are
JSON integers or strings like ``"1/2"``; labels are strings in the same
syntax the expression parser accepts, so a symbol name it cannot read
back is refused, as is a basis ``id`` or a generator name that is not a
string.  Builders that take another map (``compose``, ``exp``, ...) nest
the description inline.  An action file names no basis: it is read over
the bases of the map it acts with, ``spde_psi`` taking ``d`` and the
noise labels from them and ``psi_tables`` parsing its labels over them;
it is also the one place the generator algebra P is read.

Each builder and basis kind reads the keys that ``_READS`` lists for
it, besides ``builder`` or ``kind``; any other key is refused by name, in
nested maps and bases too, so a misspelt optional key does not silently
take its default.  That includes ``name``: maps carry no names.  The
other objects of a file are key-checked the same way: a ``jd`` object
reads ``A``, ``B`` and ``form``; each entry of ``entries``, ``edge``,
``vertex``, ``bracket`` and ``triangle`` reads ``on`` and ``terms``.
:func:`_only` makes every such refusal.

A malformed file raises :class:`MapFileError` (a ``ValueError``) whose
message starts with its location once: the file path, extended by
``.of``, ``.first`` and the like for a nested map, by ``.edge_basis`` or
``.vertex_basis`` for a basis, and by ``: entries[k]`` for one entry of a
list.  The checks in this module raise it with the location already in
front.  The builders of the other modules raise plain ``ValueError``s,
and :func:`_located` puts the location in front of those; it lets a
``MapFileError`` from a nested check through unchanged, so no location is
printed twice.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from .decorations import (
    STAR,
    XI,
    DecorationBasis,
    MultiIndexBasis,
    NoiseOnlyBasis,
    SymbolBasis,
    UnionBasis,
    union_bases,
)
from .lincomb import LinComb, Scalar, as_scalar
from .parsing import ParseError, parse_label
from .phimaps import (
    BlockMatrix,
    PhiMap,
    block_matrix,
    build_JD,
    compose,
    direct_sum,
    exp_series,
    from_blocks,
    from_table,
    identity_map,
    polynomial,
    tensor_map,
    transpose_map,
    zero_map,
)
from .postlie import PostLieBase, PsiPair, postlie_base, psi_from_tables
from .ratmat import mat
from .spde import SpdeConfig, noise_extend, partial_lambda, phi_lambda, phi_lambda_via_exp, spde_psi


class MapFileError(ValueError):
    pass


@contextmanager
def _located(where: str) -> Iterator[None]:
    """Name ``where`` in front of a ``ValueError`` raised inside; a
    ``MapFileError`` names its place already and goes through unchanged."""
    try:
        yield
    except MapFileError:
        raise
    except ValueError as e:
        raise MapFileError(f"{where}: {e}")


# The SPDE map builders, each read from ``d`` and ``lambda``.
_SPDE_MAPS: Dict[str, Callable[[SpdeConfig], PhiMap]] = {
    "phi_lambda": phi_lambda,
    "partial_lambda": partial_lambda,
    "phi_lambda_exp": phi_lambda_via_exp,
    "noise_extend": noise_extend,
}

# The keys each map builder, action builder and basis kind reads.
_READS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "map": {
        "identity": ("edge_basis", "vertex_basis"),
        "zero": ("edge_basis", "vertex_basis"),
        "table": ("edge_basis", "vertex_basis", "entries"),
        **{name: ("d", "lambda") for name in _SPDE_MAPS},
        "blocks": ("blocks", "jd", "edge_basis", "vertex_basis"),
        "tensor": ("edge_basis", "vertex_basis", "f", "g"),
        "direct_sum": ("first", "second", "lam", "mu"),
        "compose": ("outer", "inner"),
        "exp": ("of", "max_iter"),
        "polynomial": ("of", "coeffs"),
        "transpose": ("of",),
    },
    "action": {
        "spde_psi": (),
        "psi_tables": ("generators", "edge", "vertex", "bracket", "triangle"),
    },
    "basis": {"symbols": ("id", "names"), "multiindex": ("d",), "multiindex_noise": ("d",), "noise_only": ()},
}


def _kind(obj: dict, table: str, where: str) -> str:
    """The builder or basis kind of ``obj``, one of ``_READS[table]``; a key
    of ``obj`` that this kind does not read is refused by name."""
    field, what = ("kind", "basis kind") if table == "basis" else ("builder", "builder")
    kind = _req(obj, field, where)
    reads = _READS[table].get(kind) if isinstance(kind, str) else None
    if reads is None:
        raise MapFileError(f"{where}: unknown {what} {kind!r}")
    _only(obj, (field, *reads), where, f"{what} {kind!r}")
    return kind


def _only(obj: dict, reads: Tuple[str, ...], where: str, what: str) -> None:
    """Refuse by name each key of ``obj`` outside ``reads``; ``what`` names the reader."""
    unread = sorted(set(obj) - set(reads))
    if unread:
        raise MapFileError(f"{where}: {what} does not read {', '.join(map(repr, unread))}")


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise MapFileError(f"{where}: missing {key!r}")
    return obj[key]


def _int(obj: dict, key: str, where: str, default: Optional[int] = None) -> int:
    """The nonnegative integer under ``key``; every integer field of a map file is a size or a count."""
    x = _req(obj, key, where) if default is None else obj.get(key, default)
    if isinstance(x, bool) or not isinstance(x, int):
        raise MapFileError(f"{where}: {key!r} must be an integer, not {x!r}")
    if x < 0:
        raise MapFileError(f"{where}: {key!r} must be nonnegative, not {x!r}")
    return x


def _list(x, key: str, where: str) -> list:
    if not isinstance(x, list):
        raise MapFileError(f"{where}: {key!r} must be a list, not {x!r}")
    return x


def _rows(x, key: str, where: str) -> list:
    """``x`` checked to be a nonempty list of nonempty lists of one length."""
    if not (isinstance(x, list) and x and all(isinstance(r, list) and r for r in x) and len({len(r) for r in x}) == 1):
        raise MapFileError(f"{where}: {key!r} must be a nonempty list of nonempty rows of equal length")
    return x


def _entries(x, key: str, where: str, on: Tuple[str, str], term: Tuple[str, ...]) -> Iterator[Tuple[str, list, list]]:
    """The ``{"on": [p, q], "terms": [...]}`` objects of the list ``x`` under ``key``, checked.

    Yields (position, on, terms) per entry; ``on`` is a pair and every term
    is a list of ``len(term)`` items, named by ``term`` in error messages.
    """
    for k, entry in enumerate(_list(x, key, where)):
        spot = f"{where}: {key}[{k}]"
        if not isinstance(entry, dict):
            raise MapFileError(f"{spot}: each of {key!r} must be an object with 'on' and 'terms'")
        _only(entry, ("on", "terms"), spot, f"an entry of {key!r}")
        pair = _req(entry, "on", spot)
        if not isinstance(pair, list) or len(pair) != 2:
            raise MapFileError(f"{spot}: 'on' wants [{', '.join(on)}], not {pair!r}")
        terms = _list(_req(entry, "terms", spot), "terms", spot)
        for t in terms:
            if not isinstance(t, list) or len(t) != len(term):
                raise MapFileError(f"{spot}: each of 'terms' must be [{', '.join(term)}], not {t!r}")
        yield spot, pair, terms


def _name(x, what: str, where: str) -> str:
    """``x``, a basis id or generator name; ``what`` names its place in error messages."""
    if not isinstance(x, str):
        raise MapFileError(f"{where}: {what} must be a string, not {x!r}")
    return x


def _rat(x, where: str) -> Scalar:
    try:
        return as_scalar(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise MapFileError(f"{where}: bad rational {x!r} ({e})")


def _basis(obj, side: str, where: str) -> DecorationBasis:
    noise = XI if side == "edge" else STAR
    where = f"{where}.{side}_basis"
    if not isinstance(obj, dict):
        raise MapFileError(f"{where}: expected a basis object")
    kind = _kind(obj, "basis", where)
    if kind == "symbols":
        names = _list(_req(obj, "names", where), "names", where)
        if not all(isinstance(n, str) for n in names):
            raise MapFileError(f"{where}: 'names' must be a list of strings, not {names!r}")
        with _located(where):
            basis = SymbolBasis(_name(_req(obj, "id", where), "'id'", where), tuple(names))
        for n in names:
            try:
                parse_label(n, basis, side)
            except ParseError as e:
                raise MapFileError(f"{where}: name {n!r} cannot be written as a label ({e})")
        return basis
    if kind == "multiindex":
        return MultiIndexBasis(_int(obj, "d", where))
    if kind == "multiindex_noise":
        return union_bases(MultiIndexBasis(_int(obj, "d", where)), NoiseOnlyBasis(noise))
    return NoiseOnlyBasis(noise)  # noise_only


def _label(src, basis: DecorationBasis, side: str, where: str):
    try:
        return parse_label(str(src), basis, side)
    except ParseError as e:
        raise MapFileError(f"{where}: {e}")


def _matrix(rows, key: str, where: str):
    return mat([[_rat(x, where) for x in row] for row in _rows(rows, key, where)])


def _spde_config(obj: dict, where: str) -> SpdeConfig:
    d = _int(obj, "d", where)
    lam = obj.get("lambda")
    lam = [1] * (d + 1) if lam is None else _list(lam, "lambda", where)
    with _located(where):
        return SpdeConfig(d, tuple(_rat(c, where) for c in lam))


def _block_grid(obj: dict, where: str) -> BlockMatrix:
    if "jd" in obj:
        if "blocks" in obj:
            raise MapFileError(f"{where}: give 'blocks' or 'jd', not both")
        jd = obj["jd"]
        if not isinstance(jd, dict):
            raise MapFileError(f"{where}: 'jd' must be an object with keys A, B and form")
        _only(jd, ("A", "B", "form"), where, "'jd'")
        A = _matrix(_req(jd, "A", where), "jd.A", where)
        B = _matrix(_req(jd, "B", where), "jd.B", where)
        form = _req(jd, "form", where)
        with _located(where):
            return build_JD(A, B, form)
    rows = _rows(_req(obj, "blocks", where), "blocks", where)
    with _located(where):
        return block_matrix([[_matrix(blk, "blocks", where) for blk in row] for row in rows])


def _symbol_basis_opt(obj: dict, key: str, side: str, where: str) -> Optional[SymbolBasis]:
    if key not in obj:
        return None
    basis = _basis(obj[key], side, where)
    if not isinstance(basis, SymbolBasis):
        raise MapFileError(f"{where}: {key} must be a symbols basis")
    return basis


def build_phi(obj: dict, where: str = "map") -> PhiMap:
    if not isinstance(obj, dict):
        raise MapFileError(f"{where}: expected a map object")
    builder = _kind(obj, "map", where)
    if builder in ("identity", "zero"):
        E = _basis(_req(obj, "edge_basis", where), "edge", where)
        V = _basis(_req(obj, "vertex_basis", where), "vertex", where)
        return identity_map(E, V) if builder == "identity" else zero_map(E, V)

    if builder == "table":
        E = _basis(_req(obj, "edge_basis", where), "edge", where)
        V = _basis(_req(obj, "vertex_basis", where), "vertex", where)
        entries = _entries(
            _req(obj, "entries", where), "entries", where, ("edge", "vertex"), ("coefficient", "edge", "vertex")
        )
        table: Dict[Tuple, list] = {}
        for spot, (a, b), terms in entries:
            key = (_label(a, E, "edge", spot), _label(b, V, "vertex", spot))
            table.setdefault(key, []).extend(
                (_rat(c, spot), _label(a2, E, "edge", spot), _label(b2, V, "vertex", spot)) for c, a2, b2 in terms
            )
        return from_table(E, V, table)

    if builder in _SPDE_MAPS:
        return _SPDE_MAPS[builder](_spde_config(obj, where))

    if builder == "blocks":
        M = _block_grid(obj, where)
        with _located(where):
            return from_blocks(
                M,
                _symbol_basis_opt(obj, "edge_basis", "edge", where),
                _symbol_basis_opt(obj, "vertex_basis", "vertex", where),
            )

    if builder == "tensor":
        E = _basis(_req(obj, "edge_basis", where), "edge", where)
        V = _basis(_req(obj, "vertex_basis", where), "vertex", where)
        if not (E.is_finite and V.is_finite):
            raise MapFileError(f"{where}: tensor wants finite bases")
        f = _matrix(_req(obj, "f", where), "f", where)
        g = _matrix(_req(obj, "g", where), "g", where)
        return tensor_map(E, V, _matrix_action(f, E.labels(), where), _matrix_action(g, V.labels(), where))

    if builder == "direct_sum":
        first = build_phi(_req(obj, "first", where), f"{where}.first")
        second = build_phi(_req(obj, "second", where), f"{where}.second")
        lam = _rat(obj.get("lam", 0), where)
        mu = _rat(obj.get("mu", 0), where)
        with _located(where):
            return direct_sum(first, second, lam, mu)

    if builder == "compose":
        outer = build_phi(_req(obj, "outer", where), f"{where}.outer")
        inner = build_phi(_req(obj, "inner", where), f"{where}.inner")
        with _located(where):
            return compose(outer, inner)

    if builder == "exp":
        inner = build_phi(_req(obj, "of", where), f"{where}.of")
        return exp_series(inner, max_iter=_int(obj, "max_iter", where, 64))

    if builder == "polynomial":
        inner = build_phi(_req(obj, "of", where), f"{where}.of")
        return polynomial(inner, [_rat(c, where) for c in _list(_req(obj, "coeffs", where), "coeffs", where)])

    inner = build_phi(_req(obj, "of", where), f"{where}.of")  # transpose
    with _located(where):
        return transpose_map(inner)


def _matrix_action(m, labels, where: str):
    if any(len(row) != len(labels) for row in m) or len(m) != len(labels):
        raise MapFileError(f"{where}: matrix size does not match the basis")
    index = {lab: j for j, lab in enumerate(labels)}

    def act(lab):
        j = index[lab]
        return LinComb([(labels[i], m[i][j]) for i in range(len(labels)) if m[i][j]])

    return act


def build_psi(
    obj: dict, bases: Tuple[DecorationBasis, DecorationBasis], where: str = "psi"
) -> Tuple[PostLieBase, PsiPair]:
    """The generator algebra P and its actions, one datum, read over the
    (edge, vertex) ``bases`` of the map they act with: ``spde_psi`` builds
    both, and ``psi_tables`` reads P from ``generators``, ``bracket`` and
    ``triangle`` and the actions from ``edge`` and ``vertex``."""
    if not isinstance(obj, dict):
        raise MapFileError(f"{where}: expected an action object")
    builder = _kind(obj, "action", where)
    E, V = bases

    if builder == "spde_psi":
        mi = E.left if isinstance(E, UnionBasis) else E
        if isinstance(mi, MultiIndexBasis):
            noisy = (union_bases(mi, NoiseOnlyBasis(XI)), union_bases(mi, NoiseOnlyBasis(STAR)))
            if bases in ((mi, mi), noisy):
                return spde_psi(mi.d)
        raise MapFileError(f"{where}: builder 'spde_psi' needs multi-indices of one d on both sides, noise or not")

    gens = _list(_req(obj, "generators", where), "generators", where)  # psi_tables
    names = tuple(_name(n, "each of 'generators'", where) for n in gens)

    def side(key: str, basis: DecorationBasis):
        out = {}
        entries = _entries(obj.get(key, []), key, where, ("generator", "label"), ("coefficient", "label"))
        for spot, (gen, lab), terms in entries:
            if _name(gen, "a generator in 'on'", spot) not in names:
                raise MapFileError(f"{spot}: unknown generator {gen!r}")
            label = _label(lab, basis, key, spot)
            out[(gen, label)] = [(_rat(c, spot), _label(l, basis, key, spot)) for c, l in terms]
        return out

    def consts(key: str):
        entries = _entries(obj.get(key, []), key, where, ("generator", "generator"), ("coefficient", "generator"))
        on, term = "a generator in 'on'", "a generator in 'terms'"
        return {
            (_name(p, on, spot), _name(q, on, spot)): [(_rat(c, spot), _name(r, term, spot)) for c, r in terms]
            for spot, (p, q), terms in entries
        }

    psi = psi_from_tables(side("edge", E), side("vertex", V))
    with _located(where):
        return postlie_base(names, consts("bracket"), consts("triangle")), psi


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise MapFileError(f"{path}: {e}")
    except json.JSONDecodeError as e:
        raise MapFileError(f"{path}: not valid JSON ({e})")


def load_phi(path: str) -> PhiMap:
    return build_phi(_load(path), path)


def load_psi(path: str, bases: Tuple[DecorationBasis, DecorationBasis]) -> Tuple[PostLieBase, PsiPair]:
    return build_psi(_load(path), bases, path)


def load_blockmatrix(path: str) -> BlockMatrix:
    obj = _load(path)
    if not isinstance(obj, dict) or obj.get("builder") != "blocks":
        raise MapFileError(f"{path}: expected a 'blocks' map")
    _kind(obj, "map", path)
    return _block_grid(obj, path)
