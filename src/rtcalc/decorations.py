r"""Decoration labels for tree edges and vertices, and the bases they live in.

Four kinds of label coexist:

* ``Sym`` -- a named symbol from a finite basis,
* ``MultiIndex`` -- a tuple of d+1 nonnegative integers,
* ``XI`` -- the extra edge label of a noise-extended multi-index basis,
* ``STAR`` -- the extra vertex label of a noise-extended multi-index basis.

Symbols and multi-indices are interned; XI and STAR are the only two
noise labels.  Every label has a ``sort_key``, a ``str`` made once with
the label, giving a total order across kinds: symbols first (by basis id,
then name), then multi-indices lexicographically, then STAR and XI above
every multi-index.  A key is a kind code (``"\x01"``, ``"\x02"``,
``"\x03"``) followed by self-delimiting, order-preserving codes of its
fields (:func:`_str_code`, :func:`_int_code`), so string comparison
orders keys as the (kind, fields) tuples, no label key is a prefix of
another, and ``"\x00"`` sorts below every label key; the tree keys of
:mod:`rtcalc.trees` end each subtree with it.

A noise-extended basis is the direct-sum basis ``union_bases(
MultiIndexBasis(d), NoiseOnlyBasis(noise))``; the multi-indices come first
in either argument order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from math import comb
from typing import Iterable, Optional, Sequence, Tuple

from .intern import Interned, store, table
from .lincomb import Scalar, as_scalar

_MULTI_INDICES, _SYMBOLS = table(), table()


def _str_code(s: str) -> str:
    r"""``s`` with ``\x01`` and ``\x00`` escaped as ``\x01\x02`` and ``\x01\x01``,
    then an ``\x00`` end: ordered as ``s``, and no prefix of another's code."""
    return s.replace("\x01", "\x01\x02").replace("\x00", "\x01\x01") + "\x00"


def _int_code(e: int) -> str:
    r"""A self-delimiting code of ``e`` >= 0, ordered as ``e`` and above ``"\x00"``:
    ``chr(e + 1)`` below 254, else ``"\xff"``, the code of the byte length n
    of ``v = e - 254``, and the n big-endian bytes of v."""
    if e < 254:
        return chr(e + 1)
    n = ((e - 254).bit_length() + 7) // 8 or 1
    return "\xff" + _int_code(n) + (e - 254).to_bytes(n, "big").decode("latin-1")


class MultiIndex(Interned):
    """A multi-index in N^{d+1}; ``entries[j]`` counts the direction j.

    Interned: equal multi-indices are one object, whose sort key and
    rendered text are computed once, when it is made.  The entries are
    checked then too, so a value already in the table is not checked again.
    """

    __slots__ = ("entries", "sort_key", "_text")

    def __new__(cls, entries: Tuple[int, ...]):
        ref = _MULTI_INDICES[0].get(entries)
        if ref is not None and (m := ref()) is not None:
            return m
        if not all(type(e) is int and e >= 0 for e in entries):
            raise ValueError(f"multi-index entries must be nonnegative ints: {entries}")
        m = object.__new__(cls)
        m.entries = entries
        m.sort_key = "\x02" + "".join(map(_int_code, entries)) + "\x00"
        m._text = "<" + ",".join(map(str, entries)) + ">"
        return store(_MULTI_INDICES, entries, m)

    def __reduce__(self):
        return MultiIndex, (self.entries,)

    def render(self) -> str:
        return self._text

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> int:
        return self.entries[j]

    @property
    def degree(self) -> int:
        """The total degree |a| = sum of the entries."""
        return sum(self.entries)

    def leq(self, other: "MultiIndex") -> bool:
        """Entrywise <=."""
        _same_length(self, other)
        return all(x <= y for x, y in zip(self.entries, other.entries))

    def min_with(self, other: "MultiIndex") -> "MultiIndex":
        """Entrywise minimum."""
        _same_length(self, other)
        return MultiIndex(tuple(min(x, y) for x, y in zip(self.entries, other.entries)))

    def add(self, other: "MultiIndex") -> "MultiIndex":
        _same_length(self, other)
        return MultiIndex(tuple(x + y for x, y in zip(self.entries, other.entries)))

    def sub(self, other: "MultiIndex") -> Optional["MultiIndex"]:
        """Entrywise difference, or None when any entry would go negative.

        The None result is the explicit "vanishes" outcome; it is not the
        zero multi-index.
        """
        _same_length(self, other)
        diff = tuple(x - y for x, y in zip(self.entries, other.entries))
        if any(e < 0 for e in diff):
            return None
        return MultiIndex(diff)

    def binom(self, lower: "MultiIndex") -> int:
        """Product of entrywise binomial coefficients; requires lower <= self."""
        if not lower.leq(self):
            raise ValueError(f"binom needs {lower.render()} <= {self.render()}")
        out = 1
        for b, l in zip(self.entries, lower.entries):
            out *= comb(b, l)
        return out

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries}"


def _same_length(a: MultiIndex, b: MultiIndex) -> None:
    if len(a) != len(b):
        raise ValueError(f"multi-index length mismatch: {a.render()} vs {b.render()}")


def mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def mi_zero(d: int) -> MultiIndex:
    return MultiIndex((0,) * (d + 1))


def mi_unit(j: int, d: int) -> MultiIndex:
    """The j-th coordinate multi-index in N^{d+1}."""
    if not 0 <= j <= d:
        raise ValueError(f"direction {j} out of range for d={d}")
    return MultiIndex(tuple(1 if i == j else 0 for i in range(d + 1)))


def lambda_pow(lams: Sequence[Scalar], l: MultiIndex) -> Scalar:
    """The monomial lambda^l with the 0^0 = 1 convention."""
    if len(lams) != len(l):
        raise ValueError("coefficient vector and multi-index lengths differ")
    out = 1
    for lam, e in zip(lams, l.entries):
        out *= as_scalar(lam) ** e
    return as_scalar(out)


class Sym(Interned):
    """A named basis symbol; ``basis_id`` keeps distinct bases disjoint.

    Interned, like :class:`MultiIndex`: equal symbols are one object, whose
    sort key is computed once, when it is made.
    """

    __slots__ = ("basis_id", "name", "sort_key")

    def __new__(cls, basis_id: str, name: str):
        key = (basis_id, name)
        ref = _SYMBOLS[0].get(key)
        if ref is not None and (s := ref()) is not None:
            return s
        if not (isinstance(basis_id, str) and isinstance(name, str)):
            raise TypeError(f"a symbol's basis id and name must be strings: {key!r}")
        s = object.__new__(cls)
        s.basis_id = basis_id
        s.name = name
        s.sort_key = "\x01" + _str_code(basis_id) + _str_code(name)
        return store(_SYMBOLS, key, s)

    def __reduce__(self):
        return Sym, (self.basis_id, self.name)

    def __repr__(self) -> str:
        return f"Sym(basis_id={self.basis_id!r}, name={self.name!r})"

    def render(self) -> str:
        return self.name


class Noise:
    """One of the two reserved noise labels, ``XI`` and ``STAR``.

    No other is made, so a noise label hashes and compares by identity, as
    an interned label does, and keeps its sort key in a slot.
    """

    __slots__ = ("symbol", "sort_key")

    def __init__(self, symbol: str):
        self.symbol = symbol
        # Above every multi-index; STAR and XI stay mutually ordered.
        self.sort_key = "\x03" + _str_code(symbol)

    def __reduce__(self):
        # Pickled by name, so that a copy is XI or STAR itself.
        return {"Xi": "XI", "*": "STAR"}[self.symbol]

    def __repr__(self) -> str:
        return f"Noise(symbol={self.symbol!r})"

    def render(self) -> str:
        return self.symbol


XI = Noise("Xi")
STAR = Noise("*")


Label = Sym | MultiIndex | Noise


# ---------------------------------------------------------------------------
# Decoration bases


class DecorationBasis:
    """Common surface of the basis kinds below."""

    is_finite: bool = False

    def contains(self, label: Label) -> bool:
        raise NotImplementedError

    def labels(self) -> Tuple[Label, ...]:
        raise ValueError(f"{self!r} is not a finite basis")

    def labels_up_to(self, bound: int) -> Tuple[Label, ...]:
        """A finite slice of the basis; the whole basis when it is finite."""
        return self.labels()

    def resolve_name(self, name: str) -> Optional[Label]:
        """The label a bare symbol name denotes in this basis, if any."""
        return None


@dataclass(frozen=True)
class SymbolBasis(DecorationBasis):
    """A finite basis of named symbols, which it keeps alive."""

    basis_id: str
    names: Tuple[str, ...]
    _labels: Tuple[Sym, ...] = field(init=False, repr=False, compare=False)

    is_finite = True

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate names in basis {self.basis_id}")
        object.__setattr__(self, "_labels", tuple(Sym(self.basis_id, n) for n in self.names))

    def contains(self, label: Label) -> bool:
        return isinstance(label, Sym) and label.basis_id == self.basis_id and label.name in self.names

    def labels(self) -> Tuple[Label, ...]:
        return self._labels

    def resolve_name(self, name: str) -> Optional[Label]:
        return Sym(self.basis_id, name) if name in self.names else None


def symbols(basis_id: str, names: Iterable[str]) -> SymbolBasis:
    return SymbolBasis(basis_id, tuple(names))


@dataclass(frozen=True)
class MultiIndexBasis(DecorationBasis):
    d: int

    is_finite = False

    def contains(self, label: Label) -> bool:
        return isinstance(label, MultiIndex) and len(label.entries) == self.d + 1

    def labels_up_to(self, bound: int) -> Tuple[Label, ...]:
        rng = range(bound + 1)
        return tuple(MultiIndex(t) for t in iproduct(rng, repeat=self.d + 1))


@dataclass(frozen=True)
class NoiseOnlyBasis(DecorationBasis):
    """The one-dimensional span of a single noise label."""

    noise: Noise

    is_finite = True

    def contains(self, label: Label) -> bool:
        return label == self.noise

    def labels(self) -> Tuple[Label, ...]:
        return (self.noise,)

    def resolve_name(self, name: str) -> Optional[Label]:
        if self.noise is XI and name == "Xi":
            return XI
        return None


@dataclass(frozen=True)
class UnionBasis(DecorationBasis):
    left: DecorationBasis
    right: DecorationBasis

    @property
    def is_finite(self) -> bool:  # type: ignore[override]
        return self.left.is_finite and self.right.is_finite

    def contains(self, label: Label) -> bool:
        return self.left.contains(label) or self.right.contains(label)

    def labels(self) -> Tuple[Label, ...]:
        return self.left.labels() + self.right.labels()

    def labels_up_to(self, bound: int) -> Tuple[Label, ...]:
        return self.left.labels_up_to(bound) + self.right.labels_up_to(bound)

    def resolve_name(self, name: str) -> Optional[Label]:
        return self.left.resolve_name(name) or self.right.resolve_name(name)


def _summands(b: DecorationBasis) -> Tuple[DecorationBasis, ...]:
    """The basis split into parts of one kind each."""
    if isinstance(b, UnionBasis):
        return _summands(b.left) + _summands(b.right)
    return (b,)


def bases_disjoint(b1: DecorationBasis, b2: DecorationBasis) -> bool:
    """Structural disjointness check for a direct sum.

    Unions are split into their parts, which must be pairwise disjoint.
    Parts of different types never share a label; two finite parts are
    disjoint when their labels are, and two multi-index bases when their
    lengths differ.
    """
    return all(_parts_disjoint(x, y) for x in _summands(b1) for y in _summands(b2))


def _parts_disjoint(b1: DecorationBasis, b2: DecorationBasis) -> bool:
    if type(b1) is not type(b2):
        return True
    if b1.is_finite and b2.is_finite:
        return set(b1.labels()).isdisjoint(b2.labels())
    return b1.d != b2.d


def union_bases(b1: DecorationBasis, b2: DecorationBasis) -> UnionBasis:
    """The basis of a direct sum.

    A noise line given before a multi-index basis is put after it, so the
    noise-extended basis is one value whichever order the summands come
    in, and its noise label is last in ``labels_up_to``.
    """
    if not bases_disjoint(b1, b2):
        raise ValueError("direct sum needs disjoint bases")
    if isinstance(b1, NoiseOnlyBasis) and isinstance(b2, MultiIndexBasis):
        b1, b2 = b2, b1
    return UnionBasis(b1, b2)
