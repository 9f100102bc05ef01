"""Exact scalars and finite formal linear combinations.

Coefficients are exact rationals, stored as an ``int`` until a denominator
appears and as a ``fractions.Fraction`` (lowest terms, positive
denominator) only when the reduced denominator is greater than 1.  Every
coefficient a :class:`LinComb` stores passes through :func:`as_scalar` or
:func:`_norm`, which enforce that, so ``bool`` and ``float`` never get in.
Integer arithmetic stays on the C fast path; ``str``, ``==`` and ``hash``
agree between ``3`` and ``Fraction(3)``, so output does not depend on the
representation.  Quotients go through :func:`exact_div`, since ``int /
int`` is a float.  A :class:`LinComb` is a finite map from basis terms to
nonzero coefficients; the zero combination is the empty map.  Terms can be
anything hashable that either is naturally orderable (ints, strings) or
exposes a ``sort_key`` attribute (a ``str`` for labels, trees and forests);
tuples of such terms are ordered componentwise.  All operations return new objects.

Two loops sum coefficients.  Sums of stored coefficients run through
:func:`_add_terms`, which adds (term, coefficient) pairs into a dict and
drops the terms that cancel: ``LinComb(pairs)``, :func:`lc_sum`, ``+`` and
``-`` all run it, so a sum of many parts costs one pass over their terms,
not a copy per part.  Sums of products, an operator extended linearly or
multilinearly from basis terms, run through :func:`_add_scaled`, which
keeps each term's coefficient as an integer numerator/denominator pair
over a common denominator, and :func:`_reduced`, which reduces it once,
at the end, so no ``Fraction`` is made for a product or a partial sum:
:meth:`LinComb.map_terms` and :func:`multilinear` run them.

:meth:`LinComb.items` is the unordered view of the stored terms; exact
sums do not depend on the order they are visited in.  Canonical term
order is applied only at output, by :meth:`LinComb.sorted_items`, which
:meth:`LinComb.render` uses and which callers use where the first term
visited picks an error message or a witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from typing import Callable, Dict, Hashable, Iterable, Tuple

Scalar = int | Fraction


def _norm(c: Scalar) -> Scalar:
    """A ``Fraction`` as an ``int`` when its denominator is 1; an ``int`` as it is."""
    return c.numerator if c.denominator == 1 else c


def as_scalar(value) -> Scalar:
    """Coerce an int, string like ``"3/2"``, or Fraction to a stored scalar.

    The result is an ``int`` when the value is integral and a ``Fraction``
    otherwise; ``bool`` and ``float`` are refused.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _norm(value)
    if isinstance(value, str):
        return _norm(Fraction(value))
    raise TypeError(f"not an exact scalar: {value!r}")


def exact_div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient ``a / b``, an ``int`` when it is integral; the one
    reduction rule of the package."""
    return a // b if a % b == 0 else Fraction(a, b)


def term_key(term):
    """Canonical sort key for a basis term.

    Tuples are keyed componentwise, objects with a ``sort_key`` attribute
    (the key string of a label, tree or forest) use it, everything else
    must be directly orderable.
    """
    if isinstance(term, tuple):
        return tuple(term_key(part) for part in term)
    key = getattr(term, "sort_key", None)
    return term if key is None else key


def _add_terms(terms: Dict[Hashable, Scalar], pairs: Iterable[Tuple[Hashable, Scalar]]) -> Dict[Hashable, Scalar]:
    """Add each (term, coefficient) pair into ``terms``; drop what sums to zero.

    The summing loop of stored coefficients.  Coefficients that are not
    already ``int`` values go through :func:`as_scalar`, and a sum that is
    not an ``int`` through :func:`_norm`.
    """
    for term, c in pairs:
        if type(c) is not int:
            c = as_scalar(c)
        prev = terms.get(term)
        if prev is not None:
            c = prev + c
            if not c:
                del terms[term]
                continue
            if type(c) is not int:
                c = _norm(c)
        elif not c:
            continue
        terms[term] = c
    return terms


class LinComb:
    """A finite linear combination of basis terms with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, items: Iterable[Tuple[Hashable, Scalar]] = ()):
        self._terms = _add_terms({}, items)

    @classmethod
    def of(cls, term, coeff: Scalar | str = 1) -> "LinComb":
        c = as_scalar(coeff)
        return cls._raw({term: c} if c else {})

    @classmethod
    def _raw(cls, terms: Dict[Hashable, Scalar]) -> "LinComb":
        """Wrap ``terms`` as they are: nonzero coefficients, each an ``int``
        or a ``Fraction`` with denominator > 1."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    def coeff(self, term) -> Scalar:
        return self._terms.get(term, 0)

    def items(self):
        """Pairs ``(term, coeff)`` in storage order, which is not canonical."""
        return self._terms.items()

    def sorted_items(self):
        """Pairs ``(term, coeff)`` in canonical term order, for output."""
        return sorted(self._terms.items(), key=lambda tc: term_key(tc[0]))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return lc_sum((self, other))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        terms = dict(self._terms)
        _add_terms(terms, ((t, -c) for t, c in other._terms.items()))
        return LinComb._raw(terms)

    def __neg__(self) -> "LinComb":
        return LinComb._raw({t: -c for t, c in self._terms.items()})

    def scale(self, coeff) -> "LinComb":
        c = as_scalar(coeff)
        if not c:
            return LinComb()
        return LinComb._raw({t: _norm(c * v) for t, v in self._terms.items()})

    def __mul__(self, coeff) -> "LinComb":
        return self.scale(coeff)

    __rmul__ = __mul__

    def map_terms(self, fn: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Linear extension of ``fn``, which sends a term to a LinComb."""
        acc: Dict[Hashable, list] = {}
        for term, c in self._terms.items():
            _add_scaled(acc, fn(term)._terms.items(), c.numerator, c.denominator)
        return _reduced(acc)

    def render(self, render_term: Callable[[Hashable], str] = str) -> str:
        """Canonical textual form, ``0`` for the empty combination.

        Terms appear in canonical order, joined by `` + `` or `` - ``, the
        first one's sign written ``-`` only when negative.  A coefficient of
        +-1 is folded into the sign; any other prints its magnitude as
        ``n*term`` when it is an ``int`` and ``p/q*term`` when it is a
        ``Fraction``, read off the numerator and denominator (> 1, as every
        stored ``Fraction`` has), so no ``Fraction`` arithmetic is done.
        """
        if not self._terms:
            return "0"
        pieces = []
        for term, c in self.sorted_items():
            text = render_term(term)
            if type(c) is int:
                neg = c < 0
                mag = -c if neg else c
                if mag != 1:
                    text = f"{mag}*{text}"
            else:
                n = c.numerator
                neg = n < 0
                text = f"{-n if neg else n}/{c.denominator}*{text}"
            pieces.append(" - " if neg else " + ")
            pieces.append(text)
        if pieces[0] == " - ":
            pieces[0] = "-"
        else:
            del pieces[0]
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LinComb({self.render()})"


def lc_sum(parts: Iterable[LinComb]) -> LinComb:
    """The sum of the parts, accumulated in one dict."""
    terms: Dict[Hashable, Scalar] = {}
    for p in parts:
        _add_terms(terms, p._terms.items())
    return LinComb._raw(terms)


def _add_scaled(acc: Dict[Hashable, list], pairs: Iterable[Tuple[Hashable, Scalar]], gn: int, gd: int) -> None:
    """Add each (term, coefficient) pair, times gn/gd (gd > 0), into the
    integer [numerator, denominator] pairs of ``acc``.  A term's pair keeps
    the lcm of its denominators, so no gcd is taken per pair."""
    for term, c in pairs:
        n = gn * c.numerator
        d = gd * c.denominator
        slot = acc.get(term)
        if slot is None:
            acc[term] = [n, d]
        elif slot[1] == d:
            slot[0] += n
        else:
            sd = slot[1]
            m = lcm(sd, d)
            slot[0] = slot[0] * (m // sd) + n * (m // d)
            slot[1] = m


def _reduced(acc: Dict[Hashable, list]) -> LinComb:
    """The combination of the integer pairs of ``acc``: terms that summed
    to zero dropped, the rest reduced once by the rule of :func:`exact_div`,
    written out here because a call per term slowed ``map_terms`` by about 5%."""
    return LinComb._raw({term: n // d if n % d == 0 else Fraction(n, d) for term, (n, d) in acc.items() if n})


def multilinear(fn: Callable[..., Iterable[Tuple[Hashable, Scalar]]], *factors: LinComb) -> LinComb:
    """Multilinear extension of ``fn``, which sends one term of each factor
    to (term, coefficient) pairs: the sum, over one term of each factor, of
    ``fn(*terms)`` weighted by the product of the coefficients.  No factors
    give ``fn()`` once; an empty factor gives zero without calling ``fn``."""
    rows = []
    for f in factors:
        if not f._terms:
            return LinComb._raw({})
        rows.append([(t, c.numerator, c.denominator) for t, c in f._terms.items()])
    acc: Dict[Hashable, list] = {}
    for combo in iproduct(*rows):
        n = d = 1
        terms = []
        for t, cn, cd in combo:
            n *= cn
            d *= cd
            terms.append(t)
        _add_scaled(acc, fn(*terms), n, d)
    return _reduced(acc)
