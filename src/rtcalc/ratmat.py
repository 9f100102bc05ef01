"""Small dense matrices over exact rationals, as tuples of tuples.

Only what the block-matrix bridge and the verification suites need:
products, determinants, 2x2 inverses, and a nullspace via row reduction.
Sizes stay single digit, so plain Gaussian elimination is plenty.  Entries
are scalars in the sense of :mod:`rtcalc.lincomb`, ints until a
denominator appears, and every quotient is taken by ``exact_div``.
"""

from __future__ import annotations

from math import isqrt
from typing import List, Optional, Sequence, Tuple

from .lincomb import Scalar, as_scalar, exact_div

Matrix = Tuple[Tuple[Scalar, ...], ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    out = tuple(tuple(as_scalar(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(as_scalar(x - y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in product")
    bt = tuple(zip(*b))
    return tuple(tuple(as_scalar(sum(x * y for x, y in zip(row, col))) for col in bt) for row in a)


def commute(a: Matrix, b: Matrix) -> bool:
    return mat_mul(a, b) == mat_mul(b, a)


def det(a: Matrix) -> Scalar:
    """Determinant: the signed product of the pivots :func:`_eliminate`
    divides out, or 0 when a column has no pivot."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    _, pivots, product = _eliminate(a)
    return product if len(pivots) == n else 0


def inv2(a: Matrix) -> Matrix:
    """Inverse of a 2x2 matrix."""
    (p, q), (r, s) = a
    d = p * s - q * r
    if d == 0:
        raise ValueError("singular matrix")
    return mat([[exact_div(s, d), exact_div(-q, d)], [exact_div(-r, d), exact_div(p, d)]])


def _eliminate(a: Matrix) -> Tuple[List[List[Scalar]], List[int], Scalar]:
    """Gauss-Jordan elimination: the reduced rows, the pivot column
    indices, and the product of the pivots divided out, negated once per
    row swap (the determinant when every column has a pivot)."""
    rows: List[List[Scalar]] = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    product: Scalar = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            product = -product
        product *= rows[r][c]
        inv = exact_div(1, rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots, as_scalar(product)


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form together with the pivot column indices."""
    rows, pivots, _ = _eliminate(a)
    return mat(rows), pivots


def nullspace(a: Matrix, ncols: int) -> List[Tuple[Scalar, ...]]:
    """A basis of the kernel of ``a``, a matrix with ``ncols`` columns and
    possibly no rows (columns as coordinate vectors)."""
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [0] * ncols
        vec[fcol] = 1
        for r, pcol in enumerate(pivots):
            vec[pcol] = -red[r][fcol]
        basis.append(tuple(vec))
    return basis


def sqrt_fraction(x: Scalar) -> Optional[Scalar]:
    """The exact square root of a rational, or None when it is irrational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return exact_div(rn, rd)
    return None
