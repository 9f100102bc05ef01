"""Constructions that only the tests use.

- ``Pr`` and ``ProductBasis``: product labels and the bases they span, one
  factor from each side.  A ``Pr`` is a plain frozen dataclass, not an
  interned label; its sort key is the kind code ``"\\x04"``, above every
  label kind of :mod:`rtcalc.decorations`, then the factors' keys.
- ``tensor_product``: the slotwise tensor product of two maps, acting on
  product labels; the tests check that it preserves compatibility.
- ``to_blocks``: the block grid of a map on finite symbol bases, the
  reference inverse of :func:`rtcalc.phimaps.from_blocks`.
- ``mixed_commutation_defect``: the two slot actions of two maps in both
  orders on one triple, written afresh; with both maps equal it is the
  defect whose vanishing :func:`rtcalc.phimaps.check_compat` decides.
- ``refuted_on_by_full_scan``: the scan of :func:`rtcalc.phimaps.refuted_on`
  over every ordered pair of edge labels, both (a, a') and (a', a); the
  package scans a' at or after a only.

The package decides disjointness of bases by their labels, so a
``ProductBasis`` needs no hook there: two finite product bases are
disjoint when their label sets are, and a product basis never meets a
part of another type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Tuple

from rtcalc.decorations import DecorationBasis, Label, SymbolBasis
from rtcalc.lincomb import LinComb
from rtcalc.phimaps import BlockMatrix, PhiMap, Refuted


@dataclass(frozen=True)
class Pr:
    """A product label: one factor from each side of a tensor product."""

    left: Label
    right: Label

    @property
    def sort_key(self):
        return "\x04" + self.left.sort_key + self.right.sort_key

    def render(self) -> str:
        return f"({self.left.render()},{self.right.render()})"


@dataclass(frozen=True)
class ProductBasis(DecorationBasis):
    left: DecorationBasis
    right: DecorationBasis

    @property
    def is_finite(self) -> bool:  # type: ignore[override]
        return self.left.is_finite and self.right.is_finite

    def contains(self, label) -> bool:
        return isinstance(label, Pr) and self.left.contains(label.left) and self.right.contains(label.right)

    def labels(self) -> Tuple[Pr, ...]:
        return tuple(Pr(a, b) for a, b in iproduct(self.left.labels(), self.right.labels()))

    def labels_up_to(self, bound: int) -> Tuple[Pr, ...]:
        return tuple(Pr(a, b) for a, b in iproduct(self.left.labels_up_to(bound), self.right.labels_up_to(bound)))


def tensor_product(phi: PhiMap, psi: PhiMap) -> PhiMap:
    """Slotwise tensor product, acting on product labels."""

    def act(a: Pr, b: Pr) -> LinComb:
        left = phi(a.left, b.left)
        right = psi(a.right, b.right)
        return LinComb(
            [
                ((Pr(a1, a2), Pr(b1, b2)), c1 * c2)
                for (a1, b1), c1 in left.items()
                for (a2, b2), c2 in right.items()
            ]
        )

    return PhiMap(
        ProductBasis(phi.edge_basis, psi.edge_basis),
        ProductBasis(phi.vertex_basis, psi.vertex_basis),
        act,
        compat_by_construction=phi.compat_by_construction and psi.compat_by_construction,
    )


def to_blocks(phi: PhiMap) -> BlockMatrix:
    """Block (i, j) holds, at (k, l), the coefficient of (e_i, v_k) in phi(e_j, v_l)."""
    if not isinstance(phi.edge_basis, SymbolBasis) or not isinstance(phi.vertex_basis, SymbolBasis):
        raise ValueError("block form needs finite symbol bases")
    es, vs = phi.edge_basis.labels(), phi.vertex_basis.labels()
    m, n = len(es), len(vs)
    grid = [[[[0] * n for _ in range(n)] for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for l in range(n):
            for (a2, b2), c in phi(es[j], vs[l]).items():
                grid[es.index(a2)][j][vs.index(b2)][l] = c
    return BlockMatrix(
        m, n, tuple(tuple(tuple(tuple(r) for r in blk) for blk in row) for row in grid)
    )


def _act(phi: PhiMap, k: int, triples: LinComb) -> LinComb:
    """Apply ``phi`` through edge slot ``k`` (0 or 1) and the vertex slot of each triple."""

    def on_triple(t):
        return phi(t[k], t[2]).map_terms(lambda ab: LinComb.of((*t[:k], ab[0], *t[k + 1 : 2], ab[1])))

    return triples.map_terms(on_triple)


def mixed_commutation_defect(phi: PhiMap, psi: PhiMap, a: Label, a2: Label, b: Label) -> LinComb:
    """psi through slots (1, 3) after phi through (2, 3), minus the other order.

    Its vanishing on all triples is the hypothesis under which the
    composition of two compatible maps stays compatible.
    """
    start = LinComb.of((a, a2, b))
    return _act(psi, 0, _act(phi, 1, start)) - _act(phi, 1, _act(psi, 0, start))


def refuted_on_by_full_scan(phi: PhiMap, edge_labels, vertex_labels):
    """First refuting triple in the scan over every ordered edge pair, or None."""
    for a in edge_labels:
        for a2 in edge_labels:
            for b in vertex_labels:
                a2_first, a_first = phi.act_at_vertex((a2, a), b), phi.act_at_vertex((a, a2), b)
                lhs = LinComb._raw({(x, x2, bb): c for ((x2, x), bb), c in a2_first.items()})
                rhs = LinComb._raw({(x, x2, bb): c for ((x, x2), bb), c in a_first.items()})
                if lhs != rhs:
                    return Refuted((a, a2, b), lhs, rhs)
    return None
