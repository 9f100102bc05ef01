"""Semidirect post-Lie extension of the planted-tree pre-Lie algebra.

A finite post-Lie algebra P, given by structure constants, acts on the
decorations through a pair of actions: one on edge labels, one on vertex
labels.  The direct sum of the planted-tree space with P then carries a
bracket and a triangle product:

  planted ⊳ planted   deformed grafting through the decoration map,
  generator ⊳ planted one vertex relabeled by the vertex action, summed,
  planted ⊳ generator zero,
  {planted, planted}  zero,
  {planted, generator} edge action on the plant label,

with the generator-generator products taken from P.  The whole space is
post-Lie exactly when the actions satisfy four finite conditions tying
them to P and to the decoration map; ``psi_compat_defects`` measures
those, and ``postlie_axiom_defects`` measures the three post-Lie axioms
directly on elements of the extension.

An element of the extension is one :class:`~rtcalc.lincomb.LinComb` whose
terms are planted trees or generator names (``str``).  Each product is one
:func:`~rtcalc.lincomb.multilinear` call whose term function picks the case
above from the kinds of its two terms.  The two kinds do not sort
together, so :func:`render_ext` prints the planted part and then the
generator part.

The generator ⊳ planted case is a sum over the vertices of the body, so it
runs :func:`rtcalc.trees.vertex_sum` with "relabel the root by the vertex
action" as its local step, the same recursion that grafting uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .decorations import Label
from .lincomb import LinComb, as_scalar, multilinear
from .phimaps import PhiMap
from .prelie import planted_graft
from .trees import DecoratedTree, PlantedTree, vertex_sum

Gen = str
GenComb = LinComb  # over generator names


def _as_gencomb(entries, names: Tuple[str, ...]) -> GenComb:
    out = LinComb([(g, as_scalar(c)) for c, g in entries])
    for g, _ in out.sorted_items():
        if g not in names:
            raise ValueError(f"unknown generator {g!r}")
    return out


@dataclass(frozen=True)
class PostLieBase:
    """A post-Lie algebra on named generators, by structure constants.

    ``bracket`` and ``triangle`` hold the products of basis pairs; any
    missing pair is zero.  Construction refuses constants that break
    antisymmetry of the bracket or any of the three defining axioms on
    basis triples, so downstream code can rely on P itself being sound.
    """

    names: Tuple[str, ...]
    bracket: Mapping[Tuple[Gen, Gen], GenComb]
    triangle: Mapping[Tuple[Gen, Gen], GenComb]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        for (p, q) in list(self.bracket) + list(self.triangle):
            if p not in self.names or q not in self.names:
                raise ValueError(f"constants mention unknown generators ({p}, {q})")
        for p in self.names:
            for q in self.names:
                if self.bracket_of(p, q) != -self.bracket_of(q, p):
                    raise ValueError(f"bracket not antisymmetric on ({p}, {q})")
        for x in self.names:
            for y in self.names:
                for z in self.names:
                    gx, gy, gz = (LinComb.of(g) for g in (x, y, z))
                    jacobi, derivation, associator = _axiom_residuals(
                        self.bracket_lin, self.triangle_lin, gx, gy, gz
                    )
                    if not jacobi.is_zero:
                        raise ValueError(f"bracket fails Jacobi on ({x}, {y}, {z})")
                    if not derivation.is_zero:
                        raise ValueError(
                            f"triangle is not a bracket derivation on ({x}, {y}, {z})"
                        )
                    if not associator.is_zero:
                        raise ValueError(
                            f"bracket does not match the triangle associator on ({x}, {y}, {z})"
                        )

    def bracket_of(self, p: Gen, q: Gen) -> GenComb:
        return self.bracket.get((p, q), LinComb())

    def triangle_of(self, p: Gen, q: Gen) -> GenComb:
        return self.triangle.get((p, q), LinComb())

    def bracket_lin(self, x: GenComb, y: GenComb) -> GenComb:
        return multilinear(lambda p, q: self.bracket_of(p, q).items(), x, y)

    def triangle_lin(self, x: GenComb, y: GenComb) -> GenComb:
        return multilinear(lambda p, q: self.triangle_of(p, q).items(), x, y)


def _axiom_residuals(bracket, triangle, x, y, z):
    """The Jacobi, derivation and associator residuals of the post-Lie
    axioms at (x, y, z), for any bracket and triangle product on elements
    that add and subtract."""
    b, t = bracket, triangle
    jacobi = b(b(x, y), z) + b(b(y, z), x) + b(b(z, x), y)
    derivation = t(x, b(y, z)) - b(t(x, y), z) - b(y, t(x, z))
    associator = t(b(x, y), z) - t(x, t(y, z)) + t(t(x, y), z) + t(y, t(x, z)) - t(t(y, x), z)
    return jacobi, derivation, associator


def postlie_base(
    names: Sequence[str],
    bracket_consts: Optional[Mapping[Tuple[Gen, Gen], Iterable]] = None,
    triangle_consts: Optional[Mapping[Tuple[Gen, Gen], Iterable]] = None,
) -> PostLieBase:
    ns = tuple(names)
    br = {k: _as_gencomb(v, ns) for k, v in (bracket_consts or {}).items()}
    tr = {k: _as_gencomb(v, ns) for k, v in (triangle_consts or {}).items()}
    return PostLieBase(ns, br, tr)


@dataclass(frozen=True)
class PsiPair:
    """Actions of the generators on edge labels and on vertex labels."""

    edge: Callable[[Gen, Label], LinComb]
    vertex: Callable[[Gen, Label], LinComb]


def psi_from_tables(
    edge_table: Mapping[Tuple[Gen, Label], Iterable],
    vertex_table: Mapping[Tuple[Gen, Label], Iterable],
) -> PsiPair:
    """Actions from explicit tables; unlisted inputs act as zero."""

    def compile_side(table):
        return {key: LinComb([(lab, as_scalar(c)) for c, lab in entries]) for key, entries in table.items()}

    etab = compile_side(edge_table)
    vtab = compile_side(vertex_table)
    return PsiPair(
        edge=lambda p, a: etab.get((p, a), LinComb()),
        vertex=lambda p, b: vtab.get((p, b), LinComb()),
    )


# ---------------------------------------------------------------------------
# Elements of the extension: combinations of planted trees and generators


def render_ext(x: LinComb) -> str:
    """Text for an extension element: its planted part, then its generator
    part, joined by ``" + "``, or ``0``.  The two term kinds do not sort
    together, so each part renders alone."""
    planted = LinComb((t, c) for t, c in x.items() if not isinstance(t, str))
    gens = LinComb((t, c) for t, c in x.items() if isinstance(t, str))
    parts = [part.render(render) for part, render in ((planted, PlantedTree.render), (gens, str)) if part]
    return " + ".join(parts) or "0"


def _vertex_action_on_tree(psi: PsiPair, p: Gen, t: PlantedTree) -> LinComb:
    """Sum over vertices of t with the vertex action applied at that spot,
    through :func:`rtcalc.trees.vertex_sum` with a memo for this call."""

    def local(s: DecoratedTree):
        return [(DecoratedTree(nb, s.children), c) for nb, c in psi.vertex(p, s.label).items()]

    return LinComb((PlantedTree(t.plant, g), c) for g, c in vertex_sum(t.body, local, {}))


def ext_triangle(phi: PhiMap, P: PostLieBase, psi: PsiPair, u: LinComb, w: LinComb) -> LinComb:
    """The triangle product of the extension, case by case on term kinds."""

    def fn(s, t):
        if isinstance(s, str):
            if isinstance(t, str):
                return P.triangle_of(s, t).items()
            return _vertex_action_on_tree(psi, s, t).items()
        if isinstance(t, str):
            return ()  # planted ⊳ generator contributes nothing
        return planted_graft(phi, s, t).items()

    return multilinear(fn, u, w)


def ext_bracket(P: PostLieBase, psi: PsiPair, u: LinComb, w: LinComb) -> LinComb:
    """The bracket of the extension: antisymmetric, zero between planted trees."""

    def fn(s, t):
        if isinstance(s, str):
            if isinstance(t, str):
                return P.bracket_of(s, t).items()
            return ((PlantedTree(na, t.body), -c) for na, c in psi.edge(s, t.plant).items())
        if isinstance(t, str):
            return ((PlantedTree(na, s.body), c) for na, c in psi.edge(t, s.plant).items())
        return ()

    return multilinear(fn, u, w)


# ---------------------------------------------------------------------------
# Compatibility conditions on the actions


@dataclass(frozen=True)
class PsiDefect:
    condition: str
    gens: Tuple[Gen, ...]
    label: object
    residual: LinComb


def psi_compat_defects(
    phi: PhiMap,
    P: PostLieBase,
    psi: PsiPair,
    edge_labels: Sequence[Label],
    vertex_labels: Sequence[Label],
) -> List[PsiDefect]:
    """Residuals of the four conditions tying the actions to P and phi.

    For trivial P the first condition degenerates to commutation of the
    edge actions, the third to commutation of the vertex actions, and the
    second holds vacuously; the fourth is unchanged.  Returns only the
    nonzero residuals.
    """
    defects: List[PsiDefect] = []
    for p in P.names:
        for q in P.names:
            br = P.bracket_of(p, q)
            tr_pq = P.triangle_of(p, q)
            tr_skew = P.triangle_of(q, p) - tr_pq
            for a in edge_labels:
                lhs = br.map_terms(lambda g: psi.edge(g, a))
                rhs = (
                    psi.edge(p, a).map_terms(lambda c: psi.edge(q, c))
                    - psi.edge(q, a).map_terms(lambda c: psi.edge(p, c))
                )
                if lhs != rhs:
                    defects.append(
                        PsiDefect("edge-action-bracket", (p, q), a, lhs - rhs)
                    )
                tr_apply = tr_pq.map_terms(lambda g: psi.edge(g, a))
                if not tr_apply.is_zero:
                    defects.append(
                        PsiDefect("edge-action-triangle", (p, q), a, tr_apply)
                    )
            for b in vertex_labels:
                lhs = br.map_terms(lambda g: psi.vertex(g, b))
                rhs = (
                    psi.vertex(q, b).map_terms(lambda c: psi.vertex(p, c))
                    - psi.vertex(p, b).map_terms(lambda c: psi.vertex(q, c))
                    + tr_skew.map_terms(lambda g: psi.vertex(g, b))
                )
                if lhs != rhs:
                    defects.append(
                        PsiDefect("vertex-action-bracket", (p, q), b, lhs - rhs)
                    )
    for p in P.names:

        def vertex_side(pair):  # the vertex action of p on one (edge, vertex) pair
            na, nb = pair
            return [((na, nb2), c) for nb2, c in psi.vertex(p, nb).items()]

        for a in edge_labels:
            for b in vertex_labels:
                lhs = psi.edge(p, a).map_terms(lambda na: phi(na, b))
                rhs = psi.vertex(p, b).map_terms(lambda nb: phi(a, nb)) - multilinear(vertex_side, phi(a, b))
                if lhs != rhs:
                    defects.append(
                        PsiDefect("map-intertwining", (p,), (a, b), lhs - rhs)
                    )
    return defects


# ---------------------------------------------------------------------------
# The post-Lie axioms on the extension


@dataclass(frozen=True)
class AxiomDefects:
    jacobi: LinComb
    derivation: LinComb
    associator: LinComb

    @property
    def all_zero(self) -> bool:
        return self.jacobi.is_zero and self.derivation.is_zero and self.associator.is_zero


def postlie_axiom_defects(
    phi: PhiMap, P: PostLieBase, psi: PsiPair, u: LinComb, v: LinComb, w: LinComb
) -> AxiomDefects:
    """The three axiom residuals of the extension at (u, v, w)."""
    return AxiomDefects(
        *_axiom_residuals(
            lambda x, y: ext_bracket(P, psi, x, y),
            lambda x, y: ext_triangle(phi, P, psi, x, y),
            u,
            v,
            w,
        )
    )
