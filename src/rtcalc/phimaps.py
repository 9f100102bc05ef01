"""Linear maps on edge-vertex decoration pairs.

A :class:`PhiMap` sends a basis pair (edge label, vertex label) to a
linear combination of such pairs.  The central predicate is
tree-compatibility: two edges decorated a and a' at one vertex decorated
b give the same result in either order of :meth:`PhiMap.act_at_vertex`,
the local step of every tree operator.  On finite bases that is decided
exactly; on multi-index bases it is only ever verified up to a bound.
:func:`ensure_usable`, the one guard of the operators, passes a flagged
map at once, reads the kept verdict on finite bases, and otherwise scans
the labels of all the operands together.

The module also provides the combinators that preserve or transport
compatibility (decomposable maps, direct sums, composition, polynomials,
exponentials, transposes) and the bridge from block-matrix form on
finite bases, including the joint upper-triangular/diagonal normal form
on a two-dimensional vertex space.

Caching policy.  Labels and images are immutable, so every map memoises
its own results, and the memo lives and dies with the map: ``__call__``
keeps each image in a dict on the map, looked up before the basis checks
and the action run, and a map on finite bases keeps its
:func:`check_compat` verdict, which :func:`ensure_usable` reads.  A label
outside the basis raises on every call and is never stored.  Deriving a
map with ``dataclasses.replace`` starts empty memos.  A builder that
keeps tables in its action's closure, such as
:func:`rtcalc.spde.phi_lambda`, scopes them the same way: they live and
die with the map, as ``_images`` does.  No cache in this module is global
or keyed by a map.  The only global caches are the weak intern tables of
:mod:`rtcalc.intern`: trees, forests and labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .decorations import (
    DecorationBasis,
    Label,
    SymbolBasis,
    union_bases,
)
from .lincomb import LinComb, Scalar, as_scalar, exact_div, lc_sum, term_key
from .ratmat import (
    Matrix,
    commute,
    identity,
    inv2,
    mat,
    mat_mul,
    mat_sub,
    sqrt_fraction,
)
from .trees import DecoratedTree, PlantedTree


class IncompatiblePhi(Exception):
    """Raised when an operation that needs order-independence gets a refuted map."""


class NonNilpotentError(Exception):
    """Raised when an exponential series fails to terminate on some input."""


PairComb = LinComb  # combinations of (edge label, vertex label) pairs


@dataclass(frozen=True)
class PhiMap:
    edge_basis: DecorationBasis
    vertex_basis: DecorationBasis
    action: Callable[[Label, Label], PairComb]
    compat_by_construction: bool = False
    _images: Dict[Tuple[Label, Label], PairComb] = field(default_factory=dict, init=False, compare=False, repr=False)
    _verdict: Optional[Verdict] = field(default=None, init=False, compare=False, repr=False)

    def __call__(self, a: Label, b: Label) -> PairComb:
        key = (a, b)
        image = self._images.get(key)
        if image is None:
            if not self.edge_basis.contains(a):
                raise ValueError(f"edge label {a.render()} outside the declared basis")
            if not self.vertex_basis.contains(b):
                raise ValueError(f"vertex label {b.render()} outside the declared basis")
            image = self._images[key] = self.action(a, b)
        return image

    def apply(self, pairs: PairComb) -> PairComb:
        """Linear extension to combinations of (edge, vertex) pairs."""
        return pairs.map_terms(lambda ab: self(*ab))

    def act_at_vertex(self, edges: Tuple[Label, ...], b: Label) -> LinComb:
        """Run the map over (edges[0], b), (edges[1], b), ... in that order.

        This is the local step of every tree operator: several edges that
        share their lower endpoint, decorated ``b``, each act on their own
        label and on ``b``, so each sees the vertex label the earlier ones
        left.  Returns a combination of states (new edge labels, new b),
        built up one edge at a time from the image of the first.
        """
        if not edges:
            return LinComb.of(((), b))
        states = LinComb._raw({((a2,), b2): c for (a2, b2), c in self(edges[0], b).items()})
        for a in edges[1:]:
            states = LinComb(
                [
                    ((images + (a2,), b2), c * c2)
                    for (images, bb), c in states.items()
                    for (a2, b2), c2 in self(a, bb).items()
                ]
            )
        return states


def identity_map(edge_basis: DecorationBasis, vertex_basis: DecorationBasis) -> PhiMap:
    return PhiMap(
        edge_basis,
        vertex_basis,
        lambda a, b: LinComb.of((a, b)),
        compat_by_construction=True,
    )


def zero_map(edge_basis: DecorationBasis, vertex_basis: DecorationBasis) -> PhiMap:
    return PhiMap(
        edge_basis,
        vertex_basis,
        lambda a, b: LinComb(),
        compat_by_construction=True,
    )


TableEntry = "Iterable[Tuple[Scalar | int | str, Label, Label]]"


def from_table(
    edge_basis: DecorationBasis,
    vertex_basis: DecorationBasis,
    table: Dict[Tuple[Label, Label], TableEntry],
) -> PhiMap:
    """A map given by an explicit table; unlisted pairs go to zero."""
    compiled: Dict[Tuple[Label, Label], PairComb] = {}
    for (a, b), out in table.items():
        if not edge_basis.contains(a) or not vertex_basis.contains(b):
            raise ValueError(f"table input ({a.render()},{b.render()}) outside the bases")
        comb = compiled[(a, b)] = LinComb(((a2, b2), c) for c, a2, b2 in out)
        for (a2, b2), _ in comb.sorted_items():
            if not edge_basis.contains(a2) or not vertex_basis.contains(b2):
                raise ValueError(f"table output ({a2.render()},{b2.render()}) outside the bases")
    return PhiMap(edge_basis, vertex_basis, lambda a, b: compiled.get((a, b), LinComb()))


def tensor_map(
    edge_basis: DecorationBasis,
    vertex_basis: DecorationBasis,
    f: Callable[[Label], LinComb],
    g: Callable[[Label], LinComb],
) -> PhiMap:
    """The decomposable map sending a (x) b to f(a) (x) g(b), built by
    :func:`from_table`; finite bases only.

    Decomposable maps act through each slot independently, so they are
    tree-compatible outright.
    """
    table = {
        (a, b): [(ca * cb, a2, b2) for a2, ca in f(a).items() for b2, cb in g(b).items()]
        for a in edge_basis.labels()
        for b in vertex_basis.labels()
    }
    return replace(from_table(edge_basis, vertex_basis, table), compat_by_construction=True)


# ---------------------------------------------------------------------------
# Compatibility checking


@dataclass(frozen=True)
class Compatible:
    def __str__(self) -> str:
        return "Compatible"


@dataclass(frozen=True)
class VerifiedUpToBound:
    bound: int

    def __str__(self) -> str:
        return f"VerifiedUpToBound({self.bound})"


@dataclass(frozen=True)
class Refuted:
    witness: Tuple[Label, Label, Label]
    lhs: LinComb
    rhs: LinComb

    def __str__(self) -> str:
        a, a2, b = self.witness
        return f"Refuted(a={a.render()}, a'={a2.render()}, b={b.render()})"


Verdict = Compatible | VerifiedUpToBound | Refuted


def check_compat(phi: PhiMap, bound: Optional[int] = None) -> Verdict:
    """Decide tree-compatibility on finite bases; verify up to a bound otherwise.

    The scan, :func:`refuted_on`, runs two edges at one vertex in both
    orders.  On finite bases the verdict is computed once and kept on the
    map, and ``bound`` is ignored.  On infinite (multi-index) bases the
    verdict is never ``Compatible``: the scan covers all labels with
    entries <= ``bound`` (noise labels included) and reports
    ``VerifiedUpToBound``.
    """
    if phi.edge_basis.is_finite and phi.vertex_basis.is_finite:
        if phi._verdict is None:
            bad = refuted_on(phi, phi.edge_basis.labels(), phi.vertex_basis.labels())
            object.__setattr__(phi, "_verdict", bad or Compatible())
        return phi._verdict
    if bound is None:
        raise ValueError("an explicit bound is required on an infinite basis")
    bad = refuted_on(phi, phi.edge_basis.labels_up_to(bound), phi.vertex_basis.labels_up_to(bound))
    return bad or VerifiedUpToBound(bound)


def refuted_on(phi: PhiMap, edge_labels: Sequence[Label], vertex_labels: Sequence[Label]):
    """First refuting triple among the given labels, in their order, or None.

    The triple (a, a', b) runs edges decorated a' and a at a vertex
    decorated b through :meth:`PhiMap.act_at_vertex`, a' first (``lhs``)
    and a first (``rhs``), each state read back as (image of a, image of
    a', new b).  Its mirror (a', a, b) is refuted exactly when it is, so
    only a' at or after a is scanned, which finds a full scan's first witness.
    """
    for i, a in enumerate(edge_labels):
        for a2 in edge_labels[i:]:
            for b in vertex_labels:
                a2_first, a_first = phi.act_at_vertex((a2, a), b), phi.act_at_vertex((a, a2), b)
                lhs = LinComb._raw({(x, x2, bb): c for ((x2, x), bb), c in a2_first.items()})
                rhs = LinComb._raw({(x, x2, bb): c for ((x, x2), bb), c in a_first.items()})
                if lhs != rhs:
                    return Refuted((a, a2, b), lhs, rhs)
    return None


def ensure_usable(phi: PhiMap, trees: Iterable[DecoratedTree | PlantedTree]) -> None:
    """Refuse ``phi`` if it is refuted on the labels of ``trees``, the
    trees or planted trees of an operator's operands.

    A flagged map passes at once, and on finite bases the verdict kept on
    the map decides; neither walks a tree.  Otherwise the labels of all
    the trees, plant edges counted as edge labels, are sorted canonically
    and scanned once, so a refusal names the first refuting triple over
    all of them, whatever order the trees come in.
    """
    if phi.compat_by_construction:
        return
    if phi.edge_basis.is_finite and phi.vertex_basis.is_finite:
        verdict = check_compat(phi)
    else:
        edges, vertices, stack = set(), set(), list(trees)
        while stack:  # a loop, not a recursion: any depth
            t = stack.pop()
            if isinstance(t, PlantedTree):
                edges.add(t.plant)
                t = t.body
            vertices.add(t.label)
            edges.update(e for e, _ in t.children)
            stack.extend(c for _, c in t.children)
        verdict = refuted_on(phi, sorted(edges, key=term_key), sorted(vertices, key=term_key))
    if isinstance(verdict, Refuted):
        raise IncompatiblePhi(str(verdict))


# ---------------------------------------------------------------------------
# Combinators


def direct_sum(phi1: PhiMap, phi2: PhiMap, lam, mu) -> PhiMap:
    """Block map on a direct sum of bases.

    Diagonal blocks act by the two maps; the mixed blocks are scalar:
    (edge from the first summand, vertex from the second) is scaled by
    ``lam``, the opposite mix by ``mu``.  Compatible whenever both
    summands are, independently of the scalars.
    """
    lam, mu = as_scalar(lam), as_scalar(mu)
    E = union_bases(phi1.edge_basis, phi2.edge_basis)
    V = union_bases(phi1.vertex_basis, phi2.vertex_basis)

    def act(a: Label, b: Label) -> PairComb:
        a1 = phi1.edge_basis.contains(a)
        b1 = phi1.vertex_basis.contains(b)
        if a1 and b1:
            return phi1(a, b)
        if not a1 and not b1:
            return phi2(a, b)
        if a1:
            return LinComb.of((a, b), lam)
        return LinComb.of((a, b), mu)

    return PhiMap(
        E,
        V,
        act,
        compat_by_construction=phi1.compat_by_construction and phi2.compat_by_construction,
    )


def _require_same_bases(phi: PhiMap, psi: PhiMap) -> None:
    if phi.edge_basis != psi.edge_basis or phi.vertex_basis != psi.vertex_basis:
        raise ValueError("the maps act on different bases")


def compose(outer: PhiMap, inner: PhiMap) -> PhiMap:
    """outer o inner.  Compatibility of the parts does not transfer by
    itself, so the composite is checked like any other map."""
    _require_same_bases(outer, inner)
    return PhiMap(
        outer.edge_basis,
        outer.vertex_basis,
        lambda a, b: outer.apply(inner(a, b)),
    )


def polynomial(phi: PhiMap, coeffs: Sequence) -> PhiMap:
    """sum_k coeffs[k] * phi^k.  Polynomials in one compatible map are compatible."""
    cs = [as_scalar(c) for c in coeffs]

    def act(a: Label, b: Label) -> PairComb:
        powers = [LinComb.of((a, b))]
        for _ in cs[1:]:
            powers.append(phi.apply(powers[-1]))
        return lc_sum(p.scale(c) for p, c in zip(powers, cs))

    return PhiMap(
        phi.edge_basis,
        phi.vertex_basis,
        act,
        compat_by_construction=phi.compat_by_construction,
    )


def exp_series(phi: PhiMap, max_iter: Optional[int] = 64) -> PhiMap:
    """exp(phi), defined input by input for locally nilpotent maps.

    Iterates until the running power of the input vanishes.  At most
    ``max_iter`` terms are summed and the map is applied at most
    ``max_iter`` times; a nonzero term past them raises
    :class:`NonNilpotentError`.  ``max_iter=None`` sets no cap, for a map
    whose series the caller knows to end on every input.
    """

    def act(a: Label, b: Label) -> PairComb:
        terms = []
        cur = LinComb.of((a, b))
        k = 0
        while cur:
            if max_iter is not None and k >= max_iter:
                raise NonNilpotentError(
                    f"series for ({a.render()},{b.render()}) still alive after {max_iter} terms"
                )
            terms.append(cur.scale(Fraction(1, factorial(k))))
            cur = phi.apply(cur)
            k += 1
        return lc_sum(terms)

    return PhiMap(
        phi.edge_basis,
        phi.vertex_basis,
        act,
        compat_by_construction=phi.compat_by_construction,
    )


def transpose_map(phi: PhiMap) -> PhiMap:
    """The adjoint under the basis pairing, built by :func:`from_table`; finite bases only."""
    if not (phi.edge_basis.is_finite and phi.vertex_basis.is_finite):
        raise ValueError("transpose needs finite bases")
    table: Dict[Tuple[Label, Label], List[Tuple[Scalar, Label, Label]]] = {}
    for a in phi.edge_basis.labels():
        for b in phi.vertex_basis.labels():
            for (a2, b2), c in phi(a, b).items():
                table.setdefault((a2, b2), []).append((c, a, b))
    transposed = from_table(phi.edge_basis, phi.vertex_basis, table)
    return replace(transposed, compat_by_construction=phi.compat_by_construction)


# ---------------------------------------------------------------------------
# Block-matrix bridge (finite bases)


@dataclass(frozen=True)
class BlockMatrix:
    """m x m grid of n x n rational blocks.

    Encodes an endomorphism of a pair space with an m-dimensional edge
    side and n-dimensional vertex side: the image of (e_j, v) has its
    e_i-component equal to blocks[i][j] applied to v.
    """

    m: int
    n: int
    blocks: Tuple[Tuple[Matrix, ...], ...]

    def __post_init__(self):
        if len(self.blocks) != self.m or any(len(row) != self.m for row in self.blocks):
            raise ValueError("expected an m x m grid of blocks")
        for row in self.blocks:
            for blk in row:
                if len(blk) != self.n or any(len(r) != self.n for r in blk):
                    raise ValueError("every block must be n x n")


def block_matrix(blocks: Sequence[Sequence[Sequence[Sequence]]]) -> BlockMatrix:
    grid = tuple(tuple(mat(blk) for blk in row) for row in blocks)
    m = len(grid)
    n = len(grid[0][0]) if m else 0
    return BlockMatrix(m, n, grid)


def default_block_bases(m: int, n: int) -> Tuple[SymbolBasis, SymbolBasis]:
    return (
        SymbolBasis("E", tuple(f"e{i + 1}" for i in range(m))),
        SymbolBasis("V", tuple(f"v{k + 1}" for k in range(n))),
    )


def from_blocks(
    M: BlockMatrix,
    edge_basis: Optional[SymbolBasis] = None,
    vertex_basis: Optional[SymbolBasis] = None,
) -> PhiMap:
    """The map of the block grid ``M``, built by :func:`from_table`, on e1.. and v1.. by default."""
    dflt_e, dflt_v = default_block_bases(M.m, M.n)
    E = edge_basis or dflt_e
    V = vertex_basis or dflt_v
    if len(E.names) != M.m or len(V.names) != M.n:
        raise ValueError("basis sizes do not match the block grid")
    es, vs = E.labels(), V.labels()
    cells = [(i, k) for i in range(M.m) for k in range(M.n)]
    table = {(es[j], vs[l]): [(M.blocks[i][j][k][l], es[i], vs[k]) for i, k in cells] for j, l in cells}
    return from_table(E, V, table)


def noncommuting_pair(M: BlockMatrix) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The first pair of block positions that fail to commute, or None."""
    flat = [((i, j), M.blocks[i][j]) for i in range(M.m) for j in range(M.m)]
    for x in range(len(flat)):
        for y in range(x + 1, len(flat)):
            if not commute(flat[x][1], flat[y][1]):
                return (flat[x][0], flat[y][0])
    return None


def blocks_commute(M: BlockMatrix) -> bool:
    """Whether all blocks pairwise commute; equivalent to tree-compatibility."""
    return noncommuting_pair(M) is None


def assemble(M: BlockMatrix) -> Matrix:
    """The underlying (m*n) x (m*n) matrix, rows and columns grouped by edge index."""
    size = M.m * M.n
    rows = []
    for i in range(M.m):
        for k in range(M.n):
            row = []
            for j in range(M.m):
                for l in range(M.n):
                    row.append(M.blocks[i][j][k][l])
            rows.append(tuple(row))
    assert len(rows) == size
    return tuple(rows)


def jcell(a, b) -> Matrix:
    """Upper-triangular 2x2 cell with equal diagonal."""
    return mat([[a, b], [0, a]])


def dcell(a, b) -> Matrix:
    """Diagonal 2x2 cell."""
    return mat([[a, 0], [0, b]])


def build_JD(A: Sequence[Sequence], B: Sequence[Sequence], form: str) -> BlockMatrix:
    """The block matrix whose (i,j) block is the J- or D-cell of (A_ij, B_ij)."""
    A, B = mat(A), mat(B)
    if len(A) != len(B) or any(len(r) != len(A) for r in A + B):
        raise ValueError("need two square coefficient matrices of equal size")
    cell = jcell if form == "J" else dcell if form == "D" else None
    if cell is None:
        raise ValueError("form must be 'J' or 'D'")
    m = len(A)
    return BlockMatrix(
        m, 2, tuple(tuple(cell(A[i][j], B[i][j]) for j in range(m)) for i in range(m))
    )


@dataclass(frozen=True)
class AlreadyJD:
    form: str
    a: Matrix
    b: Matrix
    basis_change: Matrix


@dataclass(frozen=True)
class NotCompatible:
    witness: Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class NeedsAlgebraicExtension:
    block: Tuple[int, int]


ClassifyResult = AlreadyJD | NotCompatible | NeedsAlgebraicExtension


def _is_scalar(blk: Matrix) -> bool:
    return blk[0][1] == 0 and blk[1][0] == 0 and blk[0][0] == blk[1][1]


def _is_dcell(blk: Matrix) -> bool:
    return blk[0][1] == 0 and blk[1][0] == 0


def _is_jcell(blk: Matrix) -> bool:
    return blk[1][0] == 0 and blk[0][0] == blk[1][1]


def _read_cells(M: BlockMatrix, reader, form: str, P: Matrix) -> AlreadyJD:
    a = tuple(tuple(reader(M.blocks[i][j])[0] for j in range(M.m)) for i in range(M.m))
    b = tuple(tuple(reader(M.blocks[i][j])[1] for j in range(M.m)) for i in range(M.m))
    return AlreadyJD(form, a, b, P)


def classify_m2(M: BlockMatrix) -> ClassifyResult:
    """Joint normal form of a commuting family of 2x2 blocks over the rationals.

    Returns a vertex-basis change P putting every block simultaneously in
    J-cell or D-cell shape, a witness pair when the blocks do not commute,
    or ``NeedsAlgebraicExtension`` when the normal form would need
    irrational eigenvalues.  When several normal forms exist (the blocks
    do not pin the basis uniquely) the one found first is reported.
    """
    if M.n != 2:
        raise ValueError("classification applies to a two-dimensional vertex space")
    bad = noncommuting_pair(M)
    if bad is not None:
        return NotCompatible(bad)
    flat = [(i, j) for i in range(M.m) for j in range(M.m)]
    # A scalar block is a J-cell with b = 0, so an all-scalar grid reads as J.
    if all(_is_jcell(M.blocks[i][j]) for i, j in flat):
        return _read_cells(M, lambda blk: (blk[0][0], blk[0][1]), "J", identity(2))
    if all(_is_dcell(M.blocks[i][j]) for i, j in flat):
        return _read_cells(M, lambda blk: (blk[0][0], blk[1][1]), "D", identity(2))

    pivot = next((i, j) for i, j in flat if not _is_scalar(M.blocks[i][j]))
    blk = M.blocks[pivot[0]][pivot[1]]
    (p, q), (r, t) = blk
    tr, dt = p + t, p * t - q * r
    disc = tr * tr - 4 * dt
    s = sqrt_fraction(disc)
    if s is None:
        return NeedsAlgebraicExtension(pivot)

    if s != 0:
        l1, l2 = exact_div(tr + s, 2), exact_div(tr - s, 2)

        def eigvec(l):
            if q != 0:
                return (q, l - p)
            if r != 0:
                return (l - t, r)
            return (1, 0) if l == p else (0, 1)

        v1, v2 = eigvec(l1), eigvec(l2)
        P = mat([[v1[0], v2[0]], [v1[1], v2[1]]])
        form, check, reader = "D", _is_dcell, lambda c: (c[0][0], c[1][1])
    else:
        lam = exact_div(tr, 2)
        N = mat_sub(blk, mat([[lam, 0], [0, lam]]))
        w = (1, 0)
        Nw = (N[0][0], N[1][0])
        if Nw == (0, 0):
            w = (0, 1)
            Nw = (N[0][1], N[1][1])
        P = mat([[Nw[0], w[0]], [Nw[1], w[1]]])
        form, check, reader = "J", _is_jcell, lambda c: (c[0][0], c[0][1])

    Pinv = inv2(P)
    conj = tuple(
        tuple(mat_mul(Pinv, mat_mul(M.blocks[i][j], P)) for j in range(M.m)) for i in range(M.m)
    )
    for i, j in flat:
        # Commuting with the pivot forces every block into the same shape.
        assert check(conj[i][j]), (i, j)
    return _read_cells(BlockMatrix(M.m, 2, conj), reader, form, P)
