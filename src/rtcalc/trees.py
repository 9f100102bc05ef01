"""Decorated rooted trees, planted trees, forests, and their surgery.

A tree carries one label on every vertex and one on every edge.  Children
are an unordered multiset; the canonical representative keeps them sorted
by (edge label, subtree), recursively, so structural equality coincides
with labeled isomorphism.  A planted tree hangs its body from an extra
undecorated root through a decorated plant edge; that extra root is not a
vertex.  A forest is a multiset of planted trees.

Vertex addresses are paths: the tuple of child positions (in canonical
order) leading down from the root.  An edge is addressed by the path of
its upper endpoint, so the plant edge of a planted tree is the empty path.
Surgery invalidates addresses, so an address refers only to the tree it
was taken from.  Surgery at one vertex keeps trees canonical without
re-sorting them: grafting or relabelling changes one child at each level
on the path from the root to the target, so at each such level that child
is taken out and its new version put back in by bisection against the
siblings, which are already sorted; at the target a new edge goes in the
same way.  Only :func:`node` sorts a whole family of children.

The hash, ``sort_key``, ``vertex_count`` and ``shape`` of a tree (and the
first three of a forest) are each computed on first use and then kept in
a slot.  Subtrees are shared between trees, so a grafted tree recomputes
them only along the path that changed.

Operators that act on many decorations at once (the cut coproduct and the
grafting of whole forests in :mod:`rtcalc.hopf`, the edge-product operator
in :mod:`rtcalc.prelie`, the vertex actions in :mod:`rtcalc.postlie`)
recurse over these canonical trees directly: they build the vertices they
change with :func:`node` or by the bisection above, and share the subtrees
they leave alone with their input.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, List, Optional, Tuple

from .decorations import Label

VertexId = Tuple[int, ...]


class DecoratedTree:
    """A vertex label and a tuple of (edge label, subtree) children.

    Trees, planted trees and forests are immutable by convention, and keep
    their keys in slots filled on first use.  The constructor takes the
    children as given; :func:`node` is the canonical one.
    """

    __slots__ = ("label", "children", "_key", "_hash", "_count", "_shape")

    def __init__(self, label: Label, children: Tuple[Tuple[Label, "DecoratedTree"], ...] = ()):
        self.label = label
        self.children = children
        self._key = self._hash = self._count = self._shape = None

    @property
    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = (self.label.sort_key(), tuple(map(_child_key, self.children)))
        return key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.label, self.children))
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label and self.children == other.children

    @property
    def vertex_count(self) -> int:
        n = self._count
        if n is None:
            n = self._count = 1 + sum([c.vertex_count for _, c in self.children])
        return n

    @property
    def shape(self):
        """The underlying unlabeled rooted tree, as a nested sorted tuple."""
        shape = self._shape
        if shape is None:
            shape = self._shape = tuple(sorted([c.shape for _, c in self.children]))
        return shape

    def render(self) -> str:
        inner = "".join([f" [{e.render()}]{c.render()}" for e, c in self.children])
        return f"({self.label.render()}{inner})"

    def __repr__(self) -> str:
        return f"DecoratedTree{self.render()}"


def _child_key(child: Tuple[Label, DecoratedTree]):
    return (child[0].sort_key(), child[1].sort_key)


def node(label: Label, children: Iterable[Tuple[Label, DecoratedTree]] = ()) -> DecoratedTree:
    """Canonical constructor: sorts the children multiset.

    Each child's key is computed once, and the sort is stable, so equal
    keys keep their input order.
    """
    kids = tuple(children)
    if len(kids) > 1:
        kids = tuple(sorted(kids, key=_child_key))
    return DecoratedTree(label, kids)


def _insert_child(children: Tuple, child: Tuple[Label, DecoratedTree]) -> Tuple:
    """Sorted ``children`` with ``child`` put in at its canonical place."""
    i = bisect_right(children, _child_key(child), key=_child_key)
    return children[:i] + (child,) + children[i:]


def leaf(label: Label) -> DecoratedTree:
    return DecoratedTree(label, ())


def canonicalize(tree: DecoratedTree) -> DecoratedTree:
    """Re-sort every level; idempotent."""
    return node(tree.label, ((e, canonicalize(c)) for e, c in tree.children))


class PlantedTree:
    """A body tree hanging from an undecorated root through a plant edge."""

    __slots__ = ("plant", "body", "_key", "_hash")

    def __init__(self, plant: Label, body: DecoratedTree):
        self.plant = plant
        self.body = body
        self._key = self._hash = None

    @property
    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = (self.plant.sort_key(), self.body.sort_key)
        return key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.plant, self.body))
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.plant == other.plant and self.body == other.body

    @property
    def vertex_count(self) -> int:
        return self.body.vertex_count

    @property
    def shape(self):
        return self.body.shape

    def render(self) -> str:
        return f"[{self.plant.render()}]{self.body.render()}"

    def __repr__(self) -> str:
        return f"PlantedTree{self.render()}"


class Forest:
    """A tuple of planted trees; :func:`forest` is the canonical constructor."""

    __slots__ = ("trees", "_key", "_hash", "_count")

    def __init__(self, trees: Tuple[PlantedTree, ...] = ()):
        self.trees = trees
        self._key = self._hash = self._count = None

    @property
    def sort_key(self):
        key = self._key
        if key is None:
            key = self._key = tuple([t.sort_key for t in self.trees])
        return key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.trees)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.trees == other.trees

    @property
    def vertex_count(self) -> int:
        n = self._count
        if n is None:
            n = self._count = sum([t.body.vertex_count for t in self.trees])
        return n

    def __len__(self) -> int:
        return len(self.trees)

    def render(self) -> str:
        if not self.trees:
            return "1"
        return " ".join(t.render() for t in self.trees)

    def __repr__(self) -> str:
        return f"Forest({self.render()})"


EMPTY_FOREST = Forest()


def forest(trees: Iterable[PlantedTree]) -> Forest:
    """Canonical constructor: sorts the multiset of planted trees."""
    return Forest(tuple(sorted(trees, key=lambda t: t.sort_key)))


def forest_mul(f: Forest, g: Forest) -> Forest:
    return forest(f.trees + g.trees)


# ---------------------------------------------------------------------------
# Vertex addressing on canonical trees


def vertex_ids(tree: DecoratedTree) -> List[VertexId]:
    """All vertex paths in depth-first preorder."""
    out: List[VertexId] = [()]
    for i, (_, c) in enumerate(tree.children):
        out.extend((i,) + p for p in vertex_ids(c))
    return out


def subtree_at(tree: DecoratedTree, path: VertexId) -> DecoratedTree:
    for i in path:
        tree = tree.children[i][1]
    return tree


def label_at(tree: DecoratedTree, path: VertexId) -> Label:
    return subtree_at(tree, path).label


def edge_label_at(tree: DecoratedTree, path: VertexId) -> Label:
    """The label of the edge whose upper endpoint is ``path`` (nonempty)."""
    if not path:
        raise ValueError("the root of a bare tree has no incoming edge")
    parent = subtree_at(tree, path[:-1])
    return parent.children[path[-1]][0]


def _rebuild_path(
    y: DecoratedTree, target: VertexId, at_target: Callable[[DecoratedTree], DecoratedTree]
) -> DecoratedTree:
    """``y`` with the subtree at ``target`` replaced by ``at_target`` of it.

    When ``y`` and the replacement are canonical so is the result: each
    level on the path puts its one changed child back in at its sorted
    place among the siblings, which are already sorted.
    """
    if not target:
        return at_target(y)
    i = target[0]
    e, c = y.children[i]
    updated = _rebuild_path(c, target[1:], at_target)
    return DecoratedTree(y.label, _insert_child(y.children[:i] + y.children[i + 1 :], (e, updated)))


def graft_at(
    x: DecoratedTree,
    target: VertexId,
    y: DecoratedTree,
    edge: Label,
    relabel: Optional[Label] = None,
) -> DecoratedTree:
    """Attach ``x`` below the vertex ``target`` of ``y`` through a new edge.

    ``relabel``, when given, replaces the target vertex's decoration in the
    same stroke.  When ``x`` and ``y`` are canonical so is the result, and
    the new edge goes in at its sorted place.  Addresses into ``y`` do not
    survive.
    """

    def attach(s: DecoratedTree) -> DecoratedTree:
        return DecoratedTree(s.label if relabel is None else relabel, _insert_child(s.children, (edge, x)))

    return _rebuild_path(y, target, attach)


def relabel_at(y: DecoratedTree, target: VertexId, label: Label) -> DecoratedTree:
    """``y`` with the vertex ``target`` decorated ``label``, kept canonical."""
    return _rebuild_path(y, target, lambda s: DecoratedTree(label, s.children))


def split_root_edge(p: PlantedTree, edge: VertexId) -> Tuple[PlantedTree, PlantedTree]:
    """Cut one edge leaving the body root of ``p``.

    ``edge`` is the address of the edge's upper endpoint, a path of length
    one.  Returns (branch planted on the cut edge, remainder with its
    original plant edge).
    """
    if len(edge) != 1:
        raise ValueError("split_root_edge cuts only edges incident to the body root")
    i = edge[0]
    if not 0 <= i < len(p.body.children):
        raise ValueError(f"no child {i} at the body root")
    elab, branch = p.body.children[i]
    rest = node(p.body.label, p.body.children[:i] + p.body.children[i + 1 :])
    return PlantedTree(elab, branch), PlantedTree(p.plant, rest)
