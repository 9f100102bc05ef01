r"""Decorated rooted trees, planted trees, forests, and sums over vertices.

A tree carries one label on every vertex and one on every edge.  Children
are an unordered multiset; the canonical representative keeps them sorted
by (edge label, subtree), recursively, so structural equality coincides
with labeled isomorphism.  A planted tree hangs its body from an extra
undecorated root through a decorated plant edge; that extra root is not a
vertex.  A forest is a multiset of planted trees.

Sort keys are the canonical preorder strings of Aho, Hopcroft and Ullman's
tree isomorphism test.  A tree's key is its root's label key, then each
child's edge key and own key, then ``"\x00"``; a planted tree's is its
plant key and its body's; a forest's, its planted trees' keys in a row.  No
label key is a prefix of another and ``"\x00"`` sorts below all of them, so
no subtree's key is a prefix of another's, and keys order as the nested
(label, ((edge, subtree), ...)) keys do, by one string comparison in C.

A sum over the vertices of a tree, of some change made at each vertex, is
:func:`vertex_sum`: the change at the root, plus, for each child, the
child's own sum put back in its place.  A changed child goes back in by
:func:`insert_child`, a linear scan of its siblings, which are already
sorted: edge labels are compared first, and the child's subtree key is
read only against a sibling under an equal edge label, so a child that
goes into an empty family, or beside other edge labels only, needs no
key.  The result stays canonical without re-sorting; only :func:`node`
sorts a whole family of children.  A run of m equal children is summed
once and counted m times, since changing any one of them gives the same
tree.  The sum of a subtree does not depend on where the subtree sits,
so a memo passed in by the caller keeps each distinct subtree's sum for
as long as the change stays the same: one term of the left factor in one
grafting call, one whole call of the vertex action.  A grafting call
keeps one memo per term of its left factor, and all of them live until
the call returns.  The recursion is a module-level function that takes
the memo as an argument.  A nested function that called itself would
refer to itself through its closure, and that cycle would keep the memo
alive until the garbage collector ran; as it is, the memo is freed by
reference counting when the call returns.

Trees, planted trees and forests are interned (:mod:`rtcalc.intern`), so
they hash and compare by identity.  A tree is looked up by vertex label,
then by children tuple, whose entries are interned already, so no lookup
hashes a subtree.  The raw constructor keeps the children as given, and an
unsorted family is another value than the sorted one :func:`node` builds.
The vertex count is set when a value is made; the ``sort_key`` and text of
a tree (and a planted tree's or forest's ``sort_key``) are kept in slots
filled on first use, and ``shape`` is worked out afresh on each read.
Subtrees are shared, so a grafted tree recomputes its key and text only
along its changed path, and printing renders each distinct subtree once.  A key holds a code per vertex, edge and subtree end.

Every operator recurses over these canonical trees directly: grafting in
:mod:`rtcalc.prelie` and the vertex action in :mod:`rtcalc.postlie`
through :func:`vertex_sum`; the edge-product operator in
:mod:`rtcalc.prelie`, and the cut coproduct and forest grafting in
:mod:`rtcalc.hopf`, through recursions of their own.  They build the
vertices they change with :func:`node` or :func:`insert_child`, and
share the subtrees they leave alone with their input.  Nothing addresses
a vertex by its path from the root.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from .decorations import Label
from .intern import Interned, store, table

# Intern tables: trees by label, then children; planted trees by plant, then body.
_TREES: Dict = {}
_PLANTED: Dict = {}
_FORESTS = table()


class DecoratedTree(Interned):
    """A vertex label and a tuple of (edge label, subtree) children.

    Trees, planted trees and forests are immutable by convention, as each
    is shared by every holder of an equal value, and keep their keys in
    slots filled on first use.  The constructor takes the children as
    given; :func:`node` is the canonical one.
    """

    __slots__ = ("label", "children", "vertex_count", "_key", "_text")

    def __new__(cls, label: Label, children: Tuple[Tuple[Label, "DecoratedTree"], ...] = ()):
        entry = _TREES.get(label) or table(_TREES, label)
        ref = entry[0].get(children)
        if ref is not None and (t := ref()) is not None:
            return t
        t = object.__new__(cls)
        t.label = label
        t.children = children
        n = 1
        for _, c in children:
            n += c.vertex_count
        t.vertex_count = n
        t._key = t._text = None
        return store(entry, children, t, _TREES, label)

    @property
    def sort_key(self) -> str:
        r"""The root's label key, each child's edge key and key, then ``"\x00"``."""
        key = self._key
        if key is None:
            parts = [self.label.sort_key]
            for e, c in self.children:
                parts.append(e.sort_key)
                parts.append(c._key or c.sort_key)
            parts.append("\x00")
            key = self._key = "".join(parts)
        return key

    @property
    def shape(self):
        """The underlying unlabeled rooted tree, as a nested sorted tuple."""
        return tuple(sorted([c.shape for _, c in self.children]))

    def render(self) -> str:
        """The text ``(label [edge](child) ...)``, made once: one frame per
        level, a child's cached text read without a call."""
        text = self._text
        if text is None:
            parts = ["(", self.label.render()]
            for e, c in self.children:
                parts.append(f" [{e.render()}]")
                parts.append(c._text or c.render())
            parts.append(")")
            text = self._text = "".join(parts)
        return text

    def __reduce__(self):
        return DecoratedTree, (self.label, self.children)

    def __repr__(self) -> str:
        return f"DecoratedTree{self.render()}"


def _child_key(child: Tuple[Label, DecoratedTree]):
    return (child[0].sort_key, child[1].sort_key)


def node(label: Label, children: Iterable[Tuple[Label, DecoratedTree]] = ()) -> DecoratedTree:
    """Canonical constructor: sorts the children multiset.

    Each child's key is computed once, and the sort is stable, so equal
    keys keep their input order.
    """
    kids = tuple(children)
    if len(kids) > 1:
        kids = tuple(sorted(kids, key=_child_key))
    return DecoratedTree(label, kids)


def insert_child(children: Tuple, child: Tuple[Label, DecoratedTree]) -> Tuple:
    """Sorted ``children`` with ``child`` put in at its canonical place,
    after every sibling of an equal key.

    The siblings are scanned in order, edge label first; the subtrees' keys
    are compared only under an equal edge label, so a child put into an
    empty family, or among other edge labels only, never reads its key.
    Labels and trees are interned, so an equal one is the same object.
    """
    e, t = child
    for i, (f, s) in enumerate(children):
        if f is e:
            if s is not t and t.sort_key < s.sort_key:
                return children[:i] + (child,) + children[i:]
        elif e.sort_key < f.sort_key:
            return children[:i] + (child,) + children[i:]
    return children + (child,)


def leaf(label: Label) -> DecoratedTree:
    return DecoratedTree(label, ())


class PlantedTree(Interned):
    """A body tree hanging from an undecorated root through a plant edge."""

    __slots__ = ("plant", "body", "vertex_count", "_key")

    def __new__(cls, plant: Label, body: DecoratedTree):
        entry = _PLANTED.get(plant) or table(_PLANTED, plant)
        ref = entry[0].get(body)
        if ref is not None and (p := ref()) is not None:
            return p
        p = object.__new__(cls)
        p.plant = plant
        p.body = body
        p.vertex_count = body.vertex_count
        p._key = None
        return store(entry, body, p, _PLANTED, plant)

    @property
    def sort_key(self) -> str:
        key = self._key
        if key is None:
            key = self._key = self.plant.sort_key + self.body.sort_key
        return key

    @property
    def shape(self):
        return self.body.shape

    def render(self) -> str:
        return f"[{self.plant.render()}]{self.body.render()}"

    def __reduce__(self):
        return PlantedTree, (self.plant, self.body)

    def __repr__(self) -> str:
        return f"PlantedTree{self.render()}"


class Forest(Interned):
    """A tuple of planted trees; :func:`forest` is the canonical constructor."""

    __slots__ = ("trees", "vertex_count", "_key")

    def __new__(cls, trees: Tuple[PlantedTree, ...] = ()):
        ref = _FORESTS[0].get(trees)
        if ref is not None and (f := ref()) is not None:
            return f
        f = object.__new__(cls)
        f.trees = trees
        f.vertex_count = sum([t.vertex_count for t in trees])
        f._key = None
        return store(_FORESTS, trees, f)

    @property
    def sort_key(self) -> str:
        key = self._key
        if key is None:
            key = self._key = "".join([t.sort_key for t in self.trees])
        return key

    def __len__(self) -> int:
        return len(self.trees)

    def render(self) -> str:
        if not self.trees:
            return "1"
        return " ".join(t.render() for t in self.trees)

    def __reduce__(self):
        return Forest, (self.trees,)

    def __repr__(self) -> str:
        return f"Forest({self.render()})"


EMPTY_FOREST = Forest()


def forest(trees: Iterable[PlantedTree]) -> Forest:
    """Canonical constructor: sorts the multiset of planted trees."""
    return Forest(tuple(sorted(trees, key=lambda t: t.sort_key)))


def forest_mul(f: Forest, g: Forest) -> Forest:
    return forest(f.trees + g.trees)


# ---------------------------------------------------------------------------
# Sums over the vertices of a tree, and cuts at the root


def vertex_sum(s: DecoratedTree, local: Callable[[DecoratedTree], Iterable], memo: Dict) -> Tuple:
    """The sum, over the vertices v of ``s``, of a local change made at v.

    ``local(t)`` gives the (tree, coefficient) pairs that change the root
    of the subtree ``t``; they must be canonical and depend on ``t`` only.
    The result, a tuple of such pairs, is ``local(s)`` followed, for each
    child, by the child's own sum put back in its place.  A run of m equal
    children contributes one child's sum with every coefficient times m,
    and each new child goes in by :func:`insert_child` among the siblings,
    which stay sorted.  ``memo`` holds the sum of every distinct subtree
    seen, so it must be scoped to one ``local``.
    """
    image = memo.get(s)
    if image is not None:
        return image
    terms = list(local(s))
    kids = s.children
    label = s.label
    i, n = 0, len(kids)
    while i < n:
        child = kids[i]
        j = i + 1
        while j < n and kids[j] == child:
            j += 1
        e = child[0]
        rest = kids[:i] + kids[i + 1 :]
        m = j - i
        for g, k in vertex_sum(child[1], local, memo):
            terms.append((DecoratedTree(label, insert_child(rest, (e, g))), k * m if m > 1 else k))
        i = j
    image = memo[s] = tuple(terms)
    return image


def split_root_edge(p: PlantedTree, i: int) -> Tuple[PlantedTree, PlantedTree]:
    """Cut the edge from the body root of ``p`` to its child ``i``.

    Returns (branch planted on the cut edge, remainder with its original
    plant edge).
    """
    if not 0 <= i < len(p.body.children):
        raise ValueError(f"no child {i} at the body root")
    elab, branch = p.body.children[i]
    rest = node(p.body.label, p.body.children[:i] + p.body.children[i + 1 :])
    return PlantedTree(elab, branch), PlantedTree(p.plant, rest)
