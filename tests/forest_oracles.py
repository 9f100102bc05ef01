"""Brute-force forest oracles for the tests.

``grafting_maps`` and ``graft_forest`` graft one assignment at a time with
the identity map, and ``isomorphisms`` lists every isomorphism of the
underlying planted forests.  The package computes the same sums directly:
the deformed product over all assignments at once, the pairing as a
permanent over children.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from rtcalc.decorations import Label
from rtcalc.trees import (
    DecoratedTree,
    Forest,
    ForestVertexId,
    Sites,
    VertexId,
    forest_sites,
    forest_vertex_ids,
    rebuild_forest,
)


# ---------------------------------------------------------------------------
# Grafting maps and forest-level grafting


def grafting_maps(f: Forest, g: Forest) -> List[Tuple[Optional[ForestVertexId], ...]]:
    """Every assignment of each tree of ``f`` to a vertex of ``g`` or to None.

    Returned as tuples indexed like ``f.trees``; there are
    (vertex_count(g) + 1)^len(f.trees) of them.
    """
    targets: List[Optional[ForestVertexId]] = [None]
    targets.extend(forest_vertex_ids(g))
    return list(iproduct(targets, repeat=len(f.trees)))


def _combined_sites(
    f: Forest, g: Forest
) -> Tuple[Sites, Sites, Tuple[int, ...], Tuple[Optional[Label], ...], Tuple[Label, ...], Dict[ForestVertexId, int], Tuple[int, ...]]:
    """Shared scaffolding for grafting ``f`` over ``g``.

    g's vertices keep indices 0..|g|-1; f's are shifted up by |g|.  Returns
    the two sites, the combined parent/label arrays, the index of each g
    vertex address, and the shifted index of each f component root.
    """
    sg = forest_sites(g)
    sf = forest_sites(f)
    off = sg.size
    parent = tuple(sg.parent) + tuple(p + off if p >= 0 else -1 for p in sf.parent)
    elabel = sg.elabel + sf.elabel
    vlabel = sg.vlabel + sf.vlabel
    g_index = {vid: ix for ix, vid in enumerate(sg.vid)}
    f_roots = tuple(r + off for r in sf.roots)
    return sf, sg, parent, elabel, vlabel, g_index, f_roots


def graft_forest(
    f: Forest, g: Forest, gmap: Sequence[Optional[ForestVertexId]]
) -> Forest:
    """Attach each tree of ``f`` at its assigned vertex of ``g`` (None: leave planted)."""
    if len(gmap) != len(f.trees):
        raise ValueError("one target per tree of the grafted forest")
    _, _, parent, elabel, vlabel, g_index, f_roots = _combined_sites(f, g)
    par = list(parent)
    for i, target in enumerate(gmap):
        if target is not None:
            par[f_roots[i]] = g_index[target]
    return rebuild_forest(par, (elabel, vlabel))


# ---------------------------------------------------------------------------
# Isomorphisms of underlying planted forests


def _tree_isos(t1: DecoratedTree, t2: DecoratedTree) -> List[Dict[VertexId, VertexId]]:
    """All shape isomorphisms between two trees, decorations ignored."""
    if t1.shape != t2.shape:
        return []
    n1 = len(t1.children)
    idx2 = list(range(len(t2.children)))
    out: List[Dict[VertexId, VertexId]] = []
    child_shapes1 = [c.shape for _, c in t1.children]
    child_shapes2 = [c.shape for _, c in t2.children]
    for perm in permutations(idx2, n1):
        if any(child_shapes1[i] != child_shapes2[j] for i, j in enumerate(perm)):
            continue
        parts: List[List[Dict[VertexId, VertexId]]] = []
        ok = True
        for i, j in enumerate(perm):
            sub = _tree_isos(t1.children[i][1], t2.children[j][1])
            if not sub:
                ok = False
                break
            parts.append(sub)
        if not ok:
            continue
        for combo in iproduct(*parts):
            iso: Dict[VertexId, VertexId] = {(): ()}
            for i, j in enumerate(perm):
                for p, q in combo[i].items():
                    iso[(i,) + p] = (perm[i],) + q
            out.append(iso)
    return out


def isomorphisms(f1: Forest, f2: Forest) -> List[Dict[ForestVertexId, ForestVertexId]]:
    """All isomorphisms of the underlying undecorated planted forests.

    An isomorphism matches components bijectively and maps vertices
    shape-preservingly inside each; planting, sources and targets are
    preserved by construction.  Edges follow vertices (each vertex owns
    its incoming edge, the plant edge included).
    """
    if len(f1.trees) != len(f2.trees):
        return []
    k = len(f1.trees)
    out: List[Dict[ForestVertexId, ForestVertexId]] = []
    shapes1 = [t.shape for t in f1.trees]
    shapes2 = [t.shape for t in f2.trees]
    for perm in permutations(range(k)):
        if any(shapes1[i] != shapes2[perm[i]] for i in range(k)):
            continue
        parts = []
        ok = True
        for i in range(k):
            sub = _tree_isos(f1.trees[i].body, f2.trees[perm[i]].body)
            if not sub:
                ok = False
                break
            parts.append(sub)
        if not ok:
            continue
        for combo in iproduct(*parts):
            iso: Dict[ForestVertexId, ForestVertexId] = {}
            for i in range(k):
                for p, q in combo[i].items():
                    iso[(i, p)] = (perm[i], q)
            out.append(iso)
    return out
