from bisect import bisect_right
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from forest_oracles import (
    canonicalize,
    edge_label_at,
    flat_tuple_forest_key,
    flat_tuple_key,
    flat_tuple_planted_key,
    forest_sites,
    forest_vertex_ids,
    graft_at,
    graft_forest,
    grafting_maps,
    isomorphisms,
    label_at,
    nested_forest_key,
    nested_key,
    nested_planted_key,
    rebuild_forest,
    relabel_at,
    restrict,
    subtree_at,
    tree_sites,
    upper_parts,
    upper_subsets,
    vertex_ids,
)
from rtcalc.decorations import STAR, XI, Sym, mi, symbols
from rtcalc.trees import (
    EMPTY_FOREST,
    DecoratedTree,
    Forest,
    PlantedTree,
    forest,
    forest_mul,
    insert_child,
    leaf,
    node,
    split_root_edge,
)

A = [Sym("E", f"a{i}") for i in range(1, 6)]
B = [Sym("V", f"b{i}") for i in range(1, 6)]


def chain(vlabels, elabels):
    """A ladder: vlabels[0] at the root, each next vertex hanging below."""
    t = leaf(vlabels[-1])
    for v, e in zip(reversed(vlabels[:-1]), reversed(elabels)):
        t = node(v, [(e, t)])
    return t


# --- canonical form -------------------------------------------------------


def test_node_sorts_children():
    t1 = node(B[0], [(A[1], leaf(B[1])), (A[0], leaf(B[2]))])
    t2 = node(B[0], [(A[0], leaf(B[2])), (A[1], leaf(B[1]))])
    assert t1 == t2
    assert t1.children[0][0] == A[0]


def test_canonicalize_idempotent_and_deep():
    raw = DecoratedTree(
        B[0],
        (
            (A[1], DecoratedTree(B[1], ((A[1], leaf(B[3])), (A[0], leaf(B[2]))))),
            (A[0], leaf(B[0])),
        ),
    )
    c = canonicalize(raw)
    assert canonicalize(c) == c
    assert c.children[0][0] == A[0]
    inner = c.children[1][1]
    assert [e for e, _ in inner.children] == [A[0], A[1]]


label_strat = st.sampled_from(A[:3] + B[:3] + [mi(0, 1), mi(1, 0)])


@st.composite
def raw_trees(draw, depth=3):
    lab = draw(label_strat)
    if depth == 0:
        return DecoratedTree(lab, ())
    n = draw(st.integers(min_value=0, max_value=2))
    kids = tuple((draw(label_strat), draw(raw_trees(depth=depth - 1))) for _ in range(n))
    return DecoratedTree(lab, kids)


@given(raw_trees())
def test_canonicalize_fixed_point(t):
    assert canonicalize(canonicalize(t)) == canonicalize(t)


def _relabelings(t):
    """All trees obtained by shuffling children orders at every vertex."""
    from itertools import permutations

    child_sets = []
    for e, c in t.children:
        child_sets.append([(e, v) for v in _relabelings(c)])
    out = []
    if not child_sets:
        return [DecoratedTree(t.label, ())]
    for combo in product(*child_sets):
        for perm in permutations(combo):
            out.append(DecoratedTree(t.label, tuple(perm)))
    return out


@given(raw_trees(depth=2))
@settings(max_examples=40)
def test_canonical_equality_is_isomorphism_small(t):
    # Any reordering of children encodes the same labeled tree.
    for variant in _relabelings(t)[:24]:
        assert canonicalize(variant) == canonicalize(t)


def test_distinct_decorations_stay_distinct():
    t1 = node(B[0], [(A[0], leaf(B[1]))])
    t2 = node(B[0], [(A[1], leaf(B[1]))])
    t3 = node(B[1], [(A[0], leaf(B[1]))])
    assert len({t1, t2, t3}) == 3


# --- addressing and surgery -----------------------------------------------


def test_vertex_ids_preorder():
    t = node(B[0], [(A[0], chain([B[1], B[2]], [A[1]])), (A[1], leaf(B[3]))])
    assert vertex_ids(t) == [(), (0,), (0, 0), (1,)]
    assert label_at(t, (0, 0)) == B[2]
    assert edge_label_at(t, (0, 0)) == A[1]
    with pytest.raises(ValueError):
        edge_label_at(t, ())


def test_graft_at_root_and_deep():
    x = leaf(B[4])
    y = chain([B[0], B[1]], [A[0]])
    at_root = graft_at(x, (), y, A[2])
    assert at_root.vertex_count == 3
    assert sorted(e.name for e, _ in at_root.children) == ["a1", "a3"]
    deep = graft_at(x, (0,), y, A[2], relabel=B[3])
    assert label_at(deep, (0,)) == B[3]
    assert subtree_at(deep, (0, 0)) == x


def graft_at_by_resorting(x, target, y, edge, relabel=None):
    """The earlier graft_at, kept as the oracle: node() re-sorts every level
    on the path to the target."""
    if not target:
        lab = y.label if relabel is None else relabel
        return node(lab, y.children + ((edge, x),))
    i = target[0]
    e, c = y.children[i]
    updated = graft_at_by_resorting(x, target[1:], c, edge, relabel)
    return node(y.label, y.children[:i] + ((e, updated),) + y.children[i + 1 :])


def reference_key(t):
    """The key string, recomputed from scratch without the slots."""
    key = t.label.sort_key
    for e, c in t.children:
        key += e.sort_key + reference_key(c)
    return key + "\x00"


def assert_same_graft(x, target, y, edge, relabel):
    got = graft_at(x, target, y, edge, relabel)
    want = graft_at_by_resorting(x, target, y, edge, relabel)
    assert got == want
    assert [e for e, _ in got.children] == [e for e, _ in want.children]
    assert got is want
    assert got.sort_key == want.sort_key == reference_key(got)
    assert cmp(got.sort_key, y.sort_key) == cmp(flat_tuple_key(got), flat_tuple_key(y))
    assert got.vertex_count == want.vertex_count == y.vertex_count + x.vertex_count
    assert canonicalize(got) == got


def test_graft_at_matches_resorting_oracle_on_small_trees():
    from rtcalc.verify import trees_up_to

    elabels, vlabels = A[:2], B[:2]
    ys = trees_up_to(4, elabels, vlabels)
    xs = trees_up_to(2, elabels, vlabels)
    assert (len(ys), len(xs)) == (438, 10)
    for y in ys:
        for target in vertex_ids(y):
            for x in xs:
                for edge in elabels:
                    for relabel in (None, *vlabels):
                        assert_same_graft(x, target, y, edge, relabel)


small_labels = st.sampled_from(A[:2])


@st.composite
def wide_trees(draw, depth=2):
    """Canonical trees whose wide sibling families repeat equal children."""
    if depth == 0:
        return leaf(draw(st.sampled_from(B[:2])))
    pool = draw(st.lists(st.tuples(small_labels, wide_trees(depth=depth - 1)), min_size=1, max_size=3))
    kids = draw(st.lists(st.sampled_from(pool), max_size=7))
    return node(draw(st.sampled_from(B[:2])), kids)


@given(wide_trees(), wide_trees(depth=1), small_labels, st.sampled_from([None, *B[:2]]), st.data())
@settings(max_examples=150, deadline=None)
def test_graft_at_matches_resorting_oracle_on_wide_trees(y, x, edge, relabel, data):
    target = data.draw(st.sampled_from(vertex_ids(y)))
    assert_same_graft(x, target, y, edge, relabel)


def insert_child_by_bisection(children, child):
    """The earlier insert_child, kept as the oracle: bisection on the
    (edge key, subtree key) of every sibling, after the equal ones."""
    key = lambda c: (c[0].sort_key, c[1].sort_key)
    i = bisect_right(children, key(child), key=key)
    return children[:i] + (child,) + children[i:]


def assert_same_insertion(family, child):
    got = insert_child(family, child)
    want = insert_child_by_bisection(family, child)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def test_insert_child_matches_bisection_on_small_trees():
    from rtcalc.verify import trees_up_to

    trees = trees_up_to(4, A[:2], B[:2])
    families = {t.children for t in trees}
    children = [(e, t) for e in A[:2] for t in trees]
    assert (len(families), len(children)) == (219, 876)
    for family in families:
        for child in children:
            assert_same_insertion(family, child)


@given(wide_trees(), small_labels, wide_trees(depth=1))
@settings(max_examples=150, deadline=None)
def test_insert_child_matches_bisection_on_wide_families(y, edge, x):
    assert_same_insertion(y.children, (edge, x))
    for _, c in y.children:
        assert_same_insertion(c.children, (edge, x))
        assert_same_insertion(y.children, (edge, c))


def test_insert_child_reads_no_key_without_an_equal_edge_label():
    fresh = Sym("insert-child-test", "v")
    sibling = (A[0], leaf(B[0]))
    for family in ((), (sibling,)):
        t = node(fresh, [(A[1], leaf(B[1]))])
        assert t._key is None
        assert insert_child(family, (A[1], t)) == family + ((A[1], t),)
        assert t._key is None
        del t
    t = leaf(fresh)
    assert_same_insertion((sibling,), (A[0], t))
    assert t._key is not None


def test_split_root_edge_roundtrip():
    body = node(B[0], [(A[0], leaf(B[1])), (A[1], chain([B[2], B[3]], [A[2]]))])
    p = PlantedTree(A[4], body)
    branch, rest = split_root_edge(p, 1)
    assert branch == PlantedTree(A[1], chain([B[2], B[3]], [A[2]]))
    assert rest == PlantedTree(A[4], node(B[0], [(A[0], leaf(B[1]))]))
    for out_of_range in (2, -1):
        with pytest.raises(ValueError):
            split_root_edge(p, out_of_range)


# --- flat sort keys against the nested reference ---------------------------


def cmp(a, b):
    return (a > b) - (a < b)


mixed_labels = st.sampled_from(
    [A[0], A[1], B[0], Sym("D", "z"), Sym("D", "z\x00"), Sym("D\x00", ""), mi(0), mi(1), mi(0, 1), mi(1, 0), mi(254), mi(10**30), XI, STAR]
)


@st.composite
def mixed_trees(draw, depth=3, width=3):
    """Canonical trees over every label kind, up to ``width`` children a vertex."""
    kids = [] if depth == 0 else draw(st.lists(st.tuples(mixed_labels, mixed_trees(depth - 1, width)), max_size=width))
    return node(draw(mixed_labels), kids)


@st.composite
def deep_trees(draw):
    """A ladder up to 60 deep over every label kind, with a small tree at its foot."""
    t = draw(mixed_trees(depth=1))
    for v, e in draw(st.lists(st.tuples(mixed_labels, mixed_labels), max_size=60)):
        t = node(v, [(e, t)])
    return t


@st.composite
def near_pairs(draw, trees):
    """A tree and the same tree with one change at a drawn vertex: an extra
    child, a new label, or none."""
    t = draw(trees)
    target = draw(st.sampled_from(vertex_ids(t)))
    change = draw(st.sampled_from(["graft", "relabel", "none"]))
    if change == "graft":
        u = graft_at(draw(mixed_trees(depth=1)), target, t, draw(mixed_labels))
    elif change == "relabel":
        u = relabel_at(t, target, draw(mixed_labels))
    else:
        u = t
    return (t, u) if draw(st.booleans()) else (u, t)


any_trees = st.one_of(mixed_trees(), mixed_trees(depth=2, width=8), deep_trees())
tree_pairs = st.one_of(st.tuples(any_trees, any_trees), near_pairs(any_trees))


def assert_ordered_as_nested(x, y, nested, flat):
    """The key strings order as the nested keys and as the flat tuples."""
    assert isinstance(x.sort_key, str)
    assert cmp(x.sort_key, y.sort_key) == cmp(nested(x), nested(y)) == cmp(flat(x), flat(y))


@given(tree_pairs)
@settings(max_examples=200, deadline=None)
def test_flat_tree_keys_order_as_the_nested_ones(pair):
    x, y = pair
    assert x.sort_key == reference_key(x) and y.sort_key == reference_key(y)
    assert (x.sort_key == y.sort_key) == (x is y)
    assert_ordered_as_nested(x, y, nested_key, flat_tuple_key)


@given(tree_pairs, mixed_labels, mixed_labels)
@settings(max_examples=100, deadline=None)
def test_flat_planted_keys_order_as_the_nested_ones(pair, e, f):
    x, y = pair
    for p, q in ((PlantedTree(e, x), PlantedTree(f, y)), (PlantedTree(e, x), PlantedTree(e, y))):
        assert p.sort_key == p.plant.sort_key + reference_key(p.body)
        assert_ordered_as_nested(p, q, nested_planted_key, flat_tuple_planted_key)


planted = st.builds(PlantedTree, mixed_labels, st.one_of(mixed_trees(depth=2), deep_trees()))


@st.composite
def forest_pairs(draw):
    """Two drawn forests; a forest and its first k trees, which differ only
    in length; or two forests that share all trees but one near pair."""
    f = forest(draw(st.lists(planted, max_size=4)))
    kind = draw(st.sampled_from(["drawn", "prefix", "near"]))
    if kind == "drawn":
        return f, forest(draw(st.lists(planted, max_size=4)))
    if kind == "prefix":
        return f, Forest(f.trees[: draw(st.integers(0, len(f)))])
    e = draw(mixed_labels)
    x, y = draw(near_pairs(any_trees))
    return forest(f.trees + (PlantedTree(e, x),)), forest(f.trees + (PlantedTree(e, y),))


@given(forest_pairs())
@settings(max_examples=150, deadline=None)
def test_flat_forest_keys_order_as_the_nested_ones(pair):
    f, g = pair
    assert f.sort_key == "".join(p.sort_key for p in f.trees)
    assert_ordered_as_nested(f, g, nested_forest_key, flat_tuple_forest_key)


def test_flat_keys_order_as_the_nested_ones_on_all_small_trees_and_forests():
    from rtcalc.phimaps import default_block_bases
    from rtcalc.verify import forests_up_to, trees_up_to

    E, V = default_block_bases(2, 2)
    trees = trees_up_to(4, E.labels(), V.labels())
    forests = forests_up_to(3, E.labels(), V.labels())
    assert (len(trees), len(forests)) == (438, 219)
    for keys in ([(t.sort_key, nested_key(t)) for t in trees], [(f.sort_key, nested_forest_key(f)) for f in forests]):
        for i, (flat, nested) in enumerate(keys):
            for flat2, nested2 in keys[i + 1 :]:
                assert cmp(flat, flat2) == cmp(nested, nested2) != 0


# --- sites -----------------------------------------------------------------


def test_sites_roundtrip_forest():
    f = forest(
        [
            PlantedTree(A[0], node(B[0], [(A[1], leaf(B[1]))])),
            PlantedTree(A[2], leaf(B[2])),
        ]
    )
    s = forest_sites(f)
    assert s.size == 3
    assert s.parent.count(-1) == 2
    assert rebuild_forest(s.parent, s.initial_state()) == f


def test_tree_sites_root_has_no_edge():
    t = chain([B[0], B[1], B[2]], [A[0], A[1]])
    s = tree_sites(t)
    assert s.elabel[0] is None
    assert s.parent == (-1, 0, 1)


# --- upper parts and restriction -------------------------------------------


def brute_upper_subsets(sites):
    n = sites.size
    out = []
    for bits in product([0, 1], repeat=n):
        part = frozenset(i for i in range(n) if bits[i])
        if all(c in part for v in part for c in sites.children[v]):
            out.append(part)
    return out


@given(raw_trees())
@settings(max_examples=60)
def test_upper_subsets_match_brute_force(t):
    t = canonicalize(t)
    if t.vertex_count > 6:
        return
    f = forest([PlantedTree(A[0], t)])
    s = forest_sites(f)
    assert sorted(upper_subsets(s), key=sorted) == sorted(brute_upper_subsets(s), key=sorted)


def test_upper_parts_count_on_cherry():
    cherry = node(B[0], [(A[0], leaf(B[1])), (A[1], leaf(B[2]))])
    f = forest([PlantedTree(A[2], cherry)])
    assert len(upper_parts(f)) == 5


def test_restrict_replants_on_cut_edge():
    # Stem with two leaves; keep only the leaves.
    body = node(B[0], [(A[0], leaf(B[1])), (A[1], leaf(B[2]))])
    f = forest([PlantedTree(A[2], body)])
    ids = {vid: vid for vid in forest_vertex_ids(f)}
    part = frozenset([(0, (0,)), (0, (1,))])
    assert part <= set(ids)
    cut = restrict(f, part)
    assert cut == forest([PlantedTree(A[0], leaf(B[1])), PlantedTree(A[1], leaf(B[2]))])
    rest = restrict(f, frozenset([(0, ())]))
    assert rest == forest([PlantedTree(A[2], leaf(B[0]))])


def test_restrict_partitions_edges():
    # Every edge decoration of the forest shows up in exactly one factor.
    body = node(B[0], [(A[0], chain([B[1], B[2]], [A[1]]))])
    f = forest([PlantedTree(A[2], body)])
    for part in upper_parts(f):
        comp = frozenset(forest_vertex_ids(f)) - part
        left, right = restrict(f, part), restrict(f, comp)
        assert left.vertex_count + right.vertex_count == f.vertex_count
        assert left.vertex_count == sum(t.body.vertex_count for t in left.trees)


# --- grafting maps ----------------------------------------------------------


def test_grafting_maps_count():
    f = forest([PlantedTree(A[0], leaf(B[0])), PlantedTree(A[1], leaf(B[1]))])
    g = forest([PlantedTree(A[2], chain([B[2], B[3]], [A[3]]))])
    maps = grafting_maps(f, g)
    assert len(maps) == (g.vertex_count + 1) ** len(f.trees)
    assert len(set(maps)) == len(maps)


def test_graft_forest_structural():
    f = forest([PlantedTree(A[0], leaf(B[0]))])
    g = forest([PlantedTree(A[1], leaf(B[1]))])
    detached = graft_forest(f, g, [None])
    assert detached == forest_mul(f, g)
    attached = graft_forest(f, g, [(0, ())])
    expected = forest([PlantedTree(A[1], node(B[1], [(A[0], leaf(B[0]))]))])
    assert attached == expected


def test_graft_forest_empty_cases():
    g = forest([PlantedTree(A[1], leaf(B[1]))])
    assert graft_forest(EMPTY_FOREST, g, []) == g
    assert graft_forest(g, EMPTY_FOREST, [None]) == g


# --- isomorphisms -----------------------------------------------------------


def test_ladder_vs_ladder_unique_iso():
    f1 = forest([PlantedTree(A[0], chain([B[0], B[1], B[2]], [A[1], A[2]]))])
    f2 = forest([PlantedTree(A[3], chain([B[3], B[0], B[4]], [A[0], A[4]]))])
    isos = isomorphisms(f1, f2)
    assert len(isos) == 1
    assert isos[0][(0, (0, 0))] == (0, (0, 0))


def test_cherry_has_two_self_isos():
    cherry = node(B[0], [(A[0], leaf(B[1])), (A[1], leaf(B[2]))])
    f = forest([PlantedTree(A[2], cherry)])
    assert len(isomorphisms(f, f)) == 2


def test_shape_mismatch_gives_none():
    f1 = forest([PlantedTree(A[0], chain([B[0], B[1]], [A[1]]))])
    f2 = forest([PlantedTree(A[0], leaf(B[0]))])
    assert isomorphisms(f1, f2) == []


def test_symmetry_factor_of_repeated_components():
    p = PlantedTree(A[0], leaf(B[0]))
    q = PlantedTree(A[1], leaf(B[1]))
    f = forest([p, p, q])
    # Components with equal shapes permute freely: 3! bijections, all valid
    # since every body is a single vertex.
    assert len(isomorphisms(f, f)) == 6


def test_forest_canonical_order_and_render():
    p = PlantedTree(A[1], leaf(B[0]))
    q = PlantedTree(A[0], leaf(B[1]))
    f = forest([p, q])
    assert f.trees[0] == q
    assert f.render() == "[a1](b2) [a2](b1)"
    assert EMPTY_FOREST.render() == "1"


def test_tree_render():
    t = node(B[0], [(A[0], leaf(B[1])), (A[1], leaf(B[2]))])
    assert t.render() == "(b1 [a1](b2) [a2](b3))"
    assert PlantedTree(A[2], t).render() == "[a3](b1 [a1](b2) [a2](b3))"


def render_from_scratch(t):
    """The text of ``t`` built anew at every vertex, without the cache."""
    text = "(" + t.label.render()
    for e, c in t.children:
        text += f" [{e.render()}]" + render_from_scratch(c)
    return text + ")"


def test_render_matches_a_from_scratch_render():
    from rtcalc.verify import trees_up_to

    for t in trees_up_to(4, A[:2], B[:2] + [mi(0, 1)]):
        assert t.render() == render_from_scratch(t)
        assert PlantedTree(A[0], t).render() == f"[a1]{render_from_scratch(t)}"
    ladder = chain([B[2]] * 900, [A[3]] * 899)
    assert ladder._text is None
    assert ladder.render() == render_from_scratch(ladder) == "(b3 [a4]" * 899 + "(b3)" + ")" * 899
