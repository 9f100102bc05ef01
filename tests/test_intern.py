"""Interning: equal trees, forests and labels are one object, the tables
hold them weakly, and a fresh import of rtcalc frees the previous one."""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rtcalc
from forest_oracles import canonicalize
from rtcalc.decorations import STAR, XI, MultiIndex, Sym, mi, symbols
from rtcalc.lincomb import LinComb
from rtcalc.parsing import parse_tree_comb
from rtcalc.prelie import graft_free
from rtcalc.trees import (
    DecoratedTree,
    PlantedTree,
    forest,
    forest_mul,
    insert_child,
    leaf,
    node,
    vertex_sum,
)

E = symbols("E", ("a1", "a2", "a3"))
V = symbols("V", ("b1", "b2", "b3"))
edges = st.sampled_from(E.labels())
vertices = st.sampled_from(V.labels())


@st.composite
def raw_trees(draw, depth=3):
    """Trees with their children in drawn order, not the canonical one."""
    label = draw(vertices)
    n = 0 if depth == 0 else draw(st.integers(min_value=0, max_value=3))
    return DecoratedTree(label, tuple((draw(edges), draw(raw_trees(depth=depth - 1))) for _ in range(n)))


def shuffled(t, rnd):
    """``t`` rebuilt bottom-up with :func:`node`, each family in a random order."""
    kids = [(e, shuffled(c, rnd)) for e, c in t.children]
    rnd.shuffle(kids)
    return node(t.label, kids)


def run_python(script):
    """Run ``script`` in a fresh interpreter importing rtcalc from this tree."""
    src = str(Path(rtcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@given(raw_trees(), raw_trees(depth=2), edges, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_equal_trees_and_forests_built_along_different_paths_are_one_object(t, x, e, rnd):
    c = canonicalize(t)
    assert canonicalize(c) is c
    assert shuffled(t, rnd) is c
    assert parse_tree_comb(c.render(), E, V).sorted_items() == [(c, 1)]

    # Grafting x at the root of c, by the vertex sum and by hand.
    cx = canonicalize(x)
    at_root = DecoratedTree(c.label, insert_child(c.children, (e, cx)))
    assert at_root is node(c.label, c.children + ((e, cx),))
    grafted = graft_free(LinComb.of(cx), e, LinComb.of(c))
    assert grafted.coeff(at_root) >= 1
    assert all(canonicalize(g) is g for g, _ in grafted.sorted_items())
    summed = vertex_sum(c, lambda s: ((node(s.label, s.children + ((e, cx),)), 1),), {})
    assert LinComb(summed) == grafted

    ps = [PlantedTree(e, c), PlantedTree(E.labels()[0], cx), PlantedTree(e, shuffled(t, rnd))]
    f = forest(ps)
    assert forest(reversed(ps)) is f
    assert forest_mul(forest(ps[:1]), forest(ps[1:])) is f
    assert PlantedTree(e, c) is ps[0] is ps[2]


def test_equal_labels_are_one_object():
    assert Sym("E", "a1") is E.labels()[0]
    assert mi(2, 0) is MultiIndex((2, 0)) is mi(1, 0).add(mi(1, 0))
    assert V.resolve_name("b2") is Sym("V", "b2")


def test_the_raw_constructor_keeps_an_unsorted_family_apart():
    a1, a2 = E.labels()[:2]
    b = V.labels()[0]
    raw = DecoratedTree(b, ((a2, leaf(b)), (a1, leaf(b))))
    canonical = node(b, raw.children)
    assert raw is not canonical and raw != canonical
    assert raw is DecoratedTree(b, ((a2, leaf(b)), (a1, leaf(b))))
    assert canonicalize(raw) is canonical


def test_copies_of_interned_values_are_the_values_themselves():
    t = node(V.labels()[0], [(E.labels()[1], leaf(V.labels()[2]))])
    f = forest([PlantedTree(E.labels()[0], t)])
    for value in (t, f, f.trees[0], E.labels()[0], mi(1, 2)):
        assert copy.deepcopy(value) is value
        assert copy.copy(value) is value
    assert copy.deepcopy([t, t])[0] is t


T = node(V.labels()[0], [(E.labels()[1], leaf(mi(1, 2))), (XI, leaf(STAR))])
P = PlantedTree(E.labels()[0], T)


@pytest.mark.parametrize(
    "value",
    [mi(1, 2), E.labels()[2], T, P, forest([P, P]), XI, STAR],
    ids=["multi-index", "symbol", "tree", "planted", "forest", "xi", "star"],
)
def test_pickles_and_deep_copies_are_the_values_themselves(value):
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.deepcopy(value) is value
    assert copy.copy(value) is value
    [(back, c)] = pickle.loads(pickle.dumps(LinComb.of(value, 2))).items()
    assert back is value and c == 2


def test_a_5000_deep_ladder_hashes_and_keys_a_dict():
    b, a = V.labels()[0], E.labels()[0]
    t = leaf(b)
    for _ in range(4999):
        t = node(b, [(a, t)])
    table = {t: 1}
    assert table[node(b, [(a, t.children[0][1])])] == 1


def test_dropping_every_reference_empties_the_tables():
    out = run_python(
        """
        import gc
        from rtcalc import cli, decorations, trees
        from rtcalc.hopf import cut_coproduct, star_product
        from rtcalc.lincomb import LinComb
        from rtcalc.parsing import parse_forest_comb, parse_tree_comb
        from rtcalc.prelie import graft_phi, theta
        from rtcalc.spde import SpdeConfig, phi_lambda
        from rtcalc.verify import trees_up_to

        def live():
            return {
                "trees": sum(len(refs) for refs, _ in trees._TREES.values()),
                "planted": sum(len(refs) for refs, _ in trees._PLANTED.values()),
                "forests": [r().render() for r in trees._FORESTS[0].values()],
                "multi_indices": len(decorations._MULTI_INDICES[0]),
                "symbols": len(decorations._SYMBOLS[0]),
            }

        gc.collect()
        before = live()
        phi = phi_lambda(SpdeConfig(1, (1, 2)))
        x = parse_tree_comb("(<1,0> [<0,1>](<1,1>)) + 2*(<0,1>)", phi.edge_basis, phi.vertex_basis)
        y = parse_tree_comb("(<1,1> [<1,0>](<0,1>) [<1,0>](<0,1>))", phi.edge_basis, phi.vertex_basis)
        grafted = graft_phi(phi, x, decorations.mi(1, 1), y)
        images = theta(phi, grafted)
        f = parse_forest_comb("[<1,1>](<2,0> [<0,1>](<1,0>)) + [<1,0>](<0,1>)", phi.edge_basis, phi.vertex_basis)
        products = star_product(phi, f, f)
        cuts = cut_coproduct(phi, products)
        basis = decorations.symbols("E", ("a1", "a2"))
        enumerated = trees_up_to(3, basis.labels(), decorations.symbols("V", ("b1", "b2")).labels())
        during = live()
        del phi, x, y, grafted, images, f, products, cuts, basis, enumerated
        gc.collect()
        print(before)
        print(during["trees"] > 0, during["forests"] != before["forests"], during["symbols"])
        print(live())
        """
    )
    before, during, after = out.splitlines()
    assert before == after == (
        "{'trees': 0, 'planted': 0, 'forests': ['1'], 'multi_indices': 0, 'symbols': 0}"
    )
    assert during == "True True 4"


def test_a_fresh_import_frees_the_previous_one():
    out = run_python(
        """
        import gc, importlib, sys, weakref
        importlib.import_module("rtcalc.cli")
        from rtcalc import trees
        from rtcalc.decorations import mi

        old = weakref.ref(trees.DecoratedTree)
        kept = trees.leaf(mi(0))
        for name in [m for m in sys.modules if m == "rtcalc" or m.startswith("rtcalc.")]:
            del sys.modules[name]
        importlib.import_module("rtcalc.cli")
        del trees, mi, kept
        gc.collect()
        print(old() is None)
        """
    )
    assert out == "True\n"
