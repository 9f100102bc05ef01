"""Seeded input generators for the benchmark workloads.

Generators take the imported rtcalc modules (``rt``, see
``workloads.load_rtcalc``) and, where they draw, a ``random.Random`` built
from the run's seed, so the same seed always yields the same inputs.  Trees and forests are built
directly with ``trees.node``; ``verify.forests_up_to`` is avoided because it
enumerates every forest up to the size and is far too slow at five vertices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def rand_positive(rng, top=2, den=3):
    """A small positive rational.  Zero or opposite entries would delete or
    cancel terms, and with them a seed-dependent share of the work."""
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def rand_mat(rng, n):
    return [[rand_positive(rng) for _ in range(n)] for _ in range(n)]


def trees_exact(rt, k, elabels, vlabels, memo):
    """Every decorated tree with exactly ``k`` vertices, each once.

    A tree is a root label plus a multiset of (edge label, subtree) children;
    multisets are enumerated as non-decreasing index sequences over the
    candidate children, so no tree is produced twice.
    """
    if k in memo:
        return memo[k]
    if k == 1:
        out = [rt.trees.leaf(v) for v in vlabels]
    else:
        items = []  # (size, (edge label, subtree))
        for size in range(1, k):
            items.extend((size, (e, t)) for e in elabels for t in trees_exact(rt, size, elabels, vlabels, memo))
        out = []

        def kids(rest, start, acc):
            if rest == 0:
                yield tuple(acc)
                return
            for i in range(start, len(items)):
                size, item = items[i]
                if size <= rest:
                    acc.append(item)
                    yield from kids(rest - size, i, acc)
                    acc.pop()

        for root in vlabels:
            for children in kids(k - 1, 0, []):
                out.append(rt.trees.node(root, children))
    memo[k] = out
    return out


def trees_up_to(rt, n, elabels, vlabels):
    memo = {}
    return [t for k in range(1, n + 1) for t in trees_exact(rt, k, elabels, vlabels, memo)]


# The nine shapes of planted forests with four vertices.  A tree shape is the
# tuple of its children's shapes; a forest shape is a tuple of tree shapes.
LEAF = ()
CHAIN2 = (LEAF,)
FOREST4_SHAPES = (
    ((((LEAF,),),),),                # one chain of four
    (((LEAF, LEAF),),),              # root, one child with two leaves
    ((CHAIN2, LEAF),),               # root with a chain of two and a leaf
    ((LEAF, LEAF, LEAF),),           # star with three leaves
    ((CHAIN2,), LEAF),               # chain of three, single vertex
    ((LEAF, LEAF), LEAF),            # cherry, single vertex
    (CHAIN2, CHAIN2),                # two chains of two
    (CHAIN2, LEAF, LEAF),            # chain of two, two single vertices
    (LEAF, LEAF, LEAF, LEAF),        # four single vertices
)


def shape_size(shape):
    return 1 + sum(shape_size(c) for c in shape)


def labelled_tree(rt, shape, edges, verts):
    kids = [(next(edges), labelled_tree(rt, c, edges, verts)) for c in shape]
    return rt.trees.node(next(verts), kids)


def labelled_forests(rt, shape, elabels, vlabels):
    """Every distinct forest of the given shape, in a fixed order.  Each
    vertex and its incoming edge (plant edges included) take every label."""
    n = sum(shape_size(s) for s in shape)
    out = {}
    for es in product(elabels, repeat=n):
        for vs in product(vlabels, repeat=n):
            edges, verts = iter(es), iter(vs)
            f = rt.trees.forest(rt.trees.PlantedTree(next(edges), labelled_tree(rt, s, edges, verts)) for s in shape)
            out.setdefault(f, None)
    return list(out)


def round_robin(rng, classes, cycles):
    """``cycles`` rounds over ``classes``, each round in a fresh seeded order.

    Every stretch of consecutive jobs then holds each class in nearly equal
    numbers, so the job-latency quantiles do not jump between classes of
    different cost from one seed to the next.
    """
    out = []
    for _ in range(cycles):
        order = list(classes)
        rng.shuffle(order)
        out.extend(order)
    return out


# graft-growth: seed trees and grafting labels on N^2 multi-indices (d = 1).
# Five light templates end near 500 terms and one heavy template near 1,350.
# A round holds the heavy one twice, so the 90th percentile falls inside the
# heavy jobs, among which only lambda varies.  Term counts depend only on the
# template, because every lambda entry is nonzero.
GRAFT_TEMPLATES = (
    ("(<1,0> [<1,0>](<0,0>))", "<1,0>"),
    ("(<2,1> [<1,0>](<0,1>))", "<1,1>"),
    ("(<0,0> [<0,1>](<0,1>))", "<0,2>"),
    ("(<0,1> [<0,2>](<2,0>))", "<1,0>"),
    ("(<0,2> [<2,0>](<0,0>))", "<2,0>"),
    ("(<1,0> [<0,2>](<0,2>))", "<1,1>"),
)
GRAFT_ROUND = (0, 1, 2, 3, 4, 5, 5)
GRAFT_LAMBDAS = ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-2/3")


def graft_spec(template, lam):
    """The JSON map description, seed-tree text and label text of one job."""
    x0, a = GRAFT_TEMPLATES[template]
    return {"builder": "phi_lambda", "d": 1, "lambda": list(lam)}, x0, a


def graft_space():
    """Every (template, lambda) job the graft-growth workload can draw."""
    return [(t, lam) for t in range(len(GRAFT_TEMPLATES)) for lam in product(GRAFT_LAMBDAS, repeat=2)]


def graft_jobs(rng, cycles):
    return [(t, (rng.choice(GRAFT_LAMBDAS), rng.choice(GRAFT_LAMBDAS)))
            for t in round_robin(rng, GRAFT_ROUND, cycles)]
