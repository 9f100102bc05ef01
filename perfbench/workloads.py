"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (build the maps,
generate the seeded inputs) and whose ``run(i)`` is job ``i``: one unit of
work a user waits for, checked exactly.  ``run`` returns ``(ok, artifact)``;
``digest(artifact)`` turns the artifact into a string that the traced run
compares with the untraced one.  Workload code reaches rtcalc only through
the module objects in ``rt``, so the tracer's wrappers, installed on those
modules, see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import gen

MODULES = ("lincomb", "decorations", "trees", "phimaps", "spde", "prelie", "hopf", "parsing", "mapfiles")
GOLDENS = Path(__file__).resolve().parent / "graft_goldens.json"


def load_rtcalc(src_dir):
    """Import rtcalc afresh from ``src_dir``; earlier imports are dropped.

    Re-importing gives every set-up cold module-level caches, as a new
    process would have.  Raises ImportError when ``src_dir`` holds no rtcalc.
    """
    for name in [m for m in sys.modules if m == "rtcalc" or m.startswith("rtcalc.")]:
        del sys.modules[name]
    src = str(src_dir)
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    pkg = importlib.import_module("rtcalc")
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        raise ImportError(f"rtcalc was imported from {pkg.__file__}, not from {src_dir}")
    return SimpleNamespace(**{m: importlib.import_module(f"rtcalc.{m}") for m in MODULES})


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class CoeffMaps:
    """Scalar and decoration-map layers: fractional coefficients, no trees.

    Each job builds fresh phi_lambda maps, so the per-map caches start cold,
    and checks phi^l . phi^m = phi^(l+m) and phi^-l . phi^l = id on every
    multi-index pair up to an entry bound (acceptance 02).  The bound is 3 for
    d = 1 and 2 for d = 2, which keeps a job within 0.1-0.3 s.  d = 1 comes
    twice per round of three, so the median falls among the d = 1 jobs and
    the 90th percentile among the d = 2 jobs, away from the boundary.
    """

    name = "coeff-maps"
    trace_jobs = 16
    BOUNDS = {1: 3, 2: 2}

    def __init__(self, rt, seed):
        self.rt = rt
        rng = random.Random(f"{self.name}:{seed}")
        dec = rt.decorations
        self.grids = {}
        for d, bound in self.BOUNDS.items():
            labels = [dec.MultiIndex(t) for t in product(range(bound + 1), repeat=d + 1)]
            self.grids[d] = [(a, b) for a in labels for b in labels]
        self.draws = [
            (d, tuple(gen.rand_positive(rng) for _ in range(d + 1)), tuple(gen.rand_positive(rng) for _ in range(d + 1)))
            for d in gen.round_robin(rng, (1, 1, 2), 400)
        ]

    def run(self, i):
        spde, LinComb = self.rt.spde, self.rt.lincomb.LinComb
        d, lam, mu = self.draws[i % len(self.draws)]
        f_lam = spde.phi_lambda(spde.SpdeConfig(d, lam))
        f_mu = spde.phi_lambda(spde.SpdeConfig(d, mu))
        f_sum = spde.phi_lambda(spde.SpdeConfig(d, tuple(x + y for x, y in zip(lam, mu))))
        f_inv = spde.phi_lambda(spde.SpdeConfig(d, tuple(-x for x in lam)))
        ok = True
        images = []
        for a, b in self.grids[d]:
            composed = f_mu(a, b).map_terms(lambda ab: f_lam(*ab))
            ok = ok and composed == f_sum(a, b)
            ok = ok and f_lam(a, b).map_terms(lambda ab: f_inv(*ab)) == LinComb.of((a, b))
            images.append(composed)
        return ok, images

    def digest(self, images):
        return sha("\n".join(c.render() for c in images))


class GraftGrowth:
    """Large accumulations and tree canonicalisation, plus parse and render.

    Each job builds phi_lambda from a JSON description with mapfiles.build_phi,
    parses a two-vertex seed tree x0, iterates x_(k+1) = graft_phi(phi, x0, a,
    x_k) until the result has at least 300 terms and renders it, which is
    ``rtcalc graft`` repeated as in scripts/spde_demo.py.  Every job the seed
    can draw has a stored SHA-256 of its rendered output.
    """

    name = "graft-growth"
    trace_jobs = 20
    MIN_TERMS = 300

    def __init__(self, rt, seed):
        self.rt = rt
        rng = random.Random(f"{self.name}:{seed}")
        self.jobs = gen.graft_jobs(rng, 200)
        self.goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}

    @staticmethod
    def key(template, lam):
        return f"{template}:{lam[0]}:{lam[1]}"

    def compute(self, template, lam):
        rt = self.rt
        desc, x0_text, a_text = gen.graft_spec(template, lam)
        phi = rt.mapfiles.build_phi(desc)
        x0 = rt.parsing.parse_tree_comb(x0_text, phi.edge_basis, phi.vertex_basis)
        a = rt.parsing.parse_label(a_text, phi.edge_basis, "edge")
        x = x0
        while len(x) < self.MIN_TERMS:
            x = rt.prelie.graft_phi(phi, x0, a, x)
        return rt.parsing.render_comb(x)

    def run(self, i):
        template, lam = self.jobs[i % len(self.jobs)]
        digest = sha(self.compute(template, lam))
        return digest == self.goldens.get(self.key(template, lam)), digest

    def digest(self, digest):
        return digest


class ThetaRoundtrip:
    """The edge-product operator: many small state expansions in prelie.

    Job i takes the next tree, in a seeded order, of all 6,492 trees with up
    to four vertices and labels <0>..<2>, and checks theta(phi^(1/2),
    theta(phi^(-1/2), t)) == t.  It also checks one seeded triple of the
    morphism identity of acceptance 04, theta(graft_free(x, a, y)) ==
    graft_phi(theta x, a, theta y), for a D-form block map on trees with up
    to three vertices.  The lincomb layer is used the other way round from
    graft-growth: many small combinations instead of a few big ones.
    """

    name = "theta-roundtrip"
    trace_jobs = 150

    def __init__(self, rt, seed):
        self.rt = rt
        rng = random.Random(f"{self.name}:{seed}")
        spde, dec, phimaps = rt.spde, rt.decorations, rt.phimaps
        self.fwd = spde.phi_lambda(spde.SpdeConfig(0, (Fraction(1, 2),)))
        self.back = spde.phi_lambda(spde.SpdeConfig(0, (Fraction(-1, 2),)))
        labels = [dec.mi(k) for k in range(3)]
        self.trees = gen.trees_up_to(rt, 4, labels, labels)
        rng.shuffle(self.trees)
        E, V = phimaps.default_block_bases(2, 2)
        jd = phimaps.build_JD(gen.rand_mat(rng, 2), gen.rand_mat(rng, 2), "D")
        self.dmap = phimaps.from_blocks(jd, E, V)
        small = gen.trees_up_to(rt, 3, E.labels(), V.labels())
        self.triples = [(rng.choice(small), rng.choice(E.labels()), rng.choice(small)) for _ in self.trees]

    def run(self, i):
        prelie, LinComb = self.rt.prelie, self.rt.lincomb.LinComb
        n = len(self.trees)
        t = LinComb.of(self.trees[i % n])
        back = prelie.theta(self.back, t)
        ok = prelie.theta(self.fwd, back) == t
        x, a, y = (LinComb.of(z) if k != 1 else z for k, z in enumerate(self.triples[i % n]))
        lhs = prelie.theta(self.dmap, prelie.graft_free(x, a, y))
        rhs = prelie.graft_phi(self.dmap, prelie.theta(self.dmap, x), a, prelie.theta(self.dmap, y))
        return ok and lhs == rhs, (back, lhs)

    def digest(self, artifact):
        return sha("\n".join(c.render(lambda t: t.render()) for c in artifact))


class HopfDuality:
    """The Hopf layer: cut coproduct, deformed product and pairing.

    Job i takes one seeded four-vertex forest f on 2x2 symbol bases, with the
    J-form map phi and its transpose of acceptance 06.  It computes the cut
    coproduct of f and, for each (l, r) in its support, checks <l *_(phi^T)
    r, f> = <l (x) r, Delta_phi f> with star_product and delta_pairing.
    Coefficients are integers and prelie and spde do no work.  Jobs go round
    the nine forest shapes, each round in a seeded order.
    """

    name = "hopf-duality"
    trace_jobs = 45

    def __init__(self, rt, seed):
        self.rt = rt
        rng = random.Random(f"{self.name}:{seed}")
        phimaps = rt.phimaps
        E, V = phimaps.default_block_bases(2, 2)
        self.phi = phimaps.from_blocks(phimaps.build_JD([[1, 2], [0, 3]], [[1, 0], [4, 1]], "J"), E, V)
        self.phi_t = phimaps.transpose_map(self.phi)
        pools = [gen.labelled_forests(rt, shape, E.labels(), V.labels()) for shape in gen.FOREST4_SHAPES]
        for pool in pools:
            rng.shuffle(pool)
        # Round r takes the r-th forest of every shape's shuffled pool, so a
        # run walks through most labellings of each shape instead of drawing
        # them at random; the slow tail that sets job_p90_ms then varies
        # little from seed to seed.
        order = gen.round_robin(rng, range(len(pools)), 120)
        self.forests = [pools[k][i // len(pools) % len(pools[k])] for i, k in enumerate(order)]

    def run(self, i):
        hopf, LinComb = self.rt.hopf, self.rt.lincomb.LinComb
        f = hopf.forest_elem(self.forests[i % len(self.forests)])
        pairing = hopf.delta_pairing()
        cop = hopf.cut_coproduct(self.phi, f)
        ok = True
        values = []
        for (left, right), _ in cop.items():
            prod = hopf.star_product(self.phi_t, hopf.forest_elem(left), hopf.forest_elem(right))
            lhs = hopf.pair_forests(pairing, prod, f)
            ok = ok and lhs == hopf.pair_tensor(pairing, LinComb.of((left, right)), cop)
            values.append(lhs)
        return ok, (cop, values)

    def digest(self, artifact):
        cop, values = artifact
        text = cop.render(lambda lr: f"{lr[0].render()} | {lr[1].render()}")
        return sha(text + "\n" + " ".join(str(v) for v in values))


WORKLOADS = {w.name: w for w in (CoeffMaps, GraftGrowth, ThetaRoundtrip, HopfDuality)}
