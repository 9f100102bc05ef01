"""The benchmark's own tests: tiny runs of every workload and of the tracer.

    python3 -m pytest perfbench
"""

import fractions
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_lists_every_workload():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name):
    res, _ = run.measure(name, seed=0, seconds=0.01, setups=1)
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_digests_equal_untraced_and_wrappers_are_removed(name):
    originals = {k: v for k, v in vars(fractions.Fraction).items() if k in ("__add__", "__new__", "__eq__")}
    res, lines = run.trace(name, seed=0, jobs=2)
    assert res["correct"] and res["failed"] == 0, lines
    assert "0 digest mismatches, 0 wrappers left" in lines[0]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for k, v in originals.items():
        assert vars(fractions.Fraction)[k] is v
    assert Tracer.leftover_wrappers() == []


def test_host_factors_use_the_samples_near_each_span():
    w = run.CALIB_WINDOW_S
    samples = [(0.0, 0.001), (10 * w, 0.004), (10.5 * w, 0.002), (50 * w, 0.0001)]
    slow, fast = run.host_factors(samples, [(10 * w, 10 * w), (50 * w, 50 * w)])
    assert slow == pytest.approx(run.CALIB_REF_S / 0.003)
    assert fast == pytest.approx(run.CALIB_REF_S / 0.0001)


def test_tracer_counts_layer_boundaries():
    rt = workloads.load_rtcalc(run.SRC)
    tracer = Tracer()
    tracer.install(rt)
    try:
        tracer.start_job(0)
        t = rt.trees.node(rt.decorations.mi(1), [(rt.decorations.mi(0), rt.trees.leaf(rt.decorations.mi(2)))])
        rt.lincomb.LinComb.of(t) + rt.lincomb.LinComb.of(t)
        tracer.end_job()
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["trees.node_calls"][0] == 1
    assert m["lincomb.add_terms_copied"][0] == 1
    assert m["lincomb.add_useful_ratio"][0] == 0.5
    assert m["fractions.ops"][0] > 0
    assert Tracer.leftover_wrappers() == []


def test_tree_enumeration_matches_verify():
    rt = workloads.load_rtcalc(run.SRC)
    verify = __import__("rtcalc.verify", fromlist=["trees_up_to"])
    labels = [rt.decorations.mi(k) for k in range(2)]
    ours = gen.trees_up_to(rt, 4, labels, labels)
    assert len(ours) == len(set(ours))
    assert set(ours) == set(verify.trees_up_to(4, labels, labels))


def test_forest_pools_hold_each_shape_once_per_labelling():
    rt = workloads.load_rtcalc(run.SRC)
    E, V = rt.phimaps.default_block_bases(2, 2)
    shapes = set()
    for shape in gen.FOREST4_SHAPES:
        pool = gen.labelled_forests(rt, shape, E.labels(), V.labels())
        assert len(pool) == len(set(pool)) and all(f.vertex_count == 4 for f in pool)
        shapes.add(tuple(sorted(t.shape for t in pool[0].trees)))
    assert len(shapes) == len(gen.FOREST4_SHAPES)


def test_goldens_cover_every_graft_job():
    goldens = json.loads(workloads.GOLDENS.read_text())
    assert sorted(goldens) == sorted(workloads.GraftGrowth.key(t, lam) for t, lam in gen.graft_space())


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
