import pytest

from rtcalc.decorations import symbols
from rtcalc.verify import (
    battery,
    forests_up_to,
    planted_up_to,
    trees_up_to,
)

E = symbols("a", ("a1", "a2"))
V = symbols("b", ("b1", "b2"))
EL, VL = E.labels(), V.labels()


def trees_exact(k):
    """The trees with exactly k vertices, in the order ``trees_up_to`` gives."""
    return [t for t in trees_up_to(k, EL, VL) if t.vertex_count == k]


def test_tree_counts_two_by_two_labels():
    assert [len(trees_exact(k)) for k in (1, 2, 3)] == [2, 8, 52]
    assert len(trees_up_to(3, EL, VL)) == 62


def test_forest_counts_include_empty():
    by_size = [
        sum(1 for f in forests_up_to(3, EL, VL) if f.vertex_count == n)
        for n in range(4)
    ]
    assert by_size == [1, 4, 26, 188]
    assert len(forests_up_to(3, EL, VL)) == 219


def test_planted_counts_single_edge_label():
    E1 = symbols("a", ("a1", "a2"))
    V1 = symbols("b", ("b1",))
    assert len(planted_up_to(3, E1.labels(), V1.labels())) == 20


def test_trees_are_canonical_and_deduplicated():
    ts = trees_up_to(2, EL, VL)
    assert len(set(ts)) == len(ts)
    for k in (1, 2):
        batch = trees_exact(k)
        assert all(t.sort_key <= u.sort_key for t, u in zip(batch, batch[1:]))


def test_battery_small_all_green():
    results = battery("small")
    assert len(results) == 12
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_battery_rejects_unknown_level():
    with pytest.raises(ValueError):
        battery("huge")

