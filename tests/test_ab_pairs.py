"""tools/ab_pairs.py's summary of paired runs, on synthetic runs (no benchmark runs)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from ab_pairs import summarize  # noqa: E402

TIME = {"name": "t", "unit": "ms", "better": "lower", "bound": 0.25}
ENERGY = {"name": "e", "unit": "ratio", "better": "higher", "bound": 0.1}


def runs(name, values):
    return [{name: v} for v in values]


def test_medians_quartiles_and_pair_counts():
    parent = runs("t", [1.0, 2.0, 3.0, 4.0, 5.0])
    change = runs("t", [0.5, 2.0, 3.5, 3.0, 6.0])
    (row,) = summarize(parent, change, [TIME])
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert row["change"] == {"median": 3.0, "q1": 2.0, "q3": 3.5}
    assert (row["wins"], row["ties"], row["losses"]) == (2, 1, 2)
    assert row["ratio"] == 1.0 and row["unit"] == "ms"


@pytest.mark.parametrize("change, verdict", [
    ([1.2, 1.2, 1.2, 1.2], "within bound"),  # +20% against a 25% bound
    ([1.3, 1.3, 1.3, 1.3], "worse"),
    ([0.5, 0.5, 0.5, 0.5], "within bound"),
])
def test_verdict_against_the_bound(change, verdict):
    (row,) = summarize(runs("t", [1.0, 1.0, 1.0, 1.0]), runs("t", change), [TIME])
    assert row["verdict"] == verdict


def test_a_parent_spread_past_the_bound_is_unresolved():
    # IQR/median 1.0 / 2.0 = 0.5 > 0.25, and the runs overlap
    parent = runs("t", [1.0, 1.5, 2.0, 2.5, 3.0])
    (row,) = summarize(parent, runs("t", [2.0] * 5), [TIME])
    assert row["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    (row,) = summarize(parent, runs("t", [0.9] * 5), [TIME])
    assert row["verdict"] == "within bound" and row["wins"] == 5


def test_higher_is_better_counts_the_other_way():
    parent = runs("e", [0.9, 0.9, 0.9, 0.9])
    (row,) = summarize(parent, runs("e", [0.95, 0.9, 0.7, 0.7]), [ENERGY])
    assert (row["wins"], row["ties"], row["losses"]) == (1, 1, 2)
    assert row["verdict"] == "worse"  # median 0.8, 11% below 0.9
    (row,) = summarize(parent, parent, [ENERGY])
    assert row["verdict"] == "within bound" and row["ties"] == 4
