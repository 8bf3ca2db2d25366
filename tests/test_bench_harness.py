"""The rules that every scripts/bench_*.py measurement takes from
scripts/harness.py: the alternating run order, the pair summary with its gain
rule and bound check, and the run header's command line; and README's table
of the scripts."""

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import harness  # noqa: E402

# Ten parent runs with quartiles 9.875 and 10.125: an interquartile range of 0.25.
PARENT = [9.7, 9.8, 9.9, 10.0, 10.0, 10.0, 10.0, 10.1, 10.2, 10.3]


def test_alternating_flips_the_first_side_every_pair_after_an_untimed_warmup():
    rounds = list(harness.alternating(4))
    assert [timed for timed, _ in rounds] == [False, True, True, True, True]
    assert [order for _, order in rounds] == [
        ("change", "parent"), ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent"),
    ]


def test_warmup_runs_each_side_once_and_is_not_timed():
    runs = {side: [] for side in harness.SIDES}
    started = []
    for pair, (timed, order) in enumerate(harness.alternating(5)):
        for side in order:
            started.append(side)
            if timed:
                runs[side].append(pair)
    assert len(started) == 12
    assert runs == {"parent": [1, 2, 3, 4, 5], "change": [1, 2, 3, 4, 5]}


def test_without_warmup_every_pair_is_timed():
    assert list(harness.alternating(2, warmup=False)) == [
        (True, ("parent", "change")), (True, ("change", "parent"))]


def test_more_items_rotate_so_each_runs_first_in_turn():
    orders = [order for timed, order in harness.alternating(3, (16, 32, 64)) if timed]
    assert orders == [(16, 32, 64), (32, 64, 16), (64, 16, 32)]


@pytest.mark.parametrize("better, sign", [("lower", -1), ("higher", 1)])
def test_winning_every_pair_by_more_than_the_iqr_is_a_gain(better, sign):
    change = [p + sign * 1.0 for p in PARENT]
    out = harness.compare(PARENT, change, better)
    assert (out["pairs"], out["pairs_change_better"], out["pairs_parent_better"]) == (10, 10, 0)
    assert out["gain"]
    reverse = harness.compare(PARENT, [p - sign * 1.0 for p in PARENT], better)
    assert (reverse["pairs_change_better"], reverse["pairs_parent_better"], reverse["gain"]) == (0, 10, False)


@pytest.mark.parametrize("better, sign", [("lower", -1), ("higher", 1)])
def test_ties_count_for_neither_side(better, sign):
    change = list(PARENT)
    change[:3] = [p + sign * 1.0 for p in PARENT[:3]]
    out = harness.compare(PARENT, change, better)
    assert (out["pairs_change_better"], out["pairs_parent_better"]) == (3, 0)
    assert not out["gain"]


@pytest.mark.parametrize("better, sign", [("lower", -1), ("higher", 1)])
@pytest.mark.parametrize("lost, gain", [(1, True), (2, False)])
def test_nine_of_ten_pairs_is_a_gain_and_eight_is_not(better, sign, lost, gain):
    change = [p + sign * 1.0 for p in PARENT]
    change[:lost] = [p - sign * 1.0 for p in PARENT[:lost]]
    out = harness.compare(PARENT, change, better)
    assert (out["pairs_change_better"], out["pairs_parent_better"]) == (10 - lost, lost)
    assert out["gain"] is gain


@pytest.mark.parametrize("pairs, gain", [(9, False), (10, True)])
def test_fewer_than_ten_pairs_is_no_gain(pairs, gain):
    # Winning every pair by more than the IQR counts only from ten pairs on:
    # at four pairs, 4/4 passed on a metric whose spread was near zero.
    change = [p - 1.0 for p in PARENT[:pairs]]
    out = harness.compare(PARENT[:pairs], change)
    assert (out["pairs"], out["pairs_change_better"]) == (pairs, pairs)
    assert out["gain"] is gain


def test_a_median_gap_inside_the_parent_iqr_is_no_gain():
    change = [p - 0.2 for p in PARENT]
    out = harness.compare(PARENT, change)
    assert out["pairs_change_better"] == 10
    assert not out["gain"]


@pytest.mark.parametrize("better, change_median, worse", [
    ("lower", 11.1, True), ("lower", 10.9, False), ("lower", 8.0, False),
    ("higher", 8.9, True), ("higher", 9.1, False), ("higher", 12.0, False),
])
def test_bound_flags_a_change_median_worse_by_more_than_the_bound(better, change_median, worse):
    change = [p - 10.0 + change_median for p in PARENT]
    out = harness.compare(PARENT, change, better, bound=0.1)
    assert out["bound"] == 0.1
    assert out["worse_than_bound"] is worse
    assert out["change_over_parent_median"] == round(change_median / 10.0, 4)


def test_bound_flags_a_parent_spread_wider_than_the_bound():
    assert not harness.compare(PARENT, PARENT, bound=0.1)["parent_spread_wider_than_bound"]
    assert harness.compare(PARENT, PARENT, bound=0.02)["parent_spread_wider_than_bound"]
    assert "worse_than_bound" not in harness.compare(PARENT, PARENT)


def test_compare_names_the_pair_keys():
    out = harness.compare(PARENT, [p - 1.0 for p in PARENT], names=("workers_1", "workers_2"), won="faster")
    assert out["pairs_workers_2_faster"] == 10
    assert out["pairs_workers_1_faster"] == 0
    assert out["workers_2_over_workers_1_median"] == 0.9


@pytest.mark.parametrize("bench, script, options", [
    ("BENCH_fixed_cost.json", "bench_fixed_cost.py",
     {"parent": Path("/a"), "change": Path("/b"), "seed": 5, "pairs": 10, "out": "x"}),
    ("BENCH_detect.json", "bench_detect.py",
     {"parent": Path("/a"), "change": Path("/b"), "seed": 5, "pairs": 10, "out": "x", "repeats": 5}),
])
def test_header_writes_the_command_as_the_committed_files_do(monkeypatch, bench, script, options):
    monkeypatch.setattr(sys, "argv", [str(ROOT / "scripts" / script)])
    header = harness.header("what", argparse.Namespace(**options))
    assert header["command"] == json.loads((ROOT / bench).read_text())["command"]
    assert header["nproc"] >= 1
    assert header["numpy"] == harness.version("numpy") is not None
    assert harness.version("no-such-distribution") is None


def test_readme_lists_each_bench_script_once():
    # README's "Measuring a change" table has one row for each
    # scripts/bench_*.py, and each row names a script that exists.
    section = (ROOT / "README.md").read_text().split("\n## Measuring a change\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(scripts/[^`]+)` \|", section, re.M)
    assert sorted(rows) == sorted(f"scripts/{p.name}" for p in (ROOT / "scripts").glob("bench_*.py"))
