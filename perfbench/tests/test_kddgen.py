"""Tests of the benchmark's data generator and of BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import kddgen  # noqa: E402
from gaids.ingest import (  # noqa: E402
    ATTACK_CATEGORIES, CATEGORIES, NUM_FEATURES, fit_normalization, parse_record, read_records,
)
from gaids.model import precalculate  # noqa: E402

SPEC = kddgen.Spec(train_records=3000, test_records=400, subclusters=60, malformed=17, unknown=11)


@pytest.fixture(scope="module")
def data():
    return kddgen.generate(SPEC, seed=7)


def written(tmp_path, name, seed):
    d = kddgen.generate(SPEC, seed)
    kddgen.write_lines(tmp_path / f"{name}.train", d.train_lines)
    kddgen.write_lines(tmp_path / f"{name}.test", d.test_lines)
    return (tmp_path / f"{name}.train").read_bytes(), (tmp_path / f"{name}.test").read_bytes()


def known_lines(d):
    return [ln for ln in d.train_lines if ln.rsplit(",", 1)[-1][:-1] in ATTACK_CATEGORIES
            and len(ln.split(",")) == 42 and "nan" not in ln and "n/a" not in ln]


def test_same_seed_gives_byte_identical_files(tmp_path):
    assert written(tmp_path, "a", 3) == written(tmp_path, "b", 3)


def test_different_seeds_give_different_files(tmp_path):
    train_a, test_a = written(tmp_path, "a", 3)
    train_b, test_b = written(tmp_path, "b", 4)
    assert train_a != train_b and test_a != test_b


def test_apportion_is_exact_and_keeps_the_floor():
    parts = kddgen.apportion(1000, kddgen.KDD_CLASS_COUNTS, floor=5)
    assert sum(parts.values()) == 1000
    assert min(parts.values()) == 5  # u2r would round to 0 without the floor
    assert parts["dos"] > parts["normal"] > parts["probe"] > parts["r2l"] >= parts["u2r"]


def test_train_class_counts_follow_the_kdd_mix(data):
    expected = kddgen.apportion(SPEC.train_records, kddgen.KDD_CLASS_COUNTS, kddgen.MIN_PER_CLASS)
    assert data.train_class_counts == expected
    counts = {c: 0 for c in CATEGORIES}
    for line in known_lines(data):
        counts[ATTACK_CATEGORIES[line.rsplit(",", 1)[-1][:-1]]] += 1
    assert counts == expected
    assert min(counts.values()) >= kddgen.MIN_PER_CLASS


def test_duplicate_share_matches_the_spec(data):
    lines = known_lines(data)
    assert len(lines) == SPEC.train_records
    duplicates = len(lines) - len(set(lines))
    assert duplicates == data.duplicate_lines
    assert abs(duplicates / len(lines) - SPEC.duplicate_share) < 0.01


def test_injected_lines_are_counted(data, caplog):  # caplog keeps the unknown-name warnings quiet
    records, skipped = read_records(data.train_lines, strict=False)
    assert skipped == SPEC.malformed == data.malformed
    assert len(records) == data.train_records == SPEC.train_records + SPEC.unknown
    unknown = [r for r in records if r.attack_name not in ATTACK_CATEGORIES]
    assert len(unknown) == SPEC.unknown
    assert {r.attack_name for r in unknown} <= set(kddgen.UNKNOWN_NAMES)
    assert not set(kddgen.UNKNOWN_NAMES) & set(ATTACK_CATEGORIES)


def test_test_file_is_strict_clean_with_the_stated_class_counts(data):
    records, skipped = read_records(data.test_lines, strict=True)
    assert skipped == 0 and len(records) == SPEC.test_records
    counts = {c: 0 for c in CATEGORIES}
    for r in records:
        counts[r.category] += 1
    assert counts == data.test_class_counts


def test_features_mix_heavy_tails_with_unit_rates(data):
    records, _ = read_records(data.train_lines, strict=False)
    x = np.stack([r.features for r in records])
    assert x.shape[1] == NUM_FEATURES
    rates = x[:, list(kddgen.RATES)]
    assert rates.min() >= 0.0 and rates.max() <= 1.0
    # After min-max scaling, most byte counts sit near 0 under a few huge ones.
    src_bytes = x[:, 1]
    assert np.median(src_bytes) < 0.05 * src_bytes.max()


def test_each_subcluster_trains_into_about_one_chromosome(data):
    records, _ = read_records(known_lines(data), strict=True)
    model = precalculate(records, 0.125, fit_normalization(records))
    assert data.subclusters > len(model.groups)  # several sub-clusters per name
    assert abs(model.num_chromosomes() - data.subclusters) <= 0.1 * data.subclusters


def test_every_wellformed_line_is_a_kdd_line(data):
    for line in data.test_lines[:50]:
        raw = parse_record(line)
        assert raw.trailing_period and len(raw.fields) == 41


def test_benchmark_json_names_what_the_script_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
