import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaids import kernels, parallel
from gaids.engine import GaParams, detect, run_batch
from gaids.errors import (
    EmptyDataset,
    EmptyModel,
    ModelFormatError,
    ModelVersionMismatch,
)
from gaids.ingest import NUM_FEATURES, NormalizationStats
from gaids.model import SPREAD_EPSILON, ChromosomeModel, load_model, precalculate, save_model

from conftest import build_model, dataset, random_model, record


def distance(a, b):
    """The distance the kernels use, here of a against a one-row model."""
    return kernels.nearest_centroid(a, b[None, :])[1]


def nearest(x, model):
    """(row index in the model, distance) of x's nearest chromosome."""
    return kernels.nearest_centroid(x, model.centroids)


def bruteforce_nearest(x, model):
    """Exhaustive linear scan over the chromosomes in scan order (by group
    label, then insertion order), plain python, first index wins."""
    best = None
    chroms = [c for g in sorted(model.groups, key=lambda g: g.label) for c in g.chromosomes]
    for i, chrom in enumerate(chroms):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, chrom.centroid)) / len(x))
        if best is None or d < best[1]:
            best = (i, d)
    return best


class TestDistance:
    def test_identity(self, rng):
        x = rng.random(NUM_FEATURES)
        assert distance(x, x) == 0.0

    def test_maximal_unit_cube(self):
        assert distance(np.zeros(NUM_FEATURES), np.ones(NUM_FEATURES)) == 1.0

    def test_single_dim_half(self):
        # sqrt(0.5^2 / 38), frozen from direct arithmetic.
        a = np.zeros(NUM_FEATURES)
        b = np.zeros(NUM_FEATURES)
        b[7] = 0.5
        assert distance(a, b) == pytest.approx(0.08111071056538127, abs=1e-15)
        assert distance(a, b) == pytest.approx(math.sqrt(0.25 / 38), abs=1e-15)

    def test_symmetric(self, rng):
        a, b = rng.random(NUM_FEATURES), rng.random(NUM_FEATURES)
        assert distance(a, b) == distance(b, a)


def merge_all(points, label="normal"):
    """The single chromosome precalculate builds from `points`, with a merge
    range spanning the whole unit cube so that every record merges."""
    m = precalculate(dataset(record(x, label) for x in points), 1.0, NormalizationStats.identity())
    [chrom] = m.groups[0].chromosomes
    return chrom


class TestMergeRecord:
    def test_merge_identical_point(self, rng):
        x = rng.random(NUM_FEATURES)
        c = merge_all([x, x])
        assert np.array_equal(c.centroid, x)
        assert c.member_count == 2
        assert c.spread == 0.0

    def test_two_point_midpoint(self):
        x = np.zeros(NUM_FEATURES)
        x[0] = 1.0
        c = merge_all([np.zeros(NUM_FEATURES), x])
        assert c.centroid[0] == 0.5
        assert np.all(c.centroid[1:] == 0.0)
        assert c.member_count == 2

    def test_centroid_equals_batch_mean(self, rng):
        points = rng.random((20, NUM_FEATURES))
        c = merge_all(points)
        assert c.member_count == 20
        np.testing.assert_allclose(c.centroid, points.mean(axis=0), atol=1e-9)

    def test_spread_equals_recomputed_std(self, rng):
        # Oracle: the stream of distances from each record to the mean of the
        # records before it (the seed contributes 0), as one batch std.
        points = rng.random((50, NUM_FEATURES))
        c = merge_all(points)
        stream = [0.0] + [
            distance(points[i], points[:i].mean(axis=0)) for i in range(1, len(points))
        ]
        assert c.spread == pytest.approx(float(np.std(stream)), abs=1e-12)
        assert c.spread >= 0.0


class TestPrecalculate:
    def test_three_points_within_range_merge_to_one(self):
        # Hand trace: r1 seeds; r2 within range of r1 merges (centroid at the
        # midpoint); r3 is within range of the midpoint, merges too.
        recs = [record({0: 0.00}), record({0: 0.02}), record({0: 0.04})]
        m = precalculate(dataset(recs), 0.125, NormalizationStats.identity())
        assert len(m.groups) == 1
        assert len(m.groups[0].chromosomes) == 1
        assert m.groups[0].chromosomes[0].member_count == 3

    def test_three_points_beyond_range_stay_apart(self):
        recs = [
            record(np.zeros(NUM_FEATURES)),
            record(np.ones(NUM_FEATURES)),
            record(np.full(NUM_FEATURES, 0.5)),
        ]
        m = precalculate(dataset(recs), 0.125, NormalizationStats.identity())
        assert len(m.groups[0].chromosomes) == 3
        assert all(c.member_count == 1 for c in m.groups[0].chromosomes)

    def test_member_count_conservation(self, rng):
        labels = ["normal", "smurf", "nmap", "perl"]
        recs = [
            record(rng.random(NUM_FEATURES), labels[int(rng.integers(0, 4))])
            for _ in range(300)
        ]
        m = precalculate(dataset(recs), 0.3, NormalizationStats.identity())
        total = sum(c.member_count for g in m.groups for c in g.chromosomes)
        assert total == 300
        assert m.training_size == 300

    def test_merging_never_crosses_labels(self, rng):
        # Identical feature vectors under two labels must seed two chromosomes.
        x = rng.random(NUM_FEATURES)
        recs = [record(x, "normal"), record(x, "smurf"), record(x, "normal")]
        m = precalculate(dataset(recs), 0.5, NormalizationStats.identity())
        by_label = {g.label: g for g in m.groups}
        assert len(by_label["normal"].chromosomes) == len(by_label["smurf"].chromosomes) == 1
        assert by_label["normal"].chromosomes[0].member_count == 2
        assert by_label["smurf"].chromosomes[0].member_count == 1

    def test_bit_reproducible(self, rng):
        recs = [
            record(rng.random(NUM_FEATURES), ["normal", "smurf"][i % 2])
            for i in range(100)
        ]
        m1 = precalculate(dataset(recs), 0.2, NormalizationStats.identity())
        m2 = precalculate(dataset(recs), 0.2, NormalizationStats.identity())
        for g1, g2 in zip(m1.groups, m2.groups):
            for c1, c2 in zip(g1.chromosomes, g2.chromosomes):
                assert np.array_equal(c1.centroid, c2.centroid)
                assert c1.spread == c2.spread
                assert c1.member_count == c2.member_count

    def test_normalization_blocks_do_not_change_the_model(self, rng, monkeypatch):
        recs = dataset(
            record(rng.random(NUM_FEATURES) * 9, ["normal", "smurf"][i % 2]) for i in range(50)
        )
        stats = NormalizationStats(np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 9.0))
        whole = precalculate(recs, 0.2, stats)
        monkeypatch.setattr("gaids.model.BLOCK_ROWS", 7)
        blocked = precalculate(recs, 0.2, stats)
        members = {g.label: sum(c.member_count for c in g.chromosomes) for g in blocked.groups}
        assert members == {"normal": 25, "smurf": 25}
        assert [g.label for g in blocked.groups] == [g.label for g in whole.groups]
        for g1, g2 in zip(whole.groups, blocked.groups):
            assert len(g1.chromosomes) == len(g2.chromosomes)
            for c1, c2 in zip(g1.chromosomes, g2.chromosomes):
                assert np.array_equal(c1.centroid, c2.centroid)
                assert (c1.spread, c1.member_count) == (c2.spread, c2.member_count)

    def test_unlabeled_records_rejected(self):
        unlabeled = dataset([record({})])
        unlabeled.attack_names[0] = unlabeled.categories[0] = None
        with pytest.raises(ValueError, match="must be labeled"):
            precalculate(unlabeled, 0.125, NormalizationStats.identity())

    def test_tight_groups_make_single_chromosomes(self, rng):
        # All points of a label within range/2 of the label's first point:
        # the centroid never leaves that ball, so everything merges.
        rng_range = 0.3
        recs = []
        for label, base in (("normal", 0.2), ("smurf", 0.8)):
            first = np.full(NUM_FEATURES, base)
            recs.append(record(first, label))
            for _ in range(30):
                offset = rng.normal(0, 0.01, NUM_FEATURES)
                x = first + offset
                assert distance(x, first) < rng_range / 2
                recs.append(record(np.clip(x, 0, 1), label))
        m = precalculate(dataset(recs), rng_range, NormalizationStats.identity())
        assert all(len(g.chromosomes) == 1 for g in m.groups)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            precalculate(dataset([]), 0.125, NormalizationStats.identity())

    @pytest.mark.parametrize("merge_range", [math.nan, math.inf, -1.0])
    def test_rejects_bad_range(self, merge_range):
        with pytest.raises(ValueError, match="finite non-negative"):
            precalculate(dataset([record({})]), merge_range, NormalizationStats.identity())

    def test_zero_range_merges_exact_duplicates_only(self, rng):
        x = rng.random(NUM_FEATURES)
        recs = [record(x), record(x), record(rng.random(NUM_FEATURES))]
        m = precalculate(dataset(recs), 0.0, NormalizationStats.identity())
        counts = sorted(c.member_count for c in m.groups[0].chromosomes)
        assert counts == [1, 2]


class TestNearestChromosome:
    def test_single_chromosome(self, rng):
        m = build_model([np.full(NUM_FEATURES, 0.5)], ["normal"])
        x = rng.random(NUM_FEATURES)
        idx, d = nearest(x, m)
        assert idx == 0
        assert d == distance(x, m.groups[0].chromosomes[0].centroid)

    def test_exact_centroid_hit(self, rng):
        m = random_model(rng, 10)
        target = m.groups[0].chromosomes[0]
        idx, d = nearest(target.centroid.copy(), m)
        assert d == 0.0
        assert np.array_equal(m.centroids[idx], target.centroid)

    def test_matches_bruteforce_scan(self, rng):
        m = random_model(rng, 10)
        for _ in range(100):
            x = rng.random(NUM_FEATURES)
            idx, d = nearest(x, m)
            expected_idx, expected_d = bruteforce_nearest(x, m)
            assert idx == expected_idx
            assert d == pytest.approx(expected_d, abs=1e-12)

    def test_tie_breaks_by_label_order(self):
        x = np.zeros(NUM_FEATURES)
        a = np.zeros(NUM_FEATURES)
        a[0] = 0.5
        b = np.zeros(NUM_FEATURES)
        b[1] = 0.5
        # Same distance to x; "back" sorts before "smurf" regardless of
        # group creation order.
        m = build_model([a, b], ["smurf", "back"])
        idx, _ = nearest(x, m)
        assert m.labels[idx] == "back"

    def test_empty_model(self):
        # A model cannot exist without rows, so no scan ever sees none.
        with pytest.raises(EmptyModel):
            build_model(np.empty((0, NUM_FEATURES)), [])

    def test_dimension_mismatch(self, rng, tmp_path):
        # Records always have NUM_FEATURES features, so a model's feature
        # count can only disagree in a model file, and loading rejects it.
        path = tmp_path / "m.model"
        save_model(random_model(rng, 3, num_features=7), path)
        with pytest.raises(ModelFormatError, match="model has 7 features per row"):
            load_model(path)


class TestColumns:
    def test_kernel_terms(self, rng):
        labels = ["smurf", "back", "smurf", "normal", "back"]
        centroids = rng.random((5, NUM_FEATURES))
        spreads = rng.random(5) * 0.2
        counts = np.array([3, 1, 2, 5, 4])
        m = build_model(centroids, labels, spreads=spreads, counts=counts)
        # Rows stably sorted by label: the scan order.
        order = [1, 4, 3, 0, 2]
        assert m.labels == [labels[i] for i in order]
        assert np.array_equal(m.centroids, centroids[order])
        assert m.centroids.flags.c_contiguous
        assert np.array_equal(m.member_counts, counts[order])
        assert np.array_equal(m.spreads, spreads[order])
        assert np.array_equal(m.sq_norms, (m.centroids**2).sum(axis=1))
        assert np.array_equal(m.denoms, m.spreads + SPREAD_EPSILON)
        assert list(m.category_of.items()) == [
            ("smurf", "dos"), ("back", "dos"), ("normal", "normal")
        ]
        assert m.num_chromosomes() == 5

    def test_groups_view_in_file_order(self, rng):
        labels = ["smurf", "back", "smurf"]
        centroids = rng.random((3, NUM_FEATURES))
        m = build_model(centroids, labels, spreads=[0.1, 0.2, 0.3], counts=[4, 5, 6])
        view = [
            (g.label, g.category, [(c.member_count, c.spread) for c in g.chromosomes])
            for g in m.groups
        ]
        assert view == [("smurf", "dos", [(4, 0.1), (6, 0.3)]), ("back", "dos", [(5, 0.2)])]
        assert np.array_equal(m.groups[0].chromosomes[1].centroid, centroids[2])

    def test_columns_are_read_only(self, rng):
        m = random_model(rng, 4)
        with pytest.raises(ValueError):
            m.groups[0].chromosomes[0].centroid[0] = 0.5
        with pytest.raises(ValueError):
            m.spreads[0] = 1.0


LABEL_POOL = ["back", "ipsweep", "neptune", "normal", "smurf"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(
        st.tuples(st.sampled_from(LABEL_POOL), st.integers(0, 2), st.integers(1, 5)),
        min_size=1,
        max_size=12,
    ),
)
def test_roundtrip_random_models(seed, rows):
    # The first label sorts after every other one, so first-sight (file)
    # order differs from scan order. Rows draw their centroid and spread
    # from three prototypes, so the same row often appears under several
    # labels and its score ties.
    rng = np.random.Generator(np.random.PCG64(seed))
    protos = rng.random((3, NUM_FEATURES))
    proto_spreads = rng.random(3) * 0.1
    rows = [("warezmaster", 0, 1)] + rows
    labels = [label for label, _, _ in rows]
    picks = [p for _, p, _ in rows]
    stats = NormalizationStats(rng.random(NUM_FEATURES), 1.0 + rng.random(NUM_FEATURES))
    m = build_model(
        protos[picks], labels, spreads=proto_spreads[picks],
        counts=[n for _, _, n in rows], stats=stats,
    )
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.model", Path(tmp) / "b.model"
        save_model(m, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    assert loaded.labels == m.labels
    assert list(loaded.category_of.items()) == list(m.category_of.items())
    for name in ("centroids", "member_counts", "spreads", "sq_norms", "denoms"):
        assert np.array_equal(getattr(loaded, name), getattr(m, name))
    assert (loaded.range_used, loaded.training_size) == (m.range_used, m.training_size)
    assert np.array_equal(loaded.normalization.feat_min, stats.feat_min)
    assert np.array_equal(loaded.normalization.feat_max, stats.feat_max)

    # Each prototype, denormalized, lands (up to rounding) on every row it
    # fills, and those rows tie exactly: a one-member search must pick the
    # alphabetically first of their labels.
    queries = stats.feat_min + protos * (stats.feat_max - stats.feat_min)
    degenerate = GaParams(population_size=1, mutation_rate=0.0, crossover_rate=0.0)
    for params in (degenerate, GaParams(seed=seed)):
        for i, q in enumerate(queries):
            rec = record(q)
            expected = detect(rec, m, params)
            assert detect(rec, loaded, params) == expected
            if params is degenerate and i in picks:
                tied = [label for label, p in zip(labels, picks) if p == i]
                assert expected.attack_name == min(tied)



@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=st.lists(st.sampled_from(LABEL_POOL[:3]), min_size=0, max_size=59),
    single_at=st.integers(0, 59),
    merge_range=st.floats(0.05, 0.5),
)
def test_interleaved_labels_train_as_if_grouped(seed, labels, single_at, merge_range):
    # No chromosome mixes labels, so the records of one label train the same
    # whatever lies between them: the file saves the same model as its
    # records stably regrouped by label, labels in first-sight order.
    # "warezmaster" labels one record, at a drawn position.
    labels.insert(single_at, "warezmaster")
    rng = np.random.Generator(np.random.PCG64(seed))
    protos = rng.random((3, NUM_FEATURES)) * 5
    feats = protos[rng.integers(0, 3, len(labels))] + rng.normal(0, 0.2, (len(labels), NUM_FEATURES))
    stats = NormalizationStats(feats.min(axis=0), feats.max(axis=0))
    grouped = sorted(range(len(labels)), key=lambda i: labels.index(labels[i]))
    with tempfile.TemporaryDirectory() as tmp:
        saved = []
        for order in (range(len(labels)), grouped):
            path = Path(tmp) / f"{len(saved)}.model"
            recs = dataset(record(feats[i], labels[i]) for i in order)
            save_model(precalculate(recs, merge_range, stats), path)
            saved.append(path.read_bytes())
    assert saved[0] == saved[1]


class TestParallelTraining:
    def spy(self, monkeypatch, cpus):
        """On a host with `cpus` CPUs, record the process count and the task
        sizes (rows per label, in map order) of each map precalculate runs."""
        calls = []
        real = parallel.map_tasks

        def spy(fn, tasks, state, processes, costs):
            calls.append((processes, [len(rows) for rows in tasks]))
            return real(fn, tasks, state, processes, costs)

        monkeypatch.setattr(parallel, "map_tasks", spy)
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        return calls

    def test_largest_first_saves_the_first_sight_bytes(self, rng, tmp_path, monkeypatch):
        # A one-record label comes first in the file, but the fork-join hands
        # out the largest task first, so it trains last, in a child; the
        # results still come back in task order, which is first-sight order.
        calls = self.spy(monkeypatch, cpus=3)
        labels = ["teardrop"] + ["smurf", "normal", "smurf", "neptune"] * 10
        recs = dataset(record(rng.random(NUM_FEATURES), label) for label in labels)
        saved = []
        for workers in (1, 3):
            path = tmp_path / f"{workers}.model"
            save_model(precalculate(recs, 0.3, NormalizationStats.identity(), workers=workers), path)
            saved.append(path.read_bytes())
        assert calls == [(1, [1, 20, 10, 10]), (3, [1, 20, 10, 10])]
        assert saved[0] == saved[1]
        assert [ln.split()[0] for ln in saved[0].decode().splitlines()[1:3]] == ["teardrop", "smurf"]

    @pytest.mark.parametrize(
        "counts, cpus, processes",
        [
            ({"smurf": 40}, 3, 1),
            ({"smurf": 20, "normal": 20}, 1, 1),
            ({"smurf": 30, "normal": 7}, 3, 2),
            ({"smurf": 30, "normal": 8}, 3, 2),
            ({"smurf": 30, "normal": 4, "back": 4, "land": 3}, 8, 4),
        ],
        ids=["one-label", "one-cpu", "seven-rows-outside-largest", "eight-rows-outside-largest", "four-labels"],
    )
    def test_one_process_per_label_and_cpu_at_most(self, rng, monkeypatch, counts, cpus, processes):
        # Training maps labels as detection maps blocks: at most one process
        # per worker (8 here), CPU and label, however few rows a label has.
        calls = self.spy(monkeypatch, cpus)
        labels = [label for label, count in counts.items() for _ in range(count)]
        recs = dataset(record(rng.random(NUM_FEATURES), label) for label in labels)
        precalculate(recs, 0.3, NormalizationStats.identity(), workers=8)
        assert [processes for processes, _ in calls] == [processes]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bound_rows", [1, 5, 8, 9, 20])
    def test_screened_scan_writes_the_same_model(self, rng, tmp_path, monkeypatch, bound_rows, workers):
        # At this range smurf (trained here) and neptune (in the child at 2
        # workers) make 31 and 44 chromosomes between merges that move the
        # centroids far, so blocks of every size settle some records from
        # their bounds, and larger ones send others to the direct scan and
        # add rows partway through, across buffer doublings (8 -> 16 -> 32
        # rows).
        calls = self.spy(monkeypatch, cpus=2)
        monkeypatch.setattr("gaids.model.BOUND_ROWS", bound_rows)
        labels = ["smurf"] * 150 + ["neptune"] * 100 + ["normal"] * 20
        recs = dataset(record(rng.random(NUM_FEATURES), labels[i]) for i in rng.permutation(len(labels)))
        stats = NormalizationStats.identity()
        reference, screened = tmp_path / "direct.model", tmp_path / "screened.model"
        save_model(direct_scan_precalculate(recs, 0.32, stats), reference)
        scans = count_scans(monkeypatch)
        save_model(precalculate(recs, 0.32, stats, workers=workers), screened)
        assert screened.read_bytes() == reference.read_bytes()
        assert [processes for processes, _ in calls] == [workers]
        # Blocks of one record see no drift and no new row, so all settle.
        assert len(scans) < len(recs) - 3 and (bound_rows == 1 or scans)


def count_scans(monkeypatch):
    """Log the row count of each `kernels.nearest_centroid` call from now on
    and return the log; calls in forked children do not reach it."""
    scans = []
    real = kernels.nearest_centroid

    def nearest_centroid(x, centroids):
        scans.append(len(centroids))
        return real(x, centroids)

    monkeypatch.setattr(kernels, "nearest_centroid", nearest_centroid)
    return scans


def direct_scan_precalculate(training, merge_range, stats):
    """The trainer without bounds: each record scans every chromosome of its
    label (the lowest index wins a tie), then merges by
    row += (x - row) / count or seeds a new chromosome. precalculate must
    save the same bytes."""
    features = stats.transform(training.features)
    n = features.shape[1]
    trained = {}
    for x, label in zip(features, training.attack_names):
        rows, counts, means, m2s = trained.setdefault(label, ([], [], [], []))
        if rows:
            diff = np.array(rows) - x
            diff *= diff
            d2 = diff.sum(axis=1)
            idx = int(d2.argmin())
            d = math.sqrt(d2.item(idx) / n)
            if d <= merge_range:
                counts[idx] += 1
                rows[idx] = rows[idx] + (x - rows[idx]) / counts[idx]
                delta = d - means[idx]
                means[idx] += delta / counts[idx]
                m2s[idx] += delta * (d - means[idx])
                continue
        rows.append(x.copy())
        counts.append(1)
        means.append(0.0)
        m2s.append(0.0)
    runs = list(trained.values())
    return ChromosomeModel(
        centroids=np.array([row for rows, *_ in runs for row in rows]),
        member_counts=[c for _, counts, *_ in runs for c in counts],
        spreads=[math.sqrt(m2 / c) for _, counts, _, m2s in runs for m2, c in zip(m2s, counts)],
        labels=[label for label, (rows, *_) in trained.items() for _ in rows],
        category_of={label: training.categories[training.attack_names.index(label)] for label in trained},
        normalization=stats,
        range_used=merge_range,
        training_size=len(training),
    )


@st.composite
def training_files(draw):
    """Labeled feature rows of one shape: uniform, near-duplicates around a
    few prototypes, exact duplicates, or a coarse grid whose distances tie
    exactly."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    size = draw(st.integers(1, 120))
    shape = draw(st.sampled_from(["uniform", "near", "duplicates", "grid"]))
    if shape == "uniform":
        feats = rng.random((size, NUM_FEATURES))
    elif shape == "near":
        protos = rng.random((draw(st.integers(1, 6)), NUM_FEATURES))
        noise = draw(st.sampled_from([1e-6, 1e-4, 1e-2, 1e-1]))
        feats = protos[rng.integers(0, len(protos), size)] + rng.normal(0, noise, (size, NUM_FEATURES))
    elif shape == "duplicates":
        distinct = rng.random((draw(st.integers(1, 8)), NUM_FEATURES))
        feats = distinct[rng.integers(0, len(distinct), size)]
    else:
        feats = np.zeros((size, NUM_FEATURES))
        feats[:, :3] = rng.integers(0, 5, (size, 3)) / 4
    labels = [LABEL_POOL[i] for i in rng.integers(0, draw(st.integers(1, 3)), size)]
    return dataset(record(np.clip(f, 0.0, 1.0), label) for f, label in zip(feats, labels))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    recs=training_files(),
    merge_range=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    bound_rows=st.sampled_from([1, 2, 3, 64]),
    block_rows=st.sampled_from([4, 1024]),
    workers=st.sampled_from([1, 2]),
)
def test_bounds_train_the_direct_scan_model(recs, merge_range, bound_rows, block_rows, workers):
    # precalculate settles most records from per-block distance bounds; the
    # model must be the direct scan's, byte for byte, at any block size.
    stats = NormalizationStats.identity()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr("gaids.model.BOUND_ROWS", bound_rows)
        mp.setattr("gaids.model.BLOCK_ROWS", block_rows)
        reference, trained = Path(tmp) / "direct.model", Path(tmp) / "bounds.model"
        save_model(direct_scan_precalculate(recs, merge_range, stats), reference)
        save_model(precalculate(recs, merge_range, stats, workers=workers), trained)
        assert trained.read_bytes() == reference.read_bytes()


class TestBounds:
    """Records that a stale bound would settle on the wrong row."""

    def train(self, tmp_path, monkeypatch, values, merge_range, bound_rows):
        """Train records whose feature 0 takes `values` (the rest 0), check
        that precalculate saves the direct scan's bytes, and return the
        saved model and the row counts of the scans precalculate ran."""
        monkeypatch.setattr("gaids.model.BOUND_ROWS", bound_rows)
        recs = dataset(record({0: v}) for v in values)
        stats = NormalizationStats.identity()
        save_model(direct_scan_precalculate(recs, merge_range, stats), tmp_path / "direct.model")
        scans = count_scans(monkeypatch)
        save_model(precalculate(recs, merge_range, stats), tmp_path / "bounds.model")
        assert (tmp_path / "bounds.model").read_bytes() == (tmp_path / "direct.model").read_bytes()
        return load_model(tmp_path / "bounds.model"), scans

    def test_a_row_made_inside_a_block_can_win(self, tmp_path, monkeypatch):
        # The block [1, 1] starts with one row, at 0, the candidate of both
        # records. The first seeds a row at 1, where the second belongs.
        m, scans = self.train(tmp_path, monkeypatch, [0.0, 1.0, 1.0], 0.1, 64)
        assert m.member_counts.tolist() == [1, 2]
        assert scans == [2]

    def test_a_row_that_moves_inside_a_block_can_win(self, tmp_path, monkeypatch):
        # Rows at 0 and 0.6 start the block [0.35, 0.24]. 0.35 merges into
        # 0.6 and moves it to 0.475, which is then nearer 0.24 than 0 is,
        # though 0 was the nearer as the block started.
        m, scans = self.train(tmp_path, monkeypatch, [0.0, 0.6, 0.0, 0.35, 0.24], 0.05, 2)
        assert m.member_counts.tolist() == [2, 3]
        assert scans == [2]


def test_clustered_label_skips_most_scans(rng, monkeypatch):
    # 40 tight clusters of one label: once each has a row, a record's bounds
    # settle its row. Under 10% of the records may reach the direct scan.
    centres = rng.random((40, NUM_FEATURES))
    feats = centres[rng.integers(0, 40, 3000)] + rng.normal(0, 0.005, (3000, NUM_FEATURES))
    recs = dataset(record(np.clip(f, 0.0, 1.0), "smurf") for f in feats)
    scans = count_scans(monkeypatch)
    m = precalculate(recs, 0.05, NormalizationStats.identity())
    assert m.num_chromosomes() == 40
    assert len(scans) < 0.1 * len(recs)


class TestPersistence:
    def test_roundtrip_byte_identical(self, tmp_path, rng):
        recs = [
            record(rng.random(NUM_FEATURES), ["normal", "smurf", "nmap"][i % 3])
            for i in range(60)
        ]
        stats = NormalizationStats(rng.random(NUM_FEATURES), 1 + rng.random(NUM_FEATURES))
        m = precalculate(dataset(recs), 0.15, stats)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_preserves_classification(self, tmp_path, rng):
        recs = [record(rng.random(NUM_FEATURES), "normal") for _ in range(30)]
        m = precalculate(dataset(recs), 0.2, NormalizationStats.identity())
        path = tmp_path / "m.model"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.range_used == m.range_used
        assert loaded.training_size == m.training_size
        for _ in range(20):
            x = rng.random(NUM_FEATURES)
            (i1, d1), (i2, d2) = nearest(x, m), nearest(x, loaded)
            assert d1 == d2
            assert np.array_equal(m.centroids[i1], loaded.centroids[i2])
            assert m.denoms[i1] == loaded.denoms[i2]

    def test_saved_model_evaluates_identically(self, tmp_path, rng):
        # Persistence must be lossless for classification: detections through
        # the reloaded model match the in-memory ones bit for bit.
        recs = [
            record(rng.random(NUM_FEATURES), ["normal", "smurf", "nmap"][i % 3])
            for i in range(90)
        ]
        stats = NormalizationStats(rng.random(NUM_FEATURES), 1 + rng.random(NUM_FEATURES))
        m = precalculate(dataset(recs), 0.2, stats)
        path = tmp_path / "m.model"
        save_model(m, path)
        queries = dataset(record(rng.random(NUM_FEATURES)) for _ in range(15))
        params = GaParams(seed=31)
        assert run_batch(queries, m, params) == run_batch(queries, load_model(path), params)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("gaids-model 99 0.125 0 38\n" + " ".join(["0.0"] * 38) + "\n" + " ".join(["1.0"] * 38) + "\n")
        with pytest.raises(ModelVersionMismatch):
            load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("hello world\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_count_mismatch(self, tmp_path, rng):
        recs = [record(rng.random(NUM_FEATURES), "normal") for _ in range(5)]
        m = precalculate(dataset(recs), 0.5, NormalizationStats.identity())
        path = tmp_path / "m.model"
        save_model(m, path)
        lines = path.read_text().splitlines()
        header = lines[0].split()
        header[3] = "999"
        path.write_text("\n".join([" ".join(header)] + lines[1:]) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_overflowing_normalization_span(self, tmp_path):
        # Each bound is finite, but max - min is not: transform would make
        # every value of the feature NaN or 0.
        feat_min, feat_max = np.zeros(NUM_FEATURES), np.ones(NUM_FEATURES)
        feat_min[4], feat_max[4] = -1e308, 1e308
        m = build_model(
            [np.full(NUM_FEATURES, 0.5)], ["normal"], stats=NormalizationStats(feat_min, feat_max)
        )
        path = tmp_path / "m.model"
        save_model(m, path)
        with pytest.raises(ModelFormatError, match="span overflows, in column 4"):
            load_model(path)


def test_import_loads_no_engine_or_pools():
    # Loading a model is the start-up cost of every command: importing
    # gaids.model must not pull in the GA engine, reporting or process pools.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    heavy = ["gaids.engine", "gaids.metrics", "concurrent.futures", "multiprocessing"]
    probe = f"import sys, gaids.model; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
