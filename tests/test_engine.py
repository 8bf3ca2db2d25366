import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaids import engine, kernels, parallel
from gaids.engine import (
    GaParams,
    crossover,
    decide,
    detect,
    mutate,
    populate,
    record_rng,
    run_batch,
    schedule,
    select,
)
from gaids.errors import EmptyModel
from gaids.ingest import NUM_FEATURES
from gaids.model import SPREAD_EPSILON, load_model

from conftest import build_model, dataset, random_model, record

DEGENERATE = dict(population_size=1, mutation_rate=0.0, crossover_rate=0.0)


def bruteforce_fitness(x, model):
    """Spread-normalized exhaustive scan, plain python, spec tie-break."""
    best = None
    for group in sorted(model.groups, key=lambda g: g.label):
        for chrom in group.chromosomes:
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, chrom.centroid)) / len(x))
            z = d / (chrom.spread + SPREAD_EPSILON)
            if best is None or z < best[0]:
                best = (z, group.label)
    return best


class TestGaParams:
    def test_defaults(self):
        p = GaParams()
        assert (p.range, p.crossover_rate, p.mutation_rate) == (0.125, 0.15, 0.35)
        assert p.population_size == 32
        assert p.removal_fraction == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(crossover_rate=1.5),
            dict(mutation_rate=-0.1),
            dict(population_size=0),
            dict(removal_fraction=0.0),
            dict(removal_fraction=1.0),
            dict(max_generations=0),
            dict(range=-1.0),
            dict(mutation_sigma=-0.5),
            dict(seed=-1),
            dict(seed=2**64),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GaParams(**kwargs)


def weights_of(model):
    """The fitness weights of every chromosome of the model."""
    return kernels.fitness_weights(model.denoms, model.centroids.shape[1])


def in_unit_cube(genes):
    return bool(np.all(genes >= 0.0) and np.all(genes <= 1.0))


class OracleTape(NamedTuple):
    """A whole tape as the module docstring lays it out: with R records, P
    candidates, n features, C pairs and M rows, init_gates and init_noise
    are (R, P-1, n); pair_gates and cuts (R, C); row_gates, loci and deltas
    (R, M)."""

    init_gates: np.ndarray
    init_noise: np.ndarray
    pair_gates: np.ndarray
    cuts: np.ndarray
    row_gates: np.ndarray
    loci: np.ndarray
    deltas: np.ndarray


def oracle_tape(rngs, params, n):
    """The reference draw: each record's whole tape in four Generator calls
    on its own stream, every value whether or not the search uses it."""
    sizes = schedule(params)
    init, pairs, rows = (sizes[0] - 1) * n, sum(s // 2 for s in sizes[1:]), sum(sizes[1:])
    count = len(rngs)
    uniforms = np.empty((count, init + pairs + rows))
    normals = np.empty((count, init + rows))
    cuts = np.empty((count, pairs), dtype=np.int64)
    loci = np.empty((count, rows), dtype=np.int64)
    for i, rng in enumerate(rngs):
        rng.random(out=uniforms[i])
        rng.standard_normal(out=normals[i])
        cuts[i] = rng.integers(1, n, pairs)
        loci[i] = rng.integers(0, n, rows)
    with np.errstate(over="ignore"):
        normals *= params.mutation_sigma
    shape = (count, params.population_size - 1, n)
    return OracleTape(
        init_gates=uniforms[:, :init].reshape(shape),
        init_noise=normals[:, :init].reshape(shape),
        pair_gates=uniforms[:, init : init + pairs],
        cuts=cuts,
        row_gates=uniforms[:, init + pairs :],
        loci=loci,
        deltas=normals[:, init:],
    )


def oracle_population(x, tape, rate):
    """The reference generation 0: (R, P, n) genes whose row 0 is the
    record; in rows 1..P-1 a gene whose gate is below rate becomes
    clip(x + noise, 0, 1)."""
    genes = np.empty((x.shape[0], tape.init_gates.shape[1] + 1, x.shape[1]))
    genes[:, 0] = x
    copies = genes[:, 1:]
    np.add(x[:, None, :], tape.init_noise, out=copies)
    np.clip(copies, 0.0, 1.0, out=copies)
    np.copyto(copies, x[:, None, :], where=tape.init_gates >= rate)
    return genes


def streams(count, seed):
    """The streams of records 0..count-1 of a batch run with this seed."""
    return [record_rng(seed, i) for i in range(count)]


def tape_for(params, count=1, seed=0):
    """The reference tapes of records 0..count-1 of a batch run with this seed."""
    return oracle_tape(streams(count, seed), params, NUM_FEATURES)


def populate_genes(x, params, seed=0):
    """Generation 0's (R, P, n) genes of the (R, n) records x, as the
    engine draws them."""
    return populate(x, streams(len(x), seed), params)[0]


class TestTape:
    def test_schedule(self):
        assert schedule(GaParams()) == [32, 24, 18, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1]
        assert schedule(GaParams(max_generations=4)) == [32, 24, 18, 14]
        assert schedule(GaParams(population_size=1)) == [1]
        assert schedule(GaParams(population_size=5, removal_fraction=0.9)) == [5, 1]

    def test_section_sizes(self, rng):
        # C = 12+9+7+5+4+3+3+2+2+1+1+0 pairs and M = 104 rows after select.
        n, pairs, rows = NUM_FEATURES, 49, 104
        genes, tape = populate(rng.random((3, n)), streams(3, 0), GaParams())
        assert genes.shape == (3, 32, n)
        assert tape.pair_gates.shape == tape.cuts.shape == (3, pairs)
        assert tape.row_gates.shape == tape.loci.shape == tape.deltas.shape == (3, rows)
        assert tape.cuts.min() >= 1 and tape.cuts.max() <= n - 1
        assert tape.loci.min() >= 0 and tape.loci.max() <= n - 1

    def test_replays_the_documented_draws(self):
        # Independent replay of the module docstring's layout: four calls
        # on the record's own stream, every value drawn.
        params = GaParams(population_size=10, mutation_sigma=0.2, seed=31)
        sizes = schedule(params)
        init = (params.population_size - 1) * NUM_FEATURES
        pairs = sum(s // 2 for s in sizes[1:])
        rows = sum(sizes[1:])
        tape = tape_for(params, count=4, seed=params.seed)
        for i in range(4):
            replay = np.random.Generator(np.random.PCG64(params.seed ^ i))
            uniforms = np.concatenate([tape.init_gates[i].ravel(), tape.pair_gates[i], tape.row_gates[i]])
            normals = np.concatenate([tape.init_noise[i].ravel(), tape.deltas[i]])
            assert np.array_equal(uniforms, replay.random(init + pairs + rows))
            assert np.array_equal(normals, replay.standard_normal(init + rows) * 0.2)
            assert np.array_equal(tape.cuts[i], replay.integers(1, NUM_FEATURES, pairs))
            assert np.array_equal(tape.loci[i], replay.integers(0, NUM_FEATURES, rows))

    @pytest.mark.parametrize("sigma", [0.05, 1e308])
    @pytest.mark.parametrize("population_size", [1, 2, 3, 32])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**32 + 6, 2**63 + 11, 2**64 - 1])
    @pytest.mark.parametrize("n", [2, NUM_FEATURES])
    def test_streamed_draw_equals_oracle(self, rng, sigma, population_size, seed, n):
        # The engine draws each record's gates and noise straight into its
        # genes, and its cuts and loci from raw words; the genes and every
        # section the generation loop reads equal the whole-tape draw bit for
        # bit. Record i XORs into the seed's low bits, sigma 1e308 overflows
        # the noise to +-inf, and at n = 2 every cut is 1, which numpy draws
        # no word for.
        params = GaParams(population_size=population_size, mutation_sigma=sigma, seed=seed)
        x = rng.random((6, n))
        genes, tape = populate(x, streams(6, seed), params)
        oracle = oracle_tape(streams(6, seed), params, n)
        assert genes.tobytes() == oracle_population(x, oracle, params.mutation_rate).tobytes()
        for name in engine.Tape._fields:
            got, expected = getattr(tape, name), getattr(oracle, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name

    @staticmethod
    def half(leftover, span):
        """A 32-bit h with (h * span) mod 2**32 == leftover (even for an
        even span)."""
        odd, twos = span, 1
        while odd % 2 == 0:
            odd, twos = odd // 2, twos * 2
        return (leftover // twos) * pow(odd, -1, 2**32 // twos) % 2**32

    def test_rejected_halves_are_flagged(self):
        # numpy's rule rejects a half h when (h * span) mod 2**32 is below
        # 2**32 mod span: 7 for the cuts' span 37 and 6 for the loci's 38.
        # Each record has three words, the halves of the first three for
        # cuts and of the last three for loci; all sit at the threshold
        # except the one set below it. Only the records with a half below are
        # flagged, low or high half alike.
        spans = np.repeat(np.array([37, 38], dtype=np.uint64), 3)
        at = [self.half(7, 37)] * 3 + [self.half(6, 38)] * 3
        below = {1: (0, self.half(6, 37)), 2: (1, self.half(0, 37)), 3: (5, self.half(4, 38)),
                 4: (3, self.half(0, 38))}
        halves = np.array([at] * 6, dtype=np.uint64)
        for r, (i, h) in below.items():
            halves[r, i] = h
        words = halves[:, 0::2] | (halves[:, 1::2] << 32)
        values, rejected = engine._bounded(words, spans)
        assert rejected.tolist() == [r in below for r in range(6)]
        assert np.array_equal(values, (halves * spans) >> 32)

    def test_every_record_through_the_fallback(self, rng, monkeypatch):
        # With every record flagged, each redraws its cuts and loci from its
        # own stream through Generator.integers: the tape still equals the
        # whole-tape draw, and the predictions those of the raw words.
        m = random_model(rng, 30)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(12))
        params = GaParams(seed=2**64 - 3)
        expected = run_batch(recs, m, params)
        bounded = engine._bounded
        flagged = []

        def all_rejected(words, spans):
            values, _ = bounded(words, spans)
            flagged.append(len(values))
            return values, np.ones(len(values), dtype=bool)

        monkeypatch.setattr(engine, "_bounded", all_rejected)
        assert run_batch(recs, m, params) == expected
        assert sum(flagged) == 12
        x = rng.random((5, NUM_FEATURES))
        _, tape = populate(x, streams(5, params.seed), params)
        oracle = oracle_tape(streams(5, params.seed), params, NUM_FEATURES)
        assert np.array_equal(tape.cuts, oracle.cuts) and np.array_equal(tape.loci, oracle.loci)


class TestInitializePopulation:
    def test_size_one_is_exact_copy(self, rng):
        x = rng.random((2, NUM_FEATURES))
        pop = populate_genes(x, GaParams(population_size=1))
        assert pop.shape == (2, 1, NUM_FEATURES)
        assert np.array_equal(pop[:, 0], x)

    def test_zero_sigma_copies_exactly(self, rng):
        # Every gene is gated through, and each noisy copy is the record.
        x = rng.random((2, NUM_FEATURES))
        pop = populate_genes(x, GaParams(mutation_sigma=0.0, mutation_rate=1.0))
        assert pop.shape == (2, 32, NUM_FEATURES)
        for r in range(2):
            for row in pop[r]:
                assert np.array_equal(row, x[r])

    def test_seeded_runs_identical(self):
        x = np.tile(np.linspace(0, 1, NUM_FEATURES), (2, 1))
        p = GaParams()
        assert np.array_equal(populate_genes(x, p, seed=99), populate_genes(x, p, seed=99))
        assert not np.array_equal(populate_genes(x, p, seed=99), populate_genes(x, p, seed=98))

    def test_candidate_zero_untouched(self, rng):
        x = rng.random((3, NUM_FEATURES))
        pop = populate_genes(x, GaParams())
        assert np.array_equal(pop[:, 0], x)

    def test_gates_choose_the_noisy_genes(self, rng):
        x = rng.random((3, NUM_FEATURES))
        params = GaParams()
        tape = tape_for(params, 3)
        gates, noise = tape.init_gates, tape.init_noise
        pop = populate_genes(x, params)
        hit = gates < params.mutation_rate
        assert 0 < hit.sum() < hit.size
        kept = np.broadcast_to(x[:, None, :], pop[:, 1:].shape)
        assert np.array_equal(pop[:, 1:][~hit], kept[~hit])
        assert np.array_equal(pop[:, 1:][hit], np.clip(kept + noise, 0.0, 1.0)[hit])

    def test_genes_clamped(self):
        x = np.ones((2, NUM_FEATURES))
        pop = populate_genes(x, GaParams(mutation_sigma=5.0, mutation_rate=1.0))
        assert in_unit_cube(pop)
        assert not np.array_equal(pop[:, 1:], np.ones_like(pop[:, 1:]))

    def test_overflowing_sigma_clamps_without_warning(self, rng):
        # sigma * noise overflows to +-inf for the largest finite sigma; the
        # clamp maps it to 1 or 0, and (warnings being errors) nothing warns.
        x = rng.random((2, NUM_FEATURES))
        params = GaParams(mutation_sigma=1e308, mutation_rate=1.0)
        pop = populate_genes(x, params)
        assert in_unit_cube(pop)
        assert set(np.unique(pop[:, 1:])) == {0.0, 1.0}
        m = random_model(rng, 4)
        assert detect(record(x[0]), m, params).generations_run == 13


def score(genes, model):
    """Fitness and nearest label of one gene vector: a one-member,
    one-generation search on an identity-normalized model."""
    pred = detect(record(genes), model, GaParams(**DEGENERATE))
    assert pred.generations_run == 1
    return pred.survivor_fitness, pred.attack_name


class TestFitness:
    def test_exact_centroid_scores_zero(self, rng):
        m = random_model(rng, 10)
        chrom = m.groups[2].chromosomes[0]
        value, label = score(chrom.centroid.copy(), m)
        assert value == 0.0
        assert label == m.groups[2].label

    def test_zero_spread_uses_epsilon(self, rng):
        centroid = np.full(NUM_FEATURES, 0.5)
        m = build_model([centroid], ["normal"], spreads=[0.0])
        x = rng.random(NUM_FEATURES)
        value, _ = score(x, m)
        d = math.sqrt(float(((x - centroid) ** 2).sum()) / NUM_FEATURES)
        assert value == pytest.approx(d / SPREAD_EPSILON, rel=1e-12)

    def test_matches_bruteforce_scan(self, rng):
        m = random_model(rng, 10)
        categories = {g.label: g.category for g in m.groups}
        for _ in range(50):
            genes = rng.random(NUM_FEATURES)
            pred = detect(record(genes), m, GaParams(**DEGENERATE))
            expected_z, expected_label = bruteforce_fitness(genes, m)
            assert pred.attack_name == expected_label
            assert pred.survivor_fitness == pytest.approx(expected_z, abs=1e-12)
            assert pred.category == categories[pred.attack_name]
            assert pred.generations_run == 1

    def test_monotone_in_distance(self, rng):
        # g2 sits farther from every centroid than g1 (componentwise above
        # centroids bounded by 0.3), so its score cannot be lower.
        centroids = rng.random((8, NUM_FEATURES)) * 0.3
        m = build_model(centroids, ["normal"] * 8, spreads=rng.random(8) * 0.1)
        for _ in range(25):
            g1 = 0.4 + rng.random(NUM_FEATURES) * 0.2
            g2 = g1 + 0.2
            f1, _ = score(g1, m)
            f2, _ = score(g2, m)
            assert f2 >= f1

    def test_empty_model(self, tmp_path):
        # A model cannot exist without rows, so no search ever scans none:
        # loading a model file without chromosome rows fails.
        path = tmp_path / "empty.model"
        path.write_text("gaids-model 1 0.125 0 38\n" + "0.0 " * 37 + "0.0\n" + "1.0 " * 37 + "1.0\n")
        with pytest.raises(EmptyModel, match="no chromosomes"):
            load_model(path)


class TestSelect:
    def make_pop(self, fitnesses):
        """Rows whose first gene is their own fitness, the rest their index."""
        fitnesses = np.asarray(fitnesses, dtype=np.float64)
        genes = np.repeat(np.arange(len(fitnesses), dtype=np.float64)[:, None], NUM_FEATURES, 1)
        genes[:, 0] = fitnesses
        return genes

    def survivors(self, pop, removal_fraction):
        """The surviving rows; each carries its own fitness and, as its
        nearest chromosome, its index."""
        genes, fitness, nearest = select(pop, pop[:, 0], np.arange(len(pop)), removal_fraction)
        assert np.array_equal(fitness, genes[:, 0])
        assert np.array_equal(pop[nearest], genes)
        return genes

    def test_single_survivor_unchanged(self):
        pop = self.make_pop([3.0])
        assert len(self.survivors(pop, 0.25)) == 1

    def test_four_drop_worst(self):
        pop = self.make_pop([0.4, 0.1, 0.9, 0.2])
        survivors = self.survivors(pop, 0.25)
        assert len(survivors) == 3
        assert survivors[:, 0].tolist() == [0.1, 0.2, 0.4]

    def test_shrink_schedule_from_32(self):
        # Arithmetic trace with 25% removal: 13 population sizes seen in all.
        pop = self.make_pop(range(32))
        sizes = [len(pop)]
        while len(pop) > 1:
            pop = self.survivors(pop, 0.25)
            sizes.append(len(pop))
        assert sizes == [32, 24, 18, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1]
        assert len(sizes) == 13

    def test_strict_shrink_above_one(self):
        for size in range(2, 40):
            pop = self.make_pop(range(size))
            survivors = self.survivors(pop, 0.01)
            assert len(survivors) == size - 1

    def test_ties_stable_by_index(self):
        pop = self.make_pop([1.0, 1.0, 1.0, 2.0])
        survivors = self.survivors(pop, 0.5)
        assert np.array_equal(survivors, pop[:2])


class TestDecide:
    def test_swaps_are_gated_suffixes_and_hits_are_gated_rows(self):
        params = GaParams()
        tape = tape_for(params, 3)
        swaps, hits = decide(tape, params, NUM_FEATURES)
        assert swaps.shape == (3, 49, NUM_FEATURES)
        for r in range(3):
            for k in range(49):
                gated = tape.pair_gates[r, k] < params.crossover_rate
                expected = np.arange(NUM_FEATURES) >= tape.cuts[r, k] if gated else np.zeros(NUM_FEATURES, bool)
                assert np.array_equal(swaps[r, k], expected)
        assert 0 < swaps.any(axis=2).sum() < swaps.shape[0] * swaps.shape[1]
        assert np.array_equal(hits, tape.row_gates < params.mutation_rate)


def masks(cuts):
    """(R, pairs, n) swap masks: each pair exchanges its genes from its cut
    on."""
    return np.arange(NUM_FEATURES) >= np.asarray(cuts)[..., None]


class TestCrossover:
    def test_zero_rate_is_noop(self, rng):
        params = GaParams(population_size=5, crossover_rate=0.0)
        swaps, _ = decide(tape_for(params, 2), params, NUM_FEATURES)
        genes = rng.random((2, 4, NUM_FEATURES))
        pop = genes.copy()
        crossover(pop, swaps[:, :2])
        assert np.array_equal(pop, genes)

    def test_identical_pair_unchanged(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = np.stack([g, g])[None]
        crossover(pop, masks([[7]]))
        assert np.array_equal(pop[0, 0], g)
        assert np.array_equal(pop[0, 1], g)

    def test_gated_pairs_swap_suffixes(self, rng):
        # Two records of two pairs each, decided from their tapes: in each
        # record one pair's gate is below the rate and swaps the suffix from
        # its cut; the other pair stays.
        params = GaParams(population_size=5, crossover_rate=0.5)
        tape = tape_for(params, 2)
        gates = np.full(tape.pair_gates.shape, 0.9)
        gates[:, :2] = [[0.1, 0.9], [0.9, 0.1]]
        cuts = tape.cuts.copy()
        cuts[:, :2] = [[5, 7], [11, 3]]
        swaps, _ = decide(tape._replace(pair_gates=gates, cuts=cuts), params, NUM_FEATURES)
        genes = rng.random((2, 4, NUM_FEATURES))
        pop = genes.copy()
        crossover(pop, swaps[:, :2])

        def swapped(a, b, cut):
            return np.concatenate([a[:cut], b[cut:]]), np.concatenate([b[:cut], a[cut:]])

        expected = genes.copy()
        expected[0, 0], expected[0, 1] = swapped(genes[0, 0], genes[0, 1], 5)
        expected[1, 2], expected[1, 3] = swapped(genes[1, 2], genes[1, 3], 3)
        assert np.array_equal(pop, expected)

    def test_odd_last_candidate_untouched(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = np.vstack([rng.random((2, NUM_FEATURES)), g])[None]
        crossover(pop, masks([[1]]))
        assert np.array_equal(pop[0, 2], g)

    def test_population_size_unchanged(self, rng):
        pop = rng.random((2, 7, NUM_FEATURES))
        crossover(pop, masks(np.full((2, 3), 20)))
        assert pop.shape == (2, 7, NUM_FEATURES)


class TestMutate:
    def draws(self, rows, sigma=0.05):
        """Loci and deltas for one (rows, n) population."""
        rng = record_rng(3, 0)
        return rng.integers(0, NUM_FEATURES, (1, rows)), sigma * rng.standard_normal((1, rows))

    def test_zero_rate_is_noop(self, rng):
        params = GaParams(population_size=5, mutation_rate=0.0)
        tape = tape_for(params, 2)
        _, hits = decide(tape, params, NUM_FEATURES)
        genes = rng.random((2, 4, NUM_FEATURES))
        pop = genes.copy()
        mutate(pop, hits[:, :4], tape.loci[:, :4], tape.deltas[:, :4])
        assert np.array_equal(pop, genes)

    def test_zero_sigma_is_noop(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = g[None, None, :].copy()
        mutate(pop, np.ones((1, 1), bool), *self.draws(1, sigma=0.0))
        assert np.array_equal(pop[0, 0], g)

    def test_exactly_one_gene_changes(self):
        # Genes sit mid-range and sigma is small, so clamping can never mask
        # the perturbation; every row must differ in exactly its locus.
        pop = np.full((1, 1000, NUM_FEATURES), 0.5)
        loci, deltas = self.draws(1000)
        mutate(pop, np.ones((1, 1000), bool), loci, deltas)
        changed = pop != 0.5
        assert np.array_equal(changed.sum(axis=2), np.ones((1, 1000)))
        assert np.array_equal(np.argmax(changed, axis=2), loci)

    def test_only_hit_rows_change(self):
        pop = np.full((2, 2, NUM_FEATURES), 0.5)
        mutate(pop, np.array([[True, False], [False, True]]), np.array([[4, 4], [9, 9]]),
               np.full((2, 2), 0.1))
        assert pop[0, 0, 4] == pop[1, 1, 9] == 0.6
        assert (pop != 0.5).sum() == 2

    def test_stays_clamped(self):
        pop = np.ones((1, 100, NUM_FEATURES))
        mutate(pop, np.ones((1, 100), bool), *self.draws(100, sigma=10.0))
        assert in_unit_cube(pop)
        assert not np.array_equal(pop, np.ones_like(pop))


class TestDetect:
    def test_degenerate_equals_bruteforce_scan(self, rng):
        m = random_model(rng, 25)
        params = GaParams(**DEGENERATE, seed=5)
        for _ in range(50):
            rec = record(rng.random(NUM_FEATURES))
            pred = detect(rec, m, params)
            z, label = bruteforce_fitness(rec.features, m)
            assert pred.attack_name == label
            assert pred.survivor_fitness == pytest.approx(z, abs=1e-12)
            assert pred.generations_run == 1

    def test_centroid_hit_scores_zero(self, rng):
        m = random_model(rng, 10)
        group = m.groups[1]
        rec = record(group.chromosomes[0].centroid.copy(), group.label)
        pred = detect(rec, m, GaParams(**DEGENERATE))
        assert pred.attack_name == group.label
        assert pred.category == group.category
        assert pred.survivor_fitness == 0.0

    def test_default_runs_thirteen_generations(self, rng):
        m = random_model(rng, 10)
        pred = detect(record(rng.random(NUM_FEATURES)), m, GaParams(seed=3))
        assert pred.generations_run == 13

    def test_generation_cap(self, rng):
        m = random_model(rng, 5)
        pred = detect(record(rng.random(NUM_FEATURES)), m, GaParams(seed=3, max_generations=4))
        assert pred.generations_run == 4

    def test_termination_bound(self, rng):
        # Shrinking is at least geometric-with-floor, so detect ends within
        # max(ceil(log_{1/(1-f)} P) + 1, max_generations) evaluation rounds.
        m = random_model(rng, 5)
        for pop_size, fraction in [(32, 0.25), (17, 0.5), (64, 0.1), (5, 0.9)]:
            params = GaParams(
                population_size=pop_size, removal_fraction=fraction, seed=8
            )
            pred = detect(record(rng.random(NUM_FEATURES)), m, params)
            bound = max(
                math.ceil(math.log(pop_size) / math.log(1 / (1 - fraction))) + 1,
                params.max_generations,
            )
            assert pred.generations_run <= bound

    def test_bitwise_deterministic(self, rng):
        m = random_model(rng, 12)
        rec = record(rng.random(NUM_FEATURES))
        params = GaParams(seed=777)
        p1 = detect(rec, m, params)
        p2 = detect(rec, m, params)
        assert p1 == p2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        population_size=st.integers(1, 40),
        crossover_rate=st.floats(0.0, 1.0),
        mutation_rate=st.floats(0.0, 1.0),
        mutation_sigma=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**64 - 1),
        records=st.integers(1, 3),
    )
    def test_genes_stay_in_unit_cube_throughout(
        self, population_size, crossover_rate, mutation_rate, mutation_sigma, seed, records
    ):
        # Drive the raw lockstep loop on a block of records, reading the tape
        # section by section, and check the invariants after every operator:
        # genes stay in [0,1], and select keeps, per record, the prefix of
        # the stable ascending order by fitness. Fitness is coarsened so that
        # ties are common and the tie rule is exercised.
        rng = record_rng(seed, 0)
        m = random_model(rng, 8)
        params = GaParams(
            population_size=population_size,
            crossover_rate=crossover_rate,
            mutation_rate=mutation_rate,
            mutation_sigma=mutation_sigma,
        )
        x = rng.random((records, NUM_FEATURES))
        genes, tape = populate(x, streams(records, seed), params)
        assert genes.shape == (records, population_size, NUM_FEATURES)
        assert in_unit_cube(genes)
        assert np.array_equal(genes[:, 0], x)
        swaps, hits = decide(tape, params, NUM_FEATURES)
        pair = row = 0
        sizes = schedule(params)
        for size, survivors_size in zip(sizes, sizes[1:]):
            fitness, nearest = kernels.batch_fitness(
                genes.reshape(-1, NUM_FEATURES), m.centroids, m.sq_norms, m.denoms, weights_of(m)
            )
            fitness = np.floor(4.0 * fitness).reshape(records, size)
            nearest = nearest.reshape(records, size)
            survivors, kept_fitness, kept_nearest = select(genes, fitness, nearest, params.removal_fraction)
            assert survivors.shape == (records, survivors_size, NUM_FEATURES)
            assert 1 <= survivors_size < size
            for r in range(records):
                order = sorted(range(size), key=lambda i: fitness[r, i])[:survivors_size]
                assert np.array_equal(survivors[r], genes[r, order])
                assert np.array_equal(kept_fitness[r], fitness[r, order])
                assert np.array_equal(kept_nearest[r], nearest[r, order])
            assert in_unit_cube(survivors)
            genes = survivors
            pairs = slice(pair, pair + survivors_size // 2)
            crossover(genes, swaps[:, pairs])
            assert in_unit_cube(genes)
            rows = slice(row, row + survivors_size)
            mutate(genes, hits[:, rows], tape.loci[:, rows], tape.deltas[:, rows])
            assert in_unit_cube(genes)
            pair, row = pairs.stop, rows.stop
        assert (pair, row) == (tape.cuts.shape[1], tape.loci.shape[1])

    # Recorded with the fixed-layout draw tape: any change to the tape's
    # layout or to the lockstep generation loop shows up here.
    GOLDEN = [
        ("multihop", "0.7696389018797902", 13),
        ("normal", "0.9396463009467538", 13),
        ("portsweep", "1.2775688106356287", 13),
        ("satan", "0.30697025476799766", 13),
        ("named", "0.37946900852931365", 13),
        ("ftp_write", "2.0546962476746216", 13),
        ("xnsnoop", "1.121419409236505", 13),
        ("warezmaster", "0.3003439010426759", 13),
        ("sendmail", "0.5739241313928735", 13),
        ("ftp_write", "0.24875137903375275", 13),
        ("smurf", "1.2733485766280586", 13),
        ("worm", "0.27896080703726656", 13),
        ("multihop", "0.8063599746681273", 13),
        ("normal", "1.1300905324585397", 13),
        ("portsweep", "1.1463010807713196", 13),
        ("satan", "0.3156078544492478", 13),
        ("named", "0.44988142649915347", 13),
        ("ftp_write", "2.1138112589835147", 13),
        ("xnsnoop", "1.010115306391711", 13),
        ("warezmaster", "0.32391733025043773", 13),
    ]

    def test_golden_predictions(self):
        # Records are noisy copies of the centroids so the winners vary.
        rng = record_rng(2468, 0)
        m = random_model(rng, 12)
        centroids = [c.centroid for g in m.groups for c in g.chromosomes]
        recs = [
            record(np.clip(centroids[i % 12] + rng.normal(0.0, 0.05, NUM_FEATURES), 0.0, 1.0))
            for i in range(20)
        ]
        params = GaParams(seed=97)
        rows = []
        for i, rec in enumerate(recs):
            pred = detect(rec, m, params, record_rng(params.seed, i))
            rows.append((pred.attack_name, repr(pred.survivor_fitness), pred.generations_run))
        assert rows == self.GOLDEN


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        cuts=st.lists(st.integers(1, 11), max_size=5),
        population_size=st.integers(1, 12),
        crossover_rate=st.floats(0.0, 1.0),
        mutation_rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        chromosomes=st.integers(10, 60),
        near_copies=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=10),
    )
    def test_any_block_partition_matches_detect(
        self, cuts, population_size, crossover_rate, mutation_rate, seed, chromosomes, near_copies
    ):
        # Twelve records split into blocks at random cut points: each block
        # runs as one lockstep search, and every record gets what detect
        # gives it alone from the same stream. Records near different
        # chromosomes keep different columns within one block, and
        # near-duplicate chromosomes tie or almost tie.
        rng = record_rng(seed, 0)
        m = random_model(rng, chromosomes)
        centroids = m.centroids.copy()
        for src, dst in near_copies:
            offset = rng.choice([-1e-9, 0.0, 1e-9], NUM_FEATURES)
            centroids[dst % chromosomes] = np.clip(centroids[src % chromosomes] + offset, 0.0, 1.0)
        m = build_model(centroids, m.labels, spreads=m.spreads)
        near = centroids[rng.integers(0, chromosomes, 6)] + rng.normal(0.0, 0.02, (6, NUM_FEATURES))
        points = np.vstack([np.clip(near, 0.0, 1.0), rng.random((6, NUM_FEATURES))])
        recs = dataset(record(p) for p in points[rng.permutation(12)])
        params = GaParams(
            population_size=population_size,
            crossover_rate=crossover_rate,
            mutation_rate=mutation_rate,
            seed=seed,
        )
        bounds = [0, *sorted(set(cuts)), 12]
        blocked = []
        for lo, hi in zip(bounds, bounds[1:]):
            x = m.normalization.transform(recs.features[lo:hi])
            blocked += engine._search(x, [record_rng(seed, i) for i in range(lo, hi)], m, params)
        alone = [detect(rec, m, params, record_rng(seed, i)) for i, rec in enumerate(recs)]
        assert blocked == alone

    @pytest.mark.parametrize("identical", [True, False])
    def test_blocks_keeping_every_column_scan_bounded_pairs(self, monkeypatch, identical):
        # Identical chromosomes all tie, and sigma 3 at rate 1 moves rows
        # across the cube: either way no chromosome can be pruned. The
        # block's scan is then split into calls of at most
        # max(2^14, P * K) pairs, and each record still gets what detect
        # gives it alone.
        rng = record_rng(31, 0)
        k = 600
        m = random_model(rng, k)
        if identical:
            params = GaParams(seed=5)
            m = build_model(np.tile(m.centroids[0], (k, 1)), m.labels, spreads=np.full(k, 0.1))
        else:
            params = GaParams(seed=5, mutation_sigma=3.0, mutation_rate=1.0, crossover_rate=1.0)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(20))
        scans = []
        scan = kernels.batch_fitness

        def counting(genes, centroids, *rest):
            scans.append((genes.shape[0], centroids.shape[0]))
            return scan(genes, centroids, *rest)

        monkeypatch.setattr(kernels, "batch_fitness", counting)
        blocked = run_batch(recs, m, params)
        assert max(cols for _, cols in scans) == k
        assert max(rows * cols for rows, cols in scans) <= max(2**14, params.population_size * k)
        alone = [detect(rec, m, params, record_rng(params.seed, i)) for i, rec in enumerate(recs)]
        assert blocked == alone


def reference_search(x, rngs, model, params):
    """The generation loop without carried scores or a held keep set: every
    generation keeps the columns for the reach of its own rows and scores
    every row. Returns (label, fitness, generations) per record."""
    sizes = schedule(params)
    count, n = x.shape
    tape = oracle_tape(rngs, params, n)
    genes = oracle_population(x, tape, params.mutation_rate)
    swaps, hits = decide(tape, params, n)
    bounds = kernels.record_bounds(x, model.centroids, model.sq_norms)

    def score(genes):
        cols = kernels.candidate_columns(kernels.reach(genes, x), *bounds, model.denoms, n)
        denoms = model.denoms[cols]
        weights = kernels.fitness_weights(denoms, n)
        fitness, idx = kernels.batch_fitness(
            genes.reshape(-1, n), model.centroids[cols], model.sq_norms[cols], denoms, weights
        )
        return fitness.reshape(count, -1), cols[idx].reshape(count, -1)

    fitness, nearest = score(genes)
    pair = row = 0
    for size in sizes[1:]:
        genes, _, _ = select(genes, fitness, nearest, params.removal_fraction)
        crossover(genes, swaps[:, pair : pair + size // 2])
        mutate(genes, hits[:, row : row + size], tape.loci[:, row : row + size], tape.deltas[:, row : row + size])
        pair, row = pair + size // 2, row + size
        fitness, nearest = score(genes)
    best = fitness.argmin(axis=1)
    return [(model.labels[nearest[r, b]], fitness[r, b], len(sizes)) for r, b in enumerate(best)]


def test_detection_loads_no_masked_arrays():
    # np.unique and np.union1d import numpy.ma, about 20 ms of a fresh
    # `gaids evaluate` process; a block's search must not call them.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, numpy as np\n"
        "from gaids import engine\n"
        "from conftest import dataset, random_model, record\n"
        "rng = np.random.default_rng(3)\n"
        "recs = dataset(record(v) for v in rng.random((60, 38)))\n"
        "engine.run_batch(recs, random_model(rng, 300), engine.GaParams(mutation_sigma=0.5))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestHeldKeepSet:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        population_size=st.integers(1, 40),
        crossover_rate=RATES,
        mutation_rate=RATES,
        mutation_sigma=st.one_of(st.sampled_from([0.0, 0.05, 5.0]), st.floats(0.0, 5.0)),
        records=st.integers(1, 13),
        seed=st.integers(0, 2**64 - 1),
        chromosomes=st.integers(1, 60),
        near_copies=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=10),
    )
    def test_search_equals_reference_loop(
        self, population_size, crossover_rate, mutation_rate, mutation_sigma, records, seed, chromosomes, near_copies
    ):
        # The block search, which scores only the rows that crossover or
        # mutation changed and widens one keep set as reaches grow, gives
        # each record the same label and fitness, bit for bit, as the loop
        # that rescores every row against each generation's own keep set.
        # Near-copies of chromosomes tie or almost tie.
        rng = record_rng(seed, 0)
        m = random_model(rng, chromosomes)
        centroids = m.centroids.copy()
        for src, dst in near_copies:
            offset = rng.choice([-1e-9, 0.0, 1e-9], NUM_FEATURES)
            centroids[dst % chromosomes] = np.clip(centroids[src % chromosomes] + offset, 0.0, 1.0)
        m = build_model(centroids, m.labels, spreads=m.spreads)
        near = centroids[rng.integers(0, chromosomes, records)] + rng.normal(0.0, 0.02, (records, NUM_FEATURES))
        x = np.where(rng.random((records, 1)) < 0.5, np.clip(near, 0.0, 1.0), rng.random((records, NUM_FEATURES)))
        params = GaParams(
            population_size=population_size,
            crossover_rate=crossover_rate,
            mutation_rate=mutation_rate,
            mutation_sigma=mutation_sigma,
            seed=seed,
        )
        rngs = lambda: [record_rng(seed, i) for i in range(records)]  # noqa: E731
        got = [(p.attack_name, p.survivor_fitness, p.generations_run) for p in engine._search(x, rngs(), m, params)]
        assert got == reference_search(x, rngs(), m, params)

    def spy(self, monkeypatch):
        """Record each batch_fitness call's (rows, columns) and each
        candidate_columns call's record count."""
        scans, keeps = [], []
        scan, keep = kernels.batch_fitness, kernels.candidate_columns

        def counting_scan(genes, centroids, *rest):
            scans.append((genes.shape[0], centroids.shape[0]))
            return scan(genes, centroids, *rest)

        def counting_keep(delta, *rest):
            keeps.append(delta.shape[0])
            return keep(delta, *rest)

        monkeypatch.setattr(kernels, "batch_fitness", counting_scan)
        monkeypatch.setattr(kernels, "candidate_columns", counting_keep)
        return scans, keeps

    def test_unchanged_rows_are_not_rescored(self, monkeypatch):
        # With no crossover and no mutation no row ever changes, so only
        # generation 0 scores rows, and each block computes its keep set once.
        rng = record_rng(7, 0)
        m = random_model(rng, 40)
        params = GaParams(seed=3, crossover_rate=0.0, mutation_rate=0.0)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(9))
        alone = [detect(rec, m, params, record_rng(params.seed, i)) for i, rec in enumerate(recs)]
        scans, keeps = self.spy(monkeypatch)
        assert run_batch(recs, m, params) == alone
        assert sum(rows for rows, _ in scans) == 9 * params.population_size
        assert keeps == [9]

    @pytest.mark.parametrize("sigma, rate", [(3.0, 1.0), (0.05, 0.35)])
    def test_keep_set_widens_inside_a_block(self, monkeypatch, sigma, rate):
        # Later generations reach past generation 0's rows: the keep set is
        # recomputed for the records whose reach grew, and the scanned columns
        # never shrink within the block; at sigma 3 every chromosome is kept
        # from the start, at sigma 0.05 the set grows. Every record still
        # gets what detect gives it alone.
        rng = record_rng(31, 0)
        m = random_model(rng, 200)
        params = GaParams(seed=5, mutation_sigma=sigma, mutation_rate=rate, crossover_rate=rate)
        near = m.centroids[rng.integers(0, 200, 8)] + rng.normal(0.0, 0.02, (8, NUM_FEATURES))
        recs = dataset(record(p) for p in np.clip(near, 0.0, 1.0))
        alone = [detect(rec, m, params, record_rng(params.seed, i)) for i, rec in enumerate(recs)]
        scans, keeps = self.spy(monkeypatch)
        assert run_batch(recs, m, params) == alone
        assert keeps[0] == 8 and len(keeps) > 1 and max(keeps[1:]) < 8
        columns = [cols for _, cols in scans]
        assert columns == sorted(columns)
        if sigma < 1.0:
            assert columns[-1] > columns[0]
        else:
            assert columns[0] == 200


class TestRunBatch:
    # Records per block at P = 32 against the 8 chromosomes of these tests.
    R = 80

    def test_empty_input(self, rng):
        assert run_batch(dataset([]), random_model(rng, 3), GaParams()) == []

    def test_serial_deterministic(self, rng):
        m = random_model(rng, 8)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(20))
        params = GaParams(seed=11)
        assert run_batch(recs, m, params) == run_batch(recs, m, params)

    def test_parallel_equals_serial(self, rng):
        m = random_model(rng, 8)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(2 * self.R + 1))
        params = GaParams(seed=11)
        serial = run_batch(recs, m, params, workers=1)
        parallel = run_batch(recs, m, params, workers=3)
        assert serial == parallel

    def spy_pool(self, monkeypatch, cpus):
        """On a host with `cpus` CPUs, spy on the fork-join so that it runs
        every share in this process; returns the process counts of the maps
        run_batch runs in more than one process."""
        requested = []

        def spy(costs, processes):
            if processes > 1:
                requested.append(processes)
            return [list(range(len(costs)))]

        monkeypatch.setattr(parallel, "_shares", spy)
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        return requested

    def pool_sizes(self, rng, monkeypatch, records, workers, cpus):
        """Pool sizes run_batch asks for on a host with `cpus` CPUs; the
        output must equal a serial run's."""
        requested = self.spy_pool(monkeypatch, cpus)
        m = random_model(rng, 8)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(records))
        params = GaParams(seed=11)
        assert run_batch(recs, m, params, workers=workers) == run_batch(recs, m, params)
        return requested

    def test_block_records_counts_tape_genes_and_bounds(self):
        # R shrinks as K grows, since each record holds (R, K) bound rows:
        # about 80 records against a few dozen chromosomes, 24 at
        # many-prototypes' K = 1,916, one at any K too large for a block.
        params = GaParams()
        assert engine._block_records(params, NUM_FEATURES, 8) == self.R
        sizes = [engine._block_records(params, NUM_FEATURES, k) for k in (29, 331, 1916, 5000, 10**6)]
        assert sizes == [78, 57, 24, 11, 1]
        assert engine._block_records(GaParams(population_size=1), NUM_FEATURES, 1) > sizes[0]

    @pytest.mark.parametrize(
        "records, step, pools", [(2, R, []), (3, 1, [3]), (2 * R + 1, R, [8])],
        ids=["one-block", "three-blocks", "rounded-up"],
    )
    def test_pool_no_larger_than_block_count(self, rng, monkeypatch, records, step, pools):
        # Two records are one block, so eight workers run it in this process.
        # Three records of one-record blocks are three blocks, so they ask
        # for three processes, not eight. 2R + 1 records are three blocks'
        # worth, cut into eight equal blocks for eight processes.
        monkeypatch.setattr(engine, "_block_records", lambda *args: step)
        assert self.pool_sizes(rng, monkeypatch, records=records, workers=8, cpus=8) == pools

    def test_pool_receives_whole_blocks(self, rng, monkeypatch):
        # The batch is cut into blocks once: 3R + 1 records are four blocks'
        # worth, so three processes get six equal blocks, each whole, none
        # above R records, whatever the shares' split.
        requested = self.spy_pool(monkeypatch, cpus=3)
        blocks = []
        search = engine._search

        def counting(x, rngs, model, params):
            blocks.append(x.shape[0])
            return search(x, rngs, model, params)

        monkeypatch.setattr(engine, "_search", counting)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(3 * self.R + 1))
        run_batch(recs, random_model(rng, 8), GaParams(seed=11), workers=3)
        assert requested == [3]
        assert blocks == [40, 40, 40, 40, 40, 41]

    def test_two_workers_get_equal_shares(self, rng, monkeypatch):
        # 600 records at R = 78 are eight blocks of 75, so each of two
        # processes detects 300 records.
        tasks = []
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "map_tasks", lambda fn, blocks, workers: tasks.extend(blocks) or [])
        run_batch(dataset(record(rng.random(NUM_FEATURES)) for _ in range(600)), random_model(rng, 29),
                  GaParams(), workers=2)
        assert [len(t) for t in tasks] == [75] * 8
        shares = parallel._shares([len(t) for t in tasks], 2)
        assert [sum(len(tasks[i]) for i in share) for share in shares] == [300, 300]

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, [])])
    def test_pool_no_larger_than_cpu_count(self, rng, monkeypatch, cpus, pools):
        # --workers 500 never forks 500 processes; on one CPU the records
        # run in this process, without a pool.
        assert self.pool_sizes(rng, monkeypatch, records=2 * self.R + 1, workers=500, cpus=cpus) == pools

    def test_per_record_streams_are_independent_of_position(self, rng):
        # Record i always uses PCG64(seed ^ i): the same record at the same
        # index yields the same prediction regardless of its neighbours.
        m = random_model(rng, 8)
        recs = [record(rng.random(NUM_FEATURES)) for _ in range(4)]
        params = GaParams(seed=42)
        full = run_batch(dataset(recs), m, params)
        direct = detect(recs[2], m, params, record_rng(params.seed, 2))
        assert full[2] == direct

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        count=st.integers(1, 2 * R + 1),
        population_size=st.integers(20, 32),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(count=2 * R + 1, population_size=32, seed=0)
    def test_worker_counts_give_equal_output(self, count, population_size, seed):
        # Real fork-joins of up to three processes, allowed three CPUs whatever
        # the host has; blocks hold 80 to 129 records, so a draw spans one to
        # three blocks' worth (the explicit example is three). The per-record
        # streams make every split agree.
        rng = record_rng(seed, 0)
        m = random_model(rng, 6)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(count))
        params = GaParams(population_size=population_size, seed=seed)
        with mock.patch.object(parallel, "available_cpus", return_value=3):
            results = [run_batch(recs, m, params, workers=w) for w in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
