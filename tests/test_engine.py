import math

import numpy as np
import pytest

from gaids.engine import (
    Candidate,
    GaParams,
    crossover,
    detect,
    evaluate_population,
    fitness,
    initialize_population,
    make_rng,
    mutate,
    record_rng,
    run_batch,
    select,
)
from gaids.errors import EmptyModel, UnsetFitness
from gaids.ingest import NUM_FEATURES
from gaids.model import SPREAD_EPSILON

from conftest import build_model, random_model, record

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


class TestInitializePopulation:
    def test_size_one_is_exact_copy(self, rng):
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, GaParams(population_size=1), rng)
        assert len(pop) == 1
        assert np.array_equal(pop[0].genes, x)

    def test_zero_sigma_copies_exactly(self, rng):
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, GaParams(mutation_sigma=0.0), rng)
        assert len(pop) == 32
        for c in pop:
            assert np.array_equal(c.genes, x)

    def test_candidate_zero_untouched(self, rng):
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, GaParams(), rng)
        assert np.array_equal(pop[0].genes, x)

    def test_seeded_runs_identical(self):
        x = np.linspace(0, 1, NUM_FEATURES)
        p = GaParams()
        pop1 = initialize_population(x, p, make_rng(99))
        pop2 = initialize_population(x, p, make_rng(99))
        for a, b in zip(pop1, pop2):
            assert np.array_equal(a.genes, b.genes)

    def test_genes_clamped(self, rng):
        x = np.ones(NUM_FEATURES)
        pop = initialize_population(x, GaParams(mutation_sigma=5.0, mutation_rate=1.0), rng)
        for c in pop:
            assert np.all(c.genes >= 0.0) and np.all(c.genes <= 1.0)


class TestFitness:
    def test_exact_centroid_scores_zero(self, rng):
        m = random_model(rng, 10)
        chrom = m.groups[2].chromosomes[0]
        value, label = fitness(Candidate(genes=chrom.centroid.copy()), m)
        assert value == 0.0
        assert label == m.groups[2].label

    def test_zero_spread_uses_epsilon(self, rng):
        centroid = np.full(NUM_FEATURES, 0.5)
        m = build_model([centroid], ["normal"], spreads=[0.0])
        x = rng.random(NUM_FEATURES)
        value, _ = fitness(Candidate(genes=x), m)
        d = math.sqrt(float(((x - centroid) ** 2).sum()) / NUM_FEATURES)
        assert value == pytest.approx(d / SPREAD_EPSILON, rel=1e-12)

    def test_matches_bruteforce_scan(self, rng):
        m = random_model(rng, 10)
        for _ in range(50):
            c = Candidate(genes=rng.random(NUM_FEATURES))
            value, label = fitness(c, m)
            expected_z, expected_label = bruteforce_fitness(c.genes, m)
            assert label == expected_label
            assert value == pytest.approx(expected_z, abs=1e-12)
            assert c.fitness == value
            assert c.nearest_label == label

    def test_monotone_in_distance(self, rng):
        # g2 sits farther from every centroid than g1 (componentwise above
        # centroids bounded by 0.3), so its score cannot be lower.
        centroids = rng.random((8, NUM_FEATURES)) * 0.3
        m = build_model(centroids, ["normal"] * 8, spreads=rng.random(8) * 0.1)
        for _ in range(25):
            g1 = 0.4 + rng.random(NUM_FEATURES) * 0.2
            g2 = g1 + 0.2
            f1, _ = fitness(Candidate(genes=g1), m)
            f2, _ = fitness(Candidate(genes=g2), m)
            assert f2 >= f1

    def test_empty_model(self):
        m = build_model(np.zeros((1, NUM_FEATURES)), ["normal"])
        m.groups[0].chromosomes.clear()
        with pytest.raises(EmptyModel):
            fitness(Candidate(genes=np.zeros(NUM_FEATURES)), m)


class TestSelect:
    def make_pop(self, fitnesses):
        return [
            Candidate(genes=np.zeros(NUM_FEATURES), fitness=f, nearest_label="normal")
            for f in fitnesses
        ]

    def test_single_survivor_unchanged(self):
        pop = self.make_pop([3.0])
        assert len(select(pop, 0.25)) == 1

    def test_four_drop_worst(self):
        pop = self.make_pop([0.4, 0.1, 0.9, 0.2])
        survivors = select(pop, 0.25)
        assert len(survivors) == 3
        assert [c.fitness for c in survivors] == [0.1, 0.2, 0.4]

    def test_shrink_schedule_from_32(self):
        # Arithmetic trace with 25% removal: 13 population sizes seen in all.
        pop = self.make_pop(range(32))
        sizes = [len(pop)]
        while len(pop) > 1:
            pop = select(pop, 0.25)
            sizes.append(len(pop))
        assert sizes == [32, 24, 18, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1]
        assert len(sizes) == 13

    def test_strict_shrink_above_one(self):
        for size in range(2, 40):
            survivors = select(self.make_pop(range(size)), 0.01)
            assert len(survivors) == size - 1

    def test_ties_stable_by_index(self):
        pop = self.make_pop([1.0, 1.0, 1.0, 2.0])
        survivors = select(pop, 0.5)
        assert survivors == pop[:2]

    def test_unset_fitness_rejected(self):
        pop = [Candidate(genes=np.zeros(NUM_FEATURES))] * 2
        with pytest.raises(UnsetFitness):
            select(pop, 0.25)


class TestCrossover:
    def test_zero_rate_is_noop(self, rng):
        genes = [rng.random(NUM_FEATURES) for _ in range(4)]
        pop = [Candidate(genes=g.copy()) for g in genes]
        crossover(pop, 0.0, rng)
        for c, g in zip(pop, genes):
            assert np.array_equal(c.genes, g)

    def test_identical_pair_unchanged(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = [Candidate(genes=g.copy()), Candidate(genes=g.copy())]
        crossover(pop, 1.0, rng)
        assert np.array_equal(pop[0].genes, g)
        assert np.array_equal(pop[1].genes, g)

    def test_seeded_pair_matches_manual_swap(self):
        # Independent replay: consume the same draws from a fresh generator
        # and apply the suffix swap by hand.
        a = np.linspace(0.0, 0.5, NUM_FEATURES)
        b = np.linspace(0.5, 1.0, NUM_FEATURES)
        pop = [Candidate(genes=a.copy()), Candidate(genes=b.copy())]
        crossover(pop, 1.0, make_rng(1234))

        replay = make_rng(1234)
        assert replay.random() < 1.0
        cut = int(replay.integers(1, NUM_FEATURES))
        expected_a = np.concatenate([a[:cut], b[cut:]])
        expected_b = np.concatenate([b[:cut], a[cut:]])
        assert np.array_equal(pop[0].genes, expected_a)
        assert np.array_equal(pop[1].genes, expected_b)
        assert pop[0].fitness is None

    def test_odd_last_candidate_untouched(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = [Candidate(genes=rng.random(NUM_FEATURES)) for _ in range(2)]
        pop.append(Candidate(genes=g.copy()))
        crossover(pop, 1.0, rng)
        assert np.array_equal(pop[2].genes, g)

    def test_population_size_unchanged(self, rng):
        pop = [Candidate(genes=rng.random(NUM_FEATURES)) for _ in range(7)]
        assert len(crossover(pop, 1.0, rng)) == 7


class TestMutate:
    def test_zero_rate_is_noop(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = [Candidate(genes=g.copy())]
        mutate(pop, 0.0, 0.05, rng)
        assert np.array_equal(pop[0].genes, g)

    def test_zero_sigma_is_noop(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = [Candidate(genes=g.copy())]
        mutate(pop, 1.0, 0.0, rng)
        assert np.array_equal(pop[0].genes, g)

    def test_exactly_one_gene_changes(self, rng):
        # Genes sit mid-range and sigma is small, so clamping can never mask
        # the perturbation; every candidate must differ in exactly one gene.
        pop = [Candidate(genes=np.full(NUM_FEATURES, 0.5)) for _ in range(1000)]
        mutate(pop, 1.0, 0.05, rng)
        for c in pop:
            assert int((c.genes != 0.5).sum()) == 1

    def test_stays_clamped(self, rng):
        pop = [Candidate(genes=np.ones(NUM_FEATURES)) for _ in range(100)]
        mutate(pop, 1.0, 10.0, rng)
        for c in pop:
            assert np.all(c.genes >= 0.0) and np.all(c.genes <= 1.0)


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

    def test_genes_stay_in_unit_cube_throughout(self, rng):
        # Drive the raw generation loop with aggressive variation and check
        # the invariant after every operator.
        m = random_model(rng, 8)
        params = GaParams(mutation_rate=1.0, crossover_rate=1.0, mutation_sigma=2.0)
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, params, rng)
        for _ in range(10):
            evaluate_population(pop, m)
            if len(pop) == 1:
                break
            for step in (
                lambda p: select(p, params.removal_fraction),
                lambda p: crossover(p, params.crossover_rate, rng),
                lambda p: mutate(p, params.mutation_rate, params.mutation_sigma, rng),
            ):
                pop = step(pop)
                for c in pop:
                    assert np.all(c.genes >= 0.0) and np.all(c.genes <= 1.0)


class TestRunBatch:
    def test_empty_input(self, rng):
        assert run_batch([], random_model(rng, 3), GaParams()) == []

    def test_serial_deterministic(self, rng):
        m = random_model(rng, 8)
        recs = [record(rng.random(NUM_FEATURES)) for _ in range(20)]
        params = GaParams(seed=11)
        assert run_batch(recs, m, params) == run_batch(recs, m, params)

    def test_parallel_equals_serial(self, rng):
        m = random_model(rng, 8)
        recs = [record(rng.random(NUM_FEATURES)) for _ in range(30)]
        params = GaParams(seed=11)
        serial = run_batch(recs, m, params, workers=1)
        parallel = run_batch(recs, m, params, workers=3)
        assert serial == parallel

    def test_per_record_streams_are_independent_of_position(self, rng):
        # Record i always uses PCG64(seed ^ i): the same record at the same
        # index yields the same prediction regardless of its neighbours.
        m = random_model(rng, 8)
        recs = [record(rng.random(NUM_FEATURES)) for _ in range(4)]
        params = GaParams(seed=42)
        full = run_batch(recs, m, params)
        direct = detect(recs[2], m, params, record_rng(params.seed, 2))
        assert full[2] == direct
