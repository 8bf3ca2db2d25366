import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaids import engine, kernels
from gaids.engine import (
    GaParams,
    crossover,
    detect,
    initialize_population,
    make_rng,
    mutate,
    record_rng,
    run_batch,
    select,
)
from gaids.errors import EmptyModel
from gaids.ingest import NUM_FEATURES
from gaids.model import SPREAD_EPSILON

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


def in_unit_cube(genes):
    return bool(np.all(genes >= 0.0) and np.all(genes <= 1.0))


class TestInitializePopulation:
    def test_size_one_is_exact_copy(self, rng):
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, GaParams(population_size=1), rng)
        assert pop.shape == (1, NUM_FEATURES)
        assert np.array_equal(pop[0], x)

    def test_zero_sigma_copies_exactly(self, rng):
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, GaParams(mutation_sigma=0.0), rng)
        assert pop.shape == (32, NUM_FEATURES)
        for row in pop:
            assert np.array_equal(row, x)

    def test_candidate_zero_untouched(self, rng):
        x = rng.random(NUM_FEATURES)
        pop = initialize_population(x, GaParams(), rng)
        assert np.array_equal(pop[0], x)

    def test_seeded_runs_identical(self):
        x = np.linspace(0, 1, NUM_FEATURES)
        p = GaParams()
        pop1 = initialize_population(x, p, make_rng(99))
        pop2 = initialize_population(x, p, make_rng(99))
        assert np.array_equal(pop1, pop2)

    def test_genes_clamped(self, rng):
        x = np.ones(NUM_FEATURES)
        pop = initialize_population(x, GaParams(mutation_sigma=5.0, mutation_rate=1.0), rng)
        assert in_unit_cube(pop)


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

    def test_empty_model(self):
        m = build_model(np.zeros((1, NUM_FEATURES)), ["normal"])
        m.groups[0].chromosomes.clear()
        with pytest.raises(EmptyModel):
            score(np.zeros(NUM_FEATURES), m)


class TestSelect:
    def make_pop(self, fitnesses):
        """Rows whose first gene is their own fitness, the rest their index."""
        fitnesses = np.asarray(fitnesses, dtype=np.float64)
        genes = np.repeat(np.arange(len(fitnesses), dtype=np.float64)[:, None], NUM_FEATURES, 1)
        genes[:, 0] = fitnesses
        return genes

    def test_single_survivor_unchanged(self):
        pop = self.make_pop([3.0])
        assert len(select(pop, pop[:, 0], 0.25)) == 1

    def test_four_drop_worst(self):
        pop = self.make_pop([0.4, 0.1, 0.9, 0.2])
        survivors = select(pop, pop[:, 0], 0.25)
        assert len(survivors) == 3
        assert survivors[:, 0].tolist() == [0.1, 0.2, 0.4]

    def test_shrink_schedule_from_32(self):
        # Arithmetic trace with 25% removal: 13 population sizes seen in all.
        pop = self.make_pop(range(32))
        sizes = [len(pop)]
        while len(pop) > 1:
            pop = select(pop, pop[:, 0], 0.25)
            sizes.append(len(pop))
        assert sizes == [32, 24, 18, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1]
        assert len(sizes) == 13

    def test_strict_shrink_above_one(self):
        for size in range(2, 40):
            pop = self.make_pop(range(size))
            survivors = select(pop, pop[:, 0], 0.01)
            assert len(survivors) == size - 1

    def test_ties_stable_by_index(self):
        pop = self.make_pop([1.0, 1.0, 1.0, 2.0])
        survivors = select(pop, pop[:, 0], 0.5)
        assert np.array_equal(survivors, pop[:2])


class TestCrossover:
    def test_zero_rate_is_noop(self, rng):
        genes = rng.random((4, NUM_FEATURES))
        pop = genes.copy()
        crossover(pop, 0.0, rng)
        assert np.array_equal(pop, genes)

    def test_identical_pair_unchanged(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = np.stack([g, g])
        crossover(pop, 1.0, rng)
        assert np.array_equal(pop[0], g)
        assert np.array_equal(pop[1], g)

    def test_seeded_pair_matches_manual_swap(self):
        # Independent replay: consume the same draws from a fresh generator
        # and apply the suffix swap to the two rows by hand.
        a = np.linspace(0.0, 0.5, NUM_FEATURES)
        b = np.linspace(0.5, 1.0, NUM_FEATURES)
        pop = np.stack([a, b])
        crossover(pop, 1.0, make_rng(1234))

        replay = make_rng(1234)
        assert replay.random() < 1.0
        cut = int(replay.integers(1, NUM_FEATURES))
        expected_a = np.concatenate([a[:cut], b[cut:]])
        expected_b = np.concatenate([b[:cut], a[cut:]])
        assert np.array_equal(pop[0], expected_a)
        assert np.array_equal(pop[1], expected_b)

    def test_odd_last_candidate_untouched(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = np.vstack([rng.random((2, NUM_FEATURES)), g])
        crossover(pop, 1.0, rng)
        assert np.array_equal(pop[2], g)

    def test_population_size_unchanged(self, rng):
        pop = rng.random((7, NUM_FEATURES))
        crossover(pop, 1.0, rng)
        assert pop.shape == (7, NUM_FEATURES)


class TestMutate:
    def test_zero_rate_is_noop(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = g[None, :].copy()
        mutate(pop, 0.0, 0.05, rng)
        assert np.array_equal(pop[0], g)

    def test_zero_sigma_is_noop(self, rng):
        g = rng.random(NUM_FEATURES)
        pop = g[None, :].copy()
        mutate(pop, 1.0, 0.0, rng)
        assert np.array_equal(pop[0], g)

    def test_exactly_one_gene_changes(self, rng):
        # Genes sit mid-range and sigma is small, so clamping can never mask
        # the perturbation; every row must differ in exactly one gene.
        pop = np.full((1000, NUM_FEATURES), 0.5)
        mutate(pop, 1.0, 0.05, rng)
        assert np.array_equal((pop != 0.5).sum(axis=1), np.ones(1000))

    def test_stays_clamped(self, rng):
        pop = np.ones((100, NUM_FEATURES))
        mutate(pop, 1.0, 10.0, rng)
        assert in_unit_cube(pop)


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
    )
    def test_genes_stay_in_unit_cube_throughout(
        self, population_size, crossover_rate, mutation_rate, mutation_sigma, seed
    ):
        # Drive the raw generation loop and check the invariants after every
        # operator: genes stay in [0,1], and select keeps the prefix of the
        # stable ascending order by fitness. Fitness is coarsened so that
        # ties are common and the tie rule is exercised.
        rng = make_rng(seed)
        flat = random_model(rng, 8).flatten()
        params = GaParams(
            population_size=population_size,
            crossover_rate=crossover_rate,
            mutation_rate=mutation_rate,
            mutation_sigma=mutation_sigma,
        )
        genes = initialize_population(rng.random(NUM_FEATURES), params, rng)
        assert genes.shape == (population_size, NUM_FEATURES)
        assert in_unit_cube(genes)
        while len(genes) > 1:
            fitness, _ = kernels.batch_fitness(genes, flat.centroids, flat.sq_norms, flat.denoms)
            fitness = np.floor(4.0 * fitness)
            survivors = select(genes, fitness, params.removal_fraction)
            order = sorted(range(len(genes)), key=lambda i: fitness[i])
            assert 1 <= len(survivors) < len(genes)
            assert np.array_equal(survivors, genes[order[: len(survivors)]])
            assert in_unit_cube(survivors)
            genes = survivors
            crossover(genes, params.crossover_rate, rng)
            assert in_unit_cube(genes)
            mutate(genes, params.mutation_rate, params.mutation_sigma, rng)
            assert in_unit_cube(genes)


    # Recorded before the population became one array: any change to the
    # order or number of generator draws in detect shows up here.
    GOLDEN = [
        ("multihop", "0.7593047341200073", 13),
        ("normal", "1.1010734265198912", 13),
        ("portsweep", "0.9140138653349962", 13),
        ("satan", "0.30110610652283165", 13),
        ("named", "0.35135442958149204", 13),
        ("ftp_write", "2.0619874639888987", 13),
        ("xnsnoop", "1.189549232079683", 13),
        ("warezmaster", "0.28789185614174106", 13),
        ("sendmail", "0.5571128460129613", 13),
        ("ftp_write", "0.25158462175702484", 13),
        ("smurf", "1.2897907886535807", 13),
        ("worm", "0.2812521840560261", 13),
        ("multihop", "0.696457817089326", 13),
        ("normal", "1.0572331819346423", 13),
        ("portsweep", "1.1455583805618952", 13),
        ("satan", "0.3095269813539404", 13),
        ("named", "0.42379268359375843", 13),
        ("ftp_write", "2.093047745932754", 13),
        ("xnsnoop", "0.9729244736891921", 13),
        ("warezmaster", "0.3100097300305153", 13),
    ]

    def test_golden_predictions(self):
        # Records are noisy copies of the centroids so the winners vary.
        rng = make_rng(2468)
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


class TestRunBatch:
    def test_empty_input(self, rng):
        assert run_batch(dataset([]), random_model(rng, 3), GaParams()) == []

    def test_serial_deterministic(self, rng):
        m = random_model(rng, 8)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(20))
        params = GaParams(seed=11)
        assert run_batch(recs, m, params) == run_batch(recs, m, params)

    def test_parallel_equals_serial(self, rng):
        m = random_model(rng, 8)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(30))
        params = GaParams(seed=11)
        serial = run_batch(recs, m, params, workers=1)
        parallel = run_batch(recs, m, params, workers=3)
        assert serial == parallel

    def test_pool_no_larger_than_chunk_count(self, rng, monkeypatch):
        # Two records give two chunks, so eight workers must not ask for
        # eight processes. The stub runs the chunks in this process.
        requested = []

        class StubPool:
            def __init__(self, max_workers, initializer, initargs):
                requested.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(engine, "_WORKER", {})
        m = random_model(rng, 8)
        recs = dataset(record(rng.random(NUM_FEATURES)) for _ in range(2))
        params = GaParams(seed=11)
        assert run_batch(recs, m, params, workers=8) == run_batch(recs, m, params)
        assert requested == [2]

    def test_per_record_streams_are_independent_of_position(self, rng):
        # Record i always uses PCG64(seed ^ i): the same record at the same
        # index yields the same prediction regardless of its neighbours.
        m = random_model(rng, 8)
        recs = [record(rng.random(NUM_FEATURES)) for _ in range(4)]
        params = GaParams(seed=42)
        full = run_batch(dataset(recs), m, params)
        direct = detect(recs[2], m, params, record_rng(params.seed, 2))
        assert full[2] == direct
