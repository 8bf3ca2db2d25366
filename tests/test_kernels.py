import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaids import kernels
from gaids.model import SPREAD_EPSILON

from conftest import build_model, random_model
from test_engine import bruteforce_fitness


def loop_fitness(genes, centroids, spreads, eps):
    """Reference: one full scan per population row, the exact expression
    whose floats batch_fitness must reproduce."""
    n = centroids.shape[1]
    denom = spreads + eps
    out = np.empty(genes.shape[0], dtype=np.float64)
    idx = np.empty(genes.shape[0], dtype=np.intp)
    for i in range(genes.shape[0]):
        diff = centroids - genes[i]
        z = np.sqrt((diff * diff).sum(axis=1) / n) / denom
        k = int(np.argmin(z))
        idx[i] = k
        out[i] = z[k]
    return out, idx


def columns(m, cols=slice(None)):
    """What batch_fitness scans of the model m's chromosomes cols: centroids,
    squared norms, denominators and fitness weights."""
    denoms = m.denoms[cols]
    return m.centroids[cols], m.sq_norms[cols], denoms, kernels.fitness_weights(denoms, m.centroids.shape[1])


def assert_matches_loop(genes, centroids, spreads=None):
    """batch_fitness over a one-group model built from `centroids` (row order
    kept) equals the reference loop bit for bit; returns its result."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if spreads is None:
        spreads = np.zeros(centroids.shape[0])
    spreads = np.asarray(spreads, dtype=np.float64)
    m = build_model(centroids, ["normal"] * len(centroids), spreads=spreads)
    genes = np.ascontiguousarray(genes, dtype=np.float64)
    values, idx = kernels.batch_fitness(genes, *columns(m))
    expected_values, expected_idx = loop_fitness(genes, centroids, spreads, SPREAD_EPSILON)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(idx, expected_idx)
    return values, idx


def test_import_loads_no_scipy():
    # The kernels are numpy-only; importing scipy would add about half a
    # second and 40 MB to every fresh `gaids` process.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, gaids, gaids.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_exact_ties_resolve_to_first_index():
    # Two centroids at exactly representable equal distances from x.
    x = np.zeros(38)
    centroids = np.zeros((3, 38))
    centroids[0, 0] = 0.5
    centroids[1, 1] = 0.5
    centroids[2, 2] = 0.75
    idx, _ = kernels.nearest_centroid(x, centroids)
    assert idx == 0
    _, which = assert_matches_loop(x[None, :], centroids)
    assert which[0] == 0


def test_scan_distance_equals_scalar_distance(rng):
    # The distance the scan returns is the float of the one-pair expression
    # sqrt(sum((x-c)^2)/n) for the row it picks.
    centroids = rng.random((40, 38))
    for x in rng.random((16, 38)):
        idx, d = kernels.nearest_centroid(x, centroids)
        diff = x - centroids[idx]
        assert d == math.sqrt(float((diff * diff).sum()) / x.shape[0])



def test_nearest_centroid_holds_one_temporary(rng):
    # Training calls it once per record. A second (k, n) temporary doubles
    # what each call allocates, and near glibc's mmap threshold the page
    # faults then depend on the heap layout. (876, 38) is the largest label
    # group of the benchmark's many-prototypes model.
    centroids = rng.random((876, 38))
    x = rng.random(38)
    kernels.nearest_centroid(x, centroids)
    tracemalloc.start()
    try:
        kernels.nearest_centroid(x, centroids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * centroids.nbytes


def screened_scan(x, centroids):
    """The nearest row as training settles it from bounds at a block's
    start (step 8, with `model._train_label`'s margins): the row with the
    lowest upper bound and its distance, when that distance, widened, is
    below every other row's lower bound; None where the record would run
    the direct scan."""
    n = centroids.shape[1]
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    lower, upper = kernels.record_bounds(x[None, :], centroids, np.einsum("ij,ij->i", centroids, centroids))
    j = int(upper[0].argmin())
    lower[0, j] = np.inf
    lb2 = lower.min() * ((1.0 - 4 * eps) / math.sqrt(n))
    diff = centroids[j] - x
    d = math.sqrt(np.add.reduce(diff * diff) / n)
    return (j, d) if lb2 > d * (1.0 + (n + 8) * eps) + math.sqrt(tiny) else None


@pytest.mark.parametrize("k", [1, 2, 3, 8, 64, 191, 192, 193, 300, 513])
def test_screened_scan_equals_direct_scan(rng, k):
    # Where the bounds settle a record, they give the direct scan's index and
    # distance. Half the rows on a quarter grid, so that exact ties are
    # common, half random; a third of them copies of others. The queries are
    # grid points, random points, the all-0 and all-1 corners, centroids
    # themselves and points 1e-9 off a centroid.
    centroids = np.where(rng.random((k, 1)) < 0.5, rng.integers(0, 5, (k, 38)) / 4, rng.random((k, 38)))
    centroids[rng.integers(0, k, k // 3)] = centroids[rng.integers(0, k, k // 3)]
    hits = centroids[rng.integers(0, k, 20)]
    queries = np.concatenate([
        rng.integers(0, 5, (20, 38)) / 4,
        rng.random((20, 38)),
        np.zeros((1, 38)),
        np.ones((1, 38)),
        hits,
        np.clip(hits + rng.normal(0, 1e-9, hits.shape), 0.0, 1.0),
    ])
    settled = [screened_scan(x, centroids) for x in queries]
    for x, found in zip(queries, settled):
        assert found in (None, kernels.nearest_centroid(x, centroids))
    assert any(settled)

@pytest.mark.parametrize(
    "population, chromosomes, features",
    [(1, 1, 38), (6, 1, 38), (16, 40, 38), (9, 7, 3)],
)
def test_batch_fitness_matches_bruteforce(rng, population, chromosomes, features):
    model = random_model(rng, chromosomes, num_features=features)
    genes = rng.random((population, features))
    genes[0] = model.centroids[-1]  # exact centroid hit
    values, idx = kernels.batch_fitness(genes, *columns(model))
    assert values[0] == 0.0
    for g, value, k in zip(genes, values, idx):
        expected_value, expected_label = bruteforce_fitness(g, model)
        assert value == pytest.approx(expected_value, rel=1e-12, abs=1e-15)
        assert model.labels[k] == expected_label


class TestScreenAndVerify:
    """batch_fitness against the per-row reference loop: equal floats and
    equal indices, never approximately."""

    def test_exact_hits_with_zero_spread(self, rng):
        centroids = rng.random((50, 38))
        genes = np.vstack([centroids[[7, 0, 49]], rng.random((5, 38))])
        values, idx = assert_matches_loop(genes, centroids)
        assert values[:3].tolist() == [0.0, 0.0, 0.0]
        assert idx[:3].tolist() == [7, 0, 49]

    def test_duplicated_centroids_tie_to_lowest_index(self, rng):
        base = rng.random((6, 38))
        centroids = base[[0, 1, 2, 3, 2, 4, 2, 5, 1]]
        spreads = np.full(9, 0.05)
        genes = np.vstack([base[2], base[1], base[2] + 1e-3, rng.random((6, 38))])
        _, idx = assert_matches_loop(genes, centroids, spreads)
        assert idx[:3].tolist() == [2, 1, 2]

    def test_near_ties(self, rng):
        base = rng.random(38)
        centroids = base + rng.choice([-1e-9, 0.0, 1e-9], size=(40, 38))
        spreads = 0.01 + rng.choice([0.0, 1e-9], size=40)
        genes = base + rng.choice([-1e-9, 0.0, 1e-9], size=(12, 38))
        assert_matches_loop(genes, centroids, spreads)

    @pytest.mark.parametrize("population, chromosomes", [(1, 1), (1, 60), (20, 1)])
    def test_single_row_or_chromosome(self, rng, population, chromosomes):
        assert_matches_loop(
            rng.random((population, 38)),
            rng.random((chromosomes, 38)),
            rng.random(chromosomes) * 0.1,
        )

    @pytest.mark.parametrize("features", [1, 2, 7, 100])
    def test_other_feature_counts(self, rng, features):
        centroids = rng.random((30, features))
        genes = np.vstack([centroids[3], rng.random((9, features))])
        assert_matches_loop(genes, centroids, rng.random(30) * 0.1)

    def test_coordinates_far_outside_unit_cube(self, rng):
        # Norms of ~1e13 against distances of ~1e-3: the matmul screen
        # cancels to noise and only the error bound keeps the winner.
        centroids = rng.random((40, 38)) * 1e6
        genes = np.vstack(
            [
                centroids[[5, 5, 30]] + rng.random((3, 38)) * 1e-3,
                centroids[11],
                rng.random((4, 38)) * 1e6,
            ]
        )
        _, idx = assert_matches_loop(genes, centroids, rng.random(40) * 1e-3)
        assert idx[3] == 11


GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-9, 0.5 + 1e-9, 0.3, 0.7])


@st.composite
def fitness_cases(draw):
    """Centroids and genes on a coarse grid (so ties and exact hits are
    common), some centroids copied from others and some genes from
    centroids, then scaled."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 30))
    p = draw(st.integers(1, 12))
    centroids = draw(arrays(np.float64, (k, n), elements=GRID))
    for src in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        centroids[draw(st.integers(0, k - 1))] = centroids[src]
    genes = draw(arrays(np.float64, (p, n), elements=GRID))
    for i in draw(st.lists(st.integers(0, p - 1), max_size=p)):
        genes[i] = centroids[draw(st.integers(0, k - 1))]
    spreads = draw(arrays(np.float64, k, elements=st.sampled_from([0.0, 0.01, 0.2, 1e200])))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6]))
    return genes * scale, centroids * scale, spreads


GRID_ROWS = np.array([[0.0, 0.25, 0.5], [1.0, 0.3, 0.7], [0.5, 0.5, 0.5], [0.25, 1.0, 0.0]])


# The kernel rescores a call's rows directly when each has one candidate, and
# through the candidate pairs otherwise. The examples run both paths: rows
# near distinct chromosomes (one candidate each), K = 1, duplicated
# chromosomes with rows equal to one of them (ties), and a 1e200 spread whose
# weight overflows to 0, so that its column is a candidate for every row,
# alone (one candidate) and beside other chromosomes (ties).
@example((GRID_ROWS[:3] + 0.01, GRID_ROWS, np.zeros(4)))
@example((GRID_ROWS, GRID_ROWS[[1]], np.array([0.2])))
@example((GRID_ROWS[[2, 0, 2]], GRID_ROWS[[2, 0, 2, 2]], np.full(4, 0.01)))
@example((GRID_ROWS, GRID_ROWS[[3]], np.array([1e200])))
@example((GRID_ROWS, GRID_ROWS, np.array([0.0, 1e200, 0.01, 0.2])))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(fitness_cases())
def test_batch_fitness_equals_loop_property(case):
    genes, centroids, spreads = case
    assert_matches_loop(genes, centroids, spreads)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fitness_cases())
def test_screened_scan_equals_direct_scan_property(case):
    genes, centroids, _ = case
    for x in genes:
        assert screened_scan(x, centroids) in (None, kernels.nearest_centroid(x, centroids))


def scan_columns(rows, m, cols):
    """batch_fitness over the columns cols of the model m, indices mapped
    back to the model's."""
    values, idx = kernels.batch_fitness(rows, *columns(m, cols))
    return values, cols[idx]


def assert_pruned_matches_loop(x, populations, centroids, spreads):
    """The engine's pruned scan, bounds around the (R, n) records x taken
    once and then for each (R, S, n) population in turn batch_fitness on the
    kept columns only, equals the reference loop over every chromosome bit
    for bit. So does the scan over the columns of the reach held across the
    populations, the largest each record has reached so far, which the
    engine widens by the records whose reach grew. Returns the kept column
    counts."""
    m = build_model(centroids, ["normal"] * len(centroids), spreads=spreads)
    lower, upper = kernels.record_bounds(x, m.centroids, m.sq_norms)
    n = x.shape[1]
    kept = []
    held = None
    for genes in populations:
        delta = kernels.reach(genes, x)
        cols = kernels.candidate_columns(delta, lower, upper, m.denoms, n)
        rows = genes.reshape(-1, n)
        expected_values, expected_idx = loop_fitness(rows, centroids, spreads, SPREAD_EPSILON)
        values, idx = scan_columns(rows, m, cols)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(idx, expected_idx)
        kept.append(cols.size)
        if held is None:
            held, held_cols = delta, cols
        else:
            wider = (delta > held)[:, 0]
            held = np.maximum(held, delta)
            more = kernels.candidate_columns(held[wider], lower[wider], upper[wider], m.denoms, n)
            held_cols = np.union1d(held_cols, more)
            assert np.array_equal(held_cols, kernels.candidate_columns(held, lower, upper, m.denoms, n))
        assert np.isin(cols, held_cols).all()
        values, idx = scan_columns(rows, m, held_cols)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(idx, expected_idx)
    return kept


def test_bounds_bracket_the_distance(rng):
    centroids = rng.random((50, 38))
    x = np.vstack([centroids[[4, 4]], rng.random((3, 38))])
    m = build_model(centroids, ["normal"] * 50)
    lower, upper = kernels.record_bounds(x, m.centroids, m.sq_norms)
    exact = np.sqrt(((x[:, None, :] - centroids[None]) ** 2).sum(axis=2))
    assert np.all(lower <= exact) and np.all(exact <= upper)
    assert lower[0, 4] == lower[1, 4] == 0.0
    assert np.all(upper - lower < 1e-5)


def test_close_rows_keep_only_the_reachable_chromosomes(rng):
    # Rows within 1e-3 of a record that sits on chromosome 17: every other
    # chromosome is far beyond the reach, and none of them is scanned.
    centroids = rng.random((200, 38))
    x = centroids[[17]]
    genes = np.clip(x[:, None, :] + rng.uniform(-1e-3, 1e-3, (1, 12, 38)), 0.0, 1.0)
    genes[0, 0] = x[0]
    spreads = np.full(200, 0.05)
    assert assert_pruned_matches_loop(x, [genes], centroids, spreads) == [1]


@st.composite
def pruning_cases(draw):
    """Records in the unit cube and chromosomes on the coarse GRID (ties,
    repeated rows and spread-0 singletons are common), then successive
    populations around the records whose offsets grow call by call. Row 0
    of each population is its record; the others are the record itself, a
    point at the call's distance from it, an exact chromosome hit or a
    corner of the cube."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 30))
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 10))
    centroids = draw(arrays(np.float64, (k, n), elements=GRID))
    for src in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        centroids[draw(st.integers(0, k - 1))] = centroids[src]
    spreads = draw(arrays(np.float64, k, elements=st.sampled_from([0.0, 0.01, 0.2, 1e200])))
    x = draw(arrays(np.float64, (r, n), elements=st.one_of(GRID, st.floats(0.0, 1.0))))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=r)):
        x[i] = centroids[draw(st.integers(0, k - 1))]
    distances = draw(
        st.lists(st.sampled_from([0.0, 1e-12, 1e-6, 0.01, 0.1, 0.5, 3.0]), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    populations = []
    for distance in sorted(distances):
        kinds = rng.integers(0, 4 if rng.random() < 0.5 else 2, size=(r, s))
        kinds[:, 0] = 0
        genes = np.repeat(x[:, None, :], s, axis=1)
        step = rng.uniform(-1.0, 1.0, (r, s, n)) * (distance / math.sqrt(n))
        genes[kinds == 1] = np.clip(genes + step, 0.0, 1.0)[kinds == 1]
        hits = centroids[rng.integers(0, k, (r, s))]
        genes[kinds == 2] = hits[kinds == 2]
        genes[kinds == 3] = rng.integers(0, 2, (r, s, n))[kinds == 3]
        populations.append(genes)
    return x, populations, centroids, spreads


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pruning_cases())
def test_pruned_scan_equals_loop_property(case):
    assert_pruned_matches_loop(*case)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pruning_cases(), st.lists(st.sampled_from([1.0, 1.0 + 1e-15, 1.4, 3.0, 1e3]), min_size=3, max_size=3))
def test_larger_reach_keeps_a_superset_with_equal_scores(case, factors):
    # For reaches delta <= delta' record by record, the columns kept at
    # delta' include those kept at delta, and batch_fitness over either set
    # gives the same floats and the same mapped indices.
    x, populations, centroids, spreads = case
    m = build_model(centroids, ["normal"] * len(centroids), spreads=spreads)
    bounds = kernels.record_bounds(x, m.centroids, m.sq_norms)
    n = x.shape[1]
    for genes in populations:
        delta = kernels.reach(genes, x)
        wide = delta * np.array(factors[: len(x)])[:, None]
        cols = kernels.candidate_columns(delta, *bounds, m.denoms, n)
        wide_cols = kernels.candidate_columns(wide, *bounds, m.denoms, n)
        assert np.isin(cols, wide_cols).all()
        assert np.array_equal(wide_cols, np.unique(wide_cols))
        rows = genes.reshape(-1, n)
        narrow_values, narrow_idx = scan_columns(rows, m, cols)
        wide_values, wide_idx = scan_columns(rows, m, wide_cols)
        assert np.array_equal(narrow_values, wide_values)
        assert np.array_equal(narrow_idx, wide_idx)
