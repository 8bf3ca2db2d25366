import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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


def assert_matches_loop(genes, centroids, spreads=None):
    """batch_fitness over a one-group model built from `centroids` (row order
    kept) equals the reference loop bit for bit; returns its result."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if spreads is None:
        spreads = np.zeros(centroids.shape[0])
    spreads = np.asarray(spreads, dtype=np.float64)
    m = build_model(centroids, ["normal"] * len(centroids), spreads=spreads)
    genes = np.ascontiguousarray(genes, dtype=np.float64)
    values, idx = kernels.batch_fitness(genes, m.centroids, m.sq_norms, m.denoms)
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


@pytest.mark.parametrize(
    "population, chromosomes, features",
    [(1, 1, 38), (6, 1, 38), (16, 40, 38), (9, 7, 3)],
)
def test_batch_fitness_matches_bruteforce(rng, population, chromosomes, features):
    model = random_model(rng, chromosomes, num_features=features)
    genes = rng.random((population, features))
    genes[0] = model.centroids[-1]  # exact centroid hit
    values, idx = kernels.batch_fitness(
        genes, model.centroids, model.sq_norms, model.denoms
    )
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
    common), some genes copied from centroids, then scaled."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 30))
    p = draw(st.integers(1, 12))
    centroids = draw(arrays(np.float64, (k, n), elements=GRID))
    genes = draw(arrays(np.float64, (p, n), elements=GRID))
    for i in draw(st.lists(st.integers(0, p - 1), max_size=p)):
        genes[i] = centroids[draw(st.integers(0, k - 1))]
    spreads = draw(arrays(np.float64, k, elements=st.sampled_from([0.0, 0.01, 0.2])))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6]))
    return genes * scale, centroids * scale, spreads


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fitness_cases())
def test_batch_fitness_equals_loop_property(case):
    genes, centroids, spreads = case
    assert_matches_loop(genes, centroids, spreads)
