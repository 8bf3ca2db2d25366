import numpy as np
import pytest

from gaids import kernels
from gaids.engine import SPREAD_EPSILON

from conftest import random_model
from test_engine import bruteforce_fitness


def test_exact_ties_resolve_to_first_index():
    # Two centroids at exactly representable equal distances from x.
    x = np.zeros(38)
    centroids = np.zeros((3, 38))
    centroids[0, 0] = 0.5
    centroids[1, 1] = 0.5
    centroids[2, 2] = 0.75
    idx, _ = kernels.nearest_centroid(x, centroids)
    assert idx == 0
    _, which = kernels.batch_fitness(x[None, :], centroids, np.zeros(3), 1e-6)
    assert which[0] == 0


def test_scan_distance_equals_scalar_distance(rng):
    # The merge decision and the spread stream must see the same float.
    centroids = rng.random((40, 38))
    for x in rng.random((16, 38)):
        idx, d = kernels.nearest_centroid(x, centroids)
        assert d == kernels.distance(x, centroids[idx])


@pytest.mark.parametrize(
    "population, chromosomes, features",
    [(1, 1, 38), (6, 1, 38), (16, 40, 38), (9, 7, 3)],
)
def test_batch_fitness_matches_bruteforce(rng, population, chromosomes, features):
    model = random_model(rng, chromosomes, num_features=features)
    flat = model.flatten()
    genes = rng.random((population, features))
    genes[0] = flat.centroids[-1]  # exact centroid hit
    values, idx = kernels.batch_fitness(
        genes, flat.centroids, flat.spreads, SPREAD_EPSILON
    )
    assert values[0] == 0.0
    for g, value, k in zip(genes, values, idx):
        expected_value, expected_label = bruteforce_fitness(g, model)
        assert value == pytest.approx(expected_value, rel=1e-12, abs=1e-15)
        assert flat.labels[k] == expected_label
