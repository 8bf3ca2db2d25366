import numpy as np
import pytest

from gaids.ingest import ATTACK_CATEGORIES, NUM_FEATURES, ConnectionRecord, Dataset, NormalizationStats
from gaids.model import ChromosomeModel

# Verbatim lines from the 10% KDD99 training file (42 fields, trailing-period
# label; duration first, then the three symbolic fields).
REAL_LINES = [
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,0.00,0.00,0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00,normal.",
    "0,tcp,http,SF,239,486,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,0.00,0.00,0.00,0.00,1.00,0.00,0.00,19,19,1.00,0.00,0.05,0.00,0.00,0.00,0.00,0.00,normal.",
    "0,icmp,ecr_i,SF,1032,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,511,511,0.00,0.00,0.00,0.00,1.00,0.00,0.00,255,255,1.00,0.00,1.00,0.00,0.00,0.00,0.00,0.00,smurf.",
]


def _identity_stats(cls, n=NUM_FEATURES):
    """NormalizationStats that leave values in [0,1] unchanged."""
    return cls(np.zeros(n), np.ones(n))


# A test-only constructor, attached here so that the package does not carry
# it; the tests call it as NormalizationStats.identity().
NormalizationStats.identity = classmethod(_identity_stats)


def record(values, label="normal"):
    """ConnectionRecord from a full 38-vector or a {index: value} sparse spec."""
    if isinstance(values, dict):
        feats = np.zeros(NUM_FEATURES)
        for i, v in values.items():
            feats[i] = v
    else:
        feats = np.asarray(values, dtype=np.float64)
    return ConnectionRecord(
        features=feats, attack_name=label, category=ATTACK_CATEGORIES[label]
    )


def dataset(records):
    """Dataset holding the features and labels of a list of ConnectionRecords."""
    records = list(records)
    features = np.stack([r.features for r in records]) if records else np.empty((0, NUM_FEATURES))
    return Dataset(
        features=features,
        attack_names=[r.attack_name for r in records],
        categories=[r.category for r in records],
    )


def build_model(centroids, labels, spreads=None, counts=None, stats=None):
    """ChromosomeModel straight from arrays (rows in file order), bypassing
    precalculation."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if spreads is None:
        spreads = np.zeros(len(centroids))
    if counts is None:
        counts = np.ones(len(centroids), dtype=np.int64)
    return ChromosomeModel(
        centroids=centroids,
        member_counts=counts,
        spreads=spreads,
        labels=list(labels),
        category_of={label: ATTACK_CATEGORIES[label] for label in labels},
        normalization=stats or NormalizationStats.identity(centroids.shape[1]),
        range_used=0.125,
        training_size=int(np.sum(counts)),
    )


def random_model(rng, num_chromosomes, num_features=NUM_FEATURES, labels=None):
    if labels is None:
        pool = sorted(ATTACK_CATEGORIES)
        labels = [pool[int(rng.integers(0, len(pool)))] for _ in range(num_chromosomes)]
    centroids = rng.random((num_chromosomes, num_features))
    spreads = rng.random(num_chromosomes) * 0.2
    return build_model(centroids, labels, spreads=spreads)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20260810))
