"""Synthetic labeled datasets in KDD99 line format.

Gaussian clusters around constructed centers with a guaranteed minimum
pairwise distance on the normalized scale. The symbolic fields are filled
with fixed placeholders so generated files stay schema-valid while being
ignored by the numeric-only pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .ingest import NUM_FEATURES, SYMBOLIC_POSITIONS

SYMBOLIC_PLACEHOLDERS = ("tcp", "http", "SF")

# Cluster i takes label i (distinct categories first, so small cluster counts
# exercise every class).
LABELS = (
    "normal", "smurf", "nmap", "perl", "guess_passwd",
    "neptune", "portsweep", "rootkit", "warezmaster", "back",
)


def make_centers(clusters: int, separation: float) -> np.ndarray:
    """Centers with pairwise normalized distance >= separation.

    Each cluster owns the feature dims congruent to its index; owned dims sit
    at the high level, the rest at the low level. Raises ValueError when the
    requested separation cannot fit in the unit cube.
    """
    if clusters < 1:
        raise ValueError("cluster count must be >= 1")
    if not 0.0 <= separation < math.inf:
        raise ValueError("separation must be a finite non-negative number")
    if clusters == 1 or separation == 0:
        return np.full((clusters, NUM_FEATURES), 0.5)
    dims_per = np.array([
        len(range(i, NUM_FEATURES, clusters)) for i in range(clusters)
    ])
    min_pair = int(np.sort(dims_per)[:2].sum())
    if min_pair == 0:
        raise ValueError(f"{clusters} separated clusters need >= {clusters} features")
    span = separation / math.sqrt(min_pair / NUM_FEATURES)
    if span > 0.9:
        raise ValueError(
            f"separation {separation} not achievable with {clusters} clusters in "
            f"{NUM_FEATURES} dims (needs span {span:.3f} > 0.9)"
        )
    lo, hi = 0.5 - span / 2, 0.5 + span / 2
    centers = np.full((clusters, NUM_FEATURES), lo)
    for i in range(clusters):
        centers[i, i::clusters] = hi
    return centers


def format_line(features: np.ndarray, label: str) -> str:
    """One KDD99-format line: 41 fields (placeholders at the symbolic
    positions) plus the label with a trailing period."""
    fields = [repr(float(v)) for v in features]
    for pos, text in zip(SYMBOLIC_POSITIONS, SYMBOLIC_PLACEHOLDERS):
        fields.insert(pos, text)
    fields.append(label + ".")
    return ",".join(fields)


def generate_lines(
    clusters: int,
    points_per_cluster: int,
    separation: float,
    noise_sigma: float,
    seed: int,
) -> list[str]:
    """Labeled sample lines, points grouped by cluster in order."""
    if points_per_cluster < 1:
        raise ValueError("points per cluster must be >= 1")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError("noise sigma must be a finite non-negative number")
    if clusters > len(LABELS):
        raise ValueError(f"need {clusters} labels, have {len(LABELS)}")
    centers = make_centers(clusters, separation)
    rng = np.random.Generator(np.random.PCG64(seed))
    lines = []
    for i in range(clusters):
        noise = rng.normal(0.0, noise_sigma, (points_per_cluster, NUM_FEATURES))
        points = np.clip(centers[i] + noise, 0.0, 1.0)
        for row in points:
            lines.append(format_line(row, LABELS[i]))
    return lines
