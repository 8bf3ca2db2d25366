"""Hot distance kernels (numpy): scalar distance, nearest-centroid scan and
the spread-normalized population fitness scan.

All three are deterministic; ties resolve to the lowest index (np.argmin).
"""

from __future__ import annotations

import math

import numpy as np


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Dimension-normalized Euclidean distance sqrt(sum((a-b)^2)/n)."""
    d = a - b
    return math.sqrt(float((d * d).sum()) / a.shape[0])


def nearest_centroid(x: np.ndarray, centroids: np.ndarray) -> tuple[int, float]:
    """Index and distance of the row of `centroids` nearest to `x`.

    Ties resolve to the lowest index.
    """
    diff = centroids - x
    d2 = (diff * diff).sum(axis=1)
    idx = int(np.argmin(d2))
    return idx, math.sqrt(float(d2[idx]) / centroids.shape[1])


def batch_fitness(
    genes: np.ndarray,
    centroids: np.ndarray,
    spreads: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Spread-normalized nearest scan for a population.

    For each row g of `genes`, minimizes distance(g, centroid_k)/(spread_k+eps)
    over all k. Returns (min values, argmin indices), ties to the lowest index.
    """
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
