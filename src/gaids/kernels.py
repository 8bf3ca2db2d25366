"""Hot distance kernels (numpy): the nearest-centroid scan and the
spread-normalized population fitness scan, both over the dimension-
normalized Euclidean distance sqrt(sum((a-b)^2)/n).

Both are deterministic; ties resolve to the lowest index (np.argmin).

`batch_fitness` scores a whole population of P rows against all K
chromosomes in one screen-and-verify pass instead of one full scan per row.
Write d2 for a squared distance, s = ||g||^2 + ||c||^2 and eps for the
float64 machine epsilon.

1. Screen: all P*K squared distances come from one matmul,
   d2 ~ s - 2 g.c. This is fast, but it cancels when g is near c, so it
   only brackets the true value.
2. Bound: the rounding error of that expression plus the gap between the
   true d2 and the float the exact expression of step 3 sums is below
   4 (n+2) eps s; the slack 8 (n+2) eps (s + tiny) doubles that, and `tiny`
   (the smallest normal float) covers the absolute error of gradual
   underflow. So d2 - slack <= exact d2 <= d2 + slack. Multiplied by
   1 / (n (spread+eps)^2), these give a lower and an upper value that
   bracket the square of each exact score to within about 10 eps relative.
   The cut of a row is its smallest upper value widened by 64 eps, plus
   tiny. A pair is a candidate when its lower value is at or below the cut;
   the winning pair and every pair tied with it always are (and usually
   they are the only ones).
3. Rescore: the candidate pairs, gathered as (M, n) rows, are scored with
   the exact expression sqrt(((c - g)**2).sum(axis=1) / n) / (spread + eps).
   A sum along the last axis of a C-contiguous array adds each row in the
   same order however many rows there are, so these are the same floats a
   per-row scan returns.
4. Pick: the exact scores go into an inf-filled (P, K) array, and argmin
   along each row keeps the lowest-index tie rule.

Values and indices are therefore bit-identical to a per-row scan; only the
amount of work changes.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# Widens the cut past the ~20 eps by which a lower and an upper squared
# score of two equal exact scores can disagree.
_WIDEN = 1.0 + 64 * _EPS


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
    sq_norms: np.ndarray,
    denoms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Spread-normalized nearest scan for a population.

    For each row g of `genes` (P, n), minimizes
    distance(g, centroids[k]) / denoms[k] over all k, where `centroids` is
    C-contiguous (K, n), `sq_norms` is (centroids**2).sum(axis=1) and
    `denoms` is spread + eps per chromosome. Returns (min values, argmin
    indices), ties to the lowest index, equal bit for bit to a per-row scan.
    """
    n = centroids.shape[1]
    # The screen updates its (P, K) buffers in place: at these sizes a fresh
    # temporary costs about as much as the arithmetic on it.
    norms = np.einsum("ij,ij->i", genes, genes)[:, None] + sq_norms
    d2 = genes @ centroids.T
    d2 *= -2.0
    d2 += norms
    slack = norms
    slack += _TINY
    slack *= 8 * (n + 2) * _EPS
    weights = 1.0 / (n * denoms * denoms)
    upper = d2 + slack
    upper *= weights
    lower = d2
    lower -= slack
    lower *= weights
    cut = upper.min(axis=1, keepdims=True) * _WIDEN + _TINY
    rows, cols = np.divmod(np.flatnonzero(lower <= cut), centroids.shape[0])

    diff = centroids[cols] - genes[rows]
    z = upper
    z.fill(np.inf)
    z[rows, cols] = np.sqrt((diff * diff).sum(axis=1) / n) / denoms[cols]
    idx = z.argmin(axis=1)
    return z[np.arange(idx.shape[0]), idx], idx
