"""Hot distance kernels (numpy): the nearest-centroid scan and the
spread-normalized population fitness scan, both over the dimension-
normalized Euclidean distance sqrt(sum((a-b)^2)/n).

Both are deterministic; ties resolve to the lowest index (np.argmin).

`batch_fitness` scores a whole population of P rows against all K
chromosomes in one screen-and-verify pass instead of one full scan per row.
Write d2 for a squared distance, s = ||g||^2 + ||c||^2 and eps for the
float64 machine epsilon.

1. Screen: all K*P squared distances come from one matmul,
   d2 ~ s - 2 c.g, laid out (K, P), a row per chromosome, so that the
   reductions over the chromosomes in steps 2 to 4 run along the long
   axis of P rows. This is fast, but it cancels when g is near c, so it
   only brackets the true value.
2. Bound: the rounding error of that expression, in any summation order,
   plus the gap between the true d2 and the float the exact expression of
   step 3 sums is below 4 (n+2) eps s; the slack 8 (n+2) eps (s + tiny)
   doubles that, and `tiny` (the smallest normal float) covers the
   absolute error of gradual underflow. So d2 - slack <= exact d2 <=
   d2 + slack. Multiplied by the chromosome's weight 1 / (n (spread+eps)^2)
   (`fitness_weights`, which a caller computes once for the columns it
   scans), these give a lower and an upper value that bracket the square
   of each exact score to within about 10 eps relative. The cut of a row
   is its smallest upper value widened by 64 eps, plus tiny. A pair is a
   candidate when its lower value is at or below the cut; the winning pair
   and every pair tied with it always are (and usually they are the only
   ones). So is the pair that sets the cut, as its lower value is at most
   its upper one: every row has a candidate.
3. Rescore: the candidate pairs are scored with the exact expression
   sqrt(((c - g)**2).sum(axis=1) / n) / (spread + eps). When there are P
   of them, each row has exactly one, its winner: the kernel gathers each
   row's chromosome (one take) and scores the (P, n) rows. Otherwise the
   candidate pairs are gathered as (M, n) rows. A sum along the last axis
   of a C-contiguous array adds each row in the same order however many
   rows there are, so these are the same floats a per-row scan returns.
4. Pick: a row's one candidate is its minimum. Otherwise the exact scores
   go into an inf-filled (K, P) array, and argmin down each column keeps
   the lowest-index tie rule.

Values and indices are therefore bit-identical to a per-row scan; only the
amount of work changes.

The engine's populations are small perturbations of their records, so it
passes `batch_fitness` only the chromosomes that can win for some row
(after Elkan's and Hamerly's triangle-inequality bounds for k-means).
Write d for the unscaled distance sqrt(sum((a-b)^2)), u = eps / 2 and
score = d / (sqrt(n) denom), denom = spread + 1e-6 per chromosome.

5. Bracket (`record_bounds`, once per block of records): the step-1
   matmul on the (R, n) records gives d2 and the step-2 slack, and
   lo = sqrt(d2 - slack), hi = sqrt(d2 + slack) (lo is 0 where d2 - slack
   is not positive). The slack is twice the gap step 2 bounds, and the
   spare half, at least 8 (n+2) u s, covers the roundings of d2 -+ slack
   and of the square roots (below 9 u s, as d2 <= 2 s), so
   lo <= d(x, c) <= hi for the true distance.
6. Reach (`reach`): delta is the largest d(g, x) over a record's rows, a
   float sum of squares, then raised by the factor 1 + (n+8) eps and by
   2 sqrt(tiny). In any order, such a sum of n non-negative terms is
   within (n+2) u relative of the true square plus tiny absolute, so delta
   exceeds every row's true d(g, x) by at least sqrt(tiny). By the
   triangle inequality every row g of the record then has
   lo - delta <= d(g, c) - sqrt(tiny) and d(g, c) + sqrt(tiny) <= hi + delta
   for every chromosome c. Any larger delta keeps both inequalities.
   The engine holds a delta per record for a whole block: generation 0's
   reach, raised to a later generation's reach wherever that is larger. The
   held delta is then at least the reach of every row the record scores.
7. Prune (`candidate_columns`): per record, low = (lo - delta) / denom and
   high = (hi + delta) / denom (each within 2 u relative of its real
   value), and
   cut = min(high) (1 + (n+16) eps) + tiny. The exact score of step 3 is
   within (n+8) u / 2 relative of the true score (the sum's (n+2) u,
   halved by the square root, plus three roundings) and sqrt(tiny) / denom
   absolute, which the reach already absorbs. So for a chromosome with
   low > cut and every row of the record, its exact score exceeds the
   exact score of the chromosome that set the cut by a factor of at least
   (1 + (n+16) eps) / (1 + (n+14) u) > 1: it is strictly above the row's
   winner, so it neither wins nor ties. A chromosome is kept when some
   record of the block keeps it. The kept columns go to `batch_fitness`
   in ascending order: each row's minimum and every chromosome tied with
   it are among them, so argmin over the kept columns, mapped back, is
   the lowest-index minimum over all of them, the same floats and index.
   - Superset: float addition, subtraction, division by a positive denom,
     multiplication by a positive factor and min are monotone under
     round-to-nearest, so a larger delta gives each chromosome a lower or
     equal low and the record a higher or equal cut: it keeps a superset,
     and any ascending superset of the kept columns gives the same floats
     and index. The block's set is the union of its records' sets, so
     raising the held delta of some records and adding the columns those
     records keep gives the set of the whole held delta.
   - Carried rows: a row that neither crossover nor mutation touched holds
     the bits it was scored with, and its score depends on its own genes
     alone (steps 3 and 4), so the fitness and index it carries are what a
     rescore over the current kept set would return.

Training (`model._train_label`) settles most records' nearest chromosome
from step 5 as well, with Elkan's and Hamerly's bounds and no scan. Its
rows are normalized records and their running means, so every coordinate
lies in [0, 1]. Here d is the kernels' distance sqrt(sum((a-b)^2) / n),
eta = 2^-1075 bounds the absolute error of one underflowing rounding, and
a true distance is that of the exact real numbers the floats hold.

8. Settle (once per block of B records against a label's k rows): step 5
   gives lo and hi for each record and row. The record's candidate c is
   the row with the lowest hi, and lb2 is the smallest lo over the other
   rows times (1 - 4 eps) / sqrt(n): that rounds to below each other row's
   true distance d as the block starts.
   - Accept: the direct scan computes d2_j = sum(fl(c_j - x)^2) for every
     row j. In any order that float is within (n+3) u relative of the true
     squared distance, plus n eta absolute. The record computes d2_c with
     the same subtract, square and row sum (a sum along the last axis of a
     C-contiguous array adds a row in the same order however many rows
     there are), so d = sqrt(d2_c / n) is the scan's float for c. It
     accepts c when lb2 - maxdrift > d (1 + (n+8) eps) + sqrt(tiny). By the
     triangle inequality every other row j is at true distance at least
     lb2 - drift_j >= lb2 - maxdrift, and the margin covers both
     (n+3) u errors, the roundings of d and of the test (under 8 u) and,
     through sqrt(tiny), the underflow (at most 4 sqrt(eta)). So the
     scan's d2_j > d2_c for every j other than c: the scan picks c
     whatever its tie rule, with the same float. Every other record runs
     the scan itself, so the model is bit-identical to scanning them all.
   - Drift: a merge into row c_j with new count m >= 2 sets
     c_j <- fl(c_j - q), q = fl(fl(c_j - x) / m). The same error terms put
     the true |q| below d (1 + (n+13) u / 2) / m + 3 sqrt(eta) (scaled by
     1 / sqrt(n), as every distance here). The subtraction rounds each
     coordinate by at most u |c_j - q|, and c_j - q is a convex combination
     of c_j and x (the weight of x is at most (1+u)^2 / m < 1), so it lies
     in [0, 1] and the rounding moves the row by at most u more. So
     drift_j grows by d (1 + (n+8+B) eps) / m + eps + sqrt(tiny) per
     merge, which stays an upper bound on the row's true movement since
     the block started, as B eps covers the rounding of a float sum of at
     most B increments.
   - New rows: a row made inside the block is its record x_r itself, which
     step 5 never saw. Each later record s of the block lowers its lb2 to
     sqrt(d2_s (1 - (n+8) eps) / n) - sqrt(tiny), if that is lower, where
     d2_s is the row sum of fl(x_s - x_r)^2. The same (n+3) u and underflow
     bounds put that below the true distance from x_s to the new row, so
     lb2 stays a lower bound on the distance to every row but the
     candidate, and the new row's drift counts from 0. If the new row is
     the nearer, lb2 falls below d and the record runs the scan.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# Widens the cut past the ~20 eps by which a lower and an upper squared
# score of two equal exact scores can disagree.
_WIDEN = 1.0 + 64 * _EPS
_SQRT_TINY = math.sqrt(_TINY)


def nearest_centroid(x: np.ndarray, centroids: np.ndarray) -> tuple[int, float]:
    """Index and distance of the row of `centroids` (C-contiguous) nearest to
    `x`; ties resolve to the lowest index."""
    # Squaring in place keeps one (k, n) temporary per call: two of them
    # can cross glibc's mmap threshold, and then the page faults depend on
    # the heap layout rather than the work.
    diff = centroids - x
    diff *= diff
    d2 = diff.sum(axis=1)
    idx = int(d2.argmin())
    return idx, math.sqrt(d2.item(idx) / centroids.shape[1])


def _screen(
    a: np.ndarray, b: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1 and 2: the (A, B) matmul squared distances between the rows
    of a and of b, whose squared norms are sq_a and sq_b, and their slack."""
    # The screen updates its (A, B) buffers in place: at these sizes a fresh
    # temporary costs about as much as the arithmetic on it.
    norms = sq_a[:, None] + sq_b
    d2 = a @ b.T
    d2 *= -2.0
    d2 += norms
    slack = norms
    slack += _TINY
    slack *= 8 * (a.shape[1] + 2) * _EPS
    return d2, slack


def record_bounds(
    x: np.ndarray, centroids: np.ndarray, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(R, K) lower and upper bounds on the distance sqrt(sum((x-c)^2)) from
    each record of x (R, n) to each row of `centroids` (step 5)."""
    d2, slack = _screen(x, centroids, np.einsum("ij,ij->i", x, x), sq_norms)
    upper = np.sqrt(d2 + slack)
    lower = d2
    lower -= slack
    np.maximum(lower, 0.0, out=lower)
    np.sqrt(lower, out=lower)
    return lower, upper


def reach(genes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(R, 1) raised reach delta of each record of x (R, n): the largest
    distance from the record to a row of its (R, S, n) population (step 6)."""
    diff = genes - x[:, None, :]
    delta = np.sqrt(np.einsum("rsn,rsn->rs", diff, diff).max(axis=1, keepdims=True))
    delta *= 1.0 + (x.shape[1] + 8) * _EPS
    delta += 2 * _SQRT_TINY
    return delta


def candidate_columns(
    delta: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    denoms: np.ndarray,
    n: int,
) -> np.ndarray:
    """Ascending indices of the chromosomes that can win or tie for some row
    of n features within the reach delta (R, 1) of its record, whose
    distance bounds `record_bounds` gave as lower and upper (step 7). A
    larger delta keeps a superset."""
    high = upper + delta
    high /= denoms
    cut = high.min(axis=1, keepdims=True)
    cut *= 1.0 + (n + 16) * _EPS
    cut += _TINY
    low = np.subtract(lower, delta, out=high)
    low /= denoms
    return np.nonzero((low <= cut).any(axis=0))[0]


def fitness_weights(denoms: np.ndarray, n: int) -> np.ndarray:
    """1 / (n denom^2) per chromosome: what turns a squared distance of n
    features into a squared score (step 2)."""
    # A huge spread overflows the product to inf and its weight to 0, which
    # keeps every pair of that column a candidate for the exact rescore.
    with np.errstate(over="ignore"):
        return 1.0 / (n * denoms * denoms)


def batch_fitness(
    genes: np.ndarray,
    centroids: np.ndarray,
    sq_norms: np.ndarray,
    denoms: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Spread-normalized nearest scan for a population.

    For each row g of `genes` (P, n), minimizes
    distance(g, centroids[k]) / denoms[k] over all k, where `centroids` is
    C-contiguous (K, n), `sq_norms` is (centroids**2).sum(axis=1), `denoms`
    is spread + eps and `weights` is `fitness_weights(denoms, n)` per
    chromosome. Returns (min values, argmin indices), ties to the lowest
    index, equal bit for bit to a per-row scan.
    """
    n = centroids.shape[1]
    d2, slack = _screen(centroids, genes, sq_norms, np.einsum("ij,ij->i", genes, genes))
    weights = weights[:, None]
    upper = d2 + slack
    upper *= weights
    lower = d2
    lower -= slack
    lower *= weights
    cut = upper.min(axis=0)
    cut *= _WIDEN
    cut += _TINY
    candidate = lower <= cut
    if np.count_nonzero(candidate) == genes.shape[0]:
        # Every row has a candidate (step 2), so each has exactly one, its
        # winner.
        idx = candidate.argmax(axis=0)
        diff = centroids.take(idx, axis=0)
        diff -= genes
        diff *= diff
        return np.sqrt(diff.sum(axis=1) / n) / denoms.take(idx), idx
    cols, rows = np.nonzero(candidate)
    diff = centroids[cols]
    diff -= genes[rows]
    diff *= diff
    z = upper
    z.fill(np.inf)
    z[cols, rows] = np.sqrt(diff.sum(axis=1) / n) / denoms[cols]
    idx = z.argmin(axis=0)
    return z[idx, np.arange(idx.shape[0])], idx
