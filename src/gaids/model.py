"""Labeled chromosomes built by proximity merging over training data.

A chromosome is a merged prototype: a running-mean centroid, its member
count, and a running standard deviation of member-to-centroid distances
(the distance each member had to the centroid at the moment it merged).
Training runs one label at a time, in file order within a label: a
record merges into the nearest chromosome of its own label when that
chromosome lies within the merge range, otherwise it seeds a new
chromosome. The trained model holds all chromosomes as one set of
columns, one row each, in the order the fitness kernel scans them.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kernels, parallel
from .errors import EmptyDataset, EmptyModel, ModelFormatError, ModelVersionMismatch
from .ingest import (
    CATEGORIES,
    NUM_FEATURES,
    Dataset,
    NormalizationStats,
    attack_category,
    block_values,
)

MODEL_FORMAT_TAG = "gaids-model"
MODEL_FORMAT_VERSION = "1"

# Added to every chromosome spread so single-member (spread 0) chromosomes
# still yield a finite score.
SPREAD_EPSILON = 1e-6

# Rows normalized per call: one gather of a label's whole row set would
# cost as much memory as that label's share of the dataset.
BLOCK_ROWS = 1024

# Records that share one set of distance bounds in training: at a block's
# start one `kernels.record_bounds` call brackets each record's distance to
# every chromosome of its label. Larger blocks make fewer calls but let more
# merges loosen the bounds, so more records fall back to the direct scan.
# BENCH_train_bounds.json holds the sweep that set it, made by
# scripts/bench_train_bounds.py as of commit 2b06693.
BOUND_ROWS = 64

# The largest member count a model holds: `member_counts` is int64.
_INT64_MAX = 2**63 - 1

_EPS = sys.float_info.epsilon
_SQRT_TINY = math.sqrt(sys.float_info.min)


@dataclass
class Chromosome:
    """One row of a model, as `ChromosomeModel.groups` shows it. gaids never
    calls `groups`; it stays for `perfbench/run.py` (`check_model`,
    `layer_metrics`), `perfbench/tests` and the tests."""

    centroid: np.ndarray
    member_count: int
    spread: float


@dataclass
class ChromosomeGroup:
    """All chromosomes sharing one attack name; see `Chromosome`."""

    label: str
    category: str
    chromosomes: list[Chromosome]


@dataclass(eq=False)
class ChromosomeModel:
    """The trained artifact: one row per chromosome, held as the columns the
    fitness kernel scans, plus the normalization fitted with them.

    The constructor takes rows in any label order and stores them stably
    sorted by label. That is the scan order, so the kernel's lowest-index
    tie rule prefers the alphabetically first label. What follows from
    the rows is derived here, not passed in: `category_of` maps the labels,
    in first-sight order (the order of the model file), to their
    `attack_category`; `training_size` is the sum of the member counts; and
    the kernel's per-row terms. Every array is read-only. A model without
    rows raises EmptyModel.
    """

    centroids: np.ndarray  # (K, n), C-contiguous
    member_counts: np.ndarray  # (K,)
    spreads: np.ndarray  # (K,)
    labels: list[str]  # attack label of each row
    normalization: NormalizationStats
    range_used: float
    category_of: dict[str, str] = field(init=False)  # label -> category, first-sight order
    training_size: int = field(init=False)  # member_counts.sum()
    sq_norms: np.ndarray = field(init=False)  # (centroids**2).sum(axis=1)
    denoms: np.ndarray = field(init=False)  # spreads + SPREAD_EPSILON

    def __post_init__(self):
        if not len(self.labels):
            raise EmptyModel("model holds no chromosomes")
        self.category_of = {label: attack_category(label) for label in dict.fromkeys(self.labels)}
        order = sorted(range(len(self.labels)), key=self.labels.__getitem__)
        self.labels = [self.labels[i] for i in order]
        self.centroids = np.asarray(self.centroids, dtype=np.float64)[order]
        self.member_counts = np.asarray(self.member_counts, dtype=np.int64)[order]
        self.spreads = np.asarray(self.spreads, dtype=np.float64)[order]
        self.training_size = sum(self.member_counts.tolist())  # exact: no int64 wrap
        self.sq_norms = (self.centroids * self.centroids).sum(axis=1)
        self.denoms = self.spreads + SPREAD_EPSILON
        for col in (self.centroids, self.member_counts, self.spreads, self.sq_norms, self.denoms):
            col.flags.writeable = False

    def num_chromosomes(self) -> int:
        return len(self.labels)

    def runs(self) -> list[tuple[str, str, slice]]:
        """Each label, its category and the slice of its rows, labels in file
        order; the rows of a label are one run in the order they were made."""
        return [
            (label, category, slice(bisect_left(self.labels, label), bisect_right(self.labels, label)))
            for label, category in self.category_of.items()
        ]

    @property
    def groups(self) -> list[ChromosomeGroup]:
        """The rows by label, groups in file order; each centroid is a view
        of a row of `centroids`. gaids walks `runs`; see `Chromosome`."""
        return [
            ChromosomeGroup(
                label,
                category,
                [
                    Chromosome(centroid, int(count), float(spread))
                    for centroid, count, spread in zip(
                        self.centroids[rows], self.member_counts[rows], self.spreads[rows]
                    )
                ],
            )
            for label, category, rows in self.runs()
        ]


def precalculate(
    training: Dataset,
    merge_range: float,
    stats: NormalizationStats,
    workers: int = 1,
) -> ChromosomeModel:
    """Train one label at a time: walk the label's normalized records in
    file order, merging each into the label's nearest chromosome when it
    lies within merge_range, else seeding a new chromosome. Labels never
    share a chromosome, so their passes are independent; labels keep their
    first-sight order. The pass is order-dependent and bit-reproducible for
    a fixed input order. Normalization runs on BLOCK_ROWS rows at a time.

    The labels' row lists are mapped over `workers` processes
    (`parallel.map_tasks`), as `engine.run_batch` maps its blocks. The model
    is the same for any `workers`.
    """
    if not len(training):
        raise EmptyDataset("cannot precalculate on an empty dataset")
    if not 0.0 <= merge_range < math.inf:
        raise ValueError("merge range must be a finite non-negative number")
    if None in training.attack_names:
        raise ValueError("training records must be labeled")

    rows_of: dict[str, list[int]] = {}
    for i, name in enumerate(training.attack_names):
        rows_of.setdefault(name, []).append(i)
    train = partial(_train_label, training.features, merge_range, stats)
    results = parallel.map_tasks(train, list(rows_of.values()), workers)
    centroids, counts, spreads = zip(*results)
    return ChromosomeModel(
        centroids=np.concatenate(centroids),
        member_counts=np.concatenate(counts),
        spreads=np.concatenate(spreads),
        labels=[label for label, c in zip(rows_of, counts) for _ in c],
        normalization=stats,
        range_used=merge_range,
    )


def _train_label(
    features: np.ndarray, merge_range: float, stats: NormalizationStats, rows: list[int]
) -> tuple[np.ndarray, list[int], list[float]]:
    """The centroids, member counts and spreads of one label's chromosomes,
    trained on the label's rows of the feature matrix in the order given.

    A merge moves the centroid to the running mean of its members, and the
    distance d of the record to the pre-merge centroid joins the running
    (Welford) standard deviation that becomes the spread. The centroid
    buffer doubles its capacity when full.

    The records go in blocks of BOUND_ROWS. At a block's start
    `kernels.record_bounds` brackets each record's distance to every row,
    which gives the record a candidate (the row with the lowest upper
    bound) and a lower bound on its distance to every other row. A record
    whose exact distance to its candidate is below that bound, less the
    rows' drift since the block started and a rounding margin, merges
    without a scan; any other record runs the direct scan,
    `kernels.nearest_centroid`. Both give the same row and distance bit for
    bit (kernels docstring, step 8), so the model is that of a direct scan
    of every record.
    """
    n = features.shape[1]
    block = BOUND_ROWS
    # Step 8's rounding margins.
    widen = 1.0 + (n + 8) * _EPS
    to_scaled = (1.0 - 4 * _EPS) / math.sqrt(n)
    drift_widen = 1.0 + (n + 8 + block) * _EPS
    drift_floor = _EPS + _SQRT_TINY
    new_scale = (1.0 - (n + 8) * _EPS) / n
    centroids = np.empty((8, n), dtype=np.float64)
    centroids[0] = stats.transform(features[rows[0]])  # the first record seeds
    diff = np.empty(n, dtype=np.float64)
    sq = np.empty(n, dtype=np.float64)
    counts: list[int] = [1]
    means: list[float] = [0.0]
    m2s: list[float] = [0.0]
    for start in range(1, len(rows), BLOCK_ROWS):
        xs = stats.transform(features[rows[start : start + BLOCK_ROWS]])
        for b in range(0, len(xs), block):
            records = xs[b : b + block]
            k = len(counts)
            lower, upper = kernels.record_bounds(
                records, centroids[:k], np.einsum("ij,ij->i", centroids[:k], centroids[:k])
            )
            cands = upper.argmin(axis=1)
            lower[np.arange(len(records)), cands] = np.inf
            low = lower.min(axis=1)
            low *= to_scaled
            bounds = low.tolist()
            drift = [0.0] * k  # bounds each row's movement since the block's start
            maxdrift = 0.0
            for i, (x, j) in enumerate(zip(records, cands.tolist())):
                row = centroids[j]
                np.subtract(row, x, out=diff)
                np.multiply(diff, diff, out=sq)
                d = math.sqrt(np.add.reduce(sq) / n)
                idx = j
                if bounds[i] - maxdrift <= d * widen + _SQRT_TINY:
                    idx, d = kernels.nearest_centroid(x, centroids[: len(counts)])
                    if idx != j and d <= merge_range:
                        row = centroids[idx]
                        np.subtract(row, x, out=diff)
                if d <= merge_range:
                    # row += (x - row) / c, as row -= (row - x) / c: IEEE
                    # subtraction and division are sign-symmetric
                    c = counts[idx] + 1
                    np.divide(diff, float(c), out=diff)
                    np.subtract(row, diff, out=row)
                    counts[idx] = c
                    delta = d - means[idx]
                    means[idx] += delta / c
                    m2s[idx] += delta * (d - means[idx])
                    drift[idx] += d * drift_widen / c + drift_floor
                    if drift[idx] > maxdrift:
                        maxdrift = drift[idx]
                    continue
                k = len(counts)
                if k == centroids.shape[0]:
                    centroids = np.concatenate((centroids, np.empty_like(centroids)))
                centroids[k] = x
                counts.append(1)
                means.append(0.0)
                m2s.append(0.0)
                drift.append(0.0)
                # The new row is x itself: a lower bound on each later
                # record's exact distance to it may lower that record's bound.
                rest = records[i + 1 :]
                if len(rest):
                    near = rest - x
                    near *= near
                    near = near.sum(axis=1)
                    near *= new_scale
                    np.sqrt(near, out=near)
                    near -= _SQRT_TINY
                    np.minimum(low[i + 1 :], near, out=low[i + 1 :])
                    bounds[i + 1 :] = low[i + 1 :].tolist()
    spreads = [math.sqrt(m2 / c) for m2, c in zip(m2s, counts)]
    return centroids[: len(counts)], counts, spreads


def save_model(model: ChromosomeModel, path) -> None:
    """Versioned line-oriented text: header, one line per chromosome (labels
    in first-sight order, each label's rows in the order they were made),
    then the normalization min and max rows."""
    num_features = model.normalization.feat_min.shape[0]
    lines = [
        f"{MODEL_FORMAT_TAG} {MODEL_FORMAT_VERSION} {float(model.range_used)!r} "
        f"{model.training_size} {num_features}"
    ]
    # The columns are float64 and int64, so tolist() gives Python numbers to
    # repr, without a numpy scalar per value; centroids go one row at a
    # time, as a whole label's floats would add to the peak.
    counts, spreads = model.member_counts.tolist(), model.spreads.tolist()
    for label, category, rows in model.runs():
        for i in range(rows.start, rows.stop):
            values = map(repr, model.centroids[i].tolist())
            lines.append(" ".join([label, category, str(counts[i]), repr(spreads[i]), *values]))
    for row in (model.normalization.feat_min, model.normalization.feat_max):
        lines.append(" ".join(map(repr, row.tolist())))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ChromosomeModel:
    """Read a model file; rejects unknown format tags/versions and values a
    trained model cannot hold (a merge range that is not finite and
    non-negative, unknown category, a category other than the one ingest
    gives the label, member count below 1 or past int64, negative or
    non-finite spread, non-finite value, centroid value outside [0,1], a
    feature minimum above its maximum or so far below it that the span
    overflows, a feature count other than NUM_FEATURES, non-ASCII bytes, no
    chromosome rows).

    Each number is read once: the two normalization rows by `_row_values`,
    then each chromosome row's spread and centroid, after its label,
    category and count are split off, by `ingest.block_values` with the
    float() reference `_chromosome_values`. The chromosome rows are checked
    once, in file order, so a file with several bad rows raises its first
    bad row's error. A row's checks run in this order: its token count, its
    spread and centroid as float() reads them, its count, its category, the
    range of its count and spread, and the category ingest gives its label.
    Centroid values that are not finite or lie outside [0,1] are checked
    after every row."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            # Each line is split once, into its first three tokens and the
            # text after them; the file's text is not held twice.
            rows = [ln.split(None, 3) for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not an ASCII file: {exc}") from None
    if not rows:
        raise ModelFormatError("empty model file")
    header = " ".join(rows[0]).split()
    if len(header) != 5 or header[0] != MODEL_FORMAT_TAG:
        raise ModelVersionMismatch(f"not a {MODEL_FORMAT_TAG} file")
    if header[1] != MODEL_FORMAT_VERSION:
        raise ModelVersionMismatch(f"unsupported model version {header[1]!r}")
    try:
        range_used = float(header[2])
        training_size = int(header[3])
        num_features = int(header[4])
    except ValueError as exc:
        raise ModelFormatError(f"bad header: {exc}") from None
    if not 0.0 <= range_used < math.inf:
        raise ModelFormatError(f"merge range {range_used!r} is not finite and non-negative")
    if num_features != NUM_FEATURES:
        raise ModelFormatError(
            f"model has {num_features} features per row, records have {NUM_FEATURES}"
        )
    if len(rows) < 3:
        raise ModelFormatError("missing normalization rows")

    norm = np.array([_row_values(" ".join(row)) for row in rows[-2:]])
    if not np.isfinite(norm).all():
        raise ModelFormatError("non-finite value in a model row")
    normalization = NormalizationStats(feat_min=norm[0], feat_max=norm[1])
    bad = normalization.invalid_features()
    if bad.size:
        raise ModelFormatError(
            f"feature minimum exceeds maximum, or the span overflows, in column {int(bad[0])}"
        )

    # A row's last part is the text after its count; a row of fewer than
    # four tokens sends its last token, and the loop below rejects the row.
    heads = rows[1:-2]
    values, errors = block_values(
        [head[-1] for head in heads], 1 + NUM_FEATURES, None, None, _chromosome_values
    )
    failed = dict(errors)
    labels: list[str] = []
    counts: list[int] = []
    for i, (head, spread) in enumerate(zip(heads, values[:, 0].tolist())):
        if len(head) != 4:
            raise ModelFormatError(f"expected {4 + NUM_FEATURES} tokens per chromosome row, got {len(head)}")
        if i in failed:
            raise ModelFormatError(failed[i])
        label, category, count, _ = head
        try:
            count = int(count)
        except ValueError as exc:
            raise ModelFormatError(f"bad chromosome row: {exc}") from None
        if category not in CATEGORIES:
            raise ModelFormatError(f"unknown category {category!r}")
        if count < 1:
            raise ModelFormatError(f"member count {count} is below 1")
        if count > _INT64_MAX:
            raise ModelFormatError(f"member count {count} does not fit in 64 bits")
        if not 0.0 <= spread < math.inf:
            raise ModelFormatError(f"spread {spread!r} is not a finite non-negative number")
        expected = attack_category(label)
        if category != expected:
            raise ModelFormatError(
                f"label {label!r} is listed under {category!r}; training gives it {expected!r}"
            )
        labels.append(label)
        counts.append(count)
    spreads, centroids = values[:, 0], values[:, 1:]
    if not np.isfinite(centroids).all():
        raise ModelFormatError("non-finite value in a model row")
    if ((centroids < 0.0) | (centroids > 1.0)).any():
        raise ModelFormatError("model row value outside [0,1]")

    # The model's training_size is this sum; checked first, because a file
    # without rows should fail on the header, not on the empty model.
    if sum(counts) != training_size:
        raise ModelFormatError(
            f"member counts sum to {sum(counts)}, header says {training_size}"
        )
    return ChromosomeModel(
        centroids=centroids,
        member_counts=counts,
        spreads=spreads,
        labels=labels,
        normalization=normalization,
        range_used=range_used,
    )


def _row_values(line: str) -> list[float]:
    """The NUM_FEATURES values of a normalization row or of a centroid by
    float(), one token at a time. A row of another length, or a token
    float() rejects, raises ModelFormatError."""
    tokens = line.split()
    if len(tokens) != NUM_FEATURES:
        raise ModelFormatError(f"expected {NUM_FEATURES} values per row, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ModelFormatError(f"bad value: {exc}") from None


def _chromosome_values(rest: str) -> list[float]:
    """The spread and centroid of a chromosome row, from the text after its
    count: the reference `block_values` reads the rows with. The row's
    token count is checked first, then its spread, then `_row_values`."""
    tokens = rest.split()
    if len(tokens) != 1 + NUM_FEATURES:
        raise ModelFormatError(
            f"expected {4 + NUM_FEATURES} tokens per chromosome row, got {3 + len(tokens)}"
        )
    spread, centroid = rest.split(None, 1)
    try:
        return [float(spread), *_row_values(centroid)]
    except ValueError as exc:
        raise ModelFormatError(f"bad chromosome row: {exc}") from None
