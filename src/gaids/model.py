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
from dataclasses import dataclass, field

import numpy as np

from . import kernels, parallel
from .errors import EmptyDataset, EmptyModel, ModelFormatError, ModelVersionMismatch
from .ingest import CATEGORIES, NUM_FEATURES, Dataset, NormalizationStats

MODEL_FORMAT_TAG = "gaids-model"
MODEL_FORMAT_VERSION = "1"

# Added to every chromosome spread so single-member (spread 0) chromosomes
# still yield a finite score.
SPREAD_EPSILON = 1e-6

# Rows normalized per call: one gather of a label's whole row set would
# cost as much memory as that label's share of the dataset.
BLOCK_ROWS = 1024


@dataclass
class Chromosome:
    """One row of a model, as `ChromosomeModel.groups` shows it."""

    centroid: np.ndarray
    member_count: int
    spread: float


@dataclass
class ChromosomeGroup:
    """All chromosomes sharing one fine-grained attack name."""

    label: str
    category: str
    chromosomes: list[Chromosome]


@dataclass(eq=False)
class ChromosomeModel:
    """The trained artifact: one row per chromosome, held as the columns the
    fitness kernel scans, plus the normalization fitted with them.

    The constructor takes rows in any label order and stores them stably
    sorted by label. That is the scan order, so the kernel's lowest-index
    tie rule prefers the alphabetically first label. `category_of` keeps
    the labels in first-sight order, which is the order of the model file.
    The kernel's per-row terms are computed once here, and every array is
    read-only. A model without rows raises EmptyModel.
    """

    centroids: np.ndarray  # (K, n), C-contiguous
    member_counts: np.ndarray  # (K,)
    spreads: np.ndarray  # (K,)
    labels: list[str]  # attack label of each row
    category_of: dict[str, str]  # label -> category, first-sight order
    normalization: NormalizationStats
    range_used: float
    training_size: int
    sq_norms: np.ndarray = field(init=False)  # (centroids**2).sum(axis=1)
    denoms: np.ndarray = field(init=False)  # spreads + SPREAD_EPSILON

    def __post_init__(self):
        if not len(self.labels):
            raise EmptyModel("model holds no chromosomes")
        order = sorted(range(len(self.labels)), key=self.labels.__getitem__)
        self.labels = [self.labels[i] for i in order]
        self.centroids = np.asarray(self.centroids, dtype=np.float64)[order]
        self.member_counts = np.asarray(self.member_counts, dtype=np.int64)[order]
        self.spreads = np.asarray(self.spreads, dtype=np.float64)[order]
        self.sq_norms = (self.centroids * self.centroids).sum(axis=1)
        self.denoms = self.spreads + SPREAD_EPSILON
        for col in (self.centroids, self.member_counts, self.spreads, self.sq_norms, self.denoms):
            col.flags.writeable = False

    def num_chromosomes(self) -> int:
        return len(self.labels)

    @property
    def groups(self) -> list[ChromosomeGroup]:
        """The rows by label, groups in file order; each centroid is a view
        of a row of `centroids`."""
        rows: dict[str, list[Chromosome]] = {label: [] for label in self.category_of}
        for label, centroid, count, spread in zip(
            self.labels, self.centroids, self.member_counts, self.spreads
        ):
            rows[label].append(Chromosome(centroid, int(count), float(spread)))
        return [
            ChromosomeGroup(label, category, rows[label])
            for label, category in self.category_of.items()
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

    Up to `workers` processes train labels at once, this one and forked
    children (`parallel`). Labels are split by row count, largest first, so
    the longest pass starts first and shares end close together. The model
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
    labels = sorted(rows_of, key=lambda label: -len(rows_of[label]))
    # Children save at most the passes over the labels outside the largest:
    # one process per BLOCK_ROWS of those rows. Forking a child and reaping
    # it costs about 5 ms on a 2-vCPU VM, as much as training 80-550 rows
    # (9-65 us a row); the cap was set when a process pool cost about 35 ms
    # to import and start, and a lower one is unmeasured.
    rest = len(training) - len(rows_of[labels[0]])
    processes = min(parallel.process_count(workers, len(labels)), max(1, rest // BLOCK_ROWS))
    state = (training.features, merge_range, stats)
    tasks = [rows_of[label] for label in labels]
    results = parallel.map_tasks(_train_label, tasks, state, processes, [len(rows) for rows in tasks])
    trained = dict(zip(labels, results))
    centroids, counts, spreads = zip(*(trained[label] for label in rows_of))
    return ChromosomeModel(
        centroids=np.concatenate(centroids),
        member_counts=np.concatenate(counts),
        spreads=np.concatenate(spreads),
        labels=[label for label, c in zip(rows_of, counts) for _ in c],
        category_of={label: training.categories[rows[0]] for label, rows in rows_of.items()},
        normalization=stats,
        range_used=merge_range,
        training_size=len(training),
    )


def _train_label(
    state: tuple[np.ndarray, float, NormalizationStats], rows: list[int]
) -> tuple[np.ndarray, list[int], list[float]]:
    """The centroids, member counts and spreads of one label's chromosomes,
    trained on the label's rows of the feature matrix in the order given;
    state is (features, merge_range, stats).

    A merge moves the centroid to the running mean of its members, and the
    distance d of the record to the pre-merge centroid joins the running
    (Welford) standard deviation that becomes the spread. The centroid
    buffer doubles its capacity when full.
    """
    features, merge_range, stats = state
    centroids = np.empty((8, features.shape[1]), dtype=np.float64)
    step = np.empty(features.shape[1], dtype=np.float64)
    counts: list[int] = []
    means: list[float] = []
    m2s: list[float] = []
    for start in range(0, len(rows), BLOCK_ROWS):
        for x in stats.transform(features[rows[start : start + BLOCK_ROWS]]):
            k = len(counts)
            if k:
                idx, d = kernels.nearest_centroid(x, centroids[:k])
                if d <= merge_range:
                    n = counts[idx] + 1
                    row = centroids[idx]
                    # row += (x - row) / n, through one reused buffer
                    np.subtract(x, row, out=step)
                    step /= n
                    row += step
                    counts[idx] = n
                    delta = d - means[idx]
                    means[idx] += delta / n
                    m2s[idx] += delta * (d - means[idx])
                    continue
            if k == centroids.shape[0]:
                centroids = np.concatenate((centroids, np.empty_like(centroids)))
            centroids[k] = x
            counts.append(1)
            means.append(0.0)
            m2s.append(0.0)
    spreads = [math.sqrt(m2 / n) for m2, n in zip(m2s, counts)]
    return centroids[: len(counts)], counts, spreads


def _fmt(v: float) -> str:
    return repr(float(v))


def save_model(model: ChromosomeModel, path) -> None:
    """Versioned line-oriented text: header, one line per chromosome (labels
    in first-sight order, each label's rows in the order they were made),
    then the normalization min and max rows."""
    num_features = model.normalization.feat_min.shape[0]
    lines = [
        f"{MODEL_FORMAT_TAG} {MODEL_FORMAT_VERSION} {_fmt(model.range_used)} "
        f"{model.training_size} {num_features}"
    ]
    for group in model.groups:
        for c in group.chromosomes:
            head = [group.label, group.category, str(c.member_count), _fmt(c.spread)]
            lines.append(" ".join(head + [_fmt(v) for v in c.centroid]))
    lines.append(" ".join(_fmt(v) for v in model.normalization.feat_min))
    lines.append(" ".join(_fmt(v) for v in model.normalization.feat_max))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ChromosomeModel:
    """Read a model file; rejects unknown format tags/versions and values a
    trained model cannot hold (a merge range that is not finite and
    non-negative, unknown category, one label under two categories, member
    count below 1, negative or non-finite spread, non-finite value,
    centroid value outside [0,1], a feature minimum above its maximum or
    so far below it that the span overflows, a feature count other than
    NUM_FEATURES, non-ASCII bytes, no chromosome rows)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not an ASCII file: {exc}") from None
    if not lines:
        raise ModelFormatError("empty model file")
    header = lines[0].split()
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
    if len(lines) < 3:
        raise ModelFormatError("missing normalization rows")

    def parse_values(tokens):
        if len(tokens) != num_features:
            raise ModelFormatError(
                f"expected {num_features} values per row, got {len(tokens)}"
            )
        try:
            return [float(t) for t in tokens]
        except ValueError as exc:
            raise ModelFormatError(f"bad value: {exc}") from None

    def check_values(values, low=-math.inf, high=math.inf):
        if not np.isfinite(values).all():
            raise ModelFormatError("non-finite value in a model row")
        if (values < low).any() or (values > high).any():
            raise ModelFormatError(f"model row value outside [{low:g},{high:g}]")
        return values

    feat_min, feat_max = check_values(
        np.array([parse_values(lines[-2].split()), parse_values(lines[-1].split())])
    )
    normalization = NormalizationStats(feat_min=feat_min, feat_max=feat_max)
    bad = normalization.invalid_features()
    if bad.size:
        raise ModelFormatError(
            f"feature minimum exceeds maximum, or the span overflows, in column {int(bad[0])}"
        )

    # Centroid values go into one matrix, checked in one pass after the
    # loop; rows are still split one at a time, because holding every token
    # of a large model at once costs more memory than the model itself.
    body = lines[1:-2]
    centroids = np.empty((len(body), num_features), dtype=np.float64)
    labels: list[str] = []
    counts: list[int] = []
    spreads: list[float] = []
    category_of: dict[str, str] = {}
    for row, ln in enumerate(body):
        tokens = ln.split()
        if len(tokens) != 4 + num_features:
            raise ModelFormatError(
                f"expected {4 + num_features} tokens per chromosome row, got {len(tokens)}"
            )
        label, category = tokens[0], tokens[1]
        try:
            count = int(tokens[2])
            spread = float(tokens[3])
        except ValueError as exc:
            raise ModelFormatError(f"bad chromosome row: {exc}") from None
        if category not in CATEGORIES:
            raise ModelFormatError(f"unknown category {category!r}")
        if count < 1:
            raise ModelFormatError(f"member count {count} is below 1")
        if not 0.0 <= spread < math.inf:
            raise ModelFormatError(f"spread {spread!r} is not a finite non-negative number")
        if category_of.setdefault(label, category) != category:
            raise ModelFormatError(
                f"label {label!r} is listed under {category_of[label]!r} and {category!r}"
            )
        centroids[row] = parse_values(tokens[4:])
        labels.append(label)
        counts.append(count)
        spreads.append(spread)
    check_values(centroids, 0.0, 1.0)

    if sum(counts) != training_size:
        raise ModelFormatError(
            f"member counts sum to {sum(counts)}, header says {training_size}"
        )
    return ChromosomeModel(
        centroids=centroids,
        member_counts=counts,
        spreads=spreads,
        labels=labels,
        category_of=category_of,
        normalization=normalization,
        range_used=range_used,
        training_size=training_size,
    )
