"""Labeled chromosomes built by proximity merging over training data.

A chromosome is a merged prototype: a running-mean centroid, its member
count, and a running standard deviation of member-to-centroid distances
(the distance each member had to the centroid at the moment it merged).
Training walks the records once: a record merges into the nearest
chromosome of its own label group when that chromosome lies within the
merge range, otherwise it seeds a new chromosome. The trained model holds
all chromosomes as one set of columns, one row each, in the order the
fitness kernel scans them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import EmptyDataset, EmptyModel, ModelFormatError, ModelVersionMismatch
from .ingest import BLOCK_ROWS, CATEGORIES, NUM_FEATURES, Dataset, NormalizationStats

MODEL_FORMAT_TAG = "gaids-model"
MODEL_FORMAT_VERSION = "1"

# Added to every chromosome spread so single-member (spread 0) chromosomes
# still yield a finite score.
SPREAD_EPSILON = 1e-6


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


class _GroupBuilder:
    """Capacity-doubling store for one group during precalculation."""

    def __init__(self, label: str, category: str, num_features: int):
        self.label = label
        self.category = category
        self.centroids = np.empty((8, num_features), dtype=np.float64)
        self.counts: list[int] = []
        self.means: list[float] = []
        self.m2s: list[float] = []
        self.size = 0

    def view(self) -> np.ndarray:
        return self.centroids[: self.size]

    def add(self, x: np.ndarray) -> None:
        if self.size == self.centroids.shape[0]:
            grown = np.empty((self.size * 2, self.centroids.shape[1]), dtype=np.float64)
            grown[: self.size] = self.centroids
            self.centroids = grown
        self.centroids[self.size] = x
        self.counts.append(1)
        self.means.append(0.0)
        self.m2s.append(0.0)
        self.size += 1

    def merge(self, idx: int, x: np.ndarray, d: float) -> None:
        """Fold x into chromosome idx: the centroid moves to the running mean
        and d (x's distance to the pre-merge centroid) joins the running
        (Welford) standard deviation that becomes the spread."""
        n = self.counts[idx] + 1
        row = self.centroids[idx]
        row += (x - row) / n
        self.counts[idx] = n
        delta = d - self.means[idx]
        self.means[idx] += delta / n
        self.m2s[idx] += delta * (d - self.means[idx])


def precalculate(
    training: Dataset,
    merge_range: float,
    stats: NormalizationStats,
) -> ChromosomeModel:
    """Single training pass: merge each normalized record into the nearest
    chromosome of its own label group when within merge_range, else seed a
    new chromosome. Labels keep their first-sight order; the pass is
    order-dependent and bit-reproducible for a fixed input order.
    Normalization runs on BLOCK_ROWS rows at a time.
    """
    if not len(training):
        raise EmptyDataset("cannot precalculate on an empty dataset")
    if not 0.0 <= merge_range < math.inf:
        raise ValueError("merge range must be a finite non-negative number")
    if None in training.attack_names:
        raise ValueError("training records must be labeled")

    builders: dict[str, _GroupBuilder] = {}
    for start in range(0, len(training), BLOCK_ROWS):
        end = start + BLOCK_ROWS
        block = stats.transform(training.features[start:end])
        names = training.attack_names[start:end]
        categories = training.categories[start:end]
        for x, name, category in zip(block, names, categories):
            builder = builders.get(name)
            if builder is None:
                builder = builders[name] = _GroupBuilder(name, category, x.shape[0])
                builder.add(x)
                continue
            idx, d = kernels.nearest_centroid(x, builder.view())
            if d <= merge_range:
                builder.merge(idx, x, d)
            else:
                builder.add(x)

    done = builders.values()
    return ChromosomeModel(
        centroids=np.concatenate([b.view() for b in done]),
        member_counts=[n for b in done for n in b.counts],
        spreads=[math.sqrt(m2 / n) for b in done for m2, n in zip(b.m2s, b.counts)],
        labels=[b.label for b in done for _ in range(b.size)],
        category_of={b.label: b.category for b in done},
        normalization=stats,
        range_used=merge_range,
        training_size=len(training),
    )


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
