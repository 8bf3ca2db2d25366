"""Labeled chromosome groups built by proximity merging over training data.

A chromosome is a merged prototype: a running-mean centroid, its member
count, and a running standard deviation of member-to-centroid distances
(the distance each member had to the centroid at the moment it merged).
Training walks the records once: a record merges into the nearest
chromosome of its own label group when that chromosome lies within the
merge range, otherwise it seeds a new chromosome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    EmptyDataset,
    EmptyModel,
    ModelFormatError,
    ModelVersionMismatch,
)
from .ingest import BLOCK_ROWS, CATEGORIES, NUM_FEATURES, Dataset, NormalizationStats

MODEL_FORMAT_TAG = "gaids-model"
MODEL_FORMAT_VERSION = "1"

# Added to every chromosome spread so single-member (spread 0) chromosomes
# still yield a finite score.
SPREAD_EPSILON = 1e-6


@dataclass
class Chromosome:
    """A merged prototype: centroid, member count, spread."""

    centroid: np.ndarray
    member_count: int = 1
    spread: float = 0.0


@dataclass
class ChromosomeGroup:
    """All chromosomes sharing one fine-grained attack name."""

    label: str
    category: str
    chromosomes: list[Chromosome]


@dataclass
class _FlatModel:
    """Scan-ready view: chromosomes ordered by (label, insertion order),
    with the per-chromosome terms of the fitness kernel computed once."""

    centroids: np.ndarray
    sq_norms: np.ndarray  # (centroids**2).sum(axis=1)
    denoms: np.ndarray  # spread + SPREAD_EPSILON
    labels: list[str]
    category_of: dict[str, str]


@dataclass
class ChromosomeModel:
    """The trained artifact: groups plus the normalization fitted with them."""

    groups: list[ChromosomeGroup]
    normalization: NormalizationStats
    range_used: float
    training_size: int
    _flat: _FlatModel | None = field(default=None, repr=False, compare=False)

    def num_chromosomes(self) -> int:
        return sum(len(g.chromosomes) for g in self.groups)

    def flatten(self) -> _FlatModel:
        """Build (and cache) the flattened scan view. The model must not be
        mutated afterwards."""
        if self._flat is None:
            groups = sorted(self.groups, key=lambda g: g.label)
            chroms = [c for g in groups for c in g.chromosomes]
            if not chroms:
                raise EmptyModel("model holds no chromosomes")
            centroids = np.ascontiguousarray(
                np.stack([c.centroid for c in chroms]), dtype=np.float64
            )
            spreads = np.array([c.spread for c in chroms], dtype=np.float64)
            self._flat = _FlatModel(
                centroids=centroids,
                sq_norms=(centroids * centroids).sum(axis=1),
                denoms=spreads + SPREAD_EPSILON,
                labels=[g.label for g in groups for _ in g.chromosomes],
                category_of={g.label: g.category for g in groups},
            )
        return self._flat

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_flat"] = None
        return state


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

    def freeze(self) -> ChromosomeGroup:
        chroms = [
            Chromosome(
                centroid=self.centroids[i].copy(),
                member_count=self.counts[i],
                spread=math.sqrt(self.m2s[i] / self.counts[i]),
            )
            for i in range(self.size)
        ]
        return ChromosomeGroup(label=self.label, category=self.category, chromosomes=chroms)


def precalculate(
    training: Dataset,
    merge_range: float,
    stats: NormalizationStats,
) -> ChromosomeModel:
    """Single training pass: merge each normalized record into the nearest
    chromosome of its own label group when within merge_range, else seed a
    new chromosome. Groups appear in first-sight label order; the pass is
    order-dependent and bit-reproducible for a fixed input order.
    Normalization runs on BLOCK_ROWS rows at a time.
    """
    if not len(training):
        raise EmptyDataset("cannot precalculate on an empty dataset")
    if merge_range < 0:
        raise ValueError("merge range must be non-negative")
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

    return ChromosomeModel(
        groups=[builder.freeze() for builder in builders.values()],
        normalization=stats,
        range_used=merge_range,
        training_size=len(training),
    )


def _fmt(v: float) -> str:
    return repr(float(v))


def save_model(model: ChromosomeModel, path) -> None:
    """Versioned line-oriented text: header, one line per chromosome, then
    the normalization min and max rows."""
    lines = [
        " ".join(
            [
                MODEL_FORMAT_TAG,
                MODEL_FORMAT_VERSION,
                _fmt(model.range_used),
                str(model.training_size),
                str(model.normalization.feat_min.shape[0]),
            ]
        )
    ]
    for group in model.groups:
        for c in group.chromosomes:
            lines.append(
                " ".join(
                    [group.label, group.category, str(c.member_count), _fmt(c.spread)]
                    + [_fmt(v) for v in c.centroid]
                )
            )
    lines.append(" ".join(_fmt(v) for v in model.normalization.feat_min))
    lines.append(" ".join(_fmt(v) for v in model.normalization.feat_max))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ChromosomeModel:
    """Read a model file; rejects unknown format tags/versions and rows a
    trained model cannot hold (unknown category, one label under two
    categories, member count below 1, negative or non-finite spread,
    non-finite value, centroid value outside [0,1], a feature minimum above
    its maximum, a feature count other than NUM_FEATURES, non-ASCII bytes)."""
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
    inverted = np.flatnonzero(feat_min > feat_max)
    if inverted.size:
        raise ModelFormatError(
            f"feature minimum exceeds maximum in column {int(inverted[0])}"
        )

    # Centroid values go into one matrix, checked in one pass after the
    # loop; rows are still split one at a time, because holding every token
    # of a large model at once costs more memory than the model itself.
    body = lines[1:-2]
    centroids = np.empty((len(body), num_features), dtype=np.float64)
    groups: dict[str, ChromosomeGroup] = {}
    order: list[str] = []
    member_total = 0
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
        group = groups.get(label)
        if group is None:
            group = ChromosomeGroup(label=label, category=category, chromosomes=[])
            groups[label] = group
            order.append(label)
        elif group.category != category:
            raise ModelFormatError(
                f"label {label!r} is listed under {group.category!r} and {category!r}"
            )
        centroids[row] = parse_values(tokens[4:])
        group.chromosomes.append(
            Chromosome(centroid=centroids[row], member_count=count, spread=spread)
        )
        member_total += count
    check_values(centroids, 0.0, 1.0)

    if member_total != training_size:
        raise ModelFormatError(
            f"member counts sum to {member_total}, header says {training_size}"
        )
    return ChromosomeModel(
        groups=[groups[label] for label in order],
        normalization=NormalizationStats(feat_min=feat_min, feat_max=feat_max),
        range_used=range_used,
        training_size=training_size,
    )
