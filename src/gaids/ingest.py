"""KDD Cup 1999 connection-record ingestion.

Parses the 42-field CSV lines into one Dataset (a raw (N, 38) feature
matrix plus per-row attack names and categories), maps fine-grained attack
names to the five top-level classes, summarizes class distributions, and
fits/applies min-max feature normalization. Only the 38 numeric features
are retained; the three symbolic ones (protocol_type, service, flag) are
dropped.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    MalformedRecord,
    NonNumericFeature,
    UnknownLabel,
)

log = logging.getLogger(__name__)

NUM_FIELDS = 42
NUM_RAW_FEATURES = 41
NUM_FEATURES = 38

# 0-based positions of the symbolic features within the 41-feature layout.
SYMBOLIC_POSITIONS = (1, 2, 3)
_NUMERIC_POSITIONS = tuple(p for p in range(NUM_RAW_FEATURES) if p not in SYMBOLIC_POSITIONS)
_numeric_fields = operator.itemgetter(*_NUMERIC_POSITIONS)

# Rows handled per numpy call where a whole dataset would cost too much
# memory at once: ingest stacks parsed rows into the matrix this many at a
# time, and training normalizes this many rows per call.
BLOCK_ROWS = 1024

CATEGORIES = ("normal", "probe", "dos", "u2r", "r2l")

# Category lenient ingest gives an attack name missing from ATTACK_CATEGORIES.
FALLBACK_CATEGORY = "normal"

# Fine-grained attack name -> top-level class. Covers the 22 attack names of
# the 10% training file, the additional names of the "corrected" test file,
# and a few taxonomy aliases (guest, xnsnoop) that appear in attack listings
# but not in the distributed files.
ATTACK_CATEGORIES = {
    "normal": "normal",
    # dos
    "back": "dos",
    "land": "dos",
    "neptune": "dos",
    "pod": "dos",
    "smurf": "dos",
    "teardrop": "dos",
    "apache2": "dos",
    "mailbomb": "dos",
    "processtable": "dos",
    "udpstorm": "dos",
    # probe
    "ipsweep": "probe",
    "nmap": "probe",
    "portsweep": "probe",
    "satan": "probe",
    "mscan": "probe",
    "saint": "probe",
    # r2l
    "ftp_write": "r2l",
    "guess_passwd": "r2l",
    "imap": "r2l",
    "multihop": "r2l",
    "phf": "r2l",
    "spy": "r2l",
    "warezclient": "r2l",
    "warezmaster": "r2l",
    "named": "r2l",
    "sendmail": "r2l",
    "snmpgetattack": "r2l",
    "snmpguess": "r2l",
    "worm": "r2l",
    "xlock": "r2l",
    "xsnoop": "r2l",
    "guest": "r2l",
    "xnsnoop": "r2l",
    # u2r
    "buffer_overflow": "u2r",
    "loadmodule": "u2r",
    "perl": "u2r",
    "rootkit": "u2r",
    "httptunnel": "u2r",
    "ps": "u2r",
    "sqlattack": "u2r",
    "xterm": "u2r",
}

@dataclass
class RawRecord:
    """One parsed line: 41 verbatim feature fields plus the label."""

    fields: list[str]
    label: str | None
    trailing_period: bool = True


@dataclass
class ConnectionRecord:
    """One connection: 38 raw numeric features plus its labels."""

    features: np.ndarray
    attack_name: str | None
    category: str | None


@dataclass
class Dataset:
    """Records held as columns: one raw (N, 38) float64 feature matrix plus
    the attack name and category of each row (None for unlabeled input).
    Iterating yields ConnectionRecord rows whose features are views into
    the matrix."""

    features: np.ndarray
    attack_names: list[str | None]
    categories: list[str | None]

    def __len__(self) -> int:
        return len(self.attack_names)

    def __iter__(self):
        for row in zip(self.features, self.attack_names, self.categories):
            yield ConnectionRecord(*row)


@dataclass
class DatasetSummary:
    """Per-category record counts."""

    counts: dict[str, int]
    total: int

    def to_kv(self) -> str:
        lines = [f"{c}={self.counts[c]}" for c in CATEGORIES]
        lines.append(f"total={self.total}")
        return "\n".join(lines)


@dataclass
class NormalizationStats:
    """Per-feature min/max fitted on training data only."""

    feat_min: np.ndarray
    feat_max: np.ndarray

    def invalid_features(self) -> np.ndarray:
        """Indices of features whose span max - min is negative or overflows;
        transform would turn their values into NaN."""
        with np.errstate(over="ignore"):
            span = self.feat_max - self.feat_min
        return np.flatnonzero(~((span >= 0) & (span < np.inf)))

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Map features (a row or a matrix of rows) into [0,1]; degenerate
        features map to 0, outliers clamp."""
        span = self.feat_max - self.feat_min
        safe = np.where(span > 0, span, 1.0)
        # A far outlier overflows to +-inf, which the clip maps to 1 or 0.
        with np.errstate(over="ignore"):
            scaled = np.where(span > 0, (x - self.feat_min) / safe, 0.0)
        return np.clip(scaled, 0.0, 1.0)


def parse_record(line: str, require_label: bool = True) -> RawRecord:
    """Split one CSV line into 41 feature fields plus the label.

    The label's trailing period is stripped; a model file stores the label
    as one space-separated ASCII token, so it must be ASCII without
    whitespace. With require_label=False a 41-field line is also accepted.
    """
    parts = line.rstrip("\r\n").split(",")
    if len(parts) == NUM_RAW_FEATURES and not require_label:
        return RawRecord(fields=parts, label=None, trailing_period=False)
    if len(parts) != NUM_FIELDS:
        raise MalformedRecord(f"expected {NUM_FIELDS} fields, got {len(parts)}")
    raw_label = parts[-1]
    trailing = raw_label.endswith(".")
    label = raw_label[:-1] if trailing else raw_label
    if not label:
        raise MalformedRecord("empty label field")
    if not label.isascii() or label.split() != [label]:
        raise MalformedRecord(f"label {label!r} holds whitespace or non-ASCII characters")
    return RawRecord(fields=parts[:-1], label=label, trailing_period=trailing)


def _feature_values(fields: list[str]) -> list[float]:
    """The 38 numeric fields of a line as finite floats."""
    numeric = _numeric_fields(fields)
    try:
        values = list(map(float, numeric))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        # Only a bad line gets here: name its first bad field.
        for pos, field in zip(_NUMERIC_POSITIONS, numeric):
            try:
                v = float(field)
            except ValueError:
                raise NonNumericFeature(f"field {pos + 1}: {field!r}") from None
            if not math.isfinite(v):
                raise NonNumericFeature(f"field {pos + 1}: non-finite value {field!r}")
    return values


def read_records(
    lines,
    strict: bool = True,
    require_label: bool = True,
    source: str = "<input>",
) -> tuple[Dataset, int]:
    """Parse an iterable of lines into a Dataset.

    Strict mode aborts on the first bad line (error message carries
    file:line context); lenient mode skips bad lines and counts them, maps
    an attack name missing from ATTACK_CATEGORIES to FALLBACK_CATEGORY, and
    logs one warning per such name with its line count.
    Returns (dataset, skipped_count). Blank lines are ignored.
    """
    blocks: list[np.ndarray] = []
    block = np.empty((BLOCK_ROWS, NUM_FEATURES))
    filled = 0
    names: list[str | None] = []
    categories: list[str | None] = []
    skipped = 0
    unknown: Counter[str] = Counter()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = parse_record(line, require_label=require_label)
            values = _feature_values(raw.fields)
            category = None
            if raw.label is not None:
                category = ATTACK_CATEGORIES.get(raw.label)
                if category is None:
                    if strict:
                        raise UnknownLabel(raw.label)
                    unknown[raw.label] += 1
                    category = FALLBACK_CATEGORY
        except (MalformedRecord, NonNumericFeature, UnknownLabel) as exc:
            if strict:
                raise type(exc)(f"{source}:{lineno}: {exc}") from exc
            skipped += 1
            continue
        block[filled] = values
        filled += 1
        names.append(raw.label)
        categories.append(category)
        if filled == BLOCK_ROWS:
            blocks.append(block)
            block = np.empty((BLOCK_ROWS, NUM_FEATURES))
            filled = 0
    blocks.append(block[:filled])
    # Move the blocks into one matrix, dropping each once it is copied, so
    # that the rows are not held twice.
    features = np.empty((len(names), NUM_FEATURES))
    end = len(names)
    while blocks:
        part = blocks.pop()
        features[end - len(part) : end] = part
        end -= len(part)
    for name, count in unknown.items():
        log.warning(
            "%s: unknown attack name %r on %d line(s), assigned category %r",
            source, name, count, FALLBACK_CATEGORY,
        )
    return Dataset(features, names, categories), skipped


def load_file(path, strict: bool = True, require_label: bool = True) -> tuple[Dataset, int]:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return read_records(fh, strict=strict, require_label=require_label, source=str(path))


def summarize(data: Dataset) -> DatasetSummary:
    """Count records per top-level category."""
    if None in data.categories:
        raise ValueError("cannot summarize unlabeled records")
    counts = Counter(data.categories)
    return DatasetSummary(counts={c: counts[c] for c in CATEGORIES}, total=len(data))


def fit_normalization(data: Dataset) -> NormalizationStats:
    """Per-feature min/max over the training records."""
    if not len(data):
        raise EmptyDataset("cannot fit normalization on an empty dataset")
    stats = NormalizationStats(
        feat_min=data.features.min(axis=0), feat_max=data.features.max(axis=0)
    )
    bad = stats.invalid_features()
    if bad.size:
        raise NonNumericFeature(
            f"field {_NUMERIC_POSITIONS[bad[0]] + 1}: values span more than the float range"
        )
    return stats
