"""KDD Cup 1999 connection-record ingestion.

Parses the 42-field CSV lines into one Dataset (a raw (N, 38) feature
matrix plus per-row attack names), maps fine-grained attack names to the
five top-level classes, and fits/applies min-max feature
normalization. Only the 38 numeric features are retained; the three
symbolic ones (protocol_type, service, flag) are dropped.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    MalformedRecord,
    NonNumericFeature,
    UnknownLabel,
)

NUM_FIELDS = 42
NUM_RAW_FEATURES = 41
NUM_FEATURES = 38

# 0-based positions of the symbolic features within the 41-feature layout.
SYMBOLIC_POSITIONS = (1, 2, 3)
_NUMERIC_POSITIONS = tuple(p for p in range(NUM_RAW_FEATURES) if p not in SYMBOLIC_POSITIONS)
_numeric_fields = operator.itemgetter(*_NUMERIC_POSITIONS)

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


def attack_category(name: str) -> str:
    """The top-level class of an attack name: its ATTACK_CATEGORIES entry, or
    FALLBACK_CATEGORY for a name lenient ingest accepts but does not know."""
    return ATTACK_CATEGORIES.get(name, FALLBACK_CATEGORY)


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
    the attack name of each row (None for unlabeled input). Iterating yields
    ConnectionRecord rows whose features are views into the matrix and
    whose category is `attack_category` of the name."""

    features: np.ndarray
    attack_names: list[str | None]

    def __len__(self) -> int:
        return len(self.attack_names)

    def __iter__(self):
        for features, name in zip(self.features, self.attack_names):
            yield ConnectionRecord(features, name, None if name is None else attack_category(name))


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
        # A far outlier overflows to +-inf, which the clip maps to 1 or 0.
        with np.errstate(over="ignore"):
            scaled = np.subtract(x, self.feat_min)
            scaled /= np.where(span > 0, span, 1.0)
        scaled[..., ~(span > 0)] = 0.0
        return np.clip(scaled, 0.0, 1.0, out=scaled)


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


def _parse_line(line: str, strict: bool, require_label: bool, distinct: array) -> tuple:
    """What read_records keeps of one line's text: () for a blank line, the
    error's (class, message) for a bad one, or (row, attack name), row being
    the index of its 38 values, which are appended to distinct."""
    if not line.strip():
        return ()
    try:
        raw = parse_record(line, require_label=require_label)
        values = _feature_values(raw.fields)
    except (MalformedRecord, NonNumericFeature) as exc:
        return type(exc), str(exc)
    label = raw.label
    if label is not None:
        # One string per attack name: the rows' names share it.
        label = sys.intern(label)
        if strict and label not in ATTACK_CATEGORIES:
            return UnknownLabel, (
                f"unknown attack name {label!r};"
                f" --lenient maps it to category {FALLBACK_CATEGORY!r}"
            )
    row = len(distinct) // NUM_FEATURES
    distinct.fromlist(values)
    return row, label


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
    writes one WARNING line per such name, with its line count, to stderr.
    Returns (dataset, skipped_count). Blank lines are ignored.

    Each distinct line text is parsed once. A dict maps it to its row's
    index in a buffer of distinct rows and its name, or to its error's class
    and message, so a repeated line only appends its row index and name.
    While the file is read this holds each distinct line's text and a small
    tuple, about 320 B for a 190-character KDD line. The dict is dropped
    before the feature matrix is gathered from the distinct rows in file
    order; when no accepted line repeats, the buffer is the matrix.
    """
    distinct = array("d")
    rows = array("q")
    names: list[str | None] = []
    skipped = 0
    parsed: dict[str, tuple] = {}
    for lineno, line in enumerate(lines, start=1):
        entry = parsed.get(line)
        if entry is None:
            entry = parsed[line] = _parse_line(line, strict, require_label, distinct)
        if not entry:
            continue
        first, second = entry
        if isinstance(first, int):  # (row, name)
            rows.append(first)
            names.append(second)
        elif strict:  # (error class, message)
            raise first(f"{source}:{lineno}: {second}")
        else:
            skipped += 1
    del parsed
    for name, count in Counter(names).items():
        if name is not None and name not in ATTACK_CATEGORIES:
            print(
                f"WARNING {source}: unknown attack name {name!r} on {count} line(s),"
                f" assigned category {FALLBACK_CATEGORY!r}",
                file=sys.stderr,
            )
    features = np.frombuffer(distinct).reshape(-1, NUM_FEATURES)
    if len(features) < len(rows):
        features = features[np.frombuffer(rows, dtype=np.int64)]
    return Dataset(features, names), skipped


def load_file(path, strict: bool = True, require_label: bool = True) -> tuple[Dataset, int]:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return read_records(fh, strict=strict, require_label=require_label, source=str(path))


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
