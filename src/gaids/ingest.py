"""KDD Cup 1999 connection-record ingestion.

Parses the 42-field CSV lines, maps fine-grained attack names to the five
top-level classes, summarizes class distributions, and fits/applies min-max
feature normalization. Only the 38 numeric features are retained; the three
symbolic ones (protocol_type, service, flag) are dropped.
"""

from __future__ import annotations

import logging
import math
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

CATEGORIES = ("normal", "probe", "dos", "u2r", "r2l")

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

# The 23 labels present in the 10% training file (22 attacks + normal).
TRAINING_LABELS = (
    "normal",
    "back", "land", "neptune", "pod", "smurf", "teardrop",
    "ipsweep", "nmap", "portsweep", "satan",
    "ftp_write", "guess_passwd", "imap", "multihop", "phf", "spy",
    "warezclient", "warezmaster",
    "buffer_overflow", "loadmodule", "perl", "rootkit",
)


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

    @classmethod
    def identity(cls, n: int = NUM_FEATURES) -> "NormalizationStats":
        return cls(np.zeros(n), np.ones(n))

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Map features into [0,1]; degenerate features map to 0, outliers clamp."""
        span = self.feat_max - self.feat_min
        safe = np.where(span > 0, span, 1.0)
        scaled = np.where(span > 0, (x - self.feat_min) / safe, 0.0)
        return np.clip(scaled, 0.0, 1.0)


def parse_record(line: str, require_label: bool = True) -> RawRecord:
    """Split one CSV line into 41 feature fields plus the label.

    The label's trailing period is stripped. With require_label=False a
    41-field (unlabeled) line is also accepted.
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
    return RawRecord(fields=parts[:-1], label=label, trailing_period=trailing)


def serialize_record(raw: RawRecord) -> str:
    """Inverse of parse_record for well-formed labeled lines."""
    label = raw.label + ("." if raw.trailing_period else "")
    return ",".join(list(raw.fields) + [label])


def to_connection_record(
    raw: RawRecord,
    strict: bool = True,
    fallback_category: str = "normal",
) -> ConnectionRecord:
    """Drop the symbolic fields, parse the 38 numeric ones, map the label.

    In lenient mode an attack name missing from the mapping is assigned
    fallback_category instead of raising UnknownLabel.
    """
    if len(raw.fields) != NUM_RAW_FEATURES:
        raise MalformedRecord(
            f"expected {NUM_RAW_FEATURES} feature fields, got {len(raw.fields)}"
        )
    values = np.empty(NUM_FEATURES, dtype=np.float64)
    out = 0
    for pos, field in enumerate(raw.fields):
        if pos in SYMBOLIC_POSITIONS:
            continue
        try:
            v = float(field)
        except ValueError:
            raise NonNumericFeature(f"field {pos + 1}: {field!r}") from None
        if not math.isfinite(v):
            raise NonNumericFeature(f"field {pos + 1}: non-finite value {field!r}")
        values[out] = v
        out += 1

    if raw.label is None:
        return ConnectionRecord(features=values, attack_name=None, category=None)
    category = ATTACK_CATEGORIES.get(raw.label)
    if category is None:
        if strict:
            raise UnknownLabel(raw.label)
        category = fallback_category
    return ConnectionRecord(features=values, attack_name=raw.label, category=category)


def read_records(
    lines,
    strict: bool = True,
    fallback_category: str = "normal",
    require_label: bool = True,
    source: str = "<input>",
) -> tuple[list[ConnectionRecord], int]:
    """Parse an iterable of lines into records.

    Strict mode aborts on the first bad line (error message carries
    file:line context); lenient mode skips bad lines and counts them, and
    logs one warning per unknown attack name with its line count.
    Returns (records, skipped_count). Blank lines are ignored.
    """
    records: list[ConnectionRecord] = []
    skipped = 0
    unknown: Counter[str] = Counter()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = parse_record(line, require_label=require_label)
            rec = to_connection_record(raw, strict=strict, fallback_category=fallback_category)
        except (MalformedRecord, NonNumericFeature, UnknownLabel) as exc:
            if strict:
                raise type(exc)(f"{source}:{lineno}: {exc}") from exc
            skipped += 1
            continue
        if rec.attack_name is not None and rec.attack_name not in ATTACK_CATEGORIES:
            unknown[rec.attack_name] += 1
        records.append(rec)
    for name, count in unknown.items():
        log.warning(
            "%s: unknown attack name %r on %d line(s), assigned category %r",
            source, name, count, fallback_category,
        )
    return records, skipped


def load_file(
    path,
    strict: bool = True,
    fallback_category: str = "normal",
    require_label: bool = True,
) -> tuple[list[ConnectionRecord], int]:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return read_records(
            fh,
            strict=strict,
            fallback_category=fallback_category,
            require_label=require_label,
            source=str(path),
        )


def summarize(records) -> DatasetSummary:
    """Count records per top-level category."""
    counts = {c: 0 for c in CATEGORIES}
    total = 0
    for rec in records:
        if rec.category is None:
            raise ValueError("cannot summarize unlabeled records")
        counts[rec.category] += 1
        total += 1
    return DatasetSummary(counts=counts, total=total)


def fit_normalization(records) -> NormalizationStats:
    """Per-feature min/max over the training records."""
    if not records:
        raise EmptyDataset("cannot fit normalization on an empty dataset")
    feat_min = records[0].features.copy()
    feat_max = records[0].features.copy()
    for rec in records[1:]:
        np.minimum(feat_min, rec.features, out=feat_min)
        np.maximum(feat_max, rec.features, out=feat_max)
    return NormalizationStats(feat_min=feat_min, feat_max=feat_max)


def normalize(record: ConnectionRecord, stats: NormalizationStats) -> np.ndarray:
    """Normalized feature vector of one record, componentwise in [0,1]."""
    return stats.transform(record.features)
