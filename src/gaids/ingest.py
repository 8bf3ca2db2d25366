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
from itertools import compress

import numpy as np

from .errors import (
    EmptyDataset,
    GaidsError,
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

# Lines per np.loadtxt call in `block_values`, the one reader of numbers: it
# reads the distinct lines of `read_records` and the chromosome rows of
# `model.load_model`. Every line of a block np.loadtxt rejects goes through
# float(), so a larger block sends more lines to float() per bad line, and
# strict mode reads up to a block past the first bad line; a smaller one
# makes more calls. On the kdd-train file, 32 to 256 read within noise of
# each other (CHANGES.md).
PARSE_ROWS = 64

# U+001C to U+001F: str.isspace() holds for them, and np.loadtxt strips them
# from a number's ends, but float() rejects them.
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"

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


def _label(line: str, require_label: bool) -> str | None:
    """The label of one CSV line after the checks of its shape, in this
    order: 42 fields, a label that is not empty, a label that is one ASCII
    token. The trailing period is stripped; a model file stores the label as
    one space-separated ASCII token. With require_label=False a 41-field
    line is also accepted, with no label."""
    text = line.rstrip("\r\n")
    commas = text.count(",")
    if commas == NUM_RAW_FEATURES - 1 and not require_label:
        return None
    if commas != NUM_FIELDS - 1:
        raise MalformedRecord(f"expected {NUM_FIELDS} fields, got {commas + 1}")
    raw_label = text[text.rindex(",") + 1 :]
    label = raw_label[:-1] if raw_label.endswith(".") else raw_label
    if not label:
        raise MalformedRecord("empty label field")
    if not label.isascii() or label.split() != [label]:
        raise MalformedRecord(f"label {label!r} holds whitespace or non-ASCII characters")
    return label


def parse_record(line: str, require_label: bool = True) -> RawRecord:
    """Split one CSV line into 41 feature fields plus the label, after the
    checks of `_label`."""
    label = _label(line, require_label)
    text = line.rstrip("\r\n")
    return RawRecord(
        fields=text.split(",")[:NUM_RAW_FEATURES],
        label=label,
        trailing_period=label is not None and text.endswith("."),
    )


def _line_values(line: str) -> list[float]:
    """The 38 numeric fields of a line that passed `_label`, by float() one
    field at a time; the first field that is not a finite number raises
    NonNumericFeature, named by its 1-based position."""
    values = []
    for pos, field in zip(_NUMERIC_POSITIONS, _numeric_fields(line.rstrip("\r\n").split(","))):
        try:
            v = float(field)
        except ValueError:
            raise NonNumericFeature(f"field {pos + 1}: {field!r}") from None
        if not math.isfinite(v):
            raise NonNumericFeature(f"field {pos + 1}: non-finite value {field!r}")
        values.append(v)
    return values


def _parse_line(line: str, require_label: bool, row: int) -> tuple:
    """What read_records keeps of one line's text: () for a blank line, the
    error's (class, message) for a line of a bad shape, or (row, attack
    name), row being the line's index among the distinct lines."""
    if not line.strip():
        return ()
    try:
        label = _label(line, require_label)
    except MalformedRecord as exc:
        return MalformedRecord, str(exc)
    # One string per attack name: the rows' names share it.
    return row, (None if label is None else sys.intern(label))


def block_values(lines: list[str], width: int, delimiter, usecols, line_values):
    """The numbers of the lines as a (len(lines), width) float64 matrix, and
    (index, message) of each line `line_values` rejects; the row of such a
    line is not meaningful. `line_values` is the float() reference: it
    returns a line's `width` numbers or raises a GaidsError naming the
    line's first bad token.

    np.loadtxt reads each block of PARSE_ROWS lines in one call (`delimiter`
    None splits on whitespace). It converts a number as float() does, and
    rejects some that float() accepts (`1_0`, non-ASCII digits); it accepts
    none that float() rejects unless a field holds one of _LOADTXT_SPACE.
    Every line of a block that does not read as `width` numbers a line, a
    row with a non-finite value, and a line holding one of _LOADTXT_SPACE
    go through `line_values`."""
    values = np.empty((len(lines), width))
    for lo in range(0, len(lines), PARSE_ROWS):
        chunk, out = lines[lo : lo + PARSE_ROWS], values[lo : lo + PARSE_ROWS]
        try:
            block = np.loadtxt(chunk, delimiter=delimiter, usecols=usecols, comments=None, ndmin=2)
        except ValueError:
            block = None
        if block is not None and block.shape == out.shape:
            out[:] = block
            text = "".join(chunk)
            if any(c in text for c in _LOADTXT_SPACE):
                out[[any(c in line for c in _LOADTXT_SPACE) for line in chunk]] = math.nan
        else:
            out[:] = math.nan
    errors = []
    for i in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
        try:
            values[i] = line_values(lines[i])
        except GaidsError as exc:
            errors.append((i, str(exc)))
    return values, errors


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
    Returns (dataset, skipped_count). Blank lines are ignored. A line's
    checks run in this order: its shape (`_label`), its numbers (the first
    bad field is named), then, in strict mode, its attack name.

    Each distinct line text is checked once. A dict maps it to its row's
    index among the distinct lines and its name, or to its error's class
    and message, so a repeated line only appends its row index and name.
    The distinct lines that pass the shape checks are converted PARSE_ROWS
    at a time, in file order, by `block_values`; strict mode converts the
    lines so far before it raises for a bad shape or name, so the error is
    always the first bad line's. The dict is dropped before the feature
    matrix is gathered from the distinct rows in file order; when every
    distinct row is kept and none repeats, the buffer is the matrix.
    """
    distinct = array("d")  # 38 values per converted distinct line
    failed: list[int] = []  # rows of distinct whose numbers are bad (lenient)
    block: list[str] = []  # distinct lines not yet converted
    block_linenos: list[int] = []
    rows = array("q")
    names: list[str | None] = []
    skipped = 0
    parsed: dict[str, tuple] = {}

    def convert():
        if not block:
            return
        start = len(distinct) // NUM_FEATURES
        values, errors = block_values(block, NUM_FEATURES, ",", _NUMERIC_POSITIONS, _line_values)
        if errors and strict:
            i, message = errors[0]
            raise NonNumericFeature(f"{source}:{block_linenos[i]}: {message}")
        failed.extend(start + i for i, _ in errors)
        distinct.frombytes(memoryview(values).cast("B"))
        block.clear()
        block_linenos.clear()

    for lineno, line in enumerate(lines, start=1):
        entry = parsed.get(line)
        if entry is None:
            row = len(distinct) // NUM_FEATURES + len(block)
            entry = parsed[line] = _parse_line(line, require_label, row)
            if entry and entry[0] == row:
                block.append(line)
                block_linenos.append(lineno)
                name = entry[1]
                unknown = strict and name is not None and name not in ATTACK_CATEGORIES
                if unknown or len(block) == PARSE_ROWS:
                    convert()
                if unknown:
                    raise UnknownLabel(
                        f"{source}:{lineno}: unknown attack name {name!r};"
                        f" --lenient maps it to category {FALLBACK_CATEGORY!r}"
                    )
            elif entry and strict:
                convert()
                raise entry[0](f"{source}:{lineno}: {entry[1]}")
        if not entry:
            continue
        first, second = entry
        if isinstance(first, int):  # (row, name)
            rows.append(first)
            names.append(second)
        else:  # (error class, message), lenient
            skipped += 1
    convert()
    del parsed
    features = np.frombuffer(distinct).reshape(-1, NUM_FEATURES)
    index = np.frombuffer(rows, dtype=np.int64)
    if failed:
        keep = np.ones(len(features), dtype=bool)
        keep[failed] = False
        keep = keep[index]
        skipped += len(index) - int(np.count_nonzero(keep))
        index = index[keep]
        names = list(compress(names, keep.tolist()))
    for name, count in Counter(names).items():
        if name is not None and name not in ATTACK_CATEGORIES:
            print(
                f"WARNING {source}: unknown attack name {name!r} on {count} line(s),"
                f" assigned category {FALLBACK_CATEGORY!r}",
                file=sys.stderr,
            )
    if failed or len(features) < len(index):
        features = features[index]
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
