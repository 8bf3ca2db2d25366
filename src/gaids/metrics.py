"""Evaluation artifacts: 5x5 confusion matrix, binary collapse, rates.

Class order everywhere is (normal, probe, dos, u2r, r2l); rows are actual,
columns are predicted. The binary collapse treats any intrusion predicted
as any intrusion class as detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoIntrusions, NoNormals
from .ingest import CATEGORIES

_INDEX = {c: i for i, c in enumerate(CATEGORIES)}


@dataclass
class ConfusionMatrix:
    counts: np.ndarray

    @classmethod
    def empty(cls) -> "ConfusionMatrix":
        return cls(np.zeros((len(CATEGORIES), len(CATEGORIES)), dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs) -> "ConfusionMatrix":
        m = cls.empty()
        for actual, predicted in pairs:
            accumulate(m, actual, predicted)
        return m

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Cellwise sum; shard-and-merge is associative and commutative."""
        self.counts += other.counts
        return self

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class BinaryCounts:
    true_negative: int
    false_positive: int
    false_negative: int
    true_positive: int


@dataclass
class Metrics:
    """Rates are None when their denominator is empty; per-class rates report
    0 with the matching defined-flag cleared instead."""

    detection_rate: float | None
    false_positive_rate: float | None
    per_class_recall: np.ndarray
    per_class_precision: np.ndarray
    recall_defined: np.ndarray
    precision_defined: np.ndarray


def accumulate(matrix: ConfusionMatrix, actual: str, predicted: str) -> ConfusionMatrix:
    matrix.counts[_INDEX[actual], _INDEX[predicted]] += 1
    return matrix


def collapse_to_binary(matrix: ConfusionMatrix) -> BinaryCounts:
    c = matrix.counts
    tn = int(c[0, 0])
    fp = int(c[0, 1:].sum())
    fn = int(c[1:, 0].sum())
    tp = int(c[1:, 1:].sum())
    return BinaryCounts(true_negative=tn, false_positive=fp, false_negative=fn, true_positive=tp)


def detection_rate(b: BinaryCounts) -> float:
    denom = b.false_negative + b.true_positive
    if denom == 0:
        raise NoIntrusions("no intrusion records evaluated")
    return b.true_positive / denom


def false_positive_rate(b: BinaryCounts) -> float:
    denom = b.true_negative + b.false_positive
    if denom == 0:
        raise NoNormals("no normal records evaluated")
    return b.false_positive / denom


def per_class_rates(matrix: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) per class; zero-denominator entries report 0."""
    c = matrix.counts
    diag = np.diag(c).astype(np.float64)
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    return recall, precision


def compute_metrics(matrix: ConfusionMatrix) -> Metrics:
    b = collapse_to_binary(matrix)
    recall, precision = per_class_rates(matrix)
    try:
        dr = detection_rate(b)
    except NoIntrusions:
        dr = None
    try:
        fpr = false_positive_rate(b)
    except NoNormals:
        fpr = None
    return Metrics(
        detection_rate=dr,
        false_positive_rate=fpr,
        per_class_recall=recall,
        per_class_precision=precision,
        recall_defined=matrix.counts.sum(axis=1) > 0,
        precision_defined=matrix.counts.sum(axis=0) > 0,
    )


def _rate_str(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def format_table_report(matrix: ConfusionMatrix) -> str:
    """Human-readable report: class-count grid with recall/precision margins,
    the binary collapse, and the two rates at 4 decimals."""
    m = compute_metrics(matrix)
    b = collapse_to_binary(matrix)
    c = matrix.counts

    width = max(9, len(str(c.max())) + 2, max(len(x) for x in CATEGORIES) + 2)
    label_w = max(len("precision%"), max(len(x) for x in CATEGORIES)) + 2

    def pct(value, defined):
        return f"{100.0 * value:.1f}" if defined else "-"

    out = ["Confusion matrix (rows = actual, columns = predicted)", ""]
    header = " " * label_w + "".join(f"{h:>{width}}" for h in CATEGORIES) + f"{'recall%':>{width}}"
    out.append(header)
    for i, name in enumerate(CATEGORIES):
        row = f"{name:<{label_w}}" + "".join(f"{int(v):>{width}}" for v in c[i])
        row += f"{pct(m.per_class_recall[i], m.recall_defined[i]):>{width}}"
        out.append(row)
    out.append(
        f"{'precision%':<{label_w}}"
        + "".join(
            f"{pct(m.per_class_precision[i], m.precision_defined[i]):>{width}}"
            for i in range(len(CATEGORIES))
        )
    )
    out.append("")
    out.append("Binary collapse (normal vs intrusion)")
    bw = max(14, len(str(max(b.true_negative, b.false_positive, b.false_negative, b.true_positive))) + 2)
    out.append(" " * 18 + f"{'normal':>{bw}}{'intrusion':>{bw}}")
    out.append(f"{'actual normal':<18}" + f"{b.true_negative:>{bw}}{b.false_positive:>{bw}}")
    out.append(f"{'actual intrusion':<18}" + f"{b.false_negative:>{bw}}{b.true_positive:>{bw}}")
    out.append("")
    out.append(f"detection_rate={_rate_str(m.detection_rate)}")
    out.append(f"false_positive_rate={_rate_str(m.false_positive_rate)}")
    return "\n".join(out)


def format_kv_report(matrix: ConfusionMatrix) -> str:
    """Machine-readable report: cell,<actual>,<predicted>,<count> rows plus
    the four binary counts and the two rates."""
    m = compute_metrics(matrix)
    b = collapse_to_binary(matrix)
    out = []
    for i, actual in enumerate(CATEGORIES):
        for j, predicted in enumerate(CATEGORIES):
            out.append(f"cell,{actual},{predicted},{int(matrix.counts[i, j])}")
    out.append(f"true_negative={b.true_negative}")
    out.append(f"false_positive={b.false_positive}")
    out.append(f"false_negative={b.false_negative}")
    out.append(f"true_positive={b.true_positive}")
    out.append(f"detection_rate={_rate_str(m.detection_rate)}")
    out.append(f"false_positive_rate={_rate_str(m.false_positive_rate)}")
    return "\n".join(out)
