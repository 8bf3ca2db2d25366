"""Evaluation artifacts: 5x5 confusion matrix, binary collapse, rates.

Class order everywhere is (normal, probe, dos, u2r, r2l); rows are actual,
columns are predicted. The binary collapse treats any intrusion predicted
as any intrusion class as detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        """Tally (actual, predicted) category pairs."""
        m = cls.empty()
        for actual, predicted in pairs:
            m.counts[_INDEX[actual], _INDEX[predicted]] += 1
        return m


@dataclass
class BinaryCounts:
    true_negative: int
    false_positive: int
    false_negative: int
    true_positive: int


def collapse_to_binary(matrix: ConfusionMatrix) -> BinaryCounts:
    c = matrix.counts
    tn = int(c[0, 0])
    fp = int(c[0, 1:].sum())
    fn = int(c[1:, 0].sum())
    tp = int(c[1:, 1:].sum())
    return BinaryCounts(true_negative=tn, false_positive=fp, false_negative=fn, true_positive=tp)


def detection_rate(b: BinaryCounts) -> float | None:
    """TP / (FN + TP); None when no intrusion was evaluated."""
    denom = b.false_negative + b.true_positive
    return b.true_positive / denom if denom else None


def false_positive_rate(b: BinaryCounts) -> float | None:
    """FP / (TN + FP); None when no normal record was evaluated."""
    denom = b.true_negative + b.false_positive
    return b.false_positive / denom if denom else None


def per_class_rates(matrix: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) per class; zero-denominator entries report 0."""
    c = matrix.counts
    diag = np.diag(c).astype(np.float64)
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    return recall, precision


def _rate_lines(b: BinaryCounts) -> list[str]:
    """The two rates at 4 decimals; an undefined rate prints as n/a."""
    rates = {"detection_rate": detection_rate(b), "false_positive_rate": false_positive_rate(b)}
    return [f"{name}={'n/a' if r is None else format(r, '.4f')}" for name, r in rates.items()]


def format_table_report(matrix: ConfusionMatrix) -> str:
    """Human-readable report: class-count grid with recall/precision margins,
    the binary collapse, and the two rates at 4 decimals."""
    b = collapse_to_binary(matrix)
    c = matrix.counts
    recall, precision = per_class_rates(matrix)
    row_sums, col_sums = c.sum(axis=1), c.sum(axis=0)

    width = max(9, len(str(c.max())) + 2, max(len(x) for x in CATEGORIES) + 2)
    label_w = max(len("precision%"), max(len(x) for x in CATEGORIES)) + 2

    def pct(value, denom):
        return f"{100.0 * value:.1f}" if denom > 0 else "-"

    out = ["Confusion matrix (rows = actual, columns = predicted)", ""]
    header = " " * label_w + "".join(f"{h:>{width}}" for h in CATEGORIES) + f"{'recall%':>{width}}"
    out.append(header)
    for i, name in enumerate(CATEGORIES):
        row = f"{name:<{label_w}}" + "".join(f"{int(v):>{width}}" for v in c[i])
        row += f"{pct(recall[i], row_sums[i]):>{width}}"
        out.append(row)
    out.append(
        f"{'precision%':<{label_w}}"
        + "".join(
            f"{pct(precision[i], col_sums[i]):>{width}}"
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
    return "\n".join(out + _rate_lines(b))


def format_kv_report(matrix: ConfusionMatrix) -> str:
    """Machine-readable report: cell,<actual>,<predicted>,<count> rows plus
    the four binary counts and the two rates."""
    b = collapse_to_binary(matrix)
    out = []
    for i, actual in enumerate(CATEGORIES):
        for j, predicted in enumerate(CATEGORIES):
            out.append(f"cell,{actual},{predicted},{int(matrix.counts[i, j])}")
    out.append(f"true_negative={b.true_negative}")
    out.append(f"false_positive={b.false_positive}")
    out.append(f"false_negative={b.false_negative}")
    out.append(f"true_positive={b.true_positive}")
    return "\n".join(out + _rate_lines(b))
