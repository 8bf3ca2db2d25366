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
    def from_pairs(cls, pairs) -> "ConfusionMatrix":
        """Tally (actual, predicted) category pairs."""
        counts = np.zeros((len(CATEGORIES), len(CATEGORIES)), dtype=np.int64)
        for actual, predicted in pairs:
            counts[_INDEX[actual], _INDEX[predicted]] += 1
        return cls(counts)


def collapse_to_binary(matrix: ConfusionMatrix) -> tuple[int, int, int, int]:
    """(TN, FP, FN, TP): normal is the negative class, every intrusion class
    the positive one."""
    c = matrix.counts
    return int(c[0, 0]), int(c[0, 1:].sum()), int(c[1:, 0].sum()), int(c[1:, 1:].sum())


def detection_rate(matrix: ConfusionMatrix) -> float | None:
    """TP / (FN + TP); None when no intrusion was evaluated."""
    _, _, fn, tp = collapse_to_binary(matrix)
    return tp / (fn + tp) if fn + tp else None


def false_positive_rate(matrix: ConfusionMatrix) -> float | None:
    """FP / (TN + FP); None when no normal record was evaluated."""
    tn, fp, _, _ = collapse_to_binary(matrix)
    return fp / (tn + fp) if tn + fp else None


def per_class_rates(matrix: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(recall, precision) per class; zero-denominator entries report 0."""
    c = matrix.counts
    diag = np.diag(c).astype(np.float64)
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    return recall, precision


def _rate_lines(matrix: ConfusionMatrix) -> list[str]:
    """The two rates at 4 decimals; an undefined rate prints as n/a."""
    rates = {"detection_rate": detection_rate(matrix), "false_positive_rate": false_positive_rate(matrix)}
    return [f"{name}={'n/a' if r is None else format(r, '.4f')}" for name, r in rates.items()]


def format_table_report(matrix: ConfusionMatrix) -> str:
    """Human-readable report: class-count grid with recall/precision margins,
    the binary collapse, and the two rates at 4 decimals."""
    tn, fp, fn, tp = collapse_to_binary(matrix)
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
    bw = max(14, len(str(max(tn, fp, fn, tp))) + 2)
    out.append(" " * 18 + f"{'normal':>{bw}}{'intrusion':>{bw}}")
    out.append(f"{'actual normal':<18}" + f"{tn:>{bw}}{fp:>{bw}}")
    out.append(f"{'actual intrusion':<18}" + f"{fn:>{bw}}{tp:>{bw}}")
    out.append("")
    return "\n".join(out + _rate_lines(matrix))


def format_kv_report(matrix: ConfusionMatrix) -> str:
    """Machine-readable report: cell,<actual>,<predicted>,<count> rows plus
    the four binary counts and the two rates."""
    tn, fp, fn, tp = collapse_to_binary(matrix)
    out = []
    for i, actual in enumerate(CATEGORIES):
        for j, predicted in enumerate(CATEGORIES):
            out.append(f"cell,{actual},{predicted},{int(matrix.counts[i, j])}")
    out.append(f"true_negative={tn}")
    out.append(f"false_positive={fp}")
    out.append(f"false_negative={fn}")
    out.append(f"true_positive={tp}")
    return "\n".join(out + _rate_lines(matrix))
