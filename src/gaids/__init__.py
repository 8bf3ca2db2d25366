"""Batch network-intrusion classifier for KDD99-style connection records.

Two phases: a single training pass merges labeled records into chromosome
groups by proximity (prototype centroids with running spread), then each
test record is classified by a small genetic search whose surviving
candidate's nearest chromosome group gives the prediction.
"""

from .engine import GaParams, Prediction, detect, run_batch
from .errors import GaidsError
from .ingest import (
    ATTACK_CATEGORIES,
    CATEGORIES,
    ConnectionRecord,
    Dataset,
    DatasetSummary,
    NormalizationStats,
    fit_normalization,
    parse_record,
    summarize,
)
from .metrics import (
    BinaryCounts,
    ConfusionMatrix,
    Metrics,
    collapse_to_binary,
    detection_rate,
    false_positive_rate,
    per_class_rates,
)
from .model import (
    Chromosome,
    ChromosomeGroup,
    ChromosomeModel,
    load_model,
    precalculate,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "ATTACK_CATEGORIES",
    "BinaryCounts",
    "CATEGORIES",
    "Chromosome",
    "ChromosomeGroup",
    "ChromosomeModel",
    "ConfusionMatrix",
    "ConnectionRecord",
    "Dataset",
    "DatasetSummary",
    "GaidsError",
    "GaParams",
    "Metrics",
    "NormalizationStats",
    "Prediction",
    "collapse_to_binary",
    "detect",
    "detection_rate",
    "false_positive_rate",
    "fit_normalization",
    "load_model",
    "parse_record",
    "per_class_rates",
    "precalculate",
    "run_batch",
    "save_model",
    "summarize",
]
