"""Per-record genetic search over the chromosome model.

Each test record spawns a population of mutated copies of itself, held as
one (P, n) float64 gene array, one row per candidate. Every generation the
whole array is scored against the model in one kernel call (spread-
normalized distance to the nearest chromosome, lower is better), the worst
quarter of the rows is dropped, adjacent row pairs cross over, and single
genes mutate. The loop stops when one row survives (or the generation cap
hits); the survivor's nearest chromosome group is the prediction.

All randomness flows through numpy's PCG64. A batch run derives one
independent stream per record as PCG64(seed XOR record_index), so serial
and parallel execution produce identical output. Within a record the draws
come in this order (tests/test_engine.py pins it end to end):

- initialize_population: for rows 1..P-1, random(n) then normal(0, sigma, n);
- select: no draws;
- crossover: for each adjacent pair, random(), then integers(1, n) on a hit;
- mutate: for each row, random(), then integers(0, n) and normal(0, sigma)
  on a hit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .ingest import ConnectionRecord, Dataset
from .model import ChromosomeModel

_MAX_SEED = 2**64


@dataclass
class GaParams:
    """Search knobs. Defaults: merge range 0.125, crossover 0.15, mutation 0.35."""

    range: float = 0.125
    crossover_rate: float = 0.15
    mutation_rate: float = 0.35
    population_size: int = 32
    removal_fraction: float = 0.25
    max_generations: int = 64
    mutation_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.range < math.inf:
            raise ValueError("range must be a finite non-negative number")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0,1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0,1]")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 0.0 < self.removal_fraction < 1.0:
            raise ValueError("removal_fraction must be in (0,1)")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if not 0.0 <= self.mutation_sigma < math.inf:
            raise ValueError("mutation_sigma must be a finite non-negative number")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class Prediction:
    """detect() output for one record."""

    attack_name: str
    category: str
    survivor_fitness: float
    generations_run: int


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-record stream; XOR keeps parallel runs order-free."""
    return make_rng((seed ^ index) % _MAX_SEED)


def initialize_population(
    x: np.ndarray, params: GaParams, rng: np.random.Generator
) -> np.ndarray:
    """(population_size, n) genes. Row 0 is the record itself; every later
    row is a noisy copy where each gene mutates independently with
    probability mutation_rate."""
    n = x.shape[0]
    size = params.population_size
    mask = np.zeros((size, n), dtype=bool)
    noise = np.zeros((size, n))
    for i in range(1, size):
        mask[i] = rng.random(n) < params.mutation_rate
        noise[i] = rng.normal(0.0, params.mutation_sigma, n)
    return np.where(mask, np.clip(x + noise, 0.0, 1.0), x)


def select(genes: np.ndarray, fitness: np.ndarray, removal_fraction: float) -> np.ndarray:
    """Drop the worst floor(removal_fraction * size) rows, at least one per
    call, never below one survivor. Rows are ranked ascending by fitness,
    stable by index; the survivors are a new array."""
    size = genes.shape[0]
    drop = min(size - 1, max(1, math.floor(removal_fraction * size)))
    return genes[np.argsort(fitness, kind="stable")[: size - drop]]


def crossover(genes: np.ndarray, rate: float, rng: np.random.Generator) -> None:
    """Single-point suffix swap on adjacent row pairs (0,1),(2,3),... each
    with probability rate; the cut point is uniform in [1, n-1]. In place."""
    n = genes.shape[1]
    for i in range(0, genes.shape[0] - 1, 2):
        if rng.random() < rate:
            cut = int(rng.integers(1, n))
            tail = genes[i, cut:].copy()
            genes[i, cut:] = genes[i + 1, cut:]
            genes[i + 1, cut:] = tail


def mutate(genes: np.ndarray, rate: float, sigma: float, rng: np.random.Generator) -> None:
    """Each row, with probability rate, gets one uniformly chosen gene
    perturbed by Gaussian noise and clamped to [0,1]. In place."""
    n = genes.shape[1]
    for row in genes:
        if rng.random() < rate:
            idx = int(rng.integers(0, n))
            delta = rng.normal(0.0, sigma)
            row[idx] = min(1.0, max(0.0, row[idx] + delta))


def detect(
    record: ConnectionRecord,
    model: ChromosomeModel,
    params: GaParams,
    rng: np.random.Generator | None = None,
) -> Prediction:
    """Classify one record by shrinking a mutated population to a survivor."""
    if rng is None:
        rng = make_rng(params.seed)
    x = model.normalization.transform(record.features)
    genes = initialize_population(x, params, rng)
    flat = model.flatten()
    generations = 0
    while True:
        fitness, nearest = kernels.batch_fitness(genes, flat.centroids, flat.sq_norms, flat.denoms)
        generations += 1
        if genes.shape[0] == 1 or generations >= params.max_generations:
            break
        genes = select(genes, fitness, params.removal_fraction)
        crossover(genes, params.crossover_rate, rng)
        mutate(genes, params.mutation_rate, params.mutation_sigma, rng)

    best = int(np.argmin(fitness))
    label = flat.labels[nearest[best]]
    return Prediction(
        attack_name=label,
        category=flat.category_of[label],
        survivor_fitness=float(fitness[best]),
        generations_run=generations,
    )


# -- batch execution ---------------------------------------------------------

_WORKER: dict = {}


def _init_worker(model: ChromosomeModel, params: GaParams, features: np.ndarray):
    _WORKER["model"] = model
    _WORKER["params"] = params
    _WORKER["features"] = features


def _detect_range(
    features: np.ndarray, model: ChromosomeModel, params: GaParams, start: int, end: int
) -> list[Prediction]:
    return [
        detect(ConnectionRecord(features[i], None, None), model, params, record_rng(params.seed, i))
        for i in range(start, end)
    ]


def _run_range(bounds: tuple[int, int]) -> list[Prediction]:
    return _detect_range(_WORKER["features"], _WORKER["model"], _WORKER["params"], *bounds)


def run_batch(
    records: Dataset,
    model: ChromosomeModel,
    params: GaParams,
    workers: int = 1,
) -> list[Prediction]:
    """Detect every record. Per-record RNG streams make the result identical
    for any worker count; the pool receives the one feature matrix."""
    if not len(records):
        return []
    if workers <= 1:
        return _detect_range(records.features, model, params, 0, len(records))
    model.flatten()
    chunk = max(1, math.ceil(len(records) / (workers * 4)))
    bounds = [
        (start, min(start + chunk, len(records)))
        for start in range(0, len(records), chunk)
    ]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(bounds)),
        initializer=_init_worker,
        initargs=(model, params, records.features),
    ) as pool:
        results: list[Prediction] = []
        for part in pool.map(_run_range, bounds):
            results.extend(part)
    return results
