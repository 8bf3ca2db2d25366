"""Per-record genetic search over the chromosome model.

Each test record spawns a population of mutated copies of itself. Every
generation the whole population is scored against the model (spread-
normalized distance to the nearest chromosome, lower is better), the worst
quarter is dropped, adjacent pairs cross over, and single genes mutate.
The loop stops when one candidate survives (or the generation cap hits);
the survivor's nearest chromosome group is the prediction.

All randomness flows through numpy's PCG64. A batch run derives one
independent stream per record as PCG64(seed XOR record_index), so serial
and parallel execution produce identical output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import UnsetFitness
from .ingest import ConnectionRecord
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
        if self.range < 0:
            raise ValueError("range must be non-negative")
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
        if self.mutation_sigma < 0:
            raise ValueError("mutation_sigma must be non-negative")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class Candidate:
    """One member of the search population."""

    genes: np.ndarray
    fitness: float | None = None
    nearest_label: str | None = None


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
) -> list[Candidate]:
    """Candidate 0 is the record itself; the rest are noisy copies where each
    gene mutates independently with probability mutation_rate."""
    population = [Candidate(genes=x.copy())]
    n = x.shape[0]
    for _ in range(params.population_size - 1):
        mask = rng.random(n) < params.mutation_rate
        noise = rng.normal(0.0, params.mutation_sigma, n)
        genes = np.where(mask, np.clip(x + noise, 0.0, 1.0), x)
        population.append(Candidate(genes=genes))
    return population


def evaluate_population(population: list[Candidate], model: ChromosomeModel) -> None:
    """Score every candidate in one kernel pass."""
    flat = model.flatten()
    genes = np.ascontiguousarray(np.stack([c.genes for c in population]))
    fit, idx = kernels.batch_fitness(genes, flat.centroids, flat.sq_norms, flat.denoms)
    for i, c in enumerate(population):
        c.fitness = float(fit[i])
        c.nearest_label = flat.labels[idx[i]]


def fitness(candidate: Candidate, model: ChromosomeModel) -> tuple[float, str]:
    """Spread-normalized distance to the nearest chromosome and its label.

    score = min over chromosomes of distance/(spread + epsilon); ties resolve
    by group label, then insertion order. Also stored on the candidate.
    """
    evaluate_population([candidate], model)
    return candidate.fitness, candidate.nearest_label


def select(population: list[Candidate], removal_fraction: float) -> list[Candidate]:
    """Drop the worst floor(removal_fraction * size) candidates, at least one
    per call, never below one survivor. Sort is ascending by fitness, stable
    by index."""
    if any(c.fitness is None for c in population):
        raise UnsetFitness("select requires evaluated candidates")
    size = len(population)
    if size <= 1:
        return list(population)
    drop = min(size - 1, max(1, math.floor(removal_fraction * size)))
    ranked = sorted(population, key=lambda c: c.fitness)
    return ranked[: size - drop]


def crossover(
    population: list[Candidate], rate: float, rng: np.random.Generator
) -> list[Candidate]:
    """Single-point suffix swap on adjacent pairs (0,1),(2,3),... each with
    probability rate; the cut point is uniform in [1, n-1]. In place."""
    for i in range(0, len(population) - 1, 2):
        if rng.random() < rate:
            a, b = population[i], population[i + 1]
            cut = int(rng.integers(1, a.genes.shape[0]))
            tail = a.genes[cut:].copy()
            a.genes[cut:] = b.genes[cut:]
            b.genes[cut:] = tail
            a.fitness = a.nearest_label = None
            b.fitness = b.nearest_label = None
    return population


def mutate(
    population: list[Candidate],
    rate: float,
    sigma: float,
    rng: np.random.Generator,
) -> list[Candidate]:
    """Each candidate, with probability rate, gets one uniformly chosen gene
    perturbed by Gaussian noise and clamped to [0,1]. In place."""
    for c in population:
        if rng.random() < rate:
            idx = int(rng.integers(0, c.genes.shape[0]))
            delta = rng.normal(0.0, sigma)
            c.genes[idx] = min(1.0, max(0.0, c.genes[idx] + delta))
            c.fitness = c.nearest_label = None
    return population


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
    population = initialize_population(x, params, rng)
    generations = 0
    while True:
        evaluate_population(population, model)
        generations += 1
        if len(population) == 1 or generations >= params.max_generations:
            break
        population = select(population, params.removal_fraction)
        crossover(population, params.crossover_rate, rng)
        mutate(population, params.mutation_rate, params.mutation_sigma, rng)

    best = min(population, key=lambda c: c.fitness)
    return Prediction(
        attack_name=best.nearest_label,
        category=model.flatten().category_of[best.nearest_label],
        survivor_fitness=best.fitness,
        generations_run=generations,
    )


# -- batch execution ---------------------------------------------------------

_WORKER: dict = {}


def _init_worker(model: ChromosomeModel, params: GaParams, records: list[ConnectionRecord]):
    _WORKER["model"] = model
    _WORKER["params"] = params
    _WORKER["records"] = records


def _run_range(bounds: tuple[int, int]) -> list[Prediction]:
    start, end = bounds
    model, params, records = _WORKER["model"], _WORKER["params"], _WORKER["records"]
    return [
        detect(records[i], model, params, record_rng(params.seed, i))
        for i in range(start, end)
    ]


def run_batch(
    records: list[ConnectionRecord],
    model: ChromosomeModel,
    params: GaParams,
    workers: int = 1,
) -> list[Prediction]:
    """Detect every record. Per-record RNG streams make the result identical
    for any worker count."""
    if not records:
        return []
    if workers <= 1:
        return [
            detect(records[i], model, params, record_rng(params.seed, i))
            for i in range(len(records))
        ]
    model.flatten()
    chunk = max(1, math.ceil(len(records) / (workers * 4)))
    bounds = [
        (start, min(start + chunk, len(records)))
        for start in range(0, len(records), chunk)
    ]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(model, params, records)
    ) as pool:
        results: list[Prediction] = []
        for part in pool.map(_run_range, bounds):
            results.extend(part)
    return results
