"""Genetic search over the chromosome model, a block of records in lockstep.

Each test record spawns a population of P mutated copies of itself. Every
generation scores the candidates against the model (spread-normalized
distance to the nearest chromosome, lower is better), drops the worst
fraction, crosses adjacent row pairs over and mutates single genes. The
loop stops when one row survives or the generation cap hits; the
survivor's nearest chromosome group is the prediction.

How many rows survive each generation depends only on GaParams (`schedule`:
32, 24, 18, 14, 11, 9, 7, 6, 5, 4, 3, 2, 1 for the defaults), so a block of
R records advances together as one (R, P_g, n) float64 gene array. Before
the loop the block brackets each record's distance to every chromosome
once (`kernels.record_bounds`), and generation 0 scores all R * P rows
against the chromosomes `kernels.candidate_columns` keeps for each
record's reach: those that can win for some row within that distance of
its record. The block holds those columns, gathered, and the reach they
were kept for. Each later generation is:

1. `select`: a stable argsort of each record's fitness, keeping a prefix
   of the rows with their fitness and nearest chromosome;
2. `crossover`: masked suffix swaps on the row pairs (0,1), (2,3), ...;
3. `mutate`: a masked single-gene update of each row;
4. `kernels.reach` of each record's rows: where it exceeds the held reach,
   the held reach rises to it, and the columns those records keep join
   the held ones;
5. `kernels.batch_fitness` on the changed rows alone, against the held
   columns: the rows of a pair whose crossover gate fired and the rows
   whose mutation gate fired. Every other row holds the genes it was
   scored with, and keeps its fitness and nearest chromosome.

The masks of all generations are made once per block, from the block's
draw tape (`decide`), before the loop starts. The kernels module docstring
(steps 6 and 7) shows why the held columns give each row what a scan over
every chromosome would.

No step mixes records, and the kernel returns for each row what a per-row
scan over every chromosome would (the kernels module docstring proves it
for the pruned scan), so a record's prediction does not depend on its
block or on its neighbours. `detect` is the block of one record, and
`run_batch` cuts a batch into blocks once, and every share of a
`--workers` run carries whole blocks.

The draw tape. All randomness flows through numpy's PCG64. Record i of a
batch has its own stream PCG64(seed XOR i), so output is identical for any
worker count and any block size. A record draws its whole tape up front,
in four generator calls, every value whether or not the search uses it.
With n features, generation sizes s_0 = P, s_1, ..., s_{G-1}, and the
crossover and mutation steps run at sizes s_1..s_{G-1} (after each select),
write C = sum(s_g // 2) and M = sum(s_g) over g = 1..G-1. In draw order:

- uniforms = random((P-1)*n + C + M): the initial gene gates of rows
  1..P-1 (row-major), then one crossover gate per pair, then one mutation
  gate per row;
- normals = standard_normal((P-1)*n + M), scaled by mutation_sigma: the
  initial gene noise of rows 1..P-1, then one mutation delta per row;
- cuts = integers(1, n, C): one crossover cut per pair;
- loci = integers(0, n, M): one mutated gene index per row.

Within the crossover and mutation sections the values run generation by
generation, then pair by pair (row by row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels, parallel
from .ingest import ConnectionRecord, Dataset
from .model import ChromosomeModel

_MAX_SEED = 2**64


@dataclass
class GaParams:
    """Search knobs. The CLI's flags, config keys and built-in defaults are
    these fields."""

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


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-record stream; XOR keeps parallel runs order-free."""
    return np.random.Generator(np.random.PCG64((seed ^ index) % _MAX_SEED))


def _survivors(size: int, removal_fraction: float) -> int:
    """Rows left after dropping the worst floor(removal_fraction * size):
    at least one row is dropped, and at least one survives."""
    return size - min(size - 1, max(1, math.floor(removal_fraction * size)))


def schedule(params: GaParams) -> list[int]:
    """Population size of each generation the search scores."""
    sizes = [params.population_size]
    while sizes[-1] > 1 and len(sizes) < params.max_generations:
        sizes.append(_survivors(sizes[-1], params.removal_fraction))
    return sizes


class Tape(NamedTuple):
    """A block's random values, one row per record, as the sections of the
    layout the module docstring gives. With R records, P candidates, n
    features, C pairs and M rows: init_gates and init_noise are (R, P-1, n);
    pair_gates and cuts (R, C); row_gates, loci and deltas (R, M)."""

    init_gates: np.ndarray
    init_noise: np.ndarray
    pair_gates: np.ndarray
    cuts: np.ndarray
    row_gates: np.ndarray
    loci: np.ndarray
    deltas: np.ndarray


def _tape_widths(params: GaParams, n: int) -> tuple[int, int, int]:
    """(P-1)*n initial gene draws, C pairs and M rows of one record's tape."""
    sizes = schedule(params)
    return (sizes[0] - 1) * n, sum(s // 2 for s in sizes[1:]), sum(sizes[1:])


def draw_tape(rngs: Sequence[np.random.Generator], params: GaParams, n: int) -> Tape:
    """Draw the tape of each record from its own stream."""
    init, pairs, rows = _tape_widths(params, n)
    count = len(rngs)
    width = init + pairs + rows
    # numpy raises ValueError for a shape whose byte count overflows a
    # signed size; report it as the allocation failure it is.
    if count * width > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate a {count} x {width} float64 tape")
    uniforms = np.empty((count, width))
    normals = np.empty((count, init + rows))
    cuts = np.empty((count, pairs), dtype=np.int64)
    loci = np.empty((count, rows), dtype=np.int64)
    for i, rng in enumerate(rngs):
        rng.random(out=uniforms[i])
        rng.standard_normal(out=normals[i])
        cuts[i] = rng.integers(1, n, pairs)
        loci[i] = rng.integers(0, n, rows)
    # A huge sigma overflows to +-inf, which the operators clamp to 1 or 0.
    with np.errstate(over="ignore"):
        normals *= params.mutation_sigma
    shape = (count, params.population_size - 1, n)
    return Tape(
        init_gates=uniforms[:, :init].reshape(shape),
        init_noise=normals[:, :init].reshape(shape),
        pair_gates=uniforms[:, init : init + pairs],
        cuts=cuts,
        row_gates=uniforms[:, init + pairs :],
        loci=loci,
        deltas=normals[:, init:],
    )


def initialize_population(x: np.ndarray, gates: np.ndarray, noise: np.ndarray, rate: float) -> np.ndarray:
    """(R, P, n) genes for the (R, n) records x. Row 0 of each population
    is its record; in rows 1..P-1 (gates and noise are (R, P-1, n)) a gene
    whose gate is below rate becomes clip(x + noise, 0, 1)."""
    genes = np.empty((x.shape[0], gates.shape[1] + 1, x.shape[1]))
    genes[:, 0] = x
    copies = genes[:, 1:]
    np.add(x[:, None, :], noise, out=copies)
    np.clip(copies, 0.0, 1.0, out=copies)
    np.copyto(copies, x[:, None, :], where=gates >= rate)
    return genes


def select(
    genes: np.ndarray, fitness: np.ndarray, nearest: np.ndarray, removal_fraction: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the worst floor(removal_fraction * size) rows of each population
    along axis -2, at least one per call, never below one survivor. Rows are
    ranked ascending by fitness (shape genes.shape[:-1]), stable by index;
    the survivors' genes, fitness and nearest chromosome are new arrays."""
    size = genes.shape[-2]
    order = np.argsort(fitness, axis=-1, kind="stable")[..., : _survivors(size, removal_fraction)]
    # Row numbers in the populations stacked as one (-1, n) array: one
    # gather, where take_along_axis would index gene by gene.
    order += np.arange(0, fitness.size, size).reshape(order.shape[:-1] + (1,))
    return genes.reshape(-1, genes.shape[-1])[order], fitness.reshape(-1)[order], nearest.reshape(-1)[order]


def decide(tape: Tape, params: GaParams) -> tuple[np.ndarray, np.ndarray]:
    """Every crossover and mutation decision of a block, made once from its
    tape: (R, C, n) swap masks, where a pair whose gate is below
    crossover_rate exchanges its genes from its cut on, and (R, M) hits,
    the rows whose gate is below mutation_rate."""
    n = tape.init_gates.shape[2]
    swaps = (tape.pair_gates < params.crossover_rate)[..., None] & (np.arange(n) >= tape.cuts[..., None])
    return swaps, tape.row_gates < params.mutation_rate


def crossover(genes: np.ndarray, swap: np.ndarray) -> None:
    """Masked swap on the row pairs (0,1), (2,3), ... of each (R, S, n)
    population: pair k exchanges the genes set in swap[:, k], an
    (R, S // 2, n) mask. In place."""
    pairs = swap.shape[1]
    even = genes[:, 0 : 2 * pairs : 2]
    odd = genes[:, 1 : 2 * pairs : 2]
    tail = even.copy()
    np.copyto(even, odd, where=swap)
    np.copyto(odd, tail, where=swap)


def mutate(genes: np.ndarray, hit: np.ndarray, loci: np.ndarray, deltas: np.ndarray) -> None:
    """Each row of the (R, S, n) populations set in hit gets gene
    loci[r, s] moved by deltas[r, s] and clamped to [0,1] (hit, loci and
    deltas are (R, S)). In place."""
    r, s = np.nonzero(hit)
    locus = loci[r, s]
    genes[r, s, locus] = np.clip(genes[r, s, locus] + deltas[r, s], 0.0, 1.0)


def _gather(kept: np.ndarray, model: ChromosomeModel) -> tuple[np.ndarray, ...]:
    """The chromosomes set in the mask kept: ascending model indices, and
    their centroids, squared norms and denominators."""
    cols = np.flatnonzero(kept)
    return cols, model.centroids[cols], model.sq_norms[cols], model.denoms[cols]


def _fitness(rows: np.ndarray, scan: tuple[np.ndarray, ...], population: int) -> tuple[np.ndarray, np.ndarray]:
    """Fitness and nearest chromosome (model index) of each of the (M, n)
    rows, scanning the chromosomes `_gather` gave, at most
    max(population, _BLOCK_ELEMENTS // kept) rows per call."""
    cols, centroids, sq_norms, denoms = scan
    step = max(population, _BLOCK_ELEMENTS // cols.size)
    fitness = np.empty(rows.shape[0])
    nearest = np.empty(rows.shape[0], dtype=np.intp)
    for lo in range(0, rows.shape[0], step):
        part = slice(lo, lo + step)
        fitness[part], nearest[part] = kernels.batch_fitness(rows[part], centroids, sq_norms, denoms)
    return fitness, cols[nearest]


def _search(
    x: np.ndarray,
    rngs: Sequence[np.random.Generator],
    model: ChromosomeModel,
    params: GaParams,
) -> list[Prediction]:
    """Classify the (R, n) normalized records x, record r drawing from rngs[r]."""
    sizes = schedule(params)
    count, n = x.shape
    tape = draw_tape(rngs, params, n)
    genes = initialize_population(x, tape.init_gates, tape.init_noise, params.mutation_rate)
    swaps, hits = decide(tape, params)
    paired = np.repeat(swaps.any(axis=2), 2, axis=1)
    lower, upper = kernels.record_bounds(x, model.centroids, model.sq_norms)
    delta = kernels.reach(genes, x)
    # The held columns as a mask; np.union1d would import numpy.ma, about
    # 20 ms of a fresh process.
    kept = np.zeros(model.centroids.shape[0], dtype=bool)
    kept[kernels.candidate_columns(delta, lower, upper, model.denoms, n)] = True
    scan = _gather(kept, model)
    fitness, nearest = _fitness(genes.reshape(-1, n), scan, sizes[0])
    fitness, nearest = fitness.reshape(count, -1), nearest.reshape(count, -1)
    pair = row = 0
    for size in sizes[1:]:
        genes, fitness, nearest = select(genes, fitness, nearest, params.removal_fraction)
        pairs = slice(pair, pair + size // 2)
        crossover(genes, swaps[:, pairs])
        rows = slice(row, row + size)
        mutate(genes, hits[:, rows], tape.loci[:, rows], tape.deltas[:, rows])
        changed = hits[:, rows].copy()
        changed[:, : 2 * (size // 2)] |= paired[:, 2 * pairs.start : 2 * pairs.stop]
        pair, row = pairs.stop, rows.stop
        grown = kernels.reach(genes, x)
        wider = (grown > delta)[:, 0]
        if wider.any():
            delta[wider] = grown[wider]
            kept[kernels.candidate_columns(delta[wider], lower[wider], upper[wider], model.denoms, n)] = True
            scan = _gather(kept, model)
        fitness[changed], nearest[changed] = _fitness(genes[changed], scan, sizes[0])

    predictions = []
    for r, best in enumerate(fitness.argmin(axis=1)):
        label = model.labels[nearest[r, best]]
        predictions.append(
            Prediction(
                attack_name=label,
                category=model.category_of[label],
                survivor_fitness=float(fitness[r, best]),
                generations_run=len(sizes),
            )
        )
    return predictions


def detect(
    record: ConnectionRecord,
    model: ChromosomeModel,
    params: GaParams,
    rng: np.random.Generator | None = None,
) -> Prediction:
    """Classify one record by shrinking a mutated population to a survivor."""
    if rng is None:
        rng = record_rng(params.seed, 0)
    x = model.normalization.transform(record.features[None, :])
    return _search(x, [rng], model, params)[0]


# -- batch execution ---------------------------------------------------------

# Each kernel call scores at most max(_BLOCK_ELEMENTS, P * K) row-chromosome
# pairs: rows times kept chromosomes, or one population's P * K when a
# single population keeps more.
_BLOCK_ELEMENTS = 2**14

# Bytes a block may hold for its records; _block_records divides it by
# what one record holds.
_BLOCK_BYTES = 2**21


def _block_records(params: GaParams, n: int, k: int) -> int:
    """R, the records per block, the unit of work of the serial path and of
    each worker's share. A record holds its tape (2 (P-1) n + 2 C + 3 M
    values), four arrays of its genes' size (the genes, `reach`'s
    difference, and `batch_fitness`'s two (rows, n) gathers when one call
    scores the whole block) and 3 K bound values (the two (R, K) rows the
    block keeps, and one more while they are computed).

    The count tracks the peak of the arrays a block allocates (tracemalloc,
    seed 5): about 60 KB per record at K = 29 and 190 KB at K = 4,995,
    against 62 and 181 KB counted. With P = 32, R is 33 at a few dozen
    chromosomes, 30 at K = 331, 19 at K = 1,916 and 11 at K = 5,000."""
    init, pairs, rows = _tape_widths(params, n)
    per_record = 8 * (2 * init + 2 * pairs + 3 * rows + 4 * params.population_size * n + 3 * k)
    return max(1, _BLOCK_BYTES // per_record)


def _detect_block(
    model: ChromosomeModel, params: GaParams, features: np.ndarray, block: range
) -> list[Prediction]:
    """The batch's records in `block`, searched as one block."""
    x = model.normalization.transform(features[block.start : block.stop])
    return _search(x, [record_rng(params.seed, i) for i in block], model, params)


def run_batch(
    records: Dataset, model: ChromosomeModel, params: GaParams, workers: int = 1
) -> list[Prediction]:
    """Detect every record, in blocks of R records mapped over `workers`
    processes (`parallel.map_tasks`). Per-record RNG streams make the
    result identical for any worker count."""
    step = _block_records(params, model.centroids.shape[1], model.centroids.shape[0])
    blocks = [range(lo, min(lo + step, len(records))) for lo in range(0, len(records), step)]
    parts = parallel.map_tasks(partial(_detect_block, model, params, records.features), blocks, workers)
    return [p for part in parts for p in part]
