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
`run_batch` cuts a batch into equal blocks once, and every share of a
`--workers` run carries whole blocks.

The draw tape. All randomness flows through numpy's PCG64. Record i of a
batch has its own stream PCG64(seed XOR i), so output is identical for any
worker count and any block size. A record's tape is every value of four
generator calls on its stream, whether or not the search uses it. With n
features, generation sizes s_0 = P, s_1, ..., s_{G-1}, and the crossover
and mutation steps run at sizes s_1..s_{G-1} (after each select), write
C = sum(s_g // 2) and M = sum(s_g) over g = 1..G-1. In draw order:

- uniforms = random((P-1)*n + C + M): the initial gene gates of rows
  1..P-1 (row-major), then one crossover gate per pair, then one mutation
  gate per row;
- normals = standard_normal((P-1)*n + M), scaled by mutation_sigma: the
  initial gene noise of rows 1..P-1, then one mutation delta per row;
- cuts = integers(1, n, C): one crossover cut per pair;
- loci = integers(0, n, M): one mutated gene index per row.

Within the crossover and mutation sections the values run generation by
generation, then pair by pair (row by row).

`populate` draws these values with other calls and holds less of them. A
split call draws what the whole call does, as a double and a normal carry
no state from one value to the next. The initial gates go to one scratch
row that every record reuses and leave a mask of the genes that keep
their record's value; the initial noise goes straight into the record's
gene rows 1..P-1. The cuts and loci come from one
`random_raw(ceil((C + M) / 2))` call. numpy's rule (Lemire's) for an
integer of a span below 2**32 takes a 32-bit half h of a 64-bit word, the
low half first, and returns (h * span) >> 32, with span n - 1 for a cut
and n for a locus. It rejects h when (h * span) mod 2**32 is below
2**32 mod span (7 and 6 at n = 38, about one half in 6 * 10^8) and draws
another half, which moves every later value. So `_bounded` converts the
halves of the whole block at once, and a record with a rejected half
rewinds its stream by the words it drew and draws its cuts and loci
through `Generator.integers`, as the four calls do. Below n = 3 a span of
1 draws no half, and every record takes that path.
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
    """What a block's generation loop reads of its records' tapes, one row
    per record, as the sections of the layout the module docstring gives.
    With R records, C pairs and M rows: pair_gates and cuts are (R, C);
    row_gates, loci and deltas (R, M)."""

    pair_gates: np.ndarray
    cuts: np.ndarray
    row_gates: np.ndarray
    loci: np.ndarray
    deltas: np.ndarray


def _tape_widths(params: GaParams, n: int) -> tuple[int, int, int]:
    """(P-1)*n initial gene draws, C pairs and M rows of one record's tape."""
    sizes = schedule(params)
    return (sizes[0] - 1) * n, sum(s // 2 for s in sizes[1:]), sum(sizes[1:])


def _bounded(words: np.ndarray, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's rule for integers of a span below 2**32 (Lemire's), on the
    32-bit halves of the (R, W) 64-bit words, low half first: the first
    len(spans) halves h give (h * span) >> 32. Also returns which records
    have a half whose (h * span) mod 2**32 is below 2**32 mod span, where
    the rule rejects the half and draws another."""
    halves = np.empty((words.shape[0], 2 * words.shape[1]), dtype=np.uint64)
    np.bitwise_and(words, 0xFFFFFFFF, out=halves[:, 0::2])
    np.right_shift(words, 32, out=halves[:, 1::2])
    scaled = halves[:, : spans.size]
    scaled *= spans
    rejected = ((scaled & 0xFFFFFFFF) < 2**32 % spans).any(axis=1)
    scaled >>= 32
    return scaled.astype(np.intp), rejected


def populate(x: np.ndarray, rngs: Sequence[np.random.Generator], params: GaParams) -> tuple[np.ndarray, Tape]:
    """Draw the tape of each record of x (R, n) from its own stream, and
    build generation 0: (R, P, n) genes whose row 0 is the record and where,
    in rows 1..P-1, a gene whose gate is below mutation_rate becomes
    clip(x + noise, 0, 1). Returns the genes and the rest of the tape."""
    count, n = x.shape
    init, pairs, rows = _tape_widths(params, n)
    words = -(-(pairs + rows) // 2)
    # numpy raises ValueError for a shape whose byte count overflows a
    # signed size; report it as the allocation failure it is.
    if count * params.population_size * n > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {count} x {params.population_size} x {n} float64 genes")
    genes = np.empty((count, params.population_size, n))
    held = np.empty((count, init), dtype=bool)
    gates = np.empty((count, pairs + rows))
    deltas = np.empty((count, rows))
    raw = np.empty((count, words), dtype=np.uint64)
    uniforms = np.empty(init)
    noise = genes.reshape(count, -1)[:, n:]
    for i, rng in enumerate(rngs):
        rng.random(out=uniforms)
        np.greater_equal(uniforms, params.mutation_rate, out=held[i])
        rng.random(out=gates[i])
        rng.standard_normal(out=noise[i])
        rng.standard_normal(out=deltas[i])
        raw[i] = rng.bit_generator.random_raw(words)
    copies = genes[:, 1:]
    # A huge sigma overflows to +-inf, which the clip maps to 1 or 0.
    with np.errstate(over="ignore"):
        copies *= params.mutation_sigma
        deltas *= params.mutation_sigma
    copies += x[:, None, :]
    np.clip(copies, 0.0, 1.0, out=copies)
    np.copyto(copies, x[:, None, :], where=held.reshape(copies.shape))
    genes[:, 0] = x

    if n > 2:
        values, rejected = _bounded(raw, np.repeat(np.array([n - 1, n], dtype=np.uint64), [pairs, rows]))
    else:  # numpy's rule draws no word for a span below 2
        values, rejected = np.zeros((count, pairs + rows), dtype=np.intp), np.ones(count, dtype=bool)
    cuts, loci = values[:, :pairs] + 1, values[:, pairs:]
    for i in np.flatnonzero(rejected):
        rng = rngs[i]
        rng.bit_generator.advance(-words)
        cuts[i] = rng.integers(1, n, pairs)
        loci[i] = rng.integers(0, n, rows)
    return genes, Tape(gates[:, :pairs], cuts, gates[:, pairs:], loci, deltas)


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


def decide(tape: Tape, params: GaParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every crossover and mutation decision of a block, made once from its
    tape: (R, C, n) swap masks, where a pair whose gate is below
    crossover_rate exchanges its n genes from its cut on, and (R, M) hits,
    the rows whose gate is below mutation_rate."""
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
    their centroids, squared norms, denominators and fitness weights."""
    cols = np.flatnonzero(kept)
    denoms = model.denoms[cols]
    weights = kernels.fitness_weights(denoms, model.centroids.shape[1])
    return cols, model.centroids[cols], model.sq_norms[cols], denoms, weights


def _fitness(rows: np.ndarray, scan: tuple[np.ndarray, ...], population: int) -> tuple[np.ndarray, np.ndarray]:
    """Fitness and nearest chromosome (model index) of each of the (M, n)
    rows, scanning the chromosomes `_gather` gave, at most
    max(population, _BLOCK_ELEMENTS // kept) rows per call."""
    cols, *columns = scan
    step = max(population, _BLOCK_ELEMENTS // cols.size)
    fitness = np.empty(rows.shape[0])
    nearest = np.empty(rows.shape[0], dtype=np.intp)
    for lo in range(0, rows.shape[0], step):
        part = slice(lo, lo + step)
        fitness[part], nearest[part] = kernels.batch_fitness(rows[part], *columns)
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
    genes, tape = populate(x, rngs, params)
    swaps, hits = decide(tape, params, n)
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
    each worker's share. A record holds 8-byte values: its genes and one
    more array of their size (`batch_fitness`'s gather of the rows it
    scores, when one call scores the whole block), 3 (C + M) of its tape
    (the gates, and the cuts and loci with a copy of the cuts), M mutation
    deltas and 4 K bound values (the two (R, K) rows the block keeps, and
    two more while `kernels.record_bounds` computes them); and C n bytes
    of swap masks. The tape's initial gates and noise are not held: they
    go into the genes as they are drawn (`populate`).

    The count tracks the peak of the arrays a block allocates (tracemalloc,
    seed 5): a block of R records peaks at 2.06 MB on few-prototypes
    (K = 29), 1.80 MB on kdd-train (K = 331), 1.84 MB on many-prototypes
    (K = 1,916) and 1.93 MB at K = 4,995. Past a fixed part (the kernel's
    (K, rows) arrays and its gather, both capped per call), that is about
    15 KB a record at K = 29 and 175 KB at K = 4,995, against 27 and
    191 KB counted. With P = 32, R is 78 at a few dozen chromosomes, 57 at
    K = 331, 24 at K = 1,916 and 11 at K = 5,000."""
    _, pairs, rows = _tape_widths(params, n)
    values = 2 * params.population_size * n + 3 * (pairs + rows) + rows + 4 * k
    return max(1, _BLOCK_BYTES // (8 * values + pairs * n))


def _detect_block(
    model: ChromosomeModel, params: GaParams, features: np.ndarray, block: range
) -> list[Prediction]:
    """The batch's records in `block`, searched as one block."""
    x = model.normalization.transform(features[block.start : block.stop])
    return _search(x, [record_rng(params.seed, i) for i in block], model, params)


def run_batch(
    records: Dataset, model: ChromosomeModel, params: GaParams, workers: int = 1
) -> list[Prediction]:
    """Detect every record, in equal blocks of at most R records mapped
    over `workers` processes (`parallel.map_tasks`). A batch of more than
    one block is cut into a multiple of the processes the map runs, so that
    the shares are equal. Per-record RNG streams make the result identical
    for any worker count."""
    count = len(records)
    blocks = -(-count // _block_records(params, model.centroids.shape[1], model.centroids.shape[0]))
    if blocks > 1:
        processes = min(workers, parallel.available_cpus())
        blocks = min(count, -(-blocks // processes) * processes)
    tasks = [range(count * b // blocks, count * (b + 1) // blocks) for b in range(blocks)]
    parts = parallel.map_tasks(partial(_detect_block, model, params, records.features), tasks, workers)
    return [p for part in parts for p in part]
