#!/usr/bin/env python3
"""In-process training time and direct-scan share against the number of
records that share one set of distance bounds: the sweep behind
model.BOUND_ROWS.

    python3 scripts/bench_train_bounds.py --seeds 5 11 12 13 --rounds 7 --out BENCH_train_bounds.json

For each workload of perfbench/run.py and each --seeds seed it generates the
training file, loads it as `gaids train` does and fits the normalization.
Each of --rounds rounds then times `model.precalculate` (one process) once at
every block size of the grid, rotating which size runs first. One more
untimed run per size counts the records that reach `kernels.nearest_centroid`
(the direct scan), the fallback share. Every size must save the same model
bytes; a mismatch exits 1.

Reports, per workload and size, each seed's median in ms and fallback share,
and the size whose median time, over the workloads and seeds, is the least
above each one's fastest size (the mean of time / fastest time).
OpenBLAS runs one thread, as in `gaids`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import ROOT

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

from gaids import engine, ingest, kernels, model  # noqa: E402

GRID = (16, 32, 64, 128, 256)


def train(records, stats, rows: int):
    model.BOUND_ROWS = rows
    return model.precalculate(records, engine.GaParams().range, stats)


def fallbacks(records, stats, rows: int, path: Path) -> int:
    """The direct scans one training run makes; saves the model to `path`."""
    calls = 0
    real = kernels.nearest_centroid

    def counted(x, centroids):
        nonlocal calls
        calls += 1
        return real(x, centroids)

    kernels.nearest_centroid = counted
    try:
        model.save_model(train(records, stats, rows), path)
    finally:
        kernels.nearest_centroid = real
    return calls


def sweep(records, stats, rounds: int, tmp: Path) -> tuple[dict, list[str]]:
    """Median ms and fallback share of each block size on one training set."""
    times: dict[int, list[float]] = {rows: [] for rows in GRID}
    for timed, order in harness.alternating(rounds, GRID):
        for rows in order:
            start = time.perf_counter()
            train(records, stats, rows)
            if timed:
                times[rows].append(time.perf_counter() - start)
    out, errors, saved = {}, [], set()
    for rows in GRID:
        path = tmp / f"{rows}.model"
        share = fallbacks(records, stats, rows, path) / len(records)
        saved.add(path.read_bytes())
        out[rows] = {"ms": round(statistics.median(times[rows]) * 1e3, 2), "fallback_share": round(share, 4)}
    if len(saved) != 1:
        errors.append("block sizes saved different models")
    return out, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 11, 12, 13])
    parser.add_argument("--rounds", type=harness.at_least(1, "for a median"), default=7,
                        help="timed runs per size and seed")
    parser.add_argument("--out", default=str(ROOT / "BENCH_train_bounds.json"))
    args = parser.parse_args()

    committed = model.BOUND_ROWS
    results: dict[str, dict[str, dict]] = {}
    errors = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        flags = {seed: harness.write_workloads(ROOT, tmp / str(seed), seed) for seed in args.seeds}
        for name in sorted(flags[args.seeds[0]]):
            results[name] = {}
            for seed in args.seeds:
                records, _ = ingest.load_file(tmp / str(seed) / f"{name}.train", strict=not flags[seed][name]["lenient"])
                table, errs = sweep(records, ingest.fit_normalization(records), args.rounds, tmp)
                errors += [f"{name} seed {seed}: {e}" for e in errs]
                results[name][str(seed)] = table
                print(name, seed, json.dumps(table), flush=True)
    model.BOUND_ROWS = committed

    slowdown = {rows: statistics.mean(
        table[rows]["ms"] / min(row["ms"] for row in table.values())
        for by_seed in results.values() for table in by_seed.values()) for rows in GRID}
    best = min(GRID, key=slowdown.get)
    by_size = {
        str(rows): {
            name: {
                "ms": {seed: table[rows]["ms"] for seed, table in by_seed.items()},
                "fallback_share": {seed: table[rows]["fallback_share"] for seed, table in by_seed.items()},
            }
            for name, by_seed in results.items()
        } | {"mean_time_over_fastest": round(slowdown[rows], 3)}
        for rows in GRID
    }
    report = harness.header(
        "model.precalculate in-process, one process, at each number of records per "
        "bound block (model.BOUND_ROWS): median ms over rounds, and the share of training "
        "records that reach the direct scan, per workload and seed", args,
        bound_rows=committed, best_bound_rows=best, sweep=by_size)
    if best != committed:
        print(f"note: model.BOUND_ROWS is {committed}, the sweep's best is {best}", file=sys.stderr)
    return harness.finish(report, errors, args.out)


if __name__ == "__main__":
    sys.exit(main())
