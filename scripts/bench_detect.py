#!/usr/bin/env python3
"""In-process serial `run_batch` per record on two source trees, alternating.

    git archive <parent-commit> | tar -x -C /tmp/parent
    python3 scripts/bench_detect.py --parent /tmp/parent --change . \\
        --seed 5 --pairs 10 --out BENCH_detect.json

The workloads are the three of perfbench/run.py, their files written by
kddgen from --seed, and `gaids synth` models at K of about 5, 50, 500 and
5,000: five clusters of K/5 training points each (noise sigma 0.3, so
nearly every point trains its own chromosome) and 200 test records drawn
the same way from seed + 1. Each model is trained once, by the change tree,
and both trees detect on the same model file.

Every pair runs one child per side and workload, the side that goes first
alternating from pair to pair; an untimed pair 0 fills the file cache. A
child is a fresh interpreter on its tree's `src` with OpenBLAS on one thread,
as the `gaids` commands run. It loads the model and the test file, runs
`engine.run_batch` once untimed, then --repeats times, and reports the best
time per record. It then counts, untimed: the tracemalloc peak of one
more `engine.run_batch` call (peak_block_bytes, what the engine's 2 MiB
block budget is to bound), and, in one pass with counting wrappers around
`kernels.batch_fitness`, `kernels.candidate_columns` and `engine._search`,
records per block (R), blocks, kernel calls, rows scored, kept columns per
call and keep-set computations per block.

The two trees must give the same predictions; a difference exits 1. Reports
each side's median and quartiles of the per-child best times, the pairs each
side won and whether that counts as a gain (harness.compare), the counters,
and K = 5,000 against K = 50 on each side.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
from harness import SIDES, quartiles

# The synth grid: target K -> training points per cluster (five clusters).
SYNTH_K = {5: 1, 50: 10, 500: 100, 5000: 1000}
SYNTH_SIGMA = 0.3
SYNTH_TEST_PER_CLUSTER = 40

# Writes the synth grid's files beside the workloads' files in a directory,
# trains a model from every training file there and prints, as JSON, each
# model's K and test record count.
WRITE_MODELS = """\
import json, sys
from gaids import ingest, model, synth
out, seed, strict = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
grid, sigma, tests = json.loads(sys.argv[4]), float(sys.argv[5]), int(sys.argv[6])
for k, per in grid.items():
    for part, points, s in (("train", per, seed), ("test", tests, seed + 1)):
        with open(f"{out}/synth-K{k}.{part}", "w") as fh:
            fh.write("\\n".join(synth.generate_lines(5, points, 0.5, sigma, s)) + "\\n")
    strict[f"synth-K{k}"] = True
shapes = {}
for name in strict:
    records, _ = ingest.load_file(f"{out}/{name}.train", strict=strict[name])
    trained = model.precalculate(records, 0.125, ingest.fit_normalization(records))
    model.save_model(trained, f"{out}/{name}.model")
    with open(f"{out}/{name}.test") as fh:
        shapes[name] = {"K": trained.centroids.shape[0], "test_records": sum(1 for _ in fh)}
print(json.dumps(shapes))
"""

# One side's timing of one workload: argv is the model, the test file and
# the timed repeats. Prints one JSON object.
TIMER = """\
import hashlib, json, statistics, sys, time, tracemalloc
from gaids import engine, kernels
from gaids.ingest import load_file
from gaids.model import load_model
model = load_model(sys.argv[1])
data, _ = load_file(sys.argv[2])
params = engine.GaParams()
preds = engine.run_batch(data, model, params)
times = []
for _ in range(int(sys.argv[3])):
    start = time.perf_counter()
    engine.run_batch(data, model, params)
    times.append(time.perf_counter() - start)
tracemalloc.start()
engine.run_batch(data, model, params)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
blocks, calls, keeps = [], [], [0]
fitness, keep, search = kernels.batch_fitness, kernels.candidate_columns, engine._search
def counted_fitness(genes, centroids, *rest):
    calls.append((genes.shape[0], centroids.shape[0]))
    return fitness(genes, centroids, *rest)
def counted_keep(*args):
    keeps[0] += 1
    return keep(*args)
def counted_search(x, *rest):
    blocks.append(x.shape[0])
    return search(x, *rest)
kernels.batch_fitness, kernels.candidate_columns, engine._search = counted_fitness, counted_keep, counted_search
engine.run_batch(data, model, params)
kept = [c for _, c in calls]
print(json.dumps({
    "ms_per_record": min(times) * 1e3 / len(data),
    "digest": hashlib.sha256(repr([(p.attack_name, p.survivor_fitness) for p in preds]).encode()).hexdigest()[:16],
    "counts": {
        "R": max(blocks), "blocks": len(blocks), "peak_block_bytes": peak, "kernel_calls": len(calls),
        "rows_scored": sum(r for r, _ in calls), "pairs_scanned": sum(r * c for r, c in calls),
        "kept_columns_per_call": {"median": statistics.median(kept), "max": max(kept)},
        "keep_sets_per_block": round(keeps[0] / len(blocks), 3),
    },
}))
"""


def main() -> int:
    parser = harness.pair_parser(__doc__, "BENCH_detect.json", seed=5, pairs_help="timed pairs per workload",
                                 marker="src/gaids/engine.py")
    parser.add_argument("--repeats", type=harness.at_least(1, "for a best time"), default=5,
                        help="timed run_batch calls per child")
    args = parser.parse_args()
    # The children time gaids.engine without gaids.cli, which would set this.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        flags = harness.write_workloads(args.change, tmp, args.seed)
        strict = {name: not f["lenient"] for name, f in flags.items()}
        written = subprocess.run(
            [sys.executable, "-c", WRITE_MODELS, tmpdir, str(args.seed), json.dumps(strict),
             json.dumps(SYNTH_K), str(SYNTH_SIGMA), str(SYNTH_TEST_PER_CLUSTER)],
            env=harness.tree_env(args.change / "src"), capture_output=True, text=True, check=True)
        shapes = json.loads(written.stdout)
        names = sorted(shapes)
        runs: dict = {name: {side: [] for side in SIDES} for name in names}
        for pair, (timed, order) in enumerate(harness.alternating(args.pairs)):
            for name in names:
                for side in order:
                    done = subprocess.run(
                        [sys.executable, "-c", TIMER, str(tmp / f"{name}.model"), str(tmp / f"{name}.test"),
                         str(args.repeats)], env=harness.tree_env(getattr(args, side) / "src"),
                        capture_output=True, text=True, check=True)
                    if timed:
                        runs[name][side].append(json.loads(done.stdout))
            print(f"pair {pair} done", file=sys.stderr, flush=True)

    errors = []
    report = harness.header(
        "in-process serial engine.run_batch per record on the parent and the change, "
        "best of --repeats calls per child, children in alternating pairs; counts from "
        "one extra pass with counting wrappers", args,
        synth=f"5 clusters of K/5 training points, separation 0.5, noise sigma {SYNTH_SIGMA}, "
              f"{5 * SYNTH_TEST_PER_CLUSTER} test records from seed + 1",
        workloads={})
    times = {name: {side: [r["ms_per_record"] for r in runs[name][side]] for side in SIDES} for name in names}
    for name in names:
        entry = dict(shapes[name])
        if len({r["digest"] for side in SIDES for r in runs[name][side]}) != 1:
            errors.append(f"{name}: the two trees gave other predictions")
        for side in SIDES:
            entry[side] = {"ms_per_record": quartiles(times[name][side], 1, 4), "counts": runs[name][side][0]["counts"]}
        report["workloads"][name] = entry | harness.compare(times[name]["parent"], times[name]["change"],
                                                            won="faster")
    report["K5000_over_K50_median"] = {side: round(statistics.median(times["synth-K5000"][side])
                                                   / statistics.median(times["synth-K50"][side]), 3) for side in SIDES}
    print(json.dumps(report["workloads"], indent=1))
    return harness.finish(report, errors, args.out)


if __name__ == "__main__":
    sys.exit(main())
