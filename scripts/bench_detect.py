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
time per record. It then runs one more pass with counting wrappers around
`kernels.batch_fitness`, `kernels.candidate_columns` and `engine._search`:
records per block (R), blocks, kernel calls, rows scored, kept columns per
call and keep-set computations per block.

The two trees must give the same predictions; a difference exits 1. Reports
each side's median and quartiles of the per-child best times, the pairs each
side won, the counters, and K = 5,000 against K = 50 on each side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_fixed_cost import SIDES, host, quartiles  # noqa: E402

# The synth grid: target K -> training points per cluster (five clusters).
SYNTH_K = {5: 1, 50: 10, 500: 100, 5000: 1000}
SYNTH_SIGMA = 0.3
SYNTH_TEST_PER_CLUSTER = 40

# Writes each workload's model and test file into a directory and prints, as
# JSON, the numpy version and each workload's K and test record count.
WRITE_FILES = """\
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import numpy, kddgen
from run import WORKLOADS
from gaids import ingest, model, synth
out, seed, grid, sigma, tests = sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4]), float(sys.argv[5]), int(sys.argv[6])
def write(path, lines):
    with open(path, "w") as fh:
        fh.write("\\n".join(lines) + "\\n")
files = {}
for name, wl in WORKLOADS.items():
    data = kddgen.generate(wl.spec, seed=seed)
    files[name] = (data.train_lines, data.test_lines, not wl.lenient)
for k, per in grid.items():
    train = synth.generate_lines(5, per, 0.5, sigma, seed)
    files[f"synth-K{k}"] = (train, synth.generate_lines(5, tests, 0.5, sigma, seed + 1), True)
shapes = {}
for name, (train, test, strict) in files.items():
    write(f"{out}/{name}.train", train)
    write(f"{out}/{name}.test", test)
    records, _ = ingest.load_file(f"{out}/{name}.train", strict=strict)
    trained = model.precalculate(records, 0.125, ingest.fit_normalization(records))
    model.save_model(trained, f"{out}/{name}.model")
    shapes[name] = {"K": trained.centroids.shape[0], "test_records": len(test)}
print(json.dumps({"numpy": numpy.__version__, "workloads": shapes}))
"""

# One side's timing of one workload: argv is the model, the test file and
# the timed repeats. Prints one JSON object.
TIMER = """\
import hashlib, json, statistics, sys, time
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
        "R": max(blocks), "blocks": len(blocks), "kernel_calls": len(calls),
        "rows_scored": sum(r for r, _ in calls), "pairs_scanned": sum(r * c for r, c in calls),
        "kept_columns_per_call": {"median": statistics.median(kept), "max": max(kept)},
        "keep_sets_per_block": round(keeps[0] / len(blocks), 3),
    },
}))
"""


def run_timer(src: Path, files: dict[str, Path], repeats: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", TIMER, str(files["model"]), str(files["test"]), str(repeats)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", default=str(ROOT), help="source tree of the change")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs per workload")
    parser.add_argument("--repeats", type=int, default=5, help="timed run_batch calls per child")
    parser.add_argument("--out", default=str(ROOT / "BENCH_detect.json"))
    args = parser.parse_args()
    if args.pairs < 4:
        parser.error("--pairs must be at least 4, for quartiles")
    src = {side: Path(getattr(args, side)).resolve() / "src" for side in SIDES}
    for side, path in src.items():
        if not (path / "gaids" / "engine.py").is_file():
            parser.error(f"--{side}: no gaids source tree at {path}")

    errors = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        written = subprocess.run(
            [sys.executable, "-c", WRITE_FILES, str(Path(args.change).resolve()), tmpdir, str(args.seed),
             json.dumps(SYNTH_K), str(SYNTH_SIGMA), str(SYNTH_TEST_PER_CLUSTER)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, check=True)
        setup = json.loads(written.stdout)
        names = sorted(setup["workloads"])
        runs: dict = {name: {side: [] for side in SIDES} for name in names}
        for pair in range(args.pairs + 1):  # pair 0 fills the file cache, untimed
            for name in names:
                files = {part: tmp / f"{name}.{part}" for part in ("model", "test")}
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    result = run_timer(src[side], files, args.repeats)
                    if pair:
                        runs[name][side].append(result)
            print(f"pair {pair} done", file=sys.stderr, flush=True)

    report = {
        "what": "in-process serial engine.run_batch per record on the parent and the change, "
                "best of --repeats calls per child, children in alternating pairs; counts from "
                "one extra pass with counting wrappers",
        "command": f"python3 scripts/bench_detect.py --parent PARENT --change CHANGE --seed {args.seed} "
                   f"--pairs {args.pairs} --repeats {args.repeats}",
        "host": host(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": setup["numpy"],
        "openblas_threads": 1,
        "seed": args.seed,
        "synth": f"5 clusters of K/5 training points, separation 0.5, noise sigma {SYNTH_SIGMA}, "
                 f"{5 * SYNTH_TEST_PER_CLUSTER} test records from seed + 1",
        "workloads": {},
    }
    medians = {}
    for name in names:
        entry = dict(setup["workloads"][name])
        side_runs = runs[name]
        if len({r["digest"] for side in SIDES for r in side_runs[side]}) != 1:
            errors.append(f"{name}: the two trees gave other predictions")
        for side in SIDES:
            times = [r["ms_per_record"] for r in side_runs[side]]
            entry[side] = {"ms_per_record": quartiles(times, 1, 4), "counts": side_runs[side][0]["counts"]}
            medians[name, side] = statistics.median(times)
        pairs = list(zip(*(side_runs[side] for side in SIDES)))
        entry["pairs"] = len(pairs)
        entry["pairs_change_faster"] = sum(c["ms_per_record"] < p["ms_per_record"] for p, c in pairs)
        entry["pairs_parent_faster"] = sum(p["ms_per_record"] < c["ms_per_record"] for p, c in pairs)
        entry["change_over_parent_median"] = round(medians[name, "change"] / medians[name, "parent"], 3)
        report["workloads"][name] = entry
    report["K5000_over_K50_median"] = {
        side: round(medians["synth-K5000", side] / medians["synth-K50", side], 3) for side in SIDES}
    report["errors"] = errors
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["workloads"], indent=1))
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
