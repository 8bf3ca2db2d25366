#!/usr/bin/env python3
"""Per-record cost of training's direct and screened nearest-chromosome scan
against the label's chromosome count K: the sweep behind model.SCREEN_ROWS.

    python3 scripts/bench_train_scan.py --seed 5 --rounds 9 --out BENCH_train_scan.json

It trains the many-prototypes workload of perfbench/run.py on the files of
--seed and takes its largest label's chromosomes, in the order they were
made, and that label's first --queries normalized records. For each K of the
grid it times `kernels.nearest_centroid` over those records against the first
K chromosomes, directly and screened with the rows' squared norms. Each of
--rounds rounds runs the whole grid, alternating which side runs first. The screened side also pays what
training pays to keep a norm after a merge (one dot product a record). Every
screened (index, distance) must equal the direct one; a mismatch exits 1.
Reports each side's median in us per record, the median over rounds of
direct over screened, the rounds the screen won, and the smallest K of the
grid from which the screen wins at every larger K.

It also trains every workload on each --census seed and reports the most
chromosomes any one label reaches, which tells on which side of SCREEN_ROWS
each workload's labels fall. OpenBLAS runs one thread, as in `gaids`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import kddgen  # noqa: E402
from run import WORKLOADS  # noqa: E402

from gaids import engine, ingest, kernels, model  # noqa: E402

GRID = (8, 16, 32, 64, 96, 128, 160, 176, 192, 208, 224, 256, 320, 384, 512, 876)
SWEEP_WORKLOAD = "many-prototypes"


def train(name: str, seed: int, tmp: Path):
    """The workload's training records of `seed` and the model they train."""
    wl = WORKLOADS[name]
    path = tmp / f"{name}-{seed}.train"
    kddgen.write_lines(path, kddgen.generate(wl.spec, seed=seed).train_lines)
    records, _ = ingest.load_file(path, strict=not wl.lenient)
    stats = ingest.fit_normalization(records)
    return records, stats, model.precalculate(records, engine.GaParams().range, stats)


def direct(queries, centroids, norms):
    return [kernels.nearest_centroid(x, centroids) for x in queries]


def screened(queries, centroids, norms):
    out = []
    for x in queries:
        idx, d = kernels.nearest_centroid(x, centroids, norms)
        row = centroids[idx]
        norms[idx] = row @ row
        out.append((idx, d))
    return out


def sweep(centroids: np.ndarray, queries: np.ndarray, rounds: int) -> tuple[list[dict], list[str]]:
    """Each round times every K of the grid, both sides back to back, so that
    a change in the host's speed falls on both sides of a K alike."""
    grid = [k for k in GRID if k <= centroids.shape[0]]
    cases = {}
    for k in grid:
        c = np.ascontiguousarray(centroids[:k])
        cases[k] = (c, np.einsum("ij,ij->i", c, c))
    times = {k: {direct: [], screened: []} for k in grid}
    errors = []
    for r in range(rounds + 1):  # round 0 warms up, untimed
        for k in grid:
            results = {}
            for scan in (direct, screened) if r % 2 else (screened, direct):
                start = time.perf_counter()
                results[scan] = scan(queries, *cases[k])
                if r:
                    times[k][scan].append((time.perf_counter() - start) / len(queries))
            if results[direct] != results[screened]:
                errors.append(f"K={k}: the screened scan returned another index or distance")
    rows = []
    for k in grid:
        ratios = [a / b for a, b in zip(times[k][direct], times[k][screened])]
        us = {scan: statistics.median(ts) * 1e6 for scan, ts in times[k].items()}
        rows.append({"k": k, "direct_us": round(us[direct], 2), "screened_us": round(us[screened], 2),
                     "direct_over_screened": round(statistics.median(ratios), 3),
                     "rounds_screened_faster": sum(ratio > 1 for ratio in ratios)})
        print(json.dumps(rows[-1]), flush=True)
    return rows, sorted(set(errors))


def host() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    except OSError:
        names = []
    return f"{platform.machine()} {names[0] if names else platform.processor()}".strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=9, help="timed rounds per K")
    parser.add_argument("--queries", type=int, default=2000, help="records scanned per round")
    parser.add_argument("--census", type=int, nargs="*", default=[5, 11, 12, 13],
                        help="seeds whose largest label per workload is reported")
    parser.add_argument("--out", default=str(ROOT / "BENCH_train_scan.json"))
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        records, stats, trained = train(SWEEP_WORKLOAD, args.seed, tmp)
        label, _ = Counter(trained.labels).most_common(1)[0]
        rows = [i for i, name in enumerate(records.attack_names) if name == label][: args.queries]
        queries = stats.transform(records.features[rows])
        centroids = next(trained.centroids[rows] for name, _, rows in trained.runs() if name == label)
        table, errors = sweep(centroids, queries, args.rounds)
        crossover = None
        for row in reversed(table):
            if row["direct_over_screened"] <= 1:
                break
            crossover = row["k"]

        census = {}
        for name in sorted(WORKLOADS):
            census[name] = {}
            for seed in args.census:
                counts = Counter(train(name, seed, tmp)[2].labels)
                census[name][str(seed)] = max(counts.values())
            print(name, json.dumps(census[name]), flush=True)

    report = {
        "what": "us per training record of kernels.nearest_centroid against the label's first K "
                f"chromosomes, direct and screened (with the norm kept after a merge), on "
                f"{SWEEP_WORKLOAD}'s largest label; medians over rounds that each run the grid",
        "command": f"python3 scripts/bench_train_scan.py --seed {args.seed} --rounds {args.rounds} "
                   f"--queries {args.queries} --census {' '.join(map(str, args.census))}",
        "host": host(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "label": label,
        "queries": len(queries),
        "screen_rows": model.SCREEN_ROWS,
        "screen_wins_from_k": crossover,
        "sweep": table,
        "largest_label_chromosomes": census,
        "errors": errors,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
