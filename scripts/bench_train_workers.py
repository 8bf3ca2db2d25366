#!/usr/bin/env python3
"""Training at --workers 1 against --workers 2, alternating, on the benchmark's
workload files.

    python3 scripts/bench_train_workers.py --seed 5 --rounds 10 --out BENCH_train_workers.json

For each workload of perfbench/run.py it generates the files of --seed, loads
the training file as `gaids train` does, and times in-process
`model.precalculate` at workers 1 and 2, --rounds pairs, alternating which runs
first. On few-prototypes it also times the `gaids train` child (a fresh
interpreter on this source tree, started from a small launcher and timed
with os.wait4, which also gives its peak RSS) at --workers 1 and 2.
Every run's model file must match the workers-1 file byte for byte, and every
child's stdout the first child's; a mismatch exits 1. Reports each side's
median and quartiles, and the pairs that workers 2 won. OpenBLAS runs one
thread, as in `gaids`: training calls a matmul in forked children, which
runs several times slower when OpenBLAS's threads were started before the
fork.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import ROOT

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import GAIDS_CLI  # noqa: E402

from gaids import engine, ingest, model  # noqa: E402

WORKERS = (1, 2)
CHILD_WORKLOAD = "few-prototypes"


def summary(times: dict[int, list[float]]) -> dict:
    """Median and quartiles of each side in ms, and the pairs workers 2 won."""
    out = {f"workers_{w}_ms": harness.quartiles(ts, 1e3, 2) for w, ts in times.items()}
    out |= harness.compare(times[1], times[2], names=("workers_1", "workers_2"), won="faster")
    out["speedup_of_medians"] = round(statistics.median(times[1]) / statistics.median(times[2]), 3)
    return out


def time_precalculate(records, stats, rounds: int, tmp: Path) -> tuple[dict, list[str]]:
    merge_range = engine.GaParams().range
    reference = tmp / "reference.model"
    model.save_model(model.precalculate(records, merge_range, stats), reference)
    times: dict[int, list[float]] = {w: [] for w in WORKERS}
    errors = []
    for _, order in harness.alternating(rounds, WORKERS, warmup=False):
        for w in order:
            start = time.perf_counter()
            trained = model.precalculate(records, merge_range, stats, workers=w)
            times[w].append(time.perf_counter() - start)
            path = tmp / f"workers-{w}.model"
            model.save_model(trained, path)
            if path.read_bytes() != reference.read_bytes():
                errors.append(f"precalculate(workers={w}) saved other bytes than workers=1")
    return summary(times), errors


def time_child(train: Path, lenient: bool, rounds: int, tmp: Path) -> tuple[dict, list[str]]:
    """The `gaids train` child at each --workers, started from harness.py's
    launcher: os.wait4's peak RSS counts the RSS of the process that started
    the child, and this script holds numpy and the workload's data."""
    runs: dict[int, list[dict]] = {w: [] for w in WORKERS}
    outputs, errors = set(), []
    for timed, order in harness.alternating(rounds, WORKERS):
        for w in order:
            path, stdout = tmp / f"child-{w}.model", tmp / "stdout"
            argv = [sys.executable, "-c", GAIDS_CLI, "train", "--train-file", str(train),
                    "--model", str(path), "--workers", str(w)] + (["--lenient"] if lenient else [])
            launched = subprocess.run([sys.executable, harness.__file__, str(stdout), *argv],
                                      env=harness.tree_env(SRC), capture_output=True, text=True, check=True)
            child = json.loads(launched.stdout)
            outputs.add((stdout.read_text(), hashlib.sha256(path.read_bytes()).hexdigest()))
            if child["code"] != 0:
                errors.append(f"gaids train --workers {w} exited {child['code']}")
            if timed:
                runs[w].append(child)
    if len(outputs) != 1:
        errors.append("gaids train wrote other stdout or model bytes at another --workers")
    peak = {f"workers_{w}_peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs[w]), 1) for w in WORKERS}
    return summary({w: [r["wall_s"] for r in runs[w]] for w in WORKERS}) | peak, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rounds", type=harness.at_least(4, "for quartiles"), default=10,
                        help="timed pairs per measurement")
    parser.add_argument("--out", default=str(ROOT / "BENCH_train_workers.json"))
    args = parser.parse_args()

    report = harness.header("model.precalculate in-process, and the `gaids train` child on "
                            f"{CHILD_WORKLOAD}, at --workers 1 and 2; times in ms, pairs alternate "
                            "which side runs first", args, workloads={})
    errors = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for name, flags in sorted(harness.write_workloads(ROOT, tmp, args.seed).items()):
            train = tmp / f"{name}.train"
            records, _ = ingest.load_file(train, strict=not flags["lenient"])
            labels = sorted(set(records.attack_names), key=records.attack_names.count, reverse=True)
            entry = {"train_records": len(records), "labels": len(labels),
                     "largest_label_share": round(records.attack_names.count(labels[0]) / len(records), 3)}
            entry["precalculate"], errs = time_precalculate(records, ingest.fit_normalization(records),
                                                            args.rounds, tmp)
            errors += [f"{name}: {e}" for e in errs]
            if name == CHILD_WORKLOAD:
                entry["gaids_train_child"], errs = time_child(train, flags["lenient"], args.rounds, tmp)
                errors += [f"{name}: {e}" for e in errs]
            report["workloads"][name] = entry
            print(name, json.dumps(entry), flush=True)
    return harness.finish(report, errors, args.out)


if __name__ == "__main__":
    sys.exit(main())
