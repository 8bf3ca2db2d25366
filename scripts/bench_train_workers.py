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
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import kddgen  # noqa: E402
from run import GAIDS_CLI, WORKLOADS  # noqa: E402

from gaids import engine, ingest, model  # noqa: E402

WORKERS = (1, 2)
CHILD_WORKLOAD = "few-prototypes"

# Runs the command argv[2:] with its stdout in the file argv[1], and prints its
# wall time (start to os.wait4), peak RSS and exit code as JSON. Each child
# starts from this small interpreter, not from this script: a child's peak
# RSS, as os.wait4 reports it, counts the RSS of the process that forked it,
# and this script holds numpy and the workload's data.
LAUNCH = """\
import json, os, subprocess, sys, time
with open(sys.argv[1], "w") as out:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                  "code": os.waitstatus_to_exitcode(status)}))
"""


def summary(times: dict[int, list[float]]) -> dict:
    """Median and quartiles of each side in ms, and the pairs workers 2 won."""
    out = {}
    for w, ts in times.items():
        q1, q2, q3 = statistics.quantiles(ts, n=4)
        out[f"workers_{w}_ms"] = {"median": round(q2 * 1e3, 2), "q1": round(q1 * 1e3, 2),
                                  "q3": round(q3 * 1e3, 2)}
    pairs = list(zip(times[1], times[2]))
    out["pairs"] = len(pairs)
    out["pairs_workers_2_faster"] = sum(b < a for a, b in pairs)
    out["speedup_of_medians"] = round(statistics.median(times[1]) / statistics.median(times[2]), 3)
    return out


def orders(rounds: int):
    """The workers values of each round, alternating which runs first."""
    for r in range(rounds):
        yield WORKERS if r % 2 == 0 else WORKERS[::-1]


def time_precalculate(records, stats, rounds: int, tmp: Path) -> tuple[dict, list[str]]:
    merge_range = engine.GaParams().range
    reference = tmp / "reference.model"
    model.save_model(model.precalculate(records, merge_range, stats), reference)
    times: dict[int, list[float]] = {w: [] for w in WORKERS}
    errors = []
    for order in orders(rounds):
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times: dict[int, list[float]] = {w: [] for w in WORKERS}
    peak_mb: dict[int, list[float]] = {w: [] for w in WORKERS}
    outputs, errors = set(), []
    for order in orders(rounds + 1):  # the first round warms the file cache, untimed
        for w in order:
            path, stdout = tmp / f"child-{w}.model", tmp / "stdout"
            argv = [sys.executable, "-c", GAIDS_CLI, "train", "--train-file", str(train),
                    "--model", str(path), "--workers", str(w)] + (["--lenient"] if lenient else [])
            launched = subprocess.run([sys.executable, "-c", LAUNCH, str(stdout), *argv], env=env,
                                      capture_output=True, text=True, check=True)
            child = json.loads(launched.stdout)
            outputs.add((stdout.read_text(), hashlib.sha256(path.read_bytes()).hexdigest()))
            if child["code"] != 0:
                errors.append(f"gaids train --workers {w} exited {child['code']}")
            times[w].append(child["wall_s"])
            peak_mb[w].append(child["peak_rss_mb"])
    for w in WORKERS:  # drop the warm-up round
        times[w], peak_mb[w] = times[w][1:], peak_mb[w][1:]
    if len(outputs) != 1:
        errors.append("gaids train wrote other stdout or model bytes at another --workers")
    result = summary(times)
    result.update({f"workers_{w}_peak_rss_mb": round(statistics.median(peak_mb[w]), 1) for w in WORKERS})
    return result, errors


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
    parser.add_argument("--rounds", type=int, default=10, help="timed pairs per measurement")
    parser.add_argument("--out", default=str(ROOT / "BENCH_train_workers.json"))
    args = parser.parse_args()

    report = {
        "what": "model.precalculate in-process, and the `gaids train` child on "
                f"{CHILD_WORKLOAD}, at --workers 1 and 2; times in ms, pairs alternate "
                "which side runs first",
        "command": f"python3 scripts/bench_train_workers.py --seed {args.seed} --rounds {args.rounds}",
        "host": host(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "workloads": {},
    }
    errors = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for name, wl in sorted(WORKLOADS.items()):
            data = kddgen.generate(wl.spec, seed=args.seed)
            train = tmp / f"{name}.train"
            kddgen.write_lines(train, data.train_lines)
            records, _ = ingest.load_file(train, strict=not wl.lenient)
            labels = sorted(set(records.attack_names), key=records.attack_names.count, reverse=True)
            entry = {"train_records": len(records), "labels": len(labels),
                     "largest_label_share": round(records.attack_names.count(labels[0]) / len(records), 3)}
            entry["precalculate"], errs = time_precalculate(records, ingest.fit_normalization(records),
                                                            args.rounds, tmp)
            errors += [f"{name}: {e}" for e in errs]
            if name == CHILD_WORKLOAD:
                entry["gaids_train_child"], errs = time_child(train, wl.lenient, args.rounds, tmp)
                errors += [f"{name}: {e}" for e in errs]
            report["workloads"][name] = entry
            print(name, json.dumps(entry), flush=True)
    report["errors"] = errors
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
