#!/usr/bin/env python3
"""perfbench/run.py on two source trees, alternating, for every workload.

    git archive <parent-commit> | tar -x -C /tmp/parent
    git archive HEAD | tar -x -C /tmp/change
    python3 scripts/bench_perfbench.py --parent /tmp/parent --change /tmp/change \\
        --seed 1 --pairs 10 --out BENCH_perfbench.json

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in the parent tree and in the change tree back to back, the side
that goes first alternating from pair to pair; pairs cycle through the
workloads, so a slow spell of the host lands on all of them. Both trees must
hold the same perfbench/ files, every run must pass its own output checks,
and both sides must print the same prediction digest; otherwise the script
exits 1.

For every end-to-end metric of BENCHMARK.json it reports each side's median
and quartiles, the pairs each side won, and, by the rules of
harness.compare, the check against the metric's bound and the gain rule.
"""

from __future__ import annotations

import filecmp
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import SIDES, quartiles


def same_tree(a: Path, b: Path) -> bool:
    """Whether two directories hold the same files with the same bytes,
    ignoring caches and run output."""
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__", ".work", ".pytest_cache", ".hypothesis"])
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    if filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)[1:] != ([], []):
        return False
    return all(same_tree(a / d, b / d) for d in cmp.common_dirs)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line, prediction digest, host steal
    share and wall time."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[1] for ln in lines if ln.startswith("prediction_digest ")), None)
    steal = next((float(ln.split()[2]) for ln in lines if ln.startswith("host steal: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"code": proc.returncode, "wall_s": round(wall, 2), "digest": digest, "host_steal": steal,
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main() -> int:
    parser = harness.pair_parser(__doc__, "BENCH_perfbench.json", seed=1, pairs_help="pairs per workload",
                                 marker="perfbench/run.py")
    args = parser.parse_args()
    if not same_tree(args.parent / "perfbench", args.change / "perfbench"):
        parser.error("the two trees hold different perfbench/ files")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair, (_, order) in enumerate(harness.alternating(args.pairs, warmup=False)):
        for workload in workloads:
            for side in order:
                result = run_once(getattr(args, side), workload, args.seed, bench["run_seconds"])
                runs[workload][side].append(result)
                rate = result["metrics"].get("evaluate_records_per_s")
                print(f"pair {pair} {workload} {side}: code {result['code']}, "
                      f"evaluate_records_per_s {rate}", flush=True)

    errors = []
    report = harness.header("perfbench/run.py --trace 0 on the parent and the change, in alternating pairs",
                            args, machine=platform.machine(), run_seconds=bench["run_seconds"], workloads={})
    for workload in workloads:
        sides = runs[workload]
        for side in SIDES:
            for r in sides[side]:
                if r["code"] != 0 or not r["correct"]:
                    errors.append(f"{workload} {side}: run exited {r['code']}, correct {r['correct']}")
        digests = sorted({str(r["digest"]) for side in SIDES for r in sides[side]})
        if len(digests) != 1:
            errors.append(f"{workload}: prediction digests differ")
        entry = {
            "prediction_digests": digests,
            "host_steal_max": max((r["host_steal"] or 0.0) for side in SIDES for r in sides[side]),
            "failed_over_attempted": {side: [sum(r["failed"] for r in sides[side]),
                                             sum(r["attempted"] for r in sides[side])] for side in SIDES},
            "metrics": {},
            "runs": sides,
        }
        for metric in bench["end_to_end"]:
            values = {side: [r["metrics"].get(metric["name"]) for r in sides[side]] for side in SIDES}
            if None not in values["parent"] + values["change"]:
                entry["metrics"][metric["name"]] = {side: quartiles(values[side]) for side in SIDES} | \
                    harness.compare(values["parent"], values["change"], metric["better"], metric["bound"])
        report["workloads"][workload] = entry
    return harness.finish(report, errors, args.out)


if __name__ == "__main__":
    sys.exit(main())
