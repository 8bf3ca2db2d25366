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
and quartiles, the pairs each side won (ties count for neither), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether the change counts as a gain: it wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": round(q2, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(runs: dict[str, list[dict]], metric: dict) -> dict | None:
    """One end-to-end metric over the pairs of one workload."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [r["metrics"].get(name) for r in runs[side]] for side in SIDES}
    if any(v is None for side in SIDES for v in values[side]):
        return None
    out = {side: quartiles(values[side]) for side in SIDES}
    pairs = list(zip(values["parent"], values["change"]))
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    won = sum(better(c, p) for p, c in pairs)
    lost = sum(better(p, c) for p, c in pairs)
    parent, change = out["parent"], out["change"]
    iqr = parent["q3"] - parent["q1"]
    worse = (parent["median"] - change["median"]) if higher else (change["median"] - parent["median"])
    out.update({
        "pairs": len(pairs),
        "pairs_change_better": won,
        "pairs_parent_better": lost,
        "change_over_parent_median": round(change["median"] / parent["median"], 4) if parent["median"] else None,
        "bound": metric["bound"],
        "worse_than_bound": worse > metric["bound"] * abs(parent["median"]),
        "parent_spread_wider_than_bound": iqr > metric["bound"] * abs(parent["median"]),
        "gain": won >= 0.9 * len(pairs) and -worse > iqr,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="tree of the parent commit")
    parser.add_argument("--change", default=str(ROOT), help="tree of the change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--out", default=str(ROOT / "BENCH_perfbench.json"))
    args = parser.parse_args()
    if args.pairs < 4:
        parser.error("--pairs must be at least 4, for quartiles")
    trees = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"--{side}: no perfbench/run.py under {tree}")
    if not same_tree(trees["parent"] / "perfbench", trees["change"] / "perfbench"):
        parser.error("the two trees hold different perfbench/ files")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair in range(args.pairs):
        for workload in workloads:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(trees[side], workload, args.seed, bench["run_seconds"])
                runs[workload][side].append(result)
                rate = result["metrics"].get("evaluate_records_per_s")
                print(f"pair {pair} {workload} {side}: code {result['code']}, "
                      f"evaluate_records_per_s {rate}", flush=True)

    errors = []
    report = {
        "what": "perfbench/run.py --trace 0 on the parent and the change, in alternating pairs",
        "command": f"python3 scripts/bench_perfbench.py --parent PARENT --change CHANGE "
                   f"--seed {args.seed} --pairs {args.pairs}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in workloads:
        sides = runs[workload]
        for side in SIDES:
            for r in sides[side]:
                if r["code"] != 0 or not r["correct"]:
                    errors.append(f"{workload} {side}: run exited {r['code']}, correct {r['correct']}")
        if len({r["digest"] for side in SIDES for r in sides[side]}) != 1:
            errors.append(f"{workload}: prediction digests differ")
        entry = {
            "prediction_digests": sorted({str(r["digest"]) for side in SIDES for r in sides[side]}),
            "host_steal_max": max((r["host_steal"] or 0.0) for side in SIDES for r in sides[side]),
            "failed_over_attempted": {side: [sum(r["failed"] for r in sides[side]),
                                             sum(r["attempted"] for r in sides[side])] for side in SIDES},
            "metrics": {},
            "runs": sides,
        }
        for metric in bench["end_to_end"]:
            compared = compare(sides, metric)
            if compared is not None:
                entry["metrics"][metric["name"]] = compared
        report["workloads"][workload] = entry
    report["errors"] = errors
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
