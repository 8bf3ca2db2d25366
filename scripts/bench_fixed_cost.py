#!/usr/bin/env python3
"""The benchmark's six `gaids` children on two source trees, alternating.

    git archive <parent-commit> | tar -x -C /tmp/parent
    python3 scripts/bench_fixed_cost.py --parent /tmp/parent --change . \\
        --seed 5 --pairs 10 --out BENCH_fixed_cost.json

For each workload of perfbench/run.py it writes kddgen's files of --seed and
runs, as perfbench/run.py does, `gaids train` (with --lenient where the
workload trains lenient) and `gaids evaluate --report kv --workers W`, each
in a fresh interpreter on the --parent and on the --change tree's `src`.
Every pair runs the parent's child and the change's child back to back, the
side that goes first alternating from pair to pair; an untimed pair first
fills the file cache. Each child is timed from its start to `os.wait4`
returning, which also gives its peak RSS. The child wraps `cli.main` so that
it writes the monotonic clock when main returns; the time from then to
`os.wait4` returning is the child's exit: the flushes and, where `cli.run`
keeps it, the interpreter's teardown.

The two trees must write the same model bytes and the same stdout; a
difference exits 1. Reports each side's median and quartiles, in ms and MB,
and the pairs each side won.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Writes the workloads' files into a directory and prints, as JSON, each
# workload's flags and the numpy version. It runs in its own interpreter:
# a child's peak RSS, as os.wait4 reports it, counts the RSS of the process
# that started it, so this process stays small and never loads numpy or the
# generated data.
WRITE_FILES = """\
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import numpy, kddgen
from run import WORKLOADS
out, seed, flags = sys.argv[2], int(sys.argv[3]), {}
for name, wl in WORKLOADS.items():
    data = kddgen.generate(wl.spec, seed=seed)
    kddgen.write_lines(f"{out}/{name}.train", data.train_lines)
    kddgen.write_lines(f"{out}/{name}.test", data.test_lines)
    flags[name] = {"workers": wl.workers, "lenient": wl.lenient}
print(json.dumps({"numpy": numpy.__version__, "workloads": flags}))
"""

SIDES = ("parent", "change")

# `gaids argv...` through cli.run, as perfbench/run.py's GAIDS_CLI, except
# that the first argument is a file descriptor that receives the monotonic
# clock, as text, when cli.main returns.
CHILD = """\
import os, sys, time
from gaids import cli
fd = int(sys.argv.pop(1))
main = cli.main
def timed(argv=None):
    try:
        return main(argv)
    finally:
        os.write(fd, repr(time.monotonic()).encode())
cli.main = timed
sys.argv[0] = "gaids"
cli.run()
"""


def commands(flags: dict, files: dict[str, Path], model: Path) -> dict[str, list[str]]:
    """The benchmark's two commands of a workload, training into `model`."""
    train = ["train", "--train-file", str(files["train"]), "--model", str(model)]
    evaluate = ["evaluate", "--model", str(files["model"]), "--test-file", str(files["test"]),
                "--report", "kv", "--workers", str(flags["workers"])]
    return {"train": train + (["--lenient"] if flags["lenient"] else []), "evaluate": evaluate}


def run_child(src: Path, argv: list[str]) -> dict:
    """One child on the tree `src`: wall, peak RSS, exit time, code, stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_fd, write_fd = os.pipe()
    with tempfile.TemporaryFile("w+") as out:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, str(write_fd), *argv], env=env,
                                stdout=out, stderr=subprocess.DEVNULL, pass_fds=(write_fd,))
        os.close(write_fd)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(read_fd, "rb") as pipe:
            returned = pipe.read()
        out.seek(0)
        stdout = out.read()
    return {
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit_s": end - float(returned) if returned else None,
        "code": proc.returncode,
        "stdout": stdout,
    }


def quartiles(values: list[float], scale: float, digits: int) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": round(q2 * scale, digits), "q1": round(q1 * scale, digits),
            "q3": round(q3 * scale, digits)}


def summary(runs: dict[str, list[dict]]) -> dict:
    """Each side's wall, peak RSS and exit time, and the pairs each side won
    on wall time (ties count for neither)."""
    out: dict = {}
    for side in SIDES:
        out[side] = {
            "wall_ms": quartiles([r["wall_s"] for r in runs[side]], 1e3, 1),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in runs[side]], 1, 1),
            "exit_ms": quartiles([r["exit_s"] for r in runs[side]], 1e3, 2),
        }
    pairs = list(zip(*(runs[side] for side in SIDES)))
    out["pairs"] = len(pairs)
    out["pairs_change_faster"] = sum(c["wall_s"] < p["wall_s"] for p, c in pairs)
    out["pairs_parent_faster"] = sum(p["wall_s"] < c["wall_s"] for p, c in pairs)
    out["change_over_parent_median"] = round(
        statistics.median(r["wall_s"] for r in runs["change"])
        / statistics.median(r["wall_s"] for r in runs["parent"]), 3)
    return out


def host() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    except OSError:
        names = []
    return f"{platform.machine()} {names[0] if names else platform.processor()}".strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", default=str(ROOT), help="source tree of the change")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs per child")
    parser.add_argument("--out", default=str(ROOT / "BENCH_fixed_cost.json"))
    args = parser.parse_args()
    if args.pairs < 4:
        parser.error("--pairs must be at least 4, for quartiles")
    src = {side: Path(getattr(args, side)).resolve() / "src" for side in SIDES}
    for side, path in src.items():
        if not (path / "gaids" / "cli.py").is_file():
            parser.error(f"--{side}: no gaids source tree at {path}")

    errors = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        written = subprocess.run([sys.executable, "-c", WRITE_FILES, str(ROOT), tmpdir, str(args.seed)],
                                 capture_output=True, text=True, check=True)
        setup = json.loads(written.stdout)
        report = {
            "what": "the benchmark's `gaids train` and `gaids evaluate` children on the parent "
                    "and the change, in alternating pairs; wall is start to os.wait4, exit is "
                    "cli.main returning to os.wait4",
            "command": f"python3 scripts/bench_fixed_cost.py --parent PARENT --change CHANGE "
                       f"--seed {args.seed} --pairs {args.pairs}",
            "host": host(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": setup["numpy"],
            "seed": args.seed,
            "workloads": {},
        }
        for name, flags in sorted(setup["workloads"].items()):
            files = {part: tmp / f"{name}.{part}" for part in ("train", "test", "model")}
            entry = dict(flags)
            # The model every evaluate child reads, written by the parent tree.
            if run_child(src["parent"], commands(flags, files, files["model"])["train"])["code"] != 0:
                errors.append(f"{name}: parent gaids train failed")
                continue
            for command in ("train", "evaluate"):
                runs: dict[str, list[dict]] = {side: [] for side in SIDES}
                seen = set()
                for pair in range(args.pairs + 1):  # pair 0 fills the file cache, untimed
                    for side in SIDES if pair % 2 else SIDES[::-1]:
                        model = tmp / f"{name}.{side}.model"
                        result = run_child(src[side], commands(flags, files, model)[command])
                        if result["code"] != 0:
                            errors.append(f"{name} {side} gaids {command} exited {result['code']}")
                        seen.add((result["stdout"], model.read_bytes() if command == "train" else b""))
                        if pair:
                            runs[side].append(result)
                if len(seen) != 1:
                    errors.append(f"{name}: gaids {command} wrote other stdout or model bytes on the two trees")
                entry[command] = summary(runs)
            report["workloads"][name] = entry
            print(name, json.dumps(entry), flush=True)
    report["errors"] = errors
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
