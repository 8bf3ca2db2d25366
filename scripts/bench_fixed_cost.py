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
the pairs each side won on wall time and whether that counts as a gain
(harness.compare).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import harness
from harness import SIDES, quartiles

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
    """One child on the tree `src`: wall, peak RSS, exit time, code, stdout.
    os.wait4's peak RSS counts the RSS of the process that starts the child,
    so this one never loads numpy or the workload data."""
    read_fd, write_fd = os.pipe()
    with tempfile.TemporaryFile("w+") as out:
        result = harness.wait4([sys.executable, "-c", CHILD, str(write_fd), *argv], out,
                               harness.tree_env(src), pass_fds=(write_fd,))
        with open(read_fd, "rb") as pipe:
            returned = pipe.read()
        out.seek(0)
        result["stdout"] = out.read()
    result["exit_s"] = result["end"] - float(returned) if returned else None
    return result


def summary(runs: dict[str, list[dict]]) -> dict:
    """Each side's wall, peak RSS and exit time, and the pairs each side won
    on wall time."""
    wall = {side: [r["wall_s"] for r in runs[side]] for side in SIDES}
    return {
        side: {
            "wall_ms": quartiles(wall[side], 1e3, 1),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in runs[side]], 1, 1),
            "exit_ms": quartiles([r["exit_s"] for r in runs[side]], 1e3, 2),
        }
        for side in SIDES
    } | harness.compare(wall["parent"], wall["change"], won="faster")


def main() -> int:
    args = harness.pair_parser(__doc__, "BENCH_fixed_cost.json", seed=5, pairs_help="timed pairs per child",
                               marker="src/gaids/cli.py").parse_args()
    src = {side: getattr(args, side) / "src" for side in SIDES}

    errors = []
    report = harness.header("the benchmark's `gaids train` and `gaids evaluate` children on the parent "
                            "and the change, in alternating pairs; wall is start to os.wait4, exit is "
                            "cli.main returning to os.wait4", args, workloads={})
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for name, flags in sorted(harness.write_workloads(harness.ROOT, tmp, args.seed).items()):
            files = {part: tmp / f"{name}.{part}" for part in ("train", "test", "model")}
            entry = dict(flags)
            # The model every evaluate child reads, written by the parent tree.
            if run_child(src["parent"], commands(flags, files, files["model"])["train"])["code"] != 0:
                errors.append(f"{name}: parent gaids train failed")
                continue
            for command in ("train", "evaluate"):
                runs: dict[str, list[dict]] = {side: [] for side in SIDES}
                seen = set()
                for timed, order in harness.alternating(args.pairs):
                    for side in order:
                        model = tmp / f"{name}.{side}.model"
                        result = run_child(src[side], commands(flags, files, model)[command])
                        if result["code"] != 0:
                            errors.append(f"{name} {side} gaids {command} exited {result['code']}")
                        seen.add((result["stdout"], model.read_bytes() if command == "train" else b""))
                        if timed:
                            runs[side].append(result)
                if len(seen) != 1:
                    errors.append(f"{name}: gaids {command} wrote other stdout or model bytes on the two trees")
                entry[command] = summary(runs)
            report["workloads"][name] = entry
            print(name, json.dumps(entry), flush=True)
    return harness.finish(report, errors, args.out)


if __name__ == "__main__":
    sys.exit(main())
