"""What the scripts/bench_*.py measurements share: options, workload files,
run order, pair summary and gain rule, the os.wait4 child timer, and the run
header and report tail of a BENCH file. Standard library only, so that a
process that starts a timed child stays small.

`python3 scripts/harness.py STDOUT ARGV...` runs ARGV under `wait4`, its stdout
in the file STDOUT, and prints the result as JSON: the launcher for a script
whose own process holds numpy or the workload data.
"""

from __future__ import annotations

import argparse
import importlib.metadata
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


def at_least(least: int, why: str):
    """An argparse type: an integer of at least `least`; a smaller one exits 2."""
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, {why}")
        return int(text)
    return count


def pair_parser(doc: str, out: str, seed: int, pairs_help: str, marker: str) -> argparse.ArgumentParser:
    """The options of a script that runs --parent against --change in pairs.
    Each tree is parsed to its resolved path and must hold the file `marker`."""
    def tree(text: str) -> Path:
        path = Path(text).resolve()
        if not (path / marker).is_file():
            raise argparse.ArgumentTypeError(f"no {marker} under {path}")
        return path
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", type=tree, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=tree, default=str(ROOT), help="source tree of the change")
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--pairs", type=at_least(4, "for quartiles"), default=10, help=pairs_help)
    parser.add_argument("--out", default=str(ROOT / out))
    return parser


def tree_env(src: Path) -> dict[str, str]:
    """This process's environment with `src` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


# Writes the files of each workload of perfbench/run.py and prints their flags,
# in its own interpreter: the caller never loads numpy or the generated data.
WRITE_WORKLOADS = """\
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import kddgen
from run import WORKLOADS
out, seed, flags = sys.argv[2], int(sys.argv[3]), {}
for name, wl in WORKLOADS.items():
    data = kddgen.generate(wl.spec, seed=seed)
    kddgen.write_lines(f"{out}/{name}.train", data.train_lines)
    kddgen.write_lines(f"{out}/{name}.test", data.test_lines)
    flags[name] = {"workers": wl.workers, "lenient": wl.lenient}
print(json.dumps(flags))
"""


def write_workloads(tree: Path, out: Path, seed: int) -> dict[str, dict]:
    """Write NAME.train and NAME.test of each workload of `seed` into `out`
    with the kddgen of `tree`; return each NAME's --workers and lenient."""
    out.mkdir(exist_ok=True)
    done = subprocess.run([sys.executable, "-c", WRITE_WORKLOADS, str(tree), str(out), str(seed)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def alternating(rounds: int, items: tuple = SIDES, warmup: bool = True):
    """(timed, items in run order) for each round: with `warmup`, an untimed
    round first fills the file cache. Each round rotates the order by one,
    so a slow spell of the host lands on every item; of two items, the first
    timed round runs `items[0]` first."""
    for r in range(-1 if warmup else 0, rounds):
        k = r % len(items)
        yield r >= 0, items[k:] + items[:k]


def wait4(argv: list[str], stdout, env: dict | None = None, pass_fds: tuple[int, ...] = ()) -> dict:
    """Run `argv` to its end, its stdout in the open file `stdout`: wall time
    from start to os.wait4, peak RSS, exit code and the monotonic clock at
    the end. `pass_fds` go to the child and are closed here. os.wait4's peak
    RSS counts the RSS of the process that started the child, so that
    process must hold neither numpy nor the workload data."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=subprocess.DEVNULL, pass_fds=pass_fds)
    for fd in pass_fds:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": end - start, "peak_rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode, "end": end}


def quartiles(values: list[float], scale: float = 1.0, digits: int = 6) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": round(q2 * scale, digits), "q1": round(q1 * scale, digits), "q3": round(q3 * scale, digits)}


def compare(parent: list[float], change: list[float], better: str = "lower", bound: float | None = None,
            names: tuple[str, str] = SIDES, won: str = "better") -> dict:
    """The pairs (parent[i], change[i]) each side won, ties counting for
    neither, the ratio of the medians, and `gain`: at least ten pairs ran, the
    change won nine tenths of them and beats the parent's median by more than
    the parent's interquartile range. With a `bound`: whether the change's
    median is worse than that fraction of the parent's, and whether the
    parent's spread is."""
    beats = (lambda a, b: a > b) if better == "higher" else (lambda a, b: a < b)
    change_won = sum(map(beats, change, parent))
    q1, median, q3 = statistics.quantiles(parent, n=4)
    change_median = statistics.median(change)
    gap = change_median - median if better == "higher" else median - change_median
    out = {
        "pairs": len(parent),
        f"pairs_{names[1]}_{won}": change_won,
        f"pairs_{names[0]}_{won}": sum(map(beats, parent, change)),
        f"{names[1]}_over_{names[0]}_median": round(change_median / median, 4) if median else None,
        "gain": len(parent) >= 10 and change_won >= 0.9 * len(parent) and gap > q3 - q1,
    }
    if bound is not None:
        out |= {"bound": bound, "worse_than_bound": -gap > bound * abs(median),
                "parent_spread_wider_than_bound": q3 - q1 > bound * abs(median)}
    return out


def host() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    except OSError:
        names = []
    return f"{platform.machine()} {names[0] if names else platform.processor()}".strip()


def version(dist: str) -> str | None:
    """The installed version of `dist`, read without importing it."""
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def header(what: str, args: argparse.Namespace, **extra) -> dict:
    """The run header of a BENCH file, then `extra`. The command writes the
    trees as PARENT and CHANGE and leaves out --out. `openblas_threads` is
    what the `gaids` commands run with: the environment's count, or the 1
    that `gaids.cli` sets when the environment sets none."""
    words = ["python3", f"scripts/{Path(sys.argv[0]).name}"]
    for dest, value in vars(args).items():
        if dest != "out":
            words += [f"--{dest}", *(map(str, value) if isinstance(value, list)
                                     else [dest.upper() if dest in SIDES else str(value)])]
    return {
        "what": what,
        "command": " ".join(words),
        "host": host(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "seed": vars(args).get("seed", vars(args).get("seeds")),
        **extra,
    }


def finish(report: dict, errors: list[str], out: str) -> int:
    """Write `report` with its errors to `out`; 1 if there are any, else 0."""
    report["errors"] = errors
    Path(out).write_text(json.dumps(report, indent=1) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    with open(sys.argv[1], "w") as stdout:
        print(json.dumps(wait4(sys.argv[2:], stdout)))
