#!/usr/bin/env python3
"""Benchmark of the gaids batch job: train once, then evaluate a test file.

    python3 perfbench/run.py --workload kdd-train --seed 1 --seconds 20 --trace 0

Each run generates its workload's files from --seed (see kddgen.py), then:

--trace 0  runs the user's job untraced, as fresh interpreters from the source
           tree (PYTHONPATH=src): `gaids train`, then
           `gaids evaluate --report kv`. Jobs run one after another, a closed
           loop with one client, for --seconds. The run checks every output
           and prints the end-to-end metrics.
--trace 1  repeats the same job in-process with spans around the calls into
           each layer (ingest, model, kernels, engine, metrics), plus a
           serial per-record `detect` pass, and prints the per-layer metrics
           and a self-time table. Spans go to perfbench/.work/trace-<workload>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when an output check
failed, and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Whole-run limit; every child process gets what is left of it.
RUN_LIMIT_S = 170.0
MIN_JOBS = 3
# Cold starts after each job: set-up time is sampled across the whole run.
COLD_STARTS_PER_JOB = 2
# Generations a 32-candidate population needs at the default parameters.
EXPECTED_GENERATIONS = 13

if __name__ == "__main__" and not (SRC / "gaids" / "__init__.py").is_file():
    print(f"error: no gaids source tree at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import kddgen  # noqa: E402
from tracing import NullTracer, Tracer, lookup  # noqa: E402


@dataclass(frozen=True)
class Workload:
    spec: kddgen.Spec
    workers: int
    check_records: int  # leading test records whose prediction rows are checked and digested
    train_repeats: int = 1  # timed `gaids train` runs per job, where training is short

    @property
    def lenient(self) -> bool:
        """Train with --lenient when the training file has injected lines."""
        return bool(self.spec.malformed or self.spec.unknown)


# Why each workload exists:
# kdd-train: ingest, fit and precalculate dominate while detection does little;
#   the lenient skip path and the unknown-label path of ingest both run.
# few-prototypes: K is about 30, so each kernel call is tiny and the per-record
#   GA overhead in engine and the pool scheduling of run_batch dominate.
# many-prototypes: K is about 2000, so batch_fitness is most of detect and
#   there is no scheduling layer; the counterpart for kernel or engine changes.
WORKLOADS = {
    "kdd-train": Workload(
        kddgen.Spec(train_records=30000, test_records=80, subclusters=300, malformed=30, unknown=45),
        workers=1, check_records=40),
    "few-prototypes": Workload(
        kddgen.Spec(train_records=4000, test_records=600, subclusters=30),
        workers=2, check_records=200, train_repeats=2),
    "many-prototypes": Workload(
        kddgen.Spec(train_records=8000, test_records=50, subclusters=2450, duplicate_share=0.4),
        workers=1, check_records=20),
}

END_TO_END = {
    "setup_s": "s",
    "train_records_per_s": "rec/s",
    "evaluate_records_per_s": "rec/s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "detection_rate": "ratio",
    "false_positive_rate": "ratio",
    "category_accuracy": "ratio",
    "valid_share": "ratio",
}

PER_LAYER = {
    "ingest.load_file.s": "s",
    "ingest.records_per_s": "rec/s",
    "ingest.lines_skipped": "count",
    "ingest.fit_normalization.s": "s",
    "model.precalculate.s": "s",
    "model.precalculate.records_per_s": "rec/s",
    "model.save_model.s": "s",
    "model.load_model.s": "s",
    "model.file_bytes": "bytes",
    "model.chromosomes": "count",
    "model.groups": "count",
    "model.singletons": "count",
    "model.merge_ratio": "ratio",
    "kernels.nearest_centroid.calls": "count",
    "kernels.nearest_centroid.s": "s",
    "kernels.batch_fitness.calls": "count",
    "kernels.batch_fitness.rows": "count",
    "kernels.batch_fitness.s": "s",
    "kernels.batch_fitness.pairs_per_s": "pairs/s",
    "kernels.share_of_detect": "ratio",
    "engine.detect.s": "s",
    "engine.self_s": "s",
    "engine.record_ms.p50": "ms",
    "engine.record_ms.p99": "ms",
    "engine.record_ms.samples": "count",
    "engine.generations.mean": "count",
    "engine.run_batch.s": "s",
    "engine.schedule_efficiency": "ratio",
    "metrics.report.s": "s",
    "job.ingest_precalculate_share": "ratio",
    "trace.overhead_share": "ratio",
}

# Per-layer counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "ingest.lines_skipped", "model.file_bytes", "model.chromosomes", "model.groups",
    "model.singletons", "kernels.nearest_centroid.calls", "kernels.batch_fitness.calls",
    "kernels.batch_fitness.rows", "engine.record_ms.samples", "engine.generations.mean",
)

# The entry points the traced run calls, by the dotted names its spans use.
ENTRY_POINTS = {
    "ingest.load_file": "gaids.ingest.load_file",
    "ingest.fit_normalization": "gaids.ingest.fit_normalization",
    "model.precalculate": "gaids.model.precalculate",
    "model.save_model": "gaids.model.save_model",
    "model.load_model": "gaids.model.load_model",
    "engine.GaParams": "gaids.engine.GaParams",
    "engine.run_batch": "gaids.engine.run_batch",
    "engine.detect": "gaids.engine.detect",
    "engine.record_rng": "gaids.engine.record_rng",
    "metrics.from_pairs": "gaids.metrics.ConfusionMatrix.from_pairs",
    "metrics.format_kv_report": "gaids.metrics.format_kv_report",
}
# Kernel functions the traced run wraps in place: span name -> (path, row-count argument).
KERNELS = {
    "kernels.nearest_centroid": ("gaids.kernels.nearest_centroid", None),
    "kernels.batch_fitness": ("gaids.kernels.batch_fitness", 0),
}

GAIDS_CLI = "import sys; from gaids.cli import run; sys.argv[0] = 'gaids'; run()"
COLD_START = (
    "import sys, gaids; from gaids.model import load_model; "
    "m = load_model(sys.argv[1]); getattr(m, 'flatten', lambda: None)()"
)

# A fixed job that imports nothing of gaids: interpreter start, numpy import,
# line parsing and small numpy scans, as the gaids jobs do. The speed of a
# shared host swings by a third within minutes as its neighbours come and go;
# the calibration job swings with it, and a change to gaids cannot move it.
# Timings are reported at the reference speed: multiplied by
# CALIBRATE_REFERENCE_S / (median calibration time in the same run).
CALIBRATE_REFERENCE_S = 0.4  # median on a 2-vCPU Xeon VM with an idle host
CALIBRATE = """
import numpy as np
rng = np.random.default_rng(0)
line = ",".join(f"{v:.2f}" for v in rng.random(41))
acc = 0.0
for _ in range(8000):
    acc += sum(float(x) for x in line.split(","))
c = rng.random((2000, 38))
for _ in range(12):
    for row in rng.random((32, 38)):
        d = c - row
        acc += float(np.sqrt((d * d).sum(axis=1)).min())
print(acc)
"""


class Missing(Exception):
    """A layer entry point the package no longer has."""


@dataclass
class Files:
    train: Path
    test: Path
    check: Path  # the first check_records lines of the test file
    model: Path
    resave: Path


# -- shared checks -------------------------------------------------------------


def prediction_row(i: int, p) -> str:
    """One row in the format of `gaids detect`."""
    return f"{i},{p.attack_name},{p.category},{p.survivor_fitness!r},{p.generations_run}"


def digest(rows: list[str]) -> str:
    return "sha256:" + hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def check_model(path: Path, resave: Path, data: kddgen.Dataset) -> list[str]:
    """Conservation (member counts sum to the trained-record count) and a
    byte-identical re-save after load."""
    load, save = lookup("gaids.model.load_model"), lookup("gaids.model.save_model")
    if load is None or save is None:
        return ["model check: gaids.model.load_model/save_model missing"]
    errors = []
    try:
        loaded = load(path)
        members = sum(c.member_count for g in loaded.groups for c in g.chromosomes)
        if members != data.train_records or loaded.training_size != data.train_records:
            errors.append(f"conservation: members {members}, header {loaded.training_size}, "
                          f"trained records {data.train_records}")
        save(loaded, resave)
    except Exception as exc:  # the model file is the program's output: report, do not crash
        return errors + [f"model check: {type(exc).__name__}: {exc}"]
    if resave.read_bytes() != path.read_bytes():
        errors.append("re-save after load_model is not byte-identical")
    return errors


def check_confusion(counts, data: kddgen.Dataset) -> list[str]:
    """counts[i][j] over CATEGORIES: total and each actual-class row sum."""
    errors = []
    total = sum(sum(row) for row in counts)
    if total != len(data.test_lines):
        errors.append(f"confusion total {total} != {len(data.test_lines)} test records")
    for cls, row in zip(kddgen.CATEGORIES, counts):
        if sum(row) != data.test_class_counts[cls]:
            errors.append(f"confusion row {cls}: {sum(row)} != {data.test_class_counts[cls]}")
    return errors


def quality(counts) -> dict[str, float]:
    """DR, FPR and 5-class accuracy from a confusion matrix (row 0 = normal)."""
    tn, fp = counts[0][0], sum(counts[0][1:])
    fn = sum(row[0] for row in counts[1:])
    tp = sum(sum(row[1:]) for row in counts[1:])
    total = sum(sum(row) for row in counts)
    return {
        "detection_rate": tp / (fn + tp),
        "false_positive_rate": fp / (tn + fp),
        "category_accuracy": sum(counts[i][i] for i in range(len(counts))) / total,
    }


# -- untraced end-to-end run ---------------------------------------------------


@dataclass
class Proc:
    code: int
    out: str
    err: str
    wall_s: float


def run_proc(args: list[str], deadline: float) -> Proc:
    """Run a child in its own session; kill the session if the run's time is up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\ntimed out"
    wall = time.perf_counter() - start
    return Proc(proc.returncode, out, err, wall)


def parse_kv(text: str) -> tuple[list[list[int]], dict[str, str]]:
    """The `--report kv` output: cell rows as a 5x5 matrix, plus key=value pairs."""
    index = {c: i for i, c in enumerate(kddgen.CATEGORIES)}
    counts = [[0] * len(index) for _ in index]
    values = {}
    for line in text.splitlines():
        if line.startswith("cell,"):
            _, actual, predicted, n = line.split(",")
            counts[index[actual]][index[predicted]] = int(n)
        elif "=" in line:
            key, _, value = line.partition("=")
            values[key] = value
    return counts, values


def run_job(wl: Workload, data: kddgen.Dataset, files: Files, deadline: float) -> dict:
    """`gaids train` (train_repeats times) plus one `gaids evaluate`, timed, then checked."""
    train_args = ["-c", GAIDS_CLI, "train", "--train-file", str(files.train), "--model", str(files.model)]
    if wl.lenient:
        train_args.append("--lenient")
    train_s, errors, model_bytes = [], [], b""
    for i in range(wl.train_repeats):
        train = run_proc(train_args, deadline)
        if train.code != 0:
            return {"errors": errors + [f"gaids train exited {train.code}: {train.err.strip()[-300:]}"]}
        train_s.append(train.wall_s)
        if i == 0:
            errors += check_model(files.model, files.resave, data)
            model_bytes = files.model.read_bytes()
        elif files.model.read_bytes() != model_bytes:
            errors.append("a repeated gaids train wrote a different model file")

    evaluate = run_proc(["-c", GAIDS_CLI, "evaluate", "--model", str(files.model), "--test-file",
                         str(files.test), "--report", "kv", "--workers", str(wl.workers)], deadline)
    if evaluate.code != 0:
        errors.append(f"gaids evaluate exited {evaluate.code}: {evaluate.err.strip()[-300:]}")
        return {"errors": errors}
    counts, values = parse_kv(evaluate.out)
    errors += check_confusion(counts, data)
    q = quality(counts)
    for key in ("detection_rate", "false_positive_rate"):
        if values.get(key) != f"{q[key]:.4f}":
            errors.append(f"report {key}={values.get(key)} disagrees with its cells ({q[key]:.6f})")
    return {"errors": errors, "train_s": train_s, "evaluate_s": evaluate.wall_s,
            "report": evaluate.out, "quality": q}


def check_predictions(wl: Workload, files: Files, deadline: float) -> tuple[list[str], str]:
    """`gaids detect` on the leading test records: row shape, 13 generations, digest."""
    proc = run_proc(["-c", GAIDS_CLI, "detect", "--model", str(files.model), "--test-file",
                     str(files.check), "--workers", str(wl.workers)], deadline)
    if proc.code != 0:
        return [f"gaids detect exited {proc.code}: {proc.err.strip()[-300:]}"], ""
    rows = proc.out.splitlines()
    errors = []
    if len(rows) != wl.check_records:
        errors.append(f"detect printed {len(rows)} rows for {wl.check_records} records")
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 5 or fields[0] != str(i) or fields[2] not in kddgen.CATEGORIES:
            errors.append(f"detect row {i} malformed: {row!r}")
            break
        if int(fields[4]) != EXPECTED_GENERATIONS:
            errors.append(f"detect row {i} ran {fields[4]} generations, not {EXPECTED_GENERATIONS}")
            break
    return errors, digest(rows)


def untraced_run(wl: Workload, data: kddgen.Dataset, files: Files, seconds: float, deadline: float):
    errors: list[str] = []
    # Compile bytecode and import once before anything is timed.
    warm = run_proc(["-c", "import gaids.cli"], deadline)
    if warm.code != 0:
        errors.append(f"import gaids failed: {warm.err.strip()[-300:]}")
        return errors, {}, 1, 1, "", {}

    job_records = data.train_records * wl.train_repeats + len(data.test_lines)
    jobs, setup, calibrate = [], [], []

    def calibration() -> None:
        proc = run_proc(["-c", CALIBRATE], deadline)
        if proc.code != 0:
            errors.append(f"calibration job exited {proc.code}: {proc.err.strip()[-300:]}")
        calibrate.append(proc.wall_s)

    start = time.monotonic()
    while True:
        calibration()
        job = run_job(wl, data, files, deadline)
        jobs.append(job)
        if jobs[0].get("report") is not None and job.get("report") not in (None, jobs[0]["report"]):
            job["errors"].append("evaluate report differs from the first job's")
        errors += job["errors"]
        if job["errors"]:
            break
        # The first start after a job refaults the memory the job freed back
        # into the VM, which doubles it on some hosts; it is left untimed.
        for i in range(COLD_STARTS_PER_JOB + 1):
            proc = run_proc(["-c", COLD_START, str(files.model)], deadline)
            if proc.code != 0:
                errors.append(f"cold start exited {proc.code}: {proc.err.strip()[-300:]}")
                break
            if i:
                setup.append(proc.wall_s)
            else:
                calibration()
        if errors:
            break
        # Stop before a further job would run past --seconds or the run limit.
        elapsed = time.monotonic() - start
        projected = elapsed * (len(jobs) + 1) / len(jobs)
        if (len(jobs) >= MIN_JOBS and projected > seconds) or start + projected > deadline - 20:
            break
    good = [j for j in jobs if not j["errors"]]

    check_errors, pred_digest = check_predictions(wl, files, deadline)
    errors += check_errors

    attempted = job_records * len(jobs) + wl.check_records
    failed = job_records * (len(jobs) - len(good)) + (wl.check_records if check_errors else 0)
    if errors and not failed:
        failed = attempted  # a run-level check failed; nothing in it counts as valid
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "valid_share": 1.0 - failed / attempted,
    }
    samples = {"train_s": [t for j in good for t in j["train_s"]],
               "evaluate_s": [j["evaluate_s"] for j in good], "setup_s": setup,
               "calibrate_s": calibrate}
    scale = CALIBRATE_REFERENCE_S / statistics.median(calibrate)
    raw = {}
    if setup:
        raw["setup_s"] = statistics.median(setup)
    if good:
        metrics.update(good[-1]["quality"])
        train_s, evaluate_s = statistics.median(samples["train_s"]), statistics.median(samples["evaluate_s"])
        raw["train_records_per_s"] = len(data.train_lines) / train_s
        raw["evaluate_records_per_s"] = len(data.test_lines) / evaluate_s
        raw["job_s"] = train_s + evaluate_s
    for name, value in raw.items():
        metrics[name] = value * scale if END_TO_END[name] == "s" else value / scale
    print(f"jobs {len(jobs)} ({len(good)} passed checks), trains {len(samples['train_s'])}, "
          f"cold starts {len(setup)}, {time.monotonic() - start:.1f} s")
    print(f"calibration median {statistics.median(calibrate):.4f} s of {len(calibrate)} runs, "
          f"reference {CALIBRATE_REFERENCE_S} s: timings scaled by {scale:.4f}; unscaled: "
          + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    return errors, metrics, attempted, failed, pred_digest, samples


# -- traced run ----------------------------------------------------------------


def inprocess_job(api: dict, wl: Workload, files: Files, tracer, state: dict) -> None:
    """The steps of `gaids train` and `gaids evaluate --report kv`, called
    in-process through `api`. Fills `state` step by step; a missing entry
    point raises Missing after the steps before it have run."""

    def call(name, *args, **kwargs):
        fn = api[name]
        if fn is None:
            raise Missing(ENTRY_POINTS[name])
        with tracer.span(name):
            return fn(*args, **kwargs)

    start = time.perf_counter()
    try:
        if api["engine.GaParams"] is None:
            raise Missing(ENTRY_POINTS["engine.GaParams"])
        state["params"] = params = api["engine.GaParams"]()
        state["records"], state["train_skipped"] = call("ingest.load_file", files.train, strict=not wl.lenient)
        stats = call("ingest.fit_normalization", state["records"])
        state["trained"] = call("model.precalculate", state["records"], params.range, stats)
        call("model.save_model", state["trained"], files.model)
        state["loaded"] = call("model.load_model", files.model)
        state["test"], state["test_skipped"] = call("ingest.load_file", files.test)
        state["batch"] = call("engine.run_batch", state["test"], state["loaded"], params, workers=wl.workers)
        if api["metrics.from_pairs"] is None or api["metrics.format_kv_report"] is None:
            raise Missing("gaids.metrics.ConfusionMatrix.from_pairs / format_kv_report")
        with tracer.span("metrics.report"):
            pairs = ((r.category, p.category) for r, p in zip(state["test"], state["batch"]))
            state["matrix"] = api["metrics.from_pairs"](pairs)
            state["report"] = api["metrics.format_kv_report"](state["matrix"])
    finally:
        state["wall_s"] = time.perf_counter() - start


def serial_detect(api: dict, state: dict, tracer: Tracer) -> list:
    """Per-record `detect` in this process, so that kernel spans survive
    (pool workers lose theirs)."""
    detect, record_rng = api["engine.detect"], api["engine.record_rng"]
    if detect is None or record_rng is None:
        raise Missing("gaids.engine.detect / record_rng")
    params, model = state["params"], state["loaded"]
    out = []
    for i, rec in enumerate(state["test"]):
        with tracer.span("engine.detect", record=i):
            out.append(detect(rec, model, params, record_rng(params.seed, i)))
    return out


def dur(spans) -> float:
    return sum(s[2] - s[1] for s in spans)


def layer_metrics(wl: Workload, files: Files, state: dict, serial: list, tracer: Tracer,
                  untraced_s: float) -> dict:
    """Per-layer metrics from one traced job; None where a step did not run."""
    m: dict = {}

    def put(name, fn):
        try:
            m[name] = fn()
        except (KeyError, AttributeError, TypeError, ZeroDivisionError, statistics.StatisticsError):
            m[name] = None

    n_train = lambda: len(state["records"])  # noqa: E731
    chromosomes = lambda: sum(len(g.chromosomes) for g in state["trained"].groups)  # noqa: E731
    load = tracer.named("ingest.load_file")
    put("ingest.load_file.s", lambda: dur(load) if len(load) == 2 else None)
    put("ingest.records_per_s", lambda: (n_train() + len(state["test"])) / dur(load))
    put("ingest.lines_skipped", lambda: state["train_skipped"] + state["test_skipped"])
    put("ingest.fit_normalization.s", lambda: dur(tracer.named("ingest.fit_normalization")) or None)
    pre = tracer.named("model.precalculate")
    put("model.precalculate.s", lambda: dur(pre) or None)
    put("model.precalculate.records_per_s", lambda: n_train() / dur(pre))
    put("model.save_model.s", lambda: dur(tracer.named("model.save_model")) or None)
    put("model.load_model.s", lambda: dur(tracer.named("model.load_model")) or None)
    put("model.file_bytes", lambda: files.model.stat().st_size if "loaded" in state else None)
    put("model.chromosomes", chromosomes)
    put("model.groups", lambda: len(state["trained"].groups))
    put("model.singletons", lambda: sum(c.member_count == 1 for g in state["trained"].groups
                                        for c in g.chromosomes))
    put("model.merge_ratio", lambda: (n_train() - chromosomes()) / n_train())
    nearest = tracer.named("kernels.nearest_centroid")
    kernels_ok = KERNELS["kernels.nearest_centroid"][0] not in tracer.missing
    put("kernels.nearest_centroid.calls", lambda: len(nearest) if kernels_ok else None)
    put("kernels.nearest_centroid.s", lambda: dur(nearest) if kernels_ok else None)
    fitness = tracer.named("kernels.batch_fitness", "engine.detect")
    detects = tracer.named("engine.detect")
    fitness_ok = KERNELS["kernels.batch_fitness"][0] not in tracer.missing and bool(detects)
    put("kernels.batch_fitness.calls", lambda: len(fitness) if fitness_ok else None)
    put("kernels.batch_fitness.rows", lambda: sum(s[5] for s in fitness) if fitness_ok else None)
    put("kernels.batch_fitness.s", lambda: dur(fitness) if fitness_ok else None)
    put("kernels.batch_fitness.pairs_per_s",
        lambda: sum(s[5] for s in fitness) * sum(len(g.chromosomes) for g in state["loaded"].groups)
        / dur(fitness))
    put("kernels.share_of_detect", lambda: dur(fitness) / dur(detects) if fitness_ok else None)
    put("engine.detect.s", lambda: dur(detects) or None)
    detect_ids = {i for i, s in enumerate(tracer.spans) if s[0] == "engine.detect"}
    put("engine.self_s", lambda: (dur(detects) - dur(s for s in tracer.spans if s[3] in detect_ids))
        if detects else None)
    record_ms = sorted((s[2] - s[1]) * 1000.0 for s in detects)
    put("engine.record_ms.p50", lambda: statistics.median(record_ms))
    put("engine.record_ms.p99", lambda: statistics.quantiles(record_ms, n=100)[98])
    put("engine.record_ms.samples", lambda: len(record_ms) or None)
    put("engine.generations.mean", lambda: statistics.fmean(p.generations_run for p in serial))
    run_batch = tracer.named("engine.run_batch")
    put("engine.run_batch.s", lambda: dur(run_batch) or None)
    put("engine.schedule_efficiency", lambda: dur(detects) / (wl.workers * dur(run_batch)))
    put("metrics.report.s", lambda: dur(tracer.named("metrics.report")) or None)
    put("job.ingest_precalculate_share",
        lambda: (dur(load) + dur(tracer.named("ingest.fit_normalization")) + dur(pre)) / state["wall_s"])
    put("trace.overhead_share", lambda: state["wall_s"] / untraced_s - 1.0)
    return m


def trace_checks(wl: Workload, data: kddgen.Dataset, files: Files, state: dict, serial: list,
                 reference: dict) -> tuple[list[str], str]:
    errors = []
    skipped = state.get("train_skipped", 0) + state.get("test_skipped", 0)
    if "test" in state and skipped != data.malformed:
        errors.append(f"ingest.lines_skipped {skipped} != {data.malformed} injected")
    if "loaded" in state:
        errors += check_model(files.model, files.resave, data)
    if "matrix" in state:
        errors += check_confusion(state["matrix"].counts.tolist(), data)
        if reference.get("report") is not None and reference["report"] != state["report"]:
            errors.append("traced report differs from the untraced in-process report")
    rows = [prediction_row(i, p) for i, p in enumerate(serial)]
    if serial:
        gens = {p.generations_run for p in serial}
        if gens != {EXPECTED_GENERATIONS}:
            errors.append(f"serial detect ran {sorted(gens)} generations, not {EXPECTED_GENERATIONS}")
        batch = [prediction_row(i, p) for i, p in enumerate(state.get("batch") or [])]
        if batch and batch != rows:
            errors.append(f"run_batch(workers={wl.workers}) predictions differ from serial detect")
    return errors, digest(rows[: wl.check_records]) if serial else ""


def traced_run(name: str, wl: Workload, data: kddgen.Dataset, files: Files, seconds: float,
               deadline: float):
    api = {key: lookup(dotted) for key, dotted in ENTRY_POINTS.items()}
    errors: list[str] = []
    missing: list[str] = []
    iterations: list[dict] = []
    pred_digest = ""
    first_tracer = None
    start = time.monotonic()
    # Iterate while a further iteration would still end within --seconds.
    while not iterations or (start + (time.monotonic() - start) * (len(iterations) + 1) / len(iterations)
                             < min(start + seconds, deadline - 20)):
        reference: dict = {}
        state: dict = {}
        tracer = Tracer()
        serial: list = []
        try:
            inprocess_job(api, wl, files, NullTracer(), reference)
            for span_name, (dotted, rows_arg) in KERNELS.items():
                tracer.patch(span_name, dotted, rows_arg)
            try:
                inprocess_job(api, wl, files, tracer, state)
                serial = serial_detect(api, state, tracer)
            finally:
                tracer.unpatch()
        except Missing as exc:
            missing.append(str(exc))
        except Exception as exc:  # a layer whose signature changed: report it, keep going
            errors.append(f"traced job: {type(exc).__name__}: {exc}")
        missing += tracer.missing
        check_errors, run_digest = trace_checks(wl, data, files, state, serial, reference)
        errors += check_errors
        pred_digest = pred_digest or run_digest
        iterations.append(layer_metrics(wl, files, state, serial, tracer,
                                        reference.get("wall_s", float("nan"))))
        first_tracer = first_tracer or tracer
        if missing or errors:
            break

    metrics = {}
    for metric in PER_LAYER:
        values = [it[metric] for it in iterations if it.get(metric) is not None]
        if metric in EXACT_COUNTS and len(set(values)) > 1:
            errors.append(f"{metric} differs between iterations: {values}")
        metrics[metric] = (values[0] if metric in EXACT_COUNTS else statistics.median(values)) if values else None

    print(f"traced iterations {len(iterations)}")
    print_self_times(first_tracer)
    for entry in sorted(set(missing)):
        print(f"missing entry point: {entry}")
    first_tracer.write(WORK / f"trace-{name}.json", workload=name, missing_entry_points=sorted(set(missing)))
    job_records = data.train_records + len(data.test_lines)
    attempted = job_records * len(iterations)
    return errors, metrics, attempted, (attempted if errors else 0), pred_digest, {}


def print_self_times(tracer: Tracer) -> None:
    table = tracer.self_times()
    wall = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0) or float("nan")
    print(f"{'layer':<10}{'spans':>9}{'total_s':>11}{'self_s':>11}{'self_share':>12}")
    for layer in sorted(table, key=lambda k: -table[k]["self_s"]):
        row = table[layer]
        print(f"{layer:<10}{row['spans']:>9}{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
              f"{row['self_s'] / wall:>12.3f}")


# -- environment and main ------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def host_steal_s() -> float:
    """Seconds of CPU time stolen by the hypervisor, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment(name: str, wl: Workload, data: kddgen.Dataset, seed: int) -> dict:
    import numpy

    gaids = lookup("gaids")
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "backend": getattr(gaids, "BACKEND", "absent"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": git_commit(),
        "workload": name,
        "seed": seed,
        "workers": wl.workers,
        "train_lines": len(data.train_lines),
        "train_records": data.train_records,
        "test_records": len(data.test_lines),
        "subclusters": data.subclusters,
        "duplicate_lines": data.duplicate_lines,
        "malformed": data.malformed,
        "unknown": data.unknown,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]

    data = kddgen.generate(wl.spec, args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        files = Files(run_dir / "train.kdd", run_dir / "test.kdd", run_dir / "check.kdd",
                      run_dir / "model.gaids", run_dir / "resave.gaids")
        kddgen.write_lines(files.train, data.train_lines)
        kddgen.write_lines(files.test, data.test_lines)
        kddgen.write_lines(files.check, data.test_lines[: wl.check_records])
        env = environment(args.workload, wl, data, args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        steal_start, clock_start = host_steal_s(), time.monotonic()
        if args.trace:
            errors, values, attempted, failed, pred_digest, samples = traced_run(
                args.workload, wl, data, files, args.seconds, deadline)
            units = PER_LAYER
        else:
            errors, values, attempted, failed, pred_digest, samples = untraced_run(
                wl, data, files, args.seconds, deadline)
            units = END_TO_END
        # Time the hypervisor ran something else while this run wanted the CPU.
        env["host_steal_share"] = (host_steal_s() - steal_start) / (time.monotonic() - clock_start)
        print(f"host steal: {env['host_steal_share']:.3f} s per second of run")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        note = "  (n/a: one worker, no scheduling layer)" if (
            name == "engine.schedule_efficiency" and wl.workers == 1) else ""
        print(f"  {name:<36}{value:>14} {m['unit']}{note}")
    print(f"prediction_digest {pred_digest} ({wl.check_records} leading test records)")
    for err in errors:
        print(f"check failed: {err}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(WORK / "results.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps({"env": env, "trace": args.trace, "digest": pred_digest,
                             "errors": errors, "samples": samples, **result}) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
