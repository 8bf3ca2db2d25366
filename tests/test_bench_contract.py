"""The in-process API that the benchmark's traced run (`perfbench/run.py
--trace 1`) calls: every entry point resolves, and one small job runs
through it with every output check passing."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from gaids import cli, engine, ingest, model, parallel

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import kddgen  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer, Tracer, lookup  # noqa: E402

SPEC = kddgen.Spec(train_records=400, test_records=60, subclusters=20, malformed=3, unknown=4)
WORKLOAD = run.Workload(SPEC, workers=2, check_records=20)


@pytest.fixture
def job(tmp_path):
    data = kddgen.generate(SPEC, seed=5)
    files = run.Files(*(tmp_path / name for name in ("train", "test", "check", "model", "resave")))
    kddgen.write_lines(files.train, data.train_lines)
    kddgen.write_lines(files.test, data.test_lines)
    kddgen.write_lines(files.check, data.test_lines[: WORKLOAD.check_records])
    api = {key: lookup(dotted) for key, dotted in run.ENTRY_POINTS.items()}
    return data, files, api


def test_every_entry_point_resolves():
    missing = [dotted for dotted in run.ENTRY_POINTS.values() if lookup(dotted) is None]
    missing += [dotted for dotted, _ in run.KERNELS.values() if lookup(dotted) is None]
    assert missing == []


def test_inprocess_job_passes_the_trace_checks(job):
    data, files, api = job
    state: dict = {}
    run.inprocess_job(api, WORKLOAD, files, NullTracer(), state)
    serial = run.serial_detect(api, state, NullTracer())
    errors, digest = run.trace_checks(WORKLOAD, data, files, state, serial, {})
    assert errors == []
    assert digest.startswith("sha256:")
    assert len(serial) == len(data.test_lines)


def traced_job(files, api):
    """The in-process job and serial detect pass with the kernels wrapped,
    as `--trace 1` runs them."""
    tracer = Tracer()
    for span_name, (dotted, rows_arg) in run.KERNELS.items():
        tracer.patch(span_name, dotted, rows_arg)
    try:
        state: dict = {}
        run.inprocess_job(api, WORKLOAD, files, tracer, state)
        serial = run.serial_detect(api, state, tracer)
    finally:
        tracer.unpatch()
    return state, serial, tracer


def test_patched_kernels_see_every_call(job):
    # The traced run replaces the kernels in their module; training and
    # detection must call them through it for the kernel metrics to exist.
    data, files, api = job
    _, _, tracer = traced_job(files, api)
    assert tracer.missing == []
    assert tracer.named("kernels.nearest_centroid", "model.precalculate")
    assert tracer.named("kernels.batch_fitness", "engine.detect")


def test_model_layer_metrics_match_the_model(job):
    # These metrics read the model through `groups`; `layer_metrics` turns an
    # attribute or type error there into a silent None.
    data, files, api = job
    state, serial, tracer = traced_job(files, api)
    m = run.layer_metrics(WORKLOAD, files, state, serial, tracer, state["wall_s"])
    trained, loaded = state["trained"], state["loaded"]
    k = trained.num_chromosomes()
    assert m["model.chromosomes"] == k == loaded.num_chromosomes()
    assert m["model.groups"] == len(trained.category_of)
    assert m["model.singletons"] == int((trained.member_counts == 1).sum())
    assert m["model.merge_ratio"] == (data.train_records - k) / data.train_records
    pairs = m["kernels.batch_fitness.pairs_per_s"]
    assert pairs is not None
    rows, seconds = m["kernels.batch_fitness.rows"], m["kernels.batch_fitness.s"]
    assert pairs == pytest.approx(rows * k / seconds)


def train_seed5(tmp_path, wl):
    """The workload's seed-5 data and the path of the model trained on its
    training file, as `gaids train` trains and saves it."""
    data = kddgen.generate(wl.spec, seed=5)
    train, model_path = tmp_path / "train", tmp_path / "model"
    kddgen.write_lines(train, data.train_lines)
    records, _ = ingest.load_file(train, strict=not wl.lenient)
    trained = model.precalculate(records, engine.GaParams().range, ingest.fit_normalization(records))
    model.save_model(trained, model_path)
    return data, model_path


# The benchmark's seed-5 prediction digests (`prediction_digest` in its
# output). A change that alters predictions on purpose re-records them.
DIGESTS = {
    "kdd-train": "sha256:df0da65d572e8870",
    "few-prototypes": "sha256:fb34c5f097fdd4e3",
    "many-prototypes": "sha256:5e792641f5d13b47",
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed5_prediction_digest(tmp_path, name):
    # Detect the workload's checked records with its worker count, as
    # `gaids detect` does.
    wl = run.WORKLOADS[name]
    data, model_path = train_seed5(tmp_path, wl)
    check = tmp_path / "check"
    kddgen.write_lines(check, data.test_lines[: wl.check_records])
    test, _ = ingest.load_file(check)
    predictions = engine.run_batch(test, model.load_model(model_path), engine.GaParams(), workers=wl.workers)
    assert run.digest([run.prediction_row(i, p) for i, p in enumerate(predictions)]) == DIGESTS[name]


# The first 16 hex digits of the sha256 of the benchmark's seed-5 model
# files. Training is bit-reproducible, so a change that alters the model on
# purpose re-records them; any other change keeps them.
MODEL_DIGESTS = {
    "kdd-train": "2dd807f5ecdbff1a",
    "few-prototypes": "9f2026e0e040120d",
    "many-prototypes": "9a4910fd86b7f4b0",
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed5_model_digest(tmp_path, name):
    _, model_path = train_seed5(tmp_path, run.WORKLOADS[name])
    assert hashlib.sha256(model_path.read_bytes()).hexdigest()[:16] == MODEL_DIGESTS[name]


# The first 16 hex digits of the sha256 of `gaids train`'s stdout on the
# benchmark's seed-5 training files: the record summary and one line per
# label. A change that alters the model or the summary on purpose
# re-records them.
TRAIN_STDOUT_DIGESTS = {
    "kdd-train": "6373c342ffa791e2",
    "few-prototypes": "72731e089465472e",
    "many-prototypes": "e2b12157d5c9c25c",
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_train_workers_write_the_same_model_and_output(tmp_path, capsys, name):
    # `gaids train --workers N` trains labels in up to N processes, here
    # allowed three CPUs whatever the host has; the model file and the
    # printed summary do not depend on N, and are the pinned ones.
    wl = run.WORKLOADS[name]
    _, model_path = train_seed5(tmp_path, wl)
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"model-{workers}"
        argv = ["train", "--train-file", str(tmp_path / "train"), "--model", str(out)]
        argv += ["--workers", str(workers)] + (["--lenient"] if wl.lenient else [])
        with mock.patch.object(parallel, "available_cpus", return_value=3):
            assert cli.main(argv) == 0
        assert out.read_bytes() == model_path.read_bytes()
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert hashlib.sha256(outputs[0].encode()).hexdigest()[:16] == TRAIN_STDOUT_DIGESTS[name]
    assert hashlib.sha256(model_path.read_bytes()).hexdigest()[:16] == MODEL_DIGESTS[name]


def ingest_digest(path, strict):
    """The first 16 hex digits of a sha256 over what ingest makes of a file:
    the feature matrix's bytes, the names, the categories and the skip
    count."""
    data, skipped = ingest.load_file(path, strict=strict)
    h = hashlib.sha256(data.features.tobytes())
    categories = [r.category for r in data]
    h.update(repr((data.attack_names, categories, skipped)).encode())
    return h.hexdigest()[:16]


# The benchmark's seed-5 training and test files as ingest reads them, the
# training file as `gaids train` reads it (--lenient where the workload
# trains lenient) and the test file as `gaids evaluate` reads it. A change
# to how ingest stores rows keeps these.
INGEST_DIGESTS = {
    "kdd-train": ("2437870101722380", "4827a04644a93838"),
    "few-prototypes": ("1d84c505749e3dfb", "cd6a26e650f939ab"),
    "many-prototypes": ("047bbb474986b0d2", "e8eb39ad270b6249"),
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed5_ingest_digest(tmp_path, name):
    wl = run.WORKLOADS[name]
    data = kddgen.generate(wl.spec, seed=5)
    train, test = tmp_path / "train", tmp_path / "test"
    kddgen.write_lines(train, data.train_lines)
    kddgen.write_lines(test, data.test_lines)
    digests = (ingest_digest(train, strict=not wl.lenient), ingest_digest(test, strict=True))
    assert digests == INGEST_DIGESTS[name]


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("bench_*.py")), ids=lambda p: p.name)
def test_bench_script_help_exits_ok(script):
    # Each script imports gaids when it starts, so a deleted name that a
    # committed script still uses fails here.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


@pytest.mark.parametrize("script, argv", [
    ("bench_train_workers.py", ["--rounds", "1"]),
    ("bench_train_workers.py", ["--rounds", "3"]),
    ("bench_detect.py", ["--parent", str(ROOT), "--repeats", "0"]),
    ("bench_fixed_cost.py", ["--parent", str(ROOT), "--pairs", "3"]),
    ("bench_perfbench.py", ["--parent", str(ROOT), "--pairs", "3"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v[-2:]))
def test_bench_script_rejects_too_few_rounds_before_any_work(tmp_path, script, argv):
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: ")
    assert "must be at least" in proc.stderr
    assert not out.exists()
