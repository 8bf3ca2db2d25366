"""The in-process API that the benchmark's traced run (`perfbench/run.py
--trace 1`) calls: every entry point resolves, and one small job runs
through it with every output check passing."""

import sys
from pathlib import Path

import pytest

from gaids import engine, ingest, model

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def test_inprocess_job_passes_the_trace_checks(job, caplog):  # caplog keeps warnings quiet
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


def test_patched_kernels_see_every_call(job, caplog):
    # The traced run replaces the kernels in their module; training and
    # detection must call them through it for the kernel metrics to exist.
    data, files, api = job
    _, _, tracer = traced_job(files, api)
    assert tracer.missing == []
    assert tracer.named("kernels.nearest_centroid", "model.precalculate")
    assert tracer.named("kernels.batch_fitness", "engine.detect")


def test_model_layer_metrics_match_the_model(job, caplog):
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


# The benchmark's seed-5 prediction digests (`prediction_digest` in its
# output). A change that alters predictions on purpose re-records them.
DIGESTS = {
    "kdd-train": "sha256:df0da65d572e8870",
    "few-prototypes": "sha256:fb34c5f097fdd4e3",
    "many-prototypes": "sha256:5e792641f5d13b47",
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed5_prediction_digest(tmp_path, caplog, name):
    # Train on the workload's seed-5 files and detect its checked records
    # with its worker count, as `gaids train` and `gaids detect` do.
    wl = run.WORKLOADS[name]
    data = kddgen.generate(wl.spec, seed=5)
    train, check, model_path = tmp_path / "train", tmp_path / "check", tmp_path / "model"
    kddgen.write_lines(train, data.train_lines)
    kddgen.write_lines(check, data.test_lines[: wl.check_records])
    params = engine.GaParams()
    records, _ = ingest.load_file(train, strict=not wl.lenient)
    trained = model.precalculate(records, params.range, ingest.fit_normalization(records))
    model.save_model(trained, model_path)
    test, _ = ingest.load_file(check)
    predictions = engine.run_batch(test, model.load_model(model_path), params, workers=wl.workers)
    assert run.digest([run.prediction_row(i, p) for i, p in enumerate(predictions)]) == DIGESTS[name]
