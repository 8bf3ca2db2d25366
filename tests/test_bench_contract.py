"""The in-process API that the benchmark's traced run (`perfbench/run.py
--trace 1`) calls: every entry point resolves, and one small job runs
through it with every output check passing."""

import sys
from pathlib import Path

import pytest

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
