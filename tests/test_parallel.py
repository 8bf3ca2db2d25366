import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gaids import cli, engine, parallel
from gaids.cli import EXIT_CONFIG
from gaids.synth import generate_lines

SRC = Path(__file__).resolve().parent.parent / "src"

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


def assert_no_child_left():
    # WNOHANG reaps nothing and raises ChildProcessError only when this
    # process has no child at all, running or ended.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def where(state, task):
    """The task and the pid of the process that ran it."""
    return task, os.getpid()


@needs_fork
def test_results_in_task_order_largest_first_to_least_loaded():
    # Costs 5, 1, 1, 1, 1, 1 in two shares: the 5 goes to this process, and
    # every 1 then goes to the child's lighter share.
    out = parallel.map_tasks(where, list("abcdef"), None, 2, [5, 1, 1, 1, 1, 1])
    assert [task for task, _ in out] == list("abcdef")
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid()
    assert pids[1] != os.getpid() and len(set(pids[1:])) == 1
    assert_no_child_left()


@needs_fork
def test_three_shares_balance_equal_costs():
    out = parallel.map_tasks(where, list(range(7)), None, 3, [13] * 6 + [1])
    pids = [pid for _, pid in out]
    assert pids[:3] == pids[3:6] and len(set(pids[:3])) == 3
    assert pids[6] == os.getpid()
    assert_no_child_left()


def test_runs_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    out = parallel.map_tasks(where, [1, 2, 3], None, 3, [1, 1, 1])
    assert out == [(t, os.getpid()) for t in (1, 2, 3)]


def test_available_cpus_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parallel.available_cpus() == 1
    assert parallel.process_count(2, 10) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.available_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.available_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_process_pinned_to_one_cpu_runs_one_process():
    # As `taskset -c 0 gaids evaluate --workers 2`: the process may run on
    # one CPU, so it forks no child.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from gaids import parallel; print(parallel.process_count(2, 10))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def out_of_memory_in_child(state, task):
    if os.getpid() != state:
        raise MemoryError("cannot allocate a block")
    return task


@needs_fork
def test_child_exception_keeps_its_type():
    with pytest.raises(MemoryError, match="cannot allocate a block"):
        parallel.map_tasks(out_of_memory_in_child, [1, 2], os.getpid(), 2, [1, 1])
    assert_no_child_left()


@needs_fork
def test_child_out_of_memory_exits_config(tmp_path, capsys, monkeypatch):
    train, test, model_path = tmp_path / "train", tmp_path / "test", tmp_path / "m.model"
    train.write_text("\n".join(generate_lines(3, 20, 0.5, 0.02, seed=1)) + "\n")
    # 120 test records are four blocks, so the evaluation forks.
    test.write_text("\n".join(generate_lines(3, 40, 0.5, 0.02, seed=2)) + "\n")
    assert cli.main(["train", "--train-file", str(train), "--model", str(model_path)]) == 0
    capsys.readouterr()
    parent, detect_block = os.getpid(), engine._detect_block

    def failing(state, block):
        if os.getpid() != parent:
            raise MemoryError("cannot allocate a block")
        return detect_block(state, block)

    monkeypatch.setattr(engine, "_detect_block", failing)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    argv = ["evaluate", "--model", str(model_path), "--test-file", str(test), "--workers", "2"]
    assert cli.main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: out of memory: cannot allocate a block\n"
    assert_no_child_left()


def killed_in_child(state, task):
    if os.getpid() != state:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


@needs_fork
def test_killed_child_raises_child_process_error():
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        parallel.map_tasks(killed_in_child, [1, 2, 3], os.getpid(), 3, [1, 1, 1])
    assert_no_child_left()


def parent_fails_child_sleeps(state, task):
    if os.getpid() == state:
        raise ValueError("this process's share failed")
    time.sleep(60)
    return task


@needs_fork
def test_own_share_failure_kills_the_running_children():
    start = time.monotonic()
    with pytest.raises(ValueError, match="share failed"):
        parallel.map_tasks(parent_fails_child_sleeps, [1, 2, 3], os.getpid(), 3, [1, 1, 1])
    assert time.monotonic() - start < 30
    assert_no_child_left()
