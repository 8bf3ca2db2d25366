import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
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


def where(task):
    """The task and the pid of the process that ran it."""
    return task, os.getpid()


# Training's row lists: one label holds over half the rows, as in kdd-train.
LABEL_ROWS = [list(range(count)) for count in (20, 1, 3, 57, 22, 2, 1)]


@needs_fork
@pytest.mark.parametrize(
    "tasks, processes, shares",
    [
        # Detection's blocks: 18 of 33 records and a last one of 6.
        (
            [range(lo, min(lo + 33, 600)) for lo in range(0, 600, 33)],
            2,
            [[0, 2, 4, 6, 8, 10, 12, 14, 16, 18], [1, 3, 5, 7, 9, 11, 13, 15, 17]],
        ),
        (LABEL_ROWS, 2, [[3], [4, 0, 2, 5, 1, 6]]),
        (LABEL_ROWS, 3, [[3], [4, 5, 6], [0, 2, 1]]),
    ],
    ids=["detection-blocks", "skewed-labels-2", "skewed-labels-3"],
)
def test_shares_of_the_tasks_callers_send(monkeypatch, tasks, processes, shares):
    # A task costs its length; the largest goes first to the least-loaded
    # share, and share 0 runs in this process.
    monkeypatch.setattr(parallel, "available_cpus", lambda: processes)
    out = parallel.map_tasks(where, tasks, processes)
    assert [task for task, _ in out] == tasks
    ran: dict[int, list[int]] = {}
    for i, (_, pid) in enumerate(out):
        ran.setdefault(pid, []).append(i)
    assert ran.pop(os.getpid()) == sorted(shares[0])
    assert sorted(ran.values()) == sorted(sorted(share) for share in shares[1:])
    assert_no_child_left()


@needs_fork
def test_results_in_task_order_largest_first_to_least_loaded(monkeypatch):
    # Lengths 5, 1, 1, 1, 1, 1 in two shares: the 5 goes to this process, and
    # every 1 then goes to the child's lighter share.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    out = parallel.map_tasks(where, ["aaaaa", *"bcdef"], 2)
    assert [task for task, _ in out] == ["aaaaa", *"bcdef"]
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid()
    assert pids[1] != os.getpid() and len(set(pids[1:])) == 1
    assert_no_child_left()


@needs_fork
def test_three_shares_balance_equal_costs(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    out = parallel.map_tasks(where, [range(13)] * 6 + [range(1)], 3)
    pids = [pid for _, pid in out]
    assert pids[:3] == pids[3:6] and len(set(pids[:3])) == 3
    assert pids[6] == os.getpid()
    assert_no_child_left()


@needs_fork
def test_task_function_need_not_pickle(monkeypatch):
    # A lambda over a local array cannot be pickled; the child inherits it,
    # and only its results come back through the pipe.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    values = np.arange(10.0)
    blocks = [range(0, 6), range(6, 10)]
    out = parallel.map_tasks(lambda block: (values[block.start : block.stop].sum(), os.getpid()), blocks, 2)
    assert [total for total, _ in out] == [15.0, 30.0]
    assert out[0][1] == os.getpid() and out[1][1] != os.getpid()
    assert_no_child_left()


def test_runs_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    out = parallel.map_tasks(where, "abc", 3)
    assert out == [(t, os.getpid()) for t in "abc"]


def test_available_cpus_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parallel.available_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.available_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.available_cpus() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_process_pinned_to_one_cpu_runs_one_process():
    # As `taskset -c 0 gaids evaluate --workers 2`: the process may run on
    # one CPU, so it forks no child and runs every task itself.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from gaids import parallel; "
        "print({pid == os.getpid() for pid in parallel.map_tasks(lambda task: os.getpid(), ['ab'] * 10, 2)})"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "{True}"


def out_of_memory_in_child(parent, task):
    if os.getpid() != parent:
        raise MemoryError("cannot allocate a block")
    return task


@needs_fork
def test_child_exception_keeps_its_type(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with pytest.raises(MemoryError, match="cannot allocate a block"):
        parallel.map_tasks(partial(out_of_memory_in_child, os.getpid()), "ab", 2)
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

    def failing(*args):
        if os.getpid() != parent:
            raise MemoryError("cannot allocate a block")
        return detect_block(*args)

    monkeypatch.setattr(engine, "_detect_block", failing)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    argv = ["evaluate", "--model", str(model_path), "--test-file", str(test), "--workers", "2"]
    assert cli.main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: out of memory: cannot allocate a block\n"
    assert_no_child_left()


def killed_in_child(parent, task):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


@needs_fork
def test_killed_child_raises_child_process_error(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        parallel.map_tasks(partial(killed_in_child, os.getpid()), "abc", 3)
    assert_no_child_left()


def parent_fails_child_sleeps(parent, task):
    if os.getpid() == parent:
        raise ValueError("this process's share failed")
    time.sleep(60)
    return task


@needs_fork
def test_own_share_failure_kills_the_running_children(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="share failed"):
        parallel.map_tasks(partial(parent_fails_child_sleeps, os.getpid()), "abc", 3)
    assert time.monotonic() - start < 30
    assert_no_child_left()
