"""Map a function over tasks in this process and in forked children.

Detection (`engine.run_batch`) and training (`model.precalculate`) both map
one function over independent tasks that read one large shared state: the
feature matrix, the model and the settings. `map_tasks` is a fork-join. It
splits the tasks into shares by the cost the caller gives each one, largest
task first to the least-loaded share. This process runs share 0, and each
other share runs in a child made with `os.fork()`. A child inherits the
state rather than receiving a copy, sends its results back pickled through a
pipe, and always ends with `os._exit`, so it runs no exit handler and never
flushes stdio buffers it inherited.

A fork-join imports nothing and starts no thread: forking a child of a
gaids process and reaping it takes about 5 ms on a 2-vCPU VM, and this
process works on its own share meanwhile. With OpenBLAS, numpy's threaded
library, at its default thread count, forked maps run slower: training
many-prototypes in 2 processes took 270-890 ms, not 125-137 ms as with
OPENBLAS_NUM_THREADS=1 (2-vCPU VM). So a caller sets that before numpy
loads, as `gaids.cli` does. Without `os.fork` the map runs in this process.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Any, BinaryIO, Callable, Sequence


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (`taskset -c 0` leaves one of a machine's CPUs), else the machine's
    CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def process_count(workers: int, tasks: int) -> int:
    """Processes a map of `tasks` tasks uses: at most one per worker, per
    CPU and per task."""
    return min(workers, available_cpus(), tasks)


def _shares(costs: Sequence[float], processes: int) -> list[list[int]]:
    """The task indices each of `processes` shares runs: tasks go largest
    cost first (equal costs in task order) to the least-loaded share (the
    lowest-numbered one on a tie)."""
    parts: list[list[int]] = [[] for _ in range(processes)]
    loads = [0.0] * processes
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        share = loads.index(min(loads))
        parts[share].append(i)
        loads[share] += costs[i]
    return parts


def map_tasks(
    fn: Callable[[Any, Any], Any],
    tasks: Sequence,
    state: Any,
    processes: int,
    costs: Sequence[float],
) -> list:
    """[fn(state, task) for task in tasks], run in `processes` shares split
    by `costs` (one cost per task), or in this process when `processes` is
    at most 1. Results must pickle.

    A task that raises in a child raises the same exception type here. A
    child that ends without sending its results (a signal, the OOM killer)
    raises ChildProcessError. However the map ends, every child it forked
    has ended and been reaped: when this process's own share raises, or a
    child fails, the children still running are killed."""
    if processes <= 1 or not hasattr(os, "fork"):
        return [fn(state, task) for task in tasks]
    parts = _shares(costs, processes)
    results: list = [None] * len(tasks)
    children: list[tuple[int, BinaryIO]] = []
    try:
        for part in parts[1:]:
            children.append(_fork(fn, state, [tasks[i] for i in part]))
        for i in parts[0]:
            results[i] = fn(state, tasks[i])
        for part in parts[1:]:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            for i, result in zip(part, _outcome(data, status)):
                results[i] = result
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    return results


def _fork(fn: Callable, state: Any, share: list) -> tuple[int, BinaryIO]:
    """Start a child that runs fn over its share and writes the pickled
    outcome, (True, results) or (False, exception), to a pipe; returns the
    child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, [fn(state, task) for task in share])
            except BaseException as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _outcome(data: bytes, status: int) -> list:
    """The results a child sent, given its wait status; raises the exception
    it sent, or ChildProcessError when it ended without sending one."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited {code}"
        raise ChildProcessError(f"a worker process {how} before it sent its results")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value
