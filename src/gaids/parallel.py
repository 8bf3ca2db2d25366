"""Map a function over tasks in worker processes, or in this process.

Detection (`engine.run_batch`) and training (`model.precalculate`) both map
one function over independent tasks that read one large shared state: the
feature matrix, the model and the settings. `map_tasks` sends that state to
each process once, through the pool's initializer. Where the platform has
the fork start method the pool pins it, so a process inherits the state
instead of unpickling a copy (Python 3.14 makes forkserver the default on
Linux, which would pickle the feature matrix into every process).

`concurrent.futures` and `multiprocessing` are imported only when a pool
starts: importing them takes about 20 ms, against about 0.3 s for a whole
small `gaids train` on a 2-vCPU VM, and most runs never start a pool.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Sequence

# The state the mapped function reads in a pool process, set once per
# process by the pool's initializer.
_STATE: Any = None


def process_count(workers: int, tasks: int) -> int:
    """Processes a map of `tasks` tasks uses: at most one per worker, per
    CPU and per task."""
    return min(workers, os.cpu_count() or 1, tasks)


def _set_state(state: Any) -> None:
    global _STATE
    _STATE = state


def _call(fn: Callable, task: Any) -> Any:
    return fn(_STATE, task)


def map_tasks(
    fn: Callable[[Any, Any], Any],
    tasks: Sequence,
    state: Any,
    processes: int,
    chunksize: int = 1,
) -> list:
    """[fn(state, task) for task in tasks], in `processes` pool processes
    (`chunksize` tasks per round trip), or in this process when `processes`
    is at most 1. fn must be a module-level function, because a pool sends
    it to its processes by name."""
    if processes <= 1:
        return [fn(state, task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    with ProcessPoolExecutor(
        processes, mp_context=context, initializer=_set_state, initargs=(state,)
    ) as pool:
        return list(pool.map(partial(_call, fn), tasks, chunksize=chunksize))
