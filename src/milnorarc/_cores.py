"""`map_on_cores`: a list map over the cores this process may run on, with the serial results.

Independent solves (the tracer's n >= 3 slices, the arc search's starts) run
on a fork-context process pool with one worker per usable core.  `fn` and
the items reach the workers through fork; only indices, results and the
warnings a worker recorded cross the pipes.  Results come back in item order,
and when items fail the exception of the lowest-index one is raised, which
is the one the serial loop would hit first.  Recorded warnings are issued
again in the parent in item order, through the warning registry of the
module that issued them, so each shows as often as the serial loop shows it.

The plain loop runs instead with fewer than 2 items or usable cores, without
the fork start method, while another thread runs (fork copies only the
calling thread, and a lock held by another one stays held in the child), and
inside a worker.  Spawned workers would start from a fresh import, which
costs more than the solves save.  This module imports no sibling module.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from typing import Callable, Iterable

# set in a worker process only, by _start_worker
_job: tuple = ()
_in_worker = False


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: stay serial
        return 1


def _start_worker(fn, items) -> None:
    global _job, _in_worker
    _job, _in_worker = (fn, items), True


def _call(index: int):
    """fn(items[index]) in a worker, with the warnings it issued."""
    fn, items = _job
    with warnings.catch_warnings(record=True) as caught:
        result = fn(items[index])
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _reissue(caught) -> None:
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None)
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(message, category, filename, lineno,
                               module=module.__name__ if module else None, registry=registry)


def map_on_cores(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], computed on up to one worker per usable core."""
    items = list(items)
    workers = min(len(items), _usable_cores())
    if workers < 2 or _in_worker or threading.active_count() > 1:
        return [fn(x) for x in items]
    import multiprocessing  # only a parallel map needs it
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    # the workers fork at the first submit, before the pool starts its threads
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, items))
    try:
        results = []
        for future in [pool.submit(_call, i) for i in range(len(items))]:
            result, caught = future.result()    # a failed item raises here, in item order
            _reissue(caught)
            results.append(result)
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
