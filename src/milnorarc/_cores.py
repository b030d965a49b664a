"""`map_on_cores`: a list map over the cores this process may run on, with the serial results.

Independent solves (the tracer's n >= 3 slices, the arc search's starts) run
in this process and one forked child per further usable core.  Each process
claims the next ticket, a block of contiguous items, with one read from a pipe
the parent filled before it forked, so a slow item holds up no other.  Each
keeps the results of the items that returned with no exception and no
recorded warning; a child sends them as one pickled {index: result} and ends
with `os._exit`.  Once every child is reaped, the caller computes each item
still missing itself, in item order: one that raised or warned, whose child
died, or whose result did not pickle.  So every exception and warning comes
from a genuine call in the calling process, as in `[fn(x) for x in items]`,
and none crosses a pipe.  This relies on `fn` being deterministic, as the
byte-identical output on one core and on several already requires.  The
plain loop runs instead with fewer than 2 items or usable cores, without
`os.fork`, while another thread runs (fork copies only the calling thread,
and a lock another one holds stays held in the child), and inside a map.
Spawned children would start from a fresh import, which costs more than the
solves save.  This module imports no sibling module.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import warnings
from typing import Callable, Iterable

TICKET = 4            # bytes per ticket: the index of a block of items
MAX_TICKETS = 1024    # 4 KiB of tickets fit the smallest pipe buffer

_in_map = False       # set while a map runs, in the parent and in its children


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1   # no affinity call: serial


def _run_tickets(fn, items: list, block: int, tickets: int) -> dict:
    """{index: result} for the items of every ticket claimed that returned with no exception and no warning."""
    results = {}
    while ticket := os.read(tickets, TICKET):
        start = int.from_bytes(ticket, "little") * block
        for i in range(start, min(start + block, len(items))):
            with warnings.catch_warnings(record=True) as caught, contextlib.suppress(Exception):
                results[i] = fn(items[i])
            if caught:
                results.pop(i, None)
    return results


def map_on_cores(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], computed by this process and one forked child per further usable core."""
    global _in_map
    items = list(items)
    processes = min(len(items), _usable_cores())
    if processes < 2 or _in_map or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    block = -(-len(items) // MAX_TICKETS)
    tickets, write = os.pipe()
    os.write(write, b"".join(k.to_bytes(TICKET, "little") for k in range(-(-len(items) // block))))
    os.close(write)
    children = {}   # pid: the read end of its result pipe
    _in_map = True
    try:
        for _ in range(processes - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(_run_tickets(fn, items, block, tickets)))
                finally:
                    os._exit(0)
            os.close(write)
            children[pid] = open(read, "rb")
        results = _run_tickets(fn, items, block, tickets)
        for pipe in children.values():
            with contextlib.suppress(Exception):   # from a child that died, or whose results do not pickle and unpickle
                results.update(pickle.loads(pipe.read()))
    finally:
        _in_map = False
        os.close(tickets)
        for pid, pipe in children.items():
            pipe.close()
            os.waitpid(pid, 0)
    return [results[i] if i in results else fn(x) for i, x in enumerate(items)]
