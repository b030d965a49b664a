"""`map_on_cores`: the serial loop's results, errors and warnings, from worker processes.

`_cores._usable_cores` is patched to 1 (the serial path) or 2 (two forked
workers, also on a one-core machine), so each answer is computed both ways.
"""

import multiprocessing
import os
import threading
import time
import warnings

import pytest

from milnorarc import ArcSearchConfig, _cores, parse, search_arcs
from milnorarc.cli import main


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    assert multiprocessing.active_children() == []


def cores(monkeypatch, count):
    monkeypatch.setattr(_cores, "_usable_cores", lambda: count)


def pid_of(_):
    return os.getpid()


def test_two_cores_fork_workers(monkeypatch):
    cores(monkeypatch, 2)
    for _ in range(2):   # the pool's threads are gone after a call, so the next one forks too
        pids = _cores.map_on_cores(pid_of, range(6))
        assert os.getpid() not in pids and 1 <= len(set(pids)) <= 2
        assert threading.active_count() == 1


@pytest.mark.parametrize("count", [1, 2])
def test_results_are_the_list_comprehension(monkeypatch, count):
    cores(monkeypatch, count)
    items = [3.5, -1, (2, "a"), None, "b"]
    assert _cores.map_on_cores(repr, items) == [repr(x) for x in items]
    assert _cores.map_on_cores(repr, []) == []


def fail_at_3_and_5(i):
    if i == 3:
        time.sleep(0.3)   # item 5 fails first in time
    if i in (3, 5):
        raise ValueError(f"item {i} failed")
    return i


@pytest.mark.parametrize("count", [1, 2])
def test_the_lowest_failing_item_raises(monkeypatch, count):
    cores(monkeypatch, count)
    with pytest.raises(ValueError, match="^item 3 failed$"):
        _cores.map_on_cores(fail_at_3_and_5, range(8))


def test_a_call_inside_a_worker_runs_serially(monkeypatch):
    cores(monkeypatch, 2)

    def nested(_):
        return os.getpid(), _cores.map_on_cores(pid_of, range(3))

    for pid, inner in _cores.map_on_cores(nested, range(2)):
        assert pid != os.getpid() and inner == [pid] * 3


@pytest.mark.parametrize("items", [range(1), range(4)], ids=["one-item", "another-thread"])
def test_serial_fallbacks(monkeypatch, items):
    cores(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if len(items) > 1:
        thread.start()
    try:
        assert _cores.map_on_cores(pid_of, items) == [os.getpid()] * len(items)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()


def warn_once_per_item(i):
    warnings.warn("from a slice", UserWarning)
    return i


@pytest.mark.parametrize("action, shown", [("default", 1), ("always", 4)])
def test_worker_warnings_show_as_in_the_serial_loop(monkeypatch, action, shown):
    cores(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert _cores.map_on_cores(warn_once_per_item, range(4)) == [0, 1, 2, 3]
    assert [str(w.message) for w in caught] == ["from a slice"] * shown
    assert {w.filename for w in caught} == {__file__}


CRITERION10 = ("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", "--vars", "x,y,z")
FLAGSHIP3 = ("x + x^2*y + z^2", "--vars", "x,y,z")


@pytest.mark.parametrize("argv", [
    ("analyze", *CRITERION10, "--center", "0,0,0"),
    ("analyze", *FLAGSHIP3, "--center", "1,2,-1"),
    ("trace", *CRITERION10, "--seed", "0"),
], ids=["analyze-criterion10", "analyze-flagship3", "trace-criterion10-seed0"])
def test_n3_output_is_the_same_on_one_and_two_workers(monkeypatch, capsys, argv):
    outputs = []
    for count in (1, 2):
        cores(monkeypatch, count)
        assert main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text, starts", [("x + x^2*y", 32), ("x^2*y^2 + x", 8)])
def test_arc_search_is_the_same_on_one_and_two_workers(monkeypatch, text, starts):
    f = parse(text, ["x", "y"])
    found = []
    for count in (1, 2):
        cores(monkeypatch, count)
        found.append([c.to_dict() for c in search_arcs(f, ArcSearchConfig(seed=0, starts=starts))])
    assert found[0] == found[1] and found[0]
