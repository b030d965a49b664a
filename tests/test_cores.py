"""`map_on_cores`: the serial loop's results, errors and warnings, from several processes.

`_cores._usable_cores` is patched to 1 (the serial path) or 2 (the calling
process and one forked child, also on a one-core machine), so each answer is
computed both ways.
"""

import os
import signal
import threading
import time
import warnings

import pytest

from milnorarc import ArcSearchConfig, WindowViolationError, _cores, arc_window, parse, search_arcs
from milnorarc.cli import main
from milnorarc.milnor import DegenerateCenterError
from milnorarc.poly import ParseError


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    with pytest.raises(ChildProcessError):   # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def cores(monkeypatch, count):
    monkeypatch.setattr(_cores, "_usable_cores", lambda: count)


def pid_of(_):
    return os.getpid()


def slow_pid_of(_):
    time.sleep(0.05)
    return os.getpid()


def test_two_cores_share_the_items_with_the_parent(monkeypatch):
    cores(monkeypatch, 2)
    for _ in range(2):   # a call leaves nothing behind, so the next one forks too
        pids = _cores.map_on_cores(slow_pid_of, range(6))
        assert os.getpid() in pids and len(set(pids)) == 2
        assert threading.active_count() == 1


def test_a_large_map_returns(monkeypatch):
    # 20000 one-item tickets would overfill the ticket pipe before the fork
    cores(monkeypatch, 2)
    assert _cores.map_on_cores(abs, range(-20000, 0)) == list(range(20000, 0, -1))


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


def test_a_call_inside_a_map_runs_serially(monkeypatch):
    cores(monkeypatch, 2)

    def nested(_):
        return os.getpid(), _cores.map_on_cores(slow_pid_of, range(3))

    outer = _cores.map_on_cores(nested, range(4))
    assert os.getpid() in dict(outer)
    for pid, inner in outer:
        assert inner == [pid] * 3


def test_a_child_that_dies_leaves_its_items_to_the_caller(monkeypatch):
    cores(monkeypatch, 2)
    parent = os.getpid()

    def die_in_the_child(i):
        time.sleep(0.02)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    assert _cores.map_on_cores(die_in_the_child, range(8)) == list(range(8))


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def test_an_unpicklable_exception_reaches_the_caller(monkeypatch):
    cores(monkeypatch, 2)

    def fail(i):
        time.sleep(0.02)
        raise Unpicklable(i)

    with pytest.raises(Unpicklable) as caught:
        _cores.map_on_cores(fail, range(8))
    assert caught.value.args == (0,)


def test_an_unpicklable_result_of_a_child_is_computed_by_the_caller(monkeypatch):
    cores(monkeypatch, 2)
    parent = os.getpid()

    def lock_in_the_child(i):
        time.sleep(0.02)
        return i if os.getpid() == parent else threading.Lock()

    assert _cores.map_on_cores(lock_in_the_child, range(8)) == list(range(8))


# errors whose __init__ takes a field beyond the message, so they do not pickle by default
ERRORS = [ParseError("bad", 3), DegenerateCenterError("m", ["a"]), WindowViolationError(4, arc_window(2, 3))]


@pytest.mark.parametrize("error", ERRORS)
def test_an_error_raised_in_a_child_reaches_the_caller_as_itself(monkeypatch, error):
    cores(monkeypatch, 2)

    def fail(i):
        time.sleep(0.02)
        raise error

    with pytest.raises(type(error)) as caught:
        _cores.map_on_cores(fail, range(8))
    assert caught.value is error


def test_a_clean_map_calls_fn_once_per_item(monkeypatch, tmp_path):
    # each call appends its pid with O_APPEND, so the lines count the calls of both processes
    cores(monkeypatch, 2)
    log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(i):
        time.sleep(0.02)
        os.write(log, b"%d\n" % os.getpid())
        return i

    try:
        assert _cores.map_on_cores(logged, range(8)) == list(range(8))
    finally:
        os.close(log)
    calls = (tmp_path / "calls").read_text().split()
    assert len(calls) == 8 and len(set(calls)) == 2


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
    time.sleep(0.02)   # so the child takes items too
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
