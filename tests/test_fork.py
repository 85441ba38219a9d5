"""Work split over forked children: results handed back through files."""

import os
import re
import signal
import time

import pytest

from geokatz import _fork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")

# Several times the 64 KB a pipe buffers.
LARGE = 4 << 20


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from now on; the test fails when
    one is left unreaped or a file descriptor is left open."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def _payload(i):
    return bytes([i]) * LARGE


def _raise(exc):
    raise exc


def _state(pid):
    """The one-letter state of process ``pid`` in /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_a_child_with_a_large_result_exits_while_the_caller_works(forks):
    # The caller's own part waits for the child to end; a child that
    # had to wait for the caller to read its result would still be
    # sleeping when the caller gives up.
    def caller_part():
        deadline = time.monotonic() + 10
        while _state(forks[0]) != "Z" and time.monotonic() < deadline:
            time.sleep(0.01)
        return _state(forks[0])

    state, result = _fork.run_parts([(caller_part, "the caller"),
                                     (lambda: _payload(7), "the child")])
    assert state == "Z"
    assert result == _payload(7)


def test_several_children_hand_back_large_results_in_order(forks):
    results = _fork.run_parts([(lambda i=i: _payload(i), f"part {i}")
                               for i in range(4)])
    assert len(forks) == 3
    assert results == [_payload(i) for i in range(4)]


def test_the_first_child_error_in_part_order_is_raised(forks):
    with pytest.raises(KeyError, match="'second'"):
        _fork.run_parts([
            (lambda: _payload(0), "part 0"),
            (lambda: _payload(1), "part 1"),
            (lambda: _raise(KeyError("second")), "part 2"),
            (lambda: _raise(ValueError("third")), "part 3")])
    assert len(forks) == 3


def test_the_caller_error_wins_and_every_child_is_reaped(forks):
    with pytest.raises(ZeroDivisionError):
        _fork.run_parts([(lambda: 1 / 0, "the caller"),
                         (lambda: _raise(KeyError("child")), "part 1"),
                         (lambda: _payload(2), "part 2")])
    assert len(forks) == 2


def test_an_error_that_does_not_pickle_keeps_its_type_name_and_text(forks):
    class Local(Exception):
        pass

    with pytest.raises(RuntimeError, match="^Local: not picklable$"):
        _fork.run_parts([(lambda: None, "the caller"),
                         (lambda: _raise(Local("not picklable")), "part 1")])


def test_a_child_killed_by_a_signal_is_a_runtime_error_naming_it(forks):
    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=re.escape(
            "part 2 ended with exit status -9 (killed by signal 9) "
            "without reporting an error")):
        _fork.run_parts([(lambda: _payload(0), "part 0"),
                         (lambda: _payload(1), "part 1"),
                         (die, "part 2")])
    assert len(forks) == 2


def test_one_part_runs_here_without_a_fork(forks):
    assert _fork.run_parts([(lambda: _payload(3), "part 0")]) == [
        _payload(3)]
    assert forks == []
