"""The fork helper: results in task order, the first failure in task order,
and every child reaped, whatever the number of workers."""

import os
import signal
from fractions import Fraction

import pytest

from holoq.families import PoleError
from holoq.workers import run_tasks


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Timeout(Exception):
    pass


@pytest.fixture
def time_limit():
    """Fails the test with _Timeout after 60 s instead of hanging."""
    def expire(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class _Unpicklable(ValueError):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


def _tasks(count, fail=None):
    """count labelled tasks; task i returns (i, its process id), or runs
    fail(i) first when fail is given."""
    def task(i):
        if fail is not None:
            fail(i)
        return i, os.getpid()

    return [(f"task {i}", lambda i=i: task(i)) for i in range(count)]


def _raising_at(failing, make_error):
    def fail(i):
        if i in failing:
            raise make_error(i)
    return fail


class TestRunTasks:
    def test_results_in_task_order(self, monkeypatch, time_limit):
        # with 2 workers, tasks 0 and 2 run here and task 1 in the child
        forks = _count_forks(monkeypatch)
        results = run_tasks(_tasks(3), 2)
        _assert_no_children()
        assert forks == [1]
        assert [i for i, _ in results] == [0, 1, 2]
        pids = [pid for _, pid in results]
        assert pids[0] == pids[2] == os.getpid() != pids[1]

    @pytest.mark.parametrize("workers, count", [(1, 3), (2, 1)])
    def test_one_worker_never_forks(self, monkeypatch, workers, count):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        assert run_tasks(_tasks(count), workers) == [(i, os.getpid()) for i in range(count)]

    def test_first_failing_task_wins(self, time_limit):
        # task 2 fails here first in time, but task 1, in the child, comes
        # first in task order, as in the serial loop
        fail = _raising_at({1, 2}, lambda i: ValueError(f"task {i}"))
        with pytest.raises(ValueError, match="task 1"):
            run_tasks(_tasks(3, fail), 2)
        _assert_no_children()

    def test_pole_in_a_child_reaches_the_caller(self, time_limit):
        fail = _raising_at({1}, lambda i: PoleError(Fraction(2), 0.5))
        with pytest.raises(PoleError) as info:
            run_tasks(_tasks(2, fail), 2)
        assert (info.value.lam, info.value.residue_norm) == (Fraction(2), 0.5)
        _assert_no_children()

    def test_unpicklable_error_arrives_with_its_traceback(self, time_limit):
        fail = _raising_at({1}, lambda i: _Unpicklable(f"task {i}"))
        with pytest.raises(RuntimeError, match="_Unpicklable: task 1"):
            run_tasks(_tasks(2, fail), 2)
        _assert_no_children()

    def test_child_that_exits_early_raises(self, time_limit):
        caller = os.getpid()

        def fail(i):
            if i == 1:
                # never in the caller, which would end the test run
                assert os.getpid() != caller
                os._exit(3)

        with pytest.raises(RuntimeError, match=r"task 1 .*wait status 768"):
            run_tasks(_tasks(2, fail), 2)
        _assert_no_children()

    def test_failure_in_the_callers_share_reaps_the_child(self, time_limit):
        fail = _raising_at({0}, lambda i: ValueError(f"task {i}"))
        with pytest.raises(ValueError, match="task 0"):
            run_tasks(_tasks(2, fail), 2)
        _assert_no_children()
