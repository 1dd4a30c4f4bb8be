import os
import signal
import sys
import threading
import time

import pytest

from conftest import assert_no_child_process, set_usable_cpus
from scnn import workers as W


class TestProcessCount:
    """The process-count helper is pure: these tests start no processes."""

    @pytest.mark.parametrize("parallelism,n_units,cpus,expected", [
        (1, 10, 8, 1),
        (2, 10, 8, 2),
        (4, 3, 8, 3),     # never more processes than units
        (1000, 99, 2, 2),  # never more processes than CPUs
        (4, 10, None, 1),  # unknown CPU count runs serially
    ])
    def test_caps(self, monkeypatch, parallelism, n_units, cpus, expected):
        # without affinity masks the CPU count is the cap
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert W.process_count(parallelism, n_units) == expected

    @pytest.mark.parametrize("usable,expected", [({3}, 1), ({0, 5}, 2), (set(range(8)), 4)])
    def test_affinity_caps_below_cpu_count(self, monkeypatch, usable, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        assert W.process_count(4, 15) == expected

    def test_one_process_off_linux(self, monkeypatch):
        set_usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert W.process_count(4, 10) == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError, match="parallelism"):
            W.process_count(bad, 5)


@pytest.mark.parametrize("n", [1, 2, 3])
class TestMapOnProcesses:
    """On n usable CPUs, map_on_processes runs share j % n of the items on
    one process, share 0 on the caller, and leaves no process or thread
    behind."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch, n):
        set_usable_cpus(monkeypatch, n)

    def test_results_in_item_order(self, n):
        threads = set(threading.enumerate())
        results = W.map_on_processes(lambda i: (i * i, os.getpid()), list(range(10)))
        assert [square for square, _ in results] == [i * i for i in range(10)]
        pids = [pid for _, pid in results]
        assert all(pids[j] == pids[j % n] for j in range(10))  # a share on one process
        assert len(set(pids)) == n  # and each share on a process of its own
        assert [pid == os.getpid() for pid in pids] == [j % n == 0 for j in range(10)]
        assert_no_child_process()
        assert set(threading.enumerate()) == threads

    def test_lowest_failure_raised_and_its_share_stopped(self, n, tmp_path):
        log, failing = tmp_path / "started.log", {4, 7}

        def item(i):  # the forked workers inherit it
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
            if i in failing:
                raise ValueError(f"item {i} failed")
            return i

        threads = set(threading.enumerate())
        with pytest.raises(ValueError, match="item 4 failed"):
            W.map_on_processes(item, list(range(12)))
        expected = set()  # each share up to its first failing item
        for w in range(n):
            for i in range(w, 12, n):
                expected.add(i)
                if i in failing:
                    break
        assert sorted(int(i) for i in log.read_text().split()) == sorted(expected)
        assert_no_child_process()
        assert set(threading.enumerate()) == threads

    def test_empty_plan(self, n):
        assert W.map_on_processes(lambda i: i, []) == []


def test_empty_plan_at_the_process_count_of_no_items(monkeypatch):
    # no item, no process count: an empty plan forks nothing and runs
    # nothing, whatever parallelism it is asked for
    def task(share, stopped):
        raise AssertionError("an empty plan ran a share")

    monkeypatch.setattr(W, "process_count", lambda *args: pytest.fail("counted processes"))
    for parallelism in (None, 1, 2):
        W.run_plan(task, [], lambda result: pytest.fail("collected a result"), parallelism)
    assert_no_child_process()


def test_run_plan_runs_on_the_parallelism_asked_for(monkeypatch):
    # 4 usable CPUs: at most that many processes, however many are asked for
    set_usable_cpus(monkeypatch, 4)

    def task(share, stopped):
        for item in share:
            yield item, os.getpid()

    for parallelism, expected in ((None, 4), (1, 1), (2, 2), (8, 4)):
        ran = []
        W.run_plan(task, list(range(6)), ran.append, parallelism)
        assert sorted(item for item, _ in ran) == list(range(6))
        assert len({pid for _, pid in ran}) == expected
    assert_no_child_process()


def test_tiny_shares_each_run_on_their_own_worker(monkeypatch):
    # three one-item shares: however fast a worker ends its share, it takes
    # no other, so each share's pid differs
    set_usable_cpus(monkeypatch, 3)
    for _ in range(20):
        pids = W.map_on_processes(lambda i: os.getpid(), [0, 1, 2])
        assert len(set(pids)) == 3 and pids[0] == os.getpid()
    assert_no_child_process()


def test_worker_with_more_than_a_pipe_of_results_keeps_working(tmp_path, monkeypatch):
    # the worker's share sends 2 MiB while the caller's one item runs: the
    # worker must finish its share without waiting for the caller to read
    done = tmp_path / "worker_done"

    def item(i):
        if i == 0:  # the caller's item waits for the worker's last one
            deadline = time.monotonic() + 60
            while not done.exists():
                assert time.monotonic() < deadline, "the worker waited for the caller"
                time.sleep(0.01)
            return b""
        if i == 15:
            done.touch()
        return bytes([i]) * (256 << 10)

    set_usable_cpus(monkeypatch, 2)
    results = W.map_on_processes(item, list(range(16)))
    assert results[0] == b""
    assert all(results[i] == bytes([i]) * (256 << 10) for i in range(2, 16, 2))  # the caller's
    assert all(results[i] == bytes([i]) * (256 << 10) for i in range(1, 16, 2))
    assert_no_child_process()


class Unpicklable(Exception):
    """An exception that holds a lock, so it does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TestWorkerErrors:
    def test_map_item_error_that_does_not_pickle_names_its_type(self, monkeypatch):
        def item(i):
            if i == 1:
                raise Unpicklable("held a lock")
            return i

        for n in (1, 2):  # the same error at any process count
            set_usable_cpus(monkeypatch, n)
            with pytest.raises(RuntimeError, match="Unpicklable .*held a lock"):
                W.map_on_processes(item, [0, 1, 2])
        assert_no_child_process()

    @pytest.mark.parametrize("error,raised", [
        (ValueError("share 1 broke"), ValueError),
        (Unpicklable("share 1 broke"), RuntimeError),
    ])
    def test_task_error_in_a_worker_raised_in_the_caller(self, error, raised, monkeypatch):
        def task(share, stopped):
            if share == [1]:
                raise error
            yield from share

        set_usable_cpus(monkeypatch, 2)
        with pytest.raises(raised, match="share 1 broke") as info:
            W.run_plan(task, [0, 1], lambda result: None)
        if raised is RuntimeError:
            assert "Unpicklable" in str(info.value)
        assert_no_child_process()

    @pytest.mark.parametrize("end,status", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"exit status {-signal.SIGKILL}"),
    ], ids=["exit", "killed"])
    def test_worker_ending_mid_share_raises_worker_died(self, end, status, monkeypatch):
        def item(i):
            if i == 3:
                end()
            return i

        set_usable_cpus(monkeypatch, 2)
        with pytest.raises(W.WorkerDied, match=rf"worker \d+ .*{status}"):
            W.map_on_processes(item, list(range(6)))
        assert_no_child_process()
