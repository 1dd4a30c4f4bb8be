import os
import signal
import threading
import time

import pytest

from conftest import assert_no_child_process
from scnn import workers as W
from scnn.ensemble import process_count


@pytest.mark.parametrize("n", [1, 2, 3])
class TestMapOnProcesses:
    """map_on_processes runs share j % n of the items on one process, share 0
    on the caller, and leaves no process or thread behind."""

    def test_results_in_item_order(self, n):
        threads = set(threading.enumerate())
        results = W.map_on_processes(lambda i: (i * i, os.getpid()), list(range(10)), n)
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
            W.map_on_processes(item, list(range(12)), n)
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
        assert W.map_on_processes(lambda i: i, [], n) == []


def test_empty_plan_at_the_process_count_of_no_items():
    assert process_count(2, 0) == 0
    assert W.map_on_processes(lambda i: i, [], process_count(2, 0)) == []


def test_tiny_shares_each_run_on_their_own_worker():
    # three one-item shares: however fast a worker ends its share, it takes
    # no other, so each share's pid differs
    for _ in range(20):
        pids = W.map_on_processes(lambda i: os.getpid(), [0, 1, 2], 3)
        assert len(set(pids)) == 3 and pids[0] == os.getpid()
    assert_no_child_process()


def test_worker_with_more_than_a_pipe_of_results_keeps_working(tmp_path):
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

    results = W.map_on_processes(item, list(range(16)), 2)
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
    def test_map_item_error_that_does_not_pickle_names_its_type(self):
        def item(i):
            if i == 1:
                raise Unpicklable("held a lock")
            return i

        for n in (1, 2):  # the same error at any process count
            with pytest.raises(RuntimeError, match="Unpicklable .*held a lock"):
                W.map_on_processes(item, [0, 1, 2], n)
        assert_no_child_process()

    @pytest.mark.parametrize("error,raised", [
        (ValueError("share 1 broke"), ValueError),
        (Unpicklable("share 1 broke"), RuntimeError),
    ])
    def test_task_error_in_a_worker_raised_in_the_caller(self, error, raised):
        def task(share, stopped):
            if share == [1]:
                raise error
            yield from share

        with pytest.raises(raised, match="share 1 broke") as info:
            W.run_plan(task, [0, 1], 2, lambda result: None)
        if raised is RuntimeError:
            assert "Unpicklable" in str(info.value)
        assert_no_child_process()

    @pytest.mark.parametrize("end,status", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"exit status {-signal.SIGKILL}"),
    ], ids=["exit", "killed"])
    def test_worker_ending_mid_share_raises_worker_died(self, end, status):
        def item(i):
            if i == 3:
                end()
            return i

        with pytest.raises(W.WorkerDied, match=rf"worker \d+ .*{status}"):
            W.map_on_processes(item, list(range(6)), 2)
        assert_no_child_process()
