import multiprocessing
import os
import threading

import pytest

from scnn import workers as W


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
        assert [pid == os.getpid() for pid in pids] == [j % n == 0 for j in range(10)]
        assert multiprocessing.active_children() == []
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
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads
