"""Forked worker processes that share a fixed plan with their caller.

run_plan runs the items of a plan on n processes, item j on process j % n:
the calling process runs share 0 itself, starting at once, and n - 1
workers forked from it run the others. search runs a run's fold units on
it. map_on_processes, a map over it, runs a stack's members for ensemble's
predict and hashes their files for its manifest; no scnn module runs work
in parallel any other way. A worker inherits the task and everything it
reads (the training inputs, the documents and the stack), and the caller's
BLAS thread count, from the fork, without a copy, and sends each result
back as it is made. A fixed plan keeps each process's work the same from
run to run.

When the caller fails or is interrupted, each worker stops after its
current item; when the caller dies, the kernel ends its workers with
SIGTERM. The workers are forked only on Linux: ensemble.process_count,
which sets n for both, caps it at 1 elsewhere.
"""

from __future__ import annotations

import ctypes
import os
import queue
import signal
from contextlib import ExitStack
from typing import Callable


_WORKER = {}  # in a forked worker: the arguments of its _start_worker
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(task: Callable, caller: int, stop, results) -> None:
    """Pool initializer, run in each worker as it is forked from the
    process ``caller``: the arguments are the caller's own objects, not
    copies. The worker ignores Ctrl-C, which reaches the caller too, and the
    caller then stops it through ``stop``; it takes SIGTERM's default action
    whatever handler the caller set. The kernel sends it SIGTERM when the
    caller's forking thread, its main thread, ends, so a worker never
    outlives a caller that dies, wherever it waits; one whose caller died
    before this call exits at once. A worker that exits drops the results
    it has not yet sent instead of waiting for the caller to read them,
    which a failing caller never does."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    if os.getppid() != caller:
        os._exit(1)
    results.cancel_join_thread()
    _WORKER.update(task=task, stop=stop, results=results)


def _run_share(share: list) -> None:
    """A worker's job: the task's results for ``share``, each sent to the
    caller as it is made, then None for the share's end. No item starts
    once the caller has set the stop event."""
    for result in _WORKER["task"](share, _WORKER["stop"].is_set):
        _WORKER["results"].put(result)
    _WORKER["results"].put(None)


class _Workers:
    """Workers forked from the caller, one per share, on a pool that
    ``stack`` shuts down; no shares start no pool. Once ``stack`` unwinds, a
    worker starts no further item, so a failing caller waits only for the
    items running."""

    def __init__(self, stack: ExitStack, task: Callable, shares: list):
        self.running, self.futures = len(shares), []
        if not shares:
            return
        # imported here, so that a command on one process does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks every worker inside the first submit, before it
        # starts its manager thread, so no Python thread runs at the fork
        # (OpenBLAS's own fork handler stops its threads).
        context = multiprocessing.get_context("fork")
        stop, self.results = context.Event(), context.Queue()
        pool = stack.enter_context(ProcessPoolExecutor(
            max_workers=len(shares), mp_context=context, initializer=_start_worker,
            initargs=(task, os.getpid(), stop, self.results)))
        stack.callback(stop.set)  # unwinds before the pool's exit joins the workers
        self.futures = [pool.submit(_run_share, share) for share in shares]

    def received(self, wait: bool):
        """Yield the results the workers have sent; with ``wait``, until
        every share has ended. A worker's error, or its death, is raised."""
        while self.running:
            try:
                result = self.results.get(timeout=0.05) if wait else self.results.get_nowait()
            except queue.Empty:
                for future in self.futures:
                    if future.done():
                        future.result()
                if not wait:
                    return
                continue
            if result is None:
                self.running -= 1
            else:
                yield result


def run_plan(task: Callable, items: list, n: int, collect: Callable) -> None:
    """Run ``items`` on ``n`` processes, item j on process j % n, and call
    ``collect(result)`` in the caller for each result as it comes in.
    ``task(share, stopped)`` yields the results of a share's items, in
    turn, none of them None, and starts no item once ``stopped()`` is true;
    share 0 runs in the caller, the others on forked workers."""
    shares = [items[w::n] for w in range(n)]
    with ExitStack() as stack:
        workers = _Workers(stack, task, shares[1:])
        for result in task(shares[0], lambda: False):
            collect(result)
            for sent in workers.received(wait=False):
                collect(sent)
        for sent in workers.received(wait=True):
            collect(sent)


def map_on_processes(fn: Callable, items: list, n: int) -> list:
    """``[fn(item) for item in items]``, on ``n`` processes by run_plan,
    item j on process j % n. A process stops its share at its first failing
    item; once every process is done, the lowest failing item's error is
    raised, so the error does not depend on ``n``."""
    results, errors = [None] * len(items), {}

    def run_share(share, stopped):
        for j in share:
            if stopped():
                return
            try:
                yield j, fn(items[j]), None
            except Exception as exc:
                yield j, None, exc
                return

    def collect(result) -> None:
        j, value, error = result
        if error is None:
            results[j] = value
        else:
            errors[j] = error

    run_plan(run_share, list(range(len(items))), n, collect)
    if errors:
        raise errors[min(errors)]
    return results
