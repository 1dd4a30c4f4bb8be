"""Forked worker processes that share a fixed plan with their caller.

run_plan runs item j of a plan on process j % n: the caller runs share 0,
and a worker forked from it runs each other share, inheriting all it reads
and the caller's BLAS thread count. search trains fold units on it, and
map_on_processes, over it, runs and hashes a stack's members; scnn runs
work in parallel no other way, and starts no thread. Workers are forked
only on Linux: ensemble.process_count caps n at 1 elsewhere.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import signal
from typing import Callable

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
_RESULT, _ERROR, _END = range(3)  # the kinds of message a worker sends


class WorkerDied(Exception):
    """A worker process ended without finishing its share."""


def _start_worker(caller: int) -> None:
    """Set up a worker forked from ``caller``: it ignores Ctrl-C and gets
    SIGTERM when the caller's main thread ends, or exits if it has ended."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    if os.getppid() != caller:
        os._exit(1)


def _sendable(exc: Exception) -> Exception:
    """``exc``, or a RuntimeError naming its type when it does not pickle."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__} (does not pickle): {exc}")
    return exc


def _send(fd: int, pending: bytearray, message) -> None:
    """Queue ``message`` as a length-prefixed pickle; write what ``fd`` takes."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    pending += len(data).to_bytes(8, "little") + data
    try:
        while pending:
            del pending[:os.write(fd, pending)]
    except BlockingIOError:  # the pipe is full: the rest waits for the next message
        pass


def _fork(task: Callable, share: list, pipes: dict) -> int:
    """Fork a worker (-> its pid) to run ``share``, sending each result, then
    an end marker or its error, on a pipe whose read end joins ``pipes``."""
    caller, (read_end, write_end) = os.getpid(), os.pipe()
    if (pid := os.fork()) == 0:
        try:
            _start_worker(caller)
            for fd in [read_end, *pipes]:
                os.close(fd)
            os.set_blocking(write_end, False)
            pending, closed = bytearray(), select.poll()
            closed.register(write_end, 0)  # POLLERR once the caller closes its read end
            try:
                for result in task(share, lambda: bool(closed.poll(0))):
                    _send(write_end, pending, (_RESULT, result))
                message = (_END, None)
            except Exception as exc:
                message = (_ERROR, _sendable(exc))
            os.set_blocking(write_end, True)
            _send(write_end, pending, message)  # waits for the caller to read
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    pipes[read_end] = (pid, bytearray())
    return pid


def _receive(pipes: dict, pids: list, collect: Callable, timeout) -> None:
    """``collect`` the results sent, waiting up to ``timeout`` s (None: for
    good); raise a worker's error, or WorkerDied if it ends unfinished."""
    for fd in select.select(list(pipes), [], [], timeout)[0]:
        pid, data = pipes[fd]
        data += (chunk := os.read(fd, 1 << 16))  # a pipe holds 64 KiB
        while len(data) >= 8 and len(data) >= (size := 8 + int.from_bytes(data[:8], "little")):
            kind, value = pickle.loads(data[8:size])
            del data[:size]
            if kind == _ERROR:
                raise value
            if kind == _END:
                del pipes[fd]
                os.close(fd)
            else:
                collect(value)
        if not chunk and fd in pipes:
            pids.remove(pid)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # -N: signal N
            raise WorkerDied(f"worker {pid} ended before its share, exit status {status}")


def run_plan(task: Callable, items: list, n: int, collect: Callable) -> None:
    """Run ``items`` on ``n`` processes and ``collect(result)`` each result
    in the caller as it comes in. ``task(share, stopped)`` yields a share's
    results, starting no item once ``stopped()``: once the caller unwinds,
    it waits for the workers' current items only, and reaps them."""
    if not items:
        return
    pipes, pids = {}, []  # read end of a running worker's pipe -> (pid, bytes in)
    try:
        for w in range(1, n):
            pids.append(_fork(task, items[w::n], pipes))
        for result in task(items[::n], lambda: False):
            collect(result)
            _receive(pipes, pids, collect, 0)
        while pipes:
            _receive(pipes, pids, collect, None)
    finally:
        for fd in pipes:
            os.close(fd)  # its worker starts no further item, and writes get EPIPE
        for pid in pids:
            os.waitpid(pid, 0)


def map_on_processes(fn: Callable, items: list, n: int) -> list:
    """``[fn(item) for item in items]`` by run_plan. Each process stops at its
    first failing item; then the lowest failing item's error, as a RuntimeError
    naming its type if it does not pickle, is raised, whatever ``n`` is."""
    def run_share(share, stopped):
        for j in share:
            if stopped():
                return
            try:
                yield j, fn(items[j]), None
            except Exception as exc:
                yield j, None, _sendable(exc)
                return

    outcomes = []
    run_plan(run_share, list(range(len(items))), n, outcomes.append)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, _, error in outcomes:
        if error is not None:
            raise error
    return [value for _, value, _ in outcomes]
