"""Forked worker processes, the one way this package runs work in parallel:
the Monte Carlo blocks and the boundary probe both run through here.

Workers are forked, so what they run reaches them without pickling; only
results and raised errors travel back, pickled.  Python 3.12 and later
warn when a process with running threads forks.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from contextlib import contextmanager

from .errors import SolverError


def worker_cpus() -> int:
    """CPUs forked workers may run on: those of this process's affinity, or 1
    (run in the calling process) without ``fork`` or from a daemonic process,
    which may not start children."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _serve(call, write_fd: int) -> None:
    """The worker: send the pickled ``(True, call())``, or ``(False, error)``
    for the error it raised, and leave through ``os._exit``, so the worker
    never unwinds into the caller's stack.  Anything else, an interrupt
    included, ends it with no reply."""
    code = 1
    try:
        try:
            reply = (True, call())
        except Exception as err:
            reply = (False, err)
        data = pickle.dumps(reply)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def concurrently(*calls):
    """Run each zero-argument call in a forked worker of its own while the
    ``with`` block runs.

    Yields ``results``, which waits for the workers in call order and
    returns what the calls returned, as a list, or raises the first error
    in that order as soon as it arrives.  Without a second CPU
    (``worker_cpus``) nothing is forked, and ``results`` makes the calls.
    No worker outlives the block: those not yet reaped, because an error
    came first, are killed and reaped.
    """
    if worker_cpus() < 2:
        yield lambda: [call() for call in calls]
        return
    running = {}  # pid -> read end of its pipe, for the workers not yet reaped

    def results():
        values = []
        for pid, pipe in list(running.items()):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            pipe.close()
            if not data:
                raise SolverError(f"worker process exited with code "
                                  f"{os.waitstatus_to_exitcode(status)} and sent no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            values.append(value)
        return values

    try:
        for call in calls:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _serve(call, write_fd)
            os.close(write_fd)
            running[pid] = os.fdopen(read_fd, "rb")
        yield results
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
