"""Forked worker processes: the rule for when one may be started, and one
call run in a worker while the caller goes on.

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
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _serve(fn, args, write_fd: int) -> None:
    """The worker: send the pickled ``(True, fn(*args))``, or ``(False, error)``
    for the error it raised, and leave through ``os._exit``, so the worker
    never unwinds into the caller's stack.  Anything else, an interrupt
    included, ends it with no reply."""
    code = 1
    try:
        try:
            reply = (True, fn(*args))
        except Exception as err:
            reply = (False, err)
        data = pickle.dumps(reply)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def concurrently(fn, *args):
    """Run ``fn(*args)`` in one forked worker while the ``with`` block runs.

    Yields ``result``, which waits for the worker and returns what ``fn``
    returned, or raises what it raised.  Without a second CPU
    (``worker_cpus``) nothing is forked, and ``result`` calls ``fn`` itself.
    No worker outlives the block: one whose result was not taken, because
    the block raised first, is killed and reaped.
    """
    if worker_cpus() < 2:
        yield lambda: fn(*args)
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _serve(fn, args, write_fd)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        if not data:
            raise SolverError(f"worker process exited with code "
                              f"{os.waitstatus_to_exitcode(status)} and sent no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
