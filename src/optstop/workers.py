"""Worker processes: one job split into contiguous groups, each but the first in a forked child.

A job (a Monte Carlo run's trials, or the points of a large
exact-evaluator call) of ``size`` items is split into W contiguous
groups of whole ``step``s (``run_groups``).  The calling process runs
the first group and one ``os.fork``ed child per other group runs
another, all at once; at W = 1 the one group runs in the caller through
the same code.  Each group returns its results: a child's return value
is pickled into an unnamed temporary file, which the caller reads once
it has reaped the child, and ``run_groups`` returns every group's value
in group order for the caller to join.  Every result is a function of
its own inputs alone, so the output does not depend on W.  Whatever the
job needs read-only (a run's tables, the evaluator's parameters) is
made before the fork, so the children inherit it.

W is at most ``worker_count()`` (the usable CPUs on Linux with
``os.fork``, else 1), the job's own limit (``usable``) and its number
of ``step``s.  It is 1, and the job forks nothing, when the process
runs another Python thread, since a fork would copy a lock that thread
may hold, and inside a job that runs split over processes, in the
caller's group as in each child's: that job's processes already hold
the CPUs, so a job started there (a table a bar-less rule's trials
build on demand) runs where it is.

A child leaves through ``os._exit`` and reports through its temporary
file alone: its pickled return value and exit status 0, or its failure's
message, whole, and status 1.  The caller reaps every child before it
returns or raises, kills them first when it raises itself, and raises
``OptstopError`` for a child that failed or died.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import tempfile
import threading
from typing import IO, Callable, List, Tuple

from .errors import OptstopError

_in_job = False  # set while a split job's group runs, here or in a forked child


def worker_count() -> int:
    """The usable CPUs on Linux, which has ``os.fork``; 1 anywhere else."""
    if sys.platform.startswith("linux") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def usable(most: int) -> int:
    """The processes a job that splits into at most ``most`` groups runs in.

    The least of ``worker_count()`` and ``most``, and at least 1; 1 inside
    a split job and while another Python thread runs.
    """
    if _in_job or threading.active_count() > 1:
        return 1
    return max(1, min(worker_count(), most))


def run_groups(run: Callable, size: int, most: int, what: str, step: int = 1) -> list:
    """``run(group)`` for contiguous groups of ``range(size)``, the first here; their values.

    The groups, at most ``usable(most)``, run at once, each but the first
    in a forked child.  Each but the last is a whole number of ``step``s,
    and none is empty but the one group of a job of size 0.  The values
    come back in group order.  Every child is reaped before this returns
    or raises; if ``run`` raises here (a ``KeyboardInterrupt`` too), the
    children are killed first.  ``OptstopError`` naming ``what`` and the
    first child that failed or died.
    """
    global _in_job
    steps = -(-size // step)
    w = min(usable(most), max(steps, 1))
    bounds = [steps * i // w * step for i in range(w)] + [size]
    groups = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    outer, children = _in_job, []
    try:
        for group in groups[1:]:
            children.append(_fork(run, group))
        _in_job = outer or bool(children)
        first = run(groups[0])
    except BaseException:
        _reap(children, kill=True)
        raise
    finally:
        _in_job = outer
    failures, values = _reap(children, kill=False)
    if failures:
        raise OptstopError(f"{what} worker failed: {failures[0]}")
    return [first] + values


def _fork(run: Callable, group) -> Tuple[int, IO[bytes]]:
    """Start ``run(group)`` in a forked child; its pid and its result file.

    The child always leaves through ``os._exit``, so none of the caller's
    ``finally`` blocks, exit handlers or stdio flushes run in it.  It
    pickles its return value into the unnamed temporary file and exits
    with status 0.  A failure, in ``run`` or in the pickling, empties the
    file, writes its message there instead and exits with status 1.
    """
    global _in_job
    result = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        result.close()
        raise
    if pid == 0:
        _in_job = True
        status = 1
        try:
            pickle.dump(run(group), result, protocol=pickle.HIGHEST_PROTOCOL)
            result.flush()
            status = 0
        except BaseException as exc:
            result.seek(0)  # a value pickled partway is dropped
            result.truncate()
            result.write(f"{type(exc).__name__}: {exc}".encode())
            result.flush()
        finally:
            os._exit(status)
    return pid, result


def _reap(children: list, kill: bool) -> Tuple[List[str], list]:
    """Wait for every (pid, result file) child, killed first with ``kill``, and close its file.

    The failures, and, unless killed or failed, every child's return value.
    Interrupted while waiting, it kills the children not yet reaped and
    reaps them before it raises.
    """
    statuses = {}
    try:
        try:
            for pid, _ in children:
                if kill:
                    os.kill(pid, signal.SIGKILL)
            for pid, _ in children:
                statuses[pid] = os.waitpid(pid, 0)[1]
        except BaseException:
            for pid in (pid for pid, _ in children if pid not in statuses):
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            raise
        failures = []
        for pid, result in children:
            result.seek(0)  # the exited child's writes moved the offset it shares with the caller
            code = os.waitstatus_to_exitcode(statuses[pid])
            if code < 0:
                failures.append(f"worker {pid} died by signal {-code}")
            elif code:
                message = result.read().decode(errors="replace")
                failures.append(message or f"worker {pid} exited with status {code}")
        values = [] if kill or failures else [pickle.load(result) for _, result in children]
    finally:
        for _, result in children:
            result.close()
    return failures, values
