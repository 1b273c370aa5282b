"""Independent tasks run across the available CPUs in forked processes.

:func:`run_tasks` is the package's one way of starting processes: the
property suite hands it its checks and the variational search its restarts.
It returns what a serial loop over the tasks returns, in task order, and
raises what that loop would raise, however many processes ran them.  There
is no option for it: the number of processes follows from the CPUs this
process may run on.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from collections.abc import Callable, Sequence
from typing import Any

__all__ = ["run_tasks"]


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it should not fork: no
    ``fork`` or CPU affinity on the platform, other threads running (a
    forked child gets no copy of them, nor of the locks they hold), or a
    daemonic ``multiprocessing`` worker (it may start no process)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    # looked up, not imported: it adds about 0.7 MB to every process, and a
    # process that never imported it is no multiprocessing worker
    mp = sys.modules.get("multiprocessing")
    if threading.active_count() > 1 or (mp is not None and mp.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def run_tasks(tasks: Sequence[Callable[[], Any]]) -> list:
    """``[task() for task in tasks]``, with the tasks spread over the CPUs
    (:func:`_cpu_count`), one worker per CPU up to one per task.

    This process is worker 0; every other worker is a forked child, which
    sees the inputs this process had when the call began.  Each worker takes
    the next task that has not started until none is left, from the last
    task to the first: a caller lists its longest task last, so it starts at
    once and the others fill the remaining CPUs around it.  A child's
    results and exceptions come back pickled, so tasks return picklable
    values.

    Across workers every task runs, also after one raised, since a task
    before it may raise too.  The exception raised here is that of the
    lowest-index task that raised, which is the one the serial loop raises,
    with its type and message; one that cannot be pickled arrives as
    ``RuntimeError("Type: message")``.  A child that exits before sending
    its results raises ``RuntimeError``.  A worker that cannot be forked
    leaves its tasks to the others.  Children ignore interrupts; this
    process stops and joins them before it returns or raises, and a stopped
    child stops its own children the same way, so no process outlives the
    call.
    """
    workers = min(len(tasks), _cpu_count())
    if workers < 2:
        return [task() for task in tasks]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    unstarted = ctx.Value("q", len(tasks))

    def work() -> tuple[dict, tuple | None]:
        """Run tasks as they come: ``({index: result}, (index, exception))``
        with the worker's last, so lowest-index, failure; ``None`` when no
        task raised."""
        done, failure = {}, None
        while True:
            with unstarted.get_lock():
                unstarted.value -= 1
                i = unstarted.value
            if i < 0:
                return done, failure
            try:
                done[i] = tasks[i]()
            except Exception as exc:  # the caller decides which failure wins
                failure = (i, exc)

    children = []
    finished = False
    try:
        for _ in range(1, workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send, args=(sender, work))
            try:
                child.start()
            except OSError:
                receiver.close()
                continue
            finally:
                sender.close()
            children.append((child, receiver))
        done, failure = work()
        failures = [failure] if failure else []
        for child, receiver in children:
            try:
                theirs, failure = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"task process exited with code {child.exitcode} "
                    "before sending its results"
                ) from None
            done.update(theirs)
            if failure:
                failures.append(failure)
        finished = True
    finally:
        for child, receiver in children:
            if not finished:
                child.terminate()
            child.join()
            receiver.close()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [done[i] for i in range(len(tasks))]


def _stop(signum, frame):
    raise SystemExit(1)


def _send(sender, work) -> None:
    """A child's body in :func:`run_tasks`: send what ``work()`` returns, an
    exception that cannot be pickled replaced by its type and message.

    An interrupt is left to the parent, which stops the child; the stop
    unwinds the child, so a pool it runs stops its own children first."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _stop)
    done, failure = work()
    if failure:
        i, exc = failure
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # one that cannot be sent goes as its type and message
            failure = (i, RuntimeError(f"{type(exc).__name__}: {exc}"))
    sender.send((done, failure))
    sender.close()
