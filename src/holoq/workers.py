"""Independent tasks run on the usable CPUs, in forked worker processes.

A task is a zero-argument callable with a label. With w workers, task i
runs in share i % w: share 0 in the calling process, each other share in a
child made with os.fork, which starts from the caller's memory without
pickling the task's inputs or importing again. Each child sends its results
back pickled over a pipe. The results come back in task order, so a run's
output does not depend on the number of workers. Memory: during the overlap
the children's copy-on-write pages are their own, so the run's footprint is
the summed PSS of its processes, not the caller's RSS alone.
"""

from __future__ import annotations

import gc
import os
import pickle


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _share_outcomes(share):
    """(ok, result or exception) for the tasks of one share, in order,
    ending at the first exception."""
    outcomes = []
    for _, task in share:
        try:
            outcomes.append((True, task()))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def _run_child(share, fd):
    """Body of a forked child: run the share, write its pickled outcomes to
    the pipe end fd, and leave the process without returning into the
    caller's stack. os._exit runs no atexit handler and flushes no inherited
    stdio buffer, so nothing is printed or written twice. The exit status is
    0 only after a complete write."""
    status = 1
    try:
        outcomes = _share_outcomes(share)
        ok, value = outcomes[-1]
        if not ok:
            try:
                pickle.loads(pickle.dumps(value))
            except Exception:
                # The caller gets what it can read, the formatted traceback.
                # Imported here, the module stays out of every other process.
                import traceback
                outcomes[-1] = ok, RuntimeError("".join(traceback.format_exception(value)))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcomes))
        status = 0
    finally:
        os._exit(status)


def run_tasks(tasks, workers: int):
    """[task() for (label, task) in tasks], in task order, raising the
    exception of the first failing task in that order.

    At most min(workers, len(tasks)) processes run: this one and a forked
    child per other share. Every child is reaped before this returns or
    raises, and one that ends without a complete payload raises a
    RuntimeError naming the labels of its share."""
    workers = max(1, min(workers, len(tasks)))
    if workers == 1:
        return [task() for _, task in tasks]
    shares = [tasks[i::workers] for i in range(workers)]
    children, ended = [], []
    # The children's cyclic collector then leaves alone, and does not copy,
    # the pages of every object the caller already holds.
    gc.freeze()
    try:
        for i in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_child(shares[i], w)
            os.close(w)
            children.append((i, pid, r))
        outcomes = {0: _share_outcomes(shares[0])}
    finally:
        for i, pid, r in children:
            with os.fdopen(r, "rb") as pipe:
                payload = pipe.read()
            ended.append((i, payload, os.waitpid(pid, 0)[1]))
        gc.unfreeze()
    for i, payload, status in ended:
        if status == 0 and payload:
            outcomes[i] = pickle.loads(payload)
        else:
            labels = ", ".join(label for label, _ in shares[i])
            outcomes[i] = [(False, RuntimeError(
                f"the worker for {labels} ended without its results "
                f"(wait status {status})"))]
    # A share stops at its first failure, which precedes its missing slots.
    slots = [None] * len(tasks)
    for i, share_outcomes in outcomes.items():
        for j, outcome in enumerate(share_outcomes):
            slots[i + j * workers] = outcome
    results = []
    for ok, value in slots:
        if not ok:
            raise value
        results.append(value)
    return results
