"""Jobs run at once in ``os.fork`` children: the package's one fork helper.

``ingest`` parses a large file in parts with ``in_parts``, and
``cli.cmd_pipeline`` runs its rank-size and Beta sections in a child while
the parent runs the K-S fits.
"""

from __future__ import annotations

import contextlib
import os
import pickle

_SHORT = object()  # what ``_receive`` returns where a child's pickle ran short


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def in_parts(job, parts: int, fork: bool = True) -> list:
    """``[job(i) for i in range(parts)]``, jobs after the first in forked children.

    With ``fork`` each job after the first runs in a child, at the same time
    as the parent runs job 0, and sends the pickle of its result down a
    pipe.  What a job writes into memory that ``fork`` shares (an anonymous
    ``mmap``) the parent sees in place.  A job whose child cannot be
    started, fails, dies or sends a short pickle is run by the parent, as
    every job is without ``fork``, so an exception that a job raises is
    raised by the parent at the same point.  Every child is reaped before
    this returns or raises.

    A child runs on the usable CPUs but the one the parent ran on at the
    fork: left to the scheduler, a child at times shared its parent's CPU
    for hundreds of milliseconds while the other CPU of a 2-vCPU host stood
    idle.  A child may do any work that numpy does, LAPACK included:
    children that ran ``lstsq`` and ``pinv`` after the parent had used
    OpenBLAS, with ``OPENBLAS_NUM_THREADS`` at 1, 2 and unset, did not hang.
    """
    children: dict[int, tuple[int, int]] = {}
    others = _other_cpus() if fork and parts > 1 else None
    try:
        for i in range(1, parts if fork else 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent runs the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(job, i, w, [r, *(fd for _, fd in children.values())], others)
            os.close(w)
            children[i] = pid, r
        results = []
        for i in range(parts):
            got = _receive(children[i][1]) if i in children else _SHORT
            if got is _SHORT:  # no child, or it failed or sent a short pickle
                got = job(i)
            results.append(got)
        return results
    finally:
        for _, fd in children.values():  # first, so that a writing child sees EPIPE
            os.close(fd)
        for pid, _ in children.values():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _other_cpus() -> set[int] | None:
    """The usable CPUs but the one this process runs on, or None where that
    is unknown or leaves none."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError, IndexError, ValueError):
        return None
    return others or None


def _child(job, i: int, fd: int, inherited: list[int], cpus):
    """In a forked child: move to ``cpus`` (if any), send the pickle of
    ``job(i)`` down ``fd``, and exit.  Never returns into the caller's
    frames; an exception ends the child with status 1."""
    status = 1
    try:
        for other in inherited:
            os.close(other)
        if cpus:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
        with open(fd, "wb") as out:
            pickle.dump(job(i), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive(fd: int):
    """The result a child sent down ``fd``; ``_SHORT`` where its pickle ran short."""
    with open(fd, "rb", closefd=False) as src:
        try:
            return pickle.load(src)
        except (EOFError, pickle.UnpicklingError):
            return _SHORT
