"""Run the parts of one job on every CPU the process may use.

A job is a run of items, each with a size in its unit of work: a table's
formatting chunks in cells, device files in bytes or in cells, attack
targets in cells times pairs squared.
``run_parts`` alone decides how a job is cut: into ``min(CPUs, total //
unit, items)`` shares of about equal size, in item order, each of at least
``unit`` where there is more than one. It calls ``part(buffer, lo, hi)``
once per share, for items ``lo..hi``: the first share in this process,
straight into the destination buffer, and every other share in a forked
child that appends into a buffer of its own and streams it back through a
pipe. The parent reads each pipe in share order, in blocks of at most
``_PIPE_BLOCK`` bytes, so the result is the bytes the shares give one after
another, whatever the share count. A part may instead, or as well, write
files that only it writes; a redone part overwrites them.

A part must start no job of its own, only do its work in the process it
runs in, so that the processes never outnumber the affinity mask. The four
callers keep to this: nothing here checks it.

An attack share calls BLAS and LAPACK in its child. The OpenBLAS numpy
ships is a pthreads build, which stops its worker threads in a fork handler
before every fork, so a child never waits on a lock one of them held; a
test forks right after a GEMM on two BLAS threads and gets the one-share
cells. A BLAS on an OpenMP runtime that keeps its threads across a fork is
not covered by that test.

One failure rule: a share whose child exits non-zero or is killed is redone
in this process by the same ``part`` call, after the bytes it had streamed
are dropped, and a share whose fork failed runs here too. No result depends
on a child succeeding, and every error a part raises reaches the caller
from this process, as a serial run raises it. A child leaves only by
``os._exit``: it runs no atexit handler, flushes no stdio buffer and
unwinds none of its caller's frames, so it can neither repeat buffered
output nor write anything but its part. It prints nothing, not even a
traceback, since the redone part raises the error again here.
"""

from __future__ import annotations

import bisect
import itertools
import os
import signal
from collections.abc import Callable

# Largest read from a part's pipe, so the parent never holds a second copy
# of a part beside its buffer.
_PIPE_BLOCK = 1 << 20


def run_parts(data: bytearray, sizes: list[int], unit: int,
              part: Callable[[bytearray, int, int], None]) -> None:
    """Append the bytes of ``part(buffer, lo, hi)`` for each share of the
    items of ``sizes`` to ``data``, in item order; shares after the first
    run in forked children. Shares left without a child because a fork
    failed run here after the others. No items call no part. An error
    ``part`` raises in this process propagates once every child has been
    ended and reaped."""
    bounds = _cut(sizes, unit)
    shares = list(zip(bounds, bounds[1:]))
    children = []  # (share, pid, read end of its pipe), in share order
    try:
        for share in shares[1:]:
            try:
                children.append((share, *_fork_part(part, *share)))
            except OSError:
                break
        unforked = shares[len(children) + 1:]
        if shares:
            part(data, *shares[0])
        while children:
            share, pid, fd = children[0]
            start = len(data)
            while block := os.read(fd, _PIPE_BLOCK):
                data += block
            children.pop(0)
            os.close(fd)
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                del data[start:]
                part(data, *share)
        for share in unforked:
            part(data, *share)
    finally:
        # Only on an error: end the children still running and reap them.
        for _, pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cut(sizes: list[int], unit: int) -> list[int]:
    """Where items of ``sizes`` are cut into shares: share ``i`` is items
    ``bounds[i]..bounds[i + 1]``. The ``i``-th of ``n`` shares ends at the
    first item whose running total reaches ``i/n`` of the total; a cut that
    would leave a share, or the rest, under ``unit`` is not made. One share
    where this platform cannot fork or report the affinity mask."""
    total = [0, *itertools.accumulate(sizes)]  # work before each item
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if can_fork else 1
    count = max(1, min(cpus, total[-1] // unit, len(sizes)))
    bounds = [0]
    for index in range(1, count):
        cut = bisect.bisect_left(total, total[-1] * index / count)
        if total[cut] - total[bounds[-1]] >= unit and total[-1] - total[cut] >= unit:
            bounds.append(cut)
    return bounds + [len(sizes)] if sizes else []


def _fork_part(part, lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that runs ``part`` over items ``lo..hi`` into its own
    buffer and writes the buffer to a pipe; return the child's pid and the
    pipe's read end.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        buffer = bytearray()
        part(buffer, lo, hi)
        with memoryview(buffer) as view:
            written = 0
            while written < len(view):
                written += os.write(write_fd, view[written:written + _PIPE_BLOCK])
        code = 0
    finally:
        # Nothing may propagate into the caller's frames.
        os._exit(code)
