"""Run the parts of one job on every CPU the process may use, and parts in
the background.

A job is a run of items, each with a size in its unit of work: a table's
formatting chunks in cells, device files in bytes or in cells, attack
targets in cells times pairs squared.
``run_parts`` alone decides how a job is cut: into ``min(CPUs, total //
unit, items)`` shares of about equal size, in item order, each of at least
``unit`` where there is more than one. It calls ``part(buffer, lo, hi)``
once per share, for items ``lo..hi``: the first share in this process,
straight into the destination buffer, and every other share in the
background, by ``start``. The parent joins the shares in order, so the
result is the bytes the shares give one after another, whatever the share
count. A part may instead, or as well, write files that only it writes; a
redone part overwrites them.

``start(part)`` is one part in the background: a forked child runs
``part(buffer)`` into a buffer of its own and streams it back through a
pipe, which ``join(data)`` reads, in blocks of at most ``_PIPE_BLOCK``
bytes, onto ``data``. ``run_chain`` starts each stage's writes this way
while it computes the next stages.

Nothing bounds the processes by the affinity mask: a chain's writers run
beside the stage the parent computes, and that stage's own job, and a
writer's large table (``group_variance.dat``) is a job of its own in the
writer's child. The nesting pays: with ``output._PART_CELLS`` above every
table size, so that each writer formats alone, the ``population`` chain
took 1.293 s against 1.140 s with the split on two CPUs (medians of 12
alternating runs, the split faster in 11, the artifacts identical).

An attack share calls BLAS and LAPACK in its child. Importing ``pufstat``
sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 where they are
unset, so BLAS threads do not contend with the shares for the CPUs; where
numpy loaded first (``pufstat.BLAS_PINNED`` false), the attack forks none. The
OpenBLAS numpy ships is a pthreads build, which stops its worker threads in
a fork handler before every fork, so a child never waits on a lock one of
them held; a test forks right after a GEMM on two BLAS threads and gets the
one-share cells. A BLAS on an OpenMP runtime that keeps its threads across
a fork is not covered by that test.

One rule: ``start`` forks only where the process may use more than one
CPU, and never calls the part. A part without a child (one CPU, no
``os.fork``, a failed fork or pipe), or whose child exits non-zero or is
killed, runs at ``join`` in this process, after any bytes the child sent
are dropped. No result depends on a child or on the CPU count, and every
error a part raises reaches the caller from ``join``, as a serial run
raises it; a part ended (``Share.end``) unjoined is dropped. A child
leaves only by ``os._exit``: it runs no atexit handler, flushes no stdio
buffer and unwinds none of its caller's frames, so it can neither repeat
buffered output nor write anything but its part. It prints nothing, not
even a traceback, since the redone part raises the error again here.
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
    are started in the background. No items call no part. An error ``part``
    raises in this process propagates once every child has been ended and
    reaped."""
    bounds = _cut(sizes, unit)
    shares = list(zip(bounds, bounds[1:]))
    started = []
    try:
        for lo, hi in shares[1:]:
            started.append(start(lambda buffer, lo=lo, hi=hi: part(buffer, lo, hi)))
        if shares:
            part(data, *shares[0])
        for share in started:
            share.join(data)
    finally:
        # Only on an error: end the children still running and reap them.
        for share in started:
            share.end()


def start(part: Callable[[bytearray], None]) -> Share:
    """Start ``part(buffer)`` in a forked child where this process may use
    more than one CPU, or else leave it to run at ``join``, as where the
    fork or pipe fails; ``Share.join`` appends its bytes."""
    if _cpus() > 1:
        try:
            return Share(part, _fork_part(part))
        except OSError:
            pass
    return Share(part)


class Share:
    """A part that ``start`` started: its child, a pid and the read end of
    its pipe, until joined or ended; or None, where it has no child."""

    def __init__(self, part: Callable[[bytearray], None],
                 child: tuple[int, int] | None = None):
        self._part = part
        self._child = child

    def join(self, data: bytearray) -> None:
        """Append the part's bytes to ``data``: the child's, or, where the
        child exited non-zero, was killed or was never forked, those of
        ``part`` run here, whose error then propagates."""
        if self._child is None:
            self._part(data)
            return
        pid, fd = self._child
        begin = len(data)
        while block := os.read(fd, _PIPE_BLOCK):
            data += block
        self._child = None
        os.close(fd)
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
            del data[begin:]
            self._part(data)

    def end(self) -> None:
        """End the child if it has not been joined, and reap it."""
        if self._child is not None:
            pid, fd = self._child
            self._child = None
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cpus() -> int:
    """The CPUs in the affinity mask; 1 where this platform cannot fork or
    report the mask."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _cut(sizes: list[int], unit: int) -> list[int]:
    """Where items of ``sizes`` are cut into shares: share ``i`` is items
    ``bounds[i]..bounds[i + 1]``. The ``i``-th of ``n`` shares ends at the
    first item whose running total reaches ``i/n`` of the total; a cut that
    would leave a share, or the rest, under ``unit`` is not made. One share
    where this platform cannot fork or report the affinity mask."""
    total = [0, *itertools.accumulate(sizes)]  # work before each item
    count = max(1, min(_cpus(), total[-1] // unit, len(sizes)))
    bounds = [0]
    for index in range(1, count):
        cut = bisect.bisect_left(total, total[-1] * index / count)
        if total[cut] - total[bounds[-1]] >= unit and total[-1] - total[cut] >= unit:
            bounds.append(cut)
    return bounds + [len(sizes)] if sizes else []


def _fork_part(part: Callable[[bytearray], None]) -> tuple[int, int]:
    """Fork a child that runs ``part`` into its own buffer and writes the
    buffer to a pipe; return the child's pid and the pipe's read end.
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
        part(buffer)
        with memoryview(buffer) as view:
            written = 0
            while written < len(view):
                written += os.write(write_fd, view[written:written + _PIPE_BLOCK])
        code = 0
    finally:
        # Nothing may propagate into the caller's frames.
        os._exit(code)
