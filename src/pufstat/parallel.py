"""Run the parts of one job on every CPU the process may use.

A job that appends bytes to a buffer is cut by its caller into ``count``
parts, each a call ``part(buffer, index)``. ``run_parts`` runs part 0 in
this process, straight into the destination buffer, and every other part
in a forked child that appends into a buffer of its own and streams it back
through a pipe. The parent reads each pipe in part order, in blocks of at
most ``_PIPE_BLOCK`` bytes, so the result is the bytes the parts give one
after another, whatever the part count. A part may instead, or as well,
write files that only it writes; a redone part overwrites them.

Jobs do not nest: while a job of more than one part runs, ``part_count``
is 1 in this process and in its children, so a part's own job runs where
the part runs and the processes never outnumber the affinity mask.

One failure rule: a part whose child exits non-zero or is killed is redone
in this process by the same ``part`` call, after the bytes it had streamed
are dropped, and a part whose fork failed runs here too. No result depends
on a child succeeding, and every error a part raises reaches the caller
from this process, as a serial run raises it. A child leaves only by ``os._exit``: it runs no atexit handler, flushes
no stdio buffer and unwinds none of its caller's frames, so it can neither
repeat buffered output nor write anything but its part. It prints nothing,
not even a traceback, since the redone part raises the error again here.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Callable

# Largest read from a part's pipe, so the parent never holds a second copy
# of a part beside its buffer.
_PIPE_BLOCK = 1 << 20
# Whether this process runs, or is a child of, a job of more than one part.
# Module state, as what it bounds, the number of processes, is the process's.
_in_job = False


def part_count(size: int, unit: int) -> int:
    """How many parts a job of ``size`` runs in: one per CPU in the
    affinity mask, each of at least ``unit``; one inside a part of another
    job, and where this platform cannot fork or report the mask."""
    if _in_job or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // unit))


def run_parts(data: bytearray, count: int, part: Callable[[bytearray, int], None]) -> None:
    """Append the bytes of ``part(buffer, index)`` for each index in
    ``range(count)`` to ``data``, in index order; parts 1 and up run in
    forked children. Parts left without a child because a fork failed run
    here after the others. An error ``part`` raises in this process
    propagates once every child has been ended and reaped."""
    global _in_job
    outer = _in_job
    if outer and count > 1:
        raise RuntimeError("run_parts entered from inside a part of another job")
    _in_job = outer or count > 1
    children = []  # (index, pid, read end of its pipe), in index order
    try:
        for index in range(1, count):
            try:
                children.append((index, *_fork_part(part, index)))
            except OSError:
                break
        unforked = range(len(children) + 1, count)
        if count:
            part(data, 0)
        while children:
            index, pid, fd = children[0]
            start = len(data)
            while block := os.read(fd, _PIPE_BLOCK):
                data += block
            children.pop(0)
            os.close(fd)
            if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                del data[start:]
                part(data, index)
        for index in unforked:
            part(data, index)
    finally:
        _in_job = outer
        # Only on an error: end the children still running and reap them.
        for _, pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_part(part, index: int) -> tuple[int, int]:
    """Fork a child that runs ``part`` into its own buffer and writes the
    buffer to a pipe; return the child's pid and the pipe's read end.

    The child only works on data the parent already holds, so it needs no
    lock that another thread of the parent (a BLAS worker) could have held
    at the fork.
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
        part(buffer, index)
        with memoryview(buffer) as view:
            written = 0
            while written < len(view):
                written += os.write(write_fd, view[written:written + _PIPE_BLOCK])
        code = 0
    finally:
        # Nothing may propagate into the caller's frames.
        os._exit(code)
