"""Jobs of ``parallel.run_parts`` do not nest: inside a part of a job of
more than one part, every further job runs in one part, where it is."""

import os

import pytest

from pufstat import parallel


def test_part_count_is_one_inside_a_part(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert parallel.part_count(3, 1) == 3

    def part(buffer, index):
        buffer += f"{index}:{parallel.part_count(3, 1)} ".encode()

    data = bytearray()
    parallel.run_parts(data, 3, part)
    assert data == b"0:1 1:1 2:1 "
    # A job of one part forks nothing, so a job inside it may.
    data = bytearray()
    parallel.run_parts(data, 1, part)
    assert data == b"0:3 "
    assert parallel.part_count(3, 1) == 3


def test_nested_job_is_refused():
    def inner(buffer, index):
        buffer += b"x"

    def outer(buffer, index):
        parallel.run_parts(buffer, 1, inner)
        parallel.run_parts(buffer, 2, inner)

    with pytest.raises(RuntimeError, match="inside a part"):
        parallel.run_parts(bytearray(), 2, outer)
    # The refusal leaves no job behind.
    data = bytearray()
    parallel.run_parts(data, 2, inner)
    assert data == b"xx"
