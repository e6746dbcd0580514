"""``parallel.run_parts`` alone cuts a job into shares, and no result
depends on how many there are; ``parallel.start`` runs a part in the
background, and its result does not depend on the child."""

import os
import signal
import time
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstat import parallel

ROOT = Path(__file__).resolve().parents[1]


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=10), unit=st.integers(1, 60),
       cpus=st.integers(1, 4))
def test_shares_cover_the_items_in_order(sizes, unit, cpus):
    # Each share reports its items from wherever it runs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        data = bytearray()
        parallel.run_parts(data, sizes, unit,
                           lambda buffer, lo, hi: buffer.extend(f"{lo}:{hi} ".encode()))
    shares = [tuple(map(int, share.split(":"))) for share in data.decode().split()]
    if not sizes:
        assert shares == []
        return
    assert [lo for lo, _ in shares] == [0, *(hi for _, hi in shares[:-1])]
    assert shares[-1][1] == len(sizes)
    assert all(lo < hi for lo, hi in shares)
    assert len(shares) <= cpus
    if len(shares) > 1:
        assert all(sum(sizes[lo:hi]) >= unit for lo, hi in shares)
    # Items of one size, each at least a unit, take every share there is room for.
    if len(set(sizes)) == 1 and sizes[0] >= unit:
        assert len(shares) == min(cpus, len(sizes))


def _pid_part(how: str = ""):
    """A part that appends the pid it runs in; in a child, ``how`` makes it
    raise or be killed first."""
    parent = os.getpid()

    def part(buffer: bytearray) -> None:
        if os.getpid() != parent and how == "raises":
            raise RuntimeError("part failed in a child")
        if os.getpid() != parent and how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        buffer.extend(b"%d " % os.getpid())
    return part


@pytest.mark.parametrize("cpus, how, where", [
    (2, "", "child"), (2, "raises", "here"), (2, "killed", "here"), (1, "", "here"),
])
def test_started_part_joins_its_bytes(cpus, how, where, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    data = bytearray(b"head ")
    share = parallel.start(_pid_part(how))
    share.join(data)
    head, pid = data.split()
    assert head == b"head"
    assert (int(pid) == os.getpid()) == (where == "here")
    share.end()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_more(*args):
    raise BlockingIOError("no more processes")


# How a process comes to start a part without a child: CPUs, then the patch.
WITHOUT_A_CHILD = {
    "one-cpu": (1, lambda patch: None),
    "no-fork": (2, lambda patch: patch.delattr(os, "fork")),
    "fork-raises": (2, lambda patch: patch.setattr(os, "fork", _no_more)),
    "pipe-raises": (2, lambda patch: patch.setattr(os, "pipe", _no_more)),
}


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("without", list(WITHOUT_A_CHILD))
def test_part_without_a_child_runs_here(without, monkeypatch):
    # start never calls the part: it runs once, here, at join, and an error
    # it raises propagates from there. No descriptor is left open.
    cpus, patch = WITHOUT_A_CHILD[without]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    patch(monkeypatch)
    ran = []

    def part(buffer: bytearray) -> None:
        ran.append(os.getpid())
        buffer.extend(b"x")

    def fails(buffer: bytearray) -> None:
        ran.append("fails")
        raise RuntimeError("part failed")

    fds = _open_fds()
    share, failing = parallel.start(part), parallel.start(fails)
    assert ran == []
    data = bytearray()
    share.join(data)
    assert data == b"x" and ran == [os.getpid()]
    with pytest.raises(RuntimeError, match="part failed"):
        failing.join(data)
    assert data == b"x" and ran == [os.getpid(), "fails"]
    share.end()
    failing.end()
    assert _open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_end_kills_and_reaps_a_running_child(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    share = parallel.start(lambda buffer: time.sleep(60))
    started = time.monotonic()
    share.end()
    share.end()
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _synth_and_chain(out: Path, cpus: int, patch: str) -> None:
    """``synth`` and the reference chain in ``out``, in one interpreter whose
    affinity mask holds ``cpus`` CPUs, after ``patch`` has run. The paths are
    relative, so the manifests of two such runs hash alike."""
    synth = ["synth", "--seed", "5", "--devices", "100", "--ros", "16", "--samples", "2",
             "--geometry", "4x4:col", "--out", "synth"]
    chain = [str(ROOT / "scripts" / "run_reference_analysis.py"), "--dataset", "synth/dataset",
             "--meta", "synth/dataset/serials.csv", "--geometry", "4x4:col", "--out", "chain"]
    script = (
        "import os, runpy, sys\n"
        "from pufstat import cli, covfit, dataset, output\n"
        f"{patch}\n"
        f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        f"assert cli.main({synth!r}) == 0\n"
        f"sys.argv = {chain!r}\n"
        f"runpy.run_path({chain[0]!r}, run_name='__main__')\n"
    )
    out.mkdir()
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=out,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_outputs_do_not_depend_on_the_share_count(tmp_path):
    # One CPU, every job in one share, against three CPUs with every job cut
    # as finely as three shares allow: the loader, the writer, the tables of
    # more than one chunk (group_variance.dat) and the attack's 8 targets all
    # run in shares.
    _synth_and_chain(tmp_path / "one", 1, "")
    _synth_and_chain(tmp_path / "three", 3,
                     "dataset._PART_BYTES = dataset._WRITE_CELLS = output._PART_CELLS = "
                     "covfit._PART_WORK = 1")
    compared = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_manifests.py"),
         str(tmp_path / "one" / "chain"), str(tmp_path / "three" / "chain")],
        capture_output=True, text=True, timeout=60)
    assert compared.returncode == 0, compared.stdout + compared.stderr
    trees = [tmp_path / side / "synth" / "dataset" for side in ("one", "three")]
    names = sorted(p.name for p in trees[0].iterdir())
    assert sorted(p.name for p in trees[1].iterdir()) == names
    for name in names:
        assert (trees[0] / name).read_bytes() == (trees[1] / name).read_bytes(), name


def _openblas() -> str:
    """The OpenBLAS numpy ships in ``numpy.libs``, or a skip where it has none."""
    import numpy

    libs = Path(numpy.__file__).parents[1] / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not found:
        pytest.skip("no scipy-openblas64 library in numpy.libs")
    return str(found[0])


BLAS_THREADS = (
    "import ctypes, os, sys\n"
    "import pufstat\n"
    "import numpy\n"
    "from pufstat import parallel\n"
    "count = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "forks = []\n"
    "real_fork = os.fork\n"
    "os.fork = lambda: forks.append(1) or real_fork()\n"
    "data = bytearray()\n"
    "parallel.run_parts(data, [1, 1], 1, lambda buffer, lo, hi: buffer.extend(b'%d ' % count()))\n"
    "assert forks == [1], forks\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], count(), data.decode().strip())\n"
)


@pytest.mark.parametrize("explicit, want", [(None, "1"), ("2", "2")])
def test_import_defaults_blas_to_one_thread(explicit, want):
    # Both the process and a forked share run one BLAS thread unless the
    # caller set OPENBLAS_NUM_THREADS; an explicit value is kept. OpenBLAS
    # runs no more threads than the CPUs in the affinity mask.
    library = _openblas()
    threads = str(min(int(want), len(os.sched_getaffinity(0))))
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    if explicit is not None:
        env["OPENBLAS_NUM_THREADS"] = explicit
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS, library], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [want, threads, threads, threads]
