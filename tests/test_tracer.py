"""The traced benchmark run still sees the layers it times.

``perfbench/tracer.py`` wraps library functions by name from outside; if one
is renamed or stops being looked up at call time, its span silently reads
zero. This runs the tracer on the reference chain over a tiny dataset.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from pufstat.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_times_the_reference_chain(tmp_path):
    assert main(["synth", "--seed", "3", "--devices", "24", "--ros", "16", "--samples", "2",
                 "--geometry", "4x4:col", "--out", str(tmp_path / "synth")]) == 0
    dataset = tmp_path / "synth" / "dataset"
    trace = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--trace-out", str(trace),
         str(ROOT / "scripts" / "run_reference_analysis.py"), "--dataset", str(dataset),
         "--meta", str(dataset / "serials.csv"), "--geometry", "4x4:col",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())
    calls = spans["calls"]
    for span in ("covfit.fit", "covfit.evaluate", "similarity.map", "normality.test_rows"):
        assert calls.get(span, 0) > 0, span
    # len(result[0]) of each test_rows call: 16 freq + 16 dev + 8 diff rows.
    assert spans["counts"]["normality.rows"] == 40
    # Windows of at least 5 (the default --min-group) of 24 devices: 20 * 21 / 2.
    assert spans["counts"]["similarity.windows"] == 210


def test_forked_parts_leave_no_trace(tmp_path):
    # The reference chain under the tracer with its device files parsed in
    # three shares and the writes of every dataset stage but the last in a
    # forked writer. A child that flushed stdio, ran the tracer's dump or
    # returned into the chain would show here.
    assert main(["synth", "--seed", "3", "--devices", "24", "--ros", "16", "--samples", "2",
                 "--geometry", "4x4:col", "--out", str(tmp_path / "synth")]) == 0
    dataset = tmp_path / "synth" / "dataset"
    trace, writes, forks = tmp_path / "spans.json", tmp_path / "writes.log", tmp_path / "forks.log"
    chain = [str(ROOT / "scripts" / "run_reference_analysis.py"), "--dataset", str(dataset),
             "--meta", str(dataset / "serials.csv"), "--geometry", "4x4:col"]
    tracer = str(ROOT / "perfbench" / "tracer.py")
    script = (
        "import os, pathlib, runpy, sys\n"
        "from pufstat import dataset\n"
        "dataset._PART_BYTES = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "real_fork, real_write_text = os.fork, pathlib.Path.write_text\n"
        "def log(path):\n"
        "    with open(path, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "def fork():\n"
        f"    log({str(forks)!r})\n"
        "    return real_fork()\n"
        "def write_text(self, *args, **kwargs):\n"
        f"    if self == pathlib.Path({str(trace)!r}):\n"
        f"        log({str(writes)!r})\n"
        "    return real_write_text(self, *args, **kwargs)\n"
        "os.fork, pathlib.Path.write_text = fork, write_text\n"
        "print('before', end=' ')\n"
        f"sys.argv = {[tracer, '--trace-out', str(trace), *chain, '--out', str(tmp_path / 'traced')]!r}\n"
        f"runpy.run_path({tracer!r}, run_name='__main__')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    traced = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, cwd=tmp_path, timeout=120)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout.startswith("before ") and traced.stdout.count("before") == 1
    # The load's two children, then one writer for each of ingest,
    # similarity, correlate, attack, pca and normality.
    assert len(forks.read_text().splitlines()) == 2 + 6
    assert len(writes.read_text().splitlines()) == 1
    assert json.loads(trace.read_text())["calls"]["dataset.load"] == 1
    untraced = subprocess.run([sys.executable, *chain, "--out", str(tmp_path / "serial")],
                              capture_output=True, text=True, env=env, timeout=120)
    assert untraced.returncode == 0, untraced.stderr
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert sorted(p.name for p in (tmp_path / "traced").iterdir()) == names
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_traced_synth_writes_in_shares_and_traces_once(tmp_path):
    # synth under the tracer with its device files written in three shares:
    # the trace is written once, by this process, and the dataset is that
    # of an untraced one-process synth.
    synth = ["-m", "pufstat.cli", "synth", "--seed", "3", "--devices", "24", "--ros", "16",
             "--samples", "2", "--geometry", "4x4:col"]
    trace, writes, forks = tmp_path / "spans.json", tmp_path / "writes.log", tmp_path / "forks.log"
    tracer = str(ROOT / "perfbench" / "tracer.py")
    script = (
        "import os, pathlib, runpy, sys\n"
        "from pufstat import dataset\n"
        "dataset._WRITE_CELLS = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "real_fork, real_write_text = os.fork, pathlib.Path.write_text\n"
        "def log(path):\n"
        "    with open(path, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "def fork():\n"
        f"    log({str(forks)!r})\n"
        "    return real_fork()\n"
        "def write_text(self, *args, **kwargs):\n"
        f"    if self == pathlib.Path({str(trace)!r}):\n"
        f"        log({str(writes)!r})\n"
        "    return real_write_text(self, *args, **kwargs)\n"
        "os.fork, pathlib.Path.write_text = fork, write_text\n"
        "print('before', end=' ')\n"
        f"sys.argv = {[tracer, '--trace-out', str(trace), *synth, '--out', 'traced']!r}\n"
        f"runpy.run_path({tracer!r}, run_name='__main__')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    traced = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, cwd=tmp_path, timeout=120)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout.startswith("before ") and traced.stdout.count("before") == 1
    assert len(forks.read_text().splitlines()) == 2
    assert len(writes.read_text().splitlines()) == 1
    assert json.loads(trace.read_text())["calls"]["dataset.write"] == 1
    assert main([*synth[2:], "--out", str(tmp_path / "serial")]) == 0
    files = sorted(p.relative_to(tmp_path / "serial")
                   for p in (tmp_path / "serial").rglob("*") if p.is_file())
    assert len(files) == 24 + 5  # serials.csv, ground truth .json and two .npy, manifest
    assert sorted(p.relative_to(tmp_path / "traced")
                  for p in (tmp_path / "traced").rglob("*") if p.is_file()) == files
    for rel in files:
        assert (tmp_path / "traced" / rel).read_bytes() == (tmp_path / "serial" / rel).read_bytes()
