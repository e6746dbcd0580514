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
