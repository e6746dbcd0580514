#!/usr/bin/env python3
"""The pufstat benchmark: whole-chain wall time, peak RSS and set-up time.

    python3 perfbench/run.py --workload reference --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload generates its dataset with ``pufstat synth`` (the set-up, timed
three times), then runs its command as a fresh interpreter, one process at a
time: twice, then again while the next repeat should still end within
``--seconds``. Every process must exit 0 and its artifacts must pass the
checks in ``checks.py``; a process that does not is a failed operation.
Repeats of one run must give byte-identical artifacts.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over repeats). With ``--trace 1`` each repeat is a pair of runs, one
untraced and one under ``tracer.py`` in alternating order; the line carries
the per-layer metrics (medians over traced runs), and the traced artifacts
must match the untraced ones byte for byte. Lines before it give the
environment, every sample, the failure fraction and the combined artifact
digest. The exit code is 0 when every operation passed, 1 when one failed,
2 when the checkout holds no pufstat sources. ``README.md`` here says why
each workload exists and which metrics each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHAIN_SCRIPT = ROOT / "scripts" / "run_reference_analysis.py"
REQUIRED = (ROOT / "src" / "pufstat" / "cli.py", CHAIN_SCRIPT)
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_REPEATS = 2
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
# One BLAS thread: the workloads are single-threaded Python around small
# BLAS/LAPACK calls, and on a 2-vCPU machine a second OpenBLAS thread only
# spins (attack_sweep took 9.3-10.5 s with two threads at twice the CPU
# time, 8.6-9.2 s with one), exposing the run to noise from the other core.
BLAS_THREADS = 1
POLL_S = 0.002


@dataclass(frozen=True)
class Shape:
    devices: int
    ros: int
    samples: int
    geometry: str
    layout: str

    def describe(self) -> str:
        return f"{self.devices}x{self.ros}x{self.samples} {self.layout} {self.geometry}"


@dataclass(frozen=True)
class Workload:
    """``attack_targets`` is None for the full chain script, else the
    ``attack --devices`` count of a lone attack command."""

    full: Shape
    tiny: Shape
    attack_targets: int | None


CHAIN_ATTACK_TARGETS = 8  # the chain script runs attack --devices 8


CAMPAIGN = Shape(193, 512, 10, "16x32:col", "files")
CAMPAIGN_TINY = Shape(24, 32, 4, "4x8:col", "files")
WORKLOADS = {
    "reference": Workload(CAMPAIGN, CAMPAIGN_TINY, None),
    "attack_sweep": Workload(CAMPAIGN, CAMPAIGN_TINY, 48),
    "population": Workload(Shape(2000, 32, 4, "4x8:col", "csv"),
                           Shape(60, 16, 2, "4x4:col", "csv"), None),
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float  # MiB


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PUFSTAT_OUT", None)
    return env


def spawn(argv: list[str], cwd: Path, log: Path, deadline: float) -> Child:
    """Run ``python3 argv`` to completion; peak RSS comes from its own rusage."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid or time.perf_counter() > deadline:
                    break
                time.sleep(POLL_S)
        finally:
            if not pid:  # past the deadline, or the benchmark itself is stopping
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def dataset_args(shape: Shape) -> list[str]:
    path = "data/dataset/readings.csv" if shape.layout == "csv" else "data/dataset"
    return ["--dataset", path, "--layout", shape.layout]


def synth_argv(shape: Shape, seed: int, out: str) -> list[str]:
    return ["-m", "pufstat.cli", "synth", "--seed", str(seed), "--preset", "spatial",
            "--devices", str(shape.devices), "--ros", str(shape.ros),
            "--samples", str(shape.samples), "--geometry", shape.geometry,
            "--layout", shape.layout, "--out", out]


def workload_argv(workload: Workload, shape: Shape, out: str) -> list[str]:
    # Relative paths keep the manifests, and so the artifact bytes, the same
    # in every checkout.
    if workload.attack_targets is None:
        return [str(CHAIN_SCRIPT), *dataset_args(shape), "--meta", "data/dataset/serials.csv",
                "--geometry", shape.geometry, "--out", out]
    return ["-m", "pufstat.cli", "attack", *dataset_args(shape), "--seed", "1",
            "--devices", str(workload.attack_targets), "--mode", "both", "--out", out]


def traced(argv: list[str], trace_file: str) -> list[str]:
    return [str(HERE / "tracer.py"), "--trace-out", trace_file, *argv]


def verify(workload: Workload, out: Path, exp: checks.Expected, seed: int) -> str:
    """Check one repeat's artifacts; return their combined digest."""
    if workload.attack_targets is not None:
        checks.check_manifests(out, frozenset({"attack"}))
        checks.check_attack(out, exp, min(workload.attack_targets, exp.num_devices))
    else:
        checks.check_manifests(out, checks.CHAIN_MANIFESTS)
        checks.check_entropy(out, exp)
        checks.check_pca(out, exp)
        checks.check_group_variance(out, exp, np.random.default_rng(seed))
        checks.check_attack(out, exp, CHAIN_ATTACK_TARGETS)
    return checks.tree_digest(out)


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "cpu": cpu,
        "seed": seed,
    }


class Run:
    """One benchmark run of one workload, in a scratch directory of the checkout."""

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.shape = self.workload.tiny if tiny else self.workload.full
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = WORK
        self.tally = Tally()
        self.digests = set()
        self.expected = None
        self.input_error = None

    def child(self, argv: list[str], label: str) -> Child:
        return spawn(argv, self.work, self.work / f"{label}.log", self.deadline)

    def _ok(self, child: Child, label: str, check) -> bool:
        """Record one operation: exit 0 and ``check()`` raising nothing."""
        if child.code != 0:
            log = (self.work / f"{label}.log").read_text(errors="replace")[-2000:]
            return self.tally.record(False, f"{label}: exit {child.code}\n{log}")
        try:
            check()
        except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            return self.tally.record(False, f"{label}: {type(exc).__name__}: {exc}")
        return self.tally.record(True)

    def setup(self, repeats: int, trace: bool) -> list[float]:
        """Generate the dataset ``repeats`` times; keep the last copy as data/."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        walls, digests = [], set()
        for k in range(repeats):
            out = f"setup{k}"
            argv = synth_argv(self.shape, self.seed, out)
            child = self.child(traced(argv, "setup_trace.json") if trace else argv, out)

            def check():
                checks.check_manifests(self.work / out, frozenset({"synth"}))
                digests.add(checks.tree_digest(self.work / out))
                if len(digests) != 1:
                    raise checks.CheckError("set-up repeats wrote different datasets")

            if self._ok(child, out, check):
                walls.append(child.wall_s)
        last = self.work / f"setup{repeats - 1}"
        if last.is_dir():
            last.rename(self.work / "data")
        for k in range(repeats - 1):
            shutil.rmtree(self.work / f"setup{k}", ignore_errors=True)
        # Finish the set-up's lazy writeback now, so that the first repeat's
        # fsyncs do not pay for it.
        for path in (self.work / "data").rglob("*"):
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())

        try:
            tensor = checks.read_readings(self.work / "data" / "dataset", self.shape.layout,
                                          (self.shape.devices, self.shape.ros, self.shape.samples))
            self.expected = checks.Expected.from_readings(tensor)
        except (checks.CheckError, OSError, ValueError) as exc:
            self.input_error = f"{type(exc).__name__}: {exc}"
        return walls

    def repeat(self, label: str, trace: bool) -> Child | None:
        """Run the workload once into out_<label>; None when it failed."""
        out = f"out_{label}"
        argv = workload_argv(self.workload, self.shape, out)
        if trace:
            argv = traced(argv, f"{label}_trace.json")
        child = self.child(argv, label)

        def check():
            if self.expected is None:
                raise checks.CheckError(f"inputs could not be read back: {self.input_error}")
            self.digests.add(verify(self.workload, self.work / out, self.expected, self.seed))
            if len(self.digests) != 1:
                raise checks.CheckError("artifacts differ between repeats of one run")

        ok = self._ok(child, label, check)
        shutil.rmtree(self.work / out, ignore_errors=True)
        return child if ok else None

    def another(self, started: float, last: float, done: int, minimum: int) -> bool:
        """Whether to start one more repeat that should take ``last`` seconds."""
        now = time.perf_counter()
        if now + 1.5 * last >= self.deadline:
            return False
        return done < minimum or now - started + last <= self.seconds

    def measure(self) -> dict:
        setup = self.setup(SETUP_REPEATS, trace=False)
        reps = []
        started = time.perf_counter()
        while True:
            child = self.repeat(f"r{len(reps)}", trace=False)
            if child is None:
                break
            reps.append(child)
            if not self.another(started, child.wall_s, len(reps), MIN_REPEATS):
                break
        return {
            "setup_s": (setup, "s"),
            "wall_s": ([c.wall_s for c in reps], "s"),
            "rss_peak_mb": ([c.rss_mb for c in reps], "MiB"),
        }

    def import_time(self) -> float:
        """Fresh ``import pufstat.cli`` minus a bare interpreter start, medians."""
        walls = {}
        for label, code in (("bare", "pass"), ("import", "import pufstat.cli")):
            walls[label] = []
            for k in range(IMPORT_REPEATS):
                child = self.child(["-c", code], f"{label}{k}")
                if self._ok(child, f"{label}{k}", lambda: None):
                    walls[label].append(child.wall_s)
        if not walls["bare"] or not walls["import"]:
            return float("nan")
        return statistics.median(walls["import"]) - statistics.median(walls["bare"])

    def measure_traced(self) -> dict:
        self.setup(1, trace=True)
        setup_trace = self._trace("setup_trace.json")
        import_s = self.import_time()
        plain, layered = [], []
        started = time.perf_counter()
        while True:
            label = f"r{len(plain)}"
            # Alternate which side runs first, so warm-up favours neither.
            if len(plain) % 2 == 0:
                base = self.repeat(label, trace=False)
                child = self.repeat(f"{label}t", trace=True) if base else None
            else:
                child = self.repeat(f"{label}t", trace=True)
                base = self.repeat(label, trace=False) if child else None
            if base is None or child is None:
                break
            plain.append(base.wall_s)
            layered.append((child.wall_s, self._trace(f"{label}t_trace.json")))
            if not self.another(started, base.wall_s + child.wall_s, len(plain), 1):
                break
        if not layered:
            return {}
        overhead = statistics.median(w for w, _ in layered) / statistics.median(plain) - 1.0
        samples = [layer_metrics(t, setup_trace, import_s) for _, t in layered]
        metrics = {name: ([s[name][0] for s in samples], unit)
                   for name, (_, unit) in samples[0].items()}
        metrics["trace.overhead_frac"] = ([overhead], "fraction")
        return metrics

    def _trace(self, name: str) -> dict:
        path = self.work / name
        if not path.is_file():
            return {"inclusive": {}, "self": {}, "calls": {}, "counts": {}}
        return json.loads(path.read_text())


def layer_metrics(trace: dict, setup_trace: dict, import_s: float) -> dict:
    """Per-layer metrics of one traced repeat, as {name: (value, unit)}."""
    inc, own = trace["inclusive"], trace["self"]
    calls, counts = trace["calls"], trace["counts"]
    cells = counts.get("covfit.cells", 0)

    def share(key):
        return counts.get(key, 0) / cells if cells else 0.0

    def n(key):
        return int(counts.get(key, 0))

    return {
        "dataset.load_s": (inc.get("dataset.load", 0.0), "s"),
        "dataset.load_calls": (calls.get("dataset.load", 0), "count"),
        "dataset.bytes_parsed": (n("dataset.bytes_parsed"), "bytes"),
        "dataset.meta_s": (inc.get("dataset.meta", 0.0), "s"),
        "output.hash_s": (inc.get("output.hash", 0.0), "s"),
        "output.hash_bytes": (n("output.hash_bytes"), "bytes"),
        "output.format_s": (own.get("output.writer", 0.0), "s"),
        "output.write_s": (inc.get("output.write", 0.0), "s"),
        "output.bytes_written": (n("output.bytes_written"), "bytes"),
        "output.files_written": (n("output.files_written"), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (own.get("cli.cmd", 0.0), "s"),
        "similarity.map_s": (inc.get("similarity.map", 0.0), "s"),
        "similarity.windows": (n("similarity.windows"), "count"),
        "similarity.serial_corr_s": (inc.get("similarity.serial_corr", 0.0), "s"),
        "covfit.evaluate_s": (inc.get("covfit.evaluate", 0.0), "s"),
        "covfit.validate_s": (own.get("covfit.evaluate", 0.0), "s"),
        "covfit.fit_s": (inc.get("covfit.fit", 0.0), "s"),
        "covfit.cells": (int(cells), "count"),
        "covfit.iterations": (n("covfit.iterations"), "count"),
        "covfit.cell_fail_frac": (share("covfit.failed_cells"), "fraction"),
        "covfit.zero_iter_frac": (share("covfit.zero_iter_cells"), "fraction"),
        "matrices.build_s": (inc.get("matrices.build", 0.0), "s"),
        "matrices.calls": (calls.get("matrices.build", 0), "count"),
        "normality.test_rows_s": (inc.get("normality.test_rows", 0.0), "s"),
        "normality.rows": (n("normality.rows"), "count"),
        "bias.report_s": (inc.get("bias.report", 0.0), "s"),
        "correlation.profile_s": (inc.get("correlation.profile", 0.0), "s"),
        "correlation.cov_s": (inc.get("correlation.cov", 0.0), "s"),
        "pca.standardize_s": (inc.get("pca.standardize", 0.0), "s"),
        "pca.svd_s": (inc.get("pca.svd", 0.0), "s"),
        "pca.trunc_s": (inc.get("pca.trunc", 0.0), "s"),
        "syngen.generate_s": (setup_trace["inclusive"].get("syngen.generate", 0.0), "s"),
        "dataset.write_s": (setup_trace["inclusive"].get("dataset.write", 0.0), "s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    run = Run(name, seed, seconds, tiny)
    try:
        samples = run.measure_traced() if trace else run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    metrics = {}
    print(f"workload {name}: {run.shape.describe()}, seed {seed}, trace {int(trace)}")
    for metric, (values, unit) in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        each = " ".join(f"{v:.6g}" for v in values)
        print(f"  {metric:26s} {value:.6g} {unit} (median of n={len(values)}: {each})")
    tally = run.tally
    print(f"  {'fail_frac':26s} {tally.failed / max(tally.attempted, 1):.6g} fraction "
          f"({tally.failed} of {tally.attempted} operations failed)")
    print(f"  artifacts sha256 {' '.join(sorted(run.digests)) or 'none'}")
    for reason in tally.reasons[:5]:
        print(f"  FAILED {reason}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; a repeat starts only if it should fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long smoke shapes instead of the benchmark shapes")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a pufstat checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
               for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
