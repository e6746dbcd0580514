#!/usr/bin/env python3
"""Run one pufstat command with per-layer timing wrappers installed from outside.

    python3 perfbench/tracer.py --trace-out spans.json -m pufstat.cli attack ...
    python3 perfbench/tracer.py --trace-out spans.json scripts/run_reference_analysis.py ...

The arguments after ``--trace-out FILE`` are what would follow ``python3`` in
the untraced command. The library is not modified: the public functions that
``pufstat.cli`` binds by name are replaced on its namespace, plus the few that
other modules look up at call time (``covfit.fit``, ``covfit.covariance_matrix``,
``output.write_bytes_atomic``, the ``ArtifactWriter`` methods and
``syngen.generate``). Each wrapper adds its inclusive and self time (inclusive
minus wrapped children) to its span name and may count work done. The totals
go to FILE as JSON when the command ends, never into the command's ``--out``.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Span totals keyed by layer name; one instance per traced process."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._children = []  # child time accumulated by each open span

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper recorded under ``span``.

        ``count(args, kwargs, result)`` runs after the call; its own time is
        charged to no span, so counting never inflates a parent's self time.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    children = tracer._children.pop()
                    tracer.inclusive[span] += elapsed
                    tracer.self_time[span] += elapsed - children
                    tracer.calls[span] += 1
                if count is not None:
                    count(args, kwargs, result)
                return result
            finally:
                if tracer._children:
                    tracer._children[-1] += time.perf_counter() - start

        setattr(owner, attr, wrapper)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def dump(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _dataset_bytes(path, layout) -> int:
    """Size of the files a ``load_readings`` call parses."""
    import fnmatch

    from pufstat.dataset import LayoutSpec

    layout = layout or LayoutSpec()
    root = Path(path)
    if layout.kind != "files":
        return root.stat().st_size
    return sum(
        p.stat().st_size for p in root.iterdir()
        if p.is_file() and fnmatch.fnmatch(p.name, layout.pattern)
    )


def install(tracer: Tracer) -> None:
    import pufstat.cli as cli
    import pufstat.covfit as covfit
    import pufstat.output as output
    import pufstat.syngen as syngen

    def arg(args, kwargs, index, name, default=None):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)

    def count_load(args, kwargs, result):
        tracer.add("dataset.bytes_parsed", _dataset_bytes(arg(args, kwargs, 0, "path"),
                                                          arg(args, kwargs, 1, "layout")))

    def count_hash(args, kwargs, result):
        tracer.add("output.hash_bytes", sum(Path(p).stat().st_size for p in args[0]))

    def count_write(args, kwargs, result):
        tracer.add("output.bytes_written", len(args[1]))
        tracer.add("output.files_written", 1)

    def count_windows(args, kwargs, result):
        span = result.num_devices - result.min_group + 1
        tracer.add("similarity.windows", span * (span + 1) // 2)

    def count_rows(args, kwargs, result):
        tracer.add("normality.rows", len(result[0]))

    def count_cells(args, kwargs, result):
        tracer.add("covfit.cells", len(result))
        tracer.add("covfit.iterations", sum(c.iterations for c in result))
        tracer.add("covfit.failed_cells", sum(c.error is not None for c in result))
        tracer.add("covfit.zero_iter_cells", sum(c.iterations == 0 for c in result))

    tracer.wrap(cli, "load_readings", "dataset.load", count_load)
    tracer.wrap(cli, "load_metadata", "dataset.meta")
    tracer.wrap(cli, "write_dataset", "dataset.write")
    tracer.wrap(cli, "hash_input_files", "output.hash", count_hash)
    tracer.wrap(cli, "build_matrices", "matrices.build")
    tracer.wrap(cli, "test_rows", "normality.test_rows", count_rows)
    tracer.wrap(cli, "bias_report", "bias.report")
    tracer.wrap(cli, "profile", "correlation.profile")
    tracer.wrap(cli, "group_variance_map", "similarity.map", count_windows)
    tracer.wrap(cli, "serial_correlation", "similarity.serial_corr")
    tracer.wrap(cli, "evaluate_attack", "covfit.evaluate", count_cells)
    tracer.wrap(cli, "standardize", "pca.standardize")
    tracer.wrap(cli, "pca", "pca.svd")
    tracer.wrap(cli, "truncated_bits", "pca.trunc")
    for name in dir(cli):
        if name.startswith("cmd_"):
            tracer.wrap(cli, name, "cli.cmd")
    tracer.wrap(covfit, "fit", "covfit.fit")
    tracer.wrap(covfit, "covariance_matrix", "correlation.cov")
    tracer.wrap(output, "write_bytes_atomic", "output.write", count_write)
    for name in ("write_json", "write_csv", "write_dat", "write_binary", "finish"):
        tracer.wrap(output.ArtifactWriter, name, "output.writer")
    tracer.wrap(syngen, "generate", "syngen.generate")


def run(argv: list[str]) -> int:
    """Run ``python3 argv...`` in this process; return its exit code."""
    if argv[:2] == ["-m", "pufstat.cli"]:
        import pufstat.cli

        return pufstat.cli.main(argv[2:])
    sys.argv = list(argv)
    sys.path.insert(0, str(Path(argv[0]).resolve().parent))
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--trace-out":
        print("usage: tracer.py --trace-out FILE (-m pufstat.cli ARGS | SCRIPT ARGS)",
              file=sys.stderr)
        return 2
    trace_out = Path(sys.argv[2])
    tracer = Tracer()
    install(tracer)
    code = run(sys.argv[3:])
    trace_out.write_text(json.dumps(tracer.dump(), sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
