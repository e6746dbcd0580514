"""Command line interface for the analysis toolkit.

Subcommands: ingest, normality, similarity, entropy, correlate, attack,
pca, synth, report. Every run writes its artifacts plus a manifest into the
output directory (--out, or the PUFSTAT_OUT environment variable).

A subcommand computes its results, then returns its writes: a call that
formats the artifacts, writes them and then the manifest. ``main`` runs
them at once; ``run_chain`` runs them behind the next stages.

Exit codes: 0 success, 1 analysis error, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .bias import bias_histogram, bias_report
from .correlation import fit_line, profile
from .covfit import (DEFAULT_SELECTION, DEFAULT_TARGETS, DEFAULT_TREND_MAGNITUDE, MODES,
                     SELECTIONS, auto_fixed_counts, check_trend_magnitude, choose_targets,
                     evaluate_attack, refuse_repeats)
from .dataset import DeviceMeta, LayoutSpec, load_metadata, load_readings, write_dataset
from .errors import (ConfigurationError, DegenerateDataError, ParseError, PufStatError,
                     StructuralError, UnavailableAnalysisError, check_seed)
from .geometry import DEFAULT_GEOMETRY, GridGeometry
from .matrices import PufMatrices, build_matrices, pack_bits
from .normality import REJECT_1PCT, test_rows
from .output import ArtifactWriter, RunManifest, hash_input_files
from .pca import loading_map, pca, pc_key_correlation, standardize, truncated_bits
from .similarity import (DEFAULT_GROUP_SIZES, DEFAULT_MIN_GROUP, check_group_size,
                         group_variance_map, serial_correlation)
from .syngen import PRESETS, check_count, generate, preset

MATRIX_CHOICES = ("freq", "dev", "diff", "all")
DEFAULT_FIXED_COUNTS = "auto"


def _arg_type(convert, wanted: str, valid=lambda value: True):
    """argparse type: ``convert(text)`` where ``valid`` holds for it, else a
    usage error that says what was ``wanted``, or the library's rule where
    ``convert`` broke one."""
    def parse(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
    return parse


# An empty field ("5,,10", "5,", ",5") is not an integer.
_int_list = _arg_type(lambda text: [int(tok) for tok in text.split(",")],
                      "comma-separated integers")
_group_sizes = _arg_type(lambda text: [check_group_size(n) for n in _int_list(text)],
                         "comma-separated integers")
_group_size = _arg_type(lambda text: check_group_size(int(text)), "an integer")
_non_negative_int = _arg_type(int, "a non-negative integer", lambda v: v >= 0)
_seed = _arg_type(lambda text: check_seed(int(text)), "an integer")
_count = _arg_type(lambda text: check_count(int(text)), "an integer")
_trend_magnitude = _arg_type(lambda text: check_trend_magnitude(float(text)), "a number")
_positive_int = _arg_type(int, "a positive integer", lambda v: v > 0)


def _fixed_counts(text: str) -> str | list[int]:
    return text if text == "auto" else _int_list(text)


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("PUFSTAT_OUT") or "pufstat-out"
    return Path(out)


@dataclass(frozen=True)
class Inputs:
    """What a dataset subcommand reads, parsed, derived and hashed once."""

    meta: DeviceMeta | None
    layout: LayoutSpec
    matrices: PufMatrices
    input_sha256: str


def _load(args) -> Inputs:
    # Derive before reading --meta, so a bad RO count is reported first.
    layout = LayoutSpec.parse(args.layout)
    readings = load_readings(args.dataset, layout)
    matrices = build_matrices(readings)
    meta, files = None, []
    if args.meta:
        meta = load_metadata(args.meta, matrices.num_devices)
        files.append(args.meta)
    # The dataset's files were hashed as they were read.
    return Inputs(meta, layout, matrices, hash_input_files(files, readings.digests))


# What a subcommand returns: its writes, run once its results are computed.
Writes = Callable[[], None]


def _writes_into(out_dir: Path, manifest: RunManifest,
                 fill: Callable[[ArtifactWriter], None]) -> Writes:
    """The writes that ``fill`` an artifact writer under ``manifest`` in
    ``out_dir``, then write the manifest."""
    def writes() -> None:
        writer = ArtifactWriter(out_dir, manifest)
        fill(writer)
        writer.finish()
    return writes


def _writes(args, params: dict, inputs: Inputs,
            fill: Callable[[ArtifactWriter], None]) -> Writes:
    """The writes of one dataset subcommand, under its run manifest."""
    manifest = RunManifest(
        version=__version__,
        subcommand=args.subcommand,
        params=params,
        dataset=str(args.dataset),
        layout=inputs.layout.describe(),
        meta=str(args.meta) if args.meta else None,
        geometry=getattr(args, "geometry", None),
        seed=getattr(args, "seed", None),
        input_sha256=inputs.input_sha256,
    )
    return _writes_into(_resolve_out(args), manifest, fill)


def cmd_ingest(args, inputs: Inputs) -> Writes:
    matrices = inputs.matrices
    packed = matrices.num_pairs % 8 == 0
    if not packed:
        print(
            f"pufstat: note: {matrices.num_pairs} pairs is not a multiple of 8; "
            "skipping bits.bin",
            file=sys.stderr,
        )

    def fill(writer: ArtifactWriter) -> None:
        for name, matrix, label, units in (
            ("freq.csv", matrices.freq, "ro", "MHz"),
            ("dev.csv", matrices.dev, "ro", "MHz"),
            ("diff.csv", matrices.diff, "pair", "MHz"),
            ("bits.csv", matrices.bits, "pair", "bit"),
        ):
            header = [label] + [f"d{j}" for j in range(matrix.shape[1])]
            writer.write_csv(name, header, [np.arange(matrix.shape[0]), *matrix.T], units)
        if packed:
            writer.write_binary("bits.bin", pack_bits(matrices.bits))

    return _writes(args, {}, inputs, fill)


def cmd_normality(args, inputs: Inputs) -> Writes:
    matrices = inputs.matrices
    selected = MATRIX_CHOICES[:3] if args.matrix == "all" else (args.matrix,)
    results = [(name, *test_rows(getattr(matrices, name))) for name in selected]

    def fill(writer: ArtifactWriter) -> None:
        for name, stats, summary in results:
            writer.write_csv(
                f"normality_{name}.csv",
                ["row", "a2", "a2_star", "reject"],
                [np.arange(len(stats)), stats.a2, stats.a2_star, stats.reject_at_1pct],
                "dimensionless",
            )
            writer.write_json(
                f"normality_{name}_summary.json",
                {
                    "matrix": name,
                    "rows": len(stats),
                    **asdict(summary),
                    "reject_fraction": float(stats.reject_at_1pct.mean()),
                    "threshold_1pct": REJECT_1PCT,
                },
            )

    return _writes(args, {"matrix": args.matrix}, inputs, fill)


def cmd_similarity(args, inputs: Inputs) -> Writes:
    refuse_repeats(args.group_sizes, "group size")
    # serial_correlation refuses a run without --meta before the costly map.
    corrs = [serial_correlation(inputs.matrices.dev, inputs.meta, g) for g in args.group_sizes]
    gv = group_variance_map(inputs.matrices.dev, min_group=args.min_group)

    def fill(writer: ArtifactWriter) -> None:
        writer.write_dat("group_variance.dat", "a b s2", [gv.first, gv.last, gv.values], "MHz^2")
        writer.write_csv(
            "serial_corr.csv", ["group_size", "corr"], [args.group_sizes, corrs], "dimensionless"
        )
        writer.write_json(
            "similarity.json",
            {"serial_correlation": [{"group_size": g, "corr": c}
                                    for g, c in zip(args.group_sizes, corrs)]},
        )

    return _writes(args, {"min_group": args.min_group, "group_sizes": args.group_sizes}, inputs,
                   fill)


def cmd_entropy(args, inputs: Inputs) -> Writes:
    matrices = inputs.matrices
    report = bias_report(matrices.diff, matrices.bits)
    edges, counts_bin, counts_norm = bias_histogram(report)
    centers = (edges[:-1] + edges[1:]) / 2.0

    def fill(writer: ArtifactWriter) -> None:
        writer.write_csv(
            "bias.csv",
            ["k", "p_binary", "p_normal"],
            [np.arange(report.p_binary.size), report.p_binary, report.p_normal],
            "probability",
        )
        writer.write_dat(
            "bias_hist.dat",
            "bin_left bin_center count_binary count_normal",
            [edges[:-1], centers, counts_bin, counts_norm],
            "bias (dimensionless)",
        )
        writer.write_json(
            "entropy.json",
            {
                "entropy_binary_bits": report.entropy_binary,
                "entropy_normal_bits": report.entropy_normal,
                "num_pairs": int(report.p_binary.size),
                "num_devices": report.num_devices,
                "convention": report.convention,
            },
        )

    return _writes(args, {}, inputs, fill)


def cmd_correlate(args, inputs: Inputs) -> Writes:
    matrices = inputs.matrices
    profiles = {"dev": profile(matrices.dev), "diff": profile(matrices.diff)}
    summaries = {}
    for key, prof in profiles.items():
        slope, intercept = fit_line(prof.coefficients)
        summaries[key] = {"reference_index": prof.reference_index, "slope": slope,
                          "intercept": intercept}

    def fill(writer: ArtifactWriter) -> None:
        for name, prof in zip(("coco_D.dat", "coco_B.dat"), profiles.values()):
            index = np.arange(prof.coefficients.size)
            writer.write_dat(name, "index r", [index, prof.coefficients], "dimensionless")
        writer.write_json("correlate.json", summaries)

    return _writes(args, {}, inputs, fill)


def cmd_attack(args, inputs: Inputs) -> Writes:
    matrices = inputs.matrices
    devices = args.device_indices or choose_targets(matrices.num_devices, args.devices, args.seed)
    fixed_counts = (auto_fixed_counts(matrices.num_pairs) if args.fixed_counts == "auto"
                    else args.fixed_counts)
    modes = MODES if args.mode == "both" else (args.mode,)
    cells = evaluate_attack(matrices.diff, devices, fixed_counts, mode=modes, seed=args.seed,
                            selection=args.select, trend_magnitude=args.trend_magnitude)
    envelope = []  # rows of attack_envelope.dat (-6.0 prints as -6) and attack_summary.json
    for mode in modes:
        for count in fixed_counts:
            deltas = [c.delta_correct for c in cells if c.mode == mode and c.fixed_count == count]
            if deltas:
                envelope.append({"mode": mode, "fixed_count": count,
                                 "min_delta": float(min(deltas)), "max_delta": float(max(deltas))})
    columns = ("fixed_count", "min_delta", "max_delta")
    blocks = [(f"mode: {mode}", sum(e["mode"] == mode for e in envelope)) for mode in modes]

    def fill(writer: ArtifactWriter) -> None:
        fields = ["device_index", "mode", "fixed_count", "delta_correct", "objective",
                  "iterations", "stop_reason", "start_objective"]
        writer.write_csv(
            "attack.csv",
            ["device", *fields[1:]],
            [[getattr(c, f) for c in cells] for f in fields],
            "bits (delta_correct), MHz^2 scaled (objective, start_objective)",
        )
        writer.write_dat("attack_envelope.dat", " ".join(columns),
                         [[e[k] for e in envelope] for k in columns], "bits", blocks)
        writer.write_json("attack_summary.json", {"envelope": envelope})

    params = {"devices": devices, "fixed_counts": fixed_counts, "mode": args.mode,
              "select": args.select, "trend_magnitude": args.trend_magnitude}
    return _writes(args, params, inputs, fill)


def _histogram(values, bins: int = 40):
    """``np.histogram``, but values too close for ``bins`` distinct edges (the
    last component's scores where J <= components) are binned as a zero range."""
    if (np.diff(np.linspace(values.min(), values.max(), bins + 1)) <= 0.0).any():
        values = np.full_like(values, values.min())
    return np.histogram(values, bins=bins)


def cmd_pca(args, inputs: Inputs) -> Writes:
    matrices = inputs.matrices
    geometry = GridGeometry.parse(args.geometry)
    # A grid that cannot hold the ROs is refused before anything is
    # computed, whatever --pcs is.
    geometry.check_ros(matrices.num_ros)
    scaled = standardize(matrices.freq)
    result = pca(scaled)
    num_pcs = min(args.pcs, result.rank)
    grids = [loading_map(result, pc_num, geometry) for pc_num in range(1, num_pcs + 1)]
    histograms = [_histogram(result.scores[:, col]) for col in range(num_pcs)]
    ranks = args.trunc_ranks or sorted(
        {1, 2, 4, 8, 16, 32, 64, 102, 128, result.rank} & set(range(1, result.rank + 1))
    )
    refuse_repeats(ranks, "truncation rank")
    agreements = [truncated_bits(result, scaled, r)[1] for r in ranks]
    key_corr = {}
    for pc_num in range(1, min(3, result.rank) + 1):
        try:
            key_corr[f"pc{pc_num}"] = pc_key_correlation(result, matrices.bits, pc_num)
        except DegenerateDataError:  # under 3 devices, or a constant series: null
            key_corr[f"pc{pc_num}"] = None

    def fill(writer: ArtifactWriter) -> None:
        writer.write_csv(
            "pca_fractions.csv",
            ["pc", "singular_value", "variance_fraction"],
            [np.arange(1, result.rank + 1), result.singular_values, result.variance_fractions],
            "dimensionless",
        )
        # The grid a column at a time: a block of its rows per x.
        x, y = np.divmod(np.arange(geometry.size), geometry.rows)
        for pc_num, grid, (counts, edges) in zip(range(1, num_pcs + 1), grids, histograms):
            writer.write_dat(f"loading_pc{pc_num}.dat", "x y loading",
                             [x, y, grid.ravel(order="F")], "dimensionless",
                             [(None, geometry.rows)] * geometry.cols)
            writer.write_dat(
                f"scores_hist_pc{pc_num}.dat", "score count",
                [(edges[:-1] + edges[1:]) / 2.0, counts], "score (dimensionless)",
            )
        writer.write_csv(
            "trunc_agreement.csv", ["r", "agreement"], [ranks, agreements], "fraction"
        )
        writer.write_json(
            "pca_summary.json",
            {
                "rank": result.rank,
                "variance_fractions": [
                    {"pc": pc, "variance_fraction": float(v)}
                    for pc, v in enumerate(result.variance_fractions, start=1)
                ],
                "truncated_agreement": [{"r": r, "agreement": a}
                                        for r, a in zip(ranks, agreements)],
                "ones_count_correlation": key_corr,
                "geometry": geometry.describe(),
            },
        )

    return _writes(args, {"pcs": args.pcs, "trunc_ranks": args.trunc_ranks}, inputs, fill)


def cmd_synth(args) -> Writes:
    layout = LayoutSpec.parse(args.layout)
    overrides = {name: getattr(args, name) for name in ("num_devices", "num_ros", "num_samples")
                 if getattr(args, name) is not None}
    if args.geometry is not None:
        overrides["geometry"] = GridGeometry.parse(args.geometry)
    config = preset(args.preset, seed=args.seed, **overrides)
    tensor, meta, truth = generate(config)
    out_dir = _resolve_out(args)
    dataset_dir = out_dir / "dataset"
    manifest = RunManifest(
        version=__version__,
        subcommand=args.subcommand,
        params={"preset": args.preset, "config": config.to_dict(), "layout": layout.describe()},
        seed=args.seed,
    )

    def writes() -> None:
        write_dataset(tensor, dataset_dir, layout, meta=meta)
        _writes_into(out_dir, manifest, truth.write)()
        print(f"pufstat: synthetic dataset written to {dataset_dir}", file=sys.stderr)

    return writes


# The sections of report.json, in the order report reads them, so that the
# first bad one is the error: the stage that writes each, its summary file,
# where report.json puts it (a key, or a key and one inside it), the keys
# report keeps (every key where none are named), and whether report also
# runs without it.
REPORT_SECTIONS = (
    *(("normality", f"normality_{name}_summary.json", ("normality", name), (), False)
      for name in MATRIX_CHOICES[:3]),
    ("entropy", "entropy.json", ("entropy",), (), False),
    ("attack", "attack_summary.json", ("attack",), ("envelope",), False),
    ("pca", "pca_summary.json", ("pca",), ("variance_fractions", "truncated_agreement"), False),
    ("similarity", "similarity.json", ("similarity",), ("serial_correlation",), True),
    ("correlate", "correlate.json", ("correlation_profiles",), (), True),
)
REPORT_REQUIRED = tuple(summary for _, summary, _, _, optional in REPORT_SECTIONS if not optional)
REPORT_OPTIONAL = tuple(summary for _, summary, _, _, optional in REPORT_SECTIONS if optional)


def _read_summary(path: Path, keys=()) -> dict:
    """The JSON summary a stage wrote at ``path``, without its manifest_hash.
    With ``keys``, only those keys, each of which the summary must have."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise StructuralError(f"{path}: expected a JSON object")
    data.pop("manifest_hash", None)
    for key in keys:
        if key not in data:
            raise StructuralError(f"{path}: missing key {key!r}")
    return {key: data[key] for key in keys} if keys else data


def cmd_report(args) -> Writes:
    """report.json from the stages' JSON summaries in the output directory,
    a section of ``REPORT_SECTIONS`` each, an optional one only where its
    summary exists. Each summary read and its stage's manifest must exist,
    and the manifests must record one ``input_sha256``."""
    out_dir = _resolve_out(args)
    sections = [(stage, summary, place, keys)
                for stage, summary, place, keys, optional in REPORT_SECTIONS
                if not optional or (out_dir / summary).is_file()]
    inputs = [summary for _, summary, _, _ in sections]
    manifests = list(dict.fromkeys(f"{stage}_manifest.json" for stage, _, _, _ in sections))
    missing = [name for name in inputs + manifests if not (out_dir / name).is_file()]
    if missing:
        raise UnavailableAnalysisError(
            f"report inputs missing from {out_dir}: {', '.join(sorted(missing))}")
    digests = [_read_summary(out_dir / name, ("input_sha256",))["input_sha256"]
               for name in manifests]
    for name, digest in zip(manifests, digests):
        if digest != digests[0]:
            raise StructuralError(
                f"{manifests[0]} and {name} record different input_sha256 "
                f"({digests[0]} vs {digest}): rerun the stages with the same "
                "--dataset/--layout/--meta"
            )
    payload = {}
    for _, summary, (*outer, key), keys in sections:
        place = payload.setdefault(outer[0], {}) if outer else payload
        place[key] = _read_summary(out_dir / summary, keys)
    manifest = RunManifest(
        version=__version__,
        subcommand=args.subcommand,
        params={},
        input_sha256=hash_input_files([out_dir / name for name in inputs]),
    )
    return _writes_into(out_dir, manifest, lambda writer: writer.write_json("report.json", payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufstat",
        description="Statistical security analysis of RO PUF frequency datasets.",
    )
    parser.add_argument("--version", action="version", version=f"pufstat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    dataset_parent = argparse.ArgumentParser(add_help=False)
    dataset_parent.add_argument("--dataset", required=True, help="dataset directory or CSV file")
    dataset_parent.add_argument(
        "--layout", default=LayoutSpec.kind,
        help="dataset layout descriptor (files[:rows=...|:sep=...|:pattern=...] or csv)",
    )
    dataset_parent.add_argument("--meta", default=None, help="device,serial CSV")
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument(
        "--out", default=None, help="output directory (default: $PUFSTAT_OUT or ./pufstat-out)"
    )

    p = sub.add_parser("ingest", parents=[dataset_parent, out_parent],
                       help="export derived matrices and the packed bit stream")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("normality", parents=[dataset_parent, out_parent],
                       help="row-wise normality statistics")
    p.add_argument("--matrix", choices=MATRIX_CHOICES, default="all")
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("similarity", parents=[dataset_parent, out_parent],
                       help="group variance vs. serial numbers")
    p.add_argument("--min-group", type=_group_size, default=DEFAULT_MIN_GROUP)
    p.add_argument("--group-sizes", type=_group_sizes, default=list(DEFAULT_GROUP_SIZES))
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("entropy", parents=[dataset_parent, out_parent],
                       help="bias estimates and response entropy")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("correlate", parents=[dataset_parent, out_parent],
                       help="correlation profiles of the deviation and difference matrices")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("attack", parents=[dataset_parent, out_parent],
                       help="leave-one-out covariance-fitting attack")
    p.add_argument("--seed", type=_seed, required=True,
                   help="seed for device/position selection")
    p.add_argument("--devices", type=_positive_int, default=DEFAULT_TARGETS,
                   help="number of target devices to sample")
    p.add_argument("--device-indices", type=_int_list, default=None,
                   help="explicit comma-separated targets")
    p.add_argument(
        "--fixed-counts", type=_fixed_counts, default=DEFAULT_FIXED_COUNTS,
        help="comma-separated pinned-position counts, or 'auto' for 8 even steps",
    )
    p.add_argument("--mode", choices=(*MODES, "both"), default="both")
    p.add_argument("--select", choices=SELECTIONS, default=DEFAULT_SELECTION)
    p.add_argument("--trend-magnitude", type=_trend_magnitude, default=DEFAULT_TREND_MAGNITUDE)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("pca", parents=[dataset_parent, out_parent],
                       help="principal component analysis of the frequency matrix")
    p.add_argument("--geometry", default=DEFAULT_GEOMETRY.describe(),
                   help="chip grid as ROWSxCOLS:order")
    p.add_argument("--pcs", type=_non_negative_int, default=8,
                   help="components to export maps for")
    p.add_argument("--trunc-ranks", type=_int_list, default=None,
                   help="comma-separated ranks for the truncation sweep, each once, "
                        "in 1..the matrix rank")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("synth", parents=[out_parent],
                       help="generate a synthetic dataset with ground truth")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--preset", choices=PRESETS, default="spatial")
    p.add_argument("--devices", dest="num_devices", type=_count, default=None)
    p.add_argument("--ros", dest="num_ros", type=_count, default=None)
    p.add_argument("--samples", dest="num_samples", type=_count, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--layout", default=LayoutSpec.kind, help="layout for the written dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", parents=[out_parent],
                       help="aggregate prior outputs into report.json")
    p.set_defaults(func=cmd_report)

    return parser


def _mapped(call, *args) -> tuple[int, object]:
    """``(0, call(*args))``, or the exit code of the error it raised and
    None. Overflow, an invalid operation or a division by zero anywhere in
    numpy is a numeric error; underflow is not."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return 0, call(*args)
    except PufStatError as exc:
        print(f"pufstat: {exc.category} error: {exc}", file=sys.stderr)
        return 1, None
    except FloatingPointError as exc:
        print(f"pufstat: numeric error: {exc}", file=sys.stderr)
        return 1, None
    except OSError as exc:
        print(f"pufstat: i/o error: {exc}", file=sys.stderr)
        return 3, None


def _run(args, loaded: list) -> tuple[int, Writes | None]:
    """Compute one parsed subcommand: its exit code and, where that is 0,
    its writes. A dataset subcommand loads its Inputs into ``loaded``, or
    takes them from it: a chain's stages all read one dataset."""
    def compute() -> Writes:
        if not hasattr(args, "dataset"):
            return args.func(args)
        if not loaded:
            loaded.append(_load(args))
        return args.func(args, loaded[0])

    return _mapped(compute)


def main(argv=None) -> int:
    code, writes = _run(build_parser().parse_args(argv), [])
    return code or _mapped(writes)[0]


def run_chain(dataset: str, out: str, *, layout: str | None = None, meta: str | None = None,
              geometry: str | None = None, seed: int) -> int:
    """Run ingest, similarity (only with ``meta``), correlate, attack, pca,
    normality and entropy on one dataset, then report, all into ``out``.
    Each stage runs on its subcommand's defaults but for attack's ``seed``
    and, where given, ``layout`` and pca's ``geometry``.

    The artifacts are those of running the subcommands one by one, but the
    dataset is parsed, hashed and derived once, and the writing runs behind
    the computing. Each stage computes in this process; its writes
    (formatting, hashing, the atomic writes and the manifest) then go to a
    writer (``parallel.start``), a child forked while the next stages
    compute. The last dataset stage writes here, and every writer is
    joined, in chain order, before report reads what they wrote.

    Every step, report included, is parsed before the dataset is read: a
    usage error raises ``SystemExit(2)`` before ``out`` exists. A stage
    that fails to compute stops the chain, once the writers already
    started are joined. A writer that failed or has no child (one CPU, a
    failed fork) runs at its join, here, under the stage's error mapping.
    The first stage that failed, in chain order, gives the exit code on any
    CPU count, and report does not run. Any other exception kills the
    writers still running and drops the writes not yet run. Returns 0 when
    every stage succeeded."""
    base = ["--dataset", dataset, *(["--layout", layout] if layout else []), "--out", out]
    if meta:
        base += ["--meta", meta]
    stages = [["ingest"]]
    if meta:
        stages.append(["similarity"])
    stages += [
        ["correlate"],
        ["attack", "--seed", str(seed)],
        ["pca", *(["--geometry", geometry] if geometry else [])],
        ["normality"],
        ["entropy"],
    ]
    steps = [stage + base for stage in stages]
    report = ["report", "--out", out]
    parser = build_parser()
    parsed = [parser.parse_args(step) for step in steps + [report]]
    loaded, shares = [], []
    try:
        for step, args in zip(steps, parsed):
            print(f"==> pufstat {' '.join(step)}", flush=True)
            code, writes = _run(args, loaded)
            if code:
                break
            if step is not steps[-1]:
                # start raises nothing; _mapped forks the writer under the
                # numpy error state that its redo at join runs under.
                shares.append(_mapped(parallel.start, lambda buffer, writes=writes: writes())[1])
            else:
                # Nothing computes beside the last writer: forked, the seed-7
                # reference chain took 0.592 s against 0.517 s (two CPUs,
                # medians of 12 alternating runs), and population's peak RSS
                # rose from 121.8 to 123.9 MiB.
                code = _mapped(writes)[0]
        joined = [_mapped(share.join, bytearray())[0] for share in shares]
        code = next((c for c in joined if c), code)
        if code == 0:
            print(f"==> pufstat {' '.join(report)}", flush=True)
            code, writes = _run(parsed[-1], loaded)
            code = code or _mapped(writes)[0]
    finally:
        # Only on an error: end the writers still running and reap them.
        for share in shares:
            share.end()
    if code:
        print(f"step failed with exit code {code}", file=sys.stderr)
        return code
    print(f"all artifacts in {out}")
    return 0


def console_main() -> int:
    """The ``pufstat`` console script and ``python -m pufstat.cli``: ``main``,
    then every object left is frozen (``gc.freeze``), so the interpreter's
    last collection does not sweep them before the process ends: the
    seed-7 reference chain took 0.798 s with the freeze and 0.859 s without
    (two CPUs, medians of 16 alternating runs, frozen faster in 13). Library
    callers and tests run ``main`` itself, which leaves the collector as
    it was."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
