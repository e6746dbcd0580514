"""Command line interface for the analysis toolkit.

Subcommands: ingest, normality, similarity, entropy, correlate, attack,
pca, synth, report. Every run writes its artifacts plus a manifest into the
output directory (--out, or the PUFSTAT_OUT environment variable).

Exit codes: 0 success, 1 analysis error, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bias import bias_histogram, bias_report
from .correlation import fit_line, profile
from .covfit import evaluate_attack
from .dataset import (DeviceMeta, LayoutSpec, ReadingsTensor, dataset_files,
                      load_metadata, load_readings, write_dataset)
from .errors import ParseError, PufStatError, StructuralError, UnavailableAnalysisError
from .geometry import DEFAULT_GEOMETRY, GridGeometry
from .matrices import PufMatrices, build_matrices, pack_bits
from .normality import REJECT_1PCT, test_rows
from .output import ArtifactWriter, RunManifest, hash_input_files
from .pca import loading_map, pca, pc_key_correlation, standardize, truncated_bits
from .similarity import group_variance_map, serial_correlation
from .syngen import preset

MATRIX_CHOICES = ("freq", "dev", "diff", "all")
# "auto" spreads 8 counts over 0..7/8 of the pair count; at 256 pairs that
# is 0,32,64,96,128,160,192,224.
DEFAULT_FIXED_COUNTS = "auto"


def _arg_type(convert, wanted: str, valid=lambda value: True):
    """argparse type: ``convert(text)`` where ``valid`` holds for it, else a
    usage error that says what was ``wanted``."""
    def parse(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
    return parse


_int_list = _arg_type(lambda text: [int(tok) for tok in text.split(",") if tok.strip() != ""],
                      "comma-separated integers")
_non_negative_int = _arg_type(int, "a non-negative integer", lambda v: v >= 0)
_positive_float = _arg_type(float, "a positive finite number",
                            lambda v: v > 0 and np.isfinite(v))


def _int_list_text(text: str) -> str:
    """Like _int_list, but keeps the text as given (the pca manifest records it)."""
    _int_list(text)
    return text


def _fixed_counts(text: str) -> str | list[int]:
    return text if text == "auto" else _int_list(text)


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("PUFSTAT_OUT") or "pufstat-out"
    return Path(out)


@dataclass(frozen=True)
class Inputs:
    """What a dataset subcommand reads, parsed, derived and hashed once."""

    readings: ReadingsTensor
    meta: DeviceMeta | None
    layout: LayoutSpec
    matrices: PufMatrices
    input_sha256: str


def _load(args) -> Inputs:
    layout = LayoutSpec.parse(args.layout)
    readings = load_readings(args.dataset, layout)
    meta = None
    files = dataset_files(args.dataset, layout)
    if args.meta:
        meta = load_metadata(args.meta, readings.num_devices)
        files.append(Path(args.meta))
    return Inputs(readings, meta, layout, build_matrices(readings), hash_input_files(files))


def _writer(args, subcommand: str, params: dict, inputs: Inputs) -> ArtifactWriter:
    """The artifact writer of one dataset subcommand, under its run manifest."""
    manifest = RunManifest(
        version=__version__,
        subcommand=subcommand,
        params=params,
        dataset=str(args.dataset),
        layout=inputs.layout.describe(),
        meta=str(args.meta) if args.meta else None,
        geometry=getattr(args, "geometry", None),
        seed=getattr(args, "seed", None),
        input_sha256=inputs.input_sha256,
    )
    return ArtifactWriter(_resolve_out(args), manifest)


def cmd_ingest(args, inputs: Inputs) -> int:
    matrices = inputs.matrices
    writer = _writer(args, "ingest", {}, inputs)
    for name, matrix, label, units in (
        ("freq.csv", matrices.freq, "ro", "MHz"),
        ("dev.csv", matrices.dev, "ro", "MHz"),
        ("diff.csv", matrices.diff, "pair", "MHz"),
        ("bits.csv", matrices.bits, "pair", "bit"),
    ):
        header = [label] + [f"d{j}" for j in range(matrix.shape[1])]
        writer.write_csv(name, header, [np.arange(matrix.shape[0]), *matrix.T], units)
    if matrices.num_pairs % 8 == 0:
        writer.write_binary("bits.bin", pack_bits(matrices.bits))
    else:
        print(
            f"pufstat: note: {matrices.num_pairs} pairs is not a multiple of 8; "
            "skipping bits.bin",
            file=sys.stderr,
        )
    writer.finish()
    return 0


def cmd_normality(args, inputs: Inputs) -> int:
    matrices = inputs.matrices
    selected = MATRIX_CHOICES[:3] if args.matrix == "all" else (args.matrix,)
    writer = _writer(args, "normality", {"matrix": args.matrix}, inputs)
    for name in selected:
        stats, summary = test_rows(getattr(matrices, name))
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
                "quantile_50": summary.quantile_50,
                "quantile_90": summary.quantile_90,
                "quantile_99": summary.quantile_99,
                "max": summary.max,
                "reject_fraction": float(stats.reject_at_1pct.mean()),
                "threshold_1pct": REJECT_1PCT,
            },
        )
    writer.finish()
    return 0


def cmd_similarity(args, inputs: Inputs) -> int:
    if inputs.meta is None:
        raise UnavailableAnalysisError(
            "similarity needs per-device serial numbers; pass --meta"
        )
    gv = group_variance_map(inputs.matrices.dev, min_group=args.min_group)
    writer = _writer(
        args, "similarity", {"min_group": args.min_group, "group_sizes": args.group_sizes}, inputs
    )
    # Windows a..b of at least min_group devices, a then b ascending.
    a, b = np.triu_indices(gv.num_devices, args.min_group - 1)
    writer.write_dat("group_variance.dat", "a b s2", [(None, [a, b, gv.values[a, b]])],
                     "MHz^2")
    corrs = [serial_correlation(inputs.matrices.dev, inputs.meta, g) for g in args.group_sizes]
    writer.write_csv(
        "serial_corr.csv", ["group_size", "corr"], [args.group_sizes, corrs], "dimensionless"
    )
    writer.write_json(
        "similarity.json",
        {"serial_correlation": [{"group_size": g, "corr": c}
                                for g, c in zip(args.group_sizes, corrs)]},
    )
    writer.finish()
    return 0


def cmd_entropy(args, inputs: Inputs) -> int:
    matrices = inputs.matrices
    report = bias_report(matrices.diff, matrices.bits)
    writer = _writer(args, "entropy", {}, inputs)
    writer.write_csv(
        "bias.csv",
        ["k", "p_binary", "p_normal"],
        [np.arange(report.p_binary.size), report.p_binary, report.p_normal],
        "probability",
    )
    edges, counts_bin, counts_norm = bias_histogram(report)
    centers = (edges[:-1] + edges[1:]) / 2.0
    writer.write_dat(
        "bias_hist.dat",
        "bin_left bin_center count_binary count_normal",
        [(None, [edges[:-1], centers, counts_bin, counts_norm])],
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
    writer.finish()
    return 0


def cmd_correlate(args, inputs: Inputs) -> int:
    matrices = inputs.matrices
    writer = _writer(args, "correlate", {}, inputs)
    summaries = {}
    for name, matrix, key in (
        ("coco_D.dat", matrices.dev, "dev"),
        ("coco_B.dat", matrices.diff, "diff"),
    ):
        prof = profile(matrix)
        index = np.arange(prof.coefficients.size)
        writer.write_dat(name, "index r", [(None, [index, prof.coefficients])], "dimensionless")
        slope, intercept = fit_line(prof.coefficients)
        summaries[key] = {
            "reference_index": prof.reference_index,
            "slope": slope,
            "intercept": intercept,
        }
    writer.write_json("correlate.json", summaries)
    writer.finish()
    return 0


def cmd_attack(args, inputs: Inputs) -> int:
    matrices = inputs.matrices
    num_devices = matrices.num_devices
    if args.device_indices:
        devices = args.device_indices
    else:
        rng = np.random.default_rng(args.seed)
        devices = sorted(
            int(j) for j in rng.choice(num_devices, size=min(args.devices, num_devices), replace=False)
        )
    if args.fixed_counts == "auto":
        fixed_counts = [matrices.num_pairs * k // 8 for k in range(8)]
    else:
        fixed_counts = args.fixed_counts
    modes = ("trend", "exact") if args.mode == "both" else (args.mode,)
    writer = _writer(
        args,
        "attack",
        {
            "devices": devices,
            "fixed_counts": fixed_counts,
            "mode": args.mode,
            "select": args.select,
            "trend_magnitude": args.trend_magnitude,
        },
        inputs,
    )
    cells = []
    for device in devices:
        cells.extend(
            evaluate_attack(
                matrices.diff,
                device,
                fixed_counts,
                mode=modes,
                seed=args.seed,
                selection=args.select,
                trend_magnitude=args.trend_magnitude,
            )
        )
    fields = ["device_index", "mode", "fixed_count", "delta_correct", "objective", "iterations",
              "stop_reason", "start_objective"]
    writer.write_csv(
        "attack.csv",
        ["device", *fields[1:]],
        [[getattr(c, f) for c in cells] for f in fields],
        "bits (delta_correct), MHz^2 scaled (objective, start_objective)",
    )
    envelope = []  # rows of attack_envelope.dat (-6.0 prints as -6) and attack_summary.json
    for mode in modes:
        for count in fixed_counts:
            deltas = [c.delta_correct for c in cells if c.mode == mode and c.fixed_count == count]
            if deltas:
                envelope.append({"mode": mode, "fixed_count": count,
                                 "min_delta": float(min(deltas)), "max_delta": float(max(deltas))})
    columns = ("fixed_count", "min_delta", "max_delta")
    blocks = [
        (f"mode: {mode}", [[e[k] for e in envelope if e["mode"] == mode] for k in columns])
        for mode in modes
    ]
    writer.write_dat("attack_envelope.dat", " ".join(columns), blocks, "bits")
    writer.write_json("attack_summary.json", {"envelope": envelope})
    writer.finish()
    return 0


def cmd_pca(args, inputs: Inputs) -> int:
    matrices = inputs.matrices
    geometry = GridGeometry.parse(args.geometry)
    scaled = standardize(matrices.freq)
    result = pca(scaled, geometry)
    writer = _writer(args, "pca", {"pcs": args.pcs, "trunc_ranks": args.trunc_ranks}, inputs)
    writer.write_csv(
        "pca_fractions.csv",
        ["pc", "singular_value", "variance_fraction"],
        [np.arange(1, result.rank + 1), result.singular_values, result.variance_fractions],
        "dimensionless",
    )
    num_pcs = min(args.pcs, result.rank)
    for pc_num in range(1, num_pcs + 1):
        grid = loading_map(result, pc_num, geometry)
        y = np.arange(geometry.rows)
        blocks = [(None, [np.full_like(y, x), y, grid[:, x]]) for x in range(geometry.cols)]
        writer.write_dat(
            f"loading_pc{pc_num}.dat", "x y loading", blocks, "dimensionless"
        )
        scores = result.scores[:, pc_num - 1]
        counts, edges = np.histogram(scores, bins=40)
        writer.write_dat(
            f"scores_hist_pc{pc_num}.dat", "score count",
            [(None, [(edges[:-1] + edges[1:]) / 2.0, counts])], "score (dimensionless)",
        )
    if args.trunc_ranks:
        ranks = [r for r in _int_list(args.trunc_ranks) if 1 <= r <= result.rank]
    else:
        ranks = sorted(
            {1, 2, 4, 8, 16, 32, 64, 102, 128, result.rank} & set(range(1, result.rank + 1))
        )
    agreements = [truncated_bits(result, scaled, r)[1] for r in ranks]
    writer.write_csv(
        "trunc_agreement.csv", ["r", "agreement"], [ranks, agreements], "fraction"
    )
    key_corr = {f"pc{pc_num}": pc_key_correlation(result, matrices.bits, pc_num)
                for pc_num in range(1, min(3, result.rank) + 1)}
    writer.write_json(
        "pca_summary.json",
        {
            "rank": result.rank,
            "variance_fractions": [
                {"pc": pc, "variance_fraction": float(v)}
                for pc, v in enumerate(result.variance_fractions, start=1)
            ],
            "truncated_agreement": [{"r": r, "agreement": a} for r, a in zip(ranks, agreements)],
            "ones_count_correlation": key_corr,
            "geometry": geometry.describe(),
        },
    )
    writer.finish()
    return 0


def cmd_synth(args) -> int:
    layout = LayoutSpec.parse(args.layout)
    overrides = {}
    if args.devices is not None:
        overrides["num_devices"] = args.devices
    if args.ros is not None:
        overrides["num_ros"] = args.ros
    if args.samples is not None:
        overrides["num_samples"] = args.samples
    if args.geometry is not None:
        overrides["geometry"] = GridGeometry.parse(args.geometry)
    config = preset(args.preset, seed=args.seed, **overrides)
    from .syngen import generate

    tensor, meta, truth = generate(config)
    out_dir = _resolve_out(args)
    dataset_dir = out_dir / "dataset"
    write_dataset(tensor, dataset_dir, layout, meta=meta)
    manifest = RunManifest(
        version=__version__,
        subcommand="synth",
        params={"preset": args.preset, "config": config.to_dict(), "layout": layout.describe()},
        seed=args.seed,
    )
    writer = ArtifactWriter(out_dir, manifest)
    writer.write_json("ground_truth.json", truth.to_dict())
    writer.finish()
    print(f"pufstat: synthetic dataset written to {dataset_dir}", file=sys.stderr)
    return 0


REPORT_REQUIRED = (
    "normality_freq_summary.json",
    "normality_dev_summary.json",
    "normality_diff_summary.json",
    "entropy.json",
    "attack_summary.json",
    "pca_summary.json",
)
REPORT_OPTIONAL = ("similarity.json", "correlate.json")


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


def _stage_manifest(name: str) -> str:
    """The manifest of the stage that wrote summary ``name``
    (``normality_dev_summary.json`` -> ``normality_manifest.json``)."""
    return name.split("_")[0].removesuffix(".json") + "_manifest.json"


def cmd_report(args) -> int:
    out_dir = _resolve_out(args)
    present = [name for name in REPORT_OPTIONAL if (out_dir / name).is_file()]
    inputs = REPORT_REQUIRED + tuple(present)
    manifests = list(dict.fromkeys(_stage_manifest(name) for name in inputs))
    missing = [name for name in inputs + tuple(manifests) if not (out_dir / name).is_file()]
    if missing:
        raise UnavailableAnalysisError(
            "report inputs missing from "
            f"{out_dir}: {', '.join(sorted(missing))}"
        )
    digests = [_read_summary(out_dir / name, ("input_sha256",))["input_sha256"]
               for name in manifests]
    for name, digest in zip(manifests, digests):
        if digest != digests[0]:
            raise StructuralError(
                f"{manifests[0]} and {name} record different input_sha256 "
                f"({digests[0]} vs {digest}): rerun the stages with the same "
                "--dataset/--layout/--meta"
            )
    payload = {
        "normality": {
            name: _read_summary(out_dir / f"normality_{name}_summary.json")
            for name in ("freq", "dev", "diff")
        },
        "entropy": _read_summary(out_dir / "entropy.json"),
        "attack": _read_summary(out_dir / "attack_summary.json", ("envelope",)),
        "pca": _read_summary(out_dir / "pca_summary.json",
                             ("variance_fractions", "truncated_agreement")),
    }
    if "similarity.json" in present:
        payload["similarity"] = _read_summary(out_dir / "similarity.json",
                                              ("serial_correlation",))
    if "correlate.json" in present:
        payload["correlation_profiles"] = _read_summary(out_dir / "correlate.json")
    manifest = RunManifest(
        version=__version__,
        subcommand="report",
        params={},
        input_sha256=hash_input_files([out_dir / n for n in inputs]),
    )
    writer = ArtifactWriter(out_dir, manifest)
    writer.write_json("report.json", payload)
    writer.finish()
    return 0


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
        "--layout", default="files",
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
    p.add_argument("--min-group", type=int, default=5)
    p.add_argument("--group-sizes", type=_int_list, default="5,10,20")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("entropy", parents=[dataset_parent, out_parent],
                       help="bias estimates and response entropy")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("correlate", parents=[dataset_parent, out_parent],
                       help="correlation profiles of the deviation and difference matrices")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("attack", parents=[dataset_parent, out_parent],
                       help="leave-one-out covariance-fitting attack")
    p.add_argument("--seed", type=_non_negative_int, required=True,
                   help="seed for device/position selection")
    p.add_argument("--devices", type=_non_negative_int, default=8,
                   help="number of target devices to sample")
    p.add_argument("--device-indices", type=_int_list, default=None,
                   help="explicit comma-separated targets")
    p.add_argument(
        "--fixed-counts", type=_fixed_counts, default=DEFAULT_FIXED_COUNTS,
        help="comma-separated pinned-position counts, or 'auto' for 8 even steps",
    )
    p.add_argument("--mode", choices=("trend", "exact", "both"), default="both")
    p.add_argument("--select", choices=("even", "random"), default="even")
    p.add_argument("--trend-magnitude", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("pca", parents=[dataset_parent, out_parent],
                       help="principal component analysis of the frequency matrix")
    p.add_argument("--geometry", default=DEFAULT_GEOMETRY.describe(),
                   help="chip grid as ROWSxCOLS:order")
    p.add_argument("--pcs", type=_non_negative_int, default=8,
                   help="components to export maps for")
    p.add_argument("--trunc-ranks", type=_int_list_text, default=None,
                   help="comma-separated ranks for the truncation sweep")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("synth", parents=[out_parent],
                       help="generate a synthetic dataset with ground truth")
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--preset", default="spatial", help="null, spatial, or noisy")
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--ros", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--layout", default="files", help="layout for the written dataset")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", parents=[out_parent],
                       help="aggregate prior outputs into report.json")
    p.set_defaults(func=cmd_report)

    return parser


def _run(args, loaded: dict) -> int:
    """Run one parsed subcommand and map its errors to exit codes. ``loaded``
    keeps the Inputs of the last (dataset, layout, meta) for the next call.
    Overflow, an invalid operation or a division by zero anywhere in numpy
    is a numeric error; underflow is not."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if not hasattr(args, "dataset"):
                return args.func(args)
            key = (args.dataset, args.layout, args.meta)
            if key not in loaded:
                loaded.clear()
                loaded[key] = _load(args)
            return args.func(args, loaded[key])
    except PufStatError as exc:
        print(f"pufstat: {exc.category} error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"pufstat: numeric error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pufstat: i/o error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return _run(build_parser().parse_args(argv), {})


def run_chain(dataset: str, out: str, *, layout: str = "files", meta: str | None = None,
              geometry: str, seed: int, attack_devices: int) -> int:
    """Run ingest, normality, similarity (only with ``meta``), entropy,
    correlate, attack and pca on one dataset, then report, all into ``out``.

    The artifacts are those of running the subcommands one by one, but the
    dataset is parsed, hashed and derived once. Returns the first non-zero
    exit code, else 0."""
    base = ["--dataset", dataset, "--layout", layout, "--out", out]
    if meta:
        base += ["--meta", meta]
    stages = [["ingest"], ["normality", "--matrix", "all"]]
    if meta:
        stages.append(["similarity"])
    stages += [
        ["entropy"],
        ["correlate"],
        ["attack", "--seed", str(seed), "--devices", str(attack_devices), "--mode", "both"],
        ["pca", "--geometry", geometry],
    ]
    steps = [stage + base for stage in stages] + [["report", "--out", out]]
    parser = build_parser()
    loaded = {}
    for step in steps:
        print(f"==> pufstat {' '.join(step)}", flush=True)
        code = _run(parser.parse_args(step), loaded)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
