#!/usr/bin/env python3
"""Generate a seeded synthetic dataset and optionally analyze it in place.

The synthetic generator plants known device offsets, x/y gradients and local
process noise, and stores the drawn components beside the dataset, so the
analysis results can be compared against what was actually put in: the
ROs x devices matrices in ground_truth_local.npy and
ground_truth_true_freq.npy, everything else in ground_truth.json.
pufstat.GroundTruth.load(OUT) reads all three back. With
--analyze, the dataset goes through the chain of run_reference_analysis.py
(every stage including similarity, then report; parsed once), except that
attack samples 4 target devices, not 8. Usage:

    python3 scripts/make_synthetic_dataset.py --seed 7 --preset spatial \
        --out synth-run/ --analyze
"""

import argparse
import gc
import json
import sys
from pathlib import Path

from pufstat.cli import main as pufstat_main, run_chain
from pufstat.syngen import PRESETS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--preset", default="spatial", choices=PRESETS)
    parser.add_argument("--devices", type=int, default=None)
    parser.add_argument("--ros", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--geometry", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--analyze", action="store_true",
                        help="run the analysis pipeline on the generated data")
    args = parser.parse_args()

    synth = ["synth", "--seed", str(args.seed), "--preset", args.preset,
             "--out", args.out]
    for flag, value in (("--devices", args.devices), ("--ros", args.ros),
                        ("--samples", args.samples), ("--geometry", args.geometry)):
        if value is not None:
            synth += [flag, str(value)]
    code = pufstat_main(synth)
    if code != 0:
        return code

    dataset = Path(args.out) / "dataset"
    if not args.analyze:
        print(f"dataset in {dataset}")
        return 0
    # The geometry synth drew the dataset on: --geometry or the preset's.
    manifest = json.loads((Path(args.out) / "synth_manifest.json").read_text(encoding="utf-8"))
    return run_chain(str(dataset), args.out, meta=str(dataset / "serials.csv"),
                     geometry=manifest["params"]["config"]["geometry"], seed=args.seed,
                     attack_devices=4)


if __name__ == "__main__":
    code = main()
    # The process ends here: frozen, what is left escapes the interpreter's
    # last collection.
    gc.freeze()
    sys.exit(code)
