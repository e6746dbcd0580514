#!/usr/bin/env python3
"""Run the full analysis pipeline against a measured RO frequency dataset.

Runs ingest, similarity (only with --meta), correlate, attack, pca,
normality and entropy, then report, through ``pufstat.cli.run_chain``:
each stage on its subcommand's defaults, except attack's --seed, which this
script passes (1 unless given), and --layout and pca's --geometry where
they are given. The dataset is parsed, hashed and derived once, each
stage's artifacts are written by a forked writer while the next stages
compute (on one CPU, once every stage has computed), and the artifacts
equal those of the subcommands run one by one. The exit code is that of
the first stage that failed. Usage:

    python3 scripts/run_reference_analysis.py --dataset /path/to/dataset \
        --meta /path/to/serials.csv --out results/
"""

import argparse
import gc
import sys

from pufstat.cli import run_chain
from pufstat.covfit import REFERENCE_SEED


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--layout", default=None)
    parser.add_argument("--meta", default=None, help="device,serial CSV (enables similarity)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--geometry", default=None)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED, help="attack's seed")
    args = parser.parse_args()
    return run_chain(args.dataset, args.out, layout=args.layout, meta=args.meta,
                     geometry=args.geometry, seed=args.seed)


if __name__ == "__main__":
    code = main()
    # The process ends here: frozen, what is left escapes the interpreter's
    # last collection.
    gc.freeze()
    sys.exit(code)
