#!/usr/bin/env python3
"""Compare the artifacts two pufstat output directories list in their
``*_manifest.json`` files.

Prints one line per artifact whose SHA-256 differs between the two
directories and one per artifact that only one of them lists, then exits
1 if there is any such line and 0 if every artifact is byte-identical.
Usage:

    python3 scripts/compare_manifests.py OUT_A OUT_B
"""

import argparse
import json
import sys
from pathlib import Path


def artifact_digests(out_dir: Path) -> dict:
    """``(manifest name, artifact name) -> SHA-256`` over every manifest in
    ``out_dir``."""
    digests = {}
    for manifest in sorted(out_dir.glob("*_manifest.json")):
        artifacts = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
        for name, digest in artifacts.items():
            digests[manifest.name, name] = digest
    return digests


def differences(digests_a: dict, digests_b: dict) -> list[str]:
    lines = []
    for key in sorted(digests_a.keys() | digests_b.keys()):
        label = "/".join(key)
        if key not in digests_b:
            lines.append(f"only in A: {label}")
        elif key not in digests_a:
            lines.append(f"only in B: {label}")
        elif digests_a[key] != digests_b[key]:
            lines.append(f"differs: {label} {digests_a[key]} {digests_b[key]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_a", type=Path)
    parser.add_argument("out_b", type=Path)
    args = parser.parse_args(argv)
    digests = []
    for out_dir in (args.out_a, args.out_b):
        found = artifact_digests(out_dir) if out_dir.is_dir() else {}
        if not found:
            parser.error(f"{out_dir} holds no *_manifest.json listing artifacts")
        digests.append(found)
    lines = differences(*digests)
    for line in lines:
        print(line)
    if not lines:
        print(f"{len(digests[0])} artifacts identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
