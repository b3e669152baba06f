"""Record reference.json: the sha256 of each workload's deterministic output file, per seed.

    python3 perfbench/record_reference.py --seeds 20

Run it only at a commit whose outputs are known to be right: every later run
of a recorded seed must reproduce these files byte for byte.  A seed is
recorded only if all of its other checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="record seeds 0 .. N-1")
    args = parser.parse_args(argv)
    digests: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in range(args.seeds):
            measured = run.measure(name, seed, 0.0, False, reference=None,
                                   min_setups=1, setup_seconds=0.0, min_reps=1)
            failures = measured["checks"].failures
            if failures:
                print(f"{name} seed {seed}: {len(failures)} checks failed, first: {failures[0]}",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = measured["reps"][0]["digest"]
            print(f"{name} seed {seed}: {workload.reference_file} {digests[name][str(seed)]}")
    run.REFERENCE.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
