"""Compare two commits on the benchmark: alternating pairs of runs, then a held-out seed.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_30.json

Each commit is exported with `git archive` into its own directory under
--work, and `python3 perfbench/run.py --workload all` runs in that copy, so
each side runs its own benchmark code.  Pair i runs at seed PAIR_SEEDS[i]
with --seconds PAIR_SECONDS; the parent runs first in even pairs and the
change first in odd ones.  The held-out seed, which no pair uses, then runs
once per side at the benchmark's own run_seconds.  Each seed of BYTES_SEEDS
that neither ran gets one short run per side, so that output_bytes and the
correctness verdict are recorded at every one of those seeds.

The output file holds every run's metrics, each metric's median and
quartiles per side over the pairs, the number of pairs the change won, and
output_bytes per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_SEEDS = list(range(10, 20))
PAIR_SECONDS = 20.0
HELDOUT_SEED = 5
BYTES_SEEDS = range(20)
BYTES_SECONDS = 1.0


def export(commit: str, into: Path) -> None:
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def bench(copy: Path, seed: int, seconds: float) -> dict:
    """One `run.py --workload all` in copy: its verdict, its metrics and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{copy.name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed, "seconds": seconds, "correct": last["correct"],
        "attempted": last["attempted"], "failed": last["failed"],
        "metrics": {k: m["value"] for k, m in last["metrics"].items()},
        "elapsed_s": elapsed,
    }


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        lower = better[name.split(".", 1)[1]] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "better": "lower" if lower else "higher",
            "parent_median": statistics.median(parent), "parent_quartiles": quartiles(parent),
            "change_median": statistics.median(change), "change_quartiles": quartiles(change),
            "change_better_pairs": won,
            "tied_pairs": sum(p == c for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", default=None, help="directory for the two copies")
    args = parser.parse_args()

    work = Path(args.work or tempfile.mkdtemp(prefix="bench-pairs-"))
    copies = {"parent": work / "parent", "change": work / "change"}
    commits = {}
    for side, commit in (("parent", args.parent), ("change", args.change)):
        commits[side] = subprocess.run(["git", "-C", str(ROOT), "rev-parse", commit],
                                       check=True, capture_output=True, text=True).stdout.strip()
        export(commits[side], copies[side])
    benchmark = json.loads((copies["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    pairs = []
    for i, seed in enumerate(PAIR_SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(copies[side], seed, PAIR_SECONDS)
            print(f"pair {i} seed {seed} {side}: {pair[side]['elapsed_s']:.0f} s", flush=True)
        pairs.append(pair)
    heldout = {side: bench(copies[side], HELDOUT_SEED, benchmark["run_seconds"])
               for side in ("parent", "change")}
    runs = {p["seed"]: {side: p[side] for side in copies} for p in pairs}
    runs[HELDOUT_SEED] = heldout
    for seed in BYTES_SEEDS:
        if seed not in runs:
            runs[seed] = {side: bench(copies[side], seed, BYTES_SECONDS) for side in copies}
            print(f"bytes seed {seed} done", flush=True)

    output_bytes = {}
    for seed in sorted(runs):
        output_bytes[seed] = {}
        for workload in ("ensemble_grid", "hook_scaling"):
            before, after = (runs[seed][side]["metrics"][f"{workload}.output_bytes"]
                             for side in ("parent", "change"))
            output_bytes[seed][workload] = {"parent": before, "change": after,
                                            "change_over_parent": after / before}
    environment = json.loads(next((copies["change"] / ".bench_results").glob("*.json"))
                             .read_text())["environment"]
    doc = {
        "command": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:]),
        "protocol": (
            f"{len(PAIR_SEEDS)} pairs at seeds {PAIR_SEEDS[0]}-{PAIR_SEEDS[-1]}, "
            f"--seconds {PAIR_SECONDS:g}, the parent first in even pairs; held-out seed "
            f"{HELDOUT_SEED} at --seconds {benchmark['run_seconds']}, parent first; every other "
            f"seed of {BYTES_SEEDS.start}-{BYTES_SEEDS.stop - 1} once per side at --seconds "
            f"{BYTES_SECONDS:g}; each side in its own git archive copy"
        ),
        "environment": {k: environment[k] for k in ("python", "numpy", "blas", "nproc", "threads")},
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "correct": {side: all(r[side]["correct"] for r in runs.values()) for side in copies},
        "failed_checks": {side: sum(r[side]["failed"] for r in runs.values()) for side in copies},
        "attempted_checks": {side: sum(r[side]["attempted"] for r in runs.values())
                             for side in copies},
        "summary": summarize(pairs, better),
        "heldout": {"seed": HELDOUT_SEED, **heldout},
        "output_bytes_per_seed": output_bytes,
        "pairs": pairs,
        "bytes_runs": {seed: r for seed, r in runs.items()
                       if seed != HELDOUT_SEED and seed not in PAIR_SEEDS},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
