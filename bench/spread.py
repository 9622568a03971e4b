"""Run-to-run spread of the end-to-end metrics, the figure behind each bound.

    python3 bench/spread.py --workload ghz-mermin --seeds 1-10

Runs ``bench/run.py --trace 0`` once per seed, one after another, and prints
per metric the median and the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    """A range of seeds written ``lo-hi``, both included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed | {lines[-2]}", flush=True)
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{args.workload} {name}: median {median:.6g}, spread "
              f"{(q3 - q1) / median:.4f} (bound {bounds[name]}), "
              f"min {min(vals):.6g}, max {max(vals):.6g}")
    print(f"{args.workload} failed shares: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
