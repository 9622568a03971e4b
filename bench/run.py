"""Benchmark for bellcert: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload certify-small --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Each round prepares fresh inputs from the seed (untimed), runs its ops
(timed), and checks every output against the numpy-only reference (untimed).
Rounds repeat until the timed wall time reaches ``--seconds`` (by default
``run_seconds`` of BENCHMARK.json, which also gives the metrics' units).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, end-to-end with ``--trace 0`` and per layer
with ``--trace 1``.  ``--short`` runs two rounds with every check on.

OpenBLAS is pinned to one thread: on a two-core host its second thread
buys no speed in these workloads and makes timings depend on the
neighbours' load.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "bench" / "runs"
SETUP_REPEATS = 6  # extra set-ups in child processes, for the setup_s median
IMPORT_REPEATS = 5
WALL_LIMIT_S = 120.0  # stop starting rounds after this, so a run ends well within 180 s

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="two rounds, every check on")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import bellcert from this checkout's src/, and nowhere else."""
    if not (SRC / "bellcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no bellcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellcert

    if Path(bellcert.__file__).resolve().parent != SRC / "bellcert":
        raise SystemExit(f"error: bellcert was imported from {bellcert.__file__}")
    return bellcert


def blas_threads() -> str:
    """OpenBLAS thread count in effect, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={BLAS_THREADS})"


def tail(latencies_ms):
    """Median, and the highest listed percentile with >= 10 samples beyond it."""
    n = len(latencies_ms)
    text = f"median {statistics.median(latencies_ms):.3f} ms (n={n})"
    if n >= 40:
        cuts = statistics.quantiles(latencies_ms, n=1000, method="inclusive")
        for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
            if n * (1 - pct / 100) >= 10:
                text += f", p{pct:g} {cuts[int(pct * 10) - 1]:.3f} ms"
                break
    return text


def per_layer(tracer, ops: int, import_ms: float) -> dict:
    """Per-op self time of each layer over the spans serving ops; a layer
    with no such spans reports its self time in set-up instead."""
    totals = tracer.layer_totals()

    def pick(name):
        op_time, op_calls, setup_time, setup_calls, op_counts, setup_counts = totals[name]
        if op_calls:
            return op_time, op_counts, ops
        return setup_time, setup_counts, 1

    def ms(name):
        time, _, per = pick(name)
        return 1e3 * time / per

    def count(name, key):
        _, counts, per = pick(name)
        return counts.get(key, 0.0) / per

    members = sum(t[4].get("members", 0.0) for t in totals.values()) / ops
    evaluate_time, evaluate_counts, _ = pick("criterion.evaluate")
    cli_names = ("cli.validate", "cli.analyze", "cli.bound")
    own_op = sum(totals[n][0] for n in cli_names) - tracer.replay_time(in_ops=True)
    own_setup = sum(totals[n][2] for n in cli_names) - tracer.replay_time(in_ops=False)
    own_ms = 1e3 * own_op / ops if any(totals[n][1] for n in cli_names) else 1e3 * own_setup
    values = {
        "assemblages.construct_ms": ms("assemblages.construct"),
        "assemblages.validate_ms": ms("assemblages.validate"),
        "assemblages.generate_ms": ms("assemblages.generate"),
        "assemblages.members": members,
        "criterion.evaluate_ms": ms("criterion.evaluate"),
        "criterion.evaluate_members_per_s": evaluate_counts.get("evaluated", 0.0) / evaluate_time,
        "criterion.chsh_fast_ms": ms("criterion.chsh_fast"),
        "criterion.certificate_ms": ms("criterion.certificate"),
        "steering.functionals_ms": ms("steering.functionals"),
        "oracle.search_ms": ms("oracle.search"),
        "oracle.search_candidates": count("oracle.search", "candidates"),
        "oracle.enumerate_ms": ms("oracle.enumerate"),
        "oracle.enumerate_strategies": count("oracle.enumerate", "strategies"),
        "fileio.decode_ms": ms("fileio.decode"),
        "fileio.decode_bytes": count("fileio.decode", "bytes"),
        "cli.validate_ms": ms("cli.validate"),
        "cli.analyze_ms": ms("cli.analyze"),
        "cli.bound_ms": ms("cli.bound"),
        "cli.own_ms": own_ms,
        "import.bellcert_ms": import_ms,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in MANIFEST["per_layer"]}


def import_time_ms() -> float:
    """Median wall time of a cold ``python -c "import bellcert"`` process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import bellcert"], env=env, cwd=ROOT,
            check=True, timeout=60,
        )
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, workdir: Path) -> dict:
    import_program()
    from spans import Tracer
    from workloads import WORKLOADS, OpFailed

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    tracer = Tracer(bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, tracer, workdir)
    errors = list(wl.errors)
    op = 0
    inputs = wl.prepare(op)
    setup_s = perf_counter() - T_START
    if args.setup_only:
        return {"setup_s": setup_s}

    timed = 0.0
    attempted = failed = 0
    latencies = []
    rounds = 0
    # Set-up is repeated in child processes spread over the run, so that its
    # median, like the throughput, spans the host's fast and slow phases.
    setups = [setup_s]
    setup_every = args.seconds / SETUP_REPEATS
    while True:
        if not (args.trace or args.short) and timed >= setup_every * len(setups):
            setups.append(child_setup_s(args))
        t0 = perf_counter()
        outputs = wl.run(inputs, op)
        dt = perf_counter() - t0
        timed += dt
        rounds += 1
        latencies += [1e3 * dt / wl.ops_per_round] * wl.ops_per_round
        for out in outputs:
            if isinstance(out, OpFailed):
                failed += 1
                print(f"op failed: {out.exc!r}", file=sys.stderr)
                traceback.print_exception(out.exc, file=sys.stderr)
        attempted += len(outputs)
        if tracer.enabled:
            wl.replay(inputs, outputs, op)
        errors += [f"op {op}+: {e}" for e in wl.check(inputs, outputs)]
        op += len(outputs)
        done = rounds >= 2 if args.short else timed >= args.seconds
        if done or perf_counter() - T_START > WALL_LIMIT_S:
            break
        inputs = wl.prepare(op)

    completed = attempted - failed
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    ops_per_s = completed / timed
    summary = (f"# {args.workload} seed {args.seed}: {attempted} ops in {rounds} rounds, "
               f"{timed:.3f} s timed, {ops_per_s:.4g} ops/s, latency {tail(latencies)}, "
               f"BLAS threads {blas_threads()}, trace {args.trace}")
    if tracer.enabled:
        RUNS.mkdir(parents=True, exist_ok=True)
        tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(tracer, completed, import_time_ms())
    else:
        while len(setups) < 1 + SETUP_REPEATS:
            setups.append(child_setup_s(args))
        summary += f", set-up {setups[0]:.4f} s in this process"
        values = {
            "ops_per_s": ops_per_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in MANIFEST["end_to_end"]}
    print(summary)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
