"""Reference figures for bench/README.md: cold start and the scaling rows.

    python3 bench/baseline.py

Prints, each checked against the numpy-only reference or a known value:
cold ``import bellcert`` and a cold ``bellcert analyze singlet chsh``
process; ghz-N generation for N = 5..8; the chained:m local bound for
m = 5..7; and ``mixing_stability_check(build_chsh())`` at 100 samples.
Slow rows (ghz-8, chained:7) are timed once, the others three times; the
median is printed.  Takes about a minute.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bellcert as bc  # noqa: E402

import reference as ref  # noqa: E402


def timed(fn, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def process(argv) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, _ = timed(
        lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                               capture_output=True, timeout=60),
        5,
    )
    return seconds


def main() -> int:
    print(f"cold import bellcert: {1e3 * process([sys.executable, '-c', 'import bellcert']):.0f} ms")
    cli = [sys.executable, "-m", "bellcert", "analyze", "singlet", "chsh"]
    print(f"cold bellcert analyze singlet chsh: {1e3 * process(cli):.0f} ms")
    for n in (5, 6, 7, 8):
        seconds, assemblage = timed(lambda: bc.builtin_assemblage(f"ghz-{n}"), 3 if n < 8 else 1)
        assert len(assemblage.members) == 4 ** (n - 1)
        print(f"generation ghz-{n} ({4 ** (n - 1)} members): {1e3 * seconds:.1f} ms")
    for m in (5, 6, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            seconds, ineq = timed(lambda: bc.build_chained_svetlichny(m), 3 if m < 7 else 1)
        assert ineq.local_bound == ref.local_bound(ref.chained(m))
        print(f"bound chained:{m} = {ineq.local_bound:g}: {1e3 * seconds:.1f} ms")
    chsh = bc.build_chsh()
    seconds, report = timed(lambda: bc.mixing_stability_check(chsh, samples=100), 3)
    assert report.stable_so_far and report.violating_sampled == 100
    print(f"mixing_stability_check(chsh, 100 samples): {1e3 * seconds:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
