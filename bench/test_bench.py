"""The benchmark's own tests: the reference against analytic values, the
checks against deliberately wrong outputs, and every workload in short mode.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("v", [0.0, 0.5, 1 / np.sqrt(2), 0.8, 1.0])
def test_werner_chsh_closed_form(v):
    members = ref.steered_members(ref.werner(v), [ref.ZX])
    lhs, vectors = ref.closed_form(ref.chsh(), members)
    assert lhs == pytest.approx(2 * np.sqrt(2) * v, abs=1e-12)
    if v > 0:
        directions = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        born = ref.bell_value(ref.chsh(), ref.werner(v), [directions, ref.ZX])
        assert born == pytest.approx(lhs, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ghz_mermin_values_for_any_equator_shift(n):
    rng = np.random.default_rng(n)
    beta = ref.mermin(n)
    assert ref.local_bound(beta) == ref.mermin_local_bound(n) == 2 ** (n // 2)
    for deltas in (np.zeros(n - 1), rng.uniform(0, 2 * np.pi, n - 1)):
        untrusted = ref.ghz_untrusted(deltas)
        born = ref.bell_value(beta, ref.ghz(n), [ref.ghz_trusted(deltas), *untrusted])
        lhs, _ = ref.closed_form(beta, ref.steered_members(ref.ghz(n), untrusted))
        assert born == pytest.approx(2 ** (n - 1), abs=1e-9)
        assert lhs == pytest.approx(2 ** (n - 1), abs=1e-9)


@pytest.mark.parametrize("m, bound", [(2, 2.0), (3, 5.0), (4, 8.0), (5, 13.0)])
def test_chained_local_bounds(m, bound):
    assert ref.local_bound(ref.chained(m)) == bound


def test_chsh_and_svetlichny_local_bounds():
    assert ref.local_bound(ref.chsh()) == 2.0
    assert ref.local_bound(ref.svetlichny()) == 4.0


def test_sampled_values_match_single_evaluations():
    rng = np.random.default_rng(7)
    state = ref.random_state(3, rng)
    untrusted = [ref.random_directions(2, rng) for _ in range(2)]
    samples = np.stack([ref.random_directions(2, rng) for _ in range(3)])
    batch = ref.sampled_values(ref.svetlichny(), state, samples, untrusted)
    single = [ref.bell_value(ref.svetlichny(), state, [s, *untrusted]) for s in samples]
    assert np.allclose(batch, single, atol=1e-12)


def singlet_certify():
    import bellcert as bc

    state, untrusted = ref.singlet(), [ref.ZX]
    assemblage = bc.generate_from_state(state, workloads.untrusted_measurements(untrusted))
    members = {k: np.array(v) for k, v in assemblage.members.items()}
    out = workloads.certify_op(Tracer(False), bc.build_chsh(), assemblage.shape, members, True)
    return {"kind": "chsh", "state": state, "untrusted": untrusted}, out


def test_certify_check_accepts_the_program_and_rejects_a_wrong_value():
    inp, out = singlet_certify()
    rng = np.random.default_rng(0)
    assert workloads.check_certify(inp, out, ref.chsh(), 2.0, rng) == []
    out["report"].lhs_value += 1e-6
    errors = workloads.check_certify(inp, out, ref.chsh(), 2.0, rng)
    assert any("reference Born value" in e for e in errors)
    assert any("closed form" in e for e in errors)


def test_session_check_rejects_a_wrong_bound(tmp_path):
    import bellcert as bc

    rng = np.random.default_rng(0)
    tr = Tracer(False)
    session = workloads.make_session(tmp_path, rng, tr, 0, 3, 2, ref.mermin_local_bound(3))
    calls = workloads.cli_session(tr, session)
    assert workloads.check_session(session, calls, None) == []
    code, text = calls["bound"]
    doc = json.loads(text)
    doc["local_bound"] += 1.0
    calls["bound"] = (code, json.dumps(doc))
    assert any(e.startswith("bound") for e in workloads.check_session(session, calls, None))
    replayed = workloads.replay_session(Tracer(True), session, bc.build_chsh())
    assert replayed["bound"] == ref.local_bound(session["chained"])


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_mode(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = manifest["per_layer"] if trace == "1" else manifest["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        # cli.own is a difference of two timings of ~200 ms; over two ops
        # it can come out below zero.
        assert metric["value"] > 0 or m["name"] == "cli.own_ms"
    if trace == "1":
        spans = ROOT / "bench" / "runs" / f"spans-{workload}-seed5.json"
        assert json.loads(spans.read_text())["spans"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "certify-small", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
