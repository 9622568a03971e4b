"""The benchmark's workloads: input generation, timed ops, replay and checks.

Each workload builds what it needs once (set-up), then repeats rounds:
``prepare`` makes fresh inputs for one round from the seed, ``run`` is the
timed part, ``replay`` (traced runs only) and ``check`` follow it.  Every
check compares against the numpy-only ``reference`` module or against a
property the method must have, never against stored output.

Span names are the layer names of the per-layer metrics.  Spans opened in
``prepare`` and ``replay`` carry the op they serve; spans with no op belong
to set-up, which includes a warm-up of the workload's own op path (and, in
traced runs only, of the other path too, see ``warm_up``).
"""

from __future__ import annotations

import contextlib
import io
import json
from math import sqrt
from pathlib import Path

import numpy as np

import bellcert as bc
from bellcert import cli, fileio
from bellcert.oracle import strategy_count

import reference as ref

REL_TOL = 1e-9
RANDOM_TRUSTED_SAMPLES = 8


def close(value: float, expected: float, rel: float = REL_TOL) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def trusted_directions(report) -> np.ndarray:
    """Bloch directions of the reported trusted measurements (first effects)."""
    return ref.bloch(np.array([m.effects[0] for m in report.optimal_measurements]))


def untrusted_measurements(directions) -> bc.UntrustedMeasurementSet:
    return bc.UntrustedMeasurementSet.from_directions(
        [[tuple(d) for d in per_party] for per_party in directions]
    )


# ---------------------------------------------------------------------------
# certify-small
# ---------------------------------------------------------------------------


def certify_op(tr, inequality, shape, members, two_two: bool) -> dict:
    """Construct, validate, evaluate and certify one assemblage; for the
    bipartite 2x2 scenario also run the fast path and steering functionals."""
    out = {}
    with tr.span("assemblages.construct", members=len(members)):
        assemblage = bc.Assemblage(shape, members)
    with tr.span("assemblages.validate"):
        out["findings"] = bc.validate(assemblage)
    with tr.span("criterion.evaluate", evaluated=len(members)):
        report = bc.evaluate(assemblage, inequality)
    with tr.span("criterion.certificate"):
        out["certificate"] = bc.bell_value(
            inequality, bc.distribution_from(assemblage, report.optimal_measurements)
        )
    out["report"] = report
    if two_two:
        with tr.span("criterion.chsh_fast"):
            out["fast"] = bc.chsh_fast(assemblage).lhs_value
        with tr.span("steering.functionals"):
            basis = bc.optimal_steering_basis(assemblage)
            out["two_axis"] = bc.two_axis_steering_lhs(assemblage, basis)
            out["three_axis"] = bc.three_axis_steering_lhs(assemblage, basis)
    return out


def check_certify(inp: dict, out: dict, beta, bound: float, rng) -> list[str]:
    errors = []
    report = out["report"]
    lhs = report.lhs_value
    state, untrusted = inp["state"], inp["untrusted"]
    if out["findings"]:
        errors.append(f"validate reported {out['findings'][0]}")
    born = ref.bell_value(beta, state, [trusted_directions(report), *untrusted])
    if not close(born, lhs):
        errors.append(f"reference Born value {born!r} != lhs {lhs!r}")
    closed, _ = ref.closed_form(beta, ref.steered_members(state, untrusted))
    if not close(closed, lhs):
        errors.append(f"reference closed form {closed!r} != lhs {lhs!r}")
    if not close(out["certificate"], lhs):
        errors.append(f"certificate {out['certificate']!r} != lhs {lhs!r}")
    samples = np.stack(
        [ref.random_directions(len(report.optimal_measurements), rng)
         for _ in range(RANDOM_TRUSTED_SAMPLES)]
    )
    best = float(ref.sampled_values(beta, state, samples, untrusted).max())
    if best > lhs + REL_TOL * max(1.0, abs(lhs)):
        errors.append(f"a random trusted measurement reaches {best!r} > lhs {lhs!r}")
    margin = 1e-9
    if abs(closed - bound) > margin and report.violated != (closed > bound):
        errors.append(f"verdict {report.violated} for lhs {closed!r} against {bound}")
    if "fast" in out:
        if not close(out["fast"], lhs):
            errors.append(f"chsh_fast {out['fast']!r} != lhs {lhs!r}")
        if not close(out["three_axis"], lhs):
            errors.append(f"three-axis {out['three_axis']!r} != lhs {lhs!r}")
        if out["two_axis"] > out["three_axis"] + REL_TOL:
            errors.append(f"two-axis {out['two_axis']!r} > three-axis")
    if inp["kind"] == "werner":
        v = inp["visibility"]
        if not close(lhs, ref.werner_chsh_value(v)):
            errors.append(f"Werner v={v}: lhs {lhs!r} != 2*sqrt(2)*v")
        if report.violated != (v > ref.WERNER_THRESHOLD):
            errors.append(f"Werner v={v}: violated={report.violated}")
    return errors


class CertifySmall:
    """Batches of fresh small assemblages through the closed-form kernel.

    A round holds ``KINDS`` in turn, ``PER_KIND`` of each: random bipartite
    2x2 assemblages against CHSH, random 3-party 2x2x2 assemblages against
    Svetlichny, and Werner-ZX points alternately below and above 1/sqrt(2).
    """

    name = "certify-small"
    KINDS = ("chsh", "svetlichny", "werner")
    PER_KIND = 16
    ops_per_round = PER_KIND * len(KINDS)

    def __init__(self, seed: int, tr, workdir: Path):
        self.tr = tr
        self.rng = np.random.default_rng([seed, 1])
        self.check_rng = np.random.default_rng([seed, 2])
        self.errors = []
        self.chsh = bc.build_chsh()
        svetlichny_shape = bc.ScenarioShape(2, (2, 2), (2, 2), 2)
        with tr.span("oracle.enumerate", strategies=strategy_count(svetlichny_shape)):
            self.svetlichny = bc.build_svetlichny()
        self.beta = {"chsh": ref.chsh(), "svetlichny": ref.svetlichny()}
        self.bound = {name: ref.local_bound(beta) for name, beta in self.beta.items()}
        for name, ineq in (("chsh", self.chsh), ("svetlichny", self.svetlichny)):
            if not np.array_equal(ineq.coefficients, self.beta[name]):
                self.errors.append(f"{name}: coefficients differ from the reference")
            if ineq.local_bound != self.bound[name]:
                self.errors.append(f"{name}: local bound {ineq.local_bound} != reference")
        self.errors += warm_up(tr, workdir, self.chsh, "certify")

    def _inputs(self, kind: str, op: int, sign: float) -> dict:
        rng = self.rng
        if kind == "werner":
            v = ref.WERNER_THRESHOLD + sign * float(rng.uniform(0.01, 0.25))
            with self.tr.span("assemblages.generate", op=op):
                assemblage = bc.builtin_assemblage("werner-ZX", visibility=v)
            return {"kind": kind, "visibility": v, "state": ref.werner(v),
                    "untrusted": [ref.ZX], "assemblage": assemblage}
        parties = 1 if kind == "chsh" else 2
        state = ref.random_state(parties + 1, rng)
        untrusted = [ref.random_directions(2, rng) for _ in range(parties)]
        with self.tr.span("assemblages.generate", op=op):
            assemblage = bc.generate_from_state(state, untrusted_measurements(untrusted))
        return {"kind": kind, "state": state, "untrusted": untrusted,
                "assemblage": assemblage}

    def prepare(self, first_op: int) -> list[dict]:
        inputs = []
        for i in range(self.PER_KIND):
            for kind in self.KINDS:
                op = first_op + len(inputs)
                inp = self._inputs(kind, op, 1.0 if i % 2 else -1.0)
                asm = inp.pop("assemblage")
                inp["shape"] = asm.shape
                inp["members"] = {k: np.array(v) for k, v in asm.members.items()}
                inputs.append(inp)
        return inputs

    def run(self, inputs: list[dict], first_op: int) -> list:
        tr = self.tr
        outputs = []
        for k, inp in enumerate(inputs):
            kind = inp["kind"]
            ineq = self.svetlichny if kind == "svetlichny" else self.chsh
            with tr.span("op", op=first_op + k):
                outputs.append(run_guarded(
                    certify_op, tr, ineq, inp["shape"], inp["members"], kind != "svetlichny"
                ))
        return outputs

    def replay(self, inputs, outputs, first_op) -> None:
        pass

    def check(self, inputs, outputs) -> list[str]:
        errors = []
        for inp, out in zip(inputs, outputs):
            if isinstance(out, dict):
                kind = "svetlichny" if inp["kind"] == "svetlichny" else "chsh"
                errors += check_certify(
                    inp, out, self.beta[kind], self.bound[kind], self.check_rng
                )
        return errors


# ---------------------------------------------------------------------------
# ghz-mermin
# ---------------------------------------------------------------------------


class GhzMermin:
    """GHZ-6 generated from the state at fresh equator shifts, then
    validated, evaluated against Mermin-6 and certified."""

    name = "ghz-mermin"
    N = 6
    ops_per_round = 1

    def __init__(self, seed: int, tr, workdir: Path):
        self.tr = tr
        self.rng = np.random.default_rng([seed, 3])
        self.errors = []
        n = self.N
        self.state = bc.ghz_state(n)
        beta = ref.mermin(n)
        shape = bc.ScenarioShape(n - 1, (2,) * (n - 1), (2,) * (n - 1), 2)
        candidate = bc.BellInequality(shape, beta, 0.0, f"mermin-{n}")
        with tr.span("oracle.enumerate", strategies=strategy_count(shape)):
            bound = bc.local_bound_enumerate(candidate)
        self.mermin = bc.BellInequality(shape, beta, bound, f"mermin-{n}")
        self.beta = beta
        expected = ref.mermin_local_bound(n)
        brute = ref.local_bound(beta)
        if not bound == brute == expected:
            self.errors.append(
                f"Mermin-{n} bound {bound} / reference {brute} / expected {expected}"
            )
        self.errors += warm_up(tr, workdir, bc.build_chsh(), "certify")

    def prepare(self, first_op: int) -> list:
        return [self.rng.uniform(0.0, 2.0 * np.pi, size=self.N - 1)]

    def run(self, inputs, first_op: int) -> list:
        with self.tr.span("op", op=first_op):
            return [run_guarded(self._op, inputs[0])]

    def _op(self, deltas) -> dict:
        tr = self.tr
        members = 2 ** (self.N - 1) * 2 ** (self.N - 1)
        with tr.span("assemblages.generate", members=members):
            measurements = bc.xy_plane_measurements([[d, d + np.pi / 2] for d in deltas])
            assemblage = bc.generate_from_state(self.state, measurements)
        with tr.span("assemblages.validate"):
            findings = bc.validate(assemblage)
        with tr.span("criterion.evaluate", evaluated=members):
            report = bc.evaluate(assemblage, self.mermin)
        with tr.span("criterion.certificate"):
            certificate = bc.bell_value(
                self.mermin, bc.distribution_from(assemblage, report.optimal_measurements)
            )
        return {"findings": findings, "report": report, "certificate": certificate}

    def replay(self, inputs, outputs, first_op) -> None:
        pass

    def check(self, inputs, outputs) -> list[str]:
        out = outputs[0]
        if not isinstance(out, dict):
            return []
        errors = []
        expected = ref.mermin_quantum_value(self.N)
        report = out["report"]
        if out["findings"]:
            errors.append(f"validate reported {out['findings'][0]}")
        if not close(report.lhs_value, expected) or not report.violated:
            errors.append(f"lhs {report.lhs_value!r}, violated {report.violated}")
        if not close(out["certificate"], expected):
            errors.append(f"certificate {out['certificate']!r} != {expected}")
        born = ref.bell_value(
            self.beta, ref.ghz(self.N),
            [trusted_directions(report), *ref.ghz_untrusted(inputs[0])],
        )
        if not close(born, expected):
            errors.append(f"reference Born value {born!r} != {expected}")
        return errors


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(a) for a in argv])
    return code, stdout.getvalue()


def make_session(workdir: Path, rng, tr, op, n: int, m: int, mermin_bound: float) -> dict:
    """Fresh files for one session: a rotated ghz-n assemblage and a
    relabelled Mermin-n inequality, a Werner-ZX assemblage, and an
    inequality of the chained:m shape with random integer coefficients
    (its local_bound field is a 0 placeholder; ``bound`` recomputes it)."""
    tag = "setup" if op is None else str(op)
    deltas = rng.uniform(0.0, 2.0 * np.pi, size=n - 1)
    with tr.span("assemblages.generate", op=op):
        ghz = bc.generate_from_state(
            bc.ghz_state(n),
            bc.xy_plane_measurements([[d, d + np.pi / 2] for d in deltas]),
        )
    beta = ref.mermin(n)
    for party in np.flatnonzero(rng.integers(0, 2, size=n - 1)):
        beta = np.flip(beta, axis=1 + party)
    v = ref.WERNER_THRESHOLD + (1.0 if rng.integers(0, 2) else -1.0) * float(
        rng.uniform(0.01, 0.25)
    )
    with tr.span("assemblages.generate", op=op):
        werner = bc.builtin_assemblage("werner-ZX", visibility=v)
    chained_shape = bc.ScenarioShape(2, (m, m), (2, 2), m)
    chained = rng.integers(-2, 3, size=chained_shape.distribution_dims).astype(float)
    files = {
        "ghz": workdir / f"ghz{n}-{tag}.json",
        "mermin": workdir / f"mermin{n}-{tag}.json",
        "werner": workdir / f"werner-{tag}.json",
        "chained": workdir / f"chained{m}-{tag}.json",
    }
    fileio.save_assemblage(ghz, files["ghz"])
    fileio.save_assemblage(werner, files["werner"])
    fileio.save_inequality(
        bc.BellInequality(ghz.shape, np.ascontiguousarray(beta), mermin_bound, f"mermin-{n}"),
        files["mermin"],
    )
    fileio.save_inequality(
        bc.BellInequality(chained_shape, chained, 0.0, f"random-chained-{m}"), files["chained"]
    )
    return {"files": files, "n": n, "visibility": v, "chained": chained,
            "seed": int(rng.integers(0, 2**31))}


def cli_session(tr, session: dict) -> dict:
    f = session["files"]
    seed = session["seed"]
    calls = {}
    with tr.span("cli.validate"):
        calls["validate"] = run_cli(["validate", f["ghz"]])
    with tr.span("cli.analyze"):
        calls["ghz"] = run_cli(
            ["analyze", f["ghz"], f["mermin"], "--oracle", "--json", "--seed", seed]
        )
    with tr.span("cli.analyze"):
        calls["werner"] = run_cli(
            ["analyze", f["werner"], "chsh", "--oracle", "--steering", "--json",
             "--seed", seed]
        )
    with tr.span("cli.bound"):
        calls["bound"] = run_cli(["bound", f["chained"], "--json"])
    return calls


def _decode(tr, loader, path: Path, members: bool = False):
    size = path.stat().st_size
    with tr.span("fileio.decode", bytes=size) as span:
        obj = loader(path)
    if members and tr.enabled:
        span.counts["members"] = len(obj.members)
    return obj


def replay_session(tr, session: dict, chsh, op=None) -> dict:
    """The session's commands as direct calls into the layers the CLI uses,
    in the CLI's order, leaving out argument parsing, built-in resolution,
    CHSH-family detection and rendering (together ``cli.own``)."""
    f = session["files"]
    config = bc.SearchConfig(seed=session["seed"])
    got = {}
    with tr.span("replay", op=op):
        ghz = _decode(tr, fileio.load_assemblage, f["ghz"], members=True)
        with tr.span("assemblages.validate"):
            bc.validate(ghz, strict_no_signaling=True)

        ghz = _decode(tr, fileio.load_assemblage, f["ghz"], members=True)
        mermin = _decode(tr, fileio.load_inequality, f["mermin"])
        with tr.span("assemblages.validate"):
            bc.validate(ghz)
            bc.no_signaling_deviation(ghz)
        with tr.span("criterion.evaluate", evaluated=len(ghz.members)):
            got["ghz_lhs"] = bc.evaluate(ghz, mermin).lhs_value
        with tr.span("oracle.search") as span:
            result = bc.max_violation_search(ghz, mermin, config)
        span.counts["candidates"] = result.candidates_evaluated
        got["ghz_oracle"] = result.value

        werner = _decode(tr, fileio.load_assemblage, f["werner"], members=True)
        with tr.span("assemblages.validate"):
            bc.validate(werner)
            bc.no_signaling_deviation(werner)
        with tr.span("criterion.evaluate", evaluated=len(werner.members)):
            got["werner_lhs"] = bc.evaluate(werner, chsh).lhs_value
        with tr.span("criterion.chsh_fast"):
            bc.chsh_fast(werner)
        with tr.span("oracle.search") as span:
            result = bc.max_violation_search(werner, chsh, config)
        span.counts["candidates"] = result.candidates_evaluated
        got["werner_oracle"] = result.value
        with tr.span("steering.functionals"):
            basis = bc.optimal_steering_basis(werner)
            bc.two_axis_steering_lhs(werner, basis)
            bc.three_axis_steering_lhs(werner, basis)

        chained = _decode(tr, fileio.load_inequality, f["chained"])
        with tr.span("oracle.enumerate", strategies=strategy_count(chained.shape)):
            got["bound"] = bc.local_bound_enumerate(chained)
    return got


def check_session(session: dict, calls: dict, replayed: dict | None) -> list[str]:
    errors = []
    n = session["n"]
    v = session["visibility"]
    code, text = calls["validate"]
    if code != 0 or "valid" not in text.split():
        errors.append(f"validate exit {code}")

    def analysis(key, expected_code, expected_lhs):
        code, text = calls[key]
        if code != expected_code:
            errors.append(f"analyze {key}: exit {code}, expected {expected_code}")
            return None
        doc = json.loads(text)
        lhs = doc["criterion"]["lhs_value"]
        if not close(lhs, expected_lhs):
            errors.append(f"analyze {key}: lhs {lhs!r} != {expected_lhs!r}")
        oracle = doc["oracle"]
        if oracle["value"] > lhs + REL_TOL:
            errors.append(f"analyze {key}: oracle {oracle['value']!r} > lhs {lhs!r}")
        if lhs - oracle["value"] > oracle["grid_error_bound"] + REL_TOL:
            errors.append(f"analyze {key}: oracle gap beyond grid_error_bound")
        if replayed is not None:
            if replayed[key + "_lhs"] != lhs or replayed[key + "_oracle"] != oracle["value"]:
                errors.append(f"analyze {key}: replay differs from the CLI report")
        return doc

    analysis("ghz", 0, ref.mermin_quantum_value(n))
    doc = analysis("werner", 0 if v > ref.WERNER_THRESHOLD else 1, ref.werner_chsh_value(v))
    if doc is not None:
        steering = doc["steering"]
        lhs = doc["criterion"]["lhs_value"]
        if not close(steering["three_axis_lhs"], lhs):
            errors.append(f"three-axis {steering['three_axis_lhs']!r} != lhs {lhs!r}")
        if steering["two_axis_lhs"] > steering["three_axis_lhs"] + REL_TOL:
            errors.append("two-axis value exceeds three-axis value")
    code, text = calls["bound"]
    expected = ref.local_bound(session["chained"])
    if code != 0:
        errors.append(f"bound exit {code}")
    else:
        got = json.loads(text)["local_bound"]
        if got != expected or (replayed is not None and replayed["bound"] != expected):
            errors.append(f"bound {got!r} != reference {expected!r}")
    return errors


class CliSession:
    """In-process ``bellcert.cli.main`` sessions on files not read before."""

    name = "cli-session"
    N = 5
    M = 5
    ops_per_round = 1

    def __init__(self, seed: int, tr, workdir: Path):
        self.tr = tr
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 4])
        self.chsh = bc.build_chsh()
        self.mermin_bound = ref.local_bound(ref.mermin(self.N))
        self.errors = []
        if self.mermin_bound != ref.mermin_local_bound(self.N):
            self.errors.append(f"reference Mermin-{self.N} bound {self.mermin_bound}")
        self.errors += warm_up(tr, workdir, self.chsh, "cli")

    def prepare(self, first_op: int) -> list:
        return [make_session(self.workdir, self.rng, self.tr, first_op,
                             self.N, self.M, self.mermin_bound)]

    def run(self, inputs, first_op: int) -> list:
        with self.tr.span("op", op=first_op):
            return [run_guarded(cli_session, self.tr, inputs[0])]

    def replay(self, inputs, outputs, first_op) -> None:
        if isinstance(outputs[0], dict):
            inputs[0]["replayed"] = replay_session(self.tr, inputs[0], self.chsh, first_op)

    def check(self, inputs, outputs) -> list[str]:
        session = inputs[0]
        errors = []
        if isinstance(outputs[0], dict):
            errors = check_session(session, outputs[0], session.get("replayed"))
        for path in session["files"].values():
            path.unlink(missing_ok=True)
        return errors


# ---------------------------------------------------------------------------
# Warm-up and failure accounting
# ---------------------------------------------------------------------------


def warm_up(tr, workdir: Path, chsh, path: str) -> list[str]:
    """One small fixed op down ``path``, the one the workload's ops take:
    "certify" (a singlet through the certify path) or "cli" (a ghz-3,
    Mermin-3, Werner and chained:2 session), checked.

    First-call costs then land in set-up, not in the first timed op.  A
    traced run also sends one op down the other path, so that every layer
    has a set-up span to report in workloads whose ops never call it; the
    untraced run does not, so ``setup_s`` holds only the workload's own path.
    """
    errors = []
    if path == "certify" or tr.enabled:
        rng = np.random.default_rng(0)
        state, untrusted = ref.singlet(), [ref.ZX]
        with tr.span("assemblages.generate"):
            assemblage = bc.generate_from_state(state, untrusted_measurements(untrusted))
        members = {k: np.array(v) for k, v in assemblage.members.items()}
        out = certify_op(tr, chsh, assemblage.shape, members, True)
        inp = {"kind": "chsh", "state": state, "untrusted": untrusted}
        errors += check_certify(inp, out, ref.chsh(), 2.0, rng)
        if not close(out["report"].lhs_value, 2.0 * sqrt(2.0)):
            errors.append(f"singlet CHSH lhs {out['report'].lhs_value!r}")
    if path == "cli" or tr.enabled:
        rng = np.random.default_rng(0)
        session = make_session(workdir, rng, tr, None, 3, 2, ref.mermin_local_bound(3))
        calls = cli_session(tr, session)
        replayed = replay_session(tr, session, chsh) if tr.enabled else None
        errors += check_session(session, calls, replayed)
        for file in session["files"].values():
            file.unlink(missing_ok=True)
    return ["warm-up: " + e for e in errors]


class OpFailed:
    """Marks an op that raised; it counts in ``failed`` and is not checked."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def run_guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # one failing op must not end the run
        return OpFailed(exc)


WORKLOADS = {w.name: w for w in (CertifySmall, GhzMermin, CliSession)}
