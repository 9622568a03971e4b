"""Command-line front end: validate, analyze, generate, bound.

Exit codes are stable: 0 for success (and for positive domain verdicts),
1 for a negative domain verdict (invalid assemblage, no violation), 2 for
input errors.  Every report embeds a run manifest (command, input digests,
version, tolerances in effect, seed, timestamp); generated assemblage files
are canonical and contain no manifest so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from math import pi
from pathlib import Path

import numpy as np

from . import __version__, fileio, tolerances
from .analysis import analyze
from .assemblages import (
    Assemblage,
    UntrustedMeasurementSet,
    builtin_assemblage,
    generate_from_state,
    ghz_state,
    no_signaling_deviation,
    singlet_state,
    validate,
    werner_state,
)
from .inequalities import (
    BellInequality,
    build_chained_svetlichny,
    build_chsh,
    build_reducible_chsh,
    build_svetlichny,
    local_bound_enumerate,
    strategy_count,
)
from .oracle import SearchConfig

AXIS_DIRECTIONS = {
    "X": (1.0, 0.0, 0.0),
    "Y": (0.0, 1.0, 0.0),
    "Z": (0.0, 0.0, 1.0),
}

REPORT_SCHEMA = 1

# The tolerances each subcommand applies; --tol accepts only these names.
# `analyze` has no hermiticity: its kernel rejects members at the fixed bound.
APPLIED_TOLERANCES = {
    "analyze": ("positivity", "normalization", "no-signaling", "tie"),
    "validate": ("hermiticity", "positivity", "normalization", "no-signaling"),
    "generate": (),
    "bound": (),
}

# `analyze` checks the local bound of a file inequality by enumeration when
# it has at most this many deterministic strategies (chained:8 has 2**24).
FILE_BOUND_CHECK_LIMIT = 1 << 24


class InputError(Exception):
    """User-facing input problem; rendered on stderr with exit code 2."""


@dataclass
class RunManifest:
    command: str
    inputs: dict[str, str]
    seed: int
    tolerance_set: dict[str, float]

    def to_jsonable(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "version": __version__,
            "tolerances": self.tolerance_set,
            "seed": self.seed,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }

    def render(self) -> str:
        inputs = " ".join(f"{k}={v}" for k, v in self.inputs.items())
        return (
            f"manifest: bellcert {__version__} | {self.command} | {inputs} | "
            f"seed {self.seed}"
        )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized paths")
    common.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a tolerance (names: %s; analyze takes all but hermiticity, "
        "validate all but tie, generate and bound none)" % ", ".join(tolerances.defaults()),
    )

    parser = argparse.ArgumentParser(
        prog="bellcert",
        description=(
            "Decide whether an assemblage with one trusted qubit violates a "
            "linear Bell inequality, in closed form, with an independent "
            "search oracle for cross-checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"bellcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", parents=[common], help="check an assemblage file"
    )
    p_validate.add_argument("assemblage", help="assemblage file or built-in name")
    p_validate.add_argument(
        "--strict-no-signaling",
        action="store_true",
        help="treat no-signaling deviations as errors instead of warnings",
    )
    p_validate.set_defaults(handler=_cmd_validate)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="run the closed-form certification"
    )
    p_analyze.add_argument("assemblage", help="assemblage file or built-in name")
    p_analyze.add_argument(
        "inequality",
        help="built-in name (chsh | svetlichny | chained:m | reducible-chsh[:w]) or file",
    )
    p_analyze.add_argument(
        "--oracle", action="store_true", help="append an independent search cross-check"
    )
    p_analyze.add_argument(
        "--steering",
        action="store_true",
        help="append the steering-functional comparison (bipartite 2x2 only)",
    )
    p_analyze.add_argument("--grid", type=int, default=180, help="oracle grid resolution")
    p_analyze.add_argument("--povm-samples", type=int, default=20, help="oracle POVM samples")
    p_analyze.add_argument("--refine", type=int, default=24, help="oracle refinement iterations")
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_generate = sub.add_parser(
        "generate", parents=[common], help="write a canonical assemblage file"
    )
    p_generate.add_argument(
        "state", help="singlet | werner:v | ghzN | density-matrix file"
    )
    p_generate.add_argument(
        "measurements",
        help=(
            "per-party axis letters separated by ';' (e.g. ZX or Z;Z), or "
            "xy:<deg,...> angle lists (e.g. 'xy:0,90;xy:45,135')"
        ),
    )
    p_generate.add_argument("out", help="output path")
    p_generate.add_argument(
        "--trusted-inputs", type=int, default=2, help="trusted input count metadata"
    )
    p_generate.set_defaults(handler=_cmd_generate)

    p_bound = sub.add_parser(
        "bound", parents=[common], help="enumerate the exact local bound"
    )
    p_bound.add_argument("inequality", help="built-in name or inequality file")
    p_bound.add_argument(
        "--cap", type=int, default=100_000_000, help="deterministic-strategy cap"
    )
    p_bound.set_defaults(handler=_cmd_bound)
    return parser


def _effective_tolerances(args) -> dict[str, float]:
    """Defaults of the tolerances ``args.command`` applies, with overrides."""
    applied = APPLIED_TOLERANCES[args.command]
    effective = {k: v for k, v in tolerances.defaults().items() if k in applied}
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep or name not in effective:
            if not effective:
                raise InputError(f"bad --tol {item!r}; {args.command} applies no tolerance")
            raise InputError(
                f"bad --tol {item!r}; expected NAME=VALUE with NAME in "
                f"{', '.join(effective)}"
            )
        try:
            effective[name] = float(value)
        except ValueError:
            raise InputError(f"bad --tol value {value!r} for {name}") from None
    return effective


def _file_bound_check(inequality: BellInequality, tie: float) -> dict:
    """Check a file inequality's claimed local bound against enumeration.

    Returns ``{"enumerated_local_bound": value}``, with ``None`` for
    inequalities above :data:`FILE_BOUND_CHECK_LIMIT` strategies.  A claimed
    bound below the enumerated one by more than ``tie`` would let a local
    behavior pass as a violation, so it is an input error; a claimed bound
    above it only makes the verdict conservative and stays in use.
    """
    if strategy_count(inequality.shape) > FILE_BOUND_CHECK_LIMIT:
        return {"enumerated_local_bound": None}
    enumerated = local_bound_enumerate(inequality)
    if inequality.local_bound < enumerated - tie:
        raise InputError(
            f"local_bound: the file claims {inequality.local_bound!r}, below the "
            f"enumerated local bound {enumerated!r}"
        )
    return {"enumerated_local_bound": enumerated}


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------


def _resolve_assemblage(spec: str) -> tuple[Assemblage, str]:
    """Return (assemblage, source label); label doubles as the input digest."""
    name = spec.strip()
    lowered = name.lower()
    if lowered in ("uniform-noise", "singlet-zx", "singlet"):
        builtin = "uniform-noise" if lowered == "uniform-noise" else "singlet-ZX"
        return builtin_assemblage(builtin), f"builtin:{builtin}"
    if lowered.startswith(("werner-zx:", "werner:")):
        visibility = _parse_float(name.split(":", 1)[1], "werner visibility")
        return (
            builtin_assemblage("werner-ZX", visibility=visibility),
            f"builtin:werner-ZX:{visibility}",
        )
    ghz = _parse_ghz(lowered)
    if ghz is not None:
        return builtin_assemblage(f"ghz-{ghz}"), f"builtin:ghz-{ghz}"
    path = Path(name)
    if path.exists():
        return fileio.load_assemblage(path), f"sha256:{fileio.sha256_digest(path)}"
    raise InputError(f"{name!r} is neither a built-in assemblage nor an existing file")


def _resolve_inequality(
    spec: str, *, enumerate_bound: bool = True
) -> tuple[BellInequality, str]:
    """Return (inequality, source label).

    With ``enumerate_bound`` false, the chained built-in carries a 0
    placeholder bound instead of its enumerated one, for a caller that
    enumerates the bound itself.
    """
    name = spec.strip()
    lowered = name.lower()
    if lowered == "chsh":
        return build_chsh(), "builtin:chsh"
    if lowered == "svetlichny":
        return build_svetlichny(), "builtin:svetlichny"
    if lowered.startswith("chained:"):
        m = _parse_int(name.split(":", 1)[1], "chained input count")
        placeholder = None if enumerate_bound else 0.0
        return build_chained_svetlichny(m, placeholder), f"builtin:chained:{m}"
    if lowered == "reducible-chsh":
        return build_reducible_chsh(), "builtin:reducible-chsh:0.5"
    if lowered.startswith("reducible-chsh:"):
        weight = _parse_float(name.split(":", 1)[1], "reducible weight")
        return build_reducible_chsh(weight), f"builtin:reducible-chsh:{weight}"
    path = Path(name)
    if path.exists():
        return fileio.load_inequality(path), f"sha256:{fileio.sha256_digest(path)}"
    raise InputError(f"{name!r} is neither a built-in inequality nor an existing file")


def _resolve_state(spec: str) -> tuple[np.ndarray, int, str]:
    """Return (density matrix, untrusted party count, label)."""
    name = spec.strip()
    lowered = name.lower()
    if lowered == "singlet":
        return singlet_state(), 1, "builtin:singlet"
    if lowered.startswith("werner:"):
        visibility = _parse_float(name.split(":", 1)[1], "werner visibility")
        return werner_state(visibility), 1, f"builtin:werner:{visibility}"
    ghz = _parse_ghz(lowered)
    if ghz is not None:
        return ghz_state(ghz), ghz - 1, f"builtin:ghz-{ghz}"
    path = Path(name)
    if path.exists():
        rho = fileio.load_density_matrix(path)
        dim = rho.shape[0]
        untrusted_dim = dim // 2
        parties = int(np.log2(untrusted_dim)) if untrusted_dim > 0 else 0
        if dim < 4 or 2 * 2**parties != dim:
            raise InputError(
                f"{name}: dimension {dim} is not 2 * 2^k (qubit untrusted parties)"
            )
        return rho, parties, f"sha256:{fileio.sha256_digest(path)}"
    raise InputError(f"{name!r} is neither a built-in state nor an existing file")


def _parse_ghz(lowered: str) -> int | None:
    for prefix in ("ghz-", "ghz:", "ghz"):
        if lowered.startswith(prefix) and lowered[len(prefix) :].isdigit():
            return int(lowered[len(prefix) :])
    return None


def _parse_measurements(spec: str, parties: int) -> UntrustedMeasurementSet:
    segments = spec.split(";")
    if len(segments) == 1 and parties > 1:
        token = segments[0].strip()
        if len(token) == parties and all(c.upper() in AXIS_DIRECTIONS for c in token):
            segments = list(token)  # one axis letter per party, one input each
        else:
            raise InputError(
                f"measurement spec {spec!r} needs {parties} ';'-separated segments"
            )
    if len(segments) != parties:
        raise InputError(
            f"measurement spec has {len(segments)} segments, expected {parties}"
        )
    directions = []
    for party, segment in enumerate(segments):
        token = segment.strip()
        if token.lower().startswith("xy:"):
            angles = token[3:].split(",")
            per_party = []
            for raw in angles:
                angle = _parse_float(raw, f"party {party} angle") * pi / 180.0
                per_party.append((float(np.cos(angle)), float(np.sin(angle)), 0.0))
        elif token and all(c.upper() in AXIS_DIRECTIONS for c in token):
            per_party = [AXIS_DIRECTIONS[c.upper()] for c in token]
        else:
            raise InputError(
                f"bad measurement segment {token!r} for party {party}; use axis "
                "letters (XYZ) or xy:<degrees,...>"
            )
        directions.append(per_party)
    return UntrustedMeasurementSet.from_directions(directions)


def _parse_float(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"bad {what}: {raw!r}") from None


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"bad {what}: {raw!r}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    tol = _effective_tolerances(args)
    assemblage, label = _resolve_assemblage(args.assemblage)
    findings = validate(
        assemblage,
        strict_no_signaling=True,
        hermiticity_tol=tol["hermiticity"],
        positivity_tol=tol["positivity"],
        normalization_tol=tol["normalization"],
        no_signaling_tol=tol["no-signaling"],
    )
    errors = [f for f in findings if f.kind != "no-signaling"]
    warnings_ = [f for f in findings if f.kind == "no-signaling"]
    if args.strict_no_signaling:
        errors, warnings_ = errors + warnings_, []
    valid = not errors

    manifest = RunManifest("validate", {"assemblage": label}, args.seed, tol)
    if args.json:
        doc = {
            "format": "validation-report",
            "schema": REPORT_SCHEMA,
            "manifest": manifest.to_jsonable(),
            "assemblage": {
                "source": label,
                "shape": fileio.shape_to_jsonable(assemblage.shape),
            },
            "valid": valid,
            "violations": [_violation_jsonable(v) for v in errors],
            "warnings": [_violation_jsonable(v) for v in warnings_],
        }
        print(json.dumps(doc, indent=2))
    else:
        for finding in errors:
            print(f"violation: {finding}")
        for finding in warnings_:
            print(f"warning: {finding}")
        print("valid" if valid else "INVALID")
        print(manifest.render())
    return 0 if valid else 1


def _violation_jsonable(violation) -> dict:
    return {
        "kind": violation.kind,
        "b": list(violation.b) if violation.b is not None else None,
        "y": list(violation.y) if violation.y is not None else None,
        "magnitude": violation.magnitude,
    }


def _cmd_analyze(args) -> int:
    tol = _effective_tolerances(args)
    assemblage, a_label = _resolve_assemblage(args.assemblage)
    inequality, i_label = _resolve_inequality(args.inequality)
    bound_check = None
    if i_label.startswith("sha256:"):  # the local bound came from a file
        bound_check = _file_bound_check(inequality, tol["tie"])

    hard = validate(
        assemblage,
        positivity_tol=tol["positivity"],
        normalization_tol=tol["normalization"],
    )
    if hard:
        raise InputError(
            "assemblage fails validation: " + "; ".join(str(v) for v in hard)
        )
    ns_dev = no_signaling_deviation(assemblage)
    if ns_dev > tol["no-signaling"]:
        print(f"warning: no-signaling deviation {ns_dev:.3e}", file=sys.stderr)

    config = None
    if args.oracle:
        config = SearchConfig(
            grid_resolution=args.grid,
            povm_samples=args.povm_samples,
            refine_iterations=args.refine,
            seed=args.seed,
        )
    manifest = RunManifest(
        "analyze", {"assemblage": a_label, "inequality": i_label}, args.seed, tol
    )
    doc = {
        "format": "analysis-report",
        "schema": REPORT_SCHEMA,
        "manifest": manifest.to_jsonable(),
        "assemblage": {
            "source": a_label,
            "shape": fileio.shape_to_jsonable(assemblage.shape),
        },
        "inequality": {
            "source": i_label,
            "name": inequality.name,
            "local_bound": inequality.local_bound,
            **(bound_check or {}),
        },
        **analyze(
            assemblage, inequality, tie_tol=tol["tie"], oracle=config, steering=args.steering
        ),
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _render_analysis(doc)
        print(manifest.render())
    return 0 if doc["criterion"]["violated"] else 1


def _render_analysis(doc: dict) -> None:
    shape = doc["assemblage"]["shape"]
    parties = shape["untrusted_parties"]
    print(
        f"scenario: {parties} untrusted part{'y' if parties == 1 else 'ies'}, inputs "
        f"{shape['inputs_per_party']}, outputs {shape['outputs_per_party']}, "
        f"trusted inputs {shape['trusted_inputs']}"
    )
    ineq = doc["inequality"]
    print(f"inequality: {ineq['name'] or 'unnamed'} (local bound {ineq['local_bound']:.9g})")
    if "enumerated_local_bound" in ineq:
        enumerated = ineq["enumerated_local_bound"]
        if enumerated is None:
            limit = FILE_BOUND_CHECK_LIMIT
            print(f"enumerated local bound: not checked (more than {limit} strategies)")
        else:
            print(f"enumerated local bound: {enumerated:.9g}")
    report = doc["criterion"]
    for entry in report["per_input"]:
        d = entry["direction"]
        free = "  [direction-free]" if entry["direction_free"] else ""
        print(
            f"x={entry['x']}: direction ({d[0]: .9f}, {d[1]: .9f}, {d[2]: .9f})  "
            f"norm {entry['norm']:.9f}{free}"
        )
    print(f"constant term: {report['constant_term']:.9g}")
    print(f"lhs: {report['lhs_value']:.9f}")
    verdict = "VIOLATED" if report["violated"] else "not violated"
    if report["marginal"]:
        verdict += " (marginal: lhs within tie tolerance of the bound)"
    print(f"verdict: {verdict}")
    if "bell_locality" in doc:
        locality = doc["bell_locality"]
        print(
            f"Bell locality (2x2 fast path): lhs {locality['lhs_value']:.9f} -> "
            + ("LOCAL" if locality["bell_local"] else "NONLOCAL")
        )
    print(f"guarantee: {report['guarantee']}")
    if "oracle" in doc:
        oracle = doc["oracle"]
        print(
            f"oracle: value {oracle['value']:.9f}  gap "
            f"{oracle['gap']:.3e}  (grid error bound "
            f"{oracle['grid_error_bound']:.3e}, "
            f"{oracle['candidates_evaluated']} candidates)"
        )
    if "steering" in doc:
        steering = doc["steering"]
        print("steering comparison (two-axis vs three-axis):")
        for idx, row in enumerate(steering["optimal_basis"]):
            print(f"  v{idx} = ({row[0]: .9f}, {row[1]: .9f}, {row[2]: .9f})")
        print(f"  two-axis lhs at optimal basis: {steering['two_axis_lhs']:.9f}")
        print(f"  three-axis lhs: {steering['three_axis_lhs']:.9f}")
        print(f"  gap: {steering['gap']:.3e}")


def _cmd_generate(args) -> int:
    tol = _effective_tolerances(args)
    state, parties, state_label = _resolve_state(args.state)
    measurements = _parse_measurements(args.measurements, parties)
    assemblage = generate_from_state(
        state, measurements, trusted_inputs=args.trusted_inputs
    )
    out = Path(args.out)
    fileio.save_assemblage(assemblage, out)
    manifest = RunManifest(
        "generate", {"state": state_label, "measurements": args.measurements}, args.seed, tol
    )
    if args.json:
        doc = {
            "format": "generate-report",
            "schema": REPORT_SCHEMA,
            "manifest": manifest.to_jsonable(),
            "output": str(out),
            "sha256": fileio.sha256_digest(out),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"wrote {out}")
    return 0


def _cmd_bound(args) -> int:
    tol = _effective_tolerances(args)  # enumeration is exact and applies none
    inequality, label = _resolve_inequality(args.inequality, enumerate_bound=False)
    bound = local_bound_enumerate(inequality, cap=args.cap)
    count = strategy_count(inequality.shape)
    manifest = RunManifest("bound", {"inequality": label}, args.seed, tol)
    if args.json:
        doc = {
            "format": "bound-report",
            "schema": REPORT_SCHEMA,
            "manifest": manifest.to_jsonable(),
            "inequality": {"source": label, "name": inequality.name},
            "local_bound": bound,
            "strategies": count,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"local bound: {bound:.9g}  ({count} deterministic strategies)")
        print(manifest.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
