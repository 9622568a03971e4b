"""JSON file formats for assemblages, inequalities, and density matrices.

Complex numbers are stored as two-element arrays [re, im]; 2x2 operators as
row-major nested arrays of those pairs.  Member keys read
``b=<i1,...,ik>|y=<j1,...,jk>`` with party 1 first.  Serialization is
canonical: fixed key order and deterministic float rendering, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .assemblages import Assemblage, ScenarioShape
from .inequalities import BellInequality

SCHEMA_VERSION = 1


def _num(value: float) -> float:
    return float(value) + 0.0  # normalizes -0.0


def encode_complex(z: complex) -> list[float]:
    return [_num(z.real), _num(z.imag)]


def encode_operators(ops: np.ndarray) -> list:
    """A stack of complex operators as nested [re, im] lists."""
    return (np.stack([ops.real, ops.imag], axis=-1) + 0.0).tolist()  # normalizes -0.0


def decode_operators(data, shape: tuple[int, ...], context: str) -> np.ndarray:
    """Nested [re, im] pairs of the given leading shape as a complex array.

    Entries must be finite numbers; any other content raises ``ValueError``
    naming ``context``.
    """
    try:
        pairs = np.array(data, dtype=float)
        if pairs.shape != (*shape, 2):
            raise ValueError
    except (TypeError, ValueError):
        expected = "x".join(map(str, shape))
        raise ValueError(f"{context}: expected {expected} nested [re, im] pairs") from None
    if not np.isfinite(pairs).all():
        raise ValueError(f"{context}: entries must be finite numbers")
    return pairs.view(complex)[..., 0]


def member_key(b, y) -> str:
    return "b=" + ",".join(map(str, b)) + "|y=" + ",".join(map(str, y))


def parse_member_key(key: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        b_part, y_part = key.split("|")
        if not b_part.startswith("b=") or not y_part.startswith("y="):
            raise ValueError
        b = tuple(int(v) for v in b_part[2:].split(","))
        y = tuple(int(v) for v in y_part[2:].split(","))
    except ValueError:
        raise ValueError(
            f"malformed member key {key!r}; expected 'b=<ints>|y=<ints>'"
        ) from None
    return b, y


def shape_to_jsonable(shape: ScenarioShape) -> dict:
    return {
        "untrusted_parties": shape.untrusted_parties,
        "inputs_per_party": list(shape.inputs_per_party),
        "outputs_per_party": list(shape.outputs_per_party),
        "trusted_inputs": shape.trusted_inputs,
        "trusted_outputs": shape.trusted_outputs,
    }


def shape_from_jsonable(data, context: str = "shape") -> ScenarioShape:
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected an object")
    required = {
        "untrusted_parties",
        "inputs_per_party",
        "outputs_per_party",
        "trusted_inputs",
    }
    missing = required - set(data)
    if missing:
        raise ValueError(f"{context}: missing fields {sorted(missing)}")
    try:
        return ScenarioShape(
            int(data["untrusted_parties"]),
            tuple(data["inputs_per_party"]),
            tuple(data["outputs_per_party"]),
            int(data["trusted_inputs"]),
            int(data.get("trusted_outputs", 2)),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context}: {exc}") from None


def assemblage_to_jsonable(assemblage: Assemblage) -> dict:
    encoded = encode_operators(assemblage.stacked_members())
    members = {}
    for i, b in enumerate(assemblage.shape.output_strings()):
        for j, y in enumerate(assemblage.shape.input_strings()):
            members[member_key(b, y)] = encoded[i][j]
    return {
        "format": "assemblage",
        "schema": SCHEMA_VERSION,
        "shape": shape_to_jsonable(assemblage.shape),
        "members": members,
    }


def assemblage_from_jsonable(data) -> Assemblage:
    if not isinstance(data, dict) or data.get("format") != "assemblage":
        raise ValueError("not an assemblage document (missing format: assemblage)")
    _check_schema(data)
    shape = shape_from_jsonable(data.get("shape"), "shape")
    raw_members = data.get("members")
    if not isinstance(raw_members, dict):
        raise ValueError("members: expected an object keyed by 'b=...|y=...'")
    members = {}
    for key, value in raw_members.items():
        b, y = parse_member_key(key)
        members[(b, y)] = decode_operators(value, (2, 2), f"members[{key!r}]")
    try:
        return Assemblage(shape, members)
    except ValueError as exc:
        raise ValueError(f"members: {exc}") from None


def _check_schema(data: dict) -> None:
    try:
        schema = int(data.get("schema", 0))
    except (TypeError, ValueError):
        raise ValueError(f"schema: expected an integer, got {data['schema']!r}") from None
    if schema > SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')}")


def inequality_to_jsonable(inequality: BellInequality) -> dict:
    doc = {
        "format": "bell-inequality",
        "schema": SCHEMA_VERSION,
        "shape": shape_to_jsonable(inequality.shape),
        "coefficients": inequality.coefficients.tolist(),
        "local_bound": _num(inequality.local_bound),
    }
    if inequality.name is not None:
        doc["name"] = inequality.name
    return doc


def inequality_from_jsonable(data) -> BellInequality:
    if not isinstance(data, dict) or data.get("format") != "bell-inequality":
        raise ValueError("not an inequality document (missing format: bell-inequality)")
    _check_schema(data)
    shape = shape_from_jsonable(data.get("shape"), "shape")
    try:
        coefficients = np.array(data.get("coefficients"), dtype=float)
    except (TypeError, ValueError):
        raise ValueError("coefficients: expected a nested numeric array") from None
    local_bound = data.get("local_bound")
    try:
        local_bound = float(local_bound)
    except (TypeError, ValueError):
        raise ValueError(f"local_bound: expected a number, got {local_bound!r}") from None
    if not np.isfinite(local_bound):
        raise ValueError(f"local_bound: expected a finite number, got {local_bound!r}")
    name = data.get("name")
    try:
        return BellInequality(shape, coefficients, local_bound, name)
    except ValueError as exc:
        raise ValueError(f"coefficients: {exc}") from None


def density_matrix_from_jsonable(data) -> np.ndarray:
    if not isinstance(data, dict) or data.get("format") != "density-matrix":
        raise ValueError("not a density-matrix document (missing format)")
    matrix = data.get("matrix")
    if not isinstance(matrix, list):
        raise ValueError("matrix: expected a nested array")
    return decode_operators(matrix, (len(matrix),) * 2, "matrix")


def dump_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def save_assemblage(assemblage: Assemblage, path) -> None:
    Path(path).write_text(dump_canonical(assemblage_to_jsonable(assemblage)))


def load_assemblage(path) -> Assemblage:
    return assemblage_from_jsonable(_load_json(path))


def save_inequality(inequality: BellInequality, path) -> None:
    Path(path).write_text(dump_canonical(inequality_to_jsonable(inequality)))


def load_inequality(path) -> BellInequality:
    return inequality_from_jsonable(_load_json(path))


def load_density_matrix(path) -> np.ndarray:
    return density_matrix_from_jsonable(_load_json(path))


def _load_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def sha256_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
