"""Fuzz test of the CLI boundary on mutated JSON documents.

One node of a valid assemblage, inequality or density-matrix document is
replaced by a value of the wrong kind, or dropped, and the command that
reads that document runs in-process.  Whatever the input, the command must
return 0, 1 or 2 without an exception, and 1 only together with a negative
verdict on stdout.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import build_chsh, builtin_assemblage, fileio, singlet_state
from bellcert.cli import main

DROP = "<drop>"
REPLACEMENTS = [None, [], [1], "x", {}, True, 1e308, float("nan"), DROP]
VERDICTS = ("INVALID", "verdict: not violated")

DOCUMENTS = {
    "assemblage": fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX")),
    "inequality": fileio.inequality_to_jsonable(build_chsh()),
    "density-matrix": {
        "format": "density-matrix",
        "matrix": [[fileio.encode_complex(z) for z in row] for row in singlet_state()],
    },
}
COMMANDS = {
    "assemblage": [["validate", "{doc}"], ["analyze", "{doc}", "chsh"]],
    "inequality": [["bound", "{doc}"], ["analyze", "singlet", "{doc}"]],
    "density-matrix": [["generate", "{doc}", "ZX", "{out}"]],
}


def node_paths(node, prefix=()):
    """The path of every node below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, (*prefix, key))


def mutated(doc, path, replacement):
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if replacement == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return copy


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    path = draw(st.sampled_from(list(node_paths(DOCUMENTS[kind]))))
    replacement = draw(st.sampled_from(REPLACEMENTS))
    argv = draw(st.sampled_from(COMMANDS[kind]))
    return kind, path, replacement, argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cases())
def test_mutated_documents_end_in_an_exit_code(case):
    kind, path, replacement, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / f"{kind}.json"
        doc_path.write_text(json.dumps(mutated(DOCUMENTS[kind], path, replacement)))
        args = [a.format(doc=doc_path, out=Path(tmp) / "out.json") for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2)
    if code == 1:
        assert any(verdict in out.getvalue() for verdict in VERDICTS)
    if code == 2:
        assert err.getvalue().startswith("error: ")
