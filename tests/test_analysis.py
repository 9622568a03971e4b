"""The one member table and the one analysis report.

Every functional reads ``Assemblage.pauli_table``, which checks the members
once; ``bellcert.analyze`` builds the blocks that ``analyze --json`` prints.
"""

import json
import re

import numpy as np
import pytest

from bellcert import (
    Assemblage,
    SearchConfig,
    analyze,
    build_chsh,
    build_svetlichny,
    builtin_assemblage,
    chsh_fast,
    evaluate,
    qubit,
)
from bellcert import cli

from conftest import TWO_TWO
from test_layering import PACKAGE, package_imports, parse

NON_HERMITIAN = "operator is not Hermitian (deviation 1.000e-03 exceeds 1.0e-12)"


def non_hermitian_singlet() -> Assemblage:
    members = dict(builtin_assemblage("singlet-ZX").members)
    members[((1,), (1,))] = members[((1,), (1,))] + np.array([[0.0, 1e-3], [0.0, 0.0]])
    return Assemblage(TWO_TWO, members)


class TestMemberTable:
    def test_is_the_read_only_pauli_table_of_the_members_built_once(self):
        a = builtin_assemblage("ghz-3")
        table = a.pauli_table
        assert table.shape == (4, 4, 4)
        assert not table.flags.writeable
        assert np.array_equal(table, qubit.pauli_table(a.stacked_members()))
        assert a.pauli_table is table

    def test_a_failed_check_raises_on_every_read_and_caches_nothing(self):
        a = non_hermitian_singlet()
        reads = (lambda: evaluate(a, build_chsh()), lambda: chsh_fast(a), lambda: a.pauli_table)
        for read in reads:
            with pytest.raises(ValueError, match=re.escape(NON_HERMITIAN)):
                read()
        assert "pauli_table" not in vars(a)


@pytest.fixture
def member_checks(monkeypatch):
    """Counts Hermiticity checks of a whole (#b, #y, 2, 2) member stack."""
    calls = []
    real = qubit.require_hermitian_stack

    def counted(ops):
        if np.ndim(ops) == 4:
            calls.append(np.shape(ops))
        return real(ops)

    monkeypatch.setattr(qubit, "require_hermitian_stack", counted)
    return calls


@pytest.mark.parametrize(
    "argv, code",
    [
        (["singlet", "chsh"], 0),
        (["singlet", "chsh", "--oracle", "--steering"], 0),
        (["ghz-3", "svetlichny", "--oracle", "--grid", "12"], 1),
    ],
    ids=["plain", "oracle-steering", "ghz3-oracle"],
)
def test_analyze_checks_the_members_once(capsys, member_checks, argv, code):
    assert cli.main(["analyze", *argv]) == code
    capsys.readouterr()
    assert len(member_checks) == 1


@pytest.mark.parametrize(
    "argv, assemblage, inequality, grid, steering",
    [
        (["singlet", "chsh", "--steering"], "singlet-ZX", build_chsh(), None, True),
        (["werner:0.7", "chsh", "--oracle", "--steering"], "werner-ZX", build_chsh(), 180, True),
        (
            ["ghz-3", "svetlichny", "--oracle", "--grid", "12"],
            "ghz-3", build_svetlichny(), 12, False,
        ),
    ],
    ids=["singlet", "werner", "ghz3"],
)
def test_library_report_is_the_cli_report(capsys, argv, assemblage, inequality, grid, steering):
    seed, tie = 7, 1e-9
    cli.main(["analyze", *argv, "--json", "--seed", str(seed), "--tol", f"tie={tie}"])
    doc = json.loads(capsys.readouterr().out)
    params = {"visibility": 0.7} if assemblage == "werner-ZX" else {}
    a = builtin_assemblage(assemblage, **params)
    config = None if grid is None else SearchConfig(grid_resolution=grid, seed=seed)
    blocks = analyze(a, inequality, tie_tol=tie, oracle=config, steering=steering)
    report_keys = {"format", "schema", "manifest", "assemblage", "inequality"}
    assert set(blocks) == set(doc) - report_keys
    assert json.loads(json.dumps(blocks)) == {key: doc[key] for key in blocks}


def test_the_cli_leaves_the_report_to_analysis():
    imported = {module for _, module in package_imports(parse(PACKAGE / "cli.py"))}
    assert "analysis" in imported
    assert not imported & {"criterion", "steering"}
    assert not hasattr(cli, "_CHSH_FAMILY")
