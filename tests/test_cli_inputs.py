"""CLI behaviour on malformed documents and the local-bound work it does."""

import json

import pytest

from bellcert import build_chsh, builtin_assemblage, fileio, oracle
from bellcert import cli
from bellcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def enumerations(monkeypatch):
    """Records every local-bound enumeration, wherever it is called from."""
    calls = []
    real = oracle.local_bound_enumerate

    def counted(inequality, *args, **kwargs):
        calls.append(inequality.name)
        return real(inequality, *args, **kwargs)

    monkeypatch.setattr(oracle, "local_bound_enumerate", counted)
    monkeypatch.setattr(cli, "local_bound_enumerate", counted)
    return calls


BAD_SCHEMAS = [[1], "x", None]


class TestNonIntegerSchema:
    @pytest.mark.parametrize("schema", BAD_SCHEMAS)
    def test_assemblage_file_is_an_input_error(self, tmp_path, capsys, schema):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX"))
        doc["schema"] = schema
        path = tmp_path / "assemblage.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error: ") and "schema" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("schema", BAD_SCHEMAS)
    def test_inequality_file_is_an_input_error(self, tmp_path, capsys, schema):
        doc = fileio.inequality_to_jsonable(build_chsh())
        doc["schema"] = schema
        path = tmp_path / "inequality.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "bound", str(path))
        assert code == 2
        assert err.startswith("error: ") and "schema" in err
        assert "Traceback" not in err and out == ""


class TestEnumerationCount:
    def test_bound_chained_enumerates_once(self, capsys, enumerations):
        code, out, _ = run(capsys, "bound", "chained:3", "--json")
        assert code == 0
        assert json.loads(out)["local_bound"] == 5.0
        assert enumerations == ["chained-svetlichny-3"]

    def test_bound_chained_honours_the_cap(self, capsys):
        code, _, err = run(capsys, "bound", "chained:9", "--cap", "100")
        assert code == 2
        assert "enumeration cap 100" in err and "100000000" not in err

    def test_analyze_chained_still_uses_the_enumerated_bound(self, capsys, enumerations):
        _, out, _ = run(capsys, "analyze", "ghz-3", "chained:2", "--json")
        assert json.loads(out)["inequality"]["local_bound"] == 2.0
        assert enumerations == ["chained-svetlichny-2"]

    def test_three_party_analysis_skips_the_chsh_symmetries(self, capsys, enumerations):
        code, out, _ = run(capsys, "analyze", "ghz-3", "svetlichny", "--json")
        assert code == 1
        report = json.loads(out)
        assert "bell_locality" not in report
        assert report["criterion"]["local_bound"] == 4.0
        assert enumerations == ["svetlichny"]

    def test_bipartite_analysis_still_detects_the_chsh_family(self, capsys, enumerations):
        code, out, _ = run(capsys, "analyze", "singlet", "chsh", "--json")
        assert code == 0
        assert json.loads(out)["bell_locality"]["bell_local"] is False
        assert len(enumerations) == 8
