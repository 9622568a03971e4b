"""CLI behaviour on malformed documents and the local-bound work it does."""

import json

import pytest

from bellcert import (
    BellInequality,
    build_chained_svetlichny,
    build_chsh,
    builtin_assemblage,
    fileio,
    inequalities,
    oracle,
)
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
    real = inequalities.local_bound_enumerate

    def counted(inequality, *args, **kwargs):
        calls.append(inequality.name)
        return real(inequality, *args, **kwargs)

    monkeypatch.setattr(inequalities, "local_bound_enumerate", counted)
    monkeypatch.setattr(cli, "local_bound_enumerate", counted)
    return calls


BAD_SCHEMAS = [[1], "x", None]


def assert_input_error(code, out, err, fragment):
    assert code == 2
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err and out == ""


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
        assert enumerations == []


class TestDecodeFaults:
    def test_malformed_member_entry(self, tmp_path, capsys):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX"))
        doc["members"]["b=0|y=0"][0][0] = [[1], 0]
        path = tmp_path / "assemblage.json"
        path.write_text(json.dumps(doc))
        assert_input_error(*run(capsys, "validate", str(path)), "members['b=0|y=0']")

    def test_non_numeric_local_bound(self, tmp_path, capsys):
        doc = fileio.inequality_to_jsonable(build_chsh())
        doc["local_bound"] = [2]
        path = tmp_path / "inequality.json"
        path.write_text(json.dumps(doc))
        assert_input_error(*run(capsys, "bound", str(path)), "local_bound: expected a number")

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_non_finite_local_bound_is_named(self, tmp_path, capsys, bound):
        doc = fileio.inequality_to_jsonable(build_chsh())
        doc["local_bound"] = bound
        path = tmp_path / "inequality.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "bound", str(path))
        assert_input_error(code, out, err, "")
        assert err.startswith("error: local_bound:")

    @pytest.mark.parametrize("entry", [None, float("nan")])
    def test_non_finite_density_matrix_entry(self, tmp_path, capsys, entry):
        matrix = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        matrix[1][1] = matrix[2][2] = [0.5, 0.0]
        matrix[1][2] = matrix[2][1] = [-0.5, 0.0]
        matrix[0][3][1] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format": "density-matrix", "matrix": matrix}))
        out_path = tmp_path / "out.json"
        code, out, err = run(capsys, "generate", str(path), "ZX", str(out_path))
        assert_input_error(code, out, err, "matrix: entries must be finite")
        assert not out_path.exists()

    def test_huge_party_count_is_rejected_before_enumeration(self, tmp_path, capsys):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX"))
        doc["shape"]["inputs_per_party"] = [1e308]
        path = tmp_path / "assemblage.json"
        path.write_text(json.dumps(doc))
        assert_input_error(
            *run(capsys, "validate", str(path)), "got 4, need"
        )

    def test_dropped_member_is_named(self, tmp_path, capsys):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX"))
        del doc["members"]["b=1|y=0"]
        path = tmp_path / "assemblage.json"
        path.write_text(json.dumps(doc))
        assert_input_error(*run(capsys, "validate", str(path)), "missing [((1,), (0,))]")


class TestTolerances:
    @pytest.mark.parametrize("name", ["state-norm", "reconstruction", "degenerate"])
    def test_removed_names_are_rejected(self, capsys, name):
        code, out, err = run(capsys, "analyze", "singlet", "chsh", "--tol", f"{name}=1")
        assert_input_error(code, out, err, f"bad --tol '{name}=1'")

    def test_manifest_lists_the_applied_tolerances(self, capsys):
        _, out, _ = run(capsys, "analyze", "singlet", "chsh", "--json")
        assert list(json.loads(out)["manifest"]["tolerances"]) == [
            "positivity",
            "normalization",
            "no-signaling",
            "tie",
        ]

    @pytest.mark.parametrize("tol", ["tie=5", "positivity=1", "bogus=1"])
    def test_bound_takes_no_tolerance(self, capsys, tol):
        code, out, err = run(capsys, "bound", "chsh", "--tol", tol)
        assert_input_error(code, out, err, f"bad --tol '{tol}'")

    def test_bound_manifest_lists_no_tolerance(self, capsys):
        _, out, _ = run(capsys, "bound", "chsh", "--json")
        assert json.loads(out)["manifest"]["tolerances"] == {}


class TestToleranceSetPerCommand:
    @pytest.mark.parametrize("tol", ["tie=3", "positivity=1", "bogus=1"])
    def test_generate_takes_no_tolerance(self, tmp_path, capsys, tol):
        out_path = tmp_path / "out.json"
        code, out, err = run(capsys, "generate", "singlet", "ZX", str(out_path), "--tol", tol)
        assert_input_error(code, out, err, f"bad --tol '{tol}'; generate applies no tolerance")
        assert not out_path.exists()

    def test_generate_manifest_lists_no_tolerance(self, tmp_path, capsys):
        _, out, _ = run(capsys, "generate", "singlet", "ZX", str(tmp_path / "o.json"), "--json")
        assert json.loads(out)["manifest"]["tolerances"] == {}

    @pytest.mark.parametrize("tol", ["tie=5", "bogus=1"])
    def test_validate_rejects_what_it_does_not_apply(self, capsys, tol):
        code, out, err = run(capsys, "validate", "singlet", "--tol", tol)
        assert_input_error(code, out, err, f"bad --tol '{tol}'")

    def test_validate_manifest_lists_its_four_tolerances(self, capsys):
        code, out, _ = run(capsys, "validate", "singlet", "--json", "--tol", "positivity=0.5")
        assert code == 0
        assert json.loads(out)["manifest"]["tolerances"] == {
            "hermiticity": 1e-12,
            "positivity": 0.5,
            "normalization": 1e-9,
            "no-signaling": 1e-9,
        }

    def test_analyze_takes_no_hermiticity(self, tmp_path, capsys):
        """validate may loosen the Hermiticity bound; analyze's kernel cannot."""
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX"))
        doc["members"]["b=0|y=0"][0][1] = [1e-9, 0.0]
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path), "--tol", "hermiticity=1e-6")
        assert code == 0 and out.startswith("valid")
        code, out, err = run(capsys, "analyze", str(path), "chsh", "--tol", "hermiticity=1e-6")
        assert_input_error(code, out, err, "bad --tol 'hermiticity=1e-6'")
        code, out, err = run(capsys, "analyze", str(path), "chsh")
        assert_input_error(code, out, err, "hermiticity at b=0|y=0")


def write_chsh_file(tmp_path, bound):
    chsh = build_chsh()
    path = tmp_path / f"chsh-{bound}.json"
    fileio.save_inequality(BellInequality(chsh.shape, chsh.coefficients, bound, "file-chsh"), path)
    return str(path)


class TestFileLocalBound:
    def test_a_bound_below_the_enumerated_one_is_an_input_error(self, tmp_path, capsys):
        path = write_chsh_file(tmp_path, 1.5)
        code, out, err = run(capsys, "analyze", "werner:0.6", path)
        assert_input_error(code, out, err, "error: local_bound: ")
        assert "1.5" in err and "2.0" in err

    def test_a_bound_within_tie_below_is_accepted(self, tmp_path, capsys):
        path = write_chsh_file(tmp_path, 2.0 - 1e-11)
        code, out, _ = run(capsys, "analyze", "singlet", path, "--json")
        assert code == 0
        assert json.loads(out)["inequality"]["enumerated_local_bound"] == 2.0

    def test_a_bound_above_stays_in_use_and_both_are_shown(self, tmp_path, capsys, enumerations):
        path = write_chsh_file(tmp_path, 2.9)
        code, out, _ = run(capsys, "analyze", "singlet", path, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["inequality"]["local_bound"] == 2.9
        assert doc["inequality"]["enumerated_local_bound"] == 2.0
        assert doc["criterion"]["local_bound"] == 2.9
        assert enumerations.count("file-chsh") == 1
        code, out, _ = run(capsys, "analyze", "singlet", path)
        assert code == 1
        assert "(local bound 2.9)\nenumerated local bound: 2\n" in out

    def test_the_true_bound_keeps_the_chsh_family_check(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "singlet", write_chsh_file(tmp_path, 2.0), "--json")
        assert code == 0
        assert json.loads(out)["bell_locality"]["bell_local"] is False

    def test_above_the_limit_the_bound_is_not_checked(
        self, tmp_path, capsys, monkeypatch, enumerations
    ):
        monkeypatch.setattr(cli, "FILE_BOUND_CHECK_LIMIT", 15)  # CHSH has 16 strategies
        path = write_chsh_file(tmp_path, 1.5)
        code, out, _ = run(capsys, "analyze", "singlet", path, "--json")
        assert code == 0
        assert json.loads(out)["inequality"]["enumerated_local_bound"] is None
        assert "file-chsh" not in enumerations
        _, out, _ = run(capsys, "analyze", "singlet", path)
        assert "enumerated local bound: not checked (more than 15 strategies)" in out

    def test_a_builtin_inequality_reports_no_check(self, capsys, enumerations):
        _, out, _ = run(capsys, "analyze", "ghz-3", "svetlichny", "--json")
        assert "enumerated_local_bound" not in json.loads(out)["inequality"]
        assert enumerations == ["svetlichny"]

    def test_the_limit_admits_chained_8(self):
        shape = build_chained_svetlichny(8, 0.0).shape
        assert oracle.strategy_count(shape) == cli.FILE_BOUND_CHECK_LIMIT


class TestOverflowingEntries:
    """An entry near the float maximum overflows the check kernels to inf,
    which the checks reject; no numpy warning reaches the user."""

    @pytest.fixture
    def big(self, tmp_path):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("singlet-ZX"))
        doc["members"]["b=0|y=0"][0][1] = [1e308, 1e308]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_validate_reports_it_invalid(self, capsys, big):
        code, out, err = run(capsys, "validate", big)
        assert code == 1
        assert "violation: hermiticity at b=0|y=0" in out and "INVALID" in out
        assert err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_analyze_rejects_it(self, capsys, big):
        code, out, err = run(capsys, "analyze", big, "chsh")
        assert_input_error(code, out, err, "fails validation: hermiticity at b=0|y=0")


# Each request exceeds a 128 TiB address space, so it fails before allocating.
OVERSIZED = {
    "validate-ghz28": (["validate", "ghz-28"], "at most 12"),
    "analyze-ghz28": (["analyze", "ghz-28", "svetlichny"], "at most 12"),
    "generate-ghz28": (["generate", "ghz28", "ZX", "{out}"], "at most 12"),
    "bound-chained": (["bound", "chained:100000"], "out of memory"),
    "analyze-chained": (["analyze", "singlet", "chained:100000"], "out of memory"),
    "oracle-grid": (
        ["analyze", "singlet", "chsh", "--oracle", "--grid", "100000000000000"],
        "out of memory",
    ),
}


@pytest.mark.parametrize("name", OVERSIZED)
def test_an_oversized_request_is_an_input_error(tmp_path, capsys, name):
    argv, fragment = OVERSIZED[name]
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, *(a.format(out=out_path) for a in argv))
    assert_input_error(code, out, err, fragment)
    assert not out_path.exists()
