import json

import numpy as np
import pytest

from bellcert import builtin_assemblage, fileio
from bellcert.cli import main

from conftest import assert_operators_close

SQRT2 = np.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "singlet.json"
        fileio.save_assemblage(builtin_assemblage("singlet-ZX"), path)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "valid" in out

    def test_non_psd_member_exits_one_and_names_it(self, tmp_path, capsys):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("uniform-noise"))
        doc["members"]["b=0|y=0"] = [[[0.55, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.05, 0.0]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "positivity" in out and "b=0" in out and "y=0" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_shape_mismatch_is_a_parse_error(self, tmp_path, capsys):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("uniform-noise"))
        doc["shape"]["inputs_per_party"] = [3]
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_json_validation_report(self, tmp_path, capsys):
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("uniform-noise"))
        doc["members"]["b=0|y=0"] = [[[0.55, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.05, 0.0]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["format"] == "validation-report"
        assert report["valid"] is False
        [violation] = report["violations"]
        assert violation["kind"] == "positivity"
        assert violation["b"] == [0] and violation["y"] == [0]
        assert violation["magnitude"] == pytest.approx(0.05)
        assert report["manifest"]["command"] == "validate"

    def test_no_signaling_is_warning_unless_strict(self, tmp_path, capsys):
        # y=1 members stay normalized and PSD but sum to diag(0.8, 0.2) != I/2
        doc = fileio.assemblage_to_jsonable(builtin_assemblage("uniform-noise"))
        doc["members"]["b=0|y=1"] = [[[0.8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc["members"]["b=1|y=1"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]
        path = tmp_path / "signaling.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and "warning" in out
        code, out, _ = run(capsys, "validate", str(path), "--strict-no-signaling")
        assert code == 1 and "no-signaling" in out


class TestAnalyze:
    def test_singlet_chsh_is_violated(self, capsys):
        code, out, _ = run(capsys, "analyze", "singlet-ZX", "chsh")
        assert code == 0
        assert "VIOLATED" in out
        assert "2.828427125" in out
        assert "NONLOCAL" in out

    def test_uniform_noise_is_local(self, capsys):
        code, out, _ = run(capsys, "analyze", "uniform-noise", "chsh")
        assert code == 1
        assert "not violated" in out
        assert "LOCAL" in out

    def test_json_report_matches_human_content(self, capsys):
        code, out, _ = run(capsys, "analyze", "singlet-ZX", "chsh", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "analysis-report"
        assert doc["schema"] == 1
        assert doc["criterion"]["lhs_value"] == pytest.approx(2 * SQRT2)
        assert doc["criterion"]["violated"] is True
        assert doc["bell_locality"]["bell_local"] is False
        assert doc["manifest"]["command"] == "analyze"
        assert doc["manifest"]["seed"] == 0
        assert doc["manifest"]["tolerances"]["tie"] == 1e-10
        assert doc["inequality"]["local_bound"] == 2.0

    def test_oracle_block(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "singlet-ZX", "chsh",
            "--oracle", "--grid", "60", "--json",
        )
        doc = json.loads(out)
        assert doc["oracle"]["value"] == pytest.approx(2 * SQRT2, abs=1e-9)
        assert abs(doc["oracle"]["gap"]) <= doc["oracle"]["grid_error_bound"]
        assert doc["oracle"]["config"]["grid_resolution"] == 60

    def test_steering_block(self, capsys):
        code, out, _ = run(capsys, "analyze", "singlet-ZX", "chsh", "--steering", "--json")
        doc = json.loads(out)
        steering = doc["steering"]
        assert steering["two_axis_lhs"] == pytest.approx(2 * SQRT2)
        assert steering["three_axis_lhs"] == pytest.approx(2 * SQRT2)
        assert abs(steering["gap"]) < 1e-10

    def test_steering_text_prints_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "singlet", "chsh", "--steering")
        assert code == 0
        assert "  v2 = ( 0.000000000, -1.000000000,  0.000000000)" in out
        assert "-0.000000000" not in out

    def test_steering_on_wrong_shape_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "ghz-3", "svetlichny", "--steering")
        assert code == 2
        assert "error" in err

    def test_ghz_svetlichny_analysis(self, capsys):
        code, out, _ = run(capsys, "analyze", "ghz-3", "svetlichny", "--json")
        doc = json.loads(out)
        # Z/X inputs on both untrusted parties are not the optimal equator
        # angles, so no violation here; shape compatibility is what matters
        assert doc["criterion"]["local_bound"] == 4.0
        assert code in (0, 1)

    def test_ghz_at_optimal_angles_cross_checks_against_the_oracle(self, tmp_path, capsys):
        path = tmp_path / "ghz-xy.json"
        run(capsys, "generate", "ghz3", "xy:0,90;xy:45,135", str(path))
        code, out, _ = run(
            capsys,
            "analyze", str(path), "svetlichny",
            "--oracle", "--grid", "60", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["criterion"]["violated"] is True
        assert doc["criterion"]["lhs_value"] == pytest.approx(4 * SQRT2, abs=1e-9)
        assert abs(doc["oracle"]["gap"]) <= doc["oracle"]["grid_error_bound"]

    def test_unknown_assemblage_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "not-an-assemblage", "chsh")
        assert code == 2
        assert "neither" in err

    def test_shape_incompatibility_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "singlet-ZX", "svetlichny")
        assert code == 2

    def test_werner_threshold_through_the_cli(self, capsys):
        code, _, _ = run(capsys, "analyze", "werner:0.5", "chsh")
        assert code == 1
        code, _, _ = run(capsys, "analyze", "werner:0.9", "chsh")
        assert code == 0

    def test_tolerance_override_is_recorded(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "singlet-ZX", "chsh", "--json", "--tol", "tie=1e-6"
        )
        doc = json.loads(out)
        assert doc["manifest"]["tolerances"]["tie"] == 1e-6

    def test_bad_tolerance_name_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "singlet-ZX", "chsh", "--tol", "nope=1")
        assert code == 2


class TestGenerate:
    def test_singlet_zx_matches_builtin(self, tmp_path, capsys):
        out_path = tmp_path / "singlet.json"
        code, _, _ = run(capsys, "generate", "singlet", "ZX", str(out_path))
        assert code == 0
        generated = fileio.load_assemblage(out_path)
        builtin = builtin_assemblage("singlet-ZX")
        for key in builtin.members:
            assert_operators_close(generated.members[key], builtin.members[key], atol=0.0)

    def test_generation_is_byte_idempotent(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "generate", "werner:0.5", "ZX", str(first))
        run(capsys, "generate", "werner:0.5", "ZX", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_werner_is_the_member_wise_midpoint(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        run(capsys, "generate", "werner:0.5", "ZX", str(path))
        werner = fileio.load_assemblage(path)
        singlet = builtin_assemblage("singlet-ZX")
        uniform = builtin_assemblage("uniform-noise")
        for key in werner.members:
            midpoint = 0.5 * singlet.members[key] + 0.5 * uniform.members[key]
            assert_operators_close(werner.members[key], midpoint, atol=1e-15)

    def test_ghz3_with_single_z_per_party(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        code, _, _ = run(capsys, "generate", "ghz3", "ZZ", str(path))
        assert code == 0
        a = fileio.load_assemblage(path)
        assert a.shape.inputs_per_party == (1, 1)
        assert_operators_close(a.member((0, 0), (0, 0)), [[0.5, 0], [0, 0]])
        assert_operators_close(a.member((1, 1), (0, 0)), [[0, 0], [0, 0.5]])

    def test_xy_angle_segments(self, tmp_path, capsys):
        path = tmp_path / "ghz-xy.json"
        code, _, _ = run(
            capsys, "generate", "ghz3", "xy:0,90;xy:45,135", str(path)
        )
        assert code == 0
        a = fileio.load_assemblage(path)
        assert a.shape.inputs_per_party == (2, 2)

    def test_bad_measurement_spec_is_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "ghz3", "ZXQ", str(tmp_path / "x.json"))
        assert code == 2

    def test_generated_file_round_trips_through_analyze(self, tmp_path, capsys):
        path = tmp_path / "singlet.json"
        run(capsys, "generate", "singlet", "ZX", str(path))
        code, out, _ = run(capsys, "analyze", str(path), "chsh")
        assert code == 0 and "VIOLATED" in out


class TestBound:
    def test_chsh(self, capsys):
        code, out, _ = run(capsys, "bound", "chsh")
        assert code == 0
        assert "local bound: 2 " in out

    def test_svetlichny(self, capsys):
        code, out, _ = run(capsys, "bound", "svetlichny")
        assert code == 0
        assert "local bound: 4 " in out

    def test_chained_json(self, capsys):
        code, out, _ = run(capsys, "bound", "chained:2", "--json")
        doc = json.loads(out)
        assert doc["local_bound"] == 2.0
        # Alice 2^2 responses, each untrusted party 2^2
        assert doc["strategies"] == 4 * 4 * 4

    def test_cap_exceeded_is_input_error(self, capsys):
        code, _, err = run(capsys, "bound", "svetlichny", "--cap", "10")
        assert code == 2
        assert "cap" in err

    def test_inequality_file_input(self, tmp_path, capsys):
        from bellcert import build_chsh

        path = tmp_path / "chsh.json"
        fileio.save_inequality(build_chsh(), path)
        code, out, _ = run(capsys, "bound", str(path))
        assert code == 0 and "local bound: 2 " in out
