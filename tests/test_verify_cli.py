import json
import subprocess
import sys

import pytest

from c2alg import cli
from c2alg.verify import run_verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliffordCommand:
    def test_mul(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "mul", "--signature", "2,0",
                               "--a", "e1", "--b", "e2")
        assert code == 0
        assert out.strip() == "e1e2"

    def test_conj(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "conj", "--signature", "1,1",
                               "--a", "e2")
        assert code == 0
        assert out.strip() == "-e2"

    def test_star(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "star", "--signature", "2,0",
                               "--a", "e1e2")
        assert code == 0
        assert out.strip() == "-e1e2"

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "clifford", "mul", "--signature", "2,0",
                               "--a", "e1", "--b", "e1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["expression"] == "1"
        assert report["outputs"]["generator_convention"] == "blocked"
        assert report["verdict"] == "value"

    def test_missing_b_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "clifford", "mul", "--signature", "2,0",
                               "--a", "e1")
        assert code == 64
        assert "error" in err

    def test_malformed_expression_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "clifford", "conj", "--signature", "2,0",
                               "--a", "e1 +")
        assert code == 64
        assert "error" in err


class TestAhatCommand:
    def test_cp2(self, capsys):
        code, out, _ = run_cli(capsys, "ahat", "--manifold", "CP2")
        assert code == 0
        assert out.strip() == "-1/8"

    def test_cp2_squared(self, capsys):
        code, out, _ = run_cli(capsys, "ahat", "--manifold", "CP2 x CP2")
        assert code == 0
        assert out.strip() == "1/64"

    def test_pontryagin_file(self, capsys, tmp_path):
        payload = {"dim": 8, "pontryagin": {"1,1": "18/1", "2": "9/1"}}
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "ahat", "--pontryagin", str(path))
        assert code == 0
        assert out.strip() == "1/64"

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "ahat")
        assert code == 64
        code, _, err = run_cli(capsys, "ahat", "--manifold", "CP2",
                               "--pontryagin", "x.json")
        assert code == 64

    def test_bad_manifold_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ahat", "--manifold", "Torus")
        assert code == 64

    def test_malformed_pontryagin_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 8, "pontryagin": {"1": "3/1"}}),
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "ahat", "--pontryagin", str(path))
        assert code == 64
        assert "error" in err


class TestObstructionCommand:
    def test_reference_obstruction(self, capsys):
        code, out, _ = run_cli(capsys, "obstruction", "--genus", "-1/8", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["period"] == 4
        assert report["outputs"]["residues"] == ["1/32", "9/32", "17/32", "25/32"]
        assert report["verdict"] == "obstructed"

    def test_witness_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "obstruction", "--genus", "0")
        assert code == 2
        assert "witness" in out

    def test_bad_rational(self, capsys):
        code, _, err = run_cli(capsys, "obstruction", "--genus", "pi")
        assert code == 64


class TestLiftCommands:
    def test_spin_lift(self, capsys, tmp_path):
        payload = {"rows": 2, "cols": 2,
                   "entries": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]]}
        path = tmp_path / "rot.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "spin-lift", "--matrix", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["residuals"]["rho"] < 1e-9
        assert report["outputs"]["parity"] == "even"

    def test_spin_lift_rejects_reflection(self, capsys, tmp_path):
        payload = {"rows": 2, "cols": 2,
                   "entries": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
        path = tmp_path / "refl.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run_cli(capsys, "spin-lift", "--matrix", str(path))
        assert code == 64
        assert "determinant" in err

    def test_phi_lift(self, capsys, tmp_path):
        payload = {"rows": 1, "cols": 1, "entries": [[[0, 1]]]}
        path = tmp_path / "u.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "phi-lift", "--unitary", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["residuals"]["real_equivariance"] < 1e-9
        assert report["outputs"]["generator_convention"] == "interleaved"
        assert report["outputs"]["metadata"]["near_branch_cut"] is False

    @pytest.mark.parametrize("command, flag", [("spin-lift", "--matrix"),
                                               ("phi-lift", "--unitary")])
    def test_non_finite_matrix_is_usage_error(self, capsys, tmp_path, command, flag):
        payload = {"rows": 2, "cols": 2,
                   "entries": [[[float("nan"), 0], [-1, 0]], [[1, 0], [0, 0]]]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert code == 64
        assert out == ""
        assert err == "error: matrix entries must be finite\n"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "phi-lift", "--unitary", "/nonexistent.json")
        assert code == 64


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "mackey",
                               "--seed", "3", "--cases", "10")
        assert code == 0
        assert "PASS" in out

    def test_json_deterministic_in_process(self, capsys):
        a = run_cli(capsys, "verify", "--suite", "genus", "--seed", "7",
                    "--cases", "5", "--json")[1]
        b = run_cli(capsys, "verify", "--suite", "genus", "--seed", "7",
                    "--cases", "5", "--json")[1]
        assert a == b

    def test_seed_recorded(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "mackey", "--seed", "11",
                            "--cases", "5", "--json")
        report = json.loads(out)
        assert report["inputs"]["seed"] == 11
        assert report["inputs"]["cases"] == 5

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 64

    def test_subprocess_determinism_small(self):
        argv = [sys.executable, "-m", "c2alg.cli", "verify", "--suite",
                "functional-calculus", "--seed", "7", "--cases", "8", "--json"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 64

    @pytest.mark.parametrize("value", ["abc", "nan", "-1"])
    def test_bad_tolerance_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("C2ALG_TOL", value)
        code, out, err = run_cli(capsys, "verify", "--suite", "pin-spin", "--cases", "1")
        assert code == 64
        assert out == ""
        assert err == f"error: C2ALG_TOL must be a positive finite number, got {value!r}\n"

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 64


# (command line, JSON file text or None); "FILE" stands for the file's path
MALFORMED_INPUTS = [
    (["clifford", "conj", "--signature", "2,0", "--a", "1/0"], None),
    (["clifford", "conj", "--signature", "2,0", "--a", "(" * 600 + "e1" + ")" * 600], None),
    (["clifford", "mul", "--signature", "2,0", "--a", "e1*" + "-" * 3000, "--b", "1"], None),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 4, "pontryagin": [1]}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 4, "pontryagin": {"1": "1/0"}}'),
    (["ahat", "--pontryagin", "FILE"], '{"dim": 1e400, "pontryagin": {}}'),
    (["spin-lift", "--matrix", "FILE"], '{"rows": 2, "cols": 2, "entries": 5}'),
    (["phi-lift", "--unitary", "FILE"], '{"rows": 2, "cols": 2, "entries": 5}'),
]


@pytest.mark.parametrize("argv, text", MALFORMED_INPUTS,
                         ids=["zero-denominator", "deep-nesting", "long-unary-chain",
                              "pontryagin-list", "pontryagin-zero-denominator",
                              "infinite-dim", "spin-lift-entries", "phi-lift-entries"])
def test_malformed_input_exits_64_with_one_line(tmp_path, argv, text):
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "c2alg.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestRunVerifyApi:
    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError):
            run_verify("bogus", 0, 1)

    def test_report_shape(self):
        report = run_verify("mackey", 1, 5)
        assert set(report) == {"command", "inputs", "outputs", "residuals", "verdict"}
        assert report["verdict"] == "pass"


class TestImportFootprint:
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, c2alg.cli; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              check=True, text=True)
        assert proc.stdout == "[]\n"
