import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbdtail import cli, modelfile
from qbdtail.errors import ParseError, SchemaError

MODELS = Path(__file__).resolve().parent.parent / "models"


def run_cli(argv):
    out = io.StringIO()
    args = cli.build_parser().parse_args(argv)
    code = args.func(args, out)
    return code, out.getvalue()


QBD1D_FILE = """\
schema_version: "1"
kind: qbd1d
model:
  b0: [[0.8]]
  b1: [[0.2]]
  bm1: [[0.3]]
  am1: [[0.3]]
  a0: [[0.5]]
  a1: [[0.2]]
"""


class TestModelFile:
    def test_shipped_files_parse_analyze_and_roundtrip(self):
        for name in ("scalar_rrw", "modulated_rrw", "tandem_jackson",
                     "mapph_jackson"):
            mf = modelfile.load_model(MODELS / f"{name}.yaml")
            text = modelfile.dump_model(mf)
            again = modelfile.parse_model(text)
            assert modelfile.model_to_dict(mf) == modelfile.model_to_dict(again)
            # normalization is idempotent
            assert modelfile.dump_model(again) == text
            # every shipped model validates and analyzes
            code, out = run_cli(["validate", str(MODELS / f"{name}.yaml")])
            assert code == 0
            code, out = run_cli(["stability", str(MODELS / f"{name}.yaml")])
            assert code == 0
            assert "stable" in out

    def test_parse_error_on_bad_yaml(self):
        with pytest.raises(ParseError):
            modelfile.parse_model("kind: [unclosed")

    def test_schema_error_on_unknown_kind(self):
        with pytest.raises(SchemaError):
            modelfile.parse_model(
                "schema_version: '1'\nkind: nonsense\nmodel: {}\n")

    def test_schema_error_on_bad_matrix(self):
        bad = QBD1D_FILE.replace("[[0.3]]", "[[oops]]", 1)
        with pytest.raises(SchemaError):
            modelfile.parse_model(bad)

    def test_schema_error_on_reducible_qbd1d(self):
        with pytest.raises(SchemaError, match="irreducible"):
            modelfile.parse_model(QBD1D_FILE.replace("b1: [[0.2]]", "b1: [[0.0]]"))

    def test_options_block_is_rejected(self, tmp_path, capsys):
        src = (MODELS / "tandem_jackson.yaml").read_text()
        f = tmp_path / "with_options.yaml"
        f.write_text(src.replace("model:", "options:\n  extent: 120\nmodel:", 1))
        assert cli.main(["validate", str(f)]) == 2
        assert "unknown keys ['options']" in capsys.readouterr().err

    def test_qbd1d_payload(self):
        mf = modelfile.parse_model(QBD1D_FILE)
        assert mf.kind == "qbd1d"
        assert mf.payload.m0 == 1 and mf.payload.m == 1


class TestValidateCommand:
    def test_valid_file_exits_zero(self):
        code, text = run_cli(["validate", str(MODELS / "scalar_rrw.yaml")])
        assert code == 0
        assert "valid = true" in text

    def test_row_sum_violation_exits_two(self, tmp_path):
        src = (MODELS / "scalar_rrw.yaml").read_text()
        broken = src.replace('"0,0":  [[0.26]]', '"0,0":  [[0.25]]')
        bad = tmp_path / "bad.yaml"
        bad.write_text(broken)
        code, text = run_cli(["validate", str(bad)])
        assert code == 2
        assert "RowSumViolation" in text

    @pytest.mark.parametrize("old,new", [
        ("- beta: [1.0]", "- beta: [0.5]"),       # not a probability vector
        ("u: [[1.0]]", "u: [[0.5]]"),             # (T + U) 1 != 0
        ("- beta: [1.0]", "- beta: [one]"),
        ("- beta: [1.0]", "- beta: [.nan]"),
        ("r12: 1.0", "r12: fast"),
    ])
    def test_invalid_jackson_law_exits_two(self, tmp_path, capsys, old, new):
        src = (MODELS / "tandem_jackson.yaml").read_text()
        assert old in src
        bad = tmp_path / "bad.yaml"
        bad.write_text(src.replace(old, new, 1))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error:")

    def test_main_exit_code_for_missing_file(self, capsys):
        assert cli.main(["validate", "/nonexistent/model.yaml"]) == 2

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "qbdtail", "validate",
             str(MODELS / "scalar_rrw.yaml")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "valid = true" in proc.stdout


@pytest.mark.parametrize("direction", ["0,0", "-1,0", "nan,1", "inf,1"])
@pytest.mark.parametrize("command", [["decay", "scalar_rrw.yaml"],
                                     ["jackson", "tandem_jackson.yaml", "decay"]])
def test_bad_direction_is_an_input_error(command, direction, capsys):
    argv = [command[0], str(MODELS / command[1]), *command[2:],
            f"--direction={direction}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "model error: bad direction" in err
    assert "Traceback" not in err


class TestStabilityCommand:
    def test_scalar_walk(self):
        code, text = run_cli(["stability", str(MODELS / "scalar_rrw.yaml")])
        assert code == 0
        assert "verdict = stable" in text

    def test_jackson(self):
        code, text = run_cli(["stability", str(MODELS / "tandem_jackson.yaml")])
        assert code == 0
        assert "rho1 = 0.5" in text
        assert "verdict = stable" in text

    def test_qbd1d(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text(QBD1D_FILE)
        code, text = run_cli(["stability", str(f)])
        assert code == 0
        assert "mean_drift = -0.1" in text


class TestDecayCommand:
    def test_tandem_rate(self, tmp_path):
        code, text = run_cli(["decay", str(MODELS / "tandem_jackson.yaml"),
                              "--direction", "1,0", "--scan", "96"])
        assert code == 0
        line = [l for l in text.splitlines() if l.startswith("direction 1,0")][0]
        rate = float(line.split("rate = ")[1].split()[0])
        assert rate == pytest.approx(np.log(2.0), abs=1e-6)

    def test_byte_identical_reports(self):
        argv = ["decay", str(MODELS / "scalar_rrw.yaml"),
                "--direction", "1,1", "--scan", "64"]
        _, a = run_cli(argv)
        _, b = run_cli(argv)
        assert a == b

    def test_jackson_model_prints_the_jackson_decay_report(self):
        f = str(MODELS / "tandem_jackson.yaml")
        opts = ["--direction", "1,0", "--direction", "1,1", "--scan", "64"]
        code_a, a = run_cli(["decay", f, *opts])
        code_b, b = run_cli(["jackson", f, "decay", *opts])
        assert code_a == code_b == 0
        assert a == b
        assert "tau1_generic" in a and "discrepancy = " in a

    def test_qbd1d_decay(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text(QBD1D_FILE)
        code, text = run_cli(["decay", str(f)])
        assert code == 0
        assert "tail_decay_rate" in text
        assert "classification = t_positive" in text


class TestBoundaryCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, text = run_cli(["boundary", str(MODELS / "scalar_rrw.yaml"),
                              "--samples", "40", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta1,theta2_lower,theta2_upper,feasible_C1,feasible_C2"
        assert len(lines) >= 40
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[3] in ("0", "1") and first[4] in ("0", "1")

    def test_jackson_boundary(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(["boundary", str(MODELS / "tandem_jackson.yaml"),
                           "--samples", "32", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        # curve passes through the origin region: theta2 ranges straddle 0
        lo = min(float(r.split(",")[1]) for r in rows)
        hi = max(float(r.split(",")[2]) for r in rows)
        assert lo < 0 < hi


class TestJacksonCommand:
    def test_traffic(self):
        code, text = run_cli(["jackson", str(MODELS / "mapph_jackson.yaml"),
                              "traffic"])
        assert code == 0
        rho1 = float([l for l in text.splitlines()
                      if l.startswith("rho1")][0].split(" = ")[1])
        assert 0.6 < rho1 < 0.8
        assert "stable = true" in text

    def test_decay_two_paths(self):
        code, text = run_cli(["jackson", str(MODELS / "tandem_jackson.yaml"),
                              "decay", "--direction", "1,0", "--scan", "96"])
        assert code == 0
        assert "max_path_discrepancy" in text
        disc = float([l for l in text.splitlines()
                      if l.startswith("max_path_discrepancy")][0].split(" = ")[1])
        assert disc <= 1e-6

    def test_certificate(self):
        code, text = run_cli(["jackson", str(MODELS / "tandem_jackson.yaml"),
                              "certificate", "--points", "8"])
        assert code == 0
        assert "certified = true" in text

    def test_wrong_kind_rejected(self):
        assert cli.main(["jackson", str(MODELS / "scalar_rrw.yaml"),
                         "traffic"]) == 2


class TestVerifyCommand:
    def test_product_form_agreement(self, tmp_path):
        # exponential network solved at a modest extent: analytic rates and
        # solver slopes agree within two percent
        f = tmp_path / "exp.yaml"
        f.write_text("""\
schema_version: "1"
kind: jackson
model:
  arrivals:
    - {t: [[-1.0]], u: [[1.0]]}
    - {t: [[-0.5]], u: [[0.5]]}
  services:
    - {beta: [1.0], s: [[-2.0]]}
    - {beta: [1.0], s: [[-3.0]]}
  routing: {r12: 0.3, r21: 0.2}
""")
        code, text = run_cli(["verify", str(f), "--extent", "80",
                              "--seed", "3", "--steps", "0", "--scan", "96"])
        assert code == 0
        worst = float([l for l in text.splitlines()
                       if l.startswith("max_rel_gap_solver")][0].split(" = ")[1])
        assert worst <= 0.02

    def test_simulation_rows_present(self, tmp_path):
        code, text = run_cli(["verify", str(MODELS / "scalar_rrw.yaml"),
                              "--extent", "60", "--seed", "11",
                              "--steps", "400000", "--scan", "64"])
        assert code == 0
        assert "simulated, seed 11" in text


def test_env_tolerance_override(tmp_path, monkeypatch):
    src = (MODELS / "scalar_rrw.yaml").read_text()
    # perturb a row sum by 1e-9: invalid at the default tolerance, valid
    # under a loosened override
    broken = src.replace('"0,0":  [[0.26]]', '"0,0":  [[0.260000001]]')
    bad = tmp_path / "perturbed.yaml"
    bad.write_text(broken)
    code, _ = run_cli(["validate", str(bad)])
    assert code == 2
    monkeypatch.setenv("QBDTAIL_TOL", "1e-6")
    code, _ = run_cli(["validate", str(bad)])
    assert code == 0
