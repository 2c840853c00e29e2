import io
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from qbdtail import cli, jackson, levelset, matcore, modelfile, qbd2d
from qbdtail.errors import (ChildFailed, InvalidStart, NoConvergence,
                            ParseError, SchemaError)

from conftest import mapph_jackson, product_form_jackson, scalar_rrw

MODELS = Path(__file__).resolve().parent.parent / "models"
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


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

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_both_yaml_loaders_read_the_same_model(self, loader, monkeypatch):
        for name in ("scalar_rrw", "modulated_rrw", "tandem_jackson",
                     "mapph_jackson"):
            text = (MODELS / f"{name}.yaml").read_text()
            # the pure-Python safe loader is the reference
            monkeypatch.setattr(modelfile, "_LOADER", yaml.SafeLoader)
            want = modelfile.model_to_dict(modelfile.parse_model(text))
            monkeypatch.setattr(modelfile, "_LOADER", loader)
            assert yaml.load(text, Loader=loader) == yaml.safe_load(text)
            assert modelfile.model_to_dict(modelfile.parse_model(text)) == want
        for bad in ("kind: [unclosed", "a: b: c", "x: 'open", "\tkey: 1"):
            with pytest.raises(ParseError):
                modelfile.parse_model(bad)

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

    @pytest.mark.parametrize("entry", ["x", "2.7", "true", "0"])
    def test_bad_dims_entry_exits_two(self, tmp_path, capsys, entry):
        src = (MODELS / "scalar_rrw.yaml").read_text()
        bad = tmp_path / "bad_dims.yaml"
        bad.write_text(src.replace("dims: [1, 1, 1, 1]",
                                   f"dims: [1, {entry}, 1, 1]", 1))
        assert cli.main(["validate", str(bad)]) == 2
        assert "model.dims: expected four positive integers" in \
            capsys.readouterr().err

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
        run = lambda model: subprocess.run(
            [sys.executable, "-m", "qbdtail", "validate", str(model)],
            capture_output=True, text=True, env=env, timeout=120)
        proc = run(MODELS / "scalar_rrw.yaml")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("kind = qbd2d_discrete\nviolations = 0\n"
                               "valid = true\n")
        proc = run(MODELS / "missing.yaml")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("model error: cannot read ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,flag,value", [
    (["boundary", "scalar_rrw.yaml", "--out", "unused.csv"], "--samples", "0"),
    (["decay", "scalar_rrw.yaml"], "--scan", "0"),
    (["jackson", "tandem_jackson.yaml", "certificate"], "--points", "-1"),
    (["verify", "scalar_rrw.yaml"], "--extent", "-3"),
    (["verify", "scalar_rrw.yaml"], "--steps", "-1"),
    (["decay", "scalar_rrw.yaml"], "--scan", "many"),
    (["verify", "modulated_rrw.yaml", "--extent", "20"], "--seed", "-3"),
    (["verify", "modulated_rrw.yaml", "--extent", "20"], "--level", "-1"),
    (["verify", "modulated_rrw.yaml", "--extent", "20"], "--phase", "-1"),
    (["boundary", "scalar_rrw.yaml", "--out", "unused.csv"], "--samples", "1"),
    (["boundary", "scalar_rrw.yaml", "--out", "unused.csv"], "--samples", "2"),
    (["verify", "scalar_rrw.yaml"], "--extent", "1"),
    (["verify", "scalar_rrw.yaml"], "--extent", "2"),
    # one array's length each: past MAX_COUNT, numpy never sees the size
    (["boundary", "scalar_rrw.yaml", "--out", "unused.csv"], "--samples",
     str(2 ** 62)),
    (["decay", "scalar_rrw.yaml"], "--scan", str(2 ** 62)),
    (["jackson", "tandem_jackson.yaml", "certificate"], "--points",
     str(2 ** 62)),
    (["verify", "scalar_rrw.yaml"], "--scan", str(cli.MAX_COUNT + 1)),
])
def test_bad_size_is_an_input_error(command, flag, value, capsys):
    argv = [command[0], str(MODELS / command[1]), *command[2:], flag, value]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >=" in err
    if flag in ("--scan", "--points", "--samples"):
        assert f" and <= {cli.MAX_COUNT}, got " in err
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, qbdtail.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


@pytest.mark.parametrize("direction, line", [
    ("1e-320,1", "direction 9.99988867183e-321,1: rate = 0.606135803796"),
    ("1,1e-320", "direction 1,9.99988867183e-321: rate = 0.510825624014"),
])
def test_a_subnormal_direction_component_writes_no_warning(direction, line):
    # the box bound tau_i / c_i overflows to inf for a subnormal c_i: the
    # rate is the other bound's, and nothing reaches stderr
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "qbdtail", "decay",
         str(MODELS / "scalar_rrw.yaml"), "--direction", direction],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("category = I\ntau1 = 0.510825624014\n"
                           f"tau2 = 0.606135803796\n{line}\n")


NEGATIVE_INTERIOR = ('"0,0":  [[0.26]]', '"0,0":  [[-0.26]]')


@pytest.mark.parametrize("command", [
    ["stability"], ["decay"], ["boundary", "--samples", "32", "--out", "x.csv"],
    ["verify", "--extent", "30"]])
def test_commands_reject_what_validate_rejects(command, tmp_path, capsys,
                                               monkeypatch):
    src = (MODELS / "scalar_rrw.yaml").read_text()
    assert NEGATIVE_INTERIOR[0] in src
    bad = tmp_path / "negative.yaml"
    bad.write_text(src.replace(*NEGATIVE_INTERIOR, 1))
    assert cli.main(["validate", str(bad)]) == 2
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert cli.main([command[0], str(bad), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("model error:")
    assert "NegativeEntryViolation" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [
    ["validate"], ["stability"], ["decay"],
    ["boundary", "--samples", "32", "--out", "x.csv"],
    ["verify", "--extent", "30"]])
def test_a_face_chain_closed_on_its_axis_is_an_input_error(command, tmp_path,
                                                           capsys, monkeypatch):
    # face 1 never moves up: its transverse chain has a closed class at
    # level 0, which the stability rule and decay analysis do not cover
    trapped = tmp_path / "trapped.yaml"
    trapped.write_text(modelfile.dump_model(modelfile.ModelFile(
        "1", "qbd2d_discrete", scalar_rrw(
            0.15, 0.25, 0.12, 0.22,
            face1={"up": 0.0, "right": 0.15, "left": 0.25}))))
    monkeypatch.chdir(tmp_path)
    assert cli.main([command[0], str(trapped), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert "AxisTrapViolation at family +0" in captured.out + captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "x.csv").exists()


def _continuous_generator_with_bad_signs() -> str:
    """The MAP/PH network's continuous-time blocks with a negative
    off-diagonal and a positive diagonal entry in the origin generator."""
    spec = jackson.build_blocks(mapph_jackson())
    fams = {reg: {inc: b.copy() for inc, b in fam.items()}
            for reg, fam in spec.families.items()}
    origin = fams[("0", "0")][(0, 0)]
    origin[0, 1], origin[1, 1] = -0.1, 0.1
    return modelfile.dump_model(modelfile.ModelFile(
        "1", "qbd2d_continuous", qbd2d.make_spec(fams, spec.dims, "continuous")))


_QBD2D_HEAD = 'schema_version: "1"\nkind: qbd2d_discrete\nmodel:\n  dims: [1, 1, 1, 1]\n'
_SECOND_ARRIVAL = "    - t: [[0.0]]      # no exogenous arrivals at node 2\n      u: [[0.0]]\n"
_FIRST_SERVICE = "    - beta: [1.0]\n      s: [[-2.0]]"

# (id, model: a shipped name, "qbd1d", "continuous" or a literal text,
#  text edit (old, new) or None, command, exit code, expected fragment)
_CONTRACT_CASES = [
    ("not_a_mapping", 'schema_version: "1"\nkind: qbd1d\nmodel: 5\n', None,
     ["validate"], 2, "model: expected a mapping"),
    ("missing_block", "qbd1d", ("  a1: [[0.2]]\n", ""),
     ["validate"], 2, "model: missing keys ['a1']"),
    ("bad_increment_key", "scalar_rrw", ('"1,0":  [[0.15]]', '"a,b":  [[0.15]]'),
     ["validate"], 2, "bad increment key 'a,b'"),
    ("increment_out_of_range", "scalar_rrw",
     ('"1,0":  [[0.15]]', '"2,0":  [[0.15]]'),
     ["validate"], 2, "increment '2,0' out of range"),
    ("families_not_a_mapping", _QBD2D_HEAD + "  families: [1]\n", None,
     ["decay"], 2, "model.families: expected a mapping"),
    ("unknown_region", "scalar_rrw", ('"10":', '"22":'),
     ["validate"], 2, "model.families: unknown region '22'"),
    ("region_not_a_mapping", _QBD2D_HEAD + '  families: {"++": 5}\n', None,
     ["stability"], 2, "model.families.++: expected a mapping"),
    ("increment_not_allowed", "scalar_rrw",
     ('"0,0":  [[0.73]]', '"-1,0": [[0.73]]'),
     ["validate"], 2, "increment '-1,0' not allowed from region 00"),
    ("one_arrival_stream", "tandem_jackson", (_SECOND_ARRIVAL, ""),
     ["validate"], 2, "model.arrivals: expected a list of two MAPs"),
    ("one_service_law", "tandem_jackson",
     ("    - beta: [1.0]\n      s: [[-3.0]]\n", ""),
     ["jackson", "traffic"], 2, "model.services: expected a list of two PH laws"),
    ("schema_version", "scalar_rrw", ('schema_version: "1"', 'schema_version: "2"'),
     ["validate"], 2, "unsupported schema_version '2'"),
    ("map_sizes", "tandem_jackson", ("u: [[1.0]]", "u: [[1.0, 0.0]]"),
     ["validate"], 2, "T and U must be square of equal size"),
    ("map_negative_rate", "tandem_jackson",
     ("- t: [[-1.0]]\n      u: [[1.0]]", "- t: [[1.0]]\n      u: [[-1.0]]"),
     ["validate"], 2, "T off-diagonal and U must be nonnegative"),
    ("map_reducible", "tandem_jackson",
     ("- t: [[-1.0]]\n      u: [[1.0]]",
      "- t: [[-1.0, 0.0], [0.0, -1.0]]\n      u: [[1.0, 0.0], [0.0, 1.0]]"),
     ["validate"], 2, "T + U must be irreducible"),
    ("ph_sizes", "tandem_jackson",
     (_FIRST_SERVICE, "    - beta: [0.5, 0.5]\n      s: [[-2.0]]"),
     ["validate"], 2, "beta and S sizes disagree"),
    ("ph_positive_diagonal", "tandem_jackson",
     (_FIRST_SERVICE, "    - beta: [1.0]\n      s: [[2.0]]"),
     ["validate"], 2, "S must have nonnegative off-diagonal, nonpositive diagonal"),
    ("ph_negative_exit", "tandem_jackson",
     (_FIRST_SERVICE, "    - beta: [1.0, 0.0]\n      s: [[-1.0, 2.0], [0.0, -1.0]]"),
     ["validate"], 2, "S 1 <= 0 with strict inequality somewhere"),
    ("ph_singular", "tandem_jackson",
     (_FIRST_SERVICE, "    - beta: [0.5, 0.5]\n      s: [[-1.0, 0.0], [0.0, 0.0]]"),
     ["validate"], 2, "-S must be nonsingular"),
    ("continuous_signs", "continuous", None, ["validate"], 2,
     "violation = NegativeEntryViolation at family 00 (0, 0): negative "
     "off-diagonal entry\nviolation = DiagSignViolation at family 00 (0, 0): "
     "positive diagonal in a generator\n"),
    ("qbd1d_validate", "qbd1d", None, ["validate"], 0,
     "kind = qbd1d\nviolations = 0\nvalid = true\n"),
    ("qbd1d_boundary", "qbd1d", None, ["boundary", "--out", "x.csv"], 2,
     "command not supported for kind 'qbd1d'"),
    ("qbd1d_verify", "qbd1d", None, ["verify"], 2,
     "command not supported for kind 'qbd1d'"),
]


@pytest.mark.parametrize("model, edit, command, code, want",
                         [case[1:] for case in _CONTRACT_CASES],
                         ids=[case[0] for case in _CONTRACT_CASES])
def test_malformed_and_unsupported_inputs_keep_the_exit_code_contract(
        model, edit, command, code, want, tmp_path, capsys, monkeypatch):
    """A malformed file exits 2 with one ``model error:`` line, ``validate``
    lists a spec's violations and exits 2, and a command that a 1-d QBD
    does not support exits 2; no traceback, no file written."""
    if model == "qbd1d":
        text = QBD1D_FILE
    elif model == "continuous":
        text = _continuous_generator_with_bad_signs()
    elif model in SHIPPED:
        text = (MODELS / f"{model}.yaml").read_text()
    else:
        text = model
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit, 1)
    path = tmp_path / "model.yaml"
    path.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main([command[0], str(path), *command[1:]]) == code
    captured = capsys.readouterr()
    if model == "continuous" or code == 0:
        assert want in captured.out and captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("model error: ")
        assert captured.err.count("\n") == 1 and want in captured.err
    assert not (tmp_path / "x.csv").exists()


def _fuzz_files(tmp_path) -> dict:
    """Named model files: the shipped ones and broken or unstable variants."""
    rrw = (MODELS / "scalar_rrw.yaml").read_text()
    tandem = (MODELS / "tandem_jackson.yaml").read_text()
    unstable_rrw = modelfile.dump_model(modelfile.ModelFile(
        "1", "qbd2d_discrete", scalar_rrw(0.25, 0.15, 0.22, 0.12)))
    texts = {
        "rrw": rrw,
        "tandem": tandem,
        "malformed_yaml": rrw.replace("families:", "families: [", 1),
        "not_a_mapping": "- just\n- a list\n",
        "truncated": rrw[: len(rrw) // 2],
        "wrong_shape": rrw.replace('"1,0":  [[0.15]]', '"1,0":  [[0.15, 0.0]]', 1),
        "negative_entry": rrw.replace(*NEGATIVE_INTERIOR, 1),
        "negative_offdiag": rrw.replace('"1,0":  [[0.15]]', '"1,0":  [[-0.15]]', 1)
                               .replace(*NEGATIVE_INTERIOR, 1),
        "nan_entry": rrw.replace('"0,1":  [[0.12]]', '"0,1":  [[.nan]]', 1),
        "unstable_rrw": unstable_rrw,
        "unstable_tandem": tandem.replace("[[-1.0]]", "[[-5.0]]", 1)
                                 .replace("u: [[1.0]]", "u: [[5.0]]", 1),
        "bad_routing": tandem.replace("r12: 1.0", "r12: 1.5", 1),
    }
    rng = np.random.default_rng(2024)
    tokens = ["-1", ".nan", "1e308", "x", "[[0.1, 0.2]]", "[]", "2", "0"]
    numbers = list(re.finditer(r"-?\d+\.\d+", rrw))
    for k in range(6):
        hit = numbers[int(rng.integers(len(numbers)))]
        texts[f"random_{k}"] = (rrw[:hit.start()]
                                + tokens[int(rng.integers(len(tokens)))]
                                + rrw[hit.end():])
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(text)
    return paths


_FUZZ_COMMANDS = [
    ["validate"], ["stability"],
    ["decay", "--scan", "32"],
    ["decay", "--scan", "32", "--direction", "0,0"],
    ["decay", "--scan", "32", "--direction", "-1,2"],
    ["decay", "--scan", "32", "--direction", "nan,1"],
    ["decay", "--scan", "32", "--direction", "1,2,3"],
    ["decay", "--scan", "0"],
    ["boundary", "--samples", "16", "--out", "out.csv"],
    ["boundary", "--samples", "0", "--out", "out.csv"],
    ["verify", "--extent", "12", "--scan", "16"],
    ["verify", "--extent", "0"],
    ["jackson", "decay", "--scan", "32"],
    ["jackson", "decay", "--scan", "32", "--direction", "inf,1"],
    ["jackson", "certificate", "--points", "4"],
    ["jackson", "certificate", "--points", "-2"],
    ["jackson", "traffic"],
]


def test_cli_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    """Every command on every broken, unstable or valid file, with bad and
    good options: exit 0, 2 or 3, no escaping exception, and no negative
    or NaN rate in a report."""
    monkeypatch.chdir(tmp_path)
    files = _fuzz_files(tmp_path)
    seen = set()
    for name, path in files.items():
        for command in _FUZZ_COMMANDS:
            try:
                code = cli.main([command[0], str(path), *command[1:]])
            except SystemExit as exc:     # argparse usage error
                code = exc.code
            captured = capsys.readouterr()
            label = f"{name}: {' '.join(command)}"
            assert code in (0, 2, 3), label
            assert "Traceback" not in captured.err, label
            seen.add(code)
            for line in captured.out.splitlines():
                for key in ("rate = ", "tau1 = ", "tau2 = "):
                    if key in line:
                        value = float(line.split(key)[1].split()[0])
                        assert np.isfinite(value) and value >= 0, label
    assert seen == {0, 2, 3}


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

    def test_mixed_sign_walk_reads_one_face(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text(modelfile.dump_model(modelfile.ModelFile(
            "1", "qbd2d_discrete", scalar_rrw(
                0.25, 0.2, 0.1, 0.3,
                face1={"up": 0.1, "right": 0.05, "left": 0.3}))))
        code, text = run_cli(["stability", str(f)])
        assert code == 0
        assert "induced_mu1 = -0.15\n" in text
        assert "induced_mu2" not in text
        assert text.endswith("verdict = stable\n")

    def test_continuous_walk_prints_rate_units(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text(modelfile.dump_model(modelfile.ModelFile(
            "1", "qbd2d_continuous", jackson.build_blocks(product_form_jackson()))))
        code, text = run_cli(["stability", str(f)])
        assert code == 0
        assert "induced_mu1 = -0.78\ninduced_mu2 = -2.02\n" in text


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

    @pytest.mark.parametrize("name", ["scalar_rrw", "modulated_rrw",
                                      "tandem_jackson", "mapph_jackson"])
    def test_golden_reports(self, name):
        """The ``decay`` report of a shipped model at the default scan in
        four directions, as exact text: a change that moves no digit on
        purpose must leave every printed digit alone.  A change that does
        move digits on purpose rewrites ``tests/data/decay_<name>.txt`` and
        lists the diff in CHANGES.md."""
        argv = ["decay", str(MODELS / f"{name}.yaml")]
        for d in ("1,0", "0,1", "1,1", "2,1"):
            argv += ["--direction", d]
        code, text = run_cli(argv)
        assert code == 0
        golden = Path(__file__).resolve().parent / "data" / f"decay_{name}.txt"
        assert text == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", ["scalar_rrw", "modulated_rrw",
                                      "tandem_jackson", "mapph_jackson"])
    def test_coarsest_scan(self, name):
        """``decay --scan 1``: with no feasible scan sample on the walk
        from a pole, the face extreme is bracketed from the pole to the
        origin, and tau on both paths stays within 1e-9 of the golden
        report."""
        code, text = run_cli(["decay", str(MODELS / f"{name}.yaml"),
                              "--scan", "1"])
        assert code == 0
        taus = lambda t: {k: float(v) for k, v in
                          re.findall(r"^(tau\S*) = (\S+)$", t, re.M)}
        golden = Path(__file__).resolve().parent / "data" / f"decay_{name}.txt"
        want = taus(golden.read_text(encoding="utf-8"))
        got = taus(text)
        assert got.keys() == want.keys() and len(want) in (2, 4)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-9, key

    def test_qbd1d_decay(self, tmp_path):
        f = tmp_path / "m.yaml"
        f.write_text(QBD1D_FILE)
        code, text = run_cli(["decay", str(f)])
        assert code == 0
        assert "tail_decay_rate" in text
        assert "classification = t_positive" in text


SHIPPED = ("scalar_rrw", "modulated_rrw", "tandem_jackson", "mapph_jackson")
GOLDEN = Path(__file__).resolve().parent / "data"


class TestGoldenReports:
    """The reports of the other commands on the shipped models, as exact
    text, like ``TestDecayCommand.test_golden_reports``: ``stability``,
    ``verify --extent 40 --scan 64 --steps 20000``, ``jackson certificate
    --points 32`` and the ``boundary --samples 64`` CSV, each against
    ``tests/data/<command>_<model>``.  A change that moves digits on purpose
    rewrites those files and lists the diff in CHANGES.md."""

    @pytest.mark.parametrize("command, name", [
        *((c, n) for c in ("stability", "verify") for n in SHIPPED),
        *(("certificate", n) for n in SHIPPED if n.endswith("_jackson"))])
    def test_report(self, command, name):
        f = str(MODELS / f"{name}.yaml")
        argv = {"stability": ["stability", f],
                "verify": ["verify", f, "--extent", "40", "--scan", "64",
                           "--steps", "20000"],
                "certificate": ["jackson", f, "certificate", "--points", "32"],
                }[command]
        code, text = run_cli(argv)
        assert code == 0
        assert text == (GOLDEN / f"{command}_{name}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", SHIPPED)
    def test_boundary_csv(self, name, tmp_path):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(["boundary", str(MODELS / f"{name}.yaml"),
                           "--samples", "64", "--out", str(out)])
        assert code == 0
        assert (out.read_text(encoding="utf-8")
                == (GOLDEN / f"boundary_{name}.csv").read_text(encoding="utf-8"))


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

    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("samples", [64, 512])
    def test_rows_print_as_the_report_digits(self, name, samples, tmp_path):
        # the joined CSV carries each float as _fmt prints it and each
        # flag as 0 or 1
        out = tmp_path / "curve.csv"
        f = MODELS / f"{name}.yaml"
        code, _ = run_cli(["boundary", str(f), "--samples", str(samples),
                           "--out", str(out)])
        assert code == 0
        mf = modelfile.load_model(f)
        scan = min(qbd2d.DEFAULT_SCAN, samples)
        curve = (jackson.analytic_curve(mf.payload, scan=scan)
                 if mf.kind == "jackson" else qbd2d.level_curve(mf.payload, scan=scan))
        rows = levelset.boundary_rows(curve, samples)
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [",".join([*map(cli._fmt, r[:3]), str(int(r[3])),
                                   str(int(r[4]))]) for r in rows]

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

    # (feasible_C1, feasible_C2) per row, west to east; the scan is the
    # sample count, so the tangent rows start their extremes from a 3-, 4-
    # or 5-point scan
    COARSE_FLAGS = {
        "scalar_rrw": ("01 10 00", "01 10 10 00", "01 10 10 10 00"),
        "modulated_rrw": ("01 10 00", "01 10 10 00", "01 10 10 10 00"),
        "tandem_jackson": ("01 11 00", "01 11 01 00", "01 11 11 01 00"),
        "mapph_jackson": ("01 11 00", "01 11 10 00", "01 11 11 10 00"),
    }

    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("samples", [3, 4, 5])
    def test_coarsest_samples(self, name, samples, tmp_path):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(["boundary", str(MODELS / f"{name}.yaml"),
                           "--samples", str(samples), "--out", str(out)])
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        flags = " ".join(r[3] + r[4] for r in rows)
        assert flags == self.COARSE_FLAGS[name][samples - 3]

    def test_extreme_step_budget_exits_3(self, monkeypatch, tmp_path):
        monkeypatch.setattr(levelset, "EXTREME_STEPS", 1)
        out = str(tmp_path / "curve.csv")
        assert cli.main(["boundary", str(MODELS / "mapph_jackson.yaml"),
                         "--samples", "3", "--out", out]) == 3


class TestOrderOneReads:
    """An order-1 Perron root is read by ``matcore.perron_value`` and the
    vector of a one-phase stream is 1: no 1x1 matrix reaches the kernel
    ``matcore.dominant``, whose orders above 1 still do."""

    @staticmethod
    def inputs(monkeypatch, argv, tmp_path):
        """Every matrix (lane of a stack) that ``argv`` gives the kernel."""
        seen = []
        kernel = matcore.dominant

        def recorded(t):
            t = np.asarray(t, dtype=float)
            seen.extend(t.reshape((-1,) + t.shape[-2:]))
            return kernel(t)

        monkeypatch.setattr(matcore, "dominant", recorded)
        argv = [str(tmp_path / "curve.csv") if a == "OUT" else a for a in argv]
        assert run_cli(argv)[0] == 0
        return seen

    @pytest.mark.parametrize("argv", [
        ["jackson", "tandem_jackson", "decay"],
        ["boundary", "tandem_jackson", "--samples", "64", "--out", "OUT"],
        ["jackson", "tandem_jackson", "certificate"],
        ["boundary", "scalar_rrw", "--out", "OUT"],
    ], ids=["jackson-decay", "boundary-jackson", "certificate", "boundary-walk"])
    def test_no_order_one_matrix_reaches_the_kernel(self, argv, monkeypatch,
                                                    tmp_path):
        argv = [argv[0], str(MODELS / f"{argv[1]}.yaml"), *argv[2:]]
        seen = self.inputs(monkeypatch, argv, tmp_path)
        assert [t for t in seen if t.shape == (1, 1)] == []

    def test_order_two_streams_still_reach_the_kernel(self, monkeypatch,
                                                      tmp_path):
        seen = self.inputs(monkeypatch, ["jackson", str(MODELS / "mapph_jackson.yaml"),
                                         "decay"], tmp_path)
        assert [t for t in seen if t.shape == (1, 1)] == []
        pairs = [t for t in seen if t.shape == (2, 2)]
        # T + e^theta U of the MMPP-2 keeps T's switching rates off the
        # diagonal; S + t D of the node-1 Erlang-2 keeps S's diagonal
        assert any(t[0, 1] == 0.4 and t[1, 0] == 0.6 for t in pairs)
        assert any(t[0, 0] == t[1, 1] == -3.5 for t in pairs)


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

    def test_certificate_is_one_stacked_call(self, monkeypatch):
        """``certificate`` checks all its scan points in one
        ``assumption3_certificate`` call, whose ``dominant`` calls do not
        grow with ``--points``."""
        dominant = matcore.dominant
        certificate = jackson.assumption3_certificate
        seen = []       # one entry per dominant call
        per_call = []   # dominant calls inside each certificate call

        def counted_dominant(t):
            seen.append(1)
            return dominant(t)

        def counted_certificate(spec, theta):
            before = len(seen)
            result = certificate(spec, theta)
            per_call.append(len(seen) - before)
            return result

        monkeypatch.setattr(matcore, "dominant", counted_dominant)
        monkeypatch.setattr(jackson, "assumption3_certificate", counted_certificate)
        counts = {}
        for points in (8, 64):
            per_call.clear()
            code, text = run_cli(["jackson", str(MODELS / "mapph_jackson.yaml"),
                                  "certificate", "--points", str(points)])
            assert code == 0 and "certified = true" in text
            assert len(per_call) == 1
            counts[points] = per_call[0]
        assert counts[8] == counts[64] > 0

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

    def test_tandem_solver_slopes_exact(self):
        # the exact truncated solution carries no solver error into the
        # tail, so on the tandem network its slopes match tau closely
        code, text = run_cli(["verify", str(MODELS / "tandem_jackson.yaml"),
                              "--extent", "80", "--steps", "0"])
        assert code == 0
        worst = float([l for l in text.splitlines()
                       if l.startswith("max_rel_gap_solver")][0].split(" = ")[1])
        assert worst <= 1e-8

    def test_simulation_rows_present(self, tmp_path):
        code, text = run_cli(["verify", str(MODELS / "scalar_rrw.yaml"),
                              "--extent", "60", "--seed", "11",
                              "--steps", "400000", "--scan", "64"])
        assert code == 0
        assert "simulated, seed 11" in text

    def test_unstable_walk_exits_three(self, tmp_path, capsys):
        f = tmp_path / "unstable.yaml"
        f.write_text(modelfile.dump_model(modelfile.ModelFile(
            "1", "qbd2d_discrete", scalar_rrw(0.25, 0.15, 0.22, 0.12))))
        assert cli.main(["verify", str(f), "--extent", "40"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")
        assert "unstable" in captured.err
        assert "Traceback" not in captured.err

    def test_jackson_reads_the_analytic_tau(self):
        path = str(MODELS / "tandem_jackson.yaml")
        _, decay = run_cli(["decay", path, "--scan", "32"])
        code, text = run_cli(["verify", path, "--extent", "30",
                              "--steps", "0", "--scan", "32"])
        assert code == 0
        for i in (1, 2):
            tau = [l for l in decay.splitlines()
                   if l.startswith(f"tau{i} = ")][0].split(" = ")[1]
            assert f"coordinate {i}: analytic = {tau} " in text


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def running(pid: int) -> bool:
    """Whether process pid exists and has not exited (a zombie that no
    reaper has collected yet counts as exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def assert_no_child_left():
    # no child of this process is running or waiting to be reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestVerifyChild:
    """``verify --steps N`` simulates in a forked child while the parent
    solves; a forced ``_fork_usable`` picks the path, so these run on a
    one-CPU host too."""

    SCALAR = str(MODELS / "scalar_rrw.yaml")

    @staticmethod
    def force_path(monkeypatch, forked):
        """Force the forked or the inline path; returns the fork count."""
        forks = []
        real_fork = os.fork

        def fork():
            if not forked:
                raise AssertionError("the inline path forked")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(cli, "_fork_usable", lambda: forked)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    @needs_fork
    @pytest.mark.parametrize("name", SHIPPED)
    def test_forked_and_inline_reports_are_the_golden(self, name, monkeypatch):
        argv = ["verify", str(MODELS / f"{name}.yaml"), "--extent", "40",
                "--scan", "64", "--steps", "20000"]
        golden = (GOLDEN / f"verify_{name}.txt").read_text(encoding="utf-8")
        for forked in (True, False):
            forks = self.force_path(monkeypatch, forked)
            assert run_cli(argv) == (cli.EXIT_OK, golden)
            assert len(forks) == int(forked)
        assert_no_child_left()

    @needs_fork
    def test_a_failing_solve_kills_and_reaps_the_child(self, monkeypatch,
                                                        capsys):
        # the child is still simulating 10^7 steps when the solve fails
        def stalled(*args, **kwargs):
            raise NoConvergence("solver stalled")

        monkeypatch.setattr("qbdtail.oracle.truncate_and_solve", stalled)
        argv = ["verify", self.SCALAR, "--extent", "30", "--scan", "16",
                "--steps", "10000000"]
        reports = []
        for forked in (True, False):
            self.force_path(monkeypatch, forked)
            assert cli.main(argv) == 3
            reports.append(capsys.readouterr())
            assert_no_child_left()
        assert reports[0] == reports[1]
        assert reports[0].err == "numerical failure: solver stalled\n"

    @needs_fork
    def test_a_child_error_is_raised_where_the_inline_call_raises(
            self, monkeypatch, capsys):
        # same stdout (the solver rows come first), stderr and exit code
        def refused(*args, **kwargs):
            raise InvalidStart("start (0, 0, 9) is not a state of the chain")

        monkeypatch.setattr("qbdtail.oracle.simulate", refused)
        argv = ["verify", self.SCALAR, "--extent", "20", "--scan", "16",
                "--steps", "1000"]
        reports = []
        for forked in (True, False):
            self.force_path(monkeypatch, forked)
            assert cli.main(argv) == 3
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]
        assert reports[0].out.startswith("extent = 20\n")
        assert "coordinate 2: analytic" in reports[0].out
        assert reports[0].err == ("numerical failure: start (0, 0, 9) is not a "
                                  "state of the chain\n")
        assert_no_child_left()

    @needs_fork
    def test_a_child_that_dies_is_a_numerical_failure(self, monkeypatch,
                                                      capsys):
        parent = os.getpid()

        def dies(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("the simulation ran in the parent")
            os._exit(1)

        monkeypatch.setattr("qbdtail.oracle.simulate", dies)
        self.force_path(monkeypatch, True)
        argv = ["verify", self.SCALAR, "--extent", "20", "--scan", "16",
                "--steps", "1000"]
        with pytest.raises(ChildFailed, match="exit status 1 "):
            run_cli(argv)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: the forked child ended with exit "
                       "status 1 before sending its result\n")
        assert_no_child_left()

    @pytest.mark.skipif(not (sys.platform.startswith("linux")
                             and cli._fork_usable()
                             and Path(f"/proc/{os.getpid()}/task/{os.getpid()}"
                                      "/children").exists()),
                        reason="needs Linux /proc children lists and a usable fork")
    def test_a_killed_parent_leaves_no_child(self):
        # SIGKILL runs no cleanup in the parent; the child, told to die
        # with it (PR_SET_PDEATHSIG), stops within seconds instead of
        # walking its 5e7 steps
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qbdtail", "verify", self.SCALAR,
             "--extent", "30", "--steps", "50000000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        child = None
        try:
            deadline = time.monotonic() + 60.0
            while child is None and proc.poll() is None \
                    and time.monotonic() < deadline:
                pids = children.read_text().split()
                if pids:
                    child = int(pids[0])
                else:
                    time.sleep(0.02)
            assert child is not None, "verify forked no child"
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running(child)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)

    def test_no_steps_never_forks(self, monkeypatch):
        self.force_path(monkeypatch, False)
        monkeypatch.setattr(cli, "_fork_usable", lambda: True)
        code, text = run_cli(["verify", self.SCALAR, "--extent", "20",
                              "--scan", "16", "--steps", "0"])
        assert code == cli.EXIT_OK and "simulated" not in text

    def test_one_cpu_or_no_fork_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert not cli._fork_usable()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        if hasattr(os, "fork"):
            assert cli._fork_usable()
            monkeypatch.delattr(os, "fork")
        assert not cli._fork_usable()


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


@pytest.mark.parametrize("value", ["abc", "-1", "nan"])
def test_bad_env_tolerance_is_an_input_error(value, monkeypatch, capsys):
    # a tolerance that is not a finite positive number is rejected before
    # any model is read: no traceback, no report, no numpy warning
    monkeypatch.setenv("QBDTAIL_TOL", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", str(MODELS / "scalar_rrw.yaml")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"QBDTAIL_TOL must be a finite positive number, got {value!r}" in captured.err
    assert "Traceback" not in captured.err
    assert "Warning" not in captured.err


@pytest.mark.parametrize("flags", [["--level", "21"], ["--level", "500"],
                                   ["--phase", "2"], ["--phase", "5"],
                                   ["--level", "3", "--phase", "2"]])
def test_verify_level_and_phase_are_checked_before_the_solve(
        flags, monkeypatch, capsys):
    # modulated_rrw has two phases in every cell; the fitted cells lie at
    # --level <= --extent
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on a bad --level or --phase")

    monkeypatch.setattr("qbdtail.oracle.truncate_and_solve", no_solve)
    argv = ["verify", str(MODELS / "modulated_rrw.yaml"), "--extent", "20",
            *flags]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error: need --level <= --extent (20)")
    assert "Traceback" not in err


def test_verify_accepts_the_last_level_and_phase():
    code, text = run_cli(["verify", str(MODELS / "modulated_rrw.yaml"),
                          "--extent", "20", "--level", "20", "--phase", "1",
                          "--scan", "32"])
    assert code == 0
    assert "coordinate 1: analytic = " in text


@pytest.mark.parametrize("target", ["missing/curve.csv", "."])
def test_boundary_unwritable_out_is_an_input_error(target, tmp_path, capsys):
    # a missing directory and a directory: exit 2, no traceback, no file
    out = tmp_path / target
    argv = ["boundary", str(MODELS / "scalar_rrw.yaml"), "--samples", "8",
            "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"model error: cannot write --out {out}")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def _rates(text):
    """(analytic, generic or None) rate of every direction line."""
    return [(float(m[1]), m[2] and float(m[2])) for m in re.finditer(
        r"^direction \S+: rate = (\S+)(?: generic = (\S+))?", text, re.M)]


@pytest.mark.parametrize("k", [1e300, 1e308])
@pytest.mark.parametrize("command", [["decay", "scalar_rrw"],
                                     ["jackson", "tandem_jackson", "decay"]])
def test_huge_direction_scales_the_rate(command, k):
    # a direction whose components sum past the float range has the rate
    # of its unit multiple over k, not a traceback
    argv = [command[0], str(MODELS / f"{command[1]}.yaml"), *command[2:]]
    code, unit = run_cli([*argv, "--direction", "1,1"])
    assert code == 0
    code, huge = run_cli([*argv, "--direction", f"{k!r},{k!r}"])
    assert code == 0
    (rate, generic), = _rates(huge)
    (unit_rate, unit_generic), = _rates(unit)
    assert rate == pytest.approx(unit_rate / k, rel=1e-12, abs=0)
    if generic is not None:
        assert generic == pytest.approx(unit_generic / k, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [1e-310, 1e-320])
@pytest.mark.parametrize("command", [["decay", "scalar_rrw"],
                                     ["jackson", "tandem_jackson", "decay"]])
def test_tiny_direction_is_a_numerical_failure(command, k, capsys):
    # a rate past the float range exits 3 with one line naming the
    # direction and prints no rate, not a traceback
    argv = [command[0], str(MODELS / f"{command[1]}.yaml"), *command[2:]]
    assert cli.main([*argv, "--direction", f"{k!r},{k!r}"]) == 3
    captured = capsys.readouterr()
    assert "rate = " not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert f"{k!r}, {k!r}" in err[0]


def test_smallest_direction_keeps_a_finite_rate():
    code, text = run_cli(["decay", str(MODELS / "scalar_rrw.yaml"),
                          "--direction", "5e-309,0"])
    assert code == 0
    assert "direction 5e-309,0: rate = 1.02165124803e+308\n" in text


def test_one_parser_serves_successive_calls(monkeypatch, capsys):
    # the memoized parser keeps no state between calls: the append default
    # is fresh, QBDTAIL_TOL is read on every call and an argparse error
    # leaves the next call working
    assert cli.build_parser() is cli.build_parser()
    walk = str(MODELS / "scalar_rrw.yaml")
    monkeypatch.delenv("QBDTAIL_TOL", raising=False)
    assert cli.main(["decay", walk, "--direction", "1,1"]) == 0
    assert re.findall(r"^direction (\S+):", capsys.readouterr().out,
                      re.M) == ["1,1"]
    assert cli.main(["decay", walk]) == 0
    assert re.findall(r"^direction (\S+):", capsys.readouterr().out,
                      re.M) == ["1,0", "0,1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", walk, "--scan", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["decay", walk]) == 0
    assert re.findall(r"^direction (\S+):", capsys.readouterr().out,
                      re.M) == ["1,0", "0,1"]
    monkeypatch.setenv("QBDTAIL_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", walk])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extent", [20000, 2 ** 62])
def test_verify_box_above_the_state_cap_is_an_input_error(extent, monkeypatch,
                                                          capsys):
    # (extent + 1)^2 max(dims) states, far above MAX_STATES: refused with
    # the --level check, before any array of that size is asked for
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on an oversized box")

    monkeypatch.setattr("qbdtail.oracle.truncate_and_solve", no_solve)
    argv = ["verify", str(MODELS / "scalar_rrw.yaml"), "--extent", str(extent)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"model error: --extent {extent} bounds the box at "
                          f"{(extent + 1) ** 2} states, above the cap of "
                          f"{cli.MAX_STATES}")
    assert "Traceback" not in err


def test_verify_out_of_memory_below_the_cap_is_a_numerical_failure(
        monkeypatch, capsys):
    # extent 446 is the largest one-phase box under the cap (447^2 states);
    # a MemoryError while building or factoring it exits 3
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qbdtail.oracle.truncate_and_solve", no_memory)
    argv = ["verify", str(MODELS / "scalar_rrw.yaml"), "--extent", "446",
            "--scan", "16"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory for a box of up "
                          "to 199809 states")
    assert cli.main(argv[:3] + ["447"]) == 2


def test_dims_that_no_block_backs_are_an_input_error(tmp_path, monkeypatch,
                                                     capsys):
    # a 100000-phase interior that no block has: refused before make_spec
    # fills in zero blocks of the declared size
    def no_spec(*args, **kwargs):
        raise AssertionError("make_spec ran on dims that no block backs")

    monkeypatch.setattr(qbd2d, "make_spec", no_spec)
    f = tmp_path / "dims.yaml"
    f.write_text('schema_version: "1"\nkind: qbd2d_discrete\nmodel:\n'
                 '  dims: [1, 1, 1, 100000]\n'
                 '  families: {"00": {"0,0": [[1.0]]}}\n')
    assert cli.main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model error: model.dims: 100000 is neither the row "
                          "nor the column count of any block")
