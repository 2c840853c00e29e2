"""Import guards: no module of ``src/qbdtail`` imports scipy, and each
command loads only the layers it runs.

``cli``, ``modelfile``, ``qbd2d`` and ``jackson`` import ``jackson``,
``levelset``, ``oracle`` and ``qbd1d`` inside the functions that use them.
So ``validate`` on a 2-d walk loads none of those four, ``validate`` on a
Jackson file loads no ``oracle``, ``levelset`` or ``qbd1d``, ``decay`` on a
walk loads neither ``oracle`` nor ``jackson``, ``jackson ... decay`` loads
no ``oracle``, and none of these, ``decay`` on a 1-d QBD nor ``verify``
loads scipy; each command's start-up time and peak memory stay those of
its own layers.  The first check reads the sources with the standard
library's ``ast``; the others run ``cli.main`` in a fresh interpreter and
read ``sys.modules``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbdtail"
MODELS = ROOT / "models"

QBD1D_TWO_PHASE = """\
schema_version: "1"
kind: qbd1d
model:
  b0: [[0.6]]
  b1: [[0.2, 0.2]]
  bm1: [[0.4], [0.4]]
  am1: [[0.3, 0.1], [0.2, 0.2]]
  a0: [[0.2, 0.1], [0.1, 0.2]]
  a1: [[0.2, 0.1], [0.1, 0.2]]
"""


def _imported_modules(tree):
    """Dotted names of every module an import statement loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_scipy_import():
    found = [(p.name, name)
             for p in sorted(PACKAGE.glob("*.py"))
             for name in _imported_modules(ast.parse(p.read_text(encoding="utf-8")))
             if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def _loaded_after(argv):
    """(exit code, stdout, loaded module names) of ``cli.main(argv)`` in a
    fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    script = ("import sys\n"
              "from qbdtail.cli import main\n"
              f"code = main({argv!r})\n"
              "print('loaded =', ' '.join(sorted(sys.modules)))\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, _, loaded = proc.stdout.rpartition("loaded = ")
    return report, set(loaded.split())


def _scipy_loaded(modules) -> bool:
    return any(m == "scipy" or m.startswith("scipy.") for m in modules)


def test_qbd1d_decay_leaves_scipy_unloaded(tmp_path):
    model = tmp_path / "qbd1d.yaml"
    model.write_text(QBD1D_TWO_PHASE)
    report, loaded = _loaded_after(["decay", str(model)])
    assert "classification = " in report
    assert not _scipy_loaded(loaded)


@pytest.mark.parametrize("argv, absent", [
    (["validate", "scalar_rrw.yaml"],
     ("oracle", "jackson", "levelset", "qbd1d")),
    (["validate", "tandem_jackson.yaml"], ("oracle", "levelset", "qbd1d")),
    (["decay", "scalar_rrw.yaml"], ("oracle", "jackson")),
    (["jackson", "tandem_jackson.yaml", "decay"], ("oracle",)),
], ids=["validate-walk", "validate-jackson", "decay-walk",
        "jackson-decay"])
def test_command_loads_only_its_layers(argv, absent):
    argv = [argv[0], str(MODELS / argv[1]), *argv[2:]]
    report, loaded = _loaded_after(argv)
    assert report.startswith(("kind = ", "category = "))
    assert sorted(f"qbdtail.{name}" for name in absent
                  if f"qbdtail.{name}" in loaded) == []
    assert not _scipy_loaded(loaded)


def test_verify_leaves_scipy_unloaded():
    report, loaded = _loaded_after(["verify", str(MODELS / "scalar_rrw.yaml"),
                                    "--extent", "20", "--steps", "0"])
    assert "solver_residual = " in report
    assert not _scipy_loaded(loaded)
