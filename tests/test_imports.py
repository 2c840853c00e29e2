"""Import guards: no module of ``src/qbdtail`` imports ``scipy.optimize``,
and ``qbdtail decay`` on a 1-d QBD model runs without importing scipy.

scipy is loaded lazily by the oracle only; keeping it off the ``decay``
path keeps that command's start-up time and peak memory small.  The first
check reads the sources with the standard library's ``ast``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbdtail"

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


def test_no_scipy_optimize_import():
    found = [(p.name, name)
             for p in sorted(PACKAGE.glob("*.py"))
             for name in _imported_modules(ast.parse(p.read_text(encoding="utf-8")))
             if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert found == []


def test_qbd1d_decay_leaves_scipy_unloaded(tmp_path):
    model = tmp_path / "qbd1d.yaml"
    model.write_text(QBD1D_TWO_PHASE)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    script = ("import sys\n"
              "from qbdtail.cli import main\n"
              f"code = main(['decay', {str(model)!r}])\n"
              "print('scipy_loaded =', any(m == 'scipy' or m.startswith('scipy.')"
              " for m in sys.modules))\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "classification = " in proc.stdout
    assert "scipy_loaded = False" in proc.stdout
