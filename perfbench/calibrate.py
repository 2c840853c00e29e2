"""Derive the simulated-slope tolerance of ``check.SIM_REL_TOL``.

Usage, from the root of a checkout::

    python3 perfbench/calibrate.py [first_seed] [count]

Generates the ``boundary-verify`` model set for ``count`` (default ten)
consecutive seeds, runs its ``verify`` items through ``qbdtail.cli.main``
and collects the relative gap between each simulated slope and the
closed-form tau (the larger of the two coordinates per item).  The
tolerance is twice the largest gap seen, rounded up to a multiple of 0.05:
the simulated slope is a statistical estimate, so the gate allows for seeds
and models not in the sample.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402


def main(first: int = 1, count: int = 10) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from qbdtail import cli

    gaps = []
    for seed in range(first, first + count):
        work = root / ".perfbench" / f"calibrate-seed{seed}"
        for item in gen.generate("boundary-verify", seed, work):
            if item["command"] != "verify":
                continue
            item["argv"] = [os.path.relpath(a, root) if a.startswith(str(root)) else a
                            for a in item["argv"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(item["argv"])
            fails, obs = check.check(item, {"code": code, "error": None,
                                            "stdout": out.getvalue()})
            gaps.append(obs.get("sim_rel_gap"))
            print(f"seed {seed} {item['id']} rho={item['rho']} "
                  f"sim_rel_gap={obs.get('sim_rel_gap')} "
                  f"solver_rel_gap={obs.get('solver_rel_gap')} "
                  f"other failures={[f for f in fails if 'simulated' not in f]}",
                  flush=True)
    seen = [g for g in gaps if g is not None]
    worst = max(seen)
    tol = math.ceil(2.0 * worst / 0.05) * 0.05
    print(f"items = {len(gaps)}  largest simulated rel gap = {worst:.4f}  "
          f"tolerance = {tol:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*(int(a) for a in sys.argv[1:3])))
