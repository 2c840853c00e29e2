"""The twelve seed-7 benchmark items as exact reports.

``tests/data/bench_seed7/`` holds the model files that ``perfbench/gen.py``
writes for seed 7 of both workloads (one folder per workload) and
``items.json``: each item's argv, with the model path relative to that
folder and any ``--out`` relative to the working directory, and its exit
code.  Each item runs through ``cli.main`` in a fresh working directory;
its stdout must equal ``<workload>/itemNN.out``, its stderr must be empty
and a boundary CSV it writes must equal ``<workload>/itemNN.csv``, byte for
byte.  A change that moves digits on purpose regenerates these files with
``PYTHONPATH=src python tests/test_bench_items.py`` and lists the diff in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from qbdtail import cli

DATA = Path(__file__).resolve().parent / "data" / "bench_seed7"
ITEMS = json.loads((DATA / "items.json").read_text(encoding="utf-8"))


def _run(item: dict, cwd: Path):
    """(exit code, stdout, stderr, CSV text or None) of one item run in
    ``cwd``."""
    argv = list(item["argv"])
    argv[1] = str(DATA / argv[1])
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    csv = argv[argv.index("--out") + 1] if "--out" in argv else None
    text = (cwd / csv).read_text(encoding="utf-8") if csv else None
    return code, out.getvalue(), err.getvalue(), text


def _golden(item: dict, suffix: str) -> Path:
    return DATA / f"{item['id'].replace('/', '/item')}{suffix}"


@pytest.mark.parametrize("item", ITEMS, ids=[i["id"] for i in ITEMS])
def test_item_report_is_the_golden(item, tmp_path):
    code, out, err, csv = _run(item, tmp_path)
    assert (code, err) == (item["exit"], "")
    assert out == _golden(item, ".out").read_text(encoding="utf-8")
    if csv is not None:
        assert csv == _golden(item, ".csv").read_text(encoding="utf-8")


def _regenerate(scratch: Path) -> None:
    """Rewrite every golden and the exit codes from the code on the path."""
    for item in ITEMS:
        code, out, err, csv = _run(item, scratch)
        if err:
            raise SystemExit(f"{item['id']} wrote to stderr: {err}")
        item["exit"] = code
        _golden(item, ".out").write_text(out, encoding="utf-8")
        if csv is not None:
            _golden(item, ".csv").write_text(csv, encoding="utf-8")
    (DATA / "items.json").write_text(json.dumps(ITEMS, indent=1) + "\n",
                                     encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
    sys.exit(0)
