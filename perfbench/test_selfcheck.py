"""Self-checks of the benchmark itself.

Run from the root of a checkout (about a minute)::

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

# cheap items covering every command: scalar decay, exponential Jackson
# decay, 1-d QBD decay, verify, boundary and certificate
SUBSET = (("decay-sweep", (0, 2, 4)), ("boundary-verify", (0, 2, 6)))


def _layers():
    return json.loads((HERE / "layers.json").read_text(encoding="utf-8"))


def _items(seed: int, work: Path) -> list:
    items = []
    for workload, picks in SUBSET:
        made = gen.generate(workload, seed, work / workload)
        for k in picks:
            item = made[k]
            if item["command"] == "verify":
                steps = item["argv"].index("--steps") + 1
                item["argv"][steps] = "100000"
            items.append(item)
    for it in items:
        it["argv"] = [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
                      for a in it["argv"]]
    return items


def _traced_run(seed: int, name: str) -> dict:
    work = ROOT / ".perfbench" / f"selfcheck-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {"src": str(ROOT / "src"), "items": _items(seed, work), "seconds": 0,
           "trace": True, "spans": str(work / "spans.npz")}
    result = run.run_worker(ROOT, job, work, deadline=time.monotonic() + 600)
    result["items"] = job["items"]
    return result


@pytest.fixture(scope="module")
def two_traced_runs():
    return _traced_run(7, "a"), _traced_run(7, "b")


def test_counted_metrics_repeat_exactly(two_traced_runs):
    a, b = two_traced_runs
    counted = [k for k, v in _layers()["per_layer"].items()
               if v["counted"] and k in a["traced"]["metrics"]]
    assert counted
    for name in counted:
        assert a["traced"]["metrics"][name] == b["traced"]["metrics"][name], name


def test_traced_run_passes_its_checks_and_accounts_for_item_time(two_traced_runs):
    a, _ = two_traced_runs
    attempted, failures, _ = run.evaluate(a["items"], a)
    assert attempted == 2 * len(a["items"]) and not failures, failures
    m = a["traced"]["metrics"]
    layers = [k for k in m if k.endswith(".self_s")]
    assert len(layers) == 7
    total = sum(m[k] for k in layers) + m["cli.other_s"]
    assert total == pytest.approx(m["trace.item_s"], rel=1e-9)
    assert m["trace.absent_names"] == 0 and not a["traced"]["absent"]
    assert m["matcore.eigen_calls"] > 0 and m["jackson.certificate_calls"] > 0
    assert m["oracle.states"] > 0 and m["levelset.section_calls"] > 0


def test_metric_names_agree_with_benchmark_json(two_traced_runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(_layers()["per_layer"])
    produced = set(two_traced_runs[0]["traced"]["metrics"])
    produced |= {"trace.overhead_s", "oracle.slope_rel_gap_max"}
    assert produced == per_layer
    assert {w["name"] for w in bench["workloads"]} == set(gen.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]


def test_generation_is_a_function_of_the_seed(tmp_path):
    a = gen.generate("decay-sweep", 3, tmp_path / "a")
    b = gen.generate("decay-sweep", 3, tmp_path / "b")
    for x, y in zip(a, b):
        assert Path(x["model"]).read_text() == Path(y["model"]).read_text()
    c = gen.generate("decay-sweep", 4, tmp_path / "c")
    assert Path(a[0]["model"]).read_text() != Path(c[0]["model"]).read_text()


def test_checker_rejects_a_wrong_rate(tmp_path):
    item = gen.generate("decay-sweep", 5, tmp_path)[0]
    tau = item["ref"]["tau"]
    rates = {d: min(tau[i] / c for i, c in enumerate(map(float, d.split(",")))
                    if c > 0) for d in gen.DIRECTIONS}
    lines = ["category = I", f"tau1 = {tau[0]:.12g}", f"tau2 = {tau[1]:.12g}"]
    good = lines + [f"direction {d}: rate = {r:.12g}" for d, r in rates.items()]
    record = {"code": 0, "error": None, "stdout": "\n".join(good) + "\n"}
    assert check.check(item, record)[0] == []
    bad = dict(record, stdout=record["stdout"].replace(
        f"rate = {rates['1,1']:.12g}", f"rate = {rates['1,1'] * (1 + 1e-6):.12g}"))
    assert check.check(item, bad)[0]
    crash = {"code": None, "error": {"type": "ValueError", "message": "x"},
             "stdout": ""}
    assert check.check(item, crash)[0] == ["exception ValueError: x"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "decay-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
