"""Benchmark of the ``qbdtail`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decay-sweep --seed 1 --seconds 45 --trace 0

The run generates the workload's models from ``--seed`` (``gen.py``), times
``qbdtail validate`` on the first model in fresh interpreters (``setup_s``),
then runs every item through ``qbdtail.cli.main(argv)`` in one warm worker
process (``worker.py``) with BLAS/OpenMP pinned to one thread, checks every
report against independent references (``check.py``), prints the metrics by
name and unit and, as its last line, one JSON object.  The times are scaled
to the host-speed references of ``speed.py``; the raw times are printed
beside them.

``--trace 1`` replaces the end-to-end metrics by the per-layer metrics of
``tracing.py`` (an untraced and a traced pass in one worker; the difference
of their wall times is the tracing overhead).

Everything the run writes goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0          # the whole run, set-up included
PIN = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                        "VECLIB_MAXIMUM_THREADS")}
VALIDATE = ("import sys; sys.path.insert(0, 'src'); "
            "from qbdtail.cli import main; sys.exit(main(sys.argv[1:]))")
END_TO_END = (("wall_s", "s"), ("item_p50_s", "s"), ("item_max_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(PIN)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _cold(root: Path, args: list, deadline: float):
    """Wall time and result of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - t0, proc


def measure_setup(root: Path, model: str, deadline: float) -> list:
    """``[raw_s, ref_before, ref_after]`` of ``qbdtail validate`` on one
    model, each in a fresh interpreter (start-up, imports, YAML parse, spec
    validation), with the cold-start reference run before the first and
    after every one."""
    before, _ = _cold(root, ["-c", speed.COLD_REF], deadline)
    runs = []
    for _ in range(SETUP_REPEATS):
        raw, proc = _cold(root, ["-c", VALIDATE, "validate", model], deadline)
        if proc.returncode != 0 or "valid = true" not in proc.stdout:
            raise BenchError(f"validate failed ({proc.returncode}): "
                             f"{proc.stdout}{proc.stderr}")
        after, _ = _cold(root, ["-c", speed.COLD_REF], deadline)
        runs.append([raw, before, after])
        before = after
    return runs


def run_worker(root: Path, job: dict, work: Path, deadline: float) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(job_path), str(result_path)],
                            cwd=root, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}): {err[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def evaluate(items: list, result: dict):
    """Failures of every (item, pass) and the first pass's observations.

    The first pass is checked against the references; a later pass (or the
    traced pass) fails with it, or on its own when its report differs."""
    first = result["passes"][0]["records"]
    later = [p["records"] for p in result["passes"][1:]]
    if result["traced"]:
        later.append(result["traced"]["records"])
    failures, observations, attempted = [], [], 0
    for k, item in enumerate(items):
        fails, obs = check.check(item, first[k])
        observations.append(obs)
        runs = [(first[k], fails)]
        for recs in later:
            same = recs[k]["stdout_sha256"] == first[k]["stdout_sha256"]
            runs.append((recs[k], fails if same else
                         fails + ["report differs from the first pass"]))
        attempted += len(runs)
        for n, (rec, reasons) in enumerate(runs):
            if reasons:
                failures.append({"item": item["id"], "pass": n,
                                 "argv": item["argv"], "code": rec["code"],
                                 "error": rec["error"], "reasons": reasons})
    return attempted, failures, observations


def end_to_end(result: dict, setup: list):
    """The end-to-end metrics (times at the reference speed), the per-item
    medians and the raw times."""
    passes = result["passes"]
    norm = [[r["seconds"] * speed.scale(p["ref_s"]) for r in p["records"]]
            for p in passes]
    per_item = [statistics.median(p[k] for p in norm) for k in range(len(norm[0]))]
    metrics = {"wall_s": statistics.median(sum(p) for p in norm),
               "item_p50_s": statistics.median(per_item),
               "item_max_s": max(per_item),
               "setup_s": statistics.median(
                   raw * speed.COLD_REF_S / (0.5 * (a + b)) for raw, a, b in setup),
               "peak_rss_mb": result["peak_rss_mb"]}
    raw = {"wall_s": statistics.median(sum(r["seconds"] for r in p["records"])
                                       for p in passes),
           "ref_s": statistics.median(x for p in passes for x in p["ref_s"]),
           "setup_s": statistics.median(r[0] for r in setup)}
    return metrics, per_item, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "qbdtail" / "cli.py").is_file():
        sys.stderr.write("perfbench: no src/qbdtail in the current directory; "
                         "run from the root of a qbdtail checkout\n")
        return 2
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    items = gen.generate(args.workload, args.seed, work / "models")
    for it in items:   # the CLI sees checkout-relative paths
        it["argv"] = [os.path.relpath(a, root) if a.startswith(str(root)) else a
                      for a in it["argv"]]

    try:
        setup = [] if args.trace else measure_setup(root, items[0]["argv"][1], deadline)
        job = {"src": str(root / "src"), "items": items, "seconds": args.seconds,
               "trace": bool(args.trace), "spans": str(work / "spans.npz")}
        result = run_worker(root, job, work, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted, failures, observations = evaluate(items, result)
    rel_gaps = [o["solver_rel_gap"] for o in observations
                if o.get("solver_rel_gap") is not None]
    env = result["env"]
    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}")
    print("env = " + json.dumps(env, sort_keys=True))
    print(f"numba = {str(env['numba']).lower()} (oracle.simulate uses the JIT "
          "stepper when present: runs that differ in numba are not comparable)")
    for k, it in enumerate(items):
        secs = [p["records"][k]["seconds"] for p in result["passes"]]
        print(f"item {it['id']}  {it['family']:<14} order={it['order']} "
              f"gap={it['spectral_gap']} rho={it['rho']}  "
              f"{it['command']:<11}  "
              f"t={statistics.median(secs):.3f}s")
    for f in failures:
        print(f"FAILED {f['item']} pass {f['pass']}: " + "; ".join(f["reasons"]))
    error_rate = len(failures) / attempted
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": env, "items": items, "failures": failures,
               "observations": observations, "attempted": attempted,
               "error_rate": error_rate}

    if args.trace:
        tr = result["traced"]
        metrics = dict(tr["metrics"])
        metrics["trace.overhead_s"] = tr["wall_s"] - result["passes"][0]["wall_s"]
        metrics["oracle.slope_rel_gap_max"] = max(rel_gaps) if rel_gaps else 0.0
        layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
        out = {name: {"value": value, "unit": layers["per_layer"][name]["unit"]}
               for name, value in metrics.items()}
        summary["absent"] = tr["absent"]
        print("absent names = " + (", ".join(tr["absent"]) or "none"))
    else:
        metrics, per_item, raw = end_to_end(result, setup)
        summary.update(setup_runs=setup, item_seconds=per_item,
                       passes=len(result["passes"]), raw=raw)
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END}
        print(f"passes = {len(result['passes'])}  items = {len(items)}  "
              "pass_s = " + " ".join(f"{p['wall_s']:.3f}" for p in result["passes"]))
        print(f"raw (not normalized): wall_s = {raw['wall_s']:.6g} s  "
              f"reference loop = {raw['ref_s']:.6g} s (REF_S = {speed.REF_S} s)  "
              f"setup_s = {raw['setup_s']:.6g} s")
        if rel_gaps:
            print(f"oracle.slope_rel_gap_max = {max(rel_gaps):.6g} "
                  "(known truncated-solver defect, reported, not gated)")
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {error_rate:.6g} fraction "
          f"({len(failures)} failed of {attempted} attempted)")

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
