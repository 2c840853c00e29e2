"""Workload process: runs a job's items through ``qbdtail.cli.main``.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``

The job names the package source directory, the items (argv lists), the
measuring time and whether to trace.  All ``qbdtail`` modules are imported
before the clock starts, so the timings are those of a warm interpreter
analysing a model set.  Untraced, the items are run in passes for the
measuring time: another pass starts only if, at the length of the last one,
it would end within that time, and there are at least ``MIN_PASSES``.
Traced, one untraced pass is followed by one traced pass; their wall-time
difference is the tracing overhead.  Every item is bracketed by the
host-speed reference loop of ``speed.py``.

Every exception escaping ``cli.main`` is recorded with its type and message
and the run goes on; ``SystemExit`` (argument errors) is recorded as the
exit code it carries.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
from importlib import metadata, util

from speed import reference_s

MIN_PASSES = 2
MODULES = ("cli", "modelfile", "matcore", "qbd1d", "qbd2d", "levelset",
           "jackson", "oracle")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "pyyaml": version("PyYAML"),
            "numba": util.find_spec("numba") is not None,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def run_item(call, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record = {"code": None, "error": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["code"] = call(argv)
    except SystemExit as exc:
        record["code"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the benchmark must keep going: record and continue
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
    record["seconds"] = time.perf_counter() - t0
    record["stdout"] = out.getvalue()
    record["stdout_sha256"] = hashlib.sha256(record["stdout"].encode()).hexdigest()
    record["stderr"] = err.getvalue()[-2000:]
    return record


def run_pass(items, call) -> dict:
    """One pass over the items; ``call(k, argv)`` runs item k.  The
    reference loop runs before the first item and after every item."""
    t0 = time.perf_counter()
    refs = [reference_s()]
    records = []
    for k, it in enumerate(items):
        records.append(run_item(lambda argv, k=k: call(k, argv), it["argv"]))
        refs.append(reference_s())
    return {"wall_s": time.perf_counter() - t0, "records": records, "ref_s": refs}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    try:
        mods = {name: importlib.import_module(f"qbdtail.{name}") for name in MODULES}
    except ImportError as exc:
        sys.stderr.write(f"cannot import qbdtail from {job['src']}: {exc}\n")
        return 2
    cli = mods["cli"]
    items = job["items"]
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(items, lambda k, argv: cli.main(argv)))
        if job["trace"]:
            break
        # start another pass only if it should end within the measuring time
        elapsed = time.perf_counter() - t0
        if (len(passes) >= MIN_PASSES
                and elapsed + passes[-1]["wall_s"] > job["seconds"]):
            break
    result = {"env": environment(), "passes": [], "traced": None}
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, summarize

        tracer = Tracer()
        tracer.install(mods)
        try:
            traced = run_pass(items,
                              lambda k, argv: tracer.call(k, cli.main, argv))
        finally:
            tracer.uninstall()
        tracer.save(job["spans"])
        result["traced"] = {
            "wall_s": traced["wall_s"],
            "records": [_strip(r) for r in traced["records"]],
            "metrics": summarize(tracer),
            "absent": tracer.absent(),
            "installed": len(tracer.installed),
        }
    # keep the first pass's full output; later passes only by digest
    for k, p in enumerate(passes):
        result["passes"].append({"wall_s": p["wall_s"], "ref_s": p["ref_s"],
                                 "records": [r if k == 0 else _strip(r)
                                             for r in p["records"]]})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "stdout"}


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
