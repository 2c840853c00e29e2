"""Command-line interface.

Subcommands: ``validate``, ``stability``, ``decay``, ``boundary``,
``jackson`` and ``verify``.  All reports are deterministic plain-text
records; the boundary command writes CSV.  Exit codes: 0 success, 2 invalid
model or input, 3 numerical failure.

The environment variable ``QBDTAIL_TOL`` (default 1e-12) sets the tolerance
of the validation row-sum check and the oracle solver.  It is read with the
command line, and anything but a finite positive number exits 2.
``verify --extent`` and ``boundary --samples`` are at least 3, the fewest
points of a tail fit and of a two-branch table.  ``verify --level`` may not
exceed ``--extent``, and ``--phase`` must be below the phase count of the
fitted cells: min(m1, m2) at level 0, m above.  ``--scan``, ``--points``
and ``--samples`` set one array's length each and are at most ``MAX_COUNT``.
``verify`` refuses (exit 2) a box of (extent + 1)^2 max(dims) states above
``MAX_STATES`` = 200,000; a box that memory cannot hold exits 3.
``verify --steps N`` (N > 0) runs its simulation in a forked child while the
parent computes the analytic curve and the truncated solve (``_in_child``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import modelfile, qbd2d
from .errors import (ChildFailed, NoConvergence, ParseError, QbdTailError,
                     SchemaError, Unstable, ZeroDirection)

# jackson, levelset, oracle and qbd1d are imported by the commands that run
# them, so a command's cold start compiles and executes only its own layers

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
MAX_COUNT = 65536
MAX_STATES = 200_000   # above mapph_jackson at extent 150, 181,203 states


# the digits of every printed float: reports and boundary CSV rows
_DIGITS = ".12g"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):{_DIGITS}}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def _emit(out, key, value):
    out.write(f"{key} = {_fmt(value)}\n")


def _int_in(low: int, high: float):
    """argparse type: an integer from ``low`` to ``high`` (else exit 2)."""
    bound = f">= {low}" + ("" if high == math.inf else f" and <= {high}")

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected an integer {bound}, got {text!r}")
        return value
    return parse


def _parse_direction(text: str):
    from .levelset import checked_direction
    try:
        c = checked_direction([float(p) for p in text.split(",")])
    except (ValueError, ZeroDirection) as exc:
        raise SchemaError(f"bad direction {text!r}; expected c1,c2: {exc}") from exc
    return float(c[0]), float(c[1])


def _directions(args) -> list:
    return ([_parse_direction(d) for d in args.direction]
            or [(1.0, 0.0), (0.0, 1.0)])


def _print_decay(out, rep, dual: bool) -> None:
    """One decay report: a ``levelset.Decay``, or with ``dual`` a
    ``jackson.JacksonDecay`` whose generic path is printed beside the
    analytic one."""
    dec = rep.analytic if dual else rep
    _emit(out, "category", dec.tau_report.category)
    _emit(out, "tau1", dec.tau_report.tau[0])
    _emit(out, "tau2", dec.tau_report.tau[1])
    if dual:
        _emit(out, "tau1_generic", rep.generic.tau_report.tau[0])
        _emit(out, "tau2_generic", rep.generic.tau_report.tau[1])
        _emit(out, "max_path_discrepancy", rep.max_discrepancy)
    for k, (c, rate) in enumerate(zip(dec.directions, dec.rates)):
        line = f"direction {_fmt(c[0])},{_fmt(c[1])}: rate = {_fmt(rate)}"
        if dual:
            generic = rep.generic.rates[k]
            line += (f" generic = {_fmt(generic)}"
                     f" discrepancy = {_fmt(abs(rate - generic))}")
        out.write(line + "\n")


def _violation_line(v) -> str:
    where = "".join(v.family) + ("" if v.increment is None else f" {v.increment}")
    return f"{v.kind} at family {where}: {v.detail}"


def _load(args) -> modelfile.ModelFile:
    """The model file; a qbd2d spec that ``validate`` rejects is an input
    error here too."""
    mf = modelfile.load_model(args.file)
    if mf.kind in ("qbd2d_discrete", "qbd2d_continuous"):
        violations = qbd2d.validate_spec(mf.payload, tol=args.tol)
        if violations:
            raise SchemaError(f"{len(violations)} violation(s), first "
                              f"{_violation_line(violations[0])}")
    return mf


def _spec_2d(mf: modelfile.ModelFile) -> qbd2d.Qbd2dSpec:
    if mf.kind == "jackson":
        return mf.payload.blocks
    if mf.kind in ("qbd2d_discrete", "qbd2d_continuous"):
        return mf.payload
    raise SchemaError(f"command not supported for kind {mf.kind!r}")


def cmd_validate(args, out) -> int:
    mf = modelfile.load_model(args.file)
    _emit(out, "kind", mf.kind)
    if mf.kind == "qbd1d":
        _emit(out, "violations", 0)
        _emit(out, "valid", True)
        return EXIT_OK
    violations = qbd2d.validate_spec(_spec_2d(mf), tol=args.tol)
    _emit(out, "violations", len(violations))
    for v in violations:
        out.write(f"violation = {_violation_line(v)}\n")
    _emit(out, "valid", not violations)
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_stability(args, out) -> int:
    mf = _load(args)
    if mf.kind == "qbd1d":
        from . import qbd1d
        k = mf.payload
        drift = qbd1d.mean_drift(k)
        _emit(out, "mean_drift", drift)
        _emit(out, "stable", drift < 0)
        return EXIT_OK
    if mf.kind == "jackson":
        from . import jackson as jk
        tr = jk.traffic_check(mf.payload)
        _emit(out, "rho1", tr.rho[0])
        _emit(out, "rho2", tr.rho[1])
        _emit(out, "verdict", "stable" if tr.stable else "unstable")
        return EXIT_OK
    st = qbd2d.stability_check(mf.payload)
    _emit(out, "mu1", st.mu[0])
    _emit(out, "mu2", st.mu[1])
    for i, drift in st.induced.items():
        _emit(out, f"induced_mu{i}", drift)
    _emit(out, "verdict", st.verdict)
    return EXIT_OK


def cmd_decay(args, out) -> int:
    mf = _load(args)
    directions = _directions(args)
    if mf.kind == "qbd1d":
        from . import qbd1d
        k = mf.payload
        iv = qbd1d.gamma1d_plus(k)
        _emit(out, "gamma_plus_interval", f"[{_fmt(iv.lo)}, {_fmt(iv.hi)}]"
              if not iv.empty else "empty")
        zp = qbd1d.gamma1d_0plus(k)
        _emit(out, "superharmonic_interval",
              f"[{_fmt(zp.lo)}, {_fmt(zp.hi)}]" if not zp.empty else "empty")
        if not iv.empty:
            _emit(out, "tail_decay_rate", iv.hi)
        _emit(out, "classification", qbd1d.classify_recurrence(k))
        return EXIT_OK
    if mf.kind == "jackson":
        from . import jackson as jk
        _print_decay(out, jk.decay_report(mf.payload, directions,
                                          scan=args.scan), dual=True)
    else:
        _print_decay(out, qbd2d.decay_rates(mf.payload, directions,
                                            scan=args.scan), dual=False)
    return EXIT_OK


def cmd_boundary(args, out) -> int:
    from .levelset import boundary_rows
    mf = _load(args)
    scan = min(qbd2d.DEFAULT_SCAN, args.samples)
    if mf.kind == "jackson":
        from . import jackson as jk
        curve = jk.analytic_curve(mf.payload, scan=scan)
    else:
        curve = qbd2d.level_curve(_spec_2d(mf), scan=scan)
    rows = boundary_rows(curve, args.samples)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("theta1,theta2_lower,theta2_upper,feasible_C1,feasible_C2\n"
                     + "".join(f"{t1:{_DIGITS}},{lo:{_DIGITS}},{hi:{_DIGITS}},"
                               f"{f1:d},{f2:d}\n"
                               for t1, lo, hi, f1, f2 in rows))
    except OSError as exc:
        raise SchemaError(f"cannot write --out {args.out}: {exc.strerror}") from None
    _emit(out, "rows", len(rows))
    _emit(out, "written", args.out)
    return EXIT_OK


def cmd_jackson(args, out) -> int:
    mf = _load(args)
    if mf.kind != "jackson":
        raise SchemaError("jackson command requires a jackson model file")
    from . import jackson as jk
    spec = mf.payload
    if args.subcommand == "traffic":
        tr = jk.traffic_check(spec)
        _emit(out, "lambda1", tr.lam[0])
        _emit(out, "lambda2", tr.lam[1])
        _emit(out, "mean_service1", tr.mean_service[0])
        _emit(out, "mean_service2", tr.mean_service[1])
        _emit(out, "mu1", tr.mu[0])
        _emit(out, "mu2", tr.mu[1])
        _emit(out, "rho1", tr.rho[0])
        _emit(out, "rho2", tr.rho[1])
        _emit(out, "stable", tr.stable)
        return EXIT_OK
    if args.subcommand == "decay":
        _print_decay(out, jk.decay_report(spec, _directions(args),
                                          scan=args.scan), dual=True)
        return EXIT_OK
    curve = jk.analytic_curve(spec, scan=args.points)
    cert = jk.assumption3_certificate(spec, curve.scan_points)
    _emit(out, "points", args.points)
    _emit(out, "max_residual_upper", cert.residual_upper.max())
    _emit(out, "max_residual_lower", cert.residual_lower.max())
    _emit(out, "max_c0_error", cert.c0_error.max())
    _emit(out, "certified", cert.ok.all())
    return EXIT_OK


def _fork_usable() -> bool:
    """``os.fork`` exists and more than one CPU is usable."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:   # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


@functools.cache
def _prctl():
    """libc's ``prctl`` through ``ctypes``, looked up once per process, or
    None where libc has none (not Linux)."""
    import ctypes
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    return prctl


_PR_SET_PDEATHSIG = 1


@contextlib.contextmanager
def _in_child(fn, fork: bool = True):
    """Run ``fn()`` in a forked child while the ``with`` body runs; yields
    ``result()``, which waits for the child and returns fn's value or
    re-raises its exception there, in the parent.

    The child pickles its outcome down a pipe and ends with ``os._exit``, so
    it runs no exit handlers and flushes no buffer it inherited.  A child
    that ends without an outcome is ``ChildFailed``.  A body that raises
    kills and reaps the child before the exception propagates.  Where libc
    has ``prctl`` (Linux), the child asks for SIGKILL when its parent dies
    (``PR_SET_PDEATHSIG``), and exits at once if the parent died before
    that request, so a parent killed by a signal leaves no child.  Without
    ``fork``, or where ``_fork_usable`` is false, ``result`` is ``fn``
    itself, run inline when it is called.
    """
    if not (fork and _fork_usable()):
        yield fn
        return
    import pickle
    import signal
    prctl, parent = _prctl(), os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            if prctl is not None:
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
            if os.getppid() == parent:
                try:
                    outcome = (True, fn())
                except BaseException as exc:
                    outcome = (False, exc)
                with os.fdopen(write_fd, "wb") as pipe:
                    pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    running = True

    def result():
        nonlocal running
        data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        running = False
        if status != 0:
            raise ChildFailed(f"the forked child ended with exit status {status} "
                              "before sending its result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_verify(args, out) -> int:
    mf = _load(args)
    spec2d = _spec_2d(mf)
    phases = min(qbd2d._cell_phases(spec2d.dims, 1, args.level),
                 qbd2d._cell_phases(spec2d.dims, args.level, 1))
    if args.level > args.extent or args.phase >= phases:
        raise SchemaError(f"need --level <= --extent ({args.extent}) and --phase "
                          f"< {phases}, the phase count at that level")
    states = (args.extent + 1) ** 2 * max(spec2d.dims)
    if states > MAX_STATES:
        raise SchemaError(f"--extent {args.extent} bounds the box at {states} "
                          f"states, above the cap of {MAX_STATES}")
    from . import oracle
    if mf.kind == "jackson":
        from . import jackson as jk
        traffic = jk.traffic_check(mf.payload)
        if not traffic.stable:
            raise Unstable(f"utilizations {traffic.rho} not both below one")
    # the simulation needs neither the analytic taus nor the solve: a child
    # forked here runs it meanwhile, before the LU factors exist to be copied
    simulation = functools.partial(oracle.simulate, spec2d, seed=args.seed,
                                   steps=args.steps,
                                   record_extent=(args.extent, args.extent))
    with _in_child(simulation, fork=args.steps > 0) as simulated:
        # the analytic taus, under the stability checks that ``decay`` applies
        if mf.kind == "jackson":
            tau = jk.analytic_curve(mf.payload, scan=args.scan).tau_report().tau
        else:
            tau = qbd2d.decay_rates(spec2d, [], scan=args.scan).tau_report.tau
        try:
            table = oracle.truncate_and_solve(spec2d, (args.extent,) * 2,
                                              tol=args.tol)
        except MemoryError:
            raise NoConvergence(f"out of memory for a box of up to {states} "
                                "states") from None
        _emit(out, "extent", args.extent)
        _emit(out, "solver_residual", table.residual)
        worst = 0.0
        for i in (1, 2):
            est = oracle.estimate_decay(table, i, level=args.level,
                                        phase=args.phase)
            rel = abs(-est.slope - tau[i - 1]) / tau[i - 1]
            worst = max(worst, rel)
            out.write(f"coordinate {i}: analytic = {_fmt(tau[i - 1])} "
                      f"slope = {_fmt(-est.slope)} rel_gap = {_fmt(rel)} "
                      f"r2 = {_fmt(est.r_squared)}\n")
        if args.steps > 0:
            sim = simulated()
            for i in (1, 2):
                # the empirical tail has finite support; fit on its inner half
                tails = sim.tail_sequence(i, args.level, args.phase)
                support = np.nonzero(tails > 0)[0]
                if support.size < 8:
                    out.write(f"coordinate {i} (simulated, seed {args.seed}): "
                              f"insufficient data\n")
                    continue
                top = int(support[-1]) + 1
                est = oracle.estimate_decay(sim, i, level=args.level,
                                            phase=args.phase,
                                            window=(top // 4, (3 * top) // 4))
                rel = abs(-est.slope - tau[i - 1]) / tau[i - 1]
                out.write(f"coordinate {i} (simulated, seed {args.seed}): "
                          f"slope = {_fmt(-est.slope)} rel_gap = {_fmt(rel)}\n")
    _emit(out, "max_rel_gap_solver", worst)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Parses ``QBDTAIL_TOL`` with the command line, into ``args.tol``."""

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        text = os.environ.get("QBDTAIL_TOL") or "1e-12"
        try:
            ns.tol = float(text)
        except ValueError:
            ns.tol = math.nan
        if not 0 < ns.tol < math.inf:
            self.error(f"QBDTAIL_TOL must be a finite positive number, got {text!r}")
        return ns


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse leaves the
    tree unchanged (``append`` copies its default list), and ``QBDTAIL_TOL``
    is read on every ``parse_args``."""
    p = _Parser(
        prog="qbdtail",
        description="Tail decay rates of two-dimensional QBD processes "
                    "and generalized Jackson networks.")
    sub = p.add_subparsers(dest="command", required=True)
    scan = {"type": _int_in(1, MAX_COUNT), "default": qbd2d.DEFAULT_SCAN}

    sp = sub.add_parser("validate", help="check a model file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("stability", help="drift-based stability report")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("decay", help="directional decay rates")
    sp.add_argument("file")
    sp.add_argument("--direction", action="append", default=[],
                    metavar="C1,C2",
                    help="repeatable (default 1,0 and 0,1); a qbd1d file "
                         "checks it but does not use it")
    sp.add_argument("--scan", **scan,
                    help=f"1 to {MAX_COUNT} (default {qbd2d.DEFAULT_SCAN}); "
                         "unused on a qbd1d file")
    sp.set_defaults(func=cmd_decay)

    sp = sub.add_parser("boundary", help="boundary curve CSV")
    sp.add_argument("file")
    sp.add_argument("--samples", type=_int_in(3, MAX_COUNT), default=512)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("jackson", help="Jackson network reports")
    sp.add_argument("file")
    sp.add_argument("subcommand", choices=("traffic", "decay", "certificate"))
    sp.add_argument("--direction", action="append", default=[],
                    metavar="C1,C2")
    sp.add_argument("--scan", **scan)
    sp.add_argument("--points", type=_int_in(1, MAX_COUNT), default=32)
    sp.set_defaults(func=cmd_jackson)

    sp = sub.add_parser("verify", help="compare analytic rates with the "
                                       "truncated solver and simulator")
    sp.add_argument("file")
    sp.add_argument("--extent", type=_int_in(3, math.inf), default=100)
    sp.add_argument("--seed", type=_int_in(0, math.inf), default=20240801)
    sp.add_argument("--steps", type=_int_in(0, math.inf), default=0)
    sp.add_argument("--level", type=_int_in(0, math.inf), default=0)
    sp.add_argument("--phase", type=_int_in(0, math.inf), default=0)
    sp.add_argument("--scan", **scan)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ParseError, SchemaError) as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EXIT_INVALID
    except QbdTailError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
