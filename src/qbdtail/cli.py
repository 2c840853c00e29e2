"""Command-line interface.

Subcommands: ``validate``, ``stability``, ``decay``, ``boundary``,
``jackson`` and ``verify``.  All reports are deterministic plain-text
records; the boundary command writes CSV.  Exit codes: 0 success, 2 invalid
model, 3 numerical failure.

The environment variable ``QBDTAIL_TOL`` overrides the default numeric
tolerance used by the validation row-sum check and the oracle solver.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jackson as jk
from . import modelfile, oracle, qbd1d, qbd2d
from .errors import ParseError, QbdTailError, SchemaError, ZeroDirection
from .levelset import boundary_rows, checked_direction

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3


def _default_tol() -> float:
    value = os.environ.get("QBDTAIL_TOL")
    return float(value) if value else 1e-12


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _emit(out, key, value):
    out.write(f"{key} = {_fmt(value)}\n")


def _parse_direction(text: str):
    try:
        c = checked_direction([float(p) for p in text.split(",")])
    except (ValueError, ZeroDirection) as exc:
        raise SchemaError(f"bad direction {text!r}; expected c1,c2: {exc}") from exc
    return float(c[0]), float(c[1])


def _directions(args) -> list:
    return ([_parse_direction(d) for d in args.direction]
            or [(1.0, 0.0), (0.0, 1.0)])


def _print_decay(out, rep) -> None:
    """One decay report: a ``levelset.Decay``, or a ``jackson.JacksonDecay``
    whose generic path is printed beside the analytic one."""
    dual = isinstance(rep, jk.JacksonDecay)
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


def _load(path) -> modelfile.ModelFile:
    return modelfile.load_model(path)


def _spec_2d(mf: modelfile.ModelFile) -> qbd2d.Qbd2dSpec:
    if mf.kind == "jackson":
        return jk.build_blocks(mf.payload)
    if mf.kind in ("qbd2d_discrete", "qbd2d_continuous"):
        return mf.payload
    raise SchemaError(f"command not supported for kind {mf.kind!r}")


def cmd_validate(args, out) -> int:
    mf = _load(args.file)
    _emit(out, "kind", mf.kind)
    if mf.kind == "qbd1d":
        _emit(out, "violations", 0)
        _emit(out, "valid", True)
        return EXIT_OK
    if mf.kind == "jackson":
        spec = jk.build_blocks(mf.payload)
    else:
        spec = mf.payload
    violations = qbd2d.validate_spec(spec, tol=_default_tol())
    _emit(out, "violations", len(violations))
    for v in violations:
        where = "".join(v.family) + ("" if v.increment is None
                                     else f" {v.increment}")
        out.write(f"violation = {v.kind} at family {where}: {v.detail}\n")
    _emit(out, "valid", not violations)
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_stability(args, out) -> int:
    mf = _load(args.file)
    if mf.kind == "qbd1d":
        k = mf.payload
        drift = qbd1d.mean_drift(k)
        _emit(out, "mean_drift", drift)
        _emit(out, "stable", drift < 0)
        return EXIT_OK
    if mf.kind == "jackson":
        tr = jk.traffic_check(mf.payload)
        _emit(out, "rho1", tr.rho[0])
        _emit(out, "rho2", tr.rho[1])
        _emit(out, "verdict", "stable" if tr.stable else "unstable")
        return EXIT_OK
    spec = mf.payload
    mu = qbd2d.mean_drifts(spec)
    _emit(out, "mu1", mu[0])
    _emit(out, "mu2", mu[1])
    verdict = qbd2d.stability_check(spec)
    if verdict != "unstable":
        try:
            ind = qbd2d.induced_drifts(spec)
            _emit(out, "induced_mu1", ind[0])
            _emit(out, "induced_mu2", ind[1])
        except QbdTailError:
            pass
    _emit(out, "verdict", verdict)
    return EXIT_OK


def cmd_decay(args, out) -> int:
    mf = _load(args.file)
    directions = _directions(args)
    if mf.kind == "qbd1d":
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
        rep = jk.decay_report(mf.payload, directions, scan=args.scan)
    else:
        rep = qbd2d.decay_rates(mf.payload, directions, scan=args.scan)
    _print_decay(out, rep)
    return EXIT_OK


def cmd_boundary(args, out) -> int:
    mf = _load(args.file)
    if mf.kind == "jackson":
        curve = jk.analytic_curve(mf.payload, scan=min(192, args.samples))
    else:
        curve = qbd2d.level_curve(_spec_2d(mf), scan=min(192, args.samples))
    rows = boundary_rows(curve, args.samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("theta1,theta2_lower,theta2_upper,feasible_C1,feasible_C2\n")
        for r in rows:
            fh.write(f"{r.theta1:.12g},{r.theta2_lower:.12g},"
                     f"{r.theta2_upper:.12g},{int(r.feasible_c1)},"
                     f"{int(r.feasible_c2)}\n")
    _emit(out, "rows", len(rows))
    _emit(out, "written", args.out)
    return EXIT_OK


def cmd_jackson(args, out) -> int:
    mf = _load(args.file)
    if mf.kind != "jackson":
        raise SchemaError("jackson command requires a jackson model file")
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
                                          scan=args.scan))
        return EXIT_OK
    if args.subcommand == "certificate":
        curve = jk.analytic_curve(spec, scan=max(32, args.points))
        worst_upper = worst_lower = worst_c0 = 0.0
        phis = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
        for phi in phis:
            theta = curve.point_at(phi)
            cert = jk.assumption3_certificate(spec, theta)
            worst_upper = max(worst_upper, max(cert.residual_upper))
            worst_lower = max(worst_lower, max(cert.residual_lower))
            worst_c0 = max(worst_c0, max(cert.c0_error))
        _emit(out, "points", args.points)
        _emit(out, "max_residual_upper", worst_upper)
        _emit(out, "max_residual_lower", worst_lower)
        _emit(out, "max_c0_error", worst_c0)
        _emit(out, "certified", worst_upper <= 1e-8 and worst_lower <= 1e-8)
        return EXIT_OK
    raise SchemaError(f"unknown jackson subcommand {args.subcommand!r}")


def cmd_verify(args, out) -> int:
    mf = _load(args.file)
    spec2d = _spec_2d(mf)
    if mf.kind == "jackson":
        rep = jk.decay_report(mf.payload, [(1.0, 0.0), (0.0, 1.0)],
                              scan=args.scan)
        tau = rep.analytic.tau_report.tau
    else:
        tau = qbd2d.tau_report(spec2d, scan=args.scan).tau
    table = oracle.truncate_and_solve(spec2d, (args.extent, args.extent),
                                      tol=_default_tol())
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
        sim = oracle.simulate(spec2d, seed=args.seed, steps=args.steps,
                              record_extent=(args.extent, args.extent))
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qbdtail",
        description="Tail decay rates of two-dimensional QBD processes "
                    "and generalized Jackson networks.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a model file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("stability", help="drift-based stability report")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("decay", help="directional decay rates")
    sp.add_argument("file")
    sp.add_argument("--direction", action="append", default=[],
                    metavar="C1,C2")
    sp.add_argument("--scan", type=int, default=192)
    sp.set_defaults(func=cmd_decay)

    sp = sub.add_parser("boundary", help="boundary curve CSV")
    sp.add_argument("file")
    sp.add_argument("--samples", type=int, default=512)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("jackson", help="Jackson network reports")
    sp.add_argument("file")
    sp.add_argument("subcommand", choices=("traffic", "decay", "certificate"))
    sp.add_argument("--direction", action="append", default=[],
                    metavar="C1,C2")
    sp.add_argument("--scan", type=int, default=192)
    sp.add_argument("--points", type=int, default=32)
    sp.set_defaults(func=cmd_jackson)

    sp = sub.add_parser("verify", help="compare analytic rates with the "
                                       "truncated solver and simulator")
    sp.add_argument("file")
    sp.add_argument("--extent", type=int, default=100)
    sp.add_argument("--seed", type=int, default=20240801)
    sp.add_argument("--steps", type=int, default=0)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--phase", type=int, default=0)
    sp.add_argument("--scan", type=int, default=192)
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


if __name__ == "__main__":
    sys.exit(main())
