"""Reference checks of the CLI reports, independent of the code under test.

The checker reads the printed ``key = value`` lines (and the boundary CSV)
and compares them with references built here with plain numpy from the
generated parameters:

- product-form models (reversible scalar walks, exponential Jackson
  networks): closed-form tau and directional rates;
- every 2-d model: each reported tau_i lies in the projection of the
  convergence domain, and every rate obeys the box bound min_i tau_i/c_i;
- Jackson reports: dual-path discrepancy and certificates;
- boundary rows: on the level set, by the benchmark's own MGF assembly;
- 1-d QBDs: the tilting-interval endpoints are roots of sp(A(theta)) = 1;
- verify: solver residual, closed-form tau, and the simulated slope within
  the statistical tolerance ``SIM_REL_TOL``.

``check`` returns a list of failure messages (empty when the item passes)
and a dict of observations that are reported but not gated.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

TAU_TOL = 1e-9            # closed-form tau and rates (12 printed digits)
LEVEL_TOL = 1e-9          # boundary rows and interval endpoints on the level set
DOMAIN_TOL = 1e-9
DISCREPANCY_TOL = 1e-6    # Jackson analytic vs generic path
CERT_TOL = 1e-8
RESIDUAL_TOL = 1e-12      # truncated solver balance residual
# Simulated slope vs analytic tau, relative.  Derived with
# ``python3 perfbench/calibrate.py 1 10`` (boundary-verify seeds 1-10, 30
# verify items): the largest gap was 0.45, on the slow-tail exponential
# network; the tolerance is twice that, rounded up to a multiple of 0.05.
SIM_REL_TOL = 0.9

CATEGORIES = {"I", "II_1", "II_2"}
CLASSES = {"t_positive", "t_null_or_transient"}

_NUM = r"([-+0-9.eE]+|nan|inf|-inf)"


def parse(text: str):
    """Split a report into ``key = value`` pairs and the other lines."""
    pairs, other = {}, []
    for line in text.splitlines():
        m = re.fullmatch(r"([A-Za-z0-9_]+) = (.*)", line)
        if m:
            pairs[m.group(1)] = m.group(2)
        else:
            other.append(line)
    return pairs, other


def _directions(other):
    out = {}
    pat = re.compile(rf"direction {_NUM},{_NUM}: rate = {_NUM}"
                     rf"(?: generic = {_NUM})?(?: discrepancy = {_NUM})?")
    for line in other:
        m = pat.fullmatch(line)
        if m:
            c = (float(m.group(1)), float(m.group(2)))
            out[c] = [None if g is None else float(g) for g in m.groups()[2:]]
    return out


# -- independent level functions -------------------------------------------------------


def _dominant(a: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(a).real))


def level_function(item: dict):
    """(gamma, level) for the item's model, assembled from its parameters."""
    if item["kind"] == "qbd2d_discrete":
        mv = np.array(item["moves"])
        sw = np.array(item["switch"])

        def gamma(t1, t2):
            right, left, up, down = mv.T
            stay = 1.0 - mv.sum(axis=1)
            w = (right * math.exp(t1) + left * math.exp(-t1)
                 + up * math.exp(t2) + down * math.exp(-t2) + stay)
            return _dominant(w[:, None] * sw)
        return gamma, 1.0
    if item["kind"] == "jackson":
        jk = item["jackson"]
        arr = [(np.array(a["t"]), np.array(a["u"])) for a in jk["arrivals"]]
        srv = []
        for s in jk["services"]:
            sm, beta = np.array(s["s"]), np.array(s["beta"])
            srv.append((sm, np.outer(-sm.sum(axis=1), beta)))
        r12, r21 = jk["r12"], jk["r21"]

        def gamma(t1, t2):
            f1 = math.exp(-t1) * ((1.0 - r12) + math.exp(t2) * r12)
            f2 = math.exp(-t2) * ((1.0 - r21) + math.exp(t1) * r21)
            return (_dominant(arr[0][0] + math.exp(t1) * arr[0][1])
                    + _dominant(arr[1][0] + math.exp(t2) * arr[1][1])
                    + _dominant(srv[0][0] + f1 * srv[0][1])
                    + _dominant(srv[1][0] + f2 * srv[1][1]))
        return gamma, 0.0
    if item["kind"] == "qbd1d":
        b = {k: np.array(v) for k, v in item["blocks"].items()}

        def gamma(t, _unused=0.0):
            return _dominant(math.exp(-t) * b["am1"] + b["a0"] + math.exp(t) * b["a1"])
        return gamma, 1.0
    raise ValueError(item["kind"])


def _convex_min(f, x0=0.0, step=0.5, tol=1e-10):
    """Minimum value of a convex scalar function: walk downhill with
    doubling steps until bracketed, then golden-section search."""
    a, m, b = x0 - step, x0, x0 + step
    fa, fm, fb = f(a), f(m), f(b)
    for _ in range(100):
        if fm <= fa and fm <= fb:
            break
        if fa < fm:
            b, fb = m, fm
            m, fm = a, fa
            a = m - 2.0 * (b - m)
            fa = f(a)
        else:
            a, fa = m, fm
            m, fm = b, fb
            b = m + 2.0 * (m - a)
            fb = f(b)
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return min(fc, fd)


def _tau_in_domain(item, tau, fails):
    gamma, level = level_function(item)
    for i, t in enumerate(tau):
        if not t > 0:
            fails.append(f"tau{i + 1} = {t} is not positive")
            continue
        if i == 0:
            low = _convex_min(lambda x: gamma(t, x))
        else:
            low = _convex_min(lambda x: gamma(x, t))
        if low > level + DOMAIN_TOL:
            fails.append(f"tau{i + 1} = {t} outside the convergence domain "
                         f"(min gamma {low:.3e} above level {level})")


def _check_rates(item, tau, dirs, fails, generic=False):
    ref = item["ref"].get("tau")
    for c, (rate, rate_generic, disc) in dirs.items():
        box = min(tau[i] / c[i] for i in range(2) if c[i] > 0)
        if not rate > 0 or rate > box + TAU_TOL:
            fails.append(f"direction {c}: rate {rate} outside (0, {box}]")
        if ref is not None:
            want = min(ref[i] / c[i] for i in range(2) if c[i] > 0)
            if abs(rate - want) > TAU_TOL:
                fails.append(f"direction {c}: rate {rate} != closed form {want}")
        if generic:
            if rate_generic is None or abs(rate - rate_generic) > DISCREPANCY_TOL:
                fails.append(f"direction {c}: generic rate {rate_generic} "
                             f"disagrees with {rate}")
            if disc is not None and disc > DISCREPANCY_TOL:
                fails.append(f"direction {c}: discrepancy {disc}")


def _check_decay(item, pairs, other, fails):
    if item["kind"] == "qbd1d":
        return _check_qbd1d(item, pairs, fails)
    if pairs.get("category") not in CATEGORIES:
        fails.append(f"category {pairs.get('category')!r}")
    tau = (float(pairs["tau1"]), float(pairs["tau2"]))
    ref = item["ref"].get("tau")
    if ref is not None:
        for i in range(2):
            if abs(tau[i] - ref[i]) > TAU_TOL:
                fails.append(f"tau{i + 1} = {tau[i]} != closed form {ref[i]}")
    _tau_in_domain(item, tau, fails)
    jackson = item["kind"] == "jackson"
    if jackson:
        disc = float(pairs["max_path_discrepancy"])
        if not disc <= DISCREPANCY_TOL:
            fails.append(f"max_path_discrepancy = {disc}")
        if "tau1_generic" in pairs:
            for i in (1, 2):
                if abs(float(pairs[f"tau{i}_generic"]) - tau[i - 1]) > DISCREPANCY_TOL:
                    fails.append(f"tau{i}_generic disagrees")
    dirs = _directions(other)
    want = {tuple(float(x) for x in d.split(",")) for d in item["directions"]}
    if set(dirs) != want:
        fails.append(f"direction lines {sorted(dirs)} != {sorted(want)}")
    _check_rates(item, tau, dirs, fails, generic=jackson)


def _interval(text):
    m = re.fullmatch(rf"\[{_NUM}, {_NUM}\]", text)
    return (float(m.group(1)), float(m.group(2))) if m else None


def _check_qbd1d(item, pairs, fails):
    gamma, level = level_function(item)
    iv = _interval(pairs["gamma_plus_interval"])
    sh = _interval(pairs["superharmonic_interval"])
    if iv is None or sh is None:
        fails.append("empty interval reported for a stable QBD")
        return
    for name, t in zip(("lo", "hi"), iv):
        if abs(gamma(t) - level) > LEVEL_TOL:
            fails.append(f"gamma_plus_interval {name} = {t}: sp(A) = {gamma(t)}")
    if not iv[1] > 0:
        fails.append(f"decay rate {iv[1]} not positive")
    if abs(float(pairs["tail_decay_rate"]) - iv[1]) > 0:
        fails.append("tail_decay_rate differs from the interval's upper end")
    if sh[0] < iv[0] - LEVEL_TOL or sh[1] > iv[1] + LEVEL_TOL:
        fails.append(f"superharmonic interval {sh} not inside {iv}")
    if pairs.get("classification") not in CLASSES:
        fails.append(f"classification {pairs.get('classification')!r}")


def _check_verify(item, pairs, other, fails, obs):
    if int(pairs["extent"]) != item["extent"]:
        fails.append("extent line disagrees with --extent")
    resid = float(pairs["solver_residual"])
    if not resid <= RESIDUAL_TOL:
        fails.append(f"solver_residual = {resid}")
    ref = item["ref"]["tau"]
    solver = re.compile(rf"coordinate ([12]): analytic = {_NUM} slope = {_NUM} "
                        rf"rel_gap = {_NUM} r2 = {_NUM}")
    sim = re.compile(rf"coordinate ([12]) \(simulated, seed \d+\): "
                     rf"slope = {_NUM} rel_gap = {_NUM}")
    seen_solver, seen_sim = set(), set()
    gaps, sim_gaps = [], []
    for line in other:
        m = solver.fullmatch(line)
        if m:
            i = int(m.group(1))
            seen_solver.add(i)
            if abs(float(m.group(2)) - ref[i - 1]) > TAU_TOL:
                fails.append(f"analytic tau{i} = {m.group(2)} != closed form "
                             f"{ref[i - 1]}")
            gaps.append(float(m.group(4)))
            continue
        m = sim.fullmatch(line)
        if m:
            i = int(m.group(1))
            seen_sim.add(i)
            slope = float(m.group(2))
            rel = abs(slope - ref[i - 1]) / ref[i - 1]
            sim_gaps.append(rel)
            if not rel <= SIM_REL_TOL:
                fails.append(f"simulated slope {slope} vs tau{i} {ref[i - 1]}: "
                             f"rel gap {rel:.3f} > {SIM_REL_TOL}")
    if seen_solver != {1, 2}:
        fails.append("solver slope lines missing")
    if seen_sim != {1, 2}:
        fails.append("simulated slope lines missing")
    if "max_rel_gap_solver" not in pairs:
        fails.append("max_rel_gap_solver missing")
    obs["solver_rel_gap"] = max(gaps) if gaps else None
    obs["sim_rel_gap"] = max(sim_gaps) if sim_gaps else None


def _check_boundary(item, pairs, fails):
    path = item["argv"][item["argv"].index("--out") + 1]
    want_rows = int(item["argv"][item["argv"].index("--samples") + 1])
    gamma, level = level_function(item)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["theta1", "theta2_lower", "theta2_upper", "feasible_C1",
                   "feasible_C2"]:
        fails.append(f"CSV header {rows[0]}")
        return
    body = rows[1:]
    if int(pairs.get("rows", -1)) != len(body) or len(body) != want_rows:
        fails.append(f"{len(body)} CSV rows, report says {pairs.get('rows')}, "
                     f"asked for {want_rows}")
    worst = 0.0
    for r in body:
        t1, lo, hi = float(r[0]), float(r[1]), float(r[2])
        if lo > hi or r[3] not in ("0", "1") or r[4] not in ("0", "1"):
            fails.append(f"bad row {r}")
            break
        worst = max(worst, abs(gamma(t1, lo) - level), abs(gamma(t1, hi) - level))
    if worst > LEVEL_TOL:
        fails.append(f"boundary row off the level set by {worst:.3e}")


def _check_certificate(item, pairs, fails):
    if int(pairs["points"]) != int(item["argv"][item["argv"].index("--points") + 1]):
        fails.append("points line disagrees with --points")
    if pairs.get("certified") != "true":
        fails.append("certified != true")
    for key in ("max_residual_upper", "max_residual_lower"):
        if not float(pairs[key]) <= CERT_TOL:
            fails.append(f"{key} = {pairs[key]}")


def check(item: dict, record: dict):
    """(failures, observations) for one item's first-pass record."""
    fails, obs = [], {}
    if record.get("error"):
        e = record["error"]
        return [f"exception {e['type']}: {e['message']}"], obs
    if record.get("code") != 0:
        return [f"exit code {record.get('code')}: {record.get('stderr', '').strip()}"], obs
    pairs, other = parse(record["stdout"])
    try:
        command = item["command"]
        if command in ("decay", "jackson"):
            _check_decay(item, pairs, other, fails)
        elif command == "verify":
            _check_verify(item, pairs, other, fails, obs)
        elif command == "boundary":
            _check_boundary(item, pairs, fails)
        elif command == "certificate":
            _check_certificate(item, pairs, fails)
        else:
            fails.append(f"unknown command {command}")
    except (KeyError, ValueError, IndexError, OSError) as exc:
        fails.append(f"malformed report: {type(exc).__name__}: {exc}")
    return fails, obs
