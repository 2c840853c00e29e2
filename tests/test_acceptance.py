"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output) and asserts the criterion.
"""

import sys
import time
import warnings

import numpy as np
import pytest

from qbdtail import jackson, matcore, oracle, qbd1d, qbd2d
from qbdtail.errors import BoundaryNotInvertible, NoConvergence

from conftest import mapph_jackson, product_form_jackson, tandem_jackson
from test_qbd1d import appendix_counterexample


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_counterexample_golden():
    t0 = time.monotonic()
    k = appendix_counterexample(p=0.2, q=0.1, r=0.3, s=0.5)
    res = qbd1d.g_minus(k)
    g_err = float(np.max(np.abs(res.g - np.array([[1.0, 0.0], [1.0, 0.0]]))))
    a1g = k.a1 @ res.g
    prod_err = float(np.max(np.abs(a1g - np.array([[0.3, 0.0], [0.0, 0.0]]))))
    x = float((a1g * k.a1).sum() / (k.a1 * k.a1).sum())  # best e^theta fit
    fit_resid = float(np.linalg.norm(a1g - x * k.a1))
    elapsed = time.monotonic() - t0
    ok = g_err <= 1e-10 and prod_err <= 1e-10 and fit_resid > 0.05 \
        and elapsed < 1.0
    report(1, ok, f"G err {g_err:.2e}, A1G err {prod_err:.2e}, "
                  f"tilt residual {fit_resid:.3f}, {elapsed:.2f}s")


def test_criterion_02_product_form_reproduction():
    t0 = time.monotonic()
    spec = product_form_jackson()
    tr = jackson.traffic_check(spec)
    expect = tuple(-np.log(r) for r in tr.rho)
    rep = jackson.decay_report(spec, [(1.0, 0.0), (0.0, 1.0)], scan=128)
    rate_err = max(abs(rep.analytic.rates[i] - expect[i]) for i in (0, 1))
    path_err = rep.max_discrepancy
    blocks = jackson.build_blocks(spec)
    table = oracle.truncate_and_solve(blocks, (120, 120))
    slope_rel = 0.0
    for i in (1, 2):
        est = oracle.estimate_decay(table, i, level=0, phase=0)
        slope_rel = max(slope_rel, abs(-est.slope - expect[i - 1]) / expect[i - 1])
    elapsed = time.monotonic() - t0
    ok = rate_err <= 1e-6 and path_err <= 1e-6 and slope_rel <= 0.02 \
        and elapsed < 60.0
    report(2, ok, f"rate err {rate_err:.2e}, path gap {path_err:.2e}, "
                  f"slope rel {slope_rel:.4f}, {elapsed:.1f}s")


def test_criterion_03_tandem_identity():
    spec = tandem_jackson()
    cs = jackson.cumulants(spec)
    point = (np.log(2.0), np.log(3.0))
    ident = abs(cs.gamma_plus(point))
    rep = jackson.decay_report(spec, [(1.0, 0.0)], scan=128)
    tau = rep.analytic.tau_report.tau
    tau_err = max(abs(tau[0] - point[0]), abs(tau[1] - point[1]))
    ok = ident <= 1e-10 and tau_err <= 1e-6
    report(3, ok, f"identity {ident:.2e}, tau err {tau_err:.2e}")


def test_criterion_04_mapph_oracle_and_certificates():
    t0 = time.monotonic()
    spec = mapph_jackson()
    rep = jackson.decay_report(spec, [(1.0, 0.0)], scan=128)
    blocks = jackson.build_blocks(spec)
    table = oracle.truncate_and_solve(blocks, (150, 150))
    est = oracle.estimate_decay(table, 1, level=0, phase=0,
                                window=oracle.regression_window(150))
    tau1 = rep.analytic.tau_report.tau[0]
    slope_rel = abs(-est.slope - tau1) / tau1
    curve = jackson.analytic_curve(spec, scan=64)
    worst_resid = 0.0
    for phi in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        cert = jackson.assumption3_certificate(spec, curve.point_at(phi))
        worst_resid = max(worst_resid, max(cert.residual_upper),
                          max(cert.residual_lower))
    elapsed = time.monotonic() - t0
    ok = slope_rel <= 0.05 and worst_resid <= 1e-8 and elapsed < 300.0
    report(4, ok, f"slope rel {slope_rel:.4f}, cert residual "
                  f"{worst_resid:.2e}, {elapsed:.1f}s")


def test_criterion_05_cp_kplus_truncation():
    # the raw level-truncated matrix is badly nonnormal (dense eigenvalues
    # land on pseudospectral contours); an exact diagonal similarity with
    # the geometric twist at the minimizing tilt balances it first
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for trial in range(20):
        m = int(rng.integers(1, 4))
        blocks = [rng.uniform(0.03, 0.35, size=(m, m)) for _ in range(3)]
        k = qbd1d.QbdBlocks(b0=np.zeros((m, m)), b1=np.eye(m) * 0.1,
                            bm1=np.eye(m) * 0.1,
                            am1=blocks[0], a0=blocks[1], a1=blocks[2])
        target = 1.0 / qbd1d.cp_kplus(k)
        theta_star, _ = qbd1d.convex_min_scalar(
            lambda t: qbd1d.gamma_a(k, t), 0.0)
        h = matcore.dominant(qbd1d.a_mgf(k, theta_star)).right
        tm1, t0, t1 = matcore.twist((k.am1, k.a0, k.a1), h, theta_star,
                                    (-1, 0, 1))
        levels = 200
        n = levels * m
        kp = np.zeros((n, n))
        for lev in range(levels):
            r = lev * m
            kp[r:r + m, r:r + m] = t0
            if lev + 1 < levels:
                kp[r:r + m, r + m:r + 2 * m] = t1
            if lev >= 1:
                kp[r:r + m, r - m:r] = tm1
        radius = float(np.max(np.abs(np.linalg.eigvals(kp))))
        assert radius <= target + 1e-10
        worst_gap = max(worst_gap, target - radius)
    ok = worst_gap <= 1e-3
    report(5, ok, f"20 instances, worst gap {worst_gap:.2e}")


def _random_map(rng):
    n = int(rng.integers(1, 3))
    u = np.diag(rng.uniform(0.2, 1.5, size=n))
    t_off = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(t_off, 0.0)
    t = t_off - np.diag(t_off.sum(axis=1) + u.sum(axis=1))
    return jackson.MapSpec(t=t, u=u)


def _random_ph(rng):
    k = int(rng.integers(1, 3))
    s_off = rng.uniform(0.0, 0.5, size=(k, k))
    np.fill_diagonal(s_off, 0.0)
    exit_rates = rng.uniform(0.5, 2.0, size=k)
    s = s_off - np.diag(s_off.sum(axis=1) + exit_rates)
    beta = rng.uniform(0.2, 1.0, size=k)
    return jackson.PhSpec(beta=beta / beta.sum(), s=s)


def _uniformized_mapph1_blocks(arr, ph):
    """Single MAP/PH/1 queue as a discrete QBD (level = queue length)."""
    n, k = arr.order, ph.order
    i_n, i_k = np.eye(n), np.eye(k)
    rate = 1.05 * max(float(np.max(-np.diag(arr.t))) + float(np.max(-np.diag(ph.s))),
                      1.0)
    b0 = np.eye(n) + arr.t / rate
    b1 = np.kron(arr.u, ph.beta[np.newaxis, :]) / rate
    bm1 = np.kron(i_n, ph.exit[:, np.newaxis]) / rate
    a1 = np.kron(arr.u, i_k) / rate
    a0 = np.eye(n * k) + matcore.kron_sum(arr.t, ph.s) / rate
    am1 = np.kron(i_n, ph.d_mat) / rate
    return qbd1d.QbdBlocks(b0=b0, b1=b1, bm1=bm1, am1=am1, a0=a0, a1=a1)


def test_criterion_06_cross_characterization():
    rng = np.random.default_rng(77)
    tested = disagreements = 0
    attempts = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        while tested < 100 and attempts < 600:
            attempts += 1
            if attempts % 2 == 0:
                # scalar interior with a wider boundary block
                m0 = int(rng.integers(1, 4))
                am1, a0, a1 = rng.uniform(0.05, 0.45, size=3)
                total = (am1 + a0 + a1) / rng.uniform(0.85, 1.2)
                am1, a0, a1 = am1 / total, a0 / total, a1 / total
                b0 = rng.uniform(0.05, 0.25, size=(m0, m0))
                b0 *= 0.5 / max(1.0, matcore.spectral_radius(b0))
                k = qbd1d.QbdBlocks(
                    b0=b0, b1=rng.uniform(0.05, 0.4, size=(m0, 1)),
                    bm1=rng.uniform(0.05, 0.4, size=(1, m0)),
                    am1=[[am1]], a0=[[a0]], a1=[[a1]])
            else:
                base = _uniformized_mapph1_blocks(_random_map(rng),
                                                  _random_ph(rng))
                k = qbd1d.scale(base, float(rng.uniform(0.9, 1.15)))
            plus = qbd1d.gamma1d_plus(k)
            if plus.empty or plus.hi - plus.lo < 1e-6:
                continue
            try:
                check = qbd1d.check_assumption1(k, plus.lo)
            except (qbd1d.ThetaOutsideGammaPlus, BoundaryNotInvertible):
                continue
            if not check.holds:
                continue
            try:
                via_g = qbd1d.superharmonic_exists_via_G(k)
                zero_plus = qbd1d.gamma1d_0plus(k)
            except (NoConvergence, BoundaryNotInvertible):
                continue
            tested += 1
            if via_g != (not zero_plus.empty):
                disagreements += 1
    ok = tested >= 100 and disagreements == 0
    report(6, ok, f"{tested} instances, {disagreements} disagreements")


def test_criterion_07_convexity_suite():
    rng = np.random.default_rng(55)
    # one-dimensional interior eigenvalue curve
    k = qbd1d.QbdBlocks(b0=[[0.1]], b1=[[0.1, 0.1]], bm1=[[0.1], [0.1]],
                        am1=rng.uniform(0.02, 0.3, (2, 2)),
                        a0=rng.uniform(0.02, 0.3, (2, 2)),
                        a1=rng.uniform(0.02, 0.3, (2, 2)))
    worst = 0.0
    for _ in range(1000):
        t1, t2 = rng.uniform(-1.5, 1.5, size=2)
        lam = rng.uniform(0.0, 1.0)
        gap = (qbd1d.gamma_a(k, lam * t1 + (1 - lam) * t2)
               - lam * qbd1d.gamma_a(k, t1) - (1 - lam) * qbd1d.gamma_a(k, t2))
        worst = max(worst, gap)
    # two-dimensional interior eigenvalue surface (uniformized MAP/PH blocks)
    blocks = jackson.build_blocks(mapph_jackson())
    disc = qbd2d.uniformize(blocks)
    for _ in range(1000):
        a = rng.uniform(-0.8, 0.8, size=2)
        b = rng.uniform(-0.8, 0.8, size=2)
        lam = rng.uniform(0.0, 1.0)
        gap = (qbd2d.gamma2(disc, lam * a + (1 - lam) * b)
               - lam * qbd2d.gamma2(disc, a)
               - (1 - lam) * qbd2d.gamma2(disc, b))
        worst = max(worst, gap)
    # cumulant sum of the continuous network
    cs = jackson.cumulants(mapph_jackson())
    for _ in range(1000):
        a = rng.uniform(-0.8, 0.8, size=2)
        b = rng.uniform(-0.8, 0.8, size=2)
        lam = rng.uniform(0.0, 1.0)
        gap = (cs.gamma_plus(lam * a + (1 - lam) * b)
               - lam * cs.gamma_plus(a) - (1 - lam) * cs.gamma_plus(b))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    report(7, ok, f"3000 midpoint trials, worst violation {worst:.2e}")


def test_criterion_08_dual_path_transforms():
    rng = np.random.default_rng(99)
    specs = []
    # five service/arrival pairs: exponential, Erlang-2, Erlang-3,
    # hyperexponential, and a random mix
    ph_list = [jackson.exponential_ph(2.5), jackson.erlang_ph(2, 3.0),
               jackson.erlang_ph(3, 4.5),
               jackson.PhSpec(beta=[0.4, 0.6], s=[[-1.0, 0.0], [0.0, -3.0]]),
               _random_ph(rng)]
    renewal_list = [
        jackson.poisson_map(1.3),
        jackson.MapSpec(t=[[-2.4, 2.4], [0.0, -2.4]],
                        u=[[0.0, 0.0], [2.4, 0.0]]),
        jackson.MapSpec(t=[[-3.0, 3.0, 0.0], [0.0, -3.0, 3.0],
                           [0.0, 0.0, -3.0]],
                        u=[[0.0] * 3, [0.0] * 3, [3.0, 0.0, 0.0]]),
        jackson.MapSpec(t=np.diag([-1.0, -3.0]),
                        u=[[0.4, 0.6], [1.2, 1.8]]),
        jackson.MapSpec(t=np.diag([-2.0, -5.0]),
                        u=[[1.4, 0.6], [3.5, 1.5]]),
    ]
    worst = 0.0
    grid = np.linspace(-0.7, 0.7, 50)
    for ph in ph_list:
        spec = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(0.5), jackson.poisson_map(0.3)),
            services=(ph, jackson.exponential_ph(3.0)), r12=0.3, r21=0.2)
        for th in grid:
            theta = (th, 0.3 * th)
            eig = jackson.cumulants(spec).gamma_d(1, theta)
            mgf = jackson.gamma_d_via_mgf(spec, 1, theta)
            worst = max(worst, abs(eig - mgf))
    for arr in renewal_list:
        for th in grid:
            pf_route = matcore.dominant(arr.t + np.exp(th) * arr.u).value
            mgf_route = jackson.renewal_arrival_cumulant(arr, th)
            worst = max(worst, abs(pf_route - mgf_route))
    ok = worst <= 1e-10
    report(8, ok, f"5 PH + 5 renewal specs on a 50-point grid, "
                  f"worst gap {worst:.2e}")


def test_criterion_09_stationary_identity():
    spec = product_form_jackson()
    blocks = jackson.build_blocks(spec)
    table = oracle.truncate_and_solve(blocks, (100, 100))
    tr = jackson.traffic_check(spec)
    tau = tuple(-np.log(r) for r in tr.rho)
    worst = 0.0
    points = [(f1 * tau[0], f2 * tau[1])
              for f1 in (0.1, 0.17, 0.24, 0.31, 0.38)
              for f2 in (0.15, 0.5)]
    assert len(points) == 10
    for theta in points:
        worst = max(worst, oracle.stationary_identity_residual(
            table, blocks, theta))
    ok = worst <= 1e-6
    report(9, ok, f"10 interior points, worst residual {worst:.2e}")


def test_criterion_10_invariance_suite():
    # uniformization-constant invariance and continuous/discrete agreement
    spec = mapph_jackson()
    blocks = jackson.build_blocks(spec)
    taus = [qbd2d.tau_report(blocks, scan=96).tau]
    for factor in (1.05, 2.1):
        taus.append(qbd2d.tau_report(qbd2d.uniformize(blocks, factor),
                                     scan=96).tau)
    unif_gap = max(abs(a[i] - b[i]) for a in taus for b in taus
                   for i in (0, 1))
    # directional homogeneity
    dec = qbd2d.decay_rates(blocks, [(0.7, 0.4), (1.4, 0.8)], scan=96,
                            check_stability=False)
    homog_gap = abs(dec.rates[1] - dec.rates[0] / 2.0)
    # diagonal similarity invariance of the Perron eigenvalue
    rng = np.random.default_rng(31)
    sim_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        t = rng.uniform(0.05, 1.0, size=(n, n))
        d = rng.uniform(0.2, 5.0, size=n)
        tw = t * d[np.newaxis, :] / d[:, np.newaxis]
        sim_gap = max(sim_gap, abs(matcore.dominant(tw).value
                                   - matcore.dominant(t).value))
    ok = unif_gap <= 1e-8 and homog_gap <= 1e-12 and sim_gap <= 1e-10
    report(10, ok, f"uniformization gap {unif_gap:.2e}, homogeneity gap "
                   f"{homog_gap:.2e}, similarity gap {sim_gap:.2e}")
