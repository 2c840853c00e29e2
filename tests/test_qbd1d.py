import collections
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from qbdtail import matcore, qbd1d
from qbdtail.errors import (
    NoConvergence,
    BoundaryNotInvertible,
    GammaPlusEmpty,
    NoSignChange,
    NoSuperharmonicVector,
    NotPositiveRecurrent,
    NotStochastic,
    ThetaOutsideGammaPlus,
)


def common_vector_feasible(a_mat, c_mat):
    """Reference LP for a common subinvariant vector: maximize the least
    entry t of h over {A h <= h, C h <= h, sum(h) = 1} (HiGHS); feasible
    when the optimum t is above 1e-9."""
    from scipy.optimize import linprog

    m = a_mat.shape[0]
    # variables (h_1..h_m, t); maximize t
    a_ub = np.zeros((3 * m, m + 1))
    a_ub[:m, :m] = a_mat - np.eye(m)
    a_ub[m:2 * m, :m] = c_mat - np.eye(m)
    a_ub[2 * m:, :m] = -np.eye(m)
    a_ub[2 * m:, m] = 1.0
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(c=np.concatenate([np.zeros(m), [-1.0]]),
                  A_ub=a_ub, b_ub=np.zeros(3 * m), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] * (m + 1), method="highs")
    return bool(res.status == 0 and res.x is not None and res.x[m] > 1e-9)


def scalar_blocks(am1, a0, a1, b0=None, b1=None, bm1=None):
    """m = m0 = 1 instance; boundary defaults keep the pattern irreducible."""
    b0 = am1 + a0 if b0 is None else b0
    b1 = a1 if b1 is None else b1
    bm1 = am1 if bm1 is None else bm1
    as1 = lambda v: np.array([[float(v)]])
    return qbd1d.QbdBlocks(b0=as1(b0), b1=as1(b1), bm1=as1(bm1),
                           am1=as1(am1), a0=as1(a0), a1=as1(a1))


def mm1_blocks(p, q):
    """Scalar birth-death chain: up p, down q, stochastic."""
    return scalar_blocks(q, 1.0 - p - q, p, b0=1.0 - p, b1=p, bm1=q)


def modulated_stochastic():
    """Two-phase stochastic QBD with a one-state boundary; each phase
    drifts down by 0.1 per step."""
    return qbd1d.QbdBlocks(
        b0=[[0.6]], b1=[[0.2, 0.2]], bm1=[[0.4], [0.4]],
        am1=[[0.3, 0.1], [0.2, 0.2]], a0=[[0.2, 0.1], [0.1, 0.2]],
        a1=[[0.2, 0.1], [0.1, 0.2]])


def appendix_counterexample(p=0.2, q=0.1, r=0.3, s=0.5):
    """Two-state interior kernel whose G matrix collapses the background to
    state one; boundary blocks are benign copies keeping K irreducible."""
    am1 = np.array([[r, 0.0], [s, 0.0]])
    a0 = np.array([[0.0, 1.0 - (p + q + r)], [0.0, 1.0 - s]])
    a1 = np.array([[p, q], [0.0, 0.0]])
    # down-moves reflect into the level-0 block, keeping K irreducible
    return qbd1d.QbdBlocks(b0=a0 + am1, b1=a1, bm1=am1, am1=am1, a0=a0, a1=a1)


class TestCanonicalForm:
    def test_zero_boundary_block(self):
        k = qbd1d.QbdBlocks(b0=np.zeros((1, 1)), b1=[[0.3]], bm1=[[0.2]],
                            am1=[[0.2]], a0=[[0.1]], a1=[[0.3]])
        can = qbd1d.canonical_form(k)
        assert can.c0[0, 0] == pytest.approx(0.2 * 0.3 + 0.1)

    def test_scalar_arithmetic(self):
        k = qbd1d.QbdBlocks(b0=[[0.5]], b1=[[0.3]], bm1=[[0.2]],
                            am1=[[0.2]], a0=[[0.1]], a1=[[0.3]])
        can = qbd1d.canonical_form(k)
        assert can.c0[0, 0] == pytest.approx(0.2 * 2.0 * 0.3 + 0.1, abs=1e-14)

    def test_shape_bookkeeping_m0_1_m_2(self):
        k = qbd1d.QbdBlocks(b0=[[0.2]], b1=[[0.3, 0.1]], bm1=[[0.2], [0.3]],
                            am1=0.2 * np.eye(2) + 0.05,
                            a0=0.1 * np.ones((2, 2)),
                            a1=0.2 * np.eye(2))
        can = qbd1d.canonical_form(k)
        assert can.c0.shape == (2, 2)
        expected = k.bm1 @ np.linalg.solve(np.eye(1) - k.b0, k.b1) + k.a0
        assert np.allclose(can.c0, expected, atol=1e-12)

    def test_boundary_not_invertible(self):
        k = qbd1d.QbdBlocks(b0=[[1.0]], b1=[[0.3]], bm1=[[0.2]],
                            am1=[[0.2]], a0=[[0.1]], a1=[[0.3]])
        with pytest.raises(BoundaryNotInvertible):
            qbd1d.canonical_form(k)


class TestMgfs:
    def test_theta_zero_sum(self):
        k = scalar_blocks(0.5, 0.2, 0.1)
        assert qbd1d.a_mgf(k, 0.0)[0, 0] == pytest.approx(0.8)

    def test_scalar_at_log2(self):
        k = scalar_blocks(0.5, 0.2, 0.1)
        assert qbd1d.a_mgf(k, np.log(2.0))[0, 0] == pytest.approx(0.25 + 0.2 + 0.2)

    def test_entrywise_convexity_in_theta(self):
        rng = np.random.default_rng(1)
        k = qbd1d.QbdBlocks(b0=[[0.1]], b1=[[0.1, 0.1]], bm1=[[0.1], [0.1]],
                            am1=rng.uniform(0.05, 0.3, (2, 2)),
                            a0=rng.uniform(0.05, 0.3, (2, 2)),
                            a1=rng.uniform(0.05, 0.3, (2, 2)))
        for _ in range(50):
            t1, t2 = rng.uniform(-2, 2, size=2)
            lam = rng.uniform(0, 1)
            mid = qbd1d.a_mgf(k, lam * t1 + (1 - lam) * t2)
            chord = lam * qbd1d.a_mgf(k, t1) + (1 - lam) * qbd1d.a_mgf(k, t2)
            assert np.all(mid <= chord + 1e-12)

    def test_c_mgf_scalar(self):
        k = qbd1d.QbdBlocks(b0=[[0.5]], b1=[[0.3]], bm1=[[0.2]],
                            am1=[[0.2]], a0=[[0.1]], a1=[[0.3]])
        assert qbd1d.c_mgf(k, 0.0)[0, 0] == pytest.approx(0.22 + 0.3)


class TestRootFinding:
    def test_bracket_without_sign_change_is_a_typed_error(self):
        with pytest.raises(NoSignChange):
            qbd1d.bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("f,lo,hi,root", [
        (lambda x: 3.0 * x - 0.9, 0.0, 1.0, 0.3),
        (lambda x: np.log1p(x) - 0.5, 0.0, 8.0, np.expm1(0.5)),
        (lambda x: np.exp(x) - 2.0, 0.0, 4.0, np.log(2.0)),
        (lambda x: x * x - 1.0, 0.0, 2.0, 1.0),
        (lambda x: x ** 3 - 2.0, -1.0, 3.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: np.expm1(30.0 * (x - 0.2)), -1.0, 1.0, 0.2),
        (lambda x: np.tanh(50.0 * (x - 0.7)), -1.0, 3.0, 0.7),
        (lambda x: 1e6 * (x - 1e-3), 0.0, 1e3, 1e-3),
    ], ids=["linear", "concave", "convex", "convex_ray", "cubic",
            "steep_exp", "steep_tanh", "wide"])
    def test_brent_finds_the_root_in_few_evaluations(self, f, lo, hi, root):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        x = qbd1d.bisect_root(counted, lo, hi, tol=1e-12)
        assert abs(x - root) <= 1e-12
        assert len(calls) <= 20
        # decreasing functions too: the bracket may start on either sign
        calls.clear()
        x = qbd1d.bisect_root(lambda v: -counted(v), lo, hi, tol=1e-12)
        assert abs(x - root) <= 1e-12
        assert len(calls) <= 20

    def test_exact_zero_at_either_end_is_returned(self):
        assert qbd1d.bisect_root(lambda x: x, 0.0, 1.0) == 0.0
        assert qbd1d.bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


class TestGammaA:
    def test_stochastic_at_zero(self):
        k = mm1_blocks(0.2, 0.3)
        assert qbd1d.gamma_a(k, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_values(self):
        k = scalar_blocks(0.5, 0.2, 0.1)
        assert qbd1d.gamma_a(k, 0.0) == pytest.approx(0.8, abs=1e-13)
        for th in (-0.7, 0.3, 1.1):
            expect = 0.5 * np.exp(-th) + 0.2 + 0.1 * np.exp(th)
            assert qbd1d.gamma_a(k, th) == pytest.approx(expect, abs=1e-12)

    def test_divergence_at_large_theta(self):
        k = scalar_blocks(0.5, 0.2, 0.1)
        assert qbd1d.gamma_a(k, 20.0) > 1e6
        assert qbd1d.gamma_a(k, -20.0) > 1e6

    def test_convexity_random_modulated(self):
        rng = np.random.default_rng(13)
        k = qbd1d.QbdBlocks(b0=[[0.1]], b1=[[0.1, 0.1]], bm1=[[0.1], [0.1]],
                            am1=rng.uniform(0.02, 0.3, (2, 2)),
                            a0=rng.uniform(0.02, 0.3, (2, 2)),
                            a1=rng.uniform(0.02, 0.3, (2, 2)))
        for _ in range(100):
            t1, t2 = rng.uniform(-2, 2, size=2)
            lam = rng.uniform(0, 1)
            lhs = qbd1d.gamma_a(k, lam * t1 + (1 - lam) * t2)
            rhs = lam * qbd1d.gamma_a(k, t1) + (1 - lam) * qbd1d.gamma_a(k, t2)
            assert lhs <= rhs + 1e-10


class TestGamma1dPlus:
    def test_scalar_quadratic_roots(self):
        # gamma(theta) <= 1 iff 0.1 x^2 - 0.8 x + 0.5 <= 0 for x = e^theta
        k = scalar_blocks(0.5, 0.2, 0.1)
        iv = qbd1d.gamma1d_plus(k)
        roots = np.sort(np.roots([0.1, -0.8, 0.5]).real)
        assert not iv.empty
        assert iv.lo == pytest.approx(np.log(roots[0]), abs=1e-10)
        assert iv.hi == pytest.approx(np.log(roots[1]), abs=1e-10)

    def test_stochastic_negative_drift_contains_zero(self):
        k = mm1_blocks(0.2, 0.3)
        iv = qbd1d.gamma1d_plus(k)
        assert iv.contains(0.0, slack=1e-12)
        assert iv.hi > 0
        assert iv.lo == pytest.approx(0.0, abs=1e-10)

    def test_scaled_up_is_empty(self):
        k = scalar_blocks(0.5 * 1.6, 0.2 * 1.6, 0.1 * 1.6)
        assert qbd1d.gamma1d_plus(k).empty

    def test_zero_drift_intervals_contain_zero(self):
        # gamma(0) = 1 is the tangent minimum, which a golden section
        # locates only to about 2e-8; both ends are still exactly 0
        k = scalar_blocks(0.3, 0.4, 0.3, b0=0.7, b1=0.3, bm1=0.3)
        for iv in (qbd1d.gamma1d_plus(k), qbd1d.gamma1d_0plus(k)):
            assert (iv.empty, iv.lo, iv.hi) == (False, 0.0, 0.0)

    @pytest.mark.parametrize("k, end", [
        (mm1_blocks(0.2, 0.3), "lo"),
        (scalar_blocks(0.3, 0.5, 0.2, b0=0.8, b1=0.2, bm1=0.3), "lo"),
        (modulated_stochastic(), "lo"),
        (mm1_blocks(0.3, 0.2), "hi"),
    ])
    def test_stochastic_end_is_exactly_zero(self, k, end):
        assert qbd1d._is_stochastic(k)
        iv = qbd1d.gamma1d_plus(k)
        assert getattr(iv, end) == 0.0
        assert iv.hi > iv.lo

    def test_non_stochastic_ends_are_the_roots(self):
        k = qbd1d.scale(mm1_blocks(0.2, 0.3), 1.0 - 1e-11)
        iv = qbd1d.gamma1d_plus(k)
        ends = qbd1d._sublevel_interval(lambda th: qbd1d.gamma_a(k, th),
                                        1.0, 0.0, 1.0, 1e-12)
        assert (iv.lo, iv.hi) == ends
        assert iv.lo < 0.0

    def test_super_stochastic_past_rounding_keeps_its_left_end(self):
        # row sums 1 + 5e-13: within 1e-12 of one but past rounding, so
        # gamma(0) > 1 and the left end is the root near 1.7e-9, not 0; G
        # there is the smaller root of p G^2 - (1 - a0) G + q (an end
        # snapped to 0 twisted at a super-stochastic point and stalled)
        u = 1.0 + 5e-13
        k = qbd1d.scale(mm1_blocks(0.24985, 0.25015), u)
        assert not qbd1d._is_stochastic(k)
        iv = qbd1d.gamma1d_plus(k)
        assert 1.6e-9 < iv.lo < 1.7e-9
        p, q, b = u * 0.24985, u * 0.25015, 1.0 - u * 0.5
        g = 2.0 * q / (b + math.sqrt(b * b - 4.0 * p * q))
        assert qbd1d.g_minus(k).g[0, 0] == pytest.approx(g, rel=0.0, abs=1e-11)
        assert not qbd1d.superharmonic_exists_via_G(k)


class TestCpKplus:
    def test_stochastic_at_least_one(self):
        k = mm1_blocks(0.2, 0.3)
        assert qbd1d.cp_kplus(k) > 1.0

    def test_scalar_calculus_oracle(self):
        # min of 0.5 e^{-t} + 0.2 + 0.1 e^t is at e^t = sqrt(5)
        k = scalar_blocks(0.5, 0.2, 0.1)
        gmin = 0.2 + 2.0 * np.sqrt(0.5 * 0.1)
        assert qbd1d.cp_kplus(k) == pytest.approx(1.0 / gmin, abs=1e-11)

    def test_truncation_oracle(self):
        rng = np.random.default_rng(17)
        k = qbd1d.QbdBlocks(b0=[[0.1]], b1=[[0.1, 0.1]], bm1=[[0.1], [0.1]],
                            am1=rng.uniform(0.05, 0.35, (2, 2)),
                            a0=rng.uniform(0.05, 0.35, (2, 2)),
                            a1=rng.uniform(0.05, 0.35, (2, 2)))
        # balance by the exact geometric-twist similarity before the dense
        # eigenvalue solve; the raw truncation is too nonnormal for it
        theta_star, _ = qbd1d.convex_min_scalar(
            lambda t: qbd1d.gamma_a(k, t), 0.0)
        from qbdtail import matcore
        h = matcore.dominant(qbd1d.a_mgf(k, theta_star)).right
        tm1, t0, t1 = matcore.twist((k.am1, k.a0, k.a1), h, theta_star,
                                    (-1, 0, 1))
        levels = 200
        m = 2
        n = levels * m
        kp = np.zeros((n, n))
        for lev in range(levels):
            r = lev * m
            kp[r:r + m, r:r + m] = t0
            if lev + 1 < levels:
                kp[r:r + m, r + m:r + 2 * m] = t1
            if lev >= 1:
                kp[r:r + m, r - m:r] = tm1
        radius = np.max(np.abs(np.linalg.eigvals(kp)))
        target = 1.0 / qbd1d.cp_kplus(k)
        assert radius <= target + 1e-10
        assert radius == pytest.approx(target, abs=1e-3)


class TestGMinus:
    def test_appendix_counterexample_golden(self):
        k = appendix_counterexample()
        res = qbd1d.g_minus(k)
        assert np.allclose(res.g, [[1.0, 0.0], [1.0, 0.0]], atol=1e-10)
        a1g = k.a1 @ res.g
        assert np.allclose(a1g, [[0.3, 0.0], [0.0, 0.0]], atol=1e-10)

    def test_counterexample_not_exponential_tilt_of_a1(self):
        # best scalar fit x = e^theta of A1 G- ~ x * A1 leaves a visible gap
        k = appendix_counterexample()
        res = qbd1d.g_minus(k)
        a1g = k.a1 @ res.g
        x = float((a1g * k.a1).sum() / (k.a1 * k.a1).sum())
        resid = np.linalg.norm(a1g - x * k.a1)
        assert resid > 0.05

    def test_scalar_skipfree_hit_probability(self):
        k = mm1_blocks(0.2, 0.3)
        res = qbd1d.g_minus(k)
        assert res.g[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_twisted_matrix_is_stochastic(self):
        k = appendix_counterexample()
        res = qbd1d.g_minus(k)
        # untwist at theta1 gives the stochastic first-passage matrix
        h = matcore.dominant(qbd1d.a_mgf(k, res.theta1)).right
        ghat = np.exp(-res.theta1) * (res.g * h[np.newaxis, :] / h[:, np.newaxis])
        assert np.allclose(ghat @ np.ones(2), 1.0, atol=1e-8)

    def test_gamma_plus_empty_raises(self):
        k = scalar_blocks(0.8, 0.32, 0.16)
        with pytest.raises(GammaPlusEmpty):
            qbd1d.g_minus(k)

    @pytest.mark.parametrize("make,skips", [
        (lambda: mm1_blocks(0.2, 0.3), True),
        (modulated_stochastic, True),
        (appendix_counterexample, True),
        (lambda: mm1_blocks(0.3, 0.2), False),
        (lambda: scalar_blocks(0.5, 0.2, 0.1), False),
    ], ids=["mm1", "modulated", "counterexample", "up_drift", "substochastic"])
    def test_stochastic_nonpositive_drift_takes_theta1_zero(self, make, skips,
                                                            monkeypatch):
        # gamma1d_plus's left end is 0.0 by construction for a stochastic K
        # with mean drift <= 0, so g_minus twists there without evaluating
        # gamma; G has the bits of the reduction at gamma1d_plus's end
        k = make()
        assert skips == (qbd1d._is_stochastic(k) and qbd1d.mean_drift(k) <= 0)
        theta1 = qbd1d.gamma1d_plus(k).lo
        expected = qbd1d._log_reduction(k, theta1)[0]
        calls = []
        gamma_a = qbd1d.gamma_a
        monkeypatch.setattr(qbd1d, "gamma_a",
                            lambda *args: calls.append(args) or gamma_a(*args))
        res = qbd1d.g_minus(k)
        assert (calls == []) == skips
        assert res.theta1 == theta1
        assert np.array_equal(res.g, expected)


class TestSuperharmonicExists:
    def test_stochastic_always_true(self):
        assert qbd1d.superharmonic_exists_via_G(mm1_blocks(0.2, 0.3))

    def test_scaled_up_false(self):
        k = mm1_blocks(0.2, 0.3)
        assert not qbd1d.superharmonic_exists_via_G(qbd1d.scale(k, 1.6))

    def test_counterexample_with_benign_boundary(self):
        k = appendix_counterexample()
        exists = qbd1d.superharmonic_exists_via_G(k)
        zero_plus = qbd1d.gamma1d_0plus(k)
        assert exists == (not zero_plus.empty)


class TestIntervalHelpers:
    def test_sublevel_interval_of_a_parabola(self):
        lo, hi = qbd1d._sublevel_interval(lambda x: (x - 1.0) ** 2, 4.0,
                                         0.0, 1.0, 1e-12)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)
        assert qbd1d._sublevel_interval(lambda x: x * x + 1.0, 0.5,
                                       0.0, 1.0, 1e-12) is None

    @pytest.mark.parametrize("lift,x0", [(0.0, 0.2), (1.0, -5.0)],
                             ids=["inner_start", "convex_minimum"])
    def test_sublevel_interval_reads_each_bracket_end_once(self, lift, x0):
        # the Brent roots start from the values that the inner point and
        # the doubling walk already took, and the walk to the convex
        # minimum starts from the level test's value at x0
        calls = collections.Counter()

        def f(x):
            calls[x] += 1
            return (x - 0.7) ** 2 + lift

        lo, hi = qbd1d._sublevel_interval(f, 4.0, x0, 1.0, 1e-12)
        half = (4.0 - lift) ** 0.5
        assert lo == pytest.approx(0.7 - half, abs=1e-12)
        assert hi == pytest.approx(0.7 + half, abs=1e-12)
        assert {x: n for x, n in calls.items() if n > 1} == {}


SQRT_EPS = float(np.finfo(float).eps) ** 0.5


class TestBrentMin:
    # golden section needs about 61 evaluations for a width-5 bracket at
    # 1e-12; parabolic steps need far fewer on smooth minima
    @pytest.mark.parametrize("f,lo,hi,xmin,max_evals", [
        (lambda x: np.cosh(x - 0.7), -2.0, 3.0, 0.7, 20),
        (lambda x: (x - 0.3) ** 2 * (2.0 + np.sin(x)), -2.0, 3.0, 0.3, 20),
        (lambda x: abs(x - 0.3) + 0.1 * x, -2.0, 3.0, 0.3, 65),
        (lambda x: max(x - 0.3, 0.2 * (0.3 - x)), -2.0, 3.0, 0.3, 65),
        (lambda x: (x - 0.3) ** 4, -2.0, 3.0, 0.3, 25),
        (lambda x: x, 0.0, 1.0, 0.0, 65),
        (lambda x: -x, 0.0, 1.0, 1.0, 65),
    ], ids=["cosh", "smooth", "kinked", "kinked_skew", "flat_quartic",
            "left_end", "right_end"])
    def test_minimum_within_the_bracket_tolerance(self, f, lo, hi, xmin,
                                                  max_evals):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        x, fx = qbd1d._brent_min(counted, lo, hi, tol=1e-12)
        assert fx == f(x)
        assert abs(x - xmin) <= 1e-12 + 4.0 * SQRT_EPS * abs(x)
        assert all(lo <= c <= hi for c in calls)
        assert len(calls) <= max_evals

    def test_convex_min_scalar_brackets_then_refines(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.exp(x - 4.0) - (x - 4.0)

        x, fx = qbd1d.convex_min_scalar(f, 0.0, step=0.5)
        assert x == pytest.approx(4.0, abs=1e-12 + 4.0 * SQRT_EPS * 4.0)
        assert fx == pytest.approx(1.0, abs=1e-15)
        assert len(calls) <= 30


class TestBrentBracket:
    @pytest.mark.parametrize("g", [
        lambda x: x - 0.3,
        lambda x: np.tanh(40.0 * (0.3 - x)),
        lambda x: -1.0 if x < 0.3 else 1.0,
        lambda x: 1.0 if x < 0.3 else -1.0,
        lambda x: np.inf if x > 0.3 else x - 0.5,
        lambda x: np.inf if x < 0.3 else x - 0.5,
    ], ids=["linear", "decreasing", "step_up", "step_down", "inf_right",
            "inf_left"])
    def test_feasible_end_of_a_narrow_bracket(self, g):
        calls = []

        def counted(x):
            calls.append(x)
            return g(x)

        x, fx, y, fy = qbd1d._brent_bracket(counted, 0.0, g(0.0), 1.0,
                                            g(1.0), 1e-10)
        assert (fx, fy) == (g(x), g(y))
        end = x if fx <= 0 else y
        assert g(end) <= 0
        if fx != 0.0:   # else x is an exact zero
            assert abs(x - y) <= 1e-10 and (fx > 0) != (fy > 0)
            assert min(x, y) - 1e-15 <= 0.3 <= max(x, y) + 1e-15
        # bisection needs 34 steps for 1e-10; nothing interpolates through inf
        assert all(0.0 <= c <= 1.0 for c in calls)
        assert len(calls) <= 40

    def test_bisect_root_returns_the_best_point_of_the_bracket(self):
        f = lambda x: np.exp(x) - 2.0
        b, fb, _, _ = qbd1d._brent_bracket(f, 0.0, f(0.0), 4.0, f(4.0), 1e-12)
        assert qbd1d.bisect_root(f, 0.0, 4.0, tol=1e-12) == b


class TestGamma1d0Plus:
    def test_m1_equals_intersection(self):
        # for m = 1 the common-vector interval is exactly the intersection
        # of the two sublevel intervals
        k = qbd1d.QbdBlocks(b0=[[0.5]], b1=[[0.25]], bm1=[[0.2]],
                            am1=[[0.4]], a0=[[0.25]], a1=[[0.15]])
        can = qbd1d.canonical_form(k)
        plus = qbd1d.gamma1d_plus(k)
        zp = qbd1d.gamma1d_0plus(k)
        c0, c1 = can.c0[0, 0], can.a1[0, 0]
        assert not zp.empty
        # Gamma_0 right endpoint: c0 + e^theta c1 = 1
        theta_c = np.log((1.0 - c0) / c1)
        assert zp.hi == pytest.approx(min(plus.hi, theta_c), abs=1e-8)
        assert zp.lo == pytest.approx(plus.lo, abs=1e-8)

    def test_c_condition_implied_gives_full_interval(self):
        # boundary censoring contributes ~nothing, A substochastic: the C
        # condition is dominated and the interval equals the sublevel one
        eps = 1e-11
        k = qbd1d.QbdBlocks(b0=[[eps]], b1=[[eps, eps]], bm1=[[eps], [eps]],
                            am1=[[0.25, 0.05], [0.05, 0.25]],
                            a0=[[0.1, 0.05], [0.05, 0.1]],
                            a1=[[0.1, 0.02], [0.02, 0.1]])
        plus = qbd1d.gamma1d_plus(k)
        zp = qbd1d.gamma1d_0plus(k)
        assert not zp.empty
        assert zp.lo == pytest.approx(plus.lo, abs=1e-7)
        assert zp.hi == pytest.approx(plus.hi, abs=1e-7)

    def test_membership_consistent_with_direct_lp(self):
        # seed chosen so the common-vector interval is a strict subset of
        # the sublevel interval (right endpoints differ)
        rng = np.random.default_rng(33)
        k = qbd1d.QbdBlocks(b0=0.2 * np.eye(2), b1=rng.uniform(0.05, 0.2, (2, 2)),
                            bm1=rng.uniform(0.05, 0.2, (2, 2)),
                            am1=rng.uniform(0.05, 0.3, (2, 2)),
                            a0=rng.uniform(0.05, 0.3, (2, 2)),
                            a1=rng.uniform(0.05, 0.3, (2, 2)))
        zp = qbd1d.gamma1d_0plus(k)
        if zp.empty:
            pytest.skip("random instance has empty common-vector interval")
        can = qbd1d.canonical_form(k)
        for th in np.linspace(zp.lo + 1e-6, zp.hi - 1e-6, 7):
            assert common_vector_feasible(
                qbd1d.a_mgf(k, th), can.c0 + np.exp(th) * can.a1)
        plus = qbd1d.gamma1d_plus(k)
        for th in [zp.lo - 1e-4, zp.hi + 1e-4]:
            if plus.contains(th) and not (zp.lo <= th <= zp.hi):
                assert not common_vector_feasible(
                    qbd1d.a_mgf(k, th), can.c0 + np.exp(th) * can.a1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_selection_radius_is_the_largest_enumerated_radius(self, m):
        rng = np.random.default_rng(90 + m)
        for _ in range(5):
            a, c = rng.uniform(0.0, 0.5, (2, m, m))
            c[rng.uniform(size=(m, m)) < 0.3] = 0.0   # reducible rows too
            rows = (a, c)
            enumerated = max(
                matcore.spectral_radius(np.array([rows[pick][i] for i, pick
                                                  in enumerate(choice)]))
                for choice in itertools.product((0, 1), repeat=m))
            assert qbd1d._selection_radius(a, c) == pytest.approx(
                enumerated, rel=1e-12, abs=1e-15)

    def test_right_end_is_the_root_of_phi(self):
        # the right end is a root of phi - 1: inside {phi <= 1 + slack}, and
        # 1e-9 beyond it phi exceeds the slack; MAP/PH/1 instances drawn as
        # in criterion 6
        from test_acceptance import (_random_map, _random_ph,
                                     _uniformized_mapph1_blocks)
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(60):
            base = _uniformized_mapph1_blocks(_random_map(rng), _random_ph(rng))
            k = qbd1d.scale(base, float(rng.uniform(0.9, 1.15)))
            zp = qbd1d.gamma1d_0plus(k)
            if zp.empty:
                continue
            can = qbd1d.canonical_form(k)

            def phi(th):
                return qbd1d._selection_radius(qbd1d.a_mgf(k, th),
                                               can.c0 + np.exp(th) * can.a1)

            assert phi(zp.hi) <= 1.0 + qbd1d.LE_ONE_SLACK
            assert phi(zp.hi + 1e-9) > 1.0 + qbd1d.LE_ONE_SLACK
            checked += 1
        assert checked >= 20

    def test_stochastic_point_set_is_exactly_zero(self):
        # C(theta) = 0.8 + 0.2 e^theta <= 1 iff theta <= 0 and gamma_plus
        # starts at 0: the set is {0}
        k = scalar_blocks(0.3, 0.5, 0.2, b0=0.8, b1=0.2, bm1=0.3)
        zp = qbd1d.gamma1d_0plus(k)
        assert (zp.empty, zp.lo, zp.hi) == (False, 0.0, 0.0)


class TestAssumption1:
    def test_scalar_always_holds(self):
        k = qbd1d.QbdBlocks(b0=[[0.5]], b1=[[0.25]], bm1=[[0.2]],
                            am1=[[0.4]], a0=[[0.25]], a1=[[0.15]])
        iv = qbd1d.gamma1d_plus(k)
        for th in np.linspace(iv.lo, iv.hi, 5):
            res = qbd1d.check_assumption1(k, th)
            assert res.holds
            assert res.residual <= 1e-8

    def test_adversarial_boundary_fails(self):
        rng = np.random.default_rng(41)
        am1, a0, a1 = (rng.uniform(0.05, 0.3, (2, 2)) for _ in range(3))
        norm = 1.15 * max((am1 + a0 + a1) @ np.ones(2))
        k = qbd1d.QbdBlocks(b0=rng.uniform(0.01, 0.2, (2, 2)),
                            b1=rng.uniform(0.01, 0.4, (2, 2)),
                            bm1=rng.uniform(0.01, 0.4, (2, 2)),
                            am1=am1 / norm, a0=a0 / norm, a1=a1 / norm)
        iv = qbd1d.gamma1d_plus(k)
        th = 0.5 * (iv.lo + iv.hi)
        res = qbd1d.check_assumption1(k, th)
        assert not res.holds
        assert np.isfinite(res.residual)

    def test_outside_interval_raises(self):
        k = mm1_blocks(0.2, 0.3)
        iv = qbd1d.gamma1d_plus(k)
        with pytest.raises(ThetaOutsideGammaPlus):
            qbd1d.check_assumption1(k, iv.hi + 1.0)


class TestRateMatrixAndStationary:
    def test_scalar_birth_death(self):
        p, q = 0.2, 0.3
        k = mm1_blocks(p, q)
        r = qbd1d.rate_matrix(k)
        assert r[0, 0] == pytest.approx(p / q, abs=1e-12)
        pis = qbd1d.qbd_stationary(k, 10)
        ratio = pis[3][0] / pis[2][0]
        assert ratio == pytest.approx(p / q, abs=1e-10)
        # sums to 1 with the geometric tail
        tail = pis[1][0] / (1 - p / q)
        assert pis[0][0] + tail == pytest.approx(1.0, abs=1e-10)

    def test_log_cp_R_equals_interval_endpoint(self):
        # decay rate of the matrix-geometric tail equals the right endpoint
        # of the interval where the boundary-free tilted kernel stays
        # subinvariant
        rng = np.random.default_rng(3)
        base = rng.uniform(0.05, 0.3, (2, 2))
        am1 = base * 1.4
        a1 = base * 0.5
        a0 = rng.uniform(0.05, 0.2, (2, 2))
        srow = (am1 + a0 + a1) @ np.ones(2)
        a0 = a0 + np.diag(1.0 - srow)  # make interior stochastic
        k = qbd1d.QbdBlocks(b0=a0 + am1, b1=a1, bm1=am1, am1=am1, a0=a0, a1=a1)
        r = qbd1d.rate_matrix(k)
        sp_r = matcore.spectral_radius(r)
        iv = qbd1d.gamma1d_plus(k)
        assert -np.log(sp_r) == pytest.approx(iv.hi, abs=1e-8)

    def test_matches_truncated_solve(self):
        p, q = 0.25, 0.35
        k = mm1_blocks(p, q)
        levels = 400
        kt = qbd1d.assemble_truncated(k, levels)
        # keep the truncated chain stochastic: reflect the lost up-flow
        kt[-1, -1] += p
        evals, evecs = np.linalg.eig(kt.T)
        idx = np.argmin(np.abs(evals - 1.0))
        pi = np.real(evecs[:, idx])
        pi = pi / pi.sum()
        pis = qbd1d.qbd_stationary(k, levels - 1)
        flat = np.concatenate([v for v in pis])
        tv = 0.5 * np.abs(flat - pi).sum()
        assert tv < 1e-8

    def test_near_critical_birth_death(self):
        # mean drift -2.5e-5: nearly null recurrent
        p = 0.25
        q = 1.0001 * p
        k = mm1_blocks(p, q)
        t0 = time.perf_counter()
        r = qbd1d.rate_matrix(k)
        g = qbd1d.g_minus(k)
        assert time.perf_counter() - t0 < 0.1
        assert r[0, 0] == pytest.approx(p / q, rel=0.0, abs=1e-11)
        assert g.g[0, 0] == pytest.approx(1.0, rel=0.0, abs=1e-11)
        assert g.iterations <= 60

    def test_not_stochastic_raises(self):
        k = scalar_blocks(0.5, 0.2, 0.1)
        with pytest.raises(NotStochastic):
            qbd1d.rate_matrix(k)

    def test_positive_drift_raises(self):
        k = mm1_blocks(0.3, 0.2)
        with pytest.raises(NotPositiveRecurrent):
            qbd1d.rate_matrix(k)


class TestClassifyRecurrence:
    def test_positive_recurrent_stochastic(self):
        assert qbd1d.classify_recurrence(mm1_blocks(0.2, 0.3)) == "t_positive"

    def test_zero_drift_is_null_or_transient(self):
        k = mm1_blocks(0.3, 0.3)
        assert qbd1d.classify_recurrence(k) == "t_null_or_transient"

    def test_no_superharmonic_raises(self):
        k = qbd1d.scale(mm1_blocks(0.2, 0.3), 1.6)
        with pytest.raises(NoSuperharmonicVector):
            qbd1d.classify_recurrence(k)

    def test_unscaled_steps_run_once(self, monkeypatch):
        # cp_kplus runs once; the classification makes two existence tests,
        # one at scale 1 and one at c_p(K_+) - 1e-9
        k = mm1_blocks(0.2, 0.3)
        calls = {"cp_kplus": 0, "exists": 0, "scales": []}
        cp_kplus = qbd1d.cp_kplus
        exists = qbd1d.superharmonic_exists_via_G

        def counted_cp_kplus(kk, *args, **kwargs):
            calls["cp_kplus"] += kk is k
            return cp_kplus(kk, *args, **kwargs)

        def counted_exists(kk, *args, **kwargs):
            calls["exists"] += kk is k
            calls["scales"].append(kk.a1[0, 0] / k.a1[0, 0])
            return exists(kk, *args, **kwargs)

        monkeypatch.setattr(qbd1d, "cp_kplus", counted_cp_kplus)
        monkeypatch.setattr(qbd1d, "superharmonic_exists_via_G", counted_exists)
        assert qbd1d.classify_recurrence(k) == "t_positive"
        assert (calls["cp_kplus"], calls["exists"]) == (1, 1)
        assert calls["scales"] == [1.0, pytest.approx(cp_kplus(k) - 1e-9,
                                                      rel=1e-15)]

    def test_matches_the_convergence_parameters(self):
        # t_positive exactly when c_p(K) < c_p(K_+) - 1e-9
        rng = np.random.default_rng(58)
        seen = set()
        done = 0
        while done < 8:
            k = TestLemma22Invariants._random_instance(rng)
            try:
                label = qbd1d.classify_recurrence(k)
            except (NoSuperharmonicVector, BoundaryNotInvertible):
                continue
            expect = qbd1d.cp_k(k) < qbd1d.cp_kplus(k) - 1e-9
            assert label == ("t_positive" if expect else "t_null_or_transient")
            seen.add(label)
            done += 1
        assert seen == {"t_positive", "t_null_or_transient"}

    @pytest.mark.parametrize("seed, exists, g_error", [
        (11, True, NoConvergence),
        (13, True, NoConvergence),
        (17, False, GammaPlusEmpty),
    ])
    def test_tangent_scale(self, seed, exists, g_error):
        # u K with u = c_p(K_+): the tilting interval is one point (or
        # empty) and the twisted chain null recurrent; G stalls at a
        # bracket, the existence and classification answers stand, and
        # nothing hangs
        k = TestLemma22Invariants._random_instance(np.random.default_rng(seed))
        ks = qbd1d.scale(k, qbd1d.cp_kplus(k))
        t0 = time.perf_counter()
        with pytest.raises(g_error):
            qbd1d.g_minus(ks)
        assert qbd1d.superharmonic_exists_via_G(ks) is exists
        if exists:
            assert qbd1d.classify_recurrence(ks) == "t_null_or_transient"
        else:
            with pytest.raises(NoSuperharmonicVector):
                qbd1d.classify_recurrence(ks)
        assert time.perf_counter() - t0 < 1.0

    # (reductions, largest, summed) doubling steps of one near-critical
    # cp_k: the Brent root's 3, 17 and 43 with 1.1 slack (a bisection of
    # the existence answer took 27, 13 and 351)
    CP_K_CEILING = (3, 18, 47)

    @staticmethod
    def _reduction_steps(monkeypatch):
        steps = []
        reduction = qbd1d._log_reduction

        def counted(*args):
            out = reduction(*args)
            steps.append(out[3])
            return out

        monkeypatch.setattr(qbd1d, "_log_reduction", counted)
        return steps

    def test_near_critical_cp_k_stays_under_a_step_ceiling(self, monkeypatch):
        # mean drift -1e-3: the chain is nearly null recurrent at every
        # scale the root search probes
        k = scalar_blocks(0.3005, 0.4, 0.2995, b0=0.7, b1=0.3, bm1=0.3005)
        steps = self._reduction_steps(monkeypatch)
        assert qbd1d.cp_k(k) == pytest.approx(1.0, rel=0.0, abs=1e-9)
        counts = (len(steps), max(steps), sum(steps))
        assert all(c <= cap for c, cap in zip(counts, self.CP_K_CEILING)), counts

    def test_cp_k_with_cp_kplus_near_one(self, monkeypatch):
        # mean drift -1e-3 and c_p(K_+) = 1 + 2.0e-6: 40 halvings of the
        # bracket [1, c_p(K_+)] would ask for less than one ulp
        k = mm1_blocks(0.2495, 0.2505)
        t_plus = qbd1d.cp_kplus(k)
        assert 1.0 < t_plus < 1.0 + 3e-6
        steps = self._reduction_steps(monkeypatch)
        assert 1.0 <= qbd1d.cp_k(k) <= t_plus
        counts = (len(steps), max(steps), sum(steps))
        assert all(c <= cap for c, cap in zip(counts, self.CP_K_CEILING)), counts

    @pytest.mark.parametrize("q", [3e-4, 3e-5, 3e-6])
    def test_recurrent_cp_k_near_null_is_one(self, q):
        # mean drift -q: c_p(K) = 1, reached through uK for u a few ulps
        # past 1, which G reads at its own tilting interval
        assert qbd1d.cp_k(mm1_blocks(0.25 - q / 2, 0.25 + q / 2)) == pytest.approx(
            1.0, rel=0.0, abs=1e-12)

    def test_transient_cp_k_is_the_closed_form(self):
        # up 0.3, down 0.2: c_p(K) = c_p(K_+) = 1 / min_theta gamma(theta)
        # = 1 / (0.5 + 2 sqrt(0.06)), the tangent end of the bracket
        k = mm1_blocks(0.3, 0.2)
        assert qbd1d.cp_k(k) == pytest.approx(1.0 / (0.5 + 2.0 * 0.06 ** 0.5),
                                              rel=1e-12, abs=0.0)

    def test_bisection_near_critical_scale(self):
        # transient stochastic chain: c_p(K) > 1; scaling past it kills
        # existence, scaling below keeps it
        k = mm1_blocks(0.3, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u_star = qbd1d.cp_k(k)
            assert u_star > 1.0
            assert qbd1d.superharmonic_exists_via_G(qbd1d.scale(k, u_star * (1 - 1e-4)))
            assert not qbd1d.superharmonic_exists_via_G(qbd1d.scale(k, u_star * (1 + 1e-4)))


class TestLemma22Invariants:
    @staticmethod
    def _random_instance(rng):
        m0 = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        b0 = rng.uniform(0.01, 0.25, (m0, m0))
        b0 *= 0.5 / max(1.0, matcore.spectral_radius(b0))
        k = qbd1d.QbdBlocks(
            b0=b0,
            b1=rng.uniform(0.01, 0.3, (m0, m)),
            bm1=rng.uniform(0.01, 0.3, (m, m0)),
            am1=rng.uniform(0.01, 0.3, (m, m)),
            a0=rng.uniform(0.01, 0.3, (m, m)),
            a1=rng.uniform(0.01, 0.3, (m, m)))
        return k

    def test_equivalence_with_canonical_form(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(200):
            k = self._random_instance(rng)
            try:
                can = qbd1d.canonical_form(k)
            except BoundaryNotInvertible:
                continue
            kbar = qbd1d.QbdBlocks(b0=can.c0, b1=can.a1, bm1=can.am1,
                                   am1=can.am1, a0=can.a0, a1=can.a1)
            try:
                assert (qbd1d.superharmonic_exists_via_G(k)
                        == qbd1d.superharmonic_exists_via_G(kbar))
            except NoConvergence:
                continue  # instance sits at the existence boundary
            checked += 1
        assert checked >= 150

    def test_cp_ordering(self):
        rng = np.random.default_rng(57)
        done = 0
        while done < 5:
            k = self._random_instance(rng)
            try:
                if not qbd1d.superharmonic_exists_via_G(k):
                    continue
                can = qbd1d.canonical_form(k)
            except BoundaryNotInvertible:
                continue
            kbar = qbd1d.QbdBlocks(b0=can.c0, b1=can.a1, bm1=can.am1,
                                   am1=can.am1, a0=can.a0, a1=can.a1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cp_k = qbd1d.cp_k(k)
                cp_kbar = qbd1d.cp_k(kbar)
            cp_kp = qbd1d.cp_kplus(k)
            assert cp_k <= cp_kbar + 1e-8
            assert cp_kbar <= cp_kp + 1e-8
            done += 1
