"""Nonnegative matrices with QBD block structure.

Canonical form, tilting intervals, superharmonic-vector existence (both the
G-matrix and the common-vector characterizations), G/R matrices and
recurrence classification.

Block layout convention: the matrix acts on level-stacked row vectors
(pi_0, pi_1, ...) with level 0 of dimension m0 and all higher levels of
dimension m,

    row 0:  B0   B1
    row 1:  Bm1  A0   A1
    row n:       Am1  A0  A1   (repeated),

so B1 is m0 x m (level 0 -> level 1) and Bm1 is m x m0 (level 1 -> level 0).
The literature sometimes states these two shapes the other way round; the
shapes here follow the block layout and every product is shape-checked at
construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import matcore
from .errors import (
    BoundaryNotInvertible,
    GammaPlusEmpty,
    NoConvergence,
    NoSignChange,
    NoSuperharmonicVector,
    NotIrreducible,
    NotPositiveRecurrent,
    NotStochastic,
    SpectralRadiusNotBelowOne,
    ThetaOutsideGammaPlus,
)

# single documented slack for all "<= 1" style tests
LE_ONE_SLACK = 1e-10


@dataclass(frozen=True)
class QbdBlocks:
    """The six defining blocks of a nonnegative matrix with QBD structure."""

    b0: np.ndarray   # m0 x m0
    b1: np.ndarray   # m0 x m
    bm1: np.ndarray  # m  x m0
    am1: np.ndarray  # m  x m
    a0: np.ndarray   # m  x m
    a1: np.ndarray   # m  x m

    def __post_init__(self):
        for name in ("b0", "b1", "bm1", "am1", "a0", "a1"):
            object.__setattr__(self, name, matcore.as_matrix(getattr(self, name)))
        m0 = self.b0.shape[0]
        m = self.a0.shape[0]
        expect = {"b0": (m0, m0), "b1": (m0, m), "bm1": (m, m0),
                  "am1": (m, m), "a0": (m, m), "a1": (m, m)}
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be entrywise nonnegative")
        if not matcore.is_irreducible(self.am1 + self.a0 + self.a1):
            raise NotIrreducible("A_-1 + A_0 + A_1 must be irreducible")
        if not matcore.is_irreducible(assemble_truncated(self, 4)):
            raise NotIrreducible("assembled matrix is not irreducible on its pattern")

    @property
    def m0(self) -> int:
        return self.b0.shape[0]

    @property
    def m(self) -> int:
        return self.a0.shape[0]


@dataclass(frozen=True)
class CanonicalQbd:
    """Repeated-block form with the boundary censored into C0."""

    c0: np.ndarray
    am1: np.ndarray
    a0: np.ndarray
    a1: np.ndarray


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    empty: bool = False

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return (not self.empty) and self.lo - slack <= x <= self.hi + slack


EMPTY_INTERVAL = Interval(lo=np.nan, hi=np.nan, empty=True)


@dataclass(frozen=True)
class GMinusResult:
    """Minimal nonnegative solution of G = A_-1 + A_0 G + A_1 G^2."""

    g: np.ndarray
    theta1: float
    iterations: int


@dataclass(frozen=True)
class Assumption1Result:
    holds: bool
    branch: str          # "c1", "c0" or "none"
    c0: float
    c1: float
    h0: np.ndarray | None
    residual: float


def assemble_truncated(k: QbdBlocks, levels: int) -> np.ndarray:
    """Dense truncation of the assembled matrix to the first ``levels``
    levels (level 0 plus levels 1..levels-1)."""
    m0, m = k.m0, k.m
    n = m0 + (levels - 1) * m
    out = np.zeros((n, n))
    out[:m0, :m0] = k.b0
    if levels > 1:
        out[:m0, m0:m0 + m] = k.b1
        out[m0:m0 + m, :m0] = k.bm1
    for lev in range(1, levels):
        r = m0 + (lev - 1) * m
        out[r:r + m, r:r + m] = k.a0
        if lev + 1 < levels:
            out[r:r + m, r + m:r + 2 * m] = k.a1
        if lev >= 2:
            out[r:r + m, r - m:r] = k.am1
    return out


def scale(k: QbdBlocks, u: float) -> QbdBlocks:
    """Blocks of u*K."""
    return QbdBlocks(b0=u * k.b0, b1=u * k.b1, bm1=u * k.bm1,
                     am1=u * k.am1, a0=u * k.a0, a1=u * k.a1)


def canonical_form(k: QbdBlocks) -> CanonicalQbd:
    """C0 = B_-1 (I - B0)^{-1} B1 + A0; interior blocks unchanged."""
    try:
        inv = matcore.neumann_inverse(k.b0)
    except SpectralRadiusNotBelowOne as exc:
        raise BoundaryNotInvertible(str(exc)) from exc
    return CanonicalQbd(c0=k.bm1 @ inv @ k.b1 + k.a0,
                        am1=k.am1, a0=k.a0, a1=k.a1)


def a_mgf(k: QbdBlocks, theta: float) -> np.ndarray:
    """A_*(theta) = e^{-theta} A_-1 + A_0 + e^{theta} A_1."""
    return np.exp(-theta) * k.am1 + k.a0 + np.exp(theta) * k.a1


def c_mgf(k: QbdBlocks, theta: float) -> np.ndarray:
    """C_*(theta) = C0 + e^{theta} A_1 (C1 equals A1)."""
    can = canonical_form(k)
    return can.c0 + np.exp(theta) * can.a1


def gamma_a(k: QbdBlocks, theta: float) -> float:
    """Perron eigenvalue of the interior matrix MGF at theta."""
    return matcore.dominant(a_mgf(k, theta)).value


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def convex_min_scalar(f, x0: float = 0.0, step: float = 1.0, tol: float = 1e-12):
    """Minimum of a convex scalar function: downhill bracket walk with
    doubling steps, then golden-section refinement."""
    a, mid, b = x0 - step, x0, x0 + step
    fa, fm, fb = f(a), f(mid), f(b)
    for _ in range(200):
        if fm <= fa and fm <= fb:
            break
        if fa < fm:
            b, fb = mid, fm
            mid, fm = a, fa
            a = mid - 2.0 * (b - mid)
            fa = f(a)
        else:
            a, fa = mid, fm
            mid, fm = b, fb
            b = mid + 2.0 * (mid - a)
            fb = f(b)
    else:
        raise NoConvergence("could not bracket the convex minimum")
    return _golden_min(f, a, b, tol=tol)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Sign-change bisection; f(lo) and f(hi) must straddle zero."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoSignChange("bisection bracket does not straddle a root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def gamma1d_plus(k: QbdBlocks, tol: float = 1e-12) -> Interval:
    """Sublevel interval {theta : gamma(theta) <= 1} of the convex interior
    eigenvalue curve; empty and degenerate results are valid."""
    f = lambda th: gamma_a(k, th)
    xmin, fmin = convex_min_scalar(f, 0.0, tol=tol)
    if fmin > 1.0:
        return EMPTY_INTERVAL
    g = lambda th: f(th) - 1.0
    lo_b = xmin - 1.0
    while g(lo_b) <= 0:
        lo_b = xmin - 2.0 * (xmin - lo_b)
    hi_b = xmin + 1.0
    while g(hi_b) <= 0:
        hi_b = xmin + 2.0 * (hi_b - xmin)
    lo = bisect_root(g, lo_b, xmin, tol=tol) if g(xmin) < 0 else xmin
    hi = bisect_root(g, xmin, hi_b, tol=tol) if g(xmin) < 0 else xmin
    return Interval(lo=lo, hi=hi)


def cp_kplus(k: QbdBlocks, tol: float = 1e-12) -> float:
    """Convergence parameter of the boundary-free part: the reciprocal of
    the convex minimum of the interior eigenvalue curve."""
    _, fmin = convex_min_scalar(lambda th: gamma_a(k, th), 0.0, tol=tol)
    return 1.0 / fmin


def g_minus(k: QbdBlocks, tol: float = 1e-13, max_iter: int = 10**7) -> GMinusResult:
    """Minimal nonnegative solution of G = A_-1 + A_0 G + A_1 G^2.

    Computed in twisted coordinates at theta1, the left endpoint of
    {gamma = 1}, where the twisted chain is (sub)stochastic so the fixed
    point iteration from 0 converges, then untwisted.
    """
    interval = gamma1d_plus(k)
    if interval.empty:
        raise GammaPlusEmpty("gamma(theta) > 1 everywhere; G is undefined")
    theta1 = interval.lo
    h = matcore.dominant(a_mgf(k, theta1)).right
    if interval.hi - interval.lo < 1e-9:
        warnings.warn("tangent tilting interval: twisted chain is null "
                      "recurrent, G iteration converges slowly", RuntimeWarning)
    tw_m1, tw_0, tw_1 = matcore.twist((k.am1, k.a0, k.a1), h, theta1, (-1, 0, 1))
    m = k.m
    g = np.zeros((m, m))
    check, diff_at_check = 1024, np.inf
    for it in range(1, max_iter + 1):
        g_next = tw_m1 + tw_0 @ g + tw_1 @ (g @ g)
        diff = float(np.max(np.abs(g_next - g)))
        g = g_next
        if diff <= tol:
            untwisted = np.exp(theta1) * (g * h[:, np.newaxis] / h[np.newaxis, :])
            return GMinusResult(g=untwisted, theta1=theta1, iterations=it)
        if it == check:
            # project the geometric tail; bail out early if the remaining
            # budget cannot reach tol (near-null-recurrent twisted chain)
            rate = (diff / diff_at_check) ** (1.0 / 1024.0) if diff_at_check < np.inf else 0.0
            if 0.0 < rate < 1.0:
                projected = it + np.log(tol / diff) / np.log(rate)
                if projected > max_iter:
                    break
            elif rate >= 1.0:
                break
            diff_at_check = diff
            check += 1024
    raise NoConvergence(f"G fixed point cannot reach {tol} within {max_iter} iterations")


def _is_stochastic(k: QbdBlocks, tol: float = 1e-12) -> bool:
    """Every row sum of the assembled matrix lies within tol of one."""
    rows = np.concatenate([
        k.b0 @ np.ones(k.m0) + k.b1 @ np.ones(k.m),
        k.bm1 @ np.ones(k.m0) + (k.a0 + k.a1) @ np.ones(k.m),
        (k.am1 + k.a0 + k.a1) @ np.ones(k.m)])
    return bool(np.max(np.abs(rows - 1.0)) <= tol)


def superharmonic_exists_via_G(k: QbdBlocks, g_max_iter: int = 10**6) -> bool:
    """Existence of a positive y with K y <= y, via the G-matrix test:
    the tilting interval is nonempty and sp(C0 + A1 G-) <= 1."""
    if _is_stochastic(k):
        # the ones vector is superharmonic; skips the (possibly null
        # recurrent, slowly converging) G iteration
        return True
    if gamma1d_plus(k).empty:
        return False
    try:
        can = canonical_form(k)
    except BoundaryNotInvertible:
        # sp(B0) >= 1 already contradicts existence
        return False
    g = g_minus(k, max_iter=g_max_iter)
    return matcore.spectral_radius(can.c0 + can.a1 @ g.g) <= 1.0 + LE_ONE_SLACK


def _common_vector_feasible(a_mat: np.ndarray, c_mat: np.ndarray,
                            pos_tol: float = 1e-9) -> bool:
    """Linear-program feasibility of {h > 0 : A h <= h, C h <= h}.

    Maximizes the minimum entry of h under sum(h) = 1; feasible iff the
    optimum is strictly positive.
    """
    m = a_mat.shape[0]
    # variables (h_1..h_m, t); maximize t
    a_ub = np.zeros((2 * m + m, m + 1))
    a_ub[:m, :m] = a_mat - np.eye(m)
    a_ub[m:2 * m, :m] = c_mat - np.eye(m)
    a_ub[2 * m:, :m] = -np.eye(m)
    a_ub[2 * m:, m] = 1.0
    b_ub = np.zeros(3 * m)
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(c=np.concatenate([np.zeros(m), [-1.0]]),
                  A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] * (m + 1), method="highs")
    return bool(res.status == 0 and res.x is not None and res.x[m] > pos_tol)


def _curve_endpoint_member(k: QbdBlocks, can: CanonicalQbd, theta: float) -> bool:
    """Equality-form membership at a point with gamma(theta) = 1: the Perron
    vector of A_*(theta) must also satisfy the C condition."""
    h = matcore.dominant(a_mgf(k, theta)).right
    c = can.c0 + np.exp(theta) * can.a1
    return bool(np.all(c @ h <= h * (1.0 + LE_ONE_SLACK) + LE_ONE_SLACK))


def gamma1d_0plus(k: QbdBlocks, tol: float = 1e-10) -> Interval:
    """Closed interval {theta : some h > 0 has A_*(theta) h <= h and
    C_*(theta) h <= h}.

    Membership at the endpoints of the sublevel interval uses the Perron
    vector directly; strictly inside, the common-vector condition is decided
    by a linear feasibility solve (the set is generally a strict subset of
    the intersection of the two sublevel intervals, so intersecting them is
    not a valid shortcut).
    """
    plus = gamma1d_plus(k)
    if plus.empty:
        return EMPTY_INTERVAL
    try:
        can = canonical_form(k)
    except BoundaryNotInvertible:
        return EMPTY_INTERVAL

    def member(theta: float) -> bool:
        if not plus.contains(theta):
            return False
        if theta <= plus.lo + 1e-13:
            return _curve_endpoint_member(k, can, plus.lo)
        if theta >= plus.hi - 1e-13:
            return _curve_endpoint_member(k, can, plus.hi)
        return _common_vector_feasible(a_mgf(k, theta),
                                       can.c0 + np.exp(theta) * can.a1)

    grid = np.linspace(plus.lo, plus.hi, 33)
    flags = [member(t) for t in grid]
    if not any(flags):
        return EMPTY_INTERVAL
    i_first = flags.index(True)
    i_last = len(flags) - 1 - flags[::-1].index(True)
    # left endpoint
    if i_first == 0:
        lo = plus.lo
    else:
        a, b = grid[i_first - 1], grid[i_first]
        while b - a > tol:
            mid = 0.5 * (a + b)
            if member(mid):
                b = mid
            else:
                a = mid
        lo = 0.5 * (a + b)
    # right endpoint
    if i_last == len(grid) - 1:
        hi = plus.hi
    else:
        a, b = grid[i_last], grid[i_last + 1]
        while b - a > tol:
            mid = 0.5 * (a + b)
            if member(mid):
                a = mid
            else:
                b = mid
        hi = 0.5 * (a + b)
    return Interval(lo=lo, hi=hi)


def _fit_proportional(v: np.ndarray, ref: np.ndarray):
    """Least-squares scalar c with v ~ c*ref; relative sup-norm residual."""
    denom = float(ref @ ref)
    c = float(v @ ref) / denom
    resid = float(np.max(np.abs(v - c * ref))) / max(1.0, float(np.max(np.abs(v))))
    return c, resid


def check_assumption1(k: QbdBlocks, theta: float, tol: float = 1e-8) -> Assumption1Result:
    """Numerical check of the boundary compatibility condition at theta:
    existence of a positive boundary vector h0 and scalars (c0, c1), one of
    them equal to 1, with

        B0 h0 + e^{theta} B1 h           = c0 h0,
        e^{-theta} B_-1 h0 + (A0 + e^{theta} A1) h = c1 h,

    where h is the Perron vector of A_*(theta).  Tries the c1 = 1 branch
    (solve the second display for h0, then fit c0), then the c0 = 1 branch
    symmetrically.
    """
    plus = gamma1d_plus(k)
    if not plus.contains(theta, slack=1e-9):
        raise ThetaOutsideGammaPlus(f"theta={theta} outside {plus}")
    h = matcore.dominant(a_mgf(k, theta)).right
    h = h / h.max()
    et = np.exp(theta)

    # branch c1 = 1: e^{-theta} B_-1 h0 = (I - A0 - e^{theta} A1) h
    rhs = et * ((np.eye(k.m) - k.a0 - et * k.a1) @ h)
    h0, *_ = np.linalg.lstsq(k.bm1, rhs, rcond=None)
    solve_resid = float(np.max(np.abs(k.bm1 @ h0 - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
    if solve_resid <= tol and np.all(h0 > 0):
        v = k.b0 @ h0 + et * (k.b1 @ h)
        c0, prop_resid = _fit_proportional(v, h0)
        resid = max(solve_resid, prop_resid)
        if resid <= tol:
            return Assumption1Result(holds=True, branch="c1", c0=c0, c1=1.0,
                                     h0=h0, residual=resid)

    # branch c0 = 1: (I - B0) h0 = e^{theta} B1 h
    try:
        h0b = matcore.neumann_inverse(k.b0) @ (et * (k.b1 @ h))
    except SpectralRadiusNotBelowOne:
        h0b = None
    if h0b is not None and np.all(h0b > 0):
        w = np.exp(-theta) * (k.bm1 @ h0b) + (k.a0 + et * k.a1) @ h
        c1, prop_resid = _fit_proportional(w, h)
        if prop_resid <= tol:
            return Assumption1Result(holds=True, branch="c0", c0=1.0, c1=c1,
                                     h0=h0b, residual=prop_resid)

    best = solve_resid if np.all(h0 > 0) else np.inf
    return Assumption1Result(holds=False, branch="none", c0=np.nan, c1=np.nan,
                             h0=None, residual=float(best))


def mean_drift(k: QbdBlocks) -> float:
    """Stationary mean level drift of the interior kernel."""
    nu = matcore.dominant((k.am1 + k.a0 + k.a1).T).right
    return float(nu @ ((k.a1 - k.am1) @ np.ones(k.m)))


def rate_matrix(k: QbdBlocks, tol: float = 1e-13, max_iter: int = 10**7) -> np.ndarray:
    """Minimal nonnegative solution of R = R^2 A_-1 + R A_0 + A_1 for a
    stochastic, positive recurrent chain."""
    if not _is_stochastic(k, tol=1e-9):
        raise NotStochastic("assembled matrix is not row stochastic")
    if mean_drift(k) >= 0:
        raise NotPositiveRecurrent("interior mean drift is >= 0")
    m = k.m
    r = np.zeros((m, m))
    for _ in range(max_iter):
        r_next = k.a1 + r @ k.a0 + (r @ r) @ k.am1
        diff = float(np.max(np.abs(r_next - r)))
        r = r_next
        if diff <= tol:
            return r
    raise NoConvergence("R fixed point did not converge")


def stationary_boundary(k: QbdBlocks):
    """(pi_0, pi_1, R) of a positive recurrent stochastic QBD, normalized so
    that pi_0 1 + pi_1 (I - R)^{-1} 1 = 1."""
    r = rate_matrix(k)
    m0, m = k.m0, k.m
    # balance at levels 0 and 1 with pi_2 = pi_1 R:
    #   pi_0 (B0 - I) + pi_1 Bm1 = 0
    #   pi_0 B1 + pi_1 (A0 + R Am1 - I) = 0
    block = np.zeros((m0 + m, m0 + m))
    block[:m0, :m0] = k.b0 - np.eye(m0)
    block[:m0, m0:] = k.b1
    block[m0:, :m0] = k.bm1
    block[m0:, m0:] = k.a0 + r @ k.am1 - np.eye(m)
    # left null vector of `block`
    _, _, vt = np.linalg.svd(block.T)
    x = vt[-1]
    if x.sum() < 0:
        x = -x
    if np.any(x < -1e-9):
        raise NoConvergence("boundary solve produced a sign-mixed vector")
    x = np.clip(x, 0.0, None)
    pi0, pi1 = x[:m0], x[m0:]
    tail = pi1 @ matcore.neumann_inverse(r) @ np.ones(m)
    total = pi0.sum() + tail
    return pi0 / total, pi1 / total, r


def qbd_stationary(k: QbdBlocks, max_level: int) -> list[np.ndarray]:
    """Stationary vectors (pi_0, ..., pi_max_level) by a boundary solve plus
    the matrix-geometric tail pi_{n+1} = pi_n R."""
    pi0, pi1, r = stationary_boundary(k)
    out = [pi0, pi1]
    cur = pi1
    for _ in range(max_level - 1):
        cur = cur @ r
        out.append(cur)
    return out


def _exists_decision(k: QbdBlocks, budget: int = 200_000) -> bool:
    """Superharmonic existence decided incrementally during the G iteration.

    The iterates increase entrywise from 0, so sp(C0 + A1 G_n) > 1 + slack is
    a rigorous "no".  A geometric remainder bound from the measured
    contraction rate certifies "yes" early.  Raises NoConvergence when the
    twisted chain is too close to null recurrent to decide in budget.
    """
    if _is_stochastic(k):
        return True
    iv = gamma1d_plus(k)
    if iv.empty:
        return False
    try:
        can = canonical_form(k)
    except BoundaryNotInvertible:
        return False
    theta1 = iv.lo
    h = matcore.dominant(a_mgf(k, theta1)).right
    tw_m1, tw_0, tw_1 = matcore.twist((k.am1, k.a0, k.a1), h, theta1, (-1, 0, 1))
    untwist = np.exp(theta1) * (h[:, np.newaxis] / h[np.newaxis, :])
    bound_scale = np.exp(theta1) * float(h.max() / h.min())
    m = k.m
    g = np.zeros((m, m))
    it, check = 0, 256
    diff_prev = it_prev = None
    while it < budget:
        g_new = tw_m1 + tw_0 @ g + tw_1 @ (g @ g)
        diff = float(np.abs(g_new - g).max())
        g = g_new
        it += 1
        if diff <= 1e-13 or it >= check:
            check = it + min(2 * check, 8192)
            sp_lo = matcore.spectral_radius(can.c0 + can.a1 @ (untwist * g))
            if sp_lo > 1.0 + LE_ONE_SLACK:
                return False
            if diff <= 1e-13:
                return True
            if diff_prev is not None and 0.0 < diff < diff_prev:
                rate = (diff / diff_prev) ** (1.0 / (it - it_prev))
                if rate < 1.0:
                    bound = 4.0 * bound_scale * diff * rate / (1.0 - rate)
                    sp_hi = matcore.spectral_radius(
                        can.c0 + can.a1 @ (untwist * g + bound))
                    if sp_hi <= 1.0 + LE_ONE_SLACK:
                        return True
            diff_prev, it_prev = diff, it
    raise NoConvergence("existence undecidable within budget at this scale")


def cp_k(k: QbdBlocks, steps: int = 40) -> float:
    """Convergence parameter of the assembled matrix: sup{u : uK has a
    superharmonic vector}, by bisection on the scale u."""
    t_plus = cp_kplus(k)
    if not superharmonic_exists_via_G(k):
        # c_p(K) < 1; bisect on (0, 1]
        lo, hi = 0.0, 1.0
    else:
        lo, hi = 1.0, t_plus
        if hi - lo < 1e-14:
            return lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        try:
            ok = _exists_decision(scale(k, mid))
        except NoConvergence:
            # near the critical scale the twisted chain is almost null
            # recurrent; classify conservatively, the error stays within
            # the undecidable band
            ok = False
        if ok:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classify_recurrence(k: QbdBlocks, tol: float = 1e-9) -> str:
    """Coarse classification at the convergence parameter t = c_p(K):
    ``"t_positive"`` when t < c_p(K_+), else ``"t_null_or_transient"``."""
    if not superharmonic_exists_via_G(k):
        raise NoSuperharmonicVector("c_p(K) < 1")
    t = cp_k(k)
    t_plus = cp_kplus(k)
    return "t_positive" if t < t_plus - tol else "t_null_or_transient"
