"""Nonnegative matrices with QBD block structure.

Canonical form, tilting intervals, superharmonic-vector existence (both the
G-matrix and the common-vector characterizations), G/R matrices and
recurrence classification.  One twisted fixed-point iteration computes G
(``_g_iteration``): ``g_minus`` runs it to convergence, and the one existence
test ``superharmonic_exists_via_G`` decides during it.  The boundary
compatibility condition is solved by ``boundary_compatibility``, which
``qbd2d.check_assumption2`` shares.  The scalar tools (Brent roots and
brackets, Brent minima, sublevel intervals, predicate bisection) also serve
``levelset``.

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

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = _EPS ** 0.5


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
class CompatibilityResult:
    """Outcome of ``boundary_compatibility`` (both check_assumption1 and
    qbd2d.check_assumption2 return it)."""

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


def _brent_min(f, lo: float, hi: float, tol: float = 1e-12):
    """Minimum (x, f(x)) of a unimodal f on [lo, hi] by Brent's localmin:
    a parabola through the three best points when it steps inside the
    bracket and shrinks, else a golden-section step (Brent 1973, *Algorithms
    for Minimization without Derivatives*, ch. 5).  Stops once the bracket
    around x is no wider than ``tol + 4 sqrt(eps) |x|``.
    """
    golden = 0.5 * (3.0 - 5.0 ** 0.5)
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + 0.25 * tol
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = golden * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def convex_min_scalar(f, x0: float = 0.0, step: float = 1.0, tol: float = 1e-12):
    """Minimum of a convex scalar function: downhill bracket walk with
    doubling steps, then Brent's localmin on the bracket."""
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
    return _brent_min(f, a, b, tol=tol)


def _brent_bracket(f, a: float, fa: float, b: float, fb: float, tol: float):
    """Brent-Dekker shrinking of a sign-change bracket [a, b] of f, given
    fa = f(a) and fb = f(b) of opposite signs (or one of them zero).

    Inverse-quadratic and secant steps, with a bisection step whenever they
    stall or a value is not finite (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 4).  Returns ``(b, fb, c, fc)``: b the best
    point, either an exact zero of f or an end of the sign-change bracket
    [b, c] no wider than ``max(tol, 4 eps |b|)``.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(1000):
        # keep the root between b (the best point) and c
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = max(0.5 * tol, 2.0 * _EPS * abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, fb, c, fc
        # |fb| <= |fc| and |fb| < |fa| here, so fb is finite when fa is
        if (abs(e) >= tol1 and abs(fa) > abs(fb) and math.isfinite(fa)
                and math.isfinite(fc)):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s          # secant
            else:
                q, r = fa / fc, fb / fc               # inverse quadratic
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else (tol1 if xm > 0 else -tol1)
        fb = f(b)
    raise NoConvergence("root bracket did not shrink to the tolerance")


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Brent-Dekker root of f; f(lo) and f(hi) must straddle zero.

    The returned point is an exact zero of f or an end of a sign-change
    bracket no wider than ``max(tol, 4 eps |root|)`` (``_brent_bracket``).
    """
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise NoSignChange("root bracket does not straddle a root")
    return _brent_bracket(f, lo, fa, hi, fb, tol)[0]


def _sublevel_interval(f, level: float, x0: float, step: float, tol: float):
    """Ends (lo, hi) of {x : f(x) <= level} for a convex scalar f, or None
    when the minimum lies above ``level``: an inner point below ``level``
    (``x0`` itself when f(x0) < level, else the convex minimum), a doubling
    bracket on each side, then one Brent root per side."""
    if f(x0) < level:   # strict: at f(x0) == level, x0 may be both ends
        inner = x0
    else:
        inner, fmin = convex_min_scalar(f, x0, step=step, tol=tol)
        if fmin > level:
            return None
    g = lambda x: f(x) - level
    lo_b = inner - 1.0
    while g(lo_b) <= 0:
        lo_b = inner - 2.0 * (inner - lo_b)
    hi_b = inner + 1.0
    while g(hi_b) <= 0:
        hi_b = inner + 2.0 * (hi_b - inner)
    return bisect_root(g, lo_b, inner, tol=tol), bisect_root(g, inner, hi_b, tol=tol)


def _bisect_predicate(pred, a: float, b: float, at_a: bool, tol: float):
    """Shrink [a, b] to width ``tol`` keeping pred(a) == at_a != pred(b)."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if pred(mid) == at_a:
            a = mid
        else:
            b = mid
    return a, b


def gamma1d_plus(k: QbdBlocks) -> Interval:
    """Sublevel interval {theta : gamma(theta) <= 1} of the convex interior
    eigenvalue curve, ends located to 1e-12; empty or degenerate is valid.

    A stochastic K has gamma(0) = 1 exactly, so 0 is the end on the side
    the mean drift points away from (both ends at zero drift, where the
    numerical tangent minimum may sit just above 1).
    """
    ends = _sublevel_interval(lambda th: gamma_a(k, th), 1.0, 0.0, 1.0, 1e-12)
    if not _is_stochastic(k):
        return EMPTY_INTERVAL if ends is None else Interval(*ends)
    lo, hi = (0.0, 0.0) if ends is None else ends
    drift = mean_drift(k)
    return Interval(lo=0.0 if drift <= 0 else lo, hi=0.0 if drift >= 0 else hi)


def cp_kplus(k: QbdBlocks) -> float:
    """Convergence parameter of the boundary-free part: the reciprocal of
    the convex minimum (to 1e-12) of the interior eigenvalue curve."""
    _, fmin = convex_min_scalar(lambda th: gamma_a(k, th), 0.0)
    return 1.0 / fmin


def _g_iteration(k: QbdBlocks, theta1: float):
    """Fixed-point iteration for G- in twisted coordinates at theta1, the
    left end of {gamma <= 1}, where the twisted chain is (sub)stochastic.

    Returns ``(untwist, iterates)``: ``iterates`` yields (g_n, change_n) for
    n = 1, 2, ..., the twisted iterates increasing entrywise from 0 and
    their sup-norm change, and ``untwist * g_n`` is G_n in the original
    coordinates.
    """
    h = matcore.dominant(a_mgf(k, theta1)).right
    tw_m1, tw_0, tw_1 = matcore.twist((k.am1, k.a0, k.a1), h, theta1, (-1, 0, 1))

    def iterates():
        g = np.zeros((k.m, k.m))
        while True:
            g_next = tw_m1 + tw_0 @ g + tw_1 @ (g @ g)
            diff = float(np.abs(g_next - g).max())
            g = g_next
            yield g, diff

    return np.exp(theta1) * (h[:, np.newaxis] / h[np.newaxis, :]), iterates()


def g_minus(k: QbdBlocks) -> GMinusResult:
    """Minimal nonnegative solution of G = A_-1 + A_0 G + A_1 G^2.

    Computed in twisted coordinates at theta1, the left endpoint of
    {gamma = 1}, where the twisted chain is (sub)stochastic so the fixed
    point iteration from 0 converges, then untwisted: until a step changes
    G by <= 1e-13, at most 10**7 steps (NoConvergence, early if too slow).
    """
    tol, max_iter = 1e-13, 10**7
    interval = gamma1d_plus(k)
    if interval.empty:
        raise GammaPlusEmpty("gamma(theta) > 1 everywhere; G is undefined")
    if interval.hi - interval.lo < 1e-9:
        warnings.warn("tangent tilting interval: twisted chain is null "
                      "recurrent, G iteration converges slowly", RuntimeWarning)
    untwist, iterates = _g_iteration(k, interval.lo)
    check, diff_at_check = 1024, np.inf
    for it, (g, diff) in enumerate(iterates, start=1):
        if diff <= tol:
            return GMinusResult(g=untwist * g, theta1=interval.lo, iterations=it)
        if it == max_iter:
            break
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


def superharmonic_exists_via_G(k: QbdBlocks) -> bool:
    """Existence of a positive y with K y <= y, via the G-matrix test:
    the tilting interval is nonempty and sp(C0 + A1 G-) <= 1.

    Decided during the G iteration.  The iterates increase entrywise from
    0, so sp(C0 + A1 G_n) > 1 + slack is a rigorous "no"; a geometric
    remainder bound from the measured contraction rate certifies "yes"
    early.  Raises NoConvergence when the twisted chain is too close to
    null recurrent to decide within 200,000 iterations.
    """
    if _is_stochastic(k):
        # the ones vector is superharmonic; skips the (possibly null
        # recurrent, slowly converging) G iteration
        return True
    iv = gamma1d_plus(k)
    if iv.empty:
        return False
    try:
        can = canonical_form(k)
    except BoundaryNotInvertible:
        # sp(B0) >= 1 already contradicts existence
        return False
    untwist, iterates = _g_iteration(k, iv.lo)
    bound_scale = float(untwist.max())
    check = 256
    diff_prev = it_prev = None
    for it, (g, diff) in enumerate(iterates, start=1):
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
        if it >= 200_000:
            break
    raise NoConvergence("existence undecidable within budget at this scale")


def _common_vector_feasible(a_mat: np.ndarray, c_mat: np.ndarray) -> bool:
    """Linear-program feasibility of {h > 0 : A h <= h, C h <= h}.

    Maximizes the minimum entry of h under sum(h) = 1; feasible iff the
    optimum is above 1e-9.
    """
    from scipy.optimize import linprog  # lazy: scipy dominates CLI start-up

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
    return bool(res.status == 0 and res.x is not None and res.x[m] > 1e-9)


def _curve_endpoint_member(k: QbdBlocks, can: CanonicalQbd, theta: float) -> bool:
    """Equality-form membership at a point with gamma(theta) = 1: the Perron
    vector of A_*(theta) must also satisfy the C condition."""
    h = matcore.dominant(a_mgf(k, theta)).right
    c = can.c0 + np.exp(theta) * can.a1
    return bool(np.all(c @ h <= h * (1.0 + LE_ONE_SLACK) + LE_ONE_SLACK))


def gamma1d_0plus(k: QbdBlocks) -> Interval:
    """Closed interval {theta : some h > 0 has A_*(theta) h <= h and
    C_*(theta) h <= h}, its ends bisected to 1e-10.

    Membership at the endpoints of the sublevel interval uses the Perron
    vector directly; strictly inside, the common-vector condition is decided
    by a linear feasibility solve (the set is generally a strict subset of
    the intersection of the two sublevel intervals, so intersecting them is
    not a valid shortcut).
    """
    tol = 1e-10
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
    lo, hi = plus.lo, plus.hi
    if i_first > 0:
        a, b = _bisect_predicate(member, grid[i_first - 1], grid[i_first],
                                 False, tol)
        lo = 0.5 * (a + b)
    if i_last < len(grid) - 1:
        a, b = _bisect_predicate(member, grid[i_last], grid[i_last + 1],
                                 True, tol)
        hi = 0.5 * (a + b)
    return Interval(lo=lo, hi=hi)


def _fit_proportional(v: np.ndarray, ref: np.ndarray):
    """Least-squares scalar c with v ~ c*ref; relative sup-norm residual."""
    denom = float(ref @ ref)
    c = float(v @ ref) / denom
    resid = float(np.max(np.abs(v - c * ref))) / max(1.0, float(np.max(np.abs(v))))
    return c, resid


def boundary_compatibility(down, f0, f1, a_low, a_up, h, theta: float,
                           pinned: float, inverse) -> CompatibilityResult:
    """Boundary vector h0 > 0 and scalars (c0, c1), one of them pinned, with

        F0 h0 + e^{theta} F1 h                   = c0 h0,
        e^{-theta} D h0 + (A_low + e^{theta} A_up) h = c1 h,

    where D is ``down``.  The c1-pinned branch solves the second display
    for h0 by least squares, then fits c0; the c0-pinned branch takes
    h0 = e^{theta} inverse() F1 h, then fits c1.  ``inverse`` returns
    (I - F0)^{-1} (discrete time) or (-F0)^{-1} (continuous time), or None
    when that does not exist.  A branch holds at relative residuals <= 1e-8.
    """
    tol = 1e-8
    eo = np.exp(theta)
    # branch with c1 pinned: solve the lower display for h0
    rhs = eo * ((pinned * h) - (a_low @ h) - eo * (a_up @ h))
    h0, *_ = np.linalg.lstsq(down, rhs, rcond=None)
    solve_resid = float(np.max(np.abs(down @ h0 - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
    if solve_resid <= tol and np.all(h0 > 0):
        c0, prop = _fit_proportional(f0 @ h0 + eo * (f1 @ h), h0)
        resid = max(solve_resid, prop)
        if resid <= tol:
            return CompatibilityResult(holds=True, branch="c1", c0=c0,
                                       c1=pinned, h0=h0, residual=resid)

    # branch with c0 pinned: h0 from the upper display
    inv = inverse()
    if inv is not None:
        h0b = inv @ (eo * (f1 @ h))
        if np.all(h0b > 0):
            w = np.exp(-theta) * (down @ h0b) + (a_low + eo * a_up) @ h
            c1, prop = _fit_proportional(w, h)
            if prop <= tol:
                return CompatibilityResult(holds=True, branch="c0", c0=pinned,
                                           c1=c1, h0=h0b, residual=prop)

    best = solve_resid if np.all(h0 > 0) else np.inf
    return CompatibilityResult(holds=False, branch="none", c0=np.nan,
                               c1=np.nan, h0=None, residual=float(best))


def check_assumption1(k: QbdBlocks, theta: float) -> CompatibilityResult:
    """Numerical check of the boundary compatibility condition at theta:
    existence of a positive boundary vector h0 and scalars (c0, c1), one of
    them equal to 1, with

        B0 h0 + e^{theta} B1 h           = c0 h0,
        e^{-theta} B_-1 h0 + (A0 + e^{theta} A1) h = c1 h,

    where h is the Perron vector of A_*(theta) (``boundary_compatibility``
    with D = B_-1, F0 = B0, F1 = B1, A_low = A0, A_up = A1).
    """
    plus = gamma1d_plus(k)
    if not plus.contains(theta, slack=1e-9):
        raise ThetaOutsideGammaPlus(f"theta={theta} outside {plus}")
    h = matcore.dominant(a_mgf(k, theta)).right

    def inverse():
        try:
            return matcore.neumann_inverse(k.b0)
        except SpectralRadiusNotBelowOne:
            return None

    return boundary_compatibility(k.bm1, k.b0, k.b1, k.a0, k.a1, h / h.max(),
                                  theta, 1.0, inverse)


def mean_drift(k: QbdBlocks) -> float:
    """Stationary mean level drift of the interior kernel."""
    nu = matcore.dominant((k.am1 + k.a0 + k.a1).T).right
    return float(nu @ ((k.a1 - k.am1) @ np.ones(k.m)))


def rate_matrix(k: QbdBlocks) -> np.ndarray:
    """Minimal nonnegative solution of R = R^2 A_-1 + R A_0 + A_1 for a
    stochastic, positive recurrent chain (step change <= 1e-13, 10**7 steps)."""
    if not _is_stochastic(k, tol=1e-9):
        raise NotStochastic("assembled matrix is not row stochastic")
    if mean_drift(k) >= 0:
        raise NotPositiveRecurrent("interior mean drift is >= 0")
    m = k.m
    r = np.zeros((m, m))
    for _ in range(10**7):
        r_next = k.a1 + r @ k.a0 + (r @ r) @ k.am1
        diff = float(np.max(np.abs(r_next - r)))
        r = r_next
        if diff <= 1e-13:
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


def _cp_bisect(k: QbdBlocks, exists: bool, t_plus: float) -> float:
    """Bisection on the scale u for sup{u : uK has a superharmonic vector},
    given the existence answer at u = 1 and c_p(K_+)."""
    # c_p(K) < 1 without existence at u = 1, else it lies in [1, c_p(K_+)]
    lo, hi = (1.0, t_plus) if exists else (0.0, 1.0)
    if hi - lo < 1e-14:
        return lo

    def ok(u: float) -> bool:
        try:
            return superharmonic_exists_via_G(scale(k, u))
        except NoConvergence:
            # near the critical scale the twisted chain is almost null
            # recurrent; classify conservatively, the error stays within
            # the undecidable band
            return False

    # 40 halvings, but no narrower than a few ulps: a bracket of one ulp
    # cannot shrink further
    a, b = _bisect_predicate(ok, lo, hi, True,
                             max((hi - lo) * 2.0**-40, 4.0 * _EPS * hi))
    return 0.5 * (a + b)


def cp_k(k: QbdBlocks) -> float:
    """Convergence parameter of the assembled matrix: sup{u : uK has a
    superharmonic vector}, by bisection on the scale u."""
    return _cp_bisect(k, superharmonic_exists_via_G(k), cp_kplus(k))


def classify_recurrence(k: QbdBlocks) -> str:
    """Coarse classification at the convergence parameter t = c_p(K):
    ``"t_positive"`` when t < c_p(K_+) - 1e-9, else ``"t_null_or_transient"``."""
    if not superharmonic_exists_via_G(k):
        raise NoSuperharmonicVector("c_p(K) < 1")
    t_plus = cp_kplus(k)
    t = _cp_bisect(k, True, t_plus)
    return "t_positive" if t < t_plus - 1e-9 else "t_null_or_transient"
