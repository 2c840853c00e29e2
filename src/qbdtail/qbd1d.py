"""Nonnegative matrices with QBD block structure.

Canonical form, tilting intervals, superharmonic-vector existence (both the
G-matrix and the common-vector characterizations), G/R matrices and
recurrence classification.  One logarithmic reduction in twisted
coordinates computes G with an entrywise bracket (``_log_reduction``):
``g_minus`` and ``rate_matrix`` read its converged G, and the G test reads
the bracket as one signed excess (``_g_excess``), whose sign is the
existence answer ``superharmonic_exists_via_G`` and whose Brent root in
the scale u is ``cp_k``.  The common-vector set is a sublevel interval of a
spectral radius (``gamma1d_0plus``).  The boundary compatibility condition
is solved by ``boundary_compatibility``, which ``qbd2d.check_assumption2``
shares (its pinned level, 1 or 0, also sets its inverse (level I -
F0)^{-1}).  The scalar tools also serve ``levelset``: Brent minima and
roots to ``ROOT_TOL``, every root through ``bisect_root``; only
``_brent_bracket`` takes a width (levelset's relative and angle brackets).

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (BoundaryNotInvertible, GammaPlusEmpty, NoConvergence,
                     NoSignChange, NoSuperharmonicVector, NotIrreducible,
                     NotPositiveRecurrent, NotStochastic,
                     SpectralRadiusNotBelowOne, ThetaOutsideGammaPlus)

# single documented slack for all "<= 1" style tests
LE_ONE_SLACK = 1e-10
# width of every Brent root and minimum bracket (levelset: times 1 + t)
ROOT_TOL = 1e-12
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
        m0, m = self.b0.shape[0], self.a0.shape[0]
        expect = {"b0": (m0, m0), "b1": (m0, m), "bm1": (m, m0),
                  "am1": (m, m), "a0": (m, m), "a1": (m, m)}
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
            if (getattr(self, name) < 0).any():
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
    iterations: int      # logarithmic-reduction doubling steps


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
    return canonical_form(k).c0 + np.exp(theta) * k.a1


def gamma_a(k: QbdBlocks, theta: float) -> float:
    """Perron eigenvalue of the interior matrix MGF at theta."""
    return matcore.perron_value(a_mgf(k, theta))


def _brent_min(f, lo: float, hi: float):
    """Minimum (x, f(x)) of a unimodal f on [lo, hi] by Brent's localmin:
    a parabola through the three best points when it steps inside the
    bracket and shrinks, else a golden-section step (Brent 1973, *Algorithms
    for Minimization without Derivatives*, ch. 5).  Stops once the bracket
    around x is no wider than ``ROOT_TOL + 4 sqrt(eps) |x|``.
    """
    golden = 0.5 * (3.0 - 5.0 ** 0.5)
    a, b = lo, hi
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + 0.25 * ROOT_TOL
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


def convex_min_scalar(f, x0: float = 0.0, step: float = 1.0,
                      f0: float | None = None):
    """Minimum of a convex scalar function: downhill bracket walk with
    doubling steps from x0 (f0, when given, is f(x0)), then Brent's
    localmin on the bracket."""
    a, mid, b = x0 - step, x0, x0 + step
    fa, fm, fb = f(a), f(mid) if f0 is None else f0, f(b)
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
    return _brent_min(f, a, b)


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


def bisect_root(f, lo: float, hi: float, f_lo: float | None = None,
                f_hi: float | None = None) -> float:
    """Brent-Dekker root of f; f(lo) and f(hi) must straddle zero, and
    f_lo = f(lo) and f_hi = f(hi), when given, are not taken again.

    The returned point is an exact zero of f or an end of a sign-change
    bracket no wider than ``max(ROOT_TOL, 4 eps |root|)`` (``_brent_bracket``).
    """
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise NoSignChange("root bracket does not straddle a root")
    return _brent_bracket(f, lo, f_lo, hi, f_hi, ROOT_TOL)[0]


def _sublevel_interval(f, level: float, x0: float, step: float,
                       sides=(-1.0, 1.0)):
    """Ends of {x : f(x) <= level} for a convex scalar f, one per side in
    ``sides`` (-1 the lower end, +1 the upper), or None when the minimum
    lies above ``level``: an inner point below ``level`` (``x0`` itself when
    f(x0) < level, else the convex minimum), then per side a doubling
    bracket and one ``bisect_root`` from the values taken at its ends."""
    f_inner = f(x0)
    if f_inner < level:   # strict: at f(x0) == level, x0 may be both ends
        inner = x0
    else:
        inner, f_inner = convex_min_scalar(f, x0, step=step, f0=f_inner)
        if f_inner > level:
            return None
    g = lambda x: f(x) - level
    g_inner = f_inner - level
    ends = []
    for side in sides:
        out = inner + side
        g_out = g(out)
        while g_out <= 0:
            out = inner + 2.0 * (out - inner)
            g_out = g(out)
        ends.append(bisect_root(g, out, inner, g_out, g_inner) if out < inner
                    else bisect_root(g, inner, out, g_inner, g_out))
    return tuple(ends)


def gamma1d_plus(k: QbdBlocks) -> Interval:
    """Sublevel interval {theta : gamma(theta) <= 1} of the convex interior
    eigenvalue curve, ends to ``ROOT_TOL``; empty or degenerate is valid.

    A stochastic K has gamma(0) = 1 exactly, so 0 is the end on the side
    the mean drift points away from (both ends at zero drift, where the
    numerical tangent minimum may sit just above 1).
    """
    ends = _sublevel_interval(lambda th: gamma_a(k, th), 1.0, 0.0, 1.0)
    if not _is_stochastic(k):
        return EMPTY_INTERVAL if ends is None else Interval(*ends)
    lo, hi = (0.0, 0.0) if ends is None else ends
    drift = mean_drift(k)
    return Interval(lo=0.0 if drift <= 0 else lo, hi=0.0 if drift >= 0 else hi)


def cp_kplus(k: QbdBlocks) -> float:
    """Convergence parameter of the boundary-free part: the reciprocal of
    the convex minimum (to ``ROOT_TOL``) of the interior eigenvalue curve."""
    _, fmin = convex_min_scalar(lambda th: gamma_a(k, th), 0.0)
    return 1.0 / fmin


def _log_reduction(k: QbdBlocks, theta1: float):
    """G- by logarithmic reduction (Latouche & Ramaswami, J. Appl. Prob. 30,
    1993) in twisted coordinates at theta1, the left end of {gamma <= 1}.
    There the twisted blocks sum to a stochastic matrix with nonpositive
    mean drift, so the twisted G is stochastic.

    Step n watches the chain at multiples of 2^n: H_n and L_n are its up
    and down moves, G_n = G_{n-1} + T_{n-1} L_n and T_n = T_{n-1} H_n.  The
    iterates increase to G, and the unreturned mass T_n 1, which is the
    row-sum deficit 1 - G_n 1 of the stochastic twisted chain, bounds what
    is missing: G_n <= G <= G_n + (T_n 1) 1^T entrywise.  The deficit falls
    quadratically, and the reduction stops once it is at most 1e-15 (64
    steps at most, 2^64 levels).  At a tangent interval the twisted chain
    is null recurrent, the deficit only halves per step and rounding in the
    row sums of H_n + L_n grows fourfold; a step that leaves them more than
    1e-6 from 1, does not shrink the deficit or is not finite is dropped,
    and the reduction stops on the deficit it has.

    Returns ``(g, bound, converged, steps)`` in the original coordinates:
    g = G_n, ``bound`` the entrywise bound matrix of G - G_n, ``converged``
    whether the deficit reached 1e-15, and the number of doubling steps.
    """
    m = k.m
    h = matcore.dominant(a_mgf(k, theta1)).right
    down, local, up = matcore.twist((k.am1, k.a0, k.a1), h, theta1, (-1, 0, 1))
    eye = np.eye(m)
    moves = np.linalg.solve(eye - local, np.hstack([up, down]))   # [H_0 L_0]
    h_up, h_down = moves[:, :m], moves[:, m:]
    g, t = h_down, h_up
    deficit = t.sum(axis=1)
    steps = 0
    while deficit.max() > 1e-15 and steps < 64:
        try:
            moves = np.linalg.solve(eye - h_up @ h_down - h_down @ h_up,
                                    np.hstack([h_up @ h_up, h_down @ h_down]))
        except np.linalg.LinAlgError:
            break
        up_next, down_next = moves[:, :m], moves[:, m:]
        g_next, t_next = g + t @ down_next, t @ up_next
        deficit_next = t_next.sum(axis=1)
        if not (np.isfinite(g_next).all() and np.isfinite(t_next).all()
                and deficit_next.max() < deficit.max()
                and np.abs(moves.sum(axis=1) - 1.0).max() <= 1e-6):
            break
        h_up, h_down, g, t, deficit = up_next, down_next, g_next, t_next, deficit_next
        steps += 1
    untwist = np.exp(theta1) * (h[:, np.newaxis] / h[np.newaxis, :])
    return (untwist * g, untwist * deficit[:, np.newaxis],
            bool(deficit.max() <= 1e-15), steps)


def g_minus(k: QbdBlocks) -> GMinusResult:
    """Minimal nonnegative solution of G = A_-1 + A_0 G + A_1 G^2.

    Logarithmic reduction in twisted coordinates at theta1, the left end of
    {gamma = 1} (``_log_reduction``), then untwisted.  A stochastic K with
    mean drift <= 0 has theta1 = 0 (``gamma1d_plus``), taken without
    locating the interval.  Raises ``NoConvergence`` unless the row-sum
    deficit reaches 1e-15, which fails at a tangent interval
    (null-recurrent twisted chain).
    """
    if _is_stochastic(k) and mean_drift(k) <= 0:
        theta1 = 0.0
    else:
        interval = gamma1d_plus(k)
        if interval.empty:
            raise GammaPlusEmpty("gamma(theta) > 1 everywhere; G is undefined")
        theta1 = interval.lo
    g, bound, converged, steps = _log_reduction(k, theta1)
    if not converged:
        raise NoConvergence(f"G bracket stalled at width {bound.max():.1e} "
                            "(tangent tilting interval, null-recurrent chain)")
    return GMinusResult(g=g, theta1=theta1, iterations=steps)


def _row_sums(k: QbdBlocks) -> np.ndarray:
    """Row sums of the assembled matrix: level 0, level 1, the interior."""
    return np.concatenate([
        k.b0 @ np.ones(k.m0) + k.b1 @ np.ones(k.m),
        k.bm1 @ np.ones(k.m0) + (k.a0 + k.a1) @ np.ones(k.m),
        (k.am1 + k.a0 + k.a1) @ np.ones(k.m)])


def _is_stochastic(k: QbdBlocks, tol: float | None = None) -> bool:
    """Every row sum of the assembled matrix lies within ``tol`` of one; by
    default within rounding, 2 eps per term of a row (at most m0 + 3m), so
    that (1 + 5e-13) K is not read as stochastic."""
    if tol is None:
        tol = 2.0 * _EPS * (k.m0 + 3 * k.m)
    return bool(np.abs(_row_sums(k) - 1.0).max() <= tol)


def _g_radius(k: QbdBlocks):
    """Bracket (lo, hi) of sp(C0 + A1 G-) by one ``_log_reduction`` at the
    left end of the tilting interval: lo = sp(C0 + A1 G_n), hi = sp(C0 + A1
    (G_n + bound)) or +inf once lo > 1 + slack; (+inf, +inf) where the
    tilting interval is empty or sp(B0) >= 1."""
    iv = gamma1d_plus(k)
    if iv.empty:
        return math.inf, math.inf
    try:
        can = canonical_form(k)
    except BoundaryNotInvertible:
        return math.inf, math.inf
    g, bound, _, _ = _log_reduction(k, iv.lo)
    lo = float(matcore.spectral_radius(can.c0 + can.a1 @ g))
    if lo > 1.0 + LE_ONE_SLACK:
        return lo, math.inf
    return lo, float(matcore.spectral_radius(can.c0 + can.a1 @ (g + bound)))


def _g_excess(k: QbdBlocks) -> float:
    """Signed excess sp(C0 + A1 G-) - 1 - slack of the G test on the bracket
    (lo, hi) of ``_g_radius``: lo - 1 - slack when positive, a rigorous
    "no"; max(lo - 1 - slack, hi - 1 - 2 slack) <= 0 when hi <= 1 + 2 slack
    ("yes"); ``NoConvergence`` when a stalled bracket (tangent interval)
    straddles the test.  A stochastic K reads -slack (the ones vector)."""
    if _is_stochastic(k):
        return -LE_ONE_SLACK
    lo, hi = _g_radius(k)
    if lo > 1.0 + LE_ONE_SLACK:
        return lo - 1.0 - LE_ONE_SLACK
    if hi <= 1.0 + 2.0 * LE_ONE_SLACK:
        return max(lo - 1.0 - LE_ONE_SLACK, hi - 1.0 - 2.0 * LE_ONE_SLACK)
    raise NoConvergence(f"sp(C0 + A1 G) in [{lo:.12g}, {hi:.12g}] straddles "
                        f"1 + {LE_ONE_SLACK}")


def superharmonic_exists_via_G(k: QbdBlocks) -> bool:
    """Existence of a positive y with K y <= y by the G-matrix test (the
    tilting interval is nonempty and sp(C0 + A1 G-) <= 1): excess <= 0."""
    return _g_excess(k) <= 0


def _selection_radius(a_mat: np.ndarray, c_mat: np.ndarray) -> float:
    """Largest spectral radius over the 2^m matrices whose row i is row i
    of ``a_mat`` or of ``c_mat``: one stacked eigenvalue solve."""
    m = a_mat.shape[0]
    pick = (np.arange(2 ** m)[:, np.newaxis] >> np.arange(m)) & 1
    stack = np.where(pick[:, :, np.newaxis] == 1, c_mat, a_mat)
    return float(matcore.spectral_radius(stack).max())


def gamma1d_0plus(k: QbdBlocks) -> Interval:
    """Closed interval {theta : some h > 0 has A_*(theta) h <= h and
    C_*(theta) h <= h}, its ends located to ``ROOT_TOL``.

    The row choices of A_* and C_* are independent, so a common
    subinvariant vector exists iff phi(theta), the largest spectral radius
    over the 2^m matrices that take each row from A_* or from C_*, is at
    most 1 (Blondel & Nesterov, SIAM J. Matrix Anal. Appl. 31, 2009).
    Every entry is log-convex in theta, so phi is too (Kingman 1961) and
    the set is the sublevel interval {phi <= 1}.  A stochastic K has
    phi(0) = 1 exactly (h = 1), so 0 belongs to the set; the set lies in
    ``gamma1d_plus`` (0 one of its ends): an end within 1e-12 of 0 is 0.
    """
    try:
        can = canonical_form(k)
    except BoundaryNotInvertible:
        return EMPTY_INTERVAL
    ends = _sublevel_interval(
        lambda th: _selection_radius(a_mgf(k, th), can.c0 + np.exp(th) * can.a1),
        1.0, 0.0, 1.0)
    if not _is_stochastic(k):
        return EMPTY_INTERVAL if ends is None else Interval(*ends)
    plus = gamma1d_plus(k)
    lo, hi = (0.0, 0.0) if ends is None else ends
    lo, hi = max(lo, plus.lo), min(hi, plus.hi)
    return Interval(lo=lo if lo < -1e-12 else 0.0, hi=hi if hi > 1e-12 else 0.0)


def _fit_proportional(v: np.ndarray, ref: np.ndarray):
    """Least-squares scalar c with v ~ c*ref; relative sup-norm residual."""
    c = float(v @ ref) / float(ref @ ref)
    resid = float(np.max(np.abs(v - c * ref))) / max(1.0, float(np.max(np.abs(v))))
    return c, resid


def boundary_compatibility(down, f0, f1, a_low, a_up, h, theta: float,
                           pinned: float) -> CompatibilityResult:
    """Boundary vector h0 > 0 and scalars (c0, c1), one of them pinned, with

        F0 h0 + e^{theta} F1 h                   = c0 h0,
        e^{-theta} D h0 + (A_low + e^{theta} A_up) h = c1 h,

    where D is ``down``.  The c1-pinned branch solves the second display
    for h0 by least squares, then fits c0; the c0-pinned branch takes
    h0 = e^{theta} (pinned I - F0)^{-1} F1 h (``matcore.m_inverses``; the
    pinned level is 1 in discrete and 0 in continuous time), then fits c1,
    where that inverse exists.  A branch holds at relative residuals <= 1e-8.
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
    inv, low = matcore.m_inverses(pinned * np.eye(len(f0)) - f0)
    if low >= matcore.NEUMANN_MARGIN:
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
    return boundary_compatibility(k.bm1, k.b0, k.b1, k.a0, k.a1, h / h.max(),
                                  theta, 1.0)


def mean_drift(k: QbdBlocks) -> float:
    """Stationary mean level drift of the interior kernel."""
    nu = matcore.dominant((k.am1 + k.a0 + k.a1).T).right
    return float(nu @ ((k.a1 - k.am1) @ np.ones(k.m)))


def rate_matrix(k: QbdBlocks) -> np.ndarray:
    """Minimal nonnegative solution of R = R^2 A_-1 + R A_0 + A_1 for a
    stochastic, positive recurrent chain: R = A_1 (I - A_0 - A_1 G-)^{-1}
    from ``g_minus``, refused (``NoConvergence``) when the residual of the
    R equation exceeds 1e-12."""
    if not _is_stochastic(k, tol=1e-9):
        raise NotStochastic("assembled matrix is not row stochastic")
    if mean_drift(k) >= 0:
        raise NotPositiveRecurrent("interior mean drift is >= 0")
    g = g_minus(k).g
    r = np.linalg.solve((np.eye(k.m) - k.a0 - k.a1 @ g).T, k.a1.T).T
    residual = float(np.abs(r @ r @ k.am1 + r @ k.a0 + k.a1 - r).max())
    if not residual <= 1e-12:
        raise NoConvergence(f"R equation residual {residual:.3e} above 1e-12")
    return r


def stationary_boundary(k: QbdBlocks):
    """(pi_0, pi_1, R, (I - R)^{-1}) of a positive recurrent stochastic QBD,
    normalized so that pi_0 1 + pi_1 (I - R)^{-1} 1 = 1.

    The balance equations at levels 0 and 1 are solved once with the first
    entry pinned to 1 (as ``oracle.truncate_and_solve`` does); the pinned
    matrix is a nonsingular M-matrix, so a negative or non-finite entry
    raises ``NoConvergence``.
    """
    r = rate_matrix(k)
    m0, m = k.m0, k.m
    # balance at levels 0 and 1 with pi_2 = pi_1 R, transposed:
    #   pi_0 (B0 - I) + pi_1 Bm1 = 0
    #   pi_0 B1 + pi_1 (A0 + R Am1 - I) = 0
    a = np.block([[k.b0 - np.eye(m0), k.b1],
                  [k.bm1, k.a0 + r @ k.am1 - np.eye(m)]]).T
    x = np.ones(m0 + m)
    try:
        x[1:] = np.linalg.solve(a[1:, 1:], -a[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"pinned boundary balance equations: {exc}") from None
    if not np.isfinite(x).all() or (x < 0).any():
        raise NoConvergence("boundary solve gave a negative or non-finite entry")
    pi0, pi1 = x[:m0], x[m0:]
    inv = matcore.neumann_inverse(r)
    total = pi0.sum() + pi1 @ inv @ np.ones(m)
    return pi0 / total, pi1 / total, r, inv


def qbd_stationary(k: QbdBlocks, max_level: int) -> list[np.ndarray]:
    """Stationary vectors (pi_0, ..., pi_max_level) by a boundary solve plus
    the matrix-geometric tail pi_{n+1} = pi_n R."""
    pi0, pi1, r, _ = stationary_boundary(k)
    out = [pi0, pi1]
    for _ in range(max_level - 1):
        out.append(out[-1] @ r)
    return out


def cp_k(k: QbdBlocks) -> float:
    """Convergence parameter sup{u : uK has a superharmonic vector}: the
    Brent root (``bisect_root``) in u of the excess of uK
    (``_g_excess``), which increases with u, in [1, c_p(K_+)] when K has a
    superharmonic vector, else in [1/r, min(1, c_p(K_+))], r the largest
    row sum (the ones vector is superharmonic for K / r).  The upper end is
    returned when the excess is still <= 0 at it times (1 - 1e-12): at
    c_p(K_+) that is the tangent end, where G stalls."""
    excess = functools.cache(lambda u: _g_excess(scale(k, u)))
    t_plus = cp_kplus(k)
    lo, hi = ((1.0, t_plus) if excess(1.0) <= 0
              else (1.0 / _row_sums(k).max(), min(1.0, t_plus)))
    near = hi * (1.0 - 1e-12)
    if near <= lo or excess(near) <= 0:
        return max(lo, hi)
    return bisect_root(excess, lo, near)


def classify_recurrence(k: QbdBlocks) -> str:
    """Coarse classification at the convergence parameter t = c_p(K):
    ``"t_positive"`` when t < c_p(K_+) - 1e-9, else ``"t_null_or_transient"``.

    Existence is monotone in the scale u, so t < u0 = c_p(K_+) - 1e-9
    exactly when u0 K has no superharmonic vector: two existence tests.
    """
    if not superharmonic_exists_via_G(k):
        raise NoSuperharmonicVector("c_p(K) < 1")
    u0 = cp_kplus(k) - 1e-9
    if u0 <= 1.0 or superharmonic_exists_via_G(scale(k, u0)):
        return "t_null_or_transient"
    return "t_positive"
