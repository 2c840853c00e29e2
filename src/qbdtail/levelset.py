"""Geometry of a convex level curve in the tilting plane.

The analyses in :mod:`qbdtail.qbd2d` and :mod:`qbdtail.jackson` both reduce
to the same picture: a convex function ``gap(theta)`` on R^2, negative on a
bounded open region, whose zero set is a closed convex curve.  Decay rates
come from extreme points of the curve and from feasibility flags attached to
curve points (one flag per coordinate, from the boundary-face conditions).

The curve is parametrized by the angle around an interior center; radial
root finding, pole location, flag-transition bisection, the tau/category
logic and the directional decay rates all live here, independent of how
``gap`` and the flags are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGammaPlus, InconsistentCategory, ZeroDirection
from .qbd1d import _golden_min, bisect_root, convex_min_scalar

CATEGORY_TOL = 1e-9


@dataclass(frozen=True)
class TauReport:
    tau: tuple
    theta_gamma: tuple    # the two arg-sup points with feasibility
    theta_max: tuple      # the two unconstrained arg-sup points
    category: str         # "I", "II_1" or "II_2"


def minimize_convex_2d(f, x0=(0.0, 0.0), rounds: int = 60, tol: float = 1e-11):
    """Coordinate descent with golden-section line searches."""
    x = np.array(x0, dtype=float)
    for _ in range(rounds):
        moved = 0.0
        for axis in (0, 1):
            def line(v, axis=axis):
                y = x.copy()
                y[axis] = v
                return f(y)
            v, _ = convex_min_scalar(line, x[axis], step=0.5, tol=tol)
            moved = max(moved, abs(v - x[axis]))
            x[axis] = v
        if moved <= tol:
            break
    return x, f(x)


class LevelCurve:
    """Angular parametrization of {gap = 0} around an interior center.

    ``gap`` must be convex with a negative minimum; ``flags`` maps a point on
    the curve to the pair of boundary-feasibility booleans.
    """

    def __init__(self, gap, flags, scan_size: int = 192):
        self.gap = gap
        self.flags = flags
        center, gmin = minimize_convex_2d(gap)
        if gmin > -1e-12:
            raise EmptyGammaPlus("level region has empty interior")
        self.center = center
        self.gmin = gmin
        self.scan_phi = np.linspace(0.0, 2.0 * np.pi, scan_size, endpoint=False)
        self.scan_points = [self.point_at(phi) for phi in self.scan_phi]
        self.scan_flags = [self.flags(p) for p in self.scan_points]
        self._pole_cache = {}

    # -- parametrization ---------------------------------------------------

    def point_at(self, phi: float) -> np.ndarray:
        u = np.array([np.cos(phi), np.sin(phi)])
        t_hi = 1.0
        while self.gap(self.center + t_hi * u) <= 0:
            t_hi *= 2.0
            if t_hi > 1e8:
                raise EmptyGammaPlus("level region appears unbounded")
        t = bisect_root(lambda s: self.gap(self.center + s * u), 0.0, t_hi,
                        tol=1e-12 * (1.0 + t_hi))
        return self.center + t * u

    # -- poles and sections ------------------------------------------------

    def extreme(self, direction) -> np.ndarray:
        """The curve point maximizing <direction, theta>."""
        d = np.asarray(direction, dtype=float)
        k = int(np.argmax([float(d @ p) for p in self.scan_points]))
        n = len(self.scan_phi)
        span = 2.0 * np.pi / n
        lo = self.scan_phi[k] - span
        hi = self.scan_phi[k] + span
        phi, _ = _golden_min(lambda f: -float(d @ self.point_at(f)), lo, hi,
                             tol=1e-9)
        return self.point_at(phi)

    def pole(self, i: int) -> np.ndarray:
        """The point maximizing theta_i over the curve."""
        if i not in self._pole_cache:
            self._pole_cache[i] = self.extreme(np.eye(2)[i - 1])
        return self._pole_cache[i]

    def section(self, i: int, value: float):
        """Roots of gap along {theta_{3-i} = value}: (lo, hi) in theta_i,
        or None when the line misses the region."""
        other = 2 - i  # index of the fixed coordinate (0-based)
        ax = i - 1

        def line(v):
            y = np.empty(2)
            y[ax] = v
            y[other] = value
            return self.gap(y)

        vmin, fmin = convex_min_scalar(line, self.center[ax], step=0.5)
        if fmin > 0:
            return None
        lo_b = vmin - 1.0
        while line(lo_b) <= 0:
            lo_b = vmin - 2.0 * (vmin - lo_b)
        hi_b = vmin + 1.0
        while line(hi_b) <= 0:
            hi_b = vmin + 2.0 * (hi_b - vmin)
        lo = bisect_root(line, lo_b, vmin, tol=1e-12)
        hi = bisect_root(line, vmin, hi_b, tol=1e-12)
        return lo, hi

    def _point_on_section(self, i: int, ti: float, other: float) -> np.ndarray:
        y = np.empty(2)
        y[i - 1] = ti
        y[2 - i] = other
        return y

    # -- feasibility extremes ----------------------------------------------

    def _flag(self, point, i: int) -> bool:
        return bool(self.flags(point)[i - 1])

    def _flag_transitions(self, i: int, tol: float = 1e-10):
        """Refined curve points at the boundaries of the feasible arcs."""
        n = len(self.scan_phi)
        out = []
        for k in range(n):
            fa = self.scan_flags[k][i - 1]
            fb = self.scan_flags[(k + 1) % n][i - 1]
            if fa == fb:
                continue
            lo, hi = self.scan_phi[k], self.scan_phi[k] + 2.0 * np.pi / n
            flo = fa
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if self._flag(self.point_at(mid), i) == flo:
                    lo = mid
                else:
                    hi = mid
            out.append(self.point_at(lo if flo else hi))
        return out

    def feasible_extreme(self, i: int) -> np.ndarray:
        """arg sup{theta_i >= 0 : theta on curve, flag_i holds}."""
        pole = self.pole(i)
        if self._flag(pole, i):
            return pole
        cands = [p for p, fl in zip(self.scan_points, self.scan_flags)
                 if fl[i - 1]]
        cands.extend(self._flag_transitions(i))
        cands = [p for p in cands if p[i - 1] >= -1e-12]
        if not cands:
            raise EmptyGammaPlus(
                f"no feasible curve point with theta_{i} >= 0")
        return cands[int(np.argmax([p[i - 1] for p in cands]))]

    def xi_bar(self, i: int, other_value: float) -> float:
        """sup of theta_i over feasible curve points at fixed other
        coordinate."""
        sec = self.section(i, other_value)
        if sec is None:
            raise EmptyGammaPlus("section misses the level region")
        lo, hi = sec
        if self._flag(self._point_on_section(i, hi, other_value), i):
            return hi
        if self._flag(self._point_on_section(i, lo, other_value), i):
            return lo
        raise EmptyGammaPlus("no feasible point on the section")

    # -- tau and categories --------------------------------------------------

    def tau_report(self) -> TauReport:
        p1 = self.feasible_extreme(1)
        p2 = self.feasible_extreme(2)
        pm1 = self.pole(1)
        pm2 = self.pole(2)
        below_1 = p1[1] < p2[1] - CATEGORY_TOL   # theta^{(1,G)}_2 < theta^{(2,G)}_2
        below_2 = p2[0] < p1[0] - CATEGORY_TOL   # theta^{(2,G)}_1 < theta^{(1,G)}_1
        if below_1 and below_2:
            category = "I"
            tau = (float(p1[0]), float(p2[1]))
        elif not below_1 and below_2:
            category = "II_1"
            tau = (float(self.xi_bar(1, p2[1])), float(p2[1]))
        elif below_1 and not below_2:
            category = "II_2"
            tau = (float(p1[0]), float(self.xi_bar(2, p1[0])))
        else:
            raise InconsistentCategory(
                "inconsistent category geometry: both feasibility extremes "
                "dominate; indicates a numerical defect")
        return TauReport(tau=tau,
                         theta_gamma=(p1.copy(), p2.copy()),
                         theta_max=(pm1.copy(), pm2.copy()),
                         category=category)

    # -- directional supremum over the southwest closure ---------------------

    def directional_sup(self, c) -> float:
        """sup{u >= 0 : some curve point dominates u*c componentwise}."""
        c = np.asarray(c, dtype=float)
        if np.all(c > 0):
            def ratio(p):
                return float(min(p[0] / c[0], p[1] / c[1]))
            k = int(np.argmax([ratio(p) for p in self.scan_points]))
            n = len(self.scan_phi)
            span = 2.0 * np.pi / n
            phi, val = _golden_min(lambda f: -ratio(self.point_at(f)),
                                   self.scan_phi[k] - span,
                                   self.scan_phi[k] + span, tol=1e-10)
            return max(-val, 0.0)
        # coordinate direction: sup of theta_i over curve points with the
        # other coordinate positive
        i = 1 if c[0] > 0 else 2
        scale = c[i - 1]
        pole = self.pole(i)
        cands = []
        if pole[2 - i] > 0:
            cands.append(pole[i - 1])
        sec = self.section(i, 0.0)
        if sec is not None:
            cands.append(sec[1])
        if not cands:
            return 0.0
        return max(max(cands) / scale, 0.0)


def checked_direction(direction) -> np.ndarray:
    """The direction as a float vector; ZeroDirection unless it is finite,
    nonnegative and nonzero."""
    c = np.asarray(direction, dtype=float)
    if (c.shape != (2,) or not np.all(np.isfinite(c)) or np.any(c < 0)
            or np.all(c == 0)):
        raise ZeroDirection("direction must be finite, nonnegative and nonzero")
    return c


@dataclass(frozen=True)
class Decay:
    tau_report: TauReport
    directions: tuple     # (c1, c2) per requested direction
    rates: tuple          # decay rate per direction


def decay(curve: LevelCurve, directions) -> Decay:
    """Exponential decay rates of P(<L, c> > x) for checked directions c.

    Each rate is sup{u >= 0 : u c in the convergence domain}: the minimum of
    the box bound min_i tau_i/c_i and the curve bound over the southwest
    closure of the tilting region, taken for c scaled to sum one.
    """
    tau = curve.tau_report()
    rates = []
    for c in directions:
        s = float(c.sum())
        chat = c / s
        box = min(tau.tau[i] / chat[i] for i in range(2) if chat[i] > 0)
        rates.append(float(min(box, curve.directional_sup(chat))) / s)
    return Decay(tau_report=tau,
                 directions=tuple((float(c[0]), float(c[1])) for c in directions),
                 rates=tuple(rates))


@dataclass(frozen=True)
class BoundaryRow:
    theta1: float
    theta2_lower: float
    theta2_upper: float
    feasible_c1: bool    # either branch point satisfies the face-1 condition
    feasible_c2: bool


def boundary_rows(curve: LevelCurve, samples: int) -> list:
    """Two-branch table of the curve on a theta_1 grid.

    Each row holds the lower and upper theta_2 roots at one theta_1 value;
    the feasibility columns are the disjunction over the two branch points.
    The extreme columns degenerate to the tangency points.
    """
    west = curve.extreme((-1.0, 0.0))
    east = curve.pole(1)
    grid = np.linspace(float(west[0]), float(east[0]), max(3, samples))
    rows = []
    for idx, t1 in enumerate(grid):
        if idx == 0:
            lo = hi = float(west[1])
        elif idx == len(grid) - 1:
            lo = hi = float(east[1])
        else:
            sec = curve.section(2, float(t1))
            if sec is None:
                continue
            lo, hi = sec
        fl = curve.flags(np.array([t1, lo]))
        fu = curve.flags(np.array([t1, hi]))
        rows.append(BoundaryRow(theta1=float(t1), theta2_lower=float(lo),
                                theta2_upper=float(hi),
                                feasible_c1=bool(fl[0] or fu[0]),
                                feasible_c2=bool(fl[1] or fu[1])))
    return rows
