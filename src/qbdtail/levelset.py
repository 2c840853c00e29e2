"""Geometry of a convex level curve in the tilting plane.

The analyses in :mod:`qbdtail.qbd2d` and :mod:`qbdtail.jackson` both reduce
to the same picture: a convex function ``gap(theta)`` on R^2, negative on a
bounded open region, whose zero set is a closed convex curve.  Decay rates
come from extreme points of the curve and from feasibility flags attached to
curve points (one flag per coordinate, from the boundary-face conditions).
Each flag is a continuous margin read against one slack: flag i holds when
margin i is at most ``qbd1d.LE_ONE_SLACK``.

``gap`` and the margins take one point (2,) or a stack (n, 2) of points.
The center and the extremes take Newton steps on the quadratic model of
gap on a 3x3 stencil.  The curve is parametrized by the angle around the
center; the radial roots of every scan angle (and the sections of a
boundary table) are solved in lockstep, one stacked ``gap`` call per
step.  Every other curve point is bracketed from the scan points around
its angle only (convexity puts the root between a chord and two
secants) and solved alone: an extreme at its Newton angle and one flag
transition per face (Brent on the margin in the angle, at the first flag
change of the walk from the pole along the lower branch).  Sections,
tau/category and the directional rates work point by point.  All of it
is independent of how ``gap`` and the margins are computed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (EmptyGammaPlus, InconsistentCategory, NoConvergence,
                     RateOverflow, ZeroDirection)
from .qbd1d import LE_ONE_SLACK, ROOT_TOL, _brent_bracket, _sublevel_interval

CATEGORY_TOL = 1e-9
CENTER_STEPS, EXTREME_STEPS = 40, 30
# a ray from the center still inside the region this far out is unbounded
_RAY_CAP = 1e8
_STENCIL = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])


@dataclass(frozen=True)
class TauReport:
    tau: tuple
    theta_gamma: tuple    # the two arg-sup points with feasibility
    category: str         # "I", "II_1" or "II_2"


def _stencil_model(f, x, h):
    """f on the stencil x + h {-1, 0, 1}^2 in one stacked call: its values
    (3, 3) and the central-difference gradient and Hessian at x."""
    m = np.asarray(f(x + h * _STENCIL), dtype=float).reshape(3, 3)
    (sw, w, nw), (s, c, n), (se, e, ne) = m.tolist()
    grad = np.array([e - w, n - s]) / (2.0 * h)
    cross = 0.25 * (ne - se - nw + sw)
    hess = np.array([[e - 2.0 * c + w, cross],
                     [cross, n - 2.0 * c + s]]) / (h * h)
    return m, grad, hess


def _clipped(step, h):
    """The step shortened to length at most 4h, and its length."""
    size = math.hypot(*step)
    return (step * (4.0 * h / size), 4.0 * h) if size > 4.0 * h else (step, size)


def minimize_convex_2d(f):
    """Damped Newton from the origin on the stencil model of f: -H^-1 g
    where H is positive definite beyond rounding, else the best stencil
    point, clipped to 4h; h = 0.5 follows |step| down to 1e-4.  Stops at
    |step| <= 1e-6 on that h with the stencil's center and value (a level
    curve needs only an interior point); else ``NoConvergence``."""
    x, h = np.zeros(2), 0.5
    for _ in range(CENTER_STEPS):
        m, g, hess = _stencil_model(f, x, h)
        tau = 1e-12 * float(np.abs(m).max()) / (h * h)
        (a, b), (_, c) = hess.tolist()
        a, c = a - tau, c - tau       # H - tau I, in floats
        convex = a > 0 and a * c > b * b
        step = -np.linalg.solve(hess, g) if convex else h * _STENCIL[np.argmin(m)]
        step, size = _clipped(step, h)
        if size <= 1e-6 and h <= 1e-4:
            return x, float(m[1, 1])
        x = x + step
        h = max(min(h, size), 1e-4)
    raise NoConvergence("the level-curve center did not settle")


def _radial_roots(gap, base, step, inside) -> np.ndarray:
    """Lockstep roots t > 0 of gap(base_k + t step_k) = 0, one per lane k,
    given ``inside`` = gap(base) < 0 per lane.

    Each lane doubles its bracket end from t = 1 until gap > 0 there
    (``EmptyGammaPlus`` past ``_RAY_CAP``), then Illinois regula falsi (a
    bisection step where the secant is not finite) shrinks it to
    ``ROOT_TOL`` (1 + t_hi), t_hi the doubled end.  A lane returns an exact
    zero of gap or the end of its final bracket with the smaller |gap|.
    Every step is one ``gap`` call on the stack of the lanes still open.
    """
    n = len(base)
    lo, f_lo = np.zeros(n), np.array(inside, dtype=float)
    hi, f_hi = np.ones(n), np.empty(n)
    open_ = np.arange(n)
    while open_.size:
        f = gap(base[open_] + hi[open_, np.newaxis] * step[open_])
        grow = f <= 0
        f_hi[open_[~grow]] = f[~grow]
        open_ = open_[grow]
        lo[open_], f_lo[open_] = hi[open_], f[grow]
        hi[open_] *= 2.0
        if (hi[open_] > _RAY_CAP).any():
            raise EmptyGammaPlus("level region appears unbounded")
    tol = ROOT_TOL * (1.0 + hi)
    # Illinois: the secant runs on scaled copies (sa, sb) of the end values;
    # an end kept twice in a row has its value halved.  The open lanes
    # live in compact arrays; a lane that closes is written back once.
    k = np.flatnonzero((hi - lo > tol) & (f_lo != 0))
    a, b, fa, fb, t_k = lo[k], hi[k], f_lo[k], f_hi[k], tol[k]
    base, step = base[k], step[k]
    sa, sb = fa.copy(), fb.copy()
    last = np.zeros(k.size)          # -1: a moved last, +1: b moved last
    for _ in range(200):
        if not k.size:
            break
        x = a - sa * (b - a) / (sb - sa)
        x = np.where(np.isfinite(x), x, 0.5 * (a + b))
        half = 0.5 * t_k
        x = np.minimum(np.maximum(x, a + half), b - half)
        f = gap(base + x[:, np.newaxis] * step)
        moved_a = f <= 0
        moved_b = ~moved_a
        side = np.where(moved_a, -1.0, 1.0)
        twice = last == side
        for end, value in ((a, x), (fa, f), (sa, f)):
            np.copyto(end, value, where=moved_a)
        for end, value in ((b, x), (fb, f), (sb, f)):
            np.copyto(end, value, where=moved_b)
        np.multiply(sb, 0.5, out=sb, where=moved_a & twice)
        np.multiply(sa, 0.5, out=sa, where=moved_b & twice)
        last = side
        keep = (b - a > t_k) & (fa != 0)
        if not keep.all():
            gone = ~keep
            done = k[gone]
            lo[done], hi[done], f_lo[done], f_hi[done] = (
                a[gone], b[gone], fa[gone], fb[gone])
            k, a, b, fa, fb, sa, sb, t_k, base, step, last = (
                v[keep] for v in (k, a, b, fa, fb, sa, sb, t_k, base, step,
                                  last))
    if k.size:
        raise NoConvergence("radial root brackets did not shrink to the tolerance")
    return np.where(np.abs(f_hi) < np.abs(f_lo), hi, lo)


class LevelCurve:
    """Angular parametrization of {gap = 0} around an interior center.

    ``gap`` must be convex with a negative minimum; ``margin(points, i)``
    gives face i's boundary-feasibility margins at curve points, and flag i
    holds where margin i is at most ``LE_ONE_SLACK`` (``+inf`` never
    holds; ``_excess``).  Both take one point (2,) or a stack (n, 2).
    """

    def __init__(self, gap, margin, scan_size: int):
        self.gap = gap
        self.margin = margin
        center, gmin = minimize_convex_2d(gap)
        if gmin > -1e-12:
            raise EmptyGammaPlus("level region has empty interior")
        self.center = center
        self.gmin = gmin
        self.scan_phi = np.linspace(0.0, 2.0 * np.pi, scan_size, endpoint=False)
        self._angles = self.scan_phi.tolist()   # point_at's bisect reads a list
        u = np.column_stack((np.cos(self.scan_phi), np.sin(self.scan_phi)))
        base = np.broadcast_to(center, u.shape)
        t = _radial_roots(gap, base, u, np.full(scan_size, gmin))
        self.scan_points = center + t[:, np.newaxis] * u
        self._pole_cache = {}

    @cached_property
    def scan_margins(self) -> np.ndarray:
        """(n, 2) margins of faces 1 and 2 at the scan points, computed
        when feasibility is first read."""
        return np.column_stack([self.margin(self.scan_points, i) for i in (1, 2)])

    def _excess(self, i: int, points=None):
        """The one flag reading: face i's margin minus ``LE_ONE_SLACK`` at
        ``points`` (default the scan), <= 0 where flag i holds."""
        margins = (self.scan_margins[:, i - 1] if points is None
                   else self.margin(points, i))
        return margins - LE_ONE_SLACK

    # -- parametrization ---------------------------------------------------

    def point_at(self, phi: float) -> np.ndarray:
        """The curve point at angle phi, from phi and the scan alone: a copy
        of the scan point at a scan angle, else the root of gap along the
        ray, bracketed by the scan points around phi and shrunk by Brent
        to ``ROOT_TOL`` (1 + t_hi).

        With A, B the scan neighbours of phi and P, Q the next ones out,
        the chord AB lies inside the region (convexity) and, from 3 scan
        points on, the lines PA and BQ bound the arc from A to B from
        outside; the upper end is at most 2 max(|A|, |B|).  gap(lo) <= 0 <
        gap(hi) certifies the bracket; where rounding breaks it, the broken
        end becomes the other end and the bracket doubles its width away
        from it (the center, at t = 0, is inside).
        """
        phi = float(phi) % (2.0 * np.pi)
        angles = self._angles
        n = len(angles)
        k = bisect_left(angles, phi)
        if k < n and angles[k] == phi:
            return self.scan_points[k].copy()
        # in floats: the same IEEE operations as the arrays center + t u
        cx, cy = self.center.tolist()
        u = ux, uy = math.cos(phi), math.sin(phi)
        p, a, b, q = ((x - cx, y - cy) for x, y in self.scan_points.take(
            [(k + j) % n for j in (-2, -1, 0, 1)], axis=0).tolist())
        gap = self.gap
        g = lambda t: float(gap(np.array((cx + t * ux, cy + t * uy))))
        lo = _ray_hit(u, a, b)
        lo = lo if lo < math.inf else 0.0
        hi = 2.0 * max(math.hypot(*a), math.hypot(*b))
        if n >= 3:   # at scans 1 and 2, PA and BQ are the chord AB
            hi = min(hi, _ray_hit(u, p, a), _ray_hit(u, b, q))
        width = max(hi - lo, ROOT_TOL * (1.0 + lo))
        hi = lo + width
        f_lo, f_hi = g(lo), g(hi)
        while True:
            if not f_lo <= 0:
                hi, f_hi, lo = lo, f_lo, max(lo - width, 0.0)
                f_lo = g(lo)
            elif f_hi <= 0:
                lo, f_lo, hi = hi, f_hi, hi + width
                if hi > _RAY_CAP:
                    raise EmptyGammaPlus("level region appears unbounded")
                f_hi = g(hi)
            else:
                break
            width *= 2.0
        t = _brent_bracket(g, lo, f_lo, hi, f_hi, ROOT_TOL * (1.0 + hi))[0]
        return np.array((cx + t * ux, cy + t * uy))

    # -- poles and sections ------------------------------------------------

    def extreme(self, direction) -> np.ndarray:
        """The curve point maximizing <direction, theta>: Newton on (gap,
        t . grad gap) = 0, t perpendicular to the direction, on the stencil
        model clipped to 4h, from the best scan sample of radius r (at that
        radius on the ray toward d below 3 scan angles); h = r min(1, pi /
        scan) follows |step| down to 1e-5.  At |step| <= 1e-9 and d . grad
        gap > 0, ``point_at`` of the angle reached; ``NoConvergence`` after
        ``EXTREME_STEPS`` steps or at a singular Jacobian."""
        d = np.asarray(direction, dtype=float)
        t = np.array([-d[1], d[0]])
        x = self.scan_points[int(np.argmax(self.scan_points @ d))]
        r = math.hypot(*(x - self.center))
        x = x if len(self.scan_phi) >= 3 else self.center + r * d / math.hypot(*d)
        h = r * min(1.0, np.pi / len(self.scan_phi))
        for _ in range(EXTREME_STEPS):
            m, g, hess = _stencil_model(self.gap, x, h)
            jac = np.vstack((g, t @ hess))
            if not np.linalg.det(jac):
                break
            step, size = _clipped(np.linalg.solve(jac, (-m[1, 1], -t @ g)), h)
            x = x + step
            if size <= 1e-9 and d @ g > 0:
                return self.point_at(np.arctan2(*(x - self.center)[::-1]))
            h = max(min(h, size), 1e-5)
        raise NoConvergence(f"the curve extreme toward {d.tolist()} did not settle")

    def pole(self, i: int) -> np.ndarray:
        """The point maximizing theta_i over the curve."""
        if i not in self._pole_cache:
            self._pole_cache[i] = self.extreme(np.eye(2)[i - 1])
        return self._pole_cache[i]

    def section(self, i: int, value: float):
        """Roots of gap along {theta_{3-i} = value}: (lo, hi) in theta_i,
        or None when the line misses the region."""
        line = lambda v: self.gap(self._point_on_section(i, v, value))
        return _sublevel_interval(line, 0.0, self.center[i - 1], 0.5)

    def _point_on_section(self, i: int, ti: float, other: float) -> np.ndarray:
        y = np.empty(2)
        y[i - 1] = ti
        y[2 - i] = other
        return y

    # -- feasibility extremes ----------------------------------------------

    def _transition(self, i: int, a, b) -> np.ndarray:
        """The face-i flag change between curve points a and b, each (angle,
        point, ``_excess``) with excesses of opposite signs: Brent on the
        excess in the angle to a bracket of 1e-10; its feasible end."""
        points = {a[0]: a[1], b[0]: b[1]}

        def excess(phi):
            p = points[phi] = self.point_at(phi)
            return float(self._excess(i, p))

        x, fx, y, _ = _brent_bracket(excess, a[0], a[2], b[0], b[2], 1e-10)
        return points[x if fx <= 0 else y]

    def feasible_extreme(self, i: int) -> np.ndarray:
        """arg sup{theta_i >= 0 : theta on curve, flag_i holds}.

        The pole when flag i holds there.  Otherwise one Brent on the first
        flag change met on the walk from the pole along the lower branch
        (clockwise from pole 1, counter-clockwise from pole 2): theta_i
        falls along that branch, and face i's feasible points form one arc
        of it from the origin up to the extreme (C^(i) is nondecreasing in
        theta_{3-i}).  The bracket is the scan cell of the first feasible
        sample walked, on the pole side; with no feasible sample, the walk
        from the pole to the origin, where |gap(0)| <= 1e-12.  A feasible
        scan sample above the answer, or a cell feasible at both ends (face
        i holds around its pole), raises ``InconsistentCategory``.
        """
        pole = self.pole(i)
        top = float(self._excess(i, pole))
        if top <= 0:
            return pole
        n, turn = len(self.scan_phi), (-1.0 if i == 1 else 1.0)
        start = math.atan2(*(pole - self.center)[::-1])
        along = lambda phi: turn * (phi - start) % (2.0 * np.pi)
        excess = self._excess(i)
        hits, ends = np.flatnonzero(excess <= 0), []
        if hits.size:   # the scan cell of the first hit walked, on the pole side
            c = hits[np.argmin(along(self.scan_phi[hits]))] - (i == 2)
            ends = [(self.scan_phi[c], self.scan_points[c], float(excess[c])),
                    (self.scan_phi[c] + 2.0 * np.pi / n,
                     self.scan_points[(c + 1) % n], float(excess[(c + 1) % n]))]
        elif abs(float(self.gap(np.zeros(2)))) <= 1e-12:
            ends = [(start, pole, top),
                    (start + turn * along(math.atan2(*-self.center[::-1])),
                     np.zeros(2), float(self._excess(i, np.zeros(2))))]
        feasible = [e <= 0 for _, _, e in ends]
        if not any(feasible):
            raise EmptyGammaPlus(f"no feasible curve point on face {i}")
        p = None if all(feasible) else self._transition(i, *ends)
        if p is None or (self.scan_points[excess <= 0, i - 1] > p[i - 1]).any():
            raise InconsistentCategory(f"face {i}: not one feasible arc below the pole")
        if p[i - 1] < -1e-12:
            raise EmptyGammaPlus(f"no feasible curve point with theta_{i} >= 0")
        return p

    def xi_bar(self, i: int, other_value: float) -> float:
        """sup of theta_i over feasible curve points at fixed other
        coordinate."""
        sec = self.section(i, other_value)
        if sec is None:
            raise EmptyGammaPlus("section misses the level region")
        for end in sec[::-1]:
            if self._excess(i, self._point_on_section(i, end, other_value)) <= 0:
                return end
        raise EmptyGammaPlus("no feasible point on the section")

    # -- tau and categories --------------------------------------------------

    def tau_report(self) -> TauReport:
        p1 = self.feasible_extreme(1)
        p2 = self.feasible_extreme(2)
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
        return TauReport(tau=tau, theta_gamma=(p1.copy(), p2.copy()),
                         category=category)

    # -- directional supremum over the southwest closure ---------------------

    def directional_sup(self, c) -> float:
        """sup{u >= 0 : some curve point dominates u*c componentwise}.

        The largest of: pole i valued theta_i/c_i, where c_i > 0 and its
        other coordinate has pole_j c_i >= pole_i c_j, and the far root of
        gap(u c) = 0 along the ray (to ``ROOT_TOL``).  For a coordinate
        direction that ray is the section theta_j = 0.
        """
        c = np.asarray(c, dtype=float)
        cands = []
        for i in (1, 2):
            if c[i - 1] > 0:
                pole = self.pole(i)
                if pole[2 - i] * c[i - 1] >= pole[i - 1] * c[2 - i]:
                    cands.append(pole[i - 1] / c[i - 1])
        # start from the center's projection on the ray; when that is
        # outside, _sublevel_interval looks for the minimum along the ray;
        # only the far root is solved
        u0 = float(self.center @ c) / float(c @ c)
        cx, cy = c.tolist()   # u c in floats: the same IEEE products
        ray = _sublevel_interval(lambda u: self.gap(np.array((u * cx, u * cy))),
                                 0.0, u0, 0.5, sides=(1.0,))
        if ray is not None:
            cands.append(ray[0])
        return max(max(cands, default=0.0), 0.0)


def _ray_hit(u, x, y) -> float:
    """Distance t > 0 at which the ray t u from the center meets the line
    through the center offsets x and y; +inf when it does not."""
    den = u[0] * (y[1] - x[1]) - u[1] * (y[0] - x[0])
    t = (x[0] * y[1] - x[1] * y[0]) / den if den else math.inf
    return t if t > 0 else math.inf


def checked_direction(direction) -> np.ndarray:
    """The direction as a float vector; ZeroDirection unless it is finite,
    nonnegative and nonzero."""
    c = np.asarray(direction, dtype=float)
    if (c.shape != (2,) or not np.isfinite(c).all() or (c < 0).any()
            or (c == 0).all()):
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
    closure of the tilting region, taken for c scaled to sum one.  c is
    first divided by 2^e, the least power of two above its largest
    component; that is exact, so a sum past the float range still gives a
    finite rate, and a rate past it raises ``RateOverflow``.
    """
    tau = curve.tau_report()
    rates = []
    for c in directions:
        e = math.frexp(float(c.max()))[1]
        unit = np.ldexp(c, -e)
        s = float(unit.sum())
        chat = unit / s
        # in floats, where a tiny component gives inf without a warning
        box = min(t / ch for t, ch in zip(tau.tau, chat.tolist()) if ch > 0)
        rate = float(min(box, curve.directional_sup(chat))) / s
        if rate and math.frexp(rate)[1] - e > 1024:
            raise RateOverflow(f"rate in direction {c.tolist()} past the float range")
        rates.append(math.ldexp(rate, -e))
    return Decay(tau_report=tau,
                 directions=tuple((float(c[0]), float(c[1])) for c in directions),
                 rates=tuple(rates))


class BoundaryRow(NamedTuple):
    """One row of ``boundary_rows``, in Python floats and bools."""

    theta1: float
    theta2_lower: float
    theta2_upper: float
    feasible_c1: bool    # either branch point satisfies the face-1 condition
    feasible_c2: bool


def boundary_rows(curve: LevelCurve, samples: int) -> list:
    """Two-branch table of the curve on a theta_1 grid of ``samples`` >= 3
    points.

    Each row holds the lower and upper theta_2 roots at one theta_1 value;
    the feasibility columns are the disjunction over the two branch points.
    The extreme columns degenerate to the tangency points.  The interior
    rows are solved in lockstep, up and down from the west-east chord,
    inside the region by convexity; a chord point whose gap is not
    negative raises ``NoConvergence``.
    """
    west = curve.extreme((-1.0, 0.0))
    east = curve.pole(1)
    grid = np.linspace(float(west[0]), float(east[0]), samples)
    chord = np.linspace(float(west[1]), float(east[1]), samples)
    inner = np.column_stack((grid, chord))[1:-1]
    g = curve.gap(inner)
    if not (g < 0).all():
        raise NoConvergence("the west-east chord is not inside the level region")
    t = _radial_roots(curve.gap, np.vstack((inner, inner)),
                      np.repeat([[0.0, 1.0], [0.0, -1.0]], samples - 2,
                                axis=0),
                      np.concatenate((g, g)))
    lower, upper = chord.copy(), chord.copy()
    upper[1:-1] += t[:samples - 2]
    lower[1:-1] -= t[samples - 2:]
    points = np.vstack((np.column_stack((grid, lower)),
                        np.column_stack((grid, upper))))
    feasible = [(e[:samples] <= 0) | (e[samples:] <= 0)
                for e in (curve._excess(i, points) for i in (1, 2))]
    columns = (grid, lower, upper, *feasible)
    return list(map(BoundaryRow._make, zip(*(c.tolist() for c in columns))))
