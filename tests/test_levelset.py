"""Level-curve refinements: the exact diagonal supremum, feasibility
margins, agreement across scan sizes, and evaluation-count ceilings."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from qbdtail import jackson, levelset, modelfile, qbd1d, qbd2d
from qbdtail.errors import (EmptyGammaPlus, FaceNotInvertible,
                            InconsistentCategory, NoConvergence)
from qbdtail.levelset import LevelCurve

from conftest import adversarial_face_spec, scalar_rrw, trichotomy_fuzz_specs

MODELS = Path(__file__).resolve().parent.parent / "models"
SHIPPED = ("scalar_rrw", "modulated_rrw", "tandem_jackson", "mapph_jackson")
DIRECTIONS = [np.array(d, dtype=float) for d in ((1, 0), (0, 1), (1, 1), (2, 1))]
DIAGONALS = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.3, 0.7), (1.0, 4.0),
             (5.0, 1.0)]
AXES = [(1.0, 0.0), (0.0, 1.0), (2.0, 0.0)]


def sup_from_parts(pole1, pole2, ray_root, c):
    """max of min(theta_1/c_1, theta_2/c_2) over a convex region, from its
    two poles and the far root of the boundary along the ray u c."""
    cands = [ray_root]
    if pole1[1] / c[1] >= pole1[0] / c[0]:
        cands.append(pole1[0] / c[0])
    if pole2[0] / c[0] >= pole2[1] / c[1]:
        cands.append(pole2[1] / c[1])
    return max(max(cands), 0.0)


def circle_axis_sup(m, r, c):
    """sup of theta_i/c_i over the disc |theta - m| <= r cut to theta_j >= 0,
    for c = c_i e_i: the pole (m_i + r, m_j) when m_j >= 0, else the far end
    of the chord theta_j = 0."""
    i = 0 if c[0] > 0 else 1
    j = 1 - i
    top = m[i] + (r if m[j] >= 0 else np.sqrt(r * r - m[j] ** 2))
    return max(top / c[i], 0.0)


def far_ray_root(h, c):
    """Far root of a convex h(u c) that is negative at its minimum."""
    inner = minimize_scalar(lambda u: h(u * c), bounds=(0.0, 20.0),
                            method="bounded").x
    return brentq(lambda u: h(u * c), inner, 50.0, xtol=1e-14)


class TestDirectionalSup:
    @pytest.mark.parametrize("m,r", [((0.0, 0.0), 1.0), ((0.5, -0.2), 1.0),
                                     ((-0.3, 0.6), 0.8)],
                             ids=["unit", "shifted_right", "shifted_up"])
    @pytest.mark.parametrize("c", DIAGONALS + AXES)
    def test_circle(self, m, r, c):
        # shifted_right (center at theta_2 = -0.2) and shifted_up (center at
        # theta_1 = -0.3) put the pole below the cut of one coordinate
        # direction, where the section theta_j = 0 sets the rate
        m, c = np.array(m), np.array(c)
        curve = LevelCurve(lambda t: ((t - m) ** 2).sum(axis=-1) - r * r,
                           lambda t, i: np.full(t.shape[:-1], -1.0),
                           scan_size=64)
        if np.all(c > 0):
            cm, cc = float(c @ m), float(c @ c)
            ray = (cm + np.sqrt(cm * cm - cc * (float(m @ m) - r * r))) / cc
            want = sup_from_parts(m + (r, 0.0), m + (0.0, r), ray, c)
        else:
            want = circle_axis_sup(m, r, c)
        assert curve.directional_sup(c) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("c", DIAGONALS)
    def test_scalar_rrw(self, c):
        pxp, pxm, pyp, pym = 0.15, 0.25, 0.1, 0.2
        curve = qbd2d.level_curve(scalar_rrw(pxp, pxm, pyp, pym))
        total = pxp + pxm + pyp + pym

        def pole(a_up, a_down, b_up, b_down):
            # the other coordinate minimizes its own exponential pair; the
            # pole coordinate is the larger root of the remaining quadratic
            s = total - 2.0 * np.sqrt(b_up * b_down)
            top = np.log((s + np.sqrt(s * s - 4.0 * a_up * a_down)) / (2.0 * a_up))
            return top, 0.5 * np.log(b_down / b_up)

        t1, t2 = pole(pxp, pxm, pyp, pym)
        s2, s1 = pole(pyp, pym, pxp, pxm)
        h = lambda t: (pxp * np.exp(t[0]) + pxm * np.exp(-t[0])
                       + pyp * np.exp(t[1]) + pym * np.exp(-t[1]) - total)
        c = np.array(c)
        want = sup_from_parts((t1, t2), (s1, s2), far_ray_root(h, c), c)
        assert curve.directional_sup(c) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("c", DIAGONALS)
    def test_tandem_jackson(self, tandem_spec, c):
        lam, mu1, mu2 = 1.0, 2.0, 3.0
        curve = jackson.analytic_curve(tandem_spec)
        # pole 1: mu1 e^{t2-t1} = mu2 e^{-t2}, x = e^{t1/2} solves
        # lam x^3 - (lam+mu1+mu2) x + 2 sqrt(mu1 mu2) = 0
        x = max(np.roots([lam, 0.0, -(lam + mu1 + mu2),
                          2.0 * np.sqrt(mu1 * mu2)]).real)
        t1 = 2.0 * np.log(x)
        pole1 = (t1, 0.5 * np.log(mu2 / mu1) + 0.5 * t1)
        # pole 2: lam e^{t1} = mu1 e^{t2-t1}, z = e^{t1} solves
        # 2 lam z^3 - (lam+mu1+mu2) z^2 + mu1 mu2 / lam = 0
        z = max(np.roots([2.0 * lam, -(lam + mu1 + mu2), 0.0,
                          mu1 * mu2 / lam]).real)
        pole2 = (np.log(z), np.log(lam / mu1) + 2.0 * np.log(z))
        h = lambda t: (lam * np.expm1(t[0]) + mu1 * np.expm1(t[1] - t[0])
                       + mu2 * np.expm1(-t[1]))
        c = np.array(c)
        want = sup_from_parts(pole1, pole2, far_ray_root(h, c), c)
        assert curve.directional_sup(c) == pytest.approx(want, abs=1e-9)


def flags(curve, point):
    """The pair of feasibility flags at a point: margin <= LE_ONE_SLACK."""
    return tuple(bool(curve.margin(point, i) <= qbd1d.LE_ONE_SLACK)
                 for i in (1, 2))


def transitions(curve, i):
    """Every feasible-arc boundary on the curve, one per scan cell (sample
    k to sample k + 1, wrapped) where flag i changes, each solved from its
    cell's two samples."""
    n = len(curve.scan_phi)
    excess = curve.scan_margins[:, i - 1] - qbd1d.LE_ONE_SLACK
    end = lambda k, phi: (phi, curve.scan_points[k % n], float(excess[k % n]))
    flag = excess <= 0
    return [curve._transition(i, end(k, curve.scan_phi[k]),
                              end(k + 1, curve.scan_phi[k] + 2.0 * np.pi / n))
            for k in np.flatnonzero(flag != np.roll(flag, -1))]


def old_flags(spec, theta):
    """The boolean feasibility test the margins replace."""
    _, h = qbd2d.gamma2_pair(spec, theta)
    h = h / h.max()
    out = []
    for i in (1, 2):
        try:
            c = qbd2d.c2_mgf(spec, i, theta)
        except FaceNotInvertible:
            out.append(False)
            continue
        v = c @ h
        if spec.time == "discrete":
            out.append(bool(np.all(v <= h + qbd1d.LE_ONE_SLACK)))
        else:
            scale = max(1.0, float(np.max(np.abs(c))))
            out.append(bool(np.all(v <= qbd1d.LE_ONE_SLACK * scale)))
    return tuple(out)


class TestMargins:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_flags_keep_the_boolean_tests(self, name):
        mf = modelfile.load_model(MODELS / f"{name}.yaml")
        spec = mf.payload.blocks if mf.kind == "jackson" else mf.payload
        curve = qbd2d.level_curve(spec, scan=64)
        scan_flags = [tuple(f) for f in curve.scan_margins <= qbd1d.LE_ONE_SLACK]
        assert len(set(scan_flags)) > 1   # both values occur
        for p, m, fl in zip(curve.scan_points, curve.scan_margins, scan_flags):
            assert fl == old_flags(spec, p)
            assert all(np.isfinite(v) or v == np.inf for v in m)

    def test_jackson_margins_are_the_face_cumulants(self, mapph_spec):
        curve = jackson.analytic_curve(mapph_spec, scan=32)
        cs = jackson.cumulants(mapph_spec)
        for p, m in zip(curve.scan_points, curve.scan_margins):
            assert tuple(m) == (cs.gamma_face(1, p), cs.gamma_face(2, p))

    def test_scan_margins_are_computed_when_first_read(self):
        calls = []

        def margin(t, i):
            calls.append(i)
            return np.full(np.shape(t)[:-1], -1.0)

        curve = LevelCurve(lambda t: (t ** 2).sum(axis=-1) - 1.0, margin,
                           scan_size=16)
        assert calls == []
        levelset.boundary_rows(curve, 8)   # reads its own rows' margins only
        assert "scan_margins" not in vars(curve)
        calls.clear()
        m = curve.scan_margins
        assert m.shape == (16, 2) and m.dtype == float
        assert curve.scan_margins is m and calls == [1, 2]

    def test_infinite_margin_never_holds(self):
        # face 1 "not invertible" on the left half of the unit circle
        curve = LevelCurve(lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 - 1.0,
                           lambda t, i: np.where((i == 1) & (t[..., 0] < 0.5),
                                                 np.inf, -1.0),
                           scan_size=16)
        assert flags(curve, np.array([-1.0, 0.0])) == (False, True)
        ends = transitions(curve, 1)
        assert len(ends) == 2
        for p in ends:
            assert p[0] == pytest.approx(0.5, abs=1e-9)
            assert flags(curve, p)[0]


def decay_values(name, scan):
    mf = modelfile.load_model(MODELS / f"{name}.yaml")
    if mf.kind == "jackson":
        rep = jackson.decay_report(mf.payload, DIRECTIONS, scan=scan)
        return np.array(rep.analytic.tau_report.tau + rep.analytic.rates
                        + rep.generic.tau_report.tau + rep.generic.rates)
    rep = qbd2d.decay_rates(mf.payload, DIRECTIONS, scan=scan)
    return np.array(rep.tau_report.tau + rep.rates)


@pytest.mark.parametrize("name", SHIPPED)
def test_tau_and_rates_do_not_depend_on_the_scan(name):
    ref = decay_values(name, 192)
    for scan in (1, 2, 3, 4, 32, 64, 512):
        assert np.max(np.abs(decay_values(name, scan) - ref)) <= 1e-9, scan


# (level-function calls, point_at calls) of `decay` in the four directions
# at the default scan, measured once; a stacked call counts once; the
# ceilings allow 10%
COUNTS = {"scalar_rrw": (114, 10), "modulated_rrw": (165, 15),
          "tandem_jackson": (290, 12), "mapph_jackson": (625, 87)}
# the same at scan 64, the scan of perfbench's modulated_walk, mapph_jackson
# and verify items
COUNTS_64 = {"scalar_rrw": (115, 10), "modulated_rrw": (146, 15),
             "tandem_jackson": (302, 12), "mapph_jackson": (671, 93)}


def evaluation_counts(name, scan, monkeypatch):
    counts = {"gap": 0, "point_at": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qbd2d, "gamma2", counted(qbd2d.gamma2, "gap"))
    monkeypatch.setattr(jackson.CumulantSet, "gamma_plus",
                        counted(jackson.CumulantSet.gamma_plus, "gap"))
    monkeypatch.setattr(levelset.LevelCurve, "point_at",
                        counted(levelset.LevelCurve.point_at, "point_at"))
    decay_values(name, scan)
    return counts["gap"], counts["point_at"]


@pytest.mark.parametrize("name", SHIPPED)
def test_evaluation_counts_stay_under_their_ceilings(name, monkeypatch):
    gap, point_at = evaluation_counts(name, 192, monkeypatch)
    assert gap <= 1.1 * COUNTS[name][0]
    assert point_at <= 1.1 * COUNTS[name][1]


@pytest.mark.parametrize("name", SHIPPED)
def test_evaluation_counts_at_scan_64(name, monkeypatch):
    gap, point_at = evaluation_counts(name, 64, monkeypatch)
    assert gap <= 1.1 * COUNTS_64[name][0]
    assert point_at <= 1.1 * COUNTS_64[name][1]


def shipped_curves(scan):
    """(label, curve) for the generic curve of every shipped model and the
    analytic curve of each Jackson one."""
    out = []
    for name in SHIPPED:
        mf = modelfile.load_model(MODELS / f"{name}.yaml")
        spec = mf.payload.blocks if mf.kind == "jackson" else mf.payload
        out.append((name, qbd2d.level_curve(spec, scan=scan)))
        if mf.kind == "jackson":
            out.append((f"{name}-analytic",
                        jackson.analytic_curve(mf.payload, scan=scan)))
    return out


def tau_bits(rep):
    return (rep.category, rep.tau, tuple(p.tolist() for p in rep.theta_gamma))


@pytest.mark.parametrize("scan", [4, 64, 192])
def test_tau_report_does_not_depend_on_earlier_calls(scan):
    """A curve keeps no memory of the points it solved: tau_report on a
    fresh curve is bit-identical to tau_report after other queries."""
    before = {
        "point_at": lambda c: [c.point_at(phi) for phi in
                               np.linspace(0.0, 2.0 * np.pi, 37, endpoint=False)],
        "directional_sup": lambda c: c.directional_sup(np.array([0.5, 0.5])),
        "boundary_rows": lambda c: levelset.boundary_rows(c, 64),
        "feasible_extreme": lambda c: c.feasible_extreme(2),
    }
    fresh = [(label, tau_bits(curve.tau_report()))
             for label, curve in shipped_curves(scan)]
    for key, query in before.items():
        for (label, want), (_, curve) in zip(fresh, shipped_curves(scan)):
            query(curve)
            assert tau_bits(curve.tau_report()) == want, (label, key)


class TestStackedScan:
    @pytest.mark.parametrize("scan", [64, 512])
    def test_scan_points_are_the_radial_roots(self, scan):
        # every other scan angle of a 2n-curve is off the n-curve's scan, so
        # point_at solves it there, bracketed by the n-curve's scan points
        for (label, curve), (_, fine) in zip(shipped_curves(scan),
                                             shipped_curves(2 * scan)):
            for phi, p in zip(fine.scan_phi[1::2], fine.scan_points[1::2]):
                assert np.max(np.abs(curve.point_at(phi) - p)) <= 1e-11, label
            for phi, p in zip(curve.scan_phi, curve.scan_points):
                assert np.array_equal(curve.point_at(phi), p), label

    @pytest.mark.parametrize("factor, broken", [(1.05, 0), (0.95, 1)],
                             ids=["chord_outside", "secants_inside"])
    def test_point_at_repairs_a_broken_bracket(self, factor, broken):
        # scan points pushed out put the chord end outside the region (the
        # first gap value, at lo, is positive); pulled in, the secant end
        # is inside (the second, at hi, is not positive).  The repaired
        # bracket still gives the point to 1e-12 (1 + t).
        mf = modelfile.load_model(MODELS / "modulated_rrw.yaml")
        curve = qbd2d.level_curve(mf.payload, scan=64)
        mids = curve.scan_phi + np.pi / 64
        want = [curve.point_at(phi) for phi in mids]
        gap = curve.gap
        curve.scan_points = curve.center + factor * (curve.scan_points
                                                     - curve.center)
        for phi, p in zip(mids, want):
            values = []
            curve.gap = lambda t: values.append(float(gap(t))) or values[-1]
            got = curve.point_at(phi)
            assert (values[broken] <= 0) == bool(broken)
            t = np.hypot(*(p - curve.center))
            assert np.max(np.abs(got - p)) <= 1e-12 * (1.0 + t)

    def test_scan_margins_are_the_pointwise_margins(self):
        for label, curve in shipped_curves(64):
            for p, m in zip(curve.scan_points, curve.scan_margins):
                single = tuple(float(curve.margin(p, i)) for i in (1, 2))
                assert single == pytest.approx(tuple(m), rel=1e-12, abs=1e-14), label

    @pytest.mark.parametrize("scan", [64, 192, 512])
    def test_gap_calls_do_not_grow_with_the_scan(self, scan, monkeypatch):
        # every scan angle moves in lockstep: one stacked gap call per step
        counting = {"on": True, "calls": 0}
        center = levelset.minimize_convex_2d

        def uncounted(f):
            counting["on"] = False
            try:
                return center(f)
            finally:
                counting["on"] = True

        monkeypatch.setattr(levelset, "minimize_convex_2d", uncounted)
        for name in SHIPPED:
            mf = modelfile.load_model(MODELS / f"{name}.yaml")
            spec = mf.payload.blocks if mf.kind == "jackson" else mf.payload
            gap = qbd2d.curve_gap(spec)

            def counted(theta):
                counting["calls"] += counting["on"]
                return gap(theta)

            counting["calls"] = 0
            LevelCurve(counted, qbd2d.feasibility_margin(spec), scan_size=scan)
            assert counting["calls"] <= 40, name

    def test_flag_reads_build_one_face(self, monkeypatch):
        mf = modelfile.load_model(MODELS / "modulated_rrw.yaml")
        curve = qbd2d.level_curve(mf.payload, scan=64)
        other = {1: float(curve.feasible_extreme(2)[1]),
                 2: float(curve.feasible_extreme(1)[0])}
        faces = []
        c2 = qbd2d.c2_mgf

        def recorded(spec, i, theta):
            faces.append(i)
            return c2(spec, i, theta)

        monkeypatch.setattr(qbd2d, "c2_mgf", recorded)
        for i in (1, 2):
            faces.clear()
            transitions(curve, i)
            curve.feasible_extreme(i)
            # category I: no feasible section point, after both flags are read
            with pytest.raises(EmptyGammaPlus, match="no feasible point"):
                curve.xi_bar(i, other[i])
            assert faces and set(faces) == {i}


def exhaustive_extreme(curve, i):
    """feasible_extreme by its definition: the pole when flag i holds
    there, else the argmax of theta_i over the feasible scan samples and
    every flag transition with theta_i >= -1e-12; None when there is no
    such point."""
    pole = curve.pole(i)
    if flags(curve, pole)[i - 1]:
        return pole
    cands = [p for p, m in zip(curve.scan_points, curve.scan_margins[:, i - 1])
             if m <= qbd1d.LE_ONE_SLACK]
    cands += transitions(curve, i)
    cands = [p for p in cands if p[i - 1] >= -1e-12]
    if not cands:
        return None
    return cands[int(np.argmax([p[i - 1] for p in cands]))]


def fuzz_curves(scan):
    """(label, curve) for the shipped curves and the category-fuzz walks."""
    return shipped_curves(scan) + [
        (f"fuzz-{j}", qbd2d.level_curve(spec, scan=scan))
        for j, spec in enumerate(trichotomy_fuzz_specs())]


class TestPrunedTransitions:
    """feasible_extreme walks from the pole along the lower branch and
    solves only the first flag change it meets."""

    def test_one_feasible_arc_through_the_origin(self):
        # the walk's premise: on every curve that qbdtail builds, face i's
        # feasible samples form one arc, the origin lies on the curve with
        # a feasible margin, and where the pole is infeasible the best
        # feasible sample is on the lower branch (walked from the pole
        # before the opposite extreme)
        curves = fuzz_curves(512) + [
            (f"adversarial-{seed}",
             qbd2d.level_curve(adversarial_face_spec(seed), scan=512))
            for seed in range(8)]
        for label, curve in curves:
            assert abs(curve.gap(np.zeros(2))) <= 1e-12, label
            for i in (1, 2):
                flag = curve.scan_margins[:, i - 1] <= qbd1d.LE_ONE_SLACK
                assert np.sum(flag != np.roll(flag, -1)) == 2, (label, i)
                assert flags(curve, np.zeros(2))[i - 1], (label, i)
                if flags(curve, curve.pole(i))[i - 1]:
                    continue
                turn = -1.0 if i == 1 else 1.0
                angle = lambda p: np.arctan2(*(p - curve.center)[::-1])
                along = lambda phi: turn * (phi - angle(curve.pole(i))) % (2 * np.pi)
                feasible = np.flatnonzero(flag)
                best = feasible[np.argmax(curve.scan_points[feasible, i - 1])]
                far = curve.extreme(-np.eye(2)[i - 1])
                assert along(curve.scan_phi[best]) <= along(angle(far)), (label, i)

    @pytest.mark.parametrize("scan", [4, 16, 64])
    def test_pruned_extreme_is_the_exhaustive_argmax(self, scan):
        fine = dict(fuzz_curves(192))
        for label, curve in fuzz_curves(scan):
            for i in (1, 2):
                # the exhaustive list is solved first: a transition solved
                # again reads the same curve points and lands on the same point
                want = exhaustive_extreme(curve, i)
                got = curve.feasible_extreme(i)
                if want is None:
                    ref = fine[label].feasible_extreme(i)
                    assert np.max(np.abs(got - ref)) <= 1e-9, (label, i)
                else:
                    assert np.array_equal(got, want), (label, i)

    def test_one_transition_per_face_at_the_default_scan(self, monkeypatch):
        # and at every other scan, the coarsest included
        solved = []
        transition = LevelCurve._transition

        def recorded(self, i, a, b):
            solved.append(i)
            return transition(self, i, a, b)

        monkeypatch.setattr(LevelCurve, "_transition", recorded)
        for scan in (1, 2, 3, 4, 64, 192, 512):
            for label, curve in shipped_curves(scan):
                for i in (1, 2):
                    solved.clear()
                    curve.feasible_extreme(i)
                    assert len(solved) <= 1, (label, scan, i)
                    if flags(curve, curve.pole(i))[i - 1]:
                        assert solved == [], (label, scan, i)


def test_a_face_feasible_around_its_pole_is_inconsistent():
    # flag 1 fails only within 0.05 of pole 1, so the scan cell on the pole
    # side of the first feasible sample is feasible at both ends
    top = ellipse_extreme(np.array([1.0, 0.0]))
    margin = lambda t, i: np.where(
        (i == 1) & (np.hypot(*(np.asarray(t) - top).T) < 0.05), 1.0, -1.0)
    curve = LevelCurve(ellipse_curve(8)[0].gap, margin, scan_size=8)
    with pytest.raises(InconsistentCategory):
        curve.feasible_extreme(1)


def ellipse_curve(scan, m=(0.3, -0.2), axes=(1.5, 0.6), angle=0.4):
    """A tilted ellipse off the origin as a level curve, with its exact
    radial root from the curve's center."""
    m, axes = np.array(m), np.array(axes)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    frame = lambda t: (np.asarray(t) - m) @ rot / axes
    curve = LevelCurve(lambda t: (frame(t) ** 2).sum(axis=-1) - 1.0,
                       lambda t, i: np.full(np.shape(t)[:-1], -1.0),
                       scan_size=scan)

    def points(phi):
        u = np.column_stack((np.cos(phi), np.sin(phi)))
        z0, w = frame(curve.center), u @ rot / axes
        b, a = w @ z0, (w * w).sum(axis=1)
        t = (-b + np.sqrt(b * b - a * (z0 @ z0 - 1.0))) / a
        return curve.center + t[:, np.newaxis] * u

    return curve, points


class TestBoundaryRows:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_rows_are_the_sections_and_their_flags(self, name):
        mf = modelfile.load_model(MODELS / f"{name}.yaml")
        curve = (jackson.analytic_curve(mf.payload, scan=64)
                 if mf.kind == "jackson" else qbd2d.level_curve(mf.payload, scan=64))
        rows = levelset.boundary_rows(curve, 48)
        assert len(rows) == 48
        for r in rows[1:-1]:
            lo, hi = curve.section(2, r.theta1)
            assert r.theta2_lower == pytest.approx(lo, abs=1e-11)
            assert r.theta2_upper == pytest.approx(hi, abs=1e-11)
        for r in rows:
            fl = flags(curve, np.array([r.theta1, r.theta2_lower]))
            fu = flags(curve, np.array([r.theta1, r.theta2_upper]))
            assert (r.feasible_c1, r.feasible_c2) == (fl[0] or fu[0], fl[1] or fu[1])

    @pytest.mark.parametrize("name", SHIPPED)
    def test_rows_are_tuples_of_python_floats_and_bools(self, name):
        # a row equals the frozen dataclass that float() and bool() of the
        # numpy column entries built before, field by field
        @dataclasses.dataclass(frozen=True)
        class Scalars:
            theta1: float
            theta2_lower: float
            theta2_upper: float
            feasible_c1: bool
            feasible_c2: bool

        mf = modelfile.load_model(MODELS / f"{name}.yaml")
        curve = (jackson.analytic_curve(mf.payload, scan=64)
                 if mf.kind == "jackson" else qbd2d.level_curve(mf.payload, scan=64))
        rows = levelset.boundary_rows(curve, 64)
        columns = [np.array(c) for c in zip(*rows)]
        assert [c.dtype for c in columns] == [np.float64] * 3 + [np.bool_] * 2
        built = [Scalars(float(t1), float(lo), float(hi), bool(f1), bool(f2))
                 for t1, lo, hi, f1, f2 in zip(*columns)]
        assert levelset.BoundaryRow._fields == tuple(
            f.name for f in dataclasses.fields(Scalars))
        for r, b in zip(rows, built, strict=True):
            assert isinstance(r, tuple)
            assert [type(v) for v in r] == [float] * 3 + [bool] * 2
            assert r == dataclasses.astuple(b)


class TestFarRayRoot:
    # a coordinate direction takes the same ray: its far root is the far
    # end of the section theta_j = 0, and the near end is not solved
    @pytest.mark.parametrize("c", DIAGONALS + AXES)
    def test_diagonal_sup_solves_one_root(self, c, monkeypatch):
        curve = qbd2d.level_curve(scalar_rrw(0.15, 0.25, 0.1, 0.2), scan=64)
        for i in (1, 2):
            curve.pole(i)
        roots = []
        bisect = levelset._sublevel_interval

        def recorded(*args, **kwargs):
            out = bisect(*args, **kwargs)
            roots.append(out)
            return out

        monkeypatch.setattr(levelset, "_sublevel_interval", recorded)
        curve.directional_sup(np.array(c))
        assert len(roots) == 1 and len(roots[0]) == 1


def ellipse_extreme(d, m=(0.3, -0.2), axes=(1.5, 0.6), angle=0.4):
    """arg max of <d, theta> over the ellipse of ``ellipse_curve``:
    m + S d / sqrt(d' S d), S = R diag(axes^2) R'."""
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    s = rot @ np.diag(np.square(axes)) @ rot.T
    return np.array(m) + s @ d / np.sqrt(d @ s @ d)


@pytest.fixture
def stencils(monkeypatch):
    """The center x of every stencil model evaluated."""
    seen = []
    model = levelset._stencil_model

    def recorded(f, x, h):
        seen.append(np.array(x))
        return model(f, x, h)

    monkeypatch.setattr(levelset, "_stencil_model", recorded)
    return seen


class TestStencilNewton:
    """The center and the extremes from Newton steps on the quadratic model
    of a 3x3 stencil of gap values."""

    @pytest.mark.parametrize("scan", [3, 8, 64])
    def test_tilted_ellipse_center_and_extremes(self, scan):
        curve, _ = ellipse_curve(scan)
        assert np.max(np.abs(curve.center - (0.3, -0.2))) <= 1e-9
        assert curve.gmin == pytest.approx(-1.0, abs=1e-12)
        for a in np.arange(8) * np.pi / 4:
            d = np.array([np.cos(a), np.sin(a)])
            got = curve.extreme(d)
            assert np.max(np.abs(got - ellipse_extreme(d))) <= 1e-9, a
            # the returned point is a solved radial root
            assert abs(curve.gap(got)) <= 1e-12

    def test_elongated_ellipse_center_is_interior(self):
        curve, _ = ellipse_curve(64, m=(2.0, -1.5), axes=(1.0, 1e-3))
        assert curve.gmin == pytest.approx(-1.0, abs=1e-9)
        assert np.max(np.abs(curve.center - (2.0, -1.5))) <= 1e-9

    def test_polygonal_gap_takes_the_best_point_fallback(self, stencils):
        # positive at the origin, and linear on the first two stencils (a
        # Hessian of rounding noise), which move to their best point
        gap = lambda t: (np.abs(np.asarray(t)[..., 0] - 1.3)
                         + 2.0 * np.abs(np.asarray(t)[..., 1] + 1.1) - 1.0)
        curve = LevelCurve(gap, lambda t, i: np.full(np.shape(t)[:-1], -1.0),
                           scan_size=16)
        assert np.array_equal(stencils[:3],
                              [[0.0, 0.0], [0.5, -0.5], [1.0, -1.0]])
        assert curve.gmin < -0.99 and curve.gap(curve.center) == curve.gmin
        assert np.max(np.abs(curve.center - (1.3, -1.1))) <= 1e-2

    def test_step_budgets_raise_no_convergence(self, monkeypatch):
        curve, _ = ellipse_curve(3)
        monkeypatch.setattr(levelset, "CENTER_STEPS", 2)
        with pytest.raises(NoConvergence, match="center"):
            ellipse_curve(8, m=(3.0, 0.0))
        monkeypatch.setattr(levelset, "EXTREME_STEPS", 1)
        with pytest.raises(NoConvergence, match="extreme"):
            curve.extreme((0.0, 1.0))

    def test_stencil_calls_per_center_and_extreme(self, stencils):
        # measured: 4-6 per center, 1-4 per extreme at scan 192 and 1-8 at
        # scan 3-5 (a stacked call of 9 points each)
        for scan, most in ((192, 5), (3, 9), (4, 9), (5, 9)):
            for label, curve in shipped_curves(scan):
                stencils.clear()
                levelset.minimize_convex_2d(curve.gap)
                assert len(stencils) <= 7, label
                stencils.clear()
                for d in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)):
                    curve.extreme(np.array(d, dtype=float))
                    assert len(stencils) <= most, (label, scan, d)
                    stencils.clear()


def test_scalar_walk_poles_are_the_closed_form():
    # gap = 0.15 e^x + 0.25 e^-x + 0.12 e^y + 0.22 e^-y + 0.26 - 1 is
    # separable: the theta_1 extremes sit at y* = ln(0.22/0.12)/2, and
    # there 0.15 e^x + 0.25 e^-x = c, a quadratic in e^x (likewise theta_2)
    mf = modelfile.load_model(MODELS / "scalar_rrw.yaml")
    # scans 1 and 2 start from the ray toward the direction
    for scan in (1, 2, 3, 64, 192):
        curve = qbd2d.level_curve(mf.payload, scan=scan)
        for i, (up, down, other_up, other_down) in (
                (1, (0.15, 0.25, 0.12, 0.22)), (2, (0.12, 0.22, 0.15, 0.25))):
            other = 0.5 * np.log(other_down / other_up)
            c = 0.74 - 2.0 * np.sqrt(other_up * other_down)
            disc = np.sqrt(c * c - 4.0 * up * down)
            for sign in (-1.0, 1.0):
                end = np.log((c + sign * disc) / (2.0 * up))
                p = curve.extreme(sign * np.eye(2)[i - 1])
                assert abs(p[i - 1] - end) <= 1e-12, (scan, i, sign)
                assert abs(p[2 - i] - other) <= 1e-10, (scan, i, sign)


def test_analytic_tandem_rates_are_ln2_and_ln3(tandem_spec):
    tau = jackson.analytic_curve(tandem_spec).tau_report().tau
    assert abs(tau[0] - np.log(2.0)) <= 1e-10
    assert abs(tau[1] - np.log(3.0)) <= 1e-10
