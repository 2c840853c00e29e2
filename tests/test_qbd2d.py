import numpy as np
import pytest

from qbdtail import jackson, qbd2d
from qbdtail.errors import (
    InconsistentCategory,
    QbdTailError,
    ThetaNotOnCurve,
    Unstable,
    ZeroDirection,
)
from qbdtail.levelset import LevelCurve, boundary_rows

from conftest import product_form_jackson, scalar_rrw, tandem_jackson


def symmetric_walk():
    return scalar_rrw(0.15, 0.25, 0.15, 0.25)


class TestValidateSpec:
    def test_valid_spec_no_violations(self):
        assert qbd2d.validate_spec(symmetric_walk()) == []

    def test_row_sum_violation(self):
        spec = symmetric_walk()
        bad = dict(spec.families[("+", "+")])
        bad[(0, 0)] = bad[(0, 0)] - 0.01
        broken = qbd2d.make_spec({**spec.families, ("+", "+"): bad},
                                 spec.dims, "discrete")
        kinds = {v.kind for v in qbd2d.validate_spec(broken)}
        assert "RowSumViolation" in kinds

    def test_alias_violation(self):
        spec = symmetric_walk()
        fams = {reg: dict(blocks) for reg, blocks in spec.families.items()}
        fams[("1", "0")][(1, 0)] = np.array([[0.13]])
        fams[("1", "0")][(0, 0)] = np.array([[0.47]])  # keep row sums at one
        broken = qbd2d.make_spec(fams, spec.dims, "discrete")
        kinds = {v.kind for v in qbd2d.validate_spec(broken)}
        assert "AliasViolation" in kinds

    def test_continuous_jackson_blocks_validate(self):
        blocks = jackson.build_blocks(product_form_jackson())
        assert qbd2d.validate_spec(blocks) == []


class TestUniformize:
    def test_zero_rates_give_identity_chain(self):
        z = lambda: np.zeros((1, 1))
        fams = {reg: {inc: z() for inc in qbd2d.allowed_increments(*reg)}
                for reg in qbd2d.REGIONS}
        spec = qbd2d.make_spec(fams, (1, 1, 1, 1), "continuous")
        disc = qbd2d.uniformize(spec)
        assert qbd2d.validate_spec(disc) == []
        for reg in qbd2d.REGIONS:
            for inc, b in disc.families[reg].items():
                expect = np.eye(b.shape[0]) if inc == (0, 0) else 0.0
                assert np.allclose(b, expect)

    def test_uniformized_jackson_is_valid_discrete(self):
        blocks = jackson.build_blocks(product_form_jackson())
        disc = qbd2d.uniformize(blocks)
        assert disc.time == "discrete"
        assert qbd2d.validate_spec(disc) == []

    def test_curve_invariant_under_rate_choice(self):
        blocks = jackson.build_blocks(tandem_jackson())
        d1 = qbd2d.uniformize(blocks, factor=1.05)
        d2 = qbd2d.uniformize(blocks, factor=2.1)
        for theta in [(0.2, 0.1), (0.5, 0.8), (-0.3, 0.4)]:
            g1 = qbd2d.gamma2(d1, theta) - 1.0
            g2 = qbd2d.gamma2(d2, theta) - 1.0
            cont = qbd2d.gamma2(blocks, theta)
            nu1 = qbd2d.uniformization_rate(blocks, 1.05)
            nu2 = qbd2d.uniformization_rate(blocks, 2.1)
            assert g1 * nu1 == pytest.approx(cont, abs=1e-9)
            assert g2 * nu2 == pytest.approx(cont, abs=1e-9)


class TestDrifts:
    def test_symmetric_zero_drift(self):
        spec = scalar_rrw(0.2, 0.2, 0.2, 0.2)
        mu = qbd2d.mean_drifts(spec)
        assert mu[0] == pytest.approx(0.0, abs=1e-12)
        assert mu[1] == pytest.approx(0.0, abs=1e-12)

    def test_marginal_arithmetic(self):
        spec = scalar_rrw(0.2, 0.3, 0.15, 0.2)
        mu = qbd2d.mean_drifts(spec)
        assert mu[0] == pytest.approx(-0.1, abs=1e-12)
        assert mu[1] == pytest.approx(-0.05, abs=1e-12)

    def test_jackson_sign_consistent_with_utilization(self):
        spec = product_form_jackson()
        blocks = jackson.build_blocks(spec)
        mu = qbd2d.mean_drifts(blocks)
        # both utilizations below one: interior drifts negative
        assert mu[0] < 0 and mu[1] < 0
        ind = qbd2d.induced_drifts(blocks)
        assert ind[0] < 0 and ind[1] < 0

    def test_stability_cases(self):
        assert qbd2d.stability_check(scalar_rrw(0.15, 0.25, 0.15, 0.25)) == "stable"
        assert qbd2d.stability_check(scalar_rrw(0.25, 0.15, 0.25, 0.15)) == "unstable"
        assert qbd2d.stability_check(scalar_rrw(0.2, 0.2, 0.2, 0.2)) == "undetermined"


class TestMgfs:
    def test_censored_mgf_stochastic_at_zero(self):
        spec = symmetric_walk()
        for i in (1, 2):
            c = qbd2d.c2_mgf(spec, i, (0.0, 0.0))
            assert np.allclose(c @ np.ones(c.shape[1]), 1.0, atol=1e-12)

    def test_continuous_censored_mgf_rows_vanish_at_zero(self):
        blocks = jackson.build_blocks(product_form_jackson())
        assert np.allclose(qbd2d.a2_mgf(blocks, (0.0, 0.0)) @ np.ones(blocks.dims[3]),
                           0.0, atol=1e-12)
        for i in (1, 2):
            c = qbd2d.c2_mgf(blocks, i, (0.0, 0.0))
            assert np.allclose(c @ np.ones(c.shape[1]), 0.0, atol=1e-10)

    def test_tandem_censored_mgf_hand_formula(self):
        lam, mu1, mu2 = 1.0, 2.0, 3.0
        blocks = jackson.build_blocks(tandem_jackson())
        for t1, t2 in [(0.3, 0.2), (0.6, 1.0), (-0.2, 0.5)]:
            x1, x2 = np.exp(t1), np.exp(t2)
            expect = (lam * x1 + mu1 * x2 / x1 - (lam + mu1 + mu2)
                      + mu2 * (mu1 / x1) / (lam + mu1 - lam * x1))
            got = qbd2d.c2_mgf(blocks, 1, (t1, t2))[0, 0]
            assert got == pytest.approx(expect, abs=1e-12)


class TestGammaCurve:
    def test_scalar_curve_matches_quadratic_level_set(self):
        pxp, pxm, pyp, pym = 0.15, 0.25, 0.1, 0.2
        spec = scalar_rrw(pxp, pxm, pyp, pym)
        rows = boundary_rows(qbd2d.level_curve(spec, scan=32), 64)
        assert len(rows) >= 60
        for r in rows:
            for t2 in (r.theta2_lower, r.theta2_upper):
                x, y = np.exp(r.theta1), np.exp(t2)
                val = pxp * x + pxm / x + pyp * y + pym / y + 0.3
                assert val == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_curve_symmetric(self):
        spec = symmetric_walk()
        rows = boundary_rows(qbd2d.level_curve(spec, scan=32), 64)
        gap = qbd2d.curve_gap(spec)
        for r in rows:
            for t2 in (r.theta2_lower, r.theta2_upper):
                assert gap((t2, r.theta1)) == pytest.approx(0.0, abs=1e-9)

    def test_origin_on_curve_with_interior(self):
        spec = symmetric_walk()
        gap = qbd2d.curve_gap(spec)
        assert gap((0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
        lc = qbd2d.level_curve(spec, scan=32)
        assert lc.gmin < -1e-6

    def test_convexity_midpoints(self, mapph_spec):
        blocks = jackson.build_blocks(mapph_spec)
        gap = qbd2d.curve_gap(blocks)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, size=2)
            b = rng.uniform(-1.0, 1.0, size=2)
            lam = rng.uniform(0.0, 1.0)
            mid = gap(lam * a + (1 - lam) * b)
            assert mid <= lam * gap(a) + (1 - lam) * gap(b) + 1e-10


class TestTauReport:
    def test_symmetric_category_one(self):
        tau = qbd2d.tau_report(symmetric_walk(), scan=96)
        assert tau.category == "I"
        assert tau.tau[0] == pytest.approx(tau.tau[1], abs=1e-8)

    def test_product_form_rates(self):
        blocks = jackson.build_blocks(product_form_jackson())
        tau = qbd2d.tau_report(blocks, scan=128)
        tr = jackson.traffic_check(product_form_jackson())
        assert tau.tau[0] == pytest.approx(-np.log(tr.rho[0]), abs=1e-6)
        assert tau.tau[1] == pytest.approx(-np.log(tr.rho[1]), abs=1e-6)

    def test_category_II1_consistent_under_refinement(self):
        mirror = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(0.5), jackson.poisson_map(1.0)),
            services=(jackson.exponential_ph(3.0), jackson.exponential_ph(2.0)),
            r12=0.2, r21=0.3)
        blocks = jackson.build_blocks(mirror)
        tau = qbd2d.tau_report(blocks, scan=96)
        assert tau.category == "II_1"
        tau4 = qbd2d.tau_report(blocks, scan=384)
        assert tau.tau[0] == pytest.approx(tau4.tau[0], abs=1e-6)
        assert tau.tau[1] == pytest.approx(tau4.tau[1], abs=1e-6)

    def test_category_trichotomy_fuzz(self):
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(25):
            pxp, pyp = rng.uniform(0.05, 0.18, size=2)
            pxm = pxp + rng.uniform(0.03, 0.2)
            pym = pyp + rng.uniform(0.03, 0.2)
            f1u = rng.uniform(0.05, 0.4)
            f2r = rng.uniform(0.05, 0.4)
            spec = scalar_rrw(pxp, pxm, pyp, pym,
                              face1={"up": f1u, "right": pxp, "left": pxm / 2},
                              face2={"right": f2r, "up": pyp, "down": pym / 2})
            if qbd2d.stability_check(spec) != "stable":
                continue
            curve = qbd2d.level_curve(spec, scan=64)
            tau = curve.tau_report()  # raises on the impossible fourth case
            seen.add(tau.category)
            # tau never exceeds the unconstrained maxima
            assert tau.tau[0] <= curve.pole(1)[0] + 1e-9
            assert tau.tau[1] <= curve.pole(2)[1] + 1e-9
            # tau dominates every feasible curve point obeying the side
            # constraint of its defining supremum
            for p, fl in zip(curve.scan_points, curve.scan_flags):
                if fl[0] and p[1] < tau.theta_gamma[1][1] - 1e-9:
                    assert tau.tau[0] >= p[0] - 1e-8
                if fl[1] and p[0] < tau.theta_gamma[0][0] - 1e-9:
                    assert tau.tau[1] >= p[1] - 1e-8
        assert seen  # at least one stable instance classified

    def test_inconsistent_geometry_is_a_typed_error(self):
        # unit circle; face 1 feasible only high up, face 2 only far right,
        # so each feasibility extreme lies beyond the other's coordinate
        curve = LevelCurve(lambda t: t[0] ** 2 + t[1] ** 2 - 1.0,
                           lambda t: (t[1] >= 0.95, t[0] >= 0.95),
                           scan_size=64)
        with pytest.raises(InconsistentCategory) as info:
            curve.tau_report()
        assert isinstance(info.value, QbdTailError)


class TestDecayRate:
    def test_coordinate_consistency(self):
        spec = scalar_rrw(0.15, 0.25, 0.1, 0.2)
        dec = qbd2d.decay_rates(spec, [(1.0, 0.0)], scan=96)
        assert dec.rates[0] == pytest.approx(dec.tau_report.tau[0], abs=1e-10)
        dec2 = qbd2d.decay_rates(spec, [(0.0, 1.0)], scan=96,
                                 check_stability=False)
        assert dec2.rates[0] == pytest.approx(dec2.tau_report.tau[1], abs=1e-10)

    def test_scaling_homogeneity(self):
        spec = scalar_rrw(0.15, 0.25, 0.1, 0.2)
        dec = qbd2d.decay_rates(spec, [(1.0, 1.0), (2.0, 2.0), (0.6, 0.2),
                                       (1.2, 0.4)], scan=96)
        assert dec.directions == ((1.0, 1.0), (2.0, 2.0), (0.6, 0.2), (1.2, 0.4))
        assert dec.rates[1] == pytest.approx(dec.rates[0] / 2.0, abs=1e-12)
        assert dec.rates[3] == pytest.approx(dec.rates[2] / 2.0, abs=1e-12)

    def test_unstable_raises(self):
        with pytest.raises(Unstable):
            qbd2d.decay_rates(scalar_rrw(0.25, 0.15, 0.25, 0.15), [(1.0, 0.0)])

    def test_zero_direction_raises(self):
        spec = symmetric_walk()
        with pytest.raises(ZeroDirection):
            qbd2d.decay_rates(spec, [(0.0, 0.0)], check_stability=False)
        with pytest.raises(ZeroDirection):
            qbd2d.decay_rates(spec, [(1.0, 0.0), (-1.0, 1.0)],
                              check_stability=False)


class TestAssumption2:
    def test_scalar_holds_trivially(self):
        spec = scalar_rrw(0.15, 0.25, 0.1, 0.2)
        lc = qbd2d.level_curve(spec, scan=48)
        for phi in (0.3, 1.2, 2.5):
            theta = lc.point_at(phi)
            for i in (1, 2):
                res = qbd2d.check_assumption2(spec, theta, i)
                assert res.holds
                assert res.residual <= 1e-8

    def test_jackson_continuous_holds_with_c1_branch(self, mapph_spec):
        blocks = jackson.build_blocks(mapph_spec)
        lc = qbd2d.level_curve(blocks, scan=48)
        theta = lc.point_at(0.8)
        res = qbd2d.check_assumption2(blocks, theta, 1)
        assert res.holds
        assert res.branch == "c1"
        assert res.c1 == 0.0  # continuous-time pinned value
        cs = jackson.cumulants(mapph_spec)
        assert res.c0 == pytest.approx(cs.gamma_face(1, theta), abs=1e-8)

    def test_off_curve_raises(self):
        spec = symmetric_walk()
        with pytest.raises(ThetaNotOnCurve):
            qbd2d.check_assumption2(spec, (5.0, 5.0), 1)

    def test_adversarial_boundary_reports_false(self):
        # face-1 kernel with a two-state modulation that breaks the
        # proportionality structure
        rng = np.random.default_rng(3)
        m = 2
        base = rng.uniform(0.02, 0.08, size=(6, m, m))
        interior = {(1, 0): base[0], (-1, 0): base[1] + 0.1 * np.eye(m),
                    (0, 1): base[2], (0, -1): base[3] + 0.1 * np.eye(m)}
        ssum = sum(interior.values()) @ np.ones(m)
        interior[(0, 0)] = np.diag(1.0 - ssum)
        face1 = {(1, 0): base[4], (-1, 0): base[1] + 0.1 * np.eye(m),
                 (0, 1): base[5]}
        fsum = sum(face1.values()) @ np.ones(m)
        face1[(0, 0)] = np.diag(1.0 - fsum)
        face2 = {(1, 0): interior[(1, 0)], (0, 1): interior[(0, 1)],
                 (0, -1): interior[(0, -1)]}
        f2sum = sum(face2.values()) @ np.ones(m)
        face2[(0, 0)] = np.diag(1.0 - f2sum)
        origin = {(1, 0): interior[(1, 0)], (0, 1): interior[(0, 1)]}
        osum = sum(origin.values()) @ np.ones(m)
        origin[(0, 0)] = np.diag(1.0 - osum)
        fams = {("+", "+"): interior, ("+", "0"): face1, ("0", "+"): face2,
                ("0", "0"): origin,
                ("1", "0"): {(-1, 0): interior[(-1, 0)]},
                ("0", "1"): {(0, -1): interior[(0, -1)]},
                ("1", "1"): {(-1, 0): interior[(-1, 0)],
                             (0, -1): interior[(0, -1)]},
                ("+", "1"): {(0, -1): interior[(0, -1)]},
                ("1", "+"): {(-1, 0): interior[(-1, 0)]}}
        spec = qbd2d.make_spec(fams, (m, m, m, m), "discrete")
        assert qbd2d.validate_spec(spec) == []
        lc = qbd2d.level_curve(spec, scan=32)
        theta = lc.point_at(0.9)
        res = qbd2d.check_assumption2(spec, theta, 1)
        assert not res.holds
