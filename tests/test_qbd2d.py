from pathlib import Path

import numpy as np
import pytest

from qbdtail import jackson, levelset, modelfile, oracle, qbd1d, qbd2d
from qbdtail.errors import (
    FaceNotInvertible,
    IllConditioned,
    InconsistentCategory,
    QbdTailError,
    ThetaNotOnCurve,
    Unstable,
    ZeroDirection,
)
from qbdtail.levelset import LevelCurve, boundary_rows

from conftest import (adversarial_face_spec, product_form_jackson,
                      scalar_rrw, tandem_jackson, trichotomy_fuzz_specs)

MODELS = Path(__file__).resolve().parent.parent / "models"


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

    @pytest.mark.parametrize("face", [1, 2])
    def test_a_face_chain_closed_on_its_axis_is_a_violation(self, face):
        if face == 1:
            spec = scalar_rrw(0.15, 0.25, 0.12, 0.22,
                              face1={"up": 0.0, "right": 0.15, "left": 0.25})
        else:
            spec = scalar_rrw(0.15, 0.25, 0.12, 0.22,
                              face2={"right": 0.0, "up": 0.12, "down": 0.22})
        (v,) = qbd2d.validate_spec(spec)
        assert (v.kind, v.family) == ("AxisTrapViolation", qbd2d._FACES[face][0])
        assert f"l{3 - face} = 0" in v.detail

    def test_an_axis_never_entered_is_not_a_trap(self):
        # no down-move onto the first axis: it is left, never entered
        spec = scalar_rrw(0.15, 0.25, 0.12, 0.22,
                          face1={"up": 0.0, "right": 0.15, "left": 0.25})
        fams = {reg: dict(blocks) for reg, blocks in spec.families.items()}
        for reg in (("+", "1"), ("1", "1"), ("0", "1")):
            fams[reg][(0, -1)] = np.zeros((1, 1))
        assert qbd2d._traps_axis(qbd2d._sum_parts(
            qbd2d.make_spec(fams, spec.dims, "discrete").face_stacks[1][:3],
            0.0)) is False


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
        ind = qbd2d.stability_check(blocks).induced
        assert ind[1] < 0 and ind[2] < 0

    def test_stability_cases(self):
        assert qbd2d.stability_check(scalar_rrw(0.15, 0.25, 0.15, 0.25)).verdict == "stable"
        assert qbd2d.stability_check(scalar_rrw(0.25, 0.15, 0.25, 0.15)).verdict == "unstable"
        assert qbd2d.stability_check(scalar_rrw(0.2, 0.2, 0.2, 0.2)).verdict == "undetermined"

    def test_verdict_agrees_with_fmm_on_unmodulated_walks(self):
        """Fayolle, Malyshev & Menshikov's criterion on random walks in
        all four drift-sign quadrants, with M, M', M'' the interior,
        face-1 and face-2 drift vectors."""
        rng = np.random.default_rng(12)
        quadrants, mixed_stable = set(), 0
        for _ in range(60):
            pxp, pxm, pyp, pym = rng.uniform(0.02, 0.24, size=4)
            f1 = dict(zip(("up", "right", "left"), rng.uniform(0.02, 0.3, size=3)))
            f2 = dict(zip(("up", "down", "right"), rng.uniform(0.02, 0.3, size=3)))
            m = (pxp - pxm, pyp - pym)
            m1 = (f1["right"] - f1["left"], f1["up"])
            m2 = (f2["right"], f2["up"] - f2["down"])
            d1 = m[0] * m1[1] - m[1] * m1[0]
            d2 = m[1] * m2[0] - m[0] * m2[1]
            if min(abs(m[0]), abs(m[1]), abs(d1), abs(d2)) < 1e-6:
                continue
            if m[0] < 0 and m[1] < 0:
                fmm = d1 < 0 and d2 < 0
            elif m[1] < 0:
                fmm = d1 < 0
            elif m[0] < 0:
                fmm = d2 < 0
            else:
                fmm = False
            st = qbd2d.stability_check(scalar_rrw(pxp, pxm, pyp, pym,
                                                  face1=f1, face2=f2))
            assert st.verdict == ("stable" if fmm else "unstable"), (m, m1, m2)
            quadrants.add((m[0] < 0, m[1] < 0))
            mixed_stable += fmm and (m[0] > 0 or m[1] > 0)
        assert len(quadrants) == 4 and mixed_stable > 0

    def test_mixed_sign_walks_are_stable_with_one_induced_drift(self):
        walk = scalar_rrw(0.25, 0.2, 0.1, 0.3,
                          face1={"up": 0.1, "right": 0.05, "left": 0.3})
        mirror = scalar_rrw(0.1, 0.3, 0.25, 0.2,
                            face2={"up": 0.05, "down": 0.3, "right": 0.1})
        tau = (0.385400599194, 1.11235501314)
        for spec, face, expect in ((walk, 1, tau), (mirror, 2, tau[::-1])):
            st = qbd2d.stability_check(spec)
            assert st.verdict == "stable"
            assert list(st.induced) == [face]
            assert st.induced[face] == pytest.approx(-0.15, abs=1e-12)
            rep = qbd2d.decay_rates(spec, []).tau_report
            assert rep.category == "I"
            assert rep.tau == pytest.approx(expect, rel=1e-10)
            table = oracle.truncate_and_solve(spec, (120, 120))
            for i in (1, 2):
                slope = -oracle.estimate_decay(table, i).slope
                assert slope == pytest.approx(rep.tau[i - 1], rel=0.05)

    def test_zero_interior_drift_reads_one_face_or_none(self):
        face1 = {"up": 0.1, "right": 0.05, "left": 0.3}
        st = qbd2d.stability_check(scalar_rrw(0.2, 0.2, 0.1, 0.3, face1=face1))
        assert st.mu[0] == 0.0 and st.mu[1] < 0
        assert list(st.induced) == [1] and st.verdict == "stable"
        st = qbd2d.stability_check(scalar_rrw(0.2, 0.2, 0.3, 0.1, face1=face1))
        assert st.mu[0] == 0.0 and st.mu[1] > 0
        assert st.induced == {} and st.verdict == "unstable"

    def test_continuous_induced_drifts_in_rate_units(self):
        # lam = (1, 0.5), mu = (2, 3), r12 = 0.3, r21 = 0.2
        st = qbd2d.stability_check(jackson.build_blocks(product_form_jackson()))
        assert st.verdict == "stable"
        assert st.induced[1] == pytest.approx(1 - 2 + 0.2 * (0.5 + 0.3 * 2), abs=1e-9)
        assert st.induced[2] == pytest.approx(0.5 - 3 + 0.3 * (1 + 0.2 * 3), abs=1e-9)


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

    def test_continuous_negative_inverse_is_ill_conditioned(self, monkeypatch):
        # a solved (-F0)^{-1} with an entry below -1e-12 is refused, not
        # clipped to 0
        blocks = jackson.build_blocks(product_form_jackson())
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -np.ones_like(b))
        with pytest.raises(IllConditioned, match="negative"):
            qbd2d.c2_mgf(blocks, 1, (0.1, 0.1))

    def test_tandem_censored_mgf_hand_formula(self):
        lam, mu1, mu2 = 1.0, 2.0, 3.0
        blocks = jackson.build_blocks(tandem_jackson())
        for t1, t2 in [(0.3, 0.2), (0.6, 1.0), (-0.2, 0.5)]:
            x1, x2 = np.exp(t1), np.exp(t2)
            expect = (lam * x1 + mu1 * x2 / x1 - (lam + mu1 + mu2)
                      + mu2 * (mu1 / x1) / (lam + mu1 - lam * x1))
            got = qbd2d.c2_mgf(blocks, 1, (t1, t2))[0, 0]
            assert got == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("which", ["mapph_jackson", "modulated_rrw"])
    def test_stacked_interior_mgf_equals_blockwise_sum(self, which,
                                                       mapph_spec):
        spec = (jackson.build_blocks(mapph_spec) if which == "mapph_jackson"
                else modelfile.load_model(MODELS / f"{which}.yaml").payload)
        fam = spec.families[("+", "+")]
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-1.5, 1.5, size=(20, 2)):
            ref = np.zeros_like(fam[(0, 0)])
            scale = np.zeros_like(ref)
            for (i, j), b in fam.items():
                ref += np.exp(i * theta[0] + j * theta[1]) * b
                scale += np.exp(i * theta[0] + j * theta[1]) * np.abs(b)
            got = qbd2d.a2_mgf(spec, theta)
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)


class TestStackedEvaluators:
    """Every evaluator broadcasts over a stack (n, 2) of points, lane by
    lane equal to one call per point."""

    # face 1 of scalar_rrw(0.15, 0.25, 0.12, 0.22) is not invertible at
    # theta_1 = 1.2
    THETAS = np.array([[0.0, 0.0], [0.3, -0.2], [1.2, 0.1], [-0.4, 0.8],
                       [0.5, 0.5]])

    @pytest.mark.parametrize("which", ["scalar_rrw", "modulated_rrw",
                                       "mapph_jackson"])
    def test_interior_and_censored_mgfs(self, which, mapph_spec):
        spec = (jackson.build_blocks(mapph_spec) if which == "mapph_jackson"
                else modelfile.load_model(MODELS / f"{which}.yaml").payload)
        values, right = qbd2d.gamma2_pair(spec, self.THETAS)
        assert np.array_equal(qbd2d.gamma2(spec, self.THETAS), values)
        for i in (1, 2):
            stack = qbd2d.c2_mgf(spec, i, self.THETAS)
            for k, theta in enumerate(self.THETAS):
                one = qbd2d.gamma2_pair(spec, theta)
                assert values[k] == pytest.approx(one[0], rel=1e-14, abs=1e-14)
                assert np.allclose(right[k], one[1], rtol=1e-13, atol=0)
                try:
                    c = qbd2d.c2_mgf(spec, i, theta)
                except FaceNotInvertible:
                    assert np.all(np.isnan(stack[k]))
                    continue
                assert np.allclose(stack[k], c, rtol=1e-13, atol=1e-15)

    def test_a_face_that_is_not_invertible_is_one_nan_lane(self):
        spec = scalar_rrw(0.15, 0.25, 0.12, 0.22)
        with pytest.raises(FaceNotInvertible):
            qbd2d.c2_mgf(spec, 1, self.THETAS[2])
        margin = qbd2d.feasibility_margin(spec)
        stack = margin(self.THETAS, 1)
        assert stack[2] == np.inf
        assert np.all(np.isfinite(np.delete(stack, 2)))
        for k, theta in enumerate(self.THETAS):
            assert float(margin(theta, 1)) == stack[k]

    def test_jackson_cumulants(self, mapph_spec):
        cs = jackson.cumulants(mapph_spec)
        for fn in (cs.gamma_plus, lambda t: cs.gamma_face(1, t),
                   lambda t: cs.gamma_face(2, t)):
            stack = fn(self.THETAS)
            assert stack.shape == (len(self.THETAS),)
            assert [fn(t) for t in self.THETAS] == list(stack)


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

    def test_scalar_rrw_rates_within_1e_9_of_the_product_form(self):
        # product form: tau = (ln 5/3, ln 11/6).  The flag transitions are
        # solved where the face margin equals LE_ONE_SLACK, not 0, which
        # puts tau1 and tau2 2.5e-10 and 2.3e-10 high (8e-14 and 1.4e-11
        # at a slack of 0); 1e-9 is perfbench's closed-form tolerance
        spec = modelfile.load_model(MODELS / "scalar_rrw.yaml").payload
        dec = qbd2d.decay_rates(spec, [(1.0, 0.0), (0.0, 1.0)], scan=192)
        exact = (np.log(5.0 / 3.0), np.log(11.0 / 6.0))
        assert dec.tau_report.tau == pytest.approx(exact, rel=0.0, abs=1e-9)
        assert dec.rates == pytest.approx(exact, rel=0.0, abs=1e-9)

    def test_curve_evaluation_counts(self, monkeypatch):
        """Machine-independent work guard: gap calls spent on the center
        and per curve point of a scan-192 curve."""
        spec = modelfile.load_model(MODELS / "scalar_rrw.yaml").payload
        calls = [0]
        plain_gap, plain_min = qbd2d.curve_gap, levelset.minimize_convex_2d

        def counted_gap(s):
            gap = plain_gap(s)

            def counted(theta):
                calls[0] += 1
                return gap(theta)
            return counted

        center_calls = []

        def counted_min(f, *args, **kwargs):
            out = plain_min(f, *args, **kwargs)
            center_calls.append(calls[0])
            return out

        monkeypatch.setattr(qbd2d, "curve_gap", counted_gap)
        monkeypatch.setattr(levelset, "minimize_convex_2d", counted_min)
        curve = qbd2d.level_curve(spec, scan=192)
        # one stacked stencil call per Newton step: 4 measured
        assert center_calls[0] <= 5
        per_point = (calls[0] - center_calls[0]) / len(curve.scan_phi)
        assert per_point <= 15

    def test_section_evaluation_counts(self):
        """Machine-independent work guard: gap evaluations per section
        inside the level region, on both axes (94 at most before sections
        started from the center's coordinate)."""
        spec = modelfile.load_model(MODELS / "scalar_rrw.yaml").payload
        curve = qbd2d.level_curve(spec, scan=32)
        calls = [0]
        plain_gap = curve.gap

        def counted(theta):
            calls[0] += 1
            return plain_gap(theta)

        curve.gap = counted
        for i in (1, 2):
            lo = curve.extreme(-np.eye(2)[2 - i])[2 - i]
            hi = curve.pole(3 - i)[2 - i]
            for value in np.linspace(lo, hi, 34)[1:-1]:
                before = calls[0]
                assert curve.section(i, float(value)) is not None
                assert calls[0] - before <= 40

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
        tau = qbd2d.level_curve(symmetric_walk(), scan=96).tau_report()
        assert tau.category == "I"
        assert tau.tau[0] == pytest.approx(tau.tau[1], abs=1e-8)

    def test_product_form_rates(self):
        blocks = jackson.build_blocks(product_form_jackson())
        tau = qbd2d.level_curve(blocks, scan=128).tau_report()
        tr = jackson.traffic_check(product_form_jackson())
        assert tau.tau[0] == pytest.approx(-np.log(tr.rho[0]), abs=1e-6)
        assert tau.tau[1] == pytest.approx(-np.log(tr.rho[1]), abs=1e-6)

    def test_category_II1_consistent_under_refinement(self):
        mirror = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(0.5), jackson.poisson_map(1.0)),
            services=(jackson.exponential_ph(3.0), jackson.exponential_ph(2.0)),
            r12=0.2, r21=0.3)
        blocks = jackson.build_blocks(mirror)
        tau = qbd2d.level_curve(blocks, scan=96).tau_report()
        assert tau.category == "II_1"
        tau4 = qbd2d.level_curve(blocks, scan=384).tau_report()
        assert tau.tau[0] == pytest.approx(tau4.tau[0], abs=1e-6)
        assert tau.tau[1] == pytest.approx(tau4.tau[1], abs=1e-6)

    def test_category_trichotomy_fuzz(self):
        seen = set()
        for spec in trichotomy_fuzz_specs():
            curve = qbd2d.level_curve(spec, scan=64)
            tau = curve.tau_report()  # raises on the impossible fourth case
            seen.add(tau.category)
            # tau never exceeds the unconstrained maxima
            assert tau.tau[0] <= curve.pole(1)[0] + 1e-9
            assert tau.tau[1] <= curve.pole(2)[1] + 1e-9
            # tau dominates every feasible curve point obeying the side
            # constraint of its defining supremum
            flags = curve.scan_margins <= qbd1d.LE_ONE_SLACK
            for p, fl in zip(curve.scan_points, flags):
                if fl[0] and p[1] < tau.theta_gamma[1][1] - 1e-9:
                    assert tau.tau[0] >= p[0] - 1e-8
                if fl[1] and p[0] < tau.theta_gamma[0][0] - 1e-9:
                    assert tau.tau[1] >= p[1] - 1e-8
        assert seen  # at least one stable instance classified

    def test_inconsistent_geometry_is_a_typed_error(self):
        # unit circle; face 1 feasible only high up, face 2 only far right,
        # so each feasibility extreme lies beyond the other's coordinate
        curve = LevelCurve(lambda t: t[..., 0] ** 2 + t[..., 1] ** 2 - 1.0,
                           lambda t, i: 0.95 - t[..., 2 - i],
                           scan_size=64)
        with pytest.raises(InconsistentCategory) as info:
            curve.tau_report()
        assert isinstance(info.value, QbdTailError)


class TestDecayRate:
    def test_coordinate_consistency(self):
        spec = scalar_rrw(0.15, 0.25, 0.1, 0.2)
        dec = qbd2d.decay_rates(spec, [(1.0, 0.0)], scan=96)
        assert dec.rates[0] == pytest.approx(dec.tau_report.tau[0], abs=1e-10)
        dec2 = qbd2d.decay_rates(spec, [(0.0, 1.0)], scan=96)
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
            qbd2d.decay_rates(spec, [(0.0, 0.0)])
        with pytest.raises(ZeroDirection):
            qbd2d.decay_rates(spec, [(1.0, 0.0), (-1.0, 1.0)])


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

    def test_continuous_c0_branch_inverts_minus_f0(self):
        # a 1-d generator embedded with coordinate 1 frozen; the down block
        # has equal rows and every interior block constant row sums, so
        # h = 1 on the curve and the lower display is always proportional
        # to h, while the c1 branch's h0 fails the upper display
        am1 = np.array([[0.2, 0.1], [0.2, 0.1]])
        a0 = np.array([[0.1, 0.2], [0.25, 0.05]])
        a1 = np.array([[0.3, 0.1], [0.1, 0.3]])
        b0 = np.array([[0.2, 0.3], [0.1, 0.4]])
        b1 = np.array([[0.1, 0.2], [0.3, 0.1]])
        fams = {("+", "+"): {(0, -1): am1, (0, 0): a0 - np.eye(2), (0, 1): a1},
                ("+", "0"): {(0, 0): b0 - np.eye(2), (0, 1): b1},
                ("+", "1"): {(0, -1): am1}}
        spec = qbd2d.make_spec(fams, (2, 2, 2, 2), "continuous")
        k = qbd1d.QbdBlocks(b0=b0, b1=b1, bm1=am1, am1=am1, a0=a0, a1=a1)
        # e^{-t} 0.3 + 0.3 + e^{t} 0.4 = 1 at e^t = 0.75 and e^t = 1
        for t in (np.log(0.75), 0.0):
            res = qbd2d.check_assumption2(spec, (0.3, t), 1)
            assert res.holds and res.branch == "c0" and res.c0 == 0.0
            _, f0, f1, _, _ = qbd2d.face_mgfs(spec, 1, 0.3)
            direct = np.linalg.solve(-f0, np.exp(t) * f1 @ np.ones(2))
            assert np.allclose(res.h0, direct, rtol=1e-12, atol=0.0)
            # (I - B0)^{-1} B1 1 = (2/3, 7/9)
            assert np.allclose(res.h0, np.exp(t) * np.array([2 / 3, 7 / 9]),
                               rtol=1e-12, atol=0.0)
            one = qbd1d.check_assumption1(k, t)
            assert one.branch == "c0"
            assert res.c1 == pytest.approx(one.c1 - 1.0, abs=1e-12)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("instance", ["scalar", "counterexample",
                                          "adversarial"])
    def test_agrees_with_assumption1_on_an_embedded_qbd1d(self, instance, i):
        # a 1-d QBD embedded as a 2-d spec whose coordinate i never moves:
        # face i of the spec is the 1-d boundary, at every theta_i
        rng = np.random.default_rng(41)
        if instance == "scalar":
            k = qbd1d.QbdBlocks(b0=[[0.5]], b1=[[0.25]], bm1=[[0.2]],
                                am1=[[0.4]], a0=[[0.25]], a1=[[0.15]])
        elif instance == "counterexample":   # the paper's appendix kernel
            am1 = np.array([[0.3, 0.0], [0.5, 0.0]])
            a0 = np.array([[0.0, 0.4], [0.0, 0.5]])
            a1 = np.array([[0.2, 0.1], [0.0, 0.0]])
            k = qbd1d.QbdBlocks(b0=a0 + am1, b1=a1, bm1=am1,
                                am1=am1, a0=a0, a1=a1)
        else:   # the boundary of TestAssumption1.test_adversarial_boundary_fails
            am1, a0, a1 = (rng.uniform(0.05, 0.3, (2, 2)) for _ in range(3))
            norm = 1.15 * max((am1 + a0 + a1) @ np.ones(2))
            k = qbd1d.QbdBlocks(b0=rng.uniform(0.01, 0.2, (2, 2)),
                                b1=rng.uniform(0.01, 0.4, (2, 2)),
                                bm1=rng.uniform(0.01, 0.4, (2, 2)),
                                am1=am1 / norm, a0=a0 / norm, a1=a1 / norm)
        inc = (lambda j: (0, j)) if i == 1 else (lambda j: (j, 0))
        face, inner = (("+", "0"), ("+", "1")) if i == 1 else (("0", "+"), ("1", "+"))
        m0, m = k.m0, k.m
        fams = {("+", "+"): {inc(-1): k.am1, inc(0): k.a0, inc(1): k.a1},
                face: {inc(0): k.b0, inc(1): k.b1},
                inner: {inc(-1): k.bm1}}
        dims = (m0, m0, m, m) if i == 1 else (m0, m, m0, m)
        spec = qbd2d.make_spec(fams, dims, "discrete")
        iv = qbd1d.gamma1d_plus(k)
        branches = set()
        for t in (iv.lo, iv.hi):
            one = qbd1d.check_assumption1(k, t)
            for frozen in (-0.7, 0.0, 1.3):
                theta = (frozen, t) if i == 1 else (t, frozen)
                two = qbd2d.check_assumption2(spec, theta, i)
                assert type(two) is type(one)
                assert (two.holds, two.branch) == (one.holds, one.branch)
                if one.holds:
                    assert two.c0 == pytest.approx(one.c0, abs=1e-10)
                    assert two.c1 == pytest.approx(one.c1, abs=1e-10)
                    assert np.allclose(two.h0, one.h0, atol=1e-10)
                assert two.residual == pytest.approx(one.residual, abs=1e-10)
            branches.add(one.branch)
        assert branches == {"scalar": {"c1"}, "counterexample": {"c0", "none"},
                            "adversarial": {"none"}}[instance]

    def test_off_curve_raises(self):
        spec = symmetric_walk()
        with pytest.raises(ThetaNotOnCurve):
            qbd2d.check_assumption2(spec, (5.0, 5.0), 1)

    def test_adversarial_boundary_reports_false(self):
        spec = adversarial_face_spec(3)
        assert qbd2d.validate_spec(spec) == []
        lc = qbd2d.level_curve(spec, scan=32)
        theta = lc.point_at(0.9)
        res = qbd2d.check_assumption2(spec, theta, 1)
        assert not res.holds
