from pathlib import Path

import numpy as np
import pytest

from qbdtail import cli, jackson, matcore, modelfile, qbd2d
from qbdtail.errors import (
    InvalidSpec,
    NonFiniteEntry,
    NotRenewalStructure,
    OutsideTransformRange,
    PathDisagreement,
    ShapeMismatch,
    ThetaNotOnCurve,
    Unstable,
    ZeroDirection,
)

from conftest import (mapph_jackson, mmpp2_map, product_form_jackson,
                      tandem_jackson)

MODELS = Path(__file__).resolve().parent.parent / "models"


def h2_service_jackson():
    """Hyperexponential-2 service at node 1, exponential elsewhere."""
    return jackson.JacksonSpec(
        arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.5)),
        services=(jackson.PhSpec(beta=[0.4, 0.6], s=[[-12.0, 0.0], [0.0, -1.6]]),
                  jackson.exponential_ph(1.6)),
        r12=0.3, r21=0.2)


def erlang2_renewal_map(rate):
    """Renewal MAP with Erlang-2 interarrival times."""
    t = np.array([[-rate, rate], [0.0, -rate]])
    u = np.array([[0.0, 0.0], [rate, 0.0]])
    return jackson.MapSpec(t=t, u=u)


def hyperexp_renewal_map(p, lam1, lam2):
    t = np.diag([-lam1, -lam2])
    u = np.array([[lam1 * p, lam1 * (1 - p)], [lam2 * p, lam2 * (1 - p)]])
    return jackson.MapSpec(t=t, u=u)


class TestSpecValidation:
    def test_map_generator_must_balance(self):
        with pytest.raises(InvalidSpec):
            jackson.MapSpec(t=[[-1.0]], u=[[0.5]])

    def test_ph_beta_must_be_probability(self):
        with pytest.raises(InvalidSpec):
            jackson.PhSpec(beta=[0.5, 0.2], s=-np.eye(2))

    def test_routing_constraints(self):
        arr = (jackson.poisson_map(1.0), jackson.poisson_map(0.5))
        srv = (jackson.exponential_ph(2.0), jackson.exponential_ph(3.0))
        with pytest.raises(InvalidSpec):
            jackson.JacksonSpec(arrivals=arr, services=srv, r12=0.0, r21=0.0)
        with pytest.raises(InvalidSpec):
            jackson.JacksonSpec(arrivals=arr, services=srv, r12=1.0, r21=1.0)


class TestTrafficCheck:
    def test_single_active_node(self):
        spec = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.0)),
            services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
            r12=0.0, r21=0.5)
        tr = jackson.traffic_check(spec)
        assert tr.rho[0] == pytest.approx(0.5)
        assert tr.rho[1] == pytest.approx(0.0)
        assert tr.stable

    def test_acceptance_instance_formula(self):
        tr = jackson.traffic_check(product_form_jackson())
        denom = 1.0 - 0.3 * 0.2
        assert tr.rho[0] == pytest.approx((1.0 + 0.5 * 0.2) / (denom * 2.0))
        assert tr.rho[1] == pytest.approx((0.5 + 1.0 * 0.3) / (denom * 3.0))

    def test_overloaded_not_stable(self):
        spec = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(3.0), jackson.poisson_map(0.5)),
            services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
            r12=0.3, r21=0.2)
        assert not jackson.traffic_check(spec).stable

    def test_utilization_matches_simulation(self):
        # long-run busy fraction equals rho for the exponential network
        from qbdtail import oracle
        spec = product_form_jackson()
        tr = jackson.traffic_check(spec)
        blocks = jackson.build_blocks(spec)
        sim = oracle.simulate(blocks, seed=5, steps=4_000_000,
                              record_extent=(127, 127))
        mass = sim.cell_mass()
        busy1 = 1.0 - mass[0, :].sum()
        busy2 = 1.0 - mass[:, 0].sum()
        assert busy1 == pytest.approx(tr.rho[0], rel=0.01)
        assert busy2 == pytest.approx(tr.rho[1], rel=0.01)


class TestBuildBlocks:
    def test_exponential_interior_matches_hand_ctmc(self):
        lam1, lam2, mu1, mu2, r12, r21 = 1.0, 0.5, 2.0, 3.0, 0.3, 0.2
        blocks = jackson.build_blocks(product_form_jackson())
        fam = blocks.families[("+", "+")]
        assert fam[(1, 0)][0, 0] == pytest.approx(lam1)
        assert fam[(0, 1)][0, 0] == pytest.approx(lam2)
        assert fam[(-1, 0)][0, 0] == pytest.approx((1 - r12) * mu1)
        assert fam[(-1, 1)][0, 0] == pytest.approx(r12 * mu1)
        assert fam[(0, -1)][0, 0] == pytest.approx((1 - r21) * mu2)
        assert fam[(1, -1)][0, 0] == pytest.approx(r21 * mu2)
        assert fam[(0, 0)][0, 0] == pytest.approx(-(lam1 + lam2 + mu1 + mu2))

    def test_kronecker_dimensions(self, mapph_spec):
        blocks = jackson.build_blocks(mapph_spec)
        n1 = mapph_spec.arrivals[0].order
        n2 = mapph_spec.arrivals[1].order
        k1 = mapph_spec.services[0].order
        k2 = mapph_spec.services[1].order
        assert blocks.dims == (n1 * n2, n1 * n2 * k1, n1 * n2 * k2,
                               n1 * n2 * k1 * k2)

    def test_generator_rows_vanish(self, mapph_spec):
        blocks = jackson.build_blocks(mapph_spec)
        assert qbd2d.validate_spec(blocks) == []

    @pytest.mark.parametrize("name", ["tandem_jackson", "mapph_jackson"])
    def test_blocks_are_the_np_kron_blocks(self, name, monkeypatch):
        """Every block of a shipped network is bit-identical to the one
        assembled with ``np.kron`` in place of ``matcore.kron_prod``."""
        spec = modelfile.load_model(MODELS / f"{name}.yaml").payload
        blocks = jackson.build_blocks(spec)
        monkeypatch.setattr(matcore, "kron_prod", np.kron)
        ref = jackson.build_blocks(spec)
        assert blocks.dims == ref.dims
        for reg, fam in ref.families.items():
            assert fam.keys() == blocks.families[reg].keys()
            for inc, b in fam.items():
                assert blocks.families[reg][inc].tobytes() == b.tobytes(), (reg, inc)

    def test_kronecker_eigen_consistency(self, mapph_spec):
        blocks = jackson.build_blocks(mapph_spec)
        cs = jackson.cumulants(mapph_spec)
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.uniform(-0.8, 0.8, size=2)
            direct = matcore.dominant(qbd2d.a2_mgf(blocks, theta)).value
            assert direct == pytest.approx(cs.gamma_plus(theta), abs=1e-10)


class TestCumulants:
    def test_poisson_arrival(self):
        spec = tandem_jackson()
        cs = jackson.cumulants(spec)
        for th in (-0.5, 0.3, 1.0):
            assert cs.gamma_a(1, th) == pytest.approx(1.0 * (np.exp(th) - 1.0),
                                                      abs=1e-12)

    def test_exponential_departure_no_routing(self):
        spec = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.5)),
            services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
            r12=0.0, r21=0.3)
        cs = jackson.cumulants(spec)
        for th in (-0.4, 0.2, 0.9):
            # node 1 departures leave the network: t1 = e^{-theta_1}
            assert cs.gamma_d(1, (th, 0.7)) == pytest.approx(
                2.0 * (np.exp(-th) - 1.0), abs=1e-11)

    def test_erlang_departure_matches_transform_inverse(self, mapph_spec):
        rng = np.random.default_rng(8)
        for _ in range(10):
            theta = rng.uniform(-0.5, 0.5, size=2)
            cs = jackson.cumulants(mapph_spec)
            for i in (1, 2):
                eig = cs.gamma_d(i, theta)
                mgf = jackson.gamma_d_via_mgf(mapph_spec, i, theta)
                assert eig == pytest.approx(mgf, abs=1e-10)

    def test_gamma_plus_is_sum(self, mapph_spec):
        cs = jackson.cumulants(mapph_spec)
        theta = (0.3, -0.2)
        total = (cs.gamma_a(1, theta[0]) + cs.gamma_a(2, theta[1])
                 + cs.gamma_d(1, theta) + cs.gamma_d(2, theta))
        assert cs.gamma_plus(theta) == pytest.approx(total, abs=1e-14)

    def test_stack_of_points_matches_each_point(self, mapph_spec):
        cs = jackson.cumulants(mapph_spec)
        lanes = np.random.default_rng(9).uniform(-0.5, 0.5, size=(5, 2))
        cases = [cs.gamma_plus, lambda th: cs.gamma_face(1, th),
                 lambda th: cs.gamma_face(2, th), lambda th: cs.t_factor(1, th)]
        for f in cases:
            stacked = f(lanes)
            assert stacked.shape == (5,)
            assert list(stacked) == [f(p) for p in lanes]

    def test_an_overflowing_lift_is_a_non_finite_entry(self):
        # e^800 overflows: the order-1 read raises the kernel's error
        cs = jackson.cumulants(tandem_jackson())
        for theta in (800.0, np.array([0.0, 800.0])):
            with (np.errstate(over="ignore"),
                  pytest.raises(NonFiniteEntry, match="matrix entries must be finite")):
                cs.gamma_a(1, theta)

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (3, 4, 2)])
    def test_theta_of_another_shape_is_refused(self, mapph_spec, shape):
        # a grid (n1, n2, 2) is not a stack of points: refused, not
        # answered with its axes swapped
        cs = jackson.cumulants(mapph_spec)
        theta = np.zeros(shape)
        for f in (cs.gamma_plus, lambda th: cs.gamma_face(1, th),
                  lambda th: cs.gamma_d(2, th), lambda th: cs.t_factor(1, th)):
            with pytest.raises(ShapeMismatch):
                f(theta)


class TestRenewalCumulant:
    def test_poisson_algebra(self):
        arr = jackson.poisson_map(1.3)
        for th in (-0.5, 0.2, 0.8):
            assert jackson.renewal_arrival_cumulant(arr, th) == pytest.approx(
                1.3 * (np.exp(th) - 1.0), abs=1e-10)

    def test_erlang_interarrivals_dual_path(self):
        arr = erlang2_renewal_map(2.4)
        for th in np.linspace(-0.6, 0.9, 12):
            pf_route = matcore.dominant(arr.t + np.exp(th) * arr.u).value
            mgf_route = jackson.renewal_arrival_cumulant(arr, th)
            assert mgf_route == pytest.approx(pf_route, abs=1e-10)

    def test_hyperexponential_dual_path(self):
        arr = hyperexp_renewal_map(0.4, 1.0, 3.0)
        for th in np.linspace(-0.6, 0.9, 12):
            pf_route = matcore.dominant(arr.t + np.exp(th) * arr.u).value
            mgf_route = jackson.renewal_arrival_cumulant(arr, th)
            assert mgf_route == pytest.approx(pf_route, abs=1e-10)

    def test_mmpp_is_not_renewal(self):
        arr = mmpp2_map(0.4, 0.6, 0.5, 2.0)
        with pytest.raises(NotRenewalStructure):
            jackson.renewal_arrival_cumulant(arr, 0.3)

    def test_target_outside_transform_range_is_a_typed_error(self):
        # e^{-100} lies below the interarrival transform's value at the
        # lower end of the inversion interval
        with pytest.raises(OutsideTransformRange):
            jackson.renewal_arrival_cumulant(jackson.poisson_map(1.0), 100.0)


class TestDecayReport:
    def test_product_form_coordinate_rates(self):
        spec = product_form_jackson()
        tr = jackson.traffic_check(spec)
        rep = jackson.decay_report(spec, [(1.0, 0.0), (0.0, 1.0)], scan=128)
        assert rep.analytic.rates[0] == pytest.approx(-np.log(tr.rho[0]), abs=1e-6)
        assert rep.analytic.rates[1] == pytest.approx(-np.log(tr.rho[1]), abs=1e-6)
        assert rep.max_discrepancy <= 1e-6

    def test_tandem_identity(self):
        spec = tandem_jackson()
        cs = jackson.cumulants(spec)
        assert abs(cs.gamma_plus((np.log(2.0), np.log(3.0)))) <= 1e-10
        rep = jackson.decay_report(spec, [(1.0, 0.0)], scan=128)
        assert rep.analytic.tau_report.tau[0] == pytest.approx(np.log(2.0), abs=1e-6)
        assert rep.analytic.tau_report.tau[1] == pytest.approx(np.log(3.0), abs=1e-6)

    def test_mapph_paths_agree(self, mapph_spec):
        rep = jackson.decay_report(mapph_spec, [(1.0, 0.0), (1.0, 1.0)],
                                   scan=128)
        assert rep.max_discrepancy <= 1e-6

    def test_unstable_raises(self):
        spec = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(3.0), jackson.poisson_map(0.5)),
            services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
            r12=0.3, r21=0.2)
        with pytest.raises(Unstable):
            jackson.decay_report(spec, [(1.0, 0.0)])

    @pytest.mark.parametrize("direction", [(0.0, 0.0), (-1.0, 0.0),
                                           (np.nan, 1.0), (np.inf, 1.0)])
    def test_bad_direction_raises(self, direction):
        with pytest.raises(ZeroDirection):
            jackson.decay_report(tandem_jackson(), [(1.0, 0.0), direction])


class TestPathDisagreement:
    """The 1e-6 dual-path gate of ``decay_report``: the generic path is
    handed the level curve of the tandem line with node 1 at rate 2.1, not
    2, so its tau_1 reads log 2.1 against the analytic log 2."""

    @staticmethod
    def perturb(monkeypatch):
        other = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.0)),
            services=(jackson.exponential_ph(2.1), jackson.exponential_ph(3.0)),
            r12=1.0, r21=0.0)
        real = qbd2d.level_curve
        monkeypatch.setattr(jackson.qbd2d, "level_curve",
                            lambda blocks, scan=192: real(other.blocks, scan=scan))

    def test_the_library_raises(self, monkeypatch):
        self.perturb(monkeypatch)
        with pytest.raises(PathDisagreement, match="disagree by 4.87"):
            jackson.decay_report(tandem_jackson(), [(1.0, 0.0)], scan=64)

    def test_the_cli_exits_3_without_a_rate(self, monkeypatch, capsys):
        self.perturb(monkeypatch)
        code = cli.main(["jackson", str(MODELS / "tandem_jackson.yaml"), "decay"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numerical failure: analytic and generic "
                              "pipelines disagree by ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestRoutingEquivalence:
    def test_remark_flags_match_routing_inequality(self, mapph_spec):
        cs = jackson.cumulants(mapph_spec)
        curve = jackson.analytic_curve(mapph_spec, scan=96)
        checked = 0
        for p in curve.scan_points:
            for i in (1, 2):
                gi = cs.gamma_face(i, p)
                if abs(gi) <= 1e-9:
                    continue
                routing = cs.t_factor(3 - i, p) >= 1.0
                assert (gi <= 0) == routing
                checked += 1
        assert checked > 100


class TestServiceTransform:
    def test_mgf_increasing_up_to_dominant_eigenvalue(self):
        ph = jackson.erlang_ph(2, 3.0)
        theta0 = -float(np.max(np.linalg.eigvals(ph.s).real))
        xs = np.linspace(-5.0, theta0 - 1e-3, 40)
        vals = [jackson.service_mgf(ph, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert jackson.service_mgf(ph, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestCertificate:
    def test_one_phase_residual_zero(self):
        spec = product_form_jackson()
        curve = jackson.analytic_curve(spec, scan=64)
        theta = curve.point_at(1.1)
        cert = jackson.assumption3_certificate(spec, theta)
        assert cert.ok
        assert max(cert.residual_upper) <= 1e-10
        assert max(cert.residual_lower) <= 1e-10

    def test_mapph_certificate_on_curve(self, mapph_spec):
        curve = jackson.analytic_curve(mapph_spec, scan=64)
        cs = jackson.cumulants(mapph_spec)
        for phi in (0.4, 1.3, 2.2, 3.9):
            theta = curve.point_at(phi)
            cert = jackson.assumption3_certificate(mapph_spec, theta)
            assert cert.ok
            for i in (1, 2):
                assert cert.c0_error[i - 1] <= 1e-10
                assert cert.c0[i - 1] == pytest.approx(
                    cs.gamma_face(i, theta), abs=1e-10)

    def test_blocks_are_built_once_per_spec(self, monkeypatch):
        spec = jackson.JacksonSpec(
            arrivals=(mmpp2_map(0.4, 0.6, 0.5, 2.0), jackson.poisson_map(0.25)),
            services=(jackson.erlang_ph(2, 3.5), jackson.erlang_ph(2, 1.77)),
            r12=0.3, r21=0.2)
        built = []
        original = jackson.build_blocks
        monkeypatch.setattr(jackson, "build_blocks",
                            lambda s: built.append(s) or original(s))
        curve = jackson.analytic_curve(spec, scan=32)
        for phi in (0.4, 1.3, 2.2, 3.9):
            assert jackson.assumption3_certificate(spec, curve.point_at(phi)).ok
        jackson.decay_report(spec, [(1.0, 1.0)], scan=32)
        assert built == [spec]
        assert spec.blocks is spec.blocks

    def test_off_curve_raises(self, mapph_spec):
        with pytest.raises(ThetaNotOnCurve):
            jackson.assumption3_certificate(mapph_spec, (2.0, 2.0))

    @pytest.mark.parametrize("make", [tandem_jackson, mapph_jackson,
                                      h2_service_jackson])
    def test_stack_lanes_are_the_single_point_certificates(self, make):
        """A stack of the 32 scan points gives, lane by lane, the
        certificate of each point alone: residuals and c0 to 1e-13, the same
        ``ok``; a single point gives floats and a bool."""
        spec = make()
        points = jackson.analytic_curve(spec, scan=32).scan_points
        stack = jackson.assumption3_certificate(spec, points)
        for field in (stack.residual_upper, stack.residual_lower, stack.c0,
                      stack.c0_error):
            assert field.shape == (32, 2)
        assert stack.ok.shape == (32,) and stack.ok.all()
        for k, p in enumerate(points):
            one = jackson.assumption3_certificate(spec, p)
            assert type(one.ok) is bool and one.ok == stack.ok[k]
            for single, lanes in ((one.residual_upper, stack.residual_upper),
                                  (one.residual_lower, stack.residual_lower),
                                  (one.c0, stack.c0),
                                  (one.c0_error, stack.c0_error)):
                assert all(type(x) is float for x in single)
                assert np.max(np.abs(np.array(single) - lanes[k])) <= 1e-13

    def test_off_curve_lane_raises(self, mapph_spec):
        points = jackson.analytic_curve(mapph_spec, scan=8).scan_points.copy()
        assert jackson.assumption3_certificate(mapph_spec, points).ok.all()
        points[5] *= 1.5
        with pytest.raises(ThetaNotOnCurve, match="lane 5"):
            jackson.assumption3_certificate(mapph_spec, points)
