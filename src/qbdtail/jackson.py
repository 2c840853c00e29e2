"""Two-node generalized Jackson networks.

MAP arrivals, phase-type services, Bernoulli routing.  The network is
analyzed two ways: a fast analytic path built from the four time-average
cumulant eigenvalue functions (one per arrival stream and one per busy
server), and the generic path that assembles the full continuous-time
two-dimensional QBD via Kronecker products and runs the generic machinery.
Both must agree; the decay report carries their maximum discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore, qbd2d
from .errors import (
    InvalidSpec,
    NotRenewalStructure,
    OutsideTransformRange,
    PathDisagreement,
    ThetaNotOnCurve,
    Unstable,
)
from .levelset import Decay, LevelCurve, checked_direction, decay


@dataclass(frozen=True)
class MapSpec:
    """Markovian arrival process: generator T + U, arrivals generated by U."""

    t: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        t = matcore.as_matrix(self.t)
        u = matcore.as_matrix(self.u)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        n = t.shape[0]
        if t.shape != (n, n) or u.shape != (n, n):
            raise InvalidSpec("T and U must be square of equal size")
        off = t.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0) or np.any(u < 0):
            raise InvalidSpec("T off-diagonal and U must be nonnegative")
        if np.max(np.abs((t + u) @ np.ones(n))) > 1e-10:
            raise InvalidSpec("(T + U) 1 must vanish")
        if not matcore.is_irreducible(t + u + np.eye(n)):
            raise InvalidSpec("T + U must be irreducible")

    @property
    def order(self) -> int:
        return self.t.shape[0]

    def rate(self) -> float:
        """Stationary arrival rate <nu, U 1>."""
        nu = matcore.dominant((self.t + self.u).T).right
        return float(nu @ (self.u @ np.ones(self.order)))


def poisson_map(rate: float) -> MapSpec:
    """One-phase MAP: a Poisson process (rate 0 gives a null stream)."""
    return MapSpec(t=[[-float(rate)]], u=[[float(rate)]])


@dataclass(frozen=True)
class PhSpec:
    """Phase-type service: initial row beta, subgenerator S."""

    beta: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).ravel()
        s = matcore.as_matrix(self.s)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "s", s)
        k = s.shape[0]
        if s.shape != (k, k) or beta.shape != (k,):
            raise InvalidSpec("beta and S sizes disagree")
        if np.any(beta < 0) or abs(beta.sum() - 1.0) > 1e-12:
            raise InvalidSpec("beta must be a probability vector")
        off = s.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0) or np.any(np.diag(s) > 0):
            raise InvalidSpec("S must have nonnegative off-diagonal, "
                              "nonpositive diagonal")
        exit_rates = -s @ np.ones(k)
        if np.any(exit_rates < -1e-12) or np.max(exit_rates) <= 0:
            raise InvalidSpec("S 1 <= 0 with strict inequality somewhere")
        if abs(np.linalg.det(s)) < 1e-300:
            raise InvalidSpec("-S must be nonsingular")

    @property
    def order(self) -> int:
        return self.s.shape[0]

    # computed once: every departure-cumulant evaluation reads them
    @cached_property
    def exit(self) -> np.ndarray:
        """-S 1, the absorption rate column."""
        return -self.s @ np.ones(self.order)

    @cached_property
    def d_mat(self) -> np.ndarray:
        """Service-completion rate matrix D = (-S 1) beta."""
        return np.outer(self.exit, self.beta)

    def mean(self) -> float:
        """Mean service time <beta, (-S)^{-1} 1>."""
        return float(self.beta @ np.linalg.solve(-self.s, np.ones(self.order)))


def exponential_ph(rate: float) -> PhSpec:
    return PhSpec(beta=[1.0], s=[[-float(rate)]])


def erlang_ph(stages: int, rate: float) -> PhSpec:
    """Erlang distribution: ``stages`` exponential stages of the given rate."""
    s = -rate * np.eye(stages)
    for i in range(stages - 1):
        s[i, i + 1] = rate
    beta = np.zeros(stages)
    beta[0] = 1.0
    return PhSpec(beta=beta, s=s)


@dataclass(frozen=True)
class JacksonSpec:
    arrivals: tuple   # (MapSpec, MapSpec)
    services: tuple   # (PhSpec, PhSpec)
    r12: float
    r21: float

    def __post_init__(self):
        if not (0.0 <= self.r12 <= 1.0 and 0.0 <= self.r21 <= 1.0):
            raise InvalidSpec("routing probabilities must lie in [0, 1]")
        if self.r12 + self.r21 <= 0.0:
            raise InvalidSpec("r12 + r21 must be positive")
        if self.r12 * self.r21 >= 1.0:
            raise InvalidSpec("r12 * r21 must be below one")

    @property
    def r10(self) -> float:
        return 1.0 - self.r12

    @property
    def r20(self) -> float:
        return 1.0 - self.r21

    def routing(self, i: int) -> tuple:
        """(r_{i0}, r_{i,3-i}) for node i."""
        return (self.r10, self.r12) if i == 1 else (self.r20, self.r21)


@dataclass(frozen=True)
class TrafficReport:
    lam: tuple            # exogenous arrival rates
    mean_service: tuple   # mean service times
    mu: tuple             # service rates (reciprocal mean times)
    rho: tuple            # utilizations
    stable: bool


def traffic_check(spec: JacksonSpec) -> TrafficReport:
    """Utilizations from the traffic equations.

    The stability display uses the service *rate*; the mean service time is
    reported alongside since the two readings are easy to mix up.
    """
    lam = tuple(a.rate() for a in spec.arrivals)
    mean = tuple(s.mean() for s in spec.services)
    mu = tuple(1.0 / m for m in mean)
    denom = 1.0 - spec.r12 * spec.r21
    rho1 = (lam[0] + lam[1] * spec.r21) / (denom * mu[0])
    rho2 = (lam[1] + lam[0] * spec.r12) / (denom * mu[1])
    return TrafficReport(lam=lam, mean_service=mean, mu=mu, rho=(rho1, rho2),
                         stable=bool(rho1 < 1.0 and rho2 < 1.0))


# -- Kronecker block assembly --------------------------------------------------


def build_blocks(spec: JacksonSpec) -> qbd2d.Qbd2dSpec:
    """Continuous-time 2d-QBD blocks of the network.

    Background order: arrival phase 1, arrival phase 2, service phase 1,
    service phase 2, with the service factors dropped at empty nodes.
    """
    (a1, a2), (s1, s2) = spec.arrivals, spec.services
    t1, u1, t2, u2 = a1.t, a1.u, a2.t, a2.u
    i1, i2 = np.eye(a1.order), np.eye(a2.order)
    i3, i4 = np.eye(s1.order), np.eye(s2.order)
    b1 = s1.beta[np.newaxis, :]
    b2 = s2.beta[np.newaxis, :]
    e1 = s1.exit[:, np.newaxis]
    e2 = s2.exit[:, np.newaxis]
    d1, d2 = s1.d_mat, s2.d_mat
    r10, r12, r20, r21 = spec.r10, spec.r12, spec.r20, spec.r21
    kron = matcore.kron_prod

    def kron4(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = kron(out, m)
        return out

    ksum = matcore.kron_sum
    interior = {
        (0, 0): ksum(ksum(t1, t2), ksum(s1.s, s2.s)),
        (1, 0): kron4(u1, i2, i3, i4),
        (0, 1): kron4(i1, u2, i3, i4),
        (-1, 0): kron4(i1, i2, r10 * d1, i4),
        (-1, 1): kron4(i1, i2, r12 * d1, i4),
        (0, -1): kron4(i1, i2, i3, r20 * d2),
        (1, -1): kron4(i1, i2, i3, r21 * d2),
    }
    face1 = {
        (0, 0): ksum(ksum(t1, t2), s1.s),
        (1, 0): kron4(u1, i2, i3),
        (-1, 0): kron4(i1, i2, r10 * d1),
        (0, 1): kron4(i1, u2, i3, b2),
        (-1, 1): kron4(i1, i2, r12 * d1, b2),
    }
    face2 = {
        (0, 0): ksum(ksum(t1, t2), s2.s),
        (0, 1): kron4(i1, u2, i4),
        (0, -1): kron4(i1, i2, r20 * d2),
        (1, 0): kron4(u1, i2, b1, i4),
        (1, -1): kron4(i1, i2, b1, r21 * d2),
    }
    origin = {
        (0, 0): ksum(t1, t2),
        (1, 0): kron4(u1, i2, b1),
        (0, 1): kron4(i1, u2, b2),
    }
    corner10 = {
        (-1, 0): kron4(i1, i2, r10 * e1),
        (-1, 1): kron4(i1, i2, r12 * (e1 @ b2)),
    }
    corner01 = {
        (0, -1): kron4(i1, i2, r20 * e2),
        (1, -1): kron4(i1, i2, b1, r21 * e2),
    }
    face1_down = {
        (0, -1): kron4(i1, i2, i3, r20 * e2),
        (1, -1): kron4(i1, i2, i3, r21 * e2),
    }
    face2_down = {
        (-1, 0): kron4(i1, i2, r10 * e1, i4),
        (-1, 1): kron4(i1, i2, r12 * e1, i4),
    }
    corner11 = {
        (-1, 0): face2_down[(-1, 0)],
        (-1, 1): face2_down[(-1, 1)],
        (0, -1): face1_down[(0, -1)],
        (1, -1): face1_down[(1, -1)],
    }
    dims = (a1.order * a2.order,
            a1.order * a2.order * s1.order,
            a1.order * a2.order * s2.order,
            a1.order * a2.order * s1.order * s2.order)
    fams = {
        ("+", "+"): interior, ("+", "0"): face1, ("0", "+"): face2,
        ("0", "0"): origin, ("1", "0"): corner10, ("0", "1"): corner01,
        ("1", "1"): corner11, ("+", "1"): face1_down, ("1", "+"): face2_down,
    }
    return qbd2d.make_spec(fams, dims, "continuous")


# -- cumulant moment generating functions --------------------------------------


@dataclass(frozen=True)
class CumulantSet:
    """Time-average cumulant eigenvalues of the four primitive streams."""

    spec: JacksonSpec

    def t_factor(self, i: int, theta) -> float:
        """Tilting factor of node-i departures: e^{-theta_i}(r_i0 +
        e^{theta_{3-i}} r_{i,3-i})."""
        ri0, rij = self.spec.routing(i)
        ti, tj = (theta[0], theta[1]) if i == 1 else (theta[1], theta[0])
        return float(np.exp(-ti) * (ri0 + np.exp(tj) * rij))

    def gamma_a(self, i: int, theta_i: float) -> float:
        """Arrival cumulant: dominant eigenvalue of T_i + e^theta U_i."""
        a = self.spec.arrivals[i - 1]
        return matcore.dominant(a.t + np.exp(theta_i) * a.u).value

    def gamma_d(self, i: int, theta) -> float:
        """Busy-server departure cumulant: dominant eigenvalue of
        S_i + t_i(theta) D_i."""
        s = self.spec.services[i - 1]
        return matcore.dominant(s.s + self.t_factor(i, theta) * s.d_mat).value

    def gamma_plus(self, theta) -> float:
        return (self.gamma_a(1, theta[0]) + self.gamma_a(2, theta[1])
                + self.gamma_d(1, theta) + self.gamma_d(2, theta))

    def gamma_face(self, i: int, theta) -> float:
        """gamma^{(i)} = both arrival cumulants plus the node-i departure."""
        return (self.gamma_a(1, theta[0]) + self.gamma_a(2, theta[1])
                + self.gamma_d(i, theta))


def cumulants(spec: JacksonSpec) -> CumulantSet:
    return CumulantSet(spec=spec)


# -- transform inverses ---------------------------------------------------------


def _lt_value(weights: np.ndarray, gen: np.ndarray, x: float) -> float:
    """<weights, (-x I - gen)^{-1} (-gen 1)> (moment generating function of
    an absorption time at argument x)."""
    n = gen.shape[0]
    w = -gen @ np.ones(n)
    return float(weights @ np.linalg.solve(-x * np.eye(n) - gen, w))


def _lt_inverse(weights: np.ndarray, gen: np.ndarray, y: float,
                lo: float = -40.0) -> float:
    """Inverse of the increasing map x -> mgf(x) on (lo, theta0), where
    -theta0 is the dominant eigenvalue of the generator."""
    # PH and MAP subgenerators may be reducible (Erlang stages), so no
    # Perron certificate here
    theta0 = -float(np.max(np.linalg.eigvals(gen).real))
    hi = theta0 - 1e-12
    flo = _lt_value(weights, gen, lo) - y
    fhi = _lt_value(weights, gen, hi) - y
    if flo > 0 or fhi < 0:
        raise OutsideTransformRange(f"target {y} outside the invertible range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _lt_value(weights, gen, mid) - y <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def service_mgf(ph: PhSpec, x: float) -> float:
    """Moment generating function of the service time at x."""
    return _lt_value(ph.beta, ph.s, x)


def gamma_d_via_mgf(spec: JacksonSpec, i: int, theta) -> float:
    """Departure cumulant through the service-time transform:
    -g_i^{-1}(1 / t_i(theta)); must agree with the eigenvalue route."""
    cs = cumulants(spec)
    ti = cs.t_factor(i, theta)
    ph = spec.services[i - 1]
    return -_lt_inverse(ph.beta, ph.s, 1.0 / ti)


def renewal_arrival_cumulant(arr: MapSpec, theta: float) -> float:
    """Arrival cumulant of a renewal MAP via the interarrival transform:
    -f^{-1}(e^{-theta}).  Requires U = (-T 1) alpha."""
    n = arr.order
    w = -arr.t @ np.ones(n)
    alpha = None
    for r in range(n):
        if w[r] > 1e-12:
            cand = arr.u[r] / w[r]
            if alpha is None:
                alpha = cand
            elif not np.allclose(cand, alpha, atol=1e-10):
                raise NotRenewalStructure("arrival rows are not proportional")
        elif np.max(np.abs(arr.u[r])) > 1e-12:
            raise NotRenewalStructure("arrival row without matching exit rate")
    if alpha is None:
        raise NotRenewalStructure("no exit rates found")
    return -_lt_inverse(alpha, arr.t, float(np.exp(-theta)))


# -- decay rates, two ways -------------------------------------------------------


def analytic_curve(spec: JacksonSpec, scan: int = 192) -> LevelCurve:
    """Level curve of gamma_plus with face feasibility flags from the
    gamma^{(i)} signs."""
    cs = cumulants(spec)

    def flags(theta):
        out = []
        for i in (1, 2):
            out.append(bool(cs.gamma_face(i, theta) <= qbd2d.FEAS_SLACK))
        return tuple(out)

    return LevelCurve(cs.gamma_plus, flags, scan_size=scan)


@dataclass(frozen=True)
class JacksonDecay:
    traffic: TrafficReport
    analytic: Decay          # path A, the cumulant level curve
    generic: Decay           # path B, the Kronecker blocks
    max_discrepancy: float   # over tau and every rate


def decay_report(spec: JacksonSpec, directions, scan: int = 192,
                 tol: float = 1e-6) -> JacksonDecay:
    """Directional decay rates via both pipelines.

    Path A traces {gamma_plus = 0} with feasibility from the gamma^{(i)}
    signs; path B assembles the Kronecker blocks and runs the generic
    two-dimensional analysis.  A discrepancy beyond ``tol`` raises
    PathDisagreement, signalling a defect.
    """
    directions = [checked_direction(c) for c in directions]
    traffic = traffic_check(spec)
    if not traffic.stable:
        raise Unstable(f"utilizations {traffic.rho} not both below one")
    analytic = decay(analytic_curve(spec, scan=scan), directions)
    generic = decay(qbd2d.level_curve(build_blocks(spec), scan=scan), directions)
    worst = max(abs(a - b) for a, b in
                zip(analytic.tau_report.tau + analytic.rates,
                    generic.tau_report.tau + generic.rates))
    if worst > tol:
        raise PathDisagreement(
            f"analytic and generic pipelines disagree by {worst:.3e}")
    return JacksonDecay(traffic=traffic, analytic=analytic, generic=generic,
                        max_discrepancy=float(worst))


# -- certificate for the boundary compatibility condition ------------------------


@dataclass(frozen=True)
class CertificateResult:
    residual_upper: tuple    # per face, the pinned-scalar display residual
    residual_lower: tuple    # per face, the zero display residual
    c0: tuple                # fitted scalars, should equal gamma_face
    c0_error: tuple
    ok: bool


def assumption3_certificate(spec: JacksonSpec, theta,
                            tol: float = 1e-8) -> CertificateResult:
    """Constructs the product-form eigenvectors at a curve point and checks
    the boundary compatibility displays for both faces.

    For face 1 the boundary vector is a(theta) h1a x h2a x h1d with
    a = <beta_2, h2d> and h_id normalised through the service transform;
    the fitted scalar must equal gamma^{(1)}(theta), and the lower display
    must vanish.  Face 2 is symmetric.
    """
    theta = np.asarray(theta, dtype=float)
    cs = cumulants(spec)
    if abs(cs.gamma_plus(theta)) > 1e-8:
        raise ThetaNotOnCurve("gamma_plus(theta) != 0")
    (a1, a2), (s1, s2) = spec.arrivals, spec.services
    h1a = matcore.dominant(a1.t + np.exp(theta[0]) * a1.u).right
    h2a = matcore.dominant(a2.t + np.exp(theta[1]) * a2.u).right

    def h_service(i):
        ph = spec.services[i - 1]
        gid = cs.gamma_d(i, theta)
        return np.linalg.solve(gid * np.eye(ph.order) - ph.s,
                               ph.exit)

    h1d = h_service(1)
    h2d = h_service(2)
    h_plus = np.kron(np.kron(h1a, h2a), np.kron(h1d, h2d))
    blocks = build_blocks(spec)

    res_up, res_low, c0s, c0err = [], [], [], []
    for i in (1, 2):
        ti = float(theta[i - 1])
        tother = float(theta[2 - i])
        eo = np.exp(tother)
        f0 = qbd2d.face_mgf(blocks, i, 0, ti)
        f1 = qbd2d.face_mgf(blocks, i, 1, ti)
        down = qbd2d.face_down_mgf(blocks, i, ti)
        a_low = qbd2d.interior_star_k(blocks, i, 0, ti)
        a_up = qbd2d.interior_star_k(blocks, i, 1, ti)
        if i == 1:
            a_scal = float(s2.beta @ h2d)
            h0 = a_scal * np.kron(np.kron(h1a, h2a), h1d)
        else:
            a_scal = float(s1.beta @ h1d)
            h0 = a_scal * np.kron(np.kron(h1a, h2a), h2d)
        scale = max(1.0, float(np.max(np.abs(h0))))
        v = f0 @ h0 + eo * (f1 @ h_plus)
        c0 = float(v @ h0) / float(h0 @ h0)
        res_up.append(float(np.max(np.abs(v - c0 * h0))) / scale)
        low = (np.exp(-tother) * (down @ h0) + a_low @ h_plus
               + eo * (a_up @ h_plus))
        res_low.append(float(np.max(np.abs(low)))
                       / max(1.0, float(np.max(np.abs(h_plus)))))
        c0s.append(c0)
        c0err.append(abs(c0 - cs.gamma_face(i, theta)))
    ok = max(max(res_up), max(res_low)) <= tol
    return CertificateResult(residual_upper=tuple(res_up),
                             residual_lower=tuple(res_low),
                             c0=tuple(c0s), c0_error=tuple(c0err), ok=ok)
