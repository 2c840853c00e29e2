"""Two-node generalized Jackson networks.

MAP arrivals, phase-type services, Bernoulli routing.  The network is
analyzed two ways: a fast analytic path built from the four time-average
cumulant eigenvalue functions (one per arrival stream and one per busy
server), and the generic path that assembles the full continuous-time
two-dimensional QBD via Kronecker products (``matcore.kron_prod``) and runs
the generic machinery.  Both must agree; the decay report carries their
maximum discrepancy.  The boundary-compatibility certificate checks one
curve point or a stack of them in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TYPE_CHECKING

import numpy as np

from . import matcore, qbd2d
from .errors import (
    InvalidSpec,
    NoSignChange,
    NotRenewalStructure,
    OutsideTransformRange,
    PathDisagreement,
    ShapeMismatch,
    ThetaNotOnCurve,
    Unstable,
)

if TYPE_CHECKING:   # imported by the functions that run a curve or a root
    from .levelset import Decay, LevelCurve


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
        if (off < 0).any() or (u < 0).any():
            raise InvalidSpec("T off-diagonal and U must be nonnegative")
        if np.abs((t + u) @ np.ones(n)).max() > 1e-10:
            raise InvalidSpec("(T + U) 1 must vanish")
        if not matcore.is_irreducible(t + u + np.eye(n)):
            raise InvalidSpec("T + U must be irreducible")

    @property
    def order(self) -> int:
        return self.t.shape[0]

    def rate(self) -> float:
        """Stationary arrival rate <nu, U 1> (nu = 1 for one phase)."""
        nu = (matcore.dominant((self.t + self.u).T).right if self.order > 1
              else np.ones(1))
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
        if (beta < 0).any() or abs(beta.sum() - 1.0) > 1e-12:
            raise InvalidSpec("beta must be a probability vector")
        off = s.copy()
        np.fill_diagonal(off, 0.0)
        if (off < 0).any() or (np.diagonal(s) > 0).any():
            raise InvalidSpec("S must have nonnegative off-diagonal, "
                              "nonpositive diagonal")
        exit_rates = -s @ np.ones(k)
        if (exit_rates < -1e-12).any() or exit_rates.max() <= 0:
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

    def routing(self, i: int) -> tuple:
        """(r_{i0}, r_{i,3-i}) for node i."""
        rij = self.r12 if i == 1 else self.r21
        return 1.0 - rij, rij

    # computed once: the generic path and every certificate point read it
    @cached_property
    def blocks(self) -> qbd2d.Qbd2dSpec:
        """The network's continuous-time 2d-QBD (``build_blocks``)."""
        return build_blocks(self)


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


#: per region, the increments whose block is its own storage (no
#: ``qbd2d.alias_target``) and made by the network: the local block and the
#: moves of one event (none moves both queues up or both down)
_OWN_BLOCKS = {reg: [inc for inc in qbd2d.allowed_increments(*reg)
                     if qbd2d.alias_target(*reg, *inc) is None
                     and inc not in ((1, 1), (-1, -1))]
               for reg in qbd2d.REGIONS}


def build_blocks(spec: JacksonSpec) -> qbd2d.Qbd2dSpec:
    """Continuous-time 2d-QBD blocks of the network, from its events.

    Background order: arrival phase 1, arrival phase 2, service phase 1,
    service phase 2, with the service factor of an empty node dropped.  In
    region (s1, s2) node i is busy unless s_i is "0".  The local block is
    (T1 (+) T2) (+) S, S the Kronecker sum of the busy nodes' S_i.  An
    arrival at node i, or a completion at node i routed out or to the other
    node with probability r, is the Kronecker product of its arrival part
    (U1 x I, I x U2 or I x I) and one factor per node busy before or after
    the move: I for a node that keeps its customer, beta_j for a customer
    who starts at an empty node, and for the completing node r (-S_i 1)
    when it empties, else r D_i.  Aliased blocks are left to ``make_spec``.
    """
    (a1, a2), services = spec.arrivals, spec.services
    kron, ksum = matcore.kron_prod, matcore.kron_sum
    eye1, eye2 = np.eye(a1.order), np.eye(a2.order)
    arrival = {(1, 0): kron(a1.u, eye2), (0, 1): kron(eye1, a2.u)}
    no_arrival = kron(eye1, eye2)
    t12 = ksum(a1.t, a2.t)
    # per node: the factor of a kept customer, of one who starts, and of a
    # completion routed out or on, by the node's class "1" (it empties) or
    # "+" (it stays busy)
    factors = [{"keep": np.eye(ph.order), "start": ph.beta[np.newaxis, :],
                "1": [r * ph.exit[:, np.newaxis] for r in spec.routing(n)],
                "+": [r * ph.d_mat for r in spec.routing(n)]}
               for n, ph in enumerate(services, 1)]
    fams = {}
    for reg, incs in _OWN_BLOCKS.items():
        fam = fams[reg] = {}
        busy = [ph.s for ph, s in zip(services, reg) if s != "0"]
        for inc in incs:
            if inc == (0, 0):
                fam[inc] = ksum(t12, reduce(ksum, busy)) if busy else t12
                continue
            block = arrival.get(inc, no_arrival)
            for s, move, other, f in zip(reg, inc, inc[::-1], factors):
                if move == -1:
                    block = kron(block, f[s][other])
                elif s != "0":
                    block = kron(block, f["keep"])
                elif move == 1:
                    block = kron(block, f["start"])
            fam[inc] = block
    m, (k1, k2) = a1.order * a2.order, (ph.order for ph in services)
    dims = (m, m * k1, m * k2, m * k1 * k2)
    return qbd2d.make_spec(fams, dims, "continuous")


# -- cumulant moment generating functions --------------------------------------


@dataclass(frozen=True)
class CumulantSet:
    """Time-average cumulant eigenvalues of the four primitive streams.

    Each takes theta of shape (2,) (theta_i a number) or a stack (n, 2)
    (theta_i of shape (n,)) and gives a number or one value per point;
    another shape raises ``ShapeMismatch``.
    """

    spec: JacksonSpec

    @cached_property
    def _one_phase(self) -> tuple:
        """Per stream (arrivals 1 and 2, then services 1 and 2), the
        entries (T, U) or (S, D) of a one-phase law as floats, else None:
        its cumulant is T + e^theta U or S + t_i(theta) D, in float
        arithmetic at one point and on (n,) arrays for a stack."""
        laws = ([(a.t, a.u) for a in self.spec.arrivals]
                + [(s.s, s.d_mat) for s in self.spec.services])
        return tuple((t.item(), u.item()) if t.shape == (1, 1) else None
                     for t, u in laws)

    def t_factor(self, i: int, theta):
        """Tilting factor of node-i departures: e^{-theta_i}(r_i0 +
        e^{theta_{3-i}} r_{i,3-i})."""
        ri0, rij = self.spec.routing(i)
        coords = _coordinates(theta)
        return _exp(-coords[i - 1]) * (ri0 + _exp(coords[2 - i]) * rij)

    def gamma_a(self, i: int, theta_i):
        """Arrival cumulant: dominant eigenvalue of T_i + e^theta U_i."""
        one = self._one_phase[i - 1]
        if one:
            t, u = one
            return matcore._entry_root(t + _exp(theta_i) * u)
        a = self.spec.arrivals[i - 1]
        lift = np.exp(theta_i)[..., np.newaxis, np.newaxis]
        return matcore.perron_value(a.t + lift * a.u)

    def gamma_d(self, i: int, theta):
        """Busy-server departure cumulant: dominant eigenvalue of
        S_i + t_i(theta) D_i."""
        one = self._one_phase[i + 1]
        if one:
            t, d = one
            return matcore._entry_root(t + self.t_factor(i, theta) * d)
        s = self.spec.services[i - 1]
        lift = np.asarray(self.t_factor(i, theta))[..., np.newaxis, np.newaxis]
        return matcore.perron_value(s.s + lift * s.d_mat)

    def gamma_plus(self, theta):
        t1, t2 = _coordinates(theta)
        return (self.gamma_a(1, t1) + self.gamma_a(2, t2)
                + self.gamma_d(1, theta) + self.gamma_d(2, theta))

    def gamma_face(self, i: int, theta):
        """gamma^{(i)} = both arrival cumulants plus the node-i departure."""
        t1, t2 = _coordinates(theta)
        return (self.gamma_a(1, t1) + self.gamma_a(2, t2)
                + self.gamma_d(i, theta))


def _coordinates(theta):
    """(theta_1, theta_2) of a point (2,) as floats, or of a stack (n, 2)
    as the rows of its transpose."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape == (2,):
        return theta.tolist()
    if theta.ndim != 2 or theta.shape[1] != 2:
        raise ShapeMismatch(f"expected theta of shape (2,) or (n, 2), "
                            f"got {theta.shape}")
    return theta.T


def _exp(x):
    """``np.exp(x)``, a float for a float x: the same bits as from an
    array, which ``math.exp`` does not give."""
    return float(np.exp(x)) if type(x) is float else np.exp(x)


def cumulants(spec: JacksonSpec) -> CumulantSet:
    return CumulantSet(spec=spec)


# -- transform inverses ---------------------------------------------------------


def _lt_value(weights: np.ndarray, gen: np.ndarray, x: float) -> float:
    """<weights, (-x I - gen)^{-1} (-gen 1)> (moment generating function of
    an absorption time at argument x)."""
    n = gen.shape[0]
    w = -gen @ np.ones(n)
    return float(weights @ np.linalg.solve(-x * np.eye(n) - gen, w))


def _lt_inverse(weights: np.ndarray, gen: np.ndarray, y: float) -> float:
    """Inverse of the increasing map x -> mgf(x) on (-40, theta0), where
    -theta0 is the dominant eigenvalue of the generator."""
    # PH and MAP subgenerators may be reducible (Erlang stages), so no
    # Perron certificate here
    from . import qbd1d
    theta0 = matcore.least_eigenvalue(-gen)
    try:
        return qbd1d.bisect_root(lambda x: _lt_value(weights, gen, x) - y,
                                 -40.0, theta0 - 1e-12)
    except NoSignChange:
        raise OutsideTransformRange(
            f"target {y} outside the invertible range") from None


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


def analytic_curve(spec: JacksonSpec, scan: int = qbd2d.DEFAULT_SCAN) -> LevelCurve:
    """Level curve of gamma_plus with face feasibility margins
    gamma^{(i)}(theta): face i is feasible where gamma^{(i)} <= slack."""
    from .levelset import LevelCurve
    cs = cumulants(spec)
    return LevelCurve(cs.gamma_plus, lambda theta, i: cs.gamma_face(i, theta),
                      scan_size=scan)


@dataclass(frozen=True)
class JacksonDecay:
    analytic: Decay          # path A, the cumulant level curve
    generic: Decay           # path B, the Kronecker blocks
    max_discrepancy: float   # over tau and every rate


def decay_report(spec: JacksonSpec, directions,
                 scan: int = qbd2d.DEFAULT_SCAN) -> JacksonDecay:
    """Directional decay rates via both pipelines.

    Path A traces {gamma_plus = 0} with feasibility from the gamma^{(i)}
    signs; path B assembles the Kronecker blocks and runs the generic
    two-dimensional analysis.  A discrepancy beyond 1e-6 raises
    PathDisagreement, signalling a defect.
    """
    from .levelset import checked_direction, decay
    directions = [checked_direction(c) for c in directions]
    traffic = traffic_check(spec)
    if not traffic.stable:
        raise Unstable(f"utilizations {traffic.rho} not both below one")
    analytic = decay(analytic_curve(spec, scan=scan), directions)
    generic = decay(qbd2d.level_curve(spec.blocks, scan=scan), directions)
    worst = max(abs(a - b) for a, b in
                zip(analytic.tau_report.tau + analytic.rates,
                    generic.tau_report.tau + generic.rates))
    if worst > 1e-6:
        raise PathDisagreement(
            f"analytic and generic pipelines disagree by {worst:.3e}")
    return JacksonDecay(analytic=analytic, generic=generic,
                        max_discrepancy=float(worst))


# -- certificate for the boundary compatibility condition ------------------------


@dataclass(frozen=True)
class CertificateResult:
    """The boundary-compatibility check at one curve point: per face, as a
    (face 1, face 2) pair of floats, the display residuals, the fitted
    scalar and its error, and ``ok`` a bool.  From a stack of n points
    every field has a leading lane axis, as in ``matcore.Dominant``: the
    pairs are (n, 2) arrays and ``ok`` is an (n,) array."""

    residual_upper: tuple    # per face, the pinned-scalar display residual
    residual_lower: tuple    # per face, the zero display residual
    c0: tuple                # fitted scalars, should equal gamma_face
    c0_error: tuple
    ok: bool


def assumption3_certificate(spec: JacksonSpec, theta) -> CertificateResult:
    """Constructs the product-form eigenvectors at a curve point, or at
    each lane of an (n, 2) stack, and checks the boundary compatibility
    displays for both faces.

    For face 1 the boundary vector is a(theta) h1a x h2a x h1d with
    a = <beta_2, h2d> and h_id normalised through the service transform;
    the fitted scalar must equal gamma^{(1)}(theta), and the lower display
    must vanish.  Face 2 is symmetric.  ``ok`` holds where every display
    residual is at most 1e-8.  A stack takes one pass: stacked cumulants,
    one stacked ``dominant`` per arrival stream, one stacked solve per
    service vector and stacked products for the displays.  A point with
    |gamma_plus| > 1e-8 raises ``ThetaNotOnCurve``, which names the first
    such lane of a stack.
    """
    theta = np.asarray(theta, dtype=float)
    lanes = theta.reshape(-1, 2)
    cs = cumulants(spec)
    off = ~(np.abs(cs.gamma_plus(lanes)) <= 1e-8)
    if off.any():
        where = f" at lane {int(np.argmax(off))}" if theta.ndim == 2 else ""
        raise ThetaNotOnCurve(f"gamma_plus(theta) != 0{where}")
    # the eigenvector factors as (n, k, 1) columns, one per lane (ones for
    # a one-phase stream)
    h1a, h2a = (matcore.dominant(a.t + np.exp(lanes[:, k, np.newaxis, np.newaxis])
                                 * a.u).right[..., np.newaxis] if a.order > 1
                else np.ones((len(lanes), 1, 1))
                for k, a in enumerate(spec.arrivals))
    h1d, h2d = (np.linalg.solve(cs.gamma_d(i, lanes)[:, np.newaxis, np.newaxis]
                                * np.eye(ph.order) - ph.s, ph.exit[:, np.newaxis])
                for i, ph in zip((1, 2), spec.services))
    kron = matcore.kron_prod
    h_arr = kron(h1a, h2a)
    h_plus = kron(h_arr, kron(h1d, h2d))

    def dot(x, y):
        return (np.swapaxes(x, 1, 2) @ y)[:, 0, 0]

    def peak(x):
        return np.abs(x).max(axis=(1, 2))

    res_up, res_low, c0s, c0err = [], [], [], []
    for i, h_own, h_other in ((1, h1d, h2d), (2, h2d, h1d)):
        tother = lanes[:, 2 - i, np.newaxis, np.newaxis]
        eo = np.exp(tother)
        down, f0, f1, a_low, a_up = qbd2d.face_mgfs(spec.blocks, i, lanes[:, i - 1])
        a_scal = spec.services[2 - i].beta @ h_other
        h0 = a_scal[..., np.newaxis] * kron(h_arr, h_own)
        v = f0 @ h0 + eo * (f1 @ h_plus)
        c0 = dot(v, h0) / dot(h0, h0)
        res_up.append(peak(v - c0[:, np.newaxis, np.newaxis] * h0)
                      / np.maximum(1.0, peak(h0)))
        low = np.exp(-tother) * (down @ h0) + a_low @ h_plus + eo * (a_up @ h_plus)
        res_low.append(peak(low) / np.maximum(1.0, peak(h_plus)))
        c0s.append(c0)
        c0err.append(np.abs(c0 - cs.gamma_face(i, lanes)))
    fields = [np.column_stack(f) for f in (res_up, res_low, c0s, c0err)]
    ok = np.maximum(fields[0].max(axis=1), fields[1].max(axis=1)) <= 1e-8
    if theta.ndim == 1:
        return CertificateResult(*(tuple(f[0].tolist()) for f in fields),
                                 ok=bool(ok[0]))
    return CertificateResult(*fields, ok=ok)
