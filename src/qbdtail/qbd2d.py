"""Two-dimensional QBD processes.

A skip-free reflecting random walk on the lattice quadrant whose transitions
are modulated by a finite background chain, with different kernels on the
interior, the two axes, the origin and the five transition regions next to
them.  This module validates such specifications, decides stability,
traces the convex boundary curve of the tilting region and reads the tau
vector, its category and directional decay rates off it.  Both
discrete- and continuous-time specifications are supported; continuous ones
can also be uniformized into equivalent discrete ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, qbd1d
from .errors import (
    EmptyGammaPlus,
    FaceNotInvertible,
    QiNotPositiveRecurrent,
    NotPositiveRecurrent,
    SpectralRadiusNotBelowOne,
    ThetaNotOnCurve,
    Unstable,
)
from .levelset import Decay, LevelCurve, TauReport, checked_direction, decay

H = (-1, 0, 1)
HP = (0, 1)

#: the nine lattice regions, keyed by coordinate class ("0", "1" or "+")
REGIONS = (("0", "0"), ("1", "0"), ("+", "0"), ("0", "1"), ("0", "+"),
           ("1", "1"), ("+", "1"), ("1", "+"), ("+", "+"))

_REP = {"0": 0, "1": 1, "+": 2}

FEAS_SLACK = 1e-10


def region_of(l1: int, l2: int) -> tuple:
    """Region key of a lattice point."""
    s1 = "0" if l1 == 0 else ("1" if l1 == 1 else "+")
    s2 = "0" if l2 == 0 else ("1" if l2 == 1 else "+")
    return s1, s2


def allowed_increments(s1: str, s2: str) -> list:
    """Skip-free increments available from a region."""
    iset = HP if s1 == "0" else H
    jset = HP if s2 == "0" else H
    return [(i, j) for i in iset for j in jset]


def alias_target(s1: str, s2: str, i: int, j: int):
    """Canonical (region, increment) an aliased block must equal, or None
    when the block is its own storage."""
    if (s1, s2) == ("1", "0") and i >= 0:
        return ("+", "0"), (i, j)
    if (s1, s2) == ("0", "1") and j >= 0:
        return ("0", "+"), (i, j)
    if (s1, s2) == ("1", "1") and i >= 0 and j >= 0:
        return ("+", "+"), (i, j)
    if (s1, s2) == ("+", "1") and j >= 0:
        return ("+", "+"), (i, j)
    if (s1, s2) == ("1", "+") and i >= 0:
        return ("+", "+"), (i, j)
    return None


def _vspace_index(l1: int, l2: int) -> int:
    if l1 == 0 and l2 == 0:
        return 0
    if l2 == 0:
        return 1
    if l1 == 0:
        return 2
    return 3


def block_shape(dims: tuple, s1: str, s2: str, i: int, j: int) -> tuple:
    r1, r2 = _REP[s1], _REP[s2]
    return (dims[_vspace_index(r1, r2)], dims[_vspace_index(r1 + i, r2 + j)])


@dataclass(frozen=True)
class Violation:
    kind: str          # RowSumViolation | AliasViolation | NegativeEntryViolation | DiagSignViolation
    family: tuple
    increment: tuple | None
    detail: str


@dataclass(frozen=True)
class Qbd2dSpec:
    """Nine families of transition blocks plus dimensions and a time flag.

    ``families[(s1, s2)][(i, j)]`` is the block from region (s1, s2) under
    increment (i, j).  Aliased blocks (the identification constraints among
    neighbouring regions) share array objects with their canonical family.
    """

    families: dict
    dims: tuple          # (m0, m1, m2, m)
    time: str            # "discrete" | "continuous"

    def block(self, s1: str, s2: str, i: int, j: int) -> np.ndarray:
        return self.families[(s1, s2)][(i, j)]


def make_spec(families: dict, dims: tuple, time: str) -> Qbd2dSpec:
    """Assemble a spec: checks shapes, fills aliases and missing blocks.

    Blocks not given (and not aliased) default to null matrices.  Aliased
    blocks that are given are kept as stored so that ``validate_spec`` can
    report mismatches.
    """
    if time not in ("discrete", "continuous"):
        raise ValueError(f"unknown time kind {time!r}")
    dims = tuple(int(d) for d in dims)
    if len(dims) != 4 or any(d <= 0 for d in dims):
        raise ValueError("dims must be four positive integers")
    full = {}
    for reg in REGIONS:
        given = families.get(reg, {})
        fam = {}
        for inc in allowed_increments(*reg):
            shape = block_shape(dims, *reg, *inc)
            if inc in given and given[inc] is not None:
                b = matcore.as_matrix(given[inc])
                if b.shape != shape:
                    raise ValueError(
                        f"family {reg} block {inc}: shape {b.shape}, "
                        f"expected {shape}")
                fam[inc] = b
            else:
                fam[inc] = None
        full[reg] = fam
    # fill aliases by reference, then missing blocks with zeros
    for reg in REGIONS:
        for inc, b in full[reg].items():
            if b is None:
                tgt = alias_target(*reg, *inc)
                if tgt is not None and full[tgt[0]][tgt[1]] is not None:
                    full[reg][inc] = full[tgt[0]][tgt[1]]
    for reg in REGIONS:
        for inc, b in full[reg].items():
            if b is None:
                full[reg][inc] = np.zeros(block_shape(dims, *reg, *inc))
    return Qbd2dSpec(families=full, dims=dims, time=time)


def validate_spec(spec: Qbd2dSpec, tol: float = 1e-12) -> list:
    """All structural violations: row sums, sign pattern, alias equality."""
    out = []
    for reg in REGIONS:
        fam = spec.families[reg]
        n_rows = fam[(0, 0) if reg != ("0", "0") else (0, 0)].shape[0]
        rowsum = np.zeros(n_rows)
        for inc, b in fam.items():
            rowsum += b @ np.ones(b.shape[1])
            offdiag_ok = b >= -tol
            if inc == (0, 0) and spec.time == "continuous":
                mask = ~np.eye(b.shape[0], dtype=bool)
                if not np.all(b[mask] >= -tol):
                    out.append(Violation("NegativeEntryViolation", reg, inc,
                                         "negative off-diagonal entry"))
                if not np.all(np.diag(b) <= tol):
                    out.append(Violation("DiagSignViolation", reg, inc,
                                         "positive diagonal in a generator"))
            elif not np.all(offdiag_ok):
                out.append(Violation("NegativeEntryViolation", reg, inc,
                                     "negative entry"))
            tgt = alias_target(*reg, *inc)
            if tgt is not None:
                canonical = spec.families[tgt[0]][tgt[1]]
                if b is not canonical and not np.allclose(b, canonical, atol=tol):
                    out.append(Violation("AliasViolation", reg, inc,
                                         f"must equal family {tgt[0]} block {tgt[1]}"))
        target = 1.0 if spec.time == "discrete" else 0.0
        if np.max(np.abs(rowsum - target)) > max(tol, 1e-12):
            out.append(Violation("RowSumViolation", reg, None,
                                 f"row sums deviate from {target} by "
                                 f"{np.max(np.abs(rowsum - target)):.3e}"))
    return out


# -- moment generating functions --------------------------------------------


def a2_mgf(spec: Qbd2dSpec, theta) -> np.ndarray:
    """Interior matrix MGF: sum of e^{<theta, increment>} A_increment."""
    t1, t2 = float(theta[0]), float(theta[1])
    fam = spec.families[("+", "+")]
    m = spec.dims[3]
    out = np.zeros((m, m))
    for (i, j), b in fam.items():
        out += np.exp(i * t1 + j * t2) * b
    return out


def _face_sum(spec, reg, fixed, axis, theta_val):
    """Sum over the free index of e^{i theta} blocks with the other index
    fixed; axis=0 sums the first index, axis=1 the second."""
    fam = spec.families[reg]
    parts = []
    for inc, b in fam.items():
        free, other = (inc[0], inc[1]) if axis == 0 else (inc[1], inc[0])
        if other != fixed:
            continue
        parts.append(np.exp(free * theta_val) * b)
    return sum(parts)


def face_mgf(spec: Qbd2dSpec, i: int, k: int, theta_i: float) -> np.ndarray:
    """Axis-face MGF A^{(face i)}_{*k}(theta_i) for k in {0, 1}."""
    reg = ("+", "0") if i == 1 else ("0", "+")
    return _face_sum(spec, reg, k, 0 if i == 1 else 1, theta_i)


def face_down_mgf(spec: Qbd2dSpec, i: int, theta_i: float) -> np.ndarray:
    """Down-crossing MGF A^{(inner face i)}_{*(-1)}(theta_i)."""
    reg = ("+", "1") if i == 1 else ("1", "+")
    return _face_sum(spec, reg, -1, 0 if i == 1 else 1, theta_i)


def interior_star_k(spec: Qbd2dSpec, i: int, k: int, theta_i: float) -> np.ndarray:
    """Interior MGF summed over coordinate i with the other increment at k."""
    return _face_sum(spec, ("+", "+"), k, 0 if i == 1 else 1, theta_i)


def _censor_inverse(spec: Qbd2dSpec, w: np.ndarray) -> np.ndarray:
    """(I - W)^{-1} in discrete time, (-W)^{-1} in continuous time."""
    if spec.time == "discrete":
        try:
            return matcore.neumann_inverse(w)
        except SpectralRadiusNotBelowOne as exc:
            raise FaceNotInvertible(str(exc)) from exc
    # face generators may be reducible, so no Perron certificate here
    if float(np.max(np.linalg.eigvals(w).real)) >= -1e-12:
        raise FaceNotInvertible("face generator is not stable at this theta")
    inv = np.linalg.solve(-w, np.eye(w.shape[0]))
    return np.clip(inv, 0.0, None)


def c2_mgf(spec: Qbd2dSpec, i: int, theta) -> np.ndarray:
    """Boundary-censored matrix MGF for face i at theta.

    C^{(i)}(theta) = A_{*+}(theta) + D(theta_i) (I - F0(theta_i))^{-1} F1(theta_i)
    with F0, F1 the axis-face MGFs and D the down-crossing MGF; in continuous
    time (I - F0)^{-1} becomes (-F0)^{-1}.
    """
    t1, t2 = float(theta[0]), float(theta[1])
    ti, tother = (t1, t2) if i == 1 else (t2, t1)
    f0 = face_mgf(spec, i, 0, ti)
    f1 = face_mgf(spec, i, 1, ti)
    down = face_down_mgf(spec, i, ti)
    inv = _censor_inverse(spec, f0)
    a_low = interior_star_k(spec, i, 0, ti)
    a_up = interior_star_k(spec, i, 1, ti)
    return a_low + np.exp(tother) * a_up + down @ inv @ f1


def gamma2(spec: Qbd2dSpec, theta) -> float:
    """Dominant eigenvalue of the interior MGF at theta."""
    return matcore.dominant(a2_mgf(spec, theta)).value


def gamma2_pair(spec: Qbd2dSpec, theta):
    """Dominant eigenvalue and positive right eigenvector."""
    dom = matcore.dominant(a2_mgf(spec, theta))
    return dom.value, dom.right


def gamma_level(spec: Qbd2dSpec) -> float:
    """Level of the boundary curve: 1 in discrete time, 0 in continuous."""
    return 1.0 if spec.time == "discrete" else 0.0


def curve_gap(spec: Qbd2dSpec):
    """gamma - level as a callable of theta (convex, negative inside)."""
    level = gamma_level(spec)
    return lambda theta: gamma2(spec, theta) - level


def feasibility_flags(spec: Qbd2dSpec):
    """Callable mapping a curve point theta to the C^{(1)}/C^{(2)} flags,
    tested with the Perron vector of the interior MGF there."""
    discrete = spec.time == "discrete"

    def flags(theta):
        _, h = gamma2_pair(spec, theta)
        h = h / h.max()
        out = []
        for i in (1, 2):
            try:
                c = c2_mgf(spec, i, theta)
            except FaceNotInvertible:
                out.append(False)
                continue
            v = c @ h
            if discrete:
                out.append(bool(np.all(v <= h + FEAS_SLACK)))
            else:
                scale = max(1.0, float(np.max(np.abs(c))))
                out.append(bool(np.all(v <= FEAS_SLACK * scale)))
        return tuple(out)

    return flags


def level_curve(spec: Qbd2dSpec, scan: int = 192) -> LevelCurve:
    """The boundary curve of the tilting region with feasibility flags."""
    return LevelCurve(curve_gap(spec), feasibility_flags(spec), scan_size=scan)


# -- uniformization -----------------------------------------------------------


def uniformization_rate(spec: Qbd2dSpec, factor: float = 1.05) -> float:
    worst = 0.0
    for reg in REGIONS:
        diag = np.diag(spec.families[reg][(0, 0)])
        worst = max(worst, float(np.max(-diag)))
    if worst <= 0:
        worst = 1.0
    return factor * worst


def uniformize(spec: Qbd2dSpec, factor: float = 1.05) -> Qbd2dSpec:
    """P = I + Q/nu with nu slightly above the largest total outflow rate.

    The stationary distribution, and hence every decay rate, is unchanged.
    """
    if spec.time != "continuous":
        raise ValueError("uniformize expects a continuous-time spec")
    nu = uniformization_rate(spec, factor)
    fams = {}
    for reg in REGIONS:
        fam = {}
        for inc, b in spec.families[reg].items():
            if alias_target(*reg, *inc) is not None:
                continue  # re-aliased by make_spec
            nb = b / nu
            if inc == (0, 0):
                nb = nb + np.eye(nb.shape[0])
            fam[inc] = nb
        fams[reg] = fam
    return make_spec(fams, spec.dims, "discrete")


# -- drifts and stability -----------------------------------------------------


def mean_drifts(spec: Qbd2dSpec) -> tuple:
    """Interior mean increment vector (mu_1, mu_2) under the stationary law
    of the background chain."""
    fam = spec.families[("+", "+")]
    a = sum(fam.values())
    nu = matcore.dominant(a.T).right
    ones = np.ones(spec.dims[3])
    d1 = sum(i * (fam[(i, j)] @ ones) for (i, j) in fam)
    d2 = sum(j * (fam[(i, j)] @ ones) for (i, j) in fam)
    return float(nu @ d1), float(nu @ d2)


def _transverse_qbd(spec: Qbd2dSpec, i: int) -> qbd1d.QbdBlocks:
    """The QBD in coordinate 3-i obtained by summing out coordinate i."""
    if i == 1:
        face, inner = ("+", "0"), ("+", "1")
        axis = 0
    else:
        face, inner = ("0", "+"), ("1", "+")
        axis = 1
    ffam = spec.families[face]
    infam = spec.families[inner]
    itfam = spec.families[("+", "+")]

    def collect(fam, level_inc, ax):
        return sum(b for (inc), b in fam.items()
                   if (inc[1] if ax == 0 else inc[0]) == level_inc)

    b0 = collect(ffam, 0, axis)
    b1 = collect(ffam, 1, axis)
    bm1 = collect(infam, -1, axis)
    am1 = collect(itfam, -1, axis)
    a0 = collect(itfam, 0, axis)
    a1 = collect(itfam, 1, axis)
    return qbd1d.QbdBlocks(b0=b0, b1=b1, bm1=bm1, am1=am1, a0=a0, a1=a1)


def induced_drifts(spec: Qbd2dSpec) -> tuple:
    """Mean drifts (mu^(1)_1, mu^(2)_2) of the chains obtained by removing
    one boundary, under their matrix-geometric stationary laws.

    Continuous specs are uniformized first; that scales both drifts by the
    same positive constant and preserves the signs that matter.
    """
    if spec.time == "continuous":
        spec = uniformize(spec)
    out = []
    for i in (1, 2):
        q = _transverse_qbd(spec, i)
        try:
            nu0, nu1, r = qbd1d.stationary_boundary(q)
        except NotPositiveRecurrent as exc:
            raise QiNotPositiveRecurrent(
                f"transverse chain for coordinate {i} is not positive "
                f"recurrent") from exc
        fam = spec.families
        if i == 1:
            face, inner = ("+", "0"), ("+", "1")
            lvl = lambda inc: inc[0]
            oth = lambda inc: inc[1]
        else:
            face, inner = ("0", "+"), ("1", "+")
            lvl = lambda inc: inc[1]
            oth = lambda inc: inc[0]
        dims_face = q.m0
        d_axis = np.zeros(dims_face)
        for inc, b in fam[face].items():
            d_axis += lvl(inc) * (b @ np.ones(b.shape[1]))
        d_lvl1 = np.zeros(q.m)
        for inc, b in fam[inner].items():
            if oth(inc) == -1:
                d_lvl1 += lvl(inc) * (b @ np.ones(b.shape[1]))
        for inc, b in fam[("+", "+")].items():
            if oth(inc) in (0, 1):
                d_lvl1 += lvl(inc) * (b @ np.ones(b.shape[1]))
        d_int = np.zeros(q.m)
        for inc, b in fam[("+", "+")].items():
            d_int += lvl(inc) * (b @ np.ones(b.shape[1]))
        tail = nu1 @ r @ matcore.neumann_inverse(r)
        out.append(float(nu0 @ d_axis + nu1 @ d_lvl1 + tail @ d_int))
    return tuple(out)


def stability_check(spec: Qbd2dSpec, tol: float = 1e-9) -> str:
    """Positive recurrence classification from the interior and induced
    drifts; "undetermined" when the interior drift vector vanishes."""
    mu1, mu2 = mean_drifts(spec)
    if abs(mu1) <= tol and abs(mu2) <= tol:
        return "undetermined"
    if mu1 > 0 and mu2 > 0:
        return "unstable"
    try:
        if mu1 < 0 and mu2 < 0:
            i1, i2 = induced_drifts(spec)
            return "stable" if (i1 < 0 and i2 < 0) else "unstable"
        if mu1 >= 0 and mu2 < 0:
            i1 = induced_drifts(spec)[0]
            return "stable" if i1 < 0 else "unstable"
        i2 = induced_drifts(spec)[1]
        return "stable" if i2 < 0 else "unstable"
    except QiNotPositiveRecurrent:
        return "unstable"


# -- tau and decay rates -------------------------------------------------------


def tau_report(spec: Qbd2dSpec, scan: int = 192) -> TauReport:
    """Key points, category and the tau vector."""
    return level_curve(spec, scan=scan).tau_report()


def decay_rates(spec: Qbd2dSpec, directions, scan: int = 192,
                check_stability: bool = True) -> Decay:
    """Directional decay rates (see ``levelset.decay``) from one curve
    analysis; directions and stability are checked before any curve work."""
    directions = [checked_direction(c) for c in directions]
    if check_stability:
        verdict = stability_check(spec)
        if verdict != "stable":
            raise Unstable(f"stability check returned {verdict!r}")
    return decay(level_curve(spec, scan=scan), directions)


# -- boundary compatibility checker -------------------------------------------


@dataclass(frozen=True)
class Assumption2Result:
    holds: bool
    branch: str
    c0: float
    c1: float
    h0: np.ndarray | None
    residual: float


def check_assumption2(spec: Qbd2dSpec, theta, i: int,
                      tol: float = 1e-8) -> Assumption2Result:
    """Boundary compatibility condition for face i at a curve point.

    Solves the lower balance display for the boundary vector, then tests
    proportionality in the upper display; tries both normalization branches
    (c1 pinned in discrete time, c1 = 0 in continuous time, then the c0
    branch symmetrically).
    """
    theta = np.asarray(theta, dtype=float)
    level = gamma_level(spec)
    if abs(gamma2(spec, theta) - level) > 1e-8:
        raise ThetaNotOnCurve(f"gamma(theta) != {level} at {theta}")
    _, h = gamma2_pair(spec, theta)
    h = h / h.max()
    ti = float(theta[i - 1])
    tother = float(theta[2 - i])
    eo = np.exp(tother)
    f0 = face_mgf(spec, i, 0, ti)
    f1 = face_mgf(spec, i, 1, ti)
    down = face_down_mgf(spec, i, ti)
    a_low = interior_star_k(spec, i, 0, ti)
    a_up = interior_star_k(spec, i, 1, ti)
    discrete = spec.time == "discrete"
    pinned_c1 = 1.0 if discrete else 0.0

    # branch with c1 pinned: solve the lower display for h0
    rhs = eo * ((pinned_c1 * h) - (a_low @ h) - eo * (a_up @ h))
    h0, *_ = np.linalg.lstsq(down, rhs, rcond=None)
    solve_resid = float(np.max(np.abs(down @ h0 - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
    if solve_resid <= tol and np.all(h0 > 0):
        v = f0 @ h0 + eo * (f1 @ h)
        c0, prop = qbd1d._fit_proportional(v, h0)
        resid = max(solve_resid, prop)
        if resid <= tol:
            return Assumption2Result(holds=True, branch="c1", c0=c0,
                                     c1=pinned_c1, h0=h0, residual=resid)

    # branch with c0 pinned: h0 from the upper display
    try:
        inv = _censor_inverse(spec, f0)
    except FaceNotInvertible:
        inv = None
    if inv is not None:
        h0b = inv @ (eo * (f1 @ h))
        if np.all(h0b > 0):
            w = np.exp(-tother) * (down @ h0b) + (a_low + eo * a_up) @ h
            c1, prop = qbd1d._fit_proportional(w, h)
            if prop <= tol:
                return Assumption2Result(holds=True, branch="c0",
                                         c0=1.0 if discrete else 0.0,
                                         c1=c1, h0=h0b, residual=prop)

    best = solve_resid if np.all(h0 > 0) else np.inf
    return Assumption2Result(holds=False, branch="none", c0=np.nan,
                             c1=np.nan, h0=None, residual=float(best))
