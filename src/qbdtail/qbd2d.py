"""Two-dimensional QBD processes.

A skip-free reflecting random walk on the lattice quadrant whose transitions
are modulated by a finite background chain, with different kernels on the
interior, the two axes, the origin and the five transition regions next to
them.  This module validates such specifications, decides stability,
traces the convex boundary curve of the tilting region and reads the tau
vector, its category and directional decay rates off it.  Both
discrete- and continuous-time specifications are supported; continuous ones
can also be uniformized into equivalent discrete ones.  They differ only in
the curve level L (1 or 0), and the censored kernel inverts L I - F0 alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import matcore
from .errors import FaceNotInvertible, ThetaNotOnCurve, Unstable

if TYPE_CHECKING:   # imported by the analyses that run them
    from . import qbd1d
    from .levelset import Decay, LevelCurve

H = (-1, 0, 1)
HP = (0, 1)

#: angular scan size of a level curve unless a caller sets one (``--scan``)
DEFAULT_SCAN = 192

#: the nine lattice regions, keyed by coordinate class ("0", "1" or "+")
REGIONS = (("0", "0"), ("1", "0"), ("+", "0"), ("0", "1"), ("0", "+"),
           ("1", "1"), ("+", "1"), ("1", "+"), ("+", "+"))

_REP = {"0": 0, "1": 1, "+": 2}

#: face i: (axis region where coordinate 3-i is 0, inner region where it is 1)
_FACES = {1: (("+", "0"), ("+", "1")), 2: (("0", "+"), ("1", "+"))}


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


def _cell_phases(dims: tuple, l1, l2):
    """Phase count dims[(l1 > 0) + 2 (l2 > 0)] of lattice cell (l1, l2),
    levels >= 0: m0 at the origin, m1 and m2 on the axes, m inside.
    Elementwise on arrays; an entry of ``dims`` itself for two ints."""
    index = (l1 > 0) + 2 * (l2 > 0)
    return dims[index] if isinstance(index, int) else np.asarray(dims)[index]


def block_shape(dims: tuple, s1: str, s2: str, i: int, j: int) -> tuple:
    r1, r2 = _REP[s1], _REP[s2]
    return (_cell_phases(dims, r1, r2), _cell_phases(dims, r1 + i, r2 + j))


@dataclass(frozen=True)
class Violation:
    kind: str          # RowSumViolation | AliasViolation | NegativeEntryViolation | DiagSignViolation | AxisTrapViolation
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

    # computed once: every interior-MGF evaluation reads it
    @cached_property
    def interior_stack(self) -> tuple:
        """Interior increments as an (n, 2) array and their blocks as the
        rows of an (n, m*m) array, in the same order."""
        fam = self.families[("+", "+")]
        incs = np.array(list(fam), dtype=float)
        blocks = np.array([b.ravel() for b in fam.values()])
        return incs, blocks

    # computed once: every censored-MGF evaluation reads it
    @cached_property
    def face_stacks(self) -> dict:
        """Per face i, the six sums of ``_sum_parts`` as (increments of
        coordinate i (k,), blocks as rows (k, r*c), block shape (r, c)):
        the down-crossing D, the axis F0 and F1, and the interior blocks with
        the other increment 0, 1 and -1."""
        out = {}
        for i, (face, inner) in _FACES.items():
            parts = []
            for reg, other in ((inner, -1), (face, 0), (face, 1),
                               (("+", "+"), 0), (("+", "+"), 1),
                               (("+", "+"), -1)):
                fam = [(inc[i - 1], b) for inc, b in self.families[reg].items()
                       if inc[2 - i] == other]
                parts.append((np.array([k for k, _ in fam], dtype=float),
                              np.array([b.ravel() for _, b in fam]),
                              fam[0][1].shape))
            out[i] = parts
        return out


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
    """All structural violations: row sums, sign pattern, alias equality,
    and each face whose transverse chain has a closed class on its axis
    (a model that the stability rule and decay analysis do not cover)."""
    out = []
    for reg in REGIONS:
        fam = spec.families[reg]
        n_rows = fam[(0, 0)].shape[0]
        rowsum = np.zeros(n_rows)
        for inc, b in fam.items():
            rowsum += b @ np.ones(b.shape[1])
            if inc == (0, 0) and spec.time == "continuous":
                mask = ~np.eye(b.shape[0], dtype=bool)
                if not (b[mask] >= -tol).all():
                    out.append(Violation("NegativeEntryViolation", reg, inc,
                                         "negative off-diagonal entry"))
                if not (np.diagonal(b) <= tol).all():
                    out.append(Violation("DiagSignViolation", reg, inc,
                                         "positive diagonal in a generator"))
            elif not (b >= -tol).all():
                out.append(Violation("NegativeEntryViolation", reg, inc,
                                     "negative entry"))
            tgt = alias_target(*reg, *inc)
            if tgt is not None:
                canonical = spec.families[tgt[0]][tgt[1]]
                if b is not canonical and not np.allclose(b, canonical, atol=tol):
                    out.append(Violation("AliasViolation", reg, inc,
                                         f"must equal family {tgt[0]} block {tgt[1]}"))
        target = 1.0 if spec.time == "discrete" else 0.0
        deviation = np.abs(rowsum - target).max()
        if deviation > max(tol, 1e-12):
            out.append(Violation("RowSumViolation", reg, None,
                                 f"row sums deviate from {target} by "
                                 f"{deviation:.3e}"))
    for i, (face, _) in _FACES.items():
        if _traps_axis(_sum_parts(spec.face_stacks[i][:3], 0.0)):
            out.append(Violation(
                "AxisTrapViolation", face, None,
                f"the transverse chain of face {i} enters a closed class at "
                f"l{3 - i} = 0; the stability rule and decay analysis do not "
                "cover such a model"))
    return out


def _traps_axis(sums) -> bool:
    """Whether the transverse chain of face i (coordinate 3-i, from the
    patterns of the face's (D, F0, F1) at theta_i = 0) moves down to level
    0 and reaches there a phase with no path to an up-move: a closed class
    at level 0.
    The origin and the (1, 0) region are not read, so the 2-d walk itself
    may still leave the axis through them."""
    down, f0, f1 = (b != 0 for b in sums)
    reach = matcore.reach(f0)
    entered = down.any(axis=0) @ reach
    return bool((entered & ~(reach @ f1).any(axis=1)).any())


# -- moment generating functions --------------------------------------------
#
# Every evaluator takes theta of shape (2,) or a stack (n, 2) of points.


def a2_mgf(spec: Qbd2dSpec, theta) -> np.ndarray:
    """Interior matrix MGF: sum of e^{<theta, increment>} A_increment,
    (m, m) or one per point (n, m, m)."""
    incs, blocks = spec.interior_stack
    theta = np.asarray(theta, dtype=float)
    m = spec.dims[3]
    return (np.exp(theta @ incs.T) @ blocks).reshape(theta.shape[:-1] + (m, m))


def _sum_parts(parts, theta_i) -> tuple:
    """Each part (increments, blocks, shape) of ``Qbd2dSpec.face_stacks``
    summed with weights e^{increment theta_i}, for a number or an array
    theta_i."""
    theta_i = np.asarray(theta_i, dtype=float)
    return tuple((np.exp(theta_i[..., np.newaxis] * incs) @ blocks)
                 .reshape(theta_i.shape + shape)
                 for incs, blocks, shape in parts)


def face_mgfs(spec: Qbd2dSpec, i: int, theta_i) -> tuple:
    """The five MGFs of face i at theta_i (a number or an array), each
    summed over coordinate i: (D, F0, F1, A_low, A_up), with D the
    down-crossing MGF of the inner face (other increment -1), F0, F1 the
    axis-face MGFs and A_low, A_up the interior ones (other increment 0 and
    1)."""
    return _sum_parts(spec.face_stacks[i][:5], theta_i)


def c2_mgf(spec: Qbd2dSpec, i: int, theta) -> np.ndarray:
    """Boundary-censored matrix MGF for face i at theta.

    C^{(i)}(theta) = A_{*+}(theta) + D(theta_i) (L I - F0(theta_i))^{-1} F1(theta_i)
    with F0, F1 the axis-face MGFs, D the down-crossing MGF and L the curve
    level (``gamma_level``: 1 in discrete time, 0 in continuous time), the
    inverse from ``matcore.m_inverses``.  Where face i is not invertible at
    theta_i, a single point raises ``FaceNotInvertible`` and a lane of a
    stack is NaN.
    """
    theta = np.asarray(theta, dtype=float)
    down, f0, f1, a_low, a_up = face_mgfs(spec, i, theta[..., i - 1])
    level_eye = matcore.identity(f0.shape[-1], gamma_level(spec))
    inv, low = matcore.m_inverses(level_eye - f0)
    if theta.ndim == 1 and not low >= matcore.NEUMANN_MARGIN:
        raise FaceNotInvertible(
            f"face {i} is not invertible at theta_{i} = {theta[i - 1]!r}")
    lift = np.exp(theta[..., 2 - i])[..., np.newaxis, np.newaxis]
    return a_low + lift * a_up + down @ inv @ f1


def gamma2(spec: Qbd2dSpec, theta):
    """Dominant eigenvalue of the interior MGF at theta."""
    return matcore.perron_value(a2_mgf(spec, theta))


def gamma2_pair(spec: Qbd2dSpec, theta):
    """Dominant eigenvalue and positive right eigenvector (ones at m = 1,
    as ``matcore.dominant`` gives there)."""
    t = a2_mgf(spec, theta)
    if spec.dims[3] == 1:
        return matcore.perron_value(t), np.ones(t.shape[:-1])
    dom = matcore.dominant(t)
    return dom.value, dom.right


def gamma_level(spec: Qbd2dSpec) -> float:
    """Level of the boundary curve: 1 in discrete time, 0 in continuous."""
    return 1.0 if spec.time == "discrete" else 0.0


def curve_gap(spec: Qbd2dSpec):
    """gamma - level as a callable of theta (convex, negative inside)."""
    level = gamma_level(spec)
    return lambda theta: gamma2(spec, theta) - level


def feasibility_margin(spec: Qbd2dSpec):
    """Callable ``margin(theta, i)``: face i's C^{(i)} margin at curve
    points theta, read with the Perron vector h of the interior MGF there,
    scaled to max 1: max_k ((C h)_k - h_k) in discrete time, max_k (C h)_k /
    max(1, max |C|) in continuous time, and +inf where the face is not
    invertible.  Face i is feasible where its margin is at most
    ``qbd1d.LE_ONE_SLACK``."""
    discrete = spec.time == "discrete"

    def margin(theta, i):
        theta = np.asarray(theta, dtype=float)
        points = theta.reshape(-1, 2)
        _, h = gamma2_pair(spec, points)
        h = h / h.max(axis=1, keepdims=True)
        c = c2_mgf(spec, i, points)
        v = (c @ h[:, :, np.newaxis])[:, :, 0]
        if discrete:
            out = (v - h).max(axis=1)
        else:
            out = v.max(axis=1) / np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
        out[np.isnan(out)] = np.inf
        return out.reshape(theta.shape[:-1])

    return margin


def level_curve(spec: Qbd2dSpec, scan: int = DEFAULT_SCAN) -> LevelCurve:
    """The boundary curve of the tilting region with feasibility margins."""
    from .levelset import LevelCurve
    return LevelCurve(curve_gap(spec), feasibility_margin(spec), scan_size=scan)


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
    from . import qbd1d
    down, f0, f1, a_low, a_up, a_down = _sum_parts(spec.face_stacks[i], 0.0)
    return qbd1d.QbdBlocks(b0=f0, b1=f1, bm1=down, am1=a_down, a0=a_low,
                           a1=a_up)


def _induced_drift(spec: Qbd2dSpec, i: int) -> float:
    """Mean drift mu^(i)_i per step of coordinate i along face i of a
    discrete spec, under the matrix-geometric stationary law of the
    transverse chain in coordinate 3-i, which must be positive recurrent
    (mu_{3-i} < 0)."""
    from . import qbd1d
    nu0, nu1, r, inv = qbd1d.stationary_boundary(_transverse_qbd(spec, i))
    face, inner = _FACES[i]

    def drift(*parts):
        # level increment times row sum, over the blocks of each
        # (region, kept increments of the other coordinate) in order
        return sum(inc[i - 1] * (b @ np.ones(b.shape[1]))
                   for reg, keep in parts
                   for inc, b in spec.families[reg].items()
                   if inc[2 - i] in keep)

    d_axis = drift((face, H))
    d_lvl1 = drift((inner, (-1,)), (("+", "+"), HP))
    d_int = drift((("+", "+"), H))
    tail = nu1 @ r @ inv
    return float(nu0 @ d_axis + nu1 @ d_lvl1 + tail @ d_int)


@dataclass(frozen=True)
class Stability:
    verdict: str       # "stable" | "unstable" | "undetermined"
    mu: tuple          # interior drifts (mu_1, mu_2)
    induced: dict      # face i -> induced drift mu^(i)_i, for each face read


def stability_check(spec: Qbd2dSpec) -> Stability:
    """Positive recurrence from the interior and induced drifts (Fayolle,
    Malyshev & Menshikov 1995; Ozawa 2013), in the model's time unit.

    Face i is read exactly when mu_{3-i} < -1e-9, the transverse chain of
    that face then being positive recurrent.  The spec is stable when at
    least one face is read and every induced drift read is negative, and
    "undetermined" when both interior drifts are within 1e-9 of 0.  A
    continuous spec's induced drifts are read on its uniformization and
    multiplied by the uniformization rate.
    """
    mu = mean_drifts(spec)
    tol = 1e-9
    scale, disc = 1.0, spec
    if spec.time == "continuous":
        scale, disc = uniformization_rate(spec), uniformize(spec)
    induced = {i: scale * _induced_drift(disc, i)
               for i in (1, 2) if mu[2 - i] < -tol}
    if max(abs(mu[0]), abs(mu[1])) <= tol:
        verdict = "undetermined"
    elif induced and all(d < 0 for d in induced.values()):
        verdict = "stable"
    else:
        verdict = "unstable"
    return Stability(verdict, mu, induced)


# -- decay rates ---------------------------------------------------------------


def decay_rates(spec: Qbd2dSpec, directions, scan: int = DEFAULT_SCAN) -> Decay:
    """Directional decay rates (see ``levelset.decay``) from one curve
    analysis; directions and stability are checked before any curve work."""
    from .levelset import checked_direction, decay
    directions = [checked_direction(c) for c in directions]
    verdict = stability_check(spec).verdict
    if verdict != "stable":
        raise Unstable(f"stability check returned {verdict!r}")
    return decay(level_curve(spec, scan=scan), directions)


# -- boundary compatibility checker -------------------------------------------


def check_assumption2(spec: Qbd2dSpec, theta, i: int) -> qbd1d.CompatibilityResult:
    """Boundary compatibility condition for face i at a curve point.

    ``qbd1d.boundary_compatibility`` on the face MGFs at theta_i, with the
    Perron vector of the interior MGF; the pinned scalar is 1 in discrete
    time and 0 in continuous time.
    """
    from . import qbd1d
    theta = np.asarray(theta, dtype=float)
    level = gamma_level(spec)
    gamma, h = gamma2_pair(spec, theta)
    if abs(gamma - level) > 1e-8:
        raise ThetaNotOnCurve(f"gamma(theta) != {level} at {theta}")
    down, f0, f1, a_low, a_up = face_mgfs(spec, i, float(theta[i - 1]))
    return qbd1d.boundary_compatibility(down, f0, f1, a_low, a_up, h / h.max(),
                                        float(theta[2 - i]), level)
