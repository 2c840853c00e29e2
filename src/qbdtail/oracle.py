"""Independent ground truth for the analytic decay results.

A truncated stationary solver, an exact chain simulator, a tail-slope
regression, and the stationary moment-generating-function identity residual.
Everything here deliberately avoids the analytic machinery it is meant to
check: the solver works on the raw truncated transition operator, the
simulator steps the chain kernel by kernel, and the slope estimator is a
plain least-squares fit on log tail probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import qbd2d
from .errors import EmptyWindow, NoConvergence, ThetaOutsideDomain

try:
    import numba
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False


def _state_layout(spec: qbd2d.Qbd2dSpec, extent):
    """Offsets into the flat state vector for each lattice cell."""
    n1, n2 = extent
    m0, m1, m2, m = spec.dims
    sizes = np.zeros((n1 + 1, n2 + 1), dtype=np.int64)
    for l1 in range(n1 + 1):
        for l2 in range(n2 + 1):
            sizes[l1, l2] = spec.dims[qbd2d._vspace_index(l1, l2)]
    offsets = np.zeros_like(sizes)
    np.cumsum(sizes.ravel()[:-1], out=offsets.ravel()[1:])
    return offsets, sizes, int(sizes.sum())


def build_truncated(spec: qbd2d.Qbd2dSpec, extent):
    """Sparse row-stochastic operator of the chain truncated to the box
    [0, N1] x [0, N2]; probability of leaving the box is redirected to the
    source state itself (reflect_excess_to_self)."""
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    n1, n2 = extent
    offsets, sizes, nstates = _state_layout(spec, extent)
    rows, cols, vals = [], [], []
    diag_extra = np.zeros(nstates)
    cells_by_region = {reg: [] for reg in qbd2d.REGIONS}
    for l1 in range(n1 + 1):
        for l2 in range(n2 + 1):
            cells_by_region[qbd2d.region_of(l1, l2)].append((l1, l2))
    for reg, cells in cells_by_region.items():
        if not cells:
            continue
        cells = np.array(cells, dtype=np.int64)
        base_r = offsets[cells[:, 0], cells[:, 1]]
        for inc, block in spec.families[reg].items():
            nz_r, nz_c = np.nonzero(block)
            if nz_r.size == 0:
                continue
            v = block[nz_r, nz_c]
            d1 = cells[:, 0] + inc[0]
            d2 = cells[:, 1] + inc[1]
            inside = (d1 >= 0) & (d1 <= n1) & (d2 >= 0) & (d2 <= n2)
            if np.any(inside):
                bc = offsets[d1[inside], d2[inside]]
                br = base_r[inside]
                rows.append((br[:, None] + nz_r[None, :]).ravel())
                cols.append((bc[:, None] + nz_c[None, :]).ravel())
                vals.append(np.broadcast_to(v, (br.size, v.size)).ravel())
            if np.any(~inside):
                row_loss = block @ np.ones(block.shape[1])
                for b in base_r[~inside]:
                    diag_extra[b:b + block.shape[0]] += row_loss
    rows.append(np.nonzero(diag_extra)[0])
    cols.append(np.nonzero(diag_extra)[0])
    vals.append(diag_extra[np.nonzero(diag_extra)[0]])
    p = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nstates, nstates))
    p.sum_duplicates()
    return p, offsets, sizes, spec


@dataclass(frozen=True)
class StationaryTable:
    """Stationary probabilities of a truncated chain."""

    spec: qbd2d.Qbd2dSpec      # the solved (discrete) spec
    extent: tuple
    offsets: np.ndarray
    sizes: np.ndarray
    pi: np.ndarray
    residual: float

    def vector(self, l1: int, l2: int) -> np.ndarray:
        o = self.offsets[l1, l2]
        return self.pi[o:o + self.sizes[l1, l2]]

    def cell_mass(self) -> np.ndarray:
        n1, n2 = self.extent
        out = np.zeros((n1 + 1, n2 + 1))
        for l1 in range(n1 + 1):
            for l2 in range(n2 + 1):
                out[l1, l2] = self.vector(l1, l2).sum()
        return out

    def tail_sequence(self, coordinate: int, level: int, phase: int):
        """P(L_i > n, L_{3-i} = level, J = phase) for n = 0..N_i - 1."""
        n1, n2 = self.extent
        n = n1 if coordinate == 1 else n2
        probs = np.zeros(n + 1)
        for v in range(n + 1):
            l1, l2 = (v, level) if coordinate == 1 else (level, v)
            vec = self.vector(l1, l2)
            probs[v] = vec[phase] if phase < vec.size else 0.0
        return np.cumsum(probs[::-1])[::-1][1:]  # entry n is P(L > n)


def truncate_and_solve(spec: qbd2d.Qbd2dSpec, extent, tol: float = 1e-12,
                       max_sweeps: int = 20000) -> StationaryTable:
    """Stationary distribution of the truncated chain.

    Iterative power/Gauss-Seidel hybrid: a few smoothing power steps, then
    symmetric Gauss-Seidel sweeps (a forward and a backward sparse
    triangular solve each) until the l1 balance residual is at most
    ``tol``.  The backward half-sweep matters for chains with rotational
    flow, where one-directional sweeps converge poorly.
    """
    p, offsets, sizes, disc = build_truncated(spec, extent)
    n = p.shape[0]
    m = p.T.tocsr()
    a = sp.eye(n, format="csr") - m
    fwd = spla.splu(sp.tril(a, 0).tocsc(), permc_spec="NATURAL").solve
    bwd = spla.splu(sp.triu(a, 0).tocsc(), permc_spec="NATURAL").solve
    upper = sp.triu(a, 1).tocsr()
    lower = sp.tril(a, -1).tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(20):
        x = m @ x
        x /= x.sum()
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        x = fwd(-(upper @ x))
        x = bwd(-(lower @ x))
        s = x.sum()
        if s <= 0:
            raise NoConvergence("Gauss-Seidel sweep lost positivity")
        x /= s
        if sweep % 8 == 0 or sweep < 8:
            residual = float(np.abs(x - m @ x).sum())
            if residual <= tol:
                break
    else:
        raise NoConvergence(
            f"solver residual {residual:.3e} after {max_sweeps} sweeps")
    return StationaryTable(spec=disc, extent=tuple(extent), offsets=offsets,
                           sizes=sizes, pi=x, residual=residual)


# -- simulation ----------------------------------------------------------------


def _transition_tables(spec: qbd2d.Qbd2dSpec):
    """Per-region flattened jump tables: cumulative probabilities and
    (di, dj, phase') per source phase."""
    tables = {}
    for reg in qbd2d.REGIONS:
        fam = spec.families[reg]
        nr = fam[(0, 0)].shape[0]
        entries = [[] for _ in range(nr)]
        for (i, j), block in fam.items():
            nz_r, nz_c = np.nonzero(block)
            for r, c in zip(nz_r, nz_c):
                entries[r].append((block[r, c], i, j, c))
        width = max(len(e) for e in entries)
        cum = np.zeros((nr, width))
        di = np.zeros((nr, width), dtype=np.int64)
        dj = np.zeros((nr, width), dtype=np.int64)
        dk = np.zeros((nr, width), dtype=np.int64)
        for r, row in enumerate(entries):
            acc = 0.0
            for col, (prob, i, j, c) in enumerate(row):
                acc += prob
                cum[r, col] = acc
                di[r, col], dj[r, col], dk[r, col] = i, j, c
            cum[r, len(row):] = 2.0  # sentinel
            if abs(acc - 1.0) > 1e-9:
                raise ValueError("simulation requires a stochastic spec")
        tables[reg] = (cum, di, dj, dk)
    return tables


_REGION_ORDER = [("0", "0"), ("0", "1"), ("0", "+"),
                 ("1", "0"), ("1", "1"), ("1", "+"),
                 ("+", "0"), ("+", "1"), ("+", "+")]


def _stacked_tables(spec):
    tabs = _transition_tables(spec)
    width = max(t[0].shape[1] for t in tabs.values())
    nr = max(t[0].shape[0] for t in tabs.values())
    cum = np.full((9, nr, width), 2.0)
    di = np.zeros((9, nr, width), dtype=np.int64)
    dj = np.zeros((9, nr, width), dtype=np.int64)
    dk = np.zeros((9, nr, width), dtype=np.int64)
    for idx, reg in enumerate(_REGION_ORDER):
        c, a, b, d = tabs[reg]
        cum[idx, :c.shape[0], :c.shape[1]] = c
        di[idx, :c.shape[0], :c.shape[1]] = a
        dj[idx, :c.shape[0], :c.shape[1]] = b
        dk[idx, :c.shape[0], :c.shape[1]] = d
    return cum, di, dj, dk


def _step_chunk_py(cum, di, dj, dk, state, uniforms, counts, spill, rec1, rec2):
    l1, l2, k = state
    for u in uniforms:
        s1 = 0 if l1 == 0 else (1 if l1 == 1 else 2)
        s2 = 0 if l2 == 0 else (1 if l2 == 1 else 2)
        reg = s1 * 3 + s2
        row = cum[reg, k]
        col = int(np.searchsorted(row, u))
        l1 += di[reg, k, col]
        l2 += dj[reg, k, col]
        k = dk[reg, k, col]
        if l1 <= rec1 and l2 <= rec2:
            counts[l1, l2, k] += 1
        else:
            spill[0] += 1
    return l1, l2, k


if HAVE_NUMBA:
    @numba.njit(cache=True)
    def _step_chunk_jit(cum, di, dj, dk, l1, l2, k, uniforms, counts, spill,
                        rec1, rec2):  # pragma: no cover - compiled
        for idx in range(uniforms.size):
            u = uniforms[idx]
            s1 = 0 if l1 == 0 else (1 if l1 == 1 else 2)
            s2 = 0 if l2 == 0 else (1 if l2 == 1 else 2)
            reg = s1 * 3 + s2
            col = 0
            while cum[reg, k, col] < u:
                col += 1
            l1 += di[reg, k, col]
            l2 += dj[reg, k, col]
            k = dk[reg, k, col]
            if l1 <= rec1 and l2 <= rec2:
                counts[l1, l2, k] += 1
            else:
                spill[0] += 1
        return l1, l2, k


@dataclass(frozen=True)
class SimulationCounts:
    """Visit counts per (l1, l2, phase) inside the recording box."""

    spec: qbd2d.Qbd2dSpec
    counts: np.ndarray
    spill: int
    steps: int
    seed: int

    def cell_mass(self) -> np.ndarray:
        return self.counts.sum(axis=2) / self.steps

    def tail_sequence(self, coordinate: int, level: int, phase: int):
        c = self.counts / self.steps
        if coordinate == 1:
            probs = c[:, level, phase]
        else:
            probs = c[level, :, phase]
        return np.cumsum(probs[::-1])[::-1][1:]


def simulate(spec: qbd2d.Qbd2dSpec, seed: int, steps: int,
             record_extent=(255, 255), start=(0, 0, 0),
             chunk: int = 1_000_000) -> SimulationCounts:
    """Exact simulation of the chain with the region-dependent kernels.

    Uniform variates come from a PCG64 generator seeded explicitly, so runs
    are reproducible; visits outside the recording box are tallied in
    ``spill`` while the walk itself is unrestricted.
    """
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    cum, di, dj, dk = _stacked_tables(spec)
    rec1, rec2 = record_extent
    counts = np.zeros((rec1 + 1, rec2 + 1, cum.shape[1]), dtype=np.int64)
    spill = np.zeros(1, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    l1, l2, k = start
    remaining = steps
    stepper = _step_chunk_jit if HAVE_NUMBA else None
    while remaining > 0:
        block = min(chunk, remaining)
        uniforms = rng.random(block)
        if stepper is not None:
            l1, l2, k = stepper(cum, di, dj, dk, l1, l2, k, uniforms,
                                counts, spill, rec1, rec2)
        else:
            l1, l2, k = _step_chunk_py(cum, di, dj, dk, (l1, l2, k), uniforms,
                                       counts, spill, rec1, rec2)
        remaining -= block
    return SimulationCounts(spec=spec, counts=counts, spill=int(spill[0]),
                            steps=steps, seed=seed)


# -- tail slope estimation -------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    kind: str              # "coordinate" or "direction"
    target: tuple
    slope: float
    intercept: float
    r_squared: float
    window: tuple


def _fit_log_tail(ns, tails, window):
    lo, hi = window
    mask = (ns >= lo) & (ns <= hi) & (tails > 0)
    if mask.sum() < 3:
        raise EmptyWindow("fewer than three positive tail points in window")
    x = ns[mask].astype(float)
    y = np.log(tails[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def regression_window(extent: int) -> tuple:
    """[extent/4, 3 extent/4]: excludes the boundary layer and the
    truncation-biased top quarter."""
    return extent // 4, (3 * extent) // 4


def estimate_decay(source, coordinate: int, level: int = 0, phase: int = 0,
                   window=None) -> TailEstimate:
    """Least-squares slope of log P(L_i > n, L_{3-i} = level, J = phase).

    With no explicit window, the fit is tried on [N/4, 3N/4] and on its
    lower half [N/4, N/2] and the better (higher r^2) fit is kept: under
    the reflecting truncation policy the top of the default window can be
    biased when the decay is slow, and the bend shows up directly in r^2.
    """
    tails = source.tail_sequence(coordinate, level, phase)
    ns = np.arange(tails.size)
    if window is not None:
        slope, intercept, r2 = _fit_log_tail(ns, tails, window)
        return TailEstimate(kind="coordinate",
                            target=(coordinate, level, phase), slope=slope,
                            intercept=intercept, r_squared=r2,
                            window=tuple(window))
    n = tails.size
    best = None
    for cand in (regression_window(n), (n // 4, n // 2)):
        try:
            slope, intercept, r2 = _fit_log_tail(ns, tails, cand)
        except EmptyWindow:
            continue
        if best is None or r2 > best[2]:
            best = (slope, intercept, r2, cand)
    if best is None:
        raise EmptyWindow("no usable regression window")
    slope, intercept, r2, cand = best
    return TailEstimate(kind="coordinate", target=(coordinate, level, phase),
                        slope=slope, intercept=intercept, r_squared=r2,
                        window=tuple(cand))


def estimate_decay_direction(source, c, window=None) -> TailEstimate:
    """Least-squares slope of log P(<L, c> > x) on an x grid."""
    c = np.asarray(c, dtype=float)
    mass = source.cell_mass()
    n1, n2 = mass.shape[0] - 1, mass.shape[1] - 1
    xmax = c[0] * n1 + c[1] * n2
    grid = np.linspace(0.0, xmax, 200)
    l1g, l2g = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    proj = c[0] * l1g + c[1] * l2g
    tails = np.array([mass[proj > x].sum() for x in grid])
    if window is None:
        window = (0.25 * xmax, 0.75 * xmax)
    slope, intercept, r2 = _fit_log_tail(grid, tails, window)
    return TailEstimate(kind="direction", target=tuple(c), slope=slope,
                        intercept=intercept, r_squared=r2,
                        window=tuple(window))


def tail_csv(source, coordinate: int, path, level: int = 0, phase: int = 0):
    """Write (n, log_tail) pairs for external plotting."""
    tails = source.tail_sequence(coordinate, level, phase)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,log_tail\n")
        for n, t in enumerate(tails, start=1):
            if t > 0:
                fh.write(f"{n},{np.log(t):.12g}\n")


# -- stationary identity residual -------------------------------------------------


def _phi(table: StationaryTable, which: str, theta):
    """Truncated moment generating sums over the three unbounded regions."""
    n1, n2 = table.extent
    t1, t2 = theta
    if which == "++":
        acc = np.zeros(table.spec.dims[3])
        for l1 in range(2, n1 + 1):
            for l2 in range(2, n2 + 1):
                acc += np.exp(l1 * t1 + l2 * t2) * table.vector(l1, l2)
        return acc
    if which == "+1":
        acc = np.zeros(table.spec.dims[3])
        for l1 in range(2, n1 + 1):
            acc += np.exp(l1 * t1) * table.vector(l1, 1)
        return acc
    acc = np.zeros(table.spec.dims[3])
    for l2 in range(2, n2 + 1):
        acc += np.exp(l2 * t2) * table.vector(1, l2)
    return acc


def stationary_identity_residual(table: StationaryTable, spec: qbd2d.Qbd2dSpec,
                                 theta, tail_tol: float = 1e-12) -> float:
    """Sup-norm of the censored stationary MGF identity at theta.

    The identity ties the interior MGF vector, the two face MGF vectors and
    the probabilities of the four corner cells together through the interior
    and censored matrix MGFs; for the exact stationary distribution it
    vanishes wherever the transforms converge.  Evaluated on a truncated
    table it measures both solver error and truncation bias.
    """
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    theta = np.asarray(theta, dtype=float)
    t1, t2 = float(theta[0]), float(theta[1])
    n1, n2 = table.extent
    # truncation guard: the top boundary terms must be negligible
    edge = max(float(np.exp(n1 * t1) * table.vector(n1, l2).sum())
               for l2 in range(0, n2 + 1, max(1, n2 // 8)))
    edge = max(edge, max(float(np.exp(n2 * t2) * table.vector(l1, n2).sum())
                         for l1 in range(0, n1 + 1, max(1, n1 // 8))))
    if edge > tail_tol:
        raise ThetaOutsideDomain(
            f"truncation tail {edge:.3e} above {tail_tol} at theta={theta}")

    fam = spec.families
    e1, e2 = np.exp(t1), np.exp(t2)
    phi_pp = _phi(table, "++", theta)
    phi_p1 = _phi(table, "+1", theta)
    phi_1p = _phi(table, "1+", theta)
    pi00 = table.vector(0, 0)
    pi10 = table.vector(1, 0)
    pi01 = table.vector(0, 1)
    pi11 = table.vector(1, 1)

    m = spec.dims[3]
    a_pp = qbd2d.a2_mgf(spec, theta)
    c1 = qbd2d.c2_mgf(spec, 1, theta)
    c2 = qbd2d.c2_mgf(spec, 2, theta)

    def fsum(reg, pairs, weights):
        return sum(w * fam[reg][inc] for inc, w in zip(pairs, weights))

    # interior blocks restricted to nonnegative increments
    a_plusplus = fsum(("+", "+"), [(0, 0), (1, 0), (0, 1), (1, 1)],
                      [1.0, e1, e2, e1 * e2])
    f1_plus1 = fsum(("+", "0"), [(0, 1), (1, 1)], [1.0, e1])
    f2_1plus = fsum(("0", "+"), [(1, 0), (1, 1)], [1.0, e2])
    f1_plus0 = fsum(("+", "0"), [(0, 0), (1, 0)], [1.0, e1])
    f2_0plus = fsum(("0", "+"), [(0, 0), (0, 1)], [1.0, e2])
    c11_pm = fsum(("1", "1"), [(0, -1), (1, -1)], [1.0, e1])
    c11_mp = fsum(("1", "1"), [(-1, 0), (-1, 1)], [1.0, e2])

    psi1 = e1 * (pi11 @ c11_pm + pi10 @ (f1_plus0 - np.eye(spec.dims[1]))
                 + pi01 @ fam[("0", "1")][(1, -1)]
                 + pi00 @ fam[("0", "0")][(1, 0)])
    psi2 = e2 * (pi11 @ c11_mp + pi01 @ (f2_0plus - np.eye(spec.dims[2]))
                 + pi10 @ fam[("1", "0")][(-1, 1)]
                 + pi00 @ fam[("0", "0")][(0, 1)])

    inv1 = np.linalg.solve(np.eye(spec.dims[1])
                           - qbd2d.face_mgf(spec, 1, 0, t1),
                           np.eye(spec.dims[1]))
    inv2 = np.linalg.solve(np.eye(spec.dims[2])
                           - qbd2d.face_mgf(spec, 2, 0, t2),
                           np.eye(spec.dims[2]))

    psi0 = (e1 * e2 * (pi11 @ (np.eye(m) - a_plusplus))
            - e1 * e2 * (pi10 @ f1_plus1 + pi01 @ f2_1plus
                         + pi00 @ fam[("0", "0")][(1, 1)])
            - e2 * (psi1 @ inv1 @ qbd2d.face_mgf(spec, 1, 1, t1))
            - e1 * (psi2 @ inv2 @ qbd2d.face_mgf(spec, 2, 1, t2)))

    lhs = (phi_pp @ (np.eye(m) - a_pp)
           + e2 * (phi_p1 @ (np.eye(m) - c1))
           + e1 * (phi_1p @ (np.eye(m) - c2))
           + psi0)
    return float(np.max(np.abs(lhs)))
