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

from . import qbd2d
from .errors import (EmptyWindow, InvalidStart, NoConvergence, NotStochastic,
                     ThetaOutsideDomain)


def _state_layout(spec: qbd2d.Qbd2dSpec, extent):
    """Offsets into the flat state vector for each lattice cell."""
    n1, n2 = extent
    m0, m1, m2, m = spec.dims
    sizes = np.full((n1 + 1, n2 + 1), m, dtype=np.int64)
    sizes[0, :] = m2
    sizes[:, 0] = m1
    sizes[0, 0] = m0
    offsets = np.zeros_like(sizes)
    np.cumsum(sizes.ravel()[:-1], out=offsets.ravel()[1:])
    return offsets, sizes, int(sizes.sum())


def build_truncated(spec: qbd2d.Qbd2dSpec, extent):
    """Sparse row-stochastic operator of the chain truncated to the box
    [0, N1] x [0, N2]; probability of leaving the box is redirected to the
    source state itself (reflect_excess_to_self)."""
    import scipy.sparse as sp  # lazy: scipy dominates CLI start-up

    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    n1, n2 = extent
    offsets, sizes, nstates = _state_layout(spec, extent)
    rows, cols, vals = [], [], []
    diag_extra = np.zeros(nstates)
    # coordinate class of every cell (0, 1 or 2 for "+"), cells row-major
    grid = np.indices((n1 + 1, n2 + 1)).reshape(2, -1).T
    klass = np.minimum(grid, 2)
    for reg in qbd2d.REGIONS:
        cells = grid[(klass[:, 0] == qbd2d._REP[reg[0]])
                     & (klass[:, 1] == qbd2d._REP[reg[1]])]
        if not cells.size:
            continue
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
                # the cells are distinct, so no state repeats in one update
                lost = base_r[~inside][:, None] + np.arange(block.shape[0])
                diag_extra[lost.ravel()] += np.tile(row_loss, len(lost))
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
        # every cell holds at least one phase, so the offsets are increasing
        return np.add.reduceat(self.pi, self.offsets.ravel()).reshape(
            self.sizes.shape)

    def tail_sequence(self, coordinate: int, level: int, phase: int):
        """P(L_i > n, L_{3-i} = level, J = phase) for n = 0..N_i - 1."""
        cells = np.s_[:, level] if coordinate == 1 else np.s_[level, :]
        offs, sizes = self.offsets[cells], self.sizes[cells]
        probs = np.where(phase < sizes,
                         self.pi[offs + np.minimum(phase, sizes - 1)], 0.0)
        return np.cumsum(probs[::-1])[::-1][1:]  # entry n is P(L > n)


def truncate_and_solve(spec: qbd2d.Qbd2dSpec, extent,
                       tol: float = 1e-12) -> StationaryTable:
    """Stationary distribution of the truncated chain.

    One sparse LU solve of the balance equations ``(I - P^T) x = 0`` with
    the origin state pinned to ``x[0] = 1``, then normalization (Stewart
    1994, *Introduction to the Numerical Solution of Markov Chains*, ch. 2).
    When every state reaches the origin, the pinned matrix is a nonsingular
    M-matrix: its LU factors keep M-matrix signs and both triangular solves
    are subtraction-free, so a negative entry is a numerical failure while
    exact zeros on transient states are legal.  An l1 balance residual
    above ``tol``, a negative or non-finite entry, or a singular factor
    raises ``NoConvergence``.  Memory grows with the LU fill.
    """
    import scipy.sparse as sp  # lazy: scipy dominates CLI start-up
    import scipy.sparse.linalg as spla

    p, offsets, sizes, disc = build_truncated(spec, extent)
    n = p.shape[0]
    m = p.T.tocsc()
    a = sp.eye(n, format="csc") - m
    x = np.empty(n)
    x[0] = 1.0
    try:
        lu = spla.splu(a[1:, 1:], permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NoConvergence(f"pinned balance equations: {exc}") from None
    x[1:] = lu.solve(-a[1:, 0].toarray().ravel())
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise NoConvergence("sparse solve gave a negative or non-finite entry")
    x /= x.sum()
    residual = float(np.abs(x - m @ x).sum())
    if residual > tol:
        raise NoConvergence(f"solver residual {residual:.3e} above {tol:.3e}")
    return StationaryTable(spec=disc, extent=tuple(extent), offsets=offsets,
                           sizes=sizes, pi=x, residual=residual)


# -- simulation ----------------------------------------------------------------


def _jump_table(spec: qbd2d.Qbd2dSpec):
    """Jump table of the kernel, indexed by region ``3 * s1 + s2`` (the
    coordinate classes of ``qbd2d._REP``) and source phase: the cumulative
    probabilities of the row's nonzero entries, in block then row-major
    order, and the (d1, d2, phase') move of each.  The last cumulative
    entry is pinned to exactly 1, so every uniform in [0, 1) finds a real
    column even when the row sums to just under 1."""
    table = [None] * 9
    for reg in qbd2d.REGIONS:
        fam = spec.families[reg]
        rows = [([], []) for _ in range(fam[(0, 0)].shape[0])]
        for (i, j), block in fam.items():
            for r, c in zip(*np.nonzero(block)):
                rows[r][0].append(block[r, c])
                rows[r][1].append((i, j, int(c)))
        for r, (probs, moves) in enumerate(rows):
            cum = np.cumsum(probs).tolist()
            total = cum[-1] if cum else 0.0
            if abs(total - 1.0) > 1e-9:
                raise NotStochastic(
                    f"region {''.join(reg)} phase {r}: jump probabilities sum "
                    f"to {total:.12g}, not 1")
            cum[-1] = 1.0
            rows[r] = (cum, moves)
        table[qbd2d._REP[reg[0]] * 3 + qbd2d._REP[reg[1]]] = rows
    return table


_BLOCK = 4096  # steps per uniform draw; larger blocks only add memory


def _key_tables(table, row_len, m):
    """The key alphabet of a jump table: the cuts, the sorted union of every
    row's cumulative breakpoints up to the pinned 1.0; a uniform u in [0, 1)
    has the key #{cuts < u}.  A row's breakpoints are cuts, so a key fixes
    the column ``bisect_left(cum, u)``.  Returns the cuts and, by region
    ``3 * s1 + s2``, phase k and key, the code increment
    ``d1 * row_len + d2 * m + k' - k`` of the row's move."""
    flat = np.concatenate([cum for rows in table for cum, _ in rows])
    cuts = np.unique(flat[flat <= 1.0])
    # each breakpoint's cut; one past the pinned 1.0 is never reached
    at = iter(np.minimum(np.searchsorted(cuts, flat), cuts.size - 1).tolist())
    by_key = [[] for _ in table]
    for region, rows in zip(by_key, table):
        for k, (_, moves) in enumerate(rows):
            row, last = [], -1
            for d1, d2, c in moves:
                cut = next(at)
                row += [d1 * row_len + d2 * m + c - k] * (cut - last)
                last = cut
            region.append(row)
    return cuts, by_key


def _key_reader(cuts):
    """The bin count L and the keys of a block of uniforms, as bytes up to
    256 cuts and else as shared int objects, so no step allocates its key.
    L is a power of two (u L is exact), about 16 per cut; the uniforms of a
    bin [b/L, (b+1)/L) share one key unless a cut lies in it, and those
    take ``np.searchsorted``."""
    bins = 1 << max(16 * cuts.size - 1, 1).bit_length()
    first = np.searchsorted(cuts, np.arange(bins + 1) / bins)
    split = first[:-1] != first[1:]
    first = first[:-1].astype(np.uint8 if cuts.size <= 256 else np.intp)
    alphabet = np.fromiter(range(cuts.size), object, cuts.size)

    def keys_of(uniforms):
        b = (uniforms * bins).astype(np.intp)
        keys, hit = first[b], split[b]
        keys[hit] = np.searchsorted(cuts, uniforms[hit])
        return keys.tobytes() if cuts.size <= 256 else alphabet[keys].tolist()
    return bins, keys_of


def _code_tables(by_key, record_extent, row_len, m, keys):
    """The key table of every state code ``l1 * row_len + l2 * m + phase``
    on the record box padded by one sentinel row and column, shared by the
    cells of a region, and one last code for a walk outside the box.
    Sentinel cells, unused phases and that code get an all-None table."""
    rec1, rec2 = record_extent
    stop = [None] * keys
    cell = [rows + [stop] * (m - len(rows)) for rows in by_key]
    codes = []
    for s1, n1 in zip(range(3), (1, min(rec1, 1), max(rec1 - 1, 0))):
        line = []
        for s2, n2 in zip(range(3), (1, min(rec2, 1), max(rec2 - 1, 0))):
            line += cell[3 * s1 + s2] * n2
        codes += (line + [stop] * (row_len - len(line))) * n1
    return codes + [stop] * (row_len + 1)


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
        probs = (self.counts[:, level, phase] if coordinate == 1
                 else self.counts[level, :, phase]) / self.steps
        return np.cumsum(probs[::-1])[::-1][1:]


def simulate(spec: qbd2d.Qbd2dSpec, seed: int, steps: int,
             record_extent=(255, 255), start=(0, 0, 0)) -> SimulationCounts:
    """Exact simulation of the chain with the region-dependent kernels.

    Uniform variates come from a PCG64 generator seeded explicitly, so runs
    are reproducible; visits outside the recording box are tallied in
    ``spill`` while the walk itself is unrestricted.  Each step takes the
    first column whose cumulative probability is at least its uniform.  The
    uniforms are drawn in blocks of ``_BLOCK``; the PCG64 stream does not
    depend on the block size, so neither does the sample path.

    The uniforms become keys of one exact alphabet in numpy
    (``_key_tables``, ``_key_reader``).  In the recording box the state is
    a code (``_code_tables``) that a step moves by its key's increment,
    counting the visit in place; from a sentinel cell or beyond, a step
    decodes the same increment into its move (d1, d2, phase').

    ``start`` = (l1, l2, phase) may lie outside the recording box, but its
    levels must be nonnegative and its phase below the phase count of its
    region (m0, m1, m2 or m), else ``InvalidStart``.
    """
    l1, l2, k = map(int, start)
    if min(l1, l2, k) < 0 or k >= spec.dims[(l1 > 0) + 2 * (l2 > 0)]:
        raise InvalidStart(f"start {tuple(start)} is not a state of the chain")
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    rec1, rec2 = record_extent
    m = max(spec.dims)
    row_len = (max(rec2, 1) + 2) * m  # >= 3m, so move_of is one to one
    move_of = {d1 * row_len + d2 * m + c: (d1, d2, c)
               for d1 in (-1, 0, 1) for d2 in (-1, 0, 1) for c in range(m)}
    cuts, by_key = _key_tables(_jump_table(spec), row_len, m)
    _, keys_of = _key_reader(cuts)
    codes = _code_tables(by_key, record_extent, row_len, m, cuts.size)
    outside = len(codes) - 1
    tally = [0] * outside
    rng = np.random.Generator(np.random.PCG64(seed))
    s = l1 * row_len + l2 * m + k if l1 <= rec1 and l2 <= rec2 else outside
    for done in range(0, steps, _BLOCK):
        for key in keys_of(rng.random(min(_BLOCK, steps - done))):
            d = codes[s][key]
            if d is None:
                if s != outside:  # a sentinel cell
                    l1, k = divmod(s, row_len)
                    l2, k = divmod(k, m)
                row = by_key[(l1 if l1 < 2 else 2) * 3 + (l2 if l2 < 2 else 2)]
                d1, d2, k = move_of[row[k][key] + k]
                l1, l2 = l1 + d1, l2 + d2
                if l1 <= rec1 and l2 <= rec2:
                    s = l1 * row_len + l2 * m + k
                    tally[s] += 1
                else:
                    s = outside
                continue
            s += d
            tally[s] += 1
    counts = np.fromiter(tally, np.int64, outside).reshape(rec1 + 2, -1, m)
    counts = np.ascontiguousarray(counts[:rec1 + 1, :rec2 + 1])
    return SimulationCounts(spec=spec, counts=counts,
                            spill=steps - int(counts.sum()), steps=steps,
                            seed=seed)


# -- tail slope estimation -------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    kind: str              # "coordinate" or "direction"
    target: tuple
    slope: float
    r_squared: float


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
    return float(slope), r2


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
    n = tails.size
    ns = np.arange(n)
    if window is not None:
        best = _fit_log_tail(ns, tails, window)
    else:
        best = None
        for cand in (regression_window(n), (n // 4, n // 2)):
            try:
                fit = _fit_log_tail(ns, tails, cand)
            except EmptyWindow:
                continue
            if best is None or fit[1] > best[1]:
                best = fit
        if best is None:
            raise EmptyWindow("no usable regression window")
    slope, r2 = best
    return TailEstimate(kind="coordinate", target=(coordinate, level, phase),
                        slope=slope, r_squared=r2)


def estimate_decay_direction(source, c) -> TailEstimate:
    """Least-squares slope of log P(<L, c> > x) on [xmax/4, 3 xmax/4]."""
    c = np.asarray(c, dtype=float)
    mass = source.cell_mass()
    n1, n2 = mass.shape[0] - 1, mass.shape[1] - 1
    xmax = c[0] * n1 + c[1] * n2
    grid = np.linspace(0.0, xmax, 200)
    l1g, l2g = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    proj = c[0] * l1g + c[1] * l2g
    tails = np.array([mass[proj > x].sum() for x in grid])
    slope, r2 = _fit_log_tail(grid, tails, (0.25 * xmax, 0.75 * xmax))
    return TailEstimate(kind="direction", target=tuple(c), slope=slope,
                        r_squared=r2)


def tail_csv(source, coordinate: int, path):
    """Write (n, log_tail) pairs at level 0 and phase 0, for plotting."""
    tails = source.tail_sequence(coordinate, 0, 0)
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
    l1, l2 = np.arange(2, n1 + 1), np.arange(2, n2 + 1)
    if which == "++":
        cells, w = np.ix_(l1, l2), np.exp(l1[:, None] * t1 + l2[None, :] * t2)
    elif which == "+1":
        cells, w = (l1, 1), np.exp(l1 * t1)
    else:
        cells, w = (1, l2), np.exp(l2 * t2)
    # each of these cells holds the dims[3] interior phases
    vecs = table.pi[table.offsets[cells][..., None]
                    + np.arange(table.spec.dims[3])]
    return np.tensordot(w, vecs, axes=w.ndim)


def stationary_identity_residual(table: StationaryTable, spec: qbd2d.Qbd2dSpec,
                                 theta) -> float:
    """Sup-norm of the censored stationary MGF identity at theta.

    The identity ties the interior MGF vector, the two face MGF vectors and
    the probabilities of the four corner cells together through the interior
    and censored matrix MGFs; for the exact stationary distribution it
    vanishes wherever the transforms converge.  Evaluated on a truncated
    table it measures both solver error and truncation bias.  A top
    boundary term above 1e-12 at theta raises ThetaOutsideDomain.
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
    if edge > 1e-12:
        raise ThetaOutsideDomain(
            f"truncation tail {edge:.3e} above 1e-12 at theta={theta}")

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

    _, face1_0, face1_1, _, _ = qbd2d.face_mgfs(spec, 1, t1)
    _, face2_0, face2_1, _, _ = qbd2d.face_mgfs(spec, 2, t2)
    inv1 = np.linalg.solve(np.eye(spec.dims[1]) - face1_0, np.eye(spec.dims[1]))
    inv2 = np.linalg.solve(np.eye(spec.dims[2]) - face2_0, np.eye(spec.dims[2]))

    psi0 = (e1 * e2 * (pi11 @ (np.eye(m) - a_plusplus))
            - e1 * e2 * (pi10 @ f1_plus1 + pi01 @ f2_1plus
                         + pi00 @ fam[("0", "0")][(1, 1)])
            - e2 * (psi1 @ inv1 @ face1_1)
            - e1 * (psi2 @ inv2 @ face2_1))

    lhs = (phi_pp @ (np.eye(m) - a_pp)
           + e2 * (phi_p1 @ (np.eye(m) - c1))
           + e1 * (phi_1p @ (np.eye(m) - c2))
           + psi0)
    return float(np.max(np.abs(lhs)))
