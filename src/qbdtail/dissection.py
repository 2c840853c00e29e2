"""The truncated box's balance equations, solved by nested dissection.

``oracle.truncate_and_solve`` hands its ``TruncatedOperator`` here.  The
pinned matrix ``I - P^T`` is eliminated over a nested dissection of the
box's cells with dense fronts in numpy (``solve_pinned``); the plan of the
elimination depends only on the box's extent and phase counts
(``_plan``).  It is a module of its own so that importing ``oracle`` for
the simulator or the fits alone does not compile it: without a bytecode
cache, compiling it held about 1.6 MB more at the peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qbd2d
from .errors import NoConvergence


_LEAF_STATES = 32  # a rectangle of fewer states is one front (measured)
_BATCH_BYTES = 1 << 25  # the most front bytes solved in one batch


def _dissect(rows, cols, phases):
    """Nested dissection of a box of rows x cols cells (George 1973), one
    depth at a time: the rectangles as half-open bounds (a1, b1, a2, b2),
    parents before children, with their parents (-1 at the root), their
    sides (0 the lower half, 1 the upper), their subtree heights, and the
    rectangle owning each cell, cells row by row.

    A rectangle of more than one cell and at least ``_LEAF_STATES`` states
    (``phases`` per cell) owns the middle row or column of its longer side,
    and its nonempty halves are its children; no increment moves a
    coordinate by more than 1, so that one cell separates them.  Any other
    rectangle is a leaf and owns all its cells.
    """
    a1, b1, a2, b2 = (np.array([x]) for x in (0, rows, 0, cols))
    parent, side = np.array([-1]), np.array([0])
    owner = np.zeros((rows + 1, cols + 1), np.intp)
    levels, count = [], 0
    while a1.size:
        levels.append((a1, b1, a2, b2, parent, side))
        ids = count + np.arange(a1.size)
        count += a1.size
        # a level's rectangles are disjoint: a 2-d difference array paints
        # each with its id + 1, over the levels above
        paint = np.zeros_like(owner)
        for s1, s2, sign in ((a1, a2, 1), (a1, b2, -1), (b1, a2, -1),
                             (b1, b2, 1)):
            np.add.at(paint, (s1, s2), sign * (ids + 1))
        paint = paint.cumsum(0).cumsum(1)
        owner = np.where(paint > 0, paint - 1, owner)
        h, w = b1 - a1, b2 - a2
        split = (h * w > 1) & (h * w * phases >= _LEAF_STATES)
        m1 = np.where(split & (h >= w), (a1 + b1) // 2, b1)
        m2 = np.where(split & (h < w), (a2 + b2) // 2, b2)
        halves = [(a1, m1, a2, m2),
                  (np.where(m1 < b1, m1 + 1, a1), b1,
                   np.where(m2 < b2, m2 + 1, a2), b2)]
        keep = [split & (e1 > s1) & (e2 > s2) for s1, e1, s2, e2 in halves]
        a1, b1, a2, b2 = (np.concatenate([half[i][k] for half, k in
                                          zip(halves, keep)])
                          for i in range(4))
        parent = np.concatenate([ids[k] for k in keep])
        side = np.repeat([0, 1], [np.count_nonzero(k) for k in keep])
    a1, b1, a2, b2, parent, side = (np.concatenate(x) for x in zip(*levels))
    height = np.zeros(count, np.intp)
    for lo in np.cumsum([lv[0].size for lv in levels])[-2::-1]:
        np.maximum.at(height, parent[lo:], height[lo:] + 1)
    return (a1, b1, a2, b2, parent, side, height,
            owner[:rows, :cols].ravel())


def _ranks(keys):
    """Each entry's place among the entries of its key, keys sorted."""
    counts = np.bincount(keys)
    return np.arange(keys.size) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass(frozen=True)
class _Plan:
    """The elimination of one box layout by nested dissection, every cell
    padded to ``phases`` states (state ``cell * phases + phase``, cells row
    by row; ``real`` maps the layout's states there).  State ``ghost`` is
    0 in the solution, as is every padding state.

    The fronts of rectangles of one size form a group, in batches of at
    most ``_BATCH_BYTES``, each solved in one stack; children's groups
    come before their parents'.  A front's rows are its F own states, then
    its R ring slots: the states of the rectangle's one-cell border in the
    box, ghosts up to the batch's largest ring, and one more ghost, the
    trash of the pulls; its columns are the own states, the right-hand
    side, then the ring slots, ``width`` = F + R + 1 in all.  ``groups``
    holds per group the own states (K, F), the ring slots (K, R) and the
    pulls: per source group and side, the source's fronts, the flat
    offsets of the fronts they go to, and the rows and columns there of
    their update matrices (right-hand side first).  ``uses`` counts the
    pulls of each group.  The matrix entry at states (r, c) lands in the
    front of the first eliminated of their two cells, in group
    ``pair_group`` at flat position ``pair_base + phase(r) * width +
    phase(c)``, the pair read as ``cell(r) * 9 + code[c] - code[r] + 4``
    with ``code`` three times a state's row plus its column.
    """

    groups: tuple
    uses: tuple
    width: np.ndarray
    pair_group: np.ndarray
    pair_base: np.ndarray
    phases: int
    ghost: int
    real: np.ndarray
    code: np.ndarray
    origin: tuple            # group, front and row of state 0


def _plan(dims: tuple, extent: tuple) -> _Plan:
    """The ``_Plan`` of the box [0, N1] x [0, N2] with phase counts dims."""
    rows, cols = extent[0] + 1, extent[1] + 1
    ncells, p = rows * cols, max(dims)
    a1, b1, a2, b2, parent, side, height, owner = _dissect(rows, cols, p)
    nodes = a1.size
    # each node's cells: its own ones row by row, then its ring (the
    # rectangle's one-cell border in the box), side by side
    lo, hi = np.maximum(a2 - 1, 0), np.minimum(b2 + 1, cols)
    sides = ((a1 > 0, (a1 - 1) * cols + lo, hi - lo, 1),        # above
             (b1 < rows, b1 * cols + lo, hi - lo, 1),            # below
             (a2 > 0, a1 * cols + a2 - 1, b1 - a1, cols),        # left
             (b2 < cols, a1 * cols + b2, b1 - a1, cols))         # right
    ring_node, ring_cell = [], []
    for there, first, length, stride in sides:
        k = np.flatnonzero(there)
        run = np.repeat(k, length[k])
        ring_node.append(run)
        ring_cell.append(first[run] + stride * _ranks(
            np.repeat(np.arange(k.size), length[k])))
    by = np.argsort(np.concatenate(ring_node), kind="stable")
    ring_node = np.concatenate(ring_node)[by]
    ring_cell = np.concatenate(ring_cell)[by]
    by_node = np.argsort(owner, kind="stable")
    own, ring = (np.bincount(x, minlength=nodes) for x in (owner, ring_node))
    own_slot = np.empty(ncells, np.intp)
    own_slot[by_node] = _ranks(owner[by_node])
    before = np.cumsum([own] + [np.where(t, n, 0) for t, _, n, _ in sides],
                       axis=0)   # the slots before each side of the ring

    def ring_slot(k, cell):
        """The slot of each cell in the ring of node k."""
        c1 = cell // cols   # np.divmod is far slower on integers
        c2 = cell - c1 * cols
        side = np.where(c1 < a1[k], 0, np.where(c1 >= b1[k], 1,
                                                 3 - (c2 < a2[k])))
        return before[side, k] + np.where(side < 2, c2 - lo[k], c1 - a1[k])

    # groups: one rectangle size (so one height and own count) each, lowest
    # first, in batches of at most _BATCH_BYTES of fronts; a batch's ring
    # is its largest, and the rings grow within a group
    h, w = b1 - a1, b2 - a2
    order = np.lexsort((ring, w, h, height))
    group, index, shape = np.empty(nodes, np.intp), np.empty(nodes, np.intp), []
    for run in np.split(order, np.flatnonzero(np.diff(h[order])
                                              | np.diff(w[order])) + 1):
        f, r = own[run[0]] * p, ring[run].max() * p + 1
        batch = max(1, _BATCH_BYTES // ((f + r) * (f + r + 1) * 8))
        for fronts in np.split(run, np.arange(batch, run.size, batch)):
            group[fronts], index[fronts] = len(shape), np.arange(fronts.size)
            shape.append((f, ring[fronts[-1]] * p + 1))
    width = np.array([f + r + 1 for f, r in shape])
    # within a group, fronts run by their parent's group and side, so that
    # each pull takes a slice of its source's update matrices
    by = np.lexsort((side, group[parent] * (parent >= 0), group))
    index[by] = _ranks(group[by])
    # each group's fronts: the states of their own and ring slots
    states = np.arange(p)
    member = (np.concatenate([owner[by_node], ring_node]),
              np.concatenate([by_node, ring_cell]),
              np.concatenate([own_slot[by_node], own[ring_node]
                              + _ranks(ring_node)]))
    by = np.argsort(group[member[0]], kind="stable")
    cuts = np.cumsum(np.bincount(group[member[0]], minlength=len(shape)))
    groups = []
    for g, pick in enumerate(np.split(by, cuts[:-1])):
        f, r = shape[g]
        fronts = np.full((index[member[0][pick]].max() + 1, f + r), ncells * p)
        fronts[index[member[0][pick]][:, None],
               member[2][pick][:, None] * p + states] = (
                   member[1][pick][:, None] * p + states)
        groups.append((fronts[:, :f], fronts[:, f:], []))
    # every ordered pair (u, v) of neighbour cells lands in the front of
    # the first eliminated of their nodes, one the other's ancestor; by
    # step d from u to v, so the arrays stay of the box's size
    ids = np.arange(ncells).reshape(rows, cols)
    pair_group = np.zeros(ncells * 9, np.min_scalar_type(len(shape)))
    pair_base = np.zeros(ncells * 9, np.intp)
    for d in range(9):
        d1, d2 = d // 3 - 1, d % 3 - 1
        u = ids[max(-d1, 0):rows - max(d1, 0),
                max(-d2, 0):cols - max(d2, 0)].ravel()
        v = u + d1 * cols + d2
        nu, nv = owner[u], owner[v]
        up = height[nu] > height[nv]   # u lies in the ring of v's node
        first = np.where(up, nv, nu)
        su, sv, g = own_slot[u], own_slot[v], group[first]
        at = np.flatnonzero(up)
        su[at] = ring_slot(nv[at], u[at])
        at = np.flatnonzero((nu != nv) & ~up)
        sv[at] = ring_slot(nu[at], v[at])
        pair_group[u * 9 + d] = g
        pair_base[u * 9 + d] = ((index[first] * (width[g] - 1) + su * p)
                                * width[g] + sv * p + (sv >= own[first]))
    # each child's update matrix, pulled by its parent's group: the rows
    # and columns of its ring slots in the parent's front, its padding
    # slots on the trash; one child per front and side, so no position
    # repeats in one pull
    child = np.flatnonzero(parent >= 0)
    pull = group[parent[child]] * 2 + side[child], group[child]
    by = np.lexsort((index[child], *pull[::-1]))
    child = child[by]
    run_of = np.empty(nodes, np.intp)
    run_of[child] = np.cumsum(np.r_[False, (np.diff(pull[0][by]) != 0)
                                    | (np.diff(pull[1][by]) != 0)])
    pos_of = np.empty(nodes, np.intp)
    pos_of[child] = _ranks(run_of[child])
    # the children's ring cells run by run: their slots in the child's
    # ring (j) and in the parent's front (at)
    j = _ranks(ring_node)
    mine = np.flatnonzero(parent[ring_node] >= 0)
    mine = mine[np.argsort(run_of[ring_node[mine]], kind="stable")]
    kid, j = ring_node[mine], j[mine]
    at = np.where(owner[ring_cell[mine]] == parent[kid],
                  own_slot[ring_cell[mine]],
                  ring_slot(parent[kid], ring_cell[mine]))
    shift = at >= own[parent[kid]]   # a parent ring column follows the rhs
    runs = np.arange(1, run_of[child[-1]] + 1 if child.size else 0)
    uses = [0] * len(shape)
    for kids, ring_at in zip(np.split(child, np.searchsorted(run_of[child],
                                                             runs)),
                             np.split(np.arange(kid.size),
                                      np.searchsorted(run_of[kid], runs))):
        if not kids.size:   # no children at all
            break
        src, g = group[kids[0]], group[parent[kids[0]]]
        f, r = shape[g]
        to_row = np.full((kids.size, shape[src][1]), f + r - 1)
        to_col = np.full((kids.size, shape[src][1] + 1), f + r)
        to_col[:, 0] = f
        k = pos_of[kid[ring_at]][:, None]
        from_slot = j[ring_at][:, None] * p + states
        to_row[k, from_slot] = at[ring_at][:, None] * p + states
        to_col[k, from_slot + 1] = to_row[k, from_slot] + shift[ring_at][:, None]
        uses[src] += 1
        groups[g][2].append((src, slice(index[kids[0]], index[kids[-1]] + 1),
                             (index[parent[kids]] * (f + r))[:, None, None],
                             to_row[:, :, None], to_col[:, None, :]))
    u1, u2 = np.indices((rows, cols)).reshape(2, -1)
    sizes = qbd2d._cell_phases(dims, u1, u2)
    real = np.arange(sizes.sum()) + np.repeat(
        np.arange(ncells) * p - np.cumsum(sizes) + sizes, sizes)
    return _Plan(groups=tuple(groups), uses=tuple(uses), width=width,
                 pair_group=pair_group, pair_base=pair_base, phases=p,
                 ghost=ncells * p, real=real,
                 code=np.repeat(3 * u1 + u2, sizes),
                 origin=(group[owner[0]], index[owner[0]], 0))


def _entries(op, plan: _Plan):
    """The off-diagonal entries of the pinned ``I - P^T`` by group of the
    plan: their flat positions in the group's fronts, their values, and the
    cuts between groups."""
    keep = op.cols != 0   # the origin's row is pinned
    r, c, v = op.cols[keep], op.rows[keep], -op.vals[keep]  # A[r, c] = v
    rp, cp, p = plan.real[r], plan.real[c], plan.phases   # padded states
    pair = rp // p * 9 + plan.code[c] - plan.code[r] + 4
    group = plan.pair_group[pair]
    flat = plan.pair_base[pair] + rp % p * plan.width[group] + cp % p
    order = np.argsort(group, kind="stable")   # a radix sort: small keys
    cuts = np.zeros(len(plan.groups) + 1, np.intp)
    np.cumsum(np.bincount(group, minlength=len(plan.groups)), out=cuts[1:])
    return flat[order], v[order], cuts


def solve_pinned(op, dims: tuple, extent: tuple) -> np.ndarray:
    """Solution of the balance equations ``(I - P^T) x = 0`` of ``op``, a
    ``TruncatedOperator`` of the box [0, N1] x [0, N2] with phase counts
    dims, with the origin's equation replaced by ``x[0] = 1``, by
    multifrontal nested dissection (Duff & Reid 1983) over the groups of
    the box's ``_plan``.

    Each front is a dense matrix over a node's states and its ring, plus
    the right-hand side: the entries of the pinned matrix whose first
    eliminated cell is the node's, and the update matrices of its children
    added in.  One ``np.linalg.solve`` of the node's block against the
    right-hand side and the ring columns, and one product, leave the
    update matrix on the ring for the parent.  Back-substitution runs from
    the root down.  A singular node block raises ``NoConvergence``.
    """
    plan = _plan(dims, extent)
    flat, v, cuts = _entries(op, plan)
    a_diag = np.ones(plan.ghost)
    a_diag[plan.real] = 1.0 - op.diag
    a_diag[0] = 1.0
    updates, left, factors = [None] * len(plan.groups), list(plan.uses), []
    for g, (own, ring, pulls) in enumerate(plan.groups):
        (k, f), w = own.shape, int(plan.width[g])
        front = np.zeros((k, w - 1, w))
        front.reshape(-1)[flat[cuts[g]:cuts[g + 1]]] = v[cuts[g]:cuts[g + 1]]
        front[:, np.arange(f), np.arange(f)] = a_diag[own]
        if g == plan.origin[0]:
            front[plan.origin[1], plan.origin[2], f] = 1.0
        for src, kids, base, rows, cols in pulls:
            at = ((base + rows) * w + cols).ravel()
            front.reshape(-1)[at] += updates[src][kids].ravel()
            left[src] -= 1
            if not left[src]:
                updates[src] = None
        try:
            solved = np.linalg.solve(front[:, :f, :f], front[:, :f, f:])
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                f"pinned balance equations: singular front ({exc})") from None
        updates[g] = np.matmul(front[:, f:, :f], solved)
        np.subtract(front[:, f:, f:], updates[g], out=updates[g])
        factors.append(solved)
        del front   # before the next group's is allocated
    x = np.zeros(plan.ghost + 1)
    for (own, ring, _), solved in zip(reversed(plan.groups), reversed(factors)):
        x[own] = solved[..., 0] - (solved[..., 1:] @ x[ring][..., None])[..., 0]
    return x[plan.real]

