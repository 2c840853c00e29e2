"""Dense nonnegative-matrix kernel.

Certified dominant eigenpairs (closed form at order <= 2, dense ``eig``
above, each checked by a Collatz-Wielandt bracket) and the value-only read
that skips the pair at order 1 (``perron_value``), the package's only other
eigenvalue solves, the one M-matrix inverse for both time conventions (all
of these also take stacks, lane by lane), the one Kronecker kernel (also
over stacks) and diagonal similarity twists.  Everything here is a pure
function of its inputs and safe for concurrent use; matrices are plain 2-d
numpy arrays at desk scale (dimension up to a few hundred).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    IllConditioned,
    NegativeEntry,
    NoConvergence,
    NonFiniteEntry,
    NonPositiveScale,
    NotIrreducible,
    ShapeMismatch,
    SpectralRadiusNotBelowOne,
)

#: Collatz-Wielandt bracket width allowed, relative to value + shift, where
#: the shift 1 + max(0, -min diag) makes T + shift I nonnegative with a
#: diagonal of at least 1.
PF_TOL = 1e-13

#: an M-matrix inverse needs its eigenvalues' least real part >= NEUMANN_MARGIN
#: (for I - T: the Neumann series of T diverges at spectral radius 1)
NEUMANN_MARGIN = 1e-10

#: up to this many lanes, an order-2 stack is solved lane by lane in scalar
#: arithmetic (``_pairs``), above as arrays: the same operations give the
#: same bits either way.  The scalar path costs about 6 + 2n us, the array
#: path a flat 32-35 us; they cross between 14 and 15 lanes (Python 3.11,
#: numpy 2.4, one core of a 2-core Xeon host; README "Kernel cost")
SCALAR_LANES = 14

_ONE = np.ones(1)
_ONE.flags.writeable = False


class Dominant(NamedTuple):
    """Dominant eigenvalue with its certificate.

    ``right`` is strictly positive with sum 1 (at order 1 a shared read-only
    array, so treat it as read-only).  ``lo`` and ``hi`` are the
    Collatz-Wielandt bounds min_i (T right)_i / right_i and
    max_i (T right)_i / right_i; for a Metzler matrix they enclose the
    Perron root (Horn & Johnson, Matrix Analysis, 8.1), and ``value`` is
    their midpoint.  From a stack of matrices, each field is an array with
    one entry (one row for ``right``) per lane.
    """

    value: float
    right: np.ndarray
    lo: float
    hi: float


def as_matrix(x) -> np.ndarray:
    """Validate and return a finite 2-d float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteEntry("matrix entries must be finite")
    return a


def reach(pattern) -> np.ndarray:
    """Reflexive-transitive closure of a square boolean pattern: entry
    (i, j) says whether j is reached from i in zero or more steps."""
    r = np.asarray(pattern, dtype=bool) | np.eye(len(pattern), dtype=bool)
    # boolean closure by repeated squaring; n is small
    for _ in range(r.shape[0].bit_length()):
        r = r @ r
    return r


def is_irreducible(t: np.ndarray) -> bool:
    """Reachability closure on the sparsity pattern of a square matrix.

    A 1x1 matrix counts as irreducible (a single state).  The pattern of a
    matrix MGF does not depend on theta, so callers check it once per spec.
    """
    return bool(reach(as_matrix(t) != 0).all())


def dominant(t) -> Dominant:
    """Perron root (largest real part) and positive right vector of a
    nonnegative or Metzler matrix, certified by a Collatz-Wielandt bracket.

    Order 1 is the entry (``perron_value``), order 2 a closed form in
    scalar arithmetic, higher orders a dense ``eig`` (``_dominant_stack``).
    A stack ``(n, m, m)`` is solved lane by lane by the same rule and gives
    a ``Dominant`` of arrays (``value``, ``lo``, ``hi`` of shape ``(n,)``,
    ``right`` of ``(n, m)``).  Left vectors are ``dominant(t.T).right``.
    Raises ``NotIrreducible`` when a vector has an entry <= 0 and
    ``NoConvergence`` when a bracket is wider than ``PF_TOL`` allows, for
    the first failing lane of a stack.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape
    if shape == (1, 1):
        value = perron_value(t)
        return Dominant(value, _ONE, value, value)
    if len(shape) == 3:
        return _dominant_stack(t)
    n = shape[0]
    if shape != (n, n):
        raise ShapeMismatch(f"expected a square matrix, got {shape}")
    if n > 2:
        d = _dominant_stack(t[np.newaxis])
        return Dominant(float(d.value[0]), d.right[0], float(d.lo[0]),
                        float(d.hi[0]))
    (a, b), (c, d) = t.tolist()
    if not math.isfinite(a + b + c + d):
        raise NonFiniteEntry("matrix entries must be finite")
    if b < 0 or c < 0:
        raise NegativeEntry("off-diagonal entries must be nonnegative")
    x, y, lo, hi, value, narrow = _closed_form(a, b, c, d)
    if not narrow:
        raise _wide_bracket(lo, hi)
    return Dominant(value, np.array((x / (x + y), y / (x + y))), lo, hi)


def perron_value(t):
    """``dominant(t).value`` without the vector or the bracket: at order 1
    the entry itself (a float for one matrix, the ``(n,)`` view of a stack
    ``(n, 1, 1)``), checked finite as ``dominant`` checks it; any other
    shape or order goes through ``dominant``."""
    t = np.asarray(t, dtype=float)
    shape = t.shape
    if shape == (1, 1):
        return _entry_root(t.item())
    if len(shape) == 3 and shape[1:] == (1, 1):
        return _entry_root(t[:, 0, 0])
    return dominant(t).value


def _entry_root(x):
    """The Perron root of [[x]] from its entry x, a float (or of a stack
    from the (n,) array of its entries): x, checked finite as ``dominant``
    checks it."""
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise NonFiniteEntry("matrix entries must be finite")
    return x


def _closed_form(a: float, b: float, c: float, d: float) -> tuple:
    """(x, y, lo, hi, value, narrow) for [[a, b], [c, d]] with b, c >= 0,
    in scalar arithmetic: the Perron vector (x, y), not normalized, its
    Collatz-Wielandt bounds and their midpoint, and whether the bracket is
    within ``PF_TOL``; ``NotIrreducible`` when x or y is not positive."""
    # s = sqrt(h^2 + bc) >= |h|; pick the eigenvector form that adds
    # |h| to s, so neither entry cancels
    h = 0.5 * (a - d)
    s = math.sqrt(h * h + b * c)
    x, y = (h + s, c) if h >= 0 else (b, s - h)
    if not (x > 0 and y > 0):
        raise NotIrreducible("Perron vector has a zero entry")
    r0 = a + b * y / x
    r1 = d + c * x / y
    lo, hi = (r0, r1) if r0 <= r1 else (r1, r0)
    value = 0.5 * (lo + hi)
    return x, y, lo, hi, value, hi - lo <= PF_TOL * (value + 1.0 + max(0.0, -a, -d))


def _pairs(rows: list) -> Dominant:
    """``dominant`` of a few order-2 lanes given as rows (a, b, c, d), by
    the scalar closed form lane by lane, raising in the order of the array
    form: any negative entry, then any zero vector entry, then the first
    wide bracket."""
    if any(b < 0 or c < 0 for _, b, c, _ in rows):
        raise NegativeEntry("off-diagonal entries must be nonnegative")
    lanes = [_closed_form(*row) for row in rows]
    for _, _, lo, hi, _, narrow in lanes:
        if not narrow:
            raise _wide_bracket(lo, hi)
    _, _, lo, hi, value, _ = zip(*lanes)
    right = np.array([(x / (x + y), y / (x + y)) for x, y, *_ in lanes])
    return Dominant(np.array(value), right, np.array(lo), np.array(hi))


def _dominant_stack(t: np.ndarray) -> Dominant:
    """``dominant`` of each lane of a finite ``(n, m, m)`` stack."""
    n, m = t.shape[0], t.shape[-1]
    if t.shape[1:] == (1, 1):
        value = perron_value(t)
        return Dominant(value, np.ones((n, 1)), value, value)
    t = _square(t)
    if m == 2 and 0 < n <= SCALAR_LANES:
        return _pairs(t.reshape(n, 4).tolist())
    if m == 2:
        # the closed form of ``_closed_form`` on the (n, 4) rows (a, b, c,
        # d), the same operations as arrays
        v = t.reshape(n, 4)
        if (v[:, 1:3] < 0).any():
            raise NegativeEntry("off-diagonal entries must be nonnegative")
        a, b, c, d = v.T
        h = 0.5 * (a - d)
        s = np.sqrt(h * h + b * c)
        up = h >= 0
        x = np.where(up, h + s, b)
        y = np.where(up, c, s - h)
        if not ((x > 0) & (y > 0)).all():
            raise NotIrreducible("Perron vector has a zero entry")
        r0 = a + b * y / x
        r1 = d + c * x / y
        lo, hi = np.minimum(r0, r1), np.maximum(r0, r1)
        right = np.empty((n, 2))
        total = x + y
        np.divide(x, total, out=right[:, 0])
        np.divide(y, total, out=right[:, 1])
        least = np.minimum(a, d)
    else:
        if (t[:, _off_diagonal(m)] < 0).any():
            raise NegativeEntry("off-diagonal entries must be nonnegative")
        w, vecs = np.linalg.eig(t)
        k = np.argmax(w.real, axis=1)
        right = vecs[np.arange(n), :, k].real
        right = right / right.sum(axis=1, keepdims=True)
        if not (right > 0).all():
            raise NotIrreducible("Perron vector has an entry <= 0")
        ratio = (t @ right[:, :, np.newaxis])[:, :, 0] / right
        lo, hi = ratio.min(axis=1), ratio.max(axis=1)
        least = np.diagonal(t, axis1=1, axis2=2).min(axis=1)
    value = 0.5 * (lo + hi)
    narrow = hi - lo <= PF_TOL * (value + 1.0 + np.maximum(0.0, -least))
    if not narrow.all():
        k = int(np.argmin(narrow))
        raise _wide_bracket(float(lo[k]), float(hi[k]))
    return Dominant(value, right, lo, hi)


def _wide_bracket(lo: float, hi: float) -> NoConvergence:
    return NoConvergence(f"Collatz-Wielandt bracket [{lo!r}, {hi!r}] "
                         f"is wider than {PF_TOL} relative")


def _square(t) -> np.ndarray:
    """Validate and return a finite float array of shape (..., m, m)."""
    t = np.asarray(t, dtype=float)
    if t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise ShapeMismatch(f"expected square matrices, got {t.shape}")
    if not np.isfinite(t).all():
        raise NonFiniteEntry("matrix entries must be finite")
    return t


@functools.cache
def identity(m: int, scale: float = 1.0) -> np.ndarray:
    """scale * I of order m, read-only and shared per order and scale."""
    return _read_only(scale * np.eye(m))


@functools.cache
def _off_diagonal(m: int) -> np.ndarray:
    """Boolean mask of the off-diagonal entries of an m x m matrix,
    read-only and shared per order."""
    return _read_only(~np.eye(m, dtype=bool))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def spectral_radius(t):
    """Spectral radius of a square matrix, or per lane of a stack, by a
    dense eigenvalue solve: reducible patterns (C0 + A1 G-) are allowed."""
    t = _square(t)
    radius = (np.abs(t[..., 0, 0]) if t.shape[-1] == 1
              else np.abs(np.linalg.eigvals(t)).max(axis=-1))
    return float(radius) if t.ndim == 2 else radius


def least_eigenvalue(a):
    """Least real part of the eigenvalues of a square matrix, or per lane
    of a stack, by a dense eigenvalue solve (reducible patterns allowed)."""
    a = _square(a)
    low = _least(a)
    return float(low) if a.ndim == 2 else low


def _least(a: np.ndarray) -> np.ndarray:
    """``least_eigenvalue`` of a validated array, as an array."""
    if a.shape[-1] == 1:
        return a[..., 0, 0].copy()
    return np.linalg.eigvals(a).real.min(axis=-1)


def kron_prod(a, b) -> np.ndarray:
    """Kronecker product of the last two axes, lane by lane over leading
    stack axes that broadcast: ``out[..., i p + k, j q + l] = a[..., i, j]
    b[..., k, l]`` for b of shape (..., p, q).  One broadcast multiply and a
    reshape, which is what ``np.kron`` does, so its entries are the same
    bits; an (n, k, 1) stack of columns gives the per-lane vector product."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"expected matrices, got ndim {a.ndim} and {b.ndim}")
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, np.newaxis, :, np.newaxis] * b[..., np.newaxis, :, np.newaxis, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def kron_sum(a, b) -> np.ndarray:
    """Kronecker sum A (+) B = A x I + I x B for square A, B."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ShapeMismatch("kron_sum requires square operands")
    return kron_prod(a, np.eye(b.shape[0])) + kron_prod(np.eye(a.shape[0]), b)


def m_inverses(a) -> tuple:
    """``(x, low)``: A^{-1} and ``least_eigenvalue(A)`` for a Z-matrix A, or
    per lane of a stack: I - T (T >= 0) in discrete time, -Q (Q Metzler) in
    continuous time.  With low > 0, A is a nonsingular M-matrix and A^{-1}
    >= 0 (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6).  A lane is inverted where low >= ``NEUMANN_MARGIN``,
    else NaN.  Entries of the solve down to -1e-12 are clamped to 0; a lane
    still negative, or with residual max |A X - I| above 1e-10, raises
    ``IllConditioned``."""
    a = _square(a)
    m = a.shape[-1]
    stack = a.reshape((-1, m, m))
    low = _least(stack)
    ok = low >= NEUMANN_MARGIN
    every = ok.all()
    b = stack if every else stack[ok]
    eye = identity(m)
    inv = np.linalg.solve(b, eye[np.newaxis])   # one identity for every lane
    negative = inv < 0
    if negative.any():
        inv[negative & (inv > -1e-12)] = 0.0
        if (inv < 0).any():
            raise IllConditioned("M-matrix inverse came out negative beyond tolerance")
    check = np.abs(b @ inv - eye).max(initial=0.0)
    if check > 1e-10:
        raise IllConditioned(f"M-matrix inverse verification failed: {check:.3e}")
    if not every:
        x = np.full(stack.shape, np.nan)
        x[ok] = inv
        inv = x
    return inv.reshape(a.shape), low.reshape(a.shape[:-2])


def neumann_inverse(t) -> np.ndarray:
    """(I - T)^{-1} = sum_n T^n for a nonnegative T with spectral radius
    strictly below 1: ``m_inverses`` of I - T, raising
    ``SpectralRadiusNotBelowOne`` (radius 1 - low) where it is refused."""
    t = as_matrix(t)
    if (t < 0).any():
        raise NegativeEntry("matrix must be entrywise nonnegative")
    x, low = m_inverses(identity(t.shape[-1]) - t)
    if not low >= NEUMANN_MARGIN:
        raise SpectralRadiusNotBelowOne(
            f"spectral radius {1.0 - low:.15g} is not below 1 - {NEUMANN_MARGIN}")
    return x


def twist(t_blocks, h, theta: float, levels) -> list[np.ndarray]:
    """Exponential tilting with a diagonal similarity transform.

    Returns ``exp(theta*l) * diag(h)^{-1} B diag(h)`` for each block B and
    signed level offset l.  When h is the Perron vector of the block MGF at
    theta, the twisted blocks sum to a matrix with constant row sums equal to
    the eigenvalue there.
    """
    h = np.asarray(h, dtype=float).ravel()
    if (h <= 0).any():
        raise NonPositiveScale("twist vector must be strictly positive")
    blocks = [as_matrix(b) for b in t_blocks]
    levels = list(levels)
    if len(blocks) != len(levels):
        raise ShapeMismatch("one level offset per block required")
    out = []
    for b, lev in zip(blocks, levels):
        if b.shape != (h.size, h.size):
            raise ShapeMismatch(
                f"block shape {b.shape} does not match twist vector "
                f"of length {h.size}")
        out.append(np.exp(theta * lev) * (b * h[np.newaxis, :] / h[:, np.newaxis]))
    return out
