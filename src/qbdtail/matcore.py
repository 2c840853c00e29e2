"""Dense nonnegative-matrix kernel.

Certified dominant eigenpairs (closed form at order <= 2, dense ``eig``
above, each checked by a Collatz-Wielandt bracket), Kronecker algebra,
Neumann-type inverses and diagonal similarity twists.  Everything here is
a pure function of its inputs and safe for concurrent use; matrices are
plain 2-d numpy arrays at desk scale (dimension up to a few hundred).
"""

from __future__ import annotations

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

_ONE = np.ones(1)
_ONE.flags.writeable = False


class Dominant(NamedTuple):
    """Dominant eigenvalue with its certificate.

    ``right`` is strictly positive with sum 1 (at order 1 a shared read-only
    array, so treat it as read-only).  ``lo`` and ``hi`` are the
    Collatz-Wielandt bounds min_i (T right)_i / right_i and
    max_i (T right)_i / right_i; for a Metzler matrix they enclose the
    Perron root (Horn & Johnson, Matrix Analysis, 8.1), and ``value`` is
    their midpoint.
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
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix entries must be finite")
    return a


def _check_square_nonneg(t: np.ndarray) -> np.ndarray:
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {t.shape}")
    if np.any(t < 0):
        raise NegativeEntry("matrix must be entrywise nonnegative")
    return t


def is_irreducible(t: np.ndarray) -> bool:
    """Reachability closure on the sparsity pattern of a square matrix.

    A 1x1 matrix counts as irreducible (a single state).  The pattern of a
    matrix MGF does not depend on theta, so callers check it once per spec.
    """
    t = as_matrix(t)
    n = t.shape[0]
    if n == 1:
        return True
    reach = (t != 0) | np.eye(n, dtype=bool)
    # boolean closure by repeated squaring; n is small
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        reach = (reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0
    return bool(reach.all())


def dominant(t) -> Dominant:
    """Perron root (largest real part) and positive right vector of a
    nonnegative or Metzler matrix, certified by a Collatz-Wielandt bracket.

    Order 1 is the entry, order 2 a closed form in scalar arithmetic, higher
    orders a dense ``eig``.  Left vectors are ``dominant(t.T).right``.
    Raises ``NotIrreducible`` when the vector has an entry <= 0 and
    ``NoConvergence`` when the bracket is wider than ``PF_TOL`` allows.
    """
    t = np.asarray(t, dtype=float)
    if t.shape == (1, 1):
        value = t.item()
        if not math.isfinite(value):
            raise NonFiniteEntry("matrix entries must be finite")
        return Dominant(value, _ONE, value, value)
    n = t.shape[0]
    if t.shape != (n, n):
        raise ShapeMismatch(f"expected a square matrix, got {t.shape}")
    if n == 2:
        (a, b), (c, d) = t.tolist()
        if not math.isfinite(a + b + c + d):
            raise NonFiniteEntry("matrix entries must be finite")
        if b < 0 or c < 0:
            raise NegativeEntry("off-diagonal entries must be nonnegative")
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
        right = np.array((x / (x + y), y / (x + y)))
        shift = 1.0 + max(0.0, -a, -d)
    else:
        t = as_matrix(t)
        neg = t < 0
        if neg.any():
            np.fill_diagonal(neg, False)
            if neg.any():
                raise NegativeEntry("off-diagonal entries must be nonnegative")
        w, vecs = np.linalg.eig(t)
        k = int(np.argmax(w.real))
        right = vecs[:, k].real
        right = right / right.sum()
        if not np.all(right > 0):
            raise NotIrreducible("Perron vector has an entry <= 0")
        ratio = (t @ right) / right
        lo, hi = float(ratio.min()), float(ratio.max())
        shift = 1.0 + max(0.0, -float(np.diag(t).min()))
    value = 0.5 * (lo + hi)
    if not hi - lo <= PF_TOL * (value + shift):
        raise NoConvergence(f"Collatz-Wielandt bracket [{lo!r}, {hi!r}] "
                            f"is wider than {PF_TOL} relative")
    return Dominant(value, right, lo, hi)


def spectral_radius(t) -> float:
    """Spectral radius of a square matrix, reducible patterns allowed.

    Dense eigenvalue solve; used for matrices like C0 + A1 G- that need not
    be irreducible.
    """
    t = as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {t.shape}")
    if t.shape[0] == 1:
        return abs(float(t[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(t))))


def kron_prod(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_sum(a, b) -> np.ndarray:
    """Kronecker sum A (+) B = A x I + I x B for square A, B."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ShapeMismatch("kron_sum requires square operands")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def neumann_inverse(t) -> np.ndarray:
    """(I - T)^{-1} = sum_n T^n for a nonnegative T with spectral radius
    strictly below 1.

    Rejects radius > 1 - 1e-10 (the series diverges at radius 1).  Tiny
    negative entries from the solve, down to -1e-12, are clamped to 0.
    """
    t = _check_square_nonneg(t)
    n = t.shape[0]
    radius = spectral_radius(t)
    margin = 1e-10
    if radius > 1.0 - margin:
        raise SpectralRadiusNotBelowOne(
            f"spectral radius {radius:.15g} is not below 1 - {margin}")
    x = np.linalg.solve(np.eye(n) - t, np.eye(n))
    x[(x < 0) & (x > -1e-12)] = 0.0
    if np.any(x < 0):
        raise IllConditioned("Neumann inverse came out negative beyond tolerance")
    check = np.max(np.abs((np.eye(n) - t) @ x - np.eye(n)))
    if check > 1e-10:
        raise IllConditioned(f"Neumann inverse verification failed: {check:.3e}")
    return x


def twist(t_blocks, h, theta: float, levels) -> list[np.ndarray]:
    """Exponential tilting with a diagonal similarity transform.

    Returns ``exp(theta*l) * diag(h)^{-1} B diag(h)`` for each block B and
    signed level offset l.  When h is the Perron vector of the block MGF at
    theta, the twisted blocks sum to a matrix with constant row sums equal to
    the eigenvalue there.
    """
    h = np.asarray(h, dtype=float).ravel()
    if np.any(h <= 0):
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
