"""Tail decay rates of stationary distributions for QBD-structured models.

Subpackages:

- ``matcore``: dense nonnegative-matrix kernel (Perron eigenpairs, Kronecker
  algebra, M-matrix inverses, diagonal twists).
- ``qbd1d``: nonnegative matrices with QBD block structure (canonical form,
  G/R matrices, superharmonic-vector tests, recurrence classification).
- ``qbd2d``: two-dimensional QBD processes (stability, boundary curve of the
  tilting region, tau vector, directional decay rates).
- ``jackson``: two-node generalized Jackson networks with MAP arrivals and
  phase-type services (Kronecker block assembly plus the fast cumulant path).
- ``oracle``: independent ground truth (truncated solver, simulator, tail
  slope regression, stationary-identity residual).
- ``dissection``: the truncated solver's nested-dissection elimination.
- ``cli``: model files and command-line analysis entry points.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
