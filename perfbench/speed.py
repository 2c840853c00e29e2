"""Host-speed reference for the benchmark's item and pass times.

The benchmark runs on small shared hosts whose speed changes by up to
about 2x within minutes while a single process computes (other tenants
contend for the core and its caches; the guest sees no steal time).  A raw
wall time then measures the neighbours as much as the program.

Each pass of the worker therefore runs a fixed piece of reference work that
does not use ``qbdtail`` before its first item and after every item: 2x2
matrix-vector products and float arithmetic, the same kind of work as the
program's eigen kernels.  The pass's item times are scaled by ``REF_S`` over
the mean reference time of the pass, so they read as seconds on a host
where the reference loop takes ``REF_S`` (an uncontended core of the 2-core
Intel Xeon host the benchmark was tuned on).  A change to the program moves
the scaled times; a change in host speed moves the raw times and the
reference alike and cancels.

Process start and imports do not follow that loop, so the cold
``validate`` of ``setup_s`` has a reference of its own: a fresh interpreter
that imports numpy (``COLD_REF``), run before the first ``validate`` and
after every one.  Each ``validate`` is scaled by ``COLD_REF_S`` over the
mean of the two cold references beside it.
"""

from __future__ import annotations

import time

import numpy as np

REF_ITERS = 50_000
REF_S = 0.15
COLD_REF = "import numpy"
COLD_REF_S = 0.165


def reference_s() -> float:
    """Wall seconds of the reference loop."""
    a = np.array([[0.6, 0.3], [0.2, 0.7]])
    v = np.array([0.5, 0.5])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        w = a @ v
        v = w / w.sum()
        acc += float(v[0])
    return time.perf_counter() - t0


def scale(refs) -> float:
    """Factor that turns raw seconds measured beside the reference times
    ``refs`` into seconds at the reference speed."""
    return REF_S * len(refs) / sum(refs)
