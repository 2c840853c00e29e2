"""Span tracing of the ``qbdtail`` layers, installed from outside the package.

``Tracer.install`` replaces every public function and every public method
(plus ``__init__`` of plain classes) defined in the traced modules by a
wrapper that records one span per call: name, start, end, parent span and
item id.  A name bound elsewhere by ``from ... import`` is patched in every
namespace that binds the same function object.  Spans live in compact
in-memory arrays and are written once, when the run ends.

``summarize`` turns the spans into the per-layer metrics listed in
``perfbench/layers.json``.  A layer's self time is the duration of its spans
minus the time their child spans cover, so the self times of all layers add
up to the traced item time exactly.  A name a metric refers to that the
package no longer defines is reported as absent; it never aborts the run.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import time

import numpy as np

LAYERS = ("cli", "modelfile", "matcore", "qbd1d", "qbd2d", "levelset",
          "jackson", "oracle")

# Dominant-eigenvalue entry points of the kernel layer, present and planned.
EIGEN = ("matcore.pf_eigen", "matcore.pf_value", "matcore.pf_right",
         "matcore.metzler_eigen", "matcore.metzler_value",
         "matcore.spectral_radius", "matcore.dominant")
GAP = ("qbd2d.gamma2", "jackson.CumulantSet.gamma_plus")
ORDER_BUCKETS = (("o1", 1, 1), ("o2", 2, 2), ("o3-4", 3, 4), ("o5-8", 5, 8))

# Trivial helpers called on every level-function evaluation and referenced
# by no metric; left unwrapped, their time counts as their caller's.
UNWRAPPED = ("jackson.JacksonSpec.routing", "jackson.CumulantSet.t_factor",
             "matcore.as_matrix", "qbd2d.block_shape", "qbd2d.alias_target",
             "qbd2d.region_of", "qbd2d.Qbd2dSpec.block",
             "oracle.StationaryTable.vector")

# Names the metric definitions below refer to, beside EIGEN and GAP.
REFERENCED = (
    "modelfile.load_model", "qbd1d.bisect_root", "qbd1d.convex_min_scalar",
    "qbd1d.stationary_boundary", "qbd2d.gamma2_pair", "qbd2d.c2_mgf",
    "qbd2d.level_curve", "qbd2d.stability_check", "levelset.LevelCurve.__init__",
    "levelset.minimize_convex_2d", "levelset.LevelCurve.point_at",
    "levelset.LevelCurve.tau_report", "levelset.LevelCurve.directional_sup",
    "levelset.LevelCurve.section", "levelset.boundary_rows",
    "jackson.analytic_curve", "jackson.decay_report", "jackson.build_blocks",
    "jackson.CumulantSet.gamma_a", "jackson.CumulantSet.gamma_d",
    "jackson.assumption3_certificate", "oracle.build_truncated",
    "oracle.truncate_and_solve", "oracle.simulate", "oracle.estimate_decay",
    "oracle.estimate_decay_direction", "cli.main",
)


def _matrix_order(args) -> int:
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return -1


def _observe_build(counters: dict, result) -> None:
    p = result[0]
    counters["oracle.states"] += int(p.shape[0])
    counters["oracle.nnz"] += int(p.nnz)


def _observe_simulate(counters: dict, result) -> None:
    counters["oracle.sim_steps"] += int(result.steps)


OBSERVERS = {"oracle.build_truncated": _observe_build,
             "oracle.simulate": _observe_simulate}


class Tracer:
    """In-memory span recorder; ``item`` is set by the caller per item."""

    ROOT = "bench.item"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.item_of = array.array("i")
        self.order = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.item = -1
        self.counters = {"oracle.states": 0, "oracle.nnz": 0,
                         "oracle.sim_steps": 0, "observer_errors": 0}
        self.installed: list[str] = []
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        eigen = name in EIGEN
        observe = OBSERVERS.get(name)
        name_id, parent, item_of, order = (self.name_id, self.parent,
                                           self.item_of, self.order)
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            item_of.append(tracer.item)
            order.append(_matrix_order(args) if eigen else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(tracer.counters, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.counters["observer_errors"] += 1
            return result

        return wrapper

    def call(self, item: int, fn, *args):
        """Run ``fn(*args)`` as the root span of one item."""
        self.item = item
        return self._wrap(fn, self.ROOT)(*args)

    # -- installation ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public callables of ``modules`` ({layer: module})."""
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    replaced[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, obj, replaced[obj])
        self.installed = sorted({n for n in self.names if n != self.ROOT})

    def _install_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            plain_init = attr == "__init__" and not dataclasses.is_dataclass(cls)
            name = f"{layer}.{cls.__name__}.{attr}"
            if (inspect.isfunction(obj) and name not in UNWRAPPED
                    and (plain_init or not attr.startswith("_"))):
                self._set(cls, attr, obj, self._wrap(obj, name))

    def _set(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def absent(self) -> list:
        """Referenced names the package does not define (planned names in
        EIGEN and GAP count only when none of their group exists)."""
        have = set(self.installed)
        out = [n for n in REFERENCED if n not in have]
        for group in (EIGEN, GAP):
            if not have.intersection(group):
                out.extend(group)
        return out

    # -- output ------------------------------------------------------------------

    def arrays(self) -> dict:
        """Views of the span arrays (valid while no span is recorded)."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "item": np.frombuffer(self.item_of, dtype=np.int32),
                "order": np.frombuffer(self.order, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- summary -----------------------------------------------------------------------


class _Spans:
    def __init__(self, names, a):
        self.names = list(names)
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        self.order = a["order"]
        child = np.zeros(self.dur.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.layers = sorted({n.split(".", 1)[0] for n in self.names})
        code = np.array([self.layers.index(n.split(".", 1)[0]) for n in self.names],
                        dtype=np.int32)
        self.layer = code[self.nid]
        self.parent_layer = np.full(self.nid.size, -1, dtype=np.int32)
        self.parent_layer[has_parent] = self.layer[self.parent[has_parent]]

    def layer_code(self, layer: str) -> int:
        return self.layers.index(layer) if layer in self.layers else -2

    def ids(self, names) -> np.ndarray:
        wanted = set(names)
        return np.array([i for i, n in enumerate(self.names) if n in wanted],
                        dtype=np.int32)

    def mask(self, names) -> np.ndarray:
        return np.isin(self.nid, self.ids(names))

    def under(self, names) -> np.ndarray:
        """Spans with an ancestor among ``names``."""
        target = self.ids(names)
        hit = np.zeros(self.nid.size, dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return hit
            hit[live] |= np.isin(self.nid[anc[live]], target)
            anc[live] = self.parent[anc[live]]

    def count(self, names, where=None) -> int:
        m = self.mask(names)
        return int((m if where is None else m & where).sum())

    def inclusive(self, names, where=None) -> float:
        """Time in the outermost spans among ``names``."""
        m = self.mask(names) & ~self.under(names)
        if where is not None:
            m &= where
        return float(self.dur[m].sum())

    def self_of(self, names) -> float:
        return float(self.self_time[self.mask(names)].sum())


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (see ``layers.json``)."""
    s = _Spans(tracer.names, tracer.arrays())
    items_s = s.inclusive([Tracer.ROOT])
    lib = {layer: float(s.self_time[s.layer == s.layer_code(layer)].sum())
           for layer in LAYERS if layer != "cli"}
    m = {}
    m["modelfile.load_s"] = s.inclusive(["modelfile.load_model"])

    eig = s.mask(EIGEN)
    m["matcore.eigen_calls"] = int(eig.sum())
    m["matcore.eigen_s"] = s.inclusive(EIGEN)
    for label, lo, hi in ORDER_BUCKETS:
        sel = eig & (s.order >= lo) & (s.order <= hi)
        n = int(sel.sum())
        m[f"matcore.eigen_us.{label}"] = float(s.dur[sel].sum()) / n * 1e6 if n else 0.0

    roots = ["qbd1d.bisect_root", "qbd1d.convex_min_scalar"]
    m["qbd1d.root_calls"] = s.count(roots)
    from_cli = s.parent_layer == s.layer_code("cli")
    qbd1d_names = [n for n in s.names if n.startswith("qbd1d.")]
    m["qbd1d.analysis_s"] = s.inclusive(qbd1d_names, where=from_cli)
    m["qbd1d.stationary_boundary_s"] = s.inclusive(["qbd1d.stationary_boundary"])

    m["qbd2d.gap_evals"] = s.count(["qbd2d.gamma2"])
    m["qbd2d.flag_evals"] = s.count(
        ["qbd2d.gamma2_pair"], where=s.parent_layer == s.layer_code("levelset"))
    m["qbd2d.c2_calls"] = s.count(["qbd2d.c2_mgf"])
    m["qbd2d.curve_s"] = s.inclusive(["qbd2d.level_curve"])
    m["qbd2d.stability_s"] = s.inclusive(["qbd2d.stability_check"])

    point_at = ["levelset.LevelCurve.point_at"]
    m["levelset.build_s"] = s.inclusive(["levelset.LevelCurve.__init__"])
    m["levelset.center_gap_evals"] = s.count(
        GAP, where=s.under(["levelset.minimize_convex_2d"]))
    m["levelset.point_at_calls"] = s.count(point_at)
    gap_in_points = s.count(GAP, where=s.under(point_at))
    m["levelset.gap_evals_per_point"] = (gap_in_points / m["levelset.point_at_calls"]
                                         if m["levelset.point_at_calls"] else 0.0)
    m["levelset.tau_report_s"] = s.inclusive(["levelset.LevelCurve.tau_report"])
    m["levelset.directional_sup_s"] = s.inclusive(["levelset.LevelCurve.directional_sup"])
    m["levelset.section_calls"] = s.count(["levelset.LevelCurve.section"])
    m["levelset.section_s"] = s.inclusive(["levelset.LevelCurve.section"])
    m["levelset.boundary_rows_s"] = s.inclusive(["levelset.boundary_rows"])

    m["jackson.analytic_curve_s"] = s.inclusive(["jackson.analytic_curve"])
    m["jackson.generic_curve_s"] = s.inclusive(
        ["qbd2d.level_curve"], where=s.under(["jackson.decay_report"]))
    m["jackson.cumulant_evals"] = s.count(["jackson.CumulantSet.gamma_a",
                                           "jackson.CumulantSet.gamma_d"])
    m["jackson.build_blocks_s"] = s.inclusive(["jackson.build_blocks"])
    m["jackson.certificate_s"] = s.inclusive(["jackson.assumption3_certificate"])
    m["jackson.certificate_calls"] = s.count(["jackson.assumption3_certificate"])

    m["oracle.build_s"] = s.inclusive(["oracle.build_truncated"])
    m["oracle.solve_s"] = s.self_of(["oracle.truncate_and_solve"])
    m["oracle.states"] = tracer.counters["oracle.states"]
    m["oracle.nnz"] = tracer.counters["oracle.nnz"]
    m["oracle.sim_s"] = s.inclusive(["oracle.simulate"])
    steps = tracer.counters["oracle.sim_steps"]
    m["oracle.sim_steps_per_s"] = steps / m["oracle.sim_s"] if m["oracle.sim_s"] > 0 else 0.0
    m["oracle.fit_s"] = s.inclusive(["oracle.estimate_decay",
                                     "oracle.estimate_decay_direction"])

    for layer, t in lib.items():
        m[f"{layer}.self_s"] = t
    m["cli.other_s"] = items_s - sum(lib.values())
    m["trace.item_s"] = items_s
    m["trace.spans"] = int(s.nid.size)
    m["trace.absent_names"] = len(tracer.absent())
    m["trace.observer_errors"] = tracer.counters["observer_errors"]
    return m
