"""Model files: a YAML tree with explicit row-major matrix literals.

Four kinds are supported:

- ``qbd1d``: the six blocks of a QBD-structured nonnegative matrix,
- ``qbd2d_discrete`` / ``qbd2d_continuous``: the nine transition families,
- ``jackson``: MAP/PH primitives and routing probabilities of a two-node
  generalized Jackson network.

See the annotated files under ``models/`` for the concrete layout.  Parsing
is strict: unknown keys, missing blocks and malformed matrices raise
``SchemaError``; YAML-level problems raise ``ParseError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from . import jackson as jk
from . import qbd1d, qbd2d
from .errors import NotIrreducible, ParseError, SchemaError

SCHEMA_VERSION = "1"
KINDS = ("qbd1d", "qbd2d_discrete", "qbd2d_continuous", "jackson")


@dataclass(frozen=True)
class ModelFile:
    schema_version: str
    kind: str
    payload: object      # QbdBlocks | Qbd2dSpec | JacksonSpec


def _matrix(node, where: str) -> np.ndarray:
    try:
        a = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: not a numeric matrix") from exc
    if a.ndim == 1:
        a = a[np.newaxis, :]
    if a.ndim != 2 or a.size == 0:
        raise SchemaError(f"{where}: expected a rectangular matrix")
    if not np.all(np.isfinite(a)):
        raise SchemaError(f"{where}: entries must be finite numbers")
    return a


def _scalar(node, where: str) -> float:
    return float(_matrix([[node]], where)[0, 0])


def _expect_keys(node: dict, required, where: str):
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: expected a mapping")
    missing = [k for k in required if k not in node]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    unknown = [k for k in node if k not in required]
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")


def _parse_qbd1d(model: dict) -> qbd1d.QbdBlocks:
    _expect_keys(model, ("b0", "b1", "bm1", "am1", "a0", "a1"), "model")
    try:
        return qbd1d.QbdBlocks(**{k: _matrix(model[k], f"model.{k}")
                                  for k in ("b0", "b1", "bm1", "am1", "a0", "a1")})
    except (ValueError, NotIrreducible) as exc:
        raise SchemaError(str(exc)) from exc


def _parse_increment(key: str, where: str) -> tuple:
    try:
        i, j = (int(part) for part in str(key).split(","))
    except ValueError as exc:
        raise SchemaError(f"{where}: bad increment key {key!r}") from exc
    if i not in (-1, 0, 1) or j not in (-1, 0, 1):
        raise SchemaError(f"{where}: increment {key!r} out of range")
    return i, j


def _parse_qbd2d(model: dict, time: str) -> qbd2d.Qbd2dSpec:
    _expect_keys(model, ("dims", "families"), "model")
    dims = model["dims"]
    if (not isinstance(dims, (list, tuple)) or len(dims) != 4
            or any(int(d) <= 0 for d in dims)):
        raise SchemaError("model.dims: expected four positive integers")
    fams_node = model["families"]
    if not isinstance(fams_node, dict):
        raise SchemaError("model.families: expected a mapping")
    region_keys = {"".join(reg): reg for reg in qbd2d.REGIONS}
    fams = {}
    for key, blocks in fams_node.items():
        if str(key) not in region_keys:
            raise SchemaError(f"model.families: unknown region {key!r}")
        reg = region_keys[str(key)]
        if not isinstance(blocks, dict):
            raise SchemaError(f"model.families.{key}: expected a mapping")
        fam = {}
        for inc_key, mat in blocks.items():
            inc = _parse_increment(inc_key, f"model.families.{key}")
            if inc not in qbd2d.allowed_increments(*reg):
                raise SchemaError(
                    f"model.families.{key}: increment {inc_key!r} not "
                    f"allowed from region {key}")
            fam[inc] = _matrix(mat, f"model.families.{key}.{inc_key}")
        fams[reg] = fam
    try:
        return qbd2d.make_spec(fams, tuple(int(d) for d in dims), time)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_jackson(model: dict) -> jk.JacksonSpec:
    _expect_keys(model, ("arrivals", "services", "routing"), "model")
    arr_node, srv_node = model["arrivals"], model["services"]
    if not (isinstance(arr_node, list) and len(arr_node) == 2):
        raise SchemaError("model.arrivals: expected a list of two MAPs")
    if not (isinstance(srv_node, list) and len(srv_node) == 2):
        raise SchemaError("model.services: expected a list of two PH laws")
    try:
        arrivals = []
        for idx, node in enumerate(arr_node):
            _expect_keys(node, ("t", "u"), f"model.arrivals[{idx}]")
            arrivals.append(jk.MapSpec(t=_matrix(node["t"], "t"),
                                       u=_matrix(node["u"], "u")))
        services = []
        for idx, node in enumerate(srv_node):
            _expect_keys(node, ("beta", "s"), f"model.services[{idx}]")
            beta = _matrix(node["beta"], "beta").ravel()
            services.append(jk.PhSpec(beta=beta, s=_matrix(node["s"], "s")))
        routing = model["routing"]
        _expect_keys(routing, ("r12", "r21"), "model.routing")
        return jk.JacksonSpec(arrivals=tuple(arrivals), services=tuple(services),
                              r12=_scalar(routing["r12"], "model.routing.r12"),
                              r21=_scalar(routing["r21"], "model.routing.r21"))
    except jk.InvalidSpec as exc:
        raise SchemaError(str(exc)) from exc


def parse_model(text: str) -> ModelFile:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"YAML error: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must be a YAML mapping")
    _expect_keys(doc, ("schema_version", "kind", "model"), "file")
    version = str(doc["schema_version"])
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}")
    kind = str(doc["kind"])
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind == "qbd1d":
        payload = _parse_qbd1d(doc["model"])
    elif kind == "jackson":
        payload = _parse_jackson(doc["model"])
    else:
        payload = _parse_qbd2d(doc["model"],
                               "discrete" if kind.endswith("discrete")
                               else "continuous")
    return ModelFile(schema_version=version, kind=kind, payload=payload)


def load_model(path) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_model(text)


# -- serialization ---------------------------------------------------------------


def _mat_to_lists(a: np.ndarray):
    return [[float(x) for x in row] for row in np.atleast_2d(a)]


def model_to_dict(mf: ModelFile) -> dict:
    """Normalized plain-dict form, suitable for dumping and comparison."""
    p = mf.payload
    if mf.kind == "qbd1d":
        model = {k: _mat_to_lists(getattr(p, k))
                 for k in ("b0", "b1", "bm1", "am1", "a0", "a1")}
    elif mf.kind == "jackson":
        model = {
            "arrivals": [{"t": _mat_to_lists(a.t), "u": _mat_to_lists(a.u)}
                         for a in p.arrivals],
            "services": [{"beta": [float(x) for x in s.beta],
                          "s": _mat_to_lists(s.s)} for s in p.services],
            "routing": {"r12": float(p.r12), "r21": float(p.r21)},
        }
    else:
        fams = {}
        for reg in qbd2d.REGIONS:
            blocks = {}
            for inc, b in sorted(p.families[reg].items()):
                if qbd2d.alias_target(*reg, *inc) is not None:
                    continue   # stored once on the canonical family
                if np.any(b != 0):
                    blocks[f"{inc[0]},{inc[1]}"] = _mat_to_lists(b)
            if blocks:
                fams["".join(reg)] = blocks
        model = {"dims": [int(d) for d in p.dims], "families": fams}
    return {"schema_version": mf.schema_version, "kind": mf.kind,
            "model": model}


def dump_model(mf: ModelFile) -> str:
    return yaml.safe_dump(model_to_dict(mf), sort_keys=False,
                          default_flow_style=None, width=100)
