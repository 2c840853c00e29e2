"""Seeded model generator for the benchmark workloads.

Every model is drawn from ``random.Random(seed)`` (stdlib, so the stream
does not depend on the numpy version) and written as a schema-v1 YAML file
without ``options``; every setting travels as a CLI flag in the item's
``argv``.  The program under test only ever sees the YAML files.

Each item also carries the facts needed to attribute a change to an input
property (kind, background order, modulation spectral gap, utilizations,
extent) and the reference values the checker compares the CLI output
with.  References are computed here from the drawn parameters
alone: closed forms for product-form models, nothing from ``qbdtail``.

Unstable or out-of-band draws are rejection-sampled with the same RNG, so
the accepted models depend only on the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

DIRECTIONS = ("1,0", "0,1", "1,1", "2,1")

# Slot plans.  A slot fixes the model family, the band its parameters are
# drawn from and the CLI settings; the seed picks the point inside the band.
# Fixed families and settings keep the amount of work per slot comparable
# across seeds.  ``scan`` is the CLI's ``--scan`` (angular scan size of the
# level curve, default 192).
WORKLOADS = {
    "decay-sweep": [
        ("scalar_walk", {"command": "decay"}),
        ("modulated_walk", {"command": "decay", "gap": 1.5, "scan": 64}),
        ("exp_jackson", {"command": "jackson", "rho": (0.5, 0.7)}),
        # the slowest item on every seed, so item_max_s tracks one model
        ("mapph_jackson", {"command": "jackson", "family": "mmpp2",
                           "gap": 4.0, "scan": 64}),
        ("qbd1d_walk", {"command": "decay", "gap": 1.0}),
    ],
    "boundary-verify": [
        ("scalar_walk", {"command": "boundary"}),
        ("exp_jackson", {"command": "boundary", "rho": (0.45, 0.8)}),
        ("exp_jackson", {"command": "certificate", "rho": (0.45, 0.8)}),
        ("mapph_jackson", {"command": "certificate", "family": "hyperexp2"}),
        ("exp_jackson", {"command": "verify", "rho": (0.35, 0.5),
                         "tandem": True, "scan": 64}),
        # slow tail: the slowest item on every seed
        ("exp_jackson", {"command": "verify", "rho": (0.8, 0.84), "scan": 64}),
        ("scalar_walk", {"command": "verify", "rho": (0.7, 0.78), "scan": 64}),
    ],
}

VERIFY_EXTENT = 80
VERIFY_STEPS = 400_000
BOUNDARY_SAMPLES = 256
CERTIFICATE_POINTS = 32


def _flow(x) -> str:
    """A matrix or vector as a YAML flow sequence (JSON is valid YAML)."""
    return json.dumps(x)


def _write(path: Path, kind: str, lines: list) -> None:
    body = "\n".join(lines)
    path.write_text(f'schema_version: "1"\nkind: {kind}\nmodel:\n{body}\n',
                    encoding="utf-8")


# -- 2-d walks -------------------------------------------------------------------


def _walk_families(moves, switch):
    """Nine-family layout of a modulated reflecting walk.

    ``moves[k]`` = (right, left, up, down) in phase k; ``switch`` is the
    background switching matrix, applied independently of the movement.
    Blocked moves at the boundaries are folded into the stay block.
    """
    m = len(moves)

    def block(prob):
        return [[prob[k] * switch[k][j] for j in range(m)] for k in range(m)]

    right = [mv[0] for mv in moves]
    left = [mv[1] for mv in moves]
    up = [mv[2] for mv in moves]
    down = [mv[3] for mv in moves]

    def stay(*blocked):
        out = []
        for k, mv in enumerate(moves):
            kept = 1.0 - sum(mv)
            out.append(kept + sum(b[k] for b in blocked))
        return out

    return {
        "++": {"1,0": block(right), "-1,0": block(left), "0,1": block(up),
               "0,-1": block(down), "0,0": block(stay())},
        "+0": {"1,0": block(right), "-1,0": block(left), "0,1": block(up),
               "0,0": block(stay(down))},
        "0+": {"0,1": block(up), "0,-1": block(down), "1,0": block(right),
               "0,0": block(stay(left))},
        "00": {"1,0": block(right), "0,1": block(up),
               "0,0": block(stay(left, down))},
        "10": {"-1,0": block(left)},
        "01": {"0,-1": block(down)},
        "11": {"-1,0": block(left), "0,-1": block(down)},
        "+1": {"0,-1": block(down)},
        "1+": {"-1,0": block(left)},
    }


def _write_walk(path: Path, moves, switch) -> None:
    m = len(moves)
    fams = _walk_families(moves, switch)
    lines = [f"  dims: [{m}, {m}, {m}, {m}]", "  families:"]
    for reg, blocks in fams.items():
        lines.append(f'    "{reg}":')
        for inc, b in blocks.items():
            lines.append(f'      "{inc}": {_flow(b)}')
    _write(path, "qbd2d_discrete", lines)


def scalar_walk(rng: random.Random, path: Path, rho=(0.4, 0.85)) -> dict:
    """Reversible scalar walk: product form, tau_i = log(p_i^- / p_i^+)."""
    while True:
        left, down = rng.uniform(0.15, 0.3), rng.uniform(0.15, 0.3)
        r1, r2 = rng.uniform(*rho), rng.uniform(*rho)
        right, up = left * r1, down * r2
        if right + left + up + down <= 0.9 and abs(r1 - r2) > 0.02:
            break
    _write_walk(path, [(right, left, up, down)], [[1.0]])
    tau = (math.log(left / right), math.log(down / up))
    return {"kind": "qbd2d_discrete", "order": 1, "spectral_gap": None,
            "rho": [right / left, up / down], "level": 1.0,
            "moves": [[right, left, up, down]], "switch": [[1.0]],
            "ref": {"tau": list(tau)}}


def _two_phase_switch(gap: float):
    """Symmetric background switching matrix [[1-a, a], [a, 1-a]] with
    spectral gap 2a fixed by the slot: the modulation speed sets the cost of
    the eigen kernel, so the seed does not draw it."""
    a = gap / 2.0
    return [[1.0 - a, a], [a, 1.0 - a]]


def modulated_walk(rng: random.Random, path: Path, gap: float = 0.7) -> dict:
    """Two-phase modulated walk; the background spectral gap (1 minus the
    second eigenvalue of the switching matrix) is fixed by the slot.

    Every phase drifts toward the corner on both axes, so the walk is
    stable; no closed form exists, so the checker uses the domain bounds.
    """
    moves = []
    for _ in range(2):
        while True:
            left, down = rng.uniform(0.2, 0.26), rng.uniform(0.2, 0.26)
            right = left * rng.uniform(0.5, 0.7)
            up = down * rng.uniform(0.5, 0.7)
            if right + left + up + down <= 0.85:
                break
        moves.append((right, left, up, down))
    switch = _two_phase_switch(gap)
    _write_walk(path, moves, switch)
    return {"kind": "qbd2d_discrete", "order": 2, "spectral_gap": gap,
            "rho": None, "level": 1.0,
            "moves": [list(mv) for mv in moves], "switch": switch, "ref": {}}


# -- Jackson networks --------------------------------------------------------------


def _traffic(lam, mean_service, r12, r21):
    denom = 1.0 - r12 * r21
    a1 = (lam[0] + lam[1] * r21) / denom
    a2 = (lam[1] + lam[0] * r12) / denom
    return a1 * mean_service[0], a2 * mean_service[1]


def _write_jackson(path: Path, arrivals, services, r12, r21) -> None:
    lines = ["  arrivals:"]
    for t, u in arrivals:
        lines += [f"    - t: {_flow(t)}", f"      u: {_flow(u)}"]
    lines.append("  services:")
    for beta, s in services:
        lines += [f"    - beta: {_flow(beta)}", f"      s: {_flow(s)}"]
    lines += ["  routing:", f"    r12: {r12!r}", f"    r21: {r21!r}"]
    _write(path, "jackson", lines)


def exp_jackson(rng: random.Random, path: Path, rho=(0.45, 0.8),
                tandem: bool = False) -> dict:
    """Exponential two-node network: product form, tau_i = -log rho_i."""
    while True:
        if tandem:
            lam = (rng.uniform(0.5, 1.5), 0.0)
            r12, r21 = 1.0, 0.0
        else:
            lam = (rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0))
            r12, r21 = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)
        mu = (rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
        rho_ = _traffic(lam, (1.0 / mu[0], 1.0 / mu[1]), r12, r21)
        if all(rho[0] <= r <= rho[1] for r in rho_) and abs(rho_[0] - rho_[1]) > 0.02:
            break
    arrivals = [([[-lam[0]]], [[lam[0]]]), ([[-lam[1]]], [[lam[1]]])]
    services = [([1.0], [[-mu[0]]]), ([1.0], [[-mu[1]]])]
    _write_jackson(path, arrivals, services, r12, r21)
    tau = (-math.log(rho_[0]), -math.log(rho_[1]))
    return {"kind": "jackson", "order": 1, "spectral_gap": None,
            "rho": list(rho_), "level": 0.0,
            "jackson": _jackson_record(arrivals, services, r12, r21),
            "ref": {"tau": list(tau)}}


def _jackson_record(arrivals, services, r12, r21) -> dict:
    return {"arrivals": [{"t": t, "u": u} for t, u in arrivals],
            "services": [{"beta": b, "s": s} for b, s in services],
            "r12": r12, "r21": r21}


def mapph_jackson(rng: random.Random, path: Path, family: str = "mmpp2",
                  gap: float = 2.0, rho=(0.55, 0.75)) -> dict:
    """Non-product-form network of background order 2.

    ``mmpp2``: MMPP-2 arrivals at node 1 (switching rates a + b = ``gap``),
    exponential services; ``erlang2``: Poisson arrivals, Erlang-2 service at node 1;
    ``hyperexp2``: Poisson arrivals, two-branch hyperexponential service at
    node 1.  Reference: the dual-path agreement the CLI reports.
    """
    while True:
        r12, r21 = rng.uniform(0.2, 0.3), rng.uniform(0.2, 0.3)
        lam2 = rng.uniform(0.3, 0.5)
        mu1, mu2 = rng.uniform(2.0, 3.5), rng.uniform(1.5, 3.0)
        if family == "mmpp2":
            (_, a), (b, _) = _two_phase_switch(gap)
            l0, l1 = rng.uniform(0.38, 0.42), rng.uniform(1.9, 2.1)
            arr1 = ([[-(a + l0), a], [b, -(b + l1)]], [[l0, 0.0], [0.0, l1]])
            lam1 = (b * l0 + a * l1) / (a + b)
            srv1 = ([1.0], [[-mu1]])
            mean1 = 1.0 / mu1
        elif family == "erlang2":
            lam1 = rng.uniform(0.5, 1.5)
            arr1 = ([[-lam1]], [[lam1]])
            srv1 = ([1.0, 0.0], [[-2.0 * mu1, 2.0 * mu1], [0.0, -2.0 * mu1]])
            mean1 = 1.0 / mu1
        elif family == "hyperexp2":
            lam1 = rng.uniform(0.5, 1.5)
            arr1 = ([[-lam1]], [[lam1]])
            p = rng.uniform(0.2, 0.5)
            fast = rng.uniform(3.0, 6.0) * mu1
            slow = (1.0 - p) / (1.0 / mu1 - p / fast)   # mean 1/mu1
            srv1 = ([p, 1.0 - p], [[-fast, 0.0], [0.0, -slow]])
            mean1 = p / fast + (1.0 - p) / slow
        else:
            raise ValueError(f"unknown family {family!r}")
        rho_ = _traffic((lam1, lam2), (mean1, 1.0 / mu2), r12, r21)
        if all(rho[0] <= r <= rho[1] for r in rho_):
            break
    arrivals = [arr1, ([[-lam2]], [[lam2]])]
    services = [srv1, ([1.0], [[-mu2]])]
    _write_jackson(path, arrivals, services, r12, r21)
    return {"kind": "jackson", "order": 2,
            "spectral_gap": gap if family == "mmpp2" else None,
            "rho": list(rho_), "level": 0.0, "family": family,
            "jackson": _jackson_record(arrivals, services, r12, r21),
            "ref": {}}


# -- 1-d QBD ---------------------------------------------------------------------


def qbd1d_walk(rng: random.Random, path: Path, gap: float = 0.5) -> dict:
    """Stochastic two-phase birth-death QBD with downward drift in every
    phase; the blocked down-move at level 0 is folded into stay."""
    ups, downs = [], []
    for _ in range(2):
        d = rng.uniform(0.3, 0.35)
        ups.append(d * rng.uniform(0.5, 0.6))
        downs.append(d)
    switch = _two_phase_switch(gap)

    def block(prob):
        return [[prob[k] * switch[k][j] for j in range(2)] for k in range(2)]

    stay = [1.0 - u - d for u, d in zip(ups, downs)]
    stay0 = [1.0 - u for u in ups]
    blocks = {"b0": block(stay0), "b1": block(ups), "bm1": block(downs),
              "am1": block(downs), "a0": block(stay), "a1": block(ups)}
    _write(path, "qbd1d", [f"  {k}: {_flow(v)}" for k, v in blocks.items()])
    return {"kind": "qbd1d", "order": 2, "spectral_gap": gap,
            "rho": [u / d for u, d in zip(ups, downs)], "level": 1.0,
            "blocks": blocks, "ref": {}}


# -- item assembly -------------------------------------------------------------------


FAMILIES = {"scalar_walk": scalar_walk, "modulated_walk": modulated_walk,
            "exp_jackson": exp_jackson, "mapph_jackson": mapph_jackson,
            "qbd1d_walk": qbd1d_walk}


def _argv(command: str, model: Path, out_dir: Path, index: int, sim_seed: int,
          scan):
    f = str(model)
    dirs = [a for d in DIRECTIONS for a in ("--direction", d)]
    scan = ["--scan", str(scan)] if scan else []
    if command == "decay":
        return ["decay", f, *dirs, *scan]
    if command == "jackson":
        return ["jackson", f, "decay", *dirs, *scan]
    if command == "verify":
        return ["verify", f, "--extent", str(VERIFY_EXTENT),
                "--steps", str(VERIFY_STEPS), "--seed", str(sim_seed), *scan]
    if command == "boundary":
        return ["boundary", f, "--samples", str(BOUNDARY_SAMPLES),
                "--out", str(out_dir / f"item{index:02d}.csv")]
    if command == "certificate":
        return ["jackson", f, "certificate",
                "--points", str(CERTIFICATE_POINTS)]
    raise ValueError(f"unknown command {command!r}")


def generate(workload: str, seed: int, out_dir: Path) -> list:
    """Write the workload's models under ``out_dir`` and return its items."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    items = []
    for index, (family, opts) in enumerate(WORKLOADS[workload]):
        opts = dict(opts)
        command = opts.pop("command")
        scan = opts.pop("scan", None)
        model = out_dir / f"item{index:02d}_{family}.yaml"
        meta = FAMILIES[family](rng, model, **opts)
        sim_seed = rng.randrange(1, 2**31)
        meta.update({
            "id": f"{workload}/{index:02d}", "family": meta.get("family", family),
            "command": command, "model": str(model),
            "argv": _argv(command, model, out_dir, index, sim_seed, scan),
            "extent": VERIFY_EXTENT if command == "verify" else None,
            "directions": list(DIRECTIONS) if command in ("decay", "jackson") else [],
        })
        items.append(meta)
    return items
