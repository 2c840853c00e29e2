import numpy as np
import pytest

from qbdtail import jackson, qbd2d


def scalar_rrw(pxp, pxm, pyp, pym, face1=None, face2=None, origin=None):
    """No-modulation quarter-plane walk with reflecting boundaries.

    Face kernels default to the interior kernel with the blocked move
    folded into the stay probability; they can be overridden.
    """
    s = lambda v: np.array([[float(v)]])
    interior = {(1, 0): s(pxp), (-1, 0): s(pxm), (0, 1): s(pyp),
                (0, -1): s(pym), (0, 0): s(1 - pxp - pxm - pyp - pym)}
    f1 = face1 or {"up": pyp, "right": pxp, "left": pxm}
    f2 = face2 or {"right": pxp, "up": pyp, "down": pym}
    og = origin or {"right": pxp, "up": pyp}
    face1d = {(1, 0): s(f1["right"]), (-1, 0): s(f1["left"]),
              (0, 1): s(f1["up"]),
              (0, 0): s(1 - f1["right"] - f1["left"] - f1["up"])}
    face2d = {(0, 1): s(f2["up"]), (0, -1): s(f2["down"]),
              (1, 0): s(f2["right"]),
              (0, 0): s(1 - f2["up"] - f2["down"] - f2["right"])}
    origind = {(1, 0): s(og["right"]), (0, 1): s(og["up"]),
               (0, 0): s(1 - og["right"] - og["up"])}
    fams = {
        ("+", "+"): interior, ("+", "0"): face1d, ("0", "+"): face2d,
        ("0", "0"): origind,
        ("1", "0"): {(-1, 0): s(f1["left"])},
        ("0", "1"): {(0, -1): s(f2["down"])},
        ("1", "1"): {(-1, 0): s(pxm), (0, -1): s(pym)},
        ("+", "1"): {(0, -1): s(pym)},
        ("1", "+"): {(-1, 0): s(pxm)},
    }
    return qbd2d.make_spec(fams, (1, 1, 1, 1), "discrete")


def trichotomy_fuzz_specs():
    """The stable random walks of the category fuzz (numpy seed 71): face
    1 adds an up move, face 2 a right move, both halve the inward move."""
    rng = np.random.default_rng(71)
    out = []
    for _ in range(25):
        pxp, pyp = rng.uniform(0.05, 0.18, size=2)
        pxm = pxp + rng.uniform(0.03, 0.2)
        pym = pyp + rng.uniform(0.03, 0.2)
        f1u = rng.uniform(0.05, 0.4)
        f2r = rng.uniform(0.05, 0.4)
        spec = scalar_rrw(pxp, pxm, pyp, pym,
                          face1={"up": f1u, "right": pxp, "left": pxm / 2},
                          face2={"right": f2r, "up": pyp, "down": pym / 2})
        if qbd2d.stability_check(spec).verdict == "stable":
            out.append(spec)
    return out


def adversarial_face_spec(seed):
    """Two-phase walk whose face-1 kernel, drawn with numpy ``seed``, has a
    modulation that breaks the proportionality structure of Assumption 2;
    face 2 and the origin keep the interior moves."""
    rng = np.random.default_rng(seed)
    m = 2
    base = rng.uniform(0.02, 0.08, size=(6, m, m))
    interior = {(1, 0): base[0], (-1, 0): base[1] + 0.1 * np.eye(m),
                (0, 1): base[2], (0, -1): base[3] + 0.1 * np.eye(m)}
    ssum = sum(interior.values()) @ np.ones(m)
    interior[(0, 0)] = np.diag(1.0 - ssum)
    face1 = {(1, 0): base[4], (-1, 0): base[1] + 0.1 * np.eye(m),
             (0, 1): base[5]}
    fsum = sum(face1.values()) @ np.ones(m)
    face1[(0, 0)] = np.diag(1.0 - fsum)
    face2 = {(1, 0): interior[(1, 0)], (0, 1): interior[(0, 1)],
             (0, -1): interior[(0, -1)]}
    f2sum = sum(face2.values()) @ np.ones(m)
    face2[(0, 0)] = np.diag(1.0 - f2sum)
    origin = {(1, 0): interior[(1, 0)], (0, 1): interior[(0, 1)]}
    osum = sum(origin.values()) @ np.ones(m)
    origin[(0, 0)] = np.diag(1.0 - osum)
    fams = {("+", "+"): interior, ("+", "0"): face1, ("0", "+"): face2,
            ("0", "0"): origin,
            ("1", "0"): {(-1, 0): interior[(-1, 0)]},
            ("0", "1"): {(0, -1): interior[(0, -1)]},
            ("1", "1"): {(-1, 0): interior[(-1, 0)],
                         (0, -1): interior[(0, -1)]},
            ("+", "1"): {(0, -1): interior[(0, -1)]},
            ("1", "+"): {(-1, 0): interior[(-1, 0)]}}
    return qbd2d.make_spec(fams, (m, m, m, m), "discrete")


def product_form_jackson():
    """Exponential network: lam = (1, 0.5), mu = (2, 3), r12 = 0.3, r21 = 0.2."""
    return jackson.JacksonSpec(
        arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.5)),
        services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
        r12=0.3, r21=0.2)


def tandem_jackson():
    """M/M/1 -> M/M/1 tandem: lam = 1, mu = (2, 3)."""
    return jackson.JacksonSpec(
        arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.0)),
        services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
        r12=1.0, r21=0.0)


def mmpp2_map(r01, r10, lam0, lam1):
    """Two-phase Markov-modulated Poisson process."""
    t = np.array([[-(r01 + lam0), r01], [r10, -(r10 + lam1)]])
    u = np.array([[lam0, 0.0], [0.0, lam1]])
    return jackson.MapSpec(t=t, u=u)


def mapph_jackson():
    """MMPP-2 arrivals at node 1, Erlang-2 services, feedback routing;
    utilizations close to 0.7."""
    return jackson.JacksonSpec(
        arrivals=(mmpp2_map(0.4, 0.6, 0.5, 2.0), jackson.poisson_map(0.25)),
        services=(jackson.erlang_ph(2, 3.5), jackson.erlang_ph(2, 1.77)),
        r12=0.3, r21=0.2)


@pytest.fixture(scope="session")
def pf_jackson_spec():
    return product_form_jackson()


@pytest.fixture(scope="session")
def tandem_spec():
    return tandem_jackson()


@pytest.fixture(scope="session")
def mapph_spec():
    return mapph_jackson()
