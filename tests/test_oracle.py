import bisect
import hashlib
from pathlib import Path

import numpy as np
import pytest

from qbdtail import jackson, modelfile, oracle, qbd2d
from qbdtail.errors import (EmptyWindow, InvalidStart, NoConvergence,
                            NotStochastic, ThetaOutsideDomain)

from conftest import scalar_rrw, product_form_jackson

MODELS = Path(__file__).resolve().parent.parent / "models"


def light_jackson():
    """Exponential network with mild load, so truncation bias is tiny."""
    return jackson.JacksonSpec(
        arrivals=(jackson.poisson_map(0.8), jackson.poisson_map(0.4)),
        services=(jackson.exponential_ph(2.0), jackson.exponential_ph(3.0)),
        r12=0.3, r21=0.2)


def right_march():
    """Deterministic kernel: down the second axis, then right along the
    first; in a truncated box all mass ends in the far corner (N1, 0)."""
    one = lambda: np.ones((1, 1))
    fams = {
        ("0", "0"): {(1, 0): one()},
        ("+", "0"): {(1, 0): one()},
        ("0", "+"): {(0, -1): one()},
        ("0", "1"): {(0, -1): one()},
        ("1", "0"): {},
        ("1", "1"): {}, ("+", "1"): {}, ("1", "+"): {},
        ("+", "+"): {(1, 0): one()},
    }
    return qbd2d.make_spec(fams, (1, 1, 1, 1), "discrete")


def dense_pinned_solve(spec, extent):
    """Reference: the pinned balance equations solved densely."""
    p = oracle.build_truncated(spec, extent)[0].toarray()
    a = np.eye(p.shape[0]) - p.T
    x = np.empty(p.shape[0])
    x[0] = 1.0
    x[1:] = np.linalg.solve(a[1:, 1:], -a[1:, 0])
    return x / x.sum()


def loop_cell_mass(table):
    n1, n2 = table.extent
    out = np.zeros((n1 + 1, n2 + 1))
    for l1 in range(n1 + 1):
        for l2 in range(n2 + 1):
            out[l1, l2] = table.vector(l1, l2).sum()
    return out


def loop_tail_sequence(table, coordinate, level, phase):
    n1, n2 = table.extent
    n = n1 if coordinate == 1 else n2
    probs = np.zeros(n + 1)
    for v in range(n + 1):
        l1, l2 = (v, level) if coordinate == 1 else (level, v)
        vec = table.vector(l1, l2)
        probs[v] = vec[phase] if phase < vec.size else 0.0
    return np.cumsum(probs[::-1])[::-1][1:]


def loop_phi(table, which, theta):
    n1, n2 = table.extent
    t1, t2 = theta
    acc = np.zeros(table.spec.dims[3])
    if which == "++":
        for l1 in range(2, n1 + 1):
            for l2 in range(2, n2 + 1):
                acc += np.exp(l1 * t1 + l2 * t2) * table.vector(l1, l2)
    elif which == "+1":
        for l1 in range(2, n1 + 1):
            acc += np.exp(l1 * t1) * table.vector(l1, 1)
    else:
        for l2 in range(2, n2 + 1):
            acc += np.exp(l2 * t2) * table.vector(1, l2)
    return acc


def loop_truncated(spec, extent):
    """Reference: the truncated operator of a discrete spec, built cell by
    cell and entry by entry into a dense matrix."""
    n1, n2 = extent
    key = "01+"
    size = lambda l1, l2: spec.dims[(l1 > 0) + 2 * (l2 > 0)]
    offset, n = {}, 0
    for l1 in range(n1 + 1):
        for l2 in range(n2 + 1):
            offset[l1, l2] = n
            n += size(l1, l2)
    p = np.zeros((n, n))
    for (l1, l2), o in offset.items():
        fam = spec.families[key[min(l1, 2)], key[min(l2, 2)]]
        for (d1, d2), block in fam.items():
            inside = 0 <= l1 + d1 <= n1 and 0 <= l2 + d2 <= n2
            for r in range(block.shape[0]):
                for c in range(block.shape[1]):
                    if inside:
                        p[o + r, offset[l1 + d1, l2 + d2] + c] += block[r, c]
                    else:
                        p[o + r, o + r] += block[r, c]
    return p


SHIPPED = ["scalar_rrw", "modulated_rrw", "tandem_jackson", "mapph_jackson"]


class TestTruncateAndSolve:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_sparse_equals_dense_pinned_solve(self, name):
        spec = _shipped_spec(name)
        table = oracle.truncate_and_solve(spec, (12, 12))
        ref = dense_pinned_solve(spec, (12, 12))
        big = ref > 1e-100
        assert np.allclose(table.pi[big], ref[big], rtol=1e-12, atol=0.0)
        assert table.residual <= 1e-15

    def test_singular_pinned_system_is_no_convergence(self):
        # the origin is transient, so the pinned equations are singular
        with pytest.raises(NoConvergence, match="singular"):
            oracle.truncate_and_solve(right_march(), (10, 10))

    def test_product_form_inner_half(self):
        # moderate load: deep inner-half cells stay well above the solver's
        # absolute accuracy floor while truncation bias remains negligible
        spec = jackson.JacksonSpec(
            arrivals=(jackson.poisson_map(1.0), jackson.poisson_map(0.8)),
            services=(jackson.exponential_ph(2.0), jackson.exponential_ph(2.0)),
            r12=0.3, r21=0.2)
        blocks = jackson.build_blocks(spec)
        table = oracle.truncate_and_solve(blocks, (60, 60), tol=1e-13)
        rho1, rho2 = jackson.traffic_check(spec).rho
        mass = table.cell_mass()
        c = mass[0, 0]
        for l1 in range(30):
            for l2 in range(30):
                expect = c * rho1 ** l1 * rho2 ** l2
                assert abs(mass[l1, l2] - expect) / expect < 1e-6

    def test_mass_sums_to_one(self):
        blocks = jackson.build_blocks(light_jackson())
        table = oracle.truncate_and_solve(blocks, (40, 40))
        assert table.pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert table.residual <= 1e-12

    def test_degenerate_single_node_geometric(self):
        # coordinate 2 only drifts down; the recurrent class is the first
        # axis, where the chain is a birth-death walk
        spec = scalar_rrw(0.15, 0.25, 0.0, 0.2,
                          face1={"up": 0.0, "right": 0.15, "left": 0.25},
                          face2={"right": 0.15, "up": 0.0, "down": 0.2},
                          origin={"right": 0.15, "up": 0.0})
        table = oracle.truncate_and_solve(spec, (80, 4))
        assert np.all(table.pi >= 0)
        mass = table.cell_mass()
        assert mass[:, 1:].sum() == pytest.approx(0.0, abs=1e-12)
        ratios = mass[1:40, 0] / mass[:39, 0]
        assert np.allclose(ratios, 0.15 / 0.25, atol=1e-10)

    def test_uniformization_preserves_stationary(self):
        # reinterpret the walk probabilities as rates: off-diagonal blocks
        # are copied, the four canonical families get the balancing diagonal
        spec = scalar_rrw(0.15, 0.25, 0.1, 0.2)
        fams = {}
        for reg in qbd2d.REGIONS:
            fam = {}
            for inc, b in spec.families[reg].items():
                if qbd2d.alias_target(*reg, *inc) is not None or inc == (0, 0):
                    continue
                fam[inc] = b.copy()
            fams[reg] = fam
        for reg in (("0", "0"), ("+", "0"), ("0", "+"), ("+", "+")):
            outflow = sum(float(b[0, 0]) for b in fams[reg].values())
            # the corner families alias these positive blocks; their own
            # extra blocks carry the same total as the blocked aliased ones,
            # so one balancing diagonal per canonical family suffices
            fams[reg][(0, 0)] = np.array([[-outflow]])
        cont = qbd2d.make_spec(fams, spec.dims, "continuous")
        assert qbd2d.validate_spec(cont) == []
        extent = (25, 25)
        table = oracle.truncate_and_solve(cont, extent)
        # direct dense solve of the truncated generator
        p, offsets, sizes, disc = oracle.build_truncated(cont, extent)
        nu = qbd2d.uniformization_rate(cont)
        q = (p.toarray() - np.eye(p.shape[0])) * nu
        a = np.vstack([q.T[:-1], np.ones(p.shape[0])])
        b = np.zeros(p.shape[0])
        b[-1] = 1.0
        pi = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(pi - table.pi)) < 1e-10


class TestBuildTruncated:
    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("extent", [(9, 6), (1, 4), (3, 1)])
    def test_equals_the_per_cell_loop(self, name, extent):
        p, offsets, sizes, disc = oracle.build_truncated(_shipped_spec(name),
                                                         extent)
        ref = loop_truncated(disc, extent)
        # redirected mass is summed in another order: allow 2 ulp of 1
        assert np.max(np.abs(p.toarray() - ref)) <= 4.5e-16
        assert np.array_equal(p.toarray() != 0, ref != 0)
        assert int(sizes.sum()) == p.shape[0] == ref.shape[0]


class TestTableWalkers:
    """The vectorized walkers against the former per-cell loops."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_against_loops(self, name):
        table = oracle.truncate_and_solve(_shipped_spec(name), (9, 6))
        assert np.allclose(table.cell_mass(), loop_cell_mass(table),
                           rtol=1e-13, atol=0.0)
        for coordinate, level in ((1, 0), (1, 1), (1, 4), (2, 0), (2, 7)):
            for phase in range(table.spec.dims[3]):
                assert np.allclose(
                    table.tail_sequence(coordinate, level, phase),
                    loop_tail_sequence(table, coordinate, level, phase),
                    rtol=1e-13, atol=0.0)
        for which in ("++", "+1", "1+"):
            for theta in ((0.0, 0.0), (0.3, -0.2), (-0.5, 0.7)):
                assert np.allclose(oracle._phi(table, which, theta),
                                   loop_phi(table, which, theta),
                                   rtol=1e-13, atol=0.0)


class TestSimulate:
    def test_seed_determinism(self):
        blocks = jackson.build_blocks(light_jackson())
        a = oracle.simulate(blocks, seed=7, steps=200_000, record_extent=(31, 31))
        b = oracle.simulate(blocks, seed=7, steps=200_000, record_extent=(31, 31))
        assert np.array_equal(a.counts, b.counts)
        c = oracle.simulate(blocks, seed=8, steps=200_000, record_extent=(31, 31))
        assert not np.array_equal(a.counts, c.counts)

    def test_deterministic_kernel_exact_trajectory(self):
        sim = oracle.simulate(right_march(), seed=1, steps=50,
                              record_extent=(63, 63))
        # marches right along the first axis: each cell visited exactly once
        for n in range(1, 51):
            assert sim.counts[n, 0, 0] == 1

    def test_substochastic_spec_rejected(self):
        spec = scalar_rrw(0.15, 0.12, 0.10, 0.14)
        fams = {reg: dict(fam) for reg, fam in spec.families.items()}
        fams[("+", "+")][(0, 0)] = 0.5 * fams[("+", "+")][(0, 0)]
        leaky = qbd2d.make_spec(fams, spec.dims, "discrete")
        with pytest.raises(NotStochastic, match="region \\+\\+ phase 0"):
            oracle.simulate(leaky, seed=1, steps=10)

    def test_solver_simulator_agreement(self):
        blocks = jackson.build_blocks(light_jackson())
        table = oracle.truncate_and_solve(blocks, (48, 48))
        sim = oracle.simulate(blocks, seed=123, steps=10_000_000,
                              record_extent=(48, 48))
        tv = 0.5 * np.abs(sim.cell_mass() - table.cell_mass()).sum()
        assert tv <= 0.01


def reference_simulate(spec, seed, steps, record_extent=(255, 255),
                       start=(0, 0, 0)):
    """The simulator's former stepper, kept as the same-path reference: all
    uniforms in one draw and one ``np.searchsorted`` (side left) per step on
    the jump table's lists."""
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    table = oracle._jump_table(spec)
    rec1, rec2 = record_extent
    counts = np.zeros((rec1 + 1, rec2 + 1, max(spec.dims)), dtype=np.int64)
    spill = 0
    l1, l2, k = start
    for u in np.random.Generator(np.random.PCG64(seed)).random(steps):
        s1 = 0 if l1 == 0 else (1 if l1 == 1 else 2)
        s2 = 0 if l2 == 0 else (1 if l2 == 1 else 2)
        cum, moves = table[s1 * 3 + s2][k]
        d1, d2, k = moves[int(np.searchsorted(cum, u))]
        l1 += d1
        l2 += d2
        if l1 <= rec1 and l2 <= rec2:
            counts[l1, l2, k] += 1
        else:
            spill += 1
    return counts, spill


def random_stochastic_spec(rng, order):
    """A valid discrete spec of interior order ``order`` with random face
    orders and sparse canonical blocks; aliased blocks are shared and each
    region's own blocks carry the rest of its row mass."""
    m = order
    dims = (*(int(d) for d in rng.integers(1, m + 1, size=3)), m)
    fams = {}
    for reg in [("0", "0"), ("+", "0"), ("0", "+"), ("+", "+")]:
        incs = qbd2d.allowed_increments(*reg)
        blocks = {}
        for inc in incs:
            shape = qbd2d.block_shape(dims, *reg, *inc)
            b = rng.random(shape) * (rng.random(shape) > 0.4)
            if inc == (0, 0):
                b += np.eye(shape[0])
            blocks[inc] = b
        total = sum(b.sum(axis=1) for b in blocks.values())
        fams[reg] = {inc: b / total[:, None] for inc, b in blocks.items()}
    for reg in [("1", "0"), ("0", "1"), ("1", "1"), ("+", "1"), ("1", "+")]:
        aliased, own = {}, {}
        for inc in qbd2d.allowed_increments(*reg):
            target = qbd2d.alias_target(*reg, *inc)
            if target is None:
                own[inc] = rng.random(qbd2d.block_shape(dims, *reg, *inc))
            else:
                aliased[inc] = fams[target[0]][target[1]]
        rest = 1.0 - sum(b.sum(axis=1) for b in aliased.values())
        own_total = sum(b.sum(axis=1) for b in own.values())
        fams[reg] = {**aliased, **{inc: b * (rest / own_total)[:, None]
                                   for inc, b in own.items()}}
    spec = qbd2d.make_spec(fams, dims, "discrete")
    assert not qbd2d.validate_spec(spec)
    return spec


def _shipped_spec(name):
    mf = modelfile.load_model(MODELS / f"{name}.yaml")
    return jackson.build_blocks(mf.payload) if mf.kind == "jackson" else mf.payload


class TestSimulateSamePath:
    """``simulate`` follows the reference stepper's sample path exactly:
    the same column rule and the same PCG64 stream, whatever the block
    size."""

    STEPS = 3 * oracle._BLOCK + 517   # several blocks and a partial one

    def _assert_same_path(self, spec, **kw):
        sim = oracle.simulate(spec, **kw)
        counts, spill = reference_simulate(spec, **kw)
        assert np.array_equal(sim.counts, counts)
        assert sim.spill == spill
        assert sim.counts.sum() + sim.spill == sim.steps
        return sim

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_models(self, name):
        self._assert_same_path(_shipped_spec(name), seed=7, steps=self.STEPS,
                               record_extent=(40, 40))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_random_stochastic_specs(self, order):
        spec = random_stochastic_spec(np.random.default_rng(100 + order), order)
        self._assert_same_path(spec, seed=order, steps=self.STEPS,
                               record_extent=(24, 24))

    def test_both_key_widths_run(self):
        """The specs above read their keys both as bytes (alphabets of at
        most 256 cuts) and as int lists (random orders 4-8), so neither
        branch of the key reader drops out of them."""
        specs = [_shipped_spec(name) for name in SHIPPED]
        specs += [random_stochastic_spec(np.random.default_rng(100 + order),
                                         order) for order in range(1, 9)]
        widths = [type(oracle._key_reader(_key_alphabet(spec))[1](np.zeros(1)))
                  for spec in specs]
        assert bytes in widths and list in widths

    def test_small_box_spills(self):
        sim = self._assert_same_path(_shipped_spec("modulated_rrw"), seed=3,
                                     steps=self.STEPS, record_extent=(3, 2))
        assert 0 < sim.spill < sim.steps

    def test_non_origin_start(self):
        self._assert_same_path(_shipped_spec("mapph_jackson"), seed=5,
                               steps=self.STEPS, record_extent=(30, 30),
                               start=(9, 4, 3))

    @pytest.mark.parametrize("steps", [0, 1, oracle._BLOCK - 1, oracle._BLOCK,
                                       oracle._BLOCK + 1, 2 * oracle._BLOCK])
    def test_block_boundaries(self, steps):
        self._assert_same_path(_shipped_spec("modulated_rrw"), seed=11,
                               steps=steps, record_extent=(16, 16))


class TestJumpTable:
    """The simulator's one jump table, read against the blocks it comes
    from, and sample paths pinned by digests taken before the table was
    rebuilt, so the same-path tests above do not only check the table
    against itself."""

    @staticmethod
    def _assert_table_matches_blocks(spec):
        if spec.time == "continuous":
            spec = qbd2d.uniformize(spec)
        table = oracle._jump_table(spec)
        for reg in qbd2d.REGIONS:
            rows = table[qbd2d._REP[reg[0]] * 3 + qbd2d._REP[reg[1]]]
            fam = spec.families[reg]
            assert len(rows) == fam[(0, 0)].shape[0]
            for r, (cum, moves) in enumerate(rows):
                probs, named = [], []
                for inc, block in fam.items():
                    for c in np.nonzero(block[r])[0]:
                        probs.append(block[r, c])
                        named.append((*inc, int(c)))
                assert moves == named
                assert np.allclose(np.diff(cum, prepend=0.0), probs,
                                   rtol=0.0, atol=1e-15)
                assert cum[-1] == 1.0

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_models(self, name):
        self._assert_table_matches_blocks(_shipped_spec(name))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_random_stochastic_specs(self, order):
        self._assert_table_matches_blocks(
            random_stochastic_spec(np.random.default_rng(100 + order), order))

    @pytest.mark.parametrize("name, digest", [
        ("scalar_rrw", "ee2f682cb10e17d2"),
        ("mapph_jackson", "af1439f77f268d92"),
    ])
    def test_golden_sample_path(self, name, digest):
        sim = oracle.simulate(_shipped_spec(name), seed=7, steps=100_000,
                              record_extent=(40, 40))
        got = hashlib.sha256(sim.counts.astype("<i8").tobytes()).hexdigest()
        assert got[:16] == digest
        assert sim.spill == 0


class _TopUniforms:
    """Generator stand-in whose every uniform is 1 - 1e-10."""

    def __init__(self, bit_generator):
        pass

    def random(self, size):
        return np.full(size, 1.0 - 1e-10)


def _lowered(spec, reg, inc, row, col, by=5e-10):
    fams = {r: {i: b.copy() for i, b in fam.items()}
            for r, fam in spec.families.items()}
    fams[reg][inc][row, col] -= by
    return qbd2d.make_spec(fams, spec.dims, spec.time)


class TestRowsJustUnderOne:
    """A row within 1e-9 of 1 is accepted; a uniform above its sum must
    still take the row's last real move."""

    def test_widest_row_takes_last_move(self, monkeypatch):
        spec = _lowered(scalar_rrw(0.15, 0.12, 0.10, 0.14),
                        ("+", "+"), (0, 0), 0, 0)
        monkeypatch.setattr(np.random, "Generator", _TopUniforms)
        sim = oracle.simulate(spec, seed=1, steps=3, record_extent=(10, 10),
                              start=(5, 5, 0))
        # the last interior move is (+1, 0)
        assert [sim.counts[l1, 5, 0] for l1 in (6, 7, 8)] == [1, 1, 1]

    def test_narrow_row_takes_no_padding_column(self, monkeypatch):
        spec = _lowered(_shipped_spec("modulated_rrw"),
                        ("0", "0"), (0, 0), 1, 0)
        monkeypatch.setattr(np.random, "Generator", _TopUniforms)
        sim = oracle.simulate(spec, seed=1, steps=1, record_extent=(4, 4),
                              start=(0, 0, 1))
        # the origin phase-1 row's last move is (+1, 0) to phase 1
        assert sim.counts[1, 0, 1] == 1


def _edge_uniforms(spec):
    """Generator stand-in cycling through, in a fixed shuffled order, every
    cumulative breakpoint of the spec's jump table and every key-bin edge
    b/L of its key alphabet, each also one ulp either side, keeping those
    in [0, 1)."""
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    cuts = {c for rows in oracle._jump_table(spec) for cum, _ in rows
            for c in cum}
    bins = oracle._key_reader(_key_alphabet(spec))[0]
    cuts.update(np.arange(bins) / bins)
    cuts = np.array(sorted(cuts))
    near = np.concatenate((cuts, np.nextafter(cuts, 0.0),
                           np.nextafter(cuts, 1.0)))
    values = near[(near >= 0.0) & (near < 1.0)]
    np.random.default_rng(0).shuffle(values)

    class EdgeUniforms:
        def __init__(self, bit_generator):
            self.drawn = 0

        def random(self, size):
            picks = values[(self.drawn + np.arange(size)) % values.size]
            self.drawn += size
            return picks

    return EdgeUniforms


def _dyadic_walk():
    """A stable walk with probabilities 1/8 and 1/4, so that every
    cumulative breakpoint is a key-bin edge."""
    return scalar_rrw(0.125, 0.25, 0.125, 0.25)


class TestGuideTableEdges:
    """Uniforms exactly at a breakpoint or a key-bin edge, or one ulp from
    either, take the reference stepper's column whether their key comes
    from a bin or from ``np.searchsorted``, on the code path and on the
    coordinate path outside the box."""

    STEPS = 3 * oracle._BLOCK + 517

    def _assert_same_path(self, monkeypatch, spec, **kw):
        monkeypatch.setattr(np.random, "Generator", _edge_uniforms(spec))
        sim = oracle.simulate(spec, seed=0, steps=self.STEPS, **kw)
        counts, spill = reference_simulate(spec, seed=0, steps=self.STEPS,
                                           **kw)
        assert np.array_equal(sim.counts, counts)
        assert sim.spill == spill
        return sim

    def test_dyadic_breakpoints_on_bin_edges(self, monkeypatch):
        sim = self._assert_same_path(monkeypatch, _dyadic_walk(),
                                     record_extent=(24, 24))
        assert sim.spill == 0

    def test_start_outside_the_box(self, monkeypatch):
        sim = self._assert_same_path(monkeypatch, _dyadic_walk(),
                                     record_extent=(6, 6), start=(12, 3, 0))
        assert 0 < sim.spill < sim.steps

    def test_one_cell_box(self, monkeypatch):
        sim = self._assert_same_path(monkeypatch, _dyadic_walk(),
                                     record_extent=(0, 0))
        assert 0 < sim.spill < sim.steps

    def test_continuous_multi_phase_model(self, monkeypatch):
        spec = _shipped_spec("mapph_jackson")
        assert spec.time == "continuous" and max(spec.dims) > 1
        self._assert_same_path(monkeypatch, spec, record_extent=(16, 16),
                               start=(2, 3, 1))


class _CountedRegions(list):
    """The simulator's key tables by region, counting each read by region:
    only the coordinate path reads them so, the code path reads a row's
    table through its state code."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, region):
        self.reads += 1
        return super().__getitem__(region)


@pytest.mark.parametrize("extent", [(40, 40), (6, 6)], ids=["box40", "box6"])
@pytest.mark.parametrize("name", SHIPPED)
def test_only_steps_from_outside_the_box_take_the_coordinate_path(
        name, extent, monkeypatch):
    """Each step from a sentinel cell or beyond the box follows a spilled
    visit, so the coordinate path runs once per spilled visit but perhaps
    the last one; every step from inside the box reads its code's table."""
    seen = []

    def counted(*args):
        cuts, by_key = key_tables(*args)
        seen.append(_CountedRegions(by_key))
        return cuts, seen[-1]

    key_tables = oracle._key_tables
    monkeypatch.setattr(oracle, "_key_tables", counted)
    sim = oracle.simulate(_shipped_spec(name), seed=7, steps=100_000,
                          record_extent=extent)
    assert sim.spill - 1 <= seen[0].reads <= sim.spill
    if extent == (40, 40):
        assert sim.spill == 0
    else:
        assert sim.spill > 100


def _key_alphabet(spec):
    if spec.time == "continuous":
        spec = qbd2d.uniformize(spec)
    m = max(spec.dims)
    return oracle._key_tables(oracle._jump_table(spec), 3 * m, m)[0]


class TestKeyAlphabet:
    """Every row's breakpoints are cuts, so the key of u fixes the row's
    column: at both ends of each key's u-interval, the row's table gives
    the increment of the move ``bisect_left(cum, u)`` picks, and the key
    reader gives that key."""

    @staticmethod
    def _assert_exact(spec):
        if spec.time == "continuous":
            spec = qbd2d.uniformize(spec)
        m = max(spec.dims)
        row_len = 5 * m
        table = oracle._jump_table(spec)
        cuts, by_key = oracle._key_tables(table, row_len, m)
        assert cuts[-1] == 1.0 and np.all(np.diff(cuts) > 0)
        lows = np.concatenate(([0.0], np.nextafter(cuts[:-1], 1.0)))
        highs = np.append(cuts[:-1], np.nextafter(1.0, 0.0))
        keys = np.arange(cuts.size)
        keep = lows <= highs  # an interval may hold no double below 1
        keys_of = oracle._key_reader(cuts)[1]
        for ends in (lows, highs):
            assert list(keys_of(ends[keep])) == keys[keep].tolist()
        for region, rows in enumerate(table):
            for k, (cum, moves) in enumerate(rows):
                row = by_key[region][k]
                assert len(row) == cuts.size
                for key in keys[keep].tolist():
                    for u in (lows[key], highs[key]):
                        d1, d2, c = moves[bisect.bisect_left(cum, u)]
                        assert row[key] == d1 * row_len + d2 * m + c - k

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_models(self, name):
        self._assert_exact(_shipped_spec(name))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_random_stochastic_specs(self, order):
        self._assert_exact(
            random_stochastic_spec(np.random.default_rng(100 + order), order))


@pytest.mark.parametrize("name,start", [
    ("scalar_rrw", (-1, 0, 0)), ("scalar_rrw", (0, 0, 1)),
    ("mapph_jackson", (0, 0, 2)), ("mapph_jackson", (3, 0, 4)),
    ("mapph_jackson", (0, 3, 4)), ("mapph_jackson", (30, 3, 8))])
def test_start_that_is_not_a_state_is_a_typed_error(name, start):
    # a negative level, or a phase at or above the phase count of the
    # start's region (m0, m1, m2, m): (2, 4, 4, 8) for mapph_jackson
    with pytest.raises(InvalidStart):
        oracle.simulate(_shipped_spec(name), seed=0, steps=1000,
                        record_extent=(10, 10), start=start)


def test_last_phase_of_each_region_is_a_start():
    spec = _shipped_spec("mapph_jackson")
    for start in ((0, 0, 1), (3, 0, 3), (0, 3, 3), (30, 3, 7)):
        sim = oracle.simulate(spec, seed=0, steps=100, record_extent=(10, 10),
                              start=start)
        assert sim.counts.sum() + sim.spill == 100


class TestEstimateDecay:
    class _GeometricSource:
        def __init__(self, rho, n):
            self.rho = rho
            self.n = n

        def tail_sequence(self, coordinate, level, phase):
            ns = np.arange(1, self.n + 1)
            return self.rho ** ns

    def test_exact_geometric_slope(self):
        src = self._GeometricSource(0.61, 120)
        est = oracle.estimate_decay(src, 1)
        assert est.slope == pytest.approx(np.log(0.61), abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_product_form_slope_close_to_tau(self):
        spec = light_jackson()
        blocks = jackson.build_blocks(spec)
        table = oracle.truncate_and_solve(blocks, (80, 80))
        rho1, _ = jackson.traffic_check(spec).rho
        est = oracle.estimate_decay(table, 1, level=0, phase=0)
        assert est.slope == pytest.approx(np.log(rho1), rel=0.02)

    def test_slope_improves_with_extent(self):
        # doubling the truncation moves the fitted slope toward the
        # analytic rate on five exponential instances; loads are heavy
        # enough that the error at the small extent is truncation-dominated
        cases = [(1.0, 0.5, 1.6, 2.2), (1.3, 0.4, 1.9, 2.0),
                 (1.0, 0.8, 1.5, 1.8), (0.9, 0.9, 1.4, 1.9),
                 (1.2, 0.3, 1.7, 1.6)]
        for lam1, lam2, mu1, mu2 in cases:
            spec = jackson.JacksonSpec(
                arrivals=(jackson.poisson_map(lam1), jackson.poisson_map(lam2)),
                services=(jackson.exponential_ph(mu1), jackson.exponential_ph(mu2)),
                r12=0.3, r21=0.2)
            blocks = jackson.build_blocks(spec)
            rho1, _ = jackson.traffic_check(spec).rho
            errs = []
            for extent in (40, 80):
                table = oracle.truncate_and_solve(blocks, (extent, extent))
                est = oracle.estimate_decay(table, 1, level=0, phase=0)
                errs.append(abs(est.slope - np.log(rho1)))
            assert errs[1] < errs[0]

    def test_empty_window(self):
        src = self._GeometricSource(0.0, 40)
        with pytest.raises(EmptyWindow):
            oracle.estimate_decay(src, 1)

    def test_direction_slope_on_table(self):
        blocks = jackson.build_blocks(light_jackson())
        table = oracle.truncate_and_solve(blocks, (60, 60))
        est = oracle.estimate_decay_direction(table, (1.0, 0.0))
        rho1, _ = jackson.traffic_check(light_jackson()).rho
        assert est.slope == pytest.approx(np.log(rho1), rel=0.05)

    def test_tail_csv(self, tmp_path):
        src = self._GeometricSource(0.5, 20)
        path = tmp_path / "tail.csv"
        oracle.tail_csv(src, 1, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,log_tail"
        n, logt = lines[3].split(",")
        assert float(logt) == pytest.approx(int(n) * np.log(0.5), abs=1e-9)


class TestStationaryIdentity:
    def test_scalar_walk_residual_tiny(self):
        spec = scalar_rrw(0.12, 0.22, 0.1, 0.2)
        table = oracle.truncate_and_solve(spec, (70, 70))
        res = oracle.stationary_identity_residual(table, spec, (0.05, 0.05))
        assert res <= 1e-10

    def test_jackson_residual_small_inside(self):
        spec = light_jackson()
        blocks = jackson.build_blocks(spec)
        table = oracle.truncate_and_solve(blocks, (60, 60))
        res = oracle.stationary_identity_residual(table, blocks, (0.1, 0.1))
        assert res <= 1e-8

    def test_residual_grows_toward_boundary(self):
        # deep inside, the residual is round-off; nearer tau_1 the
        # truncation bias rises above it and grows
        spec = light_jackson()
        blocks = jackson.build_blocks(spec)
        table = oracle.truncate_and_solve(blocks, (60, 60))
        rho1, _ = jackson.traffic_check(spec).rho
        tau1 = -np.log(rho1)
        rs = [oracle.stationary_identity_residual(table, blocks,
                                                  (frac * tau1, 0.05))
              for frac in (0.1, 0.3, 0.35, 0.4)]
        assert rs[0] <= 1e-14
        assert rs[1] < rs[2] < rs[3]

    def test_outside_domain_raises(self):
        spec = light_jackson()
        blocks = jackson.build_blocks(spec)
        table = oracle.truncate_and_solve(blocks, (40, 40))
        with pytest.raises(ThetaOutsideDomain):
            oracle.stationary_identity_residual(table, blocks, (2.0, 2.0))

    def test_shipped_models_identity_residual(self):
        # the censored stationary identity holds on every shipped example
        from pathlib import Path
        from qbdtail import modelfile
        models = Path(__file__).resolve().parent.parent / "models"
        setups = {
            "scalar_rrw": ((100, 100), 0.3),
            "modulated_rrw": ((100, 100), 0.3),
            "tandem_jackson": ((80, 80), 0.35),
            "mapph_jackson": ((120, 120), 0.1),
        }
        for name, (extent, frac) in setups.items():
            mf = modelfile.load_model(models / f"{name}.yaml")
            spec = (jackson.build_blocks(mf.payload)
                    if mf.kind == "jackson" else mf.payload)
            table = oracle.truncate_and_solve(spec, extent)
            tau = qbd2d.level_curve(spec, scan=64).tau_report().tau
            worst = 0.0
            for f1 in np.linspace(0.05, frac, 5):
                for f2 in (0.1, 0.3):
                    theta = (f1 * tau[0], f2 * tau[1])
                    worst = max(worst, oracle.stationary_identity_residual(
                        table, spec, theta))
            assert worst <= 1e-6, f"{name}: residual {worst:.2e}"
