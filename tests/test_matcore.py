import numpy as np
import pytest

from qbdtail import matcore, qbd1d
from qbdtail.errors import (
    IllConditioned,
    NegativeEntry,
    NoConvergence,
    NonFiniteEntry,
    NonPositiveScale,
    NotIrreducible,
    QbdTailError,
    ShapeMismatch,
    SpectralRadiusNotBelowOne,
)


def char_poly_largest_root(t):
    """Independent oracle: largest real root of the characteristic polynomial
    of a 3x3 matrix, with coefficients formed from trace/minors/determinant."""
    t = np.asarray(t, dtype=float)
    assert t.shape == (3, 3)
    tr = np.trace(t)
    # sum of principal 2x2 minors
    m = 0.0
    for i in range(3):
        idx = [j for j in range(3) if j != i]
        sub = t[np.ix_(idx, idx)]
        m += np.linalg.det(sub)
    det = np.linalg.det(t)
    roots = np.roots([1.0, -tr, m, -det])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return float(np.max(real))


def random_metzler(rng, n, generator=False):
    """Nonnegative off-diagonal part with a negative diagonal; generator rows
    sum to zero, so the dominant eigenvalue is 0."""
    t = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(t, 0.0)
    extra = 0.0 if generator else rng.uniform(0.0, 3.0, size=n)
    np.fill_diagonal(t, -t.sum(axis=1) - extra)
    return t


def assert_certified(t, res):
    """lo <= value <= hi, a strictly positive right vector of sum 1, and
    T right = value right up to the bracket."""
    assert res.lo <= res.value <= res.hi
    assert np.all(res.right > 0)
    assert res.right.sum() == pytest.approx(1.0, abs=1e-14)
    scale = 1.0 + np.max(np.abs(t))
    assert np.max(np.abs(t @ res.right - res.value * res.right)) <= 1e-12 * scale


class TestPfEigen:
    def test_stochastic_fixed_point(self):
        t = np.array([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]])
        res = matcore.dominant(t)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        # right vector proportional to the ones vector
        assert np.allclose(res.right, np.full(3, 1.0 / 3.0), atol=1e-10)

    def test_two_by_two_antidiagonal(self):
        a, b = 0.7, 0.2
        res = matcore.dominant(np.array([[0.0, a], [b, 0.0]]))
        assert res.value == pytest.approx(np.sqrt(a * b), abs=1e-12)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = rng.uniform(0.01, 1.0, size=(3, 3))
            res = matcore.dominant(t)
            assert res.value == pytest.approx(char_poly_largest_root(t), abs=1e-10)

    def test_residual_and_normalisation(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.1, 1.0, size=(4, 4))
        assert_certified(t, matcore.dominant(t))
        assert_certified(t.T, matcore.dominant(t.T))

    def test_transpose_swaps_vectors(self):
        # the left vector of T is the right vector of T^T, and u^T v pairs
        # them: u^T T v = value u^T v from either side
        rng = np.random.default_rng(11)
        t = rng.uniform(0.05, 1.0, size=(4, 4))
        a = matcore.dominant(t)
        b = matcore.dominant(t.T)
        assert a.value == pytest.approx(b.value, abs=1e-11)
        assert np.allclose(b.right @ t, a.value * b.right, atol=1e-12)
        assert float(b.right @ t @ a.right) == pytest.approx(
            a.value * float(b.right @ a.right), abs=1e-12)

    def test_diagonal_similarity_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = rng.uniform(0.05, 1.0, size=(3, 3))
            d = rng.uniform(0.2, 5.0, size=3)
            sim = t * d[np.newaxis, :] / d[:, np.newaxis]
            assert matcore.dominant(sim).value == pytest.approx(
                matcore.dominant(t).value, abs=1e-10)

    def test_not_irreducible(self):
        # the pattern check runs once per spec ...
        a = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(NotIrreducible):
            qbd1d.QbdBlocks(b0=[[0.5]], b1=[[0.5, 0.0]], bm1=[[0.5], [0.5]],
                            am1=0.2 * a, a0=0.3 * a, a1=0.5 * a)
        # ... and the kernel refuses a Perron vector with a zero entry
        for t in ([[1.0, 0.5], [0.0, 0.5]], [[0.5, 0.0], [0.5, 0.5]],
                  [[1.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]):
            with pytest.raises(NotIrreducible):
                matcore.dominant(np.array(t))

    def test_periodic_matrix_converges(self):
        # plain power iteration would oscillate on these cycles
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert matcore.dominant(t).value == pytest.approx(1.0, abs=1e-12)
        cycle = np.roll(np.eye(3), 1, axis=1)
        assert matcore.dominant(cycle).value == pytest.approx(1.0, abs=1e-12)

    def test_one_by_one(self):
        res = matcore.dominant(np.array([[0.0]]))
        assert res.value == 0.0
        assert res.right[0] == 1.0
        assert (res.lo, res.hi) == (0.0, 0.0)

    def test_matches_eigvals_property(self):
        rng = np.random.default_rng(20261018)
        cases = []
        for n in range(1, 9):
            for _ in range(25):
                cases.append(rng.uniform(0.0, 1.0, size=(n, n)))
                cases.append(random_metzler(rng, n))
                cases.append(random_metzler(rng, n, generator=True))
        # 2x2 with b*c near 0 on either side of the diagonal split
        for b, c in ((1e-14, 0.5), (0.5, 1e-14), (1e-300, 1e-9), (3e-8, 2e-9)):
            for a, d in ((0.3, 0.7), (0.7, 0.3), (-2.0, -2.0 + 1e-9)):
                cases.append(np.array([[a, b], [c, d]]))
        # generator rows with one tiny rate: eigenvalue 0 next to -1e-12
        for eps in (1e-6, 1e-9, 1e-12):
            cases.append(np.array([[-eps, eps], [2.0, -2.0]]))
        for t in cases:
            res = matcore.dominant(t)
            ref = float(np.max(np.linalg.eigvals(t).real))
            scale = max(abs(ref), 1.0 + np.max(np.abs(np.diag(t))))
            assert abs(res.value - ref) <= 1e-12 * scale
            assert_certified(t, res)

    def test_two_by_two_closed_form_cancellation(self):
        # nearly reducible: the vector form (b, s - h) would cancel to a zero
        # entry here, the form (h + s, c) keeps both entries exact
        res = matcore.dominant(np.array([[1.0, 1e-20], [1.0, 0.6]]))
        assert res.right[1] / res.right[0] == pytest.approx(1.0 / 0.4, rel=1e-15)
        res = matcore.dominant(np.array([[0.6, 1.0], [1e-20, 1.0]]))
        assert res.right[0] / res.right[1] == pytest.approx(1.0 / 0.4, rel=1e-15)


class TestTypedErrors:
    def test_as_matrix_non_finite(self):
        with pytest.raises(NonFiniteEntry):
            matcore.as_matrix([[1.0, np.nan]])

    def test_dominant_non_finite(self):
        for n in (1, 2, 3):
            t = np.ones((n, n))
            t[0, -1] = np.inf
            with pytest.raises(NonFiniteEntry):
                matcore.dominant(t)

    def test_nonnegative_check(self):
        with pytest.raises(NegativeEntry):
            matcore.neumann_inverse(np.array([[0.1, -0.1], [0.0, 0.2]]))

    def test_off_diagonal_sign_check(self):
        for t in ([[-1.0, -0.5], [1.0, -1.0]],
                  [[-1.0, 0.5, 0.0], [0.2, -1.0, -0.1], [0.3, 0.0, -1.0]]):
            with pytest.raises(NegativeEntry):
                matcore.dominant(np.array(t))

    def test_neumann_negative_result(self, monkeypatch):
        monkeypatch.setattr(matcore.np.linalg, "solve",
                            lambda a, b: -np.ones_like(b))
        with pytest.raises(IllConditioned, match="negative"):
            matcore.neumann_inverse(np.array([[0.2, 0.1], [0.1, 0.2]]))

    def test_neumann_verification(self, monkeypatch):
        monkeypatch.setattr(matcore.np.linalg, "solve",
                            lambda a, b: 2.0 * np.ones_like(b))
        with pytest.raises(IllConditioned, match="verification"):
            matcore.neumann_inverse(np.array([[0.2, 0.1], [0.1, 0.2]]))

    def test_errors_are_library_errors(self):
        for cls in (NonFiniteEntry, NegativeEntry, IllConditioned):
            assert issubclass(cls, QbdTailError)


class TestKron:
    def test_scalar_sum(self):
        out = matcore.kron_sum(np.array([[1.0]]), np.array([[2.0]]))
        assert out == pytest.approx(np.array([[3.0]]))

    def test_identity_product_block_diagonal(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matcore.kron_prod(np.eye(2), b)
        assert np.allclose(out[:2, :2], b)
        assert np.allclose(out[2:, 2:], b)
        assert np.allclose(out[:2, 2:], 0)

    def test_spectral_additivity(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[0.0, 2.0], [2.0, 0.0]])
        res = matcore.dominant(matcore.kron_sum(a, b))
        assert res.value == pytest.approx(3.0, abs=1e-11)

    def test_spectral_additivity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.uniform(0.05, 1.0, size=(2, 2))
            b = rng.uniform(0.05, 1.0, size=(3, 3))
            ra, rb = matcore.dominant(a), matcore.dominant(b)
            rs = matcore.dominant(matcore.kron_sum(a, b))
            assert rs.value == pytest.approx(ra.value + rb.value, abs=1e-10)
            # eigenvector of the sum is the Kronecker product of the factors
            hv = np.kron(ra.right, rb.right)
            hv /= hv.sum()
            assert np.allclose(rs.right, hv, atol=1e-8)

    def test_kron_sum_shape_check(self):
        with pytest.raises(ShapeMismatch):
            matcore.kron_sum(np.ones((2, 3)), np.eye(2))

    def test_kron_prod_is_np_kron(self):
        """Bit-identical to ``np.kron`` on every pair of shapes from 1x1 to
        4x3, and lane by lane on stacks, broadcast ones included."""
        rng = np.random.default_rng(31)
        shapes = [(m, n) for m in range(1, 5) for n in range(1, 4)]
        for sa in shapes:
            for sb in shapes:
                a, b = rng.normal(size=sa), rng.normal(size=sb)
                assert matcore.kron_prod(a, b).tobytes() == np.kron(a, b).tobytes()
        a, b = rng.normal(size=(5, 2, 3)), rng.normal(size=(5, 4, 1))
        out = matcore.kron_prod(a, b)
        assert out.shape == (5, 8, 3)
        for k in range(5):
            assert out[k].tobytes() == np.kron(a[k], b[k]).tobytes()
        out = matcore.kron_prod(a, b[0])
        for k in range(5):
            assert out[k].tobytes() == np.kron(a[k], b[0]).tobytes()
        cols = [rng.uniform(size=(7, k, 1)) for k in (2, 1, 3)]
        out = matcore.kron_prod(matcore.kron_prod(cols[0], cols[1]), cols[2])
        for k in range(7):
            ref = np.kron(np.kron(cols[0][k, :, 0], cols[1][k, :, 0]), cols[2][k, :, 0])
            assert out[k, :, 0].tobytes() == ref.tobytes()

    def test_kron_prod_shape_check(self):
        with pytest.raises(ShapeMismatch):
            matcore.kron_prod(np.ones(3), np.eye(2))


class TestNeumannInverse:
    def test_zero_matrix(self):
        assert np.allclose(matcore.neumann_inverse(np.zeros((3, 3))), np.eye(3))

    def test_scalar_geometric(self):
        assert matcore.neumann_inverse(np.array([[0.5]]))[0, 0] == pytest.approx(2.0)

    def test_matches_direct_solve(self):
        t = np.array([[0.2, 0.3], [0.1, 0.4]])
        direct = np.linalg.solve(np.eye(2) - t, np.eye(2))
        assert np.allclose(matcore.neumann_inverse(t), direct, atol=1e-12)

    def test_matches_truncated_power_sum(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0.0, 0.25, size=(3, 3))
        radius = matcore.spectral_radius(t)
        # remainder bound: radius^(n+1)/(1-radius) <= 1e-9
        n = int(np.ceil(np.log(1e-9 * (1 - radius)) / np.log(radius)))
        acc = np.zeros((3, 3))
        power = np.eye(3)
        for _ in range(n + 1):
            acc += power
            power = power @ t
        assert np.allclose(matcore.neumann_inverse(t), acc, atol=1e-8)
        assert np.all(matcore.neumann_inverse(t) >= 0)

    def test_rejects_radius_at_one(self):
        t = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SpectralRadiusNotBelowOne):
            matcore.neumann_inverse(t)


class TestStacks:
    """A stack (n, m, m) is solved lane by lane by the single-matrix rule."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_lanes_equal_single_calls(self, m):
        rng = np.random.default_rng(7000 + m)
        stack = np.array([rng.uniform(0.0, 1.0, size=(m, m)) for _ in range(5)]
                         + [random_metzler(rng, m) for _ in range(5)]
                         + [random_metzler(rng, m, generator=True)
                            for _ in range(3)])
        res = matcore.dominant(stack)
        assert res.value.shape == res.lo.shape == res.hi.shape == (len(stack),)
        assert res.right.shape == (len(stack), m)
        for k, t in enumerate(stack):
            one = matcore.dominant(t)
            assert (res.value[k], res.lo[k], res.hi[k]) == (one.value, one.lo, one.hi)
            assert np.array_equal(res.right[k], one.right)
            assert_certified(t, one)

    @pytest.mark.parametrize("bad", [
        np.array([[0.2, 0.0], [0.3, 0.5]]),                       # reducible
        np.array([[0.8, 0.1, 0.1], [0.0, 0.3, 0.2], [0.0, 0.1, 0.4]]),
        np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1e-15, 0.0, 1.0]]),
        np.array([[0.2, -0.1], [0.3, 0.1]]),
        np.array([[np.inf, 0.1], [0.3, 0.1]]),
    ], ids=["reducible_2", "reducible_3", "wide_bracket_3", "negative_2",
            "infinite_2"])
    def test_a_failing_lane_raises_the_single_error(self, bad):
        rng = np.random.default_rng(3)
        m = bad.shape[0]
        with pytest.raises(QbdTailError) as single:
            matcore.dominant(bad)
        stack = np.array([rng.uniform(0.1, 1.0, size=(m, m)), bad,
                          rng.uniform(0.1, 1.0, size=(m, m))])
        with pytest.raises(QbdTailError) as stacked:
            matcore.dominant(stack)
        assert type(stacked.value) is type(single.value)

    @pytest.mark.parametrize("n", [0, 1, matcore.SCALAR_LANES,
                                   matcore.SCALAR_LANES + 1, 64])
    def test_order_2_lanes_equal_single_calls_on_both_paths(self, n):
        # up to SCALAR_LANES lanes the closed form runs in scalar
        # arithmetic, above as arrays: the same bits either way; an empty
        # stack gives empty fields
        rng = np.random.default_rng(7100 + n)
        stack = np.array([random_metzler(rng, 2, generator=k % 3 == 0)
                          if k % 2 else rng.uniform(0.0, 1.0, size=(2, 2))
                          for k in range(n)]).reshape(n, 2, 2)
        res = matcore.dominant(stack)
        assert (res.value.shape, res.lo.shape, res.hi.shape,
                res.right.shape) == ((n,), (n,), (n,), (n, 2))
        for k, t in enumerate(stack):
            one = matcore.dominant(t)
            assert (res.value[k], res.lo[k], res.hi[k]) == (one.value, one.lo, one.hi)
            assert np.array_equal(res.right[k], one.right)
        assert res.right.flags.c_contiguous

    @pytest.mark.parametrize("lanes", [
        ("reducible", "negative"), ("negative", "reducible"),
        ("reducible", "wide"), ("wide", "reducible"),
    ])
    def test_order_2_errors_come_in_one_order_on_both_paths(self, lanes):
        # every path raises a negative entry before a zero vector entry
        # before a wide bracket, whichever lane holds each
        bad = {"reducible": [[0.2, 0.0], [0.3, 0.5]],
               "negative": [[0.2, -0.1], [0.3, 0.1]],
               # a subnormal entry leaves the bracket wider than PF_TOL
               "wide": [[0.0, 1e300], [5e-324, 0.0]]}
        want = {"negative": NegativeEntry, "reducible": NotIrreducible,
                "wide": NoConvergence}
        expected = min((want[name] for name in lanes),
                       key=[NegativeEntry, NotIrreducible, NoConvergence].index)
        rng = np.random.default_rng(11)
        for n in (len(lanes), matcore.SCALAR_LANES + 1):
            stack = np.array([bad[name] for name in lanes]
                             + [rng.uniform(0.1, 1.0, size=(2, 2))
                                for _ in range(n - len(lanes))])
            with pytest.raises(expected):
                matcore.dominant(stack)

    @pytest.mark.parametrize("lanes", [0, 2, matcore.SCALAR_LANES + 1],
                             ids=["single", "scalar_lanes", "array_lanes"])
    def test_order_2_wide_bracket_is_no_convergence(self, lanes, monkeypatch):
        # below zero, PF_TOL makes every bracket too wide, on each order-2 path
        monkeypatch.setattr(matcore, "PF_TOL", -1.0)
        t = np.array([[0.5, 0.2], [0.3, 0.4]])
        with pytest.raises(NoConvergence, match="Collatz-Wielandt bracket"):
            matcore.dominant(t if lanes == 0 else np.array([t] * lanes))

    def test_wide_bracket_is_no_convergence(self):
        with pytest.raises(NoConvergence):
            matcore.dominant(np.array([[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                        [1e-15, 0.0, 1.0]]]))

    def test_neumann_lanes(self):
        """``m_inverses`` lane by lane: I - T lanes equal ``neumann_inverse``
        and read 1 - spectral radius, a lane with radius above 1 is NaN, and
        -Q of a Metzler Q (a continuous-time face) is the dense inverse."""
        rng = np.random.default_rng(5)
        good = [rng.uniform(0.0, 0.3, size=(3, 3)) for _ in range(3)]
        stack = np.array(good[:1] + [np.full((3, 3), 0.5)] + good[1:])
        x, low = matcore.m_inverses(np.eye(3) - stack)
        assert low.shape == (4,)
        assert low[1] == pytest.approx(-0.5)
        assert np.all(np.isnan(x[1]))
        for k in (0, 2, 3):
            assert 1.0 - low[k] == pytest.approx(matcore.spectral_radius(stack[k]),
                                                 abs=1e-15)
            assert np.allclose(x[k], matcore.neumann_inverse(stack[k]),
                               atol=1e-15)
        q = random_metzler(rng, 3)
        gen = random_metzler(rng, 3, generator=True)
        x, low = matcore.m_inverses(np.array([-q, -gen]))
        assert low[0] == pytest.approx(-float(np.max(np.linalg.eigvals(q).real)),
                                       abs=1e-12)
        assert low[0] >= matcore.NEUMANN_MARGIN
        assert np.all(x[0] >= 0)
        assert np.allclose(x[0], np.linalg.solve(-q, np.eye(3)), atol=1e-15)
        # a generator is singular: its abscissa 0 is refused
        assert abs(low[1]) < 1e-12
        assert np.all(np.isnan(x[1]))


    def test_a_stack_with_no_invertible_lane_is_all_nan(self):
        # every lane refused: NaN inverses and the least eigenvalues, no error
        for m in (1, 2, 3):
            stack = np.array([np.eye(m) - np.full((m, m), v / m)
                              for v in (1.0, 1.5, 3.0)])
            x, low = matcore.m_inverses(stack)
            assert x.shape == stack.shape and np.isnan(x).all()
            assert np.array_equal(low, matcore.least_eigenvalue(stack))
            assert (low < matcore.NEUMANN_MARGIN).all()

    @pytest.mark.parametrize("m", [1, 2])
    def test_mixed_lanes_equal_single_calls_bit_for_bit(self, m):
        # invertible lanes take the solve, refused ones are NaN, and each
        # lane is the single-matrix call's bits
        rng = np.random.default_rng(8000 + m)
        t = np.array([rng.uniform(0.0, 2.0 / m, size=(m, m)) for _ in range(9)])
        stack = np.eye(m) - t
        x, low = matcore.m_inverses(stack)
        ok = low >= matcore.NEUMANN_MARGIN
        assert ok.any() and not ok.all()
        for k, a in enumerate(stack):
            one_x, one_low = matcore.m_inverses(a)
            assert low[k] == one_low
            assert np.array_equal(x[k], one_x, equal_nan=True)
            assert np.isnan(one_x).all() != ok[k]


class TestTwist:
    def test_identity_transform(self):
        blocks = [np.array([[0.1, 0.2], [0.3, 0.4]]) for _ in range(3)]
        out = matcore.twist(blocks, np.ones(2), 0.0, (-1, 0, 1))
        for orig, tw in zip(blocks, out):
            assert np.allclose(orig, tw)

    def test_scalar_blocks_sum_to_one_at_root(self):
        # 0.1 x^2 - 0.8 x + 0.5 = 0 encodes a1 e^{2t} + (a0-1) e^t + am1 = 0
        am1, a0, a1 = 0.5, 0.2, 0.1
        x = min(np.roots([a1, a0 - 1.0, am1]).real)
        theta = np.log(x)
        out = matcore.twist([np.array([[v]]) for v in (am1, a0, a1)],
                            np.ones(1), theta, (-1, 0, 1))
        assert sum(b[0, 0] for b in out) == pytest.approx(1.0, abs=1e-12)

    def test_row_sums_equal_eigenvalue(self):
        rng = np.random.default_rng(9)
        blocks = [rng.uniform(0.01, 0.4, size=(3, 3)) for _ in range(3)]
        for theta in (-0.7, 0.0, 0.9):
            mgf = (np.exp(-theta) * blocks[0] + blocks[1]
                   + np.exp(theta) * blocks[2])
            res = matcore.dominant(mgf)
            tw = matcore.twist(blocks, res.right, theta, (-1, 0, 1))
            rows = sum(tw) @ np.ones(3)
            assert np.allclose(rows, res.value, atol=1e-9)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            matcore.twist([np.eye(2)], np.array([1.0, 0.0]), 0.0, (0,))


class TestMetzler:
    def test_generator_has_zero_eigenvalue(self):
        for q in (np.array([[-1.0, 1.0], [2.0, -2.0]]),
                  random_metzler(np.random.default_rng(1), 5, generator=True)):
            res = matcore.dominant(q)
            assert res.value == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(res.right, 1.0 / len(q), atol=1e-12)
            assert np.all(res.right > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            a = rng.uniform(0.0, 1.0, size=(n, n))
            np.fill_diagonal(a, rng.uniform(-3.0, -1.0, size=n))
            res = matcore.dominant(a)
            ref = np.max(np.linalg.eigvals(a).real)
            assert res.value == pytest.approx(float(ref), abs=1e-10)
            for c in (0.5, 7.0):
                shifted = matcore.dominant(a + c * np.eye(n))
                assert shifted.value == pytest.approx(res.value + c, abs=1e-12)
                assert np.allclose(shifted.right, res.right, atol=1e-12)


def test_spectral_radius_reducible():
    t = np.array([[0.5, 1.0], [0.0, 0.9]])
    assert matcore.spectral_radius(t) == pytest.approx(0.9)


class TestReach:
    def test_path_and_cycle_closures(self):
        # a path of 5 states reaches forward only; closing it makes a cycle
        path = np.eye(5, k=1, dtype=bool)
        assert np.array_equal(matcore.reach(path),
                              np.triu(np.ones((5, 5), dtype=bool)))
        cycle = path.copy()
        cycle[4, 0] = True
        assert matcore.reach(cycle).all()
        assert matcore.is_irreducible(cycle.astype(float))
        assert not matcore.is_irreducible(path.astype(float))

    def test_reflexive_on_an_empty_pattern(self):
        assert np.array_equal(matcore.reach(np.zeros((3, 3), dtype=bool)),
                              np.eye(3, dtype=bool))
        assert matcore.is_irreducible(np.zeros((1, 1)))

    def test_many_paths_do_not_wrap(self):
        # 256 two-step paths per entry: a uint8 path count would wrap to 0
        assert matcore.is_irreducible(np.ones((256, 256)))
