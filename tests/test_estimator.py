import numpy as np
import pytest

from revelight import streams
from revelight.errors import DomainError, UsageError
from revelight.estimator import (
    CHUNK_ROWS,
    _direction_chunks,
    smoothed_value_mc_quadratic,
    GAUSSIAN,
    SPHERE,
    Direction,
    client_block_zoe,
    dim_factor,
    sample_direction,
    server_block_zoe,
    smoothed_grad_mc_quadratic,
)

from conftest import (direction_matrix, smoothed_grad_mc, smoothed_grad_mc_quadratic_fresh,
                      smoothed_grad_mc_quadratic_oneshot, smoothed_value_mc,
                      smoothed_value_mc_quadratic_fresh, smoothed_value_mc_quadratic_oneshot)


def _rng(tag=0):
    return streams.stream(1234, streams.TRIAL, step=tag)


class TestSampleDirection:
    def test_determinism(self):
        a = sample_direction(GAUSSIAN, 6, _rng())
        b = sample_direction(GAUSSIAN, 6, _rng())
        assert np.array_equal(a.u, b.u)

    def test_sphere_dim1_is_sign(self):
        for tag in range(8):
            d = sample_direction(SPHERE, 1, _rng(tag))
            assert d.u[0] in (-1.0, 1.0)

    def test_sphere_unit_norm(self):
        for dim in (2, 5, 17):
            d = sample_direction(SPHERE, dim, _rng(dim))
            assert abs(np.linalg.norm(d.u) - 1.0) <= 1e-12

    def test_zero_dim_rejected(self):
        with pytest.raises(DomainError):
            sample_direction(GAUSSIAN, 0, _rng())

    def test_dim_factor_by_scheme(self):
        assert dim_factor(SPHERE, 7) == 7.0
        assert dim_factor(GAUSSIAN, 7) == 1.0
        with pytest.raises(DomainError):
            dim_factor("cauchy", 3)

    def test_gaussian_moments_100k(self):
        rng = _rng(99)
        draws = np.vstack([sample_direction(GAUSSIAN, 4, rng).u for _ in range(10**5)])
        assert np.all(np.abs(draws.mean(axis=0)) < 4 / np.sqrt(10**5))
        assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.05)

    def test_gaussian_skew_sanity(self):
        rng = _rng(100)
        x = rng.standard_normal((10**6, 2))
        skew = np.mean(x**3, axis=0)
        assert np.all(np.abs(skew) < 0.05)


def _softplus(z):
    return max(z, 0.0) + np.log1p(np.exp(-abs(z)))


class TestClientBlockZoe:
    def test_constant_objective_gives_zero(self):
        u = sample_direction(SPHERE, 3, _rng())
        v = client_block_zoe(0.7, 0.7, 0.2, 0.9, 0.1, 0.0, u)
        assert np.all(v == 0.0)

    def test_worked_logistic_example(self):
        # w=(0,0), x=(1,1), y=1, lambda=0, u=(1,0) on the sphere, mu=0.1
        w = np.zeros(2)
        x = np.ones(2)
        u = Direction(np.array([1.0, 0.0]), SPHERE)
        h = _softplus(-1 * float(w @ x))
        c_hat = float((w + 0.1 * u.u) @ x)
        h_bar = _softplus(-1 * c_hat)
        assert h == pytest.approx(0.693147, abs=1e-6)
        assert h_bar == pytest.approx(0.644397, abs=1e-6)
        v = client_block_zoe(h, h_bar, 0.0, 0.0, 0.1, 0.0, u)
        assert v[0] == pytest.approx(-0.97500, abs=1e-4)
        assert v[1] == 0.0

    def test_output_parallel_to_u(self):
        for tag in range(5):
            u = sample_direction(GAUSSIAN, 6, _rng(tag))
            v = client_block_zoe(0.3, 0.9, 0.1, 0.4, 0.05, 0.2, u)
            cross = v - (np.dot(v, u.u) / np.dot(u.u, u.u)) * u.u
            assert np.linalg.norm(cross) <= 1e-12 * max(1.0, np.linalg.norm(v))

    def test_small_radius_linearizes(self):
        # sphere-scheme error vs d*(u'grad)*u decays like mu (slope 1 log-log)
        rng = np.random.default_rng(5)
        d = 6
        w = rng.standard_normal(d) * 0.5
        x = rng.standard_normal(d)
        y = 1
        lam = 1e-3
        u = sample_direction(SPHERE, d, _rng(7))

        def f(wv):
            return _softplus(-y * float(wv @ x)) + lam * float(np.sum(wv**2 / (1 + wv**2)))

        margin = -y * float(w @ x)
        sig = 1.0 / (1.0 + np.exp(-margin))
        grad = -y * sig * x + lam * (2 * w / (1 + w**2) ** 2)
        target = d * float(u.u @ grad) * u.u
        mus = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        errs = []
        for mu in mus:
            h = f(w) - lam * float(np.sum(w**2 / (1 + w**2)))
            wp = w + mu * u.u
            h_bar = _softplus(-y * float(wp @ x))
            g0 = float(np.sum(w**2 / (1 + w**2)))
            g1 = float(np.sum(wp**2 / (1 + wp**2)))
            v = client_block_zoe(h, h_bar, g0, g1, mu, lam, u)
            errs.append(np.linalg.norm(v - target))
        slope = np.polyfit(np.log(mus), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_nonpositive_radius(self):
        u = sample_direction(SPHERE, 2, _rng())
        with pytest.raises(DomainError):
            client_block_zoe(0.1, 0.2, 0.0, 0.0, 0.0, 0.0, u)


class TestServerBlockZoe:
    def test_equal_values_give_zero(self):
        u0 = sample_direction(GAUSSIAN, 4, _rng())
        assert np.all(server_block_zoe(0.4, 0.4, 0.01, u0) == 0.0)

    def test_parameter_free_head_is_noop(self):
        assert server_block_zoe(0.4, 0.5, 0.01, None) is None

    def test_worked_quadratic_head(self):
        # F0 = 0.5||w0||^2, w0=(1,0), u0=(1,0), mu=0.01
        w0 = np.array([1.0, 0.0])
        u0 = Direction(np.array([1.0, 0.0]), SPHERE)
        h = 0.5 * float(w0 @ w0)
        h_hat = 0.5 * float((w0 + 0.01 * u0.u) @ (w0 + 0.01 * u0.u))
        v = server_block_zoe(h, h_hat, 0.01, u0)
        assert v[0] == pytest.approx(2.0100, abs=1e-4)
        assert v[1] == 0.0


class TestSmoothedValueMC:
    def test_zero_radius(self):
        f = lambda w: float(np.sum(w**2))
        mean, se = smoothed_value_mc(f, np.ones(3), 0.0, GAUSSIAN, 10, _rng())
        assert (mean, se) == (3.0, 0.0)

    def test_gaussian_quadratic_trace_identity(self):
        rng = np.random.default_rng(11)
        d = 5
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2
        w = rng.standard_normal(d)
        f = lambda v: 0.5 * float(v @ H @ v)
        mu = 0.3
        mean, se = smoothed_value_mc(f, w, mu, GAUSSIAN, 10**5, _rng(3))
        expect = f(w) + 0.5 * mu * mu * np.trace(H)
        assert abs(mean - expect) <= 3 * se

    def test_affine_unbiased_both_schemes(self):
        b = np.array([0.7, -1.2, 0.4])
        f = lambda v: float(b @ v) + 2.0
        w = np.array([1.0, 2.0, 3.0])
        for scheme, tag in ((GAUSSIAN, 4), (SPHERE, 5)):
            mean, se = smoothed_value_mc(f, w, 0.2, scheme, 20000, _rng(tag))
            assert abs(mean - f(w)) <= 3 * se


class TestSmoothedGradMC:
    def test_constant_function_exact_zero(self):
        mean, _ = smoothed_grad_mc(lambda v: 1.5, np.zeros(4), 0.1, SPHERE, 4, 100, _rng())
        assert np.all(mean == 0.0)

    def test_scalar_square_moment_identity(self):
        # f(w) = w^2, d=1: per-draw estimate is 2wu^2 + mu u^3, mean -> 2w
        w = np.array([0.8])
        mean, se = smoothed_grad_mc(lambda v: float(v[0] ** 2), w, 0.05, GAUSSIAN, 1, 10**5, _rng(6))
        assert abs(mean[0] - 1.6) <= 3 * se[0]

    @pytest.mark.parametrize("scheme,tag", [(GAUSSIAN, 7), (SPHERE, 8)])
    def test_quadratic_unbiased_d8(self, scheme, tag):
        rng = np.random.default_rng(21)
        d = 8
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2
        b = rng.standard_normal(d)
        w = rng.standard_normal(d)
        f = lambda v: 0.5 * float(v @ H @ v) + float(b @ v)
        mean, se = smoothed_grad_mc(f, w, 0.01, scheme, d, 2 * 10**5, _rng(tag))
        grad = H @ w + b
        assert np.all(np.abs(mean - grad) <= 3 * se)

    def test_vectorized_quadratic_path_matches_loop(self):
        rng = np.random.default_rng(31)
        d = 4
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2
        b = rng.standard_normal(d)
        w = rng.standard_normal(d)
        f = lambda v: 0.5 * float(v @ H @ v) + float(b @ v)
        m1, s1 = smoothed_grad_mc(f, w, 0.1, SPHERE, d, 500, _rng(9))
        m2, s2 = smoothed_grad_mc_quadratic(H, b, w, 0.1, SPHERE, 500, _rng(9))
        assert np.allclose(m1, m2, atol=1e-10)
        assert np.allclose(s1, s2, atol=1e-10)

    def test_vectorized_value_path_matches_loop(self):
        rng = np.random.default_rng(33)
        d = 3
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2
        b = rng.standard_normal(d)
        w = rng.standard_normal(d)
        f = lambda v: 0.5 * float(v @ H @ v) + float(b @ v)
        m1, s1 = smoothed_value_mc(f, w, 0.2, GAUSSIAN, 400, _rng(10))
        m2, s2 = smoothed_value_mc_quadratic(H, b, w, 0.2, GAUSSIAN, 400, _rng(10))
        assert m1 == pytest.approx(m2, abs=1e-10)
        assert s1 == pytest.approx(s2, abs=1e-10)


def _quadratic(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    return (A + A.T) / 2, rng.standard_normal(d), rng.standard_normal(d)


class TestChunkedQuadraticKernels:
    @pytest.mark.parametrize("scheme", [GAUSSIAN, SPHERE])
    def test_chunks_stack_to_the_one_shot_matrix(self, scheme):
        draws = 2 * CHUNK_ROWS + 5
        chunked, whole = _rng(40), _rng(40)
        # every block is written into one buffer, so each is copied before the next
        blocks = [U.copy() for U, _ in _direction_chunks(scheme, 3, draws, chunked)]
        assert [len(U) for U in blocks] == [CHUNK_ROWS, CHUNK_ROWS, 5]
        assert np.array_equal(np.concatenate(blocks), direction_matrix(scheme, 3, draws, whole))
        # both generators are left at the same point for the next draw
        assert chunked.random() == whole.random()

    @pytest.mark.parametrize("draws", [2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 20000])
    @pytest.mark.parametrize("scheme", [GAUSSIAN, SPHERE])
    def test_match_one_shot_oracle(self, scheme, draws):
        H, b, w = _quadratic(6, 41)
        got = smoothed_value_mc_quadratic(H, b, w, 0.1, scheme, draws, _rng(42))
        want = smoothed_value_mc_quadratic_oneshot(H, b, w, 0.1, scheme, draws, _rng(42))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        gmean, gse = smoothed_grad_mc_quadratic(H, b, w, 0.1, scheme, draws, _rng(43))
        wmean, wse = smoothed_grad_mc_quadratic_oneshot(H, b, w, 0.1, scheme, draws, _rng(43))
        np.testing.assert_allclose(gmean, wmean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gse, wse, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("draws", [2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 20000])
    @pytest.mark.parametrize("dim", [1, 2, 8, 16])
    @pytest.mark.parametrize("scheme", [GAUSSIAN, SPHERE])
    def test_shared_buffers_match_fresh_blocks_bit_for_bit(self, scheme, dim, draws):
        H, b, w = _quadratic(dim, 45)
        got = smoothed_value_mc_quadratic(H, b, w, 0.1, scheme, draws, _rng(46))
        assert got == smoothed_value_mc_quadratic_fresh(H, b, w, 0.1, scheme, draws, _rng(46))
        gmean, gse = smoothed_grad_mc_quadratic(H, b, w, 0.1, scheme, draws, _rng(47))
        wmean, wse = smoothed_grad_mc_quadratic_fresh(H, b, w, 0.1, scheme, draws, _rng(47))
        assert np.array_equal(gmean, wmean) and np.array_equal(gse, wse)

    @pytest.mark.parametrize("draws", [0, 1])
    def test_fewer_than_two_draws_rejected(self, draws):
        H, b, w = _quadratic(3, 44)
        for kernel in (smoothed_value_mc_quadratic, smoothed_grad_mc_quadratic):
            with pytest.raises(UsageError, match="at least 2 draws"):
                kernel(H, b, w, 0.1, GAUSSIAN, draws, _rng())
