import numpy as np
import pytest

from revelight.cli import synthetic_pair
from revelight.errors import DomainError
from revelight.estimator import _direction_matrix, dim_factor
from revelight.models import GlobalModel, LocalModel


@pytest.fixture(scope="session")
def glm_models():
    def make(q):
        return LocalModel(), GlobalModel(kind="logistic", q=q)

    return make


@pytest.fixture(scope="session")
def bench_data():
    """Small nonconvex-logistic benchmark instances, keyed by party count."""
    cache = {}

    def make(q, n=256, d=32, seed=0, n_test=256, kind="noisy"):
        key = (q, n, d, seed, n_test, kind)
        if key not in cache:
            cache[key] = synthetic_pair(kind, n, n_test, d, q, seed)
        return cache[key]

    return make


def logistic_grad_sq(data, lam_eff):
    """Analytic squared gradient norm of the nonconvex logistic objective."""
    X = data.concatenated()
    y = data.labels

    def grad_sq(w0, w_blocks):
        w = np.concatenate(w_blocks)
        margin = X @ w
        sig = 1.0 / (1.0 + np.exp(y * margin))
        grad = -(X * (y * sig)[:, None]).mean(axis=0)
        grad = grad + lam_eff * 2.0 * w / (1.0 + w * w) ** 2
        return float(np.dot(grad, grad))

    return grad_sq


# Generic Monte-Carlo smoothing oracles: one Python call of f per draw.  They
# are the references the vectorized `_quadratic` kernels are checked against.


def smoothed_value_mc(f, w, mu, scheme, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of f(w + mu*u) over fresh directions."""
    if draws < 1:
        raise DomainError("need at least one draw")
    w = np.asarray(w, dtype=np.float64)
    if mu == 0:
        return float(f(w)), 0.0
    U = _direction_matrix(scheme, w.size, draws, rng)
    vals = np.array([f(w + mu * U[k]) for k in range(draws)])
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
    return mean, stderr


def smoothed_grad_mc(f, w, mu, scheme, dim, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of the two-point block estimate.

    Per draw: (factor/mu) [f(w + mu*u) - f(w)] u, i.e. the empirical
    expectation of the training estimator.
    """
    if draws < 1:
        raise DomainError("need at least one draw")
    w = np.asarray(w, dtype=np.float64)
    factor = dim_factor(scheme, dim)
    f0 = f(w)
    U = _direction_matrix(scheme, dim, draws, rng)
    deltas = np.array([f(w + mu * U[k]) - f0 for k in range(draws)])
    est = (factor / mu) * deltas[:, None] * U
    mean = est.mean(axis=0)
    stderr = est.std(axis=0, ddof=1) / np.sqrt(draws) if draws > 1 else np.zeros(dim)
    return mean, stderr


# One-shot Monte-Carlo kernels for a quadratic: every direction drawn into one
# (draws, d) matrix and reduced at once.  They are the references the chunked
# `_quadratic` kernels are checked against.


def smoothed_value_mc_quadratic_oneshot(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    U = _direction_matrix(scheme, w.size, draws, rng)
    f0 = 0.5 * float(w @ H @ w) + float(b @ w)
    g = H @ w + b
    vals = f0 + mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(draws))


def smoothed_grad_mc_quadratic_oneshot(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    factor = dim_factor(scheme, w.size)
    U = _direction_matrix(scheme, w.size, draws, rng)
    g = H @ w + b
    deltas = mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    est = (factor / mu) * deltas[:, None] * U
    return est.mean(axis=0), est.std(axis=0, ddof=1) / np.sqrt(draws)
