"""Two-point zeroth-order gradient estimation and smoothing oracles.

A block estimate is formed from two function values at a parameter block and
its perturbation along a random direction:

    v_hat = (factor(scheme, d) / mu) * [f(w + mu*u) - f(w)] * u

where the direction u is either a standard gaussian vector or uniform on the
unit sphere.  The dimension factor is scheme-dependent (d on the sphere, 1
for gaussian) so that the estimator is unbiased for the correspondingly
smoothed objective; see the verification module for the numerical checks of
the bias bounds.

The client side assembles its two function values from the server replies
plus its local regularizer terms; the server side perturbs only the global
head.  Monte-Carlo oracles for the smoothed value and gradient live here too,
as do the step-size and radius prescriptions used by the theory-driven runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import DomainError
from .models import GlobalModel, global_value, party_columns

GAUSSIAN = "gaussian"
SPHERE = "sphere"
SCHEMES = (GAUSSIAN, SPHERE)


@dataclass
class Direction:
    """One sampled perturbation direction."""

    u: np.ndarray
    scheme: str
    dim: int


@dataclass
class HyperParams:
    """Step sizes, horizon, delay bound, and their generating constants."""

    eta: float
    eta_server: float
    T: int
    tau: int
    m0: float
    L_est: float
    mu: list[float]

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise DomainError("step size must be positive")
        if self.tau < 0:
            raise DomainError("delay bound must be a nonnegative integer")


def sample_direction(scheme: str, dim: int, rng: np.random.Generator) -> Direction:
    """Draw one direction: i.i.d. standard normal entries, or that normalized
    to unit length for the sphere scheme."""
    if dim < 1:
        raise DomainError(f"direction dimension must be >= 1, got {dim}")
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    u = rng.standard_normal(dim)
    if scheme == SPHERE:
        u = u / np.linalg.norm(u)
    return Direction(u=u, scheme=scheme, dim=dim)


def dim_factor(scheme: str, dim: int) -> float:
    """Dimension prefactor making the two-point estimate unbiased for the
    scheme's smoothed objective: d on the sphere, 1 for gaussian."""
    if scheme == SPHERE:
        return float(dim)
    if scheme == GAUSSIAN:
        return 1.0
    raise DomainError(f"unknown scheme {scheme!r}")


def client_block_zoe(
    h: float,
    h_bar: float,
    g_base: float,
    g_pert: float,
    dim: int,
    mu: float,
    lam_eff: float,
    u: Direction,
) -> np.ndarray:
    """Block gradient estimate from the server's two replies.

    h and h_bar are the head values at the current and perturbed local
    output; g_base/g_pert are the regularizer at w_m and w_m + mu*u.
    """
    if mu <= 0:
        raise DomainError(f"smoothing radius must be positive, got {mu}")
    factor = dim_factor(u.scheme, dim)
    delta = (h_bar + lam_eff * g_pert) - (h + lam_eff * g_base)
    return (factor / mu) * delta * u.u


def server_block_zoe(h: float, h_hat: float, mu: float, u0: Direction | None) -> np.ndarray | None:
    """Head gradient estimate from the unperturbed and perturbed head values.

    Returns None when there is no trainable head (d0 = 0); that is the
    contract's no-op signal, not an error.
    """
    if u0 is None or u0.dim == 0:
        return None
    if mu <= 0:
        raise DomainError(f"smoothing radius must be positive, got {mu}")
    factor = dim_factor(u0.scheme, u0.dim)
    return (factor / mu) * (h_hat - h) * u0.u


def head_direction(scheme: str, d0: int, directions: streams.Stream, k: int) -> Direction | None:
    """The server's k-th head direction, drawn from its SERVER_DIRECTION
    stream; None without a trainable head (d0 = 0)."""
    if d0 == 0:
        return None
    return sample_direction(scheme, d0, directions.at(0, k))


def two_point_head(head: GlobalModel, w0: np.ndarray, row: np.ndarray, m: int,
                   c_hat: np.ndarray, label, mu: float, u0: Direction | None):
    """The server's half of one two-point step for party m (1-based).

    row is the flat head input (see global_value), party m's current output
    in place at its party_columns.  Returns the head value h
    at row, h_bar at a copy of row with party m's columns replaced by its
    perturbed output c_hat, and the head estimate v0 along u0 (None when u0
    is None).
    """
    h = global_value(head, w0, row, label)
    row_bar = row.copy()
    row_bar[party_columns(m, head.party_output_dim)] = c_hat
    h_bar = global_value(head, w0, row_bar, label)
    v0 = None
    if u0 is not None:
        h_hat = global_value(head, w0 + mu * u0.u, row, label)
        v0 = server_block_zoe(h, h_hat, mu, u0)
    return h, h_bar, v0


def _direction_matrix(scheme: str, dim: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    U = rng.standard_normal((draws, dim))
    if scheme == SPHERE:
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U


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


def smoothed_value_mc_quadratic(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """Vectorized variant of smoothed_value_mc for f(w) = 0.5 w'Hw + b'w."""
    dim = w.size
    U = _direction_matrix(scheme, dim, draws, rng)
    f0 = 0.5 * float(w @ H @ w) + float(b @ w)
    g = H @ w + b
    vals = f0 + mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(draws))


def smoothed_grad_mc_quadratic(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """Vectorized variant of smoothed_grad_mc for f(w) = 0.5 w'Hw + b'w.

    The per-draw function-value difference has the closed form
    mu*(Hw + b)'u + 0.5*mu^2*u'Hu, which lets verification sweeps run with
    matrix products instead of a Python loop over draws.
    """
    dim = w.size
    factor = dim_factor(scheme, dim)
    U = _direction_matrix(scheme, dim, draws, rng)
    g = H @ w + b
    deltas = mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    est = (factor / mu) * deltas[:, None] * U
    mean = est.mean(axis=0)
    stderr = est.std(axis=0, ddof=1) / np.sqrt(draws)
    return mean, stderr


def prescribe_hyperparams(
    T: int,
    tau: int,
    L_est: float,
    m0: float,
    dims: list[int],
    scheme: str,
    q: int | None = None,
) -> HyperParams:
    """Step size and smoothing radii realizing the O(1/sqrt(T)) guarantee.

    eta = min{1/(4(tau+1)L), m0/sqrt(T)}; the radius uses the scheme's
    effective dimension d* (max block dim plus 3 for gaussian, max block dim
    for the sphere): mu = 1/(sqrt(T) L d*^{3/2}) gaussian, 1/(sqrt(T) L d*)
    sphere.  The server step defaults to eta/q.
    """
    if T < 1:
        raise DomainError("horizon must be >= 1")
    if L_est <= 0:
        raise DomainError("smoothness estimate must be positive")
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    d_max = max(int(d) for d in dims if d > 0)
    eta = min(1.0 / (4.0 * (tau + 1) * L_est), m0 / np.sqrt(T))
    if scheme == GAUSSIAN:
        d_star = d_max + 3
        mu = 1.0 / (np.sqrt(T) * L_est * d_star**1.5)
    else:
        d_star = d_max
        mu = 1.0 / (np.sqrt(T) * L_est * d_star)
    nparties = q if q is not None else len(dims)
    return HyperParams(
        eta=float(eta),
        eta_server=float(eta / max(nparties, 1)),
        T=T,
        tau=tau,
        m0=m0,
        L_est=L_est,
        mu=[float(mu)] * len(dims),
    )


def estimate_smoothness(f, dim: int, rng: np.random.Generator, pairs: int = 64,
                        delta: float = 1e-5, radius: float = 1.0) -> float:
    """Gradient-Lipschitz estimate from function values only.

    Max ratio of central-difference gradient change to point distance over
    random point pairs; used when no smoothness constant is supplied.
    """
    def cd_grad(x):
        g = np.empty(dim)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = delta
            g[j] = (f(x + e) - f(x - e)) / (2 * delta)
        return g

    best = 0.0
    for _ in range(pairs):
        x = rng.uniform(-radius, radius, size=dim)
        y = rng.uniform(-radius, radius, size=dim)
        dist = np.linalg.norm(x - y)
        if dist < 1e-12:
            continue
        best = max(best, float(np.linalg.norm(cd_grad(x) - cd_grad(y)) / dist))
    if best <= 0:
        raise DomainError("could not estimate a positive smoothness constant")
    return best
