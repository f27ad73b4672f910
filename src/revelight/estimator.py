"""Two-point zeroth-order gradient estimation.

A block estimate is formed from two function values at a parameter block and
its perturbation along a random direction:

    v_hat = (factor(scheme, d) / mu) * [f(w + mu*u) - f(w)] * u

where the direction u is either a standard gaussian vector or uniform on the
unit sphere.  The dimension factor is scheme-dependent (d on the sphere, 1
for gaussian) so that the estimator is unbiased for the correspondingly
smoothed objective; see the verification module for the numerical checks of
the bias bounds.

Each side of a step has one home here: `two_point_client` gives a party's
outputs and regularizer at w and at w + mu*u, `two_point_head` the server's
two head values, and `client_block_zoe` combines the replies into the block
estimate; the server side perturbs only the global head.  The vectorized
Monte-Carlo kernels for a quadratic serve the verification checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import DomainError
from .models import (GlobalModel, LocalModel, global_value, local_forward, nonconvex_reg,
                     party_columns)

GAUSSIAN = "gaussian"
SPHERE = "sphere"
SCHEMES = (GAUSSIAN, SPHERE)


@dataclass
class Direction:
    """One sampled perturbation direction."""

    u: np.ndarray
    scheme: str
    dim: int


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


def two_point_client(model: LocalModel, w: np.ndarray, x: np.ndarray, u: Direction, mu: float):
    """A party's half of one two-point step on feature row x.

    Returns its local output c at w, c_hat at the perturbed point w + mu*u,
    and the regularizer g0 at w and g1 at the perturbed point.
    """
    w_hat = w + mu * u.u
    c = local_forward(model, w, x)
    c_hat = local_forward(model, w_hat, x)
    g0 = nonconvex_reg(w)
    g1 = nonconvex_reg(w_hat)
    return c, c_hat, g0, g1


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


def smoothed_value_mc_quadratic(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of f(w + mu*u) over fresh
    directions, for f(w) = 0.5 w'Hw + b'w."""
    dim = w.size
    U = _direction_matrix(scheme, dim, draws, rng)
    f0 = 0.5 * float(w @ H @ w) + float(b @ w)
    g = H @ w + b
    vals = f0 + mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(draws))


def smoothed_grad_mc_quadratic(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of the two-point block estimate
    (factor/mu) [f(w + mu*u) - f(w)] u, for f(w) = 0.5 w'Hw + b'w.

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
