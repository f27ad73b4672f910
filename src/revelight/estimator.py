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
estimate; the server side perturbs only the global head.  A `Direction`
holds its vector and scheme; its dimension is the vector's length.  The
vectorized Monte-Carlo kernels for a quadratic serve the verification checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import DomainError, ProtocolError, UsageError
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


def sample_direction(scheme: str, dim: int, rng: np.random.Generator) -> Direction:
    """Draw one direction: i.i.d. standard normal entries, or that normalized
    to unit length for the sphere scheme."""
    if dim < 1:
        raise DomainError(f"direction dimension must be >= 1, got {dim}")
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    u = rng.standard_normal(dim)
    if scheme == SPHERE:
        u = u / np.sqrt(u.dot(u))  # np.linalg.norm's formula, without its wrapper
    return Direction(u=u, scheme=scheme)


def dim_factor(scheme: str, dim: int) -> float:
    """Dimension prefactor making the two-point estimate unbiased for the
    scheme's smoothed objective: d on the sphere, 1 for gaussian."""
    if scheme == SPHERE:
        return float(dim)
    if scheme == GAUSSIAN:
        return 1.0
    raise DomainError(f"unknown scheme {scheme!r}")


def _two_point(h: float, h_pert: float, mu: float, u: Direction) -> np.ndarray:
    """(factor / mu) * (h_pert - h) * u: the two-point estimate along u from
    the values at the base point and at the point perturbed by mu * u."""
    if mu <= 0:
        raise DomainError(f"smoothing radius must be positive, got {mu}")
    return (dim_factor(u.scheme, u.u.size) / mu) * (h_pert - h) * u.u


def client_block_zoe(h: float, h_bar: float, g_base: float, g_pert: float, mu: float,
                     lam_eff: float, u: Direction) -> np.ndarray:
    """Block gradient estimate from the server's two replies.

    h and h_bar are the head values at the current and perturbed local
    output; g_base/g_pert are the regularizer at w_m and w_m + mu*u.
    """
    return _two_point(h + lam_eff * g_base, h_bar + lam_eff * g_pert, mu, u)


def server_block_zoe(h: float, h_hat: float, mu: float, u0: Direction | None) -> np.ndarray | None:
    """Head gradient estimate from the unperturbed and perturbed head values.

    Returns None when there is no trainable head (d0 = 0); that is the
    contract's no-op signal, not an error.
    """
    return None if u0 is None else _two_point(h, h_hat, mu, u0)


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
    return (local_forward(model, w, x), local_forward(model, w_hat, x),
            nonconvex_reg(w), nonconvex_reg(w_hat))


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


def reject_nonfinite(v: np.ndarray, party: int, step: int) -> None:
    """Raise ProtocolError when update v of party (0 for the server's head)
    holds a non-finite value; the message names the party and its step."""
    if not np.logical_and.reduce(np.isfinite(v)):
        who = f"party {party}: non-finite update" if party else "server: non-finite head update"
        raise ProtocolError(f"{who} rejected at step {step}")


# Rows of directions drawn and reduced at once by the Monte-Carlo kernels: a
# (CHUNK_ROWS, 16) block is 1 MiB, so a kernel holds a few MiB whatever its
# number of draws.
CHUNK_ROWS = 8192


def _direction_chunks(scheme: str, dim: int, draws: int, rng: np.random.Generator):
    """`draws` directions in blocks U of at most CHUNK_ROWS rows, each paired
    with the same rows P of a work buffer one column wider; both buffers are
    reused, so a pair is valid only until the next.  Rows are drawn in order
    and each is normalized on its own (a sphere block's squares go to P's last
    dim columns: np.linalg.norm's formula for real input without its conj()
    copy), so the blocks stack to the one-shot (draws, dim) matrix bit for bit."""
    rows = min(CHUNK_ROWS, draws)
    U_buf, P_buf = np.empty((rows, dim)), np.empty((rows, dim + 1))
    for left in range(draws, 0, -CHUNK_ROWS):  # rows still to draw, at most `rows` a block
        U, P = rng.standard_normal(out=U_buf[:left]), P_buf[:left]
        if scheme == SPHERE:
            U /= np.sqrt(np.add.reduce(np.multiply(U, U, out=P[:, 1:]), axis=1, keepdims=True))
        yield U, P


def _mean_stderr(blocks):
    """Mean and standard error (ddof 1) over the rows of the blocks, merged
    block by block with the pairwise update of Chan, Golub and LeVeque
    (1979), so no more than one block is held; each block is overwritten."""
    n, mean, m2 = 0, 0.0, 0.0
    for x in blocks:
        k = x.shape[0]
        bmean = x.mean(axis=0)
        bm2 = np.square(np.subtract(x, bmean, out=x), out=x).sum(axis=0)
        if n == 0:
            mean, m2 = bmean, bm2
        else:
            delta = bmean - mean
            mean = mean + delta * (k / (n + k))
            m2 = m2 + bm2 + delta * delta * (n * k / (n + k))
        n += k
    return mean, np.sqrt(m2 / (n - 1)) / np.sqrt(n)


def _value_changes(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """For each block U of directions, yield U and f(w + mu*u) - f(w) =
    mu*g'u + 0.5*mu^2*u'Hu per row u, with g = Hw + b and f(w) = 0.5 w'Hw + b'w;
    U is valid only until the next block, and the caller may overwrite it."""
    G = np.column_stack([H @ w + b, H])  # one product gives g'u and Hu
    for U, P in _direction_chunks(scheme, w.size, draws, rng):
        np.matmul(U, G, out=P)
        yield U, mu * P[:, 0] + 0.5 * mu * mu * np.einsum("kd,kd->k", P[:, 1:], U)


def require_draws(draws: int) -> None:
    """The Monte-Carlo kernels' standard error needs at least two draws."""
    if draws < 2:
        raise UsageError(f"need at least 2 draws for a standard error, got {draws}")


def smoothed_value_mc_quadratic(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of f(w + mu*u) over fresh
    directions, for f(w) = 0.5 w'Hw + b'w.  Directions are drawn and reduced
    CHUNK_ROWS at a time into one reused pair of buffers."""
    require_draws(draws)
    f0 = 0.5 * float(w @ H @ w) + float(b @ w)
    changes = _value_changes(H, b, w, mu, scheme, draws, rng)
    mean, stderr = _mean_stderr(f0 + delta for _, delta in changes)
    return float(mean), float(stderr)


def smoothed_grad_mc_quadratic(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of the two-point block estimate
    (factor/mu) [f(w + mu*u) - f(w)] u, for f(w) = 0.5 w'Hw + b'w.

    The per-draw function-value difference has the closed form
    mu*(Hw + b)'u + 0.5*mu^2*u'Hu, which lets verification sweeps run with
    matrix products instead of a Python loop over draws; directions are drawn
    and reduced CHUNK_ROWS at a time, estimates written over their directions.
    """
    require_draws(draws)
    factor = dim_factor(scheme, w.size)
    changes = _value_changes(H, b, w, mu, scheme, draws, rng)
    return _mean_stderr(np.multiply((factor / mu) * delta[:, None], U, out=U)
                        for U, delta in changes)
