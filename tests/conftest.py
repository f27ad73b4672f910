import os

# One BLAS thread, as perfbench/run.py pins it: the worker threads of
# verify.check_smoothing_bounds otherwise contend with the BLAS thread pool.
# numpy reads these when it is first imported, which is below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

from revelight import streams
from revelight.cli import _label, synthetic_pair
from revelight.engine import _centralized_start
from revelight.errors import DomainError, ParseError
from revelight.estimator import (CHUNK_ROWS, SPHERE, client_block_zoe, dim_factor, head_direction,
                                 sample_direction, two_point_client, two_point_head)
from revelight.models import GlobalModel, LocalModel, party_columns

# Every Hypothesis test draws the same examples on every run and keeps no
# example database, so the whole suite is seeded; each test's own settings
# (max_examples, deadline) apply on top of this profile.
settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")


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
    X = np.hstack(data.blocks)
    y = data.labels

    def grad_sq(w0, w_blocks):
        w = np.concatenate(w_blocks)
        margin = X @ w
        sig = 1.0 / (1.0 + np.exp(y * margin))
        grad = -(X * (y * sig)[:, None]).mean(axis=0)
        grad = grad + lam_eff * 2.0 * w / (1.0 + w * w) ** 2
        return float(np.dot(grad, grad))

    return grad_sq


def direction_matrix(scheme: str, dim: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """All `draws` directions at once, as one (draws, dim) matrix: the one-shot
    draw the Monte-Carlo kernels' chunked directions stack to."""
    U = rng.standard_normal((draws, dim))
    if scheme == SPHERE:
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U


def replay_transcript(cfg, data, local_model, global_model, transcript):
    """A protocol run's numbers recomputed from its transcript by the
    algorithm's pure math: `models`, `estimator`, `streams` and the warm start
    of `engine._centralized_start`, with no node, queue, cache class or codec.

    Walks the training rows (seq >= 0) in order.  An up row of party m, seq k
    and sample i first applies m's answered step, if any, then takes the
    two-point client step along the DIRECTION draw at (m, k).  A down row
    answers that upload against the warm cache's row i with m's output in
    place, along the head direction addressed by the number of down rows
    before it; it steps w0 and writes the output into the cache.  In a
    synrevel run the q down rows of a round use the round's own outputs and
    w0, and their head estimates are summed in party order and applied once.
    Each step left is applied at the end.

    Returns each training row's recomputed payload (c then c_hat, or h then
    h_bar) and the final w0 and w.
    """
    w0, w, cache = _centralized_start(cfg, data, local_model, global_model)
    scheme, k_out, q = cfg.direction_scheme, global_model.party_output_dim, cfg.q
    directions = streams.Stream(cfg.seed, streams.DIRECTION)
    head_directions = streams.Stream(cfg.seed, streams.SERVER_DIRECTION)
    uploads, answered, v0s, payloads = {}, {}, [], []

    def apply_answered(m):
        u, g0, g1, h, h_bar = answered.pop(m)
        w[m - 1] = w[m - 1] - cfg.eta * client_block_zoe(h, h_bar, g0, g1, cfg.mu,
                                                         cfg.lam_eff, u)

    rows = np.flatnonzero(transcript.column("seq") >= 0)
    ups = transcript.column("direction")[rows] == "up"
    party, sample, seq = (transcript.column(key)[rows].tolist() for key in ("party", "sample", "seq"))
    sync, downs = cfg.algorithm == "synrevel", 0
    for up, m, i, k in zip(ups, party, sample, seq):
        if up:
            if m in answered:
                apply_answered(m)
            u = sample_direction(scheme, w[m - 1].size, directions.at(m, k))
            c, c_hat, g0, g1 = two_point_client(local_model, w[m - 1], data.blocks[m - 1][i], u,
                                                cfg.mu)
            uploads[m] = (u, g0, g1, c, c_hat)
            payloads.append(np.concatenate([c, c_hat]))
            continue
        if sync and downs % q == 0:  # a round's first reply: the round's outputs, party order
            fresh = np.concatenate([uploads[p][3] for p in range(1, q + 1)])
        u, g0, g1, c, c_hat = uploads.pop(m)
        cols = party_columns(m, k_out)
        row = fresh.copy() if sync else cache[i].copy()
        row[cols] = c
        u0 = head_direction(scheme, w0.size, head_directions, downs)
        h, h_bar, v0 = two_point_head(global_model, w0, row, m, c_hat, data.labels[i], cfg.mu, u0)
        if v0 is not None:
            v0s.append(v0)
        if not sync or downs % q == q - 1:
            if v0s:
                w0 = w0 - cfg.eta0 * sum(v0s[1:], v0s[0])
            v0s = []
        cache[i, cols] = c
        answered[m] = (u, g0, g1, h, h_bar)
        payloads.append(np.array([h, h_bar]))
        downs += 1
    for m in list(answered):
        apply_answered(m)
    return payloads, w0, w


# Generic Monte-Carlo smoothing oracles: one Python call of f per draw.  They
# are the references the vectorized `_quadratic` kernels are checked against.


def smoothed_value_mc(f, w, mu, scheme, draws, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of f(w + mu*u) over fresh directions."""
    if draws < 1:
        raise DomainError("need at least one draw")
    w = np.asarray(w, dtype=np.float64)
    if mu == 0:
        return float(f(w)), 0.0
    U = direction_matrix(scheme, w.size, draws, rng)
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
    U = direction_matrix(scheme, dim, draws, rng)
    deltas = np.array([f(w + mu * U[k]) - f0 for k in range(draws)])
    est = (factor / mu) * deltas[:, None] * U
    mean = est.mean(axis=0)
    stderr = est.std(axis=0, ddof=1) / np.sqrt(draws) if draws > 1 else np.zeros(dim)
    return mean, stderr


# One-shot Monte-Carlo kernels for a quadratic: every direction drawn into one
# (draws, d) matrix and reduced at once.  They are the references the chunked
# `_quadratic` kernels are checked against.


def smoothed_value_mc_quadratic_oneshot(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    U = direction_matrix(scheme, w.size, draws, rng)
    f0 = 0.5 * float(w @ H @ w) + float(b @ w)
    g = H @ w + b
    vals = f0 + mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(draws))


def smoothed_grad_mc_quadratic_oneshot(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    factor = dim_factor(scheme, w.size)
    U = direction_matrix(scheme, w.size, draws, rng)
    g = H @ w + b
    deltas = mu * (U @ g) + 0.5 * mu * mu * np.einsum("kd,kd->k", U @ H, U)
    est = (factor / mu) * deltas[:, None] * U
    return est.mean(axis=0), est.std(axis=0, ddof=1) / np.sqrt(draws)


# The chunked Monte-Carlo kernels as they were before their blocks shared two
# buffers: every block of CHUNK_ROWS directions, its product and its
# estimates in fresh arrays.  They are the bit-exact references of the
# `_quadratic` kernels.


def _fresh_direction_chunks(scheme, dim, draws, rng):
    for start in range(0, draws, CHUNK_ROWS):
        yield direction_matrix(scheme, dim, min(CHUNK_ROWS, draws - start), rng)


def _fresh_mean_stderr(blocks):
    n, mean, m2 = 0, 0.0, 0.0
    for x in blocks:
        k = x.shape[0]
        bmean = x.mean(axis=0)
        bm2 = ((x - bmean) ** 2).sum(axis=0)
        if n == 0:
            mean, m2 = bmean, bm2
        else:
            delta = bmean - mean
            mean = mean + delta * (k / (n + k))
            m2 = m2 + bm2 + delta * delta * (n * k / (n + k))
        n += k
    return mean, np.sqrt(m2 / (n - 1)) / np.sqrt(n)


def _fresh_value_changes(H, b, w, mu, scheme, draws, rng):
    G = np.column_stack([H @ w + b, H])
    for U in _fresh_direction_chunks(scheme, w.size, draws, rng):
        P = U @ G
        yield U, mu * P[:, 0] + 0.5 * mu * mu * np.einsum("kd,kd->k", P[:, 1:], U)


def smoothed_value_mc_quadratic_fresh(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    f0 = 0.5 * float(w @ H @ w) + float(b @ w)
    changes = _fresh_value_changes(H, b, w, mu, scheme, draws, rng)
    mean, stderr = _fresh_mean_stderr(f0 + delta for _, delta in changes)
    return float(mean), float(stderr)


def smoothed_grad_mc_quadratic_fresh(H, b, w, mu, scheme, draws, rng: np.random.Generator):
    factor = dim_factor(scheme, w.size)
    changes = _fresh_value_changes(H, b, w, mu, scheme, draws, rng)
    return _fresh_mean_stderr((factor / mu) * delta[:, None] * U for U, delta in changes)


# The libsvm loader before its bulk parse: one token at a time into a dict
# per line, with the program's label rule and its refusal of an index too
# large for a dense matrix.  It is the reference `cli.load_libsvm` is checked
# against.


def load_libsvm_reference(path) -> tuple[np.ndarray, np.ndarray]:
    rows, labels = [], []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            labels.append(_label(path, lineno, parts[0]))
            feats = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad feature token {tok!r}") from exc
                if idx < 1:
                    raise ParseError(f"{path}:{lineno}: feature index {idx} must be >= 1")
                feats[idx] = val
                max_idx = max(max_idx, idx)
            rows.append(feats)
    try:
        X = np.zeros((len(rows), max_idx))
    except (OverflowError, ValueError, MemoryError):
        raise ParseError(f"{path}: feature index {max_idx} is too large for a dense matrix") from None
    for i, feats in enumerate(rows):
        for idx, val in feats.items():
            X[i, idx - 1] = val
    return X, np.array(labels)
