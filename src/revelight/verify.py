"""Numerical verification: smoothing-bias bounds, estimator unbiasedness,
convergence-rate shape, and the parallel-speedup metric.

Random quadratics are the test family throughout because both smoothing
schemes leave their gradients exact (the smoothed gradient of a quadratic is
the analytic gradient), turning every bias-bound check into an exact-oracle
comparison with only Monte-Carlo error, absorbed by a 3-standard-error
slack.

The smoothing-bound cases run on up to min(CPUs, 8) threads.  Each case
draws from its own stream, so the reports and their order do not depend on
the number of workers.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import UsageError
from .estimator import (GAUSSIAN, require_draws, smoothed_grad_mc_quadratic,
                        smoothed_value_mc_quadratic)

# Cap on the threads of check_smoothing_bounds.  Its cases are independent
# and numpy releases the interpreter lock in the generator fill, the BLAS
# products and the ufunc loops, so they run in parallel.
MAX_WORKERS = 8

# The dimensions and smoothing radii check_smoothing_bounds covers.
DIMS = (2, 4, 8, 16)
MUS = (1e-1, 1e-2)


@dataclass
class BoundReport:
    quantity: str
    measured: float
    bound: float
    slack: float
    passed: bool

    @staticmethod
    def make(quantity: str, measured: float, bound: float, slack: float) -> "BoundReport":
        return BoundReport(quantity, measured, bound, slack, measured <= bound + slack)


@dataclass
class RateFit:
    slope: float
    intercept: float
    window: tuple[float, float]
    r2: float


def _random_quadratic(dim: int, rng: np.random.Generator):
    A = rng.standard_normal((dim, dim))
    H = (A + A.T) / 2.0
    b = rng.standard_normal(dim)
    w = rng.standard_normal(dim)
    L = float(np.linalg.norm(H, 2))
    return H, b, w, L


def grad_bias_bound(scheme: str, mu: float, L: float, dim: int) -> float:
    """Squared-norm bound on the smoothed-gradient bias for each scheme."""
    if scheme == GAUSSIAN:
        return mu * mu * L * L * (dim + 3) ** 3 / 4.0
    return mu * mu * L * L * dim * dim / 4.0


def value_bias_bound(mu: float, L: float, dim: int) -> float:
    """Bound on |f_mu - f|: L d mu^2 / 2 (holds for both schemes)."""
    return L * dim * mu * mu / 2.0


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _smoothing_case(scheme: str, seed: int, draws: int, salt: int,
                    case: tuple[int, float, int]) -> tuple[BoundReport, BoundReport]:
    """Value- and gradient-bias reports of one (dim, mu, trial) case: a
    random quadratic drawn from its own stream at (dim, salt)."""
    dim, mu, trial = case
    rng = streams.stream(seed, streams.TRIAL, party=dim, step=salt)
    H, b, w, L = _random_quadratic(dim, rng)
    f_w = 0.5 * float(w @ H @ w) + float(b @ w)

    mean, se = smoothed_value_mc_quadratic(H, b, w, mu, scheme, draws, rng)
    value = BoundReport.make(
        f"value_bias[{scheme},d={dim},mu={mu},#{trial}]",
        abs(mean - f_w), value_bias_bound(mu, L, dim), 3.0 * se,
    )

    gmean, gse = smoothed_grad_mc_quadratic(H, b, w, mu, scheme, draws, rng)
    grad = H @ w + b
    measured = float(np.sum((gmean - grad) ** 2))
    # the squared-norm estimate carries an MC bias of sum(se^2)
    # and a standard deviation of ~sqrt(2 sum se^4); slack is the
    # bias plus three of those deviations
    se2 = float(np.sum(gse**2))
    se4 = float(np.sum(gse**4))
    slack = se2 + 3.0 * np.sqrt(2.0 * se4)
    return value, BoundReport.make(
        f"grad_bias[{scheme},d={dim},mu={mu},#{trial}]",
        measured, grad_bias_bound(scheme, mu, L, dim), slack,
    )


def check_smoothing_bounds(scheme: str, trials: int, seed: int = 0,
                           draws: int = 20000) -> list[BoundReport]:
    """Monte-Carlo checks of the value- and gradient-bias bounds on random
    quadratics with known spectral norm, at each dimension in DIMS and mu in MUS.

    The (dim, mu, trial) cases run on up to min(CPUs, MAX_WORKERS) threads;
    each owns its stream, so the reports and their order do not depend on
    the number of workers.
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    require_draws(draws)
    cases = list(itertools.product(DIMS, MUS, range(trials)))
    run_case = functools.partial(_smoothing_case, scheme, seed, draws)
    with ThreadPoolExecutor(min(len(cases), _cpus(), MAX_WORKERS)) as pool:
        pairs = list(pool.map(run_case, range(len(cases)), cases))
    return [report for pair in pairs for report in pair]


def check_unbiasedness(scheme: str, M: int, seed: int = 0) -> BoundReport:
    """Coordinatewise t-statistic of the Monte-Carlo estimator mean against
    the analytic gradient on one random quadratic in 8 dimensions; passes at 3 sigma."""
    if M < 10**4:
        raise UsageError("need at least 1e4 draws for a meaningful check")
    dim = 8
    rng = streams.stream(seed, streams.TRIAL, party=dim, step=7777)
    H, b, w, L = _random_quadratic(dim, rng)
    mu = 1e-3 / L
    mean, se = smoothed_grad_mc_quadratic(H, b, w, mu, scheme, M, rng)
    grad = H @ w + b
    tstat = float(np.max(np.abs(mean - grad) / se))
    return BoundReport.make(f"unbiasedness[{scheme},d={dim}]", tstat, 3.0, 0.0)


def fit_rate_series(ts, values, window: tuple[float, float] = (0.2, 1.0)) -> RateFit:
    """Least-squares slope of log(values) against log(ts) over the window.

    The window is a fraction of the final step: points with
    window[0]*max(ts) <= t <= window[1]*max(ts) are fitted.
    """
    ts = np.asarray(ts, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = (ts > 0) & (values > 0)
    ts, values = ts[keep], values[keep]
    if ts.size < 10:
        raise UsageError(f"need at least 10 positive checkpoints, got {ts.size}")
    t_hi = float(np.max(ts))
    lo, hi = window[0] * t_hi, window[1] * t_hi
    sel = (ts >= lo) & (ts <= hi)
    if np.count_nonzero(sel) < 10:
        raise UsageError("fewer than 10 checkpoints inside the fit window")
    x, y = np.log(ts[sel]), np.log(values[sel])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), (lo, hi), r2)


def fit_convergence_rate(metrics, grad_sq_fn) -> RateFit:
    """Rate-shape fit for a training run: the true squared gradient norm is
    evaluated at the recorded parameter snapshots, its running mean is fitted
    on a log-log scale over fit_rate_series' default window.

    grad_sq_fn(w0, w_blocks) must return ||grad f||^2 for the full objective;
    the run must have been made with record_snapshots=True.
    """
    if not metrics.snapshots:
        raise UsageError("run recorded no parameter snapshots")
    snapshots = [snap for snap in metrics.snapshots if snap[0] != 0]
    ts = [t for t, _, _ in snapshots]
    g2 = [grad_sq_fn(w0, w) for _, w0, w in snapshots]
    if len(ts) < 10:
        raise UsageError(f"need at least 10 checkpoints, got {len(ts)}")
    running = np.cumsum(g2) / np.arange(1, len(g2) + 1)
    return fit_rate_series(ts, running)


def compute_speedup(times: dict[int, float]) -> dict[int, float]:
    """times[q] -> training time to a shared threshold; speedup q = t1/tq."""
    if 1 not in times:
        raise UsageError("speedup needs the single-party baseline time")
    if any(t <= 0 or not np.isfinite(t) for t in times.values()):
        raise UsageError("training times must be positive and finite")
    base = times[1]
    return {q: base / t for q, t in sorted(times.items())}


def report_lines(reports: list[BoundReport]) -> list[str]:
    """Fixed-width text table, one line per bound check."""
    width = max((len(r.quantity) for r in reports), default=8)
    return [f"{'quantity'.ljust(width)}  {'measured':>12}  {'bound':>12}  {'slack':>12}  pass"] + [
        f"{r.quantity.ljust(width)}  {r.measured:12.5g}  {r.bound:12.5g}  "
        f"{r.slack:12.5g}  {'yes' if r.passed else 'NO'}" for r in reports
    ]


def reports_to_csv(reports: list[BoundReport], path) -> None:
    with open(path, "w") as fh:
        fh.write("quantity,measured,bound,slack,pass\n")
        for r in reports:
            fh.write(f"{r.quantity},{r.measured:.12g},{r.bound:.12g},{r.slack:.12g},"
                     f"{str(r.passed).lower()}\n")
