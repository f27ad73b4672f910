import sys

import numpy as np
import pytest

from revelight import streams, verify
from revelight.errors import UsageError
from revelight.estimator import GAUSSIAN, SPHERE
from revelight.verify import (
    BoundReport,
    check_smoothing_bounds,
    check_unbiasedness,
    compute_speedup,
    fit_convergence_rate,
    fit_rate_series,
    grad_bias_bound,
    report_lines,
    reports_to_csv,
    value_bias_bound,
)

from conftest import smoothed_grad_mc, smoothed_value_mc


class TestBoundReport:
    def test_pass_rule(self):
        assert BoundReport.make("x", 1.0, 0.9, 0.2).passed
        assert not BoundReport.make("x", 1.0, 0.9, 0.05).passed

    def test_zero_radius_trivially_passes(self):
        f = lambda w: float(np.sum(w**2))
        mean, se = smoothed_value_mc(f, np.ones(3), 0.0, GAUSSIAN, 10,
                                     streams.stream(0, streams.TRIAL))
        r = BoundReport.make("mu0", abs(mean - 3.0), value_bias_bound(0.0, 1.0, 3), 3 * se)
        assert r.measured == 0.0 and r.bound == 0.0 and r.passed


class TestSmoothingBounds:
    @pytest.mark.parametrize("scheme", [GAUSSIAN, SPHERE])
    def test_all_reports_pass(self, scheme):
        reports = check_smoothing_bounds(scheme, trials=3, seed=1, draws=8000)
        assert len(reports) == 2 * 4 * 2 * 3  # value+grad x dims x mus x trials
        assert all(r.passed for r in reports)

    def test_gaussian_value_bias_is_trace_bound(self):
        # analytic: |f_mu - f| = mu^2 |tr H| / 2 <= mu^2 d L / 2
        rng = streams.stream(3, streams.TRIAL)
        d = 6
        A = rng.standard_normal((d, d))
        H = (A + A.T) / 2
        L = float(np.linalg.norm(H, 2))
        mu = 0.05
        assert abs(0.5 * mu * mu * np.trace(H)) <= value_bias_bound(mu, L, d)

    def test_sphere_d1_gradient_exact(self):
        # on {-1, +1} the two-point estimate of a quadratic averages to the
        # exact derivative, so the measured bias is MC-noise only
        f = lambda v: 1.5 * float(v[0] ** 2) - 0.3 * float(v[0])
        w = np.array([0.4])
        mean, se = smoothed_grad_mc(f, w, 0.01, SPHERE, 1, 4000,
                                    streams.stream(4, streams.TRIAL))
        grad = 3.0 * 0.4 - 0.3
        assert (mean[0] - grad) ** 2 <= grad_bias_bound(SPHERE, 0.01, 3.0, 1) + 3 * se[0] ** 2

    def test_trials_required(self):
        with pytest.raises(UsageError):
            check_smoothing_bounds(GAUSSIAN, trials=0)

    @pytest.mark.parametrize("draws", [0, 1])
    def test_fewer_than_two_draws_rejected(self, draws):
        with pytest.raises(UsageError, match="at least 2 draws"):
            check_smoothing_bounds(GAUSSIAN, trials=1, draws=draws)

    def test_no_cases_no_reports(self):
        assert check_smoothing_bounds(GAUSSIAN, trials=1, dims=()) == []
        assert check_smoothing_bounds(GAUSSIAN, trials=1, mus=()) == []

    def test_reports_do_not_depend_on_worker_count(self, monkeypatch):
        """One worker, two, and the cap on more threads than cores, with a
        short switch interval: the same reports in the same order."""
        pools = []

        class Pool(verify.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(verify, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(verify, "_cpus", lambda: 64)
        caps = (1, 2, verify.MAX_WORKERS)
        runs = []
        for cap in caps:
            monkeypatch.setattr(verify, "MAX_WORKERS", cap)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                runs.append(check_smoothing_bounds(SPHERE, trials=2, seed=5, draws=300))
            finally:
                sys.setswitchinterval(interval)
        assert pools == list(caps)
        assert runs[0] == runs[1] == runs[2]
        # case s of the nested dim, mu, trial loops draws at salt s
        cases = [(d, mu, t) for d in (2, 4, 8, 16) for mu in (1e-1, 1e-2) for t in range(2)]
        serial = [r for salt, case in enumerate(cases)
                  for r in verify._smoothing_case(SPHERE, 5, 300, salt, case)]
        assert runs[0] == serial


class TestUnbiasedness:
    @pytest.mark.parametrize("scheme", [GAUSSIAN, SPHERE])
    def test_quadratic_within_three_sigma(self, scheme):
        report = check_unbiasedness(scheme, M=50000, seed=2)
        assert report.passed

    def test_affine_unbiased_both_schemes(self):
        b = np.array([0.4, -0.9, 1.1, 0.2])
        f = lambda v: float(b @ v) - 2.0
        w = np.zeros(4)
        for scheme, tag in ((GAUSSIAN, 5), (SPHERE, 6)):
            mean, se = smoothed_grad_mc(f, w, 0.05, scheme, 4, 40000,
                                        streams.stream(tag, streams.TRIAL))
            assert np.all(np.abs(mean - b) <= 3 * se)

    def test_minimum_draws(self):
        with pytest.raises(UsageError):
            check_unbiasedness(GAUSSIAN, M=100)


class TestRateFit:
    def test_exact_inverse_sqrt(self):
        ts = np.arange(1, 200)
        fit = fit_rate_series(ts, 3.0 / np.sqrt(ts))
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_sequence(self):
        ts = np.arange(1, 100)
        fit = fit_rate_series(ts, np.full(99, 2.5))
        assert fit.slope == pytest.approx(0.0, abs=1e-9)

    def test_window_bounds(self):
        ts = np.arange(1, 101)
        fit = fit_rate_series(ts, 1.0 / ts, window=(0.2, 1.0))
        assert fit.window == (20.0, 100.0)

    def test_too_few_checkpoints(self):
        with pytest.raises(UsageError):
            fit_rate_series([1, 2, 3], [1.0, 0.5, 0.3])

    def test_run_slope_negative(self, bench_data, glm_models):
        from conftest import logistic_grad_sq
        from revelight.engine import RunConfig, run_asyrevel

        train, test = bench_data(4, n=256, d=32, seed=4)
        lm, gm = glm_models(4)
        cfg = RunConfig(algorithm="asyrevel_gau", q=4, T=8192, eta=2e-3, mu=1e-3,
                        lam_eff=5e-5, seed=4, record_snapshots=True, eval_every=256)
        m = run_asyrevel(cfg, train, lm, gm, test)
        fit = fit_convergence_rate(m, logistic_grad_sq(train, 5e-5))
        assert fit.slope < 0

    def test_snapshots_required(self, bench_data, glm_models):
        from revelight.engine import RunConfig, run_asyrevel

        train, test = bench_data(4, n=256, d=32, seed=4)
        lm, gm = glm_models(4)
        cfg = RunConfig(algorithm="asyrevel_gau", q=4, T=512, eta=1e-3, mu=1e-3, seed=4)
        m = run_asyrevel(cfg, train, lm, gm)
        with pytest.raises(UsageError):
            fit_convergence_rate(m, lambda w0, w: 1.0)


class TestSpeedup:
    def test_baseline_is_one(self):
        s = compute_speedup({1: 10.0, 2: 5.0, 4: 2.6})
        assert s[1] == 1.0
        assert s[2] == pytest.approx(2.0)
        assert s[4] == pytest.approx(10.0 / 2.6)

    def test_missing_baseline(self):
        with pytest.raises(UsageError):
            compute_speedup({2: 5.0})

    def test_scale_invariance_exact(self):
        times = {1: 7.3, 2: 3.9, 8: 1.1}
        a = compute_speedup(times)
        b = compute_speedup({q: 13.7 * t for q, t in times.items()})
        assert a == b


class TestReportOutput:
    def test_text_and_csv(self, tmp_path):
        reports = [
            BoundReport.make("alpha", 0.5, 1.0, 0.0),
            BoundReport.make("beta", 2.0, 1.0, 0.5),
        ]
        lines = report_lines(reports)
        assert len(lines) == 3
        assert lines[1].endswith("yes") and lines[2].endswith("NO")
        path = tmp_path / "report.csv"
        reports_to_csv(reports, path)
        text = path.read_text().splitlines()
        assert text[0] == "quantity,measured,bound,slack,pass"
        assert text[1].startswith("alpha,") and text[1].endswith(",true")
        assert text[2].endswith(",false")
