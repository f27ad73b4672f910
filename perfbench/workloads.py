"""The three benchmark workloads.

Each workload builds its inputs from the seed once, then runs one operation
at a time, back to back, in this process.  ``run_op`` returns what the
operation did and every check that failed; the reasons for the choice of
each workload are in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

DRIVERS = ("asyrevel_gau", "asyrevel_uni", "synrevel", "nonfed", "tig")

# the ROADMAP reference problem; T is the event budget of each driver.  The
# last evaluation falls on event T: over seeds 0-199 every driver's loss then
# falls by at least 0.02, while at event 1536 (T=2000 with the default
# eval_every of n) one seed in 200 had not fallen yet.
REF = dict(q=4, T=3000, eval_every=500, eta=1e-3, mu=1e-3, lam_eff=5e-5, tau=4,
           latency=0.6, latency_dist="uniform")
WIDE = dict(q=128, d=256, rows=568, shift=0.15, T=4000, tau=127)

# The program's verify verdicts pass at 3 standard errors.  On correct code
# they fail on some seeds: check_unbiasedness, the largest of 8 coordinate
# t-statistics, on 7 of seeds 0-199, and the grad_bias[sphere,d=2,mu=0.01]
# smoothing bound on seeds 303 and 1902658938.  On the latter its measured
# squared norm falls as 1/draws: it is Monte-Carlo noise, since both schemes
# leave a quadratic's gradient exact.  So the benchmark gives every verdict
# 5 standard errors.
SIGMA = 5.0


@dataclass
class OpResult:
    events: int                 # update events, or Monte-Carlo draws on verify_mc
    event_s: float              # wall seconds from the first event to the end
    setup_s: float              # data, models and cache warm-up inside the operation
    checks: int                 # pass/fail verdicts the operation was given
    failures: list[str] = field(default_factory=list)
    fingerprint: str = ""
    losses: dict[str, float] = field(default_factory=dict)   # final loss per driver
    drivers: dict[str, tuple[int, float]] = field(default_factory=dict)  # events, seconds
    import_s: float = 0.0       # fresh package import just before the operation
    wire_bytes: int = 0         # training traffic (seq >= 0) of protocol runs
    wire_events: int = 0        # events of the runs that have a transcript

    @property
    def op_s(self) -> float:
        return self.setup_s + self.event_s


class Probe:
    """Sees when a driver's cache warm-up ends and what run_algorithm returned.

    Events are counted from the end of the warm-up; drivers without one
    (nonfed, tig) count from their start.
    """

    def __init__(self, rl) -> None:
        from tracing import patch

        self.warm_end: float | None = None
        self.result = None
        self.tracer = None

        def on_warmup(fn):
            def warmup_cache(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.warm_end = time.perf_counter()
                return out
            return warmup_cache

        def on_run(fn):
            def run_algorithm(*args, **kwargs):
                self.result = fn(*args, **kwargs)
                return self.result
            return run_algorithm

        patch(rl.fedproto, "warmup_cache", on_warmup)
        patch(rl.engine, "run_algorithm", on_run)

    def reset(self) -> None:
        self.warm_end = None
        self.result = None

    @contextlib.contextmanager
    def untraced(self):
        """Keep the benchmark's own checks out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.on = False
        try:
            yield
        finally:
            self.tracer.on = True


def _digest(h, metrics, workdir=None) -> None:
    """Feed a run's transcript JSONL (written under ``workdir``, when given)
    and its final parameter bytes into ``h``."""
    if workdir is not None and metrics.transcript is not None:
        path = workdir / "fingerprint.jsonl"
        metrics.transcript.to_jsonl(path)
        h.update(path.read_bytes())
    h.update(np.asarray(metrics.final_w0, dtype=np.float64).tobytes())
    for wm in metrics.final_w:
        h.update(np.asarray(wm, dtype=np.float64).tobytes())


def _check_run(rl, label, metrics, tau, audit=None, dims=None) -> tuple[int, list[str]]:
    """Verdicts on one training run: finite falling loss, staleness, and, when
    ``audit`` is "clean" or "flagged", the audit of its linear-model transcript."""
    fails = []
    losses = [row.loss for row in metrics.rows]
    if not all(math.isfinite(x) for x in losses):
        fails.append(f"{label}: non-finite loss")
    elif len(losses) < 2 or not losses[-1] < losses[0]:
        fails.append(f"{label}: loss did not fall ({losses[0]} -> {losses[-1]})")
    if metrics.rows[-1].staleness > tau:
        fails.append(f"{label}: staleness {metrics.rows[-1].staleness} > tau {tau}")
    if audit is None:
        return 2, fails
    report = rl.fedproto.audit_transcript(metrics.transcript, dims, max_output_dim=1)
    if report.ok != (audit == "clean"):
        fails.append(f"{label}: audit {'flagged' if not report.ok else 'passed'} "
                     f"a transcript expected {audit}")
    return 3, fails


class RefDrivers:
    """The five drivers, one after another, on the reference problem."""

    def __init__(self, rl, seed: int, workdir) -> None:
        self.rl, self.seed, self.workdir = rl, seed, workdir

    def expected_counts(self) -> dict[str, dict[str, int]]:
        n, q, T = 512, REF["q"], REF["T"]
        counts = {"fedproto.warm_upload": n * q, "fedproto.record": n * q + 2 * T,
                  "fedproto.start_step": T}
        return {d: counts for d in DRIVERS if d.startswith("asyrevel")}

    def run_op(self, probe: Probe) -> OpResult:
        rl = self.rl
        t0 = time.perf_counter()
        train, test = rl.cli.synthetic_pair("noisy", 512, 2048, 32, REF["q"], self.seed)
        lm = rl.models.LocalModel()
        gm = rl.models.GlobalModel(kind="logistic", q=REF["q"])
        setup = time.perf_counter() - t0
        event_s = 0.0
        runs = {}
        for algo in DRIVERS:
            cfg = rl.engine.RunConfig(algorithm=algo, seed=self.seed, **REF)
            probe.reset()
            start = time.perf_counter()
            metrics = rl.engine.run_algorithm(cfg, train, lm, gm, test)
            end = time.perf_counter()
            first_event = probe.warm_end or start
            setup += first_event - start
            event_s += end - first_event
            runs[algo] = (metrics, end - first_event)

        res = OpResult(events=REF["T"] * len(runs), event_s=event_s, setup_s=setup, checks=0)
        with probe.untraced():
            self._check(res, runs, train.block_dims)
        return res

    def _check(self, res, runs, dims) -> None:
        h = hashlib.sha256()
        for algo, (metrics, secs) in runs.items():
            audit = {"nonfed": None, "tig": "flagged"}.get(algo, "clean")
            tau = REF["tau"] if algo.startswith("asyrevel") else 0
            n_checks, fails = _check_run(self.rl, algo, metrics, tau, audit, dims)
            res.checks += n_checks
            res.failures += fails
            res.losses[algo] = metrics.final_loss
            res.drivers[algo] = (REF["T"], secs)
            if metrics.transcript is not None:
                res.wire_bytes += self.rl.engine.training_bytes(metrics)
                res.wire_events += REF["T"]
            _digest(h, metrics, self.workdir)
        res.fingerprint = h.hexdigest()


class WideAsync:
    """``revelight train`` then ``revelight audit`` at q=128, in process."""

    def __init__(self, rl, seed: int, workdir) -> None:
        self.rl, self.seed = rl, seed
        self.out = workdir / "wide"
        shutil.rmtree(self.out, ignore_errors=True)  # run_experiment appends to summary.csv
        # Two gaussian classes, every feature's mean shifted by +/-0.15.  With
        # noisy-logistic labels at d=256 each 2-feature block sees too little
        # signal: the loss had not fallen after 4000 events for 1 of 80 seeds.
        # Here it falls by at least 0.027 on each of seeds 0-59.
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(WIDE["rows"]) < 0.5, 1, -1)
        X = rng.standard_normal((WIDE["rows"], WIDE["d"])) + WIDE["shift"] * y[:, None]
        data_path = workdir / "wide.libsvm"
        with open(data_path, "w") as fh:
            for yi, xi in zip(y, X):
                feats = " ".join(f"{j}:{v:.6f}" for j, v in enumerate(xi, start=1))
                fh.write(f"{yi} {feats}\n")
        self.config = workdir / "wide.cfg"
        self.config.write_text(
            "algorithm = asyrevel_gau\n"
            f"q = {WIDE['q']}\nT = {WIDE['T']}\ntau = {WIDE['tau']}\n"
            "eta = 0.001\nmu = 0.001\nlam_eff = 0.00005\n"
            "latency = 0.6\nlatency_dist = uniform\neval_every = 500\n"
            f"seed = {seed}\ndataset = {data_path}\nformat = libsvm\n"
        )
        # ten-fold split keeps nine tenths of the rows for training
        self.n_train = WIDE["rows"] - WIDE["rows"] // 10

    def expected_counts(self) -> dict[str, dict[str, int]]:
        nq = self.n_train * WIDE["q"]
        return {"asyrevel_gau": {"fedproto.warm_upload": nq,
                                 "fedproto.record": nq + 2 * WIDE["T"],
                                 "fedproto.start_step": WIDE["T"]}}

    def run_op(self, probe: Probe) -> OpResult:
        cli = self.rl.cli
        transcript = self.out / f"transcript_asyrevel_gau_{self.seed}.jsonl"
        dims = ",".join(["2"] * WIDE["q"])
        stdout = io.StringIO()
        probe.reset()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            rc_train = cli.main(["train", "--config", str(self.config), "--out", str(self.out)])
            rc_audit = cli.main(["audit", "--transcript", str(transcript), "--dims", dims])
        end = time.perf_counter()
        first_event = probe.warm_end or start
        metrics = probe.result

        res = OpResult(events=WIDE["T"], event_s=end - first_event,
                       setup_s=first_event - start, checks=2)
        if rc_train != 0 or rc_audit != 0 or "audit pass" not in stdout.getvalue():
            res.failures.append(f"train exit {rc_train}, audit exit {rc_audit}: "
                                f"{stdout.getvalue().strip()[-200:]}")
            return res
        with probe.untraced():
            n_checks, fails = _check_run(self.rl, "asyrevel_gau", metrics, WIDE["tau"])
            res.checks += n_checks
            res.failures += fails
            res.losses["asyrevel_gau"] = metrics.final_loss
            res.drivers["asyrevel_gau"] = (res.events, res.event_s)
            res.wire_bytes = self.rl.engine.training_bytes(metrics)
            res.wire_events = WIDE["T"]
            h = hashlib.sha256(transcript.read_bytes())
            _digest(h, metrics)
            res.fingerprint = h.hexdigest()
        return res


def bound_limit(report) -> float:
    """The bound of one smoothing report plus a 5-standard-error margin.

    A value report's slack is 3 standard errors.  A gradient report measures
    the squared norm of the error vector, with slack se2 + 3*sqrt(2*se4) (se2
    and se4 the sums of its coordinates' se^2 and se^4), which is at least
    se2 * (1 + 3*sqrt(2/d)).  With zero bias the squared norm is a sum of
    chi-square(1) terms weighing se2 in total, and it passes SIGMA**2 * se2
    no more often than one coordinate passes SIGMA standard errors, whatever
    the correlation of the coordinates (Szekely and Bakirov, 2003).
    """
    if report.quantity.startswith("value_bias"):
        return report.bound + SIGMA / 3.0 * report.slack
    dim = int(re.search(r",d=(\d+),", report.quantity).group(1))
    se2_max = report.slack / (1.0 + 3.0 * math.sqrt(2.0 / dim))
    return report.bound + SIGMA**2 * se2_max


class VerifyMc:
    """The ``revelight verify`` checks at criterion 2's draw count."""

    DRAWS = 200000
    M = 100000

    def __init__(self, rl, seed: int, workdir) -> None:
        self.rl, self.seed = rl, seed

    def expected_counts(self) -> dict:
        return {}

    def run_op(self, probe: Probe) -> OpResult:
        verify = self.rl.verify
        start = time.perf_counter()
        bounds, unbiased = [], []
        for scheme in ("gaussian", "sphere"):
            bounds += verify.check_smoothing_bounds(scheme, trials=1, seed=self.seed,
                                                    draws=self.DRAWS)
            unbiased.append(verify.check_unbiasedness(scheme, M=self.M, seed=self.seed))
        end = time.perf_counter()
        # each bound report draws DRAWS perturbed values; an unbiasedness check M
        res = OpResult(events=len(bounds) * self.DRAWS + len(unbiased) * self.M,
                       event_s=end - start, setup_s=0.0, checks=len(bounds) + len(unbiased))
        res.failures += [f"{r.quantity}: {r.measured:.6g} > {bound_limit(r):.6g}"
                         for r in bounds if not r.measured <= bound_limit(r)]
        res.failures += [f"{r.quantity}: t = {r.measured:.3f} > {SIGMA}"
                         for r in unbiased if not r.measured <= SIGMA]
        h = hashlib.sha256()
        for r in bounds + unbiased:
            h.update(f"{r.quantity}={r.measured:.6e}\n".encode())
        res.fingerprint = h.hexdigest()
        return res


WORKLOADS = {
    "ref_drivers": RefDrivers,
    "wide_async": WideAsync,
    "verify_mc": VerifyMc,
}
