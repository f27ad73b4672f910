import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replay_transcript
from revelight.cli import synthetic_pair
from revelight.engine import (
    ALGORITHMS,
    APPLY,
    HANDLE,
    START,
    RunConfig,
    event_schedule,
    evaluate_loss,
    matched_schedule,
    measure_comm,
    run_algorithm,
    run_asyrevel,
    run_nonfederated,
    run_synrevel,
    run_tig_baseline,
)
from revelight.errors import ConfigError, UsageError, UnsupportedModelError
from revelight.fedproto import DelayModel, PartyNode, frame_bytes
from revelight.models import GlobalModel, LocalModel, PartitionedDataset


def _cfg(**kw):
    base = dict(algorithm="asyrevel_gau", q=4, T=2048, eta=1e-3, mu=1e-3,
                lam_eff=5e-5, seed=0)
    base.update(kw)
    return RunConfig(**base)


def _count_draws(monkeypatch, name: str) -> list:
    """The (party, step) of every later call of the DelayModel draw `name`."""
    calls, draw = [], getattr(DelayModel, name)

    def counted(self, party, step):
        calls.append((party, step))
        return draw(self, party, step)

    monkeypatch.setattr(DelayModel, name, counted)
    return calls


class TestRunConfig:
    def test_q_zero_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(q=0)

    def test_p_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            _cfg(p=[0.5, 0.2, 0.2, 0.2])

    def test_straggler_factor_below_one(self):
        with pytest.raises(ConfigError):
            _cfg(straggler=(1, 0.5))

    def test_latency_needs_enough_tau(self):
        with pytest.raises(ConfigError, match="infeasible"):
            _cfg(latency=0.3, tau=1)
        _cfg(latency=0.3, tau=3)

    @pytest.mark.parametrize("algorithm", ["synrevel", "nonfed", "tig"])
    def test_staleness_rule_binds_only_asynchronous_runs(self, algorithm):
        _cfg(algorithm=algorithm, latency=0.6, tau=0)

    def test_construction_checks_the_config(self):
        """No caller has to check a config: an invalid one is never built."""
        with pytest.raises(ConfigError, match="need at least one party"):
            RunConfig(algorithm="asyrevel_gau", q=0, T=8)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            _cfg(algorithm="sgd")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("q, head_q, width", [(8, 4, 1), (2, 4, 1), (4, 2, 1), (4, 4, 2)],
                             ids=["q_above_data", "q_below_data", "head_q", "head_width"])
    def test_party_mismatch_fails_at_start(self, bench_data, algorithm, q, head_q, width):
        """The config's q, the data's blocks and the head's parties (and the
        local and head output widths) must agree before anything runs."""
        train, _ = bench_data(4)
        gm = GlobalModel(kind="logistic", q=head_q, party_output_dim=width)
        with pytest.raises(ConfigError, match="parties disagree"):
            run_algorithm(_cfg(algorithm=algorithm, q=q, T=64), train, LocalModel(), gm)

    def test_wrong_runner(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        with pytest.raises(ConfigError):
            run_asyrevel(_cfg(algorithm="synrevel"), train, lm, gm)


class TestAsyRevel:
    def test_row_count_and_schedule(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=1024), train, lm, gm, test)
        assert len(m.rows) == 1024 // train.n + 1
        assert [r.t for r in m.rows] == [0, 256, 512, 768, 1024]
        assert all(a.t < b.t for a, b in zip(m.rows, m.rows[1:]))

    def test_initial_row_is_objective_at_init(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=256), train, lm, gm, test)
        assert m.rows[0].loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_loss_decreases_within_2000_steps(self, glm_models):
        train, test = synthetic_pair("separable", 256, 256, 32, 4, seed=2)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=2048, seed=2, eta=5e-3), train, lm, gm, test)
        assert m.final_loss < m.rows[0].loss

    def test_benchmark_hyperparameters_make_progress(self, glm_models):
        # eta = mu = 1e-3, lam = 1e-4 rescaled; 2e4 events drop the loss by
        # more than 0.1, and the running-mean loss is monotone after warm-in
        train, test = synthetic_pair("noisy", 512, 512, 32, 4, seed=1)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=20480, seed=1, eta=1e-3, mu=1e-3, lam_eff=5e-5),
                         train, lm, gm, test)
        assert m.final_loss < m.rows[0].loss - 0.1
        losses = [r.loss for r in m.rows]
        running = np.cumsum(losses) / np.arange(1, len(losses) + 1)
        start = max(1, len(running) // 10)
        pairs = list(zip(running[start:], running[start + 1:]))
        violations = sum(b > a for a, b in pairs)
        assert violations <= max(1, int(0.05 * len(pairs)))

    def test_metrics_bytes_match_transcript_exactly(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=512), train, lm, gm, test)
        assert m.rows[-1].bytes_up == m.transcript.total_bytes("up")
        assert m.rows[-1].bytes_down == m.transcript.total_bytes("down")

    def test_round_bytes_constant_in_block_dim(self, glm_models):
        lm, _ = glm_models(2)
        totals = {}
        for d in (8, 16):
            train, test = synthetic_pair("noisy", 64, 64, 2 * d, 2, seed=1)
            gm = GlobalModel(kind="logistic", q=2)
            m = run_asyrevel(_cfg(q=2, T=128, seed=1), train, lm, gm)
            totals[d] = m.transcript.column("nbytes")[m.transcript.column("seq") >= 0].sum()
        assert totals[8] == totals[16]

    def test_transcript_determinism(self, bench_data, glm_models, tmp_path):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        paths = []
        for run in range(2):
            m = run_asyrevel(_cfg(T=512, latency=0.4, tau=4, latency_dist="uniform"),
                             train, lm, gm)
            p = tmp_path / f"t{run}.jsonl"
            m.transcript.to_jsonl(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_one_latency_draw_per_upload(self, bench_data, glm_models, monkeypatch):
        """One latency draw per upload, and one compute-time draw per party at
        step 0, then one after each applied reply but the run's last."""
        latency = _count_draws(monkeypatch, "latency_time")
        compute = _count_draws(monkeypatch, "compute_time")
        train, _ = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=300, tau=3, latency=0.6, latency_dist="uniform"), train, lm, gm)
        t = m.transcript
        sent_rows = (t.column("direction") == "up") & (t.column("seq") >= 0)
        sent = list(zip(t.column("party")[sent_rows].tolist(), t.column("seq")[sent_rows].tolist()))
        assert len(sent) == 300
        assert sorted(latency) == sorted(sent)
        assert len(compute) == 4 + 300 - 1

    def test_staleness_bounded_and_exercised(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(
            _cfg(T=2048, tau=4, latency=0.6, latency_dist="uniform",
                 compute_dist="exponential"),
            train, lm, gm,
        )
        assert 0 < m.rows[-1].staleness <= 4

    def test_constant_latency_keeps_the_bound(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=512, tau=3, latency=0.6), train, lm, gm, test)
        assert m.rows[-1].t == 512 and 0 < max(r.staleness for r in m.rows) <= 3

    def test_zero_latency_has_zero_staleness(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=512), train, lm, gm)
        assert m.rows[-1].staleness == 0

    def test_activation_frequencies_match_p(self, glm_models):
        train, _ = synthetic_pair("noisy", 32, 32, 8, 4, seed=5)
        lm, gm = glm_models(4)
        p = [0.1, 0.2, 0.3, 0.4]
        events = 20000
        m = run_asyrevel(
            _cfg(T=events, seed=5, p=p, compute_dist="exponential", eval_every=events),
            train, lm, gm,
        )
        counts = np.array(m.activations, dtype=float)
        for pm, cnt in zip(p, counts):
            assert abs(cnt / events - pm) <= 3 * np.sqrt(pm * (1 - pm) / events)

    def test_stop_loss_terminates_early(self, glm_models, monkeypatch):
        compute = _count_draws(monkeypatch, "compute_time")
        train, test = synthetic_pair("separable", 256, 256, 32, 4, seed=2)
        lm, gm = glm_models(4)
        m = run_asyrevel(
            _cfg(T=8192, seed=2, eta=5e-3, stop_loss=0.62, eval_every=128),
            train, lm, gm, test,
        )
        assert m.reached and m.events_to_target < 8192
        assert m.rows[-1].loss <= 0.62
        # the schedule is lazy: no compute time is drawn past the stop
        assert len(compute) == 4 + m.rows[-1].t - 1

    @pytest.mark.parametrize("replay", [False, True], ids=["scheduled", "replayed"])
    def test_stop_loss_at_the_initial_loss_runs_no_event(self, bench_data, glm_models, replay):
        """A stop_loss at or above the initial loss stops the run at its
        event-0 row, as the other drivers do: no event runs."""
        train, test = bench_data(4)
        cfg = _cfg(T=64, stop_loss=10.0)
        schedule = matched_schedule(cfg, train.n) if replay else None
        m = run_asyrevel(cfg, train, *glm_models(4), test, schedule=schedule)
        assert len(m.rows) == 1 and m.rows[0].t == 0
        assert m.reached and m.events_to_target == 0 and m.time_to_target == 0.0
        assert not (m.transcript.column("seq") >= 0).any()


class TestFinalRow:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_ends_on_a_row_at_its_last_event(self, bench_data, glm_models, algorithm):
        """T = 300 is not a multiple of eval_every = 128, and the last row
        still holds the loss at the final parameters."""
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_algorithm(_cfg(algorithm=algorithm, T=300, eval_every=128), train, lm, gm, test)
        assert [r.t for r in m.rows] == [0, 128, 256, 300]
        assert m.final_loss == evaluate_loss(m.final_w0, m.final_w, train, 5e-5, lm, gm)

    def test_synchronous_run_ends_on_its_last_round(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_synrevel(_cfg(algorithm="synrevel", T=299, eval_every=128), train, lm, gm, test)
        assert [r.t for r in m.rows] == [0, 128, 256, 300]


def transcript_staleness(transcript) -> list[int]:
    """Each answered upload's staleness, read from the transcript alone.

    The server writes one `down` row per upload it processes, so an upload's
    send count is the number of `down` rows before its `up` row, its
    processing count the number before the `down` row of the same (party,
    seq), and its staleness the difference.  Asserts on the way that every
    reply follows its upload and carries its sample, that a party's upload
    k follows the reply to its upload k - 1, that every upload is answered
    and that time never decreases.  Warm-up uploads (seq -1) are not
    answered and are skipped.
    """
    down = transcript.column("direction") == "down"
    downs_before = np.cumsum(down) - down
    party, sample, seq = (transcript.column(key).tolist() for key in ("party", "sample", "seq"))
    assert np.all(np.diff(transcript.column("time")) >= 0)
    sent, answered, staleness = {}, set(), []
    for row in np.flatnonzero(np.array(seq) >= 0).tolist():
        key = (party[row], seq[row])
        if not down[row]:
            assert key not in sent and (key[1] == 0 or (key[0], key[1] - 1) in answered), row
            sent[key] = row
            continue
        up = sent.pop(key)  # a KeyError is a reply without an earlier upload
        assert sample[up] == sample[row], row
        answered.add(key)
        staleness.append(int(downs_before[row] - downs_before[up]))
    assert not sent, f"unanswered uploads {sorted(sent)}"
    return staleness


class TestTranscriptStaleness:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), q=st.integers(2, 8), T=st.integers(200, 800),
           latency=st.floats(0.6, 5.0), latency_dist=st.sampled_from(["constant", "uniform"]),
           compute_dist=st.sampled_from(["constant", "exponential"]),
           algorithm=st.sampled_from(["asyrevel_gau", "asyrevel_uni"]),
           seed=st.integers(0, 2**32))
    def test_transcript_fixes_each_uploads_staleness(self, bench_data, glm_models, data, q, T,
                                                     latency, latency_dist, compute_dist,
                                                     algorithm, seed):
        """At tau = q - 1 the staleness the transcript shows stays within tau,
        and its maximum is the one the recorder reports."""
        straggler = data.draw(st.none() | st.tuples(st.integers(1, q), st.just(2.0)))
        cfg = _cfg(algorithm=algorithm, q=q, T=T, tau=q - 1, latency=latency,
                   latency_dist=latency_dist, compute_dist=compute_dist, straggler=straggler,
                   seed=seed)
        train, _ = bench_data(q, n=64, d=16, n_test=0)
        m = run_asyrevel(cfg, train, *glm_models(q))
        staleness = transcript_staleness(m.transcript)
        assert len(staleness) == T
        assert max(staleness) == m.rows[-1].staleness <= q - 1
        # the schedule alone, with no node, gives the rows' order and staleness
        ops = [(op, party, value) for _, op, party, value in event_schedule(cfg) if op != APPLY]
        t = m.transcript
        training = t.column("seq") >= 0
        assert [("up" if op == START else "down", party) for op, party, _ in ops] == list(
            zip(t.column("direction")[training], t.column("party")[training].tolist()))
        assert [value for op, _, value in ops if op == HANDLE] == staleness


class TestEquivalences:
    def test_nonfed_bit_identical_shared_stream(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        asy = run_asyrevel(_cfg(T=2048), train, lm, gm, test)
        non = run_nonfederated(_cfg(algorithm="nonfed", T=2048), train, lm, gm, test)
        assert all(np.array_equal(a, b) for a, b in zip(asy.final_w, non.final_w))
        for ra, rn in zip(asy.rows, non.rows):
            assert ra.loss == rn.loss and ra.acc == rn.acc

    def test_nonfed_emits_no_transcript(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        non = run_nonfederated(_cfg(algorithm="nonfed", T=256), train, lm, gm)
        assert non.transcript is None
        assert non.rows[-1].bytes_up == 0

    def test_tau0_matched_schedule_equals_synrevel_q1(self, glm_models):
        train, test = synthetic_pair("noisy", 128, 128, 16, 1, seed=3)
        lm, gm = glm_models(1)
        cfg_a = _cfg(algorithm="asyrevel_uni", q=1, T=512, seed=3, eta=1e-2)
        sched = matched_schedule(cfg_a, train.n)
        asy = run_asyrevel(cfg_a, train, lm, gm, test, schedule=sched)
        cfg_s = _cfg(algorithm="synrevel", q=1, T=512, seed=3, eta=1e-2, scheme="sphere")
        syn = run_synrevel(cfg_s, train, lm, gm, test)
        assert np.array_equal(asy.final_w[0], syn.final_w[0])
        assert [r.loss for r in asy.rows] == [r.loss for r in syn.rows]

    @pytest.mark.parametrize("pair", [(0, 1), (-1, 3), (5, 1), (1, 32), (1, -1), (2.0, 1),
                                      (True, 1), (1,), (1, 2, 3)])
    def test_replay_refuses_a_pair_outside_the_run(self, bench_data, glm_models, monkeypatch,
                                                   pair):
        """A pair outside parties 1..q and samples 0..n-1, or not of two
        integers, is one ConfigError naming it, raised before the valid pair
        ahead of it runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("a party stepped")

        monkeypatch.setattr(PartyNode, "start_step", refuse)
        train, _ = bench_data(4, n=32, d=16, n_test=0)
        with pytest.raises(ConfigError, match=rf"schedule pair {re.escape(str(pair))} is outside"):
            run_asyrevel(_cfg(T=8), train, *glm_models(4), schedule=[(1, 0), pair])

    @pytest.mark.parametrize("algorithm", ["asyrevel_gau", "asyrevel_uni", "synrevel"])
    @pytest.mark.parametrize("mlp", [False, True], ids=["logistic", "mlp_softmax"])
    @settings(max_examples=7, deadline=None)
    @given(data=st.data(), q=st.integers(2, 16), T=st.integers(100, 600),
           scheme=st.sampled_from(["gaussian", "sphere"]), latency=st.sampled_from([0.0, 0.6, 1.5]),
           latency_dist=st.sampled_from(["constant", "uniform"]),
           compute_dist=st.sampled_from(["constant", "exponential"]), seed=st.integers(0, 2**32))
    def test_transcript_replay_recomputes_every_payload(self, bench_data, data, q, T, algorithm,
                                                         scheme, mlp, latency, latency_dist,
                                                         compute_dist, seed):
        """Every training payload and the final parameters of a run at q > 1,
        with latency, equal the algorithm's pure math replayed over its
        transcript (`conftest.replay_transcript`), bit for bit."""
        tau = data.draw(st.integers(q - 1, q + 3))
        straggler = data.draw(st.none() | st.tuples(st.integers(1, q), st.just(2.0)))
        cfg = _cfg(algorithm=algorithm, q=q, T=T, tau=tau, scheme=scheme, latency=latency,
                   latency_dist=latency_dist, compute_dist=compute_dist, straggler=straggler,
                   seed=seed, eta=5e-3, eta_server=0.05)
        train, _ = bench_data(q, n=48, d=2 * q, n_test=0)
        if mlp:  # a head with parameters, so head directions and w0 steps show
            train = PartitionedDataset(train.blocks, (train.labels + 1) // 2)
            lm = LocalModel(kind="mlp", layer_sizes=(4, 2))
            gm = GlobalModel(kind="softmax_fcn", q=q, party_output_dim=2)
        else:
            lm, gm = LocalModel(), GlobalModel(kind="logistic", q=q)
        m = run_algorithm(cfg, train, lm, gm)
        payloads, w0, w = replay_transcript(cfg, train, lm, gm, m.transcript)
        t = m.transcript
        values, offsets = t.column("values"), t.column("offsets")
        rows = np.flatnonzero(t.column("seq") >= 0)
        assert len(payloads) == rows.size == 2 * m.rows[-1].t
        differ = [r for r, p in zip(rows, payloads)
                  if not np.array_equal(values[offsets[r]:offsets[r + 1]], p)]
        assert not differ, f"{len(differ)} of {rows.size} payloads differ, first at row {differ[0]}"
        assert np.array_equal(w0, m.final_w0)
        assert all(np.array_equal(a, b) for a, b in zip(w, m.final_w))


class TestSynRevel:
    def test_straggled_speedup_below_async(self):
        # with one party 1.4x slower, the synchronous barrier caps speedup at
        # q/1.4 while the asynchronous schedule keeps the fast parties busy
        from revelight.verify import compute_speedup

        lm = LocalModel()
        times_a, times_s = {}, {}
        for q in (1, 2, 4, 8):
            train, _ = synthetic_pair("noisy", 64, 64, 32, q, seed=6)
            gm = GlobalModel(kind="logistic", q=q)
            straggler = (2, 1.4) if q > 1 else None
            cfg_a = _cfg(q=q, T=1024, seed=6, straggler=straggler, eval_every=1024)
            times_a[q] = run_asyrevel(cfg_a, train, lm, gm).final_vtime
            cfg_s = _cfg(algorithm="synrevel", q=q, T=1024, seed=6,
                         straggler=straggler, eval_every=1024)
            times_s[q] = run_synrevel(cfg_s, train, lm, gm).final_vtime
        speed_a = compute_speedup(times_a)
        speed_s = compute_speedup(times_s)
        for q in (2, 4, 8):
            assert speed_s[q] < speed_a[q]

    def test_straggler_sets_round_time(self, glm_models):
        train, _ = synthetic_pair("noisy", 64, 64, 16, 4, seed=3)
        lm, gm = glm_models(4)
        cfg = _cfg(algorithm="synrevel", T=256, seed=3, straggler=(2, 1.4), eval_every=64)
        m = run_synrevel(cfg, train, lm, gm)
        rounds = m.rows[-1].t / 4
        assert m.rows[-1].vtime == pytest.approx(1.4 * rounds, rel=1e-9)

    def test_staleness_identically_zero(self, glm_models):
        train, _ = synthetic_pair("noisy", 64, 64, 16, 4, seed=3)
        lm, gm = glm_models(4)
        m = run_synrevel(_cfg(algorithm="synrevel", T=256, seed=3), train, lm, gm)
        assert m.rows[-1].staleness == 0

    def test_q_zero_config_error(self):
        with pytest.raises(ConfigError):
            _cfg(algorithm="synrevel", q=0)


class TestTig:
    def test_black_box_unsupported(self, bench_data):
        train, test = bench_data(4)
        lm = LocalModel(black_box=True)
        gm = GlobalModel(kind="logistic", q=4)
        with pytest.raises(UnsupportedModelError):
            run_tig_baseline(_cfg(algorithm="tig"), train, lm, gm)

    def test_asyrevel_trains_the_same_black_box_model(self, glm_models):
        train, test = synthetic_pair("separable", 256, 256, 32, 4, seed=2)
        lm = LocalModel(black_box=True)
        gm = GlobalModel(kind="logistic", q=4)
        m = run_asyrevel(_cfg(T=2048, seed=2, eta=5e-3), train, lm, gm, test)
        assert m.final_loss < m.rows[0].loss

    def test_lr_update_matches_closed_form(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((16, 6))
        y = rng.choice([-1, 1], size=16)
        data = PartitionedDataset.from_matrix(X, y, [6])
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=1)
        eta = 0.05
        cfg = _cfg(algorithm="tig", q=1, T=1, eta=eta, lam_eff=0.0, seed=9, eval_every=1)
        m = run_tig_baseline(cfg, data, lm, gm)
        # replicate: which sample did step 0 use?
        from revelight import streams

        i = int(streams.stream(9, streams.SAMPLE, 1, 0).integers(16))
        yy = int(y[i])
        grad = -yy * 0.5 * X[i]  # sigmoid(0) = 1/2 at the zero init
        assert np.allclose(m.final_w[0], -eta * grad, atol=1e-15)

    def test_download_frames_dominate_reply(self):
        # intermediate gradient + chain payload: two frames always beat one reply
        for odim, d_m in ((1, 1), (1, 16), (2, 4), (3, 1)):
            down = frame_bytes(odim) + frame_bytes(d_m)
            assert down >= frame_bytes(2)
        assert frame_bytes(3) > frame_bytes(2)  # strictly greater once odim > 2

    def test_mlp_chain_rule_matches_finite_differences(self):
        from revelight.models import local_forward, local_param_gradient

        rng = np.random.default_rng(11)
        lm = LocalModel(kind="mlp", layer_sizes=(5, 2))
        x = rng.standard_normal(4)
        w = rng.standard_normal(lm.param_dim(4)) * 0.5
        upstream = rng.standard_normal(2)
        grad = local_param_gradient(lm, w, x, upstream)
        eps = 1e-6
        for j in rng.choice(w.size, size=10, replace=False):
            e = np.zeros_like(w)
            e[j] = eps
            num = (upstream @ local_forward(lm, w + e, x)
                   - upstream @ local_forward(lm, w - e, x)) / (2 * eps)
            assert grad[j] == pytest.approx(num, rel=1e-4, abs=1e-7)


class TestDeepModels:
    def _setup(self):
        from revelight.cli import make_synthetic

        X, y = make_synthetic("noisy", 256, 16, seed=4)
        data = PartitionedDataset.from_matrix(X, ((y + 1) // 2).astype(int), [4, 4, 4, 4])
        lm = LocalModel(kind="mlp", layer_sizes=(8, 1))
        gm = GlobalModel(kind="softmax_fcn", q=4, party_output_dim=1, classes=2)
        return data, lm, gm

    def test_mlp_softmax_trains_with_head_updates(self):
        data, lm, gm = self._setup()
        cfg = _cfg(T=4096, seed=4, eta=5e-3, eta_server=1e-3, lam_eff=1e-5)
        m = run_asyrevel(cfg, data, lm, gm, data)
        assert gm.d0 == 8
        assert m.final_loss < m.rows[0].loss
        assert np.any(m.final_w0 != 0)  # the head actually moved

    def test_mlp_softmax_nonfed_equivalence_includes_head(self):
        data, lm, gm = self._setup()
        kw = dict(T=1024, seed=4, eta=5e-3, eta_server=1e-3, lam_eff=1e-5)
        asy = run_asyrevel(_cfg(**kw), data, lm, gm)
        non = run_nonfederated(_cfg(algorithm="nonfed", **kw), data, lm, gm)
        assert np.array_equal(asy.final_w0, non.final_w0)
        assert all(np.array_equal(a, b) for a, b in zip(asy.final_w, non.final_w))

    def test_tig_trains_differentiable_mlp(self):
        data, lm, gm = self._setup()
        cfg = _cfg(algorithm="tig", T=2048, seed=4, eta=5e-3, eta_server=1e-3, lam_eff=1e-5)
        m = run_tig_baseline(cfg, data, lm, gm, data)
        assert m.final_loss < m.rows[0].loss


class TestMeasureComm:
    def _pair(self, d, seed=1, events=128):
        train, _ = synthetic_pair("noisy", 64, 64, 2 * d, 2, seed=seed)
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=2)
        asy = run_asyrevel(_cfg(q=2, T=events, seed=seed), train, lm, gm)
        tig = run_tig_baseline(_cfg(algorithm="tig", q=2, T=events, seed=seed), train, lm, gm)
        return asy, tig

    def test_ratios_exceed_one_and_monotone(self):
        pairs = []
        for d in (16, 64):
            asy, tig = self._pair(d)
            pairs.append((f"d{d}", d, asy, tig))
        rows = measure_comm(pairs)
        assert all(r.byte_ratio > 1 for r in rows)
        assert rows[0].byte_ratio <= rows[1].byte_ratio

    def test_small_block_cost_ratio_in_unit_interval(self):
        asy, tig = self._pair(16)
        rows = measure_comm([("d16", 16, asy, tig)], per_message_overhead=128.0)
        assert 1.0 <= rows[0].cost_ratio <= 2.0

    def test_bench_comm_numbers_are_pinned(self):
        """`bench-comm --blocks 16,64 --events 64 --seed 0`, to the last bit;
        the values were computed before the byte counts came from columns."""
        from revelight.cli import _bench_pair

        pairs = [(f"d{d}", d, *_bench_pair(d, 0, 64)) for d in (16, 64)]
        got = [(r.asy_bytes, r.tig_bytes, r.byte_ratio, r.cost_ratio) for r in measure_comm(pairs)]
        assert got == [(4480, 12864, 2.8714285714285714, 1.794478527607362),
                       (4480, 37440, 8.357142857142858, 2.9723926380368098)]

    def test_unpaired_runs_rejected(self):
        asy, tig = self._pair(8, events=128)
        asy2, _ = self._pair(8, events=64)
        with pytest.raises(UsageError):
            measure_comm([("bad", 8, asy2, tig)])


class TestCsvAndWall:
    def test_csv_header_and_digits(self, bench_data, glm_models, tmp_path):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_asyrevel(_cfg(T=256), train, lm, gm, test)
        path = tmp_path / "m.csv"
        m.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,vtime,wtime,loss,acc,bytes_up,bytes_down,staleness,gnorm2"
        assert len(lines) == len(m.rows) + 1
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["loss"]) == pytest.approx(m.rows[0].loss, rel=1e-11)

    def test_run_algorithm_dispatch(self, bench_data, glm_models):
        train, test = bench_data(4)
        lm, gm = glm_models(4)
        m = run_algorithm(_cfg(algorithm="nonfed", T=256), train, lm, gm, test)
        assert m.rows[-1].t == 256
