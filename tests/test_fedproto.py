import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from revelight import streams
from revelight.engine import RunConfig, run_algorithm
from revelight.errors import ConfigError, DomainError, ProtocolError, ShapeError
from revelight.fedproto import (
    DelayModel,
    PartyNode,
    Reply,
    ServerCache,
    ServerNode,
    StalenessQueue,
    Transcript,
    Upload,
    audit_transcript,
    encode_message,
    frame_bytes,
    warmup_cache,
)
from revelight.models import (
    GlobalModel,
    LocalModel,
    PartitionedDataset,
    global_value,
    local_forward,
)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _read_frame(frame: bytes):
    """The header fields and the floats of a frame, read by the documented
    layout: length, tag, party, sample, seq, vector length, then <f8 values."""
    return struct.unpack_from("<IBiiiH", frame), np.frombuffer(frame, "<f8", offset=19)


class TestCodec:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
        st.lists(finite_floats, min_size=1, max_size=16),
        st.lists(finite_floats, min_size=1, max_size=16),
    )
    def test_upload_frame_layout(self, party, sample, seq, c, c_hat):
        n = min(len(c), len(c_hat))
        frame = encode_message(Upload(party, sample, np.array(c[:n]), np.array(c_hat[:n]), seq))
        head, floats = _read_frame(frame)
        assert head == (len(frame) - 4, 0, party, sample, seq, n)
        assert len(frame) == frame_bytes(2 * n)
        assert list(map(float.hex, floats.tolist())) == list(map(float.hex, c[:n] + c_hat[:n]))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
           finite_floats, finite_floats)
    def test_reply_frame_layout(self, party, sample, seq, h, h_bar):
        frame = encode_message(Reply(party, sample, h, h_bar, seq))
        head, floats = _read_frame(frame)
        assert head == (len(frame) - 4, 1, party, sample, seq, 2)
        assert list(map(float.hex, floats.tolist())) == [h.hex(), h_bar.hex()]

    def test_upload_frame_is_35_bytes(self):
        # 4 length + 1 tag + 4 party + 4 sample + 4 seq + 2 veclen + 2*8 floats
        msg = Upload(1, 2, np.array([0.5]), np.array([0.5]), 7)
        assert len(encode_message(msg)) == 35

    def test_reply_frame_is_35_bytes(self):
        assert len(encode_message(Reply(1, 2, 0.1, 0.2, 7))) == 35
        assert frame_bytes(2) == 35

    def test_vector_longer_than_length_field(self):
        longest = np.zeros(0xFFFF)
        assert len(encode_message(Upload(1, 1, longest, longest, 0))) == frame_bytes(2 * 0xFFFF)
        too_long = np.zeros(0x10000)
        with pytest.raises(ShapeError, match="exceeds the frame limit"):
            encode_message(Upload(1, 1, too_long, too_long, 0))

    @pytest.mark.parametrize("msg", [
        Upload(2**31, 0, np.zeros(1), np.zeros(1), 0),
        Upload(0, -2**31 - 1, np.zeros(1), np.zeros(1), 0),
        Upload(0, 0, np.zeros(1), np.zeros(1), 2**31),
        Reply(1, 0, 0.1, 0.2, seq=-2**31 - 1),
        Reply(2**40, 0, 0.1, 0.2, seq=0),
    ], ids=["upload_party", "upload_sample", "upload_seq", "reply_seq", "reply_party"])
    def test_header_field_outside_int32(self, msg):
        with pytest.raises(ShapeError, match="does not fit the frame's 4-byte field"):
            encode_message(msg)

    def test_non_message_raises_records_error(self):
        with pytest.raises(DomainError, match="^cannot record ndarray$"):
            encode_message(np.zeros(2))

    def test_header_fields_at_int32_limits(self):
        frame = encode_message(Reply(2**31 - 1, -2**31, 0.1, 0.2, seq=-2**31))
        assert _read_frame(frame)[0] == (31, 1, 2**31 - 1, -2**31, -2**31, 2)


def _sphere_run(q: int, **fields) -> RunConfig:
    """A config whose nodes draw sphere directions (asyrevel_uni pins the scheme)."""
    return RunConfig(algorithm="asyrevel_uni", q=q, T=0, **fields)


def _nodes(cfg: RunConfig, gm: GlobalModel, w0, labels, blocks=()):
    """One party per feature block, party m starting at w = 0.1 (m - 1), and
    the server, all built from `cfg`."""
    lm = LocalModel()
    parties = [PartyNode(m + 1, X, lm, np.full(X.shape[1], 0.1 * m), cfg)
               for m, X in enumerate(blocks)]
    return parties, ServerNode(gm, w0, labels, cfg)


def _tiny_setup(n=6, seed=5):
    d, q = 8, 2
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.choice([-1, 1], size=n)
    data = PartitionedDataset.from_matrix(X, y, [d // q] * q)
    gm = GlobalModel(kind="logistic", q=q)
    cfg = _sphere_run(q, mu=0.05, eta=0.1, lam_eff=1e-3, seed=seed)
    parties, server = _nodes(cfg, gm, np.zeros(0), y, data.blocks)
    return data, LocalModel(), gm, parties, server, Transcript()


class TestNodesFromRunConfig:
    def test_server_cache_is_one_row_per_label_and_q_k_columns(self):
        gm = GlobalModel(kind="softmax_fcn", q=3, party_output_dim=2, classes=2)
        cfg = _sphere_run(3, eta_server=0.5, seed=3)
        _, server = _nodes(cfg, gm, np.zeros(gm.d0), np.array([0, 1, 1, 0, 1]))
        assert server.cache.values.shape == (5, 3 * 2) and server.cache.stamp.shape == (5, 3)
        assert (server.mu, server.eta0, server.scheme) == (cfg.mu, 0.5, "sphere")
        # a sample past the labels is the cache's error, not an index error at the labels
        with pytest.raises(ProtocolError, match="unknown sample id 5"):
            server.handle_upload(Upload(1, 5, np.zeros(2), np.zeros(2), 0))

    def test_party_takes_the_run_s_step_sizes_and_direction_scheme(self):
        # asyrevel_gau pins gaussian directions whatever `scheme` says
        cfg = RunConfig(algorithm="asyrevel_gau", q=2, T=0, scheme="sphere", mu=0.2, eta=0.3,
                        lam_eff=0.4, seed=9)
        party = PartyNode(1, np.ones((3, 2)), LocalModel(), np.zeros(2), cfg)
        assert (party.mu, party.eta, party.lam_eff, party.scheme) == (0.2, 0.3, 0.4, "gaussian")

    def test_server_refuses_a_head_for_another_party_count(self):
        # a q=3 run's step size eta / 3 must not drive a 2-party cache
        cfg = RunConfig(algorithm="asyrevel_gau", q=3, T=0, eta=0.3)
        head = GlobalModel(kind="logistic", q=2)
        with pytest.raises(ConfigError, match=r"^parties disagree: counts \(q, head\) \(3, 2\)$"):
            ServerNode(head, np.zeros(0), np.array([1, -1]), cfg)
        # the run refuses the same mismatch with the same error
        data = PartitionedDataset.from_matrix(np.ones((2, 3)), np.array([1, -1]), [1, 1, 1])
        with pytest.raises(ConfigError, match="^parties disagree: counts"):
            run_algorithm(cfg, data, LocalModel(), head)


class TestWarmup:
    def test_cache_fully_populated(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        cache = warmup_cache(parties, server, transcript)
        assert np.all(cache.stamp == 0)
        assert all(len(cache.row(i)) == cache.q for i in range(cache.n))

    def test_cache_matches_direct_forward(self):
        data, lm, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        for m, party in enumerate(parties):
            for i in range(data.n):
                direct = local_forward(lm, party.w, data.blocks[m][i])
                assert np.array_equal(server.cache.row(i)[m:m + 1], direct)

    def test_transcript_gains_n_q_uploads(self):
        data, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        assert len(transcript) == data.n * len(parties)
        assert (transcript.column("variant") == "upload").all()
        assert (transcript.column("seq") == -1).all()

    def test_one_upload_and_one_record_per_cell(self, monkeypatch):
        """The counts a traced benchmark run checks: n*q warm uploads, T
        steps started and n*q + 2T transcript records over a whole
        asynchronous run."""
        from revelight.cli import synthetic_pair
        from revelight.engine import RunConfig, run_asyrevel

        calls = {"warm_upload": 0, "start_step": 0, "record": 0}
        for cls, name in ((PartyNode, "warm_upload"), (PartyNode, "start_step"),
                          (Transcript, "record")):
            def counted(self, *args, _fn=getattr(cls, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        n, q, T = 24, 3, 10
        train, _ = synthetic_pair("noisy", n, 8, 6, q, seed=0)
        run_asyrevel(RunConfig(algorithm="asyrevel_gau", q=q, T=T), train, LocalModel(),
                     GlobalModel(kind="logistic", q=q))
        assert calls == {"warm_upload": n * q, "start_step": T, "record": n * q + 2 * T}

    def test_wrong_output_width_raises_as_put(self):
        data, _, _, parties, _, transcript = _tiny_setup()
        _, server = _nodes(_sphere_run(2, mu=0.05, seed=5),
                           GlobalModel(kind="logistic", q=2, party_output_dim=2), np.zeros(0),
                           data.labels)
        with pytest.raises(ProtocolError) as put:
            ServerCache(data.n, 2, 2).put(0, 1, np.ones(1), stamp=0)
        with pytest.raises(ProtocolError) as warm:
            warmup_cache(parties, server, transcript)
        assert str(warm.value) == str(put.value) == "party 1 output has 1 values, the head takes 2"
        assert np.all(server.cache.stamp == -1)

    def test_no_samples_warms_nothing(self):
        _, _, _, parties, server, transcript = _tiny_setup(n=0)
        cache = warmup_cache(parties, server, transcript)
        assert len(transcript) == 0 and cache.values.shape == (0, 2) and cache.cold == 0


class TestServerCache:
    def test_layout_is_one_flat_row_per_sample(self):
        cache = ServerCache(3, 2, 2)
        cache.put(2, 2, np.array([1.5, -1.0]), stamp=0)
        cache.put(2, 1, np.array([0.25, 4.0]), stamp=0)
        assert cache.values.shape == (3, 4) and cache.values.flags.c_contiguous
        row = cache.row(2)
        assert np.array_equal(row, [0.25, 4.0, 1.5, -1.0])
        row[:] = 0.0  # row returns a copy
        assert np.array_equal(cache.row(2), [0.25, 4.0, 1.5, -1.0])

    @pytest.mark.parametrize("sample", [-1, 3])
    def test_unknown_sample(self, sample):
        cache = ServerCache(3, 2)
        with pytest.raises(ProtocolError, match=f"unknown sample id {sample}"):
            cache.put(sample, 1, np.array([1.0]), stamp=0)
        with pytest.raises(ProtocolError, match=f"unknown sample id {sample}"):
            cache.row(sample)
        assert np.all(cache.stamp == -1) and not cache.values.any()

    @pytest.mark.parametrize("party", [0, -1, 3])
    def test_unknown_party(self, party):
        cache = ServerCache(3, 2)
        with pytest.raises(ProtocolError, match=f"unknown party id {party}"):
            cache.put(0, party, np.array([1.0]), stamp=0)
        assert np.all(cache.stamp == -1) and not cache.values.any()

    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_put_width_must_be_k(self, width):
        cache = ServerCache(3, 2, 2)
        with pytest.raises(ProtocolError, match="the head takes 2"):
            cache.put(0, 1, np.ones(width), stamp=0)
        assert np.all(cache.stamp == -1)

    def test_unwarmed_cell(self):
        cache = ServerCache(3, 2)
        cache.put(1, 1, np.array([1.0]), stamp=0)
        with pytest.raises(ProtocolError, match=r"cache cell \(1, 2\) not warmed"):
            cache.row(1)

    def test_stamp_may_not_decrease(self):
        cache = ServerCache(3, 2)
        cache.put(1, 2, np.array([1.0]), stamp=5)
        with pytest.raises(ProtocolError, match="stamp would decrease"):
            cache.put(1, 2, np.array([2.0]), stamp=4)
        assert cache.values[1, 1] == 1.0 and cache.stamp[1, 1] == 5

    def test_put_party_fills_one_party_for_every_sample(self):
        cache = ServerCache(3, 2, 2)
        outputs = np.arange(6.0).reshape(3, 2)
        cache.put_party(2, outputs, stamp=0)
        assert np.array_equal(cache.values[:, 2:], outputs) and not cache.values[:, :2].any()
        assert cache.stamp[:, 1].tolist() == [0, 0, 0] and cache.cold == 3
        with pytest.raises(ProtocolError, match=r"cache cell \(0, 1\) not warmed"):
            cache.row(0)
        cache.put_party(1, -outputs, stamp=0)
        assert cache.cold == 0
        assert np.array_equal(cache.row(2), [-4.0, -5.0, 4.0, 5.0])

    @pytest.mark.parametrize("party", [0, -1, 3])
    def test_put_party_unknown_party(self, party):
        cache = ServerCache(3, 2)
        with pytest.raises(ProtocolError, match=f"unknown party id {party}"):
            cache.put_party(party, np.ones((3, 1)), stamp=0)
        assert np.all(cache.stamp == -1) and not cache.values.any() and cache.cold == 6

    @pytest.mark.parametrize("width", [1, 3])
    def test_put_party_width_must_be_k(self, width):
        cache = ServerCache(3, 2, 2)
        with pytest.raises(ProtocolError) as err:
            cache.put_party(1, np.ones((3, width)), stamp=0)
        assert str(err.value) == f"party 1 output has {width} values, the head takes 2"
        assert np.all(cache.stamp == -1) and cache.cold == 6

    def test_put_party_stamp_may_not_decrease(self):
        cache = ServerCache(3, 2)
        cache.put(1, 2, np.array([1.0]), stamp=5)
        with pytest.raises(ProtocolError) as err:
            cache.put_party(2, np.full((3, 1), 2.0), stamp=4)
        assert str(err.value) == "cache stamp would decrease for sample 1, party 2"
        assert cache.values[:, 1].tolist() == [0.0, 1.0, 0.0] and cache.cold == 5

    def test_cold_count_follows_the_stamps(self):
        cache = ServerCache(2, 2)
        cache.put(0, 1, np.array([1.0]), stamp=0)
        cache.put(0, 1, np.array([2.0]), stamp=3)  # a warm cell again
        cache.put_party(2, np.ones((2, 1)), stamp=1)
        assert cache.cold == int((cache.stamp < 0).sum()) == 1
        with pytest.raises(ProtocolError, match=r"cache cell \(1, 1\) not warmed"):
            cache.row(1)
        cache.put(1, 1, np.array([4.0]), stamp=2)
        assert cache.cold == 0 and cache.row(1).tolist() == [4.0, 1.0]


class TestServerHandleUpload:
    def test_identical_inputs_give_equal_head_values(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        up = parties[0].start_step(sample=3)
        up.c_hat = up.c.copy()
        reply = server.handle_upload(up)
        assert reply.h == reply.h_bar

    def test_glm_head_never_updates(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        before = len(transcript)
        up = parties[0].start_step()
        reply = server.handle_upload(up)
        assert server.w0.size == 0 and server.last_v0 is None
        assert isinstance(reply, Reply)
        assert len(transcript) == before  # replies are logged by the engine, not here

    def test_stale_entry_changes_head_value(self):
        # party 2's cached output is one step old; a fresh entry gives a different h
        data, lm, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        i = 2
        parties[1].w = parties[1].w + 0.5  # party 2 moved since warm-up
        up = parties[0].start_step(sample=i)
        stale_reply = server.handle_upload(up)
        fresh_c2 = local_forward(lm, parties[1].w, data.blocks[1][i])
        assert not np.array_equal(fresh_c2, server.cache.row(i)[1:])
        server.cache.put(i, 2, fresh_c2, stamp=2)
        parties[0].pending = None
        up2 = parties[0].start_step(sample=i)
        up2.c, up2.c_hat = up.c, up.c_hat  # same party-1 payload, fresh party-2 cache
        fresh_reply = server.handle_upload(up2)
        assert stale_reply.h != fresh_reply.h

    @staticmethod
    def _server_state(server):
        cache = server.cache
        return cache.values.copy(), cache.stamp.copy(), cache.cold, server.w0.copy(), \
            server.uploads_seen

    def _assert_unchanged(self, server, before):
        after = self._server_state(server)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("entry", ["handle_upload", "answer_round"])
    def test_unknown_sample_id(self, entry):
        """Rejected before anything changes, also as the last upload of a
        round, after a valid one."""
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        up = parties[1].start_step(sample=1)
        up.sample = 999
        before = self._server_state(server)
        with pytest.raises(ProtocolError, match="unknown sample id 999"):
            if entry == "handle_upload":
                server.handle_upload(up)
            else:
                server.answer_round([parties[0].start_step(sample=1), up])
        self._assert_unchanged(server, before)

    def test_cold_cell_rejected_before_anything_changes(self):
        _, _, _, parties, server, _ = _tiny_setup()
        server.cache.put(3, 1, np.array([0.25]), stamp=0)  # party 2's cell stays cold
        before = self._server_state(server)
        with pytest.raises(ProtocolError, match=r"cache cell \(3, 2\) not warmed"):
            server.handle_upload(parties[0].start_step(sample=3))
        self._assert_unchanged(server, before)

    @pytest.mark.parametrize("entry", ["handle_upload", "answer_round"])
    def test_non_finite_head_estimate_rejected(self, entry):
        # an infinite party output makes the softmax head value NaN
        gm = GlobalModel(kind="softmax_fcn", q=2, party_output_dim=1, classes=2)
        w0 = np.random.default_rng(0).standard_normal(gm.d0)
        _, server = _nodes(_sphere_run(2, mu=0.1, eta_server=0.1, seed=3), gm, w0,
                           np.array([0, 1, 0]))
        for i in range(3):
            for m in (1, 2):
                server.cache.put(i, m, np.array([0.5]), stamp=0)
        up = Upload(1, 2, np.array([np.inf]), np.array([0.4]), 0)
        rejected = "server: non-finite head update rejected at step 0"
        with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match=rejected):
            if entry == "handle_upload":
                server.handle_upload(up)
            else:
                server.answer_round([up, Upload(2, 2, np.array([0.5]), np.array([0.5]), 0)])
        assert np.array_equal(server.w0, w0)
        assert server.uploads_seen == 0 and server.cache.stamp[2, 0] == 0

    @staticmethod
    def _answer(server, entry, up):
        if entry == "handle_upload":
            return server.handle_upload(up)
        # a round of plain uploads from the other parties, then `up`
        uploads = [Upload(m, up.sample, np.array([0.5]), np.array([0.5]), 0)
                   for m in range(1, server.cache.q + 1) if m != up.party]
        return server.answer_round(uploads + [up])

    @pytest.mark.parametrize("entry", ["handle_upload", "answer_round"])
    @pytest.mark.parametrize("party", [0, -1, 3])
    def test_unknown_party_id(self, entry, party):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        cached = server.cache.values.copy()
        up = Upload(party, 1, np.array([0.3]), np.array([0.4]), 0)
        # a round is checked for parties 1..q in order before any step
        message = (f"unknown party id {party}" if entry == "handle_upload"
                   else "one upload from each of parties 1..2")
        with pytest.raises(ProtocolError, match=message):
            self._answer(server, entry, up)
        assert np.array_equal(server.cache.values, cached) and server.uploads_seen == 0

    @pytest.mark.parametrize("entry", ["handle_upload", "answer_round"])
    @pytest.mark.parametrize("c, c_hat", [
        ([0.3, 0.1], [0.4, 0.2]), ([0.3], [0.4, 0.2]), ([0.3, 0.1], [0.4]), ([], []),
    ], ids=["both_two", "c_hat_two", "c_two", "empty"])
    def test_output_width_must_match_head(self, entry, c, c_hat):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        cached = server.cache.values.copy()
        # the last party: a round is checked whole before its first step
        up = Upload(server.cache.q, 1, np.array(c), np.array(c_hat), 0)
        with pytest.raises(ProtocolError) as err:
            self._answer(server, entry, up)
        # the cache's one width rule, c checked before c_hat
        width = next(len(v) for v in (c, c_hat) if len(v) != 1)
        assert str(err.value) == f"party {server.cache.q} output has {width} values, the head takes 1"
        assert np.array_equal(server.cache.values, cached) and server.uploads_seen == 0

    def test_round_reports_its_first_faulty_upload(self):
        """Party 1's unknown sample, not party 2's width: each upload is
        checked whole, in party order."""
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        before = self._server_state(server)
        with pytest.raises(ProtocolError, match="unknown sample id 999"):
            server.answer_round([Upload(1, 999, np.array([0.3]), np.array([0.4]), 0),
                                 Upload(2, 1, np.zeros(2), np.zeros(2), 0)])
        self._assert_unchanged(server, before)

    def test_party_slices_of_a_wider_head(self):
        # k = 2: party m's output sits at columns 2(m-1), 2m - 1 of the flat row
        gm = GlobalModel(kind="softmax_fcn", q=3, party_output_dim=2, classes=2)
        w0 = np.random.default_rng(1).standard_normal(gm.d0)
        _, server = _nodes(_sphere_run(3, mu=0.1, eta_server=0.5, seed=3), gm, w0,
                           np.array([0, 1]))
        outs = {m: np.array([m, -m / 2.0]) for m in (1, 2, 3)}
        for m, c in outs.items():
            server.cache.put(1, m, c, stamp=0)
        up = Upload(2, 1, np.array([5.0, 6.0]), np.array([7.0, 8.0]), 0)
        reply = server.handle_upload(up)
        row = np.concatenate([outs[1], up.c, outs[3]])
        row_bar = np.concatenate([outs[1], up.c_hat, outs[3]])
        assert reply.h == global_value(gm, w0, row, 1)
        assert reply.h_bar == global_value(gm, w0, row_bar, 1)
        assert np.array_equal(server.cache.values[1], row)

    def test_cache_overwritten_after_reply(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        up = parties[0].start_step(sample=4)
        server.handle_upload(up)
        assert np.array_equal(server.cache.row(4)[:1], up.c)
        assert server.cache.stamp[4, 0] == 1


def _head_server(q=3):
    """A warm server with a softmax head, so w0 is trainable."""
    gm = GlobalModel(kind="softmax_fcn", q=q, party_output_dim=1, classes=2)
    w0 = np.random.default_rng(2).standard_normal(gm.d0)
    _, server = _nodes(_sphere_run(q, mu=0.1, eta_server=0.5, seed=3), gm, w0, np.array([0, 1]))
    for m in range(1, q + 1):
        server.cache.put(1, m, np.array([0.1 * m]), stamp=0)
    return server


class TestAnswerRound:
    def test_round_answers_fresh_outputs_at_one_w0(self):
        server = _head_server()
        w0 = server.w0.copy()
        uploads = [Upload(m, 1, np.array([m + 0.5]), np.array([m - 0.5]), 0) for m in (1, 2, 3)]
        replies = server.answer_round(uploads)
        fresh = np.array([1.5, 2.5, 3.5])
        for up, reply in zip(uploads, replies):
            row_bar = fresh.copy()
            row_bar[up.party - 1] = up.c_hat[0]
            assert (reply.party, reply.sample) == (up.party, 1)
            assert reply.h == global_value(server.model, w0, fresh, 1)
            assert reply.h_bar == global_value(server.model, w0, row_bar, 1)
        assert np.array_equal(server.cache.values[1], fresh)
        assert server.cache.stamp[1].tolist() == [1, 2, 3]  # the server's own count
        assert server.uploads_seen == 3
        assert np.array_equal(server.w0, w0 - server.eta0 * server.last_v0)

    @pytest.mark.parametrize("parties", [[1, 2], [1, 2, 2], [1, 3, 2], [2, 1, 3],
                                         [1, 2, 3, 4], [0, 1, 2], []],
                             ids=["missing", "duplicate", "swapped", "out_of_order",
                                  "unknown", "party_zero", "empty"])
    def test_round_must_be_every_party_in_order(self, parties):
        server = _head_server()
        before = (server.w0.copy(), server.cache.values.copy(), server.cache.stamp.copy())
        uploads = [Upload(m, 1, np.array([0.3]), np.array([0.4]), 0) for m in parties]
        with pytest.raises(ProtocolError, match="one upload from each of parties 1..3"):
            server.answer_round(uploads)
        for old, new in zip(before, (server.w0, server.cache.values, server.cache.stamp)):
            assert np.array_equal(old, new)
        assert server.uploads_seen == 0 and server.last_v0 is None


class TestClientStep:
    def test_reply_without_pending_is_protocol_error(self):
        _, _, _, parties, _, _ = _tiny_setup()
        with pytest.raises(ProtocolError, match="no pending upload"):
            parties[0].apply_reply(Reply(1, 0, 0.1, 0.2, 0))

    def test_mismatched_reply_is_protocol_error(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        up = parties[0].start_step(sample=1)
        reply = server.handle_upload(up)
        bad = Reply(reply.party, reply.sample + 1, reply.h, reply.h_bar, reply.seq)
        with pytest.raises(ProtocolError):
            parties[0].apply_reply(bad)

    def test_double_upload_rejected(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        parties[0].start_step()
        with pytest.raises(ProtocolError, match="outstanding"):
            parties[0].start_step()

    def test_non_finite_update_rejected(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        up = parties[0].start_step()
        reply = server.handle_upload(up)
        bad = Reply(reply.party, reply.sample, float("inf"), reply.h_bar, reply.seq)
        with pytest.raises(ProtocolError, match="party 1: non-finite update rejected at step 0"):
            parties[0].apply_reply(bad)
        assert np.isfinite(parties[0].w).all()

    def test_deterministic_updates(self):
        def run_once():
            _, _, _, parties, server, transcript = _tiny_setup(seed=11)
            warmup_cache(parties, server, transcript)
            for t in range(100):
                party = parties[t % 2]
                up = party.start_step()
                reply = server.handle_upload(up)
                party.apply_reply(reply)
            return [p.w.copy() for p in parties]

        a, b = run_once(), run_once()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_fifty_steps_match_centralized_oracle(self):
        # q=1, tau=0: the protocol trajectory is bit-identical to a plain
        # single-machine two-point ZOO-SGD loop over the same streams
        n, d, seed, mu, eta, lam = 8, 6, 17, 0.05, 0.1, 1e-3
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = rng.choice([-1, 1], size=n)
        data = PartitionedDataset.from_matrix(X, y, [d])
        gm = GlobalModel(kind="logistic", q=1)
        cfg = _sphere_run(1, mu=mu, eta=eta, lam_eff=lam, seed=seed)
        (party,), server = _nodes(cfg, gm, np.zeros(0), y, data.blocks)
        warmup_cache([party], server, Transcript())
        for t in range(50):
            reply = server.handle_upload(party.start_step())
            party.apply_reply(reply)

        w = np.zeros(d)
        for k in range(50):
            i = int(streams.stream(seed, streams.SAMPLE, 1, k).integers(n))
            u = streams.stream(seed, streams.DIRECTION, 1, k).standard_normal(d)
            u = u / np.linalg.norm(u)
            x, yy = X[i], int(y[i])
            z = -yy * np.dot(w, x)
            h = max(z, 0.0) + np.log1p(np.exp(-abs(z)))
            wp = w + mu * u
            z2 = -yy * np.dot(wp, x)
            h_bar = max(z2, 0.0) + np.log1p(np.exp(-abs(z2)))
            g0 = np.sum(w * w / (1 + w * w))
            g1 = np.sum(wp * wp / (1 + wp * wp))
            v = (d / mu) * ((h_bar + lam * g1) - (h + lam * g0)) * u
            w = w - eta * v
        assert np.array_equal(party.w, w)


class TestStalenessQueue:
    def test_delivery_order_when_unpressured(self):
        q = StalenessQueue(tau=5)
        q.send(1, 0)
        q.send(2, 0)
        q.deliver(2, "b")
        q.deliver(1, "a")
        assert [q.pop_next(0)[0], q.pop_next(0)[0]] == ["b", "a"]  # in the order delivered

    def test_tau_zero_is_send_order(self):
        q = StalenessQueue(tau=0)
        q.send(1, 0)
        q.send(2, 0)
        q.deliver(2, "late-sent")  # delivered first but sent second? same count
        # with equal send counts, tau=0 pressure forces oldest (serial) first
        assert q.pop_next(0) is None  # serial 1 still in flight -> stall
        q.deliver(1, "first")
        msg, _, _ = q.pop_next(0)
        assert msg == "first"

    def test_clamp_bounds_staleness(self):
        # messages sent at distinct counts; verify nothing exceeds tau when
        # processed in the queue's order
        tau = 2
        q = StalenessQueue(tau=tau)
        sends = {1: 0, 2: 0, 3: 1, 4: 2}
        q.send(1, 0)   # delivered last
        q.send(2, 0)
        q.send(3, 1)
        q.send(4, 2)
        q.deliver(2, "m2")
        q.deliver(3, "m3")
        q.deliver(4, "m4")
        processed = 0
        order = []
        stals = []
        while processed < 4:
            nxt = q.pop_next(processed)
            if nxt is None:
                q.deliver(1, "m1")  # the straggler arrives
                continue
            msg, send_count, serial = nxt
            stals.append(processed - sends[serial])
            order.append(msg)
            processed += 1
        assert max(stals) <= tau
        assert "m1" in order

    def test_send_count_may_not_decrease(self):
        q = StalenessQueue(tau=2)
        q.send(1, 3)
        with pytest.raises(ProtocolError, match="send count 2 is below the previous 3"):
            q.send(2, 2)
        q.send(2, 3)

    def test_serial_must_increase(self):
        q = StalenessQueue(tau=2)
        q.send(5, 0)
        with pytest.raises(ProtocolError, match="serial 5 does not follow serial 5"):
            q.send(5, 0)

    def test_deliver_of_unknown_serial(self):
        q = StalenessQueue(tau=2)
        q.send(1, 0)
        q.deliver(1, "a")
        q.send(2, 0)
        q.deliver(2, "b")
        q.pop_next(0)
        # processed, delivered but not processed, never sent
        for serial in (1, 2, 3):
            with pytest.raises(ProtocolError, match=f"serial {serial}, which is not in flight"):
                q.deliver(serial, "b")


class ListStalenessQueue:
    """Reference: the staleness queue as it was before the sort-free rewrite
    (it sorts every unprocessed send count per pop), except that an
    unpressured pop takes the first message delivered rather than the
    smallest (delivery time, send count, serial)."""

    def __init__(self, tau: int) -> None:
        self.tau = tau
        self.pending: list[tuple[int, int, object]] = []  # (send_count, serial, msg), as delivered
        self.in_flight: dict[int, int] = {}  # serial -> send_count

    def send(self, serial: int, send_count: int) -> None:
        self.in_flight[serial] = send_count

    def deliver(self, serial: int, msg) -> None:
        send_count = self.in_flight.pop(serial)
        self.pending.append((send_count, serial, msg))

    def _deadline_pressure(self, processed_count: int) -> bool:
        # Unprocessed messages sorted oldest-first; slot i is the earliest
        # count at which the i-th could run.  Pressure when some slot would
        # pass a deadline, i.e. processed_count + i >= send_count_i + tau.
        sends = sorted([p[0] for p in self.pending] + list(self.in_flight.values()))
        return any(processed_count + i >= s + self.tau for i, s in enumerate(sends))

    def pop_next(self, processed_count: int):
        """Next message to process, or None to stall / when empty.

        Returns (msg, send_count, serial).  Stalls when the deadline rule
        demands the oldest unprocessed message but it is still in flight.
        """
        if not self.pending and not self.in_flight:
            return None
        if self._deadline_pressure(processed_count):
            oldest_pending = min(
                ((p[0], p[1]) for p in self.pending), default=None
            )
            oldest_flying = min(
                ((s, ser) for ser, s in self.in_flight.items()), default=None
            )
            if oldest_pending is None or (
                oldest_flying is not None and oldest_flying < oldest_pending
            ):
                return None  # stall for the in-flight oldest
            choice = next(
                p for p in self.pending if (p[0], p[1]) == oldest_pending
            )
        elif self.pending:
            choice = self.pending[0]
        else:
            return None
        self.pending.remove(choice)
        send_count, serial, msg = choice
        return msg, send_count, serial


class QueueMachine(RuleBasedStateMachine):
    """Random send / deliver / pop sequences against StalenessQueue and the
    reference.  Send counts are the processed count at send, as in the
    asynchronous driver, and at most `cap` messages are outstanding."""

    @initialize(tau=st.integers(0, 12), cap=st.integers(1, 12))
    def start(self, tau, cap):
        self.tau, self.cap = tau, cap
        self.queue = StalenessQueue(tau)
        self.ref = ListStalenessQueue(tau)
        self.serial = 0
        self.processed = 0
        self.flying: list[int] = []
        self.sent: dict[int, int] = {}  # serial -> send count
        self.popped: list[int] = []
        self.most_outstanding = 0

    def _outstanding(self) -> int:
        return len(self.sent) - len(self.popped)

    @precondition(lambda self: self._outstanding() < self.cap)
    @rule()
    def send(self):
        self.serial += 1
        self.queue.send(self.serial, self.processed)
        self.ref.send(self.serial, self.processed)
        self.sent[self.serial] = self.processed
        self.flying.append(self.serial)
        self.most_outstanding = max(self.most_outstanding, self._outstanding())

    @precondition(lambda self: self.flying)
    @rule(data=st.data())
    def deliver(self, data):
        serial = data.draw(st.sampled_from(self.flying))
        self.flying.remove(serial)
        self.queue.deliver(serial, f"m{serial}")
        self.ref.deliver(serial, f"m{serial}")

    @rule()
    def pop(self):
        out = self.queue.pop_next(self.processed)
        assert out == self.ref.pop_next(self.processed)
        if out is None:
            return
        msg, send_count, serial = out
        assert msg == f"m{serial}" and send_count == self.sent[serial]
        assert serial not in self.popped
        if self.tau >= self.most_outstanding - 1:
            assert self.processed - send_count <= self.tau
        if self.tau == 0 and self.popped:
            assert serial > self.popped[-1]
        self.popped.append(serial)
        self.processed += 1

    @rule()
    def drain(self):
        for serial in self.flying:
            self.queue.deliver(serial, f"m{serial}")
            self.ref.deliver(serial, f"m{serial}")
        self.flying = []
        while self._outstanding():
            self.pop()
        assert self.queue.pop_next(self.processed) is None
        assert self.ref.pop_next(self.processed) is None

    @invariant()
    def nothing_lost_or_duplicated(self):
        if not hasattr(self, "queue"):
            return
        assert len(set(self.popped)) == len(self.popped)
        unprocessed = set(self.queue.sends)
        assert unprocessed.isdisjoint(self.popped)
        assert unprocessed | set(self.popped) == set(self.sent)
        assert set(self.queue.sends) - set(self.queue.pending) == set(self.flying)
        assert len(self.queue.pending) == len(self.ref.pending)


QueueMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=40,
                                          deadline=None)
TestQueueMachine = QueueMachine.TestCase


@st.composite
def deep_queues(draw):
    """(tau, nondecreasing send counts, delivered serials, processed count):
    up to 200 unprocessed messages, and a processed count within 3 of where
    the deadline rule starts to press."""
    tau = draw(st.integers(0, 127))
    steps = draw(st.lists(st.integers(0, 3), max_size=200))
    counts = list(itertools.accumulate(steps, initial=draw(st.integers(0, 50))))[1:]
    delivered = draw(st.sets(st.integers(1, len(counts)))) if counts else set()
    edge = min((s - i for i, s in enumerate(counts)), default=0) + tau
    return tau, counts, delivered, edge + draw(st.integers(-3, 3))


class TestDeadlinePressure:
    @settings(max_examples=500, deadline=None)
    @given(deep_queues())
    def test_equals_the_full_scan(self, case):
        tau, counts, delivered, processed = case
        queue, ref = StalenessQueue(tau), ListStalenessQueue(tau)
        for serial, count in enumerate(counts, 1):
            queue.send(serial, count)
            ref.send(serial, count)
        for serial in sorted(delivered):
            queue.deliver(serial, f"m{serial}")
            ref.deliver(serial, f"m{serial}")
        assert queue._deadline_pressure(processed) == ref._deadline_pressure(processed)


class TestAudit:
    def test_protocol_transcript_passes(self):
        data, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        for t in range(20):
            party = parties[t % 2]
            up = party.start_step()
            transcript.record(float(t), up)
            reply = server.handle_upload(up)
            transcript.record(float(t), reply)
            party.apply_reply(reply)
        report = audit_transcript(transcript, dims=[4, 4], max_output_dim=1)
        assert report.ok

    def test_injected_parameter_payload_flagged(self):
        data, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        transcript.record_raw(1.0, "up", "upload", 1, 0, 99, np.zeros(8))
        report = audit_transcript(transcript, dims=[4, 4], max_output_dim=1)
        assert not report.ok
        assert "length 4" in report.reason and report.violation_index == len(transcript) - 1

    def test_empty_transcript_passes(self):
        assert audit_transcript(Transcript(), dims=[4, 4], max_output_dim=1).ok

    def test_block_dimension_one_passes(self):
        """q = d: every block has dimension 1, the length of an output."""
        from revelight.cli import synthetic_pair
        from revelight.engine import RunConfig, run_asyrevel

        train, _ = synthetic_pair("noisy", 64, 16, 4, 4, seed=0)
        gm = GlobalModel(kind="logistic", q=4)
        m = run_asyrevel(RunConfig(algorithm="asyrevel_gau", q=4, T=16), train, LocalModel(), gm)
        assert train.block_dims == [1, 1, 1, 1]
        report = audit_transcript(m.transcript, dims=train.block_dims, max_output_dim=1)
        assert report.ok, report.reason
        assert report.checked == 2 * len(m.transcript)

    @pytest.mark.parametrize("variant", ["tig_output", "tig_grad", "tig_chain"])
    def test_block_dimension_one_still_flags_baseline_traffic(self, variant):
        transcript = Transcript()
        direction = "up" if variant == "tig_output" else "down"
        transcript.record_raw(0.0, direction, variant, 1, 0, 0, np.zeros(1))
        report = audit_transcript(transcript, dims=[1, 1, 1, 1], max_output_dim=1)
        assert not report.ok and "matches a parameter block dimension" in report.reason

    def test_output_length_equal_to_a_block_dimension_passes(self):
        transcript = Transcript()
        transcript.record(0.0, Upload(1, 0, np.zeros(3), np.ones(3), 0))
        transcript.record(0.0, Reply(1, 0, 0.1, 0.2, 0))
        assert audit_transcript(transcript, dims=[3, 5], max_output_dim=3).ok
        assert not audit_transcript(transcript, dims=[3, 5], max_output_dim=4).ok


class TestTranscript:
    def test_jsonl_round_trip(self, tmp_path):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        up = parties[0].start_step()
        transcript.record(1.5, up)
        reply = server.handle_upload(up)
        transcript.record(1.5, reply)
        path = tmp_path / "t.jsonl"
        transcript.to_jsonl(path)
        back = Transcript.from_jsonl(path)
        assert len(back) == len(transcript)
        for name in ("time", "direction", "variant", "party", "sample", "seq", "nbytes",
                     "offsets"):
            assert np.array_equal(back.column(name), transcript.column(name))
        assert np.allclose(back.column("values"), transcript.column("values"))

    @pytest.mark.parametrize("msg", [
        Upload(1, 3, np.array([0.5]), np.array([0.25]), 7),
        Upload(2, 0, np.arange(3.0), np.arange(3.0) + 1, 0),
        Reply(2, 5, 0.1, 0.2, 9),
    ], ids=["upload_dim1", "upload_dim3", "reply"])
    def test_record_bytes_equal_encoded_frame(self, msg):
        transcript = Transcript()
        transcript.record(0.0, msg)
        assert transcript.column("nbytes").tolist() == [len(encode_message(msg))]

    def test_record_direction_follows_the_message_type(self):
        transcript = Transcript()
        transcript.record(0.0, Upload(1, 0, np.zeros(3), np.ones(3), 0))
        transcript.record(0.0, Reply(1, 0, 0.1, 0.2, 0))
        assert transcript.column("direction").tolist() == ["up", "down"]
        assert transcript.total_bytes("up") == frame_bytes(6)
        assert transcript.total_bytes("down") == frame_bytes(2)

    def test_record_rejects_unequal_upload_halves(self):
        with pytest.raises(ShapeError):
            Transcript().record(0.0, Upload(1, 0, np.zeros(2), np.zeros(3), 0))

    def test_record_rejects_non_message(self):
        with pytest.raises(DomainError):
            Transcript().record(0.0, np.zeros(2))

    def test_total_bytes_by_direction(self):
        _, _, _, parties, server, transcript = _tiny_setup()
        warmup_cache(parties, server, transcript)
        assert transcript.total_bytes("up") == transcript.column("nbytes").sum() > 0
        assert transcript.total_bytes("down") == 0


def _delay_model(q: int, **kw) -> DelayModel:
    return DelayModel(RunConfig(algorithm="asyrevel_gau", q=q, T=1, tau=q - 1, **kw))


class TestDelayModel:
    def test_constant_compute(self):
        dm = _delay_model(2, seed=1, straggler=(1, 1.4), compute_dist="constant")
        assert dm.compute_time(1, 0) == 1.4 and dm.compute_time(2, 3) == 1.0
        assert dm.compute_time(1, 9) == 1.4

    def test_exponential_is_deterministic_per_address(self):
        dm = _delay_model(2, seed=7, compute_dist="exponential")
        a = dm.compute_time(2, 5)
        b = dm.compute_time(2, 5)
        assert a == b and a > 0

    def test_constant_latency(self):
        """The default latency model: every message takes exactly the mean."""
        dm = _delay_model(2, seed=1, latency=0.7)
        assert {dm.latency_time(m, k) for m in (1, 2) for k in range(50)} == {0.7}

    def test_latency_uniform_range(self):
        dm = _delay_model(1, seed=1, latency=0.5, latency_dist="uniform")
        vals = [dm.latency_time(1, k) for k in range(200)]
        assert all(0 <= v <= 1.0 for v in vals)
        assert 0.3 < np.mean(vals) < 0.7
