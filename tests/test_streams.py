import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revelight import streams
from revelight.engine import RunConfig, run_asyrevel
from revelight.errors import DomainError

uint64 = st.integers(0, 2**64 - 1)
purposes = st.integers(1, 9)

# one prior draw of each kind; integers(n) can leave half a 32-bit word behind
_DRAWS = {
    "integers": lambda g, n: g.integers(n),
    "standard_normal": lambda g, n: g.standard_normal(n % 5 + 1),
    "uniform": lambda g, n: g.uniform(0.0, 1.0 + n),
    "exponential": lambda g, n: g.exponential(1.0 + n),
}
draws = st.lists(st.tuples(st.sampled_from(sorted(_DRAWS)), st.integers(1, 1000)), max_size=8)


def _take(g, n):
    return (int(g.integers(n)), g.standard_normal(3).tolist(), float(g.uniform(0.0, 2.0)),
            float(g.exponential(1.5)), int(g.integers(2**40)))


class TestStream:
    @settings(max_examples=300, deadline=None)
    @given(uint64, purposes, uint64, uint64, uint64, uint64, draws,
           st.integers(1, 10**6))
    def test_readdress_matches_fresh_stream(self, seed, purpose, party0, step0, party, step,
                                            prior, n):
        owned = streams.Stream(seed, purpose)
        g = owned.at(party0, step0)
        for kind, arg in prior:
            _DRAWS[kind](g, arg)
        assert _take(owned.at(party, step), n) == _take(streams.stream(seed, purpose, party, step), n)

    @settings(max_examples=200, deadline=None)
    @given(uint64, uint64, st.integers(1, 2**63 - 1))
    def test_a_sample_index_is_the_draw_of_integers_n(self, seed, step, n):
        """The drivers draw `integers(0, n)`; it is `integers(n)`, and leaves
        the same half word behind for the next draw."""
        a, b = (streams.stream(seed, streams.SAMPLE, 1, step) for _ in range(2))
        assert (a.integers(0, n), a.integers(2**31)) == (b.integers(n), b.integers(2**31))

    def test_a_stream_keeps_no_word_lists(self):
        """The kept state holds its words as tuples: word lists kept in each
        Stream raised the peak memory at q = 128."""
        owned = streams.Stream(5, streams.SAMPLE)
        owned.at(3, 4).integers(10)
        kept = gc.get_referents(owned)
        kept += [o for d in kept if isinstance(d, dict) for o in gc.get_referents(d)]
        assert not any(isinstance(o, list) for o in kept)

    def test_addresses_above_2_53_stay_distinct(self):
        a = streams.stream(1, streams.SAMPLE, 2**53, 0).integers(2**62)
        b = streams.stream(1, streams.SAMPLE, 2**53 + 1, 0).integers(2**62)
        assert a != b

    def test_stream_returns_independent_generators(self):
        g = streams.stream(3, streams.TRIAL, 1, 2)
        first = g.standard_normal(4)
        h = streams.stream(3, streams.TRIAL, 1, 2)
        assert np.array_equal(h.standard_normal(4), first)
        assert not np.array_equal(g.standard_normal(4), first)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            streams.Stream(-1, streams.SAMPLE)

    @pytest.mark.parametrize("seed", [-1, 2**64, -2**70, 2**70])
    def test_seed_outside_the_key_is_one_domain_error(self, seed):
        """Every way in, a run config included, takes the one rule of `streams`."""
        message = f"seed {seed} is outside [0, 2**64)"
        for build in (lambda: streams.stream(seed, streams.DATA),
                      lambda: streams.Stream(seed, streams.SAMPLE),
                      lambda: RunConfig(algorithm="nonfed", q=1, T=1, seed=seed)):
            with pytest.raises(DomainError) as err:
                build()
            assert str(err.value) == message

    def test_largest_seed_is_a_key(self):
        assert streams.stream(2**64 - 1, streams.DATA).integers(2**62) == \
            streams.Stream(2**64 - 1, streams.DATA).at(0, 0).integers(2**62)


def test_uploads_follow_party_streams(bench_data, glm_models):
    """However the parties interleave, each upload's sample is the one its own
    party's SAMPLE stream gives at that party's step."""
    train, _ = bench_data(4)
    lm, gm = glm_models(4)
    cfg = RunConfig(algorithm="asyrevel_gau", q=4, T=512, seed=11, tau=3, latency=0.6,
                    latency_dist="uniform", compute_dist="exponential")
    t = run_asyrevel(cfg, train, lm, gm).transcript
    uploads = (t.column("variant") == "upload") & (t.column("seq") >= 0)
    assert uploads.sum() == 512
    for party, sample, seq in zip(t.column("party")[uploads], t.column("sample")[uploads],
                                  t.column("seq")[uploads]):
        assert sample == streams.stream(11, streams.SAMPLE, int(party), int(seq)).integers(train.n)
