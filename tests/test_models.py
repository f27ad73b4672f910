import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revelight import streams
from revelight.engine import evaluate_accuracy, evaluate_loss
from revelight.errors import DomainError, ShapeError
from revelight.models import (
    GlobalModel,
    LocalModel,
    PartitionedDataset,
    global_value,
    head_losses,
    init_state,
    local_forward,
    nonconvex_reg,
    partition_features,
)


class TestLocalForward:
    def test_linear_inner_product(self):
        m = LocalModel(kind="linear")
        out = local_forward(m, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert out.shape == (1,)
        assert out[0] == 11.0

    def test_linear_zero_weights(self):
        m = LocalModel(kind="linear")
        x = np.array([5.0, -3.0, 2.0])
        assert local_forward(m, np.zeros(3), x)[0] == 0.0

    def test_mlp_hand_evaluated(self):
        # 2 -> 2 -> 1, all weights one, biases zero: relu((2,2)) dot (1,1) = 4
        m = LocalModel(kind="mlp", layer_sizes=(2, 1))
        w = np.array([1, 1, 1, 1, 0, 0, 1, 1, 0], dtype=float)
        out = local_forward(m, w, np.array([1.0, 1.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(4.0, abs=0)

    def test_mlp_zero_weights_gives_zero_vector(self):
        m = LocalModel(kind="mlp", layer_sizes=(4, 3))
        w = np.zeros(m.param_dim(5))
        assert np.all(local_forward(m, w, np.ones(5)) == 0.0)

    def test_dimension_mismatch(self):
        m = LocalModel(kind="linear")
        with pytest.raises(ShapeError):
            local_forward(m, np.zeros(3), np.zeros(4))

    def test_mlp_rectifier_kills_negative_preactivations(self):
        m = LocalModel(kind="mlp", layer_sizes=(1, 1))
        # W1 = -1, b1 = 0, W2 = 5, b2 = 0.25: relu(-x) = 0 for x > 0
        w = np.array([-1.0, 0.0, 5.0, 0.25])
        assert local_forward(m, w, np.array([2.0]))[0] == 0.25

    @settings(deadline=None, max_examples=120)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 64), d=st.integers(1, 40),
           scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
           sizes=st.sampled_from([(), (1,), (2,), (8, 1), (5, 2), (3, 4, 2), (16,)]))
    def test_row_matrix_gives_the_row_calls_bits(self, seed, n, d, scale, sizes):
        """Row i of the call on a row matrix is the call on row i, bit for bit,
        for linear and mlp models (sizes () is linear)."""
        m = LocalModel(kind="mlp", layer_sizes=sizes) if sizes else LocalModel()
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        w = rng.standard_normal(m.param_dim(d)) * scale
        out = local_forward(m, w, X)
        assert out.shape == (n, m.output_dim)
        for i in range(n):
            assert np.array_equal(out[i], local_forward(m, w, X[i]))


class TestGlobalValue:
    def test_symmetry_point(self):
        g = GlobalModel(kind="logistic", q=2)
        v = global_value(g, np.zeros(0), np.concatenate([np.array([1.0]), np.array([-1.0])]), 1)
        assert v == pytest.approx(np.log(2.0), abs=1e-15)

    def test_saturated_margin(self):
        g = GlobalModel(kind="logistic", q=1)
        v = global_value(g, np.zeros(0), np.concatenate([np.array([50.0])]), 1)
        assert 0.0 <= v < 1e-20

    def test_sign_symmetry(self):
        g = GlobalModel(kind="logistic", q=1)
        a = global_value(g, np.zeros(0), np.concatenate([np.array([1.3])]), -1)
        b = global_value(g, np.zeros(0), np.concatenate([np.array([-1.3])]), 1)
        assert a == b

    def test_unknown_label(self):
        g = GlobalModel(kind="logistic", q=1)
        with pytest.raises(DomainError):
            global_value(g, np.zeros(0), np.concatenate([np.array([0.0])]), 2)
        with pytest.raises(DomainError):
            head_losses(g, np.zeros(0), [np.zeros((2, 1))], np.array([1, 2]))

    def test_softmax_head_uniform_logits(self):
        g = GlobalModel(kind="softmax_fcn", q=2, party_output_dim=1, classes=4)
        w0 = np.zeros(g.d0)
        v = global_value(g, w0, np.concatenate([np.array([0.3]), np.array([-0.2])]), 3)
        assert v == pytest.approx(np.log(4.0), abs=1e-12)

    def test_softmax_label_out_of_range(self):
        g = GlobalModel(kind="softmax_fcn", q=1, party_output_dim=1, classes=3)
        with pytest.raises(DomainError):
            global_value(g, np.zeros(g.d0), np.concatenate([np.array([0.0])]), 3)
        with pytest.raises(DomainError):
            head_losses(g, np.zeros(g.d0), [np.zeros((2, 1))], np.array([0, 3]))


class TestNonconvexReg:
    def test_zero(self):
        assert nonconvex_reg(np.zeros(7)) == 0.0

    def test_plug_in(self):
        assert nonconvex_reg(np.array([1.0])) == 0.5

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    def test_bounded_and_even(self, vals):
        w = np.array(vals)
        g = nonconvex_reg(w)
        assert 0.0 <= g < w.size
        assert g == nonconvex_reg(-w)


class TestPartitionFeatures:
    def test_nearly_equal_127_8(self):
        assert partition_features(127, 8) == [16, 16, 16, 16, 16, 16, 16, 15]

    def test_identity(self):
        assert partition_features(33, 1) == [33]

    @given(st.integers(1, 500), st.integers(1, 64))
    def test_conservation_and_balance(self, d, q):
        if q > d:
            with pytest.raises(DomainError):
                partition_features(d, q)
            return
        dims = partition_features(d, q)
        assert sum(dims) == d
        assert max(dims) - min(dims) <= 1

    def test_q_too_large(self):
        with pytest.raises(DomainError):
            partition_features(3, 4)


def _random_instance(rng, n, d, q):
    X = rng.standard_normal((n, d))
    y = rng.choice([-1, 1], size=n)
    dims = partition_features(d, q)
    data = PartitionedDataset.from_matrix(X, y, dims)
    return data, np.zeros(0), [rng.standard_normal(dm) * 0.3 for dm in dims]


class TestCompositeObjective:
    def test_zero_weights_balanced_data(self):
        rng = np.random.default_rng(0)
        data, w0, _ = _random_instance(rng, 12, 8, 2)
        w = [np.zeros(d) for d in data.block_dims]
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=2)
        v = evaluate_loss(w0, w, data, 1e-4, lm, gm)
        assert v == pytest.approx(np.log(2.0), abs=1e-15)

    def test_single_sample_reduction(self):
        rng = np.random.default_rng(1)
        data, w0, w = _random_instance(rng, 1, 6, 3)
        lam = 0.37
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=3)
        c = [local_forward(lm, w[m], data.blocks[m][0]) for m in range(3)]
        expect = global_value(gm, w0, np.concatenate(c), data.labels[0]) + lam * sum(
            nonconvex_reg(wm) for wm in w
        )
        got = evaluate_loss(w0, w, data, lam, lm, gm)
        assert got == pytest.approx(expect, abs=1e-15)

    def test_against_per_sample_oracle_n16(self):
        # independent oracle: explicit per-sample summation over concatenated w
        rng = np.random.default_rng(2)
        data, w0, w = _random_instance(rng, 16, 10, 4)
        lam = 1e-3
        X = np.hstack(data.blocks)
        w_cat = np.concatenate(w)
        acc = 0.0
        for i in range(16):
            z = -data.labels[i] * float(X[i] @ w_cat)
            acc += np.logaddexp(0.0, z)
        oracle = acc / 16 + lam * float(np.sum(w_cat**2 / (1 + w_cat**2)))
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=4)
        got = evaluate_loss(w0, w, data, lam, lm, gm)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        data, w0, w = _random_instance(rng, 20, 8, 2)
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=2)
        v1 = evaluate_loss(w0, w, data, 1e-4, lm, gm)
        perm = rng.permutation(20)
        data2 = PartitionedDataset(
            blocks=[b[perm] for b in data.blocks], labels=data.labels[perm]
        )
        v2 = evaluate_loss(w0, w, data2, 1e-4, lm, gm)
        assert v1 == pytest.approx(v2, abs=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_federated_equals_centralized_logistic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 64))
        d = int(rng.integers(2, 32))
        q = int(rng.integers(1, min(d, 6) + 1))
        data, w0, w = _random_instance(rng, n, d, q)
        lam = float(rng.uniform(0, 1e-2))
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=q)
        fed = evaluate_loss(w0, w, data, lam, lm, gm)
        X = np.hstack(data.blocks)
        w_cat = np.concatenate(w)
        cent = float(
            np.mean(np.logaddexp(0.0, -data.labels * (X @ w_cat)))
        ) + lam * float(np.sum(w_cat**2 / (1 + w_cat**2)))
        assert abs(fed - cent) <= 1e-12


def _per_sample_oracle(w0, w, data, lm, gm):
    """Per-sample head values and predictions, one local_forward row at a time."""
    losses, preds = [], []
    for i in range(data.n):
        c = [local_forward(lm, w[m], data.blocks[m][i]) for m in range(data.q)]
        losses.append(global_value(gm, w0, np.concatenate(c), data.labels[i]))
        feats = np.concatenate(c)
        if gm.kind == "logistic":
            preds.append(1 if np.sum(feats) >= 0 else -1)
        else:
            preds.append(int(np.argmax(feats @ w0.reshape(feats.size, gm.classes))))
    return np.array(losses), np.array(preds)


class TestBatchedEvaluation:
    """head_losses and evaluate_loss/evaluate_accuracy, which run every
    model kind through batched local_forward, against the per-sample path."""

    def _check(self, w0, w, data, lm, gm, lam, exact_rows):
        C = [local_forward(lm, w[m], data.blocks[m]) for m in range(data.q)]
        assert all(Cm.shape == (data.n, lm.output_dim) for Cm in C)
        # evaluation scores exactly the outputs the protocol's per-row calls give
        assert all(np.array_equal(C[m][i], local_forward(lm, w[m], data.blocks[m][i]))
                   for m in range(data.q) for i in range(data.n))
        rows = [global_value(gm, w0, np.concatenate([Cm[i] for Cm in C]), data.labels[i])
                for i in range(data.n)]
        batched = head_losses(gm, w0, C, data.labels)
        if exact_rows:
            assert np.array_equal(batched, rows)
        else:
            assert np.allclose(batched, rows, rtol=1e-12, atol=1e-12)
        losses, preds = _per_sample_oracle(w0, w, data, lm, gm)
        expect = np.mean(losses) + lam * sum(nonconvex_reg(wm) for wm in w)
        got = evaluate_loss(w0, w, data, lam, lm, gm)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
        assert evaluate_accuracy(w0, w, data, lm, gm) == np.mean(preds == data.labels)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.floats(0.1, 100.0))
    def test_linear_logistic(self, seed, scale):
        # scale drives margins into both branches of the stable softplus
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 48))
        d = int(rng.integers(1, 24))
        q = int(rng.integers(1, min(d, 6) + 1))
        data, w0, w = _random_instance(rng, n, d, q)
        w = [wm * scale for wm in w]
        lm, gm = LocalModel(), GlobalModel(kind="logistic", q=q)
        self._check(w0, w, data, lm, gm, float(rng.uniform(0, 1e-2)), exact_rows=True)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_mlp_softmax(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 32))
        q = int(rng.integers(1, 4))
        odim = int(rng.integers(1, 3))
        classes = int(rng.integers(2, 5))
        hidden = tuple(int(h) for h in rng.integers(1, 6, size=rng.integers(1, 3)))
        dims = [int(dm) for dm in rng.integers(1, 5, size=q)]
        lm = LocalModel(kind="mlp", layer_sizes=hidden + (odim,))
        gm = GlobalModel(kind="softmax_fcn", q=q, party_output_dim=odim, classes=classes)
        X = rng.standard_normal((n, sum(dims)))
        data = PartitionedDataset.from_matrix(X, rng.integers(0, classes, size=n), dims)
        w = [rng.standard_normal(lm.param_dim(dm)) for dm in dims]
        w0 = rng.standard_normal(gm.d0)
        self._check(w0, w, data, lm, gm, float(rng.uniform(0, 1e-2)), exact_rows=False)

    def test_row_matrix_shape_mismatch(self):
        with pytest.raises(ShapeError):
            local_forward(LocalModel(), np.zeros(3), np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            local_forward(LocalModel(kind="mlp", layer_sizes=(2, 1)), np.zeros(5), np.zeros((5, 4)))


class TestInitState:
    def test_linear_init_is_zero(self):
        rng = np.random.default_rng(0)
        data, _, _ = _random_instance(rng, 4, 8, 2)
        w0, w = init_state(data, LocalModel(), GlobalModel(kind="logistic", q=2), seed=7)
        assert all(wm.dtype == np.float64 and np.all(wm == 0) for wm in w)
        assert w0.dtype == np.float64 and w0.size == 0

    def test_mlp_init_deterministic(self):
        rng = np.random.default_rng(0)
        data, _, _ = _random_instance(rng, 4, 8, 2)
        lm = LocalModel(kind="mlp", layer_sizes=(3, 1))
        gm = GlobalModel(kind="softmax_fcn", q=2, party_output_dim=1, classes=2)
        a0, a = init_state(data, lm, gm, seed=11)
        b0, b = init_state(data, lm, gm, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.array_equal(a0, b0)
        assert a0.size == gm.d0 == 4

    def test_stream_determinism(self):
        u = streams.stream(3, streams.DIRECTION, party=2, step=5).standard_normal(4)
        v = streams.stream(3, streams.DIRECTION, party=2, step=5).standard_normal(4)
        assert np.array_equal(u, v)
        w = streams.stream(3, streams.DIRECTION, party=2, step=6).standard_normal(4)
        assert not np.array_equal(u, w)
