"""Composite objective, its linear and neural instantiations, and feature partitioning.

The training problem is a finite sum over samples: a server-side head applied
to the concatenated party outputs plus a bounded nonconvex regularizer on the
local parameter blocks,

    f(w0, w) = (1/n) sum_i head(w0, c_{i,1..q}; y_i) + lambda_eff * sum_m g(w_m),

with c_{i,m} the output of party m's local model on its feature block.
Everything here is a pure float64 function of immutable inputs; callers may
evaluate from any worker concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError


@dataclass
class PartitionedDataset:
    """Feature blocks held by q parties plus server-side labels.

    blocks[m] is an (n, dbar_m) float64 matrix; labels is length n.  Labels
    are +/-1 for binary heads and class indices for softmax heads.
    """

    blocks: list[np.ndarray]
    labels: np.ndarray
    block_dims: list[int] = field(init=False)
    n: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ShapeError("dataset needs at least one feature block")
        self.q = len(self.blocks)
        self.n = self.blocks[0].shape[0]
        for m, b in enumerate(self.blocks):
            if b.ndim != 2 or b.shape[0] != self.n:
                raise ShapeError(f"block {m} shape {b.shape} inconsistent with n={self.n}")
        if self.labels.shape[0] != self.n:
            raise ShapeError("label count does not match sample count")
        self.block_dims = [int(b.shape[1]) for b in self.blocks]

    @classmethod
    def from_matrix(cls, X: np.ndarray, y: np.ndarray, block_dims: list[int]) -> "PartitionedDataset":
        """Slice a dense (n, dbar) matrix into contiguous per-party blocks."""
        X = np.asarray(X, dtype=np.float64)
        if sum(block_dims) != X.shape[1]:
            raise ShapeError(f"block dims sum {sum(block_dims)} != feature dim {X.shape[1]}")
        lo = np.cumsum([0, *block_dims])
        blocks = [np.ascontiguousarray(X[:, a:b]) for a, b in zip(lo[:-1], lo[1:])]
        return cls(blocks=blocks, labels=np.asarray(y))


@dataclass
class LocalModel:
    """Per-party model mapping a feature block to a small output vector.

    kind 'linear': inner product, output_dim 1, parameter dim = feature dim.
    kind 'mlp': fully connected rectifier network; layer_sizes lists the
    hidden and output widths, e.g. (128, 1) for the two-layer case.
    black_box marks the model as gradient-free for baseline applicability
    checks; it does not change the forward map.
    """

    kind: str = "linear"
    layer_sizes: tuple[int, ...] = ()
    black_box: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise DomainError(f"unknown local model kind {self.kind!r}")
        if self.kind == "mlp" and not self.layer_sizes:
            raise DomainError("mlp local model needs layer_sizes")

    @property
    def output_dim(self) -> int:
        return 1 if self.kind == "linear" else int(self.layer_sizes[-1])

    def param_dim(self, input_dim: int) -> int:
        if self.kind == "linear":
            return input_dim
        return sum(width * fan_in + width for width, fan_in in self.layer_shapes(input_dim))

    def layer_shapes(self, input_dim: int) -> list[tuple[int, int]]:
        """(width, fan_in) of each mlp layer, first layer first."""
        return list(zip(self.layer_sizes, (input_dim, *self.layer_sizes[:-1])))

    def layers(self, w_m: np.ndarray, input_dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views (W_l, b_l) into a flat mlp parameter vector, first layer
        first; each layer stores its (width, fan_in) weights, then its biases."""
        out, off = [], 0
        for width, fan_in in self.layer_shapes(input_dim):
            W = w_m[off:off + width * fan_in].reshape(width, fan_in)
            off += width * fan_in
            out.append((W, w_m[off:off + width]))
            off += width
        return out

    def init_params(self, input_dim: int, rng: np.random.Generator) -> np.ndarray:
        """Zero weights for linear; scaled gaussian weights, zero biases for mlp."""
        if self.kind == "linear":
            return np.zeros(input_dim)
        chunks = []
        for width, fan_in in self.layer_shapes(input_dim):
            chunks.append(rng.standard_normal(width * fan_in) * np.sqrt(2.0 / fan_in))
            chunks.append(np.zeros(width))
        return np.concatenate(chunks)


@dataclass
class GlobalModel:
    """Server-side head combining the party outputs.

    kind 'logistic': parameter-free binary log loss on the summed outputs.
    kind 'softmax_fcn': one linear layer of shape (q*output_dim, classes)
    followed by softmax cross-entropy; d0 = q * output_dim * classes.
    """

    kind: str = "logistic"
    q: int = 1
    party_output_dim: int = 1
    classes: int = 2
    black_box: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("logistic", "softmax_fcn"):
            raise DomainError(f"unknown global model kind {self.kind!r}")

    @property
    def d0(self) -> int:
        if self.kind == "logistic":
            return 0
        return self.q * self.party_output_dim * self.classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "logistic":
            return np.zeros(0)
        return rng.standard_normal(self.d0) * np.sqrt(1.0 / (self.q * self.party_output_dim))


def local_forward(model: LocalModel, w_m: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Evaluate one party's local model on a feature row, giving the output
    vector c, or on an (n, dbar) row matrix, giving the (n, output_dim) outputs.

    Linear is the inner product; mlp applies the layer recursion
    u_l = relu(W_l u_{l-1} + b_l) with a linear last layer.  w_m and X are
    float64 arrays, as PartyNode and PartitionedDataset.from_matrix keep them:
    the per-row calls of the warm-up and of every event convert nothing.
    """
    if model.kind == "linear":
        if w_m.size != X.shape[-1]:
            raise ShapeError(f"linear model: dim(w)={w_m.size} != dim(x)={X.shape[-1]}")
        return X.dot(w_m[:, None])
    return _layer_outputs(model, w_m, X)[-1]


def _layer_outputs(model: LocalModel, w_m: np.ndarray, X: np.ndarray) -> list[np.ndarray]:
    """The mlp layer recursion: X, then each layer's output, first layer first."""
    dbar = X.shape[-1]
    if w_m.size != model.param_dim(dbar):
        raise ShapeError(
            f"mlp parameters have {w_m.size} entries, layout needs {model.param_dim(dbar)}"
        )
    outs = [X]
    layers = model.layers(w_m, dbar)
    for l, (W, b) in enumerate(layers):
        u = outs[-1].dot(W.T) + b
        outs.append(u if l == len(layers) - 1 else np.maximum(u, 0.0))
    return outs


def local_param_gradient(model: LocalModel, w_m: np.ndarray, x: np.ndarray,
                         upstream: np.ndarray) -> np.ndarray:
    """Chain rule through the local model at feature row x: d(head)/d(w_m)
    given d(head)/d(c), backpropagated through the layer recursion."""
    if model.kind == "linear":
        return float(upstream[0]) * x
    outs = _layer_outputs(model, w_m, x)
    layers = model.layers(w_m, x.size)
    grad = np.zeros_like(w_m)
    delta = upstream
    for l, (gW, gb) in reversed(list(enumerate(model.layers(grad, x.size)))):
        gb[:] = delta
        gW[:] = np.outer(delta, outs[l])
        if l > 0:
            # outs[l] is the rectified output of layer l - 1
            delta = (layers[l][0].T @ delta) * (outs[l] > 0)
    return grad


def _softplus(z: float) -> float:
    # log(1 + e^z), stable for large |z|; head_losses applies the same formula
    # elementwise, so its rows equal this bit for bit
    return float(max(z, 0.0) + np.log1p(np.exp(-abs(z))))


def party_columns(m: int, k: int) -> slice:
    """Party m's (1-based) columns of a flat head input whose parties give k
    outputs each: the q outputs sit side by side, party 1's first."""
    return slice((m - 1) * k, m * k)


def global_value(model: GlobalModel, w0: np.ndarray, feats: np.ndarray, label) -> float:
    """Server head value for one sample given its flat head input: a float64
    vector of the q party outputs side by side, party m's party_output_dim
    values at party_columns(m, party_output_dim) (the protocol's per-call
    head; head_losses evaluates a batch)."""
    width = model.q * model.party_output_dim
    if feats.size != width:
        raise ShapeError(f"expected {width} head inputs ({model.q} parties x "
                         f"{model.party_output_dim}), got {feats.size}")
    y = int(label)
    if model.kind == "logistic":
        if y not in (-1, 1):
            raise DomainError(f"logistic label must be +/-1, got {label!r}")
        return _softplus(-y * float(feats.sum()))
    if not 0 <= y < model.classes:
        raise DomainError(f"label {label!r} outside [0, {model.classes})")
    logits = feats @ _head_matrix(model, w0, feats.size)
    zmax = float(np.max(logits))
    return float(zmax + np.log(np.sum(np.exp(logits - zmax))) - logits[y])


def _head_matrix(model: GlobalModel, w0: np.ndarray, width: int) -> np.ndarray:
    """The softmax head's parameters as its (width, classes) weight matrix:
    row j weighs flat head input j."""
    if w0.size != width * model.classes:
        raise ShapeError(f"head parameters {w0.size} != {width}x{model.classes}")
    return w0.reshape(width, model.classes)


def head_gradients(model: GlobalModel, w0: np.ndarray, feats: np.ndarray, label, m: int):
    """Gradients of global_value at one sample's flat head input feats: with
    respect to party m's output vector, and to the head parameters w0 (None
    for the parameter-free head)."""
    odim = model.party_output_dim
    if model.kind == "logistic":
        y = int(label)
        sig = 1.0 / (1.0 + np.exp(y * float(feats.sum())))
        return np.full(odim, -y * sig), None
    # softmax cross-entropy: d/dlogits = softmax(logits) - onehot(label)
    W = _head_matrix(model, w0, feats.size)
    z = feats @ W
    z = z - np.max(z)
    probs = np.exp(z) / np.sum(np.exp(z))
    probs[int(label)] -= 1.0
    return (W @ probs)[party_columns(m, odim)], np.outer(feats, probs).ravel()


def _head_scores(model: GlobalModel, w0: np.ndarray, C: list[np.ndarray]) -> np.ndarray:
    # per-sample margins (logistic) or (n, classes) logits (softmax_fcn)
    if len(C) != model.q:
        raise ShapeError(f"expected {model.q} party output matrices, got {len(C)}")
    feats = np.concatenate(C, axis=1)
    if model.kind == "logistic":
        return np.sum(feats, axis=1)
    return feats @ _head_matrix(model, w0, feats.shape[1])


def head_losses(model: GlobalModel, w0: np.ndarray, C: list[np.ndarray], labels) -> np.ndarray:
    """Per-sample head values for a batch: C holds the q (n, output_dim)
    party output matrices, labels the n labels.  Row i equals global_value
    on row i of every matrix."""
    y = np.asarray(labels).astype(int)
    scores = _head_scores(model, w0, C)
    if model.kind == "logistic":
        if not np.isin(y, (-1, 1)).all():
            raise DomainError("logistic labels must be +/-1")
        z = -y * scores
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    if y.size and not (0 <= y.min() and y.max() < model.classes):
        raise DomainError(f"labels outside [0, {model.classes})")
    zmax = np.max(scores, axis=1)
    lse = zmax + np.log(np.sum(np.exp(scores - zmax[:, None]), axis=1))
    return lse - scores[np.arange(y.size), y]


def head_predictions(model: GlobalModel, w0: np.ndarray, C: list[np.ndarray]) -> np.ndarray:
    """Predicted labels for a batch: the margin's sign (+/-1) or the argmax class."""
    scores = _head_scores(model, w0, C)
    if model.kind == "logistic":
        return np.where(scores >= 0, 1, -1)
    return np.argmax(scores, axis=1)


def nonconvex_reg(w: np.ndarray) -> float:
    """Bounded even regularizer sum_j w_j^2 / (1 + w_j^2): in [0, dim(w)) while
    every w_j^2 is finite; past |w_j| ~ 1.3e154 the square overflows and it is nan."""
    w = np.asarray(w, dtype=np.float64)
    sq = w * w
    return float((sq / (1.0 + sq)).sum())


def partition_features(d_total: int, q: int) -> list[int]:
    """Split d_total features into q contiguous, nearly equal blocks.

    Sizes differ by at most one; the remainder goes to the first blocks.
    """
    if q < 1 or q > d_total:
        raise DomainError(f"need 1 <= q <= features, got q={q}, features={d_total}")
    base, rem = divmod(d_total, q)
    return [base + 1 if m < rem else base for m in range(q)]


def init_state(
    data: PartitionedDataset,
    local_model: LocalModel,
    global_model: GlobalModel,
    seed: int,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seeded initial float64 parameters (w0, [w_1, ..., w_q]), w0 empty for
    a parameter-free head: one stream per block so layouts replay."""
    from . import streams

    w = [
        local_model.init_params(data.block_dims[m], streams.stream(seed, streams.INIT, party=m + 1))
        for m in range(data.q)
    ]
    return global_model.init_params(streams.stream(seed, streams.INIT, party=0)), w
