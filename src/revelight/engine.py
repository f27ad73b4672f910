"""Training drivers: asynchronous and synchronous federated runs, the
centralized counterpart, the gradient-transmitting baseline, and the
communication measurements.

One iteration is one client update event (async) or one barrier round
(sync).  An asynchronous run is one loop over the ops of `event_schedule`,
whose order depends only on the config's compute and latency draws and
the staleness queue's counts, never on a value of the run.  Loss and
accuracy are evaluated outside the protocol, so byte counts stay pure
protocol traffic; from the event count each driver reports, one recorder
decides when a row is due and when the run stops.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import ConfigError, ProtocolError, ShapeError, UsageError, UnsupportedModelError
from .estimator import (GAUSSIAN, SCHEMES, SPHERE, client_block_zoe, head_direction,
                        reject_nonfinite, sample_direction, two_point_client, two_point_head)
from .fedproto import DelayModel, PartyNode, ServerNode, StalenessQueue, Transcript, warmup_cache
from .models import (GlobalModel, LocalModel, PartitionedDataset, head_gradients, head_losses,
                     head_predictions, init_state, local_forward, local_param_gradient,
                     nonconvex_reg, party_columns)

ALGORITHMS = ("asyrevel_gau", "asyrevel_uni", "synrevel", "nonfed", "tig")
COMPUTE_DISTS = ("constant", "exponential")
LATENCY_DISTS = ("constant", "uniform")

# event_schedule's heap event kinds, in tie-break order at equal times, and its ops
_REPLY, _DELIVER, _FINISH = 0, 1, 2
START, HANDLE, APPLY = "start", "handle", "apply"


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run: two runs with equal configs produce
    byte-identical trajectories and transcripts.  It is checked when built."""

    algorithm: str
    q: int
    T: int
    eta: float = 1e-3
    eta_server: float | None = None
    mu: float = 1e-3
    lam_eff: float = 5e-5
    tau: int = 0
    p: list[float] | None = None
    seed: int = 0
    straggler: tuple[int, float] | None = None
    scheme: str = GAUSSIAN          # used by synrevel/nonfed; asyrevel_* pin it
    compute_dist: str = "constant"
    latency: float = 0.0
    latency_dist: str = "constant"
    eval_every: int | None = None
    stop_loss: float | None = None
    record_snapshots: bool = False

    def __post_init__(self) -> None:
        for key, allowed in (("algorithm", ALGORITHMS), ("scheme", SCHEMES),
                             ("compute_dist", COMPUTE_DISTS), ("latency_dist", LATENCY_DISTS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}; expected one of {allowed}")
        for key in ("eta", "eta_server", "mu", "lam_eff", "latency", "stop_loss"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.q < 1:
            raise ConfigError("need at least one party")
        if self.T < 0:
            raise ConfigError("event budget must be nonnegative")
        if self.eta <= 0 or self.mu <= 0:
            raise ConfigError("step size and smoothing radius must be positive")
        if self.eta_server is not None and self.eta_server <= 0:
            raise ConfigError("head step size must be positive")
        if self.lam_eff < 0 or self.latency < 0:
            raise ConfigError("regularizer weight and latency must be nonnegative")
        streams.check_seed(self.seed)
        if self.tau < 0:
            raise ConfigError("delay bound must be nonnegative")
        if self.p is not None:
            if len(self.p) != self.q:
                raise ConfigError(f"p has {len(self.p)} entries for q={self.q}")
            if not all(0 < pm < math.inf for pm in self.p):
                raise ConfigError("activation probabilities must be positive and finite")
            if abs(sum(self.p) - 1.0) > 1e-9:
                raise ConfigError("activation probabilities must sum to 1")
        if self.straggler is not None:
            party, factor = self.straggler
            if not 1 <= party <= self.q:
                raise ConfigError(f"straggler party {party} outside 1..{self.q}")
            if not 1.0 <= factor < math.inf:
                raise ConfigError("slowdown factor must be finite and >= 1")
        if self.eval_every is not None and self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.algorithm.startswith("asyrevel") and self.latency > 0 and self.tau < self.q - 1:
            raise ConfigError(
                f"bounded staleness infeasible: latency > 0 allows {self.q - 1} "
                f"concurrent uploads but tau={self.tau}"
            )

    @property
    def direction_scheme(self) -> str:
        if self.algorithm == "asyrevel_gau":
            return GAUSSIAN
        if self.algorithm == "asyrevel_uni":
            return SPHERE
        return self.scheme

    @property
    def eta0(self) -> float:
        """Head step size: eta_server, or eta / q when it is unset."""
        return self.eta_server if self.eta_server is not None else self.eta / self.q

    def party_means(self) -> list[float]:
        """Mean compute time per party: slowdown / (q p_m), so activation
        rates realize the configured probabilities."""
        p = self.p if self.p is not None else [1.0 / self.q] * self.q
        means = [1.0 / (self.q * p[m]) for m in range(self.q)]
        if self.straggler is not None:
            party, factor = self.straggler
            means[party - 1] *= factor
        return means


@dataclass
class MetricsRow:
    t: int
    vtime: float
    loss: float
    acc: float
    bytes_up: int
    bytes_down: int
    staleness: int
    gnorm2: float


@dataclass
class RunMetrics:
    """Per-evaluation-point log plus run-level outcomes."""

    rows: list[MetricsRow] = field(default_factory=list)
    transcript: Transcript | None = None
    snapshots: list[tuple[int, np.ndarray, list[np.ndarray]]] = field(default_factory=list)
    activations: list[int] = field(default_factory=list)
    reached: bool = False
    time_to_target: float = float("nan")
    events_to_target: int = -1
    final_w0: np.ndarray | None = None
    final_w: list[np.ndarray] | None = None

    @property
    def final_loss(self) -> float:
        return self.rows[-1].loss if self.rows else float("nan")

    @property
    def final_accuracy(self) -> float:
        return self.rows[-1].acc if self.rows else float("nan")

    @property
    def total_bytes(self) -> int:
        return (self.rows[-1].bytes_up + self.rows[-1].bytes_down) if self.rows else 0

    @property
    def final_vtime(self) -> float:
        return self.rows[-1].vtime if self.rows else 0.0

    def to_csv(self, path) -> None:
        # wtime is always 0; the column stays so the layout does not change
        with open(path, "w") as fh:
            fh.write("t,vtime,wtime,loss,acc,bytes_up,bytes_down,staleness,gnorm2\n")
            for r in self.rows:
                fh.write(
                    f"{r.t},{r.vtime:.12g},0,{r.loss:.12g},{r.acc:.12g},"
                    f"{r.bytes_up},{r.bytes_down},{r.staleness},{r.gnorm2:.12g}\n"
                )


def _party_outputs(w, data: PartitionedDataset, local_model: LocalModel) -> list[np.ndarray]:
    return [local_forward(local_model, wm, X) for wm, X in zip(w, data.blocks)]


def evaluate_loss(w0, w, data: PartitionedDataset, lam_eff,
                  local_model: LocalModel, global_model: GlobalModel) -> float:
    """Training objective at the given parameters: the mean head loss over
    the samples plus the regularizer."""
    if len(w) != data.q:
        raise ShapeError(f"{len(w)} parameter blocks for {data.q} parties")
    if data.n == 0:
        raise UsageError("the training set has no samples")
    losses = head_losses(global_model, w0, _party_outputs(w, data, local_model), data.labels)
    return float(np.mean(losses)) + lam_eff * sum(nonconvex_reg(wm) for wm in w)


def evaluate_accuracy(w0, w, data: PartitionedDataset | None,
                      local_model: LocalModel, global_model: GlobalModel) -> float:
    """Fraction of `data` the model labels correctly (nan without data)."""
    if data is None or data.n == 0:
        return float("nan")
    pred = head_predictions(global_model, w0, _party_outputs(w, data, local_model))
    return float(np.mean(pred == data.labels))


class _Recorder:
    """A run's evaluation rows, stop rule and per-party update counts.  It
    logs the event-0 row when built; drivers then report their event count
    through `advance` and their updates through `note_update`.  Every run
    ends on a row at its last event.  `params()` gives the current (w0, w);
    only rows and `finish` read it."""

    def __init__(self, cfg, data, test_data, local_model, global_model, transcript, params):
        self.cfg = cfg
        self.data = data
        self.test = test_data
        self.lm, self.gm = local_model, global_model
        self.transcript, self.params = transcript, params
        self.every = cfg.eval_every or data.n
        self.metrics = RunMetrics(transcript=transcript)
        self.last_v = [None] * (cfg.q + 1)  # each party's last update, the head at 0
        self.updates = [0] * (cfg.q + 1)  # update count per party, the head at 0
        self.max_stal = 0
        self.stopped = False
        self.t, self.vtime = 0, 0.0
        self._log(0, 0.0)

    def note_update(self, party: int, v: np.ndarray | None) -> None:
        """Count one update of `party` (0 the head); None means no update."""
        if v is not None:
            self.last_v[party] = v
            self.updates[party] += 1

    def advance(self, t: int, vtime: float) -> None:
        """Move the event count `self.t` to t, logging a row when an
        evaluation point (a multiple of `every`) lies in (self.t, t]."""
        if t // self.every > self.t // self.every:
            self._log(t, vtime)
        self.t, self.vtime = t, vtime

    def _log(self, t: int, vtime: float) -> None:
        """Append one row and apply the stop rule."""
        w0, w = self.params()
        loss = evaluate_loss(w0, w, self.data, self.cfg.lam_eff, self.lm, self.gm)
        if not math.isfinite(loss):
            # updates can stay finite while the parameters grow past where the
            # objective overflows: the baseline's logistic gradients are bounded
            raise ProtocolError(f"non-finite training loss at event {t}")
        acc = evaluate_accuracy(w0, w, self.test, self.lm, self.gm)
        bu = self.transcript.total_bytes("up") if self.transcript else 0
        bd = self.transcript.total_bytes("down") if self.transcript else 0
        gnorm2 = sum(0.0 if v is None else float(np.dot(v, v)) for v in self.last_v)
        self.metrics.rows.append(MetricsRow(t, vtime, loss, acc, bu, bd, self.max_stal, gnorm2))
        if self.cfg.record_snapshots:
            self.metrics.snapshots.append((t, np.copy(w0), [np.copy(wm) for wm in w]))
        if self.cfg.stop_loss is not None and loss <= self.cfg.stop_loss:
            self.metrics.reached = True
            self.metrics.time_to_target = vtime
            self.metrics.events_to_target = t
            self.stopped = True

    def finish(self) -> RunMetrics:
        if self.metrics.rows[-1].t != self.t:
            self._log(self.t, self.vtime)
        w0, w = self.params()
        self.metrics.final_w0 = np.copy(w0)
        self.metrics.final_w = [np.copy(wm) for wm in w]
        self.metrics.activations = self.updates[1:]
        return self.metrics


def _init_run(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
              global_model: GlobalModel):
    """init_state for a run whose config, data and head agree on the party
    count, and whose local models give the head's input width per party."""
    counts = (cfg.q, data.q, global_model.q)
    widths = (local_model.output_dim, global_model.party_output_dim)
    if len(set(counts)) > 1 or len(set(widths)) > 1:
        raise ConfigError(f"parties disagree: counts (q, data blocks, head) {counts}, "
                          f"output widths (local, head) {widths}")
    return init_state(data, local_model, global_model, cfg.seed)


def _start_protocol(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
                    global_model: GlobalModel, test_data: PartitionedDataset | None):
    """Party and server nodes after the cache warm-up, and a recorder on the
    transcript that holds the warm-up uploads."""
    transcript = Transcript()
    w0, w = _init_run(cfg, data, local_model, global_model)
    parties = [PartyNode(m + 1, data.blocks[m], local_model, w[m], cfg) for m in range(cfg.q)]
    server = ServerNode(global_model, w0, data.labels, cfg)
    warmup_cache(parties, server, transcript)
    return parties, server, _Recorder(cfg, data, test_data, local_model, global_model,
                                      transcript, lambda: (server.w0, [p.w for p in parties]))


def event_schedule(cfg: RunConfig):
    """The order of an asynchronous run's protocol steps, read off the config.

    Yields (time, op, party, value): START when the party uploads (value
    None: it draws its own sample), HANDLE when the server answers that
    upload (value: its staleness) and APPLY when the reply reaches the
    party.  Compute times are drawn at (party, step), latencies at (party,
    seq), and the StalenessQueue decides from counts alone.  Lazy: nothing
    is drawn past the op the caller stops at, nor past the T-th APPLY.
    """
    delay, queue = DelayModel(cfg), StalenessQueue(cfg.tau)
    push, pop, T = heapq.heappush, heapq.heappop, cfg.T
    # keys (time, kind, party or serial) are unique, so no last item is compared
    heap = [(delay.compute_time(m, 0), _FINISH, m, None) for m in range(1, cfg.q + 1)]
    heapq.heapify(heap)
    steps = [0] * cfg.q  # replies applied per party: its next upload's seq
    sent = handled = applied = 0
    while applied < T:
        now, kind, idx, lat = pop(heap)
        if kind == _FINISH and sent < T:  # after T uploads, parties idle
            yield now, START, idx, None
            sent += 1
            lat = delay.latency_time(idx, steps[idx - 1])
            queue.send(sent, handled)
            push(heap, (now + lat, _DELIVER, sent, (idx, lat)))
        elif kind == _DELIVER:
            queue.deliver(idx, lat)
            while (nxt := queue.pop_next(handled)) is not None:
                (m, lat), send_count, _serial = nxt
                yield now, HANDLE, m, handled - send_count
                handled += 1
                # the reply travels the same (party, seq) link as its upload
                push(heap, (now + lat, _REPLY, m, None))
        elif kind == _REPLY:
            yield now, APPLY, idx, None
            applied += 1
            steps[idx - 1] += 1
            if applied < T:
                nxt_t = now + delay.compute_time(idx, steps[idx - 1])
                push(heap, (nxt_t, _FINISH, idx, None))


def _replay_schedule(cfg: RunConfig, schedule):
    """The ops of (party, sample) pairs run one round trip at a time, each
    at its party's clock, which advances by the party's mean compute time."""
    clocks, means = [0.0] * cfg.q, cfg.party_means()
    for m, i in schedule[:cfg.T]:
        clocks[m - 1] += means[m - 1]
        for op, value in ((START, i), (HANDLE, 0), (APPLY, None)):
            yield clocks[m - 1], op, m, value


def run_asyrevel(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
                 global_model: GlobalModel, test_data: PartitionedDataset | None = None,
                 schedule=None) -> RunMetrics:
    """Asynchronous run: warm-up, then T client-activation events in the
    order of `event_schedule(cfg)` or, the replay hook the equivalence
    oracles use, serialized over `schedule`'s first T (party, sample) pairs;
    one not of two integers in 1..q and 0..n-1 raises ConfigError first."""
    if cfg.algorithm not in ("asyrevel_gau", "asyrevel_uni"):
        raise ConfigError(f"run_asyrevel got algorithm {cfg.algorithm!r}")
    for pair in () if schedule is None else schedule[:cfg.T]:  # (-1, -1) unless two ints
        ints = [x for x in pair if isinstance(x, (int, np.integer)) and not isinstance(x, bool)]
        m, i = ints if len(ints) == len(pair) == 2 else (-1, -1)
        if not (1 <= m <= cfg.q and 0 <= i < data.n):
            raise ConfigError(f"schedule pair {tuple(pair)} is outside parties 1..{cfg.q} "
                              f"and samples 0..{data.n - 1}")
    parties, server, rec = _start_protocol(cfg, data, local_model, global_model, test_data)
    ops = event_schedule(cfg) if schedule is None else _replay_schedule(cfg, schedule)
    msgs = [None] * cfg.q  # each party's outstanding upload, then its reply
    record = rec.transcript.record
    for now, op, m, value in () if rec.stopped else ops:  # stopped at the event-0 row
        if op == START:
            msgs[m - 1] = parties[m - 1].start_step(sample=value)
            record(now, msgs[m - 1])
        elif op == HANDLE:
            rec.max_stal = max(rec.max_stal, value)
            msgs[m - 1] = server.handle_upload(msgs[m - 1])
            record(now, msgs[m - 1])
            rec.note_update(0, server.last_v0)
        else:
            rec.note_update(m, parties[m - 1].apply_reply(msgs[m - 1]))
            rec.advance(rec.t + 1, now)
            if rec.stopped:
                break
    return rec.finish()


def round_sample(samples: streams.Stream, r: int, n: int) -> int:
    """The shared per-round index used by synchronous rounds: the SAMPLE
    stream `samples` at party slot 0, step r."""
    return int(samples.at(0, r).integers(0, n))


def matched_schedule(cfg: RunConfig, n: int):
    """Round-robin schedule of cfg.T events on the synchronous rounds' draws.

    Feeding this to run_asyrevel serializes the protocol against the same
    indices the synchronous driver will use; with a single party the two
    trajectories coincide exactly (a barrier over one worker is a no-op).
    """
    samples = streams.Stream(cfg.seed, streams.SAMPLE)
    rounds = [round_sample(samples, r, n) for r in range(-(-cfg.T // cfg.q))]
    return [(m, i) for i in rounds for m in range(1, cfg.q + 1)][:cfg.T]


def run_synrevel(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
                 global_model: GlobalModel, test_data: PartitionedDataset | None = None) -> RunMetrics:
    """Synchronous rounds: all parties compute on the shared sampled index,
    a barrier waits for the slowest, the server answers every party from the
    same-round outputs (staleness identically zero), then updates apply."""
    parties, server, rec = _start_protocol(cfg, data, local_model, global_model, test_data)
    delay = DelayModel(cfg)
    samples = streams.Stream(cfg.seed, streams.SAMPLE)

    vtime = 0.0
    while rec.t < cfg.T and not rec.stopped:
        r = rec.t // cfg.q  # the round: each one advances the event count by q
        i = round_sample(samples, r, data.n)
        uploads = [party.start_step(sample=i) for party in parties]
        vtime += max(delay.compute_time(m, r) for m in range(1, cfg.q + 1)) + 2 * cfg.latency
        for up in uploads:
            rec.transcript.record(vtime, up)
        replies = server.answer_round(uploads)
        for reply in replies:
            rec.transcript.record(vtime, reply)
        rec.note_update(0, server.last_v0)
        for party, reply in zip(parties, replies):
            rec.note_update(party.id, party.apply_reply(reply))
        rec.advance(rec.t + cfg.q, vtime)
    return rec.finish()


def _centralized_start(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
                       global_model: GlobalModel):
    """Initial w0 and blocks w of a run without parties, and the warm
    (n, q*k) output cache that mirrors the protocol's warm-up: row i is
    sample i's flat head input, the party blocks' outputs side by side."""
    w0, w = _init_run(cfg, data, local_model, global_model)
    return w0, w, np.concatenate(_party_outputs(w, data, local_model), axis=1)


def _centralized_events(cfg: RunConfig, n: int):
    """The update events of the drivers that send nothing through the network
    model (nonfed, tig), in compute-time order.

    Yields (t, time, party, step, sample) for t = 1..T: each party's next
    activation follows its previous one by a compute time drawn at (party,
    step), and its sample is the SAMPLE stream's draw at (party, step).
    """
    delay = DelayModel(cfg)
    samples = streams.Stream(cfg.seed, streams.SAMPLE)
    heap = [(delay.compute_time(m, 0), m) for m in range(1, cfg.q + 1)]
    heapq.heapify(heap)
    steps = [0] * cfg.q
    for t in range(1, cfg.T + 1):
        now, pid = heapq.heappop(heap)
        k = steps[pid - 1]
        yield t, now, pid, k, int(samples.at(pid, k).integers(0, n))
        steps[pid - 1] = k + 1
        if t < cfg.T:  # no compute-time draw after the last event
            heapq.heappush(heap, (now + delay.compute_time(pid, k + 1), pid))


def run_nonfederated(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
                     global_model: GlobalModel, test_data: PartitionedDataset | None = None) -> RunMetrics:
    """Centralized counterpart: all features on one node, the identical
    block-coordinate two-point updates from the same streams, no wire.

    Reuses per-(sample, block) output memoization, so with zero latency the
    trajectory is bit-identical to the federated run under shared streams.
    """
    w0, w, cache = _centralized_start(cfg, data, local_model, global_model)
    scheme = cfg.direction_scheme
    rec = _Recorder(cfg, data, test_data, local_model, global_model, None, lambda: (w0, w))
    directions = streams.Stream(cfg.seed, streams.DIRECTION)
    head_directions = streams.Stream(cfg.seed, streams.SERVER_DIRECTION)
    odim = global_model.party_output_dim
    for t, now, pid, k, i in _centralized_events(cfg, data.n):
        if rec.stopped:
            break
        m = pid - 1
        cols = party_columns(pid, odim)
        u = sample_direction(scheme, w[m].size, directions.at(pid, k))
        c, c_hat, g0, g1 = two_point_client(local_model, w[m], data.blocks[m][i], u, cfg.mu)
        row = cache[i].copy()
        row[cols] = c
        # the server addresses head directions by the count of uploads answered
        u0 = head_direction(scheme, w0.size, head_directions, t - 1)
        h, h_bar, v0 = two_point_head(global_model, w0, row, pid, c_hat, data.labels[i],
                                      cfg.mu, u0)
        if v0 is not None:
            reject_nonfinite(v0, 0, t - 1)
            w0 = w0 - cfg.eta0 * v0
            rec.note_update(0, v0)
        cache[i, cols] = c
        v_hat = client_block_zoe(h, h_bar, g0, g1, cfg.mu, cfg.lam_eff, u)
        reject_nonfinite(v_hat, pid, k)
        w[m] = w[m] - cfg.eta * v_hat
        rec.note_update(pid, v_hat)
        rec.advance(t, now)
    return rec.finish()


def run_tig_baseline(cfg: RunConfig, data: PartitionedDataset, local_model: LocalModel,
                     global_model: GlobalModel, test_data: PartitionedDataset | None = None) -> RunMetrics:
    """Gradient-transmitting baseline.

    Per round the party uploads its output, the download carries the
    intermediate head gradient plus the parameter-gradient-sized chain
    payload, and the party applies the chain-rule update.  Declared
    black-box models are unsupported by construction: without an exposed
    gradient there is nothing to transmit.
    """
    if local_model.black_box or global_model.black_box:
        raise UnsupportedModelError(
            "TIG baseline needs differentiable models with gradients exposed; "
            "a black-box model cannot supply the intermediate gradient"
        )
    transcript = Transcript()
    w0, w, cache = _centralized_start(cfg, data, local_model, global_model)
    odim = global_model.party_output_dim
    for i in range(data.n):
        for m in range(cfg.q):
            transcript.record_raw(0.0, "up", "tig_output", m + 1, i, -1,
                                  cache[i, party_columns(m + 1, odim)])
    rec = _Recorder(cfg, data, test_data, local_model, global_model, transcript, lambda: (w0, w))
    for t, now, pid, k, i in _centralized_events(cfg, data.n):
        if rec.stopped:
            break
        m = pid - 1
        cols = party_columns(pid, odim)
        x = data.blocks[m][i]
        c = local_forward(local_model, w[m], x)
        transcript.record_raw(now, "up", "tig_output", pid, i, k, c)
        row = cache[i].copy()
        row[cols] = c
        upstream, g0 = head_gradients(global_model, w0, row, data.labels[i], pid)
        transcript.record_raw(now, "down", "tig_grad", pid, i, k, upstream)
        grad = local_param_gradient(local_model, w[m], x, upstream)
        transcript.record_raw(now, "down", "tig_chain", pid, i, k, grad)
        reject_nonfinite(grad, pid, k)
        w[m] = w[m] - cfg.eta * grad
        rec.note_update(pid, grad)
        if g0 is not None:
            reject_nonfinite(g0, 0, t - 1)
            w0 = w0 - cfg.eta0 * g0
            rec.note_update(0, g0)
        cache[i, cols] = c
        rec.advance(t, now)
    return rec.finish()


RUNNERS = {
    "asyrevel_gau": run_asyrevel,
    "asyrevel_uni": run_asyrevel,
    "synrevel": run_synrevel,
    "nonfed": run_nonfederated,
    "tig": run_tig_baseline,
}


def run_algorithm(cfg: RunConfig, data, local_model, global_model, test_data=None) -> RunMetrics:
    return RUNNERS[cfg.algorithm](cfg, data, local_model, global_model, test_data)


@dataclass
class CommRow:
    label: str
    block_dim: int
    asy_bytes: int
    tig_bytes: int
    byte_ratio: float
    cost_ratio: float


def _training_traffic(metrics: RunMetrics) -> tuple[int, int]:
    """Bytes and messages on the wire excluding warm-up traffic (the seq >= 0
    rows), read from the transcript's columns."""
    if metrics.transcript is None:
        return 0, 0
    training = metrics.transcript.column("seq") >= 0
    return int(metrics.transcript.column("nbytes")[training].sum()), int(training.sum())


def training_bytes(metrics: RunMetrics) -> int:
    """Wire bytes excluding warm-up traffic (seq >= 0 entries only)."""
    return _training_traffic(metrics)[0]


def measure_comm(pairs, per_message_overhead: float = 128.0) -> list[CommRow]:
    """Byte and link-cost ratios of TIG to function-value traffic.

    pairs: iterable of (label, block_dim, asy_metrics, tig_metrics) with the
    two runs sharing an event count.  The link cost charges a fixed
    per-message overhead on top of payload bytes, modeling per-message
    latency at a configured bandwidth.
    """
    if not 0 <= per_message_overhead < math.inf:
        raise UsageError(f"per-message overhead must be finite and nonnegative, "
                         f"got {per_message_overhead}")
    rows = []
    for label, block_dim, asy, tig in pairs:
        if not asy.rows or not tig.rows or asy.rows[-1].t != tig.rows[-1].t:
            raise UsageError(f"pair {label!r}: runs are not schedule-paired")
        (ab, am), (tb, tm) = _training_traffic(asy), _training_traffic(tig)
        if ab == 0:
            raise UsageError(f"pair {label!r}: no protocol traffic to compare")
        rows.append(CommRow(
            label=label,
            block_dim=block_dim,
            asy_bytes=ab,
            tig_bytes=tb,
            byte_ratio=tb / ab,
            cost_ratio=(tb + per_message_overhead * tm) / (ab + per_message_overhead * am),
        ))
    return rows
