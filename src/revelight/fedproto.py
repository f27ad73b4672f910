"""Wire protocol: framing, server cache, bounded-delay semantics, and the audit.

Training traffic consists of exactly two message kinds.  A party uploads its
local output and the output at a perturbed parameter point; the server
replies with the head value at the cached outputs and at the perturbed
substitution.  No parameter or gradient vector ever crosses this wire, which
is the property the transcript audit mechanizes.

Frame layout (little endian): 4-byte length of the remainder, 1-byte variant
tag (0 = Upload, 1 = Reply), 4-byte party, 4-byte sample, 4-byte seq, 2-byte
vector length, then 64-bit floats (Upload carries two vectors of that
length, c followed by c_hat; Reply carries the pair h, h_bar).
"""

from __future__ import annotations

import heapq
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .errors import DecodeError, DomainError, ProtocolError, ShapeError
from .estimator import client_block_zoe, head_direction, sample_direction, two_point_head
from .models import GlobalModel, LocalModel, local_forward, nonconvex_reg, party_columns

_HEAD = struct.Struct("<IBiiiH")
HEADER_BYTES = _HEAD.size  # 19
UPLOAD_TAG = 0
REPLY_TAG = 1
MAX_VECTOR = 0xFFFF  # the header's 2-byte vector length
INT32_MIN, INT32_MAX = -2**31, 2**31 - 1  # the header's 4-byte party, sample, seq

COMPUTE_DISTS = ("constant", "exponential")
LATENCY_DISTS = ("constant", "uniform")


@dataclass
class Upload:
    party: int
    sample: int
    c: np.ndarray
    c_hat: np.ndarray
    seq: int


@dataclass
class Reply:
    party: int
    sample: int
    h: float
    h_bar: float
    seq: int


def frame_bytes(n_floats: int) -> int:
    """Size of a frame carrying n_floats payload values."""
    return HEADER_BYTES + 8 * n_floats


def encode_message(msg) -> bytes:
    """Encode one message as a length-prefixed binary frame."""
    if isinstance(msg, (Upload, Reply)):
        for name in ("party", "sample", "seq"):
            value = getattr(msg, name)
            if not INT32_MIN <= value <= INT32_MAX:
                raise ShapeError(f"{name} {value} does not fit the frame's 4-byte field")
    if isinstance(msg, Upload):
        c = np.asarray(msg.c, dtype=np.float64)
        c_hat = np.asarray(msg.c_hat, dtype=np.float64)
        if c.shape != c_hat.shape:
            raise ShapeError("upload vectors c and c_hat must have equal length")
        if c.size > MAX_VECTOR:
            raise ShapeError(f"upload vector length {c.size} exceeds the frame limit {MAX_VECTOR}")
        floats = np.concatenate([c, c_hat])
        head = _HEAD.pack(
            HEADER_BYTES - 4 + 8 * floats.size, UPLOAD_TAG,
            msg.party, msg.sample, msg.seq, c.size,
        )
    elif isinstance(msg, Reply):
        floats = np.array([msg.h, msg.h_bar], dtype=np.float64)
        head = _HEAD.pack(
            HEADER_BYTES - 4 + 16, REPLY_TAG, msg.party, msg.sample, msg.seq, 2
        )
    else:
        raise DomainError(f"cannot encode {type(msg).__name__}")
    return head + floats.astype("<f8").tobytes()


def decode_message(data: bytes):
    """Decode one frame; raises DecodeError naming the failing offset."""
    if len(data) < 4:
        raise DecodeError("truncated header at offset 0")
    if len(data) < HEADER_BYTES:
        raise DecodeError(f"truncated header at offset {len(data)}")
    length, tag, party, sample, seq, veclen = _HEAD.unpack_from(data, 0)
    if len(data) - 4 != length:
        raise DecodeError(
            f"length mismatch at offset 4: declared {length}, found {len(data) - 4}"
        )
    if tag == UPLOAD_TAG:
        n_floats = 2 * veclen
    elif tag == REPLY_TAG:
        if veclen != 2:
            raise DecodeError(f"length mismatch at offset {HEADER_BYTES - 2}: reply needs 2 values")
        n_floats = 2
    else:
        raise DecodeError(f"unknown variant tag {tag} at offset 4")
    if len(data) != frame_bytes(n_floats):
        raise DecodeError(
            f"length mismatch at offset {HEADER_BYTES}: payload needs {8 * n_floats} bytes"
        )
    floats = np.frombuffer(data, dtype="<f8", offset=HEADER_BYTES).copy()
    if tag == UPLOAD_TAG:
        return Upload(party, sample, floats[:veclen], floats[veclen:], seq)
    return Reply(party, sample, float(floats[0]), float(floats[1]), seq)


@dataclass
class TranscriptEntry:
    time: float
    direction: str  # 'up' or 'down'
    variant: str
    party: int
    sample: int
    seq: int
    payload: np.ndarray
    nbytes: int

    def vector_lengths(self) -> list[int]:
        """Semantic payload vector lengths used by the audit.

        Protocol uploads carry two equal vectors; protocol replies carry two
        scalars; baseline traffic (tig_* variants) carries one vector.
        """
        n = int(self.payload.size)
        if self.variant == "upload":
            return [n // 2, n - n // 2] if n else [0]
        if self.variant == "reply" and n == 2:
            return [1, 1]
        return [n]


class Transcript:
    """Append-only record of everything that crossed the wire."""

    def __init__(self) -> None:
        self.entries: list[TranscriptEntry] = []
        self._bytes = {"up": 0, "down": 0}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def record(self, time: float, direction: str, msg) -> TranscriptEntry:
        """Log one message with the size of its frame, which `frame_bytes`
        gives without encoding it."""
        if isinstance(msg, Upload):
            if np.shape(msg.c) != np.shape(msg.c_hat):
                raise ShapeError("upload vectors c and c_hat must have equal length")
            variant, payload = "upload", np.concatenate([msg.c, msg.c_hat])
        elif isinstance(msg, Reply):
            variant, payload = "reply", np.array([msg.h, msg.h_bar])
        else:
            raise DomainError(f"cannot record {type(msg).__name__}")
        entry = TranscriptEntry(
            time, direction, variant, msg.party, msg.sample, msg.seq,
            payload, frame_bytes(payload.size),
        )
        self.entries.append(entry)
        self._bytes[direction] += entry.nbytes
        return entry

    def record_raw(self, time, direction, variant, party, sample, seq, payload) -> TranscriptEntry:
        payload = np.asarray(payload, dtype=np.float64)
        entry = TranscriptEntry(
            time, direction, variant, party, sample, seq, payload,
            frame_bytes(payload.size),
        )
        self.entries.append(entry)
        self._bytes[direction] += entry.nbytes
        return entry

    def total_bytes(self, direction: str | None = None) -> int:
        if direction is None:
            return self._bytes["up"] + self._bytes["down"]
        return self._bytes[direction]

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for e in self.entries:
                fh.write(json.dumps({
                    "time": e.time,
                    "dir": e.direction,
                    "variant": e.variant,
                    "party": e.party,
                    "sample": e.sample,
                    "seq": e.seq,
                    "payload": [float(v) for v in e.payload],
                    "bytes": e.nbytes,
                }) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "Transcript":
        t = cls()
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                entry = TranscriptEntry(
                    obj["time"], obj["dir"], obj["variant"], obj["party"],
                    obj["sample"], obj["seq"], np.array(obj["payload"]), obj["bytes"],
                )
                t.entries.append(entry)
                t._bytes[entry.direction] += entry.nbytes
        return t


class ServerCache:
    """Latest local output per (sample, party) with receipt stamps.

    The outputs live in one contiguous (n, q*k) float64 matrix `values`, k
    the head's party_output_dim: party m's output for sample i sits at
    values[i, party_columns(m, k)], so row i is the head's flat input.
    stamp[i, m-1] is the event that last wrote the cell, -1 while it is not
    warmed.
    """

    def __init__(self, n: int, q: int, k: int = 1) -> None:
        self.n = n
        self.q = q
        self.k = k
        self.values = np.zeros((n, q * k))
        self.stamp = -np.ones((n, q), dtype=np.int64)

    def cols(self, sample: int, party: int) -> slice:
        """Party's columns of the flat row; rejects an unknown sample or party."""
        if not 0 <= sample < self.n:
            raise ProtocolError(f"unknown sample id {sample}")
        if not 1 <= party <= self.q:
            raise ProtocolError(f"unknown party id {party}")
        return party_columns(party, self.k)

    def put(self, sample: int, party: int, c: np.ndarray, stamp: int) -> None:
        cols = self.cols(sample, party)
        c = np.asarray(c)
        if c.size != self.k:
            raise ProtocolError(f"party {party} output has {c.size} values, the head takes {self.k}")
        if stamp < self.stamp[sample, party - 1]:
            raise ProtocolError(f"cache stamp would decrease for sample {sample}, party {party}")
        self.values[sample, cols] = c
        self.stamp[sample, party - 1] = stamp

    def get(self, sample: int, party: int) -> np.ndarray:
        cols = self.cols(sample, party)
        if self.stamp[sample, party - 1] < 0:
            raise ProtocolError(f"cache cell ({sample}, {party}) not warmed")
        return self.values[sample, cols].copy()

    def row(self, sample: int) -> np.ndarray:
        """A copy of row `sample`: the flat head input of q*k values."""
        if not 0 <= sample < self.n:
            raise ProtocolError(f"unknown sample id {sample}")
        stamps = self.stamp[sample]
        if stamps.min() < 0:
            party = int(np.argmax(stamps < 0)) + 1
            raise ProtocolError(f"cache cell ({sample}, {party}) not warmed")
        return self.values[sample].copy()


@dataclass
class DelayModel:
    """Compute-time and latency model for the simulated protocol; both are
    drawn from the counter-based streams so timings replay exactly.  The
    model owns its COMPUTE and LATENCY streams."""

    compute: str = "constant"     # one of COMPUTE_DISTS
    latency: float = 0.0          # mean one-way latency, virtual units
    latency_dist: str = "constant"  # one of LATENCY_DISTS
    _streams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.compute not in COMPUTE_DISTS:
            raise DomainError(f"unknown compute-time model {self.compute!r}")
        if self.latency_dist not in LATENCY_DISTS:
            raise DomainError(f"unknown latency model {self.latency_dist!r}")

    def _at(self, seed: int, purpose: int, party: int, step: int) -> np.random.Generator:
        owned = self._streams.get(purpose)
        if owned is None or owned.seed != seed:
            owned = self._streams[purpose] = streams.Stream(seed, purpose)
        return owned.at(party, step)

    def compute_time(self, seed: int, party: int, step: int, mean: float) -> float:
        if self.compute == "constant":
            return mean
        return float(self._at(seed, streams.COMPUTE, party, step).exponential(mean))

    def latency_time(self, seed: int, party: int, step: int) -> float:
        if self.latency <= 0:
            return 0.0
        if self.latency_dist == "constant":
            return self.latency
        return float(self._at(seed, streams.LATENCY, party, step).uniform(0.0, 2.0 * self.latency))


class StalenessQueue:
    """Delivered-but-unprocessed uploads plus the tau clamp.

    Messages are normally processed in delivery order, but no message may see
    more than tau other uploads processed between its send and its own turn.
    Treating each unprocessed message as a unit job with deadline
    send_count + tau, the queue switches to oldest-first whenever the
    delivery-order schedule would miss a deadline, stalling (processing
    nothing) while the oldest message is still in flight.  With at most q - 1
    concurrent competitors per message this keeps staleness <= tau whenever
    tau >= q - 1, and degenerates to strict send order at tau = 0.

    Serials increase and send counts never decrease from one send to the
    next, so `sends`, which keeps every unprocessed message in serial order,
    is sorted oldest-first: the deadline check scans it without a sort, and
    its first entry is the oldest message.  Delivery order comes from a heap
    keyed (delivery, send_count, serial) whose processed entries are dropped
    when they reach the top.
    """

    def __init__(self, tau: int) -> None:
        self.tau = tau
        self.sends: dict[int, int] = {}        # serial -> send_count, unprocessed, serial order
        self.in_flight: dict[int, float] = {}  # serial -> delivery time, not yet delivered
        self.pending: dict[int, object] = {}   # serial -> msg, delivered, not yet processed
        self._by_delivery: list[tuple[float, int, int]] = []
        self._last: tuple[int, int] | None = None  # serial and send count of the latest send

    def send(self, serial: int, delivery_time: float, send_count: int) -> None:
        if self._last is not None:
            last_serial, last_count = self._last
            if serial <= last_serial:
                raise ProtocolError(f"serial {serial} does not follow serial {last_serial}")
            if send_count < last_count:
                raise ProtocolError(f"send count {send_count} is below the previous {last_count}")
        self._last = (serial, send_count)
        self.sends[serial] = send_count
        self.in_flight[serial] = delivery_time

    def deliver(self, serial: int, msg) -> None:
        delivery = self.in_flight.pop(serial, None)
        if delivery is None:
            raise ProtocolError(f"delivery of serial {serial}, which is not in flight")
        self.pending[serial] = msg
        heapq.heappush(self._by_delivery, (delivery, self.sends[serial], serial))

    def _deadline_pressure(self, processed_count: int) -> bool:
        # Slot i of the oldest-first order is the earliest count at which the
        # i-th unprocessed message could run.  Pressure when some slot would
        # pass a deadline, i.e. processed_count + i >= send_count_i + tau.
        limit = processed_count - self.tau
        for i, s in enumerate(self.sends.values()):
            if s - i <= limit:
                return True
        return False

    def pop_next(self, processed_count: int):
        """Next message to process, or None to stall / when empty.

        Returns (msg, send_count, serial).  Stalls when the deadline rule
        demands the oldest unprocessed message but it is still in flight.
        """
        if self._deadline_pressure(processed_count):
            serial = next(iter(self.sends))
            if serial not in self.pending:
                return None  # stall for the in-flight oldest
        elif self.pending:
            heap = self._by_delivery
            while heap[0][2] not in self.pending:
                heapq.heappop(heap)  # processed out of delivery order
            serial = heapq.heappop(heap)[2]
        else:
            return None
        return self.pending.pop(serial), self.sends.pop(serial), serial


class PartyNode:
    """One feature-holding party: owns its block, parameters, and directions."""

    def __init__(self, party_id, X_block, local_model: LocalModel, w, *,
                 mu, eta, lam_eff, scheme, seed):
        self.id = party_id
        self.X = X_block
        self.model = local_model
        self.w = np.asarray(w, dtype=np.float64)
        self.mu = mu
        self.eta = eta
        self.lam_eff = lam_eff
        self.scheme = scheme
        self.samples = streams.Stream(seed, streams.SAMPLE)
        self.directions = streams.Stream(seed, streams.DIRECTION)
        self.steps = 0          # activation counter, addresses the streams
        self.pending = None     # outstanding (sample, direction, g0, g1)

    @property
    def dim(self) -> int:
        return int(self.w.size)

    def start_step(self, sample: int | None = None) -> Upload:
        """Sample an index, perturb, and build the upload (one outstanding).

        An explicit sample overrides the index stream; directions always come
        from the party's own direction stream at its activation count.
        """
        if self.pending is not None:
            raise ProtocolError(f"party {self.id} already has an outstanding upload")
        k = self.steps
        if sample is None:
            i = int(self.samples.at(self.id, k).integers(self.X.shape[0]))
        else:
            i = int(sample)
        u = sample_direction(self.scheme, self.dim, self.directions.at(self.id, k))
        x = self.X[i]
        c = local_forward(self.model, self.w, x)
        c_hat = local_forward(self.model, self.w + self.mu * u.u, x)
        g0 = nonconvex_reg(self.w)
        g1 = nonconvex_reg(self.w + self.mu * u.u)
        self.pending = (i, u, g0, g1)
        return Upload(party=self.id, sample=i, c=c, c_hat=c_hat, seq=k)

    def warm_upload(self, sample: int) -> Upload:
        c = local_forward(self.model, self.w, self.X[sample])
        return Upload(party=self.id, sample=sample, c=c, c_hat=c, seq=-1)

    def apply_reply(self, reply: Reply) -> np.ndarray:
        """Finish the step: form the block estimate and descend."""
        if self.pending is None:
            raise ProtocolError(f"party {self.id} got a reply with no pending upload")
        i, u, g0, g1 = self.pending
        if reply.sample != i or reply.seq != self.steps:
            raise ProtocolError(
                f"party {self.id} reply for sample {reply.sample}/seq {reply.seq}, "
                f"expected {i}/{self.steps}"
            )
        v_hat = client_block_zoe(reply.h, reply.h_bar, g0, g1, self.dim,
                                 self.mu, self.lam_eff, u)
        if not np.isfinite(v_hat).all():
            raise ProtocolError(f"party {self.id}: non-finite update rejected")
        self.w = self.w - self.eta * v_hat
        self.pending = None
        self.steps += 1
        return v_hat


class ServerNode:
    """Label holder: evaluates the head against cached party outputs."""

    def __init__(self, global_model: GlobalModel, w0, labels, n, q, *,
                 mu, eta0, scheme, seed, transcript: Transcript | None = None):
        self.model = global_model
        self.w0 = np.asarray(w0, dtype=np.float64)
        self.labels = labels
        self.cache = ServerCache(n, q, global_model.party_output_dim)
        self.mu = mu
        self.eta0 = eta0
        self.scheme = scheme
        self.directions = streams.Stream(seed, streams.SERVER_DIRECTION)
        self.transcript = transcript
        self.uploads_seen = 0
        self.last_v0: np.ndarray | None = None

    def warm(self, upload: Upload, time: float = 0.0) -> None:
        if self.transcript is not None:
            self.transcript.record(time, "up", upload)
        self.cache.put(upload.sample, upload.party, upload.c, stamp=0)

    def handle_upload(self, upload: Upload, event: int) -> Reply:
        """Head values from the pre-update cache, reply, then cache overwrite."""
        reply, v0 = self._step(upload, self.w0, event)
        if v0 is not None:
            self.w0 = self.w0 - self.eta0 * v0
        self.last_v0 = v0
        return reply

    def answer_round(self, upload: Upload, fresh: np.ndarray, w0_base: np.ndarray,
                     event: int):
        """Synchronous-round reply against the same-round outputs `fresh` of
        every party (staleness zero), given as the flat head input (a list of
        the q outputs is flattened), estimates taken at w0_base.  Returns
        (reply, head_estimate or None); the caller applies it after the barrier."""
        return self._step(upload, w0_base, event, fresh)

    def _step(self, upload: Upload, w0: np.ndarray, event: int, fresh=None):
        """Two-point step at head parameters w0 against the cached outputs,
        or `fresh` when given; rejects an unknown sample or party, outputs
        that are not k values wide and a non-finite head estimate, counts the
        upload and caches its output."""
        i, m = upload.sample, upload.party
        cache = self.cache
        cols = cache.cols(i, m)
        if np.size(upload.c) != cache.k or np.size(upload.c_hat) != cache.k:
            raise ProtocolError(
                f"party {m} sent outputs of {np.size(upload.c)} and {np.size(upload.c_hat)} "
                f"values, the head takes {cache.k}"
            )
        row = cache.row(i) if fresh is None else np.array(fresh, dtype=np.float64).reshape(-1)
        row[cols] = upload.c
        u0 = head_direction(self.scheme, w0.size, self.directions, self.uploads_seen)
        h, h_bar, v0 = two_point_head(self.model, w0, row, m, upload.c_hat, self.labels[i],
                                      self.mu, u0)
        if v0 is not None and not np.isfinite(v0).all():
            raise ProtocolError("server: non-finite head update rejected")
        self.uploads_seen += 1
        cache.put(i, m, upload.c, stamp=event)
        return Reply(party=m, sample=i, h=h, h_bar=h_bar, seq=upload.seq), v0


def warmup_cache(parties: list[PartyNode], server: ServerNode) -> ServerCache:
    """Every party uploads its initial output for every sample.

    Populates all (sample, party) cells; the uploads are logged in the
    transcript and counted in the byte totals.
    """
    for party in parties:
        for i in range(server.cache.n):
            server.warm(party.warm_upload(i))
    return server.cache


@dataclass
class AuditReport:
    ok: bool
    checked: int
    violation_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def audit_transcript(transcript: Transcript, dims: list[int], d0: int = 0,
                     max_output_dim: int = 1) -> AuditReport:
    """Check that only function-value-shaped payloads crossed the wire.

    A transcript passes iff every payload vector is no longer than the
    largest local output and no payload vector length equals a parameter
    block dimension (a parameter- or gradient-shaped payload), unless that
    length is the entry's own function-value length: max_output_dim for
    each half of an upload, 1 for each scalar of a reply.  So a block of
    dimension 1 (the linear model at q = d) does not flag clean traffic,
    while tig_* entries carry no function values and are always checked.
    Reports the first offending entry otherwise.
    """
    blocked = {int(d) for d in dims}
    if d0 > 0:
        blocked.add(int(d0))
    legal = {"upload": max_output_dim, "reply": 1}
    checked = 0
    for idx, entry in enumerate(transcript):
        own = legal.get(entry.variant)
        for length in entry.vector_lengths():
            checked += 1
            if length > max_output_dim:
                return AuditReport(
                    False, checked, idx,
                    f"entry {idx} ({entry.variant}, party {entry.party}): payload vector "
                    f"length {length} exceeds max local output dim {max_output_dim}",
                )
            if length in blocked and length != own:
                return AuditReport(
                    False, checked, idx,
                    f"entry {idx} ({entry.variant}, party {entry.party}): payload vector "
                    f"length {length} matches a parameter block dimension",
                )
    return AuditReport(True, checked)
