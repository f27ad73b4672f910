"""Wire protocol: framing, server cache, bounded-delay semantics, and the audit.

Training traffic consists of exactly two message kinds.  A party uploads its
local output and the output at a perturbed parameter point; the server
replies with the head value at the cached outputs and at the perturbed
substitution.  No parameter or gradient vector ever crosses this wire, which
is the property the transcript audit mechanizes.  The server answers an
asynchronous upload against its cache (`handle_upload`) or a whole
synchronous round against the round's own outputs (`answer_round`),
stamping each cell it caches with its count of uploads answered.  The
delay model holds each party's mean compute time.

Frame layout (little endian): 4-byte length of the remainder, 1-byte variant
tag (0 = Upload, 1 = Reply), 4-byte party, 4-byte sample, 4-byte seq, 2-byte
vector length, then 64-bit floats (Upload carries two vectors of that
length, c followed by c_hat; Reply carries the pair h, h_bar).
"""

from __future__ import annotations

import itertools
import json
import operator
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import DecodeError, DomainError, ParseError, ProtocolError, ShapeError
from .estimator import (client_block_zoe, head_direction, reject_nonfinite, sample_direction,
                        two_point_client, two_point_head)
from .models import GlobalModel, LocalModel, local_forward, party_columns

_HEAD = struct.Struct("<IBiiiH")
HEADER_BYTES = _HEAD.size  # 19
UPLOAD_TAG = 0
REPLY_TAG = 1
MAX_VECTOR = 0xFFFF  # the header's 2-byte vector length
INT32_MIN, INT32_MAX = -2**31, 2**31 - 1  # the header's 4-byte party, sample, seq

COMPUTE_DISTS = ("constant", "exponential")
LATENCY_DISTS = ("constant", "uniform")


@dataclass(slots=True)
class Upload:
    party: int
    sample: int
    c: np.ndarray
    c_hat: np.ndarray
    seq: int


@dataclass(slots=True)
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


# The JSONL keys, in the order every line writes them.
_KEYS = ("time", "dir", "variant", "party", "sample", "seq", "payload", "bytes")
_INTS = ("party", "sample", "seq", "nbytes")  # int64 columns, kept four to a row
_READ_CHUNK = 1 << 15  # characters of lines per json.loads call; see from_jsonl
_WRITE_ROWS = 1024      # rows per formatted block in to_jsonl
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values) -> list[str]:
    """float64 values as json.dumps writes them: float.__repr__ when
    finite, NaN, Infinity or -Infinity otherwise."""
    text = list(map(float.__repr__, values))
    return list(map(_NON_FINITE.get, text, text))


class Transcript:
    """Append-only record of everything that crossed the wire, kept as columns.

    One row per message: time (float64), direction and variant (str), party,
    sample, seq and nbytes (int64, the four of a row side by side in one
    buffer), and the payload, whose values sit in one flat float64 buffer at
    values[offsets[i]:offsets[i + 1]].  No object is kept per message, and
    `column` is the only way to read the rows back: it hands out copies of
    whole columns.
    """

    def __init__(self) -> None:
        self._time = array("d")
        self._direction: list[str] = []
        self._variant: list[str] = []
        self._ints = array("q")
        self._values = array("d")
        self._offsets = array("q", [0])
        self._bytes = {"up": 0, "down": 0}

    def __len__(self) -> int:
        return len(self._direction)

    def column(self, name: str) -> np.ndarray:
        """A copy of one column: float64 for time and values, int64 for party,
        sample, seq, nbytes and offsets (n + 1 of them), an object array of
        str for direction and variant."""
        if name in _INTS:
            return np.array(self._ints[_INTS.index(name)::4])
        col = getattr(self, "_" + name)
        return np.array(col, dtype=object if isinstance(col, list) else None)

    def _append(self, time, direction, variant, party, sample, seq, values: list) -> None:
        nbytes = frame_bytes(len(values))
        try:
            # fromlist adds the whole list or, when an item does not fit, nothing
            self._ints.fromlist([party, sample, seq, nbytes])
            self._time.append(time)
            self._values.fromlist(values)
            self._bytes[direction] += nbytes
        except Exception:
            # a value a column cannot hold, or an unknown direction: drop the partial row
            n = len(self._direction)
            del self._ints[4 * n:], self._time[n:], self._values[self._offsets[n]:]
            raise
        self._direction.append(direction)
        self._variant.append(variant)
        self._offsets.append(len(self._values))

    def record(self, time: float, direction: str, msg) -> None:
        """Log one message with the size of its frame, which `frame_bytes`
        gives without encoding it."""
        if isinstance(msg, Upload):
            c, c_hat = msg.c.tolist(), msg.c_hat.tolist()
            if len(c) != len(c_hat):
                raise ShapeError("upload vectors c and c_hat must have equal length")
            self._append(time, direction, "upload", msg.party, msg.sample, msg.seq, c + c_hat)
        elif isinstance(msg, Reply):
            self._append(time, direction, "reply", msg.party, msg.sample, msg.seq,
                         [msg.h, msg.h_bar])
        else:
            raise DomainError(f"cannot record {type(msg).__name__}")

    def record_raw(self, time, direction, variant, party, sample, seq, payload) -> None:
        """Log baseline traffic: the payload is flattened to float64."""
        values = np.asarray(payload, dtype=np.float64).reshape(-1).tolist()
        self._append(time, direction, variant, party, sample, seq, values)

    def total_bytes(self, direction: str) -> int:
        return self._bytes[direction]

    def to_jsonl(self, path) -> None:
        """One JSON object per message, formatted straight from the columns.

        Each line is laid out exactly as json.dumps lays out the object with
        the keys time, dir, variant, party, sample, seq, payload and bytes:
        the ": " and ", " separators, strings escaped by json.dumps, numbers
        as `_json_numbers` writes them.  Rows are formatted and written in
        blocks of _WRITE_ROWS, which bounds the text held at once.
        """
        quoted = {s: json.dumps(s) for s in {*self._direction, *self._variant}}
        offsets = self._offsets
        with open(path, "w") as fh:
            for r0 in range(0, len(self), _WRITE_ROWS):
                r1 = min(r0 + _WRITE_ROWS, len(self))
                base = offsets[r0]
                vals = _json_numbers(self._values[base:offsets[r1]])
                ints = self._ints[4 * r0:4 * r1]
                lines = [
                    f'{{"time": {t}, "dir": {quoted[d]}, "variant": {quoted[v]}, '
                    f'"party": {p}, "sample": {s}, "seq": {q}, '
                    f'"payload": [{", ".join(vals[a - base:b - base])}], "bytes": {nb}}}\n'
                    for t, d, v, p, s, q, a, b, nb in zip(
                        _json_numbers(self._time[r0:r1]), self._direction[r0:r1],
                        self._variant[r0:r1], ints[0::4], ints[1::4], ints[2::4],
                        offsets[r0:r1], offsets[r0 + 1:r1 + 1], ints[3::4])
                ]
                fh.write("".join(lines))

    @classmethod
    def from_jsonl(cls, path) -> "Transcript":
        """Read a transcript back, one json.loads call per chunk of about
        _READ_CHUNK characters of lines, so no whole-file list of objects is
        ever held.

        The chunk is 32 KiB because a chunk's objects then die young: its
        at most ~300 rows (a dict and a payload list each) stay below the
        700 new objects that start a gen-0 garbage collection.  Reading the
        9.4 MB, 73,536-line q=128 transcript of `perfbench`'s wide_async ran
        no collection at 32 KiB, against 112 gen-0 collections at 64 KiB and
        186 at 1 MiB, and took a median 0.265 s, against 0.277 s and 0.334 s
        (12 interleaved reads each in one process, 2 CPUs, Python 3.11).

        Every line must be an object with exactly the eight keys `to_jsonl`
        writes: dir "up" or "down", variant a string, time a number, party,
        sample, seq and bytes integers, payload a flat list of numbers.
        Raises ParseError("<path>:<line>: ...") for the first line that is not.
        """
        t = cls()
        first = 1
        with open(path, encoding="utf-8") as fh:
            while True:
                try:
                    lines = fh.readlines(_READ_CHUNK)
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
                if not lines:
                    return t
                if not lines[-1].endswith("\n"):
                    lines[-1] += "\n"
                t._extend(*_parse_chunk(path, lines, first))
                first += len(lines)

    def _extend(self, time, dirs, variants, ints, sizes, values) -> None:
        nbytes = ints[3::4]
        up = sum(itertools.compress(nbytes, map("up".__eq__, dirs)))
        self._bytes["up"] += up
        self._bytes["down"] += sum(nbytes) - up
        self._time.extend(time)
        self._direction.extend(dirs)
        self._variant.extend(variants)
        self._ints.extend(ints)
        ends = itertools.accumulate(sizes, initial=self._offsets[-1])
        next(ends)  # the current end is already there
        self._offsets.extend(ends)
        self._values.extend(values)


def _parse_chunk(path, lines: list[str], first: int):
    """Columns of one chunk of JSONL lines, `first` the number of its first line.

    One json.loads call parses the chunk as a JSON array.  Lines and objects
    line up when there are as many objects as lines and every line ends in
    "}" (a JSON string cannot hold a raw newline, and no object nests
    another).  When they do not, or a row breaks a rule, each line is parsed
    on its own to name the first bad one.
    """
    body = ",".join(lines)
    try:
        objs = json.loads(f"[{body}]")
        if len(objs) == len(lines) and body.count("}\n") == len(lines):
            return _columns(objs)
    except (ValueError, RecursionError):
        pass
    objs = []
    for number, line in enumerate(lines, first):
        try:
            obj = json.loads(line)
            _columns([obj])
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}:{number}: {exc}") from None
        objs.append(obj)
    return _columns(objs)


def _only(col, types: set) -> bool:
    return set(map(type, col)) <= types


def _columns(objs: list):
    """Transcript columns of parsed JSONL objects; raises ParseError for the
    first rule some object breaks."""
    if not _only(objs, {dict}) or not set(map(len, objs)) <= {len(_KEYS)}:
        raise ParseError(f"not an object with exactly the keys {', '.join(_KEYS)}")
    try:
        time, dirs, variants, party, sample, seq, payload, nbytes = (
            list(map(operator.itemgetter(key), objs)) for key in _KEYS)
    except KeyError as exc:
        raise ParseError(f"missing key {exc}") from None
    if not _only(dirs, {str}) or not set(dirs) <= {"up", "down"}:
        raise ParseError('"dir" is not "up" or "down"')
    if not _only(variants, {str}):
        raise ParseError('"variant" is not a string')
    if not _only(time, {int, float}):
        raise ParseError('"time" is not a number')
    ints = [0] * (4 * len(objs))
    for k, (key, col) in enumerate((("party", party), ("sample", sample), ("seq", seq),
                                    ("bytes", nbytes))):
        if not _only(col, {int}):
            raise ParseError(f'"{key}" is not an integer')
        ints[k::4] = col
    if not _only(payload, {list}):
        raise ParseError('"payload" is not a list')
    values = list(itertools.chain.from_iterable(payload))
    if not _only(values, {int, float}):
        raise ParseError('"payload" is not a flat list of numbers')
    try:
        return (array("d", time), dirs, variants, array("q", ints), list(map(len, payload)),
                array("d", values))
    except OverflowError as exc:
        raise ParseError(f"a number is out of range ({exc})") from None


class ServerCache:
    """Latest local output per (sample, party) with receipt stamps.

    The outputs live in one contiguous (n, q*k) float64 matrix `values`, k
    the head's party_output_dim: party m's output for sample i sits at
    values[i, party_columns(m, k)], so row i is the head's flat input.
    stamp[i, m-1] is the server's upload count when it last wrote the cell,
    0 after the warm-up and -1 while it is not warmed; `cold` counts the
    cells at -1.
    """

    def __init__(self, n: int, q: int, k: int = 1) -> None:
        self.n = n
        self.q = q
        self.k = k
        self.values = np.zeros((n, q * k))
        self.stamp = -np.ones((n, q), dtype=np.int64)
        self.cold = n * q

    def cols(self, sample: int, party: int) -> slice:
        """Party's columns of the flat row; rejects an unknown sample or party."""
        if not 0 <= sample < self.n:
            raise ProtocolError(f"unknown sample id {sample}")
        if not 1 <= party <= self.q:
            raise ProtocolError(f"unknown party id {party}")
        return party_columns(party, self.k)

    def _check_width(self, party: int, width: int) -> None:
        if width != self.k:
            raise ProtocolError(f"party {party} output has {width} values, the head takes {self.k}")

    def put(self, sample: int, party: int, c: np.ndarray, stamp: int) -> None:
        cols = self.cols(sample, party)
        c = np.asarray(c)
        self._check_width(party, c.size)
        old = self.stamp[sample, party - 1]
        if stamp < old:
            raise ProtocolError(f"cache stamp would decrease for sample {sample}, party {party}")
        self.values[sample, cols] = c
        self.stamp[sample, party - 1] = stamp
        if old < 0 <= stamp:
            self.cold -= 1

    def put_party(self, party: int, outputs: np.ndarray, stamp: int) -> None:
        """`put` for every sample at once: row i of the (n, k) `outputs` is
        party's output for sample i, and every cell gets `stamp`."""
        if not 1 <= party <= self.q:
            raise ProtocolError(f"unknown party id {party}")
        self._check_width(party, outputs.shape[1])
        stamps = self.stamp[:, party - 1]
        down = np.flatnonzero(stamps > stamp)
        if down.size:
            raise ProtocolError(f"cache stamp would decrease for sample {down[0]}, party {party}")
        if stamp >= 0:
            self.cold -= int(np.count_nonzero(stamps < 0))
        self.values[:, party_columns(party, self.k)] = outputs
        stamps[:] = stamp

    def row(self, sample: int) -> np.ndarray:
        """A copy of row `sample`: the flat head input of q*k values."""
        if not 0 <= sample < self.n:
            raise ProtocolError(f"unknown sample id {sample}")
        if self.cold and self.stamp[sample].min() < 0:
            party = int(np.argmax(self.stamp[sample] < 0)) + 1
            raise ProtocolError(f"cache cell ({sample}, {party}) not warmed")
        return self.values[sample].copy()


@dataclass
class DelayModel:
    """Compute-time and latency model for the simulated protocol; both are
    drawn from the counter-based streams so timings replay exactly.  The
    model owns its run's seed, the COMPUTE and LATENCY streams built from it
    and the mean compute time of each party, and addresses a draw by
    (party, step)."""

    seed: int
    means: list[float]            # mean compute time of party m at means[m - 1]
    compute: str = "constant"     # one of COMPUTE_DISTS
    latency: float = 0.0          # mean one-way latency, virtual units
    latency_dist: str = "constant"  # one of LATENCY_DISTS

    def __post_init__(self) -> None:
        if self.compute not in COMPUTE_DISTS:
            raise DomainError(f"unknown compute-time model {self.compute!r}")
        if self.latency_dist not in LATENCY_DISTS:
            raise DomainError(f"unknown latency model {self.latency_dist!r}")
        self._compute = streams.Stream(self.seed, streams.COMPUTE)
        self._latency = streams.Stream(self.seed, streams.LATENCY)

    def compute_time(self, party: int, step: int) -> float:
        mean = self.means[party - 1]
        if self.compute == "constant":
            return mean
        return float(self._compute.at(party, step).exponential(mean))

    def latency_time(self, party: int, step: int) -> float:
        if self.latency <= 0:
            return 0.0
        if self.latency_dist == "constant":
            return self.latency
        return float(self._latency.at(party, step).uniform(0.0, 2.0 * self.latency))


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
    its first entry is the oldest message.  `pending` keeps the delivered
    messages in the order delivered, so its first entry is the earliest
    delivery; the caller's event heap decides that order.
    """

    def __init__(self, tau: int) -> None:
        self.tau = tau
        self.sends: dict[int, int] = {}        # serial -> send_count, unprocessed, serial order
        self.pending: dict[int, object] = {}   # serial -> msg, delivered, unprocessed, in order
        self._last: tuple[int, int] | None = None  # serial and send count of the latest send

    def send(self, serial: int, send_count: int) -> None:
        if self._last is not None:
            last_serial, last_count = self._last
            if serial <= last_serial:
                raise ProtocolError(f"serial {serial} does not follow serial {last_serial}")
            if send_count < last_count:
                raise ProtocolError(f"send count {send_count} is below the previous {last_count}")
        self._last = (serial, send_count)
        self.sends[serial] = send_count

    def deliver(self, serial: int, msg) -> None:
        if serial not in self.sends or serial in self.pending:
            raise ProtocolError(f"delivery of serial {serial}, which is not in flight")
        self.pending[serial] = msg

    def _deadline_pressure(self, processed_count: int) -> bool:
        # Slot i of the oldest-first order is the earliest count at which the
        # i-th unprocessed message could run.  Pressure when some slot would
        # pass a deadline, i.e. processed_count + i >= send_count_i + tau.
        # Counts never decrease: no slot is late while count_0 - (depth - 1) > limit.
        limit = processed_count - self.tau
        counts = self.sends.values()
        if not counts or next(iter(counts)) - len(counts) >= limit:
            return False
        return any(s - i <= limit for i, s in enumerate(counts))

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
            serial = next(iter(self.pending))
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

    def start_step(self, sample: int | None = None) -> Upload:
        """Sample an index, perturb, and build the upload (one outstanding).

        An explicit sample overrides the index stream; directions always come
        from the party's own direction stream at its activation count.
        """
        if self.pending is not None:
            raise ProtocolError(f"party {self.id} already has an outstanding upload")
        k = self.steps
        i = int(self.samples.at(self.id, k).integers(self.X.shape[0]) if sample is None else sample)
        u = sample_direction(self.scheme, self.w.size, self.directions.at(self.id, k))
        c, c_hat, g0, g1 = two_point_client(self.model, self.w, self.X[i], u, self.mu)
        self.pending = (i, u, g0, g1)
        return Upload(self.id, i, c, c_hat, k)

    def warm_upload(self, sample: int) -> Upload:
        c = local_forward(self.model, self.w, self.X[sample])
        return Upload(self.id, sample, c, c, -1)

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
        v_hat = client_block_zoe(reply.h, reply.h_bar, g0, g1, self.mu, self.lam_eff, u)
        reject_nonfinite(v_hat, self.id, self.steps)
        self.w = self.w - self.eta * v_hat
        self.pending = None
        self.steps += 1
        return v_hat


class ServerNode:
    """Label holder: evaluates the head against cached party outputs."""

    def __init__(self, global_model: GlobalModel, w0, labels, n, q, *,
                 mu, eta0, scheme, seed):
        self.model = global_model
        self.w0 = np.asarray(w0, dtype=np.float64)
        self.labels = labels
        self.cache = ServerCache(n, q, global_model.party_output_dim)
        self.mu = mu
        self.eta0 = eta0
        self.scheme = scheme
        self.directions = streams.Stream(seed, streams.SERVER_DIRECTION)
        self.uploads_seen = 0
        self.last_v0: np.ndarray | None = None

    def handle_upload(self, upload: Upload) -> Reply:
        """Head values from the pre-update cache, reply, then cache overwrite."""
        reply, v0 = self._step(upload, self.w0)
        if v0 is not None:
            self.w0 = self.w0 - self.eta0 * v0
        self.last_v0 = v0
        return reply

    def answer_round(self, uploads: list[Upload]) -> list[Reply]:
        """One synchronous round, one upload per party in party order: each is
        answered at the round's w0 against the round's own outputs (staleness
        zero), party m's cell stamped with the count of uploads answered
        through m, then the head estimates are summed in party order and
        applied once.  A round that is not parties 1..q in order, or holds
        an output of the wrong width, is rejected before anything changes."""
        parties = [up.party for up in uploads]
        if parties != list(range(1, self.cache.q + 1)):
            raise ProtocolError(f"a synchronous round needs one upload from each of parties "
                                f"1..{self.cache.q} in order, got {parties}")
        for up in uploads:
            self._check_width(up)
        w0, fresh = self.w0, np.concatenate([up.c for up in uploads])
        steps = [self._step(up, w0, fresh) for up in uploads]
        v0s = [v0 for _, v0 in steps if v0 is not None]
        self.last_v0 = sum(v0s[1:], v0s[0]) if v0s else None
        if v0s:
            self.w0 = w0 - self.eta0 * self.last_v0
        return [reply for reply, _ in steps]

    def _check_width(self, upload: Upload) -> None:
        k = self.cache.k
        if np.size(upload.c) != k or np.size(upload.c_hat) != k:
            raise ProtocolError(
                f"party {upload.party} sent outputs of {np.size(upload.c)} and "
                f"{np.size(upload.c_hat)} values, the head takes {k}"
            )

    def _step(self, upload: Upload, w0: np.ndarray, fresh=None):
        """Two-point step at head parameters w0 against the cached outputs,
        or the flat row `fresh` when given; rejects an unknown sample or
        party, outputs that are not k values wide and a non-finite head
        estimate, counts the upload and caches its output stamped with the
        count."""
        i, m = upload.sample, upload.party
        cache = self.cache
        cols = cache.cols(i, m)
        self._check_width(upload)
        row = cache.row(i) if fresh is None else fresh.copy()
        row[cols] = upload.c
        u0 = head_direction(self.scheme, w0.size, self.directions, self.uploads_seen)
        h, h_bar, v0 = two_point_head(self.model, w0, row, m, upload.c_hat, self.labels[i],
                                      self.mu, u0)
        if v0 is not None:
            reject_nonfinite(v0, 0, self.uploads_seen)
        self.uploads_seen += 1
        cache.put(i, m, upload.c, stamp=self.uploads_seen)
        return Reply(m, i, h, h_bar, upload.seq), v0


def warmup_cache(parties: list[PartyNode], server: ServerNode,
                 transcript: Transcript) -> ServerCache:
    """Every party uploads its initial output for every sample.

    Each upload is logged in `transcript` at time 0, so it counts in the
    byte totals; then the party's n outputs fill its cells at once, stamped 0.
    """
    cache, record = server.cache, transcript.record
    for party in parties:
        outputs = []
        for i in range(cache.n):
            upload = party.warm_upload(i)
            record(0.0, "up", upload)
            outputs.append(upload.c)
        if outputs:
            cache.put_party(party.id, np.concatenate(outputs).reshape(cache.n, -1), stamp=0)
    return cache


@dataclass
class AuditReport:
    ok: bool
    checked: int
    violation_index: int | None = None
    reason: str | None = None


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

    An entry's vectors are the two halves of an upload (one empty vector
    when the upload is empty), the two scalars of a two-value reply, and
    otherwise its whole payload.  The check runs over the transcript's
    columns, every entry at once: the payload sizes come from the offsets.
    """
    blocked = {int(d) for d in dims}
    if d0 > 0:
        blocked.add(int(d0))
    # vector lengths are non-negative int64, so other dims can never match
    blocked = np.array([b for b in blocked if 0 <= b < 2**63], dtype=np.int64)
    variants = transcript.column("variant")
    upload = variants == "upload"
    reply = variants == "reply"
    size = np.diff(transcript.column("offsets"))
    two = (upload & (size > 0)) | (reply & (size == 2))
    first = np.where(upload, size // 2, np.where(two, 1, size))
    second = np.where(upload, size - size // 2, 1)  # read only where `two`

    def too_long(length):
        return length > max_output_dim

    def parameter_shaped(length):
        own = (upload & (length == max_output_dim)) | (reply & (length == 1))
        return np.isin(length, blocked) & ~own

    bad_first = too_long(first) | parameter_shaped(first)
    bad_second = two & (too_long(second) | parameter_shaped(second))
    hits = np.flatnonzero(bad_first | bad_second)
    vectors = 1 + two
    if not hits.size:
        return AuditReport(True, int(vectors.sum()))
    idx = int(hits[0])
    length = int(first[idx] if bad_first[idx] else second[idx])
    checked = int(vectors[:idx].sum()) + (1 if bad_first[idx] else 2)
    where = f"entry {idx} ({variants[idx]}, party {transcript.column('party')[idx]})"
    if length > max_output_dim:
        return AuditReport(False, checked, idx, f"{where}: payload vector length {length} "
                                                f"exceeds max local output dim {max_output_dim}")
    return AuditReport(False, checked, idx, f"{where}: payload vector length {length} "
                                            f"matches a parameter block dimension")
