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
from typing import TYPE_CHECKING

import numpy as np

from . import streams
from .errors import ConfigError, DomainError, ParseError, ProtocolError, ShapeError
from .estimator import (client_block_zoe, head_direction, reject_nonfinite, sample_direction,
                        two_point_client, two_point_head)
from .models import GlobalModel, LocalModel, local_forward, party_columns

if TYPE_CHECKING:
    from .engine import RunConfig

_HEAD = struct.Struct("<IBiiiH")
HEADER_BYTES = _HEAD.size  # 19
# Every (direction, variant) pair on the wire: the protocol's two, then the
# gradient-transmitting baseline's three.  A transcript row's kind code is its
# pair's position here, so the protocol's two codes are also their frame tags.
KINDS = (("up", "upload"), ("down", "reply"), ("up", "tig_output"), ("down", "tig_grad"),
         ("down", "tig_chain"))
UPLOAD_TAG, REPLY_TAG = 0, 1
_CODES = {kind: code for code, kind in enumerate(KINDS)}
_UP = tuple(direction == "up" for direction, _ in KINDS)  # by code
MAX_VECTOR = 0xFFFF  # the header's 2-byte vector length
INT32_MIN, INT32_MAX = -2**31, 2**31 - 1  # the header's 4-byte party, sample, seq


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


def frame_bytes(n_floats):
    """Size of a frame carrying n_floats payload values (elementwise on an int array)."""
    return HEADER_BYTES + 8 * n_floats


def _check_header(party, sample, seq, c_size: int = 0, c_hat_size: int = 0) -> None:
    """Raise ShapeError unless a frame holds party, sample and seq (4 signed
    bytes each) and vectors c and c_hat of one length (2 bytes).  The fast
    path is one chained comparison: `Transcript.record` runs it on every row."""
    if (INT32_MIN <= party <= INT32_MAX and INT32_MIN <= sample <= INT32_MAX
            and INT32_MIN <= seq <= INT32_MAX and c_size == c_hat_size <= MAX_VECTOR):
        return
    for name, value in (("party", party), ("sample", sample), ("seq", seq)):
        if not INT32_MIN <= value <= INT32_MAX:
            raise ShapeError(f"{name} {value} does not fit the frame's 4-byte field")
    if c_size != c_hat_size:
        raise ShapeError("upload vectors c and c_hat must have equal length")
    raise ShapeError(f"upload vector length {c_size} exceeds the frame limit {MAX_VECTOR}")


def encode_message(msg) -> bytes:
    """Encode one message as a length-prefixed binary frame: the row that
    `Transcript.record` makes of it, framed, so a message no frame holds
    raises record's error."""
    row = Transcript()
    row.record(0.0, msg)
    tag, values = row._codes[0], np.asarray(row._values, dtype="<f8")
    veclen = values.size // 2 if tag == UPLOAD_TAG else 2
    return _HEAD.pack(frame_bytes(values.size) - 4, tag, *row._ints, veclen) + values.tobytes()


# The JSONL keys, in the order every line writes them.
_KEYS = ("time", "dir", "variant", "party", "sample", "seq", "payload", "bytes")
_INTS = ("party", "sample", "seq")  # int64 columns, kept three to a row
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

    One row per message: time (float64), kind (one byte, the position of its
    (direction, variant) pair in KINDS), party, sample and seq (int64, the
    three of a row side by side in one buffer), and the payload, its values
    in one flat float64 buffer at values[offsets[i]:offsets[i + 1]]; nbytes is
    their frame_bytes.  No object is kept per message; rows read back as `column` copies.
    """

    def __init__(self) -> None:
        self._time = array("d")
        self._codes = array("B")  # each row's kind
        self._ints = array("q")
        self._values = array("d")
        self._offsets = array("q", [0])
        self._bytes = {"up": 0, "down": 0}

    def __len__(self) -> int:
        return len(self._codes)

    def column(self, name: str) -> np.ndarray:
        """A copy of one column: float64 for time and values, int64 for party,
        sample, seq, nbytes and offsets (n + 1 of them), an object array of
        str for direction and variant; any other name raises KeyError."""
        if name in _INTS:
            return np.array(self._ints[_INTS.index(name)::3])
        if name == "nbytes":
            return frame_bytes(np.diff(np.array(self._offsets)))
        if name in ("direction", "variant"):
            table = np.array([kind[name == "variant"] for kind in KINDS], dtype=object)
            return table[np.array(self._codes)]
        stored = {"time": self._time, "values": self._values, "offsets": self._offsets}
        return np.array(stored[name])

    def _append(self, time, code, party, sample, seq, values: list) -> None:
        try:
            # fromlist adds the whole list or, when an item does not fit, nothing
            self._ints.fromlist([party, sample, seq])
            self._time.append(time)
            self._values.fromlist(values)
        except Exception:
            # a value a column cannot hold: drop the partial row
            n = len(self._codes)
            del self._ints[3 * n:], self._time[n:], self._values[self._offsets[n]:]
            raise
        self._codes.append(code)
        self._offsets.append(len(self._values))
        self._bytes[KINDS[code][0]] += frame_bytes(len(values))

    def record(self, time: float, msg) -> None:
        """Log an Upload up or a Reply down with its frame size, which `frame_bytes`
        gives without encoding it; a message no frame holds raises ShapeError, adding no row."""
        if isinstance(msg, Upload):
            code, c, c_hat = UPLOAD_TAG, msg.c.tolist(), msg.c_hat.tolist()
        elif isinstance(msg, Reply):
            code, c, c_hat = REPLY_TAG, [msg.h], [msg.h_bar]
        else:
            raise DomainError(f"cannot record {type(msg).__name__}")
        _check_header(msg.party, msg.sample, msg.seq, len(c), len(c_hat))
        self._append(time, code, msg.party, msg.sample, msg.seq, c + c_hat)

    def record_raw(self, time, direction, variant, party, sample, seq, payload) -> None:
        """Log baseline traffic, the payload flattened to float64; a (direction,
        variant) pair outside KINDS raises DomainError, adding no row."""
        values = np.asarray(payload, dtype=np.float64).reshape(-1).tolist()
        try:
            code = _CODES[direction, variant]
        except (KeyError, TypeError):  # TypeError: an unhashable direction or variant
            raise DomainError(f"({direction!r}, {variant!r}) is not a message kind") from None
        self._append(time, code, party, sample, seq, values)

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
        kinds = [f'"dir": {json.dumps(d)}, "variant": {json.dumps(v)}' for d, v in KINDS]
        offsets = self._offsets
        with open(path, "w") as fh:
            for r0 in range(0, len(self), _WRITE_ROWS):
                r1 = min(r0 + _WRITE_ROWS, len(self))
                base = offsets[r0]
                vals = _json_numbers(self._values[base:offsets[r1]])
                ints = self._ints[3 * r0:3 * r1]
                lines = [
                    f'{{"time": {t}, {kinds[k]}, "party": {p}, "sample": {s}, "seq": {q}, '
                    f'"payload": [{", ".join(vals[a - base:b - base])}], '
                    f'"bytes": {frame_bytes(b - a)}}}\n'
                    for t, k, p, s, q, a, b in zip(
                        _json_numbers(self._time[r0:r1]), self._codes[r0:r1], ints[0::3],
                        ints[1::3], ints[2::3], offsets[r0:r1], offsets[r0 + 1:r1 + 1])
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
        writes: dir and variant a pair of KINDS, time a number, party,
        sample, seq and bytes integers, payload a flat list of numbers, and
        bytes the `frame_bytes` of the payload.
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
                t.extend(*_parse_chunk(path, lines, first))
                first += len(lines)

    def extend(self, time, codes, ints, sizes, nbytes, values) -> None:
        """Append rows in bulk from checked columns: times, kind codes, party,
        sample and seq three to a row, payload sizes, their frame_bytes, and
        the payload values back to back.  Typed columns (array "d" and "q")
        cannot fail half-way."""
        up = sum(itertools.compress(nbytes, map(_UP.__getitem__, codes)))
        self._bytes["up"] += up
        self._bytes["down"] += sum(nbytes) - up
        self._time.extend(time)
        self._codes.fromlist(codes)
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
    try:  # zip reuses its tuple once a lookup drops it, so no object is made per row
        codes = list(map(_CODES.__getitem__, zip(dirs, variants)))
    except (KeyError, TypeError):  # TypeError: an unhashable dir or variant
        raise ParseError('"dir" and "variant" are not a message kind') from None
    if not _only(time, {int, float}):
        raise ParseError('"time" is not a number')
    for key, col in (("party", party), ("sample", sample), ("seq", seq), ("bytes", nbytes)):
        if not _only(col, {int}):
            raise ParseError(f'"{key}" is not an integer')
    ints = [0] * (3 * len(objs))
    ints[0::3], ints[1::3], ints[2::3] = party, sample, seq
    if not _only(payload, {list}):
        raise ParseError('"payload" is not a list')
    values = list(itertools.chain.from_iterable(payload))
    if not _only(values, {int, float}):
        raise ParseError('"payload" is not a flat list of numbers')
    sizes = list(map(len, payload))
    if nbytes != list(map(frame_bytes, sizes)):
        raise ParseError('"bytes" is not the frame size of the payload')
    try:
        return array("d", time), codes, array("q", ints), sizes, nbytes, array("d", values)
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

    def _check_sample(self, sample: int) -> None:
        if not 0 <= sample < self.n:
            raise ProtocolError(f"unknown sample id {sample}")

    def _check_party(self, party: int) -> None:
        if not 1 <= party <= self.q:
            raise ProtocolError(f"unknown party id {party}")

    def cols(self, sample: int, party: int, *widths: int) -> slice:
        """Party's columns of the flat row; rejects an unknown sample or party,
        then any of the output `widths` that is not k."""
        self._check_sample(sample)
        self._check_party(party)
        self.check_width(party, *widths)
        return party_columns(party, self.k)

    def check_width(self, party: int, *widths: int) -> None:
        """Every output party sends is k values wide, the head's input per party."""
        for width in widths:
            if width != self.k:
                raise ProtocolError(f"party {party} output has {width} values, "
                                    f"the head takes {self.k}")

    def put(self, sample: int, party: int, c: np.ndarray, stamp: int) -> None:
        self.write(sample, party, self.cols(sample, party, np.size(c)), c, stamp)

    def write(self, sample: int, party: int, cols: slice, c: np.ndarray, stamp: int) -> None:
        """`put` of a cell already checked: only the stamp rule is left."""
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
        self._check_party(party)
        self.check_width(party, outputs.shape[1])
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
        self._check_sample(sample)
        self.check_warm(sample)
        return self.values[sample].copy()

    def check_warm(self, sample: int) -> None:
        """Every cell of a known sample's row holds an upload."""
        if self.cold and self.stamp[sample].min() < 0:
            party = int(np.argmax(self.stamp[sample] < 0)) + 1
            raise ProtocolError(f"cache cell ({sample}, {party}) not warmed")


class DelayModel:
    """Compute-time and latency model of a run, built from its checked
    RunConfig; both are drawn from the counter-based streams so timings
    replay exactly.  The model owns the COMPUTE and LATENCY streams of the
    config's seed and the mean compute time of each party, and addresses a
    draw by (party, step)."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.means = cfg.party_means()  # mean compute time of party m at means[m - 1]
        self._compute = streams.Stream(cfg.seed, streams.COMPUTE)
        self._latency = streams.Stream(cfg.seed, streams.LATENCY)

    def compute_time(self, party: int, step: int) -> float:
        mean = self.means[party - 1]
        if self.cfg.compute_dist == "constant":
            return mean
        return float(self._compute.at(party, step).exponential(mean))

    def latency_time(self, party: int, step: int) -> float:
        latency = self.cfg.latency
        if latency <= 0:
            return 0.0
        if self.cfg.latency_dist == "constant":
            return latency
        return self._latency.at(party, step).random() * (2.0 * latency)  # = uniform(0, 2 * latency)


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

    def __init__(self, party_id, X_block, local_model: LocalModel, w, cfg: RunConfig):
        self.id = party_id
        self.X = X_block
        self.model = local_model
        self.w = np.asarray(w, dtype=np.float64)
        self.mu = cfg.mu
        self.eta = cfg.eta
        self.lam_eff = cfg.lam_eff
        self.scheme = cfg.direction_scheme
        self.samples = streams.Stream(cfg.seed, streams.SAMPLE)
        self.directions = streams.Stream(cfg.seed, streams.DIRECTION)
        self.steps = 0          # activation counter, addresses the streams
        self.pending = None     # outstanding (sample, direction, g0, g1)

    def start_step(self, sample: int | None = None) -> Upload:
        """Sample an index, perturb, and build the upload (one outstanding).

        An explicit sample overrides the index stream; directions always come
        from the party's own direction stream at its activation count.
        """
        if self.pending is not None:
            raise ProtocolError(f"party {self.id} already has an outstanding upload")
        k, n = self.steps, len(self.X)
        i = streams.sample_index(self.samples, self.id, k, n) if sample is None else int(sample)
        u = sample_direction(self.scheme, self.w.size, self.directions.at(self.id, k))
        c, c_hat, g0, g1 = two_point_client(self.model, self.w, self.X[i], u, self.mu)
        self.pending = (i, u, g0, g1)
        return Upload(self.id, i, c, c_hat, k)

    def warm_upload(self, sample: int, c: np.ndarray) -> Upload:
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
    """Label holder: evaluates the head against cached party outputs, one
    cache row per label and the head's q parties, which must be the run's."""

    def __init__(self, global_model: GlobalModel, w0, labels, cfg: RunConfig):
        if cfg.q != global_model.q:
            raise ConfigError(f"parties disagree: counts (q, head) {(cfg.q, global_model.q)}")
        self.model = global_model
        self.w0 = np.asarray(w0, dtype=np.float64)
        self.labels = labels
        self.cache = ServerCache(len(labels), global_model.q, global_model.party_output_dim)
        self.mu = cfg.mu
        self.eta0 = cfg.eta0
        self.scheme = cfg.direction_scheme
        self.directions = streams.Stream(cfg.seed, streams.SERVER_DIRECTION)
        self.uploads_seen = 0
        self.last_v0: np.ndarray | None = None

    def handle_upload(self, upload: Upload) -> Reply:
        """Head values from the pre-update cache, reply, then cache overwrite;
        each rule on the upload is checked once, before anything changes."""
        i, cache = upload.sample, self.cache
        cols = cache.cols(i, upload.party, upload.c.size, upload.c_hat.size)
        cache.check_warm(i)
        reply, v0 = self._step(upload, cols, self.w0, cache.values[i].copy())
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
        an output of the wrong width or an unknown sample, is rejected before
        anything changes, with the first faulty upload's error."""
        parties = [up.party for up in uploads]
        if parties != list(range(1, self.cache.q + 1)):
            raise ProtocolError(f"a synchronous round needs one upload from each of parties "
                                f"1..{self.cache.q} in order, got {parties}")
        cols = [self.cache.cols(up.sample, up.party, up.c.size, up.c_hat.size) for up in uploads]
        w0, fresh = self.w0, np.concatenate([up.c for up in uploads])
        steps = [self._step(up, c, w0, fresh.copy()) for up, c in zip(uploads, cols)]
        v0s = [v0 for _, v0 in steps if v0 is not None]
        self.last_v0 = sum(v0s[1:], v0s[0]) if v0s else None
        if v0s:
            self.w0 = w0 - self.eta0 * self.last_v0
        return [reply for reply, _ in steps]

    def _step(self, upload: Upload, cols: slice, w0: np.ndarray, row: np.ndarray):
        """Two-point step of a checked upload at head parameters w0 on `row`,
        a flat head input the step may overwrite, party m's columns `cols`;
        rejects a non-finite head estimate, then caches the output stamped
        with the count of uploads answered and counts the upload."""
        i, m = upload.sample, upload.party
        row[cols] = upload.c
        u0 = head_direction(self.scheme, w0.size, self.directions, self.uploads_seen)
        h, h_bar, v0 = two_point_head(self.model, w0, row, m, upload.c_hat, self.labels[i],
                                      self.mu, u0)
        if v0 is not None:
            reject_nonfinite(v0, 0, self.uploads_seen)
        self.cache.write(i, m, cols, upload.c, stamp=self.uploads_seen + 1)
        self.uploads_seen += 1
        return Reply(m, i, h, h_bar, upload.seq), v0


def warmup_cache(parties: list[PartyNode], server: ServerNode,
                 transcript: Transcript) -> ServerCache:
    """Every party uploads its initial output for every sample.

    One forward pass per party; each output row is an upload logged in
    `transcript` at time 0, then the matrix fills its cells at once, stamped 0.
    """
    cache, record = server.cache, transcript.record
    for party in parties:
        outputs = local_forward(party.model, party.w, party.X)
        for upload in map(party.warm_upload, range(cache.n), outputs):
            record(0.0, upload)
        cache.put_party(party.id, outputs, stamp=0)
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
    # vector lengths are non-negative int64, so other dims can never match, a
    # bound of 2**63 or more bounds nothing and one below 0 bounds everything
    blocked = np.array([b for b in blocked if 0 <= b < 2**63], dtype=np.int64)
    bound = min(max(max_output_dim, -1), 2**63 - 1)
    code = np.array(transcript._codes)
    upload, reply = code == UPLOAD_TAG, code == REPLY_TAG
    size = np.diff(transcript.column("offsets"))
    two = (upload & (size > 0)) | (reply & (size == 2))
    # one row per payload vector: its entry, length and the entry's own length
    first = np.where(upload, size // 2, np.where(two, 1, size))
    length = np.stack([first, np.where(upload, size - first, 1)], axis=1)[
        np.stack([np.ones_like(two), two], axis=1)]
    entry = np.repeat(np.arange(size.size), 1 + two)
    own = np.where(upload, bound, np.where(reply, 1, -1))[entry]
    hits = np.flatnonzero((length > bound) | (np.isin(length, blocked) & (length != own)))
    if not hits.size:
        return AuditReport(True, length.size)
    checked = int(hits[0]) + 1
    idx, length = int(entry[checked - 1]), int(length[checked - 1])
    why = (f"exceeds max local output dim {max_output_dim}" if length > max_output_dim
           else "matches a parameter block dimension")
    return AuditReport(False, checked, idx, f"entry {idx} ({KINDS[code[idx]][1]}, party "
                       f"{transcript.column('party')[idx]}): payload vector length {length} {why}")
