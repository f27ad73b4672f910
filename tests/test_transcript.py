"""The columnar transcript against copies of the per-entry code it replaced:
the JSONL writer (one json.dumps per entry) and the audit loop over each
entry's vector lengths.  Both references take rows that `rows` rebuilds from
the transcript's columns.  With both kept here, any byte of output or field
of a report that moves is caught."""

import itertools
import json
import math
import re
import tracemalloc
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from revelight import fedproto
from revelight.cli import make_synthetic
from revelight.engine import RunConfig, run_algorithm
from revelight.errors import DomainError, ParseError, ShapeError
from revelight.fedproto import (
    KINDS,
    REPLY_TAG,
    UPLOAD_TAG,
    AuditReport,
    Reply,
    Transcript,
    Upload,
    audit_transcript,
    encode_message,
    frame_bytes,
)
from revelight.models import GlobalModel, LocalModel, PartitionedDataset


def rows(transcript) -> list:
    """One object per transcript row, rebuilt from `column` reads."""
    names = ("time", "direction", "variant", "party", "sample", "seq", "nbytes")
    cols = [transcript.column(name).tolist() for name in names]
    values, offsets = transcript.column("values"), transcript.column("offsets")
    return [SimpleNamespace(**dict(zip(names, fields)), payload=values[offsets[i]:offsets[i + 1]])
            for i, fields in enumerate(zip(*cols))]


def reference_to_jsonl(entries, path) -> None:
    """The writer the columns replaced, one json.dumps per entry."""
    with open(path, "w") as fh:
        for e in entries:
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


def reference_vector_lengths(entry) -> list[int]:
    """An entry's vector lengths as the per-entry audit computed them."""
    n = int(entry.payload.size)
    if entry.variant == "upload":
        return [n // 2, n - n // 2] if n else [0]
    if entry.variant == "reply" and n == 2:
        return [1, 1]
    return [n]


def reference_audit(transcript, dims, d0=0, max_output_dim=1) -> AuditReport:
    """The per-entry audit loop the columnar audit replaced."""
    blocked = {int(d) for d in dims}
    if d0 > 0:
        blocked.add(int(d0))
    legal = {"upload": max_output_dim, "reply": 1}
    checked = 0
    for idx, entry in enumerate(rows(transcript)):
        own = legal.get(entry.variant)
        for length in reference_vector_lengths(entry):
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


class _Entry:
    def __init__(self, time, direction, variant, party, sample, seq, payload):
        self.time, self.direction, self.variant = time, direction, variant
        self.party, self.sample, self.seq = party, sample, seq
        self.payload = payload
        self.nbytes = frame_bytes(payload.size)


special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1e22,
                           1.7976931348623157e308, math.nan, math.inf, -math.inf])
floats = st.one_of(st.floats(width=64), special)
ints = st.one_of(st.integers(-2**62, 2**62), st.sampled_from([-2**62, 2**62, -1, 0]))
# the frame's 4-byte party, sample and seq fields, which `record` applies
int32s = st.one_of(st.integers(-2**31, 2**31 - 1), st.sampled_from([-2**31, 2**31 - 1, -1, 0]))
vectors = st.lists(floats, max_size=4)


@st.composite
def messages(draw):
    """(how, args, reference entry): one record, reply or record_raw call.
    Ids of a recorded Upload or Reply fit the frame; baseline rows need not.
    `record` sends an Upload up and a Reply down; a `record_raw` row takes
    any (direction, variant) pair of KINDS."""
    how = draw(st.sampled_from(["upload", "reply", "raw"]))
    time = draw(floats)
    ids = int32s if how in ("upload", "reply") else ints
    party, sample, seq = draw(ids), draw(ids), draw(ids)
    if how == "upload":
        c = draw(vectors)
        c_hat = draw(st.lists(floats, min_size=len(c), max_size=len(c)))
        msg = Upload(party, sample, np.array(c, dtype=np.float64),
                     np.array(c_hat, dtype=np.float64), seq)
        payload = np.concatenate([msg.c, msg.c_hat])
        return "record", (time, msg), _Entry(time, "up", "upload", party, sample, seq, payload)
    if how == "reply":
        h, h_bar = draw(floats), draw(floats)
        msg = Reply(party, sample, h, h_bar, seq)
        return "record", (time, msg), _Entry(time, "down", "reply", party, sample, seq,
                                             np.array([h, h_bar]))
    direction, variant = draw(st.sampled_from(KINDS))
    payload = np.array(draw(st.lists(floats, max_size=5)), dtype=np.float64)
    return "record_raw", (time, direction, variant, party, sample, seq, payload), \
        _Entry(time, direction, variant, party, sample, seq, payload)


def _equal_entries(got, want) -> None:
    for a, b in zip(got, want, strict=True):
        assert (a.direction, a.variant, a.party, a.sample, a.seq, a.nbytes) == \
               (b.direction, b.variant, b.party, b.sample, b.seq, b.nbytes)
        assert np.array_equal(np.float64(a.time), np.float64(b.time), equal_nan=True)
        assert a.payload.dtype == np.float64
        assert np.array_equal(a.payload, b.payload, equal_nan=True)
        # -0.0 keeps its sign; JSON writes every NaN as NaN, so a NaN's sign is lost
        number = ~np.isnan(b.payload)
        assert np.array_equal(np.signbit(a.payload[number]), np.signbit(b.payload[number]))


class TestJsonlBytes:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(messages(), max_size=12))
    def test_writer_matches_json_dumps_and_reads_back(self, tmp_path, calls):
        transcript = Transcript()
        for how, args, _ in calls:
            getattr(transcript, how)(*args)
        want = [entry for _, _, entry in calls]
        ours, ref, again = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl", tmp_path / "again.jsonl"
        transcript.to_jsonl(ours)
        reference_to_jsonl(want, ref)
        assert ours.read_bytes() == ref.read_bytes()

        back = Transcript.from_jsonl(ours)
        _equal_entries(rows(back), want)
        assert back.total_bytes("up") == transcript.total_bytes("up")
        assert back.total_bytes("down") == transcript.total_bytes("down")
        back.to_jsonl(again)
        assert again.read_bytes() == ref.read_bytes()

    def test_protocol_run_round_trips_bit_for_bit(self, tmp_path):
        X, y = make_synthetic("noisy", 64, 8, seed=2)
        data = PartitionedDataset.from_matrix(X, y, [2, 2, 2, 2])
        cfg = RunConfig(algorithm="asyrevel_gau", q=4, T=200, tau=3, latency=0.6,
                        latency_dist="uniform", seed=2)
        transcript = run_algorithm(cfg, data, LocalModel(),
                                   GlobalModel(kind="logistic", q=4)).transcript
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        transcript.to_jsonl(first)
        reference_to_jsonl(rows(transcript), second)
        assert first.read_bytes() == second.read_bytes()
        back = Transcript.from_jsonl(first)
        back.to_jsonl(second)
        assert first.read_bytes() == second.read_bytes()
        assert len(back) == len(transcript) == 64 * 4 + 2 * 200
        _equal_entries(rows(back), rows(transcript))

    def test_integer_time_is_written_as_float(self, tmp_path):
        transcript = Transcript()
        transcript.record_raw(5, "up", "tig_output", 1, 0, 0, [1.0])
        transcript.to_jsonl(tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_text().startswith('{"time": 5.0, ')


class TestRecord:
    def test_rejected_row_leaves_no_trace(self):
        transcript = Transcript()
        transcript.record_raw(0.0, "up", "tig_output", 1, 0, 0, [1.0, 2.0])
        with pytest.raises(DomainError):
            transcript.record_raw(0.0, "sideways", "tig_output", 1, 0, 0, [3.0])
        with pytest.raises(TypeError):
            transcript.record(0.0, Upload(1.5, 0, np.zeros(1), np.zeros(1), 0))
        with pytest.raises(OverflowError):
            transcript.record_raw(0.0, "down", "tig_grad", 2**63, 0, 0, [3.0])
        transcript.record(1.0, Reply(1, 0, 0.5, 0.25, 0))
        assert len(transcript) == 2
        assert [e.payload.tolist() for e in rows(transcript)] == [[1.0, 2.0], [0.5, 0.25]]
        assert transcript.column("offsets").tolist() == [0, 2, 4]
        assert transcript.total_bytes("up") == transcript.total_bytes("down") == frame_bytes(2)


# every column but values and offsets (one more than the rows), and its dtype
COLUMNS = {"time": np.float64, "direction": object, "variant": object, "party": np.int64,
           "sample": np.int64, "seq": np.int64, "nbytes": np.int64}


class TestRowLayout:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(messages(), max_size=12))
    def test_every_column_matches_the_entries(self, tmp_path, calls):
        transcript = Transcript()
        for how, args, _ in calls:
            getattr(transcript, how)(*args)
        want = [entry for _, _, entry in calls]
        transcript.to_jsonl(tmp_path / "t.jsonl")
        for got in (transcript, Transcript.from_jsonl(tmp_path / "t.jsonl")):
            for name, dtype in COLUMNS.items():
                assert got.column(name).dtype == dtype and got.column(name).shape == (len(want),)
            assert got.column("offsets").tolist() == \
                list(itertools.accumulate((e.payload.size for e in want), initial=0))
            _equal_entries(rows(got), want)
            for direction in ("up", "down"):
                assert got.total_bytes(direction) == \
                    sum(e.nbytes for e in want if e.direction == direction)

    def test_rejected_row_leaves_no_row_and_no_kind(self):
        """A pair outside KINDS, unhashable ones too, is one DomainError naming it."""
        transcript = Transcript()
        transcript.record_raw(0.0, "up", "tig_output", 1, 0, 0, [1.0])
        for direction, variant in [("sideways", "tig_output"), ("down", "upload"), ("up", "reply"),
                                   ("up", "tig_grad"), ("down", "new"), ("up", 3),
                                   (["up"], "upload"), ("up", {"v": 1})]:
            with pytest.raises(DomainError) as err:
                transcript.record_raw(0.0, direction, variant, 1, 0, 0, [3.0])
            assert str(err.value) == f"({direction!r}, {variant!r}) is not a message kind"
        with pytest.raises(OverflowError):
            transcript.record_raw(0.0, "down", "tig_grad", 2**63, 0, 0, [3.0])
        assert len(transcript) == 1 and transcript.column("values").tolist() == [1.0]
        assert transcript.total_bytes("down") == 0
        transcript.record_raw(1.0, "down", "tig_chain", 2, 0, 0, [3.0])
        assert transcript.column("variant").tolist() == ["tig_output", "tig_chain"]
        assert transcript.column("direction").tolist() == ["up", "down"]
        assert transcript.total_bytes("down") == frame_bytes(1)
        for name in ("kind", "kinds", "bytes", "ints"):  # no internal buffer is a column
            with pytest.raises(KeyError):
                transcript.column(name)

    def test_extend_appends_what_record_raw_appends(self):
        """One bulk append after a recorded row gives the rows, offsets and
        byte totals that one record_raw call per row gives."""
        kinds = [KINDS.index(kind) for kind in KINDS[2:]] * 2
        sizes = [3, 0, 1, 2, 4, 1, 2, 3][:len(kinds)]
        ids = [[m + 1, 10 + m, -m] for m in range(len(kinds))]
        values = np.arange(sum(sizes), dtype=float) / 7
        ends = list(itertools.accumulate(sizes, initial=0))
        bulk, single = Transcript(), Transcript()
        for transcript in (bulk, single):
            transcript.record(0.5, Upload(1, 0, np.zeros(2), np.ones(2), 0))
        bulk.extend(array("d", [0.25 * m for m in range(len(kinds))]), kinds,
                    array("q", [v for row in ids for v in row]), sizes,
                    [frame_bytes(n) for n in sizes], array("d", values.tolist()))
        for m, code in enumerate(kinds):
            single.record_raw(0.25 * m, *KINDS[code], *ids[m], values[ends[m]:ends[m + 1]])
        assert len(bulk) == len(single) == 1 + len(kinds)
        assert bulk.column("offsets").tolist() == single.column("offsets").tolist()
        _equal_entries(rows(bulk), rows(single))
        for direction in ("up", "down"):
            assert bulk.total_bytes(direction) == single.total_bytes(direction)

    def test_kind_codes_are_positions_in_kinds_and_frame_tags(self):
        transcript = Transcript()
        upload, reply = Upload(1, 0, np.zeros(1), np.ones(1), 0), Reply(1, 0, 0.5, 0.25, 0)
        transcript.record(0.0, upload)
        transcript.record(0.0, reply)
        for direction, variant in KINDS[2:]:
            transcript.record_raw(0.0, direction, variant, 1, 0, 0, [1.0])
        assert transcript._codes.tolist() == list(range(len(KINDS)))
        assert list(zip(transcript.column("direction"), transcript.column("variant"))) == \
            list(KINDS)
        assert (encode_message(upload)[4], encode_message(reply)[4]) == (UPLOAD_TAG, REPLY_TAG)

    @staticmethod
    def _buffer_bytes(transcript) -> int:
        names = ("_time", "_codes", "_ints", "_offsets", "_values")
        return sum(b.itemsize * len(b) for b in [getattr(transcript, name) for name in names])

    def test_two_value_rows_take_57_bytes(self, tmp_path):
        """Time, party, sample, seq and end offset take 8 bytes each, the kind
        code 1 and the two values 16: 57 bytes a row (and the leading offset),
        pinned from the buffers' item sizes and lengths.  Traced memory adds
        the arrays' spare room, up to 1/16 of a buffer in CPython's array
        growth (60.6 B/row), so 64 B/row bounds it with room to spare."""
        n = 1 << 15
        tracemalloc.start()
        try:
            transcript = Transcript()
            for i in range(n):
                transcript.record(float(i), Reply(1, i, 0.5, 0.25, i))
            recorded = tracemalloc.get_traced_memory()[0] / n
            assert self._buffer_bytes(transcript) == 57 * n + 8
            transcript.to_jsonl(tmp_path / "t.jsonl")
            del transcript
            base = tracemalloc.get_traced_memory()[0]
            back = Transcript.from_jsonl(tmp_path / "t.jsonl")
            read = (tracemalloc.get_traced_memory()[0] - base) / n
        finally:
            tracemalloc.stop()
        assert len(back) == n and self._buffer_bytes(back) == 57 * n + 8
        assert recorded <= 64 and read <= 64, (recorded, read)


outside_int32 = st.one_of(st.integers(2**31, 2**80), st.integers(-2**80, -2**31 - 1))


@st.composite
def unframeable(draw):
    """An Upload or Reply with an id outside int32 or an upload vector longer
    than the 2-byte length field, the other ids inside int32."""
    fields = {name: draw(int32s) for name in ("party", "sample", "seq")}
    bad = draw(st.sampled_from(["party", "sample", "seq", "length"]))
    if bad == "length":
        c = np.zeros(draw(st.integers(0x10000, 70000)))
        return Upload(fields["party"], fields["sample"], c, c, fields["seq"])
    fields[bad] = draw(outside_int32)
    if draw(st.booleans()):
        return Reply(fields["party"], fields["sample"], 0.5, 0.25, fields["seq"])
    c = np.zeros(draw(st.integers(0, 3)))
    return Upload(fields["party"], fields["sample"], c, c, fields["seq"])


class TestRecordFrameLimits:
    @settings(max_examples=200, deadline=None)
    @given(unframeable())
    def test_refuses_what_the_codec_refuses(self, msg):
        transcript = Transcript()
        transcript.record(0.0, Upload(1, 0, np.ones(1), np.ones(1), 0))
        with pytest.raises(ShapeError) as codec:
            encode_message(msg)
        with pytest.raises(ShapeError) as recorded:
            transcript.record(1.0, msg)
        assert str(recorded.value) == str(codec.value)
        assert len(transcript) == 1 and transcript.column("offsets").tolist() == [0, 2]
        assert transcript.column("values").tolist() == [1.0, 1.0]
        assert transcript.total_bytes("up") == frame_bytes(2)
        assert transcript.total_bytes("down") == 0


class TestStrictReader:
    GOOD = ('{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
            '"seq": -1, "payload": [0.5, 0.5], "bytes": 35}\n')

    def _read(self, tmp_path, text):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        return Transcript.from_jsonl(path)

    @pytest.mark.parametrize("line", [
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": {"w": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]}, "bytes": 83}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": "[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]", "bytes": 83}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [[1.0, 2.0], [3.0, 4.0]], "bytes": 51}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [true, false], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, "seq": 9, "pay',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5]}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35, "extra": 1}',
        '{"time": 0.0, "dir": "left", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": 3, "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": "reply", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": ["up"], "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": {"v": 1}, "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": "0.0", "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1.0, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9223372036854775808, "payload": [0.5, 0.5], "bytes": 35}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5], "bytes": 123456789}',
        '{"time": 0.0, "dir": "up", "variant": "upload", "party": 1, "sample": 0, '
        '"seq": 9, "payload": [0.5, 0.5, 0.5, 0.5, 0.5], "bytes": 35}',
        '[1, 2, 3, 4, 5, 6, 7, 8]',
        '',
    ], ids=["object_payload", "string_payload", "nested_payload", "bool_payload",
            "truncated", "missing_key", "extra_key", "bad_dir", "variant_not_str",
            "unknown_kind", "unhashable_dir", "unhashable_variant", "time_not_number",
            "party_not_int", "seq_beyond_int64", "bytes_not_frame_size", "bytes_of_a_shorter_payload", "not_an_object", "blank_line"])
    def test_bad_line_is_named(self, tmp_path, line):
        with pytest.raises(ParseError, match=r"t\.jsonl:3: "):
            self._read(tmp_path, self.GOOD * 2 + line + "\n" + self.GOOD)

    def test_line_named_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fedproto, "_READ_CHUNK", 300)  # two or three lines per chunk
        with pytest.raises(ParseError, match=r"t\.jsonl:37: "):
            self._read(tmp_path, self.GOOD * 36 + self.GOOD.replace('"up"', '"in"') + self.GOOD)
        assert len(self._read(tmp_path, self.GOOD * 50)) == 50

    SIZES = (300, 4096, 1 << 16, 1 << 20)

    @pytest.fixture(scope="class")
    def protocol_jsonl(self, tmp_path_factory):
        X, y = make_synthetic("noisy", 64, 8, seed=3)
        data = PartitionedDataset.from_matrix(X, y, [2, 2, 2, 2])
        cfg = RunConfig(algorithm="asyrevel_gau", q=4, T=300, tau=3, latency=0.6,
                        latency_dist="uniform", seed=3)
        transcript = run_algorithm(cfg, data, LocalModel(),
                                   GlobalModel(kind="logistic", q=4)).transcript
        path = tmp_path_factory.mktemp("chunks") / "t.jsonl"
        transcript.to_jsonl(path)
        return path

    @staticmethod
    def _chunk_lengths(path, size) -> list[int]:
        """Lines per chunk when the reader reads `path` `size` characters at a time."""
        with open(path) as fh:
            return [len(chunk) for chunk in iter(lambda: fh.readlines(size), [])]

    def test_chunk_size_changes_nothing_read(self, protocol_jsonl, monkeypatch):
        names = ("time", "direction", "variant", "party", "sample", "seq", "nbytes",
                 "values", "offsets")
        reads = []
        for size in self.SIZES + (fedproto._READ_CHUNK,):
            monkeypatch.setattr(fedproto, "_READ_CHUNK", size)
            reads.append(Transcript.from_jsonl(protocol_jsonl))
        assert len(reads[0]) == 64 * 4 + 2 * 300
        assert self._chunk_lengths(protocol_jsonl, 300)[0] < 5  # many chunks at the least
        for got in reads[1:]:
            for name in names:
                assert np.array_equal(got.column(name), reads[0].column(name)), name
            for direction in ("up", "down"):
                assert got.total_bytes(direction) == reads[0].total_bytes(direction)

    # a rule a line can break, how to break it, and the reader's message
    BREAKS = {
        "dir": (lambda line: line.replace('"dir": "up"', '"dir": "in"', 1).replace(
            '"dir": "down"', '"dir": "left"', 1), '"dir" and "variant" are not a message kind'),
        "bytes": (lambda line: re.sub(r'"bytes": (\d+)', lambda m: f'"bytes": {int(m[1]) + 8}',
                                      line), '"bytes" is not the frame size of the payload'),
    }

    @pytest.mark.parametrize("size", SIZES)
    def test_bad_line_at_a_chunk_edge_is_named_at_every_size(self, protocol_jsonl, tmp_path,
                                                             monkeypatch, size):
        """At `size`, one bad line opens the last chunk and another closes the
        first; each, breaking each rule in BREAKS, is named the same way
        whatever size the reader uses."""
        lines = protocol_jsonl.read_text().splitlines(keepends=True)
        chunks = self._chunk_lengths(protocol_jsonl, size)
        edges = (len(lines) - chunks[-1] + 1, chunks[0])
        for (breaks, message), number in itertools.product(self.BREAKS.values(), edges):
            bad = list(lines)
            bad[number - 1] = breaks(bad[number - 1])
            assert bad[number - 1] != lines[number - 1]
            path = tmp_path / "bad.jsonl"
            path.write_text("".join(bad))
            for read_size in self.SIZES:
                monkeypatch.setattr(fedproto, "_READ_CHUNK", read_size)
                with pytest.raises(ParseError) as err:
                    Transcript.from_jsonl(path)
                assert str(err.value) == f"{path}:{number}: {message}"

    def test_two_objects_split_over_two_lines(self, tmp_path):
        """Parsed as one array the chunk would hold two valid objects, but
        line 1 is not a JSON object on its own."""
        obj = self.GOOD.rstrip("\n")
        cut = obj.index("0.5") + len("0.5")  # line 1 ends inside the payload list
        with pytest.raises(ParseError, match=r"t\.jsonl:1: "):
            self._read(tmp_path, f"{obj}, {obj[:cut]}\n{obj[cut + 2:]}\n")

    def test_layout_other_than_the_writer_is_accepted(self, tmp_path):
        loose = self.GOOD.replace(": ", ":").replace("}\n", "}  \n")
        t = self._read(tmp_path, loose + self.GOOD.rstrip("\n"))  # no final newline
        assert len(t) == 2 and t.total_bytes("up") == 70

    def test_empty_file(self, tmp_path):
        assert len(self._read(tmp_path, "")) == 0

    def test_binary_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(ParseError, match=r"t\.jsonl: not UTF-8 text"):
            Transcript.from_jsonl(path)


lengths = st.integers(0, 9)


@st.composite
def audit_cases(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(KINDS), lengths, st.integers(1, 4)),
                         max_size=12))
    dims = draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
    huge = st.integers(2**63 - 1, 2**65)  # past int64: no length reaches it
    below = st.integers(-2**65, -2**63 - 1)  # below int64: every length exceeds it
    return rows, dims, draw(st.integers(0, 10) | huge), draw(st.integers(0, 4) | huge | below)


class TestAuditColumns:
    @settings(max_examples=1000, deadline=None)
    @given(audit_cases())
    def test_equals_the_per_entry_loop(self, case):
        rows, dims, d0, max_output_dim = case
        transcript = Transcript()
        for (direction, variant), n, party in rows:
            transcript.record_raw(0.0, direction, variant, party, 0, 0, np.arange(n, dtype=float))
        got = audit_transcript(transcript, dims, d0=d0, max_output_dim=max_output_dim)
        want = reference_audit(transcript, dims, d0=d0, max_output_dim=max_output_dim)
        assert (got.ok, got.checked, got.violation_index, got.reason) == \
               (want.ok, want.checked, want.violation_index, want.reason)

    @pytest.mark.parametrize("bound", [2**63 - 1, 2**63, 2**64, 10**20])
    def test_bound_past_int64_bounds_nothing(self, bound):
        transcript = Transcript()
        transcript.record(0.0, Upload(1, 0, np.zeros(3), np.ones(3), 0))
        transcript.record(0.0, Reply(1, 0, 0.5, 0.25, 0))
        assert audit_transcript(transcript, [2], d0=bound, max_output_dim=bound) == \
            AuditReport(True, 4)
        assert not audit_transcript(transcript, [3], max_output_dim=bound).ok

    @pytest.mark.parametrize("bound", [-1, -2, -2**63, -2**63 - 1, -2**64, -10**20])
    def test_negative_bound_bounds_everything(self, bound):
        """Every negative bound gives the one verdict: the first vector exceeds it."""
        transcript = Transcript()
        transcript.record(0.0, Upload(1, 0, np.zeros(3), np.ones(3), 0))
        transcript.record(0.0, Reply(1, 0, 0.5, 0.25, 0))
        assert audit_transcript(transcript, [2], max_output_dim=bound) == AuditReport(
            False, 1, 0, f"entry 0 (upload, party 1): payload vector length 3 exceeds max "
                         f"local output dim {bound}")
