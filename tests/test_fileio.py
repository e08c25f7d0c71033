"""Bit-exact round trips for every file format."""

import json
import os
import sys
import threading
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import fileio
from marginlab.errors import DataError, UsageError
from marginlab.margins import Audit, MarginRecord, compute_margins
from marginlab.objectives import MrpConfig
from marginlab.precision import emulate_bf16
from marginlab.tokenclass import ClassAuditRow, TokenClass
from marginlab.toylm import ToyLm, ToyLmConfig
from marginlab.training import StepMetrics, TrainConfig, train


def audit_of(rows):
    """The audit of (position, target, top1, top2, margin, correct) rows."""
    return Audit(*zip(*rows)) if rows else Audit(*[()] * 6)


def margin_audit(margins):
    """An audit with these margins at positions 0, 1, ..., every top-1 wrong."""
    n = len(margins)
    return Audit(np.arange(n), np.zeros(n, int), np.ones(n, int), np.full(n, 2), margins,
                 np.zeros(n, bool))


def records(n, rng):
    out = []
    for i in range(n):
        t1 = int(rng.integers(0, 50))
        t2 = (t1 + 1 + int(rng.integers(0, 49))) % 50
        target = int(rng.integers(0, 50))
        out.append((i, target, t1, t2, float(rng.exponential()), t1 == target))
    return audit_of(out)


class TestLogitsContainer:
    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(20, 7)).astype(np.float32)
        path = str(tmp_path / "logits.bin")
        fileio.write_logits(path, m, corpus_id="c", model_id="m")
        back, header = fileio.read_logits(path)
        assert np.array_equal(back, m)
        assert header["rows"] == 20 and header["cols"] == 7
        # second write of the read-back data produces identical bytes
        path2 = str(tmp_path / "logits2.bin")
        fileio.write_logits(path2, back, corpus_id="c", model_id="m")
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_bf16_widened_through_emulation(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.uniform(1, 8, size=(10, 5)).astype(np.float32)
        path = str(tmp_path / "logits.bf16")
        fileio.write_logits(path, m, dtype="bf16")
        back, header = fileio.read_logits(path)
        assert header["dtype"] == "bf16"
        np.testing.assert_array_equal(back, emulate_bf16(m))
        # bf16 payload is half the size of f32
        with open(path, "rb") as f:
            raw = f.read()
        assert len(raw) - raw.find(b"\n") - 1 == m.size * 2

    @pytest.mark.parametrize("dtype", ["f32", "bf16"])
    def test_blocks_concatenate_to_read_logits(self, tmp_path, monkeypatch, dtype):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", 4 * 7 * 4)  # four 7-wide f32 rows
        m = np.random.default_rng(2).normal(size=(10, 7)).astype(np.float32)
        path = str(tmp_path / "logits.bin")
        fileio.write_logits(path, m, dtype=dtype)
        monkeypatch.setattr(fileio, "_MIN_BLOCK_ROWS", 1)
        header, blocks = fileio.read_logits_blocks(path)
        parts = [block.copy() for block in blocks]
        assert [len(p) for p in parts] == [4, 4, 2]
        assert all(p.dtype == np.float32 for p in parts)
        assert np.array_equal(np.concatenate(parts), fileio.read_logits(path)[0])
        assert header == fileio.read_logits(path)[1]

    def test_wide_rows_keep_the_block_floor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", 16)  # less than one 8-wide f32 row
        monkeypatch.setattr(fileio, "_MIN_BLOCK_ROWS", 3)
        path = str(tmp_path / "wide.bin")
        fileio.write_logits(path, np.zeros((4, 8)))
        _, blocks = fileio.read_logits_blocks(path)
        assert [len(b) for b in blocks] == [3, 1]

    def test_short_read_after_checks_is_data_error(self, tmp_path):
        path = str(tmp_path / "logits.bin")
        fileio.write_logits(path, np.ones((3, 4)))
        _, blocks = fileio.read_logits_blocks(path)
        os.truncate(path, os.path.getsize(path) - 1)
        with pytest.raises(DataError, match="payload shorter"):
            next(blocks)

    def test_corrupt_payload_length(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        header = json.dumps({"rows": 2, "cols": 2, "dtype": "f32", "layout": "row-major-le"})
        with open(path, "wb") as f:
            f.write(header.encode() + b"\n" + b"\x00" * 7)
        with pytest.raises(DataError):
            fileio.read_logits(path)

    def test_empty_container_rejected(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        header = json.dumps({"rows": 0, "cols": 4, "dtype": "f32", "layout": "row-major-le"})
        with open(path, "wb") as f:
            f.write(header.encode() + b"\n")
        with pytest.raises(DataError):
            fileio.read_logits(path)

    def test_bad_dtype(self, tmp_path):
        with pytest.raises(UsageError):
            fileio.write_logits(str(tmp_path / "x"), np.ones((2, 2)), dtype="f64")

    @pytest.mark.parametrize("header", [
        {"rows": "2", "cols": 2, "dtype": "f32", "layout": "row-major-le"},
        {"rows": 2.0, "cols": 2, "dtype": "f32", "layout": "row-major-le"},
        {"rows": 2, "cols": -2, "dtype": "f32", "layout": "row-major-le"},
        [2, 2],
    ])
    def test_bad_header_is_data_error(self, tmp_path, header):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + b"\x00" * 16)
        with pytest.raises(DataError):
            fileio.read_logits(path)


class TestAuditFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        recs = records(100, rng)
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, recs, tau=0.5, seed=7, created="2026-01-01T00:00:00Z")
        back, header = fileio.read_audit(path)
        assert back == recs
        assert header["count"] == 100
        assert header["tau"] == 0.5
        path2 = str(tmp_path / "audit2.jsonl")
        fileio.write_audit(path2, back, tau=0.5, seed=7, created="2026-01-01T00:00:00Z")
        assert open(path).read() == open(path2).read()

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, records(5, rng))
        lines = open(path).read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError):
            fileio.read_audit(path)

    def test_version_pinned(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"version": 99, "count": 0}) + "\n")
        with pytest.raises(DataError):
            fileio.read_audit(path)

    def test_source_date_epoch_controls_stamp(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert fileio.created_stamp() == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize("epoch", ["abc", "1e20", "99999999999999999999"])
    def test_source_date_epoch_not_an_integer_stamp(self, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        with pytest.raises(UsageError, match=rf"^SOURCE_DATE_EPOCH .* got '{epoch}'$"):
            fileio.created_stamp()


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

GOOD_RECORD = {"position_index": 1, "target_id": 4, "top1_id": 4, "top2_id": 5,
               "margin": 0.5, "correct": True}


def oracle_audit_text(header, recs):
    """Audit JSONL as a per-record json.dumps(sort_keys=True) writer emits it."""
    lines = [json.dumps(header, sort_keys=True)]
    for r in recs:
        lines.append(json.dumps({
            "position_index": r.position_index, "target_id": r.target_id,
            "top1_id": r.top1_id, "top2_id": r.top2_id,
            "margin": r.margin, "correct": r.correct,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def audit_with_line(tmp_path, line):
    """An audit file whose second record (file line 3) is ``line``."""
    first = dict(GOOD_RECORD, position_index=0)
    last = dict(GOOD_RECORD, position_index=2)
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps({"version": 1, "count": 3}) + "\n")
        f.write("\n".join([json.dumps(first), line, json.dumps(last)]) + "\n")
    return path


# Each breaks one rule of the record format: JSON types, then invariants.
BAD_RECORD_LINES = {
    "correct is an int": json.dumps(dict(GOOD_RECORD, correct=1)),
    "correct is a string": json.dumps(dict(GOOD_RECORD, correct="true")),
    "id is a float": json.dumps(dict(GOOD_RECORD, target_id=4.0)),
    "id is a string": json.dumps(dict(GOOD_RECORD, top1_id="4")),
    "id is a bool": json.dumps(dict(GOOD_RECORD, position_index=True)),
    "id is null": json.dumps(dict(GOOD_RECORD, top2_id=None)),
    "id beyond int64": json.dumps(dict(GOOD_RECORD, top2_id=2**63)),
    "margin is a string": json.dumps(dict(GOOD_RECORD, margin="0.5")),
    "margin is a bool": json.dumps(dict(GOOD_RECORD, margin=False)),
    "missing key": json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "margin"}),
    "not an object": "[1, 4, 4, 5, 0.5, true]",
    "not JSON": "{position_index: 1}",
    "two records on a line": json.dumps(GOOD_RECORD) + ", " + json.dumps(GOOD_RECORD),
    "negative margin": json.dumps(dict(GOOD_RECORD, margin=-0.25)),
    "NaN margin": json.dumps(dict(GOOD_RECORD, margin=float("nan"))),
    "infinite margin": json.dumps(dict(GOOD_RECORD, margin=float("inf"))),
    "top1 equals top2": json.dumps(dict(GOOD_RECORD, top2_id=4)),
    "correct disagrees with top1 == target": json.dumps(dict(GOOD_RECORD, correct=False)),
}


# A written audit whose second record (file line 3) these edits change into
# valid JSONL that is not in the writer's exact form, or into a bad line.
WRITTEN_RECORDS = audit_of([(0, 4, 4, 5, 0.5, True), (1, 7, 4, 5, 0.25, False),
                            (2, 1, 1, 0, 0.125, True)])
LINE_3 = '{"correct": false, "margin": 0.25, "position_index": 1, "target_id": 7, "top1_id": 4, "top2_id": 5}'


def edit_line_3(old, new):
    return lambda text: text.replace(LINE_3, LINE_3.replace(old, new))


FALLBACK_EDITS = {
    "swapped top1_id/top2_id keys": edit_line_3('"top1_id": 4, "top2_id"', '"top2_id": 4, "top1_id"'),
    "margin 1E5": edit_line_3("0.25", "1E5"),
    "margin 1e5": edit_line_3("0.25", "1e5"),
    "integer margin": edit_line_3("0.25", "2"),
    "integer margin 2**64": edit_line_3("0.25", str(2**64)),
    "extra space": edit_line_3('"margin": ', '"margin":  '),
    "extra space before an id": edit_line_3('"target_id": ', '"target_id":  '),
    "margin longer than a repr": edit_line_3("0.25", "0.250000000000000000000000"),
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
    "blank lines": lambda text: text.replace("\n", "\n\n\n", 2),
    "no final newline": lambda text: text[:-1],
    "leading blank line": lambda text: "\n" + text,
}
REFUSED_EDITS = {
    "margin 07": edit_line_3("0.25", "07"),
    "margin .5": edit_line_3("0.25", ".5"),
    "margin 1.": edit_line_3("0.25", "1."),
    "margin 01.5": edit_line_3("0.25", "01.5"),
    "margin 1e": edit_line_3("0.25", "1e"),
    "NUL after the margin": edit_line_3("0.25", "0.25\0"),
    "id 04": edit_line_3('"top1_id": 4', '"top1_id": 04'),
    "id 7e": edit_line_3('"target_id": 7', '"target_id": 7e'),
    "empty id": edit_line_3('"target_id": 7', '"target_id": '),
    "correct faLse": edit_line_3("false", "faLse"),
    "correct falsee": edit_line_3("false", "falsee"),
    "] for }": edit_line_3("5}", "5]"),
    "a comma moved to the next line": lambda text: edit_line_3(', "top2_id": 5', "")(text).replace(
        '"top2_id": 0}', '"top2_id": 0, "x": 1}'),
    "id beyond int64": edit_line_3('"position_index": 1', f'"position_index": {2**63}'),
}


def edited_audit(tmp_path, edit):
    """(path, bytes) of WRITTEN_RECORDS written by write_audit, then edited."""
    path = str(tmp_path / "audit.jsonl")
    fileio.write_audit(path, WRITTEN_RECORDS, created="x")
    with open(path, "rb") as f:
        raw = edit(f.read().decode()).encode()
    with open(path, "wb") as f:
        f.write(raw)
    return path, raw


def read_outcome(path):
    """read_audit's header and column bytes, or its DataError message."""
    try:
        audit, header = fileio.read_audit(path)
    except DataError as e:
        return str(e)
    return header, [c.tobytes() for c in audit.columns()]


class TestAuditRecordChecks:
    @pytest.mark.parametrize("kind", sorted(FALLBACK_EDITS) + sorted(REFUSED_EDITS))
    def test_other_lines_read_as_json_does(self, tmp_path, monkeypatch, kind):
        """The columnar parser refuses the file; read_audit then gives the
        json path's result or DataError."""
        path, raw = edited_audit(tmp_path, {**FALLBACK_EDITS, **REFUSED_EDITS}[kind])
        assert fileio._record_columns(raw, raw.find(b"\n") + 1) is None
        outcome = read_outcome(path)
        monkeypatch.setattr(fileio, "_record_columns", lambda raw, start: None)
        assert outcome == read_outcome(path)
        if kind in REFUSED_EDITS:
            assert "bad record on line 3:" in outcome
        else:
            assert not isinstance(outcome, str), outcome

    @pytest.mark.parametrize("margin", ["-0.25", "1e+999"])
    def test_exact_form_breaking_an_invariant_names_the_line(self, tmp_path, monkeypatch, margin):
        path, raw = edited_audit(tmp_path, edit_line_3("0.25", margin))
        assert fileio._record_columns(raw, raw.find(b"\n") + 1) is not None
        outcome = read_outcome(path)
        assert "bad record on line 3:" in outcome
        monkeypatch.setattr(fileio, "_record_columns", lambda raw, start: None)
        assert outcome == read_outcome(path)

    @pytest.mark.parametrize("kind", sorted(BAD_RECORD_LINES))
    def test_reader_names_the_bad_line(self, tmp_path, kind):
        path = audit_with_line(tmp_path, BAD_RECORD_LINES[kind])
        with pytest.raises(DataError, match="line 3"):
            fileio.read_audit(path)

    @pytest.mark.parametrize("kind", ["not JSON", "top1 equals top2"])
    def test_blank_lines_keep_file_line_numbers(self, tmp_path, kind):
        recs = [json.dumps(dict(GOOD_RECORD, position_index=i)) for i in range(2)]
        path = str(tmp_path / "blanks.jsonl")
        with open(path, "w") as f:
            f.write("\n".join([json.dumps({"version": 1, "count": 3}), recs[0], "", "",
                               recs[1], BAD_RECORD_LINES[kind]]) + "\n")
        with pytest.raises(DataError, match="on line 6:"):
            fileio.read_audit(path)

    def test_id_beyond_int64_names_its_key(self, tmp_path):
        with pytest.raises(DataError, match="line 3: ValueError.*'top2_id' 9223372036854775808 is outside int64"):
            fileio.read_audit(audit_with_line(tmp_path, BAD_RECORD_LINES["id beyond int64"]))

    def test_good_line_reads(self, tmp_path):
        audit, _ = fileio.read_audit(audit_with_line(tmp_path, json.dumps(GOOD_RECORD)))
        assert audit[1] == MarginRecord(1, 4, 4, 5, 0.5, True)

    def test_integer_margin_reads_as_float(self, tmp_path):
        audit, _ = fileio.read_audit(audit_with_line(tmp_path, json.dumps(dict(GOOD_RECORD, margin=2))))
        assert audit[1].margin == 2.0 and type(audit[1].margin) is float

    def test_header_must_be_an_object(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with open(path, "w") as f:
            f.write("[1]\n")
        with pytest.raises(DataError):
            fileio.read_audit(path)

    def test_non_utf8_is_data_error(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with open(path, "wb") as f:
            f.write(b'{"version": 1, "count": 0}\n\xff\n')
        with pytest.raises(DataError):
            fileio.read_audit(path)

    @pytest.mark.parametrize("change", [
        {"margin": -0.25}, {"margin": float("nan")}, {"margin": float("inf")},
        {"top2_id": 4}, {"correct": False},
    ])
    def test_writer_rejects_broken_invariants(self, tmp_path, change):
        good = MarginRecord(**dict(GOOD_RECORD, position_index=0))
        bad = MarginRecord(**dict(GOOD_RECORD, **change))
        path = str(tmp_path / "audit.jsonl")
        with pytest.raises(UsageError, match="record 1"):
            fileio.write_audit(path, audit_of([astuple(good), astuple(bad)]))
        assert not os.path.exists(path)

    @pytest.mark.parametrize("change", [{"target_id": 4.5}, {"top1_id": True}, {"correct": 1}])
    def test_writer_rejects_wrong_types(self, tmp_path, change):
        bad = MarginRecord(**dict(GOOD_RECORD, **change))
        with pytest.raises(UsageError):
            fileio.write_audit(str(tmp_path / "audit.jsonl"), audit_of([astuple(bad)]))

    @pytest.mark.parametrize("field, value", [
        ("dtype", "fp16"), ("tau", float("nan")), ("tau", float("inf")), ("seed", -3),
        ("seed", 2**63), ("created", 5),
    ])
    def test_writer_rejects_header_values_the_reader_refuses(self, tmp_path, field, value):
        path = str(tmp_path / "audit.jsonl")
        with pytest.raises(UsageError, match=f"audit {field} "):
            fileio.write_audit(path, WRITTEN_RECORDS, **{field: value})
        assert os.listdir(tmp_path) == []


class TestAuditWriterBytes:
    """The columnar writer against a per-record json.dumps oracle."""

    @pytest.mark.parametrize("name", ["baseline_6.jsonl", "polished_6.jsonl"])
    def test_fixture_bytes(self, tmp_path, name):
        audit, header = fileio.read_audit(os.path.join(FIXTURES, name))
        path = str(tmp_path / name)
        fileio.write_audit(path, audit, dtype=header["dtype"], tau=header["tau"],
                           seed=header["seed"], created=header["created"])
        text = open(path).read()
        assert text == oracle_audit_text(header, list(audit))
        assert text == open(os.path.join(FIXTURES, name)).read()

    def test_seeded_bf16_pair_with_ties_and_zero_margins(self, tmp_path):
        rng = np.random.default_rng(404)
        base = emulate_bf16(rng.normal(size=(3000, 64)).astype(np.float32))
        base[:40, 7] = base[:40].max(axis=1)  # exact ties at the top
        base[40] = -1.0
        base[40, :2] = (-0.0, 0.0)  # margin -0.0, which json writes as "-0.0"
        pol = emulate_bf16(base + np.float32(0.05) * rng.normal(size=base.shape).astype(np.float32))
        targets = rng.integers(0, 64, size=3000)
        for i, logits in enumerate((base, pol)):
            audit = compute_margins(logits, targets)
            assert np.count_nonzero(audit.margin == 0) >= 40
            path = str(tmp_path / f"audit{i}.jsonl")
            fileio.write_audit(path, audit, dtype="bf16", seed=3, created="2026-01-01T00:00:00Z")
            _, header = fileio.read_audit(path)
            assert open(path).read() == oracle_audit_text(header, list(audit))
        assert '"margin": -0.0,' in open(str(tmp_path / "audit0.jsonl")).read()


def id_records(ids):
    """Records whose position, target and top1 ids are ``ids``, each top2 the
    id before (the last for the first): every top1 right while neighbours differ."""
    ids = np.asarray(ids, np.int64)
    margins = np.random.default_rng(ids.size).exponential(size=ids.size)
    return Audit(ids, ids, ids, np.roll(ids, 1), margins, np.ones(ids.size, bool))


I64 = np.iinfo(np.int64)
# Blocks of 7 records: ids that gain a digit inside a block and between
# blocks, then lose three; and one block of negatives and int64's ends
# next to a block of small ids.
ID_BLOCKS = {
    "widths": id_records(np.concatenate([np.arange(5, 12), np.arange(95, 102),
                                         np.arange(1000, 1007), np.arange(1, 8)])),
    "signs": id_records([I64.min, I64.max, -1, -10, 10**18, -(10**18), 0, *range(1, 8)]),
}


class TestStreamedAuditWriter:
    """write_audit encodes ``_WRITE_BLOCK`` records at a time into its temp file."""

    @pytest.mark.parametrize("n", [0, 1, 7, 30, 35, *ID_BLOCKS])
    def test_bytes_equal_oracle_across_blocks(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7)
        audit = ID_BLOCKS[n] if n in ID_BLOCKS else records(n, np.random.default_rng(n))
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, audit, dtype="bf16", tau=0.5, seed=2, created="2026-01-01T00:00:00Z")
        back, header = fileio.read_audit(path)
        assert open(path).read() == oracle_audit_text(header, list(audit))
        assert os.listdir(tmp_path) == ["audit.jsonl"]
        assert back == audit
        raw = open(path, "rb").read()
        # The columnar reader leaves negative ids to json.
        assert fileio._record_columns(raw, raw.find(b"\n") + 1) == (None if n == "signs" else audit)

    def test_peak_memory_is_bounded(self, tmp_path, cpus):
        import tracemalloc

        cpus(2)  # two chunks are encoded at once, one per worker
        n = 200_000
        rng = np.random.default_rng(6)
        audit = compute_margins(rng.normal(size=(n, 16)), rng.integers(0, 16, n))
        tracemalloc.start()
        try:
            fileio.write_audit(str(tmp_path / "audit.jsonl"), audit, created="x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Building the whole text at once would peak at about 510 bytes per position.
        assert peak < 100 * n


def formatted(values):
    """_margin_texts of float64 ``values``, as str; a NUL inside a text stays."""
    bits = np.asarray(values, np.float64).view(np.uint64)
    return [bytes(t).rstrip(b"\0").decode() for t in fileio._margin_texts(bits)]


def bit_patterns(bits):
    """The float64 values of uint64, uint32 (float32) or uint16 (bf16) bit patterns."""
    bits = bits.astype(np.uint32) << 16 if bits.dtype == np.uint16 else bits
    return bits.view({8: np.float64, 4: np.float32}[bits.itemsize]).astype(np.float64)


SEEDED_VALUES = {
    "float64": lambda rng: bit_patterns(rng.integers(0, 0x7FF0 << 48, 10**5, np.uint64)),
    "f32": lambda rng: bit_patterns(rng.integers(0, 0x7F80_0000, 10**5, np.uint32)),
    "bf16": lambda rng: bit_patterns(np.arange(0x7F80, dtype=np.uint16)),
    "integers": lambda rng: np.r_[: 10**5, rng.integers(0, 10**17, 10**5)].astype(float),
    "subnormals": lambda rng: bit_patterns(np.r_[1:20_000, 2**52 - 20_000 : 2**52 + 5].astype(np.uint64)),
    "powers of two": lambda rng: 2.0 ** np.arange(-1074, 1024),
}


class TestMarginFormatter:
    """The writer formats margins as repr does, in ascending order (as
    np.unique gives them) or any other."""

    EDGES = [0.0, -0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 1e-05, 0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0,
             2e23, 9.5, 120.0, 0.1, 2.0**49 + 0.25, 1e22, 1e23, 5e-310, 123456789012345680.0]

    @given(st.lists(st.floats(min_value=0, allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_drawn_floats(self, values):
        assert formatted(values) == list(map(repr, values))

    @pytest.mark.parametrize("kind", SEEDED_VALUES)
    def test_seeded_values(self, kind):
        values = np.concatenate([SEEDED_VALUES[kind](np.random.default_rng(34)), self.EDGES])
        for order in (np.arange(values.size), np.argsort(values, kind="stable")):
            assert formatted(values[order]) == [repr(v) for v in values[order].tolist()]

    def test_texts_are_as_wide_as_the_longest(self):
        assert fileio._margin_texts(np.array([0.5, 12.25]).view(np.uint64)).dtype.itemsize == 5
        assert fileio._margin_texts(np.array([0.0, -0.0]).view(np.uint64)).tolist() == [b"0.0\0", b"-0.0"]


class TestWriterWorkers:
    """write_audit encodes its ``_WRITE_BLOCK``-record chunks _MAX_WORKERS at a
    time, one per worker thread; one and two workers write the same bytes."""

    @pytest.mark.parametrize("dtype", ["f32", "bf16"])
    @pytest.mark.parametrize("chunks", [1, 2, 3, 5])
    def test_one_and_two_workers_write_alike(self, tmp_path, monkeypatch, cpus, dtype, chunks):
        monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7)
        rng = np.random.default_rng(chunks)
        logits = rng.normal(size=(7 * chunks - 3, 16)).astype(np.float32)  # a short last chunk
        logits = emulate_bf16(logits) if dtype == "bf16" else logits
        audit = compute_margins(logits, rng.integers(0, 16, len(logits)))
        encode, threads, written = fileio._record_lines, [], []
        monkeypatch.setattr(fileio, "_record_lines",
                            lambda part: threads[-1].add(threading.get_ident()) or encode(part))
        for n in (1, 2):
            cpus(n)
            threads.append(set())
            path = tmp_path / f"audit{n}.jsonl"
            fileio.write_audit(str(path), audit, dtype=dtype, seed=1, created="2026-01-01T00:00:00Z")
            written.append(path.read_text())
        assert written[0] == written[1] == oracle_audit_text(fileio.read_audit(str(path))[1], list(audit))
        assert [len(t) for t in threads] == [1, min(chunks, 2)]

    def test_many_workers_with_frequent_switches(self, tmp_path, monkeypatch, workers):
        """More workers than cores, each encoding 40-record chunks while the
        interpreter switches threads every microsecond, the powers-of-ten
        table built by whichever worker comes first: the bytes stay the one
        worker's."""
        monkeypatch.setattr(fileio, "_WRITE_BLOCK", 40)
        audit = records(600, np.random.default_rng(11))
        written = []
        interval = sys.getswitchinterval()
        try:
            for n in (1, 4):
                workers(n)
                fileio._pow10_g.cache_clear()
                sys.setswitchinterval(1e-6 if n > 1 else interval)
                fileio.write_audit(str(tmp_path / "audit.jsonl"), audit, created="x")
                written.append((tmp_path / "audit.jsonl").read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert written[0] == written[1]


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable CPU count that fileio.in_threads sizes its workers by."""
    return lambda n: monkeypatch.setattr(fileio, "usable_cpus", lambda: n)


@pytest.fixture
def workers(monkeypatch, cpus):
    """Sets the usable CPU count and lifts the worker cap to it, so that
    in_threads starts that many workers."""
    def set_workers(n):
        cpus(n)
        monkeypatch.setattr(fileio, "_MAX_WORKERS", n)
    return set_workers


class TestInThreads:
    @pytest.mark.parametrize("n, units, spans", [
        (1, 10, [(0, 10)]),
        (3, 10, [(0, 3), (3, 6), (6, 10)]),
        (4, 2, [(0, 1), (1, 2)]),
        (2, 0, [(0, 0)]),
    ])
    def test_spans_in_order(self, workers, n, units, spans):
        workers(n)
        assert fileio.in_threads(lambda lo, hi: (lo, hi), units) == spans

    def test_workers_are_capped_whatever_the_cpus(self, cpus):
        threads = set()

        def work(lo, hi):
            threads.add(threading.get_ident())
            time.sleep(0.01)
            return lo, hi

        cpus(64)
        assert fileio.in_threads(work, 64) == [(0, 32), (32, 64)]
        assert len(threads) == fileio._MAX_WORKERS == 2

    def test_the_lowest_failing_span_raises(self, workers):
        def work(lo, hi):
            if lo >= 2:
                raise ValueError(lo)
            time.sleep(0.05)  # the later spans fail first
            return lo

        workers(4)
        with pytest.raises(ValueError, match="^2$"):
            fileio.in_threads(work, 4)

    def test_many_workers_with_frequent_switches(self, tmp_path, monkeypatch, workers):
        """More workers than cores, each parsing 50 3-line blocks into the
        shared columns while the interpreter switches threads every
        microsecond: a lost or misplaced write would change a column."""
        monkeypatch.setattr(fileio, "_WRITE_BLOCK", 3)
        audit = records(600, np.random.default_rng(10))
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, audit, created="x")
        with open(path, "rb") as f:
            raw = f.read()
        workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # the columnar parse itself: read_audit would fall back to json
                assert fileio._record_columns(raw, raw.find(b"\n") + 1) == audit
        finally:
            sys.setswitchinterval(interval)


class TestReaderWorkers:
    """The columnar reader parses spans of ``_WRITE_BLOCK``-line blocks in
    threads; one and two workers give the same columns and the same errors."""

    N = 40  # six 7-line blocks: each of two workers reads three

    @pytest.fixture
    def path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7)
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, records(self.N, np.random.default_rng(9)), created="x")
        return path

    @staticmethod
    def edit(path, edits):
        """Replace record lines: ``edits`` maps a record index to a function of its text."""
        with open(path) as f:
            lines = f.read().split("\n")
        for i, change in edits.items():
            lines[i + 1] = change(lines[i + 1])
        with open(path, "w") as f:
            f.write("\n".join(lines))

    def outcomes(self, path, cpus):
        out = []
        for n in (1, 2):
            cpus(n)
            out.append(read_outcome(path))
        return out

    def test_two_workers_read_as_one(self, path, cpus, monkeypatch):
        threads = []  # per read, the threads that parsed its blocks
        block = fileio._record_block

        def recording(*args):
            threads[-1].add(threading.get_ident())
            return block(*args)

        monkeypatch.setattr(fileio, "_record_block", recording)
        outcomes = []
        for n in (1, 2):
            cpus(n)
            threads.append(set())
            outcomes.append(read_outcome(path))
        assert outcomes[0] == outcomes[1]
        assert [len(t) for t in threads] == [1, 2]
        assert fileio.read_audit(path)[0] == records(self.N, np.random.default_rng(9))

    def test_non_writer_line_in_second_half(self, path, cpus):
        want = read_outcome(path)
        self.edit(path, {30: lambda ln: ln.replace('"margin": ', '"margin":  ')})
        assert self.outcomes(path, cpus) == [want, want]

    def test_first_bad_line_is_named(self, path, cpus):
        self.edit(path, {
            33: lambda ln: ln.replace('"target_id": ', '"target_id": "x", "t": '),
            25: lambda ln: ln.replace('"top1_id": ', '"top1_id": "x", "t": '),
        })
        one, two = self.outcomes(path, cpus)
        assert one == two
        assert one == f"{path}: bad record on line 27: TypeError(\"'top1_id' must be int\")"


IDS = st.one_of(st.integers(0, 600), st.integers(0, 2**63 - 1))
MARGINS = st.one_of(
    st.sampled_from([5e-324, -0.0, 0.0, 1e-05, 1e16, 2.0**53 + 2, 1.7976931348623157e308]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e16, allow_infinity=False),
    # 17 significant digits
    st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(10**16, 10**17 - 1), st.integers(-340, 290)),
)


@st.composite
def written_audits(draw):
    """Rows that keep the record invariants, and write_audit's header fields."""
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        top1 = draw(IDS)
        top2 = draw(IDS.filter(lambda i: i != top1))
        target = draw(st.one_of(st.just(top1), IDS))
        rows.append((draw(IDS), target, top1, top2, draw(MARGINS), target == top1))
    fields = dict(
        dtype=draw(st.sampled_from(["f32", "bf16"])),
        tau=draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)),
        seed=draw(st.none() | st.integers(0, 2**63 - 1)),
        created=draw(st.text(max_size=8)),
    )
    return rows, fields


SIGNED_IDS = st.one_of(
    st.sampled_from([-(2**63), -1, 0, 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-600, 600),
)


@st.composite
def signed_audits(draw):
    """Rows that keep the record invariants, with ids anywhere in int64;
    the first two margins are -0.0 and 0.0."""
    rows = []
    for margin in [-0.0, 0.0] + draw(st.lists(MARGINS, max_size=24)):
        top1 = draw(SIGNED_IDS)
        top2 = draw(SIGNED_IDS.filter(lambda i: i != top1))
        target = draw(st.one_of(st.just(top1), SIGNED_IDS))
        rows.append((draw(SIGNED_IDS), target, top1, top2, margin, target == top1))
    return audit_of(rows)


class TestColumnarAuditWriter:
    """write_audit on drawn audits in one block against the per-record oracle."""

    @given(signed_audits())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bytes_equal_oracle_and_read_back(self, tmp_path_factory, audit):
        path = str(tmp_path_factory.mktemp("audit") / "audit.jsonl")
        fileio.write_audit(path, audit, dtype="bf16", seed=5, created="2026-01-01T00:00:00Z")
        back, header = fileio.read_audit(path)
        assert open(path).read() == oracle_audit_text(header, list(audit))
        assert [c.tobytes() for c in back.columns()] == [c.tobytes() for c in audit.columns()]


class TestColumnarAuditReader:
    """read_audit's columnar parser against its json path."""

    @given(written_audits())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_written_audits_read_as_json_does(self, tmp_path_factory, drawn):
        rows, fields = drawn
        path = str(tmp_path_factory.mktemp("audit") / "audit.jsonl")
        fileio.write_audit(path, audit_of(rows), **fields)
        raw = open(path, "rb").read()
        columns = fileio._record_columns(raw, raw.find(b"\n") + 1)
        assert columns is not None
        header, reference, _ = fileio._json_records(path, raw)
        assert [c.tobytes() for c in columns.columns()] == [c.tobytes() for c in reference.columns()]
        assert fileio.read_audit(path)[1] == header

    def test_single_byte_edits_read_as_json_does(self, tmp_path):
        """Each deletion of a byte of line 3 and each replacement of one by a
        byte that JSON numbers or structure use: the columnar parser refuses
        the file or gives the json path's columns."""
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, WRITTEN_RECORDS, created="x")
        raw = open(path, "rb").read()
        lo = raw.index(LINE_3.encode())
        accepted = 0
        for i in range(lo, lo + len(LINE_3)):
            for new in [b""] + [bytes([c]) for c in b'\0 "+,-.09Ee}' if c != raw[i]]:
                edited = raw[:i] + new + raw[i + 1 :]
                columns = fileio._record_columns(edited, edited.find(b"\n") + 1)
                if columns is not None:
                    _, reference, _ = fileio._json_records(path, edited)
                    assert [c.tobytes() for c in columns.columns()] == \
                        [c.tobytes() for c in reference.columns()], (i, new)
                    accepted += 1
        assert accepted >= 10  # the digit edits of ids and margin

    def test_peak_memory_is_bounded(self, tmp_path, cpus):
        import tracemalloc

        cpus(64)  # each worker holds a block buffer: the cap, not the host, bounds them
        n = 200_000
        rng = np.random.default_rng(6)
        audit = compute_margins(rng.normal(size=(n, 16)), rng.integers(0, 16, n))
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, audit, created="x")
        tracemalloc.start()
        try:
            back, _ = fileio.read_audit(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == audit
        # The file holds about 120 bytes per position and the reader peaked at
        # about 225; the json path peaked at about 640, and parsing the whole
        # file as one block at about 810.
        assert peak < 300 * n


def float_of_bits(bits, dtype):
    return float(np.array(bits, dtype).view({np.uint64: np.float64, np.uint32: np.float32}[dtype]))


# Finite non-negative float64 margins: any bit pattern, subnormals, the ends
# of the range, and the float32- and bf16-exact values audits hold.
PARSED_MARGINS = st.one_of(
    st.integers(0, 0x7FEF_FFFF_FFFF_FFFF).map(lambda b: float_of_bits(b, np.uint64)),
    st.integers(0, 0x000F_FFFF_FFFF_FFFF).map(lambda b: float_of_bits(b, np.uint64)),
    st.integers(0, 0x7F7F_FFFF).map(lambda b: float_of_bits(b, np.uint32)),
    st.integers(0, 0x7F7F).map(lambda b: float_of_bits(b << 16, np.uint32)),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1, 1e-05, 1e16, 2.0**53 + 1]),
)


def writer_lines(margin_texts):
    """An audit file's bytes with one record line in the writer's form per
    margin text, the texts written as given."""
    line = ('{"correct": false, "margin": %s, "position_index": %d, "target_id": 0, '
            '"top1_id": 1, "top2_id": 2}\n')
    header = json.dumps({"count": len(margin_texts), "version": 1}) + "\n"
    return (header + "".join(line % (t, i) for i, t in enumerate(margin_texts))).encode()


def columnar_margins(raw):
    """The margin column of ``raw`` as the columnar reader reads it; it must
    take the file."""
    audit = fileio._record_columns(raw, raw.find(b"\n") + 1)
    assert audit is not None
    return audit.margin


# Margin texts around the edges of the exact integer paths: halfway cases,
# 17, 19 and 20 or more significant digits, exponents at and past the powers of
# ten a float64 holds, the ends of the float64 range, long and zero-padded
# exponents (some of them past int64) and a negative zero.
MARGIN_TEXTS = [
    "9007199254740993.0", "9007199254740995.0", "9007199254740993.001",
    "9007199254740992.999", "4503599627370496.5", "0.30000000000000004",
    "0.1", "1.1694397926330566", "0.012345678901234567", "1234567890123456789.0",
    "0.1234567890123456789", "12345678901234567890.0", "0.10000000000000000555",
    "1.0000000000000001110223", "18446744073709551616.0", "1e-05", "1e+16", "1e+22", "1e+23",
    "1e-22", "1e-23", "9.999999999999999e+22", "1.2345678901234567e-06",
    "1.2345678901234567e-07", "5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
    "2.225073858507201e-308", "1.7976931348623157e+308", "1.5e+000", "1.5e-0000000000000000001",
    "0.0e+9999999999999999999", "1.0e-9999999999999999999", "1e+99999999999999999999", "-0.0",
    "0.0", "0.000", "100.0",
]


class TestMarginParser:
    """The columnar reader's margins are bit for bit what ``float`` reads;
    writer-form float32 and bf16 margins take its integer paths only."""

    @given(st.lists(PARSED_MARGINS, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_written_margins_read_back_bit_for_bit(self, tmp_path_factory, margins):
        path = str(tmp_path_factory.mktemp("audit") / "audit.jsonl")
        fileio.write_audit(path, margin_audit(margins), created="x")
        raw = open(path, "rb").read()
        want = np.array(margins).view(np.uint64)
        assert (columnar_margins(raw).view(np.uint64) == want).all()
        assert (fileio.read_audit(path)[0].margin.view(np.uint64) == want).all()

    @pytest.mark.parametrize("text", MARGIN_TEXTS)
    def test_written_text_reads_as_float(self, text):
        got = columnar_margins(writer_lines([text]))
        assert got.view(np.uint64)[0] == np.array(float(text)).view(np.uint64)

    def test_texts_in_one_block_read_as_float(self):
        got = columnar_margins(writer_lines(MARGIN_TEXTS))
        assert (got.view(np.uint64) == np.array([float(t) for t in MARGIN_TEXTS]).view(np.uint64)).all()

    @pytest.fixture
    def cast_rows(self, monkeypatch):
        """The rows ``_cast_margins`` is given, one count per call."""
        rows, cast = [], fileio._cast_margins
        monkeypatch.setattr(fileio, "_cast_margins", lambda text: rows.append(len(text)) or cast(text))
        return rows

    def test_float32_and_bf16_margins_skip_the_cast(self, tmp_path, cast_rows):
        rng = np.random.default_rng(33)
        logits = rng.normal(size=(20_000, 64)).astype(np.float32)
        targets = rng.integers(0, 64, 20_000)
        f32 = rng.uniform(0, 100, 20_000).astype(np.float32)
        for audit in (compute_margins(logits, targets), compute_margins(emulate_bf16(logits), targets),
                      margin_audit(f32.astype(np.float64)), margin_audit(emulate_bf16(f32).astype(np.float64))):
            path = str(tmp_path / "audit.jsonl")
            fileio.write_audit(path, audit, created="x")
            assert fileio.read_audit(path)[0] == audit
        assert cast_rows == []

    def test_cast_reads_the_texts_the_integer_paths_leave(self, cast_rows):
        columnar_margins(writer_lines(["1.5", "1e+23", "0.5", "1.2345678901234567e-07", "5e-324"]))
        assert cast_rows == [3]

    def test_one_and_two_workers_read_alike(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7)
        rng = np.random.default_rng(34)
        margins = np.concatenate([rng.uniform(0, 100, 15).astype(np.float32), [5e-324, 1e300, 0.1, -0.0],
                                  emulate_bf16(rng.uniform(0, 2, 10).astype(np.float32)),
                                  rng.exponential(size=10)])
        path = str(tmp_path / "audit.jsonl")
        fileio.write_audit(path, margin_audit(margins), created="x")  # six blocks
        outcomes = []
        for n in (1, 2):
            cpus(n)
            monkeypatch.setattr(fileio, "_MAX_WORKERS", n)
            outcomes.append(read_outcome(path))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1][4] == margins.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        model = ToyLm(cfg, seed=5)
        path = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(path, model, step=42)
        back, header = fileio.load_checkpoint(path)
        assert header["step"] == 42
        assert back.config == cfg
        for name in model.params:
            assert np.array_equal(back.params[name].values, model.params[name].values)
        # identical bytes when re-saved
        path2 = str(tmp_path / "model2.ckpt")
        fileio.save_checkpoint(path2, back, step=42)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_header_layout(self, tmp_path):
        # One shared embedding matrix: no separate unembedding parameter.
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        path = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(path, ToyLm(cfg, seed=5), step=3)
        _, header = fileio.load_checkpoint(path)
        assert header["version"] == fileio.CHECKPOINT_VERSION == 2
        assert header["config"] == {"vocab_size": 32, "hidden_dim": 16, "layers": 1,
                                    "heads": 2, "context": 8}
        assert [p["name"] for p in header["params"]] == [
            "embedding", "pos", "layer0.wq", "layer0.wk", "layer0.wv", "layer0.wo",
            "layer0.w1", "layer0.w2",
        ]

    def test_trained_checkpoint_preserves_behavior(self, tmp_path):
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        model = ToyLm(cfg, seed=0)
        corpus = np.random.default_rng(0).integers(0, 32, size=400)
        train(model, corpus, TrainConfig(steps=5, seed=0, mrp=MrpConfig()))
        path = str(tmp_path / "trained.ckpt")
        fileio.save_checkpoint(path, model, step=5)
        back, _ = fileio.load_checkpoint(path)
        tokens = corpus[:8]
        a, _ = model.forward(tokens)
        b, _ = back.forward(tokens)
        assert np.array_equal(a.values, b.values)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        path = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(path, ToyLm(cfg, seed=0), step=0)
        raw = open(path, "rb").read()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["version"] = 99
        with open(path, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(DataError):
            fileio.load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        path = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(path, ToyLm(cfg, seed=0), step=0)
        raw = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(raw[:-16])
        with pytest.raises(DataError):
            fileio.load_checkpoint(path)


    @pytest.mark.parametrize("layers,full_manifest,message", [
        (300, False, "manifest does not match"),
        (300, True, "payload is 8 bytes, expected "),
        (10**9, False, "manifest does not match"),
    ])
    def test_oversized_header_fails_before_any_draw(self, tmp_path, monkeypatch,
                                                    layers, full_manifest, message):
        # The header claims far more layers than its 8-byte payload holds:
        # the manifest and the payload size are checked from the config
        # alone, before any parameter is allocated or drawn.
        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("a parameter was drawn before the checks")

        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        path = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(path, ToyLm(cfg, seed=0), step=0)
        raw = open(path, "rb").read()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["config"]["layers"] = layers
        if full_manifest:
            header["params"] = fileio._manifest(ToyLmConfig(**header["config"]))
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + raw[nl + 1 : nl + 9])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(DataError, match=message):
            fileio.load_checkpoint(path)


# Header edits that break a checkpoint; each must be a DataError on load.
BAD_CHECKPOINT_HEADERS = {
    "config value of the wrong type": lambda h: h["config"].update(heads=2.0),
    "config bool for an int": lambda h: h["config"].update(layers=True),
    "config that breaks ToyLmConfig": lambda h: h["config"].update(heads=3),
    "config with zero heads": lambda h: h["config"].update(heads=0),
    "config with zero hidden_dim": lambda h: h["config"].update(hidden_dim=0),
    "config with negative hidden_dim": lambda h: h["config"].update(hidden_dim=-16),
    "config missing a key": lambda h: h["config"].pop("context"),
    "seed is a string": lambda h: h.update(seed="5"),
    "negative seed": lambda h: h.update(seed=-1),
    "params is an object": lambda h: h.update(params={}),
    "param entry not an object": lambda h: h["params"].insert(0, "embedding"),
    "param name not a string": lambda h: h["params"][0].update(name=["embedding"]),
    "param repeated": lambda h: h["params"].insert(1, h["params"][0]),
    "param of another dtype": lambda h: h["params"][0].update(dtype="<f4"),
}


class TestCheckpointHeaderChecks:
    @pytest.mark.parametrize("kind", sorted(BAD_CHECKPOINT_HEADERS))
    def test_data_error(self, tmp_path, kind):
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        path = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(path, ToyLm(cfg, seed=0), step=0)
        raw = open(path, "rb").read()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        BAD_CHECKPOINT_HEADERS[kind](header)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(DataError):
            fileio.load_checkpoint(path)


class TestReports:
    def test_report_json_round_trip(self, tmp_path):
        report = {"beta": 0.912345678901234, "values": [1.0, 2.5], "name": "x"}
        path = str(tmp_path / "report.json")
        fileio.write_report_json(path, report)
        back = json.loads(open(path).read())
        assert back == report
        path2 = str(tmp_path / "report2.json")
        fileio.write_report_json(path2, back)
        assert open(path).read() == open(path2).read()

    def test_report_json_encodes_dataclasses_enums_and_numpy(self, tmp_path):
        report = {
            "row": ClassAuditRow(TokenClass.NUMERIC, 3, 1, 0, 1, None),
            "scalars": (np.float32(0.1), np.float64(0.1), np.int64(7), np.bool_(True)),
            "array": np.arange(4).reshape(2, 2),
        }
        path = str(tmp_path / "report.json")
        fileio.write_report_json(path, report)
        assert json.loads(open(path).read()) == {
            "row": {"token_class": "numeric", "count": 3, "w2r": 1, "r2w": 0,
                    "net_corrected": 1, "share_of_net": None},
            "scalars": [float(np.float32(0.1)), 0.1, 7, True],
            "array": [[0, 1], [2, 3]],
        }

    def test_report_json_rejects_other_values(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            fileio.write_report_json(str(path), {"ids": {1, 2}})
        assert not path.exists()

    def test_metrics_csv(self, tmp_path):
        rows = [
            StepMetrics(step=0, ce=3.14159, mrp=-0.5, median_margin=0.25),
            StepMetrics(step=1, ce=2.71828, mrp=-0.75, median_margin=0.5),
        ]
        path = str(tmp_path / "metrics.csv")
        fileio.write_metrics_csv(path, rows)
        lines = open(path).read().splitlines()
        assert lines[0] == "step,ce,mrp,median_margin"
        assert lines[1].startswith("0,3.14159,")

    def test_atomic_write_replaces(self, tmp_path):
        path = str(tmp_path / "file.txt")
        fileio.atomic_write_text(path, "one")
        fileio.atomic_write_text(path, "two")
        assert open(path).read() == "two"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_take_the_mode_open_gives(self, tmp_path, umask):
        # One writer of each kind: logits, audit, report, CSV, checkpoint.
        cfg = ToyLmConfig(vocab_size=32, hidden_dim=16, layers=1, heads=2, context=8)
        writers = {
            "logits.bin": lambda p: fileio.write_logits(p, np.eye(3)),
            "audit.jsonl": lambda p: fileio.write_audit(p, records(5, np.random.default_rng(0))),
            "report.json": lambda p: fileio.write_report_json(p, {"beta": 1.0}),
            "metrics.csv": lambda p: fileio.write_metrics_csv(p, []),
            "model.ckpt": lambda p: fileio.save_checkpoint(p, ToyLm(cfg, seed=5)),
        }
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            for name, write in writers.items():
                write(str(tmp_path / name))
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["plain", *writers], 0o666 & ~umask)
