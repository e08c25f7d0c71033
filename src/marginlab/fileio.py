"""File formats: logits containers, audit JSONL, checkpoints, reports.

Formats are designed for bit-exact round trips:

* LogitsContainer: one JSON header line + a raw little-endian payload
  (``f32`` or ``bf16``).  bf16 payloads store the top 16 bits of the
  rounded float32 pattern and widen exactly on read.
* AuditFile: JSONL; a header line followed by one margin record per
  line.  Floats are written as ``repr`` writes them, the shortest text
  that round-trips the float64.  The writer encodes a block of records at
  a time as columns, rendering ids by digit arithmetic and each distinct
  margin once by integer arithmetic (Schubfach), to the bytes ``repr``
  gives; blocks are encoded two at a time, one per worker thread, and
  written in order.  Its bytes are those of ``json.dumps(record,
  sort_keys=True)`` per line.  Record lines in the writer's exact form
  are read as columns; any other valid JSONL is read through ``json`` to
  the same result.  The
  columnar reader computes a margin of at most 19 significant digits and
  a decimal exponent in [-22, 22] exactly by integer arithmetic, and casts
  the rare other texts with numpy; either way it gets the bits ``float``
  gives.  ``compare`` and ``gap-fit`` hash their inputs (``file_digest``)
  on a worker thread while the audits are parsed.
* Targets: a JSON array of token ids.  One in ``json.dumps``'s default
  form is read as columns (``read_id_array``); the caller reads any other
  through ``json``.
* Checkpoint: one JSON header line (config, seed, step, parameter
  manifest) + the model's one parameter buffer as raw little-endian
  float64, which holds the parameters in manifest order.

All writes are atomic (temp file in the target directory + rename).
The ``created`` stamp honors the ``SOURCE_DATE_EPOCH`` convention so
that repeated runs with identical seeds produce identical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, astuple, is_dataclass
from enum import Enum

import numpy as np

from .errors import DataError, UsageError
from .margins import Audit
from .precision import emulate_bf16
from .toylm import ToyLm, ToyLmConfig

AUDIT_VERSION = 1
CHECKPOINT_VERSION = 2

_LOGITS_DTYPES = {"f32": 4, "bf16": 2}


def atomic_write_bytes(path: str, data: bytes | Iterable[bytes]) -> None:
    """Write ``data``, or its chunks one after another, to a temp file in
    the target directory, then rename that over ``path``.  The file is
    created with mode 0o666 less the umask, as ``open`` would create it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # 64 random bits name the file; O_EXCL refuses one that exists.
    tmp = os.path.join(directory, f".tmp-marginlab-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in (data,) if isinstance(data, bytes) else data:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def created_stamp() -> str:
    """ISO-8601 UTC stamp; SOURCE_DATE_EPOCH overrides the wall clock so
    reproducible pipelines can emit identical bytes.  A value that is not
    an integer the clock can represent is a ``UsageError``."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = time.gmtime(int(epoch) if epoch else int(time.time()))
    except (ValueError, OverflowError, OSError):
        raise UsageError(f"SOURCE_DATE_EPOCH must be an integer number of seconds "
                         f"within the clock's range, got {epoch!r}") from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The most worker threads ``in_threads`` starts: the count its speed-up was
# measured at.  The span work holds the GIL between numpy calls, so more
# threads are not known to be faster, and each holds a block buffer, so
# uncapped the memory of the audit commands would grow with the host's cores.
_MAX_WORKERS = 2


def in_threads(work: Callable[[int, int], object], units: int) -> list:
    """``work(lo, hi)`` over ``range(units)`` cut into one contiguous span
    per worker thread, the smallest of the usable CPUs, ``_MAX_WORKERS``
    and ``units`` (the caller's thread runs the first span).  Returns the
    results in span order, and raises what the lowest span that failed
    raised, so the outcome is the serial ``[work(0, units)]``'s when spans
    share nothing."""
    workers = max(1, min(usable_cpus(), _MAX_WORKERS, units))
    if workers == 1:
        return [work(0, units)]
    # Imported here: concurrent.futures adds about 0.5 MiB to a process,
    # and the commands that never cut spans should not pay it.
    from concurrent.futures import ThreadPoolExecutor

    cuts = [units * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(work, lo, hi) for lo, hi in zip(cuts[1:], cuts[2:])]
        return [work(0, cuts[1])] + [f.result() for f in rest]


# ---------------------------------------------------------------------------
# logits container
# ---------------------------------------------------------------------------


def write_logits(
    path: str,
    matrix: np.ndarray,
    dtype: str = "f32",
    corpus_id: str = "",
    model_id: str = "",
) -> None:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise UsageError(f"logits container holds a 2-D matrix, got shape {arr.shape}")
    if dtype not in _LOGITS_DTYPES:
        raise UsageError(f"dtype must be one of {sorted(_LOGITS_DTYPES)}")
    header = {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "dtype": dtype,
        "layout": "row-major-le",
        "corpus_id": corpus_id,
        "model_id": model_id,
    }
    if dtype == "f32":
        payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    else:
        rounded = emulate_bf16(np.asarray(arr, dtype=np.float32))
        bits = rounded.view(np.uint32) >> np.uint32(16)
        payload = bits.astype("<u2").tobytes()
    atomic_write_bytes(
        path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    )


# A block of about 1 MiB of float32 rows (512 at V = 512) keeps its selection
# passes in cache and is long enough that numpy releases the GIL for most of
# its work, so spans of blocks scale across threads (at 256 KiB two threads
# ran slower than one); the row floor keeps a wide vocabulary from tiny blocks.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 32


def logits_block_rows(cols: int) -> int:
    """Rows in a default block of a ``cols``-wide container."""
    return max(_BLOCK_BYTES // (4 * cols), _MIN_BLOCK_ROWS)


def read_logits_blocks(
    path: str, block_rows: int | None = None, span: tuple[int, int] | None = None
) -> tuple[dict, Iterator[np.ndarray]]:
    """Checks the header and payload size, then returns (header, float32
    blocks of ``block_rows`` rows, default ``logits_block_rows``) of rows
    ``span`` = (lo, hi), default all, cut from lo.  bf16 widens exactly.
    Blocks share one buffer and one file handle, which each call has to
    itself: a block is valid until the next is read."""
    with open(path, "rb") as f:
        line = f.readline()
        size = os.fstat(f.fileno()).st_size - len(line)
    if not line.endswith(b"\n"):
        raise DataError(f"{path}: missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: unparseable header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    for key in ("rows", "cols", "dtype", "layout"):
        if key not in header:
            raise DataError(f"{path}: header missing {key!r}")
    if header["layout"] != "row-major-le":
        raise DataError(f"{path}: unsupported layout {header['layout']!r}")
    dtype = header["dtype"]
    if dtype not in _LOGITS_DTYPES:
        raise DataError(f"{path}: unsupported dtype {dtype!r}")
    rows, cols = header["rows"], header["cols"]
    if not all(type(v) is int and v >= 0 for v in (rows, cols)):
        raise DataError(f"{path}: rows and cols must be non-negative integers")
    expected = rows * cols * _LOGITS_DTYPES[dtype]
    if size != expected:
        raise DataError(f"{path}: payload is {size} bytes, expected {expected}")
    if rows * cols == 0:
        raise DataError(f"{path}: empty logits container")
    first, last = span or (0, rows)
    block_rows = min(block_rows or logits_block_rows(cols), rows)

    def blocks() -> Iterator[np.ndarray]:
        buf = np.empty((block_rows, cols), dtype="<f4" if dtype == "f32" else "<u2")
        with open(path, "rb") as f:
            f.seek(len(line) + first * cols * _LOGITS_DTYPES[dtype])
            for lo in range(first, last, block_rows):
                part = buf[: min(block_rows, last - lo)]
                if f.readinto(part) != part.nbytes:
                    raise DataError(f"{path}: payload shorter than {expected} bytes")
                if dtype == "bf16":
                    part = np.left_shift(part, np.uint32(16), dtype=np.uint32).view(np.float32)
                yield part

    return header, blocks()


def read_logits(path: str) -> tuple[np.ndarray, dict]:
    """Returns (float32 matrix, header): ``read_logits_blocks`` in one block."""
    header, blocks = read_logits_blocks(path, block_rows=sys.maxsize)
    return next(blocks), header


# ---------------------------------------------------------------------------
# audit JSONL
# ---------------------------------------------------------------------------


# A record line, byte for byte what json.dumps(record, sort_keys=True) writes
# for a record whose margin is finite: the start, which holds `correct`; five
# key segments, each from a comma through the ": " after its key and followed
# by the value of an Audit column; then the end.  The writer lays lines out
# from these bytes and the columnar reader checks them.
_LINE_STARTS = (b'{"correct": false', b'{"correct": true')
_KEY_SEGMENTS = (b', "margin": ', b', "position_index": ', b', "target_id": ',
                 b', "top1_id": ', b', "top2_id": ')
_LINE_END = b"}\n"
# The Audit column whose value follows each key segment.
_SEGMENT_COLUMNS = ("margin", "position", "target", "top1", "top2")
# Record keys in Audit column order, with the JSON types each accepts.
_RECORD_KEYS = (
    ("position_index", (int,)),
    ("target_id", (int,)),
    ("top1_id", (int,)),
    ("top2_id", (int,)),
    ("margin", (float, int)),
    ("correct", (bool,)),
)
_INVARIANTS = "margin finite and >= 0, top1_id != top2_id, correct == (top1_id == target_id)"
# Records per encoded chunk of an audit file: bounds the writer's memory.
_WRITE_BLOCK = 16_384


def _id_texts(column: np.ndarray) -> np.ndarray:
    """The decimal texts of an int64 column, what ``repr`` writes, each
    right-aligned in a NUL-padded ``V{w}`` field as wide as the longest.
    The digits are peeled off the magnitudes right to left, in the smallest
    unsigned type that holds them (|int64 min| = 2**63 fits a uint64); a
    minus goes just before the first digit of each negative."""
    negative = column < 0
    magnitude = np.where(negative, np.negative(column.view(np.uint64)), column.view(np.uint64))
    top = int(magnitude.max(initial=0))
    magnitude = magnitude.astype(np.min_scalar_type(top))
    ten = magnitude.dtype.type(10)
    width = len(str(top)) + bool(negative.any())
    text = np.zeros((column.size, width), np.uint8)
    high = magnitude // ten  # remainders as x - x // 10 * 10: numpy's % is many times slower
    text[:, -1] = magnitude - high * ten + ord("0")  # the last digit, a zero's only one
    for j in range(width - 2, -1, -1):
        magnitude, high = high, high // ten
        text[:, j] = (magnitude - high * ten + ord("0")) * (magnitude > 0)
    rows = np.flatnonzero(negative)
    text[rows, (text[rows] != 0).argmax(axis=1) - 1] = ord("-")
    return text.view(f"V{width}")[:, 0]


# Margins are written as repr writes a float: the shortest decimal that reads
# back to it and, of those, the closest, ties to an even last digit.  Schubfach
# (Giulietti 2020, "The Schubfach way to render doubles") finds it in uint64
# arithmetic; its operands stay uint64, as a mix with int64 becomes float64.
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_HALF = np.uint64(2**32 - 1)


@functools.cache
def _pow10_g() -> tuple[np.ndarray, np.ndarray]:
    """The top and bottom 63 bits of g = floor(10**-k * 2**(125 - f)) + 1,
    f = floor(log2 10**-k), for k in [-324, 292]: 10**-k to 126 bits, rounded up."""
    g = [(10 ** max(-k, 0) << max(125 - f, 0)) // (10 ** max(k, 0) << max(f - 125, 0)) + 1
         for k in range(-324, 293) for f in [-k * 913124641741 >> 38]]
    return np.array([x >> 63 for x in g], np.uint64), np.array([x & 2**63 - 1 for x in g], np.uint64)


def _mul_high(a0, a1, b0, b1):
    """The top 64 bits of the 128-bit products a * b, given their 32-bit halves."""
    t = (a0 * b0 >> np.uint64(32)) + a1 * b0
    return a1 * b1 + (t >> np.uint64(32)) + ((t & _HALF) + a0 * b1 >> np.uint64(32))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k): d * 10**k is repr's decimal for each positive finite float64
    pattern, d maybe ending in zeros.  With the Java reference's names: v =
    c * 2**q reads back from between the midpoints to its neighbours (ends
    included for even c); vb, vbl and vbr are v and those ends times 4 *
    10**-k, rounded to odd, for 10**k <= 2**q.  The candidates are s =
    floor(vb / 4) and s + 1, and the multiples of ten next to s."""
    u1, u2, u32 = np.uint64(1), np.uint64(2), np.uint64(32)
    be = (bits >> np.uint64(52)).astype(np.int64)
    c = (bits & np.uint64(2**52 - 1)) + (be > 0) * np.uint64(2**52)
    irregular = (c == 2**52) & (be > 1)  # the gap below v is half the one above
    q = np.maximum(be, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10 of 2**q or 3/4 * 2**q)
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)  # q + floor(log2 10**-k) + 2
    g1, g0 = (part[k + 324] for part in _pow10_g())
    halves = g0 & _HALF, g0 >> u32, g1 & _HALF, g1 >> u32

    def round_to_odd(cp):  # g * cp / 2**127, its last bit set if inexact
        cp = cp << h
        b0, b1 = cp & _HALF, cp >> u32
        z = (g1 * cp >> u1) + _mul_high(*halves[:2], b0, b1)
        return _mul_high(*halves[2:], b0, b1) + (z >> np.uint64(63)) | (z << u1 != 0)

    cb, odd = c << u2, c & u1
    vb, vbl, vbr = round_to_odd(cb), round_to_odd(cb - u2 + irregular) + odd, round_to_odd(cb + u2) - odd
    s = vb >> u2
    sp = s // np.uint64(10) * np.uint64(10)
    upin, wpin = vbl <= sp << u2, sp + np.uint64(10) << u2 <= vbr  # is each shorter one inside?
    mid = (s << u2) + u2
    d = s + (((vb > mid) | ((vb == mid) & (s & u1 == 1)) | (vbl > s << u2)) & (s + u1 << u2 <= vbr))
    return d + (sp + wpin * np.uint64(10) - d) * (upin != wpin), k


def _margin_texts(bits: np.ndarray) -> np.ndarray:
    """repr's text of each float64 pattern in ``bits`` (finite and >= 0,
    -0.0 included), left-aligned in NUL-padded ``V{w}`` fields as wide as the
    longest.  A value's 17 digits, NULs after its significant ones, go down
    its column, in blocks of values with the point in one place (few, for
    ascending input); an exponent goes over a one-digit mantissa's ".0"."""
    zero = bits << np.uint64(1) == 0
    d, k = _shortest(bits)
    d *= ~zero
    count = np.searchsorted(_POW10, d, "right")
    point = count + k * ~zero  # digits before the point, or minus the zeros after it
    d *= _POW10[17 - count]
    high = d // np.uint64(10**9)  # digits as x - x // 10 * 10: numpy's % is many times slower
    digits = np.empty((17, bits.size), np.uint8)
    for x, rows in ((high, range(7, -1, -1)), (d - high * np.uint64(10**9), range(16, 7, -1))):
        x = x.astype(np.uint32)
        for j in rows:
            high = x // np.uint32(10)
            digits[j], x = x - high * np.uint32(10), high
    ends = ((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    digits += (np.arange(17, dtype=np.uint8)[:, None] < ends) * np.uint8(ord("0"))
    sci = (point < -3) | (point > 16)
    place = np.where(sci, 1, point)
    size = np.where(place > 0, np.maximum(ends, place + 1) + 1, 2 - place + np.maximum(ends, 1))
    text = np.zeros((23, bits.size), np.uint8)
    cuts = np.flatnonzero(np.diff(place, prepend=99, append=99))
    for a, b in zip(cuts[:-1], cuts[1:]):
        p, out, value = int(place[a]), text[:, a:b], digits[:, a:b]
        if p > 0:  # "12.5", "1200.0"
            out[:p], out[p + 1 : 18] = np.maximum(value[:p], ord("0")), value[p:]
        else:  # "0.0", "0.0125"
            out[[0, *range(2, 2 - p)]], out[2 - p : 19 - p] = ord("0"), value
        out[max(p, 1)], out[max(p, 1) + 1] = ord("."), np.maximum(out[max(p, 1) + 1], ord("0"))
    rows = np.flatnonzero(sci)  # "1e-05", "1.25e+16": below 100 the sign covers a zero
    e, at = np.abs(point[rows] - 1), ends[rows] + (ends[rows] > 1)
    for i, digit in enumerate([e // 100, e // 10 % 10, e % 10]):
        text[at + 1 + (e >= 100) + i, rows] = digit + ord("0")
    text[at, rows], text[at + 1, rows] = ord("e"), np.where(point[rows] > 0, ord("+"), ord("-"))
    size[rows] = at + 4 + (e >= 100)
    rows = np.flatnonzero(bits == np.uint64(2**63))
    text[:4, rows], size[rows] = np.frombuffer(b"-0.0", np.uint8)[:, None], 4
    width = int(size.max(initial=1))
    return np.ascontiguousarray(text[:width].T).view(f"V{width}")[:, 0]


def _record_lines(part: Audit) -> bytes:
    """The record lines of ``part``, laid out as rows of NUL-padded fields,
    each as wide as its longest text; one compress drops the NULs.  The ids
    are rendered by ``_id_texts``.  The margins are told apart by their
    64-bit patterns, so -0.0 and 0.0 stay apart, and each distinct one is
    formatted once by ``_margin_texts``, to the text json writes for a
    finite float."""
    fields = [np.array(_LINE_STARTS)[part.correct.view(np.uint8)]]
    for segment, name in zip(_KEY_SEGMENTS, _SEGMENT_COLUMNS):
        column = getattr(part, name)
        if name == "margin":
            bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
            texts = _margin_texts(bits)[inverse]
        else:
            texts = _id_texts(column)
        fields += [np.array(segment), texts]
    fields.append(np.array(_LINE_END))
    line = np.empty(len(part), [(str(i), f.dtype) for i, f in enumerate(fields)])
    for i, f in enumerate(fields):
        line[str(i)] = f
    raw = line.view(np.uint8)
    return raw[raw != 0].tobytes()


def write_audit(
    path: str,
    audit: Audit,
    dtype: str = "f32",
    tau: float | None = None,
    seed: int | None = None,
    created: str | None = None,
) -> None:
    """Write an audit as JSONL.  A record that breaks an invariant, or a
    header value that ``read_audit`` would refuse, is a ``UsageError``
    raised before any file is created."""
    bad = audit.first_invalid()
    if bad is not None:
        raise UsageError(f"record {bad} {audit[bad]} breaks {_INVARIANTS}")
    header = {
        "version": AUDIT_VERSION,
        "count": len(audit),
        "dtype": dtype,
        "tau": tau,
        "created": created if created is not None else created_stamp(),
        "seed": seed,
    }
    for key, accepts, rule in _HEADER_FIELDS:
        if not accepts(header[key]):
            raise UsageError(f"audit {key} {header[key]!r} is not {rule}")

    starts = range(0, len(audit), _WRITE_BLOCK)

    def chunks():
        # Chunks are encoded _MAX_WORKERS at a time, one per worker thread:
        # numpy does the work and releases the GIL.  Each group is written
        # before the next is encoded, which bounds the chunks held.
        yield (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        for i in range(0, len(starts), _MAX_WORKERS):
            group = starts[i : i + _MAX_WORKERS]
            encoded = in_threads(lambda lo, hi: [_record_lines(audit[a : a + _WRITE_BLOCK]) for a in group[lo:hi]],
                                 len(group))
            while encoded:
                yield from encoded.pop(0)

    atomic_write_bytes(path, chunks())


# The columnar reader takes a record line only in the writer's exact form (see
# _LINE_STARTS): its 16th byte, the "e" of true or the "s" of false, gives
# `correct`; the first comma follows that start, and the start, each key
# segment at its comma and the end are compared as bytes.
_CORRECT_AT = len(_LINE_STARTS[1]) - 1
_SEG_LENGTHS = np.array([len(s) for s in _KEY_SEGMENTS])
_ID_DIGITS = 19  # an int64 has at most 19 decimal digits
_MARGIN_WIDTH = 24  # the longest float64 repr: -1.2345678901234567e-308
# Margins must match the JSON number grammar with a fraction, a signed exponent
# or both, as repr(float) writes them; the DFA runs over byte classes:
# 0 past the margin's end (NUL), 1 '-', 2 '0', 3 '1'-'9', 4 '.', 5 'e', 6 '+', 7 other.
_BYTE_CLASS = np.full(256, 7, np.uint8)
_BYTE_CLASS[list(b"\0-0123456789.e+")] = [0, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 6]
# States, the six entered on a digit first: 0 the integer part "0", 1 fraction
# zeros after "0.", 2 other fraction digits, 3 other integer digits, 4 and 5
# exponent digits after "e+" and "e-"; 6 start, 7 sign, 8 "." after "0", 9
# other ".", 10 "e", 11 "e+", 12 "e-", 13 accepted, 14 dead.
_NUMBER_DFA = np.array([
    # end '-' '0' 1-9 '.' 'e' '+' other
    [14, 14, 14, 14, 8, 10, 14, 14],
    [13, 14, 1, 2, 14, 10, 14, 14],
    [13, 14, 2, 2, 14, 10, 14, 14],
    [14, 14, 3, 3, 9, 10, 14, 14],
    [13, 14, 4, 4, 14, 14, 14, 14],
    [13, 14, 5, 5, 14, 14, 14, 14],
    [14, 7, 0, 3, 14, 14, 14, 14],
    [14, 14, 0, 3, 14, 14, 14, 14],
    [14, 14, 1, 2, 14, 14, 14, 14],
    [14, 14, 2, 2, 14, 14, 14, 14],
    [14, 12, 14, 14, 14, 14, 11, 14],
    [14, 14, 4, 4, 14, 14, 14, 14],
    [14, 14, 5, 5, 14, 14, 14, 14],
    [13, 14, 14, 14, 14, 14, 14, 14],
    [14] * 8,
], np.uint16)
_DIGIT_STATES, _START, _ACCEPT = 6, 6, 13
# The walk keeps states shifted left 8 bits and steps on (state << 8) + byte.
_STEP = (_NUMBER_DFA[:, _BYTE_CLASS] << 8).ravel()
# Counts each state adds as it is entered, one byte each: fraction digits,
# exponent digits, digits from the first nonzero one on (they bound all the
# digits read as one decimal), and digits of a negative exponent.
_FRACTION, _EXPONENT, _SIGNIFICANT, _NEGATIVE = 1, 1 << 8, 1 << 16, 1 << 24
_STATE_COUNTS = np.array([0, _FRACTION, _FRACTION + _SIGNIFICANT, _SIGNIFICANT,
                          _EXPONENT + _SIGNIFICANT, _EXPONENT + _SIGNIFICANT + _NEGATIVE] + [0] * 9,
                         np.uint32)
_COUNT_STEP = _STATE_COUNTS[_NUMBER_DFA[:, _BYTE_CLASS]].ravel()
_EXACT_POW10 = 10.0 ** np.arange(23)  # the powers of ten a float64 holds exactly
# For k in [0, 22], y_k and 5**k shifted left y_k bits into [2**51, 2**52).
_FIVES_SHIFT = np.array([52 - (5**k).bit_length() for k in range(23)])
_FIVES = np.array([5**k << int(y) for k, y in enumerate(_FIVES_SHIFT)], np.uint64)
# Bytes per slice of the newline scan: bounds its temporaries.
_SCAN_BYTES = 1 << 20


def _windows(buf: np.ndarray, width: int, at: np.ndarray) -> np.ndarray:
    """Copies of the ``width`` bytes of ``buf`` from each offset in ``at``."""
    return np.lib.stride_tricks.sliding_window_view(buf, width)[at]


def _decimals(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The int64 values of the texts ``buf[lo:hi]`` for each pair of ``lo``
    and ``hi``, arrays of any one shape, each end at least ``_ID_DIGITS``
    bytes into ``buf``; None unless each text is a non-negative decimal of
    1 to 19 digits, with no leading zero, within int64."""
    width = hi - lo
    if not ((width >= 1) & (width <= _ID_DIGITS) & ((buf[lo] != ord("0")) | (width == 1))).all():
        return None
    w = int(width.max())
    digits = _windows(buf, w, hi - w) - np.uint8(ord("0"))  # right-aligned
    digits *= np.arange(w) >= (w - width)[..., None]  # clear what precedes each text
    if (digits > 9).any():
        return None
    values = np.zeros(width.shape, np.uint64)
    for column in np.moveaxis(digits, -1, 0):
        values = values * np.uint64(10) + column
    if (values > np.iinfo(np.int64).max).any():
        return None
    return values.astype(np.int64)


def _cast_margins(text: np.ndarray) -> np.ndarray:
    """The float64 values of margin texts, rows of ``text`` each followed by
    NULs, by numpy's bytes cast (correctly rounded): ``_margins``' path for
    the texts its integer arithmetic leaves."""
    return text.view(f"S{text.shape[1]}")[:, 0].astype(np.float64)


def _quotient(sig: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sig / 10**k`` correctly rounded, for uint64 ``sig`` above 2**53 and
    ``k`` in [1, 22].  sig, shifted into [2**62, 2**64), is divided by 5**k,
    shifted into [2**51, 2**52), in 12-bit steps of long division to a
    quotient of 59 to 61 bits and a remainder, which round it half to even to
    53 bits; ldexp undoes the shifts and divides by 2**k."""
    z = 64 - np.frexp(sig.astype(np.float64))[1]  # one less when the float rounded up
    rem, five = sig << z.astype(np.uint64), _FIVES[k]
    q = rem // five
    rem -= q * five
    for _ in range(4):
        rem <<= np.uint64(12)
        digit = rem // five
        rem -= digit * five
        q = q << np.uint64(12) | digit
    cut = np.uint64(6) + (q >= 2**59) + (q >= 2**60)  # the bits below the 53 kept
    mant = q >> cut
    low, half = q - (mant << cut), np.uint64(1) << (cut - np.uint64(1))
    mant += (low > half) | ((low == half) & ((rem != 0) | (mant & np.uint64(1) == 1)))
    return np.ldexp(mant.astype(np.float64), cut.astype(np.int64) + _FIVES_SHIFT[k] - z - 48 - k)


def _margins(text: np.ndarray) -> np.ndarray | None:
    """The float64 values of the margin texts in the rows of ``text``, each
    followed by a NUL, bit for bit what ``float`` reads; None unless each
    matches the number grammar.  One DFA walk over the columns checks it,
    reads all of a text's digits (the exponent's last) as one uint64 and
    counts its kinds of digit.  A text of value sig * 10**q with at most 19
    digits from its first nonzero one and q in [-22, 22] is then read exactly:
    for sig <= 2**53 by one float64 product or quotient of exact operands, for
    q < 0 by ``_quotient``.  ``_cast_margins`` reads the others."""
    state = np.full(len(text), _START << 8, np.uint16)
    digits = np.zeros(len(text), np.uint64)
    counts = np.zeros(len(text), np.uint32)
    for column in np.ascontiguousarray(text.T):
        step = state + column
        state = np.take(_STEP, step, mode="clip")  # every step is in range: "clip" checks none
        counts += np.take(_COUNT_STEP, step, mode="clip")
        digit = state < _DIGIT_STATES << 8
        digits *= np.uint8(1) + np.uint8(9) * digit
        digits += (column - np.uint8(ord("0"))) * digit
    if not (state == _ACCEPT << 8).all():
        return None
    scale = np.take(_POW10, (counts >> 8) & 255, mode="clip")  # split off the exponent
    sig = digits // scale
    exponent = np.minimum(digits - sig * scale, 999).astype(np.int64)
    q = np.where(counts >> 24, -exponent, exponent) - (counts & 255).astype(np.int64)
    exact = ((counts >> 16) & 255 <= 19) & (q >= -22) & (q <= 22)
    fast, divide = exact & (sig <= 2**53), exact & (sig > 2**53) & (q < 0)
    whole, power = sig.astype(np.float64), np.take(_EXACT_POW10, np.abs(q), mode="clip")
    value = np.where(q < 0, whole / power, whole * power)
    if divide.any():
        value[divide] = _quotient(sig[divide], -q[divide])
    np.negative(value, out=value, where=text[:, 0] == ord("-"))
    cast = ~(fast | divide)
    if cast.any():
        value[cast] = _cast_margins(text[cast])
    return value


def _record_block(buf: np.ndarray, ends: np.ndarray):
    """(ids [4, L], margins, correct) of the L record lines that end at
    ``ends`` in ``buf`` (zeros after the last); None unless each line is in
    the writer's exact form."""
    n = ends.size
    starts = np.concatenate(([0], ends[:-1] + 1))
    comma = np.flatnonzero(buf == ord(","))
    if comma.size != n * len(_KEY_SEGMENTS):
        return None
    comma = comma.reshape(n, len(_KEY_SEGMENTS))
    correct = buf[starts + _CORRECT_AT] == ord("e")
    texts = [(starts[~correct], _LINE_STARTS[0]), (starts[correct], _LINE_STARTS[1]),
             *zip(comma.T, _KEY_SEGMENTS), (ends - 1, _LINE_END)]
    if not (comma[:, 0] == starts + len(_LINE_STARTS[0]) - correct).all() or not all(
        (_windows(buf, len(text), at) == np.frombuffer(text, np.uint8)).all() for at, text in texts
    ):
        return None

    # Each value runs from the end of its key segment to the next comma or
    # "}".  None is empty, so no row of commas runs into the next line, and a
    # line with an extra comma fails a check of its bytes.
    lo, hi = comma + _SEG_LENGTHS, np.column_stack((comma[:, 1:], ends - 1))
    width = hi - lo
    if not (width >= 1).all():
        return None

    ids = _decimals(buf, lo[:, 1:], hi[:, 1:])
    if ids is None:
        return None

    lo, width = comma[:, 0] + _SEG_LENGTHS[0], comma[:, 1] - comma[:, 0] - _SEG_LENGTHS[0]
    text = _windows(buf, _MARGIN_WIDTH + 1, lo)
    text *= np.arange(_MARGIN_WIDTH + 1) < width[:, None]  # clear what follows each margin
    if np.count_nonzero(text) != width.sum():  # a NUL inside one, or one too long
        return None
    margin = _margins(text[:, : width.max() + 1])
    return None if margin is None else (ids.T, margin, correct)


def _record_columns(raw: bytes, start: int) -> Audit | None:
    """The audit of the record lines in ``raw[start:]``, read as columns in
    blocks of ``_WRITE_BLOCK`` lines, spans of blocks in threads; None unless
    every line is a record line in the writer's exact form (see
    ``_record_block``) ending in a newline."""
    body = np.frombuffer(raw, np.uint8, offset=start)
    ends = np.concatenate([np.empty(0, np.intp)] + [
        np.flatnonzero(body[a : a + _SCAN_BYTES] == ord("\n")) + a
        for a in range(0, body.size, _SCAN_BYTES)
    ])
    if body.size and (not ends.size or ends[-1] != body.size - 1):
        return None
    firsts = np.concatenate(([0], ends[_WRITE_BLOCK - 1 :: _WRITE_BLOCK] + 1))
    longest = int(np.diff(firsts, append=body.size).max(initial=0))
    blocks = list(zip(range(0, ends.size, _WRITE_BLOCK), firsts.tolist()))
    ids, margin, correct = np.empty((4, ends.size), np.int64), np.empty(ends.size), np.empty(ends.size, bool)

    def read_span(a: int, b: int) -> bool:
        # One buffer for the span's blocks, with zeros after each for the windows.
        buf = np.zeros(longest + _MARGIN_WIDTH + 1, np.uint8)
        for lo, first in blocks[a:b]:
            hi = min(lo + _WRITE_BLOCK, ends.size)
            size = ends[hi - 1] + 1 - first
            buf[:size] = body[first : first + size]
            buf[size:] = 0
            block = _record_block(buf, ends[lo:hi] - first)
            if block is None:
                return False
            ids[:, lo:hi], margin[lo:hi], correct[lo:hi] = block
        return True

    return Audit(*ids, margin, correct) if all(in_threads(read_span, len(blocks))) else None


def _record_row(obj) -> list:
    """The values of one parsed record line in Audit column order, the margin a
    float; KeyError, TypeError, ValueError or OverflowError for a missing key,
    a wrong type, an id outside int64 or a margin too large for a float."""
    row = [obj[key] for key, _ in _RECORD_KEYS]
    for (key, types), value in zip(_RECORD_KEYS, row):
        if type(value) not in types:
            raise TypeError(f"{key!r} must be {' or '.join(t.__name__ for t in types)}")
        if types == (int,) and not -(2**63) <= value < 2**63:
            raise ValueError(f"{key!r} {value} is outside int64")
    row[4] = float(row[4])
    return row


# Header fields beyond version and count, checked by the writer and, when
# present, by the reader: (key, accepts, what it must be).
_HEADER_FIELDS = (
    ("dtype", lambda v: v in ("f32", "bf16"), "'f32' or 'bf16'"),
    ("seed", lambda v: v is None or (type(v) is int and 0 <= v < 2**63),
     "null or an integer in [0, 2**63)"),
    ("tau", lambda v: v is None or type(v) is int or (type(v) is float and math.isfinite(v)),
     "null or a finite number"),
    ("created", lambda v: type(v) is str, "a string"),
)


def _audit_header(path: str, line: str, records: int) -> dict:
    """The parsed header line of an audit with ``records`` record lines;
    a ``DataError`` that names the field for a bad one."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: unparseable audit header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: audit header is not a JSON object")
    # type() rejects true and 1.0, which == would take for 1.
    if type(header.get("version")) is not int or header["version"] != AUDIT_VERSION:
        raise DataError(
            f"{path}: audit version {header.get('version')!r} is not {AUDIT_VERSION}"
        )
    if type(header.get("count")) is not int or header["count"] != records:
        raise DataError(
            f"{path}: audit count {header.get('count')!r} is not {records}, "
            f"the number of record lines"
        )
    for key, accepts, rule in _HEADER_FIELDS:
        if key in header and not accepts(header[key]):
            raise DataError(f"{path}: audit {key} {header[key]!r} is not {rule}")
    return header


def _json_records(path: str, raw: bytes) -> tuple[dict, Audit, list[int]]:
    """(header, audit, file line number of each record) of any valid JSONL
    audit, parsed line by line with ``json``; blank lines are skipped but
    counted, and a ``DataError`` names the first bad line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln]
    if not lines:
        raise DataError(f"{path}: empty audit file")
    header = _audit_header(path, lines[0][1], len(lines) - 1)
    rows = []
    for n, ln in lines[1:]:
        try:
            rows.append(_record_row(json.loads(ln)))
        except (ValueError, KeyError, TypeError, OverflowError) as e:
            raise DataError(f"{path}: bad record on line {n}: {e!r}") from e
    audit = Audit(*(zip(*rows) if rows else [()] * len(_RECORD_KEYS)))
    return header, audit, [n for n, _ in lines[1:]]


def read_audit(path: str) -> tuple[Audit, dict]:
    """Returns (audit, header).  A file in the writer's exact form is read
    as columns; any other goes through ``json`` line by line, which reads
    every valid JSONL audit alike and names the first bad line."""
    with open(path, "rb") as f:
        raw = f.read()
    cut = raw.find(b"\n")
    try:
        head = raw[:cut].decode("utf-8") if cut > 0 else ""
    except UnicodeDecodeError:
        head = ""
    # A header line holding another line break is left to json's splitlines.
    audit = _record_columns(raw, cut + 1) if head.splitlines() == [head] else None
    if audit is None:
        header, audit, line_numbers = _json_records(path, raw)
    else:
        header, line_numbers = _audit_header(path, head, len(audit)), range(2, len(audit) + 2)
    bad = audit.first_invalid()
    if bad is not None:
        raise DataError(
            f"{path}: bad record on line {line_numbers[bad]}: {audit[bad]} breaks {_INVARIANTS}"
        )
    return audit, header


def read_id_array(path: str) -> np.ndarray | None:
    """The int64 ids in ``path`` if it holds a JSON array in ``json.dumps``'s
    default form: "[", non-negative decimals with no leading zeros, each
    within int64 and followed by ", " but the last, then "]".  Read as
    columns by ``_decimals``; None for any other file, or one that cannot be
    read, which the caller parses with ``json``."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError:
        return None
    if raw[:1] != b"[" or raw[-1:] != b"]":
        return None
    # Zeros in front, so that each value ends _ID_DIGITS bytes into the buffer.
    buf = np.zeros(_ID_DIGITS + len(raw), np.uint8)
    buf[_ID_DIGITS:] = np.frombuffer(raw, np.uint8)
    comma = np.flatnonzero(buf == ord(","))
    if not (buf[comma + 1] == ord(" ")).all():
        return None
    return _decimals(buf, np.concatenate(([_ID_DIGITS + 1], comma + 2)),
                     np.append(comma, buf.size - 1))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _manifest(config: ToyLmConfig) -> list[dict]:
    return [{"name": name, "shape": list(shape), "dtype": "<f8"}
            for name, shape in config.shapes().items()]


def save_checkpoint(path: str, model: ToyLm, step: int = 0, train_config: dict | None = None) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": "marginlab-checkpoint",
        "config": asdict(model.config),
        "seed": model.seed,
        "step": int(step),
        "train_config": train_config,
        "params": _manifest(model.config),
    }
    # Every parameter is a view of model.values, in manifest order.
    atomic_write_bytes(path, [json.dumps(header, sort_keys=True).encode("utf-8") + b"\n",
                              model.values.astype("<f8", copy=False).tobytes()])


def load_checkpoint(path: str) -> tuple[ToyLm, dict]:
    """Returns (model, header).  The config, seed and parameter manifest
    must be what ``save_checkpoint`` writes for such a model, the payload
    exactly its parameters' bytes, and every value finite.  ``train_config``
    must be null or an object; ``train`` records its corpus's digest there."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: unparseable checkpoint header: {e}") from e
    if not isinstance(header, dict) or header.get("kind") != "marginlab-checkpoint":
        raise DataError(f"{path}: not a marginlab checkpoint")
    if type(header.get("version")) is not int or header["version"] != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: checkpoint version {header.get('version')!r} is not "
            f"{CHECKPOINT_VERSION}"
        )
    step = header.get("step")
    if type(step) is not int or step < 0:
        raise DataError(f"{path}: checkpoint step {step!r} is not a non-negative integer")
    config, seed = header.get("config"), header.get("seed")
    field_types = {key: type(v) for key, v in asdict(ToyLmConfig()).items()}
    if not isinstance(config, dict) or {k: type(v) for k, v in config.items()} != field_types:
        raise DataError(f"{path}: checkpoint config {config!r} does not match ToyLmConfig's fields and types")
    if type(seed) is not int or seed < 0:
        raise DataError(f"{path}: checkpoint seed {seed!r} is not a non-negative integer")
    train_config = header.get("train_config")
    if train_config is not None and not isinstance(train_config, dict):
        raise DataError(f"{path}: checkpoint train_config {train_config!r} is not null or a JSON object")
    try:
        config = ToyLmConfig(**config)
    except UsageError as e:
        raise DataError(f"{path}: bad checkpoint config: {e}") from e
    # The length first, so shapes() never loops over more layers than the file can hold.
    params = header.get("params")
    if not isinstance(params, list) or len(params) != 2 + 6 * config.layers or params != _manifest(config):
        raise DataError(f"{path}: parameter manifest does not match the config's parameters")
    if (size := len(raw) - nl - 1) != 8 * config.parameter_count:
        raise DataError(f"{path}: payload is {size} bytes, expected {8 * config.parameter_count}")
    model = ToyLm(config, seed, np.frombuffer(raw, dtype="<f8", offset=nl + 1).astype(np.float64))
    for name, p in model.params.items():
        if not np.isfinite(p.values).all():
            raise DataError(f"{path}: parameter {name!r} has non-finite values")
    return model, header


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _report_default(obj):
    """``json.dumps``'s hook for the non-JSON values a report holds."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report_json(path: str, report: dict) -> None:
    """``report`` as sorted, indented JSON; dataclasses, enums and numpy
    values in it are encoded as their fields, values and lists."""
    atomic_write_text(
        path, json.dumps(report, default=_report_default, sort_keys=True, indent=2) + "\n"
    )


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def write_csv(path: str, header: str, rows) -> None:
    """A header line, then one line per row.

    A row is a dataclass (its fields in order) or a tuple of values.  None
    is written as an empty field and a float with ``repr``.
    """
    lines = [header] + [
        ",".join(map(_csv_field, astuple(row) if is_dataclass(row) else row)) for row in rows
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_metrics_csv(path: str, metrics) -> None:
    write_csv(path, "step,ce,mrp,median_margin", metrics)
