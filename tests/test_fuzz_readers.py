"""Reader fuzzing: truncated or byte-flipped copies of a valid logits
container, audit JSONL, checkpoint, JSON map and targets array.

A reader either accepts the mutated file or raises ``DataError``; no other
exception escapes.  The CLI command that reads the file then exits 2 when
the reader refused it, and 0 or 2 otherwise (a flipped payload byte can
leave a well-formed file whose values a later check rejects).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import fileio
from marginlab.cli import main
from marginlab.errors import DataError
from marginlab.margins import compute_margins
from marginlab.toylm import ToyLm, ToyLmConfig

# Few examples per format keep the suite's time nearly unchanged;
# derandomize keeps every run on the same examples.
FUZZ = settings(max_examples=40, deadline=None, derandomize=True)


def _flip(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for i, x in edits:
        out[i] ^= x
    return bytes(out)


def mutants(data: bytes):
    """A strict prefix of ``data``, or ``data`` with 1 to 4 bytes XOR-ed,
    half the time all within the first line (the header, if it has one)."""
    n, header = len(data), data.find(b"\n") + 1 or len(data)
    cut = st.integers(0, n - 1).map(lambda i: data[:i])
    flips = st.sampled_from([header, n]).flatmap(
        lambda span: st.lists(
            st.tuples(st.integers(0, span - 1), st.integers(1, 255)), min_size=1, max_size=4
        )
    ).map(lambda edits: _flip(data, edits))
    return st.one_of(cut, flips)


def _reader_verdict(read, path: str) -> bool:
    """True if ``read(path)`` accepts the file; False if it raises DataError."""
    try:
        read(path)
    except DataError:
        return False
    return True


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(24, 8)).astype(np.float32)
    targets = rng.integers(0, 8, size=24)
    paths = {key: str(d / name) for key, name in (
        ("logits", "valid.logits"), ("targets", "targets.json"), ("audit", "valid.jsonl"),
        ("polished", "polished.jsonl"), ("checkpoint", "valid.ckpt"), ("counts", "counts.json"),
        ("corpus", "corpus.txt"), ("mutant", "mutant"), ("out", "out"),
    )}
    fileio.write_logits(paths["logits"], rows)
    with open(paths["targets"], "w") as f:
        json.dump(targets.tolist(), f)
    fileio.write_audit(paths["audit"], compute_margins(rows, targets), created="")
    fileio.write_audit(paths["polished"], compute_margins(rows + 0.25 * rows[::-1], targets),
                       created="")
    model = ToyLm(ToyLmConfig(vocab_size=16, hidden_dim=8, layers=1, heads=2, context=8), seed=0)
    fileio.save_checkpoint(paths["checkpoint"], model, step=3)
    with open(paths["counts"], "w") as f:
        json.dump({str(t): 5 + t for t in range(8)}, f)
    with open(paths["corpus"], "w") as f:
        f.write("the cat sat on the mat and the dog sat on the log " * 6)
    data = {}
    for key in ("logits", "targets", "audit", "checkpoint", "counts"):
        with open(paths[key], "rb") as f:
            data[key] = f.read()
    return paths, data


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)


def _exit_code_ok(argv, accepted: bool) -> None:
    rc = main(argv)
    assert rc in ((0, 2) if accepted else (2,)), (rc, accepted)


@pytest.mark.parametrize("fmt", ["logits", "audit", "checkpoint", "counts"])
def test_valid_files_are_accepted(files, fmt):
    # the unmutated files pass, so a refusal below comes from the mutation
    paths, data = files
    _write(paths["mutant"], data[fmt])
    argv = {
        "logits": ["audit", paths["mutant"], paths["targets"], paths["out"]],
        "audit": ["compare", paths["mutant"], paths["polished"], "--out-dir", paths["out"] + "d"],
        "checkpoint": ["layer-scan", paths["mutant"], paths["corpus"], paths["out"]],
        "counts": ["compare", paths["audit"], paths["polished"], "--out-dir", paths["out"] + "d",
                   "--freq-counts", paths["mutant"]],
    }[fmt]
    assert main(argv) == 0


@given(st.data())
@FUZZ
def test_logits_container(files, data):
    paths, valid = files
    _write(paths["mutant"], data.draw(mutants(valid["logits"])))
    accepted = _reader_verdict(fileio.read_logits, paths["mutant"])
    _exit_code_ok(["audit", paths["mutant"], paths["targets"], paths["out"]], accepted)


@given(st.data())
@FUZZ
def test_audit_jsonl(files, data):
    paths, valid = files
    _write(paths["mutant"], data.draw(mutants(valid["audit"])))
    accepted = _reader_verdict(fileio.read_audit, paths["mutant"])
    _exit_code_ok(
        ["compare", paths["mutant"], paths["polished"], "--out-dir", paths["out"] + "d"], accepted
    )


@given(st.data())
@FUZZ
def test_checkpoint(files, data):
    paths, valid = files
    _write(paths["mutant"], data.draw(mutants(valid["checkpoint"])))
    accepted = _reader_verdict(fileio.load_checkpoint, paths["mutant"])
    _exit_code_ok(["layer-scan", paths["mutant"], paths["corpus"], paths["out"]], accepted)


@given(st.data())
@FUZZ
def test_json_map(files, data):
    paths, valid = files
    mutant = data.draw(mutants(valid["counts"]))
    _write(paths["mutant"], mutant)
    try:
        accepted = isinstance(json.loads(mutant), dict)
    except ValueError:
        accepted = False
    _exit_code_ok(
        ["compare", paths["audit"], paths["polished"], "--out-dir", paths["out"] + "d",
         "--freq-counts", paths["mutant"]],
        accepted,
    )


def targets_mutants(data: bytes):
    """``data`` with 1 to 4 bytes set to ones that JSON arrays of integers
    are made of, or ``mutants(data)``."""
    edits = st.lists(st.tuples(st.integers(0, len(data) - 1), st.sampled_from(b"0123456789 ,[]-\n")),
                     min_size=1, max_size=4, unique_by=lambda edit: edit[0])
    return st.one_of(edits.map(lambda e: _flip(data, [(i, data[i] ^ b) for i, b in e])), mutants(data))


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)  # about 1 in 15 is accepted
def test_targets_array(files, data):
    # audit succeeds exactly when json reads 24 in-range integer ids, and
    # then writes the audit of json's ids
    paths, valid = files
    mutant = data.draw(targets_mutants(valid["targets"]))
    _write(paths["mutant"], mutant)
    try:
        ids = json.loads(mutant.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError too
        ids = None
    accepted = isinstance(ids, list) and len(ids) == 24 and all(
        type(t) is int and 0 <= t < 8 for t in ids)
    assert main(["audit", paths["logits"], paths["mutant"], paths["out"]]) == (0 if accepted else 2)
    if accepted:
        rows, _ = fileio.read_logits(paths["logits"])
        assert fileio.read_audit(paths["out"])[0] == compute_margins(rows, ids)
