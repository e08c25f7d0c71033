"""Command-line surface: exit codes, file outputs, determinism."""

import json
import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from marginlab import cli, fileio
from marginlab.cli import main
from marginlab.errors import DataError
from marginlab.gapfit import GapFit, GridSpec
from marginlab.margins import Audit, compute_margins
from marginlab.objectives import MrpConfig
from marginlab.precision import emulate_bf16, recompute_fp32_logits
from marginlab.toylm import ToyLm, ToyLmConfig
from marginlab.training import StepMetrics, TrainConfig


def audit_of(rows):
    """The audit of (position, target, top1, top2, margin, correct) rows."""
    return Audit(*zip(*rows))


def margin_audit(margins):
    """An audit with these margins at positions 0, 1, ..., every top-1 wrong."""
    n = len(margins)
    return Audit(np.arange(n), np.zeros(n, int), np.ones(n, int), np.full(n, 2), margins,
                 np.zeros(n, bool))


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1754600000")


@pytest.fixture
def tiny_logits(tmp_path):
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 6)).astype(np.float32)
    lp = str(tmp_path / "logits.bin")
    fileio.write_logits(lp, logits, corpus_id="fixture")
    tp = str(tmp_path / "targets.json")
    with open(tp, "w") as f:
        json.dump([1, 2, 3], f)
    return lp, tp, logits


@pytest.fixture
def corpus_file(tmp_path):
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    parts = []
    state = 0
    for _ in range(1600):
        parts.append(words[state])
        state = (state * 3 + 1) % len(words) if rng.random() < 0.8 else int(rng.integers(0, 8))
        if rng.random() < 0.1:
            parts.append(".")
    path = str(tmp_path / "corpus.txt")
    with open(path, "w") as f:
        f.write(" ".join(parts))
    return path


@pytest.fixture
def base_ckpt(tmp_path):
    """An untrained 16-token model's checkpoint, a base for sweep."""
    path = str(tmp_path / "base.ckpt")
    fileio.save_checkpoint(path, ToyLm(ToyLmConfig(16, 16, 1, 2, 12), seed=0))
    return path


class TestAuditCommand:
    def test_basic_audit(self, tmp_path, tiny_logits, capsys):
        lp, tp, logits = tiny_logits
        out = str(tmp_path / "audit.jsonl")
        assert main(["audit", lp, tp, out]) == 0
        records, header = fileio.read_audit(out)
        assert len(records) == 3
        assert header["count"] == 3

    def test_byte_stable_across_runs(self, tmp_path, tiny_logits):
        lp, tp, _ = tiny_logits
        out1 = str(tmp_path / "a1.jsonl")
        out2 = str(tmp_path / "a2.jsonl")
        assert main(["audit", lp, tp, out1, "--seed", "3"]) == 0
        assert main(["audit", lp, tp, out2, "--seed", "3"]) == 0
        assert open(out1).read() == open(out2).read()

    def test_bf16_emulate_collapses_margins(self, tmp_path):
        rng = np.random.default_rng(5)
        logits = rng.uniform(1, 8, size=(200, 8)).astype(np.float32)
        lp = str(tmp_path / "logits.bin")
        fileio.write_logits(lp, logits)
        tp = str(tmp_path / "targets.json")
        with open(tp, "w") as f:
            json.dump([int(x) for x in rng.integers(0, 8, size=200)], f)
        full = str(tmp_path / "full.jsonl")
        degraded = str(tmp_path / "bf16.jsonl")
        assert main(["audit", lp, tp, full]) == 0
        assert main(["audit", lp, tp, degraded, "--bf16-emulate"]) == 0
        assert fileio.read_audit(full)[1]["dtype"] == "f32"
        assert fileio.read_audit(degraded)[1]["dtype"] == "bf16"
        from marginlab.margins import unique_value_count

        m_full = [r.margin for r in fileio.read_audit(full)[0]]
        m_bf = [r.margin for r in fileio.read_audit(degraded)[0]]
        assert unique_value_count(np.array(m_bf, dtype=np.float32)) <= unique_value_count(
            np.array(m_full, dtype=np.float32)
        )

    def test_fp32_recompute(self, tmp_path):
        rng = np.random.default_rng(9)
        hidden = rng.normal(size=(5, 16)).astype(np.float32)
        unemb = rng.normal(size=(12, 16)).astype(np.float32)
        hp = str(tmp_path / "hidden.bin")
        up = str(tmp_path / "unemb.bin")
        fileio.write_logits(hp, hidden)
        fileio.write_logits(up, unemb)
        tp = str(tmp_path / "targets.json")
        with open(tp, "w") as f:
            json.dump([0, 1, 2, 3, 4], f)
        out = str(tmp_path / "audit.jsonl")
        assert main(["audit", hp, tp, out, "--fp32-recompute", up]) == 0
        records, _ = fileio.read_audit(out)
        oracle = hidden.astype(np.float32) @ unemb.astype(np.float32).T
        assert records[0].top1_id == int(np.argmax(oracle[0]))

    def test_fp32_recompute_needs_a_value(self, tmp_path, tiny_logits, capsys):
        lp, tp, _ = tiny_logits
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as e:
            main(["audit", lp, tp, str(out), "--fp32-recompute"])
        assert e.value.code == 1
        assert "--fp32-recompute: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_logits_exits_2(self, tmp_path, tiny_logits):
        _, tp, _ = tiny_logits
        bad = str(tmp_path / "empty.bin")
        with open(bad, "wb") as f:
            f.write(b"")
        assert main(["audit", bad, tp, str(tmp_path / "x.jsonl")]) == 2

    @pytest.mark.parametrize("recompute", [False, True])
    def test_one_logit_per_row_exits_2(self, tmp_path, capsys, recompute):
        # One-column hidden states are valid input; a one-row unembedding gives V = 1.
        hp, up, tp = _recompute_inputs(tmp_path, np.ones((3, 1), np.float32), np.ones((1, 1), np.float32))
        out = str(tmp_path / "a.jsonl")
        assert main(["audit", hp, tp, out, *(["--fp32-recompute", up] if recompute else [])]) == 2
        err = capsys.readouterr().err
        assert f"data error: {up if recompute else hp}: need at least 2 logits per row, got 1" in err
        assert not os.path.exists(out)

    def test_missing_file_exits_2(self, tmp_path, tiny_logits):
        _, tp, _ = tiny_logits
        assert main(["audit", str(tmp_path / "nope.bin"), tp, str(tmp_path / "x")]) == 2

    def test_target_mismatch_exits_2(self, tmp_path, tiny_logits):
        lp, _, _ = tiny_logits
        tp = str(tmp_path / "short.json")
        with open(tp, "w") as f:
            json.dump([1], f)
        assert main(["audit", lp, tp, str(tmp_path / "x.jsonl")]) == 2

    def test_non_utf8_json_inputs_exit_2(self, tmp_path, tiny_logits):
        lp, tp, _ = tiny_logits
        bad = str(tmp_path / "bad.json")
        with open(bad, "wb") as f:
            f.write(b"\xff\xfe[1, 2, 3]")
        assert main(["audit", lp, bad, str(tmp_path / "x.jsonl")]) == 2
        ap = str(tmp_path / "a.jsonl")
        assert main(["audit", lp, tp, ap]) == 0
        for flag in ("--freq-counts", "--token-texts"):
            assert main(["compare", ap, ap, "--out-dir", str(tmp_path / "cmp"), flag, bad]) == 2

    @pytest.mark.parametrize("counts", ['{"1": 1e999}', '{"1": -Infinity}', '{"1": 1.5}',
                                        '{"1": true}', '{"x": 1}'])
    def test_non_integer_freq_counts_exit_2(self, tmp_path, tiny_logits, counts):
        lp, tp, _ = tiny_logits
        ap = str(tmp_path / "a.jsonl")
        assert main(["audit", lp, tp, ap]) == 0
        fc = str(tmp_path / "counts.json")
        with open(fc, "w") as f:
            f.write(counts)
        assert main(["compare", ap, ap, "--out-dir", str(tmp_path / "cmp"),
                     "--freq-counts", fc]) == 2

    @pytest.mark.parametrize("targets", [
        ["a", "b", "c"], [1.5, 2, 3], [True, 2, 3], [1, [2], 3], [1, 2, 2**64], {"0": 1},
        [1, 2**63, 3], [1, -(2**63) - 1, 3], [1, 2, True], [1, 1.0, 3],
    ])
    def test_non_integer_targets_exit_2(self, tmp_path, tiny_logits, targets, capsys):
        lp, _, _ = tiny_logits
        tp = str(tmp_path / "bad.json")
        with open(tp, "w") as f:
            json.dump(targets, f)
        assert main(["audit", lp, tp, str(tmp_path / "x.jsonl")]) == 2
        rule = "a JSON array" if isinstance(targets, dict) else "integer token ids"
        assert capsys.readouterr().err == f"marginlab: data error: {tp}: targets must be {rule}\n"

    # Targets files near json.dumps's default form: only that form is read as
    # columns, and the others give json's exit code and message.
    @pytest.mark.parametrize("text, error", [
        ("[1, 2, 3]", None),
        ("[1,2,3]", None),
        ("[1, 2, 3]\n", None),
        ("[ 1, 2, 3]", None),
        ("[1, 2,  3]", None),
        ("[-0, 1, 2]", None),
        ("[01, 2, 3]", "cannot read targets: Expecting ',' delimiter: line 1 column 3 (char 2)"),
        ("[1, 2, 0003]", "cannot read targets: Expecting ',' delimiter: line 1 column 9 (char 8)"),
        ("[1, 2, ]", "cannot read targets: Expecting value: line 1 column 8 (char 7)"),
        ("[1, 2, 3", "cannot read targets: Expecting ',' delimiter: line 1 column 9 (char 8)"),
        ("[]", "0 targets for 3 logit rows"),
        ("[1, 2, 3, 4]", "4 targets for 3 logit rows"),
        ("[1, 2, 6]", "target 6 at index 2 is outside [0, 6)"),
        ("[1,52, 3]", "target 52 at index 1 is outside [0, 6)"),
        ("[1, 1234567890123456789, 3]", "target 1234567890123456789 at index 1 is outside [0, 6)"),
        ("[1, 9999999999999999999, 3]", "targets must be integer token ids"),
    ])
    def test_targets_text_forms(self, tmp_path, tiny_logits, capsys, text, error):
        lp, _, logits = tiny_logits
        tp, out = str(tmp_path / "t.json"), str(tmp_path / "x.jsonl")
        with open(tp, "w") as f:
            f.write(text)
        assert main(["audit", lp, tp, out]) == (2 if error else 0)
        if error:
            assert capsys.readouterr().err == f"marginlab: data error: {tp}: {error}\n"
            assert not os.path.exists(out)
        else:
            assert fileio.read_audit(out)[0] == compute_margins(logits, json.loads(text))

    @pytest.mark.parametrize("bad", [-1, 6, 2**62])
    def test_target_outside_vocabulary_exits_2(self, tmp_path, tiny_logits, bad, capsys):
        lp, _, _ = tiny_logits
        tp = str(tmp_path / "bad.json")
        with open(tp, "w") as f:
            json.dump([1, bad, 3], f)
        out = str(tmp_path / "x.jsonl")
        assert main(["audit", lp, tp, out]) == 2
        assert f"target {bad} at index 1 is outside [0, 6)" in capsys.readouterr().err
        assert not os.path.exists(out)


def _recompute_inputs(tmp_path, hidden, unemb):
    hp, up, tp = (str(tmp_path / n) for n in ("hidden.bin", "unemb.bin", "targets.json"))
    fileio.write_logits(hp, hidden)
    fileio.write_logits(up, unemb)
    with open(tp, "w") as f:
        json.dump([0] * hidden.shape[0], f)
    return hp, up, tp


class TestFp32RecomputeData:
    @pytest.mark.parametrize("case", ["nan hidden", "inf unembedding", "width mismatch"])
    def test_bad_container_exits_2(self, tmp_path, case, capsys):
        hidden = np.ones((5, 4), dtype=np.float32)
        unemb = np.ones((7, 3 if case == "width mismatch" else 4), dtype=np.float32)
        if case == "nan hidden":
            hidden[3, 1] = np.nan
        if case == "inf unembedding":
            unemb[2, 0] = np.inf
        hp, up, tp = _recompute_inputs(tmp_path, hidden, unemb)
        out = str(tmp_path / "a.jsonl")
        assert main(["audit", hp, tp, out, "--fp32-recompute", up]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert ("position 3" in err) == (case == "nan hidden")
        assert not os.path.exists(out)

    def test_overflowing_product_exits_2_without_warning(self, tmp_path, capsys):
        hidden = np.full((3, 4), 1e30, dtype=np.float32)
        unemb = np.full((5, 4), 1e30, dtype=np.float32)
        hp, up, tp = _recompute_inputs(tmp_path, hidden, unemb)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["audit", hp, tp, str(tmp_path / "a.jsonl"),
                         "--fp32-recompute", up])
        assert code == 2
        assert "non-finite logit at position 0" in capsys.readouterr().err


@pytest.fixture
def three_row_blocks(monkeypatch):
    """Streamed audits read 3-row blocks, so 10 rows end in a 1-row block."""
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(fileio, "_MIN_BLOCK_ROWS", 3)


class TestStreamedAudit:
    ROWS, V = 10, 6

    def _audit(self, tmp_path, logits, targets, *flags, dtype="f32"):
        lp, tp, out = (str(tmp_path / n) for n in ("logits.bin", "targets.json", "a.jsonl"))
        fileio.write_logits(lp, logits, dtype=dtype)
        with open(tp, "w") as f:
            json.dump(targets.tolist(), f)
        return main(["audit", lp, tp, out, *flags]), out

    @pytest.mark.parametrize("dtype", ["f32", "bf16"])
    def test_blocks_equal_whole_matrix(self, tmp_path, three_row_blocks, dtype):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(self.ROWS, self.V)).astype(np.float32)
        targets = rng.integers(0, self.V, self.ROWS)
        code, out = self._audit(tmp_path, logits, targets, dtype=dtype)
        assert code == 0
        whole = logits if dtype == "f32" else emulate_bf16(logits)
        assert fileio.read_audit(out)[0] == compute_margins(whole, targets)

    def test_bf16_emulate_ties_lower_id_wins(self, tmp_path, three_row_blocks):
        rng = np.random.default_rng(12)
        # Integers 1..4 plus less than half a bf16 step: distinct in f32,
        # exact ties once rounded to bf16.
        logits = (rng.integers(1, 5, (self.ROWS, self.V))
                  + rng.uniform(0, 2**-9, (self.ROWS, self.V))).astype(np.float32)
        targets = rng.integers(0, self.V, self.ROWS)
        code, out = self._audit(tmp_path, logits, targets, "--bf16-emulate")
        assert code == 0
        audit = fileio.read_audit(out)[0]
        assert audit == compute_margins(emulate_bf16(logits), targets)
        ties = audit.margin == 0
        assert ties.sum() >= 3 and (audit.top1[ties] < audit.top2[ties]).all()

    def test_fp32_recompute(self, tmp_path, three_row_blocks):
        rng = np.random.default_rng(13)
        # Multiples of 1/8 with small sums: every product order gives the same float32.
        hidden = (rng.integers(-8, 9, (self.ROWS, 5)) / 8).astype(np.float32)
        unemb = (rng.integers(-8, 9, (self.V, 5)) / 8).astype(np.float32)
        hp, up, _ = _recompute_inputs(tmp_path, hidden, unemb)
        targets = rng.integers(0, self.V, self.ROWS)
        tp, out = str(tmp_path / "t.json"), str(tmp_path / "a.jsonl")
        with open(tp, "w") as f:
            json.dump(targets.tolist(), f)
        assert main(["audit", hp, tp, out, "--fp32-recompute", up]) == 0
        expected = compute_margins(recompute_fp32_logits(hidden, unemb), targets)
        assert fileio.read_audit(out)[0] == expected

    @pytest.mark.parametrize("flags", [[], ["--bf16-emulate"]])
    def test_non_finite_in_later_block_names_global_position(
        self, tmp_path, three_row_blocks, flags, capsys
    ):
        logits = np.ones((self.ROWS, self.V), dtype=np.float32)
        logits[:, 0] = 2.0
        logits[7, 2] = np.inf
        code, out = self._audit(tmp_path, logits, np.zeros(self.ROWS, dtype=int), *flags)
        assert code == 2
        assert "non-finite logit at position 7" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["logits.bin", "targets.json"]


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable CPU count that fileio.in_threads sizes its workers by."""
    return lambda n: monkeypatch.setattr(fileio, "usable_cpus", lambda: n)


class TestAuditWorkers:
    """audit cuts its blocks into one contiguous span per worker thread; one
    and two workers must write the same bytes and fail the same way."""

    ROWS, V = 10, 6  # four 3-row blocks: two spans of two blocks

    def inputs(self, tmp_path, logits=None):
        rng = np.random.default_rng(31)
        if logits is None:
            logits = rng.normal(size=(self.ROWS, self.V)).astype(np.float32)
        # Multiples of 1/8 with small sums: every product order gives the same float32.
        hidden = (rng.integers(-8, 9, (self.ROWS, 5)) / 8).astype(np.float32)
        unemb = (rng.integers(-8, 9, (self.V, 5)) / 8).astype(np.float32)
        paths = {n: str(tmp_path / n) for n in ("logits.bin", "hidden.bin", "unemb.bin", "t.json")}
        fileio.write_logits(paths["logits.bin"], logits)
        fileio.write_logits(paths["hidden.bin"], hidden)
        fileio.write_logits(paths["unemb.bin"], unemb)
        with open(paths["t.json"], "w") as f:
            json.dump(rng.integers(0, self.V, self.ROWS).tolist(), f)
        return paths

    def argv(self, paths, out, flags):
        if "--fp32-recompute" in flags:
            return ["audit", paths["hidden.bin"], paths["t.json"], out, *flags, paths["unemb.bin"]]
        return ["audit", paths["logits.bin"], paths["t.json"], out, *flags]

    def threads_of(self, monkeypatch, name):
        """The threads that call ``cli.<name>`` from here on."""
        seen, original = [], getattr(cli, name)

        def recording(*args, **kwargs):
            seen.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        return seen

    @pytest.mark.parametrize("flags", [[], ["--bf16-emulate"], ["--fp32-recompute"],
                                       ["--bf16-emulate", "--fp32-recompute"]])
    def test_one_and_two_workers_write_the_same_bytes(
        self, tmp_path, three_row_blocks, cpus, monkeypatch, flags
    ):
        paths = self.inputs(tmp_path)
        threads = self.threads_of(monkeypatch, "compute_margins")
        written = []
        for n in (1, 2):
            cpus(n)
            out = str(tmp_path / f"a{n}.jsonl")
            assert main(self.argv(paths, out, flags)) == 0
            with open(out, "rb") as f:
                written.append(f.read())
        assert written[0] == written[1]
        # --fp32-recompute keeps one worker: its GEMM already uses every BLAS thread.
        assert len(set(threads)) == (1 if "--fp32-recompute" in flags else 2)

    @pytest.mark.parametrize("flags", [[], ["--bf16-emulate"]])
    def test_non_finite_in_both_halves_names_the_lower(
        self, tmp_path, three_row_blocks, cpus, monkeypatch, flags, capsys
    ):
        logits = np.ones((self.ROWS, self.V), dtype=np.float32)
        logits[2, 1], logits[8, 3] = np.nan, -np.inf
        paths = self.inputs(tmp_path, logits)
        original = cli.compute_margins

        def first_span_late(rows, targets, start):
            if start < 6:  # the second span fails first
                time.sleep(0.05)
            return original(rows, targets, start)

        monkeypatch.setattr(cli, "compute_margins", first_span_late)
        for n in (1, 2):
            cpus(n)
            assert main(self.argv(paths, str(tmp_path / "a.jsonl"), flags)) == 2
            assert capsys.readouterr().err.endswith("non-finite logit at position 2\n")
        assert not os.path.exists(tmp_path / "a.jsonl")

    def test_every_block_goes_through_the_cli_names(self, tmp_path, three_row_blocks, cpus,
                                                    monkeypatch):
        """bench/tracing.py times the selection and the rounding by wrapping
        ``cli.compute_margins`` and ``cli.emulate_bf16``: each block must call
        both through those names, from every worker."""
        paths = self.inputs(tmp_path)
        selected = self.threads_of(monkeypatch, "compute_margins")
        rounded = self.threads_of(monkeypatch, "emulate_bf16")
        cpus(2)
        assert main(self.argv(paths, str(tmp_path / "a.jsonl"), ["--bf16-emulate"])) == 0
        assert len(selected) == len(rounded) == 4
        assert len(set(selected)) == len(set(rounded)) == 2


@pytest.fixture(scope="module")
def big_container(tmp_path_factory):
    """A 20,000 x 512 f32 container (41 MB payload) and in-range targets."""
    root = tmp_path_factory.mktemp("big")
    rng = np.random.default_rng(21)
    lp, tp = str(root / "big.logits"), str(root / "targets.json")
    fileio.write_logits(lp, rng.standard_normal((20_000, 512), dtype=np.float32))
    with open(tp, "w") as f:
        json.dump(rng.integers(0, 512, 20_000).tolist(), f)
    return lp, tp, 20_000 * 512 * 4


class TestAuditMemory:
    @pytest.mark.parametrize("flags", [[], ["--bf16-emulate"]])
    def test_peak_below_half_the_payload(self, tmp_path, big_container, cpus, flags):
        lp, tp, payload = big_container
        cpus(64)  # each worker holds a block buffer: the cap, not the host, bounds them
        tracemalloc.start()
        try:
            assert main(["audit", lp, tp, str(tmp_path / "a.jsonl"), *flags]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload / 2, f"peak {peak / 1e6:.1f} MB for a {payload / 1e6:.1f} MB payload"


class TestGapFitCommand:
    def test_uniform_fixture(self, tmp_path, capsys):
        margins = (np.arange(50_000) + 0.5) / 5e4
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, margin_audit(margins))
        rp = str(tmp_path / "fit.json")
        assert main(["gap-fit", ap, "--out", rp]) == 0
        report = json.loads(open(rp).read())
        assert abs(report["beta"] - 1.0) < 0.01
        assert report["r2"] > 0.999
        out = capsys.readouterr().out
        assert "alpha_intercept" in out and "alpha_constrained" in out

    def test_round_trip_report(self, tmp_path):
        margins = np.random.default_rng(1).exponential(size=2000)
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, margin_audit(margins))
        rp = str(tmp_path / "fit.json")
        assert main(["gap-fit", ap, "--out", rp]) == 0
        first = open(rp).read()
        report = json.loads(first)
        fileio.write_report_json(rp, report)
        assert open(rp).read() == first

    def test_report_fields_match_synth_validate(self, tmp_path):
        # Both commands write the same fit fields; each adds its own.
        margins = np.random.default_rng(1).exponential(size=2000)
        ap, gp, sp = (str(tmp_path / n) for n in ("audit.jsonl", "fit.json", "synth.json"))
        fileio.write_audit(ap, margin_audit(margins))
        assert main(["gap-fit", ap, "--out", gp]) == 0
        assert main(["synth-validate", "--samples", "100000", "--out", sp]) == 0
        fit = {"alpha_constrained", "alpha_intercept", "beta", "grid", "r2"}
        gap, synth = json.loads(open(gp).read()), json.loads(open(sp).read())
        assert set(gap) == fit | {"provenance"}
        assert set(synth) == fit | {"gradient_floor", "oracle_alpha", "relative_alpha_error"}
        assert set(gap["grid"]) == set(synth["grid"]) == {"epsilon", "eta_hat"}

    def test_degenerate_fit_exits_3(self, tmp_path):
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, margin_audit(np.zeros(2000)))
        assert main(["gap-fit", ap]) == 3

    def test_degenerate_fit_names_the_zero_margins(self, tmp_path, capsys):
        # bf16 ties: 1% of the margins are exactly 0, so the 1e-4 quantile is 0.
        margins = np.random.default_rng(2).exponential(size=20_000)
        margins[::100] = 0.0
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, margin_audit(margins))
        assert main(["gap-fit", ap]) == 3
        err = capsys.readouterr().err
        assert "200 of 20000 margins (1.00%) are exactly 0" in err and "Traceback" not in err

    def test_too_few_records_exits_2_after_the_grid_flags(self, tmp_path, capsys):
        ap, rp = str(tmp_path / "audit.jsonl"), tmp_path / "fit.json"
        fileio.write_audit(ap, margin_audit(np.linspace(0.1, 2.0, 999)))
        assert main(["gap-fit", ap, "--out", str(rp)]) == 2
        assert f"data error: {ap}: gap-fit needs at least 1000 records, got 999" in capsys.readouterr().err
        assert main(["gap-fit", ap, "--grid-count", "3"]) == 1
        assert "usage error: grid needs at least 5 points" in capsys.readouterr().err
        assert not rp.exists()


class TestCompareCommand:
    def test_identical_audits_zero_bundle(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            (i, int(rng.integers(0, 9)), int(rng.integers(0, 9)),
             (int(rng.integers(0, 9)) + 1) % 9, float(rng.exponential()))
            for i in range(50)
        ]
        rows = [
            (pos, target, top1, top2 if top2 != top1 else (top1 + 1) % 9, margin, top1 == target)
            for pos, target, top1, top2, margin in rows
        ]
        ap = str(tmp_path / "a.jsonl")
        fileio.write_audit(ap, audit_of(rows))
        out_dir = str(tmp_path / "cmp")
        assert main(["compare", ap, ap, "--out-dir", out_dir]) == 0
        bundle = json.loads(open(os.path.join(out_dir, "bundle.json")).read())
        assert bundle["churn"]["churned"] == 0
        assert bundle["expansion"]["mean_delta"] == 0.0
        assert "frequency" not in bundle
        assert "classes" not in bundle

    def test_optional_sections(self, tmp_path):
        base = audit_of([(0, 1, 2, 3, 0.5, False), (1, 4, 4, 5, 1.5, True)])
        pol = audit_of([(0, 1, 1, 3, 0.7, True), (1, 4, 4, 5, 1.6, True)])
        bp = str(tmp_path / "b.jsonl")
        pp = str(tmp_path / "p.jsonl")
        fileio.write_audit(bp, base)
        fileio.write_audit(pp, pol)
        fc = str(tmp_path / "counts.json")
        with open(fc, "w") as f:
            json.dump({"1": 3, "4": 120}, f)
        tt = str(tmp_path / "texts.json")
        with open(tt, "w") as f:
            json.dump({"1": ",", "4": "the"}, f)
        out_dir = str(tmp_path / "cmp")
        assert main([
            "compare", bp, pp, "--out-dir", out_dir,
            "--freq-counts", fc, "--token-texts", tt,
        ]) == 0
        bundle = json.loads(open(os.path.join(out_dir, "bundle.json")).read())
        assert bundle["churn"]["w2r"] == 1
        assert "frequency" in bundle and "classes" in bundle
        for name in ("churn.csv", "rotation.csv", "bands.csv", "expansion.csv",
                     "frequency.csv", "classes.csv"):
            assert os.path.exists(os.path.join(out_dir, name))

    @pytest.mark.parametrize("flag, content, message", [
        ("--freq-counts", '{"1": 4, "2": 4, "3": 4, "-1": 4}', "key '-1'"),
        ("--freq-counts", '{"1": 4, "02": 4, "3": 4}', "key '02'"),
        ("--freq-counts", '{"1": 4, " 2": 4, "3": 4}', "key ' 2'"),
        ("--freq-counts", '{"1": 4, "2": "4", "3": 4}', "key '2'"),
        ("--freq-counts", '{"1": 4, "2": 4, "3": 4, "%s": 1}' % ("9" * 5000), "key '999"),
        ("--token-texts", '{"1": null, "2": null, "3": "c"}', "key '1'"),
        ("--token-texts", '{"1": "a", "2": 2, "3": "c"}', "key '2'"),
        ("--token-texts", '{"1": "a", "2": ["b"], "3": "c"}', "key '2'"),
        ("--token-texts", '{"1": "a", "2": "b", "3": "c", "1.0": "d"}', "key '1.0'"),
        ("--token-texts", '{"1": "a", "2": "b", "4": "c"}', "no text for target token 3"),
        ("--freq-counts", '{"1": 4}', "no frequency count for target token 2"),
        ("--freq-counts", '{"1": 4, "2": 0, "3": 4}', "frequency count below 1 for target token 2"),
    ], ids=["negative", "leading-zero", "space", "string-count", "5000-digit", "null-text",
            "int-text", "list-text", "float-key", "missing-text", "missing-count", "zero-count"])
    def test_bad_id_map_exits_2_naming_key(self, tmp_path, tiny_logits, flag, content, message,
                                           capsys):
        lp, tp, _ = tiny_logits
        ap, mp = str(tmp_path / "a.jsonl"), str(tmp_path / "map.json")
        assert main(["audit", lp, tp, ap]) == 0
        with open(mp, "w") as f:
            f.write(content)
        assert main(["compare", ap, ap, "--out-dir", str(tmp_path / "cmp"), flag, mp]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"marginlab: data error: {mp}: ") and message in err
        assert not (tmp_path / "cmp").exists()  # nothing is written before every check

    @pytest.mark.parametrize("empty", ["both", "polished"])
    def test_empty_audit_exits_2_naming_it(self, tmp_path, capsys, empty):
        ap, ep = str(tmp_path / "a.jsonl"), str(tmp_path / "empty.jsonl")
        fileio.write_audit(ap, margin_audit([0.5]))
        fileio.write_audit(ep, margin_audit([]))
        out_dir = tmp_path / "cmp"
        assert main(["compare", ep if empty == "both" else ap, ep, "--out-dir", str(out_dir)]) == 2
        assert f"data error: {ep}: compare needs an audit with at least one record" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("polished, message", [
        ([(0, 1, 2, 3, 0.5, False), (1, 1, 2, 3, 0.5, False)], "audit size mismatch: 1 vs 2"),
        ([(5, 1, 2, 3, 0.5, False)], "audit position mismatch at index 0"),
        ([(0, 4, 2, 3, 0.5, False)], "(0, target 1) vs (0, target 4)"),
    ], ids=["size", "position", "target"])
    def test_misaligned_exits_2_naming_both_files(self, tmp_path, capsys, polished, message):
        ap, bp = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        fileio.write_audit(ap, audit_of([(0, 1, 2, 3, 0.5, False)]))
        fileio.write_audit(bp, audit_of(polished))
        out_dir = tmp_path / "cmp"
        assert main(["compare", ap, bp, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"marginlab: data error: {ap} and {bp}: ") and message in err
        assert "Traceback" not in err
        assert not out_dir.exists()


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# The six CSVs of `compare` on the shipped fixture pair, byte for byte.
FIXTURE_CSVS = {
    "churn.csv": "total,churned,w2r,r2w,flip_ratio,net_corrected\n6,4,2,1,2.0,1\n",
    "rotation.csv": "rotated,rotated_wider,mean_margin_delta\n1,1,0.5\n",
    "bands.csv": (
        "audit,lo,hi,count,accuracy\n"
        "baseline,0.0,0.5,3,0.0\nbaseline,0.5,1.0,1,1.0\nbaseline,1.0,2.0,1,1.0\n"
        "baseline,2.0,5.0,1,1.0\nbaseline,5.0,,0,\n"
        "polished,0.0,0.5,4,0.5\npolished,0.5,1.0,0,\npolished,1.0,2.0,1,1.0\n"
        "polished,2.0,5.0,1,1.0\npolished,5.0,,0,\n"
    ),
    "expansion.csv": (
        "pct_wider,mean_delta,median_delta\n"
        "0.8333333333333334,0.05833333333333334,0.10000000000000009\n"
    ),
    "frequency.csv": (
        "bucket,count,baseline_accuracy,polished_accuracy,delta,net_corrected,share_of_net\n"
        "1,2,0.5,1.0,0.5,1,1.0\n2-4,1,1.0,1.0,0.0,0,0.0\n5-19,1,1.0,0.0,-1.0,-1,-1.0\n"
        "20-99,1,0.0,1.0,1.0,1,1.0\n100+,1,0.0,0.0,0.0,0,0.0\n"
    ),
    "classes.csv": (
        "class,count,w2r,r2w,net_corrected,share_of_net\n"
        "structural,1,0,0,0,0.0\nnumeric,1,0,0,0,0.0\nfunction_word,1,0,0,0,0.0\n"
        "entity_like,1,0,1,-1,-1.0\ncontent_word,1,1,0,1,1.0\nfragment,1,1,0,1,1.0\n"
    ),
}


# sha256 of the bundle and the two map-driven CSVs of that `compare`, run
# with SOURCE_DATE_EPOCH=0.
FIXTURE_DIGESTS = {
    "bundle.json": "fd901910e7d677cb32d04598f2e73839f5d1a0b7ef51b69dad4bf78677dd0aa1",
    "frequency.csv": "a0705223bc0d17133a8a0d80ed4ae01221d810c25c98e9221a821dc59d8c228f",
    "classes.csv": "b407efac8a7a0cfb39f73bda11468b7c239b42bb71bda93426b7c839a6fe0b3c",
}


class TestCompareFixtureBytes:
    @pytest.fixture
    def out_dir(self, tmp_path, monkeypatch):
        """``compare`` of the fixture pair with both maps, at epoch 0."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        fc = str(tmp_path / "counts.json")
        with open(fc, "w") as f:
            json.dump({"2": 1, "3": 3, "4": 7, "5": 30, "6": 200, "7": 1}, f)
        tt = str(tmp_path / "texts.json")
        with open(tt, "w") as f:
            json.dump({"2": ",", "3": "the", "4": "Paris", "5": "word", "6": "3.14", "7": "x3"}, f)
        out_dir = str(tmp_path / "cmp")
        assert main([
            "compare", os.path.join(FIXTURES, "baseline_6.jsonl"),
            os.path.join(FIXTURES, "polished_6.jsonl"), "--out-dir", out_dir,
            "--freq-counts", fc, "--token-texts", tt,
        ]) == 0
        return out_dir

    def test_fixture_csvs(self, out_dir):
        for name, text in FIXTURE_CSVS.items():
            assert open(os.path.join(out_dir, name)).read() == text, name

    def test_pinned_digests(self, out_dir):
        for name, digest in FIXTURE_DIGESTS.items():
            assert fileio.file_digest(os.path.join(out_dir, name)) == f"sha256:{digest}", name


GOOD_RECORD = {"position_index": 0, "target_id": 0, "top1_id": 1, "top2_id": 2,
               "margin": 0.5, "correct": False}
BAD_RECORD_CHANGES = {
    "correct not a bool": {"correct": 0},
    "id not an int": {"target_id": 0.0},
    "id a bool": {"top1_id": True},
    "negative margin": {"margin": -1.0},
    "non-finite margin": {"margin": float("nan")},
    "top1 equals top2": {"top2_id": 1},
    "correct disagrees with top1 == target": {"correct": True},
}


class TestBadAuditRecords:
    @pytest.fixture
    def audits(self, tmp_path, request):
        good = str(tmp_path / "good.jsonl")
        fileio.write_audit(good, margin_audit(np.random.default_rng(4).exponential(size=2000)))
        lines = open(good).read().splitlines()
        lines[500] = json.dumps(dict(GOOD_RECORD, position_index=499, **request.param))
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        return good, bad

    @pytest.mark.parametrize("audits", list(BAD_RECORD_CHANGES.values()),
                             ids=list(BAD_RECORD_CHANGES), indirect=True)
    def test_compare_and_gap_fit_exit_2(self, tmp_path, audits, capsys):
        good, bad = audits
        assert main(["gap-fit", bad]) == 2
        assert main(["compare", good, bad, "--out-dir", str(tmp_path / "cmp")]) == 2
        assert main(["compare", bad, good, "--out-dir", str(tmp_path / "cmp")]) == 2
        assert "line 501" in capsys.readouterr().err


class TestDigestsWhileParsing:
    """compare and gap-fit hash their inputs on a worker thread while the
    audits are parsed: the digests are ``file_digest``'s, and an input that
    cannot be read fails as the reader fails it, with no output."""

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("base", "pol", "bad")}
        fileio.write_audit(paths["base"], margin_audit(rng.exponential(size=2000)))
        fileio.write_audit(paths["pol"], margin_audit(rng.exponential(size=2000)))
        lines = open(paths["pol"]).read().splitlines()
        lines[700] = lines[700].replace('"margin": ', '"margin": "x", "m": ')
        with open(paths["bad"], "w") as f:
            f.write("\n".join(lines) + "\n")
        paths.update(missing=str(tmp_path / "missing.jsonl"), directory=str(tmp_path))
        return paths

    def test_digests_are_file_digests(self, tmp_path, inputs):
        out_dir, fit = str(tmp_path / "cmp"), str(tmp_path / "fit.json")
        assert main(["compare", inputs["base"], inputs["pol"], "--out-dir", out_dir]) == 0
        assert main(["gap-fit", inputs["pol"], "--out", fit]) == 0
        provenance = json.loads(open(os.path.join(out_dir, "bundle.json")).read())["provenance"]
        assert provenance["baseline"] == fileio.file_digest(inputs["base"])
        assert provenance["polished"] == fileio.file_digest(inputs["pol"])
        assert json.loads(open(fit).read())["provenance"]["audit"] == fileio.file_digest(inputs["pol"])

    @pytest.mark.parametrize("kind", ["missing", "directory", "bad"])
    @pytest.mark.parametrize("command", ["gap-fit", "compare-baseline", "compare-polished"])
    def test_bad_input_fails_as_the_reader_does(self, tmp_path, inputs, kind, command, capsys):
        bad, good, out = inputs[kind], inputs["base"], tmp_path / "out"
        with pytest.raises((DataError, OSError)) as read_error:
            fileio.read_audit(bad)
        argv = {
            "gap-fit": ["gap-fit", bad, "--out", str(out)],
            "compare-baseline": ["compare", bad, good, "--out-dir", str(out)],
            "compare-polished": ["compare", good, bad, "--out-dir", str(out)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"marginlab: data error: {read_error.value}\n"
        assert not out.exists()

    def test_digest_failure_is_a_data_error(self, tmp_path, inputs, monkeypatch, capsys):
        def denied(path):
            raise PermissionError(f"cannot read {path}")

        monkeypatch.setattr(fileio, "file_digest", denied)
        out = tmp_path / "out"
        assert main(["gap-fit", inputs["pol"], "--out", str(out)]) == 2
        assert main(["compare", inputs["base"], inputs["pol"], "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (f"marginlab: data error: cannot read {inputs['pol']}\n"
                                           f"marginlab: data error: cannot read {inputs['base']}\n")
        assert not out.exists()

    def test_pinned_fit_digest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        ap, rp = str(tmp_path / "audit.jsonl"), str(tmp_path / "fit.json")
        margins = np.random.default_rng(1).exponential(size=2000).astype(np.float32)
        fileio.write_audit(ap, margin_audit(margins.astype(np.float64)))
        assert main(["gap-fit", ap, "--out", rp]) == 0
        assert fileio.file_digest(ap) == (
            "sha256:7d21a9d6801352fe631746874eef930bc430009f3bb44d4b23acfb27f813b45a")
        assert fileio.file_digest(rp) == (
            "sha256:e7ff7e7cfb66aec0e26eee9bad16167c85459a3a39ada559404930ef63eb0274")


class TestAuditHeader:
    @pytest.mark.parametrize("rows, field, value", [
        (1, "version", True), (1, "version", 1.0), (3, "count", 3.0), (1, "count", True),
    ], ids=["version-true", "version-1.0", "count-3.0", "count-true"])
    def test_non_integer_exits_2(self, tmp_path, capsys, rows, field, value):
        # A type check, not ==, rejects these: True == 1 and 3.0 == 3 in Python.
        ap = str(tmp_path / "a.jsonl")
        logits = np.random.default_rng(0).normal(size=(rows, 4)).astype(np.float32)
        fileio.write_audit(ap, compute_margins(logits, np.zeros(rows, dtype=int)))
        header, *body = open(ap).read().splitlines(keepends=True)
        with open(ap, "w") as f:
            f.write(json.dumps({**json.loads(header), field: value}) + "\n" + "".join(body))
        assert main(["gap-fit", ap]) == 2
        assert f"audit {field} {value!r} is not" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("dtype", 5), ("dtype", "f16"), ("dtype", None),
        ("seed", True), ("seed", -1), ("seed", 2**63), ("seed", 1.0),
        ("tau", "x"), ("tau", True), ("tau", float("nan")), ("tau", float("inf")),
        ("created", []), ("created", None), ("created", 0),
    ])
    def test_bad_field_exits_2(self, tmp_path, capsys, field, value):
        good, bad = str(tmp_path / "good.jsonl"), str(tmp_path / "bad.jsonl")
        logits = np.random.default_rng(1).normal(size=(4, 5)).astype(np.float32)
        fileio.write_audit(good, compute_margins(logits, np.zeros(4, dtype=int)))
        header, *body = open(good).read().splitlines(keepends=True)
        with open(bad, "w") as f:
            f.write(json.dumps({**json.loads(header), field: value}) + "\n" + "".join(body))
        for argv in (["gap-fit", bad], ["compare", good, bad, "--out-dir", str(tmp_path / "c")],
                     ["compare", bad, good, "--out-dir", str(tmp_path / "c")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"audit {field} {value!r} is not" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("dtype", "bf16"), ("seed", 0), ("seed", 2**63 - 1), ("seed", None), ("tau", 0.25),
        ("tau", 1), ("tau", None), ("created", ""),
    ])
    def test_good_field_reads(self, tmp_path, field, value):
        ap = str(tmp_path / "a.jsonl")
        logits = np.random.default_rng(1).normal(size=(4, 5)).astype(np.float32)
        fileio.write_audit(ap, compute_margins(logits, np.zeros(4, dtype=int)))
        header, *body = open(ap).read().splitlines(keepends=True)
        with open(ap, "w") as f:
            f.write(json.dumps({**json.loads(header), field: value}) + "\n" + "".join(body))
        assert fileio.read_audit(ap)[1][field] == value
        assert main(["compare", ap, ap, "--out-dir", str(tmp_path / "c")]) == 0


class TestTrainCommands:
    def test_train_and_metrics(self, tmp_path, corpus_file, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        metrics = str(tmp_path / "metrics.csv")
        rc = main([
            "train", corpus_file, ckpt, "--metrics", metrics,
            "--steps", "10", "--vocab-size", "16", "--hidden-dim", "16",
            "--layers", "1", "--heads", "2", "--context", "12",
        ])
        assert rc == 0
        lines = open(metrics).read().splitlines()
        assert lines[0] == "step,ce,mrp,median_margin"
        assert len(lines) == 11
        model, header = fileio.load_checkpoint(ckpt)
        assert header["step"] == 10

    def test_ce_weight_zero_pure_mrp(self, tmp_path, corpus_file):
        ckpt = str(tmp_path / "model.ckpt")
        rc = main([
            "train", corpus_file, ckpt, "--steps", "3",
            "--loss", "fisher", "--lambda-mrp", "0.5", "--ce-weight", "0",
            "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1",
            "--heads", "2", "--context", "12",
        ])
        assert rc == 0

    def test_k_ignored_warning_for_margin(self, tmp_path, corpus_file, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        rc = main([
            "train", corpus_file, ckpt, "--steps", "2", "--loss", "margin",
            "--k", "3", "--vocab-size", "16", "--hidden-dim", "16",
            "--layers", "1", "--heads", "2", "--context", "12",
        ])
        assert rc == 0
        assert "ignored" in capsys.readouterr().err

    @pytest.mark.parametrize("loss, flags, warned, tau", [
        ("fisher", ["--tau", "0.3"], True, 0.3),
        ("margin", ["--tau", "0.3"], False, 0.3),
        ("fisher", [], False, MrpConfig.tau),
        ("margin", [], False, MrpConfig.tau),
    ])
    def test_tau_ignored_warning_for_fisher(self, capsys, loss, flags, warned, tau):
        for command in (["train", "c.txt", "m.ckpt"], ["sweep", "b.ckpt", "c.txt", "s.csv"]):
            args = cli.build_parser().parse_args([*command, "--loss", loss, *flags])
            assert cli._mrp_from_args(args) == MrpConfig(objective=loss, tau=tau)
            err = capsys.readouterr().err
            assert ("warning: --tau is ignored for the fisher loss" in err) is warned

    def test_deterministic_checkpoints(self, tmp_path, corpus_file):
        args = [
            "train", corpus_file, "", "--steps", "5", "--seed", "11",
            "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1",
            "--heads", "2", "--context", "12",
        ]
        c1 = str(tmp_path / "c1.ckpt")
        c2 = str(tmp_path / "c2.ckpt")
        args[2] = c1
        assert main(args) == 0
        args[2] = c2
        assert main(args) == 0
        assert open(c1, "rb").read() == open(c2, "rb").read()

    def test_sweep_summary(self, tmp_path, corpus_file):
        base, out = str(tmp_path / "base.ckpt"), str(tmp_path / "sweep.csv")
        assert main([
            "train", corpus_file, base, "--steps", "30", "--batch-size", "2",
            "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1",
            "--heads", "2", "--context", "12",
        ]) == 0
        rc = main([
            "sweep", base, corpus_file, out, "--lambdas", "0,0.3",
            "--steps", "8", "--loss", "fisher", "--batch-size", "2",
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("lambda,median_margin,pr_below_half,beta")
        assert len(lines) == 3

    @pytest.mark.parametrize("flags,message", [
        (["--lambdas=nan,0.3"], "lambda_mrp must be finite"),
        (["--lambdas=-0.5,0"], "lambda_mrp must be nonnegative"),
        (["--lambdas=0.3,0.1"], "sorted ascending"),
        (["--ce-weight", "-1"], "ce_weight must be nonnegative"),
        (["--loss", "fisher", "--k", "1000"], "--k 1000 exceeds the vocabulary size 16"),
        (["--steps", "0"], "steps must be >= 1"),
        (["--lr", "nan"], "learning_rate must be finite"),
        (["--loss", "fisher", "--tau", "0.3", "--ce-weight=-1"],
         "warning: --tau is ignored for the fisher loss"),
    ])
    def test_bad_flags_exit_1_before_training(self, tmp_path, corpus_file, base_ckpt, capsys,
                                              monkeypatch, flags, message):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(cli, "dose_response", no_training)
        out = tmp_path / "s.csv"
        assert main(["sweep", base_ckpt, corpus_file, str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_has_no_lambda_mrp(self, capsys):
        # Each --lambdas value replaced it, so it changed no output.
        with pytest.raises(SystemExit) as e:
            main(["sweep", "b.ckpt", "c.txt", "s.csv", "--lambda-mrp", "5.0"])
        assert e.value.code == 1
        assert "unrecognized arguments: --lambda-mrp" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--base-steps", "--vocab-size", "--hidden-dim", "--layers",
                                      "--heads", "--context", "--base-checkpoint"])
    def test_sweep_has_no_model_flags(self, capsys, flag):
        # The checkpoint fixes the model; train is the one way to build it.
        with pytest.raises(SystemExit) as e:
            main(["sweep", "b.ckpt", "c.txt", "s.csv", flag, "7"])
        assert e.value.code == 1
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err


class TestIgnoredFlags:
    """A flag the chosen mode ignores prints a warning and changes no output."""

    def test_model_flags_with_base_checkpoint(self, tmp_path, corpus_file, base_ckpt, capsys):
        model_flags = ["--vocab-size", "--hidden-dim", "--layers", "--heads", "--context"]
        outputs = []
        for ignored in ([], model_flags):
            extra = [x for flag in ignored for x in (flag, "7")]
            out = str(tmp_path / f"{len(ignored)}.ckpt")
            assert main(["train", corpus_file, out, "--steps", "3",
                         "--base-checkpoint", base_ckpt, *extra]) == 0
            outputs.append(open(out, "rb").read())
            err = capsys.readouterr().err
            for flag in ignored:
                assert err.count(f"warning: {flag} is ignored with --base-checkpoint") == 1
            assert ("warning" in err) == bool(ignored)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags, warning", [
        (["--sampler", "square_uniform"], "warning: --sampler is ignored without --sites"),
        (["--sites", "SITES", "--config", "square8"], "warning: --config is ignored with --sites"),
    ], ids=["sampler-without-sites", "config-with-sites"])
    def test_synth_validate(self, tmp_path, monkeypatch, capsys, flags, warning):
        sp = str(tmp_path / "sites.json")
        with open(sp, "w") as f:
            json.dump([[1.0, 0.0], [-1.0, 0.0]], f)
        specs = []

        def record(spec, seed):
            specs.append(spec)
            raise StopIteration

        monkeypatch.setattr(cli, "validate_scaling", record)
        used = [sp if f == "SITES" else f for f in flags]
        for argv in (used[:2 * ("--sites" in used)], used):
            with pytest.raises(StopIteration):
                main(["synth-validate", *argv])
            assert (warning in capsys.readouterr().err) == (argv == used)
        assert specs[0].sampler == specs[1].sampler
        assert np.array_equal(specs[0].sites, specs[1].sites)


@pytest.fixture
def io_failures(tmp_path, corpus_file):
    """Paths that fail on open: a directory, an existing file as --out-dir,
    and a corpus that is not UTF-8; plus valid files to go with them."""
    bad = str(tmp_path / "latin1.txt")
    with open(bad, "wb") as f:
        f.write("caf\xe9 au lait. ".encode("latin-1") * 20)
    ckpt = str(tmp_path / "m.ckpt")
    fileio.save_checkpoint(ckpt, ToyLm(ToyLmConfig(16, 16, 1, 2, 12), seed=0))
    (tmp_path / "file").write_text("")
    return {"DIR": str(tmp_path), "LATIN1": bad, "CKPT": ckpt, "CORPUS": corpus_file,
            "AUDIT": os.path.join(FIXTURES, "baseline_6.jsonl"), "OUT": str(tmp_path / "out"),
            "FILE": str(tmp_path / "file")}


class TestIoFailures:
    @pytest.mark.parametrize("argv", [
        ["audit", "DIR", "AUDIT", "OUT"],
        ["gap-fit", "DIR"],
        ["compare", "DIR", "AUDIT", "--out-dir", "OUT"],
        ["compare", "AUDIT", "AUDIT", "--out-dir", "FILE"],
        ["layer-scan", "DIR", "CORPUS", "OUT"],
        ["layer-scan", "CKPT", "LATIN1", "OUT"],
        ["train", "LATIN1", "OUT", "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1"],
        ["sweep", "CKPT", "LATIN1", "OUT"],
    ], ids=["audit-dir", "gap-fit-dir", "compare-dir", "compare-out-dir-file", "layer-scan-dir",
            "layer-scan-latin1", "train-latin1", "sweep-latin1"])
    def test_exit_2_without_traceback(self, io_failures, argv, capsys):
        # A traceback would be an exception escaping main.
        assert main([io_failures.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("marginlab: data error")


class TestSynthValidate:
    # The 3-column sites differ only in a coordinate the zero-padded
    # points never see.
    @pytest.mark.parametrize("sites", [[[1.0, 0.0], [1.0, 0.0]],
                                       [[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]])
    def test_duplicate_sites_exit_2(self, tmp_path, sites, capsys):
        sp = str(tmp_path / "sites.json")
        with open(sp, "w") as f:
            json.dump(sites, f)
        assert main(["synth-validate", "--sites", sp, "--samples", "200000"]) == 2
        assert "duplicate rows" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff[[1.0, 0.0]]", b'[[1.0, 0.0], [1.0]]', b'[["a", "b"]]', b'[["1", "0"], ["-1", "0"]]',
        b'[[true, false], [false, true]]', b'[[1.0]]', b'[[1.0, 0.0]]', b'[[1.0], [-1.0]]',
        b'[1.0, 0.0]', pytest.param(b'[[1' + b'0' * 400 + b', 0], [-1, 0]]', id="1e400-int"),
    ])
    def test_unreadable_sites_exit_2(self, tmp_path, content):
        sp = str(tmp_path / "sites.json")
        with open(sp, "wb") as f:
            f.write(content)
        assert main(["synth-validate", "--sites", sp, "--samples", "2000"]) == 2

    def test_overflowing_logit_exit_2_names_sample(self, tmp_path, monkeypatch, capsys):
        from marginlab import manifold

        monkeypatch.setattr(manifold, "_CHUNK", 3)
        sites = np.array([[1.0, 0.0], [-1.5e308, 1e308]])
        sp = str(tmp_path / "sites.json")
        with open(sp, "w") as f:
            json.dump(sites.tolist(), f)
        theta = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 100_000)
        with np.errstate(over="ignore"):
            logits = np.column_stack([np.cos(theta), np.sin(theta)]) @ sites.T
        first = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        assert first >= 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synth-validate", "--sites", sp, "--samples", "100000"]) == 2
        assert capsys.readouterr().err.endswith(f"non-finite logit at position {first}\n")

    def test_overflowing_grid_exit_2_names_grid_index(self, tmp_path, capsys):
        # |x_0| passes the float64 maximum only within about 5e-6 rad of pi/4
        # and 5 pi/4: no sample lands there, but points of the oracle's grid do.
        c = np.finfo(float).max / math.sqrt(2.0) * (1 + 1.25e-11)
        sites = np.array([[c, c], [1.0, 0.0]])
        sp = str(tmp_path / "sites.json")
        with open(sp, "w") as f:
            json.dump(sites.tolist(), f)
        theta = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 100_000)
        with np.errstate(over="ignore"):
            assert np.isfinite(np.column_stack([np.cos(theta), np.sin(theta)]) @ sites.T).all()
            n, block = 10_000_000, 1_000_000
            for start in range(0, n, block):
                grid = (np.arange(start, start + block) + 0.5) * (2.0 * math.pi / n)
                bad = ~np.isfinite(np.column_stack([np.cos(grid), np.sin(grid)]) @ sites.T)
                if bad.any():
                    first = start + int(np.flatnonzero(bad.any(axis=1))[0])
                    break
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synth-validate", "--sites", sp, "--samples", "100000"]) == 2
        assert capsys.readouterr().err.endswith(f"non-finite logit at position {first}\n")

    def test_overflowing_margin_exit_2_names_sample(self, tmp_path, capsys):
        # finite logits +-1e308 cos(theta) whose difference overflows
        sites = np.array([[1e308, 0.0], [-1e308, 0.0]])
        sp = str(tmp_path / "sites.json")
        with open(sp, "w") as f:
            json.dump(sites.tolist(), f)
        theta = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 100_000)
        logits = np.column_stack([np.cos(theta), np.sin(theta)]) @ sites.T
        assert np.isfinite(logits).all()
        with np.errstate(over="ignore"):
            first = int(np.flatnonzero(np.isinf(logits[:, 0] - logits[:, 1]))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synth-validate", "--sites", sp, "--samples", "100000"]) == 2
        assert capsys.readouterr().err.endswith(f"margin overflows at sample {first}\n")

    def test_circle2_passes(self, tmp_path):
        out = str(tmp_path / "verdict.json")
        rc = main(["synth-validate", "--config", "circle2", "--samples", "300000",
                   "--out", out])
        assert rc == 0
        verdict = json.loads(open(out).read())
        assert 0.9 <= verdict["beta"] <= 1.1
        assert verdict["relative_alpha_error"] < 0.05


class TestInputsNotMutated:
    def test_audit_inputs_untouched(self, tmp_path, tiny_logits):
        lp, tp, _ = tiny_logits
        before = (open(lp, "rb").read(), open(tp, "rb").read())
        assert main(["audit", lp, tp, str(tmp_path / "a.jsonl")]) == 0
        after = (open(lp, "rb").read(), open(tp, "rb").read())
        assert before == after


class TestLayerScanCommand:
    def test_scan_csv_and_determinism(self, tmp_path, corpus_file):
        ckpt = str(tmp_path / "model.ckpt")
        assert main([
            "train", corpus_file, ckpt, "--steps", "20",
            "--vocab-size", "16", "--hidden-dim", "16", "--layers", "2",
            "--heads", "2", "--context", "12",
        ]) == 0
        s1 = str(tmp_path / "scan1.csv")
        s2 = str(tmp_path / "scan2.csv")
        assert main(["layer-scan", ckpt, corpus_file, s1]) == 0
        assert main(["layer-scan", ckpt, corpus_file, s2]) == 0
        assert open(s1).read() == open(s2).read()
        lines = open(s1).read().splitlines()
        assert lines[0] == "layer_index,spearman_ce_mrp"
        assert len(lines) == 3

    def test_version_mismatch_exits_2(self, tmp_path, corpus_file):
        ckpt = str(tmp_path / "model.ckpt")
        assert main([
            "train", corpus_file, ckpt, "--steps", "2",
            "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1",
            "--heads", "2", "--context", "12",
        ]) == 0
        raw = open(ckpt, "rb").read()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header["version"] = 99
        with open(ckpt, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode() + b"\n" + raw[nl + 1:])
        assert main(["layer-scan", ckpt, corpus_file, str(tmp_path / "s.csv")]) == 2

    def test_version_1_checkpoint_exits_2(self, tmp_path, corpus_file, capsys):
        # A version-1 header also carried tied_embeddings in its config.
        cfg = ToyLmConfig(vocab_size=16, hidden_dim=16, layers=1, heads=2, context=12)
        ckpt = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(ckpt, ToyLm(cfg, seed=0))
        raw = open(ckpt, "rb").read()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header.update(version=1, config={**header["config"], "tied_embeddings": True})
        with open(ckpt, "wb") as f:
            f.write(json.dumps(header, sort_keys=True).encode() + b"\n" + raw[nl + 1:])
        assert main(["layer-scan", ckpt, corpus_file, str(tmp_path / "s.csv")]) == 2
        assert "checkpoint version 1 is not 2" in capsys.readouterr().err


class TestFlagDefaults:
    """With no optional flags, each command passes on the defaults of the
    config dataclasses.  The work functions are replaced, so nothing trains."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def record(name, result):
            def fake(*args, **kwargs):
                calls.append((args, kwargs))
                return result

            monkeypatch.setattr(cli, name, fake)

        record("train", [StepMetrics(0, 0.0, 0.0, 0.0)])
        record("dose_response", ([], None))
        record("fit_gap_curve", GapFit([], [], 1.0, 0.0, 0.0, 1.0))
        record("layer_scan", [])
        return calls

    def test_train(self, tmp_path, corpus_file, calls):
        assert main(["train", corpus_file, str(tmp_path / "m.ckpt")]) == 0
        [((model, _, config), _)] = calls
        assert model.config == ToyLmConfig() and model.seed == TrainConfig.seed
        assert config == TrainConfig()

    def test_sweep(self, tmp_path, corpus_file, base_ckpt, calls):
        assert main(["sweep", base_ckpt, corpus_file, str(tmp_path / "s.csv")]) == 0
        [((_, _, _, config), _)] = calls
        assert config == TrainConfig()

    def test_gap_fit(self, tmp_path, calls):
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, margin_audit(np.linspace(0.1, 2.0, 1000)))
        assert main(["gap-fit", ap]) == 0
        [((_, grid), _)] = calls
        assert grid == GridSpec()

    def test_layer_scan(self, tmp_path, corpus_file, calls):
        cfg = ToyLmConfig(vocab_size=16, hidden_dim=16, layers=1, heads=2, context=12)
        ckpt = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(ckpt, ToyLm(cfg, seed=0))
        assert main(["layer-scan", ckpt, corpus_file, str(tmp_path / "s.csv")]) == 0
        [(_, kwargs)] = calls
        assert kwargs == {"tau": MrpConfig().tau}


def _omit_last_param(header, payload):
    last = header["params"].pop()
    return header, payload[: -8 * int(np.prod(last["shape"]))]


def _nan_first_value(header, payload):
    return header, np.array([np.nan], "<f8").tobytes() + payload[8:]


# Each breaks the checkpoint format one way; all must exit 2 at load time.
BAD_CHECKPOINTS = {
    "header is a list": (lambda h, p: ([1], p), "not a marginlab checkpoint"),
    "unknown config key": (
        lambda h, p: ({**h, "config": {**h["config"], "dropout": 0.1}}, p),
        "fields and types",
    ),
    "no params": (
        lambda h, p: ({k: v for k, v in h.items() if k != "params"}, p),
        "manifest does not match",
    ),
    "manifest omits a parameter": (_omit_last_param, "manifest does not match"),
    # Refused from the header alone, before the model is allocated.
    "header claims 10**9 layers": (
        lambda h, p: ({**h, "config": {**h["config"], "layers": 10**9}}, p[:8]),
        "manifest does not match",
    ),
    "NaN parameter value": (_nan_first_value, "non-finite values"),
    # A type check, not ==, rejects these: True == 1 and 2.0 == 2 in Python.
    "version 2.0": (lambda h, p: ({**h, "version": 2.0}, p), "checkpoint version 2.0 is not 2"),
    "step true": (lambda h, p: ({**h, "step": True}, p), "checkpoint step True is not"),
    "step -3.5": (lambda h, p: ({**h, "step": -3.5}, p), "checkpoint step -3.5 is not"),
    "train_config a string": (lambda h, p: ({**h, "train_config": "steps=6"}, p),
                              "checkpoint train_config 'steps=6' is not null or a JSON object"),
    "train_config a list": (lambda h, p: ({**h, "train_config": [6]}, p),
                            "checkpoint train_config [6] is not null or a JSON object"),
    "corpus_digest a number": (lambda h, p: ({**h, "train_config": {"corpus_digest": 5}}, p),
                               "is not the corpus_digest 5 of"),
    "corpus_digest null": (lambda h, p: ({**h, "train_config": {"corpus_digest": None}}, p),
                           "is not the corpus_digest None of"),
}


class TestBadCheckpoints:
    @pytest.mark.parametrize("kind", sorted(BAD_CHECKPOINTS))
    def test_layer_scan_exits_2(self, tmp_path, corpus_file, capsys, kind):
        cfg = ToyLmConfig(vocab_size=16, hidden_dim=16, layers=1, heads=2, context=12)
        ckpt = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(ckpt, ToyLm(cfg, seed=0))
        raw = open(ckpt, "rb").read()
        nl = raw.find(b"\n")
        assert main(["layer-scan", ckpt, corpus_file, str(tmp_path / "ok.csv")]) == 0
        breaker, message = BAD_CHECKPOINTS[kind]
        header, payload = breaker(json.loads(raw[:nl]), raw[nl + 1 :])
        with open(ckpt, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + payload)
        assert main(["layer-scan", ckpt, corpus_file, str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


# The commands that read a checkpoint with a corpus, each on (checkpoint, corpus, out).
CHECKPOINT_COMMANDS = {
    "sweep": lambda ckpt, corpus, out: ["sweep", ckpt, corpus, out, "--lambdas", "0",
                                        "--steps", "2", "--batch-size", "2"],
    "layer-scan": lambda ckpt, corpus, out: ["layer-scan", ckpt, corpus, out],
    "train --base-checkpoint": lambda ckpt, corpus, out: ["train", corpus, out, "--steps", "2",
                                                          "--base-checkpoint", ckpt],
}


class TestCorpusDigest:
    """train records the digest of its corpus; a command given another corpus
    for that checkpoint exits 2 before any training."""

    @pytest.fixture
    def trained(self, tmp_path, corpus_file):
        ckpt, other = str(tmp_path / "model.ckpt"), str(tmp_path / "other.txt")
        assert main(["train", corpus_file, ckpt, "--steps", "2", "--vocab-size", "16",
                     "--hidden-dim", "16", "--layers", "1", "--heads", "2", "--context", "12"]) == 0
        with open(corpus_file) as f, open(other, "w") as g:
            g.write(f.read() + " alpha")
        return ckpt, other

    def test_train_records_the_corpus_digest(self, trained, corpus_file):
        _, header = fileio.load_checkpoint(trained[0])
        assert header["train_config"]["corpus_digest"] == fileio.file_digest(corpus_file)

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    def test_same_corpus_runs(self, tmp_path, trained, corpus_file, command):
        out = str(tmp_path / "out")
        assert main(CHECKPOINT_COMMANDS[command](trained[0], corpus_file, out)) == 0
        assert os.path.exists(out)

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    def test_other_corpus_exits_2(self, tmp_path, trained, corpus_file, monkeypatch, capsys,
                                  command):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        for name in ("train", "dose_response", "layer_scan"):
            monkeypatch.setattr(cli, name, no_training)
        ckpt, other = trained
        out = str(tmp_path / "out")
        assert main(CHECKPOINT_COMMANDS[command](ckpt, other, out)) == 2
        err = capsys.readouterr().err
        assert f"data error: {other}: corpus digest {fileio.file_digest(other)} is not the " \
               f"corpus_digest '{fileio.file_digest(corpus_file)}' of {ckpt}" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("train_config", [None, {"steps": 2}])
    def test_checkpoint_without_a_digest_loads(self, tmp_path, corpus_file, train_config):
        ckpt, out = str(tmp_path / "model.ckpt"), str(tmp_path / "scan.csv")
        model = ToyLm(ToyLmConfig(vocab_size=16, hidden_dim=16, layers=1, heads=2, context=12), seed=0)
        fileio.save_checkpoint(ckpt, model, train_config=train_config)
        assert main(["layer-scan", ckpt, corpus_file, out]) == 0


class TestBadFlagValues:
    """Flag values the configs reject exit 1 with a usage message before
    any work that depends on them."""

    @pytest.mark.parametrize("value", ["-1", str(2**63), "1.5"])
    @pytest.mark.parametrize("argv", [["audit", "l.bin", "t.json", "a.jsonl"],
                                      ["train", "c.txt", "m.ckpt"],
                                      ["sweep", "b.ckpt", "c.txt", "s.csv"],
                                      ["synth-validate"]], ids=lambda a: a[0])
    def test_seed_outside_range_exits_1(self, argv, value, capsys):
        with pytest.raises(SystemExit) as e:
            main([*argv, "--seed", value])
        assert e.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "seed must be an integer in [0, 2**63)" in err

    @pytest.mark.parametrize("flags", [["--lambda-mrp", "1", "--tau", "nan"], ["--lr", "nan"],
                                       ["--lr", "inf"], ["--lambda-mrp", "inf"],
                                       ["--ce-weight", "nan"], ["--tau=-inf"]],
                             ids=" ".join)
    def test_train_non_finite_exits_1(self, tmp_path, corpus_file, capsys, flags):
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", corpus_file, str(ckpt), "--steps", "2", "--vocab-size", "16",
                     "--hidden-dim", "16", "--layers", "1", "--heads", "2", "--context", "12",
                     *flags]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1", "0"])
    def test_layer_scan_non_finite_tau_exits_1(self, tmp_path, corpus_file, capsys, tau):
        cfg = ToyLmConfig(vocab_size=16, hidden_dim=16, layers=1, heads=2, context=12)
        ckpt = str(tmp_path / "model.ckpt")
        fileio.save_checkpoint(ckpt, ToyLm(cfg, seed=0))
        out = tmp_path / "scan.csv"
        assert main(["layer-scan", ckpt, corpus_file, str(out), "--tau", tau]) == 1
        expected = "tau must be finite" if tau in ("nan", "inf") else "tau must be positive"
        assert expected in capsys.readouterr().err
        assert not out.exists()


# Sizes no machine can allocate, so each fails before any memory is touched:
# 1e17 float64 or int64 values are 711 PiB, past any address space, and
# 2**62 of them pass numpy's limit of sys.maxsize bytes for one array.
# 1e9 layers pass that limit's check but take about 358 TiB of parameters.
HUGE, PAST_NUMPY, LAYERS = "100000000000000000", str(2**62), "1000000000"


class TestOversizedFlagValues:
    """A size flag no machine can allocate exits 1 with a one-line usage
    error and writes nothing, whether a config refuses it up front or the
    allocation fails."""

    @staticmethod
    def assert_one_line_usage_error(rc, capsys, out):
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err.startswith("marginlab: usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--context", HUGE], ["--hidden-dim", HUGE, "--heads", "1"], ["--batch-size", HUGE],
        ["--batch-size", PAST_NUMPY], ["--layers", LAYERS],
    ], ids=" ".join)
    def test_train(self, tmp_path, corpus_file, capsys, flags):
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", corpus_file, str(ckpt), "--steps", "1", *flags])
        self.assert_one_line_usage_error(rc, capsys, ckpt)

    @pytest.mark.parametrize("samples", [HUGE, PAST_NUMPY])
    def test_synth_validate_samples(self, tmp_path, capsys, samples):
        out = tmp_path / "verdict.json"
        rc = main(["synth-validate", "--samples", samples, "--out", str(out)])
        self.assert_one_line_usage_error(rc, capsys, out)

    @pytest.mark.parametrize("count", [HUGE, PAST_NUMPY])
    def test_gap_fit_grid_count(self, tmp_path, capsys, count):
        ap, out = str(tmp_path / "audit.jsonl"), tmp_path / "fit.json"
        fileio.write_audit(ap, margin_audit(np.linspace(0.1, 2.0, 1000)))
        rc = main(["gap-fit", ap, "--grid-count", count, "--out", str(out)])
        self.assert_one_line_usage_error(rc, capsys, out)


class TestSourceDateEpoch:
    @pytest.mark.parametrize("epoch", ["abc", "99999999999999999999"])
    @pytest.mark.parametrize("command", ["audit", "gap-fit", "compare"])
    def test_bad_epoch_exits_1_naming_it(self, tmp_path, tiny_logits, monkeypatch, capsys,
                                         command, epoch):
        ap = str(tmp_path / "fit.jsonl")
        fileio.write_audit(ap, margin_audit((np.arange(2000) + 0.5) / 2000))
        lp, tp, _ = tiny_logits
        out = str(tmp_path / "out")
        argv = {"audit": ["audit", lp, tp, out], "gap-fit": ["gap-fit", ap, "--out", out],
                "compare": ["compare", ap, ap, "--out-dir", out]}[command]
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("marginlab: ") and "SOURCE_DATE_EPOCH must be an integer" in err
        assert f"got '{epoch}'" in err and "Traceback" not in err
        assert not os.path.exists(out)


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 1

    def test_missing_args_exit_1(self):
        with pytest.raises(SystemExit) as e:
            main(["audit"])
        assert e.value.code == 1
