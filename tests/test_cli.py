"""Command-line surface: exit codes, file outputs, determinism."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from marginlab import fileio
from marginlab.cli import main
from marginlab.margins import MarginRecord
from marginlab.toylm import ToyLm, ToyLmConfig


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
        assert main(["audit", hp, tp, out, "--fp32-recompute", "--unembedding", up]) == 0
        records, _ = fileio.read_audit(out)
        oracle = hidden.astype(np.float32) @ unemb.astype(np.float32).T
        assert records[0].top1_id == int(np.argmax(oracle[0]))

    def test_fp32_recompute_needs_unembedding(self, tmp_path, tiny_logits):
        lp, tp, _ = tiny_logits
        assert main(["audit", lp, tp, str(tmp_path / "x.jsonl"), "--fp32-recompute"]) == 1

    def test_empty_logits_exits_2(self, tmp_path, tiny_logits):
        _, tp, _ = tiny_logits
        bad = str(tmp_path / "empty.bin")
        with open(bad, "wb") as f:
            f.write(b"")
        assert main(["audit", bad, tp, str(tmp_path / "x.jsonl")]) == 2

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

    @pytest.mark.parametrize("targets", [
        ["a", "b", "c"], [1.5, 2, 3], [True, 2, 3], [1, [2], 3], [1, 2, 2**64], {"0": 1},
    ])
    def test_non_integer_targets_exit_2(self, tmp_path, tiny_logits, targets):
        lp, _, _ = tiny_logits
        tp = str(tmp_path / "bad.json")
        with open(tp, "w") as f:
            json.dump(targets, f)
        assert main(["audit", lp, tp, str(tmp_path / "x.jsonl")]) == 2


class TestGapFitCommand:
    def test_uniform_fixture(self, tmp_path, capsys):
        margins = (np.arange(50_000) + 0.5) / 5e4
        recs = [
            MarginRecord(i, 0, 1, 2, float(m), False) for i, m in enumerate(margins)
        ]
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, recs)
        rp = str(tmp_path / "fit.json")
        assert main(["gap-fit", ap, "--out", rp]) == 0
        report = json.loads(open(rp).read())
        assert abs(report["beta"] - 1.0) < 0.01
        assert report["r2"] > 0.999
        out = capsys.readouterr().out
        assert "alpha_intercept" in out and "alpha_constrained" in out

    def test_round_trip_report(self, tmp_path):
        margins = np.random.default_rng(1).exponential(size=2000)
        recs = [MarginRecord(i, 0, 1, 2, float(m), False) for i, m in enumerate(margins)]
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, recs)
        rp = str(tmp_path / "fit.json")
        assert main(["gap-fit", ap, "--out", rp]) == 0
        first = open(rp).read()
        report = json.loads(first)
        fileio.write_report_json(rp, report)
        assert open(rp).read() == first

    def test_degenerate_fit_exits_3(self, tmp_path):
        recs = [MarginRecord(i, 0, 1, 2, 0.0, False) for i in range(2000)]
        ap = str(tmp_path / "audit.jsonl")
        fileio.write_audit(ap, recs)
        assert main(["gap-fit", ap]) == 3


class TestCompareCommand:
    def test_identical_audits_zero_bundle(self, tmp_path):
        rng = np.random.default_rng(3)
        recs = [
            MarginRecord(i, int(rng.integers(0, 9)), int(rng.integers(0, 9)),
                         (int(rng.integers(0, 9)) + 1) % 9, float(rng.exponential()), False)
            for i in range(50)
        ]
        recs = [
            MarginRecord(r.position_index, r.target_id, r.top1_id,
                         r.top2_id if r.top2_id != r.top1_id else (r.top1_id + 1) % 9,
                         r.margin, r.top1_id == r.target_id)
            for r in recs
        ]
        ap = str(tmp_path / "a.jsonl")
        fileio.write_audit(ap, recs)
        out_dir = str(tmp_path / "cmp")
        assert main(["compare", ap, ap, "--out-dir", out_dir]) == 0
        bundle = json.loads(open(os.path.join(out_dir, "bundle.json")).read())
        assert bundle["churn"]["churned"] == 0
        assert bundle["expansion"]["mean_delta"] == 0.0
        assert "frequency" not in bundle
        assert "classes" not in bundle

    def test_optional_sections(self, tmp_path):
        base = [MarginRecord(0, 1, 2, 3, 0.5, False), MarginRecord(1, 4, 4, 5, 1.5, True)]
        pol = [MarginRecord(0, 1, 1, 3, 0.7, True), MarginRecord(1, 4, 4, 5, 1.6, True)]
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

    def test_misaligned_exits_2(self, tmp_path):
        a = [MarginRecord(0, 1, 2, 3, 0.5, False)]
        b = [MarginRecord(5, 1, 2, 3, 0.5, False)]
        ap = str(tmp_path / "a.jsonl")
        bp = str(tmp_path / "b.jsonl")
        fileio.write_audit(ap, a)
        fileio.write_audit(bp, b)
        assert main(["compare", ap, bp, "--out-dir", str(tmp_path / "cmp")]) == 2


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


class TestCompareFixtureBytes:
    def test_fixture_csvs(self, tmp_path):
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
        for name, text in FIXTURE_CSVS.items():
            assert open(os.path.join(out_dir, name)).read() == text, name


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
        recs = [MarginRecord(i, 0, 1, 2, float(m), False)
                for i, m in enumerate(np.random.default_rng(4).exponential(size=2000))]
        good = str(tmp_path / "good.jsonl")
        fileio.write_audit(good, recs)
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
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", corpus_file, out, "--lambdas", "0,0.3",
            "--base-steps", "30", "--steps", "8", "--loss", "fisher",
            "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1",
            "--heads", "2", "--context", "12", "--batch-size", "2",
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("lambda,median_margin,pr_below_half,beta")
        assert len(lines) == 3

    def test_bad_lambdas_exit_1(self, tmp_path, corpus_file):
        rc = main(["sweep", corpus_file, str(tmp_path / "s.csv"), "--lambdas", "0.3,0.1",
                   "--base-steps", "1", "--steps", "1",
                   "--vocab-size", "16", "--hidden-dim", "16", "--layers", "1",
                   "--heads", "2", "--context", "12"])
        assert rc == 1


class TestSynthValidate:
    def test_duplicate_sites_exit_2(self, tmp_path):
        sp = str(tmp_path / "sites.json")
        with open(sp, "w") as f:
            json.dump([[1.0, 0.0], [1.0, 0.0]], f)
        assert main(["synth-validate", "--sites", sp, "--samples", "200000"]) == 2

    @pytest.mark.parametrize("content", [b"\xff[[1.0, 0.0]]", b'[[1.0, 0.0], [1.0]]', b'[["a", "b"]]'])
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
    "NaN parameter value": (_nan_first_value, "non-finite values"),
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
        assert message in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 1

    def test_missing_args_exit_1(self):
        with pytest.raises(SystemExit) as e:
            main(["audit"])
        assert e.value.code == 1
