"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` (repeatable, so
set-up time can be taken as a median), runs one throwaway ``warm_up``,
and then runs identical timed passes.  A pass returns the wall time of
each stage; ``check_pass`` and ``final_checks`` return named correctness
checks, each True or False.

Every marginlab function is looked up through its module attribute at
call time (``training.train``, ``cli.main``, ``manifold.validate_scaling``)
so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from collections import Counter
from importlib import resources

import numpy as np

from marginlab import cli, manifold, training
from marginlab.objectives import MrpConfig
from marginlab.tokenizer import Vocab, tokenize
from marginlab.toylm import ToyLm, ToyLmConfig

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


def corpus_ids(vocab_size: int = 512) -> tuple[np.ndarray, Vocab]:
    """The bundled corpus, tokenized and encoded with its own vocabulary."""
    text = resources.files("marginlab").joinpath("data/corpus.txt").read_text()
    tokens = tokenize(text)
    vocab = Vocab.from_tokens(tokens, vocab_size)
    return vocab.encode(tokens), vocab


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

CORPUS_TOKENS = 16_000
# Short passes: the machine's speed drifts in bursts of a few seconds, and a
# median over many short passes rides those out.
CE_STEPS = 8
FISHER_STEPS = 8
CE_BATCH = 4
CE_FINAL_STEPS = 5  # ce_final averages the CE of this many last logged steps


def ce_config(steps: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        steps=steps, learning_rate=1e-3, batch_size=CE_BATCH, seed=seed,
        mrp=MrpConfig(objective="fisher", lambda_mrp=0.0),
    )


def fisher_config(steps: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        steps=steps, learning_rate=1e-4, batch_size=1, seed=seed,
        mrp=MrpConfig(objective="fisher", lambda_mrp=0.6),
    )


def _records_ok(records, expected: int) -> bool:
    return len(records) == expected and all(
        r.margin >= 0 and r.top1_id != r.top2_id and r.correct == (r.top1_id == r.target_id)
        and r.position_index == i
        for i, r in enumerate(records)
    )


def _log_finite(log) -> bool:
    return all(math.isfinite(v) for m in log for v in (m.ce, m.mrp, m.median_margin))


def refine_protocol(model: ToyLm, ids: np.ndarray, ce_steps: int, fisher_steps: int,
                    seed: int, phase=lambda name: None):
    """CE phase, fisher phase from that model, then a full audit.
    Returns (ce_log, fisher_log, audit, stage seconds)."""
    t0 = time.perf_counter()
    phase("ce")
    ce_log = training.train(model, ids, ce_config(ce_steps, seed))
    t1 = time.perf_counter()
    phase("fisher")
    fisher_log = training.train(model, ids, fisher_config(fisher_steps, seed))
    t2 = time.perf_counter()
    phase("audit_model")
    audit = training.audit_model(model, ids)
    t3 = time.perf_counter()
    return ce_log, fisher_log, audit, {"ce": t1 - t0, "fisher": t2 - t1, "audit_model": t3 - t2}


class Refine:
    """CE phase (lambda 0, batch 4), fisher phase (lambda 0.6, batch 1) and
    ``audit_model`` over the first 16K corpus tokens, ToyLmConfig()."""

    name = "refine"
    operations = 3  # per pass

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first = None

    def setup(self) -> None:
        ids, _ = corpus_ids()
        self.ids = ids[:CORPUS_TOKENS]
        self.base = ToyLm(ToyLmConfig(), seed=self.seed)
        self.chunks = len(training.make_chunks(self.ids, self.base.config.context))

    def warm_up(self) -> None:
        refine_protocol(self.base.clone(), self.ids[:960], 2, 2, self.seed)

    def run_pass(self, phase) -> dict:
        ce_log, fisher_log, audit, stage_s = refine_protocol(
            self.base.clone(), self.ids, CE_STEPS, FISHER_STEPS, self.seed, phase
        )
        self.last = (ce_log, fisher_log, audit)
        return stage_s

    def stage_metrics(self, stage_s: dict) -> dict:
        # Nominal loss positions: every chunk but the last is context long.
        per_chunk = self.base.config.context - 1
        ce_log = self.last[0]
        return {
            "ce_tokens_per_s": CE_STEPS * CE_BATCH * per_chunk / stage_s["ce"],
            "fisher_tokens_per_s": FISHER_STEPS * per_chunk / stage_s["fisher"],
            "audit_model_tokens_per_s": (self.ids.size - self.chunks) / stage_s["audit_model"],
            "ce_final": float(np.mean([m.ce for m in ce_log[-CE_FINAL_STEPS:]])),
        }

    def check_pass(self) -> dict[str, bool]:
        ce_log, fisher_log, audit = self.last
        out = {
            "losses finite": _log_finite(ce_log) and _log_finite(fisher_log),
            "audit_model records valid": _records_ok(audit, self.ids.size - self.chunks),
        }
        if self.first is None:
            self.first = self.last
        else:
            out["pass identical to first pass"] = self.last == self.first
        return out

    def final_checks(self) -> dict[str, bool]:
        return pinned_reference_checks()


PINNED_PATH = os.path.join(HERE, "pinned.json")
PIN_FIRST_STEP_RTOL = 1e-12
PIN_FINAL_RTOL = 1e-6  # summation order may change; 8 optimizer steps amplify it a little


def pinned_values() -> dict[str, float]:
    """A short fixed-seed refine protocol: first-step and final values."""
    ids, _ = corpus_ids()
    ids = ids[:CORPUS_TOKENS]
    model = ToyLm(ToyLmConfig(), seed=0)
    ce_log, fisher_log, audit, _ = refine_protocol(model, ids, 4, 4, 0)
    margins = np.sort([r.margin for r in audit])
    return {
        "first.ce.ce": ce_log[0].ce,
        "first.ce.objective": ce_log[0].mrp,
        "first.fisher.ce": fisher_log[0].ce,
        "first.fisher.objective": fisher_log[0].mrp,
        "final.ce.ce": ce_log[-1].ce,
        "final.ce.median_margin": ce_log[-1].median_margin,
        "final.fisher.ce": fisher_log[-1].ce,
        "final.fisher.objective": fisher_log[-1].mrp,
        "final.audit.median_margin": float(margins[margins.size // 2]),
        "final.audit.accuracy": float(np.mean([r.correct for r in audit])),
    }


def pinned_reference_checks() -> dict[str, bool]:
    with open(PINNED_PATH, encoding="utf-8") as f:
        pinned = json.load(f)
    got = pinned_values()
    out = {}
    for key, want in pinned.items():
        rtol = PIN_FIRST_STEP_RTOL if key.startswith("first.") else PIN_FINAL_RTOL
        out[f"pinned {key}"] = abs(got[key] - want) <= rtol * abs(want)
    return out


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

AUDIT_POSITIONS = 100_000
AUDIT_VOCAB = 512
_GEN_ROWS = 10_000


def _container_header(rows: int, cols: int) -> bytes:
    """Header line of an f32 logits container (documented format: one
    sorted-key JSON line, then row-major little-endian f32)."""
    header = {"cols": cols, "corpus_id": "", "dtype": "f32", "layout": "row-major-le",
              "model_id": "", "rows": rows}
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def audit_inputs(seed: int, positions: int, workdir: str) -> dict:
    """Targets drawn from the corpus's token frequencies, and baseline and
    polished logits shaped like a partly trained model: a unigram prior,
    row noise, and a target boost that varies by position.  The polished
    logits perturb the baseline's and lift the target a little, so both
    wrong-to-right and right-to-wrong flips occur."""
    ids, vocab = corpus_ids(AUDIT_VOCAB)
    rng = np.random.default_rng(seed)
    targets = ids[rng.integers(0, ids.size, positions)]
    freq = np.bincount(ids, minlength=AUDIT_VOCAB).astype(np.float32)
    prior = np.log(freq + 1.0) * np.float32(0.5)
    paths = {key: os.path.join(workdir, name) for key, name in (
        ("baseline", "baseline.logits"), ("polished", "polished.logits"),
        ("targets", "targets.json"), ("counts", "counts.json"), ("texts", "texts.json"),
    )}
    with open(paths["baseline"], "wb") as fb, open(paths["polished"], "wb") as fp:
        fb.write(_container_header(positions, AUDIT_VOCAB))
        fp.write(_container_header(positions, AUDIT_VOCAB))
        for lo in range(0, positions, _GEN_ROWS):
            t = targets[lo : lo + _GEN_ROWS]
            rows = np.arange(t.size)
            x = rng.standard_normal((t.size, AUDIT_VOCAB), dtype=np.float32) + prior
            x[rows, t] += rng.normal(1.6, 1.6, t.size).astype(np.float32)
            fb.write(x.astype("<f4").tobytes())
            # Uniform jitter (std 0.08): normal draws would double set-up time.
            x += (rng.random(x.shape, dtype=np.float32) - np.float32(0.5)) * np.float32(0.28)
            x[rows, t] += np.float32(0.05)
            fp.write(x.astype("<f4").tobytes())
    counts = Counter(targets.tolist())
    for key, obj in (
        ("targets", targets.tolist()),
        ("counts", {str(k): v for k, v in sorted(counts.items())}),
        ("texts", {str(i): t for i, t in enumerate(vocab.id_to_token)}),
    ):
        with open(paths[key], "w", encoding="utf-8") as f:
            json.dump(obj, f)
    paths["target_ids"] = targets
    return paths


def audit_commands(paths: dict, workdir: str, seed: int) -> list[tuple[str, list[str]]]:
    out = {key: os.path.join(workdir, name) for key, name in (
        ("baseline_audit", "baseline.jsonl"), ("polished_audit", "polished.jsonl"),
        ("compare", "compare"), ("gapfit", "gapfit.json"),
    )}
    paths.update(out)
    return [
        ("audit", ["audit", paths["baseline"], paths["targets"], out["baseline_audit"],
                   "--bf16-emulate", "--seed", str(seed)]),
        ("audit", ["audit", paths["polished"], paths["targets"], out["polished_audit"],
                   "--seed", str(seed)]),
        ("compare", ["compare", out["baseline_audit"], out["polished_audit"],
                     "--out-dir", out["compare"], "--freq-counts", paths["counts"],
                     "--token-texts", paths["texts"]]),
        ("gap-fit", ["gap-fit", out["polished_audit"], "--out", out["gapfit"]]),
    ]


def run_cli(commands) -> tuple[dict, bool]:
    """Run each CLI command in process; returns (seconds per stage, all ok)."""
    stage_s: dict[str, float] = {}
    ok = True
    sink = io.StringIO()
    for stage, argv in commands:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        stage_s[stage] = stage_s.get(stage, 0.0) + time.perf_counter() - t0
        ok &= code == 0
    return stage_s, ok


class Audit:
    """``marginlab audit`` (bf16 baseline, f32 polished), ``compare`` with
    frequency and token-class sections, and ``gap-fit``, at 1e5 x 512."""

    name = "audit"
    operations = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first = None

    def setup(self) -> None:
        self.paths = audit_inputs(self.seed, AUDIT_POSITIONS, self.workdir)
        self.commands = audit_commands(self.paths, self.workdir, self.seed)

    def warm_up(self) -> None:
        warm = os.path.join(self.workdir, "warm")
        os.makedirs(warm, exist_ok=True)
        paths = audit_inputs(self.seed + 1, 2_000, warm)
        run_cli(audit_commands(paths, warm, self.seed))
        shutil.rmtree(warm)

    def run_pass(self, phase) -> dict:
        phase("audit")
        stage_s, self.ok = run_cli(self.commands)
        return stage_s

    def stage_metrics(self, stage_s: dict) -> dict:
        return {
            "audit_positions_per_s": 2 * AUDIT_POSITIONS / stage_s["audit"],
            "compare_positions_per_s": AUDIT_POSITIONS / stage_s["compare"],
            "gapfit_positions_per_s": AUDIT_POSITIONS / stage_s["gap-fit"],
        }

    def _outputs(self) -> list[str]:
        compare = self.paths["compare"]
        return [self.paths["baseline_audit"], self.paths["polished_audit"],
                self.paths["gapfit"]] + [os.path.join(compare, n) for n in sorted(os.listdir(compare))]

    def check_pass(self) -> dict[str, bool]:
        out = {"cli exit codes 0": self.ok}
        if not self.ok:
            return out
        digests = [(p, _digest(p)) for p in self._outputs()]
        if self.first is None:
            self.first = digests
        else:
            out["outputs identical to first pass"] = digests == self.first
        return out

    def final_checks(self) -> dict[str, bool]:
        if not self.ok:
            return {}
        p = self.paths
        targets = p["target_ids"]
        base = checks.read_audit_columns(p["baseline_audit"])
        pol = checks.read_audit_columns(p["polished_audit"])
        ref_base = checks.stable_top2(checks.read_container(p["baseline"]), bf16=True)
        ref_pol = checks.stable_top2(checks.read_container(p["polished"]), bf16=False)
        with open(os.path.join(p["compare"], "bundle.json"), encoding="utf-8") as f:
            bundle = json.load(f)
        with open(p["gapfit"], encoding="utf-8") as f:
            gap = json.load(f)
        churn = {k: bundle["churn"][k] for k in ("churned", "w2r", "r2w")}
        return {
            "baseline records keep invariants": checks.invariant_violations(base) == 0,
            "polished records keep invariants": checks.invariant_violations(pol) == 0,
            "baseline matches bf16 stable-sort reference":
                checks.reference_mismatches(base, targets, ref_base) == 0,
            "polished matches f32 stable-sort reference":
                checks.reference_mismatches(pol, targets, ref_pol) == 0,
            "bf16 ties exercised": bool(ref_base[3].any()),
            "churn equals numpy recount": churn == checks.churn_recount(base, pol),
            "every frequency bucket occurs":
                all(b["count"] > 0 for b in bundle["frequency"]["buckets"]),
            "every token class occurs": all(r["count"] > 0 for r in bundle["classes"]["rows"]),
            "gap fit finite": all(math.isfinite(gap[k]) for k in ("beta", "r2")),
        }


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

SYNTH_SAMPLES = 1_000_000
SYNTH_PRESETS = ("circle2", "square8")


class Synth:
    """``validate_scaling`` on the circle2 and square8 presets at 1e6
    samples: top-2 selection over ~1e7 rows of only 2 or 8 columns."""

    name = "synth"
    operations = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first = None

    def setup(self) -> None:
        self.specs = {name: manifold.PRESETS[name](SYNTH_SAMPLES) for name in SYNTH_PRESETS}

    def warm_up(self) -> None:
        # The oracle's grid is the same at any sample count, and its first
        # run in a process is ~50% slower than later ones.
        manifold.validate_scaling(manifold.PRESETS["circle2"](100_000), seed=self.seed)

    def run_pass(self, phase) -> dict:
        stage_s, self.verdicts = {}, {}
        for name, spec in self.specs.items():
            phase(name)
            t0 = time.perf_counter()
            self.verdicts[name] = manifold.validate_scaling(spec, seed=self.seed)
            stage_s[name] = time.perf_counter() - t0
        return stage_s

    def stage_metrics(self, stage_s: dict) -> dict:
        return {f"validate_s.{name}": stage_s[name] for name in SYNTH_PRESETS}

    def check_pass(self) -> dict[str, bool]:
        out = {}
        for name, v in self.verdicts.items():
            out[f"{name} verdict passes"] = 0.9 <= v.fit.beta <= 1.1 and v.fit.r2 > 0.99
        # The oracle's alpha: the fitted one is a 1e6-sample estimate that
        # misses 1/pi by more than 5% on about one seed in ten.
        alpha = self.verdicts["circle2"].oracle_alpha
        out["circle2 oracle alpha within 5% of 1/pi"] = abs(alpha * math.pi - 1.0) < 0.05
        if self.first is None:
            self.first = self.verdicts
        else:
            out["verdicts identical to first pass"] = repr(self.verdicts) == repr(self.first)
        return out

    def final_checks(self) -> dict[str, bool]:
        return {}


WORKLOADS = {w.name: w for w in (Refine, Audit, Synth)}
