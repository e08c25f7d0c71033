"""Outside-in tracing of marginlab for the benchmark's traced run.

Each public function of a layer is wrapped at the module attribute its
caller looks it up through (``marginlab.training.fisher_loss`` is the
name ``train`` calls for its logging metrics; ``marginlab.objectives.
fisher_loss`` is the one ``combined_loss`` calls).  A wrapper records one
span per call: name, start, end, parent span, run id and whether the
call raised.  Spans stay in memory and are written out when the run
ends.  Nothing in the package itself changes; ``Tracer.restore`` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method on a
# class of that module.  Several sites may share one span name: the same
# function reached through different callers' imports.
SITES = (
    ("marginlab.toylm", "ToyLm.forward", "toylm.forward"),
    ("marginlab.toylm", "ToyLm.zero_grad", "toylm.zero_grad"),
    ("marginlab.autodiff", "Tape.backward", "autodiff.backward"),
    ("marginlab.training", "combined_loss", "objectives.combined_loss"),
    ("marginlab.training", "cross_entropy", "objectives.cross_entropy"),
    ("marginlab.training", "fisher_loss", "objectives.fisher_loss"),
    ("marginlab.objectives", "cross_entropy", "objectives.cross_entropy"),
    ("marginlab.objectives", "fisher_loss", "objectives.fisher_loss"),
    ("marginlab.training", "train", "training.train"),
    ("marginlab.training", "audit_model", "training.audit_model"),
    ("marginlab.training", "top2_stats", "margins.top2_stats"),
    ("marginlab.training", "compute_margins", "margins.compute_margins"),
    ("marginlab.margins", "top2_stats", "margins.top2_stats"),
    ("marginlab.manifold", "top2_stats", "margins.top2_stats"),
    ("marginlab.cli", "compute_margins", "margins.compute_margins"),
    ("marginlab.cli", "margin_quantiles", "margins.margin_quantiles"),
    ("marginlab.cli", "emulate_bf16", "precision.emulate_bf16"),
    ("marginlab.fileio", "read_logits", "fileio.read_logits"),
    ("marginlab.fileio", "write_audit", "fileio.write_audit"),
    ("marginlab.fileio", "read_audit", "fileio.read_audit"),
    ("marginlab.fileio", "write_report_json", "fileio.write_report_json"),
    ("marginlab.fileio", "atomic_write_text", "fileio.atomic_write_text"),
    ("marginlab.fileio", "file_digest", "fileio.file_digest"),
    ("marginlab.cli", "churn_report", "audit.churn_report"),
    ("marginlab.audit", "churn_report", "audit.churn_report"),
    ("marginlab.tokenclass", "churn_report", "audit.churn_report"),
    ("marginlab.cli", "rotation_report", "audit.rotation_report"),
    ("marginlab.cli", "band_accuracy", "audit.band_accuracy"),
    ("marginlab.cli", "expansion_report", "audit.expansion_report"),
    ("marginlab.cli", "frequency_audit", "audit.frequency_audit"),
    ("marginlab.cli", "class_audit", "tokenclass.class_audit"),
    ("marginlab.cli", "fit_gap_curve", "gapfit.fit_gap_curve"),
    ("marginlab.manifold", "fit_gap_curve", "gapfit.fit_gap_curve"),
    ("marginlab.manifold", "validate_scaling", "manifold.validate_scaling"),
    ("marginlab.manifold", "generate", "manifold.generate"),
    ("marginlab.manifold", "oracle_alpha", "manifold.oracle_alpha"),
    ("marginlab.manifold", "gradient_floor", "manifold.gradient_floor"),
    ("marginlab.cli", "main", "cli.main"),
)

# Called about once per audited position: counted, not spanned.
COUNTED_SITES = (("marginlab.tokenclass", "classify_token", "tokenclass.classify_token"),)

LAYERS = (
    "toylm", "autodiff", "objectives", "training", "margins", "precision",
    "fileio", "audit", "tokenclass", "gapfit", "manifold", "cli",
)


def _span_info(name: str, args: tuple, result) -> dict | None:
    """Work counts recorded on a span, read from its arguments or result."""
    if name == "autodiff.backward":
        return {"nodes": len(args[0])}
    if name == "margins.top2_stats":
        rows = np.atleast_2d(np.asarray(args[0]))
        # Bytes the selection reads, computed as rows x cols x itemsize.
        return {"rows": rows.shape[0], "bytes": rows.size * rows.itemsize}
    if name in ("fileio.read_logits", "fileio.read_audit", "fileio.write_audit",
                "fileio.write_report_json"):
        return {"bytes": os.path.getsize(args[0])}
    if name == "cli.main":
        return {"command": args[0][0], "code": result}
    return None


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "failed", "info")


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.counts: dict[str, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in SITES:
            self._patch(module, attr, self._spanning(name))
        for module, attr, name in COUNTED_SITES:
            self._patch(module, attr, self._counting(name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        setattr(owner, leaf, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, leaf, original))

    def _spanning(self, name: str):
        def make(original):
            def traced(*args, **kwargs):
                span = Span()
                span.sid = len(self.spans)
                span.name = name
                span.parent = self._stack[-1] if self._stack else None
                span.run = self.run
                span.failed = False
                span.info = None
                self.spans.append(span)
                self._stack.append(span.sid)
                span.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span.failed = True
                    raise
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                span.info = _span_info(name, args, result)
                return result

            return traced

        return make

    def _counting(self, name: str):
        def make(original):
            def counted(*args, **kwargs):
                tally = self.counts.setdefault(name, {"calls": 0, "distinct": set()})
                tally["calls"] += 1
                tally["distinct"].add(args[0])
                return original(*args, **kwargs)

            return counted

        return make

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps({k: getattr(span, k) for k in Span.__slots__}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------


def _ms(span: Span) -> float:
    return (span.end - span.start) * 1e3


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    rank = min(max(int(np.ceil(q * len(ordered))), 1), len(ordered))
    return ordered[rank - 1]


class PassSpans:
    """The spans of one traced pass, indexed for the metric formulas."""

    def __init__(self, spans: list[Span], counts: dict):
        self.spans = spans
        self.counts = counts
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.run == phase)]

    def self_ms(self, span: Span) -> float:
        return _ms(span) - sum(_ms(c) for c in self.children.get(span.sid, ()))

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.by_id[span.parent].name

    def total_ms(self, name: str, phase: str | None = None) -> float:
        return sum(_ms(s) for s in self.named(name, phase))

    def total_info(self, name: str, key: str, phase: str | None = None) -> float:
        return sum(s.info[key] for s in self.named(name, phase) if s.info)


def step_durations_ms(ps: PassSpans, phase: str) -> list[float]:
    """Per-step wall times of every ``train`` call in ``phase``.

    A step starts at its ``zero_grad`` call; the last step ends with
    ``train``.
    """
    out = []
    for train in ps.named("training.train", phase):
        starts = [c.start for c in ps.children.get(train.sid, ()) if c.name == "toylm.zero_grad"]
        ends = starts[1:] + [train.end]
        out.extend((e - s) * 1e3 for s, e in zip(starts, ends))
    return out


def refine_phase_metrics(ps: PassSpans, phase: str) -> dict[str, float]:
    steps = len(step_durations_ms(ps, phase))
    trains = ps.named("training.train", phase)
    fisher = ps.named("objectives.fisher_loss", phase)
    useful = sum(ps.parent_name(s) == "objectives.combined_loss" for s in fisher)
    logging = [
        s for s in ps.spans
        if s.run == phase and ps.parent_name(s) == "training.train"
        and s.name in ("objectives.cross_entropy", "objectives.fisher_loss", "margins.top2_stats")
    ]
    per_step = 1.0 / steps if steps else 0.0
    return {
        f"toylm.forward.self_ms_per_step.{phase}":
            sum(ps.self_ms(s) for s in ps.named("toylm.forward", phase)) * per_step,
        f"autodiff.backward.ms_per_step.{phase}": ps.total_ms("autodiff.backward", phase) * per_step,
        f"autodiff.tape_nodes_per_step.{phase}":
            ps.total_info("autodiff.backward", "nodes", phase) * per_step,
        f"objectives.combined_loss.ms_per_step.{phase}":
            ps.total_ms("objectives.combined_loss", phase) * per_step,
        f"objectives.fisher_loss.ms_per_step.{phase}": sum(_ms(s) for s in fisher) * per_step,
        f"objectives.fisher_loss.calls_per_step.{phase}": len(fisher) * per_step,
        f"objectives.fisher_loss.useful_ratio.{phase}": useful / len(fisher) if fisher else 0.0,
        f"training.step_metrics.ms_per_step.{phase}": sum(_ms(s) for s in logging) * per_step,
        f"training.self_ms_per_step.{phase}": sum(ps.self_ms(s) for s in trains) * per_step,
    }


def pass_metrics(ps: PassSpans) -> dict[str, float]:
    """Per-layer metrics of one traced pass that are summed over the pass."""
    out = {}
    for phase in ("ce", "fisher"):
        out.update(refine_phase_metrics(ps, phase))
    top2 = ps.named("margins.top2_stats")
    out["margins.top2_stats.ms"] = sum(_ms(s) for s in top2)
    out["margins.top2_stats.calls"] = float(len(top2))
    out["margins.top2_stats.mb"] = ps.total_info("margins.top2_stats", "bytes") / 1e6
    out["margins.compute_margins.self_ms"] = sum(
        ps.self_ms(s) for s in ps.named("margins.compute_margins")
    )
    for fn in ("read_logits", "write_audit", "read_audit", "write_report_json"):
        out[f"fileio.{fn}.ms"] = ps.total_ms(f"fileio.{fn}")
        out[f"fileio.{fn}.mb"] = ps.total_info(f"fileio.{fn}", "bytes") / 1e6
    out["precision.emulate_bf16.ms"] = ps.total_ms("precision.emulate_bf16")
    for fn in ("churn_report", "rotation_report", "band_accuracy", "expansion_report",
               "frequency_audit"):
        out[f"audit.{fn}.ms"] = ps.total_ms(f"audit.{fn}")
    out["tokenclass.class_audit.ms"] = ps.total_ms("tokenclass.class_audit")
    tally = ps.counts.get("tokenclass.classify_token")
    out["tokenclass.classify_token.calls_per_distinct"] = (
        tally["calls"] / len(tally["distinct"]) if tally else 0.0
    )
    for command in ("audit", "compare", "gap-fit"):
        out[f"cli.self_ms.{command}"] = sum(
            ps.self_ms(s) for s in ps.named("cli.main") if s.info and s.info["command"] == command
        )
    for preset in ("circle2", "square8"):
        for fn in ("generate", "oracle_alpha", "gradient_floor"):
            out[f"manifold.{fn}.ms.{preset}"] = ps.total_ms(f"manifold.{fn}", preset)
    out["manifold.oracle_alpha.points"] = float(sum(
        s.info["rows"] for s in top2 if ps.parent_name(s) == "manifold.oracle_alpha"
    ))
    out["gapfit.fit_gap_curve.ms"] = ps.total_ms("gapfit.fit_gap_curve")
    for layer in LAYERS:
        out[f"{layer}.failed"] = float(sum(
            s.failed or (s.name == "cli.main" and s.info is not None and s.info["code"] != 0)
            for s in ps.spans if s.name.split(".")[0] == layer
        ))
    return out


def step_percentiles(passes: list[PassSpans]) -> dict[str, float]:
    """Step-time percentiles pooled over every traced pass, with their
    sample counts."""
    out = {}
    for phase in ("ce", "fisher"):
        steps = [d for ps in passes for d in step_durations_ms(ps, phase)]
        out[f"training.step_ms.n.{phase}"] = float(len(steps))
        out[f"training.step_ms.p50.{phase}"] = nearest_rank(steps, 0.5) if steps else 0.0
        out[f"training.step_ms.p90.{phase}"] = nearest_rank(steps, 0.9) if steps else 0.0
    return out
