"""Command-line surface tying the pipeline together.

Exit codes are stable across commands: 0 success, 1 usage error,
2 data-format error, 3 numerical failure.

Reference values quoted in help text come from a published 4B-parameter
audit and are documentation only, never test targets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple

import numpy as np

from . import fileio
from .audit import band_accuracy, churn_report, expansion_report, frequency_audit, rotation_report
from .errors import DataError, MarginLabError, NumericalError, UsageError
from .gapfit import MIN_MARGINS, GapFit, GridSpec, fit_gap_curve
from .manifold import PRESETS, SAMPLERS, ManifoldSpec, validate_scaling
from .margins import Audit, compute_margins, margin_quantiles
from .objectives import OBJECTIVES, MrpConfig
from .precision import emulate_bf16, recompute_fp32_logits
from .tokenclass import class_audit
from .tokenizer import Vocab, tokenize
from .toylm import ToyLm, ToyLmConfig
from .training import TrainConfig, check_lambdas, dose_response, layer_scan, train

_REFERENCE_NOTE = (
    "Reference values from a 4B-parameter model audit (reference only, "
    "never a test target): gap fit beta 0.912, R^2 0.9997, alpha 0.762; "
    "fisher lambda 0.6 churn: 16,327 W->R vs 5,356 R->W (3.0x)."
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; the exit-code
    contract reserves 2 for data errors, so usage problems exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed`` value: a decimal integer in [0, 2**63)."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**63):
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**63), got {text!r}")
    return int(text)


def _read_json(path: str, what: str, kind: type):
    """The JSON value in ``path``, which must be a ``kind`` (list or dict)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or bad UTF-8
        raise DataError(f"{path}: cannot read {what}: {e}") from e
    if not isinstance(data, kind):
        raise DataError(f"{path}: {what} must be a JSON {'array' if kind is list else 'object'}")
    return data


def _read_id_map(path: str, what: str, kind: type) -> dict:
    """The JSON object in ``path`` as ``{token id: value}``: every key a
    non-negative decimal id and every value a ``kind`` (int or str)."""
    data = _read_json(path, what, dict)
    for key, value in data.items():
        if not (key.isascii() and key.isdigit() and len(key) < 19 and str(int(key)) == key):
            raise DataError(f"{path}: {what}: key {key!r} is not a token id "
                            "(a non-negative integer in plain decimal)")
        if type(value) is not kind:
            raise DataError(f"{path}: {what}: the value at key {key!r} is not a JSON "
                            f"{'integer' if kind is int else 'string'}")
    return {int(key): value for key, value in data.items()}


def _read_targets(path: str, expected: int, vocab: int) -> np.ndarray:
    """The ``expected`` token ids in [0, ``vocab``) of the JSON array in
    ``path``.  An array in json's default form is read as columns; any other
    file, and one whose ids fail a check, is parsed with ``json``, which
    gives the error."""
    targets = fileio.read_id_array(path)
    if targets is not None and targets.size == expected and (targets < vocab).all():
        return targets
    data = _read_json(path, "targets", list)
    if not set(map(type, data)) <= {int}:
        raise DataError(f"{path}: targets must be integer token ids")
    if len(data) != expected:
        raise DataError(f"{path}: {len(data)} targets for {expected} logit rows")
    try:
        targets = np.asarray(data, dtype=np.int64)
    except OverflowError as e:
        raise DataError(f"{path}: targets must be integer token ids") from e
    outside = np.flatnonzero((targets < 0) | (targets >= vocab))
    if outside.size:
        raise DataError(f"{path}: target {targets[outside[0]]} at index {outside[0]} "
                        f"is outside [0, {vocab})")
    return targets


def _read_audits(*paths: str) -> tuple[list[Audit], list[str]]:
    """The audit in each of ``paths``, read in turn, and each file's digest,
    which one worker thread computes meanwhile: hashlib frees the GIL, so the
    hashing overlaps the parse.  A read error is raised as ``read_audit``
    raised it, and the digests are then dropped unread."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        digests = pool.submit(lambda: [fileio.file_digest(p) for p in paths])
        audits = [fileio.read_audit(p)[0] for p in paths]
        return audits, digests.result()


def _load_corpus(path: str, vocab_size: int) -> np.ndarray:
    """The ids of the corpus in ``path`` under its own ``vocab_size`` vocabulary."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: corpus is not UTF-8: {e}") from e
    tokens = tokenize(text)
    if len(tokens) < 2:
        raise DataError(f"{path}: corpus has fewer than 2 tokens")
    return Vocab.from_tokens(tokens, vocab_size).encode(tokens)


def _load_trained(checkpoint: str, corpus: str) -> tuple[ToyLm, np.ndarray]:
    """The model in ``checkpoint`` and ``corpus`` encoded under its vocabulary;
    ``DataError`` when the checkpoint's ``corpus_digest`` is another corpus's."""
    model, header = fileio.load_checkpoint(checkpoint)
    digest = fileio.file_digest(corpus)
    recorded = (header["train_config"] or {}).get("corpus_digest", digest)
    if recorded != digest:  # also when the recorded digest is not a string
        raise DataError(f"{corpus}: corpus digest {digest} is not the corpus_digest "
                        f"{recorded!r} of {checkpoint}")
    return model, _load_corpus(corpus, model.config.vocab_size)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _fit_report(fit: GapFit) -> dict:
    """The fit fields that the gap-fit and synth-validate reports share."""
    return {
        "beta": fit.beta,
        "r2": fit.r2,
        "alpha_intercept": fit.alpha_intercept,
        "alpha_constrained": fit.alpha_constrained,
        "grid": {"epsilon": fit.epsilon_grid, "eta_hat": fit.eta_hat},
    }


def _cmd_audit(args) -> int:
    header, _ = fileio.read_logits_blocks(args.logits)
    rows, vocab = header["rows"], header["cols"]
    if args.fp32_recompute:
        unemb, _ = fileio.read_logits(args.fp32_recompute)
        if unemb.shape[1] != vocab or not np.isfinite(unemb).all():
            raise DataError(f"{args.fp32_recompute}: unembedding must be finite and as wide as "
                            f"the {vocab}-wide hidden states in {args.logits}")
        vocab = unemb.shape[0]
    if vocab < 2:
        raise DataError(f"{args.fp32_recompute or args.logits}: need at least 2 logits per row, "
                        f"got {vocab}")
    targets = _read_targets(args.targets, rows, vocab)
    # Sized by the logits a block holds, which --fp32-recompute widens.
    block_rows = fileio.logits_block_rows(vocab)

    def audit_blocks(first: int, last: int) -> list[Audit]:
        """The audits of blocks first..last, each block read into this span's own buffer."""
        start = first * block_rows
        _, blocks = fileio.read_logits_blocks(args.logits, block_rows,
                                              span=(start, min(last * block_rows, rows)))
        parts = []
        for block in blocks:
            if args.fp32_recompute:
                bad = start + np.flatnonzero(~np.isfinite(block).all(axis=1))
                if bad.size:
                    raise DataError(f"{args.logits}: non-finite hidden state at position {bad[0]}")
                # An overflow is a non-finite logit, which compute_margins reports as data.
                with np.errstate(over="ignore"):
                    block = recompute_fp32_logits(block, unemb)
            if args.bf16_emulate:
                block = emulate_bf16(block, out=block)
            parts.append(compute_margins(block, targets[start : start + len(block)], start))
            start += len(block)
        return parts

    blocks = -(-rows // block_rows)
    # The GEMM of --fp32-recompute already runs on every BLAS thread: with a
    # second span the audit ran slower, with or without a lock around the GEMM.
    spans = [audit_blocks(0, blocks)] if args.fp32_recompute else fileio.in_threads(audit_blocks, blocks)
    audit = Audit.concat([part for parts in spans for part in parts])
    dtype = "bf16" if args.bf16_emulate else "f32"
    fileio.write_audit(args.out, audit, dtype=dtype, seed=args.seed)
    q = margin_quantiles(audit.margin)
    print(
        f"audited {len(audit)} positions -> {args.out} "
        f"(median margin {q.median:.4f}, Pr(m<0.5) {q.pr_below_half:.4f})"
    )
    return 0


def _cmd_gap_fit(args) -> int:
    grid = GridSpec(count=args.grid_count, quantile_lo=args.grid_qlo, quantile_hi=args.grid_qhi)
    (audit,), (digest,) = _read_audits(args.audit)
    if len(audit) < MIN_MARGINS:
        raise DataError(f"{args.audit}: gap-fit needs at least {MIN_MARGINS} records, "
                        f"got {len(audit)}")
    fit = fit_gap_curve(audit.margin, grid)
    report = {
        **_fit_report(fit),
        "provenance": {
            "audit": digest,
            "positions": len(audit),
            "created": fileio.created_stamp(),
        },
    }
    if args.out:
        fileio.write_report_json(args.out, report)
    print(
        f"beta={fit.beta:.6f} r2={fit.r2:.6f} "
        f"alpha_intercept={fit.alpha_intercept:.6f} "
        f"alpha_constrained={fit.alpha_constrained:.6f}"
    )
    return 0


def _cmd_compare(args) -> int:
    (baseline, polished), digests = _read_audits(args.baseline, args.polished)
    for path, audit in ((args.baseline, baseline), (args.polished, polished)):
        if not len(audit):
            raise DataError(f"{path}: compare needs an audit with at least one record")
    # Every section is computed before the first file is written.
    try:
        churn = churn_report(baseline, polished)  # the first to check alignment
    except DataError as err:
        raise DataError(f"{args.baseline} and {args.polished}: {err}") from err
    rotation = rotation_report(baseline, polished)
    bands_base = band_accuracy(baseline)
    bands_pol = band_accuracy(polished)
    expansion = expansion_report(baseline, polished)

    bundle = {
        "provenance": {
            "baseline": digests[0],
            "polished": digests[1],
            "positions": len(baseline),
            "created": fileio.created_stamp(),
        },
        "churn": churn,
        "rotation": rotation,
        "bands": {"baseline": bands_base, "polished": bands_pol},
        "expansion": expansion,
    }

    for key, path, what, kind, section in (
        ("frequency", args.freq_counts, "frequency counts", int, frequency_audit),
        ("classes", args.token_texts, "token texts", str, class_audit),
    ):
        if path:
            table = _read_id_map(path, what, kind)  # its errors name the path already
            try:
                bundle[key] = section(baseline, polished, table)
            except DataError as err:
                raise DataError(f"{path}: {err}") from err

    def out(name: str) -> str:
        return os.path.join(args.out_dir, name)

    os.makedirs(args.out_dir, exist_ok=True)
    fileio.write_csv(out("churn.csv"), "total,churned,w2r,r2w,flip_ratio,net_corrected", [churn])
    fileio.write_csv(out("rotation.csv"), "rotated,rotated_wider,mean_margin_delta", [rotation])
    fileio.write_csv(
        out("bands.csv"),
        "audit,lo,hi,count,accuracy",
        [(name, *astuple(b)) for name, table in (("baseline", bands_base), ("polished", bands_pol))
         for b in table.bands],
    )
    fileio.write_csv(out("expansion.csv"), "pct_wider,mean_delta,median_delta", [expansion])
    if "frequency" in bundle:
        fileio.write_csv(
            out("frequency.csv"),
            "bucket,count,baseline_accuracy,polished_accuracy,delta,net_corrected,share_of_net",
            bundle["frequency"].buckets,
        )
    if "classes" in bundle:
        fileio.write_csv(out("classes.csv"), "class,count,w2r,r2w,net_corrected,share_of_net",
                         bundle["classes"].rows)

    fileio.write_report_json(out("bundle.json"), bundle)
    print(
        f"compared {len(baseline)} positions: churned {churn.churned}, "
        f"w2r {churn.w2r}, r2w {churn.r2w} -> {args.out_dir}"
    )
    return 0


def _given(args, fields) -> dict:
    """The flags among the config ``fields`` that were given (are not None);
    a config takes them and its own defaults for the rest."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


def _mrp_from_args(args, lambda_mrp: float = MrpConfig.lambda_mrp) -> MrpConfig:
    if args.loss == "margin" and args.k is not None:
        print("warning: --k is ignored for the margin loss", file=sys.stderr)
    if args.loss == "fisher" and args.tau is not None:
        print("warning: --tau is ignored for the fisher loss", file=sys.stderr)
    return MrpConfig(objective=args.loss, lambda_mrp=lambda_mrp, ce_weight=args.ce_weight,
                     **_given(args, ("tau", "k")))


# ToyLmConfig fields that train takes as flags.
_MODEL_FLAGS = ("vocab_size", "hidden_dim", "layers", "heads", "context")


def _train_config(args, mrp: MrpConfig) -> TrainConfig:
    return TrainConfig(steps=args.steps, learning_rate=args.lr, batch_size=args.batch_size,
                       seed=args.seed, mrp=mrp)


def _cmd_train(args) -> int:
    given = _given(args, _MODEL_FLAGS)
    if args.base_checkpoint:
        for field in given:
            print(f"warning: --{field.replace('_', '-')} is ignored with --base-checkpoint",
                  file=sys.stderr)
        model, tokens = _load_trained(args.base_checkpoint, args.corpus)
    else:
        model = ToyLm(ToyLmConfig(**given), seed=args.seed)
        tokens = _load_corpus(args.corpus, model.config.vocab_size)
    config = _train_config(args, _mrp_from_args(args, args.lambda_mrp))
    log = train(model, tokens, config)
    fileio.save_checkpoint(args.out_checkpoint, model, step=config.steps,
                           train_config={**asdict(config),
                                         "corpus_digest": fileio.file_digest(args.corpus)})
    if args.metrics:
        fileio.write_metrics_csv(args.metrics, log)
    last = log[-1]
    print(
        f"trained {config.steps} steps (loss={args.loss}, lambda={args.lambda_mrp}): "
        f"ce {log[0].ce:.4f} -> {last.ce:.4f}, median margin {last.median_margin:.4f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        lambdas = [float(v) for v in args.lambdas.split(",") if v != ""]
    except ValueError as e:
        raise UsageError(f"bad --lambdas list: {e}") from e
    # Every flag is checked before the first lambda run.
    check_lambdas(lambdas)
    run_cfg = _train_config(args, _mrp_from_args(args))
    model, tokens = _load_trained(args.checkpoint, args.corpus)
    if run_cfg.mrp.objective == "fisher" and run_cfg.mrp.k > model.config.vocab_size:
        raise UsageError(f"--k {run_cfg.mrp.k} exceeds the vocabulary size "
                         f"{model.config.vocab_size}")
    rows, _baseline = dose_response(model, tokens, lambdas, run_cfg)

    fileio.write_csv(
        args.out,
        "lambda,median_margin,pr_below_half,beta,alpha_constrained,r2,churned,w2r,r2w,net_corrected",
        [
            (row.lambda_mrp, row.median_margin, row.pr_below_half, row.gap_fit.beta,
             row.gap_fit.alpha_constrained, row.gap_fit.r2, row.churn.churned,
             row.churn.w2r, row.churn.r2w, row.churn.net_corrected)
            for row in rows
        ],
    )
    for row in rows:
        print(
            f"lambda={row.lambda_mrp}: median={row.median_margin:.4f} "
            f"Pr(m<0.5)={row.pr_below_half:.4f} r2={row.gap_fit.r2:.4f} "
            f"net_corrected={row.churn.net_corrected}"
        )
    return 0


def _cmd_synth_validate(args) -> int:
    if args.sites:
        if args.config:
            print("warning: --config is ignored with --sites", file=sys.stderr)
        rows = _read_json(args.sites, "sites", list)
        try:
            # float64 would take "1" and true, and overflows past 1.8e308.
            if not all(type(x) in (int, float) for row in rows for x in row):
                raise TypeError("a coordinate is not a JSON number")
            sites = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise DataError(f"{args.sites}: sites must be a 2-D array of numbers: {e}") from e
        if sites.ndim != 2 or min(sites.shape) < 2:
            raise DataError(f"{args.sites}: sites must be a 2-D array of at least 2 sites "
                            f"with at least 2 coordinates")
        spec = ManifoldSpec(sites, args.sampler or SAMPLERS[0], args.samples)
    else:
        if args.sampler:
            print("warning: --sampler is ignored without --sites", file=sys.stderr)
        spec = PRESETS[args.config or "circle2"](args.samples)
    verdict = validate_scaling(spec, seed=args.seed)
    report = {
        **_fit_report(verdict.fit),
        "oracle_alpha": verdict.oracle_alpha,
        "relative_alpha_error": verdict.relative_alpha_error,
        "gradient_floor": verdict.gradient_floor,
    }
    if args.out:
        fileio.write_report_json(args.out, report)
    ok = 0.9 <= verdict.fit.beta <= 1.1 and verdict.fit.r2 > 0.99
    print(
        f"beta={verdict.fit.beta:.4f} r2={verdict.fit.r2:.6f} "
        f"alpha={verdict.fit.alpha_constrained:.4f} oracle={verdict.oracle_alpha:.4f} "
        f"rel_err={verdict.relative_alpha_error:.4f} -> {'pass' if ok else 'FAIL'}"
    )
    if not ok:
        raise NumericalError(
            f"scaling verdict failed: beta={verdict.fit.beta}, r2={verdict.fit.r2}"
        )
    return 0


def _cmd_layer_scan(args) -> int:
    model, tokens = _load_trained(args.checkpoint, args.corpus)
    rows = layer_scan(model, tokens, tau=args.tau)
    fileio.write_csv(args.out, "layer_index,spearman_ce_mrp", rows)
    for r in rows:
        print(f"layer {r.layer_index}: rho="
              f"{'undefined' if r.spearman_ce_mrp is None else f'{r.spearman_ce_mrp:.4f}'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_run_flags(p) -> None:
    """The schedule and loss flags of ``train`` and ``sweep``, each defaulting
    to its config field's default (``--tau`` and ``--k`` are None when not
    given, so an ignored one can warn)."""
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.add_argument("--loss", choices=OBJECTIVES, default=MrpConfig.objective)
    p.add_argument("--tau", type=float, default=None,
                   help=f"margin threshold for the margin loss (default {MrpConfig.tau})")
    p.add_argument("--k", type=int, default=None,
                   help=f"top-k size for the fisher loss (default {MrpConfig.k})")
    p.add_argument("--ce-weight", type=float, default=MrpConfig.ce_weight,
                   help="0 gives pure refinement training with no cross-entropy")


def build_parser() -> _Parser:
    parser = _Parser(prog="marginlab", description=__doc__, epilog=_REFERENCE_NOTE)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("audit", help="compute a margin audit from a logits container")
    p.add_argument("logits", help="logits container (or hidden states with --fp32-recompute)")
    p.add_argument("targets", help="JSON array of per-position target token ids (read fastest "
                                   "in json.dumps's default form, '[1, 2, 3]')")
    p.add_argument("out", help="output audit JSONL path")
    p.add_argument("--bf16-emulate", action="store_true",
                   help="round logits to bfloat16 first (artifact reproduction)")
    p.add_argument("--fp32-recompute", metavar="UNEMBEDDING",
                   help="treat the input as hidden states and recompute logits at fp32 "
                        "with this unembedding container")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "gap-fit",
        help="fit the gap scaling curve on an audit",
        epilog=_REFERENCE_NOTE,
    )
    p.add_argument("audit")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--grid-count", type=int, default=GridSpec.count)
    p.add_argument("--grid-qlo", type=float, default=GridSpec.quantile_lo)
    p.add_argument("--grid-qhi", type=float, default=GridSpec.quantile_hi)
    p.set_defaults(func=_cmd_gap_fit)

    p = sub.add_parser("compare", help="per-position comparison of two audits")
    p.add_argument("baseline")
    p.add_argument("polished")
    p.add_argument("--out-dir", default="compare-out")
    p.add_argument("--freq-counts",
                   help="JSON {token_id: count}; enables the frequency section")
    p.add_argument("--token-texts",
                   help="JSON {token_id: text}; enables the token-class section")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("train", help="train or refine the toy model")
    p.add_argument("corpus")
    p.add_argument("out_checkpoint")
    p.add_argument("--metrics", help="per-step metrics CSV path")
    p.add_argument("--lambda-mrp", type=float, default=MrpConfig.lambda_mrp)
    _add_run_flags(p)
    for field in _MODEL_FLAGS:
        p.add_argument(f"--{field.replace('_', '-')}", type=int,
                       help=f"default {getattr(ToyLmConfig, field)}; "
                            "ignored with --base-checkpoint")
    p.add_argument("--base-checkpoint", help="start from this checkpoint instead of a fresh model")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="dose-response sweep over lambda values from a checkpoint")
    p.add_argument("checkpoint", help="base model, as written by train")
    p.add_argument("corpus")
    p.add_argument("out", help="summary CSV path")
    p.add_argument("--lambdas", default="0,0.15,0.3,0.6",
                   help="comma-separated ascending lambda list")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth-validate",
                       help="validate the linear scaling law on a synthetic manifold")
    p.add_argument("--config", choices=sorted(PRESETS),
                   help="preset (default circle2); ignored with --sites")
    p.add_argument("--sites", help="JSON file with an explicit site matrix; only the presets "
                                   "are known to pass the oracle's grid-doubling check")
    p.add_argument("--sampler", choices=SAMPLERS,
                   help=f"sampler for --sites (default {SAMPLERS[0]}); ignored without --sites")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="verdict JSON path")
    p.set_defaults(func=_cmd_synth_validate)

    p = sub.add_parser("layer-scan",
                       help="per-layer virtual-margin/CE correlation for a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--tau", type=float, default=MrpConfig.tau)
    p.set_defaults(func=_cmd_layer_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MarginLabError as e:
        print(f"marginlab: {e.label}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a path that is missing, a directory, or not writable
        print(f"marginlab: {DataError.label}: {e}", file=sys.stderr)
        return DataError.exit_code
    except MemoryError as e:  # a size under check_size's bound that this machine cannot give
        print(f"marginlab: {UsageError.label}: {e}", file=sys.stderr)
        return UsageError.exit_code


if __name__ == "__main__":
    sys.exit(main())
