"""Dose-response refinement and the per-position audit machinery.

Trains a small base model on the bundled corpus, refines it at several
fisher strengths from the same checkpoint and seed, and compares each
refined audit to the baseline: churn (wrong-to-right / right-to-wrong
flips), runner-up rotation, band accuracy, margin expansion, frequency
buckets, and the token-class breakdown.

This is a scaled-down run (a couple of minutes); the acceptance suite
pins the full protocol.
"""

from importlib import resources

import numpy as np

from marginlab import (
    MrpConfig,
    ToyLm,
    ToyLmConfig,
    TrainConfig,
    audit_model,
    band_accuracy,
    class_audit,
    dose_response,
    expansion_report,
    frequency_audit,
    rotation_report,
    train,
)
from marginlab.tokenizer import Vocab, tokenize

text = resources.files("marginlab").joinpath("data/corpus.txt").read_text()
tokens = tokenize(text)
vocab = Vocab.from_tokens(tokens, 512)
ids = vocab.encode(tokens)[:8000]

print("pretraining the base model (pure cross-entropy)...")
base = ToyLm(ToyLmConfig(), seed=0)
log = train(
    base,
    ids,
    TrainConfig(steps=300, learning_rate=1e-3, batch_size=4, seed=0,
                mrp=MrpConfig(objective="fisher", lambda_mrp=0.0)),
)
print(f"  cross-entropy {log[0].ce:.3f} -> {log[-1].ce:.3f}, "
      f"median margin {log[-1].median_margin:.3f}")

print("\nsweeping fisher strength from the same checkpoint...")
rows, baseline_audit = dose_response(
    base, ids, [0.0, 0.3],
    TrainConfig(steps=60, learning_rate=3e-4, batch_size=4, seed=0,
                mrp=MrpConfig(objective="fisher", lambda_mrp=0.0)),
)
print(f"{'lambda':>7} {'median':>8} {'Pr(m<.5)':>9} {'beta':>7} {'r2':>7} "
      f"{'W->R':>6} {'R->W':>6} {'net':>5}")
for row in rows:
    print(f"{row.lambda_mrp:>7.2f} {row.median_margin:>8.4f} "
          f"{row.pr_below_half:>9.4f} {row.gap_fit.beta:>7.3f} "
          f"{row.gap_fit.r2:>7.4f} {row.churn.w2r:>6} {row.churn.r2w:>6} "
          f"{row.churn.net_corrected:>5}")

print("\nfull per-position comparison of the lambda=0.3 run vs baseline...")
refined = base.clone()
train(refined, ids,
      TrainConfig(steps=60, learning_rate=3e-4, batch_size=4, seed=0,
                  mrp=MrpConfig(objective="fisher", lambda_mrp=0.3)))
polished_audit = audit_model(refined, ids)

rot = rotation_report(baseline_audit, polished_audit)
print(f"  rotation: {rot.rotated} positions kept top-1 but changed their "
      f"runner-up; {rot.rotated_wider} widened")

exp = expansion_report(baseline_audit, polished_audit)
print(f"  expansion: {exp.pct_wider:.1%} wider, mean delta {exp.mean_delta:+.4f}, "
      f"median delta {exp.median_delta:+.4f}")

bands = band_accuracy(polished_audit)
print("  accuracy by margin band:")
for b in bands.bands:
    hi = "inf" if b.hi is None else f"{b.hi:g}"
    acc = "n/a" if b.accuracy is None else f"{b.accuracy:.3f}"
    print(f"    [{b.lo:g}, {hi}): count {b.count:5d} accuracy {acc}")

counts_arr = np.bincount(baseline_audit.target)
counts = {t: int(c) for t, c in enumerate(counts_arr) if c > 0}
freq = frequency_audit(baseline_audit, polished_audit, counts)
print("  net corrections by target-token frequency bucket:")
for b in freq.buckets:
    share = "n/a" if b.share_of_net is None else f"{b.share_of_net:.1%}"
    print(f"    {b.label:>6}: count {b.count:5d} net {b.net_corrected:+4d} share {share}")

classes = class_audit(baseline_audit, polished_audit, dict(enumerate(vocab.id_to_token)))
print("  net corrections by token class:")
for row in classes.rows:
    share = "n/a" if row.share_of_net is None else f"{row.share_of_net:.1%}"
    print(f"    {row.token_class.value:>13}: count {row.count:5d} "
          f"net {row.net_corrected:+4d} share {share}")
