"""The two margin-refinement objectives and their gradient behavior.

* margin loss: negative mean margin over positions whose margin sits
  below a threshold tau.  Pushes the top-1/top-2 logit gap apart along
  the current axis.
* fisher loss: negative probability-weighted sum of pairwise Fisher
  information distances among the top-k tokens.  The distance between
  two normalized token embeddings is measured in the metric of the
  renormalized top-k softmax, diag(p) - p p^T, so it equals (to second
  order) the KL divergence the swap direction would cause.
"""

import numpy as np

from marginlab import (
    MrpConfig,
    Tape,
    combined_loss,
    cross_entropy,
    fisher_distance,
    fisher_loss,
    grad_check,
    margin_loss,
)
from marginlab import autodiff as ad

rng = np.random.default_rng(1)

logits = rng.normal(scale=1.5, size=(6, 12))
targets = rng.integers(0, 12, size=6)
unembedding = rng.normal(size=(12, 8))

print("margin loss (tau=0.8):", f"{margin_loss(logits, 0.8).item():.4f}")
print("fisher loss (k=4):    ", f"{fisher_loss(logits, unembedding, 4).item():.4f}")
print("cross entropy:        ", f"{cross_entropy(logits, targets).item():.4f}")

cfg = MrpConfig(objective="fisher", lambda_mrp=0.6, k=4)
loss, parts = combined_loss(logits, targets, cfg, unembedding)
print("combined (CE + 0.6 * fisher):", f"{loss.item():.4f}",
      f"(ce {parts.ce:.4f}, fisher {parts.objective:.4f})")

# --- closed-form check: orthogonal pair at equal probability ---------------
rows = np.eye(2)
p = np.array([0.5, 0.5])
print("\northogonal pair, p=(0.5, 0.5): d_F =",
      f"{fisher_distance(p, rows, 0, 1):.4f} (closed form: 1.0)")

# --- the KL reading of the distance -----------------------------------------
k = 4
embed = rng.normal(size=(k, 8))
embed /= np.linalg.norm(embed, axis=1, keepdims=True)
pk = np.exp(rng.normal(size=k))
pk /= pk.sum()
i, j, s = 0, 1, 1e-3
d = fisher_distance(pk, embed, i, j)
proj = embed @ (embed[i] - embed[j])
q = np.exp(np.log(pk) + s * proj)
q /= q.sum()
kl = float(np.sum(pk * (np.log(pk) - np.log(q))))
print(f"d_F^2 = {d**2:.6f} vs 2*KL/s^2 = {2 * kl / s**2:.6f} "
      "(second-order equivalence)")

# --- gradients are exact: central-difference verification -------------------
err_m = grad_check(lambda ps: margin_loss(ps[0], 0.8), [logits])
err_f = grad_check(lambda ps: fisher_loss(ps[0], ps[1], 4), [logits, unembedding],
                   step=1e-6)
print(f"\ngrad check vs central differences: margin {err_m:.2e}, fisher {err_f:.2e}")

# --- hard selection: gradients never flow through the index choice ----------
from marginlab.margins import top2_stats

_, _, row_margins = top2_stats(logits)
tau = float(np.median(row_margins))
with Tape() as tape:
    x = ad.parameter(logits)
    loss = margin_loss(x, tau)
    tape.backward(loss)
grad_rows = np.abs(x.grad).sum(axis=1) > 0
print(f"\nrow margins: {np.round(row_margins, 3)}  (gate: margin < {tau:.3f})")
print("rows receiving gradient:", [i for i in range(6) if grad_rows[i]])
print("rows with zero gradient: ", [i for i in range(6) if not grad_rows[i]])
