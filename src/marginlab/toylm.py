"""Desk-scale tied-embedding causal transformer.

Two blocks of multi-head causal attention plus a ReLU MLP, with
parameter-free row-normalization layers (unit rows rescaled by sqrt(d)).
A block's heads are not looped over: ``autodiff.causal_attention`` runs
them as one [heads, T, T] batch and records one tape node, so a forward
pass records a fixed 14 nodes per layer plus 7 for the embedding and head.
With ``tied_embeddings=True`` (the default) the input embedding and the
output projection are one shared matrix, so its gradient collects
contributions from both uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, UsageError

__all__ = ["ToyLmConfig", "ToyLm"]


@dataclass(frozen=True)
class ToyLmConfig:
    vocab_size: int = 512
    hidden_dim: int = 64
    layers: int = 2
    heads: int = 2
    context: int = 96
    tied_embeddings: bool = True

    def __post_init__(self):
        if self.vocab_size < 2:
            raise UsageError("vocab_size must be at least 2")
        if self.hidden_dim % self.heads != 0:
            raise UsageError(
                f"hidden_dim ({self.hidden_dim}) must be divisible by heads ({self.heads})"
            )
        if self.layers < 1 or self.context < 2:
            raise UsageError("need at least 1 layer and context >= 2")


def _norm(x: Tensor, dim: int) -> Tensor:
    """Parameter-free row norm: unit rows rescaled to sqrt(dim)."""
    return ad.scale(ad.l2_normalize_rows(x), math.sqrt(dim))


class ToyLm:
    """Causal language model over token-id sequences."""

    def __init__(self, config: ToyLmConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        d, v = config.hidden_dim, config.vocab_size
        self.params: dict[str, Tensor] = {}

        def param(name: str, shape: tuple[int, ...], std: float) -> None:
            self.params[name] = ad.parameter(rng.normal(0.0, std, size=shape))

        param("embedding", (v, d), 0.05)
        param("pos", (config.context, d), 0.05)
        for i in range(config.layers):
            for w in ("wq", "wk", "wv", "wo"):
                param(f"layer{i}.{w}", (d, d), 1.0 / math.sqrt(d))
            param(f"layer{i}.w1", (d, 4 * d), 1.0 / math.sqrt(d))
            param(f"layer{i}.w2", (4 * d, d), 1.0 / math.sqrt(4 * d))
        if not config.tied_embeddings:
            param("unembedding", (v, d), 0.05)

    @property
    def unembedding(self) -> Tensor:
        """The V x d output projection (the embedding itself when tied)."""
        if self.config.tied_embeddings:
            return self.params["embedding"]
        return self.params["unembedding"]

    def clone(self) -> "ToyLm":
        other = ToyLm.__new__(ToyLm)
        other.config = self.config
        other.seed = self.seed
        other.params = {
            name: ad.parameter(p.values.copy()) for name, p in self.params.items()
        }
        return other

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(self, tokens) -> tuple[Tensor, list[np.ndarray]]:
        """Per-position logit rows plus per-layer hidden states.

        ``tokens`` is a 1-D id sequence of length <= context.  Row t of
        the returned [T, V] logits predicts token t+1 (the final row has
        no target and is excluded from losses by the training harness).
        Hidden states are the residual-stream values after each block,
        returned as plain arrays for layer-wise analysis.
        """
        ids = np.asarray(tokens, dtype=np.int64).ravel()
        cfg = self.config
        if ids.size < 2:
            raise UsageError("sequence must have at least 2 tokens")
        if ids.size > cfg.context:
            raise UsageError(f"sequence length {ids.size} exceeds context {cfg.context}")
        if (ids < 0).any() or (ids >= cfg.vocab_size).any():
            bad = int(ids[(ids < 0) | (ids >= cfg.vocab_size)][0])
            raise DataError(f"token id {bad} outside vocabulary of size {cfg.vocab_size}")

        t, d = ids.size, cfg.hidden_dim
        x = ad.add(
            ad.gather_rows(self.params["embedding"], ids),
            ad.gather_rows(self.params["pos"], np.arange(t)),
        )

        hiddens: list[np.ndarray] = []
        for i in range(cfg.layers):
            h = _norm(x, d)
            attended = ad.causal_attention(
                ad.matmul(h, self.params[f"layer{i}.wq"]),
                ad.matmul(h, self.params[f"layer{i}.wk"]),
                ad.matmul(h, self.params[f"layer{i}.wv"]),
                cfg.heads,
            )
            attn = ad.matmul(attended, self.params[f"layer{i}.wo"])
            x = ad.add(x, attn)

            h2 = _norm(x, d)
            mlp = ad.matmul(
                ad.relu(ad.matmul(h2, self.params[f"layer{i}.w1"])),
                self.params[f"layer{i}.w2"],
            )
            x = ad.add(x, mlp)
            hiddens.append(x.values.copy())

        final = _norm(x, d)
        logits = ad.matmul(final, ad.transpose(self.unembedding))
        return logits, hiddens

    def project_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Virtual logits: a hidden-state matrix pushed through the final
        normalization and output projection (plain arrays, no gradients)."""
        h = np.asarray(hidden, dtype=np.float64)
        norms = np.maximum(np.sqrt((h * h).sum(axis=-1, keepdims=True)), 1e-30)
        unit = h / norms * math.sqrt(self.config.hidden_dim)
        return unit @ self.unembedding.values.T
