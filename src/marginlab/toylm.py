"""Desk-scale tied-embedding causal transformer.

Two blocks of multi-head causal attention plus a ReLU MLP, with
parameter-free row-normalization layers (unit rows rescaled by sqrt(d)).
A forward pass takes b equal-length sequences at once: the dense layers
are [b·T, d] GEMMs, and ``autodiff.causal_attention`` runs every sequence
and head as one [b, heads, T, T] batch and records one tape node.  So a
pass records a fixed 12 nodes per layer plus 6 for the embedding, the
predicting-row selection and the head, whatever b is.
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
from .errors import DataError, UsageError, check_int

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
        check_int(vocab_size=self.vocab_size, hidden_dim=self.hidden_dim, layers=self.layers,
                  heads=self.heads, context=self.context)
        if self.vocab_size < 2:
            raise UsageError("vocab_size must be at least 2")
        if self.hidden_dim < 1 or self.heads < 1:
            raise UsageError("hidden_dim and heads must be at least 1")
        if self.hidden_dim % self.heads != 0:
            raise UsageError(
                f"hidden_dim ({self.hidden_dim}) must be divisible by heads ({self.heads})"
            )
        if self.layers < 1 or self.context < 2:
            raise UsageError("need at least 1 layer and context >= 2")


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
        """Logit rows of every predicting position, plus per-layer hidden states.

        ``tokens`` is one id sequence [T] or b equal-length sequences
        [b, T], with 2 <= T <= context, run as one pass: the dense layers
        see [b·T, d] rows and each sequence attends only to itself.  A
        sequence's final position predicts nothing, so it is dropped
        before the output head: row s·(T-1) + t of the returned
        [b·(T-1), V] logits is sequence s's position t and predicts its
        token t+1.  Hidden states are the residual-stream values after
        each block at the same rows, returned as plain arrays for
        layer-wise analysis.
        """
        ids = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        cfg = self.config
        if ids.ndim != 2 or ids.shape[0] < 1:
            raise UsageError(f"tokens must be [T] or [b, T], got shape {ids.shape}")
        b, t = ids.shape
        if t < 2:
            raise UsageError("sequence must have at least 2 tokens")
        if t > cfg.context:
            raise UsageError(f"sequence length {t} exceeds context {cfg.context}")
        if (ids < 0).any() or (ids >= cfg.vocab_size).any():
            bad = int(ids[(ids < 0) | (ids >= cfg.vocab_size)][0])
            raise DataError(f"token id {bad} outside vocabulary of size {cfg.vocab_size}")

        d = cfg.hidden_dim
        x = ad.add(
            ad.gather_rows(self.params["embedding"], ids.ravel()),
            ad.gather_rows(self.params["pos"], np.tile(np.arange(t), b)),
        )

        hiddens: list[Tensor] = []
        for i in range(cfg.layers):
            h = ad.normalize_rows(x, math.sqrt(d))
            attended = ad.causal_attention(
                ad.matmul(h, self.params[f"layer{i}.wq"]),
                ad.matmul(h, self.params[f"layer{i}.wk"]),
                ad.matmul(h, self.params[f"layer{i}.wv"]),
                cfg.heads,
                b,
            )
            attn = ad.matmul(attended, self.params[f"layer{i}.wo"])
            x = ad.add(x, attn)

            h2 = ad.normalize_rows(x, math.sqrt(d))
            mlp = ad.matmul(
                ad.relu(ad.matmul(h2, self.params[f"layer{i}.w1"])),
                self.params[f"layer{i}.w2"],
            )
            x = ad.add(x, mlp)
            hiddens.append(x)

        predicting = np.arange(b * t).reshape(b, t)[:, :-1].ravel()
        logits = self._head(ad.gather_rows(x, predicting))
        return logits, [h.values[predicting] for h in hiddens]

    def _head(self, x: Tensor) -> Tensor:
        """The output head: final normalization, then the unembedding."""
        h = ad.normalize_rows(x, math.sqrt(self.config.hidden_dim))
        return ad.matmul_t(h, self.unembedding)

    def project_hidden(self, hidden: np.ndarray) -> np.ndarray:
        """Virtual logits: a hidden-state matrix pushed through the output
        head (plain arrays, no gradients)."""
        return self._head(ad.constant(np.asarray(hidden, dtype=np.float64))).values
