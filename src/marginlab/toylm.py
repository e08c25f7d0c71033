"""Desk-scale tied-embedding causal transformer.

Two blocks of multi-head causal attention plus a ReLU MLP, with
parameter-free row-normalization layers (unit rows rescaled by sqrt(d)).
A forward pass takes b equal-length sequences at once: the dense layers
are [b·T, d] GEMMs, and ``autodiff.causal_attention`` runs every sequence
and head as one [b, heads, T, T] batch and records one tape node.  So a
pass records a fixed 12 nodes per layer plus 6 for the embedding, the
predicting-row selection and the head, whatever b is.
The input embedding and the output projection are one shared matrix, so
its gradient collects contributions from both uses.  Audits and the
layer scan run ``evaluate``: the same autodiff arithmetic without the
tape, with the dense intermediates in scratch arrays reused across the
blocks of one audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, UsageError, check_int, check_size


@dataclass(frozen=True)
class ToyLmConfig:
    vocab_size: int = 512
    hidden_dim: int = 64
    layers: int = 2
    heads: int = 2
    context: int = 96

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
        check_size(parameters=self.parameter_count)

    @property
    def parameter_count(self) -> int:
        """The number of float64 values in a model of this config."""
        d = self.hidden_dim
        return (self.vocab_size + self.context) * d + self.layers * 12 * d * d

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape by name, in draw, buffer and checkpoint order."""
        d = self.hidden_dim
        shapes = {"embedding": (self.vocab_size, d), "pos": (self.context, d)}
        for i in range(self.layers):
            shapes.update({f"layer{i}.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
            shapes.update({f"layer{i}.w1": (d, 4 * d), f"layer{i}.w2": (4 * d, d)})
        return shapes

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """``buffer`` (``parameter_count`` values) split by ``shapes()`` into views."""
        shapes = self.shapes()
        parts = np.split(buffer, np.cumsum([math.prod(s) for s in shapes.values()])[:-1])
        return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


class ToyLm:
    """Causal language model over token-id sequences."""

    def __init__(self, config: ToyLmConfig, seed: int = 0, values: np.ndarray | None = None):
        """Draws fresh parameters from ``seed``; given ``values`` (``parameter_count``
        floats), the parameters are views of it and nothing is drawn."""
        self.config, self.seed = config, seed
        # Every parameter is a view into one buffer taken before the first
        # draw, so a model the machine cannot hold raises MemoryError at once.
        self.values = np.empty(config.parameter_count) if values is None else values
        if self.values.shape != (config.parameter_count,):
            raise UsageError(f"values must be [{config.parameter_count}], got {self.values.shape}")
        views = config.views(self.values)
        if values is None:
            rng = np.random.default_rng(seed)
            for name, view in views.items():
                std = 0.05 if name in ("embedding", "pos") else 1.0 / math.sqrt(view.shape[0])
                view[...] = rng.normal(0.0, std, size=view.shape)
        self.params = {name: Tensor(view, requires_grad=True) for name, view in views.items()}

    @property
    def unembedding(self) -> Tensor:
        """The V x d output projection: the embedding itself."""
        return self.params["embedding"]

    def clone(self) -> "ToyLm":
        return ToyLm(self.config, self.seed, self.values.copy())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _token_ids(self, tokens) -> np.ndarray:
        """``tokens`` as a [b, T] id array, or the error both forwards raise."""
        ids = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        cfg = self.config
        if ids.ndim != 2 or ids.shape[0] < 1:
            raise UsageError(f"tokens must be [T] or [b, T], got shape {ids.shape}")
        t = ids.shape[1]
        if t < 2:
            raise UsageError("sequence must have at least 2 tokens")
        if t > cfg.context:
            raise UsageError(f"sequence length {t} exceeds context {cfg.context}")
        if (ids < 0).any() or (ids >= cfg.vocab_size).any():
            bad = int(ids[(ids < 0) | (ids >= cfg.vocab_size)][0])
            raise DataError(f"token id {bad} outside vocabulary of size {cfg.vocab_size}")
        return ids

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
        ids = self._token_ids(tokens)
        cfg = self.config
        b, t = ids.shape
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

        # The output head: final normalization, then the unembedding.
        predicting = np.arange(b * t).reshape(b, t)[:, :-1].ravel()
        head = ad.normalize_rows(ad.gather_rows(x, predicting), math.sqrt(d))
        logits = ad.matmul_t(head, self.unembedding)
        return logits, [h.values[predicting] for h in hiddens]

    def evaluate(self, tokens, scratch: dict,
                 hidden: bool = False) -> tuple[np.ndarray, list[np.ndarray]]:
        """``forward(tokens)``'s logits and, with ``hidden``, its hidden
        states, bit for bit: the same autodiff arithmetic (attention on
        constants, which record no tape node; the normalization as
        ``autodiff.normalize_into``), with the other intermediates in
        arrays kept in ``scratch``.  Give every call of one audit the same
        dict, empty at first and used under one set of weights; the logits
        are a view into it, valid until its next use."""
        ids = self._token_ids(tokens)
        (b, t), cfg = ids.shape, self.config
        d, r, w = cfg.hidden_dim, b * t, {n: p.values for n, p in self.params.items()}
        if (b, t) not in scratch:  # in the parameters' dtype, as forward's intermediates
            shapes = [(r, d)] * 6 + [(r, 1), (r, 4 * d)]
            scratch[b, t] = [np.empty(shape, self.values.dtype) for shape in shapes]
        x, h, q, k, v, y, norms, u = scratch[b, t]
        # The ids are checked; "clip" spares take's buffered copy of its output.
        np.take(w["embedding"], ids, axis=0, out=x.reshape(b, t, d), mode="clip")
        x.reshape(b, t, d)[...] += w["pos"][:t]
        hiddens = []
        for i in range(cfg.layers):
            ad.normalize_into(x, math.sqrt(d), h, norms)
            for out, name in ((q, "wq"), (k, "wk"), (v, "wv")):
                np.matmul(h, w[f"layer{i}.{name}"], out=out)
            att = ad.causal_attention(*map(ad.constant, (q, k, v)), cfg.heads, b).values
            x += np.matmul(att, w[f"layer{i}.wo"], out=y)
            ad.normalize_into(x, math.sqrt(d), h, norms)
            np.maximum(np.matmul(h, w[f"layer{i}.w1"], out=u), 0.0, out=u)
            x += np.matmul(u, w[f"layer{i}.w2"], out=y)
            if hidden:
                hiddens.append(x.reshape(b, t, d)[:, :-1].copy().reshape(-1, d))
        rows = h[: b * (t - 1)]
        np.copyto(rows.reshape(b, t - 1, d), x.reshape(b, t, d)[:, :-1])
        return self.project_hidden(rows, scratch), hiddens

    def project_hidden(self, hidden: np.ndarray, scratch: dict) -> np.ndarray:
        """Virtual logits: [n, d] hidden-state rows, cast to the parameters'
        dtype, through ``forward``'s output head, tape-free; ``scratch`` and
        the result as in ``evaluate``."""
        h, d = np.asarray(hidden, dtype=self.values.dtype), self.config.hidden_dim
        if h.ndim != 2 or h.shape[1] != d:
            raise UsageError(f"hidden states must be [n, {d}], got shape {h.shape}")
        if "et" not in scratch:  # contiguous, as autodiff.matmul_t copies it
            scratch["et"] = np.ascontiguousarray(self.unembedding.values.T)
        n, v = len(h), self.config.vocab_size
        if n not in scratch:
            scratch[n] = [np.empty(shape, h.dtype) for shape in ((n, 1), (n, d), (n, v))]
        norms, out, logits = scratch[n]
        ad.normalize_into(h, math.sqrt(d), out, norms)
        return np.matmul(out, scratch["et"], out=logits)
