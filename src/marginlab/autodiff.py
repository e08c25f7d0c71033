"""Minimal reverse-mode differentiation engine.

Design notes:

* Operations are recorded on a ``Tape`` opened as a context manager; the
  recording order is a topological order, and the backward pass walks it
  exactly once in reverse, so gradient accumulation order is fixed and
  results are bit-reproducible.
* ``backward`` consumes the tape: each node, with the arrays its backward
  saved, is released as the walk passes it, and its output's grad reset
  to None, so only leaf grads remain.  Call it once per tape (a second
  call is a ``UsageError``); ``len(tape)`` still counts the recorded nodes.
* Everything defaults to float64.  float32 inputs are preserved for
  callers that want speed over precision, but the verification tests run
  in double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, UsageError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """An array with an optional gradient slot."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return self.values.item()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Recorder for primitive applications, in application order."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, object] | None] = []
        self._walked = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(leaf) into every leaf's grad, consuming the
        tape as the module notes say.  ``root`` must be a scalar produced
        under this tape."""
        if self._walked:
            raise UsageError("this tape was already walked by backward; record a new one")
        if root.values.size != 1:
            raise UsageError("backward root must be a scalar")
        self._walked = True
        root.grad = np.ones_like(root.values)
        for i in reversed(range(len(self))):
            (out, backward), self._nodes[i] = self._nodes[i], None
            if out.grad is not None:
                backward(out.grad)
                out.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # Stored grads are never modified in place: one g may reach two parents (add).
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _make(values, parents: tuple[Tensor, ...], backward) -> Tensor:
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    needs = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(values, requires_grad=needs)
    if needs:
        tape._nodes.append((out, backward))
    return out


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise UsageError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    def backward(g):
        _accumulate(a, g @ bv.T)
        _accumulate(b, av.T @ g)

    return _make(av @ bv, (a, b), backward)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b^T`` for 2-D operands as one node (the tied output head).  b^T
    is copied: on a transposed view OpenBLAS's small-matrix kernel rounds
    differently from its blocked one, so logits would depend on the batch."""
    av, bt = a.values, np.ascontiguousarray(b.values.T)
    if av.ndim != 2 or bt.ndim != 2 or av.shape[1] != bt.shape[0]:
        raise UsageError(f"matmul_t shape mismatch: {av.shape} @ {b.shape}^T")

    def backward(g):
        _accumulate(a, g @ bt.T)
        _accumulate(b, (av.T @ g).T)

    return _make(av @ bt, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise UsageError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.values + b.values, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return _make(a.values * c, (a,), backward)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, batch: int = 1) -> Tensor:
    """Multi-head causal self-attention over [b·T, d] projections, one node.

    Rows are ``batch`` equal-length sequences stacked in order; each
    attends only to itself.  Columns are split into ``heads`` blocks of
    d / heads, and all sequences and heads run as one [b, heads, T, T]
    batch: scores q k^T / sqrt(d / heads), masked above the diagonal,
    row softmax, then times v.  The output is the heads' results side by
    side, [b·T, d].
    """
    qv, kv, vv = q.values, k.values, v.values
    if qv.ndim != 2 or qv.shape != kv.shape or qv.shape != vv.shape:
        raise UsageError(f"q, k, v must be equal [b*T, d], got {qv.shape}, {kv.shape}, {vv.shape}")
    rows, d = qv.shape
    if batch < 1 or rows % batch:
        raise UsageError(f"{rows} rows do not split into {batch} sequences")
    if heads < 1 or d % heads:
        raise UsageError(f"d={d} does not split into {heads} heads")
    b, t, hd = batch, rows // batch, d // heads
    c = 1.0 / math.sqrt(hd)

    def split(x):  # [b*T, d] -> [b, heads, T, hd] view
        return x.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)

    def merge(x):  # [b, heads, T, hd] -> [b*T, d]
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, vh = split(qv), split(vv)
    # A contiguous k^T: each head's q k^T then rounds exactly like a 2-D
    # matmul of that head's columns (a strided view may take another gemm path).
    kt = np.ascontiguousarray(kv.reshape(b, t, heads, hd).transpose(0, 2, 3, 1))
    # The softmax runs in place in the fresh [b, heads, T, T] score buffer.
    p = qh @ kt
    p *= c
    causal = np.tri(t, dtype=bool)
    # The row maximum over causal entries only.  Clamping the masked
    # entries at 0 before exp and zeroing them after gives the same bits
    # as exp(-inf) but keeps exp off its slow path for infinite input.
    p -= np.max(p, axis=-1, keepdims=True, where=causal, initial=-np.inf)
    np.minimum(p, 0.0, out=p)
    np.exp(p, out=p)
    p *= causal
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)

    def backward(g):
        gh = split(g)
        # ds = p * (dp - rowsum(dp * p)) * c, in place in dp's fresh buffer.
        ds = gh @ vh.transpose(0, 1, 3, 2)
        ds -= np.sum(ds * p, axis=-1, keepdims=True)
        ds *= p
        ds *= c
        _accumulate(q, merge(ds @ kt.transpose(0, 1, 3, 2)))
        _accumulate(k, (qh.transpose(0, 1, 3, 2) @ ds).transpose(0, 3, 1, 2).reshape(rows, d))
        _accumulate(v, merge(p.transpose(0, 1, 3, 2) @ gh))

    return _make(out, (q, k, v), backward)


def gather_rows(m: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds into them."""
    mv = m.values
    if mv.ndim != 2:
        raise UsageError("gather_rows expects a 2-D tensor")
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if (idx < 0).any() or (idx >= mv.shape[0]).any():
        raise UsageError("row index out of range")
    # Two index patterns skip np.add.at's scatter with the same bits: strictly
    # increasing (each row is hit once) and tile(arange(t), b) (b copies of
    # rows 0..t-1, summed in copy order).
    t = int(idx.max()) + 1 if idx.size else 0
    increasing = bool(np.all(idx[1:] > idx[:-1]))
    tiled = not increasing and idx.size % t == 0 and (idx.reshape(-1, t) == np.arange(t)).all()

    def backward(g):
        dm = np.zeros_like(mv)
        if increasing:
            dm[idx] += g
        elif tiled:
            dm[:t] += g.reshape(-1, t, g.shape[1]).sum(axis=0)
        else:
            np.add.at(dm, idx, g)
        _accumulate(m, dm)

    return _make(mv[idx], (m,), backward)


def normalize_rows(x: Tensor, length: float) -> Tensor:
    """Rescale each row to Euclidean norm ``length``, as ``normalize_into``."""
    xv = x.values
    if xv.ndim < 1:
        raise UsageError("normalize_rows needs at least 1-D input")
    c = float(length)
    out, norms = normalize_into(xv, c)

    def backward(g):
        # xv / norms: the forward's unit rows, bit for bit
        _accumulate(x, normalize_grad(g, xv / norms, norms, c))

    return _make(out, (x,), backward)


def normalize_into(x: np.ndarray, length: float, out=None, norms=None):
    """``(out, norms)``: the rows (last axis) of ``x`` rescaled to Euclidean
    norm ``length``, and their norms ([..., 1], floored so zero rows stay
    zero); the one statement of this normalization.  Buffers not given are
    allocated in x's dtype; ``out`` holds x * x until the norms are taken."""
    if out is None:
        out, norms = np.empty_like(x), np.empty(x.shape[:-1] + (1,), x.dtype)
    np.sum(np.multiply(x, x, out=out), axis=-1, keepdims=True, out=norms)
    np.maximum(np.sqrt(norms, out=norms), 1e-30, out=norms)
    return np.multiply(np.divide(x, norms, out=out), length, out=out), norms


def normalize_grad(g: np.ndarray, unit: np.ndarray, norms: np.ndarray, length: float):
    """The gradient reaching x through ``normalize_into(x, length)``, given the
    gradient ``g`` of its output, the unit rows x / norms and the norms."""
    gu = g * length
    gu -= unit * np.sum(gu * unit, axis=-1, keepdims=True)
    gu /= norms
    return gu


def relu(x: Tensor) -> Tensor:
    pos = x.values > 0

    def backward(g):
        _accumulate(x, g * pos)

    return _make(np.maximum(x.values, 0.0), (x,), backward)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def grad_check(fn, arrays, step: float = 1e-5) -> float:
    """Worst-coordinate error of reverse-mode grads vs central differences.

    ``fn`` maps a list of Tensors to a scalar Tensor and must be pure.
    Differences are computed in float64.  The per-coordinate error is
    relative, falling back to absolute below 1e-6 magnitude.

    Raises:
        NumericalError: fn produced a non-finite value.
    """
    if step <= 0:
        raise UsageError("step must be positive")
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    params = [parameter(a) for a in arrays]
    with Tape() as tape:
        out = fn(params)
        if not np.isfinite(out.values).all():
            raise NumericalError("function value is not finite")
        tape.backward(out)
    analytic = [
        p.grad if p.grad is not None else np.zeros_like(p.values) for p in params
    ]

    def eval_at(vals: list[np.ndarray]) -> float:
        v = fn([constant(a) for a in vals]).item()
        if not np.isfinite(v):
            raise NumericalError("function value is not finite")
        return v

    worst = 0.0
    for which, base in enumerate(arrays):
        flat = base.ravel()
        for i in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[which].ravel()[i] = flat[i] + step
            f_plus = eval_at(bumped)
            bumped[which].ravel()[i] = flat[i] - step
            f_minus = eval_at(bumped)
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[which].ravel()[i]
            denom = abs(numeric)
            err = abs(a - numeric) / denom if denom >= 1e-6 else abs(a - numeric)
            worst = max(worst, err)
    return worst
