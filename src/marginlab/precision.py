"""bfloat16 rounding emulation and full-precision logit recomputation.

bfloat16 keeps the float32 exponent but only 7 explicit mantissa bits
(8-bit significand with the implicit leading bit).  Rounding a float32
value to the nearest bfloat16 is therefore a pure bit operation on the
float32 representation: round the low 16 bits to nearest, ties to even.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def emulate_bf16(x):
    """Round float values to the nearest bfloat16-representable value.

    Accepts a scalar or array; returns float32 of the same shape (a plain
    float for scalar input).  Round-to-nearest-even on the 16 truncated
    mantissa bits.  Idempotent.  Infinities and NaNs pass through
    unchanged.
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float32)
    bits = arr.view(np.uint32)
    # RNE: add 0x7FFF plus the lowest kept bit, then truncate; in place on
    # one buffer, then non-finite inputs are copied back unchanged.
    out = bits.copy()
    out >>= np.uint32(16)
    out &= np.uint32(1)
    out += np.uint32(0x7FFF)
    out += bits
    out &= np.uint32(0xFFFF0000)
    np.copyto(out, bits, where=~np.isfinite(arr))
    if scalar:
        return float(out.view(np.float32))
    return out.view(np.float32)


def recompute_fp32_logits(hidden_state: np.ndarray, unembedding: np.ndarray) -> np.ndarray:
    """Project hidden state(s) through the unembedding at float32.

    ``hidden_state`` is a length-d vector (or an n x d matrix of rows);
    ``unembedding`` is V x d.  Returns the length-V logit vector (or n x V
    matrix) accumulated in float32, which lands within 2e-5 per entry of a
    float64 computation at desk scale.

    Raises:
        UsageError: dimension mismatch.
    """
    h = np.asarray(hidden_state, dtype=np.float32)
    w = np.asarray(unembedding, dtype=np.float32)
    if w.ndim != 2:
        raise UsageError(f"unembedding must be 2-D, got shape {w.shape}")
    if h.ndim not in (1, 2) or h.shape[-1] != w.shape[1]:
        raise UsageError(
            f"hidden state shape {h.shape} does not match unembedding {w.shape}"
        )
    if not (np.isfinite(h).all() and np.isfinite(w).all()):
        raise UsageError("inputs must be finite")
    return h @ w.T
