"""bfloat16 rounding emulation and full-precision logit recomputation.

bfloat16 keeps the float32 exponent but only 7 explicit mantissa bits
(8-bit significand with the implicit leading bit).  Rounding a float32
value to the nearest bfloat16 is therefore a pure bit operation on the
float32 representation: round the low 16 bits to nearest, ties to even.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def emulate_bf16(x, out=None):
    """Round float values to the nearest bfloat16-representable value.

    Accepts a scalar or array; returns float32 of the same shape (a plain
    float for scalar input).  Round-to-nearest-even on the 16 truncated
    mantissa bits, so a finite value above the largest bfloat16 rounds to
    infinity.  Idempotent.  Infinities and NaNs (payload and sign
    included) pass through unchanged.  Input that is not float32 is first
    rounded to float32, so a float64 value rounds twice and can land on the
    wrong side of a bfloat16 midpoint: ``emulate_bf16(1 + 2**-8 + 2**-30)``
    is 1.0, though 1.0078125 is nearer.

    ``out``, a float32 array of the input's shape, receives the result and
    is returned; it may be the input itself.
    """
    scalar = out is None and (np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0))
    arr = np.asarray(x, dtype=np.float32)
    if out is None:
        out = np.empty_like(arr)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float32 and out.shape == arr.shape):
        raise UsageError(f"out must be a float32 array of shape {arr.shape}")
    bits, rounded = arr.view(np.uint32), out.view(np.uint32)
    # A NaN's payload can carry into its exponent and sign, so NaNs are kept
    # aside, and only when a min reduction (which propagates NaN) finds one.
    nan = np.isnan(arr) if arr.size and np.isnan(arr.min()) else None
    kept = None if nan is None else bits[nan]
    # RNE: add 0x7FFF plus the lowest kept bit, then truncate.
    lowest = bits >> np.uint32(16)
    lowest &= np.uint32(1)
    np.add(bits, lowest, out=rounded)
    rounded += np.uint32(0x7FFF)
    rounded &= np.uint32(0xFFFF0000)
    if nan is not None:
        rounded[nan] = kept
    if scalar:
        return float(out)
    return out


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
