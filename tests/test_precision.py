"""bfloat16 emulation against an independent bit-level rounding oracle."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.errors import UsageError
from marginlab.margins import top2_stats, unique_value_count
from marginlab.precision import emulate_bf16, recompute_fp32_logits


def oracle_bf16(x: float) -> float:
    """Independent oracle: explicit field-wise round-to-nearest-even of the
    float32 pattern to an 8-bit significand, rebuilt by hand."""
    (bits,) = struct.unpack(">I", struct.pack(">f", np.float32(x)))
    exp = (bits >> 23) & 0xFF
    if exp == 0xFF:  # inf/nan pass through
        return float(np.float32(x))
    keep = bits >> 16
    dropped = bits & 0xFFFF
    half = 0x8000
    if dropped > half or (dropped == half and (keep & 1)):
        keep += 1  # may carry into the exponent; that is correct RNE overflow
    (out,) = struct.unpack(">f", struct.pack(">I", keep << 16))
    return out


class TestEmulateBf16:
    def test_one_exact(self):
        assert emulate_bf16(1.0) == 1.0

    def test_spacing_above_one(self):
        # smallest representable step above 1.0 is 2^-7
        x = np.float32(1.0) + np.float32(2**-7)
        assert emulate_bf16(float(x)) == 1.0 + 2**-7

    def test_halfway_rounds_to_even(self):
        assert emulate_bf16(1.0 + 2**-8) == 1.0

    def test_three_quarter_step_rounds_up(self):
        assert emulate_bf16(1.0 + 1.5 * 2**-8) == 1.0 + 2**-7

    def test_matches_bit_oracle(self):
        rng = np.random.default_rng(42)
        vals = np.concatenate(
            [
                rng.uniform(-100, 100, 4000).astype(np.float32),
                rng.uniform(1, 8, 4000).astype(np.float32),
                (rng.normal(size=2000) * 1e-30).astype(np.float32),  # subnormal range
            ]
        )
        got = emulate_bf16(vals)
        for v, g in zip(vals.tolist(), got.tolist()):
            assert g == oracle_bf16(v), f"mismatch at {v!r}"

    def test_idempotent_large_sample(self):
        rng = np.random.default_rng(0)
        x = (rng.normal(size=1_000_000) * rng.choice([1e-3, 1.0, 1e4], size=1_000_000)).astype(
            np.float32
        )
        once = emulate_bf16(x)
        twice = emulate_bf16(once)
        assert np.array_equal(once, twice)

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_idempotence_property(self, x):
        once = emulate_bf16(x)
        assert emulate_bf16(once) == once

    def test_nonfinite_pass_through(self):
        assert emulate_bf16(float("inf")) == float("inf")
        assert emulate_bf16(float("-inf")) == float("-inf")
        assert np.isnan(emulate_bf16(float("nan")))

    def test_scalar_in_scalar_out(self):
        assert isinstance(emulate_bf16(2.5), float)

    def test_every_bit_class_matches_fieldwise_rne(self):
        """Random float32 bit patterns (NaN payloads, infinities, subnormals,
        the largest finite values) against field-wise RNE on the integers."""
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2**32, size=200_000, dtype=np.uint64).astype(np.uint32)
        bits[:4] = (0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0x7FC00001)
        keep = (bits >> 16).astype(np.uint64)
        dropped = bits & 0xFFFF
        up = (dropped > 0x8000) | ((dropped == 0x8000) & (keep & 1 == 1))
        special = (bits >> 23) & 0xFF == 0xFF
        want = np.where(special, bits, ((keep + up) << 16).astype(np.uint32))
        before = bits.copy()
        got = emulate_bf16(bits.view(np.float32)).view(np.uint32)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(bits, before)  # the input is not written


class TestRecomputeFp32:
    def test_identity_projection(self):
        h = np.arange(5.0)
        logits = recompute_fp32_logits(h, np.eye(5))
        np.testing.assert_array_equal(logits, h.astype(np.float32))

    def test_close_to_float64_oracle(self):
        rng = np.random.default_rng(42)
        h = rng.normal(size=32)
        w = rng.normal(size=(100, 32))
        got = recompute_fp32_logits(h, w)
        oracle = w.astype(np.float64) @ h.astype(np.float64)
        assert np.abs(got - oracle).max() < 2e-5

    def test_bf16_collapses_unique_margins(self):
        rng = np.random.default_rng(42)
        hidden = rng.normal(size=(500, 32))
        w = rng.normal(size=(100, 32))
        rows = recompute_fp32_logits(hidden, w)
        _, _, m32 = top2_stats(rows)
        _, _, mbf = top2_stats(emulate_bf16(rows))
        assert unique_value_count(mbf.astype(np.float32)) < unique_value_count(
            m32.astype(np.float32)
        )

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            recompute_fp32_logits(np.ones(3), np.ones((4, 5)))
