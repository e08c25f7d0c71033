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


def _f32(*patterns):
    return np.array(patterns, dtype=np.uint32).view(np.float32)


class TestEmulateBf16Edges:
    """The bit patterns where the bare RNE formula goes wrong or is easy to
    get wrong, and the shapes and ``out`` forms, against ``oracle_bf16``."""

    PATTERNS = (
        0x7FFFFFFF, 0xFFFFFFFF,  # NaNs whose payload carries into sign and exponent
        0x7F800001, 0x7FC00000, 0xFFC08000,  # other NaNs
        0x7F800000, 0xFF800000,  # +-inf
        0x7F7FFFFF, 0xFF7FFFFF,  # the largest finite values round to +-inf
        0x00000001, 0x00008000, 0x00018000, 0x007FFFFF, 0x807FFFFF,  # subnormals
        0x00000000, 0x80000000, 0x3F808000, 0x3F818000,  # +-0 and ties to even
    )

    @staticmethod
    def want(values):
        out = []
        for v, b in zip(values.tolist(), values.view(np.uint32).tolist()):
            out.append(b if np.isnan(v) else np.float32(oracle_bf16(v)).view(np.uint32))
        return np.array(out, dtype=np.uint32)

    def test_patterns_match_oracle(self):
        x = _f32(*self.PATTERNS)
        got = emulate_bf16(x).view(np.uint32)
        np.testing.assert_array_equal(got, self.want(x))
        assert got[0] == 0x7FFFFFFF and got[1] == 0xFFFFFFFF  # the formula gives +-0
        assert got[7] == 0x7F800000 and got[8] == 0xFF800000

    @pytest.mark.parametrize("shape", [(18,), (3, 6), (2, 3, 3)])
    def test_out_is_input(self, shape):
        x = _f32(*self.PATTERNS).reshape(shape)
        want = self.want(x.ravel()).reshape(shape)
        assert emulate_bf16(x, out=x) is x
        np.testing.assert_array_equal(x.view(np.uint32), want)

    def test_out_is_another_array(self):
        x = _f32(*self.PATTERNS)
        before = x.copy()
        out = np.empty_like(x)
        assert emulate_bf16(x, out=out) is out
        np.testing.assert_array_equal(out.view(np.uint32), self.want(x))
        np.testing.assert_array_equal(x.view(np.uint32), before.view(np.uint32))

    def test_empty_and_zero_d(self):
        for empty in (np.empty(0, np.float32), np.empty((0, 4)), np.empty((3, 0), np.float32)):
            got = emulate_bf16(empty)
            assert got.shape == empty.shape and got.dtype == np.float32
            assert emulate_bf16(got, out=got) is got
        zero_d = _f32(0x7FFFFFFF).reshape(())
        assert np.isnan(emulate_bf16(zero_d)) and isinstance(emulate_bf16(zero_d), float)
        assert emulate_bf16(zero_d, out=zero_d) is zero_d
        assert zero_d.view(np.uint32) == 0x7FFFFFFF
        zero_d = np.array(1.0 + 2**-8 + 2**-7, np.float32)
        emulate_bf16(zero_d, out=zero_d)
        assert zero_d == 1.0 + 2**-6  # the tie goes to the even neighbour, up

    @pytest.mark.parametrize("out", [np.empty(3, np.float64), np.empty(4, np.float32), [0.0] * 3])
    def test_bad_out_is_usage_error(self, out):
        with pytest.raises(UsageError, match="out must be"):
            emulate_bf16(np.ones(3, np.float32), out=out)

    def test_float64_input_rounds_twice(self):
        """float64 goes through float32 first: just above a bf16 midpoint,
        the float32 step lands on the midpoint and ties to even go down."""
        x = 1 + 2**-8 + 2**-30
        assert emulate_bf16(x) == 1.0
        assert emulate_bf16(np.array([x]))[0] == 1.0
        assert abs(1.0078125 - x) < abs(1.0 - x)  # the nearest bf16 value


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
