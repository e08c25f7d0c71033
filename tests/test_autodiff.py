"""Engine primitives verified against central differences."""

import numpy as np
import pytest

from marginlab import autodiff as ad
from marginlab.errors import NumericalError, UsageError
from marginlab.objectives import fisher_loss


def _finite_diff_ok(fn, arrays, tol=1e-4, step=1e-5):
    err = ad.grad_check(fn, arrays, step=step)
    assert err < tol, f"grad error {err} >= {tol}"


class TestPrimitiveGradients:
    def test_matmul(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        _finite_diff_ok(lambda p: ad.mean(ad.matmul(p[0], p[1])), [a, b])

    def test_matmul_vector_cases(self):
        rng = np.random.default_rng(1)
        _finite_diff_ok(
            lambda p: ad.total(ad.matmul(p[0], p[1])),
            [rng.normal(size=5), rng.normal(size=(5, 3))],
        )
        _finite_diff_ok(
            lambda p: ad.total(ad.matmul(p[0], p[1])),
            [rng.normal(size=(3, 5)), rng.normal(size=5)],
        )
        _finite_diff_ok(
            lambda p: ad.matmul(p[0], p[1]),
            [rng.normal(size=5), rng.normal(size=5)],
        )

    def test_softmax_symmetric_two_case(self):
        with ad.Tape() as tape:
            x = ad.parameter([0.0, 0.0])
            p = ad.softmax(x)
            np.testing.assert_allclose(p.values, [0.5, 0.5])
            first = ad.matmul(p, ad.constant([1.0, 0.0]))
            tape.backward(first)
        # d p0 / d x0 = p0 (1 - p0) = 0.25
        np.testing.assert_allclose(x.grad, [0.25, -0.25], atol=1e-12)

    def test_softmax_grad(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=6)
        _finite_diff_ok(
            lambda p: ad.mean(ad.matmul(p[0], ad.constant(w))), [x]
        )

    def test_log_softmax_gather(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7))
        idx = rng.integers(0, 7, size=5)
        _finite_diff_ok(lambda p: ad.mean(ad.log_softmax_gather(p[0], idx)), [x])

    def test_sqrt_clamped_at_zero(self):
        with ad.Tape() as tape:
            x = ad.parameter([0.0, 4.0])
            y = ad.sqrt_clamped(x, 1e-8)
            np.testing.assert_allclose(y.values, [1e-4, 2.0])
            out = ad.total(y)
            tape.backward(out)
        assert np.isfinite(x.grad).all()
        assert x.grad[0] == 0.0  # clamp active: zero gradient
        assert x.grad[1] == pytest.approx(0.25)

    def test_sqrt_clamped_grad(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 3.0, size=(3, 3))
        _finite_diff_ok(lambda p: ad.mean(ad.sqrt_clamped(p[0], 1e-8)), [x])

    def test_l2_normalize_rows_grad(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5)) + 0.1
        w = rng.normal(size=5)
        _finite_diff_ok(
            lambda p: ad.mean(ad.matmul(ad.l2_normalize_rows(p[0]), ad.constant(w))),
            [x],
        )

    def test_masked_mean_and_slicing(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        mask = rng.random(size=(5, 1)) > 0.4
        _finite_diff_ok(
            lambda p: ad.masked_mean(ad.slice_cols(p[0], 0, 1), mask), [x]
        )
        _finite_diff_ok(
            lambda p: ad.mean(ad.concat_cols([ad.slice_cols(p[0], 2, 4), ad.relu(p[0])])),
            [x],
        )

    def test_mul_scale_sub(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        _finite_diff_ok(
            lambda p: ad.mean(ad.mul(ad.scale(p[0], 2.5), ad.sub(p[0], p[1]))), [a, b]
        )

    def test_gather_rows_scatter_grad(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 2, 5])
        _finite_diff_ok(lambda p: ad.mean(ad.gather_rows(p[0], idx)), [m])


class TestPrimitiveSweep:
    """Every primitive, and the fused fisher_loss node, against central
    differences: 100 seeded instances in double precision."""

    def test_hundred_seeded_instances(self):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(10):
            m, n, k = (int(rng.integers(2, 5)) for _ in range(3))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=(n, k))
            w = rng.normal(size=n)
            sq = rng.normal(size=(n, n))
            pos = rng.uniform(0.2, 2.0, size=(m, n))
            mask = rng.random(size=(m, n)) > 0.5
            idx = rng.integers(0, n, size=m)
            cases.extend(
                [
                    (lambda p, b=b: ad.mean(ad.matmul(p[0], ad.constant(b))), [a]),
                    (lambda p: ad.mean(ad.add(p[0], p[1])), [a, a + 1.0]),
                    (lambda p: ad.mean(ad.mul(p[0], p[1])), [a, a * 0.5 + 2.0]),
                    (lambda p: ad.total(ad.scale(ad.sub(p[0], p[1]), 1.7)), [a, 2 * a]),
                    (
                        lambda p, w=w: ad.mean(
                            ad.matmul(ad.softmax(p[0]), ad.constant(w))
                        ),
                        [a],
                    ),
                    (
                        lambda p, idx=idx: ad.mean(ad.log_softmax_gather(p[0], idx)),
                        [a],
                    ),
                    (lambda p: ad.mean(ad.sqrt_clamped(p[0], 1e-8)), [pos]),
                    (
                        lambda p, w=w: ad.mean(
                            ad.matmul(ad.l2_normalize_rows(p[0]), ad.constant(w))
                        ),
                        [a + 0.3],
                    ),
                    (lambda p, mask=mask: ad.masked_mean(p[0], mask), [a]),
                    (lambda p, k=min(k + 1, n): fisher_loss(p[0], p[1], k), [a, sq]),
                ]
            )
        assert len(cases) == 100
        worst = 0.0
        for fn, arrays in cases:
            worst = max(worst, ad.grad_check(fn, arrays))
        assert worst < 1e-4, f"worst primitive grad error {worst}"


class TestTopK:
    def test_values_and_frozen_indices(self):
        x = ad.constant([[1.0, 5.0, 3.0, 5.0]])
        vals, idx = ad.topk_values_gather(x, 2)
        np.testing.assert_array_equal(vals.values, [[5.0, 5.0]])
        np.testing.assert_array_equal(idx, [[1, 3]])  # lower id wins the tie

    def test_backward_zero_outside_selection(self):
        with ad.Tape() as tape:
            x = ad.parameter([[1.0, 5.0, 3.0, 2.0], [7.0, 0.0, 6.0, 1.0]])
            vals, idx = ad.topk_values_gather(x, 2)
            out = ad.total(vals)
            tape.backward(out)
        expected = np.zeros((2, 4))
        expected[0, 1] = expected[0, 2] = 1.0
        expected[1, 0] = expected[1, 2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 8))
        _finite_diff_ok(
            lambda p: ad.mean(ad.topk_values_gather(p[0], 3)[0]), [x]
        )

    def test_k_out_of_range(self):
        with pytest.raises(UsageError):
            ad.topk_values_gather(ad.constant([[1.0, 2.0]]), 3)

    def test_nonfinite_is_usage_error(self):
        with pytest.raises(UsageError):
            ad.topk_values_gather(ad.constant([[1.0, -np.inf, -np.inf]]), 2)


class TestTapeSemantics:
    def test_backward_deterministic_bit_identical(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(6, 6))
        grads = []
        for _ in range(2):
            with ad.Tape() as tape:
                a = ad.parameter(a0)
                out = ad.mean(ad.matmul(ad.softmax(a), ad.transpose(a)))
                tape.backward(out)
            grads.append(a.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_no_tape_no_recording(self):
        a = ad.parameter(np.ones((2, 2)))
        out = ad.mean(a)
        assert out.requires_grad is False

    def test_grad_accumulates_across_uses(self):
        with ad.Tape() as tape:
            a = ad.parameter(np.ones(3))
            out = ad.total(ad.add(a, a))
            tape.backward(out)
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])

    def test_backward_needs_scalar(self):
        with ad.Tape() as tape:
            a = ad.parameter(np.ones(3))
            out = ad.add(a, a)
            with pytest.raises(UsageError):
                tape.backward(out)

    def test_visits_each_node_once(self):
        # diamond graph: y = sum(a + a * a); gradient 1 + 2a
        with ad.Tape() as tape:
            a = ad.parameter([3.0])
            sq = ad.mul(a, a)
            out = ad.total(ad.add(a, sq))
            tape.backward(out)
        np.testing.assert_allclose(a.grad, [7.0])


class TestGradCheck:
    def test_quadratic_tight(self):
        err = ad.grad_check(lambda p: ad.total(ad.mul(p[0], p[0])), [np.array([3.0])])
        assert err < 1e-8

    def test_nonfinite_raises(self):
        def bad(p):
            return ad.constant(float("nan"))

        with pytest.raises(NumericalError):
            ad.grad_check(bad, [np.array([1.0])])

    def test_shape_errors_are_usage(self):
        with pytest.raises(UsageError):
            ad.add(ad.constant(np.ones(2)), ad.constant(np.ones(3)))
        with pytest.raises(UsageError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
