"""Engine primitives verified against central differences."""

import weakref

import numpy as np
import pytest

from marginlab import autodiff as ad
from marginlab.errors import DataError, NumericalError, UsageError
from marginlab.margins import topk_ids
from marginlab.objectives import cross_entropy, fisher_loss, margin_loss


def mean(x):
    """The mean of every entry of ``x`` as a scalar node: the reducer that
    turns each primitive's output into something grad_check can take."""
    n = x.values.size

    def backward(g):
        ad._accumulate(x, np.full_like(x.values, float(g) / n))

    return ad._make(x.values.mean(), (x,), backward)


def _finite_diff_ok(fn, arrays, tol=1e-4, step=1e-5):
    err = ad.grad_check(fn, arrays, step=step)
    assert err < tol, f"grad error {err} >= {tol}"


class TestPrimitiveGradients:
    def test_matmul(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        _finite_diff_ok(lambda p: mean(ad.matmul(p[0], p[1])), [a, b])

    def test_log_softmax_gather(self):
        # the reference that the cross-entropy node is compared against
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7))
        idx = rng.integers(0, 7, size=5)
        _finite_diff_ok(lambda p: mean(_legacy_log_softmax_gather(p[0], idx)), [x])

    def test_normalize_rows_grad(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5)) + 0.1
        w = rng.normal(size=(5, 1))
        for length in (1.0, np.sqrt(5.0)):
            _finite_diff_ok(
                lambda p: mean(ad.matmul(ad.normalize_rows(p[0], length), ad.constant(w))),
                [x],
            )

    def test_relu(self):
        x = np.random.default_rng(9).normal(size=(5, 4))
        _finite_diff_ok(lambda p: mean(ad.relu(p[0])), [x])

    def test_scale_add_matmul_t(self):
        # (2.5 a) (a - b)^T: a reaches the product through two paths
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        _finite_diff_ok(
            lambda p: mean(
                ad.matmul_t(ad.scale(p[0], 2.5), ad.add(p[0], ad.scale(p[1], -1.0)))
            ),
            [a, b],
        )

    def test_matmul_t_rectangular(self):
        rng = np.random.default_rng(14)
        x, e = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        _finite_diff_ok(lambda p: mean(ad.matmul_t(p[0], p[1])), [x, e])
        with pytest.raises(UsageError):
            ad.matmul_t(ad.constant(x), ad.constant(e.T))

    @pytest.mark.parametrize("idx", [[0, 2, 2, 5], [4, 0, 3], [1, 3, 4, 5], [0, 1, 2, 0, 1, 2]],
                             ids=["repeated", "unsorted", "increasing", "tiled"])
    def test_gather_rows_scatter_grad(self, idx):
        m = np.random.default_rng(11).normal(size=(6, 3))
        w = np.random.default_rng(12).normal(size=(3, 1))
        _finite_diff_ok(
            lambda p: mean(ad.matmul(ad.gather_rows(p[0], idx), ad.constant(w))), [m]
        )


class TestPrimitiveSweep:
    """Every primitive, and the fused causal_attention, cross_entropy,
    fisher_loss and margin_loss nodes, against central differences: 100
    seeded instances in double precision."""

    def test_hundred_seeded_instances(self):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(10):
            m, n, k = (int(rng.integers(2, 5)) for _ in range(3))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=(n, k))
            w = rng.normal(size=(n, 1))
            sq = rng.normal(size=(n, n))
            qkv = list(rng.normal(size=(3, m, 2 * n)))
            w2 = rng.normal(size=(2 * n, 1))
            gaps = rng.random(size=(m, n))
            idx = rng.integers(0, n, size=m)
            cases.extend(
                [
                    (lambda p, b=b: mean(ad.matmul(p[0], ad.constant(b))), [a]),
                    (lambda p: mean(ad.add(p[0], p[1])), [a, a + 1.0]),
                    (
                        lambda p: mean(ad.matmul_t(p[0], p[1])),
                        [a, a * 0.5 + 2.0],
                    ),
                    (
                        lambda p: mean(ad.scale(ad.add(p[0], ad.scale(p[1], -1.0)), 1.7)),
                        [a, 2 * a],
                    ),
                    (
                        lambda p, w2=w2: mean(
                            ad.matmul(ad.causal_attention(*p, 1), ad.constant(w2))
                        ),
                        qkv,
                    ),
                    (lambda p, idx=idx: cross_entropy(p[0], idx), [a]),
                    (
                        lambda p, w2=w2: mean(
                            ad.matmul(ad.causal_attention(*p, 2), ad.constant(w2))
                        ),
                        qkv,
                    ),
                    (
                        lambda p, w=w: mean(
                            ad.matmul(ad.normalize_rows(p[0], 1.5), ad.constant(w))
                        ),
                        [a + 0.3],
                    ),
                    (lambda p, m=m: margin_loss(p[0], 0.5, m), [gaps]),
                    (lambda p, k=min(k + 1, n): fisher_loss(p[0], p[1], k), [a, sq]),
                ]
            )
        assert len(cases) == 100
        worst = 0.0
        for fn, arrays in cases:
            worst = max(worst, ad.grad_check(fn, arrays))
        assert worst < 1e-4, f"worst primitive grad error {worst}"


def attention_reference(q, k, v, heads):
    """Per-head loop over column blocks: masked scores, softmax, times v."""
    t, d = q.shape
    hd = d // heads
    out = np.empty_like(q)
    for j in range(heads):
        cols = slice(j * hd, (j + 1) * hd)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(hd)
        scores[np.triu_indices(t, 1)] = -np.inf
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[:, cols] = p / p.sum(axis=1, keepdims=True) @ v[:, cols]
    return out


def _weighted_attention(a, w, heads, batch):
    """The scalar a^T attention(q, k, v) w: every output entry gets its own weight."""
    return lambda p: mean(ad.matmul(
        ad.matmul(ad.constant(a[None]), ad.causal_attention(*p, heads, batch)),
        ad.constant(w[:, None]),
    ))


class TestCausalAttention:
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", range(2, 8))
    def test_gradient_matches_finite_differences(self, t, heads):
        rng = np.random.default_rng(100 * t + heads)
        d = heads * int(rng.integers(1, 4))
        _finite_diff_ok(
            _weighted_attention(rng.normal(size=t), rng.normal(size=d), heads, 1),
            list(rng.normal(size=(3, t, d))),
            step=1e-6,
        )

    @pytest.mark.parametrize("b,t,heads", [(2, 2, 1), (2, 5, 2), (3, 4, 3), (4, 3, 2)])
    def test_batched_gradient_matches_finite_differences(self, b, t, heads):
        rng = np.random.default_rng(1000 * b + 10 * t + heads)
        d = heads * int(rng.integers(1, 4))
        _finite_diff_ok(
            _weighted_attention(rng.normal(size=b * t), rng.normal(size=d), heads, b),
            list(rng.normal(size=(3, b * t, d))),
            step=1e-6,
        )

    @pytest.mark.parametrize("b,t,heads", [(2, 1, 1), (3, 9, 3), (4, 96, 2)])
    def test_batch_equals_one_sequence_at_a_time(self, b, t, heads):
        q, k, v = np.random.default_rng(b + t).normal(size=(3, b * t, 8 * heads))
        out = ad.causal_attention(ad.constant(q), ad.constant(k), ad.constant(v), heads, b)
        for s in range(b):
            rows = slice(s * t, (s + 1) * t)
            one = ad.causal_attention(
                ad.constant(q[rows]), ad.constant(k[rows]), ad.constant(v[rows]), heads
            )
            assert np.array_equal(out.values[rows], one.values)

    def test_sequences_do_not_see_each_other(self):
        b, t, d = 3, 6, 4
        q, k, v = np.random.default_rng(3).normal(size=(3, b * t, d))
        before = ad.causal_attention(ad.constant(q), ad.constant(k), ad.constant(v), 2, b)
        for x in (q, k, v):
            x[t : 2 * t] += 1.0  # change sequence 1 only
        after = ad.causal_attention(ad.constant(q), ad.constant(k), ad.constant(v), 2, b)
        assert np.array_equal(after.values[:t], before.values[:t])
        assert np.array_equal(after.values[2 * t :], before.values[2 * t :])
        assert not np.allclose(after.values[t : 2 * t], before.values[t : 2 * t])

    @pytest.mark.parametrize("t,heads", [(1, 1), (2, 4), (9, 3), (96, 2)])
    def test_matches_per_head_reference(self, t, heads):
        q, k, v = np.random.default_rng(t).normal(size=(3, t, 8 * heads))
        out = ad.causal_attention(ad.constant(q), ad.constant(k), ad.constant(v), heads)
        np.testing.assert_allclose(out.values, attention_reference(q, k, v, heads), rtol=0, atol=1e-12)

    def test_future_rows_get_no_gradient(self):
        q, k, v = (ad.parameter(a) for a in np.random.default_rng(7).normal(size=(3, 5, 4)))
        row1 = np.zeros(5)
        row1[1] = 1.0
        with ad.Tape() as tape:
            out = ad.causal_attention(q, k, v, 2)
            tape.backward(mean(ad.matmul(ad.constant(row1[None]), out)))
        # output row 1 attends to positions 0 and 1: later rows get exactly zero
        assert q.grad[1].all() and k.grad[:2].all() and v.grad[:2].all()
        assert not q.grad[2:].any() and not k.grad[2:].any() and not v.grad[2:].any()

    def test_bad_shapes_are_usage_errors(self):
        x = ad.constant(np.ones((4, 6)))
        with pytest.raises(UsageError):
            ad.causal_attention(x, x, x, 4)
        with pytest.raises(UsageError):
            ad.causal_attention(x, ad.constant(np.ones((3, 6))), x, 2)
        with pytest.raises(UsageError):
            ad.causal_attention(ad.constant(np.ones(6)), x, x, 1)
        with pytest.raises(UsageError):
            ad.causal_attention(x, x, x, 2, 3)  # 4 rows are not 3 sequences


# The compositions that the norm, head, attention and cross-entropy nodes
# replaced, as the tape recorded them: scale(l2_normalize_rows(x)),
# matmul(x, transpose(E)), an out-of-place attention softmax, an np.add.at
# gather backward and scale(mean(log_softmax_gather(x, t)), -1).


def _legacy_l2_normalize_rows(x):
    xv = x.values
    norms = np.maximum(np.sqrt(np.sum(xv * xv, axis=-1, keepdims=True)), 1e-30)
    u = xv / norms

    def backward(g):
        dot = np.sum(g * u, axis=-1, keepdims=True)
        ad._accumulate(x, (g - u * dot) / norms)

    return ad._make(u, (x,), backward)


def _legacy_transpose(m):
    return ad._make(m.values.T.copy(), (m,), lambda g: ad._accumulate(m, g.T))


def _legacy_gather_rows(m, idx):
    idx = np.asarray(idx, dtype=np.int64).ravel()

    def backward(g):
        dm = np.zeros_like(m.values)
        np.add.at(dm, idx, g)
        ad._accumulate(m, dm)

    return ad._make(m.values[idx], (m,), backward)


def _legacy_log_softmax_gather(x, idx):
    xv = x.values
    shifted = xv - xv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(xv.shape[0])

    def backward(g):
        dx = -g[:, None] * np.exp(shifted - lse[:, None])
        dx[rows, idx] += g
        ad._accumulate(x, dx)

    return ad._make(shifted[rows, idx] - lse, (x,), backward)


def _legacy_cross_entropy(x, idx):
    return ad.scale(mean(_legacy_log_softmax_gather(x, idx)), -1.0)


def _legacy_attention(q, k, v, heads, batch=1):
    qv, kv, vv = q.values, k.values, v.values
    rows, d = qv.shape
    b, t, hd = batch, rows // batch, d // heads
    c = 1.0 / np.sqrt(hd)

    def split(x):
        return x.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, vh = split(qv), split(vv)
    kt = np.ascontiguousarray(kv.reshape(b, t, heads, hd).transpose(0, 2, 3, 1))
    raw = (qh @ kt) * c
    causal = np.tri(t, dtype=bool)
    top = np.max(raw, axis=-1, keepdims=True, where=causal, initial=-np.inf)
    p = np.exp(np.minimum(raw - top, 0.0)) * causal
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = split(g)
        dp = gh @ vh.transpose(0, 1, 3, 2)
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True)) * c
        ad._accumulate(q, merge(ds @ kt.transpose(0, 1, 3, 2)))
        ad._accumulate(k, (qh.transpose(0, 1, 3, 2) @ ds).transpose(0, 3, 1, 2).reshape(rows, d))
        ad._accumulate(v, merge(p.transpose(0, 1, 3, 2) @ gh))

    return ad._make(merge(p @ vh), (q, k, v), backward)


def _values_and_grads(fn, arrays, upstream):
    """fn's output and its inputs' gradients for the upstream gradient
    ``upstream``; also checks that neither the inputs nor ``upstream`` were
    written to."""
    saved = [a.copy() for a in (*arrays, upstream)]
    params = [ad.parameter(a) for a in arrays]
    with ad.Tape() as tape:
        out = fn(params)
    out.grad = upstream
    for node, backward in reversed(tape._nodes):
        if node.grad is not None:
            backward(node.grad)
    for p, a in zip(params, arrays):
        assert np.array_equal(p.values, a)
    assert _same_bits(upstream, saved[-1])
    return out.values, [p.grad for p in params]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNormalizeInto:
    """The one normalization: x / max(sqrt(sum(x * x)), 1e-30) * length bit
    for bit over the last axis, in x's dtype, into the given buffers."""

    @pytest.mark.parametrize("shape,dtype,length", [
        ((33, 48), np.float64, 48**0.5),        # ToyLm rows at sqrt(d)
        ((33, 48), np.float32, 48**0.5),        # float32 stays float32
        ((9, 5, 64), np.float64, 1.0),          # fisher's [n, k, d] unit rows
    ], ids=["f64-rows", "f32-rows", "fisher-nkd"])
    def test_equals_the_formula(self, shape, dtype, length):
        x = np.random.default_rng(0).normal(size=shape).astype(dtype)
        x[1] = 0.0  # zero rows take the floor
        expected = x / np.maximum(np.sqrt(np.sum(x * x, axis=-1, keepdims=True)), 1e-30) * length
        out, norms = ad.normalize_into(x, length)
        assert _same_bits(out, expected) and expected.dtype == norms.dtype == dtype
        assert norms.shape == (*shape[:-1], 1)
        assert not out[1].any() and (norms[1] == dtype(1e-30)).all()
        if length == 1.0:
            assert _same_bits(out, x / norms)
        buffers = np.empty_like(x), np.empty_like(norms)
        given = ad.normalize_into(x, length, *buffers)
        assert given[0] is buffers[0] and given[1] is buffers[1]
        assert _same_bits(given[0], expected)
        assert _same_bits(ad.normalize_rows(ad.constant(x), length).values, expected)


def _old_normalize_rows_grad(x, g, length):
    """normalize_rows' backward as it was written before normalize_grad."""
    _, norms = ad.normalize_into(x, length)
    u = x / norms
    gu = g * length
    gu -= u * np.sum(gu * u, axis=-1, keepdims=True)
    gu /= norms
    return gu


def _old_fisher_emb_grad(d_u, u, norms, length):
    """fisher_loss's embedding-row gradient as it was written before
    normalize_grad; its rows are normalized to length 1."""
    assert length == 1.0
    return (d_u - u * np.sum(d_u * u, axis=2, keepdims=True)) / norms


class TestNormalizeGrad:
    """normalize_grad gives the bits of the two expressions it replaced,
    zero rows (floored norms) included."""

    @pytest.mark.parametrize("length", [48**0.5, 1.0], ids=["sqrt-d", "unit"])
    def test_normalize_rows_gradient(self, length):
        rng = np.random.default_rng(30)
        x, g = rng.normal(size=(33, 48)), rng.normal(size=(33, 48))
        x[1] = 0.0
        _, (grad,) = _values_and_grads(lambda p: ad.normalize_rows(p[0], length), [x], g)
        assert _same_bits(grad, _old_normalize_rows_grad(x, g, length))

    def test_fisher_unembedding_gradient(self, monkeypatch):
        rng = np.random.default_rng(31)
        logits, w = rng.normal(size=(9, 20)), rng.normal(size=(20, 6))
        logits[:, 3] += 10.0  # token 3 is in every row's top 5; its embedding row is zero
        w[3] = 0.0
        upstream = np.array(1.0)
        new = _values_and_grads(lambda p: fisher_loss(p[0], p[1], 5), [logits, w], upstream)
        monkeypatch.setattr(ad, "normalize_grad", _old_fisher_emb_grad)
        old = _values_and_grads(lambda p: fisher_loss(p[0], p[1], 5), [logits, w], upstream)
        assert _same_bits(new[0], old[0])
        assert all(_same_bits(a, b) for a, b in zip(new[1], old[1]))
        assert np.isfinite(new[1][1]).all() and new[1][1][3].any()


class TestFusedNodes:
    """normalize_rows, matmul_t, the in-place attention softmax, the
    scatter-free gathers and the one-node cross-entropy give the same bits
    as the compositions they replaced, at ToyLmConfig() shapes (d 64,
    V 512, 2 heads, T 96)."""

    D, V, HEADS, T = 64, 512, 2, 96

    def _assert_same(self, new, old, arrays, upstream):
        new_out, new_grads = _values_and_grads(new, arrays, upstream)
        old_out, old_grads = _values_and_grads(old, arrays, upstream)
        assert _same_bits(new_out, old_out)
        for g_new, g_old in zip(new_grads, old_grads):
            assert _same_bits(g_new, np.ascontiguousarray(g_old))

    @pytest.mark.parametrize("b", [1, 4])
    def test_norm_node(self, b):
        rng = np.random.default_rng(20 + b)
        x = rng.normal(size=(b * self.T, self.D))
        c = np.sqrt(self.D)
        self._assert_same(
            lambda p: ad.normalize_rows(p[0], c),
            lambda p: ad.scale(_legacy_l2_normalize_rows(p[0]), c),
            [x], rng.normal(size=x.shape),
        )

    @pytest.mark.parametrize("b", [1, 4])
    def test_head_node(self, b):
        rng = np.random.default_rng(30 + b)
        x = rng.normal(size=(b * (self.T - 1), self.D))
        e = rng.normal(0.0, 0.05, size=(self.V, self.D))
        self._assert_same(
            lambda p: ad.matmul_t(p[0], p[1]),
            lambda p: ad.matmul(p[0], _legacy_transpose(p[1])),
            [x, e], rng.normal(size=(x.shape[0], self.V)),
        )

    @pytest.mark.parametrize("b", [1, 4])
    def test_attention_node(self, b):
        rng = np.random.default_rng(40 + b)
        qkv = list(rng.normal(size=(3, b * self.T, self.D)))
        self._assert_same(
            lambda p: ad.causal_attention(*p, self.HEADS, b),
            lambda p: _legacy_attention(*p, self.HEADS, b),
            qkv, rng.normal(size=(b * self.T, self.D)),
        )

    @pytest.mark.parametrize("b", [1, 4])
    def test_ce_node(self, b):
        # Several upstream gradients: c = -g / n rounds differently from
        # g * (-1 / n) for about one g in six.
        rng = np.random.default_rng(50 + b)
        x = rng.normal(0.0, 2.0, size=(b * (self.T - 1), self.V))
        targets = rng.integers(0, self.V, size=x.shape[0])
        for upstream in rng.normal(size=24):
            self._assert_same(
                lambda p: cross_entropy(p[0], targets),
                lambda p: _legacy_cross_entropy(p[0], targets),
                [x], np.array(upstream),
            )

    @pytest.mark.parametrize(
        "idx",
        [
            np.random.default_rng(5).integers(0, 512, size=4 * 96),  # token ids: repeated
            np.arange(4 * 96).reshape(4, 96)[:, :-1].ravel(),  # predicting rows: increasing
            np.tile(np.arange(96), 4),  # positions: tiled
            np.arange(96),  # one sequence's positions
            np.array([3, 1, 2]),  # unique but unsorted
            np.array([0, 1, 0, 1, 0]),  # periodic, not whole copies
        ],
        ids=["repeated", "increasing", "tiled", "arange", "unsorted", "partial-tile"],
    )
    def test_gather_backward_equals_add_at(self, idx):
        rng = np.random.default_rng(idx.size)
        m = rng.normal(size=(self.V, self.D))
        upstream = rng.normal(size=(idx.size, self.D))
        upstream[::7] = -0.0  # np.add.at onto zeros turns every -0.0 into +0.0
        self._assert_same(
            lambda p: ad.gather_rows(p[0], idx),
            lambda p: _legacy_gather_rows(p[0], idx),
            [m], upstream,
        )

    @pytest.mark.parametrize("b", [1, 4])
    def test_model_step_equals_legacy_composition(self, b, monkeypatch):
        from marginlab.toylm import ToyLm, ToyLmConfig

        model = ToyLm(ToyLmConfig(), seed=3)
        tokens = np.random.default_rng(b).integers(0, 512, size=(b, self.T))
        targets = tokens[:, 1:].ravel()

        def step(loss):
            model.zero_grad()
            with ad.Tape() as tape:
                logits, _ = model.forward(tokens)
                tape.backward(loss(logits, targets))
            return logits.values, {n: p.grad for n, p in model.params.items()}, len(tape)

        new_logits, new_grads, new_nodes = step(cross_entropy)
        monkeypatch.setattr(ad, "normalize_rows", lambda x, c: ad.scale(_legacy_l2_normalize_rows(x), c))
        monkeypatch.setattr(ad, "matmul_t", lambda a, e: ad.matmul(a, _legacy_transpose(e)))
        monkeypatch.setattr(ad, "causal_attention", _legacy_attention)
        monkeypatch.setattr(ad, "gather_rows", _legacy_gather_rows)
        old_logits, old_grads, old_nodes = step(_legacy_cross_entropy)
        assert (new_nodes, old_nodes) == (31, 39)  # 30 and 36 forward nodes, then the loss
        assert _same_bits(new_logits, old_logits)
        for name in new_grads:
            assert _same_bits(new_grads[name], np.ascontiguousarray(old_grads[name])), name


class TestTopK:
    """Hard top-k in the fused objective nodes: the selection is frozen at
    forward time, the lower id wins ties, and entries outside it get
    exactly zero gradient."""

    def test_values_and_frozen_indices(self):
        # row 0's top pair is tied at 5.0: ids 1 and 3, margin 0
        x = ad.parameter([[1.0, 5.0, 3.0, 5.0], [7.0, 0.0, 6.0, 1.0]])
        with ad.Tape() as tape:
            out = margin_loss(x, 2.0)
            tape.backward(out)
        assert out.item() == -0.5
        np.testing.assert_array_equal(x.grad, [[0.0, -0.5, 0.0, 0.5], [-0.5, 0.0, 0.5, 0.0]])

    def test_backward_zero_outside_selection(self):
        rng = np.random.default_rng(12)
        rows, w = rng.normal(size=(4, 8)), rng.normal(size=(8, 3))
        for k, loss in ((2, lambda x: margin_loss(x, 10.0)), (3, lambda x: fisher_loss(x, w, 3))):
            x = ad.parameter(rows)
            with ad.Tape() as tape:
                tape.backward(loss(x))
            outside = np.ones(rows.shape, dtype=bool)
            np.put_along_axis(outside, topk_ids(rows, k), False, axis=1)
            assert x.grad[~outside].all()
            assert not x.grad[outside].any() and not np.signbit(x.grad[outside]).any()

    def test_gradient_matches_finite_differences(self):
        x = np.random.default_rng(12).normal(size=(4, 8))
        _finite_diff_ok(lambda p: margin_loss(p[0], 1.0, 2), [x])

    def test_k_out_of_range(self):
        with pytest.raises(UsageError):
            fisher_loss(ad.constant([[1.0, 2.0]]), np.ones((2, 3)), 3)
        with pytest.raises(UsageError):
            margin_loss(ad.constant([[1.0]]), 0.5)  # V = 1 has no runner-up

    def test_nonfinite_is_data_error(self):
        # the -inf runner-up would otherwise be selected as a top-k value
        x = ad.constant([[1.0, -np.inf, -np.inf]])
        with pytest.raises(DataError):
            margin_loss(x, 0.5)
        with pytest.raises(DataError):
            fisher_loss(x, np.ones((3, 2)), 2)


class TestTapeSemantics:
    def test_backward_deterministic_bit_identical(self):
        rng = np.random.default_rng(13)
        a0 = rng.normal(size=(6, 6))
        grads = []
        for _ in range(2):
            with ad.Tape() as tape:
                a = ad.parameter(a0)
                out = mean(ad.matmul_t(ad.causal_attention(a, a, a, 2), a))
                tape.backward(out)
            grads.append(a.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_no_tape_no_recording(self):
        a = ad.parameter(np.ones((2, 2)))
        out = mean(a)
        assert out.requires_grad is False

    def test_grad_accumulates_across_uses(self):
        with ad.Tape() as tape:
            a = ad.parameter(np.ones((1, 3)))
            out = ad.matmul(ad.add(a, a), ad.constant(np.ones((3, 1))))
            tape.backward(out)
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0, 2.0]])

    def test_shared_gradient_is_not_aliased(self):
        # add hands one array to both parents; b's later contribution must
        # not change what a already holds
        with ad.Tape() as tape:
            a, b = ad.parameter(np.ones(2)), ad.parameter(np.ones(2))
            tape.backward(mean(ad.add(ad.add(a, b), b)))
        np.testing.assert_array_equal(a.grad, [0.5, 0.5])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_backward_needs_scalar(self):
        with ad.Tape() as tape:
            a = ad.parameter(np.ones(3))
            out = ad.add(a, a)
            with pytest.raises(UsageError):
                tape.backward(out)

    def test_second_walk_is_refused(self):
        with ad.Tape() as tape:
            a = ad.parameter(np.ones((2, 2)))
            out = mean(ad.relu(ad.matmul(a, a)))
        tape.backward(out)
        grad = a.grad
        with pytest.raises(UsageError, match="already walked"):
            tape.backward(out)
        assert a.grad is grad and len(tape) == 3

    def test_walk_releases_what_it_passes(self):
        # A passed node's saved arrays and its output's gradient are
        # released while the tape is still bound; leaf gradients stay.
        with ad.Tape() as tape:
            a = ad.parameter(np.ones((2, 2)))
            h = ad.matmul(a, a)
            saved = weakref.ref(h.values)  # held by relu's backward and h's entry
            r = ad.relu(h)
            del h
            tape.backward(mean(r))
        assert saved() is None and r.grad is None
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 1.0))

    def test_visits_each_node_once(self):
        # diamond graph: y = mean(a) + a . a; gradient 1 + 2a
        with ad.Tape() as tape:
            a = ad.parameter([[3.0]])
            sq = mean(ad.matmul(a, a))
            out = ad.add(mean(a), sq)
            tape.backward(out)
        np.testing.assert_allclose(a.grad, [[7.0]])


class TestGradCheck:
    def test_quadratic_tight(self):
        err = ad.grad_check(lambda p: mean(ad.matmul(p[0], p[0])), [np.array([[3.0]])])
        assert err < 1e-8

    def test_one_by_one_root(self):
        # a [1, 1] product is a valid backward root; item() reads its one value
        a, b = np.random.default_rng(15).normal(size=(2, 3))
        err = ad.grad_check(lambda p: ad.matmul(p[0], p[1]), [a[None], b[:, None]])
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
        with pytest.raises(UsageError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))
