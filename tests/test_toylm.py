"""Toy model forward semantics, training behavior, and the layer scan."""

from dataclasses import replace

import numpy as np
import pytest

from marginlab import autodiff as ad
from marginlab.errors import DataError, UsageError
from marginlab.margins import Audit, compute_margins, nearest_rank_quantile, top2_stats
from marginlab.objectives import (
    MrpConfig,
    combined_loss,
    cross_entropy,
    fisher_loss,
    margin_loss,
)
from marginlab.toylm import ToyLm, ToyLmConfig
from marginlab.training import (
    LayerScanRow,
    TrainConfig,
    audit_model,
    dose_response,
    layer_scan,
    make_chunks,
    train,
    virtual_penalty_ce_rho,
)

CFG = ToyLmConfig(vocab_size=64, hidden_dim=32, layers=2, heads=2, context=16)


@pytest.fixture(scope="module")
def tiny_corpus():
    rng = np.random.default_rng(0)
    # a 3-state cyclic pattern with noise: learnable structure
    ids = []
    state = 1
    for _ in range(2000):
        ids.append(state)
        if rng.random() < 0.85:
            state = (state * 7 + 3) % 60 + 1
        else:
            state = int(rng.integers(1, 61))
    return np.array(ids, dtype=np.int64)


class TestForward:
    def test_deterministic_logits(self):
        tokens = np.array([1, 2, 3, 4])
        a, _ = ToyLm(CFG, seed=0).forward(tokens)
        b, _ = ToyLm(CFG, seed=0).forward(tokens)
        assert np.array_equal(a.values, b.values)

    def test_shapes_and_hidden_count(self):
        # the final position predicts nothing and gets no row
        logits, hiddens = ToyLm(CFG, seed=0).forward(np.array([1, 2, 3]))
        assert logits.values.shape == (2, 64)
        assert len(hiddens) == 2
        assert hiddens[0].shape == (2, 32)
        logits, hiddens = ToyLm(CFG, seed=0).forward(np.array([[1, 2, 3], [4, 5, 6]]))
        assert logits.values.shape == (4, 64)
        assert hiddens[1].shape == (4, 32)

    def test_three_tokens_two_loss_positions(self):
        tokens = np.array([5, 6, 7])
        logits, _ = ToyLm(CFG, seed=0).forward(tokens)
        rows = logits.values
        targets = tokens[1:]
        assert rows.shape[0] == 2
        assert targets.shape[0] == 2

    def test_tied_weights_shared(self):
        model = ToyLm(CFG, seed=0)
        tokens = np.array([1, 2, 3])
        before, _ = model.forward(tokens)
        model.params["embedding"].values[1] += 0.5
        after, _ = model.forward(tokens)
        # perturbing the shared matrix changes the logit column for that
        # token everywhere (output use) and the rows that embed it (input use)
        assert not np.allclose(before.values[:, 1], after.values[:, 1])
        assert not np.allclose(before.values[0], after.values[0])

    def test_untied_has_separate_matrix(self):
        cfg = ToyLmConfig(vocab_size=64, hidden_dim=32, layers=1, heads=2, context=16,
                          tied_embeddings=False)
        model = ToyLm(cfg, seed=0)
        assert "unembedding" in model.params
        assert model.unembedding is model.params["unembedding"]

    def test_out_of_vocab_is_data_error(self):
        with pytest.raises(DataError):
            ToyLm(CFG, seed=0).forward(np.array([1, 64]))

    def test_context_overflow_is_usage_error(self):
        with pytest.raises(UsageError):
            ToyLm(CFG, seed=0).forward(np.arange(17) % 60)

    def test_one_attention_node_per_layer(self):
        # 12 nodes per layer plus 6, whatever the number of sequences
        model = ToyLm(ToyLmConfig(), seed=0)
        for b in (1, 4):
            tokens = np.random.default_rng(0).integers(0, 512, size=(b, 96))
            with ad.Tape() as tape:
                model.forward(tokens)
            ops = [backward.__qualname__.split(".")[0] for _, backward in tape._nodes]
            assert ops.count("causal_attention") == model.config.layers
            assert len(tape) == 30

    def test_causal_masking(self):
        # changing a future token must not change earlier logit rows
        model = ToyLm(CFG, seed=0)
        a, _ = model.forward(np.array([1, 2, 3, 4]))
        b, _ = model.forward(np.array([1, 2, 9, 4]))
        c, _ = model.forward(np.array([1, 2, 3, 9]))
        np.testing.assert_allclose(a.values[:2], b.values[:2], atol=1e-12)
        assert not np.allclose(a.values[2], b.values[2])
        # the final token is only ever a target
        assert np.array_equal(a.values, c.values)


class TestTrain:
    def test_ce_decreases(self, tiny_corpus):
        model = ToyLm(CFG, seed=0)
        cfg = TrainConfig(steps=50, learning_rate=1e-3, seed=0,
                          mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        log = train(model, tiny_corpus, cfg)
        assert log[-1].ce < log[0].ce
        assert len(log) == 50

    def test_identical_seeds_bit_identical(self, tiny_corpus):
        cfg = TrainConfig(steps=12, learning_rate=1e-3, seed=3,
                          mrp=MrpConfig(objective="fisher", lambda_mrp=0.2, k=3))
        runs = []
        for _ in range(2):
            model = ToyLm(CFG, seed=1)
            log = train(model, tiny_corpus, cfg)
            runs.append((model, log))
        for name in runs[0][0].params:
            assert np.array_equal(
                runs[0][0].params[name].values, runs[1][0].params[name].values
            ), name
        assert runs[0][1] == runs[1][1]

    def test_margin_objective_raises_median_margin(self, tiny_corpus):
        base = ToyLm(CFG, seed=0)
        pre = TrainConfig(steps=120, learning_rate=1e-3, batch_size=2, seed=0,
                          mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        train(base, tiny_corpus, pre)

        plain = base.clone()
        pushed = base.clone()
        cfg0 = TrainConfig(steps=60, learning_rate=3e-4, batch_size=2, seed=5,
                           mrp=MrpConfig(objective="margin", lambda_mrp=0.0, tau=1.0))
        cfg3 = TrainConfig(steps=60, learning_rate=3e-4, batch_size=2, seed=5,
                           mrp=MrpConfig(objective="margin", lambda_mrp=0.3, tau=1.0))
        train(plain, tiny_corpus, cfg0)
        train(pushed, tiny_corpus, cfg3)
        m_plain = np.median([r.margin for r in audit_model(plain, tiny_corpus)])
        m_pushed = np.median([r.margin for r in audit_model(pushed, tiny_corpus)])
        assert m_pushed >= m_plain

    def test_tied_gradient_differs_from_untied_zeroed(self, tiny_corpus):
        # with tied embeddings the shared matrix collects gradient from
        # both uses; an untied control whose unembedding gradient is
        # dropped must produce a different embedding update
        from marginlab import autodiff as ad
        from marginlab.objectives import cross_entropy

        tied = ToyLm(CFG, seed=0)
        untied_cfg = ToyLmConfig(vocab_size=64, hidden_dim=32, layers=2, heads=2,
                                 context=16, tied_embeddings=False)
        untied = ToyLm(untied_cfg, seed=0)
        untied.params["unembedding"].values = tied.params["embedding"].values.copy()

        chunk = tiny_corpus[:16]
        grads = {}
        for name, model in (("tied", tied), ("untied", untied)):
            model.zero_grad()
            with ad.Tape() as tape:
                logits, _ = model.forward(chunk)
                loss = cross_entropy(logits, chunk[1:])
                tape.backward(loss)
            grads[name] = model.params["embedding"].grad.copy()
        # same forward function, same loss, but the tied model's embedding
        # grad includes the output-projection contribution
        assert not np.allclose(grads["tied"], grads["untied"])

    @pytest.mark.parametrize("objective", ["margin", "fisher"])
    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_log_matches_independent_recompute(self, tiny_corpus, objective, lam):
        """Each logged value equals the loss functions rerun on constants,
        on the model as it stood before that step's update."""
        mrp = MrpConfig(objective=objective, lambda_mrp=lam, tau=1.0, k=4)
        cfg = TrainConfig(steps=2, learning_rate=1e-3, batch_size=2, seed=7, mrp=mrp)
        log = train(ToyLm(CFG, seed=2), tiny_corpus, cfg)
        before = [ToyLm(CFG, seed=2), ToyLm(CFG, seed=2)]
        # A 1-step run has the same first step (same picks, same lr).
        train(before[1], tiny_corpus, replace(cfg, steps=1))
        chunks = make_chunks(tiny_corpus, CFG.context)
        rng = np.random.default_rng(cfg.seed)
        for entry, model in zip(log, before):
            ce, obj, margins = [], [], []
            for ci in rng.integers(0, len(chunks), size=cfg.batch_size):
                chunk = chunks[int(ci)]
                rows = model.forward(chunk)[0].values
                ce.append(cross_entropy(rows, chunk[1:]).item())
                if objective == "margin":
                    obj.append(margin_loss(rows, mrp.tau).item())
                else:
                    w = ad.constant(model.unembedding.values)
                    obj.append(fisher_loss(rows, w, mrp.k, mrp.clamp_floor).item())
                margins.append(top2_stats(rows)[2])
            median = nearest_rank_quantile(np.sort(np.concatenate(margins)), 0.5)
            assert entry.ce == pytest.approx(np.mean(ce), rel=1e-12, abs=0.0)
            assert entry.mrp == pytest.approx(np.mean(obj), rel=1e-12, abs=0.0)
            assert entry.mrp != 0.0
            assert entry.median_margin == pytest.approx(median, rel=1e-12, abs=0.0)

    def test_divergence_names_step(self, tiny_corpus):
        from marginlab.errors import NumericalError

        model = ToyLm(CFG, seed=0)
        model.params["layer0.wq"].values[0, 0] = np.nan  # corrupted state
        cfg = TrainConfig(steps=5, learning_rate=1e-3, seed=0)
        with pytest.raises(NumericalError, match="step 0"):
            train(model, tiny_corpus, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, 2.5, 1e12, False])
    @pytest.mark.parametrize("field", ["steps", "batch_size", "seed"])
    def test_config_counts_must_be_integers(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})
        assert TrainConfig(**{field: np.int64(3)}) == TrainConfig(**{field: 3})

    @pytest.mark.parametrize("value", [np.nan, 2.5, 64.0, True, "64"])
    @pytest.mark.parametrize("field", ["vocab_size", "hidden_dim", "layers", "heads", "context"])
    def test_model_config_counts_must_be_integers(self, field, value):
        # NaN passes every ``x < 2`` check and ``64.0 % 2 == 0``; both would
        # fail only when the parameters are allocated.
        with pytest.raises(UsageError, match=f"{field} must be an integer"):
            ToyLmConfig(**{field: value})
        assert ToyLmConfig(**{field: np.int64(2)}) == ToyLmConfig(**{field: 2})

    def test_make_chunks(self):
        chunks = make_chunks(np.arange(25), context=10)
        assert [len(c) for c in chunks] == [10, 10, 5]
        with pytest.raises(UsageError):
            make_chunks(np.array([1]), context=10)


class TestDoseResponse:
    def test_lambda_zero_equals_plain_ce_run(self, tiny_corpus):
        base = ToyLm(CFG, seed=0)
        cfg = TrainConfig(steps=15, learning_rate=1e-3, seed=0,
                          mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        train(base, tiny_corpus, cfg)

        run_cfg = TrainConfig(steps=10, learning_rate=1e-3, seed=0,
                              mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        rows, baseline = dose_response(base, tiny_corpus, [0.0], "margin", run_cfg)

        control = base.clone()
        train(control, tiny_corpus, run_cfg)
        control_audit = audit_model(control, tiny_corpus)
        m = np.sort([r.margin for r in control_audit])
        assert rows[0].median_margin == m[int(np.ceil(0.5 * m.size)) - 1]
        assert rows[0].churn.total == len(baseline)

    def test_lambda_list_validation(self, tiny_corpus):
        base = ToyLm(CFG, seed=0)
        cfg = TrainConfig(steps=2, seed=0)
        with pytest.raises(UsageError):
            dose_response(base, tiny_corpus, [], "margin", cfg)
        with pytest.raises(UsageError):
            dose_response(base, tiny_corpus, [0.3, 0.1], "margin", cfg)

    def test_gap_fit_plumbing_on_synthetic_margins(self):
        # uniform synthetic margins through the shared fit path
        from marginlab.gapfit import fit_gap_curve

        m = (np.arange(50_000) + 0.5) / 5e4
        fit = fit_gap_curve(m)
        assert fit.r2 > 0.999


class TestLayerScan:
    def test_row_per_layer(self, tiny_corpus):
        model = ToyLm(CFG, seed=0)
        rows = layer_scan(model, tiny_corpus[:200], tau=0.5)
        assert [r.layer_index for r in rows] == [0, 1]

    def test_deterministic(self, tiny_corpus):
        model = ToyLm(CFG, seed=0)
        a = layer_scan(model, tiny_corpus[:300], tau=0.5)
        b = layer_scan(model, tiny_corpus[:300], tau=0.5)
        assert a == b

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_rejected(self, tiny_corpus, tau):
        with pytest.raises(UsageError, match="tau must be finite"):
            layer_scan(ToyLm(CFG, seed=0), tiny_corpus[:200], tau=tau)

    def test_constructed_sign(self):
        # margins an increasing function of -CE: penalty = max(0, tau - m)
        # then correlates positively with CE
        rng = np.random.default_rng(4)
        ce = rng.uniform(0.1, 4.0, size=500)
        margins = 2.0 - 0.4 * ce + rng.normal(scale=1e-3, size=500)
        rho = virtual_penalty_ce_rho(margins, ce, tau=5.0)
        assert rho is not None and rho > 0.9

    def test_constant_penalty_reports_none(self):
        ce = np.array([1.0, 2.0, 3.0, 4.0])
        margins = np.full(4, 10.0)  # all above tau: penalty constant 0
        assert virtual_penalty_ce_rho(margins, ce, tau=0.5) is None

    def test_trained_model_final_layer_positive(self, tiny_corpus):
        model = ToyLm(CFG, seed=0)
        cfg = TrainConfig(steps=150, learning_rate=1e-3, batch_size=2, seed=0,
                          mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        train(model, tiny_corpus, cfg)
        rows = layer_scan(model, tiny_corpus, tau=1.0)
        final = rows[-1].spearman_ce_mrp
        assert final is not None and final > 0


class TestBatching:
    """A [b, T] forward, a training step's length groups and the blocked
    audit against one chunk at a time."""

    def test_batch_rows_equal_single_forwards(self, tiny_corpus):
        model = ToyLm(CFG, seed=3)
        seqs = tiny_corpus[:48].reshape(3, 16)
        logits, hiddens = model.forward(seqs)
        for s, seq in enumerate(seqs):
            one, one_hiddens = model.forward(seq)
            rows = slice(15 * s, 15 * (s + 1))
            assert np.array_equal(logits.values[rows], one.values)
            for h, h1 in zip(hiddens, one_hiddens):
                assert np.array_equal(h[rows], h1)
        # changing one sequence leaves the others' rows as they were
        changed = seqs.copy()
        changed[1, :5] = (changed[1, :5] + 1) % 60
        again, _ = model.forward(changed)
        assert np.array_equal(again.values[:15], logits.values[:15])
        assert np.array_equal(again.values[30:], logits.values[30:])
        assert not np.allclose(again.values[15:30], logits.values[15:30])

    def test_bad_batch_shape(self):
        with pytest.raises(UsageError):
            ToyLm(CFG, seed=0).forward(np.ones((2, 2, 3), dtype=np.int64))

    @pytest.mark.parametrize("objective", ["margin", "fisher"])
    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_step_with_short_chunk_matches_per_chunk_loop(self, tiny_corpus, objective, lam):
        corpus = tiny_corpus[:16 * 12 + 5]  # 12 full chunks and a 5-token remainder
        chunks = make_chunks(corpus, CFG.context)
        batch = 6
        seed = next(
            s for s in range(100)
            if (np.random.default_rng(s).integers(0, len(chunks), size=batch)
                == len(chunks) - 1).any()
        )
        # tau near the median margin, so chunks gate different row counts
        mrp = MrpConfig(objective=objective, lambda_mrp=lam, tau=0.08, k=4)
        model = ToyLm(CFG, seed=4)
        entry = train(model, corpus, TrainConfig(steps=1, batch_size=batch, seed=seed, mrp=mrp))[0]

        ref = ToyLm(CFG, seed=4)
        picks = np.random.default_rng(seed).integers(0, len(chunks), size=batch)
        assert len({chunks[i].size for i in picks}) == 2
        ce, obj, margins = [], [], []
        with ad.Tape() as tape:
            total = None
            for i in picks:
                logits, _ = ref.forward(chunks[i])
                loss, parts = combined_loss(
                    logits, chunks[i][1:], mrp, ref.unembedding, with_parts=True
                )
                total = loss if total is None else ad.add(total, loss)
                ce.append(parts.ce)
                obj.append(parts.objective)
                margins.append(parts.margins)
            tape.backward(ad.scale(total, 1.0 / batch))
        assert entry.ce == pytest.approx(np.mean(ce), rel=1e-12, abs=0.0)
        assert entry.mrp == pytest.approx(np.mean(obj), rel=1e-12, abs=0.0)
        assert entry.median_margin == nearest_rank_quantile(np.sort(np.concatenate(margins)), 0.5)
        for name, p in ref.params.items():
            got = model.params[name].grad
            assert np.abs(got - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), name

    def test_audit_and_scan_equal_per_chunk_forwards(self, tiny_corpus):
        corpus = tiny_corpus[:16 * 9 + 7]  # blocks of 4, 4 and 1 chunks, then 7 tokens
        model = ToyLm(CFG, seed=5)
        chunks = make_chunks(corpus, CFG.context)
        per_chunk = [model.forward(c) for c in chunks]
        expected = Audit.concat(
            compute_margins(logits.values, c[1:]) for (logits, _), c in zip(per_chunk, chunks)
        )
        assert audit_model(model, corpus) == replace(
            expected, position=np.arange(len(expected))
        )

        ce = np.concatenate([
            -ad.log_softmax_gather(logits, c[1:]).values
            for (logits, _), c in zip(per_chunk, chunks)
        ])
        rows = [
            LayerScanRow(li, virtual_penalty_ce_rho(
                np.concatenate([top2_stats(model.project_hidden(h[li]))[2] for _, h in per_chunk]),
                ce, 0.5,
            ))
            for li in range(CFG.layers)
        ]
        assert layer_scan(model, corpus, tau=0.5) == rows
