"""Toy model forward semantics, training behavior, and the layer scan."""

from dataclasses import replace

import numpy as np
import pytest

from marginlab import autodiff as ad
from marginlab.errors import DataError, UsageError
from marginlab.margins import nearest_rank_quantile, top2_stats
from marginlab.objectives import MrpConfig, cross_entropy, fisher_loss, margin_loss
from marginlab.toylm import ToyLm, ToyLmConfig
from marginlab.training import (
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
        logits, hiddens = ToyLm(CFG, seed=0).forward(np.array([1, 2, 3]))
        assert logits.values.shape == (3, 64)
        assert len(hiddens) == 2
        assert hiddens[0].shape == (3, 32)

    def test_three_tokens_two_loss_positions(self):
        tokens = np.array([5, 6, 7])
        logits, _ = ToyLm(CFG, seed=0).forward(tokens)
        rows = logits.values[:-1]
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
        model = ToyLm(ToyLmConfig(), seed=0)
        tokens = np.random.default_rng(0).integers(0, 512, size=96)
        with ad.Tape() as tape:
            model.forward(tokens)
        ops = [backward.__qualname__.split(".")[0] for _, backward in tape._nodes]
        assert ops.count("causal_attention") == model.config.layers
        assert len(tape) == 35

    def test_causal_masking(self):
        # changing a future token must not change earlier logit rows
        model = ToyLm(CFG, seed=0)
        a, _ = model.forward(np.array([1, 2, 3, 4]))
        b, _ = model.forward(np.array([1, 2, 3, 9]))
        np.testing.assert_allclose(a.values[:3], b.values[:3], atol=1e-12)
        assert not np.allclose(a.values[3], b.values[3])


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
                rows = ad.gather_rows(logits, np.arange(chunk.size - 1))
                loss = cross_entropy(rows, chunk[1:])
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
                rows = model.forward(chunk)[0].values[:-1]
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
