"""Toy model forward semantics, training behavior, and the layer scan."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import autodiff as ad
from marginlab import fileio
from marginlab.errors import DataError, MarginLabError, UsageError
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
    _AdamW,
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


def tape_head(model, hidden):
    """Virtual logits through the tape's output head, as ``forward`` takes them."""
    h = ad.normalize_rows(ad.constant(hidden), math.sqrt(model.config.hidden_dim))
    return ad.matmul_t(h, model.unembedding).values


@st.composite
def lm_cases(draw):
    """A small config and model, at init or after 2 AdamW steps, with one
    [b, T] block of token ids."""
    hidden_dim = draw(st.sampled_from([2, 4, 6, 8, 12]))
    cfg = ToyLmConfig(
        vocab_size=draw(st.integers(2, 40)),
        hidden_dim=hidden_dim,
        layers=draw(st.integers(1, 3)),
        heads=draw(st.sampled_from([h for h in (1, 2, 3, 4) if hidden_dim % h == 0])),
        context=draw(st.integers(2, 12)),
    )
    seed = draw(st.integers(0, 2**16))
    model = ToyLm(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        corpus = rng.integers(0, cfg.vocab_size, size=3 * cfg.context)
        train(model, corpus, TrainConfig(steps=2, learning_rate=1e-2, batch_size=2, seed=seed))
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, cfg.context)))
    return model, rng.integers(0, cfg.vocab_size, size=shape)


def raised(call):
    """The type and message of the package error ``call`` raises."""
    with pytest.raises(MarginLabError) as info:
        call()
    return type(info.value), str(info.value)


class TestEvaluate:
    """The tape-free forward against ``forward``, bit for bit."""

    @given(lm_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_forward_bit_for_bit(self, case):
        model, ids = case
        logits, hiddens = model.forward(ids)
        scratch = {}
        # Earlier blocks of another shape and of the same shape leave
        # nothing behind in the scratch arrays.
        model.evaluate(ids[:1, :2], scratch, hidden=True)
        model.evaluate(ids[:, ::-1], scratch, hidden=True)
        got, got_hiddens = model.evaluate(ids, scratch, hidden=True)
        assert got.dtype == np.float64 and np.array_equal(got, logits.values)
        assert len(got_hiddens) == model.config.layers
        for h, mine in zip(hiddens, got_hiddens):
            assert np.array_equal(mine, h)
            assert np.array_equal(model.project_hidden(mine, scratch), tape_head(model, h))
        assert model.evaluate(ids, scratch)[1] == []

    @given(lm_cases())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_float32_parameters_equal_forward_bit_for_bit(self, case):
        model, ids = case
        model = ToyLm(model.config, values=model.values.astype(np.float32))
        logits, hiddens = model.forward(ids)
        scratch = {}
        got, got_hiddens = model.evaluate(ids, scratch, hidden=True)
        assert got.dtype == np.float32 and np.array_equal(got, logits.values)
        for h, mine in zip(hiddens, got_hiddens):
            assert mine.dtype == np.float32 and np.array_equal(mine, h)
            assert np.array_equal(model.project_hidden(mine, scratch), tape_head(model, h))
        # One sequence is one chunk: the audit runs evaluate on [1, T].
        one = model.forward(ids[0])[0].values
        assert np.array_equal(audit_model(model, ids[0]).margin, top2_stats(one)[2])

    @given(lm_cases(), st.sampled_from(["short", "long", "id too big", "negative id", "3-D",
                                        "no sequences"]), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_bad_tokens_raise_what_forward_raises(self, case, kind, pick):
        model, ids = case
        cfg = model.config
        bad = {
            "short": lambda: ids[:, :1],
            "long": lambda: np.resize(ids, (len(ids), cfg.context + 1)),
            "3-D": lambda: ids[None],
            "no sequences": lambda: ids[:0],
        }.get(kind, lambda: ids.copy())()
        if kind in ("id too big", "negative id"):
            bad.flat[pick % bad.size] = cfg.vocab_size if kind == "id too big" else -1
        assert raised(lambda: model.evaluate(bad, {})) == raised(lambda: model.forward(bad))

    def test_zero_rows_match_forward(self):
        # A zero embedding and position row stays zero through every layer,
        # so each normalization takes its norm floor.
        model = ToyLm(CFG, seed=0)
        model.params["embedding"].values[0] = 0.0
        model.params["pos"].values[0] = 0.0
        ids = np.array([[0, 1, 2], [0, 3, 4]])
        logits, hiddens = model.forward(ids)
        got, got_hiddens = model.evaluate(ids, {}, hidden=True)
        assert not logits.values[0].any() and np.array_equal(got, logits.values)
        assert all(np.array_equal(a, b) for a, b in zip(got_hiddens, hiddens))

    def test_records_no_tape_nodes(self):
        model = ToyLm(CFG, seed=0)
        with ad.Tape() as tape:
            model.evaluate(np.array([[1, 2, 3], [4, 5, 6]]), {}, hidden=True)
        assert len(tape) == 0


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

    def test_tied_gradient_differs_from_untied_zeroed(self, tiny_corpus, monkeypatch):
        # the shared matrix collects gradient from both uses; a control
        # whose head reads a constant copy of the embedding drops the
        # output-projection gradient and must produce a different update
        from marginlab import autodiff as ad
        from marginlab.objectives import cross_entropy

        chunk = tiny_corpus[:16]

        def embedding_grad():
            model = ToyLm(CFG, seed=0)
            with ad.Tape() as tape:
                logits, _ = model.forward(chunk)
                tape.backward(cross_entropy(logits, chunk[1:]))
            return model.params["embedding"].grad.copy()

        tied = embedding_grad()
        monkeypatch.setattr(ToyLm, "unembedding", property(
            lambda self: ad.constant(self.params["embedding"].values.copy())))
        untied = embedding_grad()
        # the input use alone gives some gradient; the tied grad adds the
        # output-projection contribution to it
        assert np.abs(untied).sum() > 0
        assert not np.allclose(tied, untied)

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
                    obj.append(fisher_loss(rows, w, mrp.k).item())
                margins.append(top2_stats(rows)[2])
            median = nearest_rank_quantile(np.sort(np.concatenate(margins)), 0.5)
            assert entry.ce == pytest.approx(np.mean(ce), rel=1e-12, abs=0.0)
            assert entry.mrp == pytest.approx(np.mean(obj), rel=1e-12, abs=0.0)
            assert entry.mrp != 0.0
            assert entry.median_margin == pytest.approx(median, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mrp,batch,nodes", [
        (MrpConfig(), 4, 31),  # 30 forward nodes and the CE node
        (MrpConfig(objective="fisher", lambda_mrp=0.6), 1, 34),  # + fisher, scale and add
    ], ids=["ce", "fisher"])
    def test_tape_nodes_per_step(self, monkeypatch, mrp, batch, nodes):
        # A step whose picks are all full chunks runs one forward pass and
        # records no identity scale for its one length group.  The count
        # holds after the walk too.
        counts = []
        backward = ad.Tape.backward

        def counting_backward(tape, root):
            counts.append(len(tape))
            backward(tape, root)
            counts.append(len(tape))

        monkeypatch.setattr(ad.Tape, "backward", counting_backward)
        corpus = np.random.default_rng(0).integers(0, 512, size=96 * 6)
        cfg = TrainConfig(steps=2, learning_rate=1e-3, batch_size=batch, mrp=mrp)
        train(ToyLm(ToyLmConfig(), seed=0), corpus, cfg)
        assert counts == [nodes] * 4

    def test_divergence_names_step(self, tiny_corpus):
        from marginlab.errors import NumericalError

        model = ToyLm(CFG, seed=0)
        model.params["layer0.wq"].values[0, 0] = np.nan  # corrupted state
        cfg = TrainConfig(steps=5, learning_rate=1e-3, seed=0)
        with pytest.raises(NumericalError, match="step 0"):
            train(model, tiny_corpus, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["learning_rate"])
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

    @pytest.mark.parametrize("field", ["vocab_size", "hidden_dim", "layers", "context"])
    def test_model_config_refuses_parameters_past_numpy(self, field):
        with pytest.raises(UsageError, match="parameters would take"):
            ToyLmConfig(**{field: 2**60})

    def test_unallocatable_model_fails_before_any_draw(self, monkeypatch):
        # 10**9 layers pass the config's check but take about 358 TiB at
        # hidden_dim 64, past a 47-bit address space: the one parameter
        # buffer is refused before the generator draws anything.
        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("a parameter was drawn before the allocation")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(MemoryError):
            ToyLm(ToyLmConfig(layers=10**9))

    def test_make_chunks(self):
        chunks = make_chunks(np.arange(25), context=10)
        assert [len(c) for c in chunks] == [10, 10, 5]
        with pytest.raises(UsageError):
            make_chunks(np.array([1]), context=10)


def old_checkpoint_parts(model):
    """The manifest and payload as written before the parameters shared one
    buffer: read from each parameter tensor, one block per parameter."""
    manifest = [{"name": name, "shape": list(p.values.shape), "dtype": "<f8"}
                for name, p in model.params.items()]
    payload = b"".join(np.ascontiguousarray(p.values, dtype="<f8").tobytes()
                       for p in model.params.values())
    return manifest, payload


def assert_views_in_order(arrays: dict, buffer: np.ndarray, config: ToyLmConfig):
    """Each array is the next stretch of ``buffer``, named and shaped as in ``shapes()``."""
    shapes = config.shapes()
    assert list(arrays) == list(shapes)
    assert buffer.shape == (config.parameter_count,) == (sum(map(math.prod, shapes.values())),)
    at = buffer.ctypes.data
    for name, array in arrays.items():
        assert array.shape == shapes[name] and array.flags.c_contiguous
        assert array.base is buffer and array.ctypes.data == at
        at += array.nbytes
    assert at == buffer.ctypes.data + buffer.nbytes


def param_values(model):
    return {name: p.values for name, p in model.params.items()}


BUFFER_CONFIGS = [
    CFG,
    ToyLmConfig(vocab_size=16, hidden_dim=8, layers=1, heads=1, context=4),
    ToyLmConfig(vocab_size=40, hidden_dim=12, layers=3, heads=3, context=9),
]


def ce_step_memory() -> dict[str, int]:
    """Bytes traced above the pre-step level in one CE step of the default
    config at batch 4: the peak up to the loss, the backward's peak, and
    what is held after it with the tape still bound, against what the
    step must keep (the leaf gradients and the logits the caller holds)."""
    model = ToyLm(ToyLmConfig(), seed=0)
    ids = np.random.default_rng(0).integers(0, 512, size=(4, 96))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            logits = model.forward(ids)[0]
            loss = combined_loss(logits, ids[:, 1:].ravel(), MrpConfig(), segments=4)[0]
            loss_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            tape.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    kept = logits.values.nbytes + sum(p.grad.nbytes for p in model.params.values())
    return {"loss_peak": loss_peak, "backward_peak": backward_peak, "held": held, "kept": kept}


class TestStepMemory:
    """The backward releases each tape node as it passes it (tracemalloc)."""

    def test_little_is_held_after_backward(self):
        # 2.66 MB held against 2.65 MB kept; 22.8 MB held when every node's
        # saved arrays and every intermediate gradient outlived the walk.
        m = ce_step_memory()
        assert m["held"] < m["kept"] + 1_000_000, m

    def test_backward_peaks_below_the_loss(self):
        # 13.7 MB against 14.8 MB; 23.4 MB when nothing was released.  The
        # cross-entropy node's backward reuses its saved shifted logits.
        m = ce_step_memory()
        assert m["backward_peak"] <= m["loss_peak"], m


class TestParameterBuffer:
    """Every parameter of a ToyLm is a view of its one buffer ``values``."""

    @pytest.mark.parametrize("cfg", BUFFER_CONFIGS, ids=["cfg", "one-layer", "three-layer"])
    def test_fresh_cloned_trained_and_loaded(self, tmp_path, tiny_corpus, cfg):
        model = ToyLm(cfg, seed=3)
        assert_views_in_order(param_values(model), model.values, cfg)
        copy = model.clone()
        assert_views_in_order(param_values(copy), copy.values, cfg)
        assert not np.shares_memory(copy.values, model.values)
        assert copy.values.tobytes() == model.values.tobytes()
        train(copy, tiny_corpus % cfg.vocab_size, TrainConfig(steps=3, seed=1, mrp=MrpConfig()))
        assert_views_in_order(param_values(copy), copy.values, cfg)
        assert copy.values.tobytes() != model.values.tobytes()
        for m in (model, copy):
            path = str(tmp_path / "m.ckpt")
            fileio.save_checkpoint(path, m)
            raw = open(path, "rb").read()
            nl = raw.find(b"\n")
            manifest, payload = old_checkpoint_parts(m)
            assert json.loads(raw[:nl])["params"] == manifest and raw[nl + 1:] == payload
            back, _ = fileio.load_checkpoint(path)
            assert_views_in_order(param_values(back), back.values, cfg)
            assert back.values.tobytes() == m.values.tobytes()

    def test_adamw_moments_share_the_layout(self):
        model = ToyLm(CFG, seed=0)
        opt = _AdamW(model)
        for p in model.params.values():
            p.grad = np.zeros_like(p.values)
        opt.step(1e-3)
        assert_views_in_order(param_values(model), model.values, CFG)
        for moments in (opt.m, opt.v):
            buffer = moments["embedding"].base
            assert_views_in_order(moments, buffer, CFG)
            assert not buffer.any() and not np.shares_memory(buffer, model.values)

    def test_built_around_a_buffer_draws_nothing_and_keeps_its_dtype(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: None)
        values = np.arange(CFG.parameter_count, dtype=np.float32)
        model = ToyLm(CFG, seed=0, values=values)
        assert model.values is values and model.clone().values.dtype == np.float32
        with pytest.raises(UsageError, match="values must be"):
            ToyLm(CFG, values=values[1:])


class TestDoseResponse:
    def test_lambda_zero_equals_plain_ce_run(self, tiny_corpus):
        base = ToyLm(CFG, seed=0)
        cfg = TrainConfig(steps=15, learning_rate=1e-3, seed=0,
                          mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        train(base, tiny_corpus, cfg)

        run_cfg = TrainConfig(steps=10, learning_rate=1e-3, seed=0,
                              mrp=MrpConfig(objective="margin", lambda_mrp=0.0))
        rows, baseline = dose_response(base, tiny_corpus, [0.0], run_cfg)

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
            dose_response(base, tiny_corpus, [], cfg)
        with pytest.raises(UsageError):
            dose_response(base, tiny_corpus, [0.3, 0.1], cfg)

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
                loss, parts = combined_loss(logits, chunks[i][1:], mrp, ref.unembedding)
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

    @pytest.mark.parametrize("cfg, full_chunks, remainder, ce_steps", [
        (CFG, 10, 7, 0),  # blocks of 4, 4 and 2 chunks, then 7 tokens
        (ToyLmConfig(), 6, 40, 4),  # the refine bench's shape: blocks of 4 and 2, then 40
    ], ids=["tiny", "bench-shape"])
    def test_audit_and_scan_equal_per_chunk_forwards(self, tiny_corpus, cfg, full_chunks,
                                                     remainder, ce_steps):
        corpus = tiny_corpus[:cfg.context * full_chunks + remainder]
        model = ToyLm(cfg, seed=5)
        if ce_steps:
            train(model, corpus, TrainConfig(steps=ce_steps, learning_rate=1e-3, batch_size=4))
        chunks = make_chunks(corpus, cfg.context)
        assert {c.size for c in chunks} == {cfg.context, remainder}
        per_chunk = [model.forward(c) for c in chunks]
        expected = Audit.concat(
            compute_margins(logits.values, c[1:]) for (logits, _), c in zip(per_chunk, chunks)
        )
        expected = replace(expected, position=np.arange(len(expected)))

        ce = np.array([
            cross_entropy(row[None], [t]).item()
            for (logits, _), c in zip(per_chunk, chunks) for row, t in zip(logits.values, c[1:])
        ])
        rows = [
            LayerScanRow(li, virtual_penalty_ce_rho(
                np.concatenate([top2_stats(tape_head(model, h[li]))[2] for _, h in per_chunk]),
                ce, 0.5,
            ))
            for li in range(cfg.layers)
        ]
        # Twice each: no scratch state leaks from one block or call to the next.
        for _ in range(2):
            assert audit_model(model, corpus) == expected
            assert layer_scan(model, corpus, tau=0.5) == rows
