"""Tests for configuration validation and the assembled forward pass."""

import threading

import numpy as np
import pytest

from gatednli import classify as CL
from gatednli import compose as CP
from gatednli import embed as EM
from gatednli import encoder as EN
from gatednli import tensor as T
from gatednli.data import Batch
from gatednli.model import Model, ModelConfig
from gatednli.tensor import Graph, Tensor, grad_check

N_CHARS = 10
N_WORDS = 12
# ModelConfig's architecture (filter widths 1, 3 and 5, 3 layers) at toy sizes
DEFAULT_AT_TOY_SIZES = dict(
    word_dim=6, char_dim=3, filter_channels=2, hidden_dim=4, mlp_hidden=5
)


def toy_config(**overrides):
    base = dict(
        word_dim=6,
        char_dim=3,
        filter_widths=(1, 3),
        filter_channels=2,
        hidden_dim=4,
        n_layers=2,
        mlp_hidden=5,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_model(config=None, seed=0):
    config = config or toy_config()
    rng = np.random.default_rng(seed)
    word_table = rng.normal(size=(N_WORDS, config.word_dim))
    return Model.initialize(config, N_CHARS, word_table, rng)


def toy_pair(rng, lp=3, lh=2):
    def side(n):
        words = rng.integers(2, N_WORDS, size=n)
        chars = rng.integers(2, N_CHARS, size=(n, 4))
        return words, chars

    return side(lp) + side(lh)


def pack(pairs):
    """A batch of (p_word, p_char, h_word, h_char) pairs, labeled 0: the
    premises' tokens, then the hypotheses', back to back, with char rows
    widened to the widest word by pad-id tails; the batch holds the
    distinct rows and each token's row index."""
    sides = [p[:2] for p in pairs] + [p[2:] for p in pairs]
    width = max(c.shape[1] for _, c in sides)
    chars = [np.pad(c, ((0, 0), (0, width - c.shape[1]))) for _, c in sides]
    words, inverse = np.unique(np.concatenate(chars), axis=0, return_inverse=True)
    return Batch(
        np.concatenate([w for w, _ in sides]),
        words,
        inverse.reshape(-1),
        np.array([len(w) for w, _ in sides]),
        np.zeros(len(pairs), dtype=np.int64),
    )


def toy_batch(rng, lengths=((3, 2),)):
    """Random pairs with the given (premise, hypothesis) lengths."""
    return pack([toy_pair(rng, lp, lh) for lp, lh in lengths])


def probs_of(model, batch):
    return CL.probabilities(model.forward(batch).data)


class TestModelConfig:
    def test_default_full_scale_dims(self):
        cfg = ModelConfig()
        assert cfg.embed_dim == 600
        assert cfg.sentence_dim == 3600
        assert cfg.match_dim == 14400

    def test_ablations_change_dims(self):
        assert toy_config(use_char=False).embed_dim == 6
        assert toy_config(use_word=False).embed_dim == 4
        assert toy_config(use_gated_att=False).sentence_dim == 2 * 2 * 4
        base = toy_config()
        assert toy_config(use_absdiff_product=False).match_dim == (
            base.match_dim // 2
        )

    def test_both_embeddings_off_rejected(self):
        with pytest.raises(ValueError, match="both"):
            toy_config(use_char=False, use_word=False)

    def test_bad_gate_kind_rejected(self):
        with pytest.raises(ValueError, match="gate_kind"):
            toy_config(gate_kind="candy")

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            toy_config(hidden_dim=0)

    def test_numpy_integers_kept_as_ints(self):
        cfg = toy_config(hidden_dim=np.int64(8), filter_widths=[np.int32(1), 3])
        assert type(cfg.hidden_dim) is int and cfg.hidden_dim == 8
        assert cfg.filter_widths == (1, 3)
        assert all(type(w) is int for w in cfg.filter_widths)

    def test_wrong_value_types_rejected(self):
        for bad in ({"hidden_dim": 8.0}, {"hidden_dim": True}, {"seed": 1.5},
                    {"use_char": "no"}, {"gate_kind": 1},
                    {"filter_widths": "13"}, {"filter_widths": [True]}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                toy_config(**bad)

    def test_signature_ignores_seed(self):
        assert toy_config(seed=1).signature() == toy_config(seed=2).signature()
        assert toy_config(hidden_dim=8).signature() != toy_config().signature()

    def test_dict_round_trip(self):
        cfg = toy_config(gate_kind="forget", use_char=False)
        again = ModelConfig(**cfg.to_dict())
        assert again == cfg


def initial_weights(config, seed, dtype):
    """Every trainable tensor ``Model.initialize`` makes, rebuilt from
    ``default_rng(seed)``'s children in the documented order: each drawn
    weight is one full-size float64 draw from its own child, rounded to
    dtype; the biases are zero but for the LSTM forget gates' +1."""
    drawn = [("embed.char_table", 0.1, (N_CHARS, config.char_dim))]
    want = {}
    for width in config.filter_widths:
        fan_in = width * config.char_dim
        name = f"embed.cnn.w{width}"
        drawn.append((f"{name}.weight", 1.0 / np.sqrt(fan_in), (fan_in, config.filter_channels)))
        want[f"{name}.bias"] = np.zeros(config.filter_channels, dtype)
    d, d4 = config.hidden_dim, 4 * config.hidden_dim
    for k in range(1, config.n_layers + 1):
        n_in = config.embed_dim if k == 1 else config.embed_dim + 2 * d
        for tag in ("fwd", "bwd"):
            name = f"encoder.l{k}.{tag}"
            drawn.append((f"{name}.w", EN.LSTM_INIT_SIGMA, (n_in, d4)))
            drawn.append((f"{name}.u", EN.LSTM_INIT_SIGMA, (d, d4)))
            want[f"{name}.b"] = np.zeros(d4, dtype)
            want[f"{name}.b"][d : 2 * d] = EN.FORGET_BIAS
    h = config.mlp_hidden
    dim2 = config.match_dim + h if config.mlp_shortcut else h
    for layer, n_in, n_out in (("1", config.match_dim, h), ("2", dim2, h), ("_out", h, 3)):
        drawn.append((f"classify.w{layer}", 1.0 / np.sqrt(n_in), (n_in, n_out)))
        want[f"classify.b{layer}"] = np.zeros(n_out, dtype)
    children = np.random.default_rng(seed).spawn(len(drawn))
    for (name, scale, shape), child in zip(drawn, children):
        want[name] = child.normal(0.0, scale, shape).astype(dtype)
    return want


class TestInitialize:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_weight_is_its_own_childs_draw(self, dtype):
        # Widths out of order: the draws follow the config, not the names.
        config = toy_config(filter_widths=(3, 1), seed=11)
        table = np.zeros((N_WORDS, config.word_dim), dtype)
        model = Model.initialize(config, N_CHARS, table, np.random.default_rng(11))
        got = model.params.trainable()
        want = initial_weights(config, 11, dtype)
        assert got.keys() == want.keys()
        for name, t in got.items():
            assert t.data.dtype == dtype and t.shape == want[name].shape, name
            assert t.data.tobytes() == want[name].tobytes(), name

    def test_direct_helper_calls_draw_the_same_weights(self):
        # Called one by one, outside Model.initialize, the three helpers
        # take the same children in the same order.
        config = toy_config(filter_widths=(3, 1), seed=11)
        table = np.zeros((N_WORDS, config.word_dim))
        rng = np.random.default_rng(11)
        direct = {
            **EM.init_embed_params(N_CHARS, config.char_dim, config.filter_widths,
                                   config.filter_channels, table, rng).named_tensors(),
            **EN.init_encoder_params(config.embed_dim, config.hidden_dim,
                                     config.n_layers, rng).named_tensors(),
            **CL.init_classifier_params(config.match_dim, config.mlp_hidden,
                                        rng, config.mlp_shortcut).named_tensors(),
        }
        want = initial_weights(config, 11, np.float64)
        for name, t in want.items():
            assert direct[name].data.tobytes() == t.tobytes(), name

    def test_fills_run_on_pool_threads_that_end_before_return(self, monkeypatch):
        ran, fill = [], T._fill

        def recorded(child, scale, values):
            ran.append(threading.current_thread())
            fill(child, scale, values)

        monkeypatch.setattr(T, "_fill", recorded)
        config = toy_config()
        table = np.zeros((N_WORDS, config.word_dim))
        Model.initialize(config, N_CHARS, table, None)
        assert ran == []  # a skeleton draws nothing
        model = Model.initialize(config, N_CHARS, table, np.random.default_rng(0))
        n_drawn = sum(t.data.ndim == 2 for t in model.params.trainable().values())
        assert len(ran) == n_drawn
        assert all(t.name.startswith("normal_param") for t in ran)
        assert not any(t.is_alive() for t in ran)


class TestModelForward:
    def test_probs_shape_and_distribution(self):
        model = toy_model()
        rng = np.random.default_rng(1)
        probs = probs_of(model, toy_batch(rng, [(3, 2), (1, 4), (5, 5)]))
        assert probs.shape == (3, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_forward(self):
        model = toy_model()
        rng = np.random.default_rng(2)
        batch = toy_batch(rng)
        np.testing.assert_array_equal(
            probs_of(model, batch), probs_of(model, batch)
        )

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(3)
        batch = toy_batch(rng)
        a = probs_of(toy_model(seed=5), batch)
        b = probs_of(toy_model(seed=5), batch)
        np.testing.assert_array_equal(a, b)

    def test_pair_probs_do_not_depend_on_batch(self):
        model = toy_model()
        rng = np.random.default_rng(10)
        pair = toy_pair(rng, 3, 2)
        pw, pc, hw, hc = toy_pair(rng, 1, 7)
        wide = (pw, np.pad(pc, ((0, 0), (0, 3))), hw, hc)  # pad-id char tails
        # Companions whose premises and hypotheses share the pair's length
        # buckets (3 and 2), so they run in the same steps of the encoder.
        first = pack([pair, toy_pair(rng, 2, 3), toy_pair(rng, 6, 1)])
        second = pack([wide, toy_pair(rng, 2, 2), pair, toy_pair(rng, 3, 3)])
        assert first.word_ids.shape != second.word_ids.shape
        assert first.words.shape[1] < second.words.shape[1]
        alone = probs_of(model, pack([pair]))[0]
        in_first = probs_of(model, first)[0]
        in_second = probs_of(model, second)[2]
        assert np.max(np.abs(in_first - in_second)) < 1e-10
        assert np.max(np.abs(in_first - alone)) < 1e-10

    @pytest.mark.parametrize("n_pairs", [1, 3, 8])
    def test_one_lstm_record_per_layer(self, n_pairs):
        # both directions of a layer in one record; the top one also
        # outputs the gate, and only when the attention pool reads it
        rng = np.random.default_rng(n_pairs)
        lengths = [tuple(rng.integers(1, 6, size=2)) for _ in range(n_pairs)]
        for use_gated_att in (True, False):
            model = toy_model(toy_config(use_gated_att=use_gated_att))
            with Graph() as g:
                model.forward(toy_batch(rng, lengths))
            lstm = [
                len(outs) for outs, _, backward in g._records
                if backward.__qualname__.startswith("bilstm_layer.")
            ]
            assert lstm == [1] * (model.config.n_layers - 1) + [1 + use_gated_att]

    @pytest.mark.parametrize("n_pairs", [1, 4])
    def test_default_architecture_records_28_entries(self, n_pairs):
        # The embedding records 13 entries (the char table's zero row, per
        # width one window gather, one affine and one segment max, the
        # widths' concat, the token gather and the [char; word] concat),
        # the encoder 5 (one bilstm_layer per layer, the top one with the
        # gate as its second output, and a shortcut concat above layer 1),
        # the pools 4, matching 1, the MLP 4 (three affines and the shortcut
        # concat) and the loss 1, whatever the batch size. The toy
        # architecture (1 layer, widths 1 and 3) records 3 fewer in the
        # embedding and 4 fewer in the encoder.
        lengths = [(3, 2), (5, 4), (1, 1), (2, 6)][:n_pairs]
        for config, entries in (
            (ModelConfig(**DEFAULT_AT_TOY_SIZES), 28),
            (toy_config(n_layers=1), 21),
        ):
            batch = toy_batch(np.random.default_rng(n_pairs), lengths)
            with Graph() as g:
                CL.cross_entropy(toy_model(config).forward(batch), batch.labels)
            assert len(g) == entries

    def test_no_record_lists_an_input_twice(self):
        # A tensor read twice by one op is gathered once and its gradient
        # summed inside the op's backward, not by the tape.
        model = toy_model(ModelConfig(**DEFAULT_AT_TOY_SIZES))
        batch = toy_batch(np.random.default_rng(3), [(3, 2), (5, 4), (1, 1)])
        with Graph() as g:
            CL.cross_entropy(model.forward(batch), batch.labels)
        for _, inputs, backward in g._records:
            ids = [id(t) for t in inputs]
            assert len(set(ids)) == len(ids), backward.__qualname__

    def test_one_embed_encode_compose_call_per_forward(self, monkeypatch):
        model = toy_model()
        calls = []
        entry_points = (
            (EM, "embed_sentence"),
            (EM, "char_compose"),
            (EN, "stacked_encode"),
            (CP, "compose"),
        )
        for module, name in entry_points:

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(6)
        model.forward(toy_batch(rng, [(3, 2), (1, 4), (5, 5), (2, 2)]))
        assert sorted(calls) == [
            "char_compose", "compose", "embed_sentence", "stacked_encode"
        ]

    def test_ablated_models_run(self):
        rng = np.random.default_rng(4)
        batch = toy_batch(rng)
        for overrides in (
            {"use_char": False},
            {"use_word": False},
            {"use_gated_att": False},
            {"use_absdiff_product": False},
            {"mlp_shortcut": False},
            {"gate_kind": "forget"},
            {"gate_kind": "output"},
        ):
            probs = probs_of(toy_model(toy_config(**overrides)), batch)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_trainable_excludes_word_table(self):
        model = toy_model()
        trainable = model.params.trainable()
        assert "embed.word_table" not in trainable
        assert "embed.char_table" in trainable
        assert "encoder.l1.fwd.w" in trainable
        assert "classify.w_out" in trainable

    def test_end_to_end_grad_check(self):
        # classifier-through-embedding finite-difference check at toy dims
        config = toy_config(n_layers=1, hidden_dim=3, mlp_hidden=4)
        model = toy_model(config, seed=7)
        rng = np.random.default_rng(8)
        # the tiny recurrence init leaves gradients near the rel-error
        # floor; widen the weights so the check is well conditioned
        for fwd, bwd in model.params.encoder.layers:
            for p in (fwd, bwd):
                p.w.data[:] = rng.normal(0, 0.3, size=p.w.shape)
                p.u.data[:] = rng.normal(0, 0.3, size=p.u.shape)
        batch = toy_batch(rng, [(3, 2), (1, 3)])
        labels = np.array([2, 0])

        def f(_t):
            return CL.cross_entropy(model.forward(batch), labels)

        checks = {
            "embed.char_table": model.params.embed.char_table,
            "embed.cnn.w1.weight": model.params.embed.filters[1][0],
            "encoder.l1.fwd.w": model.params.encoder.layers[0][0].w,
            "encoder.l1.bwd.u": model.params.encoder.layers[0][1].u,
            "classify.w1": model.params.classifier.w1,
            "classify.b_out": model.params.classifier.b_out,
        }
        for name, tensor in checks.items():
            assert grad_check(f, tensor) < 1e-4, name

    def test_backward_populates_all_active_parameters(self):
        model = toy_model()
        rng = np.random.default_rng(9)
        batch = toy_batch(rng)
        with Graph() as g:
            g.backward(CL.cross_entropy(model.forward(batch), batch.labels))
        for name, t in model.params.trainable().items():
            assert t.grad is not None, name
        assert model.params.embed.word_table.grad is None
