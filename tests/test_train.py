"""Tests for Adam, clipping, checkpoints, the loop, and ensembling."""

import math
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from gatednli import classify as CL
from gatednli import data as D
from gatednli import synthetic as S
from gatednli import train as TR
from gatednli.data import (
    DataError,
    NLIExample,
    Vocab,
    batchify,
    build_vocab,
    load_word_vectors,
)
from gatednli.model import Model, ModelConfig
from gatednli.tensor import Graph, Tensor


@pytest.fixture
def ckpt(tmp_path):
    """The checkpoint path of a test's training run."""
    return str(tmp_path / "model.ckpt")


def tiny_config(**overrides):
    base = dict(
        word_dim=5,
        char_dim=2,
        filter_widths=(1, 2),
        filter_channels=2,
        hidden_dim=3,
        n_layers=1,
        mlp_hidden=4,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_corpus(n=30, seed=0):
    train, dev = S.make_split(n, 12, seed=seed)
    return train, dev


def tiny_setup(seed=3, dtype=np.float64, **config_overrides):
    """A tiny model, its vocabulary, and the tiny corpus's training and dev
    sets encoded with that vocabulary."""
    config = tiny_config(seed=seed, **config_overrides)
    train_set, dev_set = tiny_corpus()
    vocab = build_vocab(train_set + dev_set)
    rng = np.random.default_rng(config.seed)
    word_table = rng.normal(0, 0.3, size=(vocab.n_words, config.word_dim))
    word_table = word_table.astype(dtype, copy=False)
    model = Model.initialize(config, vocab.n_chars, word_table, rng)
    return model, vocab, D.encode_pairs(train_set, vocab), D.encode_pairs(dev_set, vocab)


class TestAdam:
    def test_zero_grads_change_nothing(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        adam = TR.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        adam.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert adam.t == 1

    def test_missing_grad_counts_as_zero(self):
        p = Tensor(np.array([4.0]), requires_grad=True)
        adam = TR.Adam({"p": p}, lr=0.1)
        adam.step()
        np.testing.assert_array_equal(p.data, [4.0])

    def test_constant_grad_update_approaches_lr_sign(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam = TR.Adam({"p": p}, lr=0.01)
        for _ in range(300):
            p.grad = np.array([2.5])
            adam.step()
        before = p.data.copy()
        p.grad = np.array([2.5])
        adam.step()
        step = before - p.data
        np.testing.assert_allclose(step, [0.01], rtol=1e-6)

    def test_quadratic_converges_to_optimum(self):
        x = Tensor(np.array([-4.0]), requires_grad=True)
        adam = TR.Adam({"x": x}, lr=0.1)
        for _ in range(500):
            x.grad = 2.0 * (x.data - 3.0)
            adam.step()
        assert abs(x.data[0] - 3.0) < 1e-3

    def test_nan_grad_aborts_before_updating(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        adam = TR.Adam({"p": p, "q": q}, lr=0.1)
        p.grad = np.array([0.5])
        q.grad = np.array([np.nan])
        with pytest.raises(TR.NumericError, match="q"):
            adam.step()
        np.testing.assert_array_equal(p.data, [1.0])
        np.testing.assert_array_equal(q.data, [2.0])
        assert adam.t == 0

    def test_bit_identical_to_textbook_formula(self):
        # In each dtype, shapes straddle the slice size and "d" is two full
        # slices plus a tail; "c" sits out step 2 (no grad). Steps 2 and 3
        # clip, the formula then applies to g * scale.
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(12)
            n = TR.ADAM_SLICE_BYTES // np.dtype(dtype).itemsize
            shapes = {"a": (7,), "b": (3, n // 3 + 5), "c": (n + 1,), "d": (2, n + 3)}

            def draw(shape):
                return rng.normal(size=shape).astype(dtype)

            named = {k: Tensor(draw(s), requires_grad=True) for k, s in shapes.items()}
            want = {k: t.data.copy() for k, t in named.items()}
            m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
            v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
            adam = TR.Adam(named, lr=3e-3)
            assert adam._scratch.shape == (2, n)
            for step in range(1, 4):
                grads = {k: draw(s) for k, s in shapes.items()}
                if step == 2:
                    grads["c"] = np.zeros(shapes["c"], dtype)
                for k, t in named.items():
                    t.grad = None if (step == 2 and k == "c") else grads[k].copy()
                norm = TR.clip_global_norm(list(grads.values()))
                max_norm = math.inf if step == 1 else norm / 7.0
                scale = max_norm / norm if step > 1 else 1.0
                assert scale < 1.0 or step == 1
                adam.step(max_norm)
                c1 = 1.0 - TR.ADAM_BETA1**step
                c2 = 1.0 - TR.ADAM_BETA2**step
                for k in shapes:
                    g = grads[k] * scale if step > 1 else grads[k]
                    m[k] = TR.ADAM_BETA1 * m[k] + (1.0 - TR.ADAM_BETA1) * g
                    v[k] = TR.ADAM_BETA2 * v[k] + (1.0 - TR.ADAM_BETA2) * g * g
                    want[k] -= (adam.lr / c1) * m[k] / (np.sqrt(v[k] / c2) + TR.ADAM_EPS)
            for k, t in named.items():
                assert t.data.dtype == dtype
                assert np.array_equal(t.data, want[k]), (dtype, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_later_slice_aborts_before_anything_changes(self, bad):
        # float32, as training runs: the bad value sits in big's second slice.
        n = TR.ADAM_SLICE_BYTES // 4
        rng = np.random.default_rng(4)

        def draw(shape):
            return rng.normal(size=shape).astype(np.float32)

        named = {
            "first": Tensor(draw((3, 4)), requires_grad=True),
            "big": Tensor(draw(2 * n + 9), requires_grad=True),
        }
        for t in named.values():
            t.grad = draw(t.data.shape)
        named["big"].grad[n + 5] = bad
        adam = TR.Adam(named, lr=0.1)
        before = {k: (t.data.copy(), t.grad.copy()) for k, t in named.items()}
        with pytest.raises(TR.NumericError, match="non-finite gradient in big"):
            adam.step(1.0)
        assert adam.t == 0
        for k, t in named.items():
            data, grad = before[k]
            assert np.array_equal(t.data, data), k
            assert t.grad is None and t.spare.base is adam._g, k
            assert np.array_equal(t.spare, grad, equal_nan=True), k
        assert not adam.m.any() and not adam.v.any()

    def test_overflowing_norm_scales_to_zero(self):
        # Every entry is finite, but the squares sum past the float64 range:
        # the norm is inf, the clip factor max_norm / inf is 0, and the step
        # goes ahead on zero gradients, with no error.
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p.grad = np.array([1e200, -1e200, 0.5])
        adam = TR.Adam({"p": p}, lr=0.1)
        assert TR.clip_global_norm([p.grad]) == math.inf
        adam.step(10.0)
        assert adam.t == 1
        np.testing.assert_array_equal(p.spare, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_float32_norm_past_float32_range_clips_as_float64(self):
        # The squares of [1e19] * 4 overflow float32 but not float64: the
        # norm is 2e19, not inf, and the float32 step moves each weight as
        # the float64 step does, to float32 rounding.
        moved = {}
        for dtype in (np.float32, np.float64):
            p = Tensor(np.zeros(4, dtype), requires_grad=True)
            p.grad = np.full(4, 1e19, dtype)
            adam = TR.Adam({"p": p}, lr=4e-4)
            norm = TR.clip_global_norm([p.grad])
            np.testing.assert_allclose(norm, 2e19, rtol=1e-7)
            adam.step(10.0)
            moved[dtype] = p.data
        np.testing.assert_allclose(moved[np.float64], -4e-4, rtol=1e-7)
        np.testing.assert_allclose(moved[np.float32], moved[np.float64], rtol=1e-7)

    def test_step_keeps_callers_errstate(self):
        # g * g overflows in each of the step's three slices. Under the
        # caller's errstate(over="ignore") none may warn, even with warnings
        # turned into errors, and every slice is updated.
        p = Tensor(np.zeros(3 * (TR.ADAM_SLICE_BYTES // 8)), requires_grad=True)
        p.grad = np.full(p.data.shape, 1e200)
        adam = TR.Adam({"p": p}, lr=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                adam.step()
        assert np.isinf(adam.v).all()

    def test_transposed_parameter_trains_as_its_contiguous_copy(self):
        # Adam copies a parameter in whatever its layout; the caller's
        # array keeps its values.
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 3))
        before = base.copy()
        grads = [rng.normal(size=(3, 4)) for _ in range(3)]
        trained = []
        for data in (base.T, np.ascontiguousarray(base.T)):
            p = Tensor(data, requires_grad=True)
            adam = TR.Adam({"p": p}, lr=0.1)
            for g in grads:
                p.grad = g.copy()
                adam.step(1.0)
            trained.append(p.data)
        assert trained[0].tobytes() == trained[1].tobytes()
        assert not np.array_equal(trained[0], before.T)
        assert np.array_equal(base, before)

    def test_mixed_dtypes_rejected(self):
        named = {
            "a": Tensor(np.zeros(2, np.float32), requires_grad=True),
            "b": Tensor(np.zeros(2), requires_grad=True),
        }
        with pytest.raises(ValueError, match="mix dtypes"):
            TR.Adam(named, lr=4e-4)

    def test_parameters_and_gradients_share_flat_buffers(self):
        # Adam lays the weights out in one buffer, in order, and updates
        # them where they are: each is a C-contiguous view of it, and a
        # transposed parameter keeps its shape. A model's weights become
        # disjoint views of it. From the first backward on, each weight
        # written through take_spare gets its gradient in Adam's buffer,
        # and no backward allocates as much as the parameters.
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        q = Tensor(np.ones((3, 2)).T, requires_grad=True)
        adam = TR.Adam({"p": p, "q": q}, lr=0.1)
        assert adam._p.tolist() == [0, 1, 2, 3, 4, 5, 1, 1, 1, 1, 1, 1]
        assert all(t.data.base is adam._p and t.data.flags.c_contiguous for t in (p, q))
        assert q.shape == (2, 3)
        model, vocab, train_pairs, _ = tiny_setup(
            dtype=np.float32, hidden_dim=64, mlp_hidden=256
        )
        named = model.params.trainable()
        adam = TR.Adam(named, lr=1e-3)
        views = [t.data for t in named.values()]
        flat = adam._p
        assert flat.size == sum(v.size for v in views)
        assert all(v.base is flat and v.flags.c_contiguous for v in views)
        for i, a in enumerate(views):
            assert not any(np.shares_memory(a, b) for b in views[i + 1 :])
        assert adam.m.shape == adam.v.shape == adam._g.shape == flat.shape
        spared = [
            k for k in named
            if k.startswith(("encoder.", "classify.w")) or k.endswith(".weight")
        ]
        trainable = sum(t.data.nbytes for t in named.values())
        for batch in batchify(train_pairs, 8, seed=1)[:2]:
            with Graph() as g:
                loss = CL.cross_entropy(model.forward(batch), batch.labels)
                tracemalloc.start()
                try:
                    g.backward(loss)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < trainable, peak / trainable
            for name in spared:
                assert named[name].grad.base is adam._g, name
            adam.step()


class TestClipGlobalNorm:
    """clip_global_norm returns the pre-clip norm and writes nothing;
    Adam.step applies the clip factor to the gradients it updates with,
    in the views it re-arms."""

    def test_small_gradients_untouched(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([3.0])
        norm = TR.clip_global_norm([p.grad])
        assert norm == 3.0
        np.testing.assert_array_equal(p.grad, [3.0])
        TR.Adam({"p": p}, lr=4e-4).step(10.0)
        np.testing.assert_array_equal(p.spare, [3.0])

    def test_large_gradients_scaled_to_max(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([30.0, 0.0])
        b.grad = np.array([0.0, 40.0])
        norm = TR.clip_global_norm([a.grad, b.grad])
        assert norm == 50.0
        np.testing.assert_array_equal(a.grad, [30.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 40.0])
        TR.Adam({"a": a, "b": b}, lr=4e-4).step(10.0)
        np.testing.assert_allclose(a.spare, [6.0, 0.0])
        np.testing.assert_allclose(b.spare, [0.0, 8.0])

    def test_norm_and_scale_on_matrices(self):
        rng = np.random.default_rng(5)
        named = {
            "w": Tensor(np.zeros((40, 70)), requires_grad=True),
            "b": Tensor(np.zeros(70), requires_grad=True),
            "frozen": Tensor(np.zeros((3, 3))),
        }
        named["w"].grad = rng.normal(size=(40, 70))
        named["b"].grad = rng.normal(0, 3, size=70)
        before = {k: t.grad.copy() for k, t in named.items() if t.grad is not None}
        squares = np.concatenate([g.ravel() ** 2 for g in before.values()])
        expected = np.sqrt(math.fsum(squares))
        norm = TR.clip_global_norm([named["w"].grad, named["b"].grad])
        assert abs(norm - expected) <= 1e-12 * expected
        for key, g in before.items():
            np.testing.assert_array_equal(named[key].grad, g)
        TR.Adam(named, lr=4e-4).step(1.0)
        for key, g in before.items():
            np.testing.assert_array_equal(named[key].spare, g * (1.0 / norm))
        assert not named["frozen"].spare.any()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model, vocab, _, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(
            model, vocab, {"epoch": 4, "dev_accuracy": 0.5, "seed": 3}
        )
        path = str(tmp_path / "model.ckpt")
        ckpt.save(path)
        loaded = TR.Checkpoint.load(path)
        assert loaded.config == ckpt.config
        assert loaded.vocab.to_json() == vocab.to_json()
        assert loaded.metadata == ckpt.metadata
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            got = loaded.tensors[name]
            assert got.dtype == arr.dtype
            assert arr.tobytes() == got.tobytes(), name

    def test_rebuilt_model_predicts_identically(self, tmp_path):
        model, vocab, train_pairs, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        path = str(tmp_path / "model.ckpt")
        ckpt.save(path)
        rebuilt = TR.Checkpoint.load(path).build_model()
        np.testing.assert_array_equal(
            TR.predict([model], train_pairs),
            TR.predict([rebuilt], train_pairs),
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            TR.Checkpoint.load(str(path))

    def test_every_truncation_is_data_error(self, tmp_path):
        vocab = build_vocab([NLIExample(["a", "b"], ["b"], 0)])
        rng = np.random.default_rng(0)
        table = rng.normal(size=(vocab.n_words, 5))
        model = Model.initialize(tiny_config(), vocab.n_chars, table, rng)
        path = tmp_path / "model.ckpt"
        TR.Checkpoint.from_model(model, vocab).save(str(path))
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                TR.Checkpoint.load(str(cut))

    def test_load_holds_no_whole_file_copy(self, tmp_path):
        # Each payload goes from the file into its own array, so one load
        # peaks at the tensors it returns, not at the file's bytes on top.
        vocab = build_vocab([NLIExample(["a", "b"], ["b"], 0)])
        config = tiny_config(
            word_dim=32, hidden_dim=48, n_layers=2, mlp_hidden=64, filter_channels=16
        )
        table = np.zeros((vocab.n_words, 32), np.float32)
        rng = np.random.default_rng(0)
        model = Model.initialize(config, vocab.n_chars, table, rng)
        path = str(tmp_path / "model.ckpt")
        TR.Checkpoint.from_model(model, vocab).save(path)
        tracemalloc.start()
        try:
            tensors = TR.Checkpoint.load(path).tensors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        loaded = sum(arr.nbytes for arr in tensors.values())
        assert 0.8e6 < loaded < 1.2e6
        assert peak <= 1.25 * loaded, peak / loaded

    def test_load_model_holds_one_copy_of_the_weights(self, tmp_path):
        # The model is built around the arrays the file was read into, so
        # one load_model peaks at the stored tensors, not at twice them.
        vocab = build_vocab([NLIExample(["a", "b"], ["b"], 0)])
        config = tiny_config(
            word_dim=32, hidden_dim=48, n_layers=2, mlp_hidden=64, filter_channels=16
        )
        table = np.zeros((vocab.n_words, 32), np.float32)
        rng = np.random.default_rng(0)
        model = Model.initialize(config, vocab.n_chars, table, rng)
        ckpt = TR.Checkpoint.from_model(model, vocab)
        stored = sum(arr.nbytes for arr in ckpt.tensors.values())
        path = str(tmp_path / "model.ckpt")
        ckpt.save(path)
        del model, ckpt
        tracemalloc.start()
        try:
            loaded, _ = TR.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.8e6 < stored < 1.2e6
        assert peak <= 1.25 * stored, peak / stored

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loaded_parameters_are_writeable_contiguous_stored_dtype(
        self, tmp_path, dtype
    ):
        model, vocab, _, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        ckpt.tensors = {k: v.astype(dtype) for k, v in ckpt.tensors.items()}
        path = str(tmp_path / "model.ckpt")
        ckpt.save(path)
        loaded, _ = TR.load_model(path)
        for name, t in loaded.params.named_tensors().items():
            assert t.data.dtype == dtype, name
            assert t.data.flags.writeable and t.data.flags.c_contiguous, name
            assert t.data.tobytes() == ckpt.tensors[name].tobytes(), name

    @pytest.mark.parametrize("from_file", [True, False])
    def test_no_placeholder_survives_build(self, tmp_path, from_file):
        # Every parameter is rebound to the stored array itself, whether the
        # checkpoint was read from a file or taken from a live model: the
        # built model holds the checkpoint's one copy of its weights.
        model, vocab, _, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        if from_file:
            path = str(tmp_path / "model.ckpt")
            ckpt.save(path)
            ckpt = TR.Checkpoint.load(path)
        built = ckpt.build_model().params.named_tensors()
        assert set(built) == set(ckpt.tensors)
        for name, t in built.items():
            assert t.data.flags.writeable and t.data.flags.c_contiguous, name
            assert t.data is ckpt.tensors[name], name

    @pytest.mark.parametrize("part", ["header", "tensor"])
    def test_size_claimed_beyond_the_file_is_data_error(self, tmp_path, part):
        # A byte count far past the file's end (for a tensor, with a shape
        # to match) must be refused before anything that size is allocated.
        model, vocab, _, _ = tiny_setup()
        path = tmp_path / "model.ckpt"
        TR.Checkpoint.from_model(model, vocab).save(str(path))
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", blob, 12)
        if part == "header":
            claimed = 2**32 - 1
            struct.pack_into("<I", blob, 12, claimed)
        else:
            pos = 16 + header_len  # the first tensor
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2 + name_len
            ndim = blob[pos]
            assert ndim >= 1 and blob[pos + 1 + 8 * ndim] == 0  # float64
            claimed = 8 * 2**40
            struct.pack_into(f"<{ndim}Q", blob, pos + 1, *[1] * (ndim - 1), 2**40)
            struct.pack_into("<Q", blob, pos + 2 + 8 * ndim, claimed)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"{part} .*needs {claimed} bytes"):
            TR.Checkpoint.load(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.replace(b'"config"', b'"c\xffnfig"'),  # not UTF-8
            lambda h: h.replace(b'"seed"', b'"warp_factor": 9, "seed"'),
            lambda h: h.replace(b'"vocab"', b'"vocabulary"'),
            lambda h: h.replace(b'"n_tensors": ', b'"n_tensors": "'),
        ],
        ids=["bad-utf8", "unknown-config-key", "missing-key", "bad-count"],
    )
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        model, vocab, _, _ = tiny_setup()
        path = tmp_path / "model.ckpt"
        TR.Checkpoint.from_model(model, vocab).save(str(path))
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<I", blob, 12)
        header = edit(blob[16 : 16 + n])
        assert header != blob[16 : 16 + n]
        path.write_bytes(
            blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + n :]
        )
        with pytest.raises(DataError, match="malformed"):
            TR.Checkpoint.load(str(path))

    def test_missing_tensor_rejected(self):
        model, vocab, _, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        del ckpt.tensors["classify.w1"]
        with pytest.raises(DataError, match="classify.w1"):
            ckpt.build_model()


class TestTrainLoop:
    def test_runs_and_records_history(self, tmp_path, ckpt):
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
        result = TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
        assert [row.epoch for row in result.history] == [1, 2]
        assert result.best is not None
        assert result.best["dev_accuracy"] == max(
            row.dev_acc for row in result.history
        )
        hist_path = tmp_path / "history.csv"
        TR.write_history(str(hist_path), result.history)
        lines = hist_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc"
        assert len(lines) == 3

    def test_same_seed_is_bit_identical(self, ckpt):
        runs = []
        for _ in range(2):
            model, vocab, train_pairs, dev_pairs = tiny_setup(seed=11)
            settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
            result = TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
            runs.append(result)
        a, b = runs
        assert [(r.train_loss, r.dev_acc) for r in a.history] == [
            (r.train_loss, r.dev_acc) for r in b.history
        ]
        for name, t in a.model.params.named_tensors().items():
            other = b.model.params.named_tensors()[name]
            assert t.data.tobytes() == other.data.tobytes(), name

    def test_word_table_frozen_through_training(self, ckpt):
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        before = model.params.embed.word_table.data.tobytes()
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
        TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
        assert model.params.embed.word_table.data.tobytes() == before

    def test_divergence_names_the_epoch(self, ckpt):
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        model.params.classifier.w1.data[0, 0] = np.nan
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
        with pytest.raises(TR.NumericError, match="^epoch 1: loss became nan$"):
            TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)

        # One batch per epoch: epoch 1 takes a 1e300 step, after which
        # every dev probability is NaN.
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        settings = TR.TrainSettings(lr=1e300, batch_size=len(train_pairs), epochs=3)
        with pytest.raises(
            TR.NumericError,
            match="^epoch 1: class probabilities of example 1 are not finite$",
        ):
            TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)

    def test_empty_sets_rejected(self, ckpt):
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        settings = TR.TrainSettings(epochs=1)
        with pytest.raises(DataError, match="empty"):
            TR.train(model, vocab, D.encode_pairs([], vocab), dev_pairs, settings, ckpt)
        with pytest.raises(DataError, match="empty"):
            TR.train(model, vocab, train_pairs, D.encode_pairs([], vocab), settings, ckpt)

    def test_peak_memory_holds_one_copy_of_the_weights(self, ckpt):
        # Weights, Adam's m and v, and the gradients are four copies of the
        # trainable values, all made in the traced window, since Adam lays
        # the weights out when train builds it. Each new best goes from the
        # weights to the file, not through a fifth in-memory copy. Traced
        # ratios on this run: 6.28 with that copy, 4.52 without.
        model, vocab, train_pairs, dev_pairs = tiny_setup(
            dtype=np.float32, hidden_dim=64, mlp_hidden=256
        )
        weights = sum(t.data.nbytes for t in model.params.named_tensors().values())
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=4)
        tracemalloc.start()
        try:
            result = TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best["epoch"] >= 2  # epoch 1 and a later one are new bests
        assert 3e6 < weights < 4e6
        assert peak <= 5.0 * weights, peak / weights

    def test_file_holds_the_best_epochs_weights(self, tmp_path):
        # At seed 9 dev accuracy peaks at epoch 3 of 4 (1/3, 1/3, 1/2, 1/3):
        # the file must hold the weights that a same-seed run stopped at
        # epoch 3 ends with.
        results, finals = {}, {}
        for epochs in (4, 3):
            model, vocab, train_pairs, dev_pairs = tiny_setup(seed=9)
            settings = TR.TrainSettings(lr=1e-2, batch_size=8, epochs=epochs)
            path = str(tmp_path / f"{epochs}.ckpt")
            results[epochs] = TR.train(model, vocab, train_pairs, dev_pairs, settings, path)
            finals[epochs] = {k: t.data for k, t in model.params.named_tensors().items()}
        saved = TR.Checkpoint.load(str(tmp_path / "4.ckpt"))
        assert results[4].best["epoch"] == 3 and saved.metadata == results[4].best
        assert set(saved.tensors) == set(finals[3])
        for name, arr in saved.tensors.items():
            assert arr.tobytes() == finals[3][name].tobytes(), name
        assert any(a.tobytes() != finals[4][k].tobytes() for k, a in saved.tensors.items())

    @pytest.mark.parametrize("failure", ["divergence", "interrupt"])
    def test_failed_run_leaves_the_path_as_it_was(self, tmp_path, failure):
        # Epoch 1's best is on disk when epoch 2 ends; the run then fails,
        # by a NaN weight (epoch 3's loss) or an interrupt, and must leave
        # the earlier file and no temporary one.
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"an earlier checkpoint")
        listed = []

        def log(msg):
            if msg.startswith("epoch 2:"):
                listed.extend(tmp_path.iterdir())
                if failure == "interrupt":
                    raise KeyboardInterrupt
                model.params.classifier.w1.data[0, 0] = np.nan

        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=3)
        expected = {"divergence": TR.NumericError, "interrupt": KeyboardInterrupt}
        with pytest.raises(expected[failure]):
            TR.train(model, vocab, train_pairs, dev_pairs, settings, str(path), log=log)
        assert len(listed) == 2
        assert path.read_bytes() == b"an earlier checkpoint"
        assert list(tmp_path.iterdir()) == [path]

    def test_early_stop_on_train_accuracy(self, ckpt):
        # a target of zero triggers the stop after the first epoch
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        settings = TR.TrainSettings(
            lr=1e-3, batch_size=8, epochs=50, stop_train_acc=0.0
        )
        result = TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
        assert len(result.history) == 1

    def test_early_stop_returns_weights_at_target(self, tmp_path, ckpt):
        # With this seed, stopping on the accuracy counted during the
        # epoch's updates once returned weights scoring 0.935 after epoch 4.
        seed, target = 1276265019, 0.995
        train_examples, dev_examples = S.make_split(200, 60, seed)
        vectors = str(tmp_path / "vectors.txt")
        S.write_vector_file(vectors, S.DEFAULT_WORLD, 12, seed)
        vocab = build_vocab(train_examples + dev_examples)
        table, _ = load_word_vectors(vectors, vocab, dim=12, seed=seed)
        train_pairs = D.encode_pairs(train_examples, vocab)
        dev_pairs = D.encode_pairs(dev_examples, vocab)
        config = ModelConfig(
            word_dim=12,
            char_dim=6,
            filter_widths=(1, 3),
            filter_channels=8,
            hidden_dim=8,
            n_layers=1,
            mlp_hidden=16,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        model = Model.initialize(config, vocab.n_chars, table, rng)
        settings = TR.TrainSettings(
            lr=1e-2, batch_size=16, epochs=30, stop_train_acc=target
        )
        log = []
        result = TR.train(
            model, vocab, train_pairs, dev_pairs, settings, ckpt, log=log.append
        )
        assert len(result.history) < settings.epochs
        fit = TR.evaluate_model([result.model], train_pairs).accuracy
        assert fit >= target
        assert log[-1] == (
            f"early stop: end-of-epoch train accuracy {fit:.3f} reached target"
        )


def backward_step(model, batch):
    with Graph() as g:
        g.backward(CL.cross_entropy(model.forward(batch), batch.labels))


class TestOneCallPerStep:
    """Adam.step is the whole update: after it, with no other call, the
    next backward and step see that batch's gradient alone."""

    def test_each_step_sees_only_its_own_batch(self):
        # Three backward-then-step cycles against the same cycles with
        # every gradient and spare dropped before each backward, so that
        # each backward allocates afresh. The clip fires at every step.
        runs = []
        for drop in (False, True):
            model, vocab, train_pairs, _ = tiny_setup(dtype=np.float32, n_layers=2)
            adam = TR.Adam(model.params.trainable(), lr=1e-2)
            for batch in batchify(train_pairs, 8, seed=1)[:3]:
                if drop:
                    for t in adam.named.values():
                        t.grad = t.spare = None
                backward_step(model, batch)
                grads = [t.grad for t in adam.named.values() if t.grad is not None]
                assert TR.clip_global_norm(grads) > 0.05
                adam.step(0.05)
            runs.append(model.params.named_tensors())
        stepped, fresh = runs
        for name, t in stepped.items():
            assert t.data.tobytes() == fresh[name].data.tobytes(), name

    def test_failed_step_rearms_and_changes_nothing(self):
        # A NaN in one gradient aborts the step with the weights, m, v and
        # t as they were and every gradient view re-armed; the next clean
        # backward and step then match a fresh optimizer's first step on
        # the same weights.
        model, vocab, train_pairs, _ = tiny_setup(dtype=np.float32)
        named = model.params.trainable()
        adam = TR.Adam(named, lr=1e-2)
        first, second = batchify(train_pairs, 8, seed=1)[:2]
        backward_step(model, first)
        named["classify.w1"].grad[0, 0] = np.nan
        before = {k: t.data.copy() for k, t in named.items()}
        with pytest.raises(TR.NumericError, match="non-finite gradient in classify.w1"):
            adam.step(1.0)
        assert adam.t == 0 and not adam.m.any() and not adam.v.any()
        for k, t in named.items():
            assert np.array_equal(t.data, before[k]), k
            assert t.grad is None and t.spare.base is adam._g, k
        backward_step(model, second)
        adam.step(1.0)
        ref, _, _, _ = tiny_setup(dtype=np.float32)
        ref_adam = TR.Adam(ref.params.trainable(), lr=1e-2)
        backward_step(ref, second)
        ref_adam.step(1.0)
        assert adam.t == ref_adam.t == 1
        for k, t in ref_adam.named.items():
            assert named[k].data.tobytes() == t.data.tobytes(), k


class TestGradientReuse:
    """Adam.step re-arms each gradient view as the parameter's spare, and
    the next backward writes the parameter's first contribution into it."""

    def test_gradients_are_last_steps_arrays_with_fresh_values(self):
        # Two same-seed models: one reuses its arrays, the other drops its
        # gradient and spare after every step. Gradients and weights agree
        # bit for bit.
        runs = []
        for reuse in (True, False):
            model, vocab, train_pairs, _ = tiny_setup(dtype=np.float32, n_layers=2)
            adam = TR.Adam(model.params.trainable(), lr=1e-2)
            steps = []
            for batch in batchify(train_pairs, 8, seed=1)[:3]:
                backward_step(model, batch)
                steps.append({k: (t.grad, t.grad.tobytes()) for k, t in adam.named.items()})
                adam.step()
                if not reuse:
                    for t in adam.named.values():
                        t.grad = t.spare = None
            runs.append((steps, model))
        (steps, model), (fresh_steps, fresh_model) = runs
        # every LSTM weight and bias, and each matmul's right-hand weight
        reused = [
            k for k in steps[0]
            if k.startswith(("encoder.", "classify.w")) or k.endswith(".weight")
        ]
        assert len(reused) == 2 * 2 * 3 + 3 + 2
        for before, after in zip(steps, steps[1:]):
            for name in reused:
                assert after[name][0] is before[name][0], name
        for step, fresh in zip(steps, fresh_steps):
            for name, (_, values) in step.items():
                assert values == fresh[name][1], name
        for name, t in model.params.named_tensors().items():
            other = fresh_model.params.named_tensors()[name]
            assert t.data.tobytes() == other.data.tobytes(), name

    def test_second_backward_allocates_less_than_the_parameters(self):
        # The parameters outweigh this batch's activations, so a backward
        # that allocated every gradient anew would exceed their bytes.
        model, vocab, train_pairs, _ = tiny_setup(
            dtype=np.float32, hidden_dim=64, mlp_hidden=256
        )
        adam = TR.Adam(model.params.trainable(), lr=1e-3)
        trainable = sum(t.data.nbytes for t in adam.named.values())
        first, second = batchify(train_pairs, 8, seed=1)[:2]
        backward_step(model, first)
        adam.step()
        with Graph() as g:
            loss = CL.cross_entropy(model.forward(second), second.labels)
            tracemalloc.start()
            try:
                g.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert trainable > 3e6
        assert peak < trainable, peak / trainable

    @pytest.mark.parametrize("outcome", ["returned", "diverged"])
    def test_parameters_hold_no_gradient_arrays_after_training(self, ckpt, outcome):
        # diverged: epoch 1's 1e300 step makes every dev probability NaN,
        # after that step re-armed every gradient view.
        model, vocab, train_pairs, dev_pairs = tiny_setup()
        if outcome == "returned":
            settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
            TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
        else:
            settings = TR.TrainSettings(lr=1e300, batch_size=len(train_pairs), epochs=2)
            with pytest.raises(TR.NumericError):
                TR.train(model, vocab, train_pairs, dev_pairs, settings, ckpt)
        for name, t in model.params.named_tensors().items():
            assert t.grad is None and t.spare is None, name


class TestEvaluate:
    def test_accuracy_one_when_labels_match_predictions(self):
        model, vocab, _, _ = tiny_setup()
        examples = tiny_corpus()[0][:10]
        probs = TR.predict([model], D.encode_pairs(examples, vocab))
        relabeled = [
            NLIExample(ex.premise_tokens, ex.hypothesis_tokens, int(p.argmax()))
            for ex, p in zip(examples, probs)
        ]
        result = TR.evaluate_model([model], D.encode_pairs(relabeled, vocab))
        assert result.accuracy == 1.0
        assert np.trace(result.confusion) == 10

    def test_confusion_rows_sum_to_class_counts(self):
        model, vocab, train_pairs, _ = tiny_setup()
        result = TR.evaluate_model([model], train_pairs)
        counts = np.zeros(3, dtype=np.int64)
        for ex in tiny_corpus()[0]:
            counts[ex.label] += 1
        np.testing.assert_array_equal(result.confusion.sum(axis=1), counts)
        assert result.n == len(train_pairs)

    def test_empty_and_unlabeled_rejected(self):
        model, vocab, train_pairs, _ = tiny_setup()
        with pytest.raises(DataError, match="empty"):
            TR.evaluate_model([model], D.encode_pairs([], vocab))
        bad = [NLIExample(["a"], ["b"], None)]
        with pytest.raises(DataError, match="unlabeled"):
            TR.evaluate_model([model], D.encode_pairs(bad, vocab))


class _StubModel:
    """Gives every pair of a batch the same probabilities, as logits."""

    def __init__(self, probs):
        self._logits = np.log(probs)

    def forward(self, batch):
        return Tensor(np.tile(self._logits, (batch.size, 1)))


class TestEnsemble:
    def test_probability_averaging(self):
        _, vocab, _, _ = tiny_setup()
        train_set = tiny_corpus()[0]
        models = [_StubModel([0.6, 0.3, 0.1]), _StubModel([0.2, 0.7, 0.1])]
        # enough pairs for two forward batches
        examples = [train_set[i % len(train_set)] for i in range(TR.INFER_BATCH + 3)]
        probs = TR.predict(models, D.encode_pairs(examples, vocab))
        np.testing.assert_allclose(
            probs, np.tile([0.4, 0.5, 0.1], (len(examples), 1))
        )
        assert (probs.argmax(axis=1) == 1).all()

    def test_identical_members_match_single_model(self):
        model, vocab, _, dev_pairs = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        single = TR.evaluate_model([model], dev_pairs)
        models, _ = TR.build_ensemble(
            [(ckpt.build_model(), ckpt.vocab) for _ in range(3)]
        )
        triple = TR.evaluate_model(models, dev_pairs)
        assert triple.accuracy == single.accuracy
        np.testing.assert_array_equal(triple.confusion, single.confusion)

    def test_order_invariance(self):
        members = []
        for seed in (1, 2, 3):
            model, vocab, _, dev_pairs = tiny_setup(seed=seed)
            members.append((model, vocab))
        models, _ = TR.build_ensemble(members)
        a = TR.evaluate_model(models, dev_pairs)
        b = TR.evaluate_model(models[::-1], dev_pairs)
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_config_mismatch_rejected(self):
        model_a, vocab, _, dev_pairs = tiny_setup()
        model_b, _, _, _ = tiny_setup(hidden_dim=4)
        with pytest.raises(ValueError, match="configs differ"):
            TR.build_ensemble([(model_a, vocab), (model_b, vocab)])

    def test_vocabulary_mismatch_rejected(self):
        model, vocab, _, _ = tiny_setup()
        other = Vocab(dict(vocab.word_to_id, extra=vocab.n_words), vocab.char_to_id)
        with pytest.raises(ValueError, match="vocabularies differ"):
            TR.build_ensemble([(model, vocab), (model, other)])


class TestLoadModel:
    def test_checkpoint_freed_once_model_built(self, tmp_path, monkeypatch):
        model, vocab, _, dev_pairs = tiny_setup()
        path = str(tmp_path / "m.ckpt")
        TR.Checkpoint.from_model(model, vocab).save(path)
        loaded = []
        load = TR.Checkpoint.load

        def tracked(path):
            checkpoint = load(path)
            loaded.append(weakref.ref(checkpoint))
            return checkpoint

        monkeypatch.setattr(TR.Checkpoint, "load", tracked)
        rebuilt, rebuilt_vocab = TR.load_model(path)
        assert loaded and loaded[0]() is None
        assert rebuilt_vocab.to_json() == vocab.to_json()
        np.testing.assert_array_equal(
            TR.predict([rebuilt], dev_pairs), TR.predict([model], dev_pairs)
        )

