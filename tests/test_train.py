"""Tests for Adam, clipping, checkpoints, the loop, and ensembling."""

import math
import struct
import sys
import time
import warnings
import weakref

import numpy as np
import pytest

from gatednli import synthetic as S
from gatednli import train as TR
from gatednli.data import (
    DataError,
    NLIExample,
    Vocab,
    build_vocab,
    load_word_vectors,
)
from gatednli.model import Model, ModelConfig
from gatednli.tensor import Tensor


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


def tiny_setup(seed=3, **config_overrides):
    config = tiny_config(seed=seed, **config_overrides)
    train_set, dev_set = tiny_corpus()
    vocab = build_vocab(train_set + dev_set)
    rng = np.random.default_rng(config.seed)
    word_table = rng.normal(0, 0.3, size=(vocab.n_words, config.word_dim))
    model = Model.initialize(config, vocab.n_chars, word_table, rng)
    return model, vocab, train_set, dev_set


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so the two threads of an Adam
    step interleave as finely as they can."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def count_helper_threads(monkeypatch) -> list:
    """Record each thread Adam starts; returns the list of starts."""
    starts = []

    class Counted(TR.threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(TR.threading, "Thread", Counted)
    return starts


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

    def test_bit_identical_to_textbook_formula(self, monkeypatch, fast_switching):
        # Shapes straddle the slice size, and "d" alone is two full slices,
        # so the helper thread runs; "c" sits out step 2 (no grad). Steps
        # 2 and 3 clip, the formula then applies to g * scale.
        starts = count_helper_threads(monkeypatch)
        rng = np.random.default_rng(12)
        chunk = TR.ADAM_CHUNK
        shapes = {
            "a": (7,),
            "b": (3, chunk // 3 + 5),
            "c": (chunk + 1,),
            "d": (2, chunk + 3),
        }
        named = {
            k: Tensor(rng.normal(size=s), requires_grad=True)
            for k, s in shapes.items()
        }
        want = {k: t.data.copy() for k, t in named.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        adam = TR.Adam(named, lr=3e-3)
        for step in range(1, 4):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            if step == 2:
                grads["c"] = np.zeros(shapes["c"])
            for k, t in named.items():
                t.grad = None if (step == 2 and k == "c") else grads[k].copy()
            norm = TR.clip_global_norm(named)
            max_norm = math.inf if step == 1 else norm / 7.0
            scale = max_norm / norm if step > 1 else 1.0
            assert scale < 1.0 or step == 1
            adam.step(max_norm)
            c1 = 1.0 - adam.beta1**step
            c2 = 1.0 - adam.beta2**step
            for k in shapes:
                g = grads[k] * scale if step > 1 else grads[k]
                m[k] = adam.beta1 * m[k] + (1.0 - adam.beta1) * g
                v[k] = adam.beta2 * v[k] + (1.0 - adam.beta2) * g * g
                want[k] -= (adam.lr / c1) * m[k] / (np.sqrt(v[k] / c2) + adam.eps)
        for k, t in named.items():
            assert np.array_equal(t.data, want[k]), k
        assert len(starts) == 3

    def test_helper_thread_only_with_two_full_slices(self, monkeypatch):
        starts = count_helper_threads(monkeypatch)
        chunk = TR.ADAM_CHUNK
        for sizes, threads in [
            ((9239,), 0),  # the toy model's values, all in one slice
            ((chunk - 1,) * 3, 0),  # three slices' worth, none of them full
            ((chunk, 5), 0),
            ((chunk, chunk), 1),
            ((2 * chunk + 1,), 1),
        ]:
            starts.clear()
            named = {
                f"p{i}": Tensor(np.zeros(n), requires_grad=True)
                for i, n in enumerate(sizes)
            }
            TR.Adam(named).step()
            assert len(starts) == threads, sizes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_later_slice_aborts_before_anything_changes(self, bad):
        chunk = TR.ADAM_CHUNK
        rng = np.random.default_rng(4)
        named = {
            "first": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "big": Tensor(rng.normal(size=2 * chunk + 9), requires_grad=True),
        }
        for t in named.values():
            t.grad = rng.normal(size=t.data.shape)
        named["big"].grad[chunk + 5] = bad
        adam = TR.Adam(named, lr=0.1)
        before = {k: (t.data.copy(), t.grad.copy()) for k, t in named.items()}
        with pytest.raises(TR.NumericError, match="non-finite gradient in big"):
            adam.step(1.0)
        assert adam.t == 0
        for k, t in named.items():
            data, grad = before[k]
            assert np.array_equal(t.data, data), k
            assert np.array_equal(t.grad, grad, equal_nan=True), k
            assert not adam.m[k].any() and not adam.v[k].any(), k

    def test_overflowing_norm_scales_to_zero(self):
        # Every entry is finite, but the squares sum past the float64 range:
        # the norm is inf, the clip factor max_norm / inf is 0, and the step
        # goes ahead on zero gradients, with no error.
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p.grad = np.array([1e200, -1e200, 0.5])
        adam = TR.Adam({"p": p}, lr=0.1)
        assert TR.clip_global_norm(adam.named) == math.inf
        adam.step(10.0)
        assert adam.t == 1
        np.testing.assert_array_equal(p.grad, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_helper_thread_keeps_callers_errstate(self, monkeypatch):
        # g * g overflows in both threads' slices. Under the caller's
        # errstate(over="ignore") neither may warn, even with warnings
        # turned into errors, and the helper's slices are updated too.
        starts = count_helper_threads(monkeypatch)
        p = Tensor(np.zeros(2 * TR.ADAM_CHUNK), requires_grad=True)
        p.grad = np.full(p.data.shape, 1e200)
        adam = TR.Adam({"p": p}, lr=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                adam.step()
        assert len(starts) == 1
        assert np.isinf(adam.v["p"]).all()

    def test_helper_joined_before_callers_error_propagates(self, monkeypatch):
        update = TR.Adam._update
        finished = []

        def failing(self, jobs, thread, *coefs):
            if thread == 0:
                raise MemoryError("slice failed")
            time.sleep(0.05)
            update(self, jobs, thread, *coefs)
            finished.append(thread)

        monkeypatch.setattr(TR.Adam, "_update", failing)
        p = Tensor(np.zeros(2 * TR.ADAM_CHUNK), requires_grad=True)
        p.grad = np.ones(p.data.shape)
        with pytest.raises(MemoryError, match="slice failed"):
            TR.Adam({"p": p}).step()
        assert finished == [1]

    def test_non_contiguous_parameter_rejected(self):
        p = Tensor(np.zeros((3, 4)).T, requires_grad=True)
        with pytest.raises(ValueError, match="contiguous"):
            TR.Adam({"p": p})


class TestClipGlobalNorm:
    """clip_global_norm returns the pre-clip norm and writes nothing;
    Adam.step applies the clip factor to the gradients it updates with."""

    def test_small_gradients_untouched(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([3.0])
        norm = TR.clip_global_norm({"p": p})
        assert norm == 3.0
        np.testing.assert_array_equal(p.grad, [3.0])
        TR.Adam({"p": p}).step(10.0)
        np.testing.assert_array_equal(p.grad, [3.0])

    def test_large_gradients_scaled_to_max(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([30.0, 0.0])
        b.grad = np.array([0.0, 40.0])
        norm = TR.clip_global_norm({"a": a, "b": b})
        assert norm == 50.0
        np.testing.assert_array_equal(a.grad, [30.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 40.0])
        TR.Adam({"a": a, "b": b}).step(10.0)
        np.testing.assert_allclose(a.grad, [6.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 8.0])

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
        norm = TR.clip_global_norm(named)
        assert abs(norm - expected) <= 1e-12 * expected
        assert named["frozen"].grad is None
        for key, g in before.items():
            np.testing.assert_array_equal(named[key].grad, g)
        TR.Adam(named).step(1.0)
        for key, g in before.items():
            np.testing.assert_array_equal(named[key].grad, g * (1.0 / norm))


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
            assert got.dtype == np.float64
            assert arr.tobytes() == got.tobytes(), name

    def test_rebuilt_model_predicts_identically(self, tmp_path):
        model, vocab, train_set, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        path = str(tmp_path / "model.ckpt")
        ckpt.save(path)
        rebuilt = TR.Checkpoint.load(path).build_model()
        np.testing.assert_array_equal(
            TR.predict([model], train_set[:5], vocab),
            TR.predict([rebuilt], train_set[:5], vocab),
        )

    def test_built_model_owns_exact_copies(self):
        model, vocab, _, _ = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        built = ckpt.build_model().params.named_tensors()
        assert set(built) == set(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            assert built[name].data.tobytes() == arr.tobytes(), name
            assert not np.shares_memory(built[name].data, arr), name

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
    def test_runs_and_records_history(self, tmp_path):
        model, vocab, train_set, dev_set = tiny_setup()
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
        result = TR.train(model, vocab, train_set, dev_set, settings)
        assert [row.epoch for row in result.history] == [1, 2]
        assert result.best is not None
        assert result.best.metadata["dev_accuracy"] == max(
            row.dev_acc for row in result.history
        )
        hist_path = tmp_path / "history.csv"
        TR.write_history(str(hist_path), result.history)
        lines = hist_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc"
        assert len(lines) == 3

    def test_same_seed_is_bit_identical(self):
        runs = []
        for _ in range(2):
            model, vocab, train_set, dev_set = tiny_setup(seed=11)
            settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
            result = TR.train(model, vocab, train_set, dev_set, settings)
            runs.append(result)
        a, b = runs
        assert [(r.train_loss, r.dev_acc) for r in a.history] == [
            (r.train_loss, r.dev_acc) for r in b.history
        ]
        for name, t in a.model.params.named_tensors().items():
            other = b.model.params.named_tensors()[name]
            assert t.data.tobytes() == other.data.tobytes(), name

    def test_word_table_frozen_through_training(self):
        model, vocab, train_set, dev_set = tiny_setup()
        before = model.params.embed.word_table.data.tobytes()
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
        TR.train(model, vocab, train_set, dev_set, settings)
        assert model.params.embed.word_table.data.tobytes() == before

    def test_divergence_names_the_epoch(self):
        model, vocab, train_set, dev_set = tiny_setup()
        model.params.classifier.w1.data[0, 0] = np.nan
        settings = TR.TrainSettings(lr=1e-3, batch_size=8, epochs=2)
        with pytest.raises(TR.NumericError, match="^epoch 1: loss became nan$"):
            TR.train(model, vocab, train_set, dev_set, settings)

        # One batch per epoch: epoch 1 takes a 1e300 step, after which
        # every dev probability is NaN.
        model, vocab, train_set, dev_set = tiny_setup()
        settings = TR.TrainSettings(lr=1e300, batch_size=len(train_set), epochs=3)
        with pytest.raises(
            TR.NumericError,
            match="^epoch 1: class probabilities of example 1 are not finite$",
        ):
            TR.train(model, vocab, train_set, dev_set, settings)

    def test_empty_sets_rejected(self):
        model, vocab, train_set, dev_set = tiny_setup()
        settings = TR.TrainSettings(epochs=1)
        with pytest.raises(DataError, match="empty"):
            TR.train(model, vocab, [], dev_set, settings)
        with pytest.raises(DataError, match="empty"):
            TR.train(model, vocab, train_set, [], settings)

    def test_early_stop_on_train_accuracy(self):
        # a target of zero triggers the stop after the first epoch
        model, vocab, train_set, dev_set = tiny_setup()
        settings = TR.TrainSettings(
            lr=1e-3, batch_size=8, epochs=50, stop_train_acc=0.0
        )
        result = TR.train(model, vocab, train_set, dev_set, settings)
        assert len(result.history) == 1

    def test_early_stop_returns_weights_at_target(self, tmp_path):
        # With this seed, stopping on the accuracy counted during the
        # epoch's updates once returned weights scoring 0.935 after epoch 4.
        seed, target = 1276265019, 0.995
        train_set, dev_set = S.make_split(200, 60, seed)
        vectors = str(tmp_path / "vectors.txt")
        S.write_vector_file(vectors, S.DEFAULT_WORLD, 12, seed)
        vocab = build_vocab(train_set + dev_set)
        table, _ = load_word_vectors(vectors, vocab, dim=12, seed=seed)
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
            model, vocab, train_set, dev_set, settings, log=log.append
        )
        assert len(result.history) < settings.epochs
        fit = TR.evaluate_model([result.model], train_set, vocab).accuracy
        assert fit >= target
        assert log[-1] == (
            f"early stop: end-of-epoch train accuracy {fit:.3f} reached target"
        )


class TestEvaluate:
    def test_accuracy_one_when_labels_match_predictions(self):
        model, vocab, train_set, _ = tiny_setup()
        probs = TR.predict([model], train_set[:10], vocab)
        relabeled = [
            NLIExample(ex.premise_tokens, ex.hypothesis_tokens, int(p.argmax()))
            for ex, p in zip(train_set[:10], probs)
        ]
        result = TR.evaluate_model([model], relabeled, vocab)
        assert result.accuracy == 1.0
        assert np.trace(result.confusion) == 10

    def test_confusion_rows_sum_to_class_counts(self):
        model, vocab, train_set, _ = tiny_setup()
        result = TR.evaluate_model([model], train_set, vocab)
        counts = np.zeros(3, dtype=np.int64)
        for ex in train_set:
            counts[ex.label] += 1
        np.testing.assert_array_equal(result.confusion.sum(axis=1), counts)
        assert result.n == len(train_set)

    def test_empty_and_unlabeled_rejected(self):
        model, vocab, train_set, _ = tiny_setup()
        with pytest.raises(DataError, match="empty"):
            TR.evaluate_model([model], [], vocab)
        bad = [NLIExample(["a"], ["b"], None)]
        with pytest.raises(DataError, match="unlabeled"):
            TR.evaluate_model([model], bad, vocab)


class _StubModel:
    """Gives every pair of a batch the same probabilities."""

    def __init__(self, probs):
        self._probs = np.asarray(probs)

    def forward(self, batch):
        return Tensor(np.tile(self._probs, (batch.size, 1))), None


class TestEnsemble:
    def test_probability_averaging(self):
        _, vocab, train_set, _ = tiny_setup()
        models = [_StubModel([0.6, 0.3, 0.1]), _StubModel([0.2, 0.7, 0.1])]
        # enough pairs for two forward batches
        examples = [train_set[i % len(train_set)] for i in range(TR.INFER_BATCH + 3)]
        probs = TR.predict(models, examples, vocab)
        np.testing.assert_allclose(
            probs, np.tile([0.4, 0.5, 0.1], (len(examples), 1))
        )
        assert (probs.argmax(axis=1) == 1).all()

    def test_identical_members_match_single_model(self):
        model, vocab, _, dev_set = tiny_setup()
        ckpt = TR.Checkpoint.from_model(model, vocab)
        single = TR.evaluate_model([model], dev_set, vocab)
        models, _ = TR.build_ensemble(
            [(ckpt.build_model(), ckpt.vocab) for _ in range(3)]
        )
        triple = TR.evaluate_model(models, dev_set, vocab)
        assert triple.accuracy == single.accuracy
        np.testing.assert_array_equal(triple.confusion, single.confusion)

    def test_order_invariance(self):
        members = []
        for seed in (1, 2, 3):
            model, vocab, _, dev_set = tiny_setup(seed=seed)
            members.append((model, vocab))
        models, _ = TR.build_ensemble(members)
        a = TR.evaluate_model(models, dev_set, vocab)
        b = TR.evaluate_model(models[::-1], dev_set, vocab)
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_config_mismatch_rejected(self):
        model_a, vocab, _, dev_set = tiny_setup()
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
        model, vocab, _, dev_set = tiny_setup()
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
            TR.predict([rebuilt], dev_set, vocab), TR.predict([model], dev_set, vocab)
        )

