"""Tests for the compute dtype: a model takes its word table's dtype.

A float32 model must stay float32 through every op, gradient and Adam
buffer, start from the float64 model's draws rounded to float32, and
score within the benchmark's float32-scale tolerances of the float64
model on the same weights. Checkpoints keep each tensor's dtype.
"""

import json
import struct

import numpy as np
import pytest

from gatednli import classify as CL
from gatednli import compose as CP
from gatednli import embed as EM
from gatednli import encoder as EN
from gatednli import synthetic as S
from gatednli import tensor as T
from gatednli import train as TR
from gatednli.data import DataError, build_vocab, encode_pairs, gather_batch
from gatednli.model import Model, ModelConfig
from gatednli.tensor import Graph

DTYPES = [np.float32, np.float64]
PROB_TOL = 1e-5  # the benchmark's per-probability tolerance
LOSS_TOL = 1e-5  # the benchmark's epoch-1 loss tolerance


def corpus():
    """The vocabulary, and the training and dev sets encoded with it."""
    train_set, dev_set = S.make_split(30, 12, seed=0)
    vocab = build_vocab(train_set + dev_set)
    return vocab, encode_pairs(train_set, vocab), encode_pairs(dev_set, vocab)


def model_in(dtype, vocab, gate_kind="input", seed=3):
    """The same float64 draws for every dtype; only the table's dtype
    differs."""
    config = ModelConfig(
        word_dim=5, char_dim=2, filter_widths=(1, 2), filter_channels=2,
        hidden_dim=3, n_layers=2, mlp_hidden=4, gate_kind=gate_kind, seed=seed,
    )
    table = np.random.default_rng(seed).normal(0, 0.3, size=(vocab.n_words, 5))
    rng = np.random.default_rng(seed + 1)
    return Model.initialize(config, vocab.n_chars, table.astype(dtype), rng)


class AllocationSpy:
    """numpy, except that its array constructors note the float dtypes
    they make; it stands in for a module's ``np``, so that a buffer an op
    fills in place is seen too, not only its outputs."""

    MAKERS = ("zeros", "empty", "ones", "full", "eye") + ("zeros_like", "empty_like", "ones_like")

    def __init__(self):
        self.made = set()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.MAKERS:
            return attr

        def make(*args, **kwargs):
            out = attr(*args, **kwargs)
            if out.dtype.kind == "f":
                self.made.add(out.dtype)
            return out

        return make


@pytest.mark.parametrize("gate_kind", ["input", "forget"])
@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_no_path_upcasts(dtype, gate_kind, monkeypatch):
    vocab, train_pairs, _ = corpus()
    spy = AllocationSpy()
    for module in (T, EM, EN, CP, CL, TR):
        monkeypatch.setattr(module, "np", spy)
    model = model_in(dtype, vocab, gate_kind)
    batch = gather_batch(train_pairs, np.arange(8))
    flowing = []

    def watch(backward):
        def wrapped(*gouts):
            grads = backward(*gouts)
            flowing.extend(g.dtype for g in grads if g is not None)
            return grads

        return wrapped

    with Graph() as g:
        loss = CL.cross_entropy(model.forward(batch), batch.labels)
        g._records = [(outs, ins, watch(bw)) for outs, ins, bw in g._records]
        g.backward(loss)
    made = {o.data.dtype for outs, _, _ in g._records for o in outs}
    assert made == {np.dtype(dtype)}
    assert set(flowing) == {np.dtype(dtype)}
    adam = TR.Adam(model.params.trainable(), lr=4e-4)
    adam.step(1.0)
    named = model.params.named_tensors()
    assert {t.data.dtype for t in named.values()} == {np.dtype(dtype)}
    assert {t.grad.dtype for t in adam.named.values()} == {np.dtype(dtype)}
    buffers = [adam.m, adam.v, adam._scratch]
    assert {a.dtype for a in buffers} == {np.dtype(dtype)}
    assert spy.made == {np.dtype(dtype)}


def test_float32_weights_round_the_float64_draws():
    vocab, _, _ = corpus()
    wide = model_in(np.float64, vocab).params.named_tensors()
    narrow = model_in(np.float32, vocab).params.named_tensors()
    for name, t in wide.items():
        np.testing.assert_array_equal(narrow[name].data, t.data.astype(np.float32))


def test_float32_scores_and_trains_within_tolerance_of_float64(tmp_path):
    vocab, train_pairs, dev_pairs = corpus()
    wide, narrow = model_in(np.float64, vocab), model_in(np.float32, vocab)
    gap = np.abs(TR.predict([wide], dev_pairs) - TR.predict([narrow], dev_pairs))
    assert gap.max() <= PROB_TOL
    # One batch per epoch: the epoch-1 loss scores the initial weights.
    settings = TR.TrainSettings(lr=1e-3, batch_size=len(train_pairs), epochs=2)
    ckpt = str(tmp_path / "model.ckpt")
    losses = [
        [row.train_loss for row in TR.train(m, vocab, train_pairs, dev_pairs, settings, ckpt).history]
        for m in (wide, narrow)
    ]
    assert abs(losses[0][0] - losses[1][0]) <= LOSS_TOL
    assert losses[1][1] < losses[1][0]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_checkpoint_round_trip_keeps_dtype_bit_exact(tmp_path, dtype):
    vocab, _, dev_pairs = corpus()
    model = model_in(dtype, vocab)
    path = str(tmp_path / "model.ckpt")
    TR.Checkpoint.from_model(model, vocab).save(path)
    loaded = TR.Checkpoint.load(path)
    for name, t in model.params.named_tensors().items():
        assert loaded.tensors[name].dtype == np.dtype(dtype), name
        assert loaded.tensors[name].tobytes() == t.data.tobytes(), name
    rebuilt = loaded.build_model()
    assert {t.data.dtype for t in rebuilt.params.named_tensors().values()} == {
        np.dtype(dtype)
    }
    np.testing.assert_array_equal(
        TR.predict([rebuilt], dev_pairs), TR.predict([model], dev_pairs)
    )


def write_float64_checkpoint(path, checkpoint):
    """The checkpoint layout as written before float32 training: every
    tensor float64, dtype code 0."""
    header = json.dumps({
        "config": checkpoint.config.to_dict(), "vocab": checkpoint.vocab.to_json(),
        "metadata": checkpoint.metadata, "n_tensors": len(checkpoint.tensors),
    }).encode("utf-8")
    parts = [b"GNLICKP1", struct.pack("<II", 1, len(header)), header]
    for name in sorted(checkpoint.tensors):
        arr = np.ascontiguousarray(checkpoint.tensors[name], dtype="<f8")
        payload = arr.tobytes()
        parts += [
            struct.pack("<H", len(name)), name.encode("utf-8"),
            struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape),
            struct.pack("<BQ", 0, len(payload)), payload,
        ]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def test_float64_checkpoint_of_the_earlier_format_loads(tmp_path):
    vocab, _, dev_pairs = corpus()
    model = model_in(np.float64, vocab)
    path = str(tmp_path / "old.ckpt")
    write_float64_checkpoint(path, TR.Checkpoint.from_model(model, vocab, {"epoch": 1}))
    rebuilt, _ = TR.load_model(path)
    for name, t in rebuilt.params.named_tensors().items():
        assert t.data.dtype == np.float64, name
    np.testing.assert_array_equal(
        TR.predict([rebuilt], dev_pairs), TR.predict([model], dev_pairs)
    )


def test_mixed_dtypes_are_data_error():
    vocab, _, _ = corpus()
    ckpt = TR.Checkpoint.from_model(model_in(np.float32, vocab), vocab)
    ckpt.tensors["classify.b_out"] = ckpt.tensors["classify.b_out"].astype(np.float64)
    with pytest.raises(DataError, match="mix dtypes"):
        ckpt.build_model()
