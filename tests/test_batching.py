"""What batch composition may change in a pair's scores.

A pair's logits depend only on its own tokens, but BLAS rounds a product
differently at different row counts, so scoring a pair alone, inside a
batch, at another position of a batch, in another piece of a file, or in an
ensemble of identical copies gives the same scores only within a few units
in the last place. This module states that bound per dtype: ``BOUND[dtype]``
is 8 ulps at 1.0, applied to logits (whose scale here is 0.01-0.1) and to
probabilities. Predicted labels must agree wherever the top two
probabilities are further apart than the bound.

Measured on these cases when the bounds were set (9.5e-7 in float32,
1.8e-15 in float64): logits moved by up to 7.0e-9 (toy, float32), 9.3e-18
(toy, float64) and 6.1e-8 (paper dims, float32); probabilities by up to
3.0e-8 (paper dims, float32) and 1.1e-16 (a float64 ensemble).
"""

import numpy as np
import pytest

from gatednli import classify as CL
from gatednli import synthetic as S
from gatednli import train as TR
from gatednli.data import build_vocab, encode_pairs, gather_batch
from gatednli.model import Model, ModelConfig

BOUND = {np.dtype(np.float32): 2.0**-20, np.dtype(np.float64): 2.0**-49}

TOY = dict(
    word_dim=12, char_dim=6, filter_widths=(1, 3), filter_channels=8,
    hidden_dim=8, n_layers=1, mlp_hidden=16,
)
PAPER = dict(word_dim=300)  # ModelConfig's defaults are the paper's dims

CASES = {
    # (model dims, dtype, pairs per batch, file length)
    "toy-float32": (TOY, np.float32, 16, 100),
    "toy-float64": (TOY, np.float64, 16, 100),
    "paper-float32": (PAPER, np.float32, 6, 12),
}


@pytest.fixture(scope="module")
def corpus():
    train_set, _ = S.make_split(100, 1, seed=5)
    return train_set, build_vocab(train_set)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, corpus):
    dims, dtype, n_batch, n_file = CASES[request.param]
    examples, vocab = corpus
    rng = np.random.default_rng(3)
    table = rng.normal(size=(vocab.n_words, dims["word_dim"])).astype(dtype)
    model = Model.initialize(ModelConfig(**dims), vocab.n_chars, table, rng)
    return model, vocab, examples[:n_batch], examples[:n_file], np.dtype(dtype)


def logits(model, examples, vocab):
    batch = gather_batch(encode_pairs(examples, vocab), np.arange(len(examples)))
    return model.forward(batch).data


def scores(models, examples, vocab):
    return TR.predict(models, encode_pairs(examples, vocab))


def assert_probs_within_bound(got, want, bound):
    """Probabilities within the bound, and the same label for every row
    whose top two probabilities are further apart than it."""
    assert np.abs(got - want).max() <= bound
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > bound
    assert clear.any()
    np.testing.assert_array_equal(got.argmax(1)[clear], want.argmax(1)[clear])


def assert_logits_within_bound(got, want, bound):
    assert np.abs(got - want).max() <= bound
    assert_probs_within_bound(CL.probabilities(got), CL.probabilities(want), bound)


def test_pair_alone_in_a_batch_and_at_each_position(case):
    model, vocab, batch, _, dtype = case
    whole = logits(model, batch, vocab)
    assert whole.dtype == dtype
    alone = np.concatenate([logits(model, [ex], vocab) for ex in batch])
    assert_logits_within_bound(alone, whole, BOUND[dtype])
    for shift in range(1, len(batch)):
        rotated = logits(model, batch[shift:] + batch[:shift], vocab)
        assert_logits_within_bound(np.roll(rotated, shift, axis=0), whole, BOUND[dtype])


def test_file_whole_and_in_pieces(case):
    # The toy file of 100 pairs spans two of predict's batches of 64.
    model, vocab, _, file, dtype = case
    whole = scores([model], file, vocab)
    cuts = [0, 1, len(file) // 3, len(file)]
    pieces = np.concatenate(
        [scores([model], file[a:b], vocab) for a, b in zip(cuts, cuts[1:])]
    )
    assert_probs_within_bound(pieces, whole, BOUND[dtype])


@pytest.mark.parametrize("k", [3, 5])
def test_ensemble_of_identical_copies(case, k):
    model, vocab, _, file, dtype = case
    one = scores([model], file, vocab)
    assert_probs_within_bound(scores([model] * k, file, vocab), one, BOUND[dtype])
