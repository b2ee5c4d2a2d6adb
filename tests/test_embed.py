"""Tests for character composition and sentence embedding."""

import inspect

import numpy as np
import primitives as P
import pytest

from gatednli import embed as E
from gatednli import tensor as T
from gatednli.data import PAD_ID
from gatednli.tensor import Graph, Tensor, grad_check

STEP = inspect.signature(grad_check).parameters["eps"].default

CHAR_DIM = 3
WIDTHS = (1, 3)
CHANNELS = 4
WORD_DIM = 5
N_CHARS = 8
N_WORDS = 6


@pytest.fixture
def rng():
    return np.random.default_rng(123)


@pytest.fixture
def params(rng):
    word_table = rng.normal(size=(N_WORDS, WORD_DIM))
    return E.init_embed_params(N_CHARS, CHAR_DIM, WIDTHS, CHANNELS, word_table, rng)


def conv_windows(char_vecs, weight, bias, width):
    """Direct window enumeration: each window's pre-activations."""
    length = char_vecs.shape[0]
    if length < width:
        char_vecs = np.vstack(
            [char_vecs, np.zeros((width - length, char_vecs.shape[1]))]
        )
    n_windows = char_vecs.shape[0] - width + 1
    outs = np.empty((n_windows, weight.shape[1]))
    for p in range(n_windows):
        window = char_vecs[p : p + width].reshape(-1)
        outs[p] = window @ weight + bias
    return outs


def conv_pool_oracle(char_vecs, weight, bias, width):
    """conv -> relu -> max over positions."""
    return np.maximum(conv_windows(char_vecs, weight, bias, width), 0.0).max(axis=0)


def assert_off_the_kink(block, params):
    """No central step of grad_check's on one char-table entry moves a
    char-CNN pre-activation of the block's words across the ReLU kink. The
    entry appears at most ``width`` times in a window, so the step moves a
    pre-activation by at most step * width * max|weight|; each must sit
    further than that from zero."""
    for ids in block:
        vecs = params.char_table.data[ids[ids != PAD_ID]]
        for width, (w, b) in params.filters.items():
            pre = conv_windows(vecs, w.data, b.data, width)
            reach = STEP * width * np.abs(w.data).max()
            assert np.abs(pre).min() > reach, (ids, width)


def char_oracle(ids, params):
    vecs = params.char_table.data[ids]
    return np.concatenate(
        [
            conv_pool_oracle(vecs, w.data, b.data, width)
            for width, (w, b) in sorted(params.filters.items())
        ]
    )


def block_of(words):
    """(W, C) char-id block with pad-id tails from a list of char-id lists."""
    width = max(len(w) for w in words)
    block = np.full((len(words), width), PAD_ID, dtype=np.int64)
    for i, chars in enumerate(words):
        block[i, : len(chars)] = chars
    return block


def random_words(rng, n_words=8, max_len=6):
    """Words of length 1, shorter than the widest filter and of the block's
    full width, plus random ones and a repeat of the first."""
    words = [[int(rng.integers(1, N_CHARS))], list(rng.integers(1, N_CHARS, size=2))]
    words.append(list(rng.integers(1, N_CHARS, size=max_len)))
    for _ in range(n_words - 4):
        words.append(list(rng.integers(1, N_CHARS, size=rng.integers(1, max_len + 1))))
    words.append(words[0])
    return block_of(words)


def weighted_sum(out, weights):
    return P.sum_axis(P.sum_axis(P.mul(out, Tensor(weights)), axis=1), axis=0)


class TestCharCompose:
    def test_single_char_degenerates_to_bias(self, params):
        params.char_table.data[:] = 0.0
        bias_values = []
        for width, (w, b) in sorted(params.filters.items()):
            w.data[:] = 0.0
            b.data[:] = np.arange(CHANNELS) - 1.5
            bias_values.append(np.maximum(b.data, 0.0))
        out = E.char_compose(np.array([[2]]), params)
        np.testing.assert_allclose(out.data, np.concatenate(bias_values)[None, :])

    def test_matches_window_enumeration_oracle(self, params, rng):
        for _ in range(20):
            block = random_words(rng)
            out = E.char_compose(block, params)
            assert out.shape == (len(block), len(WIDTHS) * CHANNELS)
            for row, ids in zip(out.data, block):
                np.testing.assert_allclose(
                    row, char_oracle(ids[ids != PAD_ID], params), rtol=0, atol=1e-12
                )

    def test_rows_independent_of_each_other(self, params, rng):
        block = random_words(rng)
        changed = block.copy()
        changed[3, 0] = changed[3, 0] % (N_CHARS - 1) + 1
        a = E.char_compose(block, params).data
        b = E.char_compose(changed, params).data
        assert not np.array_equal(a[3], b[3])
        np.testing.assert_array_equal(np.delete(a, 3, axis=0), np.delete(b, 3, axis=0))

    def test_trailing_pad_ids_ignored(self, params):
        a = E.char_compose(np.array([[3]]), params)
        b = E.char_compose(np.array([[3, PAD_ID, PAD_ID, PAD_ID]]), params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_empty_word_errors(self, params):
        block = np.array([[2, 3], [PAD_ID, PAD_ID], [4, PAD_ID]])
        with pytest.raises(ValueError, match="empty word"):
            E.char_compose(block, params)

    def test_block_gradients_match_words_alone(self, params, rng):
        block = random_words(rng)
        weights = rng.normal(size=(len(block), len(WIDTHS) * CHANNELS))
        tensors = [params.char_table] + [t for wb in params.filters.values() for t in wb]

        def grads(rows_of):
            for t in tensors:
                t.grad = None
            with Graph() as g:
                g.backward(weighted_sum(rows_of(), weights))
            return [t.grad.copy() for t in tensors]

        together = grads(lambda: E.char_compose(block, params))
        alone = grads(
            lambda: T.concat([E.char_compose(row[None], params) for row in block], axis=0)
        )
        for a, b in zip(together, alone):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_one_window_gather_per_width(self, params, rng):
        # Per width one take_rows of all the windows, one affine and one
        # segment max; plus the char table's zero row and the widths' concat.
        with Graph() as g:
            E.char_compose(random_words(rng), params)
        names = [backward.__qualname__ for _, _, backward in g._records]
        assert names.count("take_rows.<locals>.backward") == len(WIDTHS)
        assert len(g) == 3 * len(WIDTHS) + 2

    def test_grad_check_through_char_table(self, params, rng):
        block = random_words(rng, n_words=5)
        weights = rng.normal(size=(len(block), len(WIDTHS) * CHANNELS))

        def f(table):
            return weighted_sum(E.char_compose(block, params), weights)

        assert_off_the_kink(block, params)
        assert grad_check(f, params.char_table) < 1e-5

    def test_grad_check_through_filters(self, params, rng):
        block = random_words(rng, n_words=5)
        weights = rng.normal(size=(len(block), len(WIDTHS) * CHANNELS))
        for width, (weight, bias) in sorted(params.filters.items()):
            bias.data[:] = rng.normal(0.0, 0.3, size=bias.shape)

            def f(_t):
                return weighted_sum(E.char_compose(block, params), weights)

            assert grad_check(f, weight) < 1e-5, f"width {width} weight"
            assert grad_check(f, bias) < 1e-5, f"width {width} bias"

    def test_width1_channels_ignore_character_order(self, params, rng):
        # width-1 windows see single characters, so max-pooling makes the
        # channels a set function of the characters.
        only1 = E.EmbedParams(
            char_table=params.char_table,
            filters={1: params.filters[1]},
            word_table=params.word_table,
        )
        ids = rng.integers(1, N_CHARS, size=6)
        out = E.char_compose(np.stack([ids, rng.permutation(ids)]), only1)
        np.testing.assert_array_equal(out.data[0], out.data[1])


def sentence_ids(tokens_chars):
    """Build (word_ids, char_ids) from a list of char-id lists."""
    word_ids = np.arange(1, len(tokens_chars) + 1, dtype=np.int64) % N_WORDS
    return word_ids, block_of(tokens_chars)


def embed(word_ids, char_ids, params, **switches):
    """embed_sentence on an (L, C) block of char-id rows, handed over as the
    block's distinct rows and each token's row index, as a Batch holds them."""
    words, inverse = np.unique(char_ids, axis=0, return_inverse=True)
    return E.embed_sentence(word_ids, words, inverse.reshape(-1), params, **switches)


class TestEmbedSentence:
    def test_single_token_shape(self, params):
        word_ids, char_ids = sentence_ids([[2, 3]])
        e = embed(word_ids, char_ids, params)
        assert e.shape == (1, len(WIDTHS) * CHANNELS + WORD_DIM)

    def test_shared_token_rows_identical(self, params):
        word_ids = np.array([2, 3, 2])
        char_ids = np.array([[1, 4], [2, 5], [1, 4]])
        e = embed(word_ids, char_ids, params)
        np.testing.assert_array_equal(e.data[0], e.data[2])

    def test_no_char_ablation_is_word_rows(self, params):
        word_ids = np.array([1, 4])
        char_ids = np.array([[1], [2]])
        e = embed(word_ids, char_ids, params, use_char=False)
        np.testing.assert_array_equal(e.data, params.word_table.data[word_ids])
        assert e.shape == (2, WORD_DIM)

    def test_no_word_ablation_is_char_rows_only(self, params):
        word_ids = np.array([1, 4])
        char_ids = np.array([[1, 2], [3, 1]])
        e = embed(word_ids, char_ids, params, use_word=False)
        assert e.shape == (2, len(WIDTHS) * CHANNELS)

    def test_both_halves_disabled_errors(self, params):
        with pytest.raises(ValueError, match="both"):
            embed(
                np.array([1]), np.array([[1]]), params,
                use_char=False, use_word=False,
            )

    def test_word_id_out_of_range_errors(self, params):
        with pytest.raises(T.ShapeError, match="take_rows"):
            embed(np.array([N_WORDS]), np.array([[1]]), params)

    def test_word_table_gets_no_gradient(self, params):
        word_ids, char_ids = sentence_ids([[2, 3], [4]])
        with Graph() as g:
            e = embed(word_ids, char_ids, params)
            loss = P.sum_axis(P.sum_axis(e, axis=1), axis=0)
            g.backward(loss)
        assert params.word_table.grad is None
        assert params.char_table.grad is not None

    def test_grad_check_end_to_end(self, params):
        word_ids, char_ids = sentence_ids([[2, 3, 1], [4], [5, 2]])

        def f(table):
            e = embed(word_ids, char_ids, params)
            return P.sum_axis(P.sum_axis(e, axis=1), axis=0)

        assert_off_the_kink(char_ids, params)
        assert grad_check(f, params.char_table) < 1e-5

    def test_tape_records_independent_of_distinct_words(self, params):
        # 12-token blocks whose tokens cycle through 1, 2, 5 or 12 words.
        # Word i has i % 4 + 1 chars, counting up from char 1 + i % 7; the
        # words of one length start at distinct chars, so all are distinct.
        records = []
        for distinct in (1, 2, 5, 12):
            words = [
                [1 + (i + k) % (N_CHARS - 1) for k in range(i % 4 + 1)]
                for i in range(distinct)
            ]
            word_ids, char_ids = sentence_ids([words[i % distinct] for i in range(12)])
            assert len(np.unique(char_ids, axis=0)) == distinct
            with Graph() as g:
                embed(word_ids, char_ids, params)
            records.append(len(g))
        assert len(set(records)) == 1, records
