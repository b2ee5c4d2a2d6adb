"""Per-token vectors: character-CNN composition + frozen word embeddings.

Each token is represented as the concatenation of (a) a max-pooled
multi-width character convolution, run once per call over the call's
distinct words, and (b) a row of the frozen word-vector table.  Either
half can be switched off for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PAD_ID
from .tensor import Tensor


@dataclass
class EmbedParams:
    char_table: Tensor                       # (n_chars, char_dim), trainable
    filters: dict[int, tuple[Tensor, Tensor]]  # width -> (weight (width*char_dim, ch), bias (ch,))
    word_table: Tensor                       # (n_words, word_dim), frozen

    def named_tensors(self) -> dict[str, Tensor]:
        out = {"embed.char_table": self.char_table, "embed.word_table": self.word_table}
        for width, (weight, bias) in sorted(self.filters.items()):
            out[f"embed.cnn.w{width}.weight"] = weight
            out[f"embed.cnn.w{width}.bias"] = bias
        return out


def init_embed_params(
    n_chars: int,
    char_dim: int,
    filter_widths: tuple[int, ...],
    filter_channels: int,
    word_table: np.ndarray,
    rng: np.random.Generator,
) -> EmbedParams:
    """Gaussian char table and filters, zero biases, all in the word
    table's dtype."""
    word = Tensor(word_table, requires_grad=False)
    dtype = word.data.dtype
    char_table = T.normal_param(rng, 0.1, (n_chars, char_dim), dtype)
    filters: dict[int, tuple[Tensor, Tensor]] = {}
    for width in filter_widths:
        fan_in = width * char_dim
        scale = 1.0 / np.sqrt(fan_in)
        weight = T.normal_param(rng, scale, (fan_in, filter_channels), dtype)
        bias = Tensor(np.zeros(filter_channels, dtype), requires_grad=True)
        filters[width] = (weight, bias)
    return EmbedParams(char_table=char_table, filters=filters, word_table=word)


def char_compose(char_ids: np.ndarray, params: EmbedParams) -> Tensor:
    """Compose a (W, C) block of words, one row of char ids with a pad-id
    tail each, into a (W, char_out_dim) matrix.

    Per filter width, a word of n chars has ``max(n, width) - width + 1``
    windows; one gather lays out all the block's windows as a (windows,
    width * char_dim) block for one GEMM, and each word's are max-pooled
    as one segment.  Positions past a word's end read a zero row, so a
    word shorter than a filter is zero-padded.
    """
    lengths = (char_ids != PAD_ID).sum(axis=1)
    if not lengths.all():
        raise ValueError("char_compose: empty word")
    n_chars, char_dim = params.char_table.shape
    zero = Tensor(np.zeros((1, char_dim), params.char_table.data.dtype))
    table = T.concat([params.char_table, zero], axis=0)
    rows = np.where(char_ids == PAD_ID, n_chars, char_ids)  # n_chars: the zero row
    padded = np.pad(rows, ((0, 0), (0, max(params.filters))), constant_values=n_chars)

    pooled = []
    for width, (weight, bias) in sorted(params.filters.items()):
        n_windows = np.maximum(lengths, width) - width + 1
        word = np.repeat(np.arange(len(char_ids)), n_windows)
        start = np.arange(word.size) - (np.cumsum(n_windows) - n_windows)[word]
        window_ids = padded[word[:, None], start[:, None] + np.arange(width)]
        conv = T.affine(T.take_rows(table, window_ids), weight, bias, relu=True)
        pooled.append(T.segment_max(conv, n_windows))
    return T.concat(pooled, axis=1)


def embed_sentence(
    word_ids: np.ndarray,
    words: np.ndarray,
    inverse: np.ndarray,
    params: EmbedParams,
    use_char: bool = True,
    use_word: bool = True,
) -> Tensor:
    """Embed L tokens, of one sentence or of a whole block of sentences
    back to back, into an (L, d_w) matrix.

    ``words`` is the block's (F, C) distinct char-id rows with pad-id
    tails, and token i spells ``words[inverse[i]]``. One ``char_compose``
    call composes the distinct words, and the tokens gather their rows from
    it (repeats share a row and its gradient).
    """
    if not (use_char or use_word):
        raise ValueError("embed_sentence: both embedding halves disabled")
    if len(word_ids) == 0:
        raise ValueError("embed_sentence: empty sentence")

    parts = []
    if use_char:
        parts.append(T.take_rows(char_compose(words, params), inverse))
    if use_word:
        parts.append(T.take_rows(params.word_table, word_ids))
    return T.concat(parts, axis=1)
