"""Per-token vectors: character-CNN composition + frozen word embeddings.

Each token is represented as the concatenation of (a) a max-pooled
multi-width character convolution and (b) a row of the frozen
word-vector table.  Either half can be switched off for ablations.
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
    char_dim: int

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
    char_table = Tensor(rng.normal(0.0, 0.1, (n_chars, char_dim)), requires_grad=True)
    filters: dict[int, tuple[Tensor, Tensor]] = {}
    for width in filter_widths:
        fan_in = width * char_dim
        weight = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, filter_channels)),
            requires_grad=True,
        )
        bias = Tensor(np.zeros(filter_channels), requires_grad=True)
        filters[width] = (weight, bias)
    return EmbedParams(
        char_table=char_table,
        filters=filters,
        word_table=Tensor(word_table, requires_grad=False),
        char_dim=char_dim,
    )


def char_compose(char_ids: np.ndarray, params: EmbedParams) -> Tensor:
    """Compose one word's characters into a (1, char_out_dim) vector.

    ``char_ids`` may carry trailing pad ids (from batch packing); they
    are stripped so windows only ever cover real characters.  Words
    shorter than a filter width are zero-padded to yield one window.
    """
    ids = np.asarray(char_ids, dtype=np.int64)
    valid = ids[ids != PAD_ID]
    if valid.size == 0:
        raise ValueError("char_compose: empty word")
    chars = T.take_rows(params.char_table, valid)
    length = valid.size
    cd = params.char_dim

    pooled = []
    for width, (weight, bias) in sorted(params.filters.items()):
        x = chars
        if length < width:
            pad = Tensor(np.zeros((width - length, cd)))
            x = T.concat([x, pad], axis=0)
        n_windows = max(length, width) - width + 1
        if width == 1:
            windows = x
        else:
            windows = T.concat(
                [T.slice_axis(x, 0, o, o + n_windows) for o in range(width)],
                axis=1,
            )
        conv = T.add(T.matmul(windows, weight), bias)
        pooled.append(T.segment_max(T.relu(conv), [n_windows]))
    if len(pooled) == 1:
        return pooled[0]
    return T.concat(pooled, axis=1)


def embed_sentence(
    word_ids: np.ndarray,
    char_ids: np.ndarray,
    params: EmbedParams,
    use_char: bool = True,
    use_word: bool = True,
) -> Tensor:
    """Embed L tokens, of one sentence or of a whole block of sentences
    back to back, into an (L, d_w) matrix.

    ``char_ids`` is (L, C) with pad-id tails per word.  Repeated tokens
    within the call share one composed char vector (identical graph
    node; gradient fan-out handles the reuse).
    """
    if not (use_char or use_word):
        raise ValueError("embed_sentence: both embedding halves disabled")
    word_ids = np.asarray(word_ids, dtype=np.int64)
    n = word_ids.shape[0]
    if n == 0:
        raise ValueError("embed_sentence: empty sentence")

    parts = []
    if use_char:
        cache: dict[bytes, Tensor] = {}
        rows = []
        for t in range(n):
            key = char_ids[t].tobytes()
            vec = cache.get(key)
            if vec is None:
                vec = char_compose(char_ids[t], params)
                cache[key] = vec
            rows.append(vec)
        parts.append(rows[0] if n == 1 else T.concat(rows, axis=0))
    if use_word:
        parts.append(T.take_rows(params.word_table, word_ids))
    if len(parts) == 1:
        return parts[0]
    return T.concat(parts, axis=1)
