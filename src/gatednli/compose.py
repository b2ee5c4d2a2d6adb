"""Fixed-length sentence vectors from encoded states.

Three pools over each sentence of an encoded ragged block: an attention
pool whose position weights are the l2 norms of the encoder's chosen gate
(``GateKind``, re-exported here), an average pool, and a coordinatewise max
pool. Each reduces over the sentence's own rows only: the sums go through a
constant (S, N) selector matrix, the max through one segment max. Their
concatenation in the fixed order [gated; average; max] is the sentence
vector handed to the classifier, one row per sentence.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import EncodedSentence, GateKind
from .tensor import Tensor

WEIGHT_EPS = 1e-12


def _segments(enc: EncodedSentence) -> tuple[np.ndarray, Tensor]:
    """Each row's sentence index, and the (S, N) 0/1 selector whose row s
    picks sentence s's rows."""
    n_sentences = len(enc.lengths)
    seg = np.repeat(np.arange(n_sentences), enc.lengths)
    selector = np.arange(n_sentences)[:, None] == seg
    return seg, Tensor(selector.astype(enc.h.data.dtype))


def _gate_scores(enc: EncodedSentence, kind: GateKind) -> Tensor:
    """The vectors whose norms weight each position: the encoder's gate.

    The forget variant scores a position by how much its forget gate lets
    go, so it uses the elementwise complement 1 - f.
    """
    if kind is not GateKind.FORGET:
        return enc.gate
    return T.sub(Tensor(np.ones_like(enc.gate.data)), enc.gate)


def attention_weights(enc: EncodedSentence, kind: GateKind) -> Tensor:
    """Per-position weights, (N, 1), summing to one over each sentence.

    A sentence whose gate norms all vanish gets uniform weights; that
    fallback carries no gradient into its gates.
    """
    seg, selector = _segments(enc)
    norms = T.l2norm(_gate_scores(enc, kind), axis=1, keepdims=True)
    vanished = (selector.data @ norms.data)[:, 0] < WEIGHT_EPS
    if vanished.any():
        reset = vanished[seg][:, None].astype(norms.data.dtype)
        norms = T.add(T.mul(norms, Tensor(1.0 - reset)), Tensor(reset))
    denom = T.take_rows(T.matmul(selector, norms), seg)
    return T.div(norms, denom)


def gated_attention_pool(enc: EncodedSentence, kind: GateKind) -> Tensor:
    """Weighted sum of each sentence's hidden states, weights from gate
    norms."""
    weights = attention_weights(enc, kind)
    _, selector = _segments(enc)
    return T.matmul(selector, T.mul(weights, enc.h))


def avg_pool(enc: EncodedSentence) -> Tensor:
    """Mean of each sentence's hidden states."""
    _, selector = _segments(enc)
    lengths = Tensor(np.asarray(enc.lengths, dtype=enc.h.data.dtype)[:, None])
    return T.div(T.matmul(selector, enc.h), lengths)


def max_pool(enc: EncodedSentence) -> Tensor:
    """Coordinatewise max of each sentence's hidden states."""
    return T.segment_max(enc.h, enc.lengths)


def compose(
    enc: EncodedSentence, kind: GateKind, use_gated: bool = True
) -> Tensor:
    """The (S, sentence_dim) sentence vectors [gated; average; max], or
    [average; max] without the attention pool. kind names the gate the
    encoder returned."""
    v_a = avg_pool(enc)
    v_m = max_pool(enc)
    if not use_gated:
        return T.concat([v_a, v_m], axis=1)
    return T.concat([gated_attention_pool(enc, kind), v_a, v_m], axis=1)
