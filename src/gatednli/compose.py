"""Fixed-length sentence vectors from encoded states.

Three pools over each sentence of an encoded ragged block: an attention
pool whose position weights are the l2 norms of a chosen gate's
activations, an average pool, and a coordinatewise max pool. Each reduces
over the sentence's own rows only: the sums go through a constant (S, N)
selector matrix, the max through one segment max. Their concatenation in
the fixed order [gated; average; max] is the sentence vector handed to the
classifier, one row per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import tensor as T
from .encoder import EncodedSentence
from .tensor import Tensor

WEIGHT_EPS = 1e-12


class GateKind(Enum):
    INPUT = "input"
    FORGET = "forget"
    OUTPUT = "output"


@dataclass
class SentenceVector:
    """Pool outputs for S sentences, each (S, 2d); v concatenates them.
    v_g is None when the attention pool is ablated away."""

    v_g: Optional[Tensor]
    v_a: Tensor
    v_m: Tensor
    v: Tensor


def _segments(enc: EncodedSentence) -> tuple[np.ndarray, Tensor]:
    """Each row's sentence index, and the (S, N) 0/1 selector whose row s
    picks sentence s's rows."""
    n_sentences = len(enc.lengths)
    seg = np.repeat(np.arange(n_sentences), enc.lengths)
    selector = np.arange(n_sentences)[:, None] == seg
    return seg, Tensor(selector.astype(T.DTYPE))


def _gate_scores(enc: EncodedSentence, kind: GateKind) -> Tensor:
    """The vectors whose norms weight each position.

    The forget variant scores a position by how much its forget gate lets
    go, so it uses the elementwise complement 1 - f.
    """
    if kind is GateKind.INPUT:
        return enc.gates_i
    if kind is GateKind.OUTPUT:
        return enc.gates_o
    ones = Tensor(np.ones(enc.gates_f.shape))
    return T.sub(ones, enc.gates_f)


def attention_weights(enc: EncodedSentence, kind: GateKind) -> Tensor:
    """Per-position weights, (N, 1), summing to one over each sentence.

    A sentence whose gate norms all vanish gets uniform weights; that
    fallback carries no gradient into its gates.
    """
    seg, selector = _segments(enc)
    norms = T.l2norm(_gate_scores(enc, kind), axis=1, keepdims=True)
    vanished = (selector.data @ norms.data)[:, 0] < WEIGHT_EPS
    if vanished.any():
        reset = vanished[seg][:, None].astype(T.DTYPE)
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
    lengths = Tensor(np.asarray(enc.lengths, dtype=T.DTYPE)[:, None])
    return T.div(T.matmul(selector, enc.h), lengths)


def max_pool(enc: EncodedSentence) -> Tensor:
    """Coordinatewise max of each sentence's hidden states."""
    return T.segment_max(enc.h, enc.lengths)


def compose(
    enc: EncodedSentence, kind: GateKind, use_gated: bool = True
) -> SentenceVector:
    """All pools concatenated; without the attention pool, v = [v_a; v_m]."""
    v_a = avg_pool(enc)
    v_m = max_pool(enc)
    if not use_gated:
        return SentenceVector(
            v_g=None, v_a=v_a, v_m=v_m, v=T.concat([v_a, v_m], axis=1)
        )
    v_g = gated_attention_pool(enc, kind)
    return SentenceVector(
        v_g=v_g, v_a=v_a, v_m=v_m, v=T.concat([v_g, v_a, v_m], axis=1)
    )
