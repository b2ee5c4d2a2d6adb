"""Fixed-length sentence vectors from encoded states.

Three pools over each sentence of an encoded ragged block: an attention
pool whose position weights are the l2 norms of the encoder's chosen gate
(``GateKind``, re-exported here), an average pool, and a coordinatewise max
pool. Each reduces over the sentence's own rows only, by segment
reductions from each sentence's first row, and records itself as one op:
the gated and average pools here with analytic backwards, the max through
``T.segment_max``. Their concatenation in the fixed order [gated; average;
max] is the sentence vector handed to the classifier, one row per sentence.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import EncodedSentence, GateKind
from .tensor import Tensor

WEIGHT_EPS = 1e-12


def gated_attention_pool(enc: EncodedSentence, kind: GateKind) -> Tensor:
    """Weighted sum of each sentence's hidden states, recorded as one op.

    A position's weight is the l2 norm of its gate row over the sum of
    those norms in its sentence. The forget variant scores a position by
    how much its forget gate lets go, so it takes the norm of 1 - f. A
    sentence whose norms sum below WEIGHT_EPS is averaged instead, and its
    gates get no gradient; nor does a gate row whose norm is exactly 0.
    """
    hd, lengths = enc.h.data, enc.lengths
    starts = np.cumsum(lengths) - lengths
    forget = kind is GateKind.FORGET
    scores = 1.0 - enc.gate.data if forget else enc.gate.data
    norms = np.sqrt((scores * scores).sum(axis=1))
    vanished = np.repeat(np.add.reduceat(norms, starts) < WEIGHT_EPS, lengths)
    norms[vanished] = 1.0
    totals = np.repeat(np.add.reduceat(norms, starts), lengths)
    weights = norms / totals
    out = np.add.reduceat(weights[:, None] * hd, starts, axis=0)

    def backward(g):
        g_rows = np.repeat(g, lengths, axis=0)
        dweights = (g_rows * hd).sum(axis=1)
        # d(n_t / total)/dn_u is (1[t == u] - w_t) / total within a sentence
        mean = np.repeat(np.add.reduceat(dweights * weights, starts), lengths)
        dnorms = (dweights - mean) / totals
        dnorms[vanished] = 0.0
        dnorms /= np.where(norms == 0.0, 1.0, norms)  # 0-norm rows get 0
        dscores = scores * dnorms[:, None]
        return weights[:, None] * g_rows, -dscores if forget else dscores

    return T._apply(out, (enc.h, enc.gate), backward)


def avg_pool(enc: EncodedSentence) -> Tensor:
    """Mean of each sentence's hidden states, recorded as one op."""
    hd, lengths = enc.h.data, enc.lengths
    counts = np.asarray(lengths, dtype=hd.dtype)[:, None]
    out = np.add.reduceat(hd, np.cumsum(lengths) - lengths, axis=0) / counts

    def backward(g):
        return (np.repeat(g / counts, lengths, axis=0),)

    return T._apply(out, (enc.h,), backward)


def max_pool(enc: EncodedSentence) -> Tensor:
    """Coordinatewise max of each sentence's hidden states."""
    return T.segment_max(enc.h, enc.lengths)


def compose(enc: EncodedSentence, kind: GateKind | None) -> Tensor:
    """The (S, sentence_dim) sentence vectors [gated; average; max], or
    [average; max] without the attention pool, when kind is None. kind
    names the gate the encoder returned."""
    v_a = avg_pool(enc)
    v_m = max_pool(enc)
    if kind is None:
        return T.concat([v_a, v_m], axis=1)
    return T.concat([gated_attention_pool(enc, kind), v_a, v_m], axis=1)
