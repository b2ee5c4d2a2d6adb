"""Composite LSTM reference, built from the tape primitives of ``primitives``.

This is the per-step recurrence behind the encoder's fused
``bilstm_layer``: every gate slice, activation and state update is its own
tape record, and the backward pass is whatever the primitives compose to.
The tests check the fused op against it, values and gradients alike,
running the oracle on one sentence and one direction at a time. The
elementwise sigmoid and tanh ops it needs live here, as only the oracle
uses them.
"""

import numpy as np
import primitives as P

from gatednli import tensor as T
from gatednli.encoder import GateKind, LstmParams
from gatednli.tensor import Tensor


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp overflow saturates to the correct 0/1
        out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return T._apply(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return T._apply(out, (a,), backward)


def _split_gates(pre, d):
    i = sigmoid(P.slice_axis(pre, 1, 0, d))
    f = sigmoid(P.slice_axis(pre, 1, d, 2 * d))
    u = tanh(P.slice_axis(pre, 1, 2 * d, 3 * d))
    o = sigmoid(P.slice_axis(pre, 1, 3 * d, 4 * d))
    return i, f, u, o


def lstm_cell(x_t, h_prev, c_prev, params: LstmParams):
    """One step from (1, d) states: returns h, c and the (i, f, o) gates."""
    pre = P.add(
        P.add(P.matmul(x_t, params.w), P.matmul(h_prev, params.u)), params.b
    )
    i, f, u, o = _split_gates(pre, params.u.shape[0])
    c_t = P.add(P.mul(f, c_prev), P.mul(i, u))
    h_t = P.mul(o, tanh(c_t))
    return h_t, c_t, (i, f, o)


def lstm_layer(xs, params: LstmParams, reverse: bool):
    """One direction over one sentence, step by step: the (n, d) hidden
    states and, by GateKind, each gate's (n, d) activations."""
    n, d = xs.shape[0], params.u.shape[0]
    h = Tensor(np.zeros((1, d)))
    c = Tensor(np.zeros((1, d)))
    hs, gates = [None] * n, {kind: [None] * n for kind in GateKind}
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h, c, ifo = lstm_cell(P.slice_axis(xs, 0, t, t + 1), h, c, params)
        hs[t] = h
        for kind, a in zip(GateKind, ifo):
            gates[kind][t] = a
    return T.concat(hs, 0), {k: T.concat(a, 0) for k, a in gates.items()}


def bilstm_layer(xs, lengths, params, gate=None):
    """The fused op's (h, gate) outputs for a ragged block, each sentence
    and direction run alone; the gate is None without a gate kind."""
    hs, gs, start = [], [], 0
    for n in lengths:
        x = P.slice_axis(xs, 0, start, start + n)
        runs = [lstm_layer(x, p, rev) for p, rev in zip(params, (False, True))]
        hs.append(T.concat([h for h, _ in runs], axis=1))
        if gate is not None:
            gs.append(T.concat([g[gate] for _, g in runs], axis=1))
        start += n
    return T.concat(hs, axis=0), T.concat(gs, axis=0) if gs else None
