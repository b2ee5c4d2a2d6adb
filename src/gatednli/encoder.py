"""Stacked bidirectional LSTM encoder with shortcut connections.

The encoder runs a forward and a backward LSTM over each sentence and
concatenates their states per position. Layers above the first receive the
word embeddings concatenated with the previous layer's hidden states. The
top layer's input, forget, and output gate activations are returned next to
the hidden states so that pooling can weight positions by gate norms.

Each (layer, direction) is one fused op, ``lstm_layer``, that runs the
whole recurrence in plain numpy and records a single tape entry with an
analytic backward pass. Weight matrices are stored input-side first, so the
input projection of all n positions is one (n, input_dim) @ W product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

LSTM_INIT_SIGMA = 0.01
FORGET_BIAS = 1.0


@dataclass
class LstmParams:
    """One direction of one layer.

    w: (input_dim, 4d), u: (d, 4d), b: (4d,). The 4d axis holds the four
    gate blocks in the fixed order [input; forget; update; output].
    """

    w: Tensor
    u: Tensor
    b: Tensor

    @property
    def input_dim(self) -> int:
        return self.w.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.u.shape[0]


@dataclass
class EncodedSentence:
    """Top-layer states and gates for one sentence.

    h and each gate matrix are (n, 2d) with the forward direction in the
    first d columns. Rows at masked positions are all zeros. mask is the
    (n,) 0/1 array the encoder was called with.
    """

    h: Tensor
    gates_i: Tensor
    gates_f: Tensor
    gates_o: Tensor
    mask: np.ndarray

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())


def init_lstm_params(input_dim: int, hidden_dim: int, rng) -> LstmParams:
    """Gaussian weights, zero biases except a +1 forget-gate bias."""
    d4 = 4 * hidden_dim
    w = rng.normal(0.0, LSTM_INIT_SIGMA, size=(input_dim, d4))
    u = rng.normal(0.0, LSTM_INIT_SIGMA, size=(hidden_dim, d4))
    b = np.zeros(d4)
    b[hidden_dim : 2 * hidden_dim] = FORGET_BIAS
    return LstmParams(
        w=Tensor(w, requires_grad=True),
        u=Tensor(u, requires_grad=True),
        b=Tensor(b, requires_grad=True),
    )


@dataclass
class EncoderParams:
    """Per-layer (forward, backward) LSTM parameters."""

    layers: list[tuple[LstmParams, LstmParams]]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.layers[0][0].hidden_dim

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for k, (fwd, bwd) in enumerate(self.layers, start=1):
            for tag, p in (("fwd", fwd), ("bwd", bwd)):
                out[f"encoder.l{k}.{tag}.w"] = p.w
                out[f"encoder.l{k}.{tag}.u"] = p.u
                out[f"encoder.l{k}.{tag}.b"] = p.b
        return out


def init_encoder_params(
    embed_dim: int, hidden_dim: int, n_layers: int, rng
) -> EncoderParams:
    """Layer 1 reads embeddings; upper layers read [embedding; prev states]."""
    if n_layers < 1:
        raise ValueError(f"encoder needs at least 1 layer, got {n_layers}")
    layers = []
    for k in range(n_layers):
        input_dim = embed_dim if k == 0 else embed_dim + 2 * hidden_dim
        layers.append(
            (
                init_lstm_params(input_dim, hidden_dim, rng),
                init_lstm_params(input_dim, hidden_dim, rng),
            )
        )
    return EncoderParams(layers=layers)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), written into out (which may be x)."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def lstm_layer(xs: Tensor, params: LstmParams, reverse: bool) -> Tensor:
    """One direction of one layer over all rows of xs, as one tape record.

    Returns an (n, 4d) block laid out [h | i | f | o]: the hidden states
    and the input, forget and output gate activations, row t belonging to
    position t in either direction. The input projection of every step is
    one GEMM before the time loop. The backward pass is analytic BPTT: it
    takes gradients on h and on all three gates, keeps only the recurrent
    product dh_prev = dpre @ u.T inside its loop, and forms the input,
    weight and bias gradients afterwards with one GEMM (or sum) each.
    """
    w, u, b = params.w.data, params.u.data, params.b.data
    if xs.ndim != 2 or xs.shape[1] != w.shape[0]:
        raise T.ShapeError(f"lstm_layer: input {xs.shape} for weights {w.shape}")
    n, d = xs.shape[0], u.shape[0]
    # Everything below runs in processing order; reverse flips in and out.
    x = xs.data[::-1] if reverse else xs.data
    pre = x @ w + b  # (n, 4d), overwritten step by step with the gates
    gates = pre.reshape(n, 4, d)  # [i, f, update, o]; update is tanh'd
    # Row t + 1 holds the state after step t, row 0 the zero start state.
    h = np.zeros((n + 1, d))
    c = np.zeros((n + 1, d))
    tc = np.empty((n, d))  # tanh(c) after step t
    with np.errstate(over="ignore"):  # exp overflow saturates to 0/1
        for t in range(n):
            if t:  # the zero start state adds nothing
                pre[t] += h[t] @ u
            i, f, upd, o = gates[t]
            np.tanh(upd, out=upd)
            _sigmoid(gates[t, :2], out=gates[t, :2])
            _sigmoid(o, out=o)
            np.multiply(f, c[t], out=c[t + 1])
            c[t + 1] += i * upd
            np.tanh(c[t + 1], out=tc[t])
            np.multiply(o, tc[t], out=h[t + 1])
    out = np.concatenate([h[1:, None], gates[:, :2], gates[:, 3:]], axis=1)
    out = out.reshape(n, 4 * d)
    if reverse:
        out = out[::-1].copy()

    def backward(gout):
        gout = (gout[::-1] if reverse else gout).reshape(n, 4, d)
        i, f, upd, o = gates.transpose(1, 0, 2)
        slope = gates * (1.0 - gates)  # sigmoid slopes; the update's is unused
        # dpre starts with what the gate outputs receive directly; the loop
        # adds what flows back through c and h: k3 turns dc into the i, f
        # and update rows, k_o turns dh into the o row and k_c dh into dc.
        dpre = slope * np.concatenate(
            [gout[:, 1:3], np.zeros((n, 1, d)), gout[:, 3:]], axis=1
        )
        k3 = np.stack(
            [upd * slope[:, 0], c[:-1] * slope[:, 1], i * (1.0 - upd * upd)], axis=1
        )
        k_o = tc * slope[:, 3]
        k_c = o * (1.0 - tc * tc)
        flat = dpre.reshape(n, 4 * d)
        dh_next = np.zeros(d)
        dc_next = np.zeros(d)
        for t in range(n - 1, -1, -1):
            dh = gout[t, 0] + dh_next
            dc = dh * k_c[t]
            dc += dc_next
            dpre[t, :3] += k3[t] * dc
            dpre[t, 3] += dh * k_o[t]
            if t:  # nothing precedes the first step
                dc_next = dc * f[t]
                dh_next = flat[t] @ u.T
        dx = flat @ w.T
        dx = dx[::-1] if reverse else dx
        return dx, x.T @ flat, h[:-1].T @ flat, flat.sum(axis=0)

    return T._apply("lstm_layer", out, (xs, params.w, params.u, params.b), backward)


def valid_length(mask: np.ndarray) -> int:
    """Number of leading ones; padding must be a contiguous tail of zeros."""
    mask = np.asarray(mask)
    n_valid = int(mask.sum())
    if not (np.all(mask[:n_valid] == 1) and np.all(mask[n_valid:] == 0)):
        raise ValueError(f"mask must be ones followed by zeros, got {mask}")
    if n_valid == 0:
        raise ValueError("all positions are masked")
    return n_valid


def _pad_rows(m: Tensor, n_pad: int) -> Tensor:
    if n_pad == 0:
        return m
    zeros = Tensor(np.zeros((n_pad, m.shape[1])))
    return T.concat([m, zeros], axis=0)


def bilstm(
    inputs: Tensor,
    mask: np.ndarray,
    params_fwd: LstmParams,
    params_bwd: LstmParams,
) -> EncodedSentence:
    """Both directions over the valid prefix, concatenated per position.

    Rows at masked positions come out as zeros for the states and all three
    gate matrices, so downstream pooling can rely on zero contribution.
    """
    n = inputs.shape[0]
    if len(mask) != n:
        raise ValueError(f"mask length {len(mask)} != input rows {n}")
    n_valid = valid_length(mask)
    xs = inputs if n_valid == n else T.slice_axis(inputs, 0, 0, n_valid)
    fwd = lstm_layer(xs, params_fwd, reverse=False)
    bwd = lstm_layer(xs, params_bwd, reverse=True)
    d = params_fwd.hidden_dim

    def stack(k):
        """Block k of [h | i | f | o], both directions side by side."""
        both = T.concat(
            [
                T.slice_axis(fwd, 1, k * d, (k + 1) * d),
                T.slice_axis(bwd, 1, k * d, (k + 1) * d),
            ],
            axis=1,
        )
        return _pad_rows(both, n - n_valid)

    return EncodedSentence(
        h=stack(0),
        gates_i=stack(1),
        gates_f=stack(2),
        gates_o=stack(3),
        mask=np.asarray(mask),
    )


def stacked_encode(
    e: Tensor, mask: np.ndarray, params: EncoderParams
) -> EncodedSentence:
    """Stack of BiLSTMs; upper layers see [e; previous states].

    Only the top layer's gates survive in the result.
    """
    enc = None
    for k, (fwd, bwd) in enumerate(params.layers):
        layer_in = e if k == 0 else T.concat([e, enc.h], axis=1)
        enc = bilstm(layer_in, mask, fwd, bwd)
    return enc
