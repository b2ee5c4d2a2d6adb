"""Stacked bidirectional LSTM encoder with shortcut connections.

The encoder runs a forward and a backward LSTM over each sentence and
concatenates their states per position. Layers above the first receive the
word embeddings concatenated with the previous layer's hidden states. The
top layer's activations of one gate, the one attention pooling weights
positions by (``GateKind``), are returned next to the hidden states; no
other gate block is joined.

A call encodes a ragged block: the sentences' rows back to back, with their
lengths, and no padding. Sentences never read each other's rows. Each
(layer, direction) is one fused op, ``lstm_layer``, that runs the whole
recurrence of the block in plain numpy, one GEMM per time step over the
sentences still running, and records a single tape entry with an analytic
backward pass. Weight matrices are stored input-side first, so the input
projection of all N rows is one (N, input_dim) @ W product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    def hidden_dim(self) -> int:
        return self.u.shape[0]


class GateKind(Enum):
    """The gate whose norms weight the attention pool."""

    INPUT = "input"
    FORGET = "forget"
    OUTPUT = "output"


# Where each gate sits in lstm_layer's [h | i | f | o] output, in d-wide blocks.
GATE_BLOCK = {GateKind.INPUT: 1, GateKind.FORGET: 2, GateKind.OUTPUT: 3}


@dataclass
class EncodedSentence:
    """Top-layer states and one gate's activations for a ragged block of
    sentences.

    h and gate are (N, 2d) with the forward direction in the first d
    columns; sentence s owns lengths[s] consecutive rows, in block order.
    """

    h: Tensor
    gate: Tensor
    lengths: np.ndarray


def init_lstm_params(
    input_dim: int, hidden_dim: int, rng, dtype=np.float64
) -> LstmParams:
    """Gaussian weights, zero biases except a +1 forget-gate bias."""
    d4 = 4 * hidden_dim
    w = T.normal_param(rng, LSTM_INIT_SIGMA, (input_dim, d4), dtype)
    u = T.normal_param(rng, LSTM_INIT_SIGMA, (hidden_dim, d4), dtype)
    b = np.zeros(d4, dtype)
    b[hidden_dim : 2 * hidden_dim] = FORGET_BIAS
    return LstmParams(w=w, u=u, b=Tensor(b, requires_grad=True))


@dataclass
class EncoderParams:
    """Per-layer (forward, backward) LSTM parameters."""

    layers: list[tuple[LstmParams, LstmParams]]

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        for k, (fwd, bwd) in enumerate(self.layers, start=1):
            for tag, p in (("fwd", fwd), ("bwd", bwd)):
                out[f"encoder.l{k}.{tag}.w"] = p.w
                out[f"encoder.l{k}.{tag}.u"] = p.u
                out[f"encoder.l{k}.{tag}.b"] = p.b
        return out


def init_encoder_params(
    embed_dim: int, hidden_dim: int, n_layers: int, rng, dtype=np.float64
) -> EncoderParams:
    """Layer 1 reads embeddings; upper layers read [embedding; prev states]."""
    if n_layers < 1:
        raise ValueError(f"encoder needs at least 1 layer, got {n_layers}")
    layers = []
    for k in range(n_layers):
        input_dim = embed_dim if k == 0 else embed_dim + 2 * hidden_dim
        layers.append(
            (
                init_lstm_params(input_dim, hidden_dim, rng, dtype),
                init_lstm_params(input_dim, hidden_dim, rng, dtype),
            )
        )
    return EncoderParams(layers=layers)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), written into out (which may be x)."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def lstm_layer(
    xs: Tensor, lengths: np.ndarray, params: LstmParams, reverse: bool
) -> Tensor:
    """One direction of one layer over a ragged block, as one tape record.

    xs holds the block's sentences back to back, lengths[s] rows for
    sentence s. Returns an (N, 4d) block in the same row order, laid out
    [h | i | f | o]: the hidden states and the input, forget and output
    gate activations. The rows are gathered once into packed, time-major
    order: sentences sorted longest first, so the B_t sentences still
    running at step t are the first B_t of step t - 1, and each read back
    to front when reverse is set. Every step is then one h[:B_t] @ u
    product, after one GEMM for the input projection of all rows. The
    backward pass is analytic BPTT: it takes gradients on h and on all
    three gates, keeps only the recurrent product dpre @ u.T inside its
    loop, and forms the input, weight and bias gradients afterwards with
    one GEMM (or sum) each.
    """
    w, u, b = params.w.data, params.u.data, params.b.data
    if xs.ndim != 2 or xs.shape[1] != w.shape[0]:
        raise T.ShapeError(f"lstm_layer: input {xs.shape} for weights {w.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    n, d = xs.shape[0], u.shape[0]
    if not lengths.size or lengths.min() < 1 or lengths.sum() != n:
        raise ValueError(f"lstm_layer: lengths {lengths} must be >= 1, sum {n}")
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    step = np.arange(lens[0])[:, None]
    running = step < lens  # (steps, S), row-major in packed order
    rows = (starts + (lens - 1 - step if reverse else step))[running]
    sizes = running.sum(axis=1)  # B_t
    # Everything below runs in packed order. State row b0 + r holds the
    # state after packed row r; rows below b0 hold the zero start state,
    # and a row's predecessor lies B_{t-1} rows up (b0 up at step 0).
    b0 = sizes[0]
    prev_rows = b0 + np.arange(n) - np.repeat(np.r_[b0, sizes[:-1]], sizes)
    x = xs.data[rows]
    # (n, 4d), overwritten step by step with the gates; every array this
    # op allocates takes its dtype
    pre = x @ w + b
    gates = pre.reshape(n, 4, d)  # [i, f, update, o]; update is tanh'd
    h = np.zeros((b0 + n, d), pre.dtype)
    c = np.zeros((b0 + n, d), pre.dtype)
    tc = np.empty((n, d), pre.dtype)  # tanh(c) after each packed row
    lo = 0
    with np.errstate(over="ignore"):  # exp overflow saturates to 0/1
        for bt in sizes:
            hi, p = lo + bt, prev_rows[lo]
            if lo:  # the zero start state adds nothing
                pre[lo:hi] += h[p : p + bt] @ u
            g = gates[lo:hi]
            i, f, upd, o = g.transpose(1, 0, 2)
            np.tanh(upd, out=upd)
            _sigmoid(g[:, :2], out=g[:, :2])
            _sigmoid(o, out=o)
            c_t = c[b0 + lo : b0 + hi]
            np.multiply(f, c[p : p + bt], out=c_t)
            c_t += i * upd
            np.tanh(c_t, out=tc[lo:hi])
            np.multiply(o, tc[lo:hi], out=h[b0 + lo : b0 + hi])
            lo = hi
    out = np.empty((n, 4, d), pre.dtype)
    out[rows, 0] = h[b0:]
    out[rows, 1:3] = gates[:, :2]
    out[rows, 3] = gates[:, 3]

    def backward(gout):
        gout = gout[rows].reshape(n, 4, d)
        i, f, upd, o = gates.transpose(1, 0, 2)
        slope = gates * (1.0 - gates)  # sigmoid slopes; the update's is unused
        # dpre starts with what the gate outputs receive directly; the loop
        # adds what flows back through c and h: k3 turns dc into the i, f
        # and update rows, k_o turns dh into the o row and k_c dh into dc.
        dpre = slope * np.concatenate(
            [gout[:, 1:3], np.zeros((n, 1, d), pre.dtype), gout[:, 3:]], axis=1
        )
        k3 = np.stack(
            [upd * slope[:, 0], c[prev_rows] * slope[:, 1], i * (1.0 - upd * upd)],
            axis=1,
        )
        k_o = tc * slope[:, 3]
        k_c = o * (1.0 - tc * tc)
        flat = dpre.reshape(n, 4 * d)
        # What step t + 1 hands back to the first B_{t+1} rows of step t;
        # the rows past B_{t+1} are still zero when step t reads them.
        dh_next = np.zeros((b0, d), pre.dtype)
        dc_next = np.zeros((b0, d), pre.dtype)
        hi = n
        for bt in sizes[::-1]:
            lo = hi - bt
            dh = gout[lo:hi, 0] + dh_next[:bt]
            dc = dh * k_c[lo:hi]
            dc += dc_next[:bt]
            dpre[lo:hi, :3] += k3[lo:hi] * dc[:, None]
            dpre[lo:hi, 3] += dh * k_o[lo:hi]
            if lo:  # nothing precedes the first step
                np.multiply(dc, f[lo:hi], out=dc_next[:bt])
                np.matmul(flat[lo:hi], u.T, out=dh_next[:bt])
            hi = lo
        dx = np.empty_like(x)
        dx[rows] = flat @ w.T
        return dx, x.T @ flat, h[prev_rows].T @ flat, flat.sum(axis=0)

    inputs = (xs, params.w, params.u, params.b)
    return T._apply(out.reshape(n, 4 * d), inputs, backward)


def _join(fwd: Tensor, bwd: Tensor, block: int, d: int) -> Tensor:
    """One d-wide block of both directions' [h | i | f | o] outputs, side
    by side."""
    lo, hi = block * d, (block + 1) * d
    return T.concat(
        [T.slice_axis(fwd, 1, lo, hi), T.slice_axis(bwd, 1, lo, hi)], axis=1
    )


def stacked_encode(
    e: Tensor, mask: np.ndarray, params: EncoderParams, gate: GateKind
) -> EncodedSentence:
    """Stack of BiLSTMs over a ragged block; upper layers see [e; previous
    states].

    e holds the valid rows of the (S, L) 0/1 mask in row-major order, so
    sentence s is mask[s].sum() consecutive rows. Each layer joins its two
    directions' hidden states; the top layer also joins the given gate's
    activations, the only gate block anything reads.
    """
    lengths = np.asarray(mask).sum(axis=1)
    layer_in = e
    for k, (fwd_params, bwd_params) in enumerate(params.layers):
        if k:
            layer_in = T.concat([e, h], axis=1)
        fwd = lstm_layer(layer_in, lengths, fwd_params, reverse=False)
        bwd = lstm_layer(layer_in, lengths, bwd_params, reverse=True)
        d = fwd_params.hidden_dim
        h = _join(fwd, bwd, 0, d)
    return EncodedSentence(h, _join(fwd, bwd, GATE_BLOCK[gate], d), lengths)
