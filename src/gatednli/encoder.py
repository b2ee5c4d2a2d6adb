"""Stacked bidirectional LSTM encoder with shortcut connections.

The encoder runs a forward and a backward LSTM over each sentence and
concatenates their states per position. Layers above the first receive the
word embeddings concatenated with the previous layer's hidden states. Only
the top layer also returns a gate's activations: those of the one gate
attention pooling weights positions by (``GateKind``).

A call encodes a ragged block: the sentences' rows back to back, with their
lengths, and no padding. Sentences never read each other's rows. Each layer
is one fused op, ``bilstm_layer``, that runs both directions' recurrences
over the block in plain numpy, one GEMM per direction and time step over
the sentences still running, and records one tape entry with an analytic
backward pass; the top layer's entry has two outputs, its states and its
gate. Weights are stored input-side first: all N rows' input projection is
one (N, input_dim) @ W.
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


class GateKind(Enum):
    """The gate whose norms weight the attention pool."""

    INPUT = "input"
    FORGET = "forget"
    OUTPUT = "output"


# Where each gate sits on the gate axis of bilstm_layer's [i, f, update, o].
GATE_INDEX = {GateKind.INPUT: 0, GateKind.FORGET: 1, GateKind.OUTPUT: 3}


@dataclass
class EncodedSentence:
    """Top-layer states and one gate's activations (None when no gate was
    asked for) for a ragged block of sentences: the top ``bilstm_layer``'s
    outputs.

    h and gate are (N, 2d) with the forward direction in the first d
    columns; sentence s owns lengths[s] consecutive rows, in block order.
    """

    h: Tensor
    gate: Tensor | None
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


def bilstm_layer(
    xs: Tensor,
    lengths: np.ndarray,
    params: tuple[LstmParams, LstmParams],
    gate: GateKind | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Both directions of one layer over a ragged block.

    xs holds the block's sentences back to back, lengths[s] rows for
    sentence s; params is the (forward, backward) pair. Returns the (N, 2d)
    hidden states in the same row order, forward direction first, and the
    given gate's activations in the same layout (None without a gate). The
    rows are gathered once into packed, time-major order: sentences sorted
    longest first, so the B_t still running at step t are the first B_t of
    step t - 1, each read back to front in the backward direction. The
    directions run as one recurrence over a leading direction axis, with
    one h[:B_t] @ u product each and one set of elementwise calls a step.

    The layer is one tape record, whose outputs are h and, with a gate, the
    gate. Its backward is analytic BPTT over the gradients of both: only the
    dpre @ u.T product stays in its loop; the input, weight and bias
    gradients take one GEMM (or sum) per direction, the weights' and biases'
    written into their spare arrays from the step before, when they have
    one. xs is one input of the record, and both directions' input
    gradients sum into one array.
    """
    ws, us = [p.w.data for p in params], [p.u.data for p in params]
    if xs.ndim != 2 or any(xs.shape[1] != w.shape[0] for w in ws):
        raise T.ShapeError(f"bilstm_layer: input {xs.shape} for weights {ws[0].shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    n, d = xs.shape[0], us[0].shape[0]
    if not lengths.size or lengths.min() < 1 or lengths.sum() != n:
        raise ValueError(f"bilstm_layer: lengths {lengths} must be >= 1, sum {n}")
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    step = np.arange(lens[0])[:, None]
    running = step < lens  # (steps, S), row-major in packed order
    # (2, n): each direction's block row for each packed row
    rows = np.stack([starts + step, starts + lens - 1 - step])[:, running]
    sizes = running.sum(axis=1)  # B_t
    # Everything below runs in packed order. State row b0 + r holds the
    # state after packed row r; rows below b0 hold the zero start state,
    # and a row's predecessor lies B_{t-1} rows up (b0 up at step 0).
    b0 = sizes[0]
    prev_rows = b0 + np.arange(n) - np.repeat(np.r_[b0, sizes[:-1]], sizes)
    # (2, n, 4d), overwritten step by step with the gates; every array
    # this op allocates takes its dtype. Each direction's rows are gathered
    # only for its projection, and again for dW in the backward.
    pre = np.empty((2, n, 4 * d), np.result_type(xs.data, *ws))
    for k, p in enumerate(params):
        np.matmul(xs.data[rows[k]], ws[k], out=pre[k])
        pre[k] += p.b.data
    gates = pre.reshape(2, n, 4, d)  # [i, f, update, o]; update is tanh'd
    h = np.zeros((2, b0 + n, d), pre.dtype)
    c = np.zeros((2, b0 + n, d), pre.dtype)
    lo = 0
    with np.errstate(over="ignore"):  # exp overflow saturates to 0/1
        for bt in sizes:
            hi, p = lo + bt, prev_rows[lo]
            if lo:  # the zero start state adds nothing
                for k in range(2):
                    pre[k, lo:hi] += h[k, p : p + bt] @ us[k]
            g = gates[:, lo:hi]
            i, f, upd, o = g.transpose(2, 0, 1, 3)
            np.tanh(upd, out=upd)
            _sigmoid(g[:, :, :2], out=g[:, :, :2])
            _sigmoid(o, out=o)
            c_t = c[:, b0 + lo : b0 + hi]
            np.multiply(f, c[:, p : p + bt], out=c_t)
            c_t += i * upd
            h_now = h[:, b0 + lo : b0 + hi]
            np.tanh(c_t, out=h_now)
            h_now *= o
            lo = hi
    cols = np.arange(2)[:, None]  # block.reshape(n, 2, d)[rows, cols] is packed

    def unpack(packed):
        block = np.empty((n, 2, d), pre.dtype)
        block[rows, cols] = packed
        return block.reshape(n, 2 * d)

    j = GATE_INDEX.get(gate)

    def backward(gout, ggate=None):
        i, f, upd, o = gates.transpose(2, 0, 1, 3)
        slope = gates * (1.0 - gates)  # sigmoid slopes; the update's is unused
        s_i, s_f, _, s_o = slope.transpose(2, 0, 1, 3)
        # dpre starts with what the gate output receives directly; the loop
        # adds what flows back through c and h: k3 turns dc into the i, f
        # and update rows, k_o turns dh into the o row and k_c dh into dc.
        dpre = np.zeros_like(gates)
        if ggate is not None:
            dpre[:, :, j] = slope[:, :, j] * ggate.reshape(n, 2, d)[rows, cols]
        k3 = np.stack(
            [upd * s_i, c[:, prev_rows] * s_f, i * (1.0 - upd * upd)], axis=2
        )
        tc = np.tanh(c[:, b0:])  # recomputed, not kept from the forward
        k_o = tc * s_o
        k_c = o * (1.0 - tc * tc)
        flat = dpre.reshape(2, n, 4 * d)
        if gout is None:  # only the gate was read
            gh = np.zeros((2, n, d), pre.dtype)
        else:
            gh = gout.reshape(n, 2, d)[rows, cols]
        # What step t + 1 hands back to the first B_{t+1} rows of step t;
        # the rows past B_{t+1} are still zero when step t reads them.
        dh_next = np.zeros((2, b0, d), pre.dtype)
        dc_next = np.zeros((2, b0, d), pre.dtype)
        hi = n
        for bt in sizes[::-1]:
            lo = hi - bt
            dh = gh[:, lo:hi] + dh_next[:, :bt]
            dc = dh * k_c[:, lo:hi]
            dc += dc_next[:, :bt]
            dpre[:, lo:hi, :3] += k3[:, lo:hi] * dc[:, :, None]
            dpre[:, lo:hi, 3] += dh * k_o[:, lo:hi]
            if lo:  # nothing precedes the first step
                np.multiply(dc, f[:, lo:hi], out=dc_next[:, :bt])
                for k in range(2):
                    # (u @ dpre^T)^T: OpenBLAS is about 2x slower through
                    # the transposed view u.T at a few float32 rows
                    dh_next[k, :bt] = (us[k] @ flat[k, lo:hi].T).T
            hi = lo
        dx, dws = np.empty_like(xs.data), []
        dx[rows[0]] = flat[0] @ ws[0].T
        dx[rows[1]] += flat[1] @ ws[1].T
        for k, p in enumerate(params):
            x_k = xs.data[rows[k]]
            dws += [
                np.matmul(x_k.T, flat[k], out=T.take_spare(p.w)),
                np.matmul(h[k, prev_rows].T, flat[k], out=T.take_spare(p.u)),
                flat[k].sum(axis=0, out=T.take_spare(p.b)),
            ]
        return (dx, *dws)

    inputs = (xs,) + tuple(t for p in params for t in (p.w, p.u, p.b))
    if gate is None:
        return T._apply(unpack(h[:, b0:]), inputs, backward), None
    return T._apply((unpack(h[:, b0:]), unpack(gates[:, :, j])), inputs, backward)


def stacked_encode(
    e: Tensor, lengths: np.ndarray, params: EncoderParams, gate: GateKind | None
) -> EncodedSentence:
    """Stack of BiLSTMs over a ragged block; upper layers see [e; previous
    states], and only the top one returns the given gate's activations
    (none when gate is None).

    e holds the block's sentences back to back, lengths[s] rows for
    sentence s.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    layer_in = e
    top = len(params.layers) - 1
    for k, pair in enumerate(params.layers):
        if k:
            layer_in = T.concat([e, h], axis=1)
        h, g = bilstm_layer(layer_in, lengths, pair, gate if k == top else None)
    return EncodedSentence(h, g, lengths)
