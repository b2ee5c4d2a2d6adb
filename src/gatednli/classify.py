"""Matching features over a sentence-vector pair and the MLP classifier.

Every function here takes a whole batch: row b of each (B, ·) input
belongs to pair b, and rows b and B + b of the (2B, D) sentence vectors
are its premise and hypothesis. The pair is expanded into matching
features and pushed through two ReLU hidden layers to three class
logits. The training loss is the batch mean of the softmax cross-entropy,
recorded as one fused op; the class probabilities are computed in plain
numpy where they are read. Hidden layers after the first see the original
feature vector next to the previous hidden activations, echoing the
encoder's shortcut wiring; a flag drops that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

N_CLASSES = 3


@dataclass
class ClassifierParams:
    """Two hidden layers plus the output layer.

    With the shortcut on, layer 2 reads (input_dim + hidden) columns;
    without it, just hidden.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w_out: Tensor
    b_out: Tensor
    shortcut: bool

    def named_tensors(self) -> dict[str, Tensor]:
        return {
            "classify.w1": self.w1,
            "classify.b1": self.b1,
            "classify.w2": self.w2,
            "classify.b2": self.b2,
            "classify.w_out": self.w_out,
            "classify.b_out": self.b_out,
        }


def init_classifier_params(
    input_dim: int, hidden_dim: int, rng, shortcut: bool = True, dtype=np.float64
) -> ClassifierParams:
    """Fan-in scaled Gaussian weights, zero biases."""

    def dense(n_in, n_out):
        w = T.normal_param(rng, 1.0 / np.sqrt(n_in), (n_in, n_out), dtype)
        return w, Tensor(np.zeros(n_out, dtype), requires_grad=True)

    w1, b1 = dense(input_dim, hidden_dim)
    dim2 = input_dim + hidden_dim if shortcut else hidden_dim
    w2, b2 = dense(dim2, hidden_dim)
    w_out, b_out = dense(hidden_dim, N_CLASSES)
    return ClassifierParams(
        w1=w1, b1=b1, w2=w2, b2=b2, w_out=w_out, b_out=b_out, shortcut=shortcut
    )


def matching_features(v: Tensor, use_absdiff_product: bool = True) -> Tensor:
    """The (B, ·) matching features of a (2B, D) block of sentence vectors,
    premises first (as ``data.Batch`` orders them), as one record:
    [v_p; v_h; |v_p - v_h|; v_p * v_h], or just [v_p; v_h] when ablated.

    The backward sums each half's gradient in the order a chain of slice,
    sub, absolute, mul and concat records would, so the two agree bit for
    bit: (g_p + g_m v_h) + s and (g_h + g_m v_p) - s, where
    s = g_d sign(v_p - v_h).
    """
    if v.ndim != 2 or v.shape[0] % 2 or not v.shape[0]:
        raise ShapeError(
            f"matching_features: expected (2B, D) premise and hypothesis "
            f"vectors, got shape {v.shape}"
        )
    vd = v.data
    n, d = vd.shape[0] // 2, vd.shape[1]
    v_p, v_h = vd[:n], vd[n:]
    if use_absdiff_product:
        diff = v_p - v_h
        out = np.concatenate([v_p, v_h, np.abs(diff), v_p * v_h], axis=1)
    else:
        out = np.concatenate([v_p, v_h], axis=1)

    def backward(g):
        g_p, g_h = g[:, :d], g[:, d : 2 * d]
        if use_absdiff_product:
            s = g[:, 2 * d : 3 * d] * np.sign(diff)
            g_m = g[:, 3 * d :]
            g_p = (g_p + g_m * v_h) + s
            g_h = (g_h + g_m * v_p) - s
        # Each half adds into zeros, as two slice records' gradients would
        # be summed, so a -0.0 comes out as +0.0 there too.
        grad = np.zeros_like(vd)
        grad[:n] += g_p
        grad[n:] += g_h
        return (grad,)

    return T._apply(out, (v,), backward)


def mlp_forward(v_inp: Tensor, params: ClassifierParams) -> Tensor:
    """The (B, 3) class logits."""
    h1 = T.affine(v_inp, params.w1, params.b1, relu=True)
    in2 = T.concat([v_inp, h1], axis=1) if params.shortcut else h1
    h2 = T.affine(in2, params.w2, params.b2, relu=True)
    return T.affine(h2, params.w_out, params.b_out, relu=False)


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (B, 3) logits, in their dtype: the row max is
    subtracted before ``exp``."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the B rows of -log softmax(logits)[row, label], as a (1,)
    tensor in the logits' dtype, recorded as one op.

    ``labels`` holds one class id per row (an int for a single row). Each
    row's loss is the max-shifted log-sum-exp minus the gold logit, and the
    gradient is (softmax - one_hot) / B, so no row loses its gradient
    however small its gold probability.
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, n_classes = logits.shape
    if n == 0:
        raise ValueError("cross_entropy: empty batch")
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: {labels.shape} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label outside [0, {n_classes}) in {labels.tolist()}")
    ld = logits.data
    rows = np.arange(n)
    shifted = ld - ld.max(axis=1, keepdims=True)
    losses = np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, labels]

    def backward(g):
        grad = probabilities(ld)
        grad[rows, labels] -= 1.0
        return (grad * (g / n),)

    return T._apply(losses.sum(keepdims=True) / n, (logits,), backward)
