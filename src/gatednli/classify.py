"""Matching features over a sentence-vector pair and the MLP classifier.

Every function here takes a whole batch: row b of each (B, ·) input
belongs to pair b. The pair (premise vector, hypothesis vector) is
expanded into matching features and pushed through two ReLU hidden
layers to three class logits. The training loss is the batch mean of the
softmax cross-entropy, recorded as one fused op; the class probabilities
are computed in plain numpy where they are read. Hidden layers after the
first see the original feature vector next to the previous hidden
activations, echoing the encoder's shortcut wiring; a flag drops that.
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


def matching_features(
    v_p: Tensor, v_h: Tensor, use_absdiff_product: bool = True
) -> Tensor:
    """[v_p; v_h; |v_p - v_h|; v_p * v_h], or just [v_p; v_h] when ablated."""
    if v_p.shape != v_h.shape:
        raise ShapeError(
            f"matching_features: shapes differ, {v_p.shape} vs {v_h.shape}"
        )
    if not use_absdiff_product:
        return T.concat([v_p, v_h], axis=1)
    diff = T.absolute(T.sub(v_p, v_h))
    prod = T.mul(v_p, v_h)
    return T.concat([v_p, v_h, diff, prod], axis=1)


def mlp_forward(v_inp: Tensor, params: ClassifierParams) -> Tensor:
    """The (B, 3) class logits."""
    h1 = T.relu(T.add(T.matmul(v_inp, params.w1), params.b1))
    in2 = T.concat([v_inp, h1], axis=1) if params.shortcut else h1
    h2 = T.relu(T.add(T.matmul(in2, params.w2), params.b2))
    return T.add(T.matmul(h2, params.w_out), params.b_out)


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
