"""Generic tape primitives, the oracles for the program's fused ops.

The program records each MLP and char-CNN layer as one ``T.affine`` and
its matching features as one ``classify.matching_features`` record. The
elementwise, slicing and reduction primitives here compute the same things
one record per step: the tape-aliasing tests in ``test_tensor.py`` and the
LSTM oracle are built from them, and ``affine_chain`` and
``matching_chain`` are the reference for the fused ops, forward and
gradients bit for bit. Their backwards keep ``Graph.backward``'s contract:
each input's gradient is an array the record owns and hands to that input
alone, so ``add`` gives ``b`` a copy of the incoming gradient and
``sum_axis`` a broadcast copy.
"""

from __future__ import annotations

import numpy as np

from gatednli.tensor import (
    ShapeError,
    Tensor,
    _apply,
    _check_axis,
    concat,
    take_spare,
)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to ``shape``, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def backward(g):
        return g @ bd.T, np.matmul(ad.T, g, out=take_spare(b))

    return _apply(out, (a, b), backward)


def _elementwise(name: str, a: Tensor, b: Tensor, fwd, bwd) -> Tensor:
    ad, bd = a.data, b.data
    try:
        np.broadcast_shapes(ad.shape, bd.shape)
    except ValueError:
        raise ShapeError(f"{name}: {a.shape} vs {b.shape}") from None
    out = fwd(ad, bd)

    def backward(g):
        ga, gb = bwd(g, ad, bd)
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _apply(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("add", a, b, lambda x, y: x + y, lambda g, x, y: (g, g.copy()))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("sub", a, b, lambda x, y: x - y, lambda g, x, y: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise("mul", a, b, lambda x, y: x * y, lambda g, x, y: (g * y, g * x))


def absolute(a: Tensor) -> Tensor:
    ad = a.data
    out = np.abs(ad)

    def backward(g):
        return (g * np.sign(ad),)

    return _apply(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    ad = a.data
    out = np.maximum(ad, 0.0)

    def backward(g):
        return (g * (ad > 0.0),)

    return _apply(out, (a,), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    _check_axis("slice_axis", a, axis)
    dim = a.shape[axis]
    if not 0 <= start < stop <= dim:
        raise ShapeError(
            f"slice_axis: range [{start}:{stop}] invalid for axis {axis} of {a.shape}"
        )
    index = (slice(None),) * axis + (slice(start, stop),)
    ad = a.data
    out = ad[index]

    def backward(g):
        z = np.zeros_like(ad)
        z[index] = g
        return (z,)

    return _apply(out, (a,), backward)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    _check_axis("sum_axis", a, axis)
    ad = a.data
    out = ad.sum(axis=axis)

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis), ad.shape).copy(),)

    return _apply(out, (a,), backward)


# ---------------------------------------------------------------------------
# The fused ops as chains of primitives
# ---------------------------------------------------------------------------

def affine_chain(x: Tensor, w: Tensor, b: Tensor, use_relu: bool) -> Tensor:
    """``T.affine`` as matmul -> add -> relu, three records."""
    out = add(matmul(x, w), b)
    return relu(out) if use_relu else out


def matching_chain(v: Tensor, use_absdiff_product: bool = True) -> Tensor:
    """``classify.matching_features`` as slice, sub, absolute, mul and
    concat records."""
    n = v.shape[0] // 2
    v_p, v_h = slice_axis(v, 0, 0, n), slice_axis(v, 0, n, 2 * n)
    if not use_absdiff_product:
        return concat([v_p, v_h], axis=1)
    diff = absolute(sub(v_p, v_h))
    prod = mul(v_p, v_h)
    return concat([v_p, v_h, diff, prod], axis=1)
