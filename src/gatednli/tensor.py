"""Dense float32 or float64 tensors with tape-based reverse-mode
differentiation.

The ops defined here are the ones the model shares across modules:
``concat``, ``take_rows``, ``segment_max`` and ``affine`` (the char-CNN
filters and the MLP layers, ``relu(x @ w + b)`` or ``x @ w + b``, as one
record each).  A forward pass records onto an explicit :class:`Graph`;
``Graph.backward`` walks the tape once in reverse and accumulates gradients
into every ``requires_grad`` tensor reachable from the loss.

Ops run fine with no active graph (pure forward, nothing recorded),
which is how inference and the numeric side of ``grad_check`` work.
Every op computes in its operands' dtype and allocates in it: a model
built from float32 arrays trains and scores in float32, one built from
float64 arrays (the gradient checks and the test oracles) in float64.
Recording is per thread: an op only ever records onto the graph that its
own thread entered. The fused ops outside this module, the encoder's
BiLSTM layer, the gated-attention and average pools, the classifier's
matching features and its softmax cross-entropy, record themselves through
``_apply`` like the ops here. A record may have several outputs, as the top
BiLSTM layer has its states and its gate; its backward then receives one
gradient per output.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
NORMAL_CHUNK = 32768  # values per draw of normal_param


class TensorError(Exception):
    """Base class for tensor-level failures."""


class ShapeError(TensorError):
    """Operands do not conform for the attempted op."""


class GraphError(TensorError):
    """Misuse of the recording / backward machinery."""


class Tensor:
    """A dense n-dimensional float32 or float64 array with an optional
    gradient slot. Any other input is converted to float64.

    ``spare`` is where the next backward writes a parameter's first
    gradient, straight into it (``take_spare``): the parameter's view of
    the flat gradient buffer that ``Adam`` cuts by the same bounds as the
    weights' when it lays them out, and hands out again at each
    ``zero_grad``. It is None until an ``Adam`` holds the parameter.
    """

    __slots__ = ("data", "requires_grad", "grad", "spare")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in _FLOAT_DTYPES:
            data = data.astype(np.float64)
        self.data: np.ndarray = data
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.spare: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_BackwardFn = Callable[..., tuple]


class _Recording(threading.local):
    graph: Optional["Graph"] = None  # the graph this thread records onto


_recording = _Recording()


class Graph:
    """Tape of executed primitives for one forward/backward pass.

    Records are appended in execution order, so every op's inputs
    precede its output and one reverse sweep visits each op exactly
    once.  A graph is single-use: entering starts recording on the
    calling thread, exiting stops it, and ``backward`` may run once.
    """

    def __init__(self) -> None:
        self._records: list[tuple] = []  # (outputs, inputs, backward) per op
        self._tracked: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Graph":
        if _recording.graph is not None:
            raise GraphError("a Graph is already recording on this thread")
        _recording.graph = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _recording.graph = None
        return False

    def __len__(self) -> int:
        return len(self._records)

    def _connected(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad`` for reachable leaves.

        A backward function receives one gradient per output of its record,
        None for an output that nothing read. For each input it returns None
        or a writeable array that it owns and gives to no other input or
        record: its incoming gradient, an array it allocated, or the input's
        spare from ``take_spare``. So the sweep keeps each first
        contribution, as a leaf's ``.grad`` or an intermediate's gradient,
        and adds later ones into it in place.
        """
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._spent:
            raise GraphError("backward already ran on this graph")
        self._spent = True

        flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for outs, inputs, backward in reversed(self._records):
            gouts = [flowing.pop(id(o), None) for o in outs]
            if all(g is None for g in gouts):
                continue  # no output of the op feeds the loss
            for t, g in zip(inputs, backward(*gouts)):
                if g is None:
                    continue
                if t.requires_grad:
                    if t.grad is None:
                        t.grad = g
                    else:
                        t.grad += g
                elif id(t) in self._tracked:
                    prev = flowing.get(id(t))
                    if prev is None:
                        flowing[id(t)] = g
                    else:
                        prev += g


def _apply(out_data, inputs: tuple[Tensor, ...], backward: _BackwardFn):
    """Wrap an op's output array, or its tuple of output arrays, as a
    Tensor, or a tuple of them, and record the op if an input is connected.
    Every output is a float array, which ``Tensor`` keeps as it is."""
    several = isinstance(out_data, tuple)
    outs = tuple(map(Tensor, out_data)) if several else (Tensor(out_data),)
    g = _recording.graph
    if g is not None and any(g._connected(t) for t in inputs):
        g._records.append((outs, inputs, backward))
        g._tracked.update(map(id, outs))
    return outs if several else outs[0]


def take_spare(t: Tensor) -> Optional[np.ndarray]:
    """The ``out=`` array for a backward function's gradient of ``t``:
    its spare array, handed over once and only while ``t.grad`` is None,
    so that it receives the first contribution; else None, to allocate."""
    if t.grad is not None:
        return None
    spare, t.spare = t.spare, None
    return spare


class _Draws(threading.local):
    pending: Optional[list] = None  # this thread's deferred normal_param fills


_draws = _Draws()


@contextlib.contextmanager
def drawing():
    """Defer the fills of this thread's ``normal_param`` calls to the exit
    of the outermost ``drawing`` block, then make them all on a thread pool
    of at most one worker per core and per tensor. Each fill reads only
    its tensor's own child stream, so the values do not depend on the
    workers or their schedule. Every worker is joined before the block
    exits, and the first failed fill's error is raised there. An error
    inside the block drops the pending fills."""
    if _draws.pending is not None:
        yield
        return
    _draws.pending = pending = []
    try:
        yield
    finally:
        _draws.pending = None
    if not pending:
        return
    workers = min(os.cpu_count() or 1, len(pending))
    with ThreadPoolExecutor(workers, thread_name_prefix="normal_param") as pool:
        fills = [pool.submit(_fill, *fill) for fill in pending]
    for fill in fills:
        fill.result()


def normal_param(rng, scale: float, shape, dtype) -> Tensor:
    """A trainable tensor of N(0, scale^2) values drawn from its own child
    generator, spawned from rng at the call: successive calls take
    successive children, and rng's own stream does not advance. The
    child's float64 draws are rounded to dtype, so models of either dtype
    start from the same weights. They come in chunks of at most
    ``NORMAL_CHUNK`` values, the same values as one full-size draw, with no
    full-size float64 temporary. The fill runs on ``drawing``'s pool: when
    the enclosing block exits, or before return outside one. With rng None
    the tensor is a read-only zero view that costs no memory: a shape-only
    skeleton."""
    if rng is None:
        return Tensor(np.broadcast_to(np.zeros((), dtype), shape), requires_grad=True)
    values = np.empty(shape, dtype)
    with drawing():
        _draws.pending.append((rng.spawn(1)[0], scale, values))
    return Tensor(values, requires_grad=True)


def _fill(child: np.random.Generator, scale: float, values: np.ndarray) -> None:
    flat = values.reshape(-1)
    for lo in range(0, flat.size, NORMAL_CHUNK):
        flat[lo : lo + NORMAL_CHUNK] = child.normal(
            0.0, scale, min(NORMAL_CHUNK, flat.size - lo)
        )


def _check_axis(name: str, t: Tensor, axis: int) -> None:
    if not -t.ndim <= axis < t.ndim:
        raise ShapeError(f"{name}: axis {axis} out of range for shape {t.shape}")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """``x @ w + b`` for a (N, K) x, (K, M) w and (M,) b, followed by
    ``max(·, 0)`` when ``relu`` is set, as one record; the weight's
    gradient is written into its spare array."""
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"affine: {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    if relu:
        np.maximum(out, 0, out=out)

    def backward(g):
        gz = g * (out > 0) if relu else g
        return gz @ wd.T, np.matmul(xd.T, gz, out=take_spare(w)), gz.sum(axis=0)

    return _apply(out, (x, w, b), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    _check_axis("concat", parts[0], axis)
    ndim = parts[0].ndim
    for p in parts[1:]:
        if p.ndim != ndim:
            raise ShapeError(
                f"concat: rank mismatch {parts[0].shape} vs {p.shape}"
            )
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[p.shape for p in parts]} along axis {axis}"
        ) from None
    bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts]).tolist()
    lead = (slice(None),) * (axis % ndim)

    def backward(g):
        return tuple(
            g[lead + (slice(lo, hi),)].copy() for lo, hi in zip(bounds, bounds[1:])
        )

    return _apply(out, tuple(parts), backward)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows of a (V, D) table: a 1-D block of N ids gives (N, D), and
    an (M, k) block gives (M, k*D), each output row's k table rows side by
    side. One record; backward scatter-adds into the gathered rows."""
    if a.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D table, got {a.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim not in (1, 2):
        raise ShapeError(f"take_rows: ids must be 1-D or 2-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(
            f"take_rows: id out of range [0, {a.shape[0]}) in {idx.tolist()}"
        )
    ad = a.data
    k = idx.shape[1] if idx.ndim == 2 else 1
    out = ad[idx].reshape(len(idx), k * ad.shape[1])

    def backward(g):
        z = np.zeros_like(ad)
        np.add.at(z, idx, g.reshape(idx.shape + ad.shape[1:]))
        return (z,)

    return _apply(out, (a,), backward)


def segment_max(a: Tensor, lengths) -> Tensor:
    """Max over consecutive row segments of a 2-D tensor, lengths[s] >= 1
    rows for segment s; gradient routes to the first argmax on ties."""
    ad = a.data
    starts = np.cumsum(lengths) - lengths
    out = np.maximum.reduceat(ad, starts, axis=0)

    def backward(g):
        at_max = ad == np.repeat(out, lengths, axis=0)
        rows = np.where(at_max, np.arange(len(ad))[:, None], len(ad))
        argmax = np.minimum.reduceat(rows, starts, axis=0)  # first per segment
        z = np.zeros_like(ad)
        np.put_along_axis(z, argmax, g, axis=0)
        return (z,)

    return _apply(out, (a,), backward)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def grad_check(
    f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5
) -> float:
    """Compare analytic gradients of ``f`` at ``x`` with central differences.

    A vector-valued ``f`` is checked through ``vdot(w, f(x))``, for a
    cotangent ``w`` drawn from a fixed seed in the output's shape and dtype;
    a one-element output keeps ``w = 1``, so the check is of ``f`` itself.
    Returns max over coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    ``f`` must be deterministic; ``x.requires_grad`` must be set so the
    analytic gradient lands somewhere.
    """
    if eps <= 0:
        raise ValueError(f"grad_check: eps must be positive, got {eps}")
    if not x.requires_grad:
        raise ValueError("grad_check: x must have requires_grad=True")

    x.grad = None
    with Graph() as g:
        out = f(x)
        od = out.data
        if od.size == 1:
            w, loss = np.ones_like(od), out
        else:
            w = np.random.default_rng(0).normal(size=od.shape).astype(od.dtype)
            loss = _apply(np.vdot(w, od).reshape(1), (out,), lambda gz: (w * gz,))
        g.backward(loss)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(np.vdot(w, f(x).data))
        flat[i] = orig - eps
        fm = float(np.vdot(w, f(x).data))
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max()) if rel.size else 0.0
