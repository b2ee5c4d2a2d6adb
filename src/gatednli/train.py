"""Optimization, the training loop, evaluation, checkpoints, ensembling.

Training encodes its training and dev sets once, runs seeded shuffled
minibatches under Adam with global-norm gradient clipping, one
``Model.forward`` call per minibatch, evaluates on the dev set once per
epoch, and keeps the checkpoint with the best dev
accuracy: each new best is written straight from the live weights to a
temporary file next to the checkpoint path, which replaces the path only
when training returns, so training holds one copy of the weights and a
failed run writes nothing. ``clip_global_norm`` only measures the
gradients, and ``Adam.step`` applies the clip factor in its one update
pass over flat buffers of the weights, gradients, ``m`` and ``v``, slice by
slice on the calling thread. Each parameter's gradient is its view of the
flat gradient buffer, which the backward writes into from the first step
on (``Adam.zero_grad`` hands it out again) and which is released when
training returns.
``predict`` is the one inference loop: evaluation, early stopping, the
``eval``, ``ensemble-eval`` and ``predict`` commands all score examples
through it. It averages class probabilities over a list of models
sharing one architecture, so a single model is an ensemble of one.
Checkpoints are self-describing binary files that rebuild the exact
model, bit for bit; a load reads one front to back, each tensor once,
from the file into its own array, and ``load_model`` builds the model
around those arrays, so a served model holds one copy of its weights.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import classify as CL
from .data import (
    DataError,
    EncodedPairs,
    NLIExample,
    Vocab,
    batchify,
    encode_pairs,
    gather_batch,
)
from .model import Model, ModelConfig
from .tensor import Graph, Tensor

INFER_BATCH = 64  # pairs per Model.forward call when scoring examples
ADAM_SLICE_BYTES = 262144  # per array in an Adam slice: 65,536 float32 or 32,768 float64
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # b1, b2 and eps in Adam.step
CHECKPOINT_MAGIC = b"GNLICKP1"
CHECKPOINT_VERSION = 1
# Each tensor's dtype code byte. Files written before float32 training
# hold code 0 only.
_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<f4"): 1}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


class NumericError(Exception):
    """A loss, gradient or class probability is not finite."""


class Adam:
    """Adam over named tensors, reading .grad and updating .data in place.

    Construction lays the parameters out in one flat buffer: each is
    copied in, in any layout, one tensor at a time (so that its own array
    is freed once copied if nothing else holds it), and each ``.data`` is
    rebound to its C-contiguous view. ``m`` and ``v`` are two more flat
    buffers, cut by the same bounds, and each tensor's gradient has a view
    in a fourth, its ``spare`` from the start, which backward writes the
    first contribution into. A gradient held elsewhere is copied into its
    view at the step; a missing one counts as zero (the parameter sat out
    the forward pass); a non-finite one aborts the step before anything
    changes. The update walks the four flat buffers together in slices of
    ``ADAM_SLICE_BYTES`` per array, on the calling thread. Each slice is
    clipped in place (``g *= scale``), then updated through two scratch
    buffers of one slice in the textbook formula's operation order: one
    pass, no full-size temporaries, results bit for bit the formula's on
    the clipped gradients. The parameters must share one dtype.
    """

    def __init__(self, named: dict[str, Tensor], lr: float):
        self.named = dict(named)
        self.lr = lr
        self.t = 0
        dtypes = {t.data.dtype for t in self.named.values()}
        if len(dtypes) > 1:
            raise ValueError(f"Adam: parameters mix dtypes {sorted(map(str, dtypes))}")
        bounds = np.cumsum([0] + [t.data.size for t in self.named.values()]).tolist()
        self._p = np.empty(bounds[-1], dtypes.pop() if dtypes else np.float64)
        self._g = np.empty_like(self._p)
        self.m, self.v = np.zeros_like(self._p), np.zeros_like(self._p)
        self._grads = []
        for t, lo, hi in zip(self.named.values(), bounds, bounds[1:]):
            view = self._p[lo:hi].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            t.spare = self._g[lo:hi].reshape(view.shape)
            self._grads.append(t.spare)
        itemsize = self._p.dtype.itemsize
        self._scratch = np.empty((2, ADAM_SLICE_BYTES // itemsize), self._p.dtype)

    def step(self, max_norm: float = math.inf):
        """g *= max_norm / norm if norm > max_norm;
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        p -= (lr / c1) m / (sqrt(v / c2) + eps).

        norm is ``clip_global_norm``'s pre-clip norm; only a non-finite one
        scans the gradients, and the first holding a NaN or inf raises
        NumericError. Finite entries whose squares overflow even float64 (a
        norm past about 1.3e154) are scaled by max_norm / inf = 0. Each
        ``.grad`` is then the view in the flat buffer that the update
        scaled.
        """
        norm = clip_global_norm(self.named)
        if not math.isfinite(norm):
            for name, t in self.named.items():
                if t.grad is not None and not np.isfinite(t.grad).all():
                    raise NumericError(f"non-finite gradient in {name}")
        scale = max_norm / norm if norm > max_norm and norm > 0.0 else 1.0
        for t, view in zip(self.named.values(), self._grads):
            if t.grad is None:
                view.fill(0)
            elif t.grad is not view:
                view[...] = t.grad
                t.grad = view
        self.t += 1
        lr_c1 = self.lr / (1.0 - ADAM_BETA1**self.t)
        c2 = 1.0 - ADAM_BETA2**self.t
        size = self._scratch.shape[1]
        flat = (self.m, self.v, self._g, self._p)
        for lo in range(0, self._p.size, size):
            m, v, g, p = (a[lo : lo + size] for a in flat)
            s1, s2 = self._scratch[:, : m.size]
            if scale != 1.0:
                g *= scale
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
            m += s1
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=s1)
            s1 *= g
            v += s1
            np.divide(v, c2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += ADAM_EPS
            np.multiply(m, lr_c1, out=s2)
            s2 /= s1
            p -= s2

    def zero_grad(self):
        """Mark every gradient to be overwritten: each tensor's view in the
        flat gradient buffer is its ``spare`` again, which the next backward
        writes the first contribution into, so no step allocates a
        parameter-sized gradient; ``.grad`` is None until it does."""
        for tensor, view in zip(self.named.values(), self._grads):
            tensor.spare, tensor.grad = view, None


def clip_global_norm(named: dict[str, Tensor]) -> float:
    """The joint L2 norm of the gradients before clipping; writes nothing.

    Tensors without gradients are skipped. ``Adam.step`` computes this
    norm and applies the clip factor inside its update pass. A float32
    gradient whose squares overflow float32 is summed again in float64.
    """
    total = 0.0
    for t in named.values():
        if t.grad is not None:
            sq = float(np.vdot(t.grad, t.grad))
            if sq == math.inf and t.grad.dtype != np.float64:
                wide = t.grad.astype(np.float64)
                sq = float(np.vdot(wide, wide))
            total += sq
    return float(np.sqrt(total))


@dataclass
class Checkpoint:
    """Everything needed to rebuild a trained model."""

    config: ModelConfig
    vocab: Vocab
    tensors: dict[str, np.ndarray]
    metadata: dict

    @classmethod
    def from_model(
        cls, model: Model, vocab: Vocab, metadata: Optional[dict] = None
    ) -> "Checkpoint":
        """The model's checkpoint around its live parameter arrays, not
        copies: ``save`` writes the values they hold when it runs."""
        tensors = {name: t.data for name, t in model.params.named_tensors().items()}
        return cls(
            config=model.config,
            vocab=vocab,
            tensors=tensors,
            metadata=dict(metadata or {}),
        )

    def build_model(self) -> Model:
        """The saved architecture around the stored values, in their dtype.

        The skeleton holds shapes only; once the config fits the tensors
        and every name and shape matches, each parameter's ``.data`` is
        rebound to the stored array itself (a C-contiguous copy only where
        it is not one), which hands this checkpoint's memory to the model.
        """
        dtypes = {arr.dtype for arr in self.tensors.values()}
        if len(dtypes) > 1:
            raise DataError(f"checkpoint tensors mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        # Bound the skeleton by the file before building it: each of the
        # config's sizes is a dimension of some tensor, and each layer and
        # filter width owns tensors.
        c = self.config
        sizes = (c.word_dim, c.char_dim, c.filter_channels, c.hidden_dim, c.mlp_hidden)
        largest = max((n for a in self.tensors.values() for n in a.shape), default=0)
        owners = c.n_layers + len(c.filter_widths)
        if max(sizes + c.filter_widths) > largest or owners > len(self.tensors):
            raise DataError(
                f"checkpoint config does not fit its {len(self.tensors)} tensors"
            )
        shape = (self.vocab.n_words, c.word_dim)
        placeholder = np.broadcast_to(np.zeros((), dtype), shape)
        model = Model.initialize(c, self.vocab.n_chars, placeholder, None)
        named = model.params.named_tensors()
        missing = set(named) - set(self.tensors)
        extra = set(self.tensors) - set(named)
        if missing or extra:
            raise DataError(
                f"checkpoint tensors do not match architecture: "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for name, arr in self.tensors.items():
            skeleton = named[name].data
            if skeleton.shape != arr.shape:
                raise DataError(
                    f"checkpoint tensor {name} has shape {arr.shape}, "
                    f"expected {skeleton.shape}"
                )
            named[name].data = np.asarray(arr, skeleton.dtype, order="C")
        return model

    def save(self, path: str):
        header = json.dumps(
            {
                "config": self.config.to_dict(),
                "vocab": self.vocab.to_json(),
                "metadata": self.metadata,
                "n_tensors": len(self.tensors),
            }
        ).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
            for name in sorted(self.tensors):
                arr = self.tensors[name]
                f4 = arr.dtype == np.float32
                arr = np.ascontiguousarray(arr, dtype="<f4" if f4 else "<f8")
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<H", len(name_b)) + name_b)
                fields = (arr.ndim, *arr.shape, _DTYPE_CODES[arr.dtype], arr.nbytes)
                fh.write(struct.pack(f"<B{arr.ndim}QBQ", *fields))
                fh.write(arr)  # the payload, from the array's own memory

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint front to back, each payload by ``readinto``
        straight into its own array once its size is checked against its
        shape and the bytes left; malformed content raises DataError."""
        try:
            fh = open(path, "rb")
        except OSError as err:
            raise DataError(f"cannot read checkpoint {path}: {err}") from err
        with fh:
            if fh.read(8) != CHECKPOINT_MAGIC:
                raise DataError(f"{path} is not a checkpoint file (bad magic)")
            try:
                return cls._read(fh, path)
            except (struct.error, ValueError, KeyError, TypeError) as err:
                raise DataError(f"malformed checkpoint {path}: {err}") from err

    @classmethod
    def _read(cls, fh, path: str) -> "Checkpoint":
        file_size = os.fstat(fh.fileno()).st_size

        def field(fmt: str) -> tuple:
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        version, header_len = field("<II")
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        left = file_size - fh.tell()
        if header_len > left:
            raise DataError(
                f"checkpoint {path}: header needs {header_len} bytes, {left} left"
            )
        header = json.loads(fh.read(header_len))
        tensors = {}
        for _ in range(header["n_tensors"]):
            (name_len,) = field("<H")
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = field("<B")
            shape = field(f"<{ndim}Q")
            (dtype_code,) = field("<B")
            dtype = _CODE_DTYPES.get(dtype_code)
            if dtype is None:
                raise DataError(f"unknown dtype code {dtype_code} in {path}")
            (n_bytes,) = field("<Q")
            left = file_size - fh.tell()
            if n_bytes != dtype.itemsize * math.prod(shape) or n_bytes > left:
                raise DataError(
                    f"checkpoint {path}: tensor {name} needs {n_bytes} bytes "
                    f"for shape {shape}, {left} left"
                )
            arr = np.empty(shape, dtype)
            if fh.readinto(arr) != n_bytes:
                raise DataError(f"checkpoint {path}: tensor {name} is cut short")
            if not np.isfinite(arr).all():
                raise DataError(
                    f"checkpoint {path}: tensor {name} has a non-finite value"
                )
            tensors[name] = arr.astype(dtype.newbyteorder("="), copy=False)
        return cls(
            config=ModelConfig(**header["config"]),
            vocab=Vocab.from_json(header["vocab"]),
            tensors=tensors,
            metadata=header["metadata"],
        )


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (3, 3), rows gold, columns predicted
    n: int


@np.errstate(over="ignore", invalid="ignore")
def predict(
    models: Sequence[Model],
    examples: Sequence[NLIExample] | EncodedPairs,
    vocab: Vocab,
) -> np.ndarray:
    """(N, 3) class probabilities of the examples, in order, averaged over
    the models; a single model is an ensemble of one.

    The one inference loop: the examples are encoded up front, ids only,
    O(tokens) (``encode_pairs``; pairs already encoded are used as they
    are), and go through ``Model.forward`` in unshuffled batches of
    ``INFER_BATCH`` pairs, each gathered only when its turn comes. The
    models' rows are summed in float64 and each sum is renormalised, since
    a float32 softmax sums to 1 only within about 1e-7. A probability that
    is not finite raises NumericError, naming the first such example; that
    check finds overflow, so numpy's warnings are off.
    """
    if not examples:
        raise DataError("empty dataset")
    pairs = encode_pairs(examples, vocab)
    out = []
    for start in range(0, len(pairs), INFER_BATCH):
        batch = gather_batch(pairs, np.arange(start, min(start + INFER_BATCH, len(pairs))))
        total = np.zeros((batch.size, CL.N_CLASSES))
        for model in models:
            total += CL.probabilities(model.forward(batch).data)
        probs = total / total.sum(axis=1, keepdims=True)
        bad = ~np.isfinite(probs).all(axis=1)
        if bad.any():
            first = start + 1 + int(bad.argmax())
            raise NumericError(f"class probabilities of example {first} are not finite")
        out.append(probs)
    return np.concatenate(out)


def evaluate_model(
    models: Sequence[Model],
    examples: Sequence[NLIExample] | EncodedPairs,
    vocab: Vocab,
) -> EvalResult:
    """Accuracy and confusion matrix of the models' mean probabilities."""
    pairs = encode_pairs(examples, vocab)
    if (pairs.labels < 0).any():
        raise DataError("evaluate: dataset contains unlabeled examples")
    predicted = predict(models, pairs, vocab).argmax(axis=1)
    confusion = np.zeros((CL.N_CLASSES, CL.N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (pairs.labels, predicted), 1)
    n = len(pairs)
    return EvalResult(
        accuracy=float(np.trace(confusion)) / n, confusion=confusion, n=n
    )


@dataclass
class TrainSettings:
    """Optimiser settings; stop_train_acc None trains every epoch."""

    lr: float = 4e-4
    batch_size: int = 32
    epochs: int = 10
    clip_norm: float = 10.0
    stop_train_acc: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        target = self.stop_train_acc
        if target is not None and not 0 <= target <= 1:
            raise ValueError(f"stop_train_acc must be in [0, 1], got {target}")
        for name in ("batch_size", "epochs"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    dev_acc: float


@dataclass
class TrainResult:
    """The best epoch's checkpoint metadata (``epoch``, ``dev_accuracy``,
    ``seed``), whose weights are in the checkpoint file ``train`` wrote;
    the history; and the model with its final-epoch parameters, not
    necessarily the best."""

    best: dict
    history: list[HistoryRow]
    model: Model


def _epoch_seed(base_seed: int, epoch: int) -> int:
    return int(
        np.random.SeedSequence([base_seed, epoch]).generate_state(1)[0]
    )


@contextlib.contextmanager
def _writing(checkpoint_path: str):
    """Raises an OSError as DataError naming checkpoint_path, not the
    temporary file beside it that the OS's message names."""
    try:
        yield
    except OSError as err:
        reason = err.strerror or err
        raise DataError(f"cannot write checkpoint {checkpoint_path}: {reason}") from err


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: Model,
    vocab: Vocab,
    train_set: Sequence[NLIExample],
    dev_set: Sequence[NLIExample],
    settings: TrainSettings,
    checkpoint_path: str,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Epochs of minibatch Adam with per-epoch dev selection; the best
    epoch's checkpoint is at checkpoint_path when this returns.

    Each new best is saved from the live parameter arrays, with no copy,
    over a temporary file next to checkpoint_path, which is moved onto the
    path on return and removed on any exception, so a failed run leaves
    the path as it was; a failed write raises DataError naming the path.
    A non-finite loss, gradient or dev probability raises NumericError
    naming the epoch; the explicit checks find those, so numpy's overflow
    warnings are off.
    """
    if not train_set:
        raise DataError("train: empty training set")
    if not dev_set:
        raise DataError("train: empty dev set")
    say = log or (lambda _msg: None)
    train_pairs, dev_pairs = encode_pairs(train_set, vocab), encode_pairs(dev_set, vocab)
    adam = Adam(model.params.trainable(), lr=settings.lr)
    best: Optional[dict] = None
    history: list[HistoryRow] = []
    scratch = f"{checkpoint_path}.{os.urandom(8).hex()}.tmp"
    try:
        for epoch in range(1, settings.epochs + 1):
            batches = batchify(
                train_pairs,
                settings.batch_size,
                vocab,
                seed=_epoch_seed(model.config.seed, epoch),
            )
            loss_sum = 0.0
            correct = 0
            for batch in batches:
                with Graph() as g:
                    logits = model.forward(batch)
                    loss = CL.cross_entropy(logits, batch.labels)
                    loss_value = float(loss.data[0])
                    if not np.isfinite(loss_value):
                        raise NumericError(f"loss became {loss_value}")
                    g.backward(loss)
                correct += int((logits.data.argmax(axis=1) == batch.labels).sum())
                adam.step(settings.clip_norm)
                adam.zero_grad()
                loss_sum += loss_value * batch.size
            train_loss = loss_sum / len(train_set)
            train_acc = correct / len(train_set)
            dev = evaluate_model([model], dev_pairs, vocab)
            history.append(
                HistoryRow(epoch=epoch, train_loss=train_loss, dev_acc=dev.accuracy)
            )
            say(
                f"epoch {epoch}: train_loss {train_loss:.4f} "
                f"train_acc {train_acc:.3f} dev_acc {dev.accuracy:.3f}"
            )
            if best is None or dev.accuracy > best["dev_accuracy"]:
                best = dict(epoch=epoch, dev_accuracy=dev.accuracy, seed=model.config.seed)
                with _writing(checkpoint_path):
                    Checkpoint.from_model(model, vocab, best).save(scratch)
            if settings.stop_train_acc is not None:
                # Stop on the weights being returned, not on the running
                # accuracy above, which mixes the epoch's successive updates.
                fit = evaluate_model([model], train_pairs, vocab).accuracy
                if fit >= settings.stop_train_acc:
                    say(
                        f"early stop: end-of-epoch train accuracy {fit:.3f} "
                        f"reached target"
                    )
                    break
        with _writing(checkpoint_path):
            os.replace(scratch, checkpoint_path)
    except NumericError as err:
        raise NumericError(f"epoch {epoch}: {err}") from err
    finally:  # the file is gone once moved; otherwise the run failed
        with contextlib.suppress(FileNotFoundError):
            os.remove(scratch)
        for tensor in adam.named.values():  # the returned model holds no gradients
            tensor.grad = tensor.spare = None
    return TrainResult(best=best, history=history, model=model)


def write_history(path: str, history: Sequence[HistoryRow]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "dev_acc"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.dev_acc)])


def load_model(path: str) -> tuple[Model, Vocab]:
    """The model and vocabulary of a checkpoint file. The model is built
    around the arrays the file was read into, so it holds the one copy of
    its weights; the checkpoint itself is dropped on return."""
    checkpoint = Checkpoint.load(path)
    return checkpoint.build_model(), checkpoint.vocab


def build_ensemble(
    members: Sequence[tuple[Model, Vocab]],
) -> tuple[list[Model], Vocab]:
    """The models of (model, vocabulary) members, which must share one
    architecture and one vocabulary, and that vocabulary."""
    if not members:
        raise ValueError("ensemble: need at least one model")
    models = [model for model, _ in members]
    sig = models[0].config.signature()
    vocab = members[0][1].to_json()
    for model, other in members[1:]:
        if model.config.signature() != sig:
            raise ValueError("ensemble: checkpoint configs differ")
        if other.to_json() != vocab:
            raise ValueError("ensemble: checkpoint vocabularies differ")
    return models, members[0][1]
