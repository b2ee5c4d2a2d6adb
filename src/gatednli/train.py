"""Optimization, the training loop, evaluation, checkpoints, ensembling.

Training runs seeded shuffled minibatches under Adam with global-norm
gradient clipping, one ``Model.forward`` call per minibatch, evaluates on
the dev set once per epoch, and keeps the checkpoint with the best dev
accuracy. ``predict`` is the one inference loop: evaluation, early
stopping, the ``eval``, ``ensemble-eval`` and ``predict`` commands all
score examples through it. It averages class probabilities over a list of
models sharing one architecture, so a single model is an ensemble of one.
Checkpoints are self-describing binary files that rebuild the exact model,
bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import classify as CL
from .data import DataError, NLIExample, Vocab, batchify
from .model import Model, ModelConfig
from .tensor import Graph, Tensor

INFER_BATCH = 64  # pairs per Model.forward call when scoring examples
ADAM_CHUNK = 16384  # values per slice of an Adam update; its scratch stays in cache
CHECKPOINT_MAGIC = b"GNLICKP1"
CHECKPOINT_VERSION = 1
_DTYPE_F64 = 0


class NumericError(Exception):
    """A gradient or loss stopped being finite."""


class DivergenceError(NumericError):
    """Training diverged; carries the last checkpoint that was still good."""

    def __init__(self, message: str, checkpoint: Optional["Checkpoint"]):
        super().__init__(message)
        self.checkpoint = checkpoint


class Adam:
    """Adam over named tensors, reading .grad and updating .data in place.

    A missing gradient counts as zero (the parameter sat out the forward
    pass); a non-finite gradient aborts the step before anything changes.
    The update runs slice by slice through two small scratch buffers, in
    the textbook formula's operation order, so it makes no full-size
    temporaries and its results are bit for bit those of the formula.
    Parameters must be C-contiguous, as the update walks their flat views.
    """

    def __init__(
        self,
        named: dict[str, Tensor],
        lr: float = 4e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.named = dict(named)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        for name, tensor in self.named.items():
            if not tensor.data.flags.c_contiguous:
                raise ValueError(f"Adam: parameter {name} is not contiguous")
        self.m = {k: np.zeros_like(v.data) for k, v in self.named.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.named.items()}
        self._scratch = np.empty((2, ADAM_CHUNK))

    def _grads(self) -> dict[str, np.ndarray]:
        out = {}
        for name, tensor in self.named.items():
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            elif not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in {name}")
            out[name] = g
        return out

    def step(self):
        """m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        p -= (lr / c1) m / (sqrt(v / c2) + eps)."""
        grads = self._grads()
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        lr_c1 = self.lr / c1
        for name, tensor in self.named.items():
            flat = [
                a.reshape(-1)
                for a in (self.m[name], self.v[name], grads[name], tensor.data)
            ]
            for lo in range(0, flat[0].size, ADAM_CHUNK):
                m, v, g, p = (a[lo : lo + ADAM_CHUNK] for a in flat)
                s1, s2 = self._scratch[:, : m.size]
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=s1)
                m += s1
                v *= self.beta2
                np.multiply(g, 1.0 - self.beta2, out=s1)
                s1 *= g
                v += s1
                np.divide(v, c2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += self.eps
                np.multiply(m, lr_c1, out=s2)
                s2 /= s1
                p -= s2

    def zero_grad(self):
        for tensor in self.named.values():
            tensor.grad = None


def clip_global_norm(named: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most max_norm.

    Returns the pre-clip norm. Tensors without gradients are skipped.
    """
    total = 0.0
    grads = [t.grad for t in named.values() if t.grad is not None]
    for g in grads:
        total += float(np.vdot(g, g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class _NoDraws:
    """Stands in for the init's random generator when every drawn value
    is overwritten anyway: ``normal`` hands back an unfilled array of the
    requested shape, so the skeleton costs allocations but no draws."""

    @staticmethod
    def normal(loc, scale, size):
        return np.empty(size)


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
        tensors = {
            name: t.data.copy()
            for name, t in model.params.named_tensors().items()
        }
        return cls(
            config=model.config,
            vocab=vocab,
            tensors=tensors,
            metadata=dict(metadata or {}),
        )

    def build_model(self) -> Model:
        """Skeleton of the saved architecture, then overwrite every tensor
        with a copy of the stored values."""
        placeholder = np.zeros((self.vocab.n_words, self.config.word_dim))
        model = Model.initialize(
            self.config, self.vocab.n_chars, placeholder, _NoDraws()
        )
        named = model.params.named_tensors()
        missing = set(named) - set(self.tensors)
        extra = set(self.tensors) - set(named)
        if missing or extra:
            raise DataError(
                f"checkpoint tensors do not match architecture: "
                f"missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for name, arr in self.tensors.items():
            if named[name].data.shape != arr.shape:
                raise DataError(
                    f"checkpoint tensor {name} has shape {arr.shape}, "
                    f"expected {named[name].data.shape}"
                )
            named[name].data[:] = arr
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
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for name in sorted(self.tensors):
                arr = np.ascontiguousarray(self.tensors[name], dtype="<f8")
                name_b = name.encode("utf-8")
                payload = arr.tobytes()
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(struct.pack("<B", _DTYPE_F64))
                fh.write(struct.pack("<Q", len(payload)))
                fh.write(payload)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint; any malformed content raises DataError."""
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as err:
            raise DataError(f"cannot read checkpoint {path}: {err}") from err
        if blob[:8] != CHECKPOINT_MAGIC:
            raise DataError(f"{path} is not a checkpoint file (bad magic)")
        try:
            return cls._parse(memoryview(blob), path)
        except (struct.error, ValueError, KeyError, TypeError) as err:
            raise DataError(f"malformed checkpoint {path}: {err}") from err

    @classmethod
    def _parse(cls, view: memoryview, path: str) -> "Checkpoint":
        (version,) = struct.unpack_from("<I", view, 8)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack_from("<I", view, 12)
        pos = 16
        header = json.loads(bytes(view[pos : pos + header_len]))
        pos += header_len
        tensors = {}
        for _ in range(header["n_tensors"]):
            (name_len,) = struct.unpack_from("<H", view, pos)
            pos += 2
            name = bytes(view[pos : pos + name_len]).decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", view, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}Q", view, pos)
            pos += 8 * ndim
            (dtype_code,) = struct.unpack_from("<B", view, pos)
            pos += 1
            if dtype_code != _DTYPE_F64:
                raise DataError(f"unknown dtype code {dtype_code} in {path}")
            (n_bytes,) = struct.unpack_from("<Q", view, pos)
            pos += 8
            if n_bytes != 8 * math.prod(shape) or pos + n_bytes > len(view):
                raise DataError(
                    f"checkpoint {path}: tensor {name} needs {n_bytes} bytes "
                    f"for shape {shape}, {len(view) - pos} left"
                )
            arr = np.frombuffer(view[pos : pos + n_bytes], dtype="<f8")
            pos += n_bytes
            if not np.isfinite(arr).all():
                raise DataError(
                    f"checkpoint {path}: tensor {name} has a non-finite value"
                )
            # The second copy is kept on purpose: freeing the first one
            # raises glibc's mmap and trim thresholds, so the forward
            # pass's large temporaries reuse heap memory instead of being
            # mapped and unmapped on every batch (2x the page faults).
            tensors[name] = arr.reshape(shape).astype(np.float64).copy()
        return cls(
            config=ModelConfig.from_dict(header["config"]),
            vocab=Vocab.from_json(header["vocab"]),
            tensors=tensors,
            metadata=header["metadata"],
        )


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (3, 3), rows gold, columns predicted
    n: int


def predict(
    models: Sequence[Model], examples: Sequence[NLIExample], vocab: Vocab
) -> np.ndarray:
    """(N, 3) class probabilities of the examples, in order, averaged over
    the models; a single model is an ensemble of one.

    The one inference loop: the examples go through ``Model.forward`` in
    unshuffled batches of ``INFER_BATCH`` pairs, each padded only when its
    turn comes, so memory does not grow with the number of examples.
    """
    if not examples:
        raise DataError("empty dataset")
    out = []
    for start in range(0, len(examples), INFER_BATCH):
        chunk = examples[start : start + INFER_BATCH]
        (batch,) = batchify(chunk, INFER_BATCH, vocab, seed=0, shuffle=False)
        total = np.zeros((batch.size, CL.N_CLASSES))
        for model in models:
            total += model.forward(batch)[0].data
        out.append(total / len(models))
    return np.concatenate(out)


def evaluate_model(
    models: Sequence[Model], examples: Sequence[NLIExample], vocab: Vocab
) -> EvalResult:
    """Accuracy and confusion matrix of the models' mean probabilities."""
    if any(ex.label is None for ex in examples):
        raise DataError("evaluate: dataset contains unlabeled examples")
    predicted = predict(models, examples, vocab).argmax(axis=1)
    confusion = np.zeros((CL.N_CLASSES, CL.N_CLASSES), dtype=np.int64)
    np.add.at(confusion, ([ex.label for ex in examples], predicted), 1)
    n = len(examples)
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
        for name in ("lr", "clip_norm"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
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
    best: Checkpoint
    history: list[HistoryRow]
    model: Model  # final-epoch parameters, not necessarily the best


def _epoch_seed(base_seed: int, epoch: int) -> int:
    return int(
        np.random.SeedSequence([base_seed, epoch]).generate_state(1)[0]
    )


def train(
    model: Model,
    vocab: Vocab,
    train_set: Sequence[NLIExample],
    dev_set: Sequence[NLIExample],
    settings: TrainSettings,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Epochs of minibatch Adam with per-epoch dev selection.

    Raises DivergenceError on a non-finite loss or gradient; the exception
    carries the last end-of-epoch checkpoint (or the initial one).
    """
    if not train_set:
        raise DataError("train: empty training set")
    if not dev_set:
        raise DataError("train: empty dev set")
    say = log or (lambda _msg: None)
    adam = Adam(model.params.trainable(), lr=settings.lr)
    last_good = Checkpoint.from_model(
        model, vocab, {"epoch": 0, "dev_accuracy": 0.0, "seed": model.config.seed}
    )
    best: Optional[Checkpoint] = None
    best_acc = -1.0
    history: list[HistoryRow] = []
    for epoch in range(1, settings.epochs + 1):
        batches = batchify(
            train_set,
            settings.batch_size,
            vocab,
            seed=_epoch_seed(model.config.seed, epoch),
            shuffle=True,
        )
        loss_sum = 0.0
        correct = 0
        for batch in batches:
            with Graph() as g:
                probs, _ = model.forward(batch)
                loss = CL.cross_entropy(probs, batch.labels)
                loss_value = float(loss.data[0])
                if not np.isfinite(loss_value):
                    raise DivergenceError(
                        f"loss became {loss_value} in epoch {epoch}", last_good
                    )
                g.backward(loss)
            correct += int((probs.data.argmax(axis=1) == batch.labels).sum())
            clip_global_norm(adam.named, settings.clip_norm)
            try:
                adam.step()
            except NumericError as err:
                raise DivergenceError(
                    f"epoch {epoch}: {err}", last_good
                ) from err
            adam.zero_grad()
            loss_sum += loss_value * batch.size
        train_loss = loss_sum / len(train_set)
        train_acc = correct / len(train_set)
        dev = evaluate_model([model], dev_set, vocab)
        history.append(
            HistoryRow(epoch=epoch, train_loss=train_loss, dev_acc=dev.accuracy)
        )
        say(
            f"epoch {epoch}: train_loss {train_loss:.4f} "
            f"train_acc {train_acc:.3f} dev_acc {dev.accuracy:.3f}"
        )
        meta = {
            "epoch": epoch,
            "dev_accuracy": dev.accuracy,
            "seed": model.config.seed,
        }
        last_good = Checkpoint.from_model(model, vocab, meta)
        if dev.accuracy > best_acc:
            best_acc = dev.accuracy
            best = last_good
        if settings.stop_train_acc is not None:
            # Stop on the weights being returned, not on the running
            # accuracy above, which mixes the epoch's successive updates.
            fit = evaluate_model([model], train_set, vocab).accuracy
            if fit >= settings.stop_train_acc:
                say(
                    f"early stop: end-of-epoch train accuracy {fit:.3f} "
                    f"reached target"
                )
                break
    return TrainResult(best=best, history=history, model=model)


def write_history(path: str, history: Sequence[HistoryRow]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "dev_acc"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.dev_acc)])


def load_model(path: str) -> tuple[Model, Vocab]:
    """The model and vocabulary of a checkpoint file. The checkpoint's own
    copy of the tensors goes out of scope once the model is built, so it is
    not held while the model scores."""
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
