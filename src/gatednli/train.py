"""Optimization, the training loop, evaluation, checkpoints, ensembling.

Training runs seeded shuffled minibatches under Adam with global-norm
gradient clipping, one ``Model.forward`` call per minibatch, evaluates on
the dev set once per epoch, and keeps the checkpoint with the best dev
accuracy; the weights are copied only for a new best. ``clip_global_norm``
only measures the gradients, and ``Adam.step`` applies the clip factor in
its one update pass, on both cores. ``predict`` is the one inference loop:
evaluation, early stopping, the ``eval``, ``ensemble-eval`` and ``predict``
commands all score examples through it. It averages class probabilities
over a list of models sharing one architecture, so a single model is an
ensemble of one. Checkpoints are self-describing binary files that
rebuild the exact model, bit for bit.
"""

from __future__ import annotations

import contextvars
import csv
import json
import math
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import classify as CL
from .data import DataError, NLIExample, Vocab, batchify
from .model import Model, ModelConfig
from .tensor import Graph, Tensor

INFER_BATCH = 64  # pairs per Model.forward call when scoring examples
ADAM_CHUNK = 32768  # values per Adam slice: a thread's slices and scratch fit its L2
CHECKPOINT_MAGIC = b"GNLICKP1"
CHECKPOINT_VERSION = 1
_DTYPE_F64 = 0


class NumericError(Exception):
    """A loss, gradient or class probability is not finite."""


class Adam:
    """Adam over named tensors, reading .grad and updating .data in place.

    A missing gradient counts as zero (the parameter sat out the forward
    pass); a non-finite gradient aborts the step before anything changes.
    Each slice is clipped in place (``g *= scale``), then updated through
    two small scratch buffers in the textbook formula's operation order:
    one pass, no full-size temporaries, results bit for bit the formula's
    on the clipped gradients. A step of two or more full slices shares
    them with one helper thread; they are disjoint, so no value changes.
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
        self._scratch = np.empty((2, 2, ADAM_CHUNK))  # two buffers per thread

    def step(self, max_norm: float = math.inf):
        """g *= max_norm / norm if norm > max_norm;
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        p -= (lr / c1) m / (sqrt(v / c2) + eps).

        norm is ``clip_global_norm``'s pre-clip norm; only a non-finite one
        scans the gradients, and the first holding a NaN or inf raises
        NumericError. Finite entries whose squares overflowed are scaled by
        max_norm / inf = 0. The helper runs in a copy of the caller's context
        (numpy's errstate); if it fails, the step is partly applied and raises.
        """
        norm = clip_global_norm(self.named)
        if not math.isfinite(norm):
            for name, t in self.named.items():
                if t.grad is not None and not np.isfinite(t.grad).all():
                    raise NumericError(f"non-finite gradient in {name}")
        scale = max_norm / norm if norm > max_norm and norm > 0.0 else 1.0
        self.t += 1
        coefs = (scale, self.lr / (1.0 - self.beta1**self.t), 1.0 - self.beta2**self.t)
        jobs = []
        for name, t in self.named.items():
            g = np.zeros_like(t.data) if t.grad is None else t.grad
            flat = [a.reshape(-1) for a in (self.m[name], self.v[name], g, t.data)]
            for lo in range(0, flat[0].size, ADAM_CHUNK):
                jobs.append([a[lo : lo + ADAM_CHUNK] for a in flat])
        if sum(job[0].size == ADAM_CHUNK for job in jobs) < 2:
            return self._update(jobs, 0, *coefs)
        done, ctx = [], contextvars.copy_context()
        helper = threading.Thread(
            target=lambda: done.append(ctx.run(self._update, jobs[1::2], 1, *coefs))
        )
        helper.start()
        try:
            self._update(jobs[::2], 0, *coefs)
        finally:
            helper.join()
        if not done:
            raise RuntimeError("Adam: the helper thread's slices failed")

    def _update(self, jobs, thread: int, scale: float, lr_c1: float, c2: float):
        """The clipped update of each (m, v, g, p) slice in jobs, through
        the given thread's scratch buffers."""
        for m, v, g, p in jobs:
            s1, s2 = self._scratch[thread, :, : m.size]
            if scale != 1.0:
                g *= scale
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


def clip_global_norm(named: dict[str, Tensor]) -> float:
    """The joint L2 norm of the gradients before clipping; writes nothing.

    Tensors without gradients are skipped. ``Adam.step`` computes this
    norm and applies the clip factor inside its update pass.
    """
    total = 0.0
    for t in named.values():
        if t.grad is not None:
            total += float(np.vdot(t.grad, t.grad))
    return float(np.sqrt(total))


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


@np.errstate(over="ignore", invalid="ignore")
def predict(
    models: Sequence[Model], examples: Sequence[NLIExample], vocab: Vocab
) -> np.ndarray:
    """(N, 3) class probabilities of the examples, in order, averaged over
    the models; a single model is an ensemble of one.

    The one inference loop: the examples go through ``Model.forward`` in
    unshuffled batches of ``INFER_BATCH`` pairs, each padded only when its
    turn comes, so memory does not grow with the number of examples. A
    probability that is not finite raises NumericError, naming the first
    such example; that check finds overflow, so numpy's warnings are off.
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
        probs = total / len(models)
        bad = ~np.isfinite(probs).all(axis=1)
        if bad.any():
            first = start + 1 + int(bad.argmax())
            raise NumericError(f"class probabilities of example {first} are not finite")
        out.append(probs)
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


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: Model,
    vocab: Vocab,
    train_set: Sequence[NLIExample],
    dev_set: Sequence[NLIExample],
    settings: TrainSettings,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Epochs of minibatch Adam with per-epoch dev selection.

    A non-finite loss, gradient or dev probability raises NumericError
    naming the epoch; the explicit checks find those, so numpy's overflow
    warnings are off. Weights are copied only for a new best.
    """
    if not train_set:
        raise DataError("train: empty training set")
    if not dev_set:
        raise DataError("train: empty dev set")
    say = log or (lambda _msg: None)
    adam = Adam(model.params.trainable(), lr=settings.lr)
    best: Optional[Checkpoint] = None
    history: list[HistoryRow] = []
    try:
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
                        raise NumericError(f"loss became {loss_value}")
                    g.backward(loss)
                correct += int((probs.data.argmax(axis=1) == batch.labels).sum())
                adam.step(settings.clip_norm)
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
            if best is None or dev.accuracy > best.metadata["dev_accuracy"]:
                meta = dict(epoch=epoch, dev_accuracy=dev.accuracy, seed=model.config.seed)
                best = Checkpoint.from_model(model, vocab, meta)
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
    except NumericError as err:
        raise NumericError(f"epoch {epoch}: {err}") from err
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
