"""The three workloads: inputs, the round's command line, and output checks.

Each workload is built from ``(work_dir, seed)``; it writes its inputs into
``work_dir`` and exposes

- ``argv(index)``: the ``gatednli`` arguments of round ``index``, and
  ``final_checkpoint(index)``: where that round saves its last weights, or
  ``"-"``;
- ``counts(index)``, read after the round: ``pairs``, what ``pairs_per_s``
  counts (training pairs of ``train()``, or prediction records written), and
  ``train_pairs`` / ``forward_pairs``, the pairs that went through a
  backward pass / through the model's forward (training plus dev
  evaluation, or serving), which the per-layer metrics divide by;
  ``nominal_pairs`` is what a round that failed is counted as;
- ``check(rounds)``: a list of failed checks, empty when the outputs are
  right.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import gen
from reference import Reference, cross_entropy

from gatednli import synthetic
from gatednli.data import Vocab, build_vocab, load_corpus, load_word_vectors
from gatednli.model import Model, ModelConfig
from gatednli.train import Checkpoint

# Tolerances are float32-scale, so that a float32 compute path passes the
# same checks. On paper-serve inputs (seeds 101 and 202), the reference run in
# float32 was within 4e-7 of the float64 reference per probability, and the
# paper-train epoch-1 loss within 2e-8. A forward that is wrong in structure
# moves probabilities by far more, and the epoch-1 loss sits 4e-3 from ln 3.
PROB_TOL = 1e-5  # |program - reference| per class probability
LOSS_TOL = 1e-5  # |epoch-1 loss - reference mean cross-entropy|
SUM_TOL = 1e-6  # |sum of a record's probabilities - 1|; a float32 ulp at 1 is 1.2e-7
ROW_TOL = 1e-6  # |word row - vector-file row|; float32 rounds |x| < 4 by < 2.4e-7

# The acceptance suite's batch size for its toy model, at a fixed number of
# epochs and a higher learning rate. At the suite's 3e-3, workload seed 108 was
# still short of the training accuracy floor after 30 epochs. Over the same
# 26 seeds trained for 20 epochs, the epoch from which the weights stayed at
# or above the floor was at most 11 at 1e-2 and at most 7 at 3e-2; at 3e-2
# every seed's weights scored at least 0.995 from epoch 8 to 20. No early
# stop: `gatednli train` stops on the accuracy counted during the epoch's
# updates, not on the weights it returns, so a stop can land on weights below
# the floor (at 1e-2 and a target of 0.995, seed 1276265019 stopped after
# epoch 4 on weights that score 0.935 on the same pairs).
TOY_OPTIM = ["--lr", "3e-2", "--batch-size", "16"]
TRAIN_ACC_FLOOR = 0.95
HELDOUT_FLOOR = 1.0 / 3.0 + 0.30


def _tokens(records):
    return [gen.record_tokens(r) for r in records]


def _label_ids(records):
    return [gen.LABELS.index(r["gold_label"]) for r in records]


def _history(path: str) -> list[float]:
    with open(path) as fh:
        return [float(row["train_loss"]) for row in csv.DictReader(fh)]


def _same_across_rounds(paths: list[str], what: str) -> list[str]:
    blobs = []
    for path in paths:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return [] if all(b == blobs[0] for b in blobs) else [f"{what} differs between rounds of one seed"]


def _vector_rows(path: str, wanted: set[str]) -> dict[str, np.ndarray]:
    rows = {}
    with open(path) as fh:
        for line in fh:
            token, _, rest = line.rstrip("\n").partition(" ")
            if token in wanted and token not in rows:
                rows[token] = np.array([float(v) for v in rest.split(" ")])
    return rows


def check_word_rows(table: np.ndarray, words: dict[str, int], vector_path: str) -> list[str]:
    """In-vocab words with a vector-file row (as written, else lowercased)
    must carry that row, within float32 rounding; both the found and the
    missing case must occur, so both paths of the loader ran."""
    rows = _vector_rows(vector_path, set(words) | {w.lower() for w in words})
    found = 0
    for word, wid in words.items():
        row = rows.get(word, rows.get(word.lower()))
        if row is None:
            continue
        found += 1
        if np.max(np.abs(table[wid] - row)) > ROW_TOL:
            return [f"word row of {word!r} differs from the vector file"]
    if found == 0 or found == len(words):
        return [f"{found} of {len(words)} vocabulary words found in the vector file"]
    return []


class _Train:
    """A ``gatednli train`` round on train.jsonl, dev.jsonl and vectors.txt
    in the work dir; subclasses give the remaining flags."""

    train = True

    def __init__(self, work: str, seed: int):
        self.seed, self.work = seed, work
        self.paths = {k: os.path.join(work, f"{k}.{ext}") for k, ext in (
            ("train", "jsonl"), ("dev", "jsonl"), ("vectors", "txt"))}

    def _out(self, index: int, name: str) -> str:
        return os.path.join(self.work, f"{name}-{index}")

    def flags(self) -> list[str]:
        raise NotImplementedError

    def final_checkpoint(self, index: int) -> str:
        return "-"

    def argv(self, index: int) -> list[str]:
        return [
            "train", "--train-path", self.paths["train"], "--dev-path", self.paths["dev"],
            "--vectors-path", self.paths["vectors"],
            "--checkpoint-path", self._out(index, "model.ckpt"),
            "--history-path", self._out(index, "history.csv"),
            *self.flags(), "--seed", str(self.seed),
        ]


class PaperTrain(_Train):
    """``gatednli train`` at paper dims: 4 SNLI-shaped pairs, one batch of 4,
    3 epochs over the same pairs, 3 dev pairs evaluated after each epoch."""

    N_TRAIN, N_DEV, EPOCHS = 4, 3, 3
    nominal_pairs = N_TRAIN * EPOCHS

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        rng = np.random.default_rng([seed, 1])
        words, cdf = gen.lexicon(rng), gen.zipf_cdf()
        self.records = gen.snli_pairs(self.N_TRAIN, words, cdf, rng)
        dev = gen.snli_pairs(self.N_DEV, words, cdf, rng)
        gen.write_jsonl(self.paths["train"], self.records)
        gen.write_jsonl(self.paths["dev"], dev)
        corpus = {tok for p, h in _tokens(self.records + dev) for tok in p + h}
        gen.write_vector_file(self.paths["vectors"], corpus, words, 300, rng)

    def flags(self) -> list[str]:
        return [*gen.dim_flags(gen.PAPER_DIMS), "--batch-size", str(self.N_TRAIN),
                "--epochs", str(self.EPOCHS)]

    def counts(self, index: int) -> dict:
        return {"pairs": self.nominal_pairs, "train_pairs": self.nominal_pairs,
                "forward_pairs": (self.N_TRAIN + self.N_DEV) * self.EPOCHS}

    def initial_reference(self) -> Reference:
        """The reference forward over the program's initial weights, made the
        way ``gatednli train`` makes them."""
        train_set, _ = load_corpus(self.paths["train"])
        dev_set, _ = load_corpus(self.paths["dev"])
        vocab = build_vocab(train_set + dev_set)
        table, _ = load_word_vectors(self.paths["vectors"], vocab, dim=300, seed=self.seed)
        config = ModelConfig(**gen.PAPER_DIMS, seed=self.seed)
        model = Model.initialize(config, vocab.n_chars, table, np.random.default_rng(self.seed))
        tensors = {k: t.data for k, t in model.params.named_tensors().items()}
        return Reference(tensors, vocab.word_to_id, vocab.char_to_id)

    def check(self, rounds: list[dict]) -> list[str]:
        idx = [r["index"] for r in rounds]
        problems = _same_across_rounds([self._out(i, "history.csv") for i in idx], "loss history")
        losses = _history(self._out(idx[-1], "history.csv"))
        ref = self.initial_reference()
        expected = float(np.mean([
            cross_entropy(ref.probs(p, h), y)
            for (p, h), y in zip(_tokens(self.records), _label_ids(self.records))
        ]))
        del ref  # frees the initial weights before the trained ones load
        problems += check_training_losses(losses, expected, self.EPOCHS)
        ckpt = Checkpoint.load(self._out(idx[-1], "model.ckpt"))
        problems += check_word_rows(ckpt.tensors["embed.word_table"],
                                    ckpt.vocab.word_to_id, self.paths["vectors"])
        return problems


def check_training_losses(losses: list[float], expected_first: float, epochs: int) -> list[str]:
    """Epoch 1 of a single-batch epoch scores the initial weights; later
    passes over the same pairs must score lower."""
    if len(losses) != epochs:
        return [f"{len(losses)} epochs in the history, expected {epochs}"]
    problems = []
    if abs(losses[0] - expected_first) > LOSS_TOL:
        problems.append(f"epoch-1 loss {losses[0]!r} != reference {expected_first!r}")
    if not all(b < a for a, b in zip(losses, losses[1:])):
        problems.append(f"training loss does not fall over passes: {losses}")
    return problems


class PaperServe:
    """``gatednli predict`` at paper dims: 48 SNLI-shaped pairs through a
    checkpoint whose vocabulary comes from 3,000 other generated pairs."""

    train = False
    N_PAIRS, N_VOCAB_PAIRS, N_SAMPLED = 48, 3000, 6
    nominal_pairs = N_PAIRS

    def __init__(self, work: str, seed: int):
        rng = np.random.default_rng([seed, 2])
        words, cdf = gen.lexicon(rng), gen.zipf_cdf()
        counts: dict[str, int] = {}
        for p, h in _tokens(gen.snli_pairs(self.N_VOCAB_PAIRS, words, cdf, rng)):
            for tok in p + h:
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        chars = sorted({ch for w in ranked for ch in w})
        vocab = Vocab({w: 2 + i for i, w in enumerate(ranked)}, {c: 2 + i for i, c in enumerate(chars)})
        self.tensors = gen.serve_tensors(gen.PAPER_DIMS, vocab.n_words, vocab.n_chars, rng)
        self.vocab = vocab
        self.records = gen.snli_pairs(self.N_PAIRS, words, cdf, rng)
        self.sampled = sorted(rng.choice(self.N_PAIRS, self.N_SAMPLED, replace=False).tolist())
        self.work = work
        self.ckpt = os.path.join(work, "model.ckpt")
        self.data = os.path.join(work, "pairs.jsonl")
        Checkpoint(ModelConfig(**gen.PAPER_DIMS, seed=seed), vocab, self.tensors,
                   {"epoch": 0, "dev_accuracy": 0.0, "seed": seed}).save(self.ckpt)
        gen.write_jsonl(self.data, self.records)

    def _out(self, index: int) -> str:
        return os.path.join(self.work, f"predictions-{index}.jsonl")

    def final_checkpoint(self, index: int) -> str:
        return "-"

    def counts(self, index: int) -> dict:
        with open(self._out(index)) as fh:
            written = sum(1 for _ in fh)
        return {"pairs": written, "train_pairs": 0, "forward_pairs": written}

    def argv(self, index: int) -> list[str]:
        return ["predict", "--checkpoint", self.ckpt, "--data", self.data, "--out", self._out(index)]

    def check(self, rounds: list[dict]) -> list[str]:
        paths = [self._out(r["index"]) for r in rounds]
        problems = _same_across_rounds(paths, "predictions")
        with open(paths[-1]) as fh:
            preds = [json.loads(line) for line in fh]
        ref = Reference(self.tensors, self.vocab.word_to_id, self.vocab.char_to_id)
        tokens = _tokens(self.records)
        expected = {i: ref.probs(*tokens[i]) for i in self.sampled}
        return problems + check_predictions(preds, tokens, expected)


def check_predictions(preds: list[dict], tokens, expected: dict[int, np.ndarray]) -> list[str]:
    """Every record is a distribution over the three labels for its pair;
    sampled records match the reference forward."""
    if len(preds) != len(tokens):
        return [f"{len(preds)} prediction records for {len(tokens)} pairs"]
    for i, (rec, (p, h)) in enumerate(zip(preds, tokens)):
        probs = np.asarray(rec["probs"], dtype=float)
        if probs.shape != (3,) or not np.all(np.isfinite(probs)) or np.any(probs < 0):
            return [f"record {i}: probabilities {rec['probs']} are not a distribution"]
        if abs(probs.sum() - 1.0) > SUM_TOL:
            return [f"record {i}: probabilities sum to {probs.sum()!r}"]
        if rec["label"] != gen.LABELS[int(probs.argmax())]:
            return [f"record {i}: label {rec['label']} is not the most probable"]
        if (rec["premise_len"], rec["hypothesis_len"]) != (len(p), len(h)):
            return [f"record {i}: lengths {rec['premise_len']}/{rec['hypothesis_len']}"]
    for i, ref in expected.items():
        probs = np.asarray(preds[i]["probs"], dtype=float)
        if np.max(np.abs(probs - ref)) > PROB_TOL:
            return [f"record {i}: probabilities {probs} vs reference {ref}"]
        top2 = np.sort(ref)[-2:]
        if top2[1] - top2[0] > PROB_TOL and preds[i]["label"] != gen.LABELS[int(ref.argmax())]:
            return [f"record {i}: label {preds[i]['label']} vs reference {gen.LABELS[int(ref.argmax())]}"]
    return []


class ToyTrain(_Train):
    """``gatednli train`` at the acceptance suite's toy dims and batch size
    on the rule-generated corpus: 200 training and 60 held-out pairs, 14
    epochs."""

    N_TRAIN, N_DEV, EPOCHS = 200, 60, 14
    nominal_pairs = N_TRAIN * EPOCHS

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        train_set, dev_set = synthetic.make_split(self.N_TRAIN, self.N_DEV, seed)
        self.sets = {"train": train_set, "dev": dev_set}
        for k, examples in self.sets.items():
            synthetic.write_corpus_jsonl(self.paths[k], examples)
        synthetic.write_vector_file(self.paths["vectors"], synthetic.DEFAULT_WORLD, 12, seed)

    def flags(self) -> list[str]:
        return [*gen.dim_flags(gen.TOY_DIMS), *TOY_OPTIM, "--epochs", str(self.EPOCHS)]

    def final_checkpoint(self, index: int) -> str:
        return self._out(index, "final.ckpt")

    def counts(self, index: int) -> dict:
        epochs = len(_history(self._out(index, "history.csv")))
        return {"pairs": self.N_TRAIN * epochs, "train_pairs": self.N_TRAIN * epochs,
                "forward_pairs": (self.N_TRAIN + self.N_DEV) * epochs}

    def _accuracy(self, path: str, split: str) -> float:
        ckpt = Checkpoint.load(path)
        ref = Reference(ckpt.tensors, ckpt.vocab.word_to_id, ckpt.vocab.char_to_id)
        return reference_accuracy(ref, self.sets[split])

    def check(self, rounds: list[dict]) -> list[str]:
        """Training accuracy of the final weights, held-out accuracy of the
        checkpoint ``gatednli train`` keeps, as in the acceptance suite."""
        idx = [r["index"] for r in rounds]
        problems = _same_across_rounds([self._out(i, "history.csv") for i in idx], "loss history")
        epochs = len(_history(self._out(idx[-1], "history.csv")))
        if epochs != self.EPOCHS:
            problems.append(f"{epochs} epochs in the history, expected {self.EPOCHS}")
        train_acc = self._accuracy(self._out(idx[-1], "final.ckpt"), "train")
        dev_acc = self._accuracy(self._out(idx[-1], "model.ckpt"), "dev")
        return problems + check_learned(train_acc, dev_acc)


def reference_accuracy(ref: Reference, examples) -> float:
    hits = sum(int(ref.probs(ex.premise_tokens, ex.hypothesis_tokens).argmax()) == ex.label
               for ex in examples)
    return hits / len(examples)


def check_learned(train_acc: float, dev_acc: float) -> list[str]:
    problems = []
    if train_acc < TRAIN_ACC_FLOOR:
        problems.append(f"train accuracy {train_acc:.3f} < {TRAIN_ACC_FLOOR}")
    if dev_acc < HELDOUT_FLOOR:
        problems.append(f"held-out accuracy {dev_acc:.3f} < {HELDOUT_FLOOR:.3f}")
    return problems


WORKLOADS = {"paper-train": PaperTrain, "paper-serve": PaperServe, "toy-train": ToyTrain}
