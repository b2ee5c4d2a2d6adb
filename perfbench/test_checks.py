"""Tests of the benchmark's own checks: each passes on the program's real
output and fails on a deliberately perturbed one.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from reference import Reference, cross_entropy  # noqa: E402

from gatednli import cli  # noqa: E402
from gatednli.data import build_vocab, encode_sentence_ids, load_corpus, load_word_vectors  # noqa: E402
from gatednli.model import Model, ModelConfig  # noqa: E402
from gatednli.train import Checkpoint  # noqa: E402

# Small dims that still have a filter wider than short words and a shortcut
# layer, so every branch of the reference runs.
DIMS = dict(gen.TOY_DIMS, filter_widths=(1, 3, 5), n_layers=2)
FLAGS = gen.dim_flags(DIMS)
SEED, N_TRAIN, EPOCHS = 3, 6, 3
LONG_WORD = "x" * 25


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A single-batch toy training run and a predict run, through the CLI."""
    d = tmp_path_factory.mktemp("bench")
    rng = np.random.default_rng(SEED)
    words, cdf = gen.lexicon(rng, 400), gen.zipf_cdf(400)
    train = gen.snli_pairs(N_TRAIN, words, cdf, rng)
    dev = gen.snli_pairs(3, words, cdf, rng)
    train[0] = {"sentence1": train[0]["sentence1"] + " " + LONG_WORD + " Ab",
                "sentence2": train[0]["sentence2"], "gold_label": train[0]["gold_label"]}
    paths = {k: str(d / f) for k, f in [("train", "train.jsonl"), ("dev", "dev.jsonl"),
                                        ("vectors", "vectors.txt"), ("ckpt", "model.ckpt"),
                                        ("history", "history.csv"), ("preds", "preds.jsonl")]}
    gen.write_jsonl(paths["train"], train)
    gen.write_jsonl(paths["dev"], dev)
    corpus = {t for r in train + dev for s in gen.record_tokens(r) for t in s}
    gen.write_vector_file(paths["vectors"], corpus, words, 12, rng)
    assert cli.main(["train", "--train-path", paths["train"], "--dev-path", paths["dev"],
                     "--vectors-path", paths["vectors"], "--checkpoint-path", paths["ckpt"],
                     "--history-path", paths["history"], *FLAGS, "--lr", "1e-2",
                     "--batch-size", str(N_TRAIN), "--epochs", str(EPOCHS),
                     "--seed", str(SEED)]) == 0
    assert cli.main(["predict", "--checkpoint", paths["ckpt"], "--data", paths["train"],
                     "--out", paths["preds"]]) == 0
    with open(paths["preds"]) as fh:
        preds = [json.loads(line) for line in fh]
    ckpt = Checkpoint.load(paths["ckpt"])
    ref = Reference(ckpt.tensors, ckpt.vocab.word_to_id, ckpt.vocab.char_to_id)
    tokens = [gen.record_tokens(r) for r in train]
    return dict(paths=paths, train=train, tokens=tokens, preds=preds, ckpt=ckpt, ref=ref)


def test_reference_matches_program_forward(run):
    model = run["ckpt"].build_model()
    vocab = run["ckpt"].vocab
    examples, _ = load_corpus(run["paths"]["train"])
    assert LONG_WORD in examples[0].premise_tokens
    for ex in examples:
        pw, pc = encode_sentence_ids(ex.premise_tokens, vocab)
        hw, hc = encode_sentence_ids(ex.hypothesis_tokens, vocab)
        got = model.predict_probs(pw, pc, hw, hc)
        want = run["ref"].probs(ex.premise_tokens, ex.hypothesis_tokens)
        assert np.max(np.abs(got - want)) < W.PROB_TOL


def test_prediction_check(run):
    expected = {i: run["ref"].probs(*t) for i, t in enumerate(run["tokens"])}
    preds, tokens = run["preds"], run["tokens"]
    assert W.check_predictions(preds, tokens, expected) == []

    def fails(preds=preds, expected=expected):
        return W.check_predictions(preds, tokens, expected) != []

    def edit(i, **fields):
        out = [dict(p) for p in preds]
        out[i].update(fields)
        return out

    # A logit moved by 1e-3 moves a probability by about 2e-4, 20 x PROB_TOL.
    nudged = run["ckpt"].tensors["classify.b_out"] + np.array([1e-3, 0.0, 0.0])
    tensors = dict(run["ckpt"].tensors, **{"classify.b_out": nudged})
    off = Reference(tensors, run["ckpt"].vocab.word_to_id, run["ckpt"].vocab.char_to_id)
    assert fails(expected={0: off.probs(*tokens[0])})
    assert fails(preds=edit(1, probs=[p * 1.01 for p in preds[1]["probs"]]))
    assert fails(preds=edit(2, probs=[float("nan"), 0.5, 0.5]))
    top = int(np.argmax(preds[3]["probs"]))
    assert fails(preds=edit(3, label=gen.LABELS[(top + 1) % 3]))
    assert fails(preds=edit(4, premise_len=preds[4]["premise_len"] + 1))
    assert fails(preds=preds[:-1])


def test_training_loss_check(run):
    paths = run["paths"]
    train_set, _ = load_corpus(paths["train"])
    dev_set, _ = load_corpus(paths["dev"])
    vocab = build_vocab(train_set + dev_set)
    table, _ = load_word_vectors(paths["vectors"], vocab, dim=12, seed=SEED)
    model = Model.initialize(ModelConfig(**DIMS, seed=SEED), vocab.n_chars, table,
                             np.random.default_rng(SEED))
    ref = Reference({k: t.data for k, t in model.params.named_tensors().items()},
                    vocab.word_to_id, vocab.char_to_id)
    labels = [gen.LABELS.index(r["gold_label"]) for r in run["train"]]
    expected = float(np.mean([cross_entropy(ref.probs(*t), y)
                              for t, y in zip(run["tokens"], labels)]))
    losses = W._history(paths["history"])
    assert W.check_training_losses(losses, expected, EPOCHS) == []
    assert W.check_training_losses(losses, expected + 0.5 * W.LOSS_TOL, EPOCHS) == []
    assert W.check_training_losses(losses, expected + 2 * W.LOSS_TOL, EPOCHS) != []
    assert W.check_training_losses(losses[::-1], expected, EPOCHS) != []
    assert W.check_training_losses(losses[:-1], expected, EPOCHS) != []


def test_word_row_check(run):
    table = run["ckpt"].tensors["embed.word_table"].copy()
    words = run["ckpt"].vocab.word_to_id
    assert W.check_word_rows(table, words, run["paths"]["vectors"]) == []
    rows = W._vector_rows(run["paths"]["vectors"], {w.lower() for w in words})
    hit = next(w for w in words if w.lower() in rows)
    # A float32 copy of the table passes; a row moved by more than ROW_TOL fails.
    assert W.check_word_rows(table.astype(np.float32), words, run["paths"]["vectors"]) == []
    table[words[hit], 0] += 2 * W.ROW_TOL
    assert W.check_word_rows(table, words, run["paths"]["vectors"]) != []


def test_learned_check(run):
    assert W.check_learned(W.TRAIN_ACC_FLOOR, W.HELDOUT_FLOOR) == []
    assert W.check_learned(W.TRAIN_ACC_FLOOR - 0.01, 1.0) != []
    assert W.check_learned(1.0, W.HELDOUT_FLOOR - 0.01) != []
    # A model that always predicts one class cannot pass on balanced labels.
    tensors = dict(run["ckpt"].tensors, **{"classify.w_out": np.zeros((16, 3)),
                                           "classify.b_out": np.array([1.0, 0.0, 0.0])})
    flat = Reference(tensors, run["ckpt"].vocab.word_to_id, run["ckpt"].vocab.char_to_id)
    examples, _ = load_corpus(run["paths"]["train"])
    acc = W.reference_accuracy(flat, examples)
    assert W.check_learned(acc, acc) != []


def test_rounds_must_agree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"1.0\n")
    b.write_bytes(b"1.0\n")
    assert W._same_across_rounds([str(a), str(b)], "x") == []
    b.write_bytes(b"1.1\n")
    assert W._same_across_rounds([str(a), str(b)], "x") != []


def test_traced_round_sees_every_layer(run, tmp_path):
    marks, trace = tmp_path / "marks.json", tmp_path / "trace.jsonl"
    p = run["paths"]
    argv = ["train", "--train-path", p["train"], "--dev-path", p["dev"],
            "--vectors-path", p["vectors"], "--checkpoint-path", str(tmp_path / "m.ckpt"),
            *FLAGS, "--batch-size", "3", "--epochs", "1"]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "entry.py"), SRC, str(marks),
                           str(trace), "-", "--", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(marks.read_text())
    assert out["trace"]["absent"] == []
    train_only = {"train.checkpoint_load", "train.build_model"}
    assert {key for key, _, _ in tracer.TRACED} - set(out["trace"]["totals"]) == train_only
    assert out["trace"]["tape"] > 0
    assert out["marks"]["start"] < out["marks"]["first_pair"] < out["marks"]["train_exit"]
    assert len(trace.read_text().splitlines()) == sum(
        t["calls"] for t in out["trace"]["totals"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
