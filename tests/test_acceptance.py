"""System-level acceptance gate with pinned tolerances.

Nine checks cover gradient fidelity, pooling semantics, pair isolation, a
scaled overfit run on the rule-generated corpus, ablation direction,
ensembling, determinism, persistence, and embedding freezing. Each check prints one
summary line (echoed after the run by the conftest hook) and fails loudly
if its pinned bound is violated.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gatednli import cli as C
from gatednli import compose as CP
from gatednli import synthetic as S
from gatednli import train as TR
from gatednli.compose import GateKind
from gatednli.data import build_vocab, encode_pairs, gather_batch, load_word_vectors
from gatednli.encoder import EncodedSentence
from gatednli.model import Model, ModelConfig
from gatednli.tensor import Tensor

GRAD_TOL = 1e-4
GRAD_BUDGET_S = 120.0
ORACLE_TOL = 1e-10
UNIFORM_TOL = 1e-12
TRAIN_ACC_FLOOR = 0.95
EPOCH_BUDGET = 200
TRAIN_BUDGET_S = 300.0
HELDOUT_FLOOR = 1.0 / 3.0 + 0.30

TOY_MODEL = dict(
    word_dim=12,
    char_dim=6,
    filter_widths=(1, 3),
    filter_channels=8,
    hidden_dim=8,
    n_layers=1,
    mlp_hidden=16,
)
TOY_OPTIM = dict(lr=3e-3, batch_size=16, stop_train_acc=0.995)

REPORT_LINES: list[str] = []


def _report(number: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The pinned 200/60 rule-generated split, in memory and on disk."""
    root = tmp_path_factory.mktemp("accept")
    train_set, dev_set = S.make_split(200, 60, seed=99)
    paths = SimpleNamespace(
        train=str(root / "train.jsonl"),
        dev=str(root / "dev.jsonl"),
        vectors=str(root / "vectors.txt"),
    )
    S.write_corpus_jsonl(paths.train, train_set)
    S.write_corpus_jsonl(paths.dev, dev_set)
    S.write_vector_file(paths.vectors, S.DEFAULT_WORLD, dim=12, seed=7)
    vocab = build_vocab(train_set + dev_set)
    table, _ = load_word_vectors(paths.vectors, vocab, dim=12, seed=7)
    return SimpleNamespace(
        train_set=train_set,
        dev_set=dev_set,
        train_pairs=encode_pairs(train_set, vocab),
        dev_pairs=encode_pairs(dev_set, vocab),
        vocab=vocab,
        table=table,
        paths=paths,
    )


def _fresh_model(corpus, seed: int) -> Model:
    config = ModelConfig(**TOY_MODEL, seed=seed)
    rng = np.random.default_rng(seed)
    return Model.initialize(config, corpus.vocab.n_chars, corpus.table, rng)


def _run_training(corpus, seed: int, ckpt: str):
    model = _fresh_model(corpus, seed)
    word_bytes = model.params.embed.word_table.data.tobytes()
    settings = TR.TrainSettings(epochs=EPOCH_BUDGET, **TOY_OPTIM)
    start = time.monotonic()
    result = TR.train(
        model, corpus.vocab, corpus.train_pairs, corpus.dev_pairs, settings, ckpt
    )
    wall = time.monotonic() - start
    return SimpleNamespace(
        model=model, result=result, ckpt=ckpt, wall=wall, word_bytes_before=word_bytes
    )


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("trained") / "model.ckpt"
    return _run_training(corpus, seed=0, ckpt=str(ckpt))


def _pool_oracle(h: np.ndarray, gates: np.ndarray, complement: bool):
    scores = 1.0 - gates if complement else gates
    norms = np.sqrt((scores * scores).sum(axis=1))
    weights = norms / norms.sum()
    return weights @ h


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAcceptance:
    def test_1_gradient_fidelity(self):
        start = time.monotonic()
        errors = C.gradcheck_all()
        wall = time.monotonic() - start
        worst = max(errors.values())
        ok = worst < GRAD_TOL and wall < GRAD_BUDGET_S
        _report(
            1,
            "gradient fidelity",
            ok,
            f"worst rel err {worst:.2e} < {GRAD_TOL:.0e} over "
            f"{len(errors)} modules, {wall:.1f}s < {GRAD_BUDGET_S:.0f}s",
        )
        assert ok, errors

    def test_2_attention_pool_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            two_d = 2 * int(rng.integers(1, 7))
            h = rng.normal(size=(n, two_d))
            gi, gf, go = rng.uniform(0.02, 0.98, size=(3, n, two_d))
            for kind, gates in ((GateKind.INPUT, gi), (GateKind.FORGET, gf), (GateKind.OUTPUT, go)):
                enc = EncodedSentence(Tensor(h.copy()), Tensor(gates.copy()), np.array([n]))
                got = CP.gated_attention_pool(enc, kind).data[0]
                want = _pool_oracle(h, gates, kind is GateKind.FORGET)
                worst = max(worst, float(np.abs(got - want).max()))
        ok = worst < ORACLE_TOL
        _report(
            2,
            "attention pool oracle",
            ok,
            f"max abs diff {worst:.2e} < {ORACLE_TOL:.0e} over 100 random "
            f"instances x 3 gate kinds",
        )
        assert ok

    def test_3_degenerate_reductions(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(6, 10))
        flat = np.full((6, 10), 0.37)
        enc = EncodedSentence(Tensor(h), Tensor(flat.copy()), np.array([6]))
        v_a = CP.avg_pool(enc).data
        uniform_gap = max(
            float(np.abs(CP.gated_attention_pool(enc, kind).data - v_a).max())
            for kind in GateKind
        )
        h1 = rng.normal(size=(1, 10))
        singles = {
            kind: EncodedSentence(
                Tensor(h1.copy()),
                Tensor(rng.uniform(0.1, 0.9, size=(1, 10))),
                np.array([1]),
            )
            for kind in GateKind
        }
        single = singles[GateKind.INPUT]
        exact = all(
            _same_bits(pool.data, h1)
            for pool in (
                *(CP.gated_attention_pool(enc, kind) for kind, enc in singles.items()),
                CP.avg_pool(single),
                CP.max_pool(single),
            )
        )
        ok = uniform_gap < UNIFORM_TOL and exact
        _report(
            3,
            "degenerate reductions",
            ok,
            f"uniform gates vs average gap {uniform_gap:.2e} < "
            f"{UNIFORM_TOL:.0e}; single position pools bit-exact: {exact}",
        )
        assert ok

    def test_4_pair_isolation(self, corpus, trained):
        # A batch's pairs share one ragged block, but no pair may read
        # another's tokens: overwriting the word ids of every sentence of
        # the odd pairs, then of the even pairs, must leave the other
        # pairs' logits bit for bit and change every overwritten pair's.
        model, _ = TR.load_model(trained.ckpt)
        pairs = encode_pairs(corpus.dev_set[:24], corpus.vocab)
        batches = [gather_batch(pairs, np.arange(lo, lo + 8)) for lo in (0, 8, 16)]

        isolated = changed = True
        mutated_tokens = 0
        for batch in batches:
            before = model.forward(batch).data
            pair_of_token = np.repeat(
                np.arange(2 * batch.size) % batch.size, batch.lengths
            )
            for parity in (1, 0):
                hit = pair_of_token % 2 == parity
                word_ids = batch.word_ids.copy()
                word_ids[hit] = (word_ids[hit] + 3) % corpus.vocab.n_words
                mutated_tokens += int(hit.sum())
                after = model.forward(replace(batch, word_ids=word_ids)).data
                mutated = np.arange(batch.size) % 2 == parity
                isolated = isolated and _same_bits(before[~mutated], after[~mutated])
                changed = changed and bool(
                    np.all(np.any(before[mutated] != after[mutated], axis=1))
                )
        ok = isolated and changed
        _report(
            4,
            "pair isolation",
            ok,
            f"untouched pairs' logits bit-exact: {isolated}; every overwritten "
            f"pair's logits changed: {changed}; {mutated_tokens} word ids "
            f"overwritten across {len(batches)} batches",
        )
        assert ok

    def test_5_overfit_sanity(self, corpus, trained):
        train_acc = TR.evaluate_model([trained.model], corpus.train_pairs).accuracy
        best, best_vocab = TR.load_model(trained.ckpt)
        dev_acc = TR.evaluate_model([best], encode_pairs(corpus.dev_set, best_vocab)).accuracy
        epochs = len(trained.result.history)
        ok = (
            train_acc >= TRAIN_ACC_FLOOR
            and epochs <= EPOCH_BUDGET
            and trained.wall < TRAIN_BUDGET_S
            and dev_acc >= HELDOUT_FLOOR
        )
        _report(
            5,
            "overfit sanity",
            ok,
            f"train acc {train_acc:.3f} >= {TRAIN_ACC_FLOOR} in {epochs} "
            f"epochs, {trained.wall:.0f}s < {TRAIN_BUDGET_S:.0f}s; held-out "
            f"{dev_acc:.3f} >= {HELDOUT_FLOOR:.3f}",
        )
        assert ok

    def test_6_ablation_direction(self, corpus):
        config = C.RunConfig(
            train_path=corpus.paths.train,
            dev_path=corpus.paths.dev,
            vectors_path=corpus.paths.vectors,
            model=ModelConfig(**TOY_MODEL, seed=0),
            optim=TR.TrainSettings(epochs=25, **TOY_OPTIM),
        )
        rows = C.run_ablations(config)
        by_name = dict(rows)
        expected = {
            "full",
            "-gated-att",
            "-char-cnn",
            "-word-embedding",
            "-absdiff-product",
        }
        ok = (
            set(by_name) == expected
            and by_name["-word-embedding"] < by_name["full"]
        )
        _report(
            6,
            "ablation direction",
            ok,
            f"5 configs trained; no-word-vectors dev acc "
            f"{by_name.get('-word-embedding', float('nan')):.3f} < full "
            f"{by_name.get('full', float('nan')):.3f}",
        )
        assert ok, rows

    def test_7_ensemble_averaging(self, corpus, trained):
        ckpt = TR.Checkpoint.load(trained.ckpt)
        single = ckpt.build_model()
        twins = [ckpt.build_model(), ckpt.build_model()]
        five = [ckpt.build_model() for _ in range(5)]
        other = _fresh_model(corpus, seed=31)

        def probs(models):
            return TR.predict(models, corpus.dev_pairs)

        p1 = probs([single])
        pair_exact = _same_bits(probs(twins), p1)
        labels_match = bool(
            (probs(five).argmax(axis=1) == p1.argmax(axis=1)).all()
        )
        order_exact = _same_bits(probs([single, other]), probs([other, single]))
        ok = pair_exact and labels_match and order_exact
        _report(
            7,
            "ensemble averaging",
            ok,
            f"2 copies reproduce single probs bit-exactly: {pair_exact}; "
            f"5 copies keep every predicted label: {labels_match}; "
            f"order swap bit-exact: {order_exact}",
        )
        assert ok

    def test_8_determinism_and_persistence(self, corpus, trained, tmp_path):
        rerun = _run_training(corpus, seed=0, ckpt=str(tmp_path / "rerun.ckpt"))
        first = trained.model.params.named_tensors()
        second = rerun.model.params.named_tensors()
        params_identical = set(first) == set(second) and all(
            _same_bits(first[name].data, second[name].data) for name in first
        )
        history_identical = [
            (r.epoch, r.train_loss, r.dev_acc) for r in trained.result.history
        ] == [(r.epoch, r.train_loss, r.dev_acc) for r in rerun.result.history]

        path = tmp_path / "round_trip.ckpt"
        saved = TR.Checkpoint.load(trained.ckpt)
        saved.save(str(path))
        loaded = TR.Checkpoint.load(str(path))
        round_trip = (
            set(loaded.tensors) == set(saved.tensors)
            and all(
                _same_bits(loaded.tensors[name], saved.tensors[name])
                for name in saved.tensors
            )
            and loaded.vocab.to_json() == saved.vocab.to_json()
            and loaded.config.to_dict() == saved.config.to_dict()
            and loaded.metadata == saved.metadata
        )
        ok = params_identical and history_identical and round_trip
        _report(
            8,
            "determinism and persistence",
            ok,
            f"same-seed retrain bit-identical: {params_identical}; "
            f"history identical: {history_identical}; checkpoint round "
            f"trip bit-exact: {round_trip}",
        )
        assert ok

    def test_9_frozen_word_vectors(self, trained):
        after = trained.model.params.embed.word_table.data.tobytes()
        stored = TR.Checkpoint.load(trained.ckpt).tensors["embed.word_table"].tobytes()
        ok = (
            after == trained.word_bytes_before
            and stored == trained.word_bytes_before
        )
        _report(
            9,
            "frozen word vectors",
            ok,
            f"{len(after)} table bytes identical before and after training, "
            f"in memory and in the checkpoint",
        )
        assert ok
