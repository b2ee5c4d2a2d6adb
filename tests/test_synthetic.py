"""Tests for the rule-generated corpus and its structured vectors."""

import numpy as np
import pytest

from gatednli import data as D
from gatednli import synthetic as S


def verb_lookup(world):
    antonym = {}
    for a, b in world.verb_pairs:
        antonym[a] = b
        antonym[b] = a
    return antonym


def noun_category(world):
    return {
        noun: cat for cat, nouns in world.categories.items() for noun in nouns
    }


def strip_adverb(tokens, world):
    return [t for t in tokens if t not in world.adverbs]


class TestGeneration:
    def test_labels_balanced(self):
        train, dev = S.make_split(90, 30, seed=0)
        for examples, n in ((train, 90), (dev, 30)):
            counts = np.bincount([ex.label for ex in examples], minlength=3)
            np.testing.assert_array_equal(counts, n // 3)

    def test_rules_hold_on_every_example(self):
        world = S.DEFAULT_WORLD
        antonym = verb_lookup(world)
        categories = noun_category(world)
        train, dev = S.make_split(150, 60, seed=1)
        for ex in train + dev:
            p = strip_adverb(ex.premise_tokens, world)
            h = ex.hypothesis_tokens
            subj_p, verb_p, _, obj_p = p
            subj_h, verb_h, _, obj_h = h
            assert subj_p == subj_h
            if ex.label == S.ENTAILMENT:
                assert verb_h == verb_p
                assert obj_h == categories[obj_p]
            elif ex.label == S.CONTRADICTION:
                assert verb_h == antonym[verb_p]
                assert obj_h == obj_p
            else:
                assert verb_h == verb_p
                cat_p = categories[obj_p]
                cat_h = categories.get(obj_h, obj_h)
                assert cat_h in world.categories
                assert cat_h != cat_p

    def test_dev_premise_nouns_never_trained_on(self):
        world = S.DEFAULT_WORLD
        train, dev = S.make_split(300, 90, seed=2)
        train_objs = {
            strip_adverb(ex.premise_tokens, world)[3] for ex in train
        }
        dev_objs = {strip_adverb(ex.premise_tokens, world)[3] for ex in dev}
        assert train_objs.isdisjoint(dev_objs)

    def test_same_seed_reproduces_split(self):
        a_train, a_dev = S.make_split(60, 21, seed=5)
        b_train, b_dev = S.make_split(60, 21, seed=5)
        assert a_train == b_train
        assert a_dev == b_dev

    def test_corpus_file_round_trip(self, tmp_path):
        train, _ = S.make_split(30, 9, seed=3)
        path = str(tmp_path / "train.jsonl")
        S.write_corpus_jsonl(path, train)
        loaded, report = D.load_corpus(path)
        assert report.total_lines == 30
        assert loaded == train


class TestStructuredVectors:
    def test_category_blocks(self):
        world = S.DEFAULT_WORLD
        vectors = S.structured_vectors(world, dim=12, seed=0)
        cats = sorted(world.categories)
        for c, cat in enumerate(cats):
            name_vec = vectors[cat]
            assert name_vec[c] > 0.5
            assert name_vec[3] > 0.5
            for noun in world.categories[cat]:
                vec = vectors[noun]
                assert vec[c] > 0.5
                assert abs(vec[3]) < 0.5
                other = [i for i in range(3) if i != c]
                assert np.all(np.abs(vec[other]) < 0.5)

    def test_verb_polarity_is_antisymmetric(self):
        world = S.DEFAULT_WORLD
        vectors = S.structured_vectors(world, dim=12, seed=0)
        for p, (verb, antonym) in enumerate(world.verb_pairs):
            assert vectors[verb][4 + p] > 0.5
            assert vectors[antonym][4 + p] > 0.5
            assert vectors[verb][7] > 0.5
            assert vectors[antonym][7] < -0.5

    def test_dim_too_small_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            S.structured_vectors(S.DEFAULT_WORLD, dim=5, seed=0)

    def test_vector_file_feeds_loader(self, tmp_path):
        world = S.DEFAULT_WORLD
        train, dev = S.make_split(60, 21, seed=4)
        vocab = D.build_vocab(train + dev)
        path = str(tmp_path / "vectors.txt")
        S.write_vector_file(path, world, dim=12, seed=0)
        table, report = D.load_word_vectors(path, vocab, dim=12, seed=0)
        assert report.hits > 0
        assert report.misses == 0
        vectors = S.structured_vectors(world, dim=12, seed=0)
        for word, vec in vectors.items():
            wid = vocab.word_id(word)
            if wid != D.UNK_ID:
                np.testing.assert_array_equal(table[wid], vec)
