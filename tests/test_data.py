"""Tests for corpus loading, vocabulary, word vectors, and batching."""

import json
import re

import numpy as np
import pytest

from gatednli import data as D
from gatednli import embed as EM


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def corpus_file(tmp_path, rows, name="corpus.jsonl"):
    path = tmp_path / name
    write_jsonl(path, rows)
    return path


GOOD_ROW = {
    "sentence1": "a dog runs fast",
    "sentence2": "an animal moves",
    "gold_label": "entailment",
    "genre": "fiction",
}
# Gold labels that are no class: the dash, and values that are not strings.
UNUSABLE_LABELS = ["-", ["neutral"], {"label": "neutral"}]


class TestLoadCorpus:
    def test_basic_row(self, tmp_path):
        examples, report = D.load_corpus(corpus_file(tmp_path, [GOOD_ROW]))
        assert len(examples) == 1
        ex = examples[0]
        assert ex.premise_tokens == ["a", "dog", "runs", "fast"]
        assert ex.hypothesis_tokens == ["an", "animal", "moves"]
        assert D.LABELS[ex.label] == "entailment"
        assert report.total_lines == 1 and report.skipped_unlabeled == 0

    def test_dash_label_skipped_and_counted(self, tmp_path):
        rows = [GOOD_ROW] + [dict(GOOD_ROW, gold_label=g) for g in UNUSABLE_LABELS]
        examples, report = D.load_corpus(corpus_file(tmp_path, rows))
        assert len(examples) == 1
        assert report.skipped_unlabeled == len(UNUSABLE_LABELS)
        assert report.malformed == 0

    def test_missing_label_skipped(self, tmp_path):
        row = {k: v for k, v in GOOD_ROW.items() if k != "gold_label"}
        examples, report = D.load_corpus(corpus_file(tmp_path, [row]))
        assert examples == []
        assert report.skipped_unlabeled == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        examples, report = D.load_corpus(path)
        assert examples == []
        assert report.total_lines == 0

    def test_binary_parse_preferred(self, tmp_path):
        row = dict(
            GOOD_ROW,
            sentence1_binary_parse="( ( a dog ) ( runs fast ) )",
            sentence1="a dog runs fast .",
        )
        examples, _ = D.load_corpus(corpus_file(tmp_path, [row]))
        assert examples[0].premise_tokens == ["a", "dog", "runs", "fast"]

    def test_malformed_minority_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            for _ in range(20):
                fh.write(json.dumps(GOOD_ROW) + "\n")
            fh.write("{not json\n")
        examples, report = D.load_corpus(path)
        assert len(examples) == 20
        assert report.malformed == 1

    def test_malformed_majority_errors(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(GOOD_ROW) + "\n")
            fh.write("{not json\n")
        with pytest.raises(D.DataError, match="malformed"):
            D.load_corpus(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(D.DataError, match="cannot read"):
            D.load_corpus(tmp_path / "missing.jsonl")

    def test_unlabeled_kept_for_prediction(self, tmp_path):
        rows = [dict(GOOD_ROW, gold_label=g) for g in UNUSABLE_LABELS]
        examples, _ = D.load_corpus(corpus_file(tmp_path, rows), require_label=False)
        assert len(examples) == len(UNUSABLE_LABELS)
        assert all(ex.label is None for ex in examples)


class TestVocab:
    def examples(self, *sentences):
        return [
            D.NLIExample(s.split(), s.split(), 0) for s in sentences
        ]

    def test_min_count_filters_words(self):
        # corpus token counts: a=2, b=1
        vocab = D.build_vocab([D.NLIExample(["a", "a"], ["b"], 0)], min_count=2)
        assert set(vocab.word_to_id) == {"a"}
        assert vocab.word_id("b") == D.UNK_ID

    def test_min_count_one_keeps_all(self):
        vocab = D.build_vocab(self.examples("x y"), min_count=1)
        assert {"x", "y"} <= set(vocab.word_to_id)

    def test_deterministic_across_builds(self):
        exs = self.examples("c b a", "b c d")
        v1 = D.build_vocab(exs)
        v2 = D.build_vocab(exs)
        assert v1.word_to_id == v2.word_to_id
        assert v1.char_to_id == v2.char_to_id

    def test_ids_dense_and_sentinels_distinct(self):
        vocab = D.build_vocab(self.examples("a b c"))
        ids = sorted(vocab.word_to_id.values())
        assert ids == list(range(2, 2 + len(ids)))
        assert D.PAD_ID != D.UNK_ID

    def test_all_chars_present(self):
        vocab = D.build_vocab(self.examples("ab ba"))
        assert set(vocab.char_to_id) == {"a", "b"}

    def test_roundtrip_json(self):
        vocab = D.build_vocab(self.examples("a b"))
        again = D.Vocab.from_json(vocab.to_json())
        assert again.word_to_id == vocab.word_to_id

    @pytest.mark.parametrize(
        "words, chars, message",
        [
            ({"a": 2, "b": 2}, {"a": 2}, "word ids must be exactly 2..3"),
            ({"a": 2, "b": 4}, {"a": 2}, "word ids must be exactly 2..3"),
            ({"a": 2.0}, {"a": 2}, "word ids must be exactly 2..2"),
            ({"a": 2}, {"a": 1}, "char ids must be exactly 2..2"),
            ({"a": 2}, {"a": True, "b": 3}, "char ids must be exactly 2..3"),
        ],
        ids=["duplicate", "gap", "float", "unk-id", "bool"],
    )
    def test_from_json_requires_every_row_once(self, words, chars, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            D.Vocab.from_json({"words": words, "chars": chars})

    def test_detokenize_roundtrip_in_vocab(self):
        vocab = D.build_vocab(self.examples("the dog runs"))
        words = {i: w for w, i in vocab.word_to_id.items()}
        ids, _ = D.encode_sentence_ids(["the", "dog", "runs"], vocab)
        assert [words[i] for i in ids] == ["the", "dog", "runs"]


def vector_file(tmp_path, rows, dim):
    path = tmp_path / "vecs.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in rows:
            fh.write(token + " " + " ".join(repr(v) for v in vec) + "\n")
    return path


def split_every_line(path, vocab, dim, seed=0, oov_sigma=0.1):
    """Oracle: ``load_word_vectors`` as it was before it skipped unwanted
    lines unsplit; every line is split into all of its fields."""
    wanted = dict(vocab.word_to_id)
    lower_map = {}
    for w in wanted:
        lower_map.setdefault(w.lower(), []).append(w)
    raw_rows, lower_rows = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if len(parts) <= 1:
                if parts[0]:
                    raise D.DataError(f"line {lineno} has no space-separated values")
                continue
            token, values = parts[0], parts[1:]
            if token not in wanted and token not in lower_map:
                continue
            assert len(values) == dim
            row = np.array([float(v) for v in values], dtype=np.float64)
            if token in wanted:
                raw_rows.setdefault(token, row)
            if token in lower_map:
                lower_rows.setdefault(token, row)
    rng = np.random.default_rng(seed)
    table = np.zeros((vocab.n_words, dim), dtype=np.float64)
    report = D.VectorReport()
    table[D.UNK_ID] = rng.normal(0.0, oov_sigma, dim)
    report.drawn.append(D.UNK_ID)
    for word, wid in sorted(wanted.items(), key=lambda kv: kv[1]):
        if word in raw_rows:
            table[wid] = raw_rows[word]
            report.hits += 1
        elif word.lower() in lower_rows:
            table[wid] = lower_rows[word.lower()]
            report.hits_lowercase += 1
        else:
            table[wid] = rng.normal(0.0, oov_sigma, dim)
            report.misses += 1
            report.drawn.append(wid)
    return table, report


class TestWordVectors:
    def vocab(self, *words):
        sent = " ".join(words)
        return D.build_vocab([D.NLIExample(sent.split(), sent.split(), 0)])

    def test_file_rows_copied_bit_for_bit(self, tmp_path):
        vocab = self.vocab("dog", "cat")
        vec = [0.125, -2.5, 3.0]
        path = vector_file(tmp_path, [("dog", vec)], dim=3)
        table, report = D.load_word_vectors(path, vocab, dim=3, seed=1)
        assert np.array_equal(table[vocab.word_id("dog")], np.array(vec))
        assert report.hits == 1
        assert report.misses == 1  # cat

    def test_oov_rows_are_seeded_gaussian(self, tmp_path):
        vocab = self.vocab("dog", "cat")
        path = vector_file(tmp_path, [("dog", [1.0, 2.0])], dim=2)
        t1, _ = D.load_word_vectors(path, vocab, dim=2, seed=42)
        t2, _ = D.load_word_vectors(path, vocab, dim=2, seed=42)
        t3, _ = D.load_word_vectors(path, vocab, dim=2, seed=43)
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1[vocab.word_id("cat")], t3[vocab.word_id("cat")])

    def test_oov_sigma_scale(self, tmp_path):
        sent = " ".join(f"w{i}" for i in range(500))
        vocab = D.build_vocab([D.NLIExample(sent.split(), sent.split(), 0)])
        path = vector_file(tmp_path, [], dim=4)
        table, report = D.load_word_vectors(path, vocab, dim=4, seed=0, oov_sigma=0.1)
        assert report.misses == 500
        sampled = table[2:]  # all OOV rows
        assert abs(sampled.std() - 0.1) < 0.01

    def test_lowercase_fallback(self, tmp_path):
        vocab = self.vocab("Dog")
        path = vector_file(tmp_path, [("dog", [1.0, 2.0])], dim=2)
        table, report = D.load_word_vectors(path, vocab, dim=2, seed=0)
        assert np.array_equal(table[vocab.word_id("Dog")], np.array([1.0, 2.0]))
        assert report.hits_lowercase == 1

    def test_wrong_dim_errors_with_line(self, tmp_path):
        vocab = self.vocab("dog")
        path = vector_file(tmp_path, [("dog", [1.0, 2.0, 3.0])], dim=3)
        with pytest.raises(D.DataError, match="line 1"):
            D.load_word_vectors(path, vocab, dim=2, seed=0)

    def test_trailing_whitespace_accepted(self, tmp_path):
        vocab = self.vocab("dog", "cat", "emu")
        rows = [("dog", [1.0, 2.0]), ("cat", [-0.5, 3.25]), ("emu", [0.0, 1e-3])]
        path = vector_file(tmp_path, rows, dim=2)
        plain, plain_report = D.load_word_vectors(path, vocab, dim=2, seed=0)
        lines = path.read_text().splitlines()
        spaced = tmp_path / "spaced.txt"
        spaced.write_text("".join(line + " \n" for line in lines[:2]) + lines[2] + " \t\r\n")
        table, report = D.load_word_vectors(str(spaced), vocab, dim=2, seed=0)
        assert np.array_equal(table, plain)
        assert report == plain_report
        assert report.hits == 3

    def test_tab_separated_line_rejected(self, tmp_path):
        vocab = self.vocab("dog", "cat")
        path = tmp_path / "tabs.txt"
        path.write_text("dog 1.0 2.0\ncat\t0.5\t0.25\n")
        with pytest.raises(D.DataError, match=f"{path}: line 2 has no space-separated"):
            D.load_word_vectors(str(path), vocab, dim=2, seed=0)

    def test_blank_lines_skipped(self, tmp_path):
        vocab = self.vocab("dog", "cat")
        rows = [("dog", [1.0, 2.0]), ("cat", [-0.5, 3.25])]
        plain, _ = D.load_word_vectors(vector_file(tmp_path, rows, dim=2), vocab, dim=2)
        lines = (tmp_path / "vecs.txt").read_text().splitlines()
        gappy = tmp_path / "gappy.txt"
        gappy.write_text("\n" + lines[0] + "\n \t\n\n" + lines[1] + "\n\n")
        table, report = D.load_word_vectors(str(gappy), vocab, dim=2)
        assert np.array_equal(table, plain)
        assert report.hits == 2

    def test_matches_the_split_every_line_oracle(self, tmp_path):
        # Raw hits (dog, twice: the first wins), lowercase hits (Cat, and
        # Dog through dog), misses (emu, Yak), and unwanted lines: one of
        # the wrong width, one with values that do not parse, one only
        # upper case, one with an empty token.
        vocab = self.vocab("dog", "Cat", "Dog", "emu", "Yak")
        path = tmp_path / "vecs.txt"
        path.write_text(
            "zebra 1.0 2.0 3.0 4.0\n"
            "dog 0.5 -1.25 3e-5\n"
            "\n"
            "cat 7.0 8.0 9.5 \n"
            "gnu x y\n"
            "dog 9.0 9.0 9.0\n"
            "YAK 1.0 1.0 1.0\n"
            " 2.0 2.0 2.0\n"
            "ant 4.0\n"
        )
        table, report = D.load_word_vectors(str(path), vocab, dim=3, seed=7)
        want_table, want_report = split_every_line(str(path), vocab, dim=3, seed=7)
        assert table.tobytes() == want_table.tobytes()
        drawn = [D.UNK_ID, *sorted(map(vocab.word_id, ("emu", "Yak")))]
        assert report == want_report == D.VectorReport(1, 2, 2, drawn)
        # A cased line after its lowercase twin: Dog takes its own line,
        # not dog's, though dog's comes first.
        path.write_text("dog 0.5 -1.25 3e-5\nDog 1.0 2.0 3.0\ncat 7.0 8.0 9.5\n")
        table, report = D.load_word_vectors(str(path), vocab, dim=3, seed=7)
        want_table, want_report = split_every_line(str(path), vocab, dim=3, seed=7)
        assert table.tobytes() == want_table.tobytes()
        assert np.array_equal(table[vocab.word_id("Dog")], [1.0, 2.0, 3.0])
        assert report == want_report == D.VectorReport(2, 1, 2, drawn)
        path.write_text("dog 0.5 -1.25 3e-5\nzebra\n")
        with pytest.raises(D.DataError, match="line 2 has no space-separated"):
            split_every_line(str(path), vocab, dim=3)
        with pytest.raises(D.DataError, match="line 2 has no space-separated"):
            D.load_word_vectors(str(path), vocab, dim=3)

    def test_pad_row_is_zero(self, tmp_path):
        vocab = self.vocab("dog")
        path = vector_file(tmp_path, [("dog", [1.0, 2.0])], dim=2)
        table, _ = D.load_word_vectors(path, vocab, dim=2, seed=0)
        assert np.array_equal(table[D.PAD_ID], np.zeros(2))


class TestBatchify:
    def examples(self, n, length=3):
        return [
            D.NLIExample([f"w{i}{j}" for j in range(length)], ["h"], i % 3)
            for i in range(n)
        ]

    def pairs_for(self, examples):
        return D.encode_pairs(examples, D.build_vocab(examples))

    def test_batch_sizes(self):
        batches = D.batchify(self.pairs_for(self.examples(10)), 4, seed=0)
        assert [b.size for b in batches] == [4, 4, 2]

    def test_mask_matches_lengths(self):
        exs = [
            D.NLIExample(["a", "b", "c"], ["x"], 0),
            D.NLIExample(["a", "b", "c", "d", "e"], ["x", "y"], 1),
        ]
        vocab = D.build_vocab(exs)
        batch = D.gather_batch(D.encode_pairs(exs, vocab), np.arange(2))
        # premises first, then hypotheses, in example order, with each
        # sentence's tokens back to back and no padding between them
        assert batch.lengths.tolist() == [3, 5, 1, 2]
        tokens = "a b c a b c d e x x y".split()
        assert batch.word_ids.tolist() == [vocab.word_id(t) for t in tokens]
        assert D.PAD_ID not in batch.word_ids
        assert batch.words[batch.inverse].tolist() == [[vocab.char_id(t)] for t in tokens]

    def test_same_seed_same_order(self):
        pairs = self.pairs_for(self.examples(17))
        b1 = D.batchify(pairs, 4, seed=9)
        b2 = D.batchify(pairs, 4, seed=9)
        for x, y in zip(b1, b2):
            assert np.array_equal(x.labels, y.labels)
            assert np.array_equal(x.lengths, y.lengths)
            assert np.array_equal(x.word_ids, y.word_ids)

    def test_different_seed_usually_differs(self):
        pairs = self.pairs_for(self.examples(17))
        b1 = D.batchify(pairs, 17, seed=1)
        b2 = D.batchify(pairs, 17, seed=2)
        assert not np.array_equal(b1[0].labels, b2[0].labels)

    def test_long_words_clipped(self):
        pairs = self.pairs_for([D.NLIExample(["x" * 50], ["y"], 0)])
        batches = D.batchify(pairs, 1, seed=0)
        assert batches[0].words.shape == (2, D.MAX_WORD_CHARS)

    def test_bad_batch_size(self):
        with pytest.raises(D.DataError, match="batch_size"):
            D.batchify(self.pairs_for(self.examples(3)), 0, seed=0)


def oracle_batches(examples, batch_size, vocab, seed, width):
    """Each shuffled batch encoded on its own: its tokens' word ids and
    char-id rows, and the rows' distinct values, padded to the given width,
    with each token's index."""
    order = np.random.default_rng(seed).permutation(len(examples))
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start : start + batch_size]]
        tokens = [t for ex in chunk for t in ex.premise_tokens]
        tokens += [t for ex in chunk for t in ex.hypothesis_tokens]
        word_ids, char_ids = D.encode_sentence_ids(tokens, vocab)
        words, inverse = np.unique(char_ids, axis=0, return_inverse=True)
        words = np.pad(words, ((0, 0), (0, width - words.shape[1])), constant_values=D.PAD_ID)
        yield word_ids, words, inverse.reshape(-1)


def oracle_forms(char_ids):
    """The distinct rows of a (T, C) char-id block in lexicographic order,
    found by sorting them as tuples, and each row's index among them."""
    spelled = list(map(tuple, char_ids.tolist()))
    rows = sorted(set(spelled))
    form_of = {row: i for i, row in enumerate(rows)}
    forms = np.array(rows, dtype=np.int64).reshape(len(rows), char_ids.shape[1])
    return forms, np.array([form_of[row] for row in spelled], dtype=np.int64)


class TestEncodedPairs:
    # Tokens that share a clipped char-id row: two spelled with unknown
    # characters, two long words that agree on their first 20 characters
    # (and a third that is exactly those 20), and words that are prefixes
    # of others, single characters among them.
    POOL = ["αβ", "ωψ", "ω", "a" * 20 + "bcd", "a" * 20 + "xyz", "a" * 20,
            "a", "cat", "cats", "c", "at", "dog", "dogs", "do"]

    def examples(self, n=23, seed=4):
        rng = np.random.default_rng(seed)

        def sentence():
            return [self.POOL[i] for i in rng.integers(0, len(self.POOL), rng.integers(1, 7))]

        return [D.NLIExample(sentence(), sentence(), i % 3) for i in range(n)]

    def vocab(self):
        # Built without the Greek words, whose characters stay unknown.
        return D.build_vocab([D.NLIExample(self.POOL[3:], ["x"], 0)])

    def test_forms_match_the_tuple_sort(self):
        exs, vocab = self.examples(), self.vocab()
        tokens = [t for ex in exs for s in (ex.premise_tokens, ex.hypothesis_tokens) for t in s]
        assert set(tokens) == set(self.POOL)
        forms, form_ids = oracle_forms(D.encode_sentence_ids(tokens, vocab)[1])
        pairs = D.encode_pairs(exs, vocab)
        assert pairs.forms.dtype == pairs.form_ids.dtype == np.int64
        assert np.array_equal(pairs.forms, forms)
        assert np.array_equal(pairs.form_ids, form_ids)

    def test_batches_match_per_batch_encoding(self):
        exs, vocab = self.examples(), self.vocab()
        pairs = D.encode_pairs(exs, vocab)
        assert pairs.forms.shape[1] == D.MAX_WORD_CHARS
        assert len(pairs.forms) < len({t[: D.MAX_WORD_CHARS] for t in self.POOL})
        for seed in (1, 2, 3):
            got = D.batchify(pairs, 5, seed=seed)
            want = list(oracle_batches(exs, 5, vocab, seed, D.MAX_WORD_CHARS))
            assert len(got) == len(want) == 5
            for batch, (word_ids, words, inverse) in zip(got, want):
                assert np.array_equal(batch.word_ids, word_ids)
                assert batch.words.dtype == words.dtype
                assert np.array_equal(batch.words, words)
                assert np.array_equal(batch.inverse, inverse)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_char_compose_reads_no_further_than_the_batchs_longest_word(self, dtype):
        # The batch's words come at the corpus's width, set by the third
        # pair's long word; cut to its own longest word, 4 characters, as
        # batches once were, they compose to the same bits, also under a
        # filter wider than that.
        exs = [D.NLIExample(["cat", "c"], ["dogs", "do"], 0),
               D.NLIExample(["at"], ["a"], 1),
               D.NLIExample(["a" * 20 + "bcd"], ["cat"], 2)]
        vocab = D.build_vocab(exs)
        batch = D.gather_batch(D.encode_pairs(exs, vocab), np.arange(2))
        width = (batch.words != D.PAD_ID).sum(axis=1).max()
        assert (width, batch.words.shape[1]) == (4, D.MAX_WORD_CHARS)
        rng = np.random.default_rng(0)
        table = rng.normal(size=(vocab.n_words, 2)).astype(dtype)
        params = EM.init_embed_params(vocab.n_chars, 3, (1, 3, 5), 4, table, rng)
        whole = EM.char_compose(batch.words, params).data
        cut = EM.char_compose(batch.words[:, :width], params).data
        assert whole.dtype == cut.dtype == dtype
        assert whole.tobytes() == cut.tobytes()

    def test_unlabeled_pairs_carry_minus_one(self):
        exs = [D.NLIExample(["a"], ["b"], None), D.NLIExample(["b"], ["a"], 2)]
        assert D.encode_pairs(exs, D.build_vocab(exs)).labels.tolist() == [-1, 2]
