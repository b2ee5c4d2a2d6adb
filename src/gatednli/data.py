"""Corpus ingestion, vocabulary construction, word vectors, batching.

The corpus format is SNLI/MultiNLI-style JSONL: one object per line
with ``sentence1``, ``sentence2``, ``gold_label`` and optionally
pre-tokenized ``sentence{1,2}_binary_parse`` fields; other fields, such as
MultiNLI's ``genre``, are ignored.
Word-vector files are text lines ``token v1 .. vD`` whose fields are
separated by single spaces; trailing whitespace is ignored.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

LABELS = ("entailment", "neutral", "contradiction")
LABEL_TO_ID = {name: i for i, name in enumerate(LABELS)}

PAD_ID = 0
UNK_ID = 1

MAX_WORD_CHARS = 20  # bounds char-CNN cost; longer words are clipped


class DataError(Exception):
    """Unreadable or malformed corpus / vector input."""


@dataclass
class NLIExample:
    premise_tokens: list[str]
    hypothesis_tokens: list[str]
    label: Optional[int]  # index into LABELS; None only for prediction input

    def __post_init__(self):
        if not self.premise_tokens or not self.hypothesis_tokens:
            raise DataError("NLIExample: empty token list")
        if self.label is not None and not 0 <= self.label < len(LABELS):
            raise DataError(f"NLIExample: bad label {self.label}")


@dataclass
class LoadReport:
    total_lines: int = 0
    skipped_unlabeled: int = 0
    malformed: int = 0


@contextmanager
def _utf8(what: str):
    """Reading a text file that is not UTF-8 raises DataError naming it."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise DataError(f"{what} is not UTF-8: {err}") from err


def _parse_tokens(parse: str) -> list[str]:
    return [tok for tok in parse.split() if tok not in ("(", ")")]


def _tokenize(record: dict, side: int) -> list[str]:
    parse = record.get(f"sentence{side}_binary_parse")
    if isinstance(parse, str) and parse.strip():
        return _parse_tokens(parse)
    sentence = record.get(f"sentence{side}", "")
    return sentence.split()


def load_corpus(
    path, require_label: bool = True
) -> tuple[list[NLIExample], LoadReport]:
    """Read a JSONL corpus; skip unlabeled records and count them.

    With ``require_label=False`` (prediction input), records without a
    usable gold label are kept with ``label=None``.
    """
    report = LoadReport()
    examples: list[NLIExample] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    with fh, _utf8(f"corpus {path}"):
        for line in fh:
            line = line.strip()
            if not line:
                continue
            report.total_lines += 1
            try:
                record = json.loads(line)
                premise = _tokenize(record, 1)
                hypothesis = _tokenize(record, 2)
                if not premise or not hypothesis:
                    raise ValueError("empty sentence")
            except (ValueError, TypeError, AttributeError):
                report.malformed += 1
                continue
            gold = record.get("gold_label")
            if not isinstance(gold, str) or gold not in LABEL_TO_ID:
                if require_label:
                    report.skipped_unlabeled += 1
                    continue
                label = None
            else:
                label = LABEL_TO_ID[gold]
            examples.append(NLIExample(premise, hypothesis, label))
    if report.malformed > 0.1 * report.total_lines:
        raise DataError(
            f"corpus {path}: {report.malformed}/{report.total_lines} malformed lines"
        )
    return examples, report


@dataclass
class Vocab:
    word_to_id: dict[str, int]
    char_to_id: dict[str, int]

    @property
    def n_words(self) -> int:
        return len(self.word_to_id) + 2  # pad + unk

    @property
    def n_chars(self) -> int:
        return len(self.char_to_id) + 2

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token, UNK_ID)

    def char_id(self, ch: str) -> int:
        return self.char_to_id.get(ch, UNK_ID)

    def to_json(self) -> dict:
        return {"words": self.word_to_id, "chars": self.char_to_id}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocab":
        """The stored tables. Each must map its entries to the integers
        2 .. len + 1, one id each: the rows of its embedding table."""
        vocab = cls(dict(obj["words"]), dict(obj["chars"]))
        for kind, table in (("word", vocab.word_to_id), ("char", vocab.char_to_id)):
            ids = list(table.values())
            want = range(UNK_ID + 1, UNK_ID + 1 + len(ids))
            if not all(type(i) is int for i in ids) or sorted(ids) != list(want):
                raise ValueError(
                    f"{kind} ids must be exactly {want.start}..{want.stop - 1}"
                )
        return vocab


def build_vocab(examples: Sequence[NLIExample], min_count: int = 1) -> Vocab:
    """Frequency-threshold word vocab plus exhaustive char vocab.

    Id assignment is deterministic: words sorted by (-frequency, word),
    characters lexicographically.  Ids 0/1 are reserved for pad/unk.
    """
    if not examples:
        raise DataError("build_vocab: no examples")
    counts: dict[str, int] = {}
    chars: set[str] = set()
    for ex in examples:
        for tok in ex.premise_tokens + ex.hypothesis_tokens:
            counts[tok] = counts.get(tok, 0) + 1
            chars.update(tok)
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    word_to_id = {w: UNK_ID + 1 + i for i, w in enumerate(kept)}
    char_to_id = {ch: UNK_ID + 1 + i for i, ch in enumerate(sorted(chars))}
    return Vocab(word_to_id, char_to_id)


@dataclass
class VectorReport:
    hits: int = 0
    hits_lowercase: int = 0
    misses: int = 0
    drawn: list[int] = field(default_factory=list)  # <unk> and each miss


def load_word_vectors(
    path, vocab: Vocab, dim: int = 300, seed: int = 0, oov_sigma: float = 0.1
) -> tuple[np.ndarray, VectorReport]:
    """Build the frozen (n_words x dim) table from a text vector file.

    In-vocab rows are copied from the file (raw token first, then
    lowercased token; a token's first line wins); the pad row stays
    zero; every other row is sampled N(0, oov_sigma^2) from a seeded
    generator.
    """
    wanted = vocab.word_to_id
    lowered = {w.lower() for w in wanted}

    rows: dict[str, np.ndarray] = {}  # file token -> its first line's values
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read vectors {path}: {exc}") from exc
    with fh, _utf8(f"vectors {path}"):
        for lineno, line in enumerate(fh, start=1):
            token, sep, rest = line.rstrip().partition(" ")
            if not sep:
                if token:
                    raise DataError(
                        f"vectors {path}: line {lineno} has no space-separated values"
                    )
                continue
            if token not in wanted and token not in lowered:
                continue
            values = rest.split(" ")  # only a wanted row pays for the split
            if len(values) != dim:
                raise DataError(
                    f"vectors {path}: line {lineno} has {len(values)} values, expected {dim}"
                )
            try:
                row = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as err:
                raise DataError(f"vectors {path}: line {lineno}: {err}") from err
            if not np.all(np.isfinite(row)):
                raise DataError(
                    f"vectors {path}: line {lineno} has a non-finite value"
                )
            rows.setdefault(token, row)

    rng = np.random.default_rng(seed)
    table = np.zeros((vocab.n_words, dim), dtype=np.float64)
    report = VectorReport()
    table[UNK_ID] = rng.normal(0.0, oov_sigma, dim)
    report.drawn.append(UNK_ID)
    for word, wid in sorted(wanted.items(), key=lambda kv: kv[1]):
        if word in rows:
            table[wid] = rows[word]
            report.hits += 1
        elif word.lower() in rows:
            table[wid] = rows[word.lower()]
            report.hits_lowercase += 1
        else:
            table[wid] = rng.normal(0.0, oov_sigma, dim)
            report.misses += 1
            report.drawn.append(wid)
    return table, report


def encode_sentence_ids(
    tokens: Sequence[str], vocab: Vocab
) -> tuple[np.ndarray, np.ndarray]:
    """(word_ids (L,), char_ids (L, C)) of a token list. C is the longest
    clipped word; char rows are padded with the pad id."""
    word_ids = np.array([vocab.word_id(t) for t in tokens], dtype=np.int64)
    clipped = [t[:MAX_WORD_CHARS] for t in tokens]
    width = max((len(t) for t in clipped), default=0)
    char_ids = np.full((len(tokens), width), PAD_ID, dtype=np.int64)
    for i, tok in enumerate(clipped):
        for j, ch in enumerate(tok):
            char_ids[i, j] = vocab.char_id(ch)
    return word_ids, char_ids


@dataclass
class EncodedPairs:
    """Pairs as ids, encoded once by ``encode_pairs``: every pair's premise
    tokens, then its hypothesis tokens, pair after pair. Each token has a
    word id and a form id; a form is a distinct clipped char-id row, padded
    to the corpus's longest clipped word, and form ids follow the
    lexicographic order of those rows. Training, scoring and batching take
    pairs in this form only."""

    word_ids: np.ndarray  # (T,) int64
    form_ids: np.ndarray  # (T,) int64
    forms: np.ndarray  # (F, C) int64, pad-id tails, rows in lexicographic order
    starts: np.ndarray  # (P, 2) int64, first token of each premise / hypothesis
    lengths: np.ndarray  # (P, 2) int64
    labels: np.ndarray  # (P,) int64, -1 where unlabeled

    def __len__(self) -> int:
        return len(self.labels)


def encode_pairs(examples: Sequence[NLIExample], vocab: Vocab) -> EncodedPairs:
    """The examples' ids, each distinct token spelled out once."""
    sentences = [s for ex in examples for s in (ex.premise_tokens, ex.hypothesis_tokens)]
    distinct: dict[str, int] = {}
    token_ix = np.array(
        [distinct.setdefault(tok, len(distinct)) for s in sentences for tok in s],
        dtype=np.int64,
    )
    word_ids, char_ids = encode_sentence_ids(list(distinct), vocab)
    forms, form_ids = np.unique(char_ids, axis=0, return_inverse=True)
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    labels = [-1 if ex.label is None else ex.label for ex in examples]
    return EncodedPairs(
        word_ids=word_ids[token_ix],
        # numpy 2.0.0 alone returns the inverse with the input's shape
        form_ids=form_ids.reshape(-1)[token_ix],
        forms=forms,
        starts=(np.cumsum(lengths) - lengths).reshape(-1, 2),
        lengths=lengths.reshape(-1, 2),
        labels=np.array(labels, dtype=np.int64),
    )


@dataclass
class Batch:
    """A batch's 2B sentences as one ragged block of tokens, the B premises
    first and then the B hypotheses; sentence s owns lengths[s] consecutive
    rows, and no row is padding. ``words`` holds the block's distinct
    clipped char-id rows, in lexicographic order, at the corpus's width
    (``EncodedPairs.forms``), and token i spells ``words[inverse[i]]``."""

    word_ids: np.ndarray  # (N,) int64
    words: np.ndarray  # (F, C) int64, pad-id tails
    inverse: np.ndarray  # (N,) int64
    lengths: np.ndarray  # (2B,) int64
    labels: np.ndarray  # (B,) int64

    @property
    def size(self) -> int:
        return len(self.labels)


def gather_batch(pairs: EncodedPairs, rows: np.ndarray) -> Batch:
    """The batch of the given pairs, in order, by numpy gathers."""
    lengths = pairs.lengths[rows].T.reshape(-1)  # premises, then hypotheses
    starts = pairs.starts[rows].T.reshape(-1)
    tokens = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    tokens += np.arange(len(tokens))
    # The distinct forms in id order, and each token's rank among them,
    # from a mask over the form ids: no sort.
    form_ids = pairs.form_ids[tokens]
    present = np.zeros(len(pairs.forms), dtype=bool)
    present[form_ids] = True
    return Batch(
        word_ids=pairs.word_ids[tokens],
        words=pairs.forms[present],
        inverse=(np.cumsum(present) - 1)[form_ids],
        lengths=lengths,
        labels=pairs.labels[rows],
    )


def batchify(pairs: EncodedPairs, batch_size: int, seed: int) -> list[Batch]:
    """Seeded shuffle, then fixed-size batches, each one ragged block of
    its premises' and hypotheses' tokens, made by gathers alone."""
    if batch_size < 1:
        raise DataError(f"batchify: batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(pairs))
    return [
        gather_batch(pairs, order[start : start + batch_size])
        for start in range(0, len(pairs), batch_size)
    ]
