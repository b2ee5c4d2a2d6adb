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
import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

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
    with fh:
        for lineno, line in enumerate(fh, start=1):
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
                logger.debug("skipping malformed line %d of %s", lineno, path)
                continue
            gold = record.get("gold_label")
            if gold not in LABEL_TO_ID:
                if require_label:
                    report.skipped_unlabeled += 1
                    continue
                label = None
            else:
                label = LABEL_TO_ID[gold]
            examples.append(NLIExample(premise, hypothesis, label))
    if report.total_lines == 0:
        logger.warning("corpus %s is empty", path)
    elif report.malformed > 0.1 * report.total_lines:
        raise DataError(
            f"corpus {path}: {report.malformed}/{report.total_lines} malformed lines"
        )
    return examples, report


@dataclass
class Vocab:
    word_to_id: dict[str, int]
    char_to_id: dict[str, int]
    unk_id: int = UNK_ID

    @property
    def n_words(self) -> int:
        return len(self.word_to_id) + 2  # pad + unk

    @property
    def n_chars(self) -> int:
        return len(self.char_to_id) + 2

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token, self.unk_id)

    def char_id(self, ch: str) -> int:
        return self.char_to_id.get(ch, self.unk_id)

    def to_json(self) -> dict:
        return {"words": self.word_to_id, "chars": self.char_to_id}

    @classmethod
    def from_json(cls, obj: dict) -> "Vocab":
        return cls(dict(obj["words"]), dict(obj["chars"]))


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


def load_word_vectors(
    path, vocab: Vocab, dim: int = 300, seed: int = 0, oov_sigma: float = 0.1
) -> tuple[np.ndarray, VectorReport]:
    """Build the frozen (n_words x dim) table from a text vector file.

    In-vocab rows are copied from the file (raw token first, then
    lowercased token); the pad row stays zero; every other row is
    sampled N(0, oov_sigma^2) from a seeded generator.
    """
    wanted: dict[str, int] = {w: i for w, i in vocab.word_to_id.items()}
    lower_map: dict[str, list[str]] = {}
    for w in wanted:
        lower_map.setdefault(w.lower(), []).append(w)

    raw_rows: dict[str, np.ndarray] = {}
    lower_rows: dict[str, np.ndarray] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read vectors {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if len(parts) <= 1:
                if parts[0]:
                    raise DataError(
                        f"vectors {path}: line {lineno} has no space-separated values"
                    )
                continue
            token, values = parts[0], parts[1:]
            if token not in wanted and token not in lower_map:
                continue
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
            if token in wanted:
                raw_rows.setdefault(token, row)
            if token in lower_map:
                lower_rows.setdefault(token, row)

    rng = np.random.default_rng(seed)
    table = np.zeros((vocab.n_words, dim), dtype=np.float64)
    report = VectorReport()
    table[UNK_ID] = rng.normal(0.0, oov_sigma, dim)
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
    return table, report


def encode_sentence_ids(
    tokens: Sequence[str], vocab: Vocab, max_word_chars: int = MAX_WORD_CHARS
) -> tuple[np.ndarray, np.ndarray]:
    """Token list -> (word_ids (L,), char_ids (L, C)) with C = longest
    clipped word; char rows are padded with the pad id."""
    word_ids = np.array([vocab.word_id(t) for t in tokens], dtype=np.int64)
    clipped = [t[:max_word_chars] for t in tokens]
    width = max(len(t) for t in clipped)
    char_ids = np.full((len(tokens), width), PAD_ID, dtype=np.int64)
    for i, tok in enumerate(clipped):
        for j, ch in enumerate(tok):
            char_ids[i, j] = vocab.char_id(ch)
    return word_ids, char_ids


@dataclass
class SideBatch:
    """Sentences padded to one grid; mask row s is ones over sentence s's
    tokens, then zeros."""

    word_ids: np.ndarray  # (S, L_max) int64
    char_ids: np.ndarray  # (S, L_max, C_max) int64
    mask: np.ndarray      # (S, L_max) int64 in {0, 1}


@dataclass
class Batch:
    sentences: SideBatch  # 2B rows: the B premises, then the B hypotheses
    labels: np.ndarray  # (B,) int64

    @property
    def size(self) -> int:
        return len(self.labels)


def _pack_sentences(
    sentences: list[tuple[np.ndarray, np.ndarray]],
) -> SideBatch:
    """Pad (word_ids, char_ids) sentences to the longest one and word."""
    b = len(sentences)
    l_max = max(w.shape[0] for w, _ in sentences)
    c_max = max(c.shape[1] for _, c in sentences)
    word_ids = np.full((b, l_max), PAD_ID, dtype=np.int64)
    char_ids = np.full((b, l_max, c_max), PAD_ID, dtype=np.int64)
    mask = np.zeros((b, l_max), dtype=np.int64)
    for i, (w, c) in enumerate(sentences):
        n = w.shape[0]
        word_ids[i, :n] = w
        char_ids[i, :n, : c.shape[1]] = c
        mask[i, :n] = 1
    return SideBatch(word_ids, char_ids, mask)


def batchify(
    examples: Sequence[NLIExample],
    batch_size: int,
    vocab: Vocab,
    seed: int,
    shuffle: bool = True,
) -> list[Batch]:
    """Seeded shuffle, then fixed-size batches, each batch's premises and
    hypotheses padded together to the batch's maxima."""
    if batch_size < 1:
        raise DataError(f"batchify: batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(examples))
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(examples))
    batches: list[Batch] = []
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start : start + batch_size]]
        sentences = [encode_sentence_ids(ex.premise_tokens, vocab) for ex in chunk]
        sentences += [encode_sentence_ids(ex.hypothesis_tokens, vocab) for ex in chunk]
        labels = np.array(
            [-1 if ex.label is None else ex.label for ex in chunk], dtype=np.int64
        )
        batches.append(Batch(_pack_sentences(sentences), labels))
    return batches
