"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed. The program under
test only ever sees the files these functions write: SNLI-style JSONL
corpora, a GloVe-style text vector file, and (for serving) a checkpoint
whose weights the benchmark draws itself.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

LABELS = ("entailment", "neutral", "contradiction")
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# Paper dims (the program's own defaults): 300-d words, 15-d chars, filter
# widths 1/3/5 with 100 channels each, 600-d hidden, 3 layers, 600-d MLP.
PAPER_DIMS = dict(
    word_dim=300, char_dim=15, filter_widths=(1, 3, 5), filter_channels=100,
    hidden_dim=600, n_layers=3, mlp_hidden=600,
)
# The acceptance suite's toy dims.
TOY_DIMS = dict(
    word_dim=12, char_dim=6, filter_widths=(1, 3), filter_channels=8,
    hidden_dim=8, n_layers=1, mlp_hidden=16,
)

# The shape of the generated traffic. Real SNLI and GloVe files are not in
# the repository, so only the values marked "source" come from a publication;
# the others are chosen and unverified. README.md lists the metrics each
# value sets. Re-derive them from the real files once those are added.
#
# Source: Bowman et al., "A large annotated corpus for learning natural
# language inference", EMNLP 2015, Table 3: mean token count 14.1 (premise)
# and 8.3 (hypothesis). Unverified: the standard deviations and the
# log-normal law.
PREMISE_LEN = (14.1, 6.0)
HYPOTHESIS_LEN = (8.3, 3.2)
ZIPF_EXPONENT = 1.1  # unverified
N_TYPES = 20000  # unverified
LONG_WORD_SHARE = 0.02  # unverified; words of 21-30 chars, past the program's 20-char clip
VECTOR_HIT_SHARE = 0.85  # unverified; corpus word types with a row in the vector file
# Chosen to keep set-up short. The 300-d GloVe 840B file (Pennington et
# al., EMNLP 2014; the GloVe project page lists 2.2M cased word types) is
# about 110 times longer.
VECTOR_LINES = 20000
VECTOR_SCALE = 0.4  # unverified; sd of a vector coordinate


def dim_flags(dims: dict) -> list[str]:
    """``gatednli train`` flags for a dict of ModelConfig dims."""
    out = []
    for key, value in dims.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        out += [f"--{key.replace('_', '-')}", text]
    return out


def lexicon(rng: np.random.Generator, n_types: int = N_TYPES) -> list[str]:
    """Distinct lowercase word types, frequent ones short, some very long."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_types:
        rank = len(words)
        if rng.random() < LONG_WORD_SHARE:
            n = int(rng.integers(21, 31))
        else:
            n = 1 + int(rng.poisson(1.5 + 1.5 * np.log10(rank + 1)))
        word = "".join(rng.choice(list(ALPHABET), size=n))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_cdf(n_types: int = N_TYPES) -> np.ndarray:
    """Cumulative Zipf distribution over word ranks."""
    p = 1.0 / np.arange(1, n_types + 1) ** ZIPF_EXPONENT
    return np.cumsum(p / p.sum())


def stratified_lengths(n: int, mean_sd: tuple[float, float], rng) -> list[int]:
    """n log-normal lengths taken at evenly spaced quantiles, then shuffled.

    The multiset of lengths depends only on n, so every seed gives the same
    total work; the seed decides which pair gets which length.
    """
    mean, sd = mean_sd
    sigma2 = np.log(1.0 + (sd / mean) ** 2)
    mu = np.log(mean) - sigma2 / 2.0
    normal = statistics.NormalDist()
    lengths = [
        max(2, int(round(np.exp(mu + np.sqrt(sigma2) * normal.inv_cdf((i + 0.5) / n)))))
        for i in range(n)
    ]
    return [lengths[i] for i in rng.permutation(n)]


def _sentence(words, cdf, length, rng) -> list[str]:
    ids = np.minimum(np.searchsorted(cdf, rng.random(length)), len(words) - 1)
    tokens = [words[i] for i in ids]
    tokens[0] = tokens[0].capitalize()  # sentence-initial capitals, as in SNLI
    return tokens


def _binary_parse(tokens: list[str]) -> str:
    """Right-branching bracketing in SNLI's parse-string syntax."""
    out = tokens[-1]
    for tok in reversed(tokens[:-1]):
        out = f"( {tok} {out} )"
    return out


def snli_pairs(n: int, words, cdf, rng) -> list[dict]:
    """n SNLI-shaped records with balanced gold labels."""
    p_lens = stratified_lengths(n, PREMISE_LEN, rng)
    h_lens = stratified_lengths(n, HYPOTHESIS_LEN, rng)
    labels = [LABELS[i % 3] for i in rng.permutation(n)]
    records = []
    for p_len, h_len, label in zip(p_lens, h_lens, labels):
        premise = _sentence(words, cdf, p_len, rng)
        hypothesis = _sentence(words, cdf, h_len, rng)
        records.append({
            "sentence1": " ".join(premise),
            "sentence2": " ".join(hypothesis),
            "sentence1_binary_parse": _binary_parse(premise),
            "sentence2_binary_parse": _binary_parse(hypothesis),
            "gold_label": label,
        })
    return records


def record_tokens(record: dict) -> tuple[list[str], list[str]]:
    return record["sentence1"].split(), record["sentence2"].split()


def write_jsonl(path: str, records: list[dict]):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_vector_file(path: str, corpus_words: set[str], lexicon_words, dim: int, rng):
    """GloVe-style file: rows for most corpus words, then mostly others.

    Rows are written for lowercase types only (GloVe 840B is cased; this
    is a choice), so a capitalised corpus token is found through its
    lowercase form; a share of corpus types is left out so the
    out-of-vocabulary path runs. Lines are shuffled.
    """
    types = sorted({w.lower() for w in corpus_words})
    kept = [w for w in types if rng.random() < VECTOR_HIT_SHARE]
    corpus_types = set(types)
    others = [w for w in lexicon_words if w not in corpus_types]

    def row() -> str:
        return " ".join(f"{x:.5f}" for x in rng.normal(0.0, VECTOR_SCALE, dim))

    filler = [row() for _ in range(64)]  # the loader never parses these rows
    lines = [f"{w} {row()}" for w in kept]
    lines += [
        f"{others[i % len(others)]}{'' if i < len(others) else i} {filler[i % 64]}"
        for i in range(max(0, VECTOR_LINES - len(kept)))
    ]
    with open(path, "w") as fh:
        for i in rng.permutation(len(lines)):
            fh.write(lines[i] + "\n")


def serve_tensors(config: dict, n_words: int, n_chars: int, rng) -> dict[str, np.ndarray]:
    """Paper-dims weights drawn at scales where the model is not degenerate.

    The program's own initialisation puts LSTM weights at sigma 0.01, so
    every gate sits near 0.5 and the gate-norm attention is near uniform.
    Here pre-activations are O(1), so gates, attention weights and class
    probabilities all vary from position to position and pair to pair.
    """
    cd, ch, d = config["char_dim"], config["filter_channels"], config["hidden_dim"]
    widths = config["filter_widths"]
    emb = len(widths) * ch + config["word_dim"]
    t: dict[str, np.ndarray] = {
        "embed.char_table": rng.normal(0.0, 0.5, (n_chars, cd)),
        "embed.word_table": rng.normal(0.0, VECTOR_SCALE, (n_words, config["word_dim"])),
    }
    t["embed.word_table"][0] = 0.0  # the pad row
    for w in widths:
        t[f"embed.cnn.w{w}.weight"] = rng.normal(0.0, 1.0 / np.sqrt(w * cd), (w * cd, ch))
        t[f"embed.cnn.w{w}.bias"] = rng.normal(0.0, 0.1, ch)
    for k in range(1, config["n_layers"] + 1):
        n_in = emb if k == 1 else emb + 2 * d
        for tag in ("fwd", "bwd"):
            b = rng.normal(0.0, 0.5, 4 * d)
            b[d : 2 * d] += 1.0
            t[f"encoder.l{k}.{tag}.w"] = rng.normal(0.0, 2.0 / np.sqrt(n_in), (n_in, 4 * d))
            t[f"encoder.l{k}.{tag}.u"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, 4 * d))
            t[f"encoder.l{k}.{tag}.b"] = b
    match = 4 * 3 * 2 * d
    hidden = config["mlp_hidden"]
    t["classify.w1"] = rng.normal(0.0, 2.0 / np.sqrt(match), (match, hidden))
    t["classify.b1"] = rng.normal(0.0, 0.1, hidden)
    t["classify.w2"] = rng.normal(0.0, 2.0 / np.sqrt(match + hidden), (match + hidden, hidden))
    t["classify.b2"] = rng.normal(0.0, 0.1, hidden)
    t["classify.w_out"] = rng.normal(0.0, 2.0 / np.sqrt(hidden), (hidden, 3))
    t["classify.b_out"] = rng.normal(0.0, 0.1, 3)
    return t
