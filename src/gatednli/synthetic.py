"""Rule-generated inference corpus and matching structured word vectors.

Sentences follow "subject [adverb] verb the object". The three relations
are generated by construction:

- entailment: the object is replaced by its category name
  ("mira adores the fox" -> "mira adores the creature")
- contradiction: the verb is replaced by its antonym
  ("mira adores the fox" -> "mira loathes the fox")
- neutral: the object is replaced by a different category's name or by a
  noun from a different category

Telling entailment from the first neutral form requires knowing which
category a noun belongs to. The vector file encodes that category, while
the spellings are arbitrary, so a model without the word-vector table has
no path to the category of a noun it never saw in training. Held-out
splits put unseen nouns in the premise to measure exactly that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABELS, NLIExample

ENTAILMENT, NEUTRAL, CONTRADICTION = 0, 1, 2
MIN_VECTOR_DIM = 9
ADVERB_PROB = 0.3  # share of premises with an adverb
DEV_ONLY_NOUNS = 2  # last nouns of each category, seen only in dev premises
NOISE_SIGMA = 0.05  # Gaussian noise on every word vector


@dataclass(frozen=True)
class World:
    subjects: tuple[str, ...]
    verb_pairs: tuple[tuple[str, str], ...]
    categories: dict[str, tuple[str, ...]]
    adverbs: tuple[str, ...]
    filler: str = "the"


DEFAULT_WORLD = World(
    subjects=("mira", "joss", "tavek", "rune", "pelo", "sada"),
    verb_pairs=(
        ("adores", "loathes"),
        ("keeps", "discards"),
        ("praises", "mocks"),
    ),
    categories={
        "creature": ("fox", "owl", "crab", "mole", "toad", "lynx", "newt", "dog"),
        "dish": ("soup", "cake", "stew", "bread", "salad", "pie", "curry", "tart"),
        "relic": ("coin", "vase", "lamp", "mask", "bell", "ring", "harp", "drum"),
    },
    adverbs=("truly", "often"),
)


def _sentence(subject, verb, obj, adverb=None) -> list[str]:
    tokens = [subject, verb, DEFAULT_WORLD.filler, obj]
    if adverb is not None:
        tokens.insert(1, adverb)
    return tokens


def _generate(
    n: int, rng, premise_nouns: dict[str, tuple[str, ...]]
) -> list[NLIExample]:
    """Balanced labels over DEFAULT_WORLD; premise objects from premise_nouns."""
    world = DEFAULT_WORLD
    cat_names = sorted(premise_nouns)
    examples = []
    for i in range(n):
        label = i % 3
        subject = str(rng.choice(world.subjects))
        pair = world.verb_pairs[rng.integers(len(world.verb_pairs))]
        flip = bool(rng.integers(2))
        verb, antonym = (pair[1], pair[0]) if flip else pair
        cat = str(rng.choice(cat_names))
        noun = str(rng.choice(premise_nouns[cat]))
        adverb = (
            str(rng.choice(world.adverbs))
            if rng.random() < ADVERB_PROB
            else None
        )
        premise = _sentence(subject, verb, noun, adverb)
        if label == ENTAILMENT:
            hypothesis = _sentence(subject, verb, cat)
        elif label == CONTRADICTION:
            hypothesis = _sentence(subject, antonym, noun)
        else:
            other = str(rng.choice([c for c in cat_names if c != cat]))
            if rng.random() < 0.5:
                hyp_obj = other
            else:
                hyp_obj = str(rng.choice(world.categories[other]))
            hypothesis = _sentence(subject, verb, hyp_obj)
        examples.append(NLIExample(premise, hypothesis, label))
    return examples


def make_split(
    n_train: int, n_dev: int, seed: int
) -> tuple[list[NLIExample], list[NLIExample]]:
    """Training draws from most nouns; dev premises use only nouns that
    never appear in training, so dev requires noun knowledge beyond the
    training examples themselves."""
    if min(n_train, n_dev) < 1:
        raise ValueError(f"n_train and n_dev must be >= 1, got {n_train}, {n_dev}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    categories = DEFAULT_WORLD.categories.items()
    train_nouns = {cat: nouns[:-DEV_ONLY_NOUNS] for cat, nouns in categories}
    dev_nouns = {cat: nouns[-DEV_ONLY_NOUNS:] for cat, nouns in categories}
    train = _generate(n_train, rng, train_nouns)
    dev = _generate(n_dev, rng, dev_nouns)
    return train, dev


def write_corpus_jsonl(path: str, examples: Sequence[NLIExample]):
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(
                json.dumps(
                    {
                        "sentence1": " ".join(ex.premise_tokens),
                        "sentence2": " ".join(ex.hypothesis_tokens),
                        "gold_label": LABELS[ex.label],
                    }
                )
                + "\n"
            )


def check_vector_dim(dim: int):
    """The structured vector layout needs MIN_VECTOR_DIM dimensions."""
    if dim < MIN_VECTOR_DIM:
        raise ValueError(f"vector dim must be >= {MIN_VECTOR_DIM}, got {dim}")


def structured_vectors(world: World, dim: int, seed: int) -> dict[str, np.ndarray]:
    """Word -> vector with the semantics baked into fixed blocks.

    Blocks: [0:3) noun/name category one-hot, [3] category-name flag,
    [4:7) verb-pair one-hot, [7] verb polarity, [8] subject flag. Every
    vector also carries small Gaussian noise so no two words collide.
    """
    check_vector_dim(dim)
    if len(world.categories) > 3 or len(world.verb_pairs) > 3:
        raise ValueError("vector layout supports at most 3 categories/pairs")
    rng = np.random.default_rng(seed)
    vectors = {}

    def base(word):
        vectors[word] = rng.normal(0.0, NOISE_SIGMA, size=dim)
        return vectors[word]

    for word in (world.filler, *world.adverbs):
        base(word)
    for word in world.subjects:
        base(word)[8] += 1.0
    for p, (verb, antonym) in enumerate(world.verb_pairs):
        v = base(verb)
        v[4 + p] += 1.0
        v[7] += 1.0
        a = base(antonym)
        a[4 + p] += 1.0
        a[7] -= 1.0
    for c, (cat, nouns) in enumerate(sorted(world.categories.items())):
        v = base(cat)
        v[c] += 1.0
        v[3] += 1.0
        for noun in nouns:
            base(noun)[c] += 1.0
    return vectors


def write_vector_file(path: str, world: World, dim: int, seed: int):
    """Text vector file, one `token v1 .. vD` line per word."""
    vectors = structured_vectors(world, dim, seed)
    with open(path, "w") as fh:
        for word in sorted(vectors):
            values = " ".join(repr(float(x)) for x in vectors[word])
            fh.write(f"{word} {values}\n")
