"""Command-line entry point.

Subcommands: train, eval, predict, ensemble-eval, ablate, gradcheck, and
synth-data. train and ablate are configured by an optional key=value
config file plus command-line flags, which win. Both are derived from the
fields of RunConfig and of the ModelConfig and TrainSettings it holds: each
field is one key, and its flag is the key with "-" for "_". A bool that
defaults to on is exposed inverted, so no_char and --no-char clear
use_char. train, ablate and eval print the resolved keys as a banner, with
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS when they are set. Outputs are
bit-exact at a fixed BLAS thread count, so identical banners on the same
files imply identical outputs.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(unreadable or malformed files), 3 numeric failure (divergence,
non-finite class probabilities, failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import Field, dataclass, field, fields, is_dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import classify as CL
from . import compose as CP
from . import embed as EM
from . import encoder as EN
from . import synthetic as SY
from . import tensor as T
from . import train as TR
from .data import (
    LABELS,
    DataError,
    _utf8,
    build_vocab,
    encode_pairs,
    load_corpus,
    load_word_vectors,
)
from .model import Model, ModelConfig
from .tensor import Tensor, grad_check

GRADCHECK_TOL = 1e-4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """One training or ablation run: its paths, the vocabulary settings,
    the architecture and the optimiser. Every leaf field is a config-file
    key and a flag (``SETTINGS``)."""

    train_path: str = ""
    dev_path: str = ""
    vectors_path: str = ""
    checkpoint_path: str = "model.ckpt"
    history_path: str = ""
    min_count: int = 1
    oov_sigma: float = 0.1
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: TR.TrainSettings = field(default_factory=TR.TrainSettings)

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if not 0 <= self.oov_sigma < math.inf:
            raise ValueError(f"oov_sigma must be >= 0 and finite, got {self.oov_sigma}")


_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"not a boolean: {text!r}")
    return _BOOL_WORDS[word]


def int_list(text: str) -> tuple[int, ...]:
    """``1,3,5`` or ``1 3 5``."""
    return tuple(int(v) for v in text.replace(",", " ").split())


# One parser per kind of default, for file values and flags alike; an
# optional that defaults to None (stop_train_acc) takes a float.
PARSERS = {
    bool: _parse_bool,
    int: int,
    float: float,
    str: str,
    tuple: int_list,
    type(None): float,
}


def settings_of(cls, section: str = "") -> dict[str, tuple[str, Field]]:
    """Config-file key -> (section, field) for every field of a config
    dataclass; a field holding a config dataclass is flattened, with its
    name as the section. A bool that defaults to on is exposed inverted:
    the key ``no_char`` clears ``use_char``."""
    out = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            out.update(settings_of(f.default_factory, f.name))
        elif f.default is True:
            out["no_" + f.name.removeprefix("use_")] = (section, f)
        else:
            out[f.name] = (section, f)
    return out


SETTINGS = settings_of(RunConfig)


def parse_config_file(path: str) -> dict[str, str]:
    """key = value lines; [section] headers and # comments are skipped."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh, _utf8(f"config {path}"):
            lines = fh.readlines()
    except OSError as err:
        raise DataError(f"cannot read config {path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("\"'")
        if key in values:
            raise DataError(f"{path}:{lineno}: duplicate key {key}")
        values[key] = value
    return values


def resolve_config(args) -> RunConfig:
    """Defaults, then the config file, then command-line flags. Building
    the configs validates every setting before any file is read."""
    values = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in SETTINGS:
                raise DataError(
                    f"unknown config key {key!r}; valid keys: "
                    + ", ".join(sorted(SETTINGS))
                )
            try:
                values[key] = PARSERS[type(SETTINGS[key][1].default)](raw)
            except ValueError as err:
                raise DataError(f"config key {key}: {err}") from err
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    sections: dict[str, dict] = {}
    for key, value in values.items():
        section, f = SETTINGS[key]
        sections.setdefault(section, {})[f.name] = (
            value if key == f.name else not value
        )
    config = RunConfig(**sections.pop("", {}))
    nested = {
        name: replace(getattr(config, name), **kw)
        for name, kw in sections.items()
    }
    return replace(config, **nested)


def banner(config):
    """``# key = value`` for every setting of a RunConfig, or of a
    checkpoint's ModelConfig, under the keys the file and flags take, then
    each BLAS thread variable that is set, since outputs are bit-exact only
    at a fixed thread count."""
    for key, (section, f) in settings_of(type(config)).items():
        owner = getattr(config, section) if section else config
        value = getattr(owner, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(w) for w in value)
        elif key != f.name:
            value = not value
        print(f"# {key} = {value}", file=sys.stderr)
    for var in BLAS_THREAD_VARS:
        if var in os.environ:
            print(f"# {var} = {os.environ[var]}", file=sys.stderr)


def _require(config: RunConfig, *names: str):
    for name in names:
        if not getattr(config, name):
            raise DataError(f"missing required setting: {name}")


def _check_output(path: str, what: str):
    """Fail before any input is read if path is a directory or its
    directory does not exist."""
    if os.path.isdir(path):
        raise DataError(f"cannot write {what} {path}: Is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise DataError(f"cannot write {what} {path}: No such file or directory")


def _load_pipeline(config: RunConfig):
    """Train and dev pairs, encoded once over the vocabulary of both
    splits; that vocabulary; and the frozen vector table, in float32: the
    model takes its dtype, so training runs in float32. A
    value beyond the float32 range is a usage error in a row drawn from
    oov_sigma, and a data error in a row read from the vector file."""
    train_set, train_report = load_corpus(config.train_path)
    dev_set, dev_report = load_corpus(config.dev_path)
    if not train_set:
        raise DataError(f"no usable examples in {config.train_path}")
    if not dev_set:
        raise DataError(f"no usable examples in {config.dev_path}")
    vocab = build_vocab(list(train_set) + list(dev_set), config.min_count)
    table, report = load_word_vectors(
        config.vectors_path,
        vocab,
        dim=config.model.word_dim,
        seed=config.model.seed,
        oov_sigma=config.oov_sigma,
    )
    with np.errstate(over="ignore"):
        table = table.astype(np.float32)
    overflowed = ~np.isfinite(table).all(axis=1)
    if overflowed[report.drawn].any():
        raise ValueError(
            f"oov_sigma {config.oov_sigma} draws a vector value beyond the "
            f"float32 range"
        )
    if overflowed.any():
        wid = int(overflowed.argmax())
        word = next((w for w, i in vocab.word_to_id.items() if i == wid), "<unk>")
        raise DataError(
            f"vectors {config.vectors_path}: the row of {word!r} has a value "
            f"beyond the float32 range"
        )
    print(
        f"# corpus: train {len(train_set)} dev {len(dev_set)}, unlabeled "
        f"skipped {train_report.skipped_unlabeled} and "
        f"{dev_report.skipped_unlabeled}; vocab {vocab.n_words} words "
        f"{vocab.n_chars} chars; vectors {report.hits} hits "
        f"{report.hits_lowercase} lowercase hits {report.misses} oov",
        file=sys.stderr,
    )
    return encode_pairs(train_set, vocab), encode_pairs(dev_set, vocab), vocab, table


def _train_once(config: RunConfig, train_pairs, dev_pairs, vocab, table):
    rng = np.random.default_rng(config.model.seed)
    model = Model.initialize(config.model, vocab.n_chars, table, rng)
    return TR.train(
        model,
        vocab,
        train_pairs,
        dev_pairs,
        config.optim,
        config.checkpoint_path,
        log=lambda msg: print(msg, file=sys.stderr),
    )


def cmd_train(args) -> int:
    config = resolve_config(args)
    _require(config, "train_path", "dev_path", "vectors_path", "checkpoint_path")
    _check_output(config.checkpoint_path, "checkpoint")
    if config.history_path:
        _check_output(config.history_path, "history")
    banner(config)
    train_pairs, dev_pairs, vocab, table = _load_pipeline(config)
    result = _train_once(config, train_pairs, dev_pairs, vocab, table)
    print(f"# checkpoint written to {config.checkpoint_path}", file=sys.stderr)
    if config.history_path:
        TR.write_history(config.history_path, result.history)
        print(f"# history written to {config.history_path}", file=sys.stderr)
    best = result.best
    print(f"best epoch {best['epoch']} dev_accuracy {best['dev_accuracy']:.4f}")
    return EXIT_OK


def _print_eval(result: TR.EvalResult):
    print(f"accuracy {result.accuracy:.4f} over {result.n} examples")
    print("confusion (rows gold, columns predicted):")
    print("gold\\pred " + " ".join(f"{name:>13s}" for name in LABELS))
    for i, name in enumerate(LABELS):
        row = " ".join(f"{int(v):>13d}" for v in result.confusion[i])
        print(f"{name:>9s} {row}")


def _pairs(path, vocab, require_label: bool = True):
    """The corpus at path, encoded with a checkpoint's vocabulary."""
    examples, _ = load_corpus(path, require_label=require_label)
    if not examples:
        raise DataError(f"no usable examples in {path}")
    return encode_pairs(examples, vocab)


def cmd_eval(args) -> int:
    model, vocab = TR.load_model(args.checkpoint)
    pairs = _pairs(args.data, vocab)
    banner(model.config)
    _print_eval(TR.evaluate_model([model], pairs))
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.out:
        _check_output(args.out, "predictions")
    model, vocab = TR.load_model(args.checkpoint)
    pairs = _pairs(args.data, vocab, require_label=False)
    probs = TR.predict([model], pairs)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for (premise_len, hypothesis_len), p in zip(pairs.lengths.tolist(), probs):
            record = {
                "label": LABELS[int(p.argmax())],
                "probs": [float(v) for v in p],
                "premise_len": premise_len,
                "hypothesis_len": hypothesis_len,
            }
            out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_ensemble_eval(args) -> int:
    members = [TR.load_model(path) for path in args.checkpoints]
    models, vocab = TR.build_ensemble(members)
    result = TR.evaluate_model(models, _pairs(args.data, vocab))
    print(f"ensemble of {len(models)} checkpoints")
    _print_eval(result)
    return EXIT_OK


ABLATIONS: tuple[tuple[str, dict], ...] = (
    ("full", {}),
    ("-gated-att", {"use_gated_att": False}),
    ("-char-cnn", {"use_char": False}),
    ("-word-embedding", {"use_word": False}),
    ("-absdiff-product", {"use_absdiff_product": False}),
)


def run_ablations(config: RunConfig, log=None) -> list[tuple[str, float]]:
    """Train the full model and the four single-component removals; each
    run's best checkpoint goes to a temporary directory removed on return."""
    say = log or (lambda _msg: None)
    with tempfile.TemporaryDirectory() as scratch:
        ckpt = os.path.join(scratch, "model.ckpt")
        variants = [
            (name, replace(config, checkpoint_path=ckpt,
                           model=replace(config.model, **overrides)))
            for name, overrides in ABLATIONS
        ]
        train_pairs, dev_pairs, vocab, table = _load_pipeline(config)
        rows = []
        for name, variant in variants:
            say(f"training {name}")
            result = _train_once(variant, train_pairs, dev_pairs, vocab, table)
            acc = result.best["dev_accuracy"]
            say(f"{name}: dev_accuracy {acc:.4f}")
            rows.append((name, acc))
    return rows


def cmd_ablate(args) -> int:
    config = resolve_config(args)
    _require(config, "train_path", "dev_path", "vectors_path")
    if args.out:
        _check_output(args.out, "table")
    banner(config)
    rows = run_ablations(
        config, log=lambda msg: print(f"# {msg}", file=sys.stderr)
    )
    lines = ["config\tdev_accuracy"]
    lines += [f"{name}\t{acc:.4f}" for name, acc in rows]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"# table written to {args.out}", file=sys.stderr)
    return EXIT_OK


def gradcheck_all() -> dict[str, float]:
    """Finite-difference checks for every differentiable module, at toy
    dims with widened weights so the relative errors are well conditioned."""
    rng = np.random.default_rng(2024)
    errors: dict[str, float] = {}

    # character CNN
    word_table = rng.normal(size=(6, 5))
    ep = EM.init_embed_params(8, 3, (1, 3), 3, word_table, rng)
    ep.char_table.data[:] = rng.normal(0, 0.5, size=ep.char_table.shape)
    for w, b in ep.filters.values():
        w.data[:] = rng.normal(0, 0.5, size=w.shape)
        b.data[:] = rng.normal(0, 0.2, size=b.shape)
    # lengths 1, 2 and 4, one word repeated: windows that read the zero
    # row past a word's end, and a word whose gradient fans in twice
    block = np.array([[2, 0, 0, 0], [5, 1, 0, 0], [2, 5, 1, 3], [5, 1, 0, 0]])

    def f_char(_t):
        return EM.char_compose(block, ep)

    errors["char-cnn"] = max(
        grad_check(f_char, t) for t in ep.named_tensors().values()
        if t.requires_grad
    )

    # fused BiLSTM layer, both directions, on a loss over h and each gate
    pair = tuple(
        EN.LstmParams(
            w=Tensor(rng.normal(0, 0.4, size=(2, 12)), requires_grad=True),
            u=Tensor(rng.normal(0, 0.4, size=(3, 12)), requires_grad=True),
            b=Tensor(rng.normal(0, 0.4, size=12), requires_grad=True),
        )
        for _ in range(2)
    )
    xs = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def f_layer(_t, gate):
        h, g = EN.bilstm_layer(xs, [1, 3], pair, gate)
        return T.concat([h, g], axis=1)

    layer_tensors = [xs] + [t for p in pair for t in (p.w, p.u, p.b)]
    errors["lstm-layer"] = max(
        grad_check(lambda _t: f_layer(_t, gate), t)
        for gate in EN.GateKind
        for t in layer_tensors
    )

    # stacked encoder, on a ragged block of two sentences, for each gate
    enc_params = EN.init_encoder_params(4, 3, 2, rng)
    for fwd, bwd in enc_params.layers:
        for p in (fwd, bwd):
            p.w.data[:] = rng.normal(0, 0.3, size=p.w.shape)
            p.u.data[:] = rng.normal(0, 0.3, size=p.u.shape)
    e = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

    def f_stack(_t, gate):
        enc = EN.stacked_encode(e, [2, 3], enc_params, gate)
        return T.concat([enc.h, enc.gate], axis=1)

    errors["stacked-encoder"] = max(
        grad_check(lambda _t: f_stack(_t, gate), t)
        for gate in EN.GateKind
        for t in (e, enc_params.layers[0][0].w, enc_params.layers[1][1].u)
    )

    # gated attention, all three kinds, on a ragged block of two sentences
    h = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    for kind in EN.GateKind:
        gate = Tensor(rng.uniform(0.2, 0.8, (5, 4)), requires_grad=True)
        enc = EN.EncodedSentence(h, gate, lengths=np.array([3, 2]))

        def f_pool(_t, enc=enc, kind=kind):
            return CP.gated_attention_pool(enc, kind)

        errors[f"gated-attention-{kind.value}"] = max(
            grad_check(f_pool, h), grad_check(f_pool, gate)
        )

    # average and max pooling
    errors["pooling"] = max(
        grad_check(lambda _t: CP.avg_pool(enc), h),
        grad_check(lambda _t: CP.max_pool(enc), h),
    )

    # classifier
    clf = CL.init_classifier_params(5, 4, rng)
    v_inp = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def f_clf(_t):
        return CL.cross_entropy(CL.mlp_forward(v_inp, clf), [1, 0, 2])

    errors["classifier"] = max(
        grad_check(f_clf, t)
        for t in [v_inp] + list(clf.named_tensors().values())
    )

    # one affine record, with and without its ReLU; no pre-activation of
    # this draw lies within 0.05 of the kink
    x, w, b = (
        Tensor(rng.normal(size=shape), requires_grad=True)
        for shape in ((3, 4), (4, 5), (5,))
    )
    errors["affine"] = max(
        grad_check(lambda _t: T.affine(x, w, b, relu), t)
        for relu in (True, False)
        for t in (x, w, b)
    )

    # matching features of three pairs, with and without |v_p - v_h| and
    # v_p * v_h; no difference of this draw lies within 0.05 of 0
    v = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    errors["matching"] = max(
        grad_check(lambda _t: CL.matching_features(v, absdiff), v)
        for absdiff in (True, False)
    )
    return errors


def cmd_gradcheck(args) -> int:
    errors = gradcheck_all()
    worst = 0.0
    for name, err in errors.items():
        status = "PASS" if err < GRADCHECK_TOL else "FAIL"
        print(f"{name}: max rel error {err:.3e} {status}")
        worst = max(worst, err)
    if worst < GRADCHECK_TOL:
        print(f"gradcheck passed (worst {worst:.3e} < {GRADCHECK_TOL:.0e})")
        return EXIT_OK
    print(f"gradcheck FAILED (worst {worst:.3e} >= {GRADCHECK_TOL:.0e})")
    return EXIT_NUMERIC


def cmd_synth_data(args) -> int:
    train_set, dev_set = SY.make_split(args.n_train, args.n_dev, args.seed)
    SY.check_vector_dim(args.word_dim)  # before anything is written
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.jsonl")
    dev_path = os.path.join(args.out_dir, "dev.jsonl")
    vec_path = os.path.join(args.out_dir, "vectors.txt")
    SY.write_corpus_jsonl(train_path, train_set)
    SY.write_corpus_jsonl(dev_path, dev_set)
    SY.write_vector_file(vec_path, SY.DEFAULT_WORLD, args.word_dim, args.seed)
    print(f"wrote {train_path} ({len(train_set)} examples)")
    print(f"wrote {dev_path} ({len(dev_set)} examples)")
    print(f"wrote {vec_path} (dim {args.word_dim})")
    return EXIT_OK


class CliParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _add_config_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    for key, (_, f) in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(f.default, bool):
            sub.add_argument(flag, action="store_const", const=True)
        else:
            parse = PARSERS[type(f.default)]
            choices = f.metadata.get("choices")
            sub.add_argument(flag, type=parse, choices=choices)


def build_parser() -> CliParser:
    parser = CliParser(prog="gatednli", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train a model, save the best checkpoint")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = subs.add_parser("eval", help="accuracy of a checkpoint on a corpus")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = subs.add_parser("predict", help="JSONL predictions for a corpus")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", help="output path (default stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_ens = subs.add_parser(
        "ensemble-eval", help="accuracy of averaged checkpoints"
    )
    p_ens.add_argument("--checkpoints", nargs="+", required=True)
    p_ens.add_argument("--data", required=True)
    p_ens.set_defaults(func=cmd_ensemble_eval)

    p_abl = subs.add_parser(
        "ablate", help="train the full model and four component removals"
    )
    _add_config_flags(p_abl)
    p_abl.add_argument("--out", help="TSV output path (also printed)")
    p_abl.set_defaults(func=cmd_ablate)

    p_grad = subs.add_parser(
        "gradcheck", help="finite-difference checks for every module"
    )
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = subs.add_parser(
        "synth-data", help="write a rule-generated corpus and vector file"
    )
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--n-train", type=int, default=200)
    p_synth.add_argument("--n-dev", type=int, default=60)
    p_synth.add_argument("--word-dim", type=int, default=12)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth_data)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed stdout; silence the
        # interpreter's final flush and report success.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except TR.NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, MemoryError) as err:
        # a model too large for the machine's memory is a configuration error
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
