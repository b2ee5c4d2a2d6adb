"""Command-line entry point.

Subcommands: train, eval, predict, ensemble-eval, ablate, gradcheck, and
synth-data. Runs are configured by an optional key=value config file plus
command-line overrides; every run prints a banner with the fully resolved
configuration so identical banners imply identical outputs.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(unreadable or malformed files), 3 numeric failure (divergence, failed
gradient check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
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
    build_vocab,
    load_corpus,
    load_word_vectors,
)
from .model import Model, ModelConfig
from .tensor import Tensor, grad_check

GRADCHECK_TOL = 1e-4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Everything a training or ablation run needs, file- and flag-settable."""

    train_path: str = ""
    dev_path: str = ""
    vectors_path: str = ""
    checkpoint_path: str = "model.ckpt"
    history_path: str = ""
    word_dim: int = 300
    char_dim: int = 15
    filter_widths: tuple[int, ...] = (1, 3, 5)
    filter_channels: int = 100
    hidden_dim: int = 600
    n_layers: int = 3
    mlp_hidden: int = 600
    gate_kind: str = "input"
    no_char: bool = False
    no_word: bool = False
    no_gated_att: bool = False
    no_absdiff_product: bool = False
    no_mlp_shortcut: bool = False
    lr: float = 4e-4
    batch_size: int = 32
    epochs: int = 10
    clip_norm: float = 10.0
    stop_train_acc: float = 0.0  # 0 disables early stopping
    min_count: int = 1
    oov_sigma: float = 0.1
    seed: int = 0

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            word_dim=self.word_dim,
            char_dim=self.char_dim,
            filter_widths=self.filter_widths,
            filter_channels=self.filter_channels,
            hidden_dim=self.hidden_dim,
            n_layers=self.n_layers,
            mlp_hidden=self.mlp_hidden,
            gate_kind=self.gate_kind,
            use_char=not self.no_char,
            use_word=not self.no_word,
            use_gated_att=not self.no_gated_att,
            use_absdiff_product=not self.no_absdiff_product,
            mlp_shortcut=not self.no_mlp_shortcut,
            seed=self.seed,
        )

    def train_settings(self) -> TR.TrainSettings:
        return TR.TrainSettings(
            lr=self.lr,
            batch_size=self.batch_size,
            epochs=self.epochs,
            clip_norm=self.clip_norm,
            stop_train_acc=self.stop_train_acc or None,
        )


_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}


def _coerce(key: str, value: str, kind):
    try:
        if kind is bool:
            word = value.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {value!r}")
            return _BOOL_WORDS[word]
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind is str:
            return value
        return tuple(int(v) for v in value.replace(",", " ").split())
    except ValueError as err:
        raise DataError(f"config key {key}: {err}") from err


def parse_config_file(path: str) -> dict[str, str]:
    """key = value lines; [section] headers and # comments are skipped."""
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
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
    """Defaults, then the config file, then command-line flags."""
    field_types = {f.name: f.type for f in fields(RunConfig)}
    kinds = {
        "str": str,
        "int": int,
        "float": float,
        "bool": bool,
        "tuple[int, ...]": tuple,
    }
    merged = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in field_types:
                raise DataError(
                    f"unknown config key {key!r}; valid keys: "
                    + ", ".join(sorted(field_types))
                )
            merged[key] = _coerce(key, raw, kinds[field_types[key]])
    for name in field_types:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = (
                tuple(flag) if field_types[name] == "tuple[int, ...]" else flag
            )
    return RunConfig(**merged)


def banner(config: RunConfig, out=None):
    if out is None:
        out = sys.stderr
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name == "filter_widths":
            value = ",".join(str(w) for w in value)
        print(f"# {f.name} = {value}", file=out)


def _require(config: RunConfig, *names: str):
    for name in names:
        if not getattr(config, name):
            raise DataError(f"missing required setting: {name}")


def _load_pipeline(config: RunConfig):
    """Corpora, vocabulary over both splits, and the frozen vector table."""
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
        dim=config.word_dim,
        seed=config.seed,
        oov_sigma=config.oov_sigma,
    )
    print(
        f"# corpus: train {len(train_set)} dev {len(dev_set)}; vocab "
        f"{vocab.n_words} words {vocab.n_chars} chars; vectors "
        f"{report.hits} hits {report.misses} oov",
        file=sys.stderr,
    )
    return train_set, dev_set, vocab, table


def _train_once(config: RunConfig, train_set, dev_set, vocab, table):
    model_config = config.model_config()
    rng = np.random.default_rng(config.seed)
    model = Model.initialize(model_config, vocab.n_chars, table, rng)
    result = TR.train(
        model,
        vocab,
        train_set,
        dev_set,
        config.train_settings(),
        log=lambda msg: print(msg, file=sys.stderr),
    )
    return result


def cmd_train(args) -> int:
    config = resolve_config(args)
    _require(config, "train_path", "dev_path", "vectors_path", "checkpoint_path")
    banner(config)
    train_set, dev_set, vocab, table = _load_pipeline(config)
    result = _train_once(config, train_set, dev_set, vocab, table)
    result.best.save(config.checkpoint_path)
    print(f"# checkpoint written to {config.checkpoint_path}", file=sys.stderr)
    if config.history_path:
        TR.write_history(config.history_path, result.history)
        print(f"# history written to {config.history_path}", file=sys.stderr)
    best = result.best.metadata
    print(f"best epoch {best['epoch']} dev_accuracy {best['dev_accuracy']:.4f}")
    return EXIT_OK


def _print_eval(result: TR.EvalResult):
    print(f"accuracy {result.accuracy:.4f} over {result.n} examples")
    print("confusion (rows gold, columns predicted):")
    print("gold\\pred " + " ".join(f"{name:>13s}" for name in LABELS))
    for i, name in enumerate(LABELS):
        row = " ".join(f"{int(v):>13d}" for v in result.confusion[i])
        print(f"{name:>9s} {row}")


def cmd_eval(args) -> int:
    checkpoint = TR.Checkpoint.load(args.checkpoint)
    examples, _ = load_corpus(args.data)
    banner_config = checkpoint.config.to_dict()
    for key in sorted(banner_config):
        print(f"# {key} = {banner_config[key]}", file=sys.stderr)
    model = checkpoint.build_model()
    _print_eval(TR.evaluate_model([model], examples, checkpoint.vocab))
    return EXIT_OK


def cmd_predict(args) -> int:
    checkpoint = TR.Checkpoint.load(args.checkpoint)
    examples, _ = load_corpus(args.data, require_label=False)
    if not examples:
        raise DataError(f"no usable examples in {args.data}")
    probs = TR.predict([checkpoint.build_model()], examples, checkpoint.vocab)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for ex, p in zip(examples, probs):
            record = {
                "label": LABELS[int(p.argmax())],
                "probs": [float(v) for v in p],
                "premise_len": len(ex.premise_tokens),
                "hypothesis_len": len(ex.hypothesis_tokens),
            }
            out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_ensemble_eval(args) -> int:
    checkpoints = [TR.Checkpoint.load(path) for path in args.checkpoints]
    examples, _ = load_corpus(args.data)
    models, vocab = TR.build_ensemble(checkpoints)
    result = TR.evaluate_model(models, examples, vocab)
    print(f"ensemble of {len(checkpoints)} checkpoints")
    _print_eval(result)
    return EXIT_OK


ABLATIONS: tuple[tuple[str, dict], ...] = (
    ("full", {}),
    ("-gated-att", {"no_gated_att": True}),
    ("-char-cnn", {"no_char": True}),
    ("-word-embedding", {"no_word": True}),
    ("-absdiff-product", {"no_absdiff_product": True}),
)


def run_ablations(config: RunConfig, log=None) -> list[tuple[str, float]]:
    """Train the full model and the four single-component removals."""
    say = log or (lambda _msg: None)
    train_set, dev_set, vocab, table = _load_pipeline(config)
    rows = []
    for name, overrides in ABLATIONS:
        variant = RunConfig(**{**config.__dict__, **overrides})
        say(f"training {name}")
        result = _train_once(variant, train_set, dev_set, vocab, table)
        acc = result.best.metadata["dev_accuracy"]
        say(f"{name}: dev_accuracy {acc:.4f}")
        rows.append((name, acc))
    return rows


def cmd_ablate(args) -> int:
    config = resolve_config(args)
    _require(config, "train_path", "dev_path", "vectors_path")
    banner(config)
    rows = run_ablations(
        config, log=lambda msg: print(f"# {msg}", file=sys.stderr)
    )
    lines = ["config\tdev_accuracy"]
    lines += [f"{name}\t{acc:.4f}" for name, acc in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"# table written to {args.out}", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


def _scalarize(x: Tensor) -> Tensor:
    total = x
    for axis in range(x.ndim - 1, -1, -1):
        total = T.sum_axis(total, axis=axis)
    return total


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
    ids = np.array([2, 5, 1, 3])

    def f_char(_t):
        return _scalarize(EM.char_compose(ids, ep))

    errors["char-cnn"] = max(
        grad_check(f_char, ep.char_table),
        grad_check(f_char, ep.filters[1][0]),
        grad_check(f_char, ep.filters[3][0]),
        grad_check(f_char, ep.filters[3][1]),
    )

    # fused LSTM layer, both directions, on a loss over h and the gates
    layer = EN.LstmParams(
        w=Tensor(rng.normal(0, 0.4, size=(2, 12)), requires_grad=True),
        u=Tensor(rng.normal(0, 0.4, size=(3, 12)), requires_grad=True),
        b=Tensor(rng.normal(0, 0.4, size=12), requires_grad=True),
    )
    xs = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    layer_weights = Tensor(rng.normal(size=(4, 12)))

    def f_layer(_t, reverse):
        out = EN.lstm_layer(xs, layer, reverse)
        return _scalarize(T.mul(out, layer_weights))

    errors["lstm-layer"] = max(
        grad_check(lambda _t: f_layer(_t, reverse), t)
        for reverse in (False, True)
        for t in (xs, layer.w, layer.u, layer.b)
    )

    # stacked encoder
    enc_params = EN.init_encoder_params(4, 3, 2, rng)
    for fwd, bwd in enc_params.layers:
        for p in (fwd, bwd):
            p.w.data[:] = rng.normal(0, 0.3, size=p.w.shape)
            p.u.data[:] = rng.normal(0, 0.3, size=p.u.shape)
    e = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    stack_weights = Tensor(rng.normal(size=(3, 24)))

    def f_stack(_t):
        enc = EN.stacked_encode(e, np.ones(3), enc_params)
        block = T.concat([enc.h, enc.gates_i, enc.gates_f, enc.gates_o], axis=1)
        return _scalarize(T.mul(block, stack_weights))

    errors["stacked-encoder"] = max(
        grad_check(f_stack, e),
        grad_check(f_stack, enc_params.layers[0][0].w),
        grad_check(f_stack, enc_params.layers[1][1].u),
    )

    # gated attention, all three kinds
    enc = EN.EncodedSentence(
        h=Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        gates_i=Tensor(rng.uniform(0.2, 0.8, (3, 4)), requires_grad=True),
        gates_f=Tensor(rng.uniform(0.2, 0.8, (3, 4)), requires_grad=True),
        gates_o=Tensor(rng.uniform(0.2, 0.8, (3, 4)), requires_grad=True),
        mask=np.ones(3),
    )
    for kind, gate_tensor in (
        (CP.GateKind.INPUT, enc.gates_i),
        (CP.GateKind.FORGET, enc.gates_f),
        (CP.GateKind.OUTPUT, enc.gates_o),
    ):

        def f_pool(_t, kind=kind):
            return _scalarize(CP.gated_attention_pool(enc, kind))

        errors[f"gated-attention-{kind.value}"] = max(
            grad_check(f_pool, enc.h), grad_check(f_pool, gate_tensor)
        )

    # average and max pooling
    def f_avg(_t):
        return _scalarize(CP.avg_pool(enc))

    def f_max(_t):
        return _scalarize(CP.max_pool(enc))

    errors["pooling"] = max(grad_check(f_avg, enc.h), grad_check(f_max, enc.h))

    # classifier
    clf = CL.init_classifier_params(5, 4, rng)
    v_inp = Tensor(rng.normal(size=(1, 5)), requires_grad=True)

    def f_clf(_t):
        probs, _ = CL.mlp_forward(v_inp, clf)
        return CL.cross_entropy(probs, 1)

    errors["classifier"] = max(
        grad_check(f_clf, t)
        for t in [v_inp] + list(clf.named_tensors().values())
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
    os.makedirs(args.out_dir, exist_ok=True)
    train_set, dev_set = SY.make_split(args.n_train, args.n_dev, args.seed)
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
    sub.add_argument("--train-path", dest="train_path")
    sub.add_argument("--dev-path", dest="dev_path")
    sub.add_argument("--vectors-path", dest="vectors_path")
    sub.add_argument("--checkpoint-path", dest="checkpoint_path")
    sub.add_argument("--history-path", dest="history_path")
    for name in (
        "word_dim",
        "char_dim",
        "filter_channels",
        "hidden_dim",
        "n_layers",
        "mlp_hidden",
        "batch_size",
        "epochs",
        "min_count",
        "seed",
    ):
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    for name in ("lr", "clip_norm", "stop_train_acc", "oov_sigma"):
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    sub.add_argument(
        "--filter-widths",
        dest="filter_widths",
        type=lambda s: tuple(int(v) for v in s.split(",")),
    )
    sub.add_argument("--gate-kind", dest="gate_kind", choices=GATE_CHOICES)
    for name in (
        "no_char",
        "no_word",
        "no_gated_att",
        "no_absdiff_product",
        "no_mlp_shortcut",
    ):
        sub.add_argument(
            f"--{name.replace('_', '-')}",
            dest=name,
            action="store_const",
            const=True,
        )


GATE_CHOICES = ("input", "forget", "output")


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
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
