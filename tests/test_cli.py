"""Tests for the command-line interface and config resolution."""

import json
import re
import struct
import warnings

import numpy as np
import pytest

from gatednli import cli as C
from gatednli import data as D
from gatednli import train as TR
from gatednli.data import LABELS, DataError
from gatednli.model import Model, ModelConfig

# Every train and ablate setting with a non-default value as the config
# file and the flag spell it; None marks a switch (flag without a value).
EXAMPLE_VALUES = {
    "train_path": "a.jsonl",
    "dev_path": "b.jsonl",
    "vectors_path": "v.txt",
    "checkpoint_path": "m.ckpt",
    "history_path": "h.csv",
    "min_count": "2",
    "oov_sigma": "0.25",
    "word_dim": "7",
    "char_dim": "4",
    "filter_widths": "2,4",
    "filter_channels": "3",
    "hidden_dim": "5",
    "n_layers": "2",
    "mlp_hidden": "6",
    "gate_kind": "forget",
    "no_char": None,
    "no_word": None,
    "no_gated_att": None,
    "no_absdiff_product": None,
    "no_mlp_shortcut": None,
    "seed": "9",
    "lr": "0.01",
    "batch_size": "4",
    "epochs": "3",
    "clip_norm": "2.5",
    "stop_train_acc": "0.9",
}

TRAIN_OPTIONS = sorted(
    ["-h", "--help", "--config"]
    + ["--" + key.replace("_", "-") for key in EXAMPLE_VALUES]
)


def _help_options(capsys, command):
    with pytest.raises(SystemExit) as err:
        C.main([command, "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    return sorted(set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text)))


@pytest.fixture(autouse=True)
def _no_blas_thread_vars(monkeypatch):
    """The banner lists the BLAS thread variables that are set; the tests
    that compare banners line by line run with none set."""
    for var in C.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


def _late_output_failure(monkeypatch, make_unwritable):
    """Let the early check pass the checkpoint path, then make it
    unwritable, so that the run reaches the write and fails there."""
    check = C._check_output

    def check_then_break(path, what):
        check(path, what)
        if what == "checkpoint":
            make_unwritable()

    monkeypatch.setattr(C, "_check_output", check_then_break)


def _spellings(monkeypatch) -> list[int]:
    """A list that receives the token count of every later
    ``encode_sentence_ids`` call; one call spells out the distinct words of
    one encoded set."""
    spelled = []
    encode = D.encode_sentence_ids
    monkeypatch.setattr(D, "encode_sentence_ids",
                        lambda tokens, v: spelled.append(len(tokens)) or encode(tokens, v))
    return spelled


def _banner(capsys, argv) -> list[str]:
    C.banner(C.resolve_config(C.build_parser().parse_args(argv)))
    return capsys.readouterr().err.splitlines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic corpus, vectors, and a trained tiny checkpoint."""
    root = tmp_path_factory.mktemp("cliwork")
    rc = C.main(
        [
            "synth-data",
            "--out-dir",
            str(root),
            "--n-train",
            "30",
            "--n-dev",
            "9",
            "--word-dim",
            "12",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    config = root / "run.cfg"
    config.write_text(
        f"""# tiny run
[paths]
train_path = {root / 'train.jsonl'}
dev_path = {root / 'dev.jsonl'}
vectors_path = {root / 'vectors.txt'}
checkpoint_path = {root / 'model.ckpt'}
history_path = {root / 'history.csv'}

[model]
word_dim = 12
char_dim = 3
filter_widths = 1,2
filter_channels = 2
hidden_dim = 3
n_layers = 1
mlp_hidden = 4

[optim]
lr = 0.003
batch_size = 8
epochs = 2
seed = 1
"""
    )
    rc = C.main(["train", "--config", str(config)])
    assert rc == 0
    return root


class TestConfigFile:
    def test_sections_comments_and_quotes(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# комментарий\n[model]\nhidden_dim = 7\n\nlr = 0.5\n"
            'gate_kind = "forget"\n'
        )
        values = C.parse_config_file(str(path))
        assert values == {
            "hidden_dim": "7",
            "lr": "0.5",
            "gate_kind": "forget",
        }

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("lr = 1\nlr = 2\n")
        with pytest.raises(DataError, match="duplicate"):
            C.parse_config_file(str(path))

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("just words\n")
        with pytest.raises(DataError, match="key = value"):
            C.parse_config_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("warp_factor = 9\n")
        args = C.build_parser().parse_args(["train", "--config", str(path)])
        with pytest.raises(DataError, match="warp_factor"):
            C.resolve_config(args)

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("hidden_dim = banana\n")
        args = C.build_parser().parse_args(["train", "--config", str(path)])
        with pytest.raises(DataError, match="hidden_dim"):
            C.resolve_config(args)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("epochs = 3\nhidden_dim = 5\nno_char = true\n")
        args = C.build_parser().parse_args(
            ["train", "--config", str(path), "--epochs", "8"]
        )
        config = C.resolve_config(args)
        assert config.optim.epochs == 8
        assert config.model.hidden_dim == 5
        assert config.model.use_char is False

    def test_filter_widths_parse(self, tmp_path):
        args = C.build_parser().parse_args(
            ["train", "--filter-widths", "2,4"]
        )
        assert C.resolve_config(args).model.filter_widths == (2, 4)

    def test_filter_widths_flag_takes_spaces_like_the_file(self):
        args = C.build_parser().parse_args(["train", "--filter-widths", "2 4"])
        assert C.resolve_config(args).model.filter_widths == (2, 4)


# Checkpoint header config edits that cannot match the stored tensors, and
# what the error says.
BAD_CONFIGS = [
    ("hidden_dim", 8.0, "malformed checkpoint"),
    ("use_char", "no", "malformed checkpoint"),
    ("filter_widths", "13", "malformed checkpoint"),
    ("seed", 1.5, "malformed checkpoint"),
    ("mlp_hidden", 10**13, "config does not fit"),
    ("n_layers", 10**7, "config does not fit"),
]


def _never_called(*args, **kwargs):
    raise AssertionError("Model.initialize was called")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            C.main(["transmogrify"])
        assert err.value.code == 1

    def test_missing_file_is_data_error(self, tmp_path):
        rc = C.main(
            [
                "train",
                "--train-path",
                str(tmp_path / "absent.jsonl"),
                "--dev-path",
                str(tmp_path / "absent.jsonl"),
                "--vectors-path",
                str(tmp_path / "absent.txt"),
            ]
        )
        assert rc == 2

    def test_conflicting_ablations_are_usage_error(self, workdir):
        rc = C.main(
            [
                "train",
                "--config",
                str(workdir / "run.cfg"),
                "--no-char",
                "--no-word",
            ]
        )
        assert rc == 1

    def test_bad_checkpoint_is_data_error(
        self, tmp_path, workdir, capsys, monkeypatch
    ):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"not a checkpoint")
        rc = C.main(
            [
                "eval",
                "--checkpoint",
                str(junk),
                "--data",
                str(workdir / "dev.jsonl"),
            ]
        )
        assert rc == 2
        # A header config that cannot match the stored tensors is refused
        # before the model is built, so a huge size or layer count costs
        # nothing.
        monkeypatch.setattr(Model, "initialize", _never_called)
        blob = (workdir / "model.ckpt").read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 12)
        header = json.loads(blob[16 : 16 + header_len])
        for key, value, message in BAD_CONFIGS:
            config = dict(header["config"], **{key: value})
            edited = json.dumps(dict(header, config=config)).encode()
            head = blob[:12] + struct.pack("<I", len(edited)) + edited
            junk.write_bytes(head + blob[16 + header_len :])
            argv = ["eval", "--checkpoint", str(junk)]
            assert C.main(argv + ["--data", str(workdir / "dev.jsonl")]) == 2, key
            assert message in capsys.readouterr().err, key

    @pytest.mark.parametrize("command", ["eval", "ensemble-eval"])
    @pytest.mark.parametrize("content", ["unlabeled", "empty"])
    def test_nothing_labeled_names_the_file(
        self, command, content, workdir, tmp_path, capsys
    ):
        data = tmp_path / "nothing.jsonl"
        record = {"sentence1": "mira adores the fox", "sentence2": "a fox", "gold_label": "-"}
        data.write_text(json.dumps(record) + "\n" if content == "unlabeled" else "")
        flag = "--checkpoint" if command == "eval" else "--checkpoints"
        argv = [command, flag, str(workdir / "model.ckpt"), "--data", str(data)]
        assert C.main(argv) == 2
        assert f"error: no usable examples in {data}" in capsys.readouterr().err

    def test_truncated_checkpoints_are_data_errors(self, tmp_path, workdir):
        blob = (workdir / "model.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in (10, 15, 100, 3000, len(blob) // 2, len(blob) - 1):
            cut.write_bytes(blob[:n])
            argv = ["eval", "--checkpoint", str(cut)]
            assert C.main(argv + ["--data", str(workdir / "dev.jsonl")]) == 2, n

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_checkpoint_value_is_data_error(
        self, tmp_path, workdir, capsys, command, value
    ):
        ckpt = TR.Checkpoint.load(str(workdir / "model.ckpt"))
        ckpt.tensors["classify.b_out"][1] = value
        bad = tmp_path / "bad.ckpt"
        ckpt.save(str(bad))
        out = tmp_path / "out.jsonl"
        argv = [command, "--checkpoint", str(bad), "--data", str(workdir / "dev.jsonl")]
        if command == "predict":
            argv += ["--out", str(out)]
        assert C.main(argv) == 2
        captured = capsys.readouterr()
        assert "tensor classify.b_out has a non-finite value" in captured.err
        assert "accuracy" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("word_id", [10**6, "x"], ids=["out-of-range", "not-int"])
    def test_vocabulary_id_outside_its_table_is_data_error(
        self, tmp_path, workdir, capsys, word_id
    ):
        ckpt = TR.Checkpoint.load(str(workdir / "model.ckpt"))
        ckpt.vocab.word_to_id[next(iter(ckpt.vocab.word_to_id))] = word_id
        bad = tmp_path / "bad.ckpt"
        ckpt.save(str(bad))
        out = tmp_path / "out.jsonl"
        argv = ["predict", "--checkpoint", str(bad), "--out", str(out)]
        assert C.main(argv + ["--data", str(workdir / "dev.jsonl")]) == 2
        last = ckpt.vocab.n_words - 1
        expected = f"malformed checkpoint {bad}: word ids must be exactly 2..{last}"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_bad_vector_value_is_data_error(
        self, tmp_path, workdir, capsys, value
    ):
        lines = (workdir / "vectors.txt").read_text().splitlines()
        token, *values = lines[0].split(" ")
        values[1] = value
        bad = tmp_path / "vectors.txt"
        bad.write_text("\n".join([" ".join([token, *values])] + lines[1:]) + "\n")
        rc = C.main(
            [
                "train",
                "--config",
                str(workdir / "run.cfg"),
                "--vectors-path",
                str(bad),
                "--checkpoint-path",
                str(tmp_path / "model.ckpt"),
            ]
        )
        assert rc == 2
        assert f"{bad}: line 1" in capsys.readouterr().err

    def test_vector_value_beyond_float32_is_data_error(
        self, tmp_path, workdir, capsys
    ):
        # Finite in float64, the vector loader's dtype, but inf once the
        # table is cast to float32 for training.
        lines = (workdir / "vectors.txt").read_text().splitlines()
        token, *values = lines[0].split(" ")
        values[1] = "1e39"
        bad = tmp_path / "vectors.txt"
        bad.write_text("\n".join([" ".join([token, *values])] + lines[1:]) + "\n")
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--config", str(workdir / "run.cfg"),
                "--vectors-path", str(bad), "--checkpoint-path", str(ckpt)]
        assert C.main(argv) == 2
        assert (
            f"error: vectors {bad}: the row of {token!r} has a value beyond "
            f"the float32 range"
        ) in capsys.readouterr().err
        assert not ckpt.exists()

    def test_drawn_row_beyond_float32_is_usage_error(self, tmp_path, workdir, capsys):
        # The <unk> row is drawn from oov_sigma, never read from the file,
        # so the setting is at fault, not the vectors.
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--config", str(workdir / "run.cfg"),
                "--oov-sigma", "1e308", "--checkpoint-path", str(ckpt)]
        assert C.main(argv) == 1
        err = capsys.readouterr().err
        assert "error: oov_sigma 1e+308 draws a vector value beyond the float32 range" in err
        assert "vectors" not in err.splitlines()[-1]
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("dtype-code-2", "unknown dtype code 2"),
            ("float64-size", "needs"),  # 8 bytes a value for a float32 tensor
            ("cut-payload", "needs"),
        ],
    )
    def test_malformed_float32_tensor_is_data_error(
        self, tmp_path, workdir, capsys, edit, message
    ):
        blob = bytearray((workdir / "model.ckpt").read_bytes())
        (header_len,) = struct.unpack_from("<I", blob, 12)
        pos = 16 + header_len  # the first tensor
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2 + name_len
        ndim = blob[pos]
        code_at = pos + 1 + 8 * ndim
        (n_bytes,) = struct.unpack_from("<Q", blob, code_at + 1)
        assert blob[code_at] == 1  # float32
        if edit == "dtype-code-2":
            blob[code_at] = 2
        elif edit == "float64-size":
            struct.pack_into("<Q", blob, code_at + 1, 2 * n_bytes)
        else:
            blob = blob[: code_at + 9 + n_bytes // 2]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        argv = ["eval", "--checkpoint", str(bad), "--data", str(workdir / "dev.jsonl")]
        assert C.main(argv) == 2
        assert message in capsys.readouterr().err

    def test_corpus_not_utf8_is_data_error(self, tmp_path, workdir, capsys):
        bad = tmp_path / "dev.jsonl"
        bad.write_bytes((workdir / "dev.jsonl").read_bytes() + b"\xff\xfe")
        out = tmp_path / "out.jsonl"
        argv = ["predict", "--checkpoint", str(workdir / "model.ckpt"),
                "--data", str(bad), "--out", str(out)]
        assert C.main(argv) == 2
        assert f"error: corpus {bad} is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_vectors_not_utf8_is_data_error(self, tmp_path, workdir, capsys):
        bad = tmp_path / "vectors.txt"
        bad.write_bytes((workdir / "vectors.txt").read_bytes() + b"\xff\xfe")
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--config", str(workdir / "run.cfg"),
                "--vectors-path", str(bad), "--checkpoint-path", str(ckpt)]
        assert C.main(argv) == 2
        assert f"error: vectors {bad} is not UTF-8" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_config_not_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"epochs = 3\n# \xff\xfe\n")
        assert C.main(["train", "--config", str(bad)]) == 2
        assert f"error: config {bad} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts", [("-5", "3"), ("4", "0")], ids=["negative-train", "zero-dev"]
    )
    def test_synth_data_count_below_one_is_usage_error(self, tmp_path, counts):
        out_dir = tmp_path / "synth"
        argv = ["synth-data", "--out-dir", str(out_dir),
                "--n-train", counts[0], "--n-dev", counts[1]]
        assert C.main(argv) == 1
        assert not out_dir.exists()

    def test_synth_data_negative_seed_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        argv = ["synth-data", "--out-dir", str(out_dir), "--seed", "-1"]
        assert C.main(argv) == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_synth_data_small_word_dim_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        argv = ["synth-data", "--out-dir", str(out_dir), "--word-dim", "6"]
        assert C.main(argv) == 1
        assert "vector dim must be >= 9, got 6" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_model_too_large_to_allocate_is_usage_error(
        self, tmp_path, workdir, capsys
    ):
        # 8.87 PiB for the first weight matrix: past any user address
        # space, so the allocation is refused without touching memory.
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--train-path", str(workdir / "train.jsonl"),
                "--dev-path", str(workdir / "dev.jsonl"),
                "--vectors-path", str(workdir / "vectors.txt"),
                "--checkpoint-path", str(ckpt),
                "--word-dim", "12", "--hidden-dim", "1000000000000"]
        assert C.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: Unable to allocate")
        assert err.count("error:") == 1
        assert not ckpt.exists()

    def test_tab_separated_vectors_are_data_error(
        self, tmp_path, workdir, capsys
    ):
        text = (workdir / "vectors.txt").read_text()
        bad = tmp_path / "vectors.txt"
        bad.write_text(text.replace(" ", "\t"))
        rc = C.main(
            [
                "train",
                "--config",
                str(workdir / "run.cfg"),
                "--vectors-path",
                str(bad),
                "--checkpoint-path",
                str(tmp_path / "model.ckpt"),
            ]
        )
        assert rc == 2
        assert f"{bad}: line 1 has no space-separated values" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_divergence_exits_3_and_writes_nothing(
        self, tmp_path, workdir, capsys
    ):
        # One batch per epoch: epoch 1 takes a 1e300 step, after which every
        # dev probability is NaN. numpy's overflow warnings are errors here,
        # so a forward pass that warns instead of leaving it to the explicit
        # checks fails.
        ckpt, history = tmp_path / "model.ckpt", tmp_path / "history.csv"
        argv = ["train", "--config", str(workdir / "run.cfg"), "--lr", "1e300",
                "--batch-size", "32", "--checkpoint-path", str(ckpt),
                "--history-path", str(history)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = C.main(argv)
        assert rc == 3
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if not l.startswith("# ")]
        assert lines == [
            "error: epoch 1: class probabilities of example 1 are not finite"
        ]
        assert captured.out == ""
        assert not ckpt.exists() and not history.exists()

    def test_checkpoint_in_missing_directory_fails_at_first_best(
        self, tmp_path, workdir, capsys, monkeypatch
    ):
        # Epoch 1 is always a new best, and its checkpoint is written then,
        # so the run stops before epoch 2, with no history. The directory
        # goes away after the early check, which would otherwise catch it.
        ckpt, history = tmp_path / "absent" / "model.ckpt", tmp_path / "history.csv"
        ckpt.parent.mkdir()
        _late_output_failure(monkeypatch, ckpt.parent.rmdir)
        argv = ["train", "--config", str(workdir / "run.cfg"), "--epochs", "3",
                "--checkpoint-path", str(ckpt), "--history-path", str(history)]
        assert C.main(argv) == 2
        captured = capsys.readouterr()
        epochs = [l for l in captured.err.splitlines() if l.startswith("epoch ")]
        assert len(epochs) == 1 and epochs[0].startswith("epoch 1:")
        assert "No such file or directory" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        # The message names the path given, not the temporary file beside it.
        assert f"cannot write checkpoint {ckpt}:" in captured.err
        assert ".tmp" not in captured.err

    def test_checkpoint_path_that_is_a_directory_fails_naming_it(
        self, tmp_path, workdir, capsys, monkeypatch
    ):
        # The temporary file beside the path is written; moving it onto a
        # directory fails once training is over, and the file is removed.
        # The directory appears after the early check, which would
        # otherwise catch it.
        ckpt = tmp_path / "model.ckpt"
        _late_output_failure(monkeypatch, ckpt.mkdir)
        argv = ["train", "--config", str(workdir / "run.cfg"), "--epochs", "1",
                "--checkpoint-path", str(ckpt), "--history-path", str(tmp_path / "h.csv")]
        assert C.main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write checkpoint {ckpt}: Is a directory" in err
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == [ckpt] and list(ckpt.iterdir()) == []

    @pytest.mark.parametrize("command, flag, what", [
        ("train", "--history-path", "history"),
        ("train", "--checkpoint-path", "checkpoint"),
        ("ablate", "--out", "table"),
    ])
    @pytest.mark.parametrize("bad", ["directory", "missing-directory"])
    def test_unwritable_output_fails_before_training(
        self, tmp_path, workdir, capsys, command, flag, what, bad
    ):
        # A history, checkpoint or table that cannot be written is reported
        # before any input is read, so no epoch runs and the run writes nothing.
        if bad == "directory":
            out = tmp_path / "out"
            out.mkdir()
            reason = "Is a directory"
        else:
            out = tmp_path / "absent" / "out"
            reason = "No such file or directory"
        ckpt = tmp_path / "model.ckpt"
        argv = [command, "--config", str(workdir / "run.cfg"), "--epochs", "1",
                "--checkpoint-path", str(ckpt), flag, str(out)]
        assert C.main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write {what} {out}: {reason}" in captured.err
        assert not any(l.startswith("epoch ") for l in captured.err.splitlines())
        assert captured.out == ""
        assert list(tmp_path.rglob("*")) == ([out] if bad == "directory" else [])

    @pytest.mark.parametrize("bad", ["directory", "missing-directory"])
    def test_unwritable_predictions_fail_before_any_input_is_read(
        self, tmp_path, capsys, bad
    ):
        # Neither the checkpoint nor the corpus exists: the error names the
        # output, so it was checked first.
        if bad == "directory":
            out = tmp_path / "out"
            out.mkdir()
            reason = "Is a directory"
        else:
            out = tmp_path / "absent" / "out"
            reason = "No such file or directory"
        argv = ["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                "--data", str(tmp_path / "absent.jsonl"), "--out", str(out)]
        assert C.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write predictions {out}: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "predict", "ensemble-eval"])
    def test_non_finite_probabilities_exit_3_and_write_nothing(
        self, tmp_path, workdir, capsys, command
    ):
        # Finite weights whose forward overflows: every logit is +inf, so
        # every probability is NaN. The largest finite value of the
        # checkpoint's dtype (float32, as `gatednli train` writes it).
        ckpt = TR.Checkpoint.load(str(workdir / "model.ckpt"))
        b2 = ckpt.tensors["classify.b2"]
        b2[:] = np.finfo(b2.dtype).max
        ckpt.tensors["classify.w_out"][:] = 1.0
        bad = tmp_path / "overflow.ckpt"
        ckpt.save(str(bad))
        out = tmp_path / "out.jsonl"
        argv = [command, "--data", str(workdir / "dev.jsonl")]
        if command == "ensemble-eval":
            argv += ["--checkpoints", str(bad), str(bad)]
        else:
            argv += ["--checkpoint", str(bad)]
        if command == "predict":
            argv += ["--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert C.main(argv) == 3
        captured = capsys.readouterr()
        assert "error: class probabilities of example 1 are not finite" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestTrainedArtifacts:
    def test_checkpoint_and_history_written(self, workdir):
        assert (workdir / "model.ckpt").exists()
        lines = (workdir / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc"
        assert len(lines) == 3

    def test_train_runs_in_float32_and_eval_loads_it_so(self, workdir):
        ckpt = TR.Checkpoint.load(str(workdir / "model.ckpt"))
        assert {arr.dtype for arr in ckpt.tensors.values()} == {np.dtype(np.float32)}
        model, _ = TR.load_model(str(workdir / "model.ckpt"))
        named = model.params.named_tensors().values()
        assert {t.data.dtype for t in named} == {np.dtype(np.float32)}

    def test_same_seed_float32_trainings_are_byte_identical(self, workdir, tmp_path):
        outputs = []
        for run in ("a", "b"):
            ckpt, history = tmp_path / f"{run}.ckpt", tmp_path / f"{run}.csv"
            rc = C.main(["train", "--config", str(workdir / "run.cfg"),
                         "--checkpoint-path", str(ckpt), "--history-path", str(history)])
            assert rc == 0
            outputs.append((ckpt.read_bytes(), history.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (workdir / "model.ckpt").read_bytes()

    def test_each_set_is_encoded_once(self, workdir, tmp_path, monkeypatch):
        # Three epochs, each scoring the dev set and, for the early stop,
        # the training set: the two sets' words are spelled out once each.
        spelled = _spellings(monkeypatch)
        history = tmp_path / "history.csv"
        rc = C.main(["train", "--config", str(workdir / "run.cfg"), "--epochs", "3",
                     "--stop-train-acc", "1.0", "--checkpoint-path", str(tmp_path / "m.ckpt"),
                     "--history-path", str(history)])
        assert rc == 0
        assert len(history.read_text().splitlines()) == 1 + 3
        assert len(spelled) == 2

    def test_banner_reports_config_and_seed(self, workdir, capsys):
        rc = C.main(["train", "--config", str(workdir / "run.cfg")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# seed = 1" in err
        assert "# hidden_dim = 3" in err

    def test_banner_names_the_blas_thread_variables_that_are_set(
        self, workdir, capsys, monkeypatch
    ):
        argv = ["train", "--config", str(workdir / "run.cfg")]
        assert not any("NUM_THREADS" in line for line in _banner(capsys, argv))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        lines = _banner(capsys, argv)
        assert lines[-1] == "# OPENBLAS_NUM_THREADS = 2"
        assert not any("OMP_NUM_THREADS" in line for line in lines)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert _banner(capsys, argv)[-2:] == [
            "# OPENBLAS_NUM_THREADS = 2", "# OMP_NUM_THREADS = 1"
        ]

    def test_corpus_line_counts_every_word_and_skipped_row(self, tmp_path, capsys):
        # "The" is found only as "the": a lowercase hit, so hits, lowercase
        # hits and oov add up to the 5 words; one training row is unlabeled.
        rows = [
            {"sentence1": "The dog runs", "sentence2": "A dog moves", "gold_label": "neutral"},
            {"sentence1": "a cat", "sentence2": "a cat", "gold_label": "-"},
        ]
        (tmp_path / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        (tmp_path / "dev.jsonl").write_text(json.dumps(rows[0]) + "\n")
        (tmp_path / "vec.txt").write_text("the 1.0 2.0\ndog 0.5 0.5\n")
        config = C.RunConfig(
            train_path=str(tmp_path / "train.jsonl"),
            dev_path=str(tmp_path / "dev.jsonl"),
            vectors_path=str(tmp_path / "vec.txt"),
            model=ModelConfig(word_dim=2),
        )
        C._load_pipeline(config)
        assert capsys.readouterr().err.splitlines() == [
            "# corpus: train 1 dev 1, unlabeled skipped 1 and 0; vocab 7 words "
            "15 chars; vectors 1 hits 1 lowercase hits 3 oov"
        ]

    def test_eval_prints_accuracy_and_confusion(self, workdir, capsys):
        rc = C.main(
            [
                "eval",
                "--checkpoint",
                str(workdir / "model.ckpt"),
                "--data",
                str(workdir / "dev.jsonl"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "confusion" in out

    def test_predict_emits_contract_jsonl(self, workdir, capsys):
        rc = C.main(
            [
                "predict",
                "--checkpoint",
                str(workdir / "model.ckpt"),
                "--data",
                str(workdir / "dev.jsonl"),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "label",
                "probs",
                "premise_len",
                "hypothesis_len",
            }
            assert record["label"] in LABELS
            assert len(record["probs"]) == 3
            assert abs(sum(record["probs"]) - 1.0) < 1e-9
            assert record["premise_len"] >= 4
            assert record["hypothesis_len"] >= 4

    def test_predict_accepts_unlabeled_input(self, workdir, tmp_path, capsys):
        data = tmp_path / "unlabeled.jsonl"
        data.write_text(
            json.dumps(
                {"sentence1": "mira adores the fox", "sentence2": "mira adores the creature"}
            )
            + "\n"
        )
        rc = C.main(
            [
                "predict",
                "--checkpoint",
                str(workdir / "model.ckpt"),
                "--data",
                str(data),
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["label"] in LABELS

    def test_ensemble_eval_of_copies_matches_single(self, workdir, capsys):
        C.main(
            [
                "eval",
                "--checkpoint",
                str(workdir / "model.ckpt"),
                "--data",
                str(workdir / "dev.jsonl"),
            ]
        )
        single = capsys.readouterr().out
        rc = C.main(
            [
                "ensemble-eval",
                "--checkpoints",
                str(workdir / "model.ckpt"),
                str(workdir / "model.ckpt"),
                "--data",
                str(workdir / "dev.jsonl"),
            ]
        )
        assert rc == 0
        ensemble = capsys.readouterr().out
        single_acc = [l for l in single.splitlines() if "accuracy" in l][0]
        ens_acc = [l for l in ensemble.splitlines() if "accuracy" in l][0]
        assert single_acc == ens_acc


class TestAblate:
    def test_five_row_table(self, workdir, tmp_path, capsys):
        out = tmp_path / "ablate.tsv"
        rc = C.main(
            [
                "ablate",
                "--config",
                str(workdir / "run.cfg"),
                "--epochs",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "config\tdev_accuracy"
        names = [line.split("\t")[0] for line in lines[1:]]
        assert names == [
            "full",
            "-gated-att",
            "-char-cnn",
            "-word-embedding",
            "-absdiff-product",
        ]
        for line in lines[1:]:
            acc = float(line.split("\t")[1])
            assert 0.0 <= acc <= 1.0
        assert capsys.readouterr().out == out.read_text()

    def test_each_set_is_encoded_once_for_all_five_variants(
        self, workdir, monkeypatch
    ):
        spelled = _spellings(monkeypatch)
        argv = ["ablate", "--config", str(workdir / "run.cfg"), "--epochs", "1"]
        assert C.main(argv) == 0
        assert len(spelled) == 2

    def test_table_reaches_stdout_when_its_write_fails(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        # The table is printed before --out is written, so a write that
        # fails after the early check (skipped here) still leaves it shown.
        monkeypatch.setattr(C, "_check_output", lambda path, what: None)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["ablate", "--config", str(workdir / "run.cfg"), "--epochs", "1",
                "--out", str(out)]
        assert C.main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "config\tdev_accuracy" and len(lines) == 6
        assert f"error: [Errno 21] Is a directory: '{out}'" in captured.err


class TestGradcheckCommand:
    def test_all_modules_pass(self, capsys):
        rc = C.main(["gradcheck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in (
            "char-cnn",
            "lstm-layer",
            "stacked-encoder",
            "gated-attention-input",
            "gated-attention-forget",
            "gated-attention-output",
            "pooling",
            "classifier",
        ):
            assert name in out


class TestCliSurface:
    def test_train_and_ablate_options(self, capsys):
        assert len(TRAIN_OPTIONS) == 29  # 28 options; -h is --help
        assert TRAIN_OPTIONS == [
            "--batch-size", "--char-dim", "--checkpoint-path", "--clip-norm",
            "--config", "--dev-path", "--epochs", "--filter-channels",
            "--filter-widths", "--gate-kind", "--help", "--hidden-dim",
            "--history-path", "--lr", "--min-count", "--mlp-hidden",
            "--n-layers", "--no-absdiff-product", "--no-char",
            "--no-gated-att", "--no-mlp-shortcut", "--no-word",
            "--oov-sigma", "--seed", "--stop-train-acc", "--train-path",
            "--vectors-path", "--word-dim", "-h",
        ]
        assert _help_options(capsys, "train") == TRAIN_OPTIONS
        assert _help_options(capsys, "ablate") == sorted(
            TRAIN_OPTIONS + ["--out"]
        )

    def test_file_keys_banner_keys_and_flags_agree(self, tmp_path, capsys):
        path = tmp_path / "a.cfg"
        path.write_text("warp_factor = 9\n")
        args = C.build_parser().parse_args(["train", "--config", str(path)])
        with pytest.raises(DataError) as err:
            C.resolve_config(args)
        file_keys = str(err.value).split("valid keys: ")[1].split(", ")
        banner_keys = [
            re.match(r"# (\w+) = ", line).group(1)
            for line in _banner(capsys, ["train"])
        ]
        flag_keys = [
            option[2:].replace("-", "_")
            for option in _help_options(capsys, "train")
            if option not in ("-h", "--help", "--config")
        ]
        assert sorted(file_keys) == sorted(banner_keys) == sorted(flag_keys)
        assert sorted(file_keys) == sorted(EXAMPLE_VALUES)

    @pytest.mark.parametrize("key", sorted(EXAMPLE_VALUES))
    def test_file_and_flag_set_the_same_value(self, tmp_path, key):
        value = EXAMPLE_VALUES[key]
        path = tmp_path / "a.cfg"
        path.write_text(f"{key} = {'true' if value is None else value}\n")
        parser = C.build_parser()
        flag = ["--" + key.replace("_", "-")]
        flag += [] if value is None else [value]
        from_file = C.resolve_config(
            parser.parse_args(["train", "--config", str(path)])
        )
        from_flag = C.resolve_config(parser.parse_args(["train"] + flag))
        assert from_file == from_flag
        assert from_file != C.RunConfig()

    def test_unset_stop_train_acc_is_off(self, capsys):
        config = C.resolve_config(C.build_parser().parse_args(["train"]))
        assert config.optim.stop_train_acc is None
        assert "# stop_train_acc = None" in _banner(capsys, ["train"])

    def test_eval_banner_matches_train_banner(self, workdir, capsys):
        config = str(workdir / "run.cfg")
        train_lines = _banner(capsys, ["train", "--config", config])
        rc = C.main(
            [
                "eval",
                "--checkpoint",
                str(workdir / "model.ckpt"),
                "--data",
                str(workdir / "dev.jsonl"),
            ]
        )
        assert rc == 0
        eval_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("# ")
        ]
        keys = list(C.settings_of(ModelConfig))
        assert [line[2:].split(" = ")[0] for line in eval_lines] == keys
        assert eval_lines == [
            line for line in train_lines if line[2:].split(" = ")[0] in keys
        ]
        assert "# no_char = False" in eval_lines
        assert "# filter_widths = 1,2" in eval_lines


AT_MOST_INT64 = f"must be positive and at most {2**63 - 1}"


class TestUsageErrorsBeforeIO:
    @pytest.mark.parametrize(
        "flags, config_text, message",
        [
            (["--no-char", "--no-word"], None, "use_char and use_word"),
            (["--hidden-dim", "0"], None, "hidden_dim must be positive"),
            ([], "gate_kind = sideways\n", "gate_kind must be one of"),
            (["--clip-norm", "-1"], None, "clip_norm must be positive"),
            (["--batch-size", "0"], None, "batch_size must be >= 1"),
            (["--epochs", "0"], None, "epochs must be >= 1"),
            (["--oov-sigma", "-1"], None, "oov_sigma must be >= 0"),
            (["--oov-sigma", "inf"], None, "oov_sigma must be >= 0 and finite, got inf"),
            ([], "min_count = 0\n", "min_count must be >= 1"),
            ([], "lr = 0\n", "lr must be positive"),
            (["--lr", "nan"], None, "lr must be positive"),
            (["--lr", "inf"], None, "lr must be positive and finite, got inf"),
            (["--stop-train-acc", "nan"], None, "stop_train_acc must be in [0, 1]"),
            (["--stop-train-acc", "1.5"], None, "stop_train_acc must be in [0, 1]"),
            (["--seed", "-1"], None, "seed must be >= 0, got -1"),
            # past numpy's int64, so the setting is named, not a traceback
            (["--filter-widths", "4" * 25], None, f"filter_widths {AT_MOST_INT64}"),
            (["--hidden-dim", "9" * 23], None, f"hidden_dim {AT_MOST_INT64}"),
            # fits int64, but its fan-in with the default char_dim of 15 does not
            (["--filter-widths", str(2**62)], None, f"filter_widths: width {2**62}"),
        ],
        ids=[
            "no-char-no-word",
            "hidden-dim-0",
            "gate-kind-sideways",
            "clip-norm-negative",
            "batch-size-0",
            "epochs-0",
            "oov-sigma-negative",
            "oov-sigma-inf",
            "min-count-0",
            "lr-0",
            "lr-nan",
            "lr-inf",
            "stop-train-acc-nan",
            "stop-train-acc-1.5",
            "seed-negative",
            "filter-width-past-int64",
            "hidden-dim-past-int64",
            "filter-fan-in-past-int64",
        ],
    )
    def test_invalid_architecture_with_absent_files(
        self, tmp_path, capsys, flags, config_text, message
    ):
        # Every invalid setting, not only the architecture's, is a usage
        # error reported before the absent files are opened.
        absent = str(tmp_path / "absent.jsonl")
        argv = ["train", "--train-path", absent, "--dev-path", absent]
        argv += ["--vectors-path", str(tmp_path / "absent.txt"), *flags]
        if config_text is not None:
            (tmp_path / "a.cfg").write_text(config_text)
            argv += ["--config", str(tmp_path / "a.cfg")]
        assert C.main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "cannot read" not in err
