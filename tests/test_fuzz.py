"""Seeded exit-code fuzzing of the command line.

Mutated toy input files and drawn settings go through ``cli.main`` in
process. Every run must end in the documented contract's exit codes, 0
for success, 1 for usage, 2 for data and 3 for numeric failure, with no
traceback. A mutated data file is never a usage error, and a drawn
setting read with intact files is never a data error. An output path that
cannot be written exits 2, naming it, before any input is read.

Every size is drawn from small values or from values past int64, which
the configuration refuses before anything is allocated, so no case asks
for much memory or time.
"""

import numpy as np
import pytest

from gatednli import cli as C

SEED = 20
FILES = {"checkpoint": "model.ckpt", "dev": "dev.jsonl", "train": "train.jsonl",
         "vectors": "vectors.txt"}
FILE_CASES = 25  # per file kind
COMBINED_CASES = 60

# The toy run every case starts from: one epoch of a tiny model. word_dim
# is never drawn, since it must match the vector file's rows.
BASE = {
    "word_dim": "9", "char_dim": "2", "filter_widths": "1,2", "filter_channels": "2",
    "hidden_dim": "3", "n_layers": "1", "mlp_hidden": "4", "epochs": "1",
    "batch_size": "8", "seed": "1",
}

PAST_INT64 = "9" * 20
SPECIAL_FLOATS = ("inf", "-inf", "nan", "-1", "0", "1e308")
FLOATS = (*SPECIAL_FLOATS, "1e-300", "0.5", "3")
SIZES = ("-1", "0", "1", "2", "3", PAST_INT64)
FLOAT_SETTINGS = ("lr", "clip_norm", "oov_sigma", "stop_train_acc")
DRAWN = {
    **{key: FLOATS for key in FLOAT_SETTINGS},
    "char_dim": SIZES,
    "filter_channels": SIZES,
    "hidden_dim": SIZES,
    "mlp_hidden": SIZES,
    "n_layers": ("-1", "0", "1", "2", PAST_INT64),
    "filter_widths": ("0", "-1", "1", "2,1", "3,3", PAST_INT64, f"1,{PAST_INT64}"),
    "batch_size": ("-1", "0", "2", "8"),
    "epochs": ("-1", "0", "1", "2"),
    "min_count": ("-1", "0", "1", "3"),
    "seed": ("-1", "0", "7"),
    "gate_kind": ("input", "forget", "output", "sideways", ""),
}

# Inserted into data files: non-finite and out-of-range numbers, JSON
# punctuation, a label of the wrong type, bytes that are not UTF-8.
TOKENS = (b"nan", b"inf", b"-inf", b"1e39", b"-1", b"0", b"", b"\xff\xfe", b"{",
          b"}", b'"', b"null", b"[]", b" ", b"\n", b"9" * 30, b'"gold_label": 7')


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert C.main(["synth-data", "--out-dir", str(root), "--n-train", "24",
                   "--n-dev", "6", "--word-dim", "9", "--seed", "4"]) == 0
    assert C.main(train_argv(root, root / FILES["checkpoint"])) == 0
    return root


def train_argv(root, checkpoint, settings=BASE, files=None):
    """``gatednli train`` on the toy files, or on the replacements in
    files, with settings as flags."""
    paths = {kind: root / FILES[kind] for kind in ("train", "dev", "vectors")}
    paths.update(files or {})
    argv = ["train", "--checkpoint-path", str(checkpoint)]
    for kind, path in paths.items():
        argv += [f"--{kind}-path", str(path)]
    for key, value in settings.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


def eval_argv(checkpoint, data):
    return ["eval", "--checkpoint", str(checkpoint), "--data", str(data)]


def mutate(data: bytes, rng) -> bytes:
    """One to three byte flips, truncations, token insertions or token
    replacements."""
    for _ in range(rng.integers(1, 4)):
        pos = int(rng.integers(len(data) + 1))
        kind = rng.integers(4)
        if kind == 0 and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ (1 << int(rng.integers(8)))]) + data[pos + 1:]
        elif kind == 1:
            data = data[:pos]
        else:
            token = TOKENS[rng.integers(len(TOKENS))]
            end = pos
            if kind == 3:  # replace the word at pos
                while end < len(data) and data[end:end + 1] not in b' \n,:"':
                    end += 1
            data = data[:pos] + token + data[end:]
    return data


def run(argv, capsys, case) -> int:
    try:
        code = C.main(argv)
    except SystemExit as stop:  # the argument parser's usage errors
        code = stop.code
    except Exception as err:  # a traceback: report the case that made it
        pytest.fail(f"{case}: {type(err).__name__}: {err}")
    err = capsys.readouterr().err
    assert "Traceback" not in err, case
    assert code in (0, 1, 2, 3), (case, code)
    return code


def test_mutated_files_exit_as_data_errors(toy, tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    codes = set()
    for kind, name in FILES.items():
        intact = (toy / name).read_bytes()
        for k in range(FILE_CASES):
            bad = tmp_path / f"{k}-{name}"
            bad.write_bytes(mutate(intact, rng))
            if kind == "checkpoint":
                runs = [eval_argv(bad, toy / FILES["dev"])]
            else:
                runs = [train_argv(toy, tmp_path / "m.ckpt", files={kind: bad})]
            if kind == "dev":
                runs.append(eval_argv(toy / FILES["checkpoint"], bad))
            for argv in runs:
                code = run(argv, capsys, (kind, k, argv[0]))
                assert code != 1, (kind, k, argv[0])
                codes.add(code)
    assert 2 in codes


def test_drawn_settings_exit_as_usage_errors(toy, tmp_path, capsys):
    # Each float setting alone at each special value, then random
    # combinations of every drawn setting, half of them through a config
    # file; config values always parse, so the file is never malformed.
    rng = np.random.default_rng(SEED)
    cases = [{key: value} for key in FLOAT_SETTINGS for value in SPECIAL_FLOATS]
    for _ in range(COMBINED_CASES):
        keys = [list(DRAWN)[i] for i in rng.permutation(len(DRAWN))[: rng.integers(1, 4)]]
        cases.append({k: DRAWN[k][rng.integers(len(DRAWN[k]))] for k in keys})
    codes = set()
    for k, settings in enumerate(cases):
        if k % 2:  # no flag overrides the file's settings
            config = tmp_path / f"{k}.cfg"
            config.write_text("".join(f"{key} = {v}\n" for key, v in settings.items()))
            flags = {key: v for key, v in BASE.items() if key not in settings}
            argv = train_argv(toy, tmp_path / "m.ckpt", flags) + ["--config", str(config)]
        else:
            argv = train_argv(toy, tmp_path / "m.ckpt", {**BASE, **settings})
        code = run(argv, capsys, settings)
        assert code != 2, settings
        codes.add(code)
    assert {0, 1, 3} <= codes


def test_unwritable_output_paths_exit_before_any_input_is_read(toy, tmp_path, capsys):
    # Every output flag, at an existing directory, under a missing
    # directory and under a regular file. Every input is missing too, so
    # only a check made before any input is read names the output.
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "adir").mkdir()
    missing = str(tmp_path / "missing.jsonl")
    inputs = ["--train-path", missing, "--dev-path", missing, "--vectors-path", missing]
    read = ["--checkpoint", missing, "--data", missing]
    for target in (tmp_path / "adir", tmp_path / "nodir" / "out", afile / "out"):
        out = str(target)
        cases = {
            "checkpoint": ["train", "--checkpoint-path", out, *inputs],
            "history": ["train", "--checkpoint-path", str(tmp_path / "m.ckpt"),
                        "--history-path", out, *inputs],
            "predictions": ["predict", *read, "--out", out],
            "table": ["ablate", *inputs, "--out", out],
        }
        for what, argv in cases.items():
            assert C.main(argv) == 2, (what, out)
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {what} {out}: "), (what, err)
            assert "Traceback" not in err
