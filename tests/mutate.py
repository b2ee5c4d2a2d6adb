"""Mutation check: break the program on purpose and see tier-1 fail.

Each entry of ``MUTATIONS`` is a file, an exact text in it, the text that
replaces it, and the tests that must fail then. For each entry the script
copies the repository to a temporary directory, makes the replacement and
runs the tier-1 command there (``PYTHONPATH=src python -m pytest``); the
copies run one after another, after one run of the unchanged copy, which
must pass. A named test is a pytest node id or a prefix of one, so
``tests/test_x.py::TestY`` names the whole class.

It prints one line per mutation: how many tests failed, and whether every
named test was among them. It exits 1 when a mutation survives (a named
test passed) or its old text is not found exactly once, so a change that
rewrites a mutated line has to update its entry here. Pytest does not
collect this file; ``tests/test_source.py`` checks that every old text is
still found.

Usage, from anywhere:

    python tests/mutate.py            # every entry, about 20 s each on 2 cores
    python tests/mutate.py NAME ...   # only the named entries
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = (sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
# Checks this list against the unchanged tree, so it fails in every
# mutated copy; it is left out of the copies' runs.
LIST_CHECK = "tests/test_source.py::test_every_mutation_still_applies"
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".perfbench", "*.egg-info"
)

TENSOR = "src/gatednli/tensor.py"
ENCODER = "src/gatednli/encoder.py"
ACCEPTANCE_1 = "tests/test_acceptance.py::TestAcceptance::test_1"


class Mutation(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    must_fail: tuple[str, ...]


MUTATIONS = (
    # The tape's one gradient rule (Graph.backward, take_spare, concat).
    Mutation(
        "leaf-second-contribution-assigned", TENSOR,
        "                        t.grad += g\n",
        "                        t.grad = g\n",
        (ACCEPTANCE_1, "tests/test_tensor.py::TestBackward"),
    ),
    Mutation(
        "intermediate-second-contribution-assigned", TENSOR,
        "                        prev += g\n",
        "                        flowing[id(t)] = g\n",
        (ACCEPTANCE_1, "tests/test_tensor.py::TestBackward"),
    ),
    Mutation(
        "take-spare-keeps-its-slot", TENSOR,
        "    spare, t.spare = t.spare, None\n",
        "    spare = t.spare\n",
        ("tests/test_tensor.py::TestSpareGradients",
         "tests/test_encoder.py::TestLstmCell::test_spare_arrays_take_the_weight_gradients"),
    ),
    Mutation(
        "concat-backward-returns-views", TENSOR,
        "g[lead + (slice(lo, hi),)].copy() for lo, hi",
        "g[lead + (slice(lo, hi),)] for lo, hi",
        ("tests/test_tensor.py::TestFreshLeafGradients::test_leaf_reached_through_a_view[concat]",
         "tests/test_tensor.py::TestBackwardContract"),
    ),
    Mutation(
        "concat-backward-slices-shifted", TENSOR,
        "g[lead + (slice(lo, hi),)].copy() for lo, hi",
        "g[lead + (slice(lo + 1, hi + 1),)].copy() for lo, hi",
        (ACCEPTANCE_1,),
    ),
    Mutation(
        "primitives-add-aliases-its-gradient", "tests/primitives.py",
        "lambda g, x, y: (g, g.copy())",
        "lambda g, x, y: (g, g)",
        ("tests/test_tensor.py::TestBackward::test_leaf_fanout_with_aliased_gradients",
         "tests/test_tensor.py::TestFreshLeafGradients::test_leaf_handed_its_ops_incoming_gradient"),
    ),
    # Fused records.
    Mutation(
        "affine-masks-at-zero", TENSOR,
        "gz = g * (out > 0) if relu else g",
        "gz = g * (out >= 0) if relu else g",
        (ACCEPTANCE_1, "tests/test_tensor.py::TestAffine"),
    ),
    Mutation(
        "take-rows-scatters-into-reversed-windows", TENSOR,
        "np.add.at(z, idx, g.reshape(idx.shape + ad.shape[1:]))",
        "np.add.at(z, idx[:, ::-1] if idx.ndim == 2 else idx, g.reshape(idx.shape + ad.shape[1:]))",
        (ACCEPTANCE_1, "tests/test_tensor.py::TestTakeRowsBlock"),
    ),
    Mutation(
        "matching-adds-s-to-the-hypothesis", "src/gatednli/classify.py",
        "g_h = (g_h + g_m * v_p) - s",
        "g_h = (g_h + g_m * v_p) + s",
        (ACCEPTANCE_1, "tests/test_classify.py::TestMatchingFeatures"),
    ),
    Mutation(
        "matching-pairs-the-next-hypothesis", "src/gatednli/classify.py",
        "v_p, v_h = vd[:n], vd[n:]",
        "v_p, v_h = vd[:n], np.roll(vd[n:], -1, axis=0)",
        ("tests/test_acceptance.py::TestAcceptance::test_4", "tests/test_batching.py"),
    ),
    # The BiLSTM layer's backward.
    Mutation(
        "lstm-drops-i-f-update-gradients", ENCODER,
        "            dpre[:, lo:hi, :3] += k3[:, lo:hi] * dc[:, :, None]\n",
        "",
        (ACCEPTANCE_1, "tests/test_encoder.py::TestFusedAgainstComposite"),
    ),
    Mutation(
        "lstm-drops-o-gradient", ENCODER,
        "            dpre[:, lo:hi, 3] += dh * k_o[:, lo:hi]\n",
        "",
        (ACCEPTANCE_1, "tests/test_encoder.py::TestFusedAgainstComposite"),
    ),
    Mutation(
        "lstm-ignores-the-gate-gradient", ENCODER,
        "        if ggate is not None:\n            dpre[:, :, j]",
        "        if False:\n            dpre[:, :, j]",
        (ACCEPTANCE_1, "tests/test_encoder.py::TestFusedAgainstComposite"),
    ),
    Mutation(
        "lstm-du-reads-h-prev-rolled", ENCODER,
        "np.matmul(h[k, prev_rows].T, flat[k], out=T.take_spare(p.u))",
        "np.matmul(np.roll(h[k, prev_rows], 1, axis=0).T, flat[k], out=T.take_spare(p.u))",
        (ACCEPTANCE_1, "tests/test_encoder.py::TestFusedAgainstComposite"),
    ),
    Mutation(
        "lstm-backward-dx-assigned", ENCODER,
        "dx[rows[1]] += flat[1] @ ws[1].T",
        "dx[rows[1]] = flat[1] @ ws[1].T",
        (ACCEPTANCE_1, "tests/test_encoder.py::TestFusedAgainstComposite"),
    ),
    # Adam's flat layout.
    Mutation(
        "adam-does-not-rebind-data", "src/gatednli/train.py",
        "            t.data = view\n",
        "",
        ("tests/test_train.py::TestAdam",),
    ),
    Mutation(
        "adam-does-not-copy-values", "src/gatednli/train.py",
        "            view[...] = t.data\n",
        "",
        ("tests/test_train.py::TestAdam",),
    ),
    # Batching and determinism.
    Mutation(
        "batchify-in-file-order", "src/gatednli/data.py",
        "order = np.random.default_rng(seed).permutation(len(pairs))",
        "order = np.arange(len(pairs))",
        ("tests/test_data.py::TestBatchify::test_different_seed_usually_differs",),
    ),
    Mutation(
        "batchify-ignores-its-seed", "src/gatednli/data.py",
        "order = np.random.default_rng(seed).permutation(len(pairs))",
        "order = np.random.default_rng(0).permutation(len(pairs))",
        ("tests/test_data.py::TestBatchify::test_different_seed_usually_differs",),
    ),
    Mutation(
        "gather-batch-inverse-off-by-one", "src/gatednli/data.py",
        "inverse=(np.cumsum(present) - 1)[form_ids],",
        "inverse=(np.cumsum(present) % present.sum())[form_ids],",
        ("tests/test_data.py::TestEncodedPairs::test_batches_match_per_batch_encoding",
         "tests/test_data.py::TestBatchify::test_mask_matches_lengths"),
    ),
    Mutation(
        "logits-carry-os-random-noise", "src/gatednli/model.py",
        "        return CL.mlp_forward(v_inp, self.params.classifier)\n",
        "        logits = CL.mlp_forward(v_inp, self.params.classifier)\n"
        "        logits.data += 1e-9 * np.random.default_rng().random(logits.shape)\n"
        "        return logits\n",
        ("tests/test_threads.py",),
    ),
    # Output paths are checked before any input is read.
    Mutation(
        "predict-skips-the-output-check", "src/gatednli/cli.py",
        '        _check_output(args.out, "predictions")\n',
        "        pass\n",
        ("tests/test_fuzz.py::test_unwritable_output_paths_exit_before_any_input_is_read",
         "tests/test_cli.py::TestExitCodes::test_unwritable_predictions_fail_before_any_input_is_read"),
    ),
    Mutation(
        "ablate-skips-the-output-check", "src/gatednli/cli.py",
        '        _check_output(args.out, "table")\n',
        "        pass\n",
        ("tests/test_fuzz.py::test_unwritable_output_paths_exit_before_any_input_is_read",
         "tests/test_cli.py::TestExitCodes::test_unwritable_output_fails_before_training"),
    ),
)


def missing(m: Mutation) -> str | None:
    """Why the entry cannot be applied to the repository, or None."""
    count = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
    return None if count == 1 else f"old text found {count} times in {m.file}"


def failures(tree: Path) -> set[str]:
    """The node ids tier-1 reports failed or errored in a tree."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run((*TIER1, "--deselect", LIST_CHECK), cwd=tree, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    return {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def run(m: Mutation | None) -> set[str]:
    """Tier-1's failures in a copy of the repository with m applied."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        if m is not None:
            path = tree / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                            encoding="utf-8")
        return failures(tree)


def main(names: list[str]) -> int:
    known = {m.name for m in MUTATIONS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown mutations: {', '.join(unknown)}", file=sys.stderr)
        return 1
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    baseline = run(None)
    if baseline:
        print(f"unchanged copy: {len(baseline)} failed: {', '.join(sorted(baseline))}")
        return 1
    print(f"unchanged copy: 0 failed; {len(chosen)} mutations")
    survived = 0
    for m in chosen:
        why = missing(m)
        if why is not None:
            print(f"{m.name}: MISSING, {why}")
            survived += 1
            continue
        failed = run(m)
        passed = [t for t in m.must_fail if not any(f.startswith(t) for f in failed)]
        if passed:
            survived += 1
            print(f"{m.name}: SURVIVED, {len(failed)} failed; passed: {', '.join(passed)}")
        else:
            print(f"{m.name}: caught, {len(failed)} failed, named tests among them")
    print(f"{len(chosen) - survived} of {len(chosen)} mutations caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
