"""Bit-exactness at one BLAS thread count.

A BLAS library may sum a product in another order when it splits it over
another number of threads, so runs are bit-exact only at one count
(README, Reproducibility). This module runs one forward, loss and
backward of a float32 model in three fresh processes, with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` at 1, 1 and 2. The two
1-thread runs must agree bit for bit in the logits and every gradient;
the 2-thread run's logits must stay within the batch-composition bound of
``test_batching``.

The shape is the toy one with hidden_dim 24, on one batch of 64 pairs.
With OpenBLAS 0.3.31 on a 2-core x86 machine it was the smallest of the
shapes probed at which 2 threads change results: the encoder's weight
gradients, products summed over the batch's token rows, differed from
the 1-thread run's, while the logits did not. That 1 and 2 threads differ
is not asserted, since another BLAS may not split the product.

The rest of the suite runs at one thread too, unless the environment
sets another count: ``tests/conftest.py`` sets both variables to 1 where
unset, before numpy loads.

Run as a script, the module writes the logits and the gradients to the
``.npz`` path it is given.
"""

import os
import subprocess
import sys

import numpy as np

import gatednli
from gatednli import classify as CL
from gatednli import synthetic as S
from gatednli.data import build_vocab, encode_pairs, gather_batch
from gatednli.model import Model, ModelConfig
from gatednli.tensor import Graph
from test_batching import BOUND, TOY

DIMS = dict(TOY, hidden_dim=24)
PAIRS = 64
SRC = os.path.dirname(os.path.dirname(os.path.abspath(gatednli.__file__)))


def write_step(out):
    """One float32 forward, loss and backward; the logits and each
    trainable tensor's gradient go to out."""
    examples, _ = S.make_split(PAIRS, 1, seed=5)
    vocab = build_vocab(examples)
    rng = np.random.default_rng(3)
    table = rng.normal(size=(vocab.n_words, DIMS["word_dim"])).astype(np.float32)
    model = Model.initialize(ModelConfig(**DIMS), vocab.n_chars, table, rng)
    batch = gather_batch(encode_pairs(examples, vocab), np.arange(PAIRS))
    with Graph() as g:
        logits = model.forward(batch)
        g.backward(CL.cross_entropy(logits, batch.labels))
    grads = {name: t.grad for name, t in model.params.trainable().items()}
    np.savez(out, logits=logits.data, **grads)


def step_at(threads, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, __file__, str(out)], env=env, check=True, timeout=60)
    with np.load(out) as arrays:
        return {name: arrays[name] for name in arrays.files}


def test_one_thread_count_is_bit_exact(tmp_path):
    one, again, two = (step_at(n, tmp_path / f"{i}.npz") for i, n in enumerate((1, 1, 2)))
    assert one.keys() == again.keys() == two.keys() and len(one) > 1
    assert one["logits"].dtype == np.float32
    for name, array in one.items():
        assert array.tobytes() == again[name].tobytes(), name
    assert np.abs(two["logits"] - one["logits"]).max() <= BOUND[np.dtype(np.float32)]


def test_tests_run_at_a_pinned_thread_count():
    # tests/conftest.py sets both variables before numpy loads.
    import conftest

    assert not conftest.NUMPY_BEFORE_PIN
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert os.environ.get(var), var


if __name__ == "__main__":
    write_step(sys.argv[1])
