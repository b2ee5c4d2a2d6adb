"""Tests for matching features, the MLP head, and cross-entropy."""

import inspect

import numpy as np
import primitives as P
import pytest

from gatednli import classify as C
from gatednli import tensor as T
from gatednli.tensor import ShapeError, Tensor, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def pair_block(*rows):
    """The (2B, D) block of B premise rows, then B hypothesis rows."""
    return Tensor(np.vstack(rows))


def grads_of(fn, leaves, cotangent):
    """fn()'s output and the gradients of vdot(cotangent, fn()) with
    respect to each leaf, through one Graph."""
    for t in leaves:
        t.grad = None
    with T.Graph() as g:
        out = fn()
        loss = P.sum_axis(P.sum_axis(P.mul(out, Tensor(cotangent)), axis=1), axis=0)
        g.backward(loss)
    grads = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    return out.data, grads


class TestMatchingFeatures:
    def test_identical_inputs(self, rng):
        v = rng.normal(size=(1, 4))
        out = C.matching_features(pair_block(v, v)).data
        np.testing.assert_array_equal(out[:, 0:4], v)
        np.testing.assert_array_equal(out[:, 4:8], v)
        np.testing.assert_array_equal(out[:, 8:12], 0.0)
        np.testing.assert_array_equal(out[:, 12:16], v * v)

    def test_swap_exchanges_first_two_blocks_only(self, rng):
        a = rng.normal(size=(1, 3))
        b = rng.normal(size=(1, 3))
        ab = C.matching_features(pair_block(a, b)).data
        ba = C.matching_features(pair_block(b, a)).data
        np.testing.assert_array_equal(ab[:, 0:3], ba[:, 3:6])
        np.testing.assert_array_equal(ab[:, 3:6], ba[:, 0:3])
        np.testing.assert_array_equal(ab[:, 6:12], ba[:, 6:12])

    def test_ablation_keeps_raw_pair_only(self, rng):
        a = rng.normal(size=(1, 3))
        b = rng.normal(size=(1, 3))
        out = C.matching_features(pair_block(a, b), use_absdiff_product=False)
        assert out.shape == (1, 6)
        np.testing.assert_array_equal(out.data, np.hstack([a, b]))

    @pytest.mark.parametrize("shape", [(3, 4), (0, 4), (4,)], ids=["odd", "empty", "1-d"])
    def test_odd_row_count_errors(self, shape):
        with pytest.raises(ShapeError, match="matching_features"):
            C.matching_features(Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("absdiff", [True, False], ids=["absdiff", "ablated"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("b, d", [(3, 5), (4, 3600), (32, 24)], ids=["toy", "paper", "b32"])
    def test_matches_the_primitive_chain_bit_for_bit(self, b, d, dtype, absdiff):
        rng = np.random.default_rng(b * d)
        v = Tensor(rng.normal(size=(2 * b, d)).astype(dtype), requires_grad=True)
        v.data[b] = v.data[0]  # |v_p - v_h| at its kink: sign(0) = 0 in both
        cot = rng.normal(size=(b, (4 if absdiff else 2) * d)).astype(dtype)
        # Column 0: v_p > v_h > 0 under a -0.0 cotangent in every block, so
        # each premise's gradient there sums to -0.0 before the halves join.
        v.data[1:b, 0], v.data[b + 1 :, 0] = 2.0, 1.0
        cot[:, ::d] = -0.0
        fused, (g_fused,) = grads_of(lambda: C.matching_features(v, absdiff), [v], cot)
        chain, (g_chain,) = grads_of(lambda: P.matching_chain(v, absdiff), [v], cot)
        assert fused.dtype == g_fused.dtype == dtype
        assert fused.tobytes() == chain.tobytes()
        assert g_fused.tobytes() == g_chain.tobytes()

    def test_one_tape_record(self, rng):
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with T.Graph() as g:
            C.matching_features(v)
        assert len(g) == 1

    @pytest.mark.parametrize("absdiff", [True, False], ids=["absdiff", "ablated"])
    def test_each_row_reaches_only_its_pair(self, rng, absdiff):
        # Row r of the (2B, D) block is pair r mod B's premise or
        # hypothesis: perturbing it changes that output row and leaves the
        # others bit for bit, and a cotangent on one output row reaches
        # only that pair's two rows.
        b, d = 4, 3
        v = Tensor(rng.normal(size=(2 * b, d)), requires_grad=True)
        before = C.matching_features(v, absdiff).data
        for r in range(2 * b):
            moved = Tensor(v.data.copy())
            moved.data[r] += 0.5
            after = C.matching_features(moved, absdiff).data
            pair = r % b
            others = np.arange(b) != pair
            assert after[others].tobytes() == before[others].tobytes(), r
            assert np.any(after[pair] != before[pair]), r
        for pair in range(b):
            cot = np.zeros(before.shape)
            cot[pair] = rng.normal(size=before.shape[1])
            _, (grad,) = grads_of(lambda: C.matching_features(v, absdiff), [v], cot)
            touched = np.flatnonzero(np.any(grad != 0.0, axis=1))
            assert touched.tolist() == [pair, b + pair]

    def test_grad_check_off_the_kink(self, rng):
        v = rng.normal(size=(6, 4))
        v[3:] += np.where(v[3:] >= v[:3], 0.1, -0.1)  # |v_p - v_h| >= 0.1
        v = Tensor(v, requires_grad=True)
        for absdiff in (True, False):
            assert grad_check(lambda t: C.matching_features(t, absdiff), v) < 1e-6


class TestMlpForward:
    def test_zero_weights_give_uniform_probs(self, rng):
        params = C.init_classifier_params(8, 5, rng)
        for t in params.named_tensors().values():
            t.data[:] = 0.0
        logits = C.mlp_forward(Tensor(rng.normal(size=(1, 8))), params)
        np.testing.assert_array_equal(logits.data, 0.0)
        np.testing.assert_allclose(C.probabilities(logits.data), 1.0 / 3.0)

    def test_probs_form_distribution(self, rng):
        params = C.init_classifier_params(8, 5, rng)
        for _ in range(5):
            logits = C.mlp_forward(Tensor(rng.normal(size=(1, 8))), params)
            probs = C.probabilities(logits.data)
            assert np.all(probs > 0.0) and np.all(probs < 1.0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_logit_shift_keeps_prediction(self, rng):
        params = C.init_classifier_params(6, 4, rng)
        x = Tensor(rng.normal(size=(1, 6)))
        probs = C.probabilities(C.mlp_forward(x, params).data)
        params.b_out.data += 13.7
        shifted = C.probabilities(C.mlp_forward(x, params).data)
        assert probs.argmax() == shifted.argmax()
        np.testing.assert_allclose(probs, shifted, atol=1e-12)

    def test_shortcut_keeps_input_visible_past_dead_layer1(self, rng):
        # zero first layer: with the shortcut the input still reaches layer
        # 2; without it the output is constant in the input.
        for shortcut in (True, False):
            params = C.init_classifier_params(6, 4, rng, shortcut=shortcut)
            params.w1.data[:] = 0.0
            a = C.mlp_forward(Tensor(rng.normal(size=(1, 6))), params)
            b = C.mlp_forward(Tensor(rng.normal(size=(1, 6))), params)
            changed = not np.array_equal(a.data, b.data)
            assert changed == shortcut

    def test_layer2_width_reflects_shortcut(self, rng):
        with_sc = C.init_classifier_params(6, 4, rng, shortcut=True)
        without = C.init_classifier_params(6, 4, rng, shortcut=False)
        assert with_sc.w2.shape == (10, 4)
        assert without.w2.shape == (4, 4)

    def test_grad_check_full_classifier(self, rng):
        params = C.init_classifier_params(5, 4, rng)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        # Both ReLU layers' pre-activations sit more than ten of grad_check's
        # central steps from the kink, so no difference straddles it.
        pre1 = x.data @ params.w1.data + params.b1.data
        in2 = np.hstack([x.data, np.maximum(pre1, 0.0)])
        pre2 = in2 @ params.w2.data + params.b2.data
        step = inspect.signature(grad_check).parameters["eps"].default
        assert min(np.abs(pre1).min(), np.abs(pre2).min()) > 10 * step

        def f(_t):
            return C.cross_entropy(C.mlp_forward(x, params), [1, 0, 1])

        for name, t in [("x", x)] + list(params.named_tensors().items()):
            assert grad_check(f, t) < 1e-5, name


class TestProbabilities:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(11)
        p = C.probabilities(rng.normal(scale=5.0, size=(20, 3)))
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype_and_survives_large_logits(self, dtype):
        p = C.probabilities(np.array([[1000.0, 0.0, 1000.0]], dtype))
        assert p.dtype == dtype
        np.testing.assert_array_equal(p, [[0.5, 0.0, 0.5]])


def _neg_log_softmax(logits, labels):
    """Float64 oracle: -log softmax(logits)[row, label], per row."""
    x = np.asarray(logits, dtype=np.float64)
    log_z = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1))
    return log_z + x.max(axis=1) - x[np.arange(len(x)), labels]


class TestCrossEntropy:
    def test_certain_correct_prediction_costs_nothing(self):
        loss = C.cross_entropy(Tensor(np.array([[60.0, 0.0, 0.0]])), 0)
        np.testing.assert_allclose(loss.data, [0.0], atol=1e-25)

    def test_uniform_probs_cost_ln3(self):
        for logits in (np.zeros((1, 3)), np.full((1, 3), -7.5)):
            loss = C.cross_entropy(Tensor(logits), 2)
            np.testing.assert_allclose(loss.data, [np.log(3.0)], rtol=1e-12)

    def test_confident_wrong_row_keeps_its_gradient(self):
        # A gold probability of about 1e-13 is far below float32's smallest
        # step near 1, yet the row keeps its full gradient.
        logits = Tensor(np.array([[30.0, 0.0, 0.0]], np.float32), requires_grad=True)
        with T.Graph() as g:
            loss = C.cross_entropy(logits, 1)
            g.backward(loss)
        assert loss.data.dtype == np.float32
        np.testing.assert_allclose(loss.data, [30.0], rtol=1e-6)
        want = C.probabilities(logits.data) - np.eye(3, dtype=np.float32)[[1]]
        np.testing.assert_array_equal(logits.grad, want)
        assert logits.grad[0, 1] == -1.0

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            logits = rng.normal(scale=4.0, size=(1, 3))
            label = int(rng.integers(0, 3))
            loss = C.cross_entropy(Tensor(logits), label)
            assert loss.data[0] >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            C.cross_entropy(Tensor(np.zeros((1, 3))), 3)

    def test_batch_loss_is_row_mean(self, rng):
        logits = rng.normal(scale=3.0, size=(5, 3))
        labels = np.array([0, 2, 1, 0, 2])
        mean = C.cross_entropy(Tensor(logits), labels)
        assert mean.shape == (1,)
        want = _neg_log_softmax(logits, labels).mean()
        np.testing.assert_allclose(mean.data, [want], rtol=0, atol=1e-12)

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError, match="empty"):
            C.cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeError):
            C.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])

    def test_gradient_reaches_probs(self, rng):
        # d(mean loss)/d(logits) is each row's probabilities minus its
        # one-hot label, over the number of rows.
        raw = rng.normal(size=(4, 3))
        labels = np.array([2, 0, 1, 2])
        logits = Tensor(raw, requires_grad=True)
        with T.Graph() as g:
            g.backward(C.cross_entropy(logits, labels))
        want = (C.probabilities(raw) - np.eye(3)[labels]) / 4
        np.testing.assert_allclose(logits.grad, want, rtol=0, atol=1e-15)
        assert grad_check(lambda t: C.cross_entropy(t, labels), logits) < 1e-6

    def test_one_tape_record(self, rng):
        logits = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with T.Graph() as g:
            C.cross_entropy(logits, [0, 1, 2])
        assert len(g) == 1
