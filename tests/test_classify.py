"""Tests for matching features, the MLP head, and cross-entropy."""

import numpy as np
import pytest

from gatednli import classify as C
from gatednli import tensor as T
from gatednli.tensor import ShapeError, Tensor, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestMatchingFeatures:
    def test_identical_inputs(self, rng):
        v = Tensor(rng.normal(size=(1, 4)))
        out = C.matching_features(v, v).data
        np.testing.assert_array_equal(out[:, 0:4], v.data)
        np.testing.assert_array_equal(out[:, 4:8], v.data)
        np.testing.assert_array_equal(out[:, 8:12], 0.0)
        np.testing.assert_array_equal(out[:, 12:16], v.data * v.data)

    def test_swap_exchanges_first_two_blocks_only(self, rng):
        a = Tensor(rng.normal(size=(1, 3)))
        b = Tensor(rng.normal(size=(1, 3)))
        ab = C.matching_features(a, b).data
        ba = C.matching_features(b, a).data
        np.testing.assert_array_equal(ab[:, 0:3], ba[:, 3:6])
        np.testing.assert_array_equal(ab[:, 3:6], ba[:, 0:3])
        np.testing.assert_array_equal(ab[:, 6:12], ba[:, 6:12])

    def test_ablation_keeps_raw_pair_only(self, rng):
        a = Tensor(rng.normal(size=(1, 3)))
        b = Tensor(rng.normal(size=(1, 3)))
        out = C.matching_features(a, b, use_absdiff_product=False)
        assert out.shape == (1, 6)
        np.testing.assert_array_equal(out.data, np.hstack([a.data, b.data]))

    def test_dim_mismatch_errors(self, rng):
        with pytest.raises(ShapeError, match="matching_features"):
            C.matching_features(
                Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4)))
            )


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
