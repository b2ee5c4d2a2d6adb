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
        probs, logits = C.mlp_forward(Tensor(rng.normal(size=(1, 8))), params)
        np.testing.assert_allclose(probs.data, 1.0 / 3.0)
        np.testing.assert_array_equal(logits.data, 0.0)

    def test_probs_form_distribution(self, rng):
        params = C.init_classifier_params(8, 5, rng)
        for _ in range(5):
            probs, _ = C.mlp_forward(Tensor(rng.normal(size=(1, 8))), params)
            assert np.all(probs.data > 0.0) and np.all(probs.data < 1.0)
            assert abs(probs.data.sum() - 1.0) < 1e-12

    def test_logit_shift_keeps_prediction(self, rng):
        params = C.init_classifier_params(6, 4, rng)
        x = Tensor(rng.normal(size=(1, 6)))
        probs, _ = C.mlp_forward(x, params)
        params.b_out.data += 13.7
        shifted, _ = C.mlp_forward(x, params)
        assert probs.data.argmax() == shifted.data.argmax()
        np.testing.assert_allclose(probs.data, shifted.data, atol=1e-12)

    def test_shortcut_keeps_input_visible_past_dead_layer1(self, rng):
        # zero first layer: with the shortcut the input still reaches layer
        # 2; without it the output is constant in the input.
        for shortcut in (True, False):
            params = C.init_classifier_params(6, 4, rng, shortcut=shortcut)
            params.w1.data[:] = 0.0
            a, _ = C.mlp_forward(Tensor(rng.normal(size=(1, 6))), params)
            b, _ = C.mlp_forward(Tensor(rng.normal(size=(1, 6))), params)
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
            probs, _ = C.mlp_forward(x, params)
            return C.cross_entropy(probs, [1, 0, 1])

        for name, t in [("x", x)] + list(params.named_tensors().items()):
            assert grad_check(f, t) < 1e-5, name


class TestCrossEntropy:
    def test_certain_correct_prediction_costs_nothing(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = C.cross_entropy(probs, 0)
        np.testing.assert_allclose(loss.data, [0.0])

    def test_uniform_probs_cost_ln3(self):
        probs = Tensor(np.full((1, 3), 1.0 / 3.0))
        loss = C.cross_entropy(probs, 2)
        np.testing.assert_allclose(loss.data, [np.log(3.0)], rtol=1e-12)

    def test_zero_probability_clamped(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = C.cross_entropy(probs, 1)
        np.testing.assert_allclose(loss.data, [-np.log(1e-12)])

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            label = int(rng.integers(0, 3))
            loss = C.cross_entropy(Tensor(p[None, :]), label)
            assert loss.data[0] >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            C.cross_entropy(Tensor(np.full((1, 3), 1 / 3)), 3)

    def test_batch_loss_is_row_mean(self, rng):
        ps = rng.dirichlet(np.ones(3), size=4)
        labels = np.array([0, 2, 1, 0])
        mean = C.cross_entropy(Tensor(ps), labels)
        want = np.mean([-np.log(p[y]) for p, y in zip(ps, labels)])
        np.testing.assert_allclose(mean.data, [want])

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError, match="empty"):
            C.cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeError):
            C.cross_entropy(Tensor(np.full((2, 3), 1 / 3)), [0, 1, 2])

    def test_gradient_reaches_probs(self, rng):
        probs_raw = rng.dirichlet(np.ones(3))
        probs = Tensor(probs_raw[None, :], requires_grad=True)
        with T.Graph() as g:
            g.backward(C.cross_entropy(probs, 1))
        want = np.zeros((1, 3))
        want[0, 1] = -1.0 / probs_raw[1]
        np.testing.assert_allclose(probs.grad, want)
