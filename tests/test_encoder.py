"""Tests for the fused LSTM layer, bidirectional runs, and the shortcut stack."""

import lstm_oracle
import numpy as np
import pytest

from gatednli import encoder as E
from gatednli import tensor as T
from gatednli.tensor import Tensor, grad_check

D = 3


def zero_params(input_dim, d):
    return E.LstmParams(
        w=Tensor(np.zeros((input_dim, 4 * d)), requires_grad=True),
        u=Tensor(np.zeros((d, 4 * d)), requires_grad=True),
        b=Tensor(np.zeros(4 * d), requires_grad=True),
    )


def random_params(input_dim, d, rng, scale=0.4):
    return E.LstmParams(
        w=Tensor(rng.normal(0, scale, size=(input_dim, 4 * d)), requires_grad=True),
        u=Tensor(rng.normal(0, scale, size=(d, 4 * d)), requires_grad=True),
        b=Tensor(rng.normal(0, scale, size=4 * d), requires_grad=True),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def weighted_sum(m, weights):
    """Scalar loss sum(m * weights) that reads every column of m."""
    return T.sum_axis(T.sum_axis(T.mul(m, Tensor(weights)), axis=1), axis=0)


class TestLstmCell:
    """The cell recurrence as the fused lstm_layer runs it."""

    def test_all_zero_inputs_give_half_gates(self):
        params = zero_params(2, D)
        out = E.lstm_layer(Tensor(np.zeros((3, 2))), [3], params, reverse=False).data
        np.testing.assert_array_equal(out[:, :D], 0.0)
        np.testing.assert_allclose(out[:, D:], 0.5)

    def test_saturated_gates_carry_memory(self, rng):
        # Feature 0 opens the input gate at the first step only; the forget
        # gate is pinned open, so c (and with o = 0.5, h) stays put after.
        params = zero_params(2, D)
        params.b.data[0:D] = -30.0
        params.b.data[D : 2 * D] = 30.0
        params.w.data[0, 0:D] = 60.0
        params.w.data[0, 2 * D : 3 * D] = rng.normal(size=D)
        x = np.zeros((5, 2))
        x[0, 0] = 1.0
        x[1:, 1] = rng.normal(size=4)
        out = E.lstm_layer(Tensor(x), [5], params, reverse=False).data
        h = out[:, :D]
        np.testing.assert_allclose(h, np.tile(h[0], (5, 1)), atol=1e-7)
        assert np.abs(h[0]).max() > 0.05

    def test_dim_mismatch_errors(self, rng):
        params = random_params(4, D, rng)
        with pytest.raises(T.ShapeError, match="lstm_layer"):
            E.lstm_layer(Tensor(np.zeros((1, 5))), [1], params, reverse=False)

    def test_grad_check_all_arguments(self, rng):
        params = random_params(2, D, rng)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        weights = rng.normal(size=(4, 4 * D))
        for reverse in (False, True):

            def f(_t):
                return weighted_sum(E.lstm_layer(x, [4], params, reverse), weights)

            for name in ("x", "w", "u", "b"):
                t = x if name == "x" else getattr(params, name)
                assert grad_check(f, t) < 1e-6, (name, reverse)

    def test_one_tape_record(self, rng):
        params = random_params(2, D, rng)
        with T.Graph() as g:
            E.lstm_layer(Tensor(rng.normal(size=(6, 2))), [2, 4], params, reverse=True)
        assert len(g) == 1


def oracle_block(x, lengths, params, reverse):
    """The composite oracle run on each sentence of a ragged block alone."""
    parts, start = [], 0
    for n in lengths:
        xs = T.slice_axis(x, 0, start, start + n)
        parts.append(lstm_oracle.lstm_layer(xs, params, reverse))
        start += n
    return T.concat(parts, axis=0)


class TestFusedAgainstComposite:
    """lstm_layer against the per-step composite in tests/lstm_oracle.py."""

    @staticmethod
    def run(op, x, params, weights):
        for t in (x, params.w, params.u, params.b):
            t.grad = None
        with T.Graph() as g:
            out = op()
            g.backward(weighted_sum(out, weights))
        return [out.data] + [t.grad.copy() for t in (x, params.w, params.u, params.b)]

    def assert_agree(self, lengths, reverse, seed):
        rng = np.random.default_rng(seed)
        params = random_params(5, 4, rng, scale=0.6)
        n = sum(lengths)
        x = Tensor(rng.normal(size=(n, 5)), requires_grad=True)
        weights = rng.normal(size=(n, 16))
        fused = self.run(
            lambda: E.lstm_layer(x, lengths, params, reverse), x, params, weights
        )
        composite = self.run(
            lambda: oracle_block(x, lengths, params, reverse), x, params, weights
        )
        names = ("h|i|f|o", "x", "w", "u", "b")
        for name, a, b in zip(names, fused, composite):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 7])
    def test_values_and_gradients_agree(self, reverse, n):
        self.assert_agree([n], reverse, seed=100 + n + 10 * reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize(
        "lengths",
        [[3, 1, 5, 5, 2, 1], [2, 2, 2], [1, 1], [1, 6, 4, 6]],
        ids=["mixed", "all-tied", "all-ones", "unsorted"],
    )
    def test_ragged_block_agrees_sentence_by_sentence(self, lengths, reverse):
        self.assert_agree(lengths, reverse, seed=sum(lengths) + 10 * reverse)


def one_layer(pf, pb):
    return E.EncoderParams(layers=[(pf, pb)])


def mask_of(lengths):
    """The (S, max length) 0/1 mask of a ragged block."""
    return (np.arange(max(lengths)) < np.array(lengths)[:, None]).astype(np.int64)


class TestBilstm:
    """One layer of the stack: both directions, joined per position."""

    def test_single_position_matches_two_cells(self, rng):
        pf = random_params(4, D, rng)
        pb = random_params(4, D, rng)
        x = Tensor(rng.normal(size=(1, 4)))
        enc = E.stacked_encode(x, mask_of([1]), one_layer(pf, pb), E.GateKind.INPUT)
        zeros = Tensor(np.zeros((1, D)))
        hf, _, _ = lstm_oracle.lstm_cell(x, zeros, zeros, pf)
        hb, _, _ = lstm_oracle.lstm_cell(x, zeros, zeros, pb)
        np.testing.assert_array_equal(enc.h.data, np.hstack([hf.data, hb.data]))

    def test_sequence_reversal_swaps_direction_blocks(self, rng):
        pf = random_params(4, D, rng)
        pb = random_params(4, D, rng)
        x = rng.normal(size=(5, 4))
        for gate in E.GateKind:
            enc = E.stacked_encode(Tensor(x), mask_of([5]), one_layer(pf, pb), gate)
            rev = E.stacked_encode(
                Tensor(x[::-1].copy()), mask_of([5]), one_layer(pb, pf), gate
            )
            for a, b in ((enc.h, rev.h), (enc.gate, rev.gate)):
                swapped = np.hstack([b.data[:, D:], b.data[:, :D]])
                np.testing.assert_array_equal(a.data, swapped[::-1])

    def test_companion_sentence_leaves_rows_unchanged(self, rng):
        # Sentence 1 of the block is rewritten; sentences 0 and 2 keep
        # their states and gates bit for bit.
        params = one_layer(random_params(4, D, rng), random_params(4, D, rng))
        x = rng.normal(size=(9, 4))
        mask = mask_of([3, 4, 2])
        mutated = x.copy()
        mutated[3:7] = rng.normal(size=(4, 4)) * 100.0
        kept = np.r_[0:3, 7:9]
        for gate in E.GateKind:
            base = E.stacked_encode(Tensor(x), mask, params, gate)
            other = E.stacked_encode(Tensor(mutated), mask, params, gate)
            for attr in ("h", "gate"):
                a, b = getattr(base, attr).data, getattr(other, attr).data
                np.testing.assert_array_equal(a[kept], b[kept])
                assert not np.array_equal(a[3:7], b[3:7])

    def test_gates_strictly_inside_unit_interval(self, rng):
        params = one_layer(random_params(4, D, rng), random_params(4, D, rng))
        x = Tensor(rng.normal(size=(4, 4)))
        for gate in E.GateKind:
            enc = E.stacked_encode(x, mask_of([4]), params, gate)
            assert np.all(enc.gate.data > 0.0) and np.all(enc.gate.data < 1.0)

    def test_all_masked_errors(self, rng):
        # a sentence whose mask row is all zeros has no rows to encode
        params = one_layer(random_params(4, D, rng), random_params(4, D, rng))
        mask = np.array([[1, 1], [0, 0]])
        with pytest.raises(ValueError, match="must be >= 1"):
            E.stacked_encode(Tensor(np.zeros((2, 4))), mask, params, E.GateKind.INPUT)


class TestStackedEncode:
    def test_layer_input_dims(self, rng):
        params = E.init_encoder_params(5, D, 3, rng)
        assert params.layers[0][0].w.shape[0] == 5
        assert params.layers[1][0].w.shape[0] == 5 + 2 * D
        assert params.layers[2][1].w.shape[0] == 5 + 2 * D
        mask = np.array([[1, 1, 1], [1, 0, 0]])
        enc = E.stacked_encode(
            Tensor(rng.normal(size=(4, 5))), mask, params, E.GateKind.INPUT
        )
        assert enc.h.shape == (4, 2 * D)
        assert enc.gate.shape == (4, 2 * D)
        np.testing.assert_array_equal(enc.lengths, [3, 1])

    def test_single_layer_equals_bilstm(self, rng):
        # h and the chosen gate are those blocks of the two directions'
        # [h | i | f | o] outputs, forward first.
        params = E.init_encoder_params(4, D, 1, rng)
        e = Tensor(rng.normal(size=(3, 4)))
        fwd, bwd = (
            E.lstm_layer(e, [3], p, reverse).data
            for p, reverse in zip(params.layers[0], (False, True))
        )
        for gate, k in zip(E.GateKind, (1, 2, 3)):
            stacked = E.stacked_encode(e, np.ones((1, 3)), params, gate)
            np.testing.assert_array_equal(stacked.h.data, np.hstack([fwd[:, :D], bwd[:, :D]]))
            block = np.s_[:, k * D : (k + 1) * D]
            np.testing.assert_array_equal(stacked.gate.data, np.hstack([fwd[block], bwd[block]]))

    def test_joins_only_states_and_the_top_gate(self, rng):
        # Per layer: two lstm_layer records and one join (two slices and a
        # concat) of h; a shortcut concat above layer 1; one gate join.
        params = E.init_encoder_params(4, D, 3, rng)
        with T.Graph() as g:
            E.stacked_encode(
                Tensor(rng.normal(size=(5, 4))), mask_of([2, 3]), params, E.GateKind.FORGET
            )
        assert len(g) == 3 * (2 + 3) + 2 + 3

    def test_shortcut_feeds_embeddings_and_prev_states(self, rng):
        # Replaying layer 2 by hand on [e; h1] must reproduce the stack.
        params = E.init_encoder_params(4, D, 2, rng)
        e = Tensor(rng.normal(size=(3, 4)))
        mask = np.array([[1, 1], [1, 0]])
        gate = E.GateKind.OUTPUT
        stacked = E.stacked_encode(e, mask, params, gate)
        h1 = E.stacked_encode(e, mask, one_layer(*params.layers[0]), gate).h
        manual = E.stacked_encode(
            T.concat([e, h1], axis=1), mask, one_layer(*params.layers[1]), gate
        )
        np.testing.assert_array_equal(stacked.h.data, manual.h.data)
        np.testing.assert_array_equal(stacked.gate.data, manual.gate.data)

    def test_companion_rows_do_not_leak_across_sentences(self, rng):
        # Two layers, so the shortcut input is covered too: rewriting the
        # middle sentence leaves the others' states and gates bit for bit.
        params = E.init_encoder_params(4, D, 2, rng)
        e = rng.normal(size=(9, 4))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]])
        mutated = e.copy()
        mutated[3:8] = rng.normal(size=(5, 4)) * 50.0
        kept = np.r_[0:3, 8:9]
        for gate in E.GateKind:
            base = E.stacked_encode(Tensor(e), mask, params, gate)
            other = E.stacked_encode(Tensor(mutated), mask, params, gate)
            for attr in ("h", "gate"):
                a, b = getattr(base, attr).data, getattr(other, attr).data
                np.testing.assert_array_equal(a[kept], b[kept])

    def test_forget_bias_initialized_to_one(self, rng):
        params = E.init_encoder_params(4, D, 1, rng)
        fwd = params.layers[0][0]
        np.testing.assert_array_equal(fwd.b.data[D : 2 * D], 1.0)
        np.testing.assert_array_equal(fwd.b.data[:D], 0.0)

    def test_named_tensors_cover_all_parameters(self, rng):
        params = E.init_encoder_params(4, D, 2, rng)
        names = params.named_tensors()
        assert len(names) == 12
        assert "encoder.l1.fwd.w" in names
        assert "encoder.l2.bwd.b" in names

    def test_grad_check_end_to_end(self):
        rng = np.random.default_rng(11)
        params = E.init_encoder_params(8, 4, 2, rng)
        # widen the init so gradients are not vanishingly small
        for fwd, bwd in params.layers:
            for p in (fwd, bwd):
                p.w.data[:] = rng.normal(0, 0.3, size=p.w.shape)
                p.u.data[:] = rng.normal(0, 0.3, size=p.u.shape)
        e = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        mask = np.array([[1, 1, 0], [1, 1, 1]])
        weights = rng.normal(size=(5, 2 * 8))

        for gate in E.GateKind:

            def f(_t):
                # reads the gate too, so a wrong gate backward cannot pass
                enc = E.stacked_encode(e, mask, params, gate)
                block = T.concat([enc.h, enc.gate], axis=1)
                return weighted_sum(block, weights)

            assert grad_check(f, e) < 1e-4, gate
            assert grad_check(f, params.layers[0][0].w) < 1e-4, gate
            assert grad_check(f, params.layers[1][1].u) < 1e-4, gate
