"""Tests for the fused BiLSTM layer, bidirectional runs, and the shortcut stack."""

import lstm_oracle
import numpy as np
import primitives as P
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
    return P.sum_axis(P.sum_axis(P.mul(m, Tensor(weights)), axis=1), axis=0)


def random_pair(input_dim, d, rng, scale=0.4):
    return tuple(random_params(input_dim, d, rng, scale) for _ in range(2))


def layer_tensors(x, pair):
    """x and the six weight tensors of a (forward, backward) pair."""
    return [x] + [t for p in pair for t in (p.w, p.u, p.b)]


class TestLstmCell:
    """The cell recurrence as the fused bilstm_layer runs it."""

    def test_all_zero_inputs_give_half_gates(self):
        pair = (zero_params(2, D), zero_params(2, D))
        for gate in E.GateKind:
            h, g = E.bilstm_layer(Tensor(np.zeros((3, 2))), [3], pair, gate)
            np.testing.assert_array_equal(h.data, 0.0)
            np.testing.assert_allclose(g.data, 0.5)

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
        h, _ = E.bilstm_layer(Tensor(x), [5], (params, zero_params(2, D)))
        h = h.data[:, :D]  # the forward direction
        np.testing.assert_allclose(h, np.tile(h[0], (5, 1)), atol=1e-7)
        assert np.abs(h[0]).max() > 0.05

    def test_dim_mismatch_errors(self, rng):
        pair = random_pair(4, D, rng)
        with pytest.raises(T.ShapeError, match="bilstm_layer"):
            E.bilstm_layer(Tensor(np.zeros((1, 5))), [1], pair)

    def test_grad_check_all_arguments(self, rng):
        # Some weight gradients are near 1e-5, where the default step's
        # round-off alone reads about 2e-6 relative; a step of 5e-5 keeps
        # both round-off and truncation under the bound.
        pair = random_pair(2, D, rng)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        weights = rng.normal(size=(4, 4 * D))
        for gate in (None, *E.GateKind):

            def f(_t):
                h, g = E.bilstm_layer(x, [4], pair, gate)
                if g is None:
                    return weighted_sum(h, weights[:, : 2 * D])
                return weighted_sum(T.concat([h, g], axis=1), weights)

            for t in layer_tensors(x, pair):
                assert grad_check(f, t, eps=5e-5) < 1e-6, (t.shape, gate)

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared-weights"])
    def test_spare_arrays_take_the_weight_gradients(self, rng, shared):
        # Each weight's spare, NaN-filled, must be overwritten by its first
        # contribution and hold the fresh run's gradient bit for bit. With
        # one LstmParams for both directions, the backward direction's
        # gradients are a second contribution and add to the spare.
        pair = random_pair(3, D, rng)
        if shared:
            pair = (pair[0], pair[0])
        x = Tensor(rng.normal(size=(6, 3)))
        weights = rng.normal(size=(6, 4 * D))
        leaves = list(dict.fromkeys(layer_tensors(x, pair)[1:]))

        def grads(spares):
            for t, s in zip(leaves, spares):
                t.grad, t.spare = None, s
            with T.Graph() as g:
                h, gate = E.bilstm_layer(x, [2, 4], pair, E.GateKind.INPUT)
                g.backward(weighted_sum(T.concat([h, gate], axis=1), weights))
            return [t.grad for t in leaves]

        fresh = [a.copy() for a in grads([None] * len(leaves))]
        spares = [np.full_like(t.data, np.nan) for t in leaves]
        reused = grads(spares)
        for a, b, s in zip(reused, fresh, spares, strict=True):
            assert a is s and a.tobytes() == b.tobytes()
        assert all(t.spare is None for t in leaves)

    def test_one_tape_record(self, rng):
        # one for both directions' states, with the gate as a second output
        pair = random_pair(2, D, rng)
        x = Tensor(rng.normal(size=(6, 2)))
        for gate in (None, E.GateKind.FORGET):
            with T.Graph() as g:
                outs = E.bilstm_layer(x, [2, 4], pair, gate)
            ((recorded, _, _),) = g._records
            assert recorded == tuple(t for t in outs if t is not None)


class TestFusedAgainstComposite:
    """bilstm_layer against the per-step composite in tests/lstm_oracle.py,
    run on each sentence and direction alone."""

    @staticmethod
    def run(op, tensors, reads, weights):
        """The outputs of op and the gradients of a weighted sum over the
        outputs it reads."""
        for t in tensors:
            t.grad = None
        with T.Graph() as g:
            outs = [a for a in op() if a is not None]
            read = [a for a, r in zip(outs, reads) if r]
            g.backward(weighted_sum(T.concat(read, axis=1), weights))
        grads = [
            np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors
        ]
        return [a.data for a in outs] + grads

    def assert_agree(self, lengths, with_gate, seed, reads=(True, True)):
        rng = np.random.default_rng(seed)
        pair = random_pair(5, 4, rng, scale=0.6)
        n = sum(lengths)
        x = Tensor(rng.normal(size=(n, 5)), requires_grad=True)
        tensors = layer_tensors(x, pair)
        names = ("h", "gate")[: 1 + with_gate] + ("x", "fw", "fu", "fb", "bw", "bu", "bb")
        if not with_gate:
            reads = reads[:1]
        weights = rng.normal(size=(n, 8 * sum(reads)))
        for gate in E.GateKind if with_gate else [None]:
            fused = self.run(
                lambda: E.bilstm_layer(x, lengths, pair, gate), tensors, reads, weights
            )
            composite = self.run(
                lambda: lstm_oracle.bilstm_layer(x, lengths, pair, gate),
                tensors, reads, weights,
            )
            for name, a, b in zip(names, fused, composite, strict=True):
                np.testing.assert_allclose(
                    a, b, rtol=0, atol=1e-10, err_msg=f"{name}, {gate}"
                )

    @pytest.mark.parametrize("with_gate", [False, True])
    @pytest.mark.parametrize("n", [1, 7])
    def test_values_and_gradients_agree(self, with_gate, n):
        self.assert_agree([n], with_gate, seed=100 + n + 10 * with_gate)

    @pytest.mark.parametrize("with_gate", [False, True])
    @pytest.mark.parametrize(
        "lengths",
        [[3, 1, 5, 5, 2, 1], [2, 2, 2], [1, 1], [1, 6, 4, 6]],
        ids=["mixed", "all-tied", "all-ones", "unsorted"],
    )
    def test_ragged_block_agrees_sentence_by_sentence(self, lengths, with_gate):
        self.assert_agree(lengths, with_gate, seed=sum(lengths) + 10 * with_gate)

    @pytest.mark.parametrize("reads", [(False, True), (True, False)], ids=["gate", "h"])
    def test_loss_reading_one_output_gets_oracle_gradients(self, reads):
        # A loss over one output alone hands the layer's backward None for
        # the other.
        self.assert_agree([3, 1, 5, 2], True, seed=17, reads=reads)


def one_layer(pf, pb):
    return E.EncoderParams(layers=[(pf, pb)])


class TestBilstm:
    """One layer of the stack: both directions, joined per position."""

    def test_single_position_matches_two_cells(self, rng):
        pf = random_params(4, D, rng)
        pb = random_params(4, D, rng)
        x = Tensor(rng.normal(size=(1, 4)))
        enc = E.stacked_encode(x, [1], one_layer(pf, pb), E.GateKind.INPUT)
        zeros = Tensor(np.zeros((1, D)))
        hf, _, _ = lstm_oracle.lstm_cell(x, zeros, zeros, pf)
        hb, _, _ = lstm_oracle.lstm_cell(x, zeros, zeros, pb)
        np.testing.assert_array_equal(enc.h.data, np.hstack([hf.data, hb.data]))

    def test_sequence_reversal_swaps_direction_blocks(self, rng):
        pf = random_params(4, D, rng)
        pb = random_params(4, D, rng)
        x = rng.normal(size=(5, 4))
        for gate in E.GateKind:
            enc = E.stacked_encode(Tensor(x), [5], one_layer(pf, pb), gate)
            rev = E.stacked_encode(
                Tensor(x[::-1].copy()), [5], one_layer(pb, pf), gate
            )
            for a, b in ((enc.h, rev.h), (enc.gate, rev.gate)):
                swapped = np.hstack([b.data[:, D:], b.data[:, :D]])
                np.testing.assert_array_equal(a.data, swapped[::-1])

    def test_companion_sentence_leaves_rows_unchanged(self, rng):
        # Sentence 1 of the block is rewritten; sentences 0 and 2 keep
        # their states and gates bit for bit.
        params = one_layer(random_params(4, D, rng), random_params(4, D, rng))
        x = rng.normal(size=(9, 4))
        lengths = [3, 4, 2]
        mutated = x.copy()
        mutated[3:7] = rng.normal(size=(4, 4)) * 100.0
        kept = np.r_[0:3, 7:9]
        for gate in E.GateKind:
            base = E.stacked_encode(Tensor(x), lengths, params, gate)
            other = E.stacked_encode(Tensor(mutated), lengths, params, gate)
            for attr in ("h", "gate"):
                a, b = getattr(base, attr).data, getattr(other, attr).data
                np.testing.assert_array_equal(a[kept], b[kept])
                assert not np.array_equal(a[3:7], b[3:7])

    def test_gates_strictly_inside_unit_interval(self, rng):
        params = one_layer(random_params(4, D, rng), random_params(4, D, rng))
        x = Tensor(rng.normal(size=(4, 4)))
        for gate in E.GateKind:
            enc = E.stacked_encode(x, [4], params, gate)
            assert np.all(enc.gate.data > 0.0) and np.all(enc.gate.data < 1.0)

    def test_all_masked_errors(self, rng):
        # a sentence of length 0, all of its positions masked, has no rows
        # to encode
        params = one_layer(random_params(4, D, rng), random_params(4, D, rng))
        with pytest.raises(ValueError, match="must be >= 1"):
            E.stacked_encode(Tensor(np.zeros((2, 4))), [2, 0], params, E.GateKind.INPUT)


class TestStackedEncode:
    def test_layer_input_dims(self, rng):
        params = E.init_encoder_params(5, D, 3, rng)
        assert params.layers[0][0].w.shape[0] == 5
        assert params.layers[1][0].w.shape[0] == 5 + 2 * D
        assert params.layers[2][1].w.shape[0] == 5 + 2 * D
        enc = E.stacked_encode(
            Tensor(rng.normal(size=(4, 5))), [3, 1], params, E.GateKind.INPUT
        )
        assert enc.h.shape == (4, 2 * D)
        assert enc.gate.shape == (4, 2 * D)
        np.testing.assert_array_equal(enc.lengths, [3, 1])

    def test_single_layer_equals_bilstm(self, rng):
        # One layer's h and chosen gate are the oracle's, both directions
        # side by side, forward first.
        params = E.init_encoder_params(4, D, 1, rng)
        e = Tensor(rng.normal(size=(5, 4)))
        for gate in E.GateKind:
            stacked = E.stacked_encode(e, [3, 2], params, gate)
            h, g = lstm_oracle.bilstm_layer(e, [3, 2], params.layers[0], gate)
            np.testing.assert_allclose(stacked.h.data, h.data, rtol=0, atol=1e-10)
            np.testing.assert_allclose(stacked.gate.data, g.data, rtol=0, atol=1e-10)

    def test_joins_only_states_and_the_top_gate(self, rng):
        # One bilstm_layer record per layer, a shortcut concat above layer
        # 1, and the gate as the top layer's second output.
        params = E.init_encoder_params(4, D, 3, rng)
        e = Tensor(rng.normal(size=(5, 4)))
        for gate, top_outputs in ((E.GateKind.FORGET, 2), (None, 1)):
            with T.Graph() as g:
                enc = E.stacked_encode(e, [2, 3], params, gate)
            assert (enc.gate is None) == (gate is None)
            assert [len(outs) for outs, _, _ in g._records] == [1, 1, 1, 1, top_outputs]

    def test_shortcut_feeds_embeddings_and_prev_states(self, rng):
        # Replaying layer 2 by hand on [e; h1] must reproduce the stack.
        params = E.init_encoder_params(4, D, 2, rng)
        e = Tensor(rng.normal(size=(3, 4)))
        lengths = [2, 1]
        gate = E.GateKind.OUTPUT
        stacked = E.stacked_encode(e, lengths, params, gate)
        h1 = E.stacked_encode(e, lengths, one_layer(*params.layers[0]), gate).h
        manual = E.stacked_encode(
            T.concat([e, h1], axis=1), lengths, one_layer(*params.layers[1]), gate
        )
        np.testing.assert_array_equal(stacked.h.data, manual.h.data)
        np.testing.assert_array_equal(stacked.gate.data, manual.gate.data)

    def test_companion_rows_do_not_leak_across_sentences(self, rng):
        # Two layers, so the shortcut input is covered too: rewriting the
        # middle sentence leaves the others' states and gates bit for bit.
        params = E.init_encoder_params(4, D, 2, rng)
        e = rng.normal(size=(9, 4))
        lengths = [3, 5, 1]
        mutated = e.copy()
        mutated[3:8] = rng.normal(size=(5, 4)) * 50.0
        kept = np.r_[0:3, 8:9]
        for gate in E.GateKind:
            base = E.stacked_encode(Tensor(e), lengths, params, gate)
            other = E.stacked_encode(Tensor(mutated), lengths, params, gate)
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
        weights = rng.normal(size=(5, 2 * 8))

        for gate in E.GateKind:

            def f(_t):
                # reads the gate too, so a wrong gate backward cannot pass
                enc = E.stacked_encode(e, [2, 3], params, gate)
                block = T.concat([enc.h, enc.gate], axis=1)
                return weighted_sum(block, weights)

            assert grad_check(f, e) < 1e-4, gate
            assert grad_check(f, params.layers[0][0].w) < 1e-4, gate
            assert grad_check(f, params.layers[1][1].u) < 1e-4, gate
