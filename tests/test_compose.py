"""Tests for the attention, average, and max pooling of encoded states."""

import numpy as np
import pytest

from gatednli import compose as C
from gatednli import tensor as T
from gatednli.encoder import EncodedSentence
from gatednli.tensor import Tensor, grad_check

KINDS = (C.GateKind.INPUT, C.GateKind.FORGET, C.GateKind.OUTPUT)


def make_enc(h, gate=None, lengths=None, requires_grad=False):
    """A ragged block; by default one sentence over all rows of h, and
    every gate activation 0.5."""
    h = np.asarray(h, dtype=float)
    gate = np.full(h.shape, 0.5) if gate is None else np.asarray(gate, dtype=float)
    return EncodedSentence(
        h=Tensor(h, requires_grad=requires_grad),
        gate=Tensor(gate, requires_grad=requires_grad),
        lengths=np.array([h.shape[0]] if lengths is None else lengths),
    )


def pool_oracle(h, gates, kind, n_valid):
    """Double loop over positions and coordinates, norms computed directly."""
    scores = 1.0 - gates if kind is C.GateKind.FORGET else gates
    norms = [np.sqrt((scores[t] ** 2).sum()) for t in range(n_valid)]
    total = sum(norms)
    v = np.zeros(h.shape[1])
    for t in range(n_valid):
        for j in range(h.shape[1]):
            v[j] += (norms[t] / total) * h[t, j]
    return v


class TestGatedAttention:
    def test_single_position_returns_that_state(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(1, 4))
        enc = make_enc(h, gate=rng.uniform(0.1, 0.9, (1, 4)))
        for kind in KINDS:
            np.testing.assert_array_equal(
                C.gated_attention_pool(enc, kind).data, h
            )

    def test_identical_gate_rows_reduce_to_average(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(5, 6))
        row = rng.uniform(0.2, 0.8, size=6)
        enc = make_enc(h, gate=np.tile(row, (5, 1)))
        v_g = C.gated_attention_pool(enc, C.GateKind.INPUT).data
        v_a = C.avg_pool(enc).data
        assert np.abs(v_g - v_a).max() < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n, 6))
            gates = {
                "gi": rng.uniform(0.05, 0.95, (n, 6)),
                "gf": rng.uniform(0.05, 0.95, (n, 6)),
                "go": rng.uniform(0.05, 0.95, (n, 6)),
            }
            for kind, key in zip(KINDS, ("gi", "gf", "go")):
                enc = make_enc(h, gate=gates[key])
                got = C.gated_attention_pool(enc, kind).data[0]
                want = pool_oracle(h, gates[key], kind, n)
                assert np.abs(got - want).max() < 1e-12

    def test_weights_sum_to_one_per_sentence_and_ignore_companions(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(5, 4))
        gi = rng.uniform(0.1, 0.9, (5, 4))
        enc = make_enc(h, gate=gi, lengths=[3, 2])
        w = C.attention_weights(enc, C.GateKind.INPUT).data[:, 0]
        assert np.all(w >= 0.0)
        assert abs(w[:3].sum() - 1.0) < 1e-12
        assert abs(w[3:].sum() - 1.0) < 1e-12
        mutated = gi.copy()
        mutated[3:] = rng.uniform(0.1, 0.9, (2, 4))
        other = C.attention_weights(
            make_enc(h, gate=mutated, lengths=[3, 2]), C.GateKind.INPUT
        )
        np.testing.assert_array_equal(other.data[:3, 0], w[:3])
        assert not np.array_equal(other.data[3:, 0], w[3:])

    def test_ragged_block_matches_each_sentence_alone(self):
        rng = np.random.default_rng(13)
        lengths = [2, 1, 4, 4]
        h = rng.normal(size=(11, 6))
        gates = {k: rng.uniform(0.05, 0.95, (11, 6)) for k in ("gi", "gf", "go")}
        starts = np.cumsum([0] + lengths)
        for kind, key in zip(KINDS, ("gi", "gf", "go")):
            block = make_enc(h, gate=gates[key], lengths=lengths)
            got = C.gated_attention_pool(block, kind).data
            assert got.shape == (4, 6)
            for s, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
                want = pool_oracle(h[lo:hi], gates[key][lo:hi], kind, hi - lo)
                assert np.abs(got[s] - want).max() < 1e-12

    def test_vanished_sentence_alone_falls_back_to_uniform(self):
        # Sentence 0's gate norms all vanish, sentence 1's do not: only
        # sentence 0 is averaged, and its gates get no gradient.
        rng = np.random.default_rng(14)
        h = rng.normal(size=(5, 4))
        gi = np.vstack([np.zeros((2, 4)), rng.uniform(0.2, 0.8, (3, 4))])
        enc = make_enc(h, gate=gi, lengths=[2, 3], requires_grad=True)
        with T.Graph() as g:
            v_g = C.gated_attention_pool(enc, C.GateKind.INPUT)
            g.backward(T.sum_axis(T.sum_axis(v_g, axis=1), axis=0))
        np.testing.assert_allclose(v_g.data[0], h[:2].mean(axis=0), atol=1e-15)
        want = pool_oracle(h[2:], gi[2:], C.GateKind.INPUT, 3)
        assert np.abs(v_g.data[1] - want).max() < 1e-12
        np.testing.assert_array_equal(enc.gate.grad[:2], 0.0)
        assert np.abs(enc.gate.grad[2:]).max() > 0.0

    def test_gate_scale_leaves_weights_unchanged(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(4, 6))
        gi = rng.uniform(0.1, 0.9, (4, 6))
        a = C.gated_attention_pool(make_enc(h, gate=gi), C.GateKind.INPUT).data
        b = C.gated_attention_pool(
            make_enc(h, gate=3.7 * gi), C.GateKind.INPUT
        ).data
        assert np.abs(a - b).max() < 1e-12

    def test_all_zero_norms_fall_back_to_uniform(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 4))
        for kind, gate in ((C.GateKind.INPUT, 0.0), (C.GateKind.FORGET, 1.0)):
            enc = make_enc(h, gate=np.full((3, 4), gate))
            v_g = C.gated_attention_pool(enc, kind).data
            np.testing.assert_allclose(v_g, C.avg_pool(enc).data, atol=1e-15)

    def test_forget_kind_weights_use_complement(self):
        # one position with f close to 1 contributes almost nothing
        h = np.array([[10.0, 10.0], [1.0, 1.0]])
        gf = np.array([[0.999999, 0.999999], [0.0, 0.0]])
        enc = make_enc(h, gate=gf)
        v_g = C.gated_attention_pool(enc, C.GateKind.FORGET).data[0]
        np.testing.assert_allclose(v_g, [1.0, 1.0], atol=1e-4)

    def test_grad_check_through_states_and_gates(self):
        rng = np.random.default_rng(6)
        enc = make_enc(
            rng.normal(size=(3, 4)),
            gate=rng.uniform(0.2, 0.8, (3, 4)),
            requires_grad=True,
        )

        def f(_t):
            v = C.gated_attention_pool(enc, C.GateKind.INPUT)
            return T.sum_axis(T.sum_axis(v, axis=1), axis=0)

        assert grad_check(f, enc.h) < 1e-5
        assert grad_check(f, enc.gate) < 1e-5


class TestAvgMaxPool:
    def test_hand_arithmetic(self):
        enc = make_enc([[1.0, -1.0], [3.0, -5.0]])
        np.testing.assert_array_equal(C.avg_pool(enc).data, [[2.0, -3.0]])
        np.testing.assert_array_equal(C.max_pool(enc).data, [[3.0, -1.0]])

    def test_constant_rows_collapse(self):
        enc = make_enc(np.tile([[0.5, -2.0, 7.0]], (4, 1)))
        np.testing.assert_allclose(C.avg_pool(enc).data, [[0.5, -2.0, 7.0]])
        np.testing.assert_array_equal(C.max_pool(enc).data, [[0.5, -2.0, 7.0]])

    def test_companion_rows_ignored(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(5, 3))
        a = make_enc(h, lengths=[2, 3])
        mutated = h.copy()
        mutated[2:] = 99.0
        b = make_enc(mutated, lengths=[2, 3])
        for pool in (C.avg_pool, C.max_pool):
            np.testing.assert_array_equal(pool(a).data[0], pool(b).data[0])
            np.testing.assert_array_equal(pool(b).data[1], [99.0] * 3)
        np.testing.assert_allclose(
            C.avg_pool(a).data,
            [h[:2].mean(axis=0), h[2:].mean(axis=0)],
            rtol=0,
            atol=1e-15,
        )
        np.testing.assert_array_equal(
            C.max_pool(a).data, [h[:2].max(axis=0), h[2:].max(axis=0)]
        )

    def test_max_dominates_avg(self):
        rng = np.random.default_rng(8)
        enc = make_enc(rng.normal(size=(6, 5)))
        assert np.all(C.max_pool(enc).data >= C.avg_pool(enc).data)

    def test_grad_check(self):
        rng = np.random.default_rng(9)
        enc = make_enc(rng.normal(size=(5, 4)), lengths=[3, 2], requires_grad=True)

        def f_avg(_t):
            return T.sum_axis(T.sum_axis(C.avg_pool(enc), axis=1), axis=0)

        def f_max(_t):
            return T.sum_axis(T.sum_axis(C.max_pool(enc), axis=1), axis=0)

        assert grad_check(f_avg, enc.h) < 1e-5
        assert grad_check(f_max, enc.h) < 1e-5


class TestCompose:
    def test_concatenation_order_and_width(self):
        rng = np.random.default_rng(10)
        enc = make_enc(
            rng.normal(size=(3, 4)), gate=rng.uniform(0.1, 0.9, (3, 4))
        )
        v = C.compose(enc, C.GateKind.INPUT).data
        assert v.shape == (1, 12)
        np.testing.assert_array_equal(
            v[:, 0:4], C.gated_attention_pool(enc, C.GateKind.INPUT).data
        )
        np.testing.assert_array_equal(v[:, 4:8], C.avg_pool(enc).data)
        np.testing.assert_array_equal(v[:, 8:12], C.max_pool(enc).data)

    def test_without_attention_pool(self):
        rng = np.random.default_rng(11)
        enc = make_enc(rng.normal(size=(3, 4)))
        v = C.compose(enc, C.GateKind.INPUT, use_gated=False).data
        assert v.shape == (1, 8)
        np.testing.assert_array_equal(v[:, 0:4], C.avg_pool(enc).data)
        np.testing.assert_array_equal(v[:, 4:8], C.max_pool(enc).data)

    def test_single_position_all_pools_equal_state(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(1, 6))
        enc = make_enc(h, gate=rng.uniform(0.1, 0.9, (1, 6)))
        for kind in KINDS:
            np.testing.assert_array_equal(C.compose(enc, kind).data, np.tile(h, 3))

    def test_pools_recorded_average_max_gated(self):
        # The tape order fixes the order in which gradients are summed, so
        # it stays average, max, then the attention pool.
        rng = np.random.default_rng(15)
        enc = make_enc(rng.normal(size=(4, 2)), lengths=[1, 3], requires_grad=True)
        with T.Graph() as g:
            C.compose(enc, C.GateKind.FORGET)
        names = [backward.__qualname__.split(".")[0] for _, _, backward in g._records]
        assert names[:3] == ["matmul", "_elementwise", "segment_max"]
        assert "l2norm" in names[3:] and names[-1] == "concat"
