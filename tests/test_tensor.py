"""Unit and property tests for the autodiff core."""

import sys
import threading

import numpy as np
import primitives as P
import pytest
from lstm_oracle import sigmoid, tanh

from gatednli import tensor as T
from gatednli.tensor import (
    Graph,
    GraphError,
    ShapeError,
    Tensor,
    grad_check,
)


def rand(shape, rng, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        out = sigmoid(Tensor([0.0]))
        np.testing.assert_allclose(out.data, [0.5])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_allclose(P.matmul(a, b).data, [[17.0], [39.0]])

    def test_add_broadcasts_bias_row(self):
        m = Tensor(np.zeros((3, 2)))
        bias = Tensor([1.0, 2.0])
        out = P.add(m, bias)
        np.testing.assert_allclose(out.data, np.tile([1.0, 2.0], (3, 1)))

    def test_sigmoid_saturates_without_nan(self):
        out = sigmoid(Tensor([-1e4, 1e4]))
        np.testing.assert_allclose(out.data, [0.0, 1.0])


class TestShapeErrors:
    def test_matmul_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            P.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            P.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_invalid_axis(self):
        with pytest.raises(ShapeError, match="axis"):
            P.sum_axis(Tensor(np.ones((2, 3))), axis=2)

    def test_slice_bad_range(self):
        with pytest.raises(ShapeError, match="slice_axis"):
            P.slice_axis(Tensor(np.ones((2, 3))), axis=1, start=2, stop=5)

    def test_take_rows_out_of_range(self):
        for ids in ([0, 3], [[0, 1], [2, 3]]):
            with pytest.raises(ShapeError, match="take_rows"):
                T.take_rows(Tensor(np.ones((3, 2))), ids)

    def test_take_rows_three_dimensional_ids(self):
        with pytest.raises(ShapeError, match=r"take_rows.*\(2, 2, 1\)"):
            T.take_rows(Tensor(np.ones((3, 2))), np.zeros((2, 2, 1), np.int64))


class TestBackward:
    def test_square_loss_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            loss = P.sum_axis(P.mul(x, x), axis=0)
            g.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_loss_writes_no_grads(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([3.0])
        with Graph() as g:
            g.backward(P.sum_axis(c, axis=0))
        assert x.grad is None

    def test_sigmoid_grad_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        with Graph() as g:
            loss = P.sum_axis(sigmoid(x), axis=0)
            g.backward(loss)
        np.testing.assert_allclose(x.grad, [0.25])

    def test_backward_on_nonscalar_errors(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            y = P.mul(x, x)
            with pytest.raises(GraphError, match="scalar"):
                g.backward(y)

    def test_backward_twice_errors(self):
        x = Tensor([1.0], requires_grad=True)
        with Graph() as g:
            loss = P.sum_axis(x, axis=0)
            g.backward(loss)
            with pytest.raises(GraphError, match="already"):
                g.backward(loss)

    def test_grads_accumulate_across_passes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            with Graph() as g:
                g.backward(P.sum_axis(P.mul(x, x), axis=0))
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_fanout_accumulates(self):
        # x feeds the loss through two paths: sum(x*x) + sum(x).
        x = Tensor([1.0, 3.0], requires_grad=True)
        with Graph() as g:
            sq = P.sum_axis(P.mul(x, x), axis=0)
            lin = P.sum_axis(x, axis=0)
            g.backward(P.add(sq, lin))
        np.testing.assert_allclose(x.grad, [3.0, 7.0])

    def test_no_recording_without_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = P.mul(x, x)
        assert y.data == pytest.approx(1.0)
        assert x.grad is None

    def test_other_thread_does_not_record_into_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            P.mul(x, x)
            before = len(g)
            worker = threading.Thread(target=lambda: P.mul(x, x))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert len(g) == before

    def test_concurrent_threads_each_record_their_own_graph(self):
        # More threads than cores, switching often: each graph must hold
        # exactly its own thread's records, and backward must still work.
        x = Tensor([1.0, 2.0], requires_grad=True)
        n_threads, n_ops = 6, 200
        tapes, errors = [], []

        def record():
            try:
                with Graph() as g:
                    y = x
                    for _ in range(n_ops):
                        y = P.mul(y, Tensor([1.0, 1.0]))
                    tapes.append(len(g))
            except Exception as err:  # surfaced by the assertion below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Graph() as main:
                workers = [threading.Thread(target=record) for _ in range(n_threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert tapes == [n_ops] * n_threads
        assert len(main) == 0

    def test_leaf_fanout_with_aliased_gradients(self):
        # The outer add hands x and the inner add one shared array; x.grad
        # must not alias it, or the inner add's two contributions double it.
        x = Tensor([1.0, -2.0], requires_grad=True)
        with Graph() as g:
            z = P.add(P.add(x, x), x)
            g.backward(P.sum_axis(P.mul(z, Tensor([2.0, 5.0])), axis=0))
        np.testing.assert_array_equal(x.grad, [6.0, 15.0])

    def test_tracked_fanout_with_aliased_gradients(self):
        # y = x * 3 is used twice through add(y, y), then once more.
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            y = P.mul(x, Tensor([3.0, 3.0]))
            z = P.add(P.add(y, y), y)
            g.backward(P.sum_axis(P.mul(z, z), axis=0))
        # loss = sum((9x)^2) = 81 sum(x^2); d/dx = 162 x
        np.testing.assert_allclose(x.grad, [162.0, 324.0])

    def test_broadcast_view_gradient_into_twice_used_tensor(self):
        # The backward sweep reaches total's sum_axis first, so y's first
        # gradient is a read-only broadcast view; the two contributions of
        # mul(y, y) that follow must not be written into it.
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        with Graph() as g:
            y = tanh(x)
            sq = P.sum_axis(P.sum_axis(P.mul(y, y), axis=1), axis=0)
            total = P.sum_axis(P.sum_axis(y, axis=1), axis=0)
            g.backward(P.add(sq, total))
        t = np.tanh(x.data)
        np.testing.assert_allclose(x.grad, (1.0 + 2.0 * t) * (1.0 - t * t))


def spy_backward(graph, loss) -> list:
    """Run graph.backward(loss) and return every gradient array that
    flowed: each record's incoming gradients and each one it returned."""
    seen = []

    def spy(backward):
        def wrapped(*gouts):
            grads = backward(*gouts)
            seen.extend(g for g in gouts if g is not None)
            seen.extend(g for g in grads if g is not None)
            return grads

        return wrapped

    graph._records = [(outs, ins, spy(bw)) for outs, ins, bw in graph._records]
    graph.backward(loss)
    return seen


def assert_private(leaf, seen):
    """leaf.grad shares memory with no other array that flowed; it may be
    one of them, as a record's incoming gradient handed on."""
    for g in seen:
        assert g is leaf.grad or not np.shares_memory(leaf.grad, g)


class TestFreshLeafGradients:
    """Graph.backward keeps a leaf's first gradient as the backward function
    handed it over, so it must be an array that no other input, record or
    leaf holds."""

    def test_fresh_gradient_kept_without_copy(self):
        rng = np.random.default_rng(0)
        w, x = rand((3, 4), rng), Tensor(rng.normal(size=(2, 3)))
        with Graph() as g:
            seen = spy_backward(g, P.sum_axis(P.sum_axis(P.matmul(x, w), 1), 0))
        assert any(s is w.grad for s in seen)
        np.testing.assert_allclose(w.grad, np.repeat(x.data.sum(0)[:, None], 4, 1))
        assert_private(w, seen)

    def test_add_of_a_leaf_to_itself(self):
        w = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        c = Tensor([3.0, 5.0, 7.0])
        with Graph() as g:
            loss = P.sum_axis(P.mul(P.add(w, w), c), axis=0)
            seen = spy_backward(g, loss)
        np.testing.assert_array_equal(w.grad, [6.0, 10.0, 14.0])
        assert_private(w, seen)

    @pytest.mark.parametrize("add", [P.add])
    def test_add_of_a_leaf_and_an_intermediate_used_again(self, add):
        # add(w, h) hands w its incoming gradient and h a copy; w then gets
        # a second contribution while h's gradient still waits for its
        # other use.
        w = Tensor([1.0, 2.0], requires_grad=True)
        v = Tensor([-1.0, 4.0], requires_grad=True)
        c, d, e, f = (Tensor(a) for a in ([2.0, 3.0], [5.0, 7.0], [11.0, 13.0], [17.0, 19.0]))
        with Graph() as g:
            h = P.mul(v, c)
            hd = P.sum_axis(P.mul(h, d), axis=0)
            wf = P.sum_axis(P.mul(w, f), axis=0)
            y = P.sum_axis(P.mul(add(w, h), e), axis=0)
            seen = spy_backward(g, P.add(P.add(y, wf), hd))
        np.testing.assert_array_equal(w.grad, e.data + f.data)
        np.testing.assert_array_equal(v.grad, (e.data + d.data) * c.data)
        assert_private(w, seen)
        assert_private(v, seen)

    def test_leaf_handed_its_ops_incoming_gradient(self):
        # add(y, k) gives y its incoming gradient; add(w, b) then passes it
        # on to w unchanged (b is broadcast), and w gets another
        # contribution while k's gradient still waits for its other use.
        rng = np.random.default_rng(5)
        w, b, v = rand((2, 3), rng), rand((3,), rng), rand((2, 3), rng)
        c, d, e, f = (Tensor(rng.normal(size=(2, 3))) for _ in range(4))

        def total(t):
            return P.sum_axis(P.sum_axis(t, axis=1), axis=0)

        with Graph() as g:
            k = P.mul(v, c)
            kd = total(P.mul(k, d))
            wf = total(P.mul(w, f))
            z = P.add(P.add(w, b), k)
            seen = spy_backward(g, P.add(P.add(total(P.mul(z, e)), wf), kd))
        np.testing.assert_allclose(w.grad, e.data + f.data, rtol=1e-15)
        np.testing.assert_allclose(b.grad, e.data.sum(axis=0), rtol=1e-15)
        np.testing.assert_allclose(v.grad, (e.data + d.data) * c.data, rtol=1e-15)
        for leaf in (w, b, v):
            assert_private(leaf, seen)

    @pytest.mark.parametrize("first", ["sum_axis", "concat"])
    def test_leaf_reached_through_a_view(self, first):
        # The view arrives first; mul(w, w) then adds into w.grad.
        rng = np.random.default_rng(3)
        w, other = rand((2, 3), rng), rand((1, 3), rng)
        c = Tensor(rng.normal(size=(3, 3)))
        with Graph() as g:
            sq = P.sum_axis(P.sum_axis(P.mul(w, w), axis=1), axis=0)
            if first == "sum_axis":
                via = P.sum_axis(P.mul(P.sum_axis(w, axis=0), Tensor(c.data[0])), axis=0)
                want = 2.0 * w.data + c.data[0]
            else:
                cat = T.concat([w, other], axis=0)
                via = P.sum_axis(P.sum_axis(P.mul(cat, c), axis=1), axis=0)
                want = 2.0 * w.data + c.data[:2]
            seen = spy_backward(g, P.add(via, sq))
        np.testing.assert_allclose(w.grad, want, rtol=1e-15)
        assert w.grad.flags.writeable
        assert_private(w, seen)
        assert_private(other, seen)

    def test_model_parameters_share_no_gradient_memory(self):
        from test_model import toy_batch, toy_config, toy_model

        from gatednli import classify as CL

        model = toy_model(toy_config(n_layers=3))
        batch = toy_batch(np.random.default_rng(1), ((3, 2), (5, 4), (2, 2)))
        with Graph() as g:
            g.backward(CL.cross_entropy(model.forward(batch), batch.labels))
        grads = [
            (name, t.grad)
            for name, t in model.params.trainable().items()
            if t.grad is not None
        ]
        assert len(grads) == len(model.params.trainable())
        for i, (name, a) in enumerate(grads):
            for other, b in grads[i + 1 :]:
                assert not np.shares_memory(a, b), (name, other)


# Gate kinds, the five ablation switches, and 1 and 3 layers, on the toy
# architecture (2 layers, input gate).
ARCHITECTURES = [
    {"gate_kind": "input"},
    {"gate_kind": "forget"},
    {"gate_kind": "output"},
    {"use_char": False},
    {"use_word": False},
    {"use_gated_att": False},
    {"use_absdiff_product": False},
    {"mlp_shortcut": False},
    {"n_layers": 1},
    {"n_layers": 3},
]


class TestBackwardContract:
    """Every backward function of the model returns writeable arrays that
    it owns: no two distinct arrays of a sweep share memory (a record may
    hand on its incoming gradient itself), nor do two leaves' gradients.
    The second step writes the spare arrays ``Adam.zero_grad`` parked."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize(
        "arch", ARCHITECTURES, ids=lambda a: "-".join(f"{k}={v}" for k, v in a.items())
    )
    def test_every_backward_hands_over_arrays_it_owns(self, arch, dtype):
        from test_model import N_CHARS, N_WORDS, toy_batch, toy_config

        from gatednli import classify as CL
        from gatednli.model import Model
        from gatednli.train import Adam

        config = toy_config(**arch)
        rng = np.random.default_rng(0)
        table = rng.normal(size=(N_WORDS, config.word_dim)).astype(dtype)
        model = Model.initialize(config, N_CHARS, table, rng)
        adam = Adam(model.params.trainable(), lr=4e-4)
        batch = toy_batch(np.random.default_rng(1), [(3, 2), (5, 4), (2, 6)])
        parked = set()
        for step in range(2):
            with Graph() as g:
                loss = CL.cross_entropy(model.forward(batch), batch.labels)
                seen = spy_backward(g, loss)
            arrays = list({id(a): a for a in seen}.values())
            assert all(a.flags.writeable for a in arrays)
            grads = [t.grad for t in adam.named.values() if t.grad is not None]
            for group in (arrays, grads):
                for i, a in enumerate(group):
                    assert not any(np.shares_memory(a, b) for b in group[i + 1 :])
            assert bool(parked & {id(a) for a in grads}) == (step == 1)
            parked = {id(a) for a in grads}
            adam.zero_grad()


class TestSpareGradients:
    """A leaf's spare array, from the step before, takes its first
    gradient; later contributions add to it, as they add to a fresh one."""

    @staticmethod
    def grad_of(leaf, loss_fn, spare):
        leaf.grad, leaf.spare = None, spare
        with Graph() as g:
            g.backward(loss_fn())
        return leaf.grad

    @pytest.mark.parametrize("case", ["two_records", "both_operands"])
    def test_sum_equals_a_fresh_run_bit_for_bit(self, case):
        rng = np.random.default_rng(11)
        w = rand((3, 3), rng)
        x1, x2, c = (Tensor(rng.normal(size=(3, 3))) for _ in range(3))

        def total(t):
            return P.sum_axis(P.sum_axis(P.mul(t, c), axis=1), axis=0)

        def loss():
            if case == "two_records":
                return P.add(total(P.matmul(x1, w)), total(P.matmul(x2, w)))
            return total(P.matmul(w, w))

        fresh = self.grad_of(w, loss, None).copy()
        spare = np.full_like(w.data, np.nan)
        reused = self.grad_of(w, loss, spare)
        assert reused.tobytes() == fresh.tobytes()
        assert w.spare is None
        # The record that runs first writes the spare; with both operands,
        # a's fresh gradient comes first in the tuple and the spare adds to it.
        assert (reused is spare) == (case == "two_records")

    def test_spare_not_taken_once_the_leaf_has_a_gradient(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        w.grad, w.spare = np.zeros((2, 2)), np.zeros((2, 2))
        assert T.take_spare(w) is None and w.spare is not None
        w.grad = None
        spare = w.spare
        assert T.take_spare(w) is spare and w.spare is None
        assert T.take_spare(w) is None


class TestGradCheck:
    def test_tanh_sum(self):
        rng = np.random.default_rng(0)
        x = rand((3, 4), rng)
        assert grad_check(lambda t: P.sum_axis(P.sum_axis(tanh(t), 1), 0), x) < 1e-6

    def test_constant_function_is_exact(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([7.0])
        assert grad_check(lambda t: P.sum_axis(c, axis=0), x) == 0.0

    @pytest.mark.parametrize("flip_back", [True, False], ids=["right", "wrong"])
    def test_vector_f_with_a_wrong_backward_is_caught(self, flip_back):
        # f reverses the rows of x, so its backward must reverse them back.
        # A sum of the outputs cannot tell; the drawn cotangent can.
        x = rand((4, 3), np.random.default_rng(12))

        def flipped(t):
            back = (lambda g: (g[::-1],)) if flip_back else (lambda g: (g,))
            return T._apply(t.data[::-1].copy(), (t,), back)

        err = grad_check(flipped, x)
        assert (err < 1e-9) if flip_back else (err > 0.5)

    def test_rejects_bad_eps(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda t: P.sum_axis(t, axis=0), x, eps=0.0)


class TestAffine:
    """One record for relu(x @ w + b) or x @ w + b, against the chain of
    matmul, add and relu records."""

    @staticmethod
    def grads(op, x, w, b, relu, cotangent):
        with Graph() as g:
            out = op(x, w, b, relu)
            g.backward(P.sum_axis(P.sum_axis(P.mul(out, Tensor(cotangent)), 1), 0))
        grads = [x.grad, w.grad, b.grad]
        x.grad = w.grad = b.grad = None
        return out.data, grads

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize(
        "n, k, m", [(6, 5, 4), (370, 75, 100), (4, 14400, 600)], ids=["toy", "cnn", "mlp"]
    )
    def test_matches_the_primitive_chain_bit_for_bit(self, n, k, m, dtype, relu):
        # Paper-shaped cases: the char-CNN's width-5 filter over a block's
        # windows, and the MLP's first layer over a batch of 4 pairs.
        rng = np.random.default_rng(n + k + m)
        x, w, b = (
            Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for shape in ((n, k), (k, m), (m,))
        )
        x.data[0], b.data[0] = 0.0, 0.0  # a pre-activation at the kink
        cot = rng.normal(size=(n, m)).astype(dtype)
        fused, g_fused = self.grads(T.affine, x, w, b, relu, cot)
        chain, g_chain = self.grads(P.affine_chain, x, w, b, relu, cot)
        assert fused.dtype == dtype and fused.tobytes() == chain.tobytes()
        for got, want in zip(g_fused, g_chain):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_one_tape_record(self):
        rng = np.random.default_rng(13)
        with Graph() as g:
            T.affine(rand((3, 4), rng), rand((4, 2), rng), rand((2,), rng), True)
        assert len(g) == 1

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)), ((2, 3), (3, 5), (4,))])
    def test_mismatch_names_op_and_shapes(self, shapes):
        x, w, b = (Tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeError, match=r"affine: \(2, 3\)"):
            T.affine(x, w, b, relu=True)

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    def test_grad_check_off_the_kink(self, relu):
        rng = np.random.default_rng(14)
        x, w, b = rand((3, 4), rng), rand((4, 5), rng), rand((5,), rng)
        pre = x.data @ w.data + b.data
        assert np.abs(pre).min() > 0.1 and 0.3 < (pre > 0).mean() < 0.7
        # One entry of w's gradient is about 2e-5, where the default step's
        # round-off reads 4e-6 relative; a step of 5e-5 reads 6e-7.
        for t in (x, w, b):
            assert grad_check(lambda _t: T.affine(x, w, b, relu), t, eps=5e-5) < 1e-6


class TestTakeRowsBlock:
    """An (M, k) block of ids, the char-CNN's windows, against T.concat of
    its k column gathers: the same forward bits, and gradients summed in
    another order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_matches_concat_of_column_gathers(self, dtype):
        rng = np.random.default_rng(15)
        ids = rng.integers(0, 20, size=(60, 5))  # each row gathered about 15 times
        table = Tensor(rng.normal(size=(20, 15)).astype(dtype), requires_grad=True)
        cot = Tensor(rng.normal(size=(60, 5 * 15)).astype(dtype))
        results = []
        for gather in (
            lambda: T.take_rows(table, ids),
            lambda: T.concat([T.take_rows(table, ids[:, o]) for o in range(5)], axis=1),
        ):
            with Graph() as g:
                out = gather()
                g.backward(P.sum_axis(P.sum_axis(P.mul(out, cot), 1), 0))
            results.append((out.data, table.grad))
            table.grad = None
        (block, g_block), (cat, g_cat) = results
        assert block.dtype == dtype and block.tobytes() == cat.tobytes()
        assert g_block.dtype == dtype
        assert np.abs(g_block - g_cat).max() <= 8 * np.spacing(np.abs(g_cat).max())


def _scalarize(t):
    # Reduce any tensor to a scalar through a fixed weighted sum so that
    # grad paths of all coordinates are exercised.
    flat = t
    while flat.ndim > 1:
        flat = P.sum_axis(flat, axis=0)
    w = Tensor(np.linspace(0.5, 1.5, flat.shape[0]))
    return P.sum_axis(P.mul(flat, w), axis=0)


SMOOTH_UNARY = {
    "sigmoid": sigmoid,
    "tanh": tanh,
    "absolute": P.absolute,
}


class TestPrimitiveGradients:
    """Central differences are the oracle for every backward rule."""

    @pytest.mark.parametrize("name", sorted(SMOOTH_UNARY))
    def test_unary(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        if name == "absolute":
            # keep coordinates away from the kink at 0
            x = Tensor(
                rng.uniform(0.3, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
                requires_grad=True,
            )
        else:
            x = rand((3, 4), rng)
        op = SMOOTH_UNARY[name]
        assert grad_check(lambda t: _scalarize(op(t)), x) < 1e-6

    def test_relu_off_kink(self):
        rng = np.random.default_rng(7)
        x = Tensor(
            rng.uniform(0.3, 2.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)),
            requires_grad=True,
        )
        assert grad_check(lambda t: _scalarize(P.relu(t)), x) < 1e-6

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(1)
        a = rand((3, 4), rng)
        b = rand((4, 2), rng)
        assert grad_check(lambda t: _scalarize(P.matmul(t, b)), a) < 1e-6
        assert grad_check(lambda t: _scalarize(P.matmul(a, t)), b) < 1e-6

    @pytest.mark.parametrize("op", [P.add, P.sub, P.mul])
    def test_binary_elementwise(self, op):
        rng = np.random.default_rng(2)
        a = rand((3, 4), rng)
        b = rand((3, 4), rng)
        assert grad_check(lambda t: _scalarize(op(t, b)), a) < 1e-6
        assert grad_check(lambda t: _scalarize(op(a, t)), b) < 1e-6

    @pytest.mark.parametrize("op", [P.add, P.sub, P.mul])
    def test_binary_broadcast_column(self, op):
        rng = np.random.default_rng(3)
        a = rand((4, 1), rng)
        b = rand((4, 3), rng)
        assert grad_check(lambda t: _scalarize(op(t, b)), a) < 1e-6
        assert grad_check(lambda t: _scalarize(op(b, t)), b) < 1e-6

    def test_concat_and_slice(self):
        rng = np.random.default_rng(4)
        a = rand((2, 3), rng)
        b = rand((2, 3), rng)

        def f(t):
            cat = T.concat([t, b], axis=0)
            return _scalarize(P.slice_axis(cat, axis=0, start=1, stop=3))

        assert grad_check(f, a) < 1e-6

    def test_take_rows(self):
        rng = np.random.default_rng(5)
        table = rand((5, 3), rng)
        ids = np.array([0, 2, 2, 4])  # repeated row exercises scatter-add
        assert grad_check(lambda t: _scalarize(T.take_rows(t, ids)), table) < 1e-6
        block = np.array([[0, 2, 2], [4, 0, 2]])  # repeats within and across rows
        assert grad_check(lambda t: _scalarize(T.take_rows(t, block)), table) < 1e-6

    def test_sum_and_max(self):
        rng = np.random.default_rng(6)
        x = rand((4, 3), rng)
        assert grad_check(lambda t: _scalarize(P.sum_axis(t, axis=0)), x) < 1e-6
        assert grad_check(lambda t: _scalarize(T.segment_max(t, [1, 3])), x) < 1e-6
        np.testing.assert_array_equal(
            T.segment_max(x, [1, 3]).data, [x.data[0], x.data[1:].max(axis=0)]
        )


class TestStructuralProperties:
    def test_concat_slice_roundtrip_bit_exact(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(2, 4)))
        cat = T.concat([a, b], axis=0)
        back_a = P.slice_axis(cat, axis=0, start=0, stop=3)
        back_b = P.slice_axis(cat, axis=0, start=3, stop=5)
        assert np.array_equal(back_a.data, a.data)
        assert np.array_equal(back_b.data, b.data)

    def test_max_backward_first_index_on_ties(self):
        x = Tensor(
            [[2.0, 0.0], [2.0, 1.0], [1.0, 5.0], [5.0, 5.0]], requires_grad=True
        )
        with Graph() as g:
            m = T.segment_max(x, [3, 1])
            g.backward(P.sum_axis(P.sum_axis(m, axis=1), axis=0))
        np.testing.assert_array_equal(m.data, [[2.0, 5.0], [5.0, 5.0]])
        np.testing.assert_array_equal(
            x.grad, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        )

    def test_nested_graph_rejected(self):
        with Graph():
            with pytest.raises(GraphError, match="already recording"):
                Graph().__enter__()
        with Graph() as g:  # the failed enter left no graph recording
            P.mul(Tensor([1.0], requires_grad=True), Tensor([2.0]))
        assert len(g) == 1


class TestNormalParam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (5, 7), (T.NORMAL_CHUNK,), (2, T.NORMAL_CHUNK // 2 + 3), (3 * T.NORMAL_CHUNK + 11,),
    ], ids=["below", "at", "above", "several"])
    def test_chunked_draws_are_the_full_size_draw(self, dtype, shape):
        # The tensor is one full-size draw from rng's first child, rounded.
        rng = np.random.default_rng(7)
        child = np.random.default_rng(7).spawn(1)[0]
        want = child.normal(0.0, 0.3, shape).astype(dtype)
        state = rng.bit_generator.state
        got = T.normal_param(rng, 0.3, shape, dtype)
        assert got.requires_grad and got.data.dtype == dtype and got.shape == shape
        assert got.data.tobytes() == want.tobytes()
        assert rng.bit_generator.state == state  # spawning draws nothing from rng

    def test_successive_calls_take_successive_children(self):
        rng = np.random.default_rng(7)
        children = np.random.default_rng(7).spawn(4)
        shapes = [(T.NORMAL_CHUNK + 5,), (3, 4), (2 * T.NORMAL_CHUNK,), (6,)]
        with T.drawing():
            with T.drawing():  # an inner block defers to the outer one
                got = [T.normal_param(rng, 0.5, s, np.float64) for s in shapes[:2]]
            got += [T.normal_param(rng, 0.5, s, np.float64) for s in shapes[2:]]
        for t, child, shape in zip(got, children, shapes):
            assert t.data.tobytes() == child.normal(0.0, 0.5, shape).tobytes()

    def test_a_failed_fill_reaches_the_caller_after_every_worker_ends(self, monkeypatch):
        ran, fill = [], T._fill

        def recorded(child, scale, values):
            ran.append(threading.current_thread())
            fill(child, scale, values)

        monkeypatch.setattr(T, "_fill", recorded)
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="scale < 0"):
            with T.drawing():
                for scale in (0.5, -1.0, 0.5):
                    T.normal_param(rng, scale, (T.NORMAL_CHUNK,), np.float64)
        assert len(ran) == 3 and threading.current_thread() not in ran
        assert not any(t.is_alive() for t in ran)

    def test_an_error_in_the_block_drops_its_fills(self, monkeypatch):
        ran = []
        monkeypatch.setattr(T, "_fill", lambda *fill: ran.append(fill))
        rng = np.random.default_rng(7)
        with pytest.raises(RuntimeError):
            with T.drawing():
                T.normal_param(rng, 0.5, (4,), np.float64)
                raise RuntimeError
        assert ran == []
        T.normal_param(rng, 0.5, (4,), np.float64)  # outside a block: filled at once
        assert len(ran) == 1

    def test_no_generator_gives_a_zero_view(self):
        t = T.normal_param(None, 0.3, (1000, 1000), np.float32)
        assert t.shape == (1000, 1000) and t.data.dtype == np.float32
        assert t.data.strides == (0, 0) and not t.data.any()
        assert not t.data.flags.writeable
