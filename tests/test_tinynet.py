import numpy as np
import pytest

from splitcvl.errors import NonFiniteError
from splitcvl.rlopt.nets import TinyNet

from helpers import flat_grads, grad_check, mse_loss_and_grad, softmax


class TestForward:
    def test_shapes(self):
        net = TinyNet((3, 5, 2), np.random.default_rng(0))
        out = net.forward(np.zeros((7, 3)))
        assert out.shape == (7, 2)

    def test_single_sample_promoted_to_batch(self):
        net = TinyNet((3, 2), np.random.default_rng(0))
        assert net.forward(np.zeros(3)).shape == (1, 2)

    def test_deterministic(self):
        a = TinyNet((4, 6, 3), np.random.default_rng(5))
        b = TinyNet((4, 6, 3), np.random.default_rng(5))
        x = np.random.default_rng(1).standard_normal((8, 4))
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_linear_net_is_affine(self):
        net = TinyNet((3, 2), np.random.default_rng(2))
        out = net.forward(np.eye(3))
        assert np.allclose(out, net.weights[0] + net.biases[0])


class TestGradCheck:
    def test_linear_net_squared_loss(self):
        rng = np.random.default_rng(10)
        net = TinyNet((4, 3), rng)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 3))
        assert grad_check(net, x, y) <= 1e-7

    def test_hundred_random_two_hidden_configs(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            sizes = (
                int(rng.integers(2, 6)),
                int(rng.integers(2, 8)),
                int(rng.integers(2, 8)),
                int(rng.integers(1, 4)),
            )
            net = TinyNet(sizes, rng)
            x = rng.standard_normal((int(rng.integers(1, 5)), sizes[0]))
            y = rng.standard_normal((x.shape[0], sizes[-1]))
            worst = max(worst, grad_check(net, x, y))
        assert worst <= 1e-4

    def test_zero_everything_gives_exactly_zero_gradient(self):
        net = TinyNet((3, 4, 2), np.random.default_rng(12))
        for param in net.weights + net.biases:
            param[:] = 0.0
        x = np.zeros((2, 3))
        y = np.zeros((2, 2))
        out = net.forward(x)
        _, grad_out = mse_loss_and_grad(out, y)
        net.backward(grad_out)
        assert np.all(flat_grads(net) == 0.0)

    def test_non_finite_raises(self):
        net = TinyNet((2, 2), np.random.default_rng(13))
        net.weights[0][0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            grad_check(net, np.ones((1, 2)), np.zeros((1, 2)))


class TestBackwardMechanics:
    def test_repeated_backward_overwrites(self):
        rng = np.random.default_rng(14)
        net = TinyNet((3, 4, 2), rng)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 2))
        _, g = mse_loss_and_grad(net.forward(x), y)
        net.backward(g)
        once = flat_grads(net)
        net.backward(g)
        assert np.array_equal(flat_grads(net), once)

    @pytest.mark.parametrize("hidden", [(8,), (8, 5)])
    def test_summed_gradient_on_distinct_rows_equals_per_row_gradient(self, hidden):
        # DQN backprops one output gradient row per state, each the sum
        # of its batch rows' gradients, in place of one row per batch row
        rng = np.random.default_rng(17)
        n_states, n_out = 5, 6
        table = np.eye(n_states)
        states = rng.integers(0, n_states - 1, size=33)  # the last state stays unused
        per_row = rng.standard_normal((states.size, n_out))
        summed = np.zeros((n_states, n_out))
        np.add.at(summed, states, per_row)
        net = TinyNet((n_states, *hidden, n_out), rng)
        net.forward(table[states])
        net.backward(per_row)
        expected = flat_grads(net)
        net.forward(table)
        net.backward(summed)
        assert np.abs(flat_grads(net) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_backward_returns_none(self):
        rng = np.random.default_rng(16)
        net = TinyNet((3, 4, 2), rng)
        out = net.forward(rng.standard_normal((2, 3)))
        assert net.backward(np.ones_like(out)) is None

    def test_sgd_step_descends_mse(self):
        rng = np.random.default_rng(15)
        net = TinyNet((3, 5, 1), rng)
        x = rng.standard_normal((16, 3))
        y = rng.standard_normal((16, 1))
        losses = []
        for _ in range(200):
            out = net.forward(x)
            loss, g = mse_loss_and_grad(out, y)
            losses.append(loss)
            net.backward(g)
            net.sgd_step(0.05)
        assert losses[-1] < 0.5 * losses[0]


def reference_forward(net, x):
    """The net's function from its weight and bias views, on plain numpy."""
    a = np.atleast_2d(x)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.tanh(a @ w + b)
    return a @ net.weights[-1] + net.biases[-1]


def matches_reference(net, x):
    """Forward equals the reference but for rounding: a bias folded into
    the product can round each element apart by a few ulps."""
    out, ref = net.forward(x), reference_forward(net, x)
    return out.shape == ref.shape and np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


class TestLayout:
    """Each layer is one [W; b] block, run on reused per-batch buffers."""

    def test_writes_through_weights_and_biases_change_forward(self):
        rng = np.random.default_rng(30)
        net = TinyNet((3, 5, 4, 2), rng)
        x = rng.standard_normal((6, 3))
        before = net.forward(x)
        for i in range(3):
            net.weights[i][0, 1] += 0.5
            after = net.forward(x)
            assert not np.array_equal(after, before)
            assert matches_reference(net, x)
            net.biases[i][1] -= 0.25
            before = net.forward(x)
            assert not np.array_equal(after, before)
            assert matches_reference(net, x)

    def test_second_forward_leaves_first_output_intact(self):
        rng = np.random.default_rng(31)
        net = TinyNet((3, 6, 2), rng)
        x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        first = net.forward(x)
        kept = first.copy()
        net.forward(y)
        net.forward(y[:2])
        assert np.array_equal(first, kept)

    def test_forward_on_fewer_rows_than_an_earlier_batch(self):
        rng = np.random.default_rng(32)
        net = TinyNet((4, 7, 3, 5), rng)
        net.forward(rng.standard_normal((9, 4)))
        for n in (1, 3, 9, 2):
            assert matches_reference(net, rng.standard_normal((n, 4)))
        assert matches_reference(net, rng.standard_normal(4))  # one sample

    @pytest.mark.parametrize("before", [(), (9,), (2,), (9, 2, 5), (1, 12)])
    def test_backward_uses_the_last_forward(self, before):
        rng = np.random.default_rng(33)
        sizes = (4, 6, 5, 3)
        net = TinyNet(sizes, np.random.default_rng(34))
        fresh = TinyNet(sizes, np.random.default_rng(34))
        for n in before:
            net.forward(rng.standard_normal((n, 4)))
        x, g = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
        net.forward(x)
        net.backward(g)
        fresh.forward(x)
        fresh.backward(g)
        assert flat_grads(net).tobytes() == flat_grads(fresh).tobytes()

    def test_buffer_memory_stays_at_the_largest_batch(self):
        def nbytes(net):
            return sum(b.nbytes for b in net._ins + net._pres + net._deltas)

        rng = np.random.default_rng(35)
        sizes = (4, 8, 6, 3)
        largest = TinyNet(sizes, rng)
        largest.forward(np.zeros((12, 4)))
        largest_nbytes = nbytes(largest)
        net = TinyNet(sizes, rng)
        for n in list(range(1, 13)) + list(range(12, 0, -1)):
            net.forward(np.zeros((n, 4)))
            net.backward(np.ones((n, 3)))
        assert nbytes(net) == largest_nbytes
        # the views of every row count read the one buffer set
        for views in net._views.values():
            assert np.shares_memory(views[0], net._ins[0])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(17).standard_normal((5, 7))
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(z), softmax(z + 100.0))

    def test_extreme_logits_stable(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)
