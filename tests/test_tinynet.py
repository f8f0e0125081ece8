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
