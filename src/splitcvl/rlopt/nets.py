"""Minimal dense network with hand-rolled backprop.

Hidden layers use tanh, the output is linear, and every parameter is a
64-bit float so that central-difference gradient checks are sharp. The
network is the function approximator behind the deep agents (Q-values,
policy logits, state values); it is intentionally tiny and CPU-only.
"""

from __future__ import annotations

import numpy as np


class TinyNet:
    """Fully connected net: sizes = (in, hidden..., out).

    All parameters live in one flat vector (every weight matrix, then every
    bias vector, layer by layer) and ``weights``/``biases`` are views into
    it; the gradients are laid out the same way. A whole-net update is then
    one array operation.
    """

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        self.sizes = tuple(int(s) for s in sizes)
        weights = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        self._bind(np.concatenate([w.ravel() for w in weights]
                                  + [np.zeros(n) for n in self.sizes[1:]]))

    def _bind(self, params: np.ndarray) -> None:
        """Adopt ``params`` as the flat parameter vector; zero the gradients."""
        self._params = params
        self._grads = np.zeros_like(params)
        weights, g_weights, biases, g_biases = [], [], [], []
        offset = 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            end = offset + fan_in * fan_out
            weights.append(params[offset:end].reshape(fan_in, fan_out))
            g_weights.append(self._grads[offset:end].reshape(fan_in, fan_out))
            offset = end
        for fan_out in self.sizes[1:]:
            biases.append(params[offset:offset + fan_out])
            g_biases.append(self._grads[offset:offset + fan_out])
            offset += fan_out
        self.weights, self.g_weights = tuple(weights), tuple(g_weights)
        self.biases, self.g_biases = tuple(biases), tuple(g_biases)
        # what forward and backward walk, bound once: the tanh layers' and
        # the linear output layer's (weights, bias); then, output layer
        # first, each layer's (index, weights, weight and bias gradients)
        self._hidden = tuple(zip(weights[:-1], biases[:-1]))
        self._out = (weights[-1], biases[-1])
        self._back = tuple(zip(range(len(weights)), weights, g_weights, g_biases))[::-1]
        self._acts: list[np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a (batch, in) array; caches activations."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim < 2:
            a = a.reshape(1, -1)
        acts = [a]
        for w, b in self._hidden:
            a = a @ w
            a += b
            np.tanh(a, out=a)
            acts.append(a)
        w, b = self._out
        a = a @ w
        a += b
        acts.append(a)
        self._acts = acts
        return a

    def backward(self, grad_out: np.ndarray) -> None:
        """Write the parameter gradients of the last forward pass.

        ``grad_out`` is dLoss/dOutput for that batch. Each call overwrites
        the gradients, so no zeroing is needed between updates. The
        input's own gradient is not computed.
        """
        if self._acts is None:
            raise RuntimeError("backward called before forward")
        acts = self._acts
        delta = np.asarray(grad_out, dtype=np.float64)
        if delta.ndim < 2:
            delta = delta.reshape(1, -1)
        for i, w, g_w, g_b in self._back:
            np.matmul(acts[i].T, delta, out=g_w)
            np.add.reduce(delta, axis=0, out=g_b)
            if i:
                delta = delta @ w.T
                # times tanh' of layer i - 1, whose output is acts[i]
                tanh_grad = np.square(acts[i])
                np.subtract(1.0, tanh_grad, out=tanh_grad)
                delta *= tanh_grad

    def sgd_step(self, lr: float) -> None:
        self._params -= lr * self._grads

    def copy(self) -> "TinyNet":
        clone = object.__new__(TinyNet)
        clone.sizes = self.sizes
        clone._bind(self._params.copy())
        return clone

    def copy_params_from(self, other: "TinyNet") -> None:
        self._params[:] = other._params


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, safe for strongly peaked logits."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
