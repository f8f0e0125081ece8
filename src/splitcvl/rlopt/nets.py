"""Minimal dense network with hand-rolled backprop.

Hidden layers use tanh, the output is linear, and every parameter is a
64-bit float so that central-difference gradient checks are sharp. The
network is the function approximator behind the deep agents (Q-values,
policy logits, state values); it is intentionally tiny and CPU-only.

Layout. Each layer is one augmented ``(fan_in + 1, fan_out)`` block
``[W; b]`` of a flat parameter vector: its weight rows, then its bias as
the last row. The gradients are laid out the same way, so a whole-net
update is one array operation, and a layer's input carries a trailing
column of ones, so ``[a, 1] @ [W; b]`` is the affine map in one matrix
product. Backward then gives a layer's weight and bias gradients in one
product too: ``[a, 1].T @ delta``, whose last row sums ``delta`` over the
batch. The bias enters each sum as its last term, but a BLAS kernel
need not add the terms in order (OpenBLAS sums a tail output column in
interleaved lanes), so an element can differ in its last bit from a
separate product and bias add or ``delta.sum(axis=0)``.

Buffers. Every layer's input (ones column included), every hidden
layer's pre-activation and every hidden delta lives in one set of
preallocated arrays, sized to the largest batch the net has seen; a
larger batch replaces the set. The views of each row count are bound
once and cached until the set is replaced, so batches of alternating
sizes build no views per call. ``forward`` returns a fresh array, which
later calls never touch; the activations it leaves in the buffers are
what the next ``backward`` reads.
"""

from __future__ import annotations

import numpy as np

# 1.0 as an array: a ufunc takes it without converting a Python scalar
_ONE = np.array(1.0)


class TinyNet:
    """Fully connected net: sizes = (in, hidden..., out).

    ``weights``/``biases`` (and ``g_weights``/``g_biases``) are writable
    views of each layer's block: its first ``fan_in`` rows and its last
    row.
    """

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        self.sizes = tuple(int(s) for s in sizes)
        shapes = tuple(zip(self.sizes, self.sizes[1:]))
        drawn = [rng.standard_normal(shape) * (1.0 / np.sqrt(shape[0])) for shape in shapes]
        self._params = params = np.zeros(sum((i + 1) * o for i, o in shapes))
        self._grads = grads = np.zeros_like(params)
        self._step = np.empty_like(params)  # sgd_step's lr * grads
        blocks, g_blocks = [], []
        offset = 0
        for w, (fan_in, fan_out) in zip(drawn, shapes):
            end = offset + (fan_in + 1) * fan_out
            blocks.append(params[offset:end].reshape(fan_in + 1, fan_out))
            g_blocks.append(grads[offset:end].reshape(fan_in + 1, fan_out))
            blocks[-1][:fan_in] = w
            offset = end
        self._blocks, self._g_blocks = tuple(blocks), tuple(g_blocks)
        self.weights = tuple(b[:-1] for b in blocks)
        self.biases = tuple(b[-1] for b in blocks)
        self.g_weights = tuple(g[:-1] for g in g_blocks)
        self.g_biases = tuple(g[-1] for g in g_blocks)
        # per layer input, and per hidden layer pre-activation and delta
        self._ins: list[np.ndarray] = []
        self._pres: list[np.ndarray] = []
        self._deltas: list[np.ndarray] = []
        self._rows = 0  # the buffers' row count
        self._views: dict[int, tuple] = {}
        self._last: tuple | None = None  # the last forward's views

    def _bind(self, n: int) -> tuple:
        """The buffer views of an ``n``-row batch, growing the buffers first
        when ``n`` is more rows than they hold."""
        if n > self._rows:
            fan_ins, hidden = self.sizes[:-1], self.sizes[1:-1]
            # inputs start as ones, and no write ever reaches the last column
            self._ins = [np.ones((n, fan_in + 1)) for fan_in in fan_ins]
            self._pres = [np.empty((n, h)) for h in hidden]
            self._deltas = [np.empty((n, h)) for h in hidden]
            self._rows, self._views = n, {}
        ins = [b[:n] for b in self._ins]
        pres = [b[:n] for b in self._pres]
        deltas = [b[:n] for b in self._deltas]
        outs = [a[:, :-1] for a in ins[1:]]  # each hidden layer's tanh
        hidden = tuple(zip(ins, self._blocks, pres, outs))
        # output layer first: (input^T, gradient block, W^T, delta into
        # the input, the input's tanh, tanh' scratch); the first layer
        # backprops nothing further
        back = tuple(zip(
            [a.T for a in ins[:0:-1]], self._g_blocks[:0:-1],
            [w.T for w in self.weights[:0:-1]], deltas[::-1], outs[::-1], pres[::-1],
        )) + ((ins[0].T, self._g_blocks[0], None, None, None, None),)
        views = self._views[n] = (ins[0][:, :-1], hidden, ins[-1], back)
        return views

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on a (batch, in) array, or one (in,) sample.

        Returns a new (batch, out) array; the activations stay in the
        buffers for ``backward``.
        """
        n = len(x) if x.ndim == 2 else 1
        views = self._views.get(n) or self._bind(n)
        x_in, hidden, a, _ = self._last = views
        x_in[...] = x
        # ndarray.dot skips np.dot's dispatch; the product is the same
        for a_in, block, pre, out in hidden:
            a_in.dot(block, pre)
            np.tanh(pre, out)
        return a.dot(self._blocks[-1])

    def backward(self, grad_out: np.ndarray) -> None:
        """Write the parameter gradients of the last forward pass.

        ``grad_out`` is dLoss/dOutput for that batch, a (batch, out)
        float array. Each call overwrites the gradients, so no zeroing
        is needed between updates. The input's own gradient is not
        computed.
        """
        if self._last is None:
            raise RuntimeError("backward called before forward")
        delta = grad_out if grad_out.ndim == 2 else grad_out.reshape(1, -1)
        for a_t, g_block, w_t, d, out, scratch in self._last[3]:
            a_t.dot(delta, g_block)
            if w_t is None:
                return
            delta = delta.dot(w_t, d)
            # times tanh' of the layer below, whose output is ``out``
            np.square(out, scratch)
            np.subtract(_ONE, scratch, scratch)
            np.multiply(delta, scratch, delta)

    def sgd_step(self, lr: float) -> None:
        np.multiply(self._grads, lr, out=self._step)
        self._params -= self._step


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, safe for strongly peaked logits."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
