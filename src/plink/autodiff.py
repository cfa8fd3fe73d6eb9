"""Reverse-mode automatic differentiation on numpy arrays.

A deliberately small tape: exactly the operations the field/loss/network
stack needs (elementwise arithmetic, matmul, reductions, cumulative sums,
basic slicing, concatenation, and a few nonlinearities). Everything is
float64. The module-level helpers (`exp`, `sigmoid`, `cumsum`, ...)
dispatch on type, so numerical kernels can be written once and evaluated
either on plain arrays (no graph) or on `Tensor`s (graph recorded).
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


class Tensor:
    """One node in the computation graph, wrapping a float64 ndarray."""

    # Keep numpy from consuming `ndarray <op> Tensor`; our reflected ops run instead.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    def item(self) -> float:
        return float(self.value)

    def detach(self) -> "Tensor":
        """A graph-free copy of this node (stop-gradient)."""
        return Tensor(self.value)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self.value, _val(other)
        out = Tensor(a + b, _parents=_tensor_parents(self, other))
        out._vjp = _binary_vjp(self, other, lambda g: g, lambda g: g)
        return out

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self.value, _val(other)
        out = Tensor(a * b, _parents=_tensor_parents(self, other))
        out._vjp = _binary_vjp(self, other, lambda g: g * b, lambda g: g * a)
        return out

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return self + (-1.0) * other
        return self + (-_val(other))

    def __rsub__(self, other):
        return _val(other) + (-1.0) * self

    def __neg__(self):
        return (-1.0) * self

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return self * other._reciprocal()
        return self * (1.0 / _val(other))

    def __rtruediv__(self, other):
        return _val(other) * self._reciprocal()

    def _reciprocal(self):
        a = self.value
        out = Tensor(1.0 / a, _parents=(self,))
        out._vjp = lambda g: (_unbroadcast(-g / (a * a), a.shape),)
        return out

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self.value
        out = Tensor(a ** exponent, _parents=(self,))
        out._vjp = lambda g: (g * exponent * a ** (exponent - 1),)
        return out

    def __matmul__(self, other):
        a, b = self.value, _val(other)
        out = Tensor(a @ b, _parents=_tensor_parents(self, other))
        out._vjp = _binary_vjp(
            self, other,
            lambda g: g @ b.T,
            lambda g: a.T @ g,
            unbroadcast=False,
        )
        return out

    def __rmatmul__(self, other):
        a, b = _val(other), self.value
        out = Tensor(a @ b, _parents=(self,))
        out._vjp = lambda g: (a.T @ g,)
        return out

    # -- shape and indexing -------------------------------------------------

    def __getitem__(self, key):
        a = self.value
        out = Tensor(a[key], _parents=(self,))

        def vjp(g):
            full = np.zeros_like(a)
            np.add.at(full, key, g)
            return (full,)

        out._vjp = vjp
        return out

    def reshape(self, *shape):
        a = self.value
        out = Tensor(a.reshape(*shape), _parents=(self,))
        out._vjp = lambda g: (g.reshape(a.shape),)
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self.value
        out = Tensor(a.sum(axis=axis, keepdims=keepdims), _parents=(self,))

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, a.shape).copy(),)

        out._vjp = vjp
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def cumsum(self, axis=-1):
        a = self.value
        out = Tensor(np.cumsum(a, axis=axis), _parents=(self,))

        def vjp(g):
            # Adjoint of cumsum is a reversed cumsum along the same axis.
            rev = np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis)
            return (rev,)

        out._vjp = vjp
        return out

    # -- backward pass ------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this (scalar or any-shape) node into leaves."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                parent.grad += g


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tensor_parents(*args) -> tuple:
    return tuple(a for a in args if isinstance(a, Tensor))


def _binary_vjp(left, right, v_left, v_right, unbroadcast=True):
    """Build a vjp closure aligned with the Tensor-only parent tuple."""
    lshape = _val(left).shape
    rshape = _val(right).shape

    def vjp(g):
        grads = []
        if isinstance(left, Tensor):
            gl = v_left(g)
            grads.append(_unbroadcast(gl, lshape) if unbroadcast else gl)
        if isinstance(right, Tensor):
            gr = v_right(g)
            grads.append(_unbroadcast(gr, rshape) if unbroadcast else gr)
        return tuple(grads)

    return vjp


# -- dual array/Tensor helpers ------------------------------------------------


def exp(x):
    if isinstance(x, Tensor):
        value = np.exp(x.value)
        out = Tensor(value, _parents=(x,))
        out._vjp = lambda g: (g * value,)
        return out
    return np.exp(x)


def log(x):
    if isinstance(x, Tensor):
        a = x.value
        out = Tensor(np.log(a), _parents=(x,))
        out._vjp = lambda g: (g / a,)
        return out
    return np.log(x)


def maximum0(x):
    """Elementwise max(0, x); gradient is zero on the inactive side."""
    if isinstance(x, Tensor):
        a = x.value
        mask = (a > 0).astype(np.float64)
        out = Tensor(a * mask, _parents=(x,))
        out._vjp = lambda g: (g * mask,)
        return out
    return np.maximum(0.0, x)


relu = maximum0


def clip(x, lo, hi):
    """Clamp to [lo, hi]; gradient passes only inside the interval."""
    if isinstance(x, Tensor):
        a = x.value
        mask = ((a >= lo) & (a <= hi)).astype(np.float64)
        out = Tensor(np.clip(a, lo, hi), _parents=(x,))
        out._vjp = lambda g: (g * mask,)
        return out
    return np.clip(x, lo, hi)


def _sigmoid_np(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(x):
    if isinstance(x, Tensor):
        value = _sigmoid_np(x.value)
        out = Tensor(value, _parents=(x,))
        out._vjp = lambda g: (g * value * (1.0 - value),)
        return out
    return _sigmoid_np(np.asarray(x, dtype=np.float64))


def _softplus_np(a):
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def softplus(x):
    if isinstance(x, Tensor):
        a = x.value
        out = Tensor(_softplus_np(a), _parents=(x,))
        out._vjp = lambda g: (g * _sigmoid_np(a),)
        return out
    return _softplus_np(np.asarray(x, dtype=np.float64))


def cumsum(x, axis=-1):
    if isinstance(x, Tensor):
        return x.cumsum(axis=axis)
    return np.cumsum(x, axis=axis)


def reduce_sum(x, axis=None, keepdims=False):
    if isinstance(x, Tensor):
        return x.sum(axis=axis, keepdims=keepdims)
    return np.sum(x, axis=axis, keepdims=keepdims)


def concatenate(parts, axis=0):
    if any(isinstance(p, Tensor) for p in parts):
        values = [_val(p) for p in parts]
        out = Tensor(np.concatenate(values, axis=axis),
                     _parents=_tensor_parents(*parts))
        sizes = [v.shape[axis] for v in values]
        offsets = np.cumsum([0] + sizes)

        def vjp(g):
            grads = []
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if isinstance(p, Tensor):
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(lo, hi)
                    grads.append(g[tuple(index)])
            return tuple(grads)

        out._vjp = vjp
        return out
    return np.concatenate(parts, axis=axis)


def detach(x):
    return x.detach() if isinstance(x, Tensor) else x


def value_of(x) -> np.ndarray:
    return _val(x)
