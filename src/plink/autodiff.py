"""Reverse-mode automatic differentiation on numpy arrays.

A deliberately small float64 tape that the tests use as a reference: the
MLP recorded op by op checks `net`'s hand-written backward, and the loss
head recorded as `Tensor` ops checks the adjoints in `losses`, `field` and
`sampler` bit for bit. The training path does not use it. The ops are
elementwise arithmetic, reductions, cumulative sums, slicing, reshape,
concatenation, ``matmul`` and a few nonlinearities; the module-level
helpers (`exp`, `sigmoid`, `concatenate`, ...) take and return `Tensor`s.
"""

from __future__ import annotations

import numpy as np

from . import net


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
    def size(self):
        return self.value.size

    def item(self) -> float:
        return float(self.value)

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

    # -- shape and indexing -------------------------------------------------

    def __getitem__(self, key):
        a = self.value
        out = Tensor(a[key], _parents=(self,))
        basic = _is_basic_index(key)

        def vjp(g):
            full = np.zeros_like(a)
            if basic:
                full[key] = g
            else:
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
        """Accumulate gradients of this (scalar or any-shape) node into leaves.

        The first gradient to reach a node becomes its own copy; later ones
        are added to it in place.
        """
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
                    parent.grad = np.array(g, dtype=np.float64)
                else:
                    parent.grad += g


def _is_basic_index(key) -> bool:
    """Ints, slices, None and Ellipsis only: no element is selected twice."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


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


# -- Tensor helpers -------------------------------------------------------------


def _unary(x: Tensor, value, vjp) -> Tensor:
    out = Tensor(value, _parents=(x,))
    out._vjp = lambda g: (vjp(g),)
    return out


def exp(x: Tensor) -> Tensor:
    value = np.exp(x.value)
    return _unary(x, value, lambda g: g * value)


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log(x.value), lambda g: g / x.value)


def maximum0(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient is zero on the inactive side."""
    mask = (x.value > 0).astype(np.float64)
    return _unary(x, x.value * mask, lambda g: g * mask)


def clip(x: Tensor, lo, hi) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only inside the interval."""
    mask = ((x.value >= lo) & (x.value <= hi)).astype(np.float64)
    return _unary(x, np.clip(x.value, lo, hi), lambda g: g * mask)


def sigmoid(x: Tensor) -> Tensor:
    value = net.sigmoid(x.value)
    return _unary(x, value, lambda g: g * value * (1.0 - value))


def softplus(x: Tensor) -> Tensor:
    return _unary(x, net.softplus(x.value), lambda g: g * net.sigmoid(x.value))


def concatenate(parts, axis=0) -> Tensor:
    values = [_val(p) for p in parts]
    out = Tensor(np.concatenate(values, axis=axis), _parents=_tensor_parents(*parts))
    offsets = np.cumsum([0] + [v.shape[axis] for v in values])

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
