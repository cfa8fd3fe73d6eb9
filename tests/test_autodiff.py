"""Finite-difference checks for the reverse-mode tape, which only tests use."""

import ast
from pathlib import Path

import numpy as np
import pytest

from plink import autodiff as ad


def numerical_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        grad.ravel()[i] = (hi - lo) / (2 * eps)
    return grad


def check(fn, x, rtol=1e-6, atol=1e-8):
    t = ad.Tensor(np.asarray(x, dtype=float).copy())
    out = fn(t)
    out.backward()
    expected = numerical_grad(lambda arr: fn(ad.Tensor(arr)).item(), x)
    np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


RNG = np.random.default_rng(7)


@pytest.mark.parametrize("fn", [
    lambda t: (t * 3.0 + 1.5).sum(),
    lambda t: (t * t).sum(),
    lambda t: (t / 2.5 - t).sum(),
    lambda t: (1.0 - t).sum(),
    lambda t: (2.0 / (t + 3.0)).sum(),
    lambda t: (t ** 3).sum(),
    lambda t: ad.exp(t).sum(),
    lambda t: ad.log(t + 3.0).sum(),
    lambda t: ad.sigmoid(t).sum(),
    lambda t: ad.softplus(t).sum(),
    lambda t: (ad.maximum0(t) * t).sum(),
    lambda t: t.cumsum(axis=-1).sum(),
    lambda t: (t.cumsum(axis=-1) ** 2).sum(),
    lambda t: t.sum(axis=0).sum(),
    lambda t: (t.sum(axis=-1, keepdims=True) * t).sum(),
    lambda t: t.mean(),
    lambda t: t[1:, :2].sum(),
    lambda t: t.reshape(-1).sum(),
    lambda t: ad.concatenate([t, t * 2.0], axis=0).sum(),
    lambda t: (t / t.sum(axis=-1, keepdims=True)).sum(axis=0)[1],
])
def test_elementwise_and_shape_ops(fn):
    check(fn, RNG.normal(size=(3, 4)) + 0.1)


def test_matmul_grads():
    a0 = RNG.normal(size=(4, 3))
    b0 = RNG.normal(size=(3, 2))

    def fn_a(arr):
        return (ad.Tensor(arr) @ b0).sum().item()

    t = ad.Tensor(a0.copy())
    out = (t @ b0).sum()
    out.backward()
    np.testing.assert_allclose(t.grad, numerical_grad(fn_a, a0), rtol=1e-6)

    def fn_b(arr):
        return (ad.Tensor(a0) @ ad.Tensor(arr)).sum().item()

    t = ad.Tensor(b0.copy())
    out = (ad.Tensor(a0) @ t).sum()
    out.backward()
    np.testing.assert_allclose(t.grad, numerical_grad(fn_b, b0), rtol=1e-6)


def test_clip_passes_gradient_only_inside():
    t = ad.Tensor(np.array([-2.0, 0.3, 2.0]))
    out = (ad.clip(t, 0.0, 1.0) * np.array([1.0, 1.0, 1.0])).sum()
    out.backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


def test_broadcast_add_unbroadcasts():
    bias = ad.Tensor(np.array([1.0, 2.0]))
    x = np.ones((5, 2))
    out = (x + bias).sum()
    out.backward()
    np.testing.assert_array_equal(bias.grad, [5.0, 5.0])


def test_diamond_graph_accumulates():
    t = ad.Tensor(np.array([1.5]))
    a = t * 2.0
    out = (a + a * t).sum()  # d/dt (2t + 2t^2) = 2 + 4t
    out.backward()
    np.testing.assert_allclose(t.grad, [2.0 + 4.0 * 1.5])


def test_mlp_composite_gradient():
    w1 = RNG.normal(size=(5, 8)) * 0.3
    w2 = RNG.normal(size=(8, 1)) * 0.3
    x = RNG.normal(size=(7, 5))

    def loss_fn(params):
        t1 = ad.Tensor(params[: w1.size].reshape(w1.shape))
        t2 = ad.Tensor(params[w1.size:].reshape(w2.shape))
        h = ad.maximum0(ad.Tensor(x) @ t1)
        y = ad.softplus((h @ t2)[:, 0])
        return (y ** 2).sum()

    params = np.concatenate([w1.ravel(), w2.ravel()])
    t1 = ad.Tensor(params[: w1.size].reshape(w1.shape).copy())
    t2 = ad.Tensor(params[w1.size:].reshape(w2.shape).copy())
    h = ad.maximum0(ad.Tensor(x) @ t1)
    y = ad.softplus((h @ t2)[:, 0])
    loss = (y ** 2).sum()
    loss.backward()
    analytic = np.concatenate([t1.grad.ravel(), t2.grad.ravel()])
    numeric = numerical_grad(lambda p: loss_fn(p).item(), params)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("key, expected", [
    ((slice(1, None), 0), [[0, 0, 0], [1, 0, 0], [1, 0, 0]]),
    ((..., slice(None, 1)), [[1, 0, 0], [1, 0, 0], [1, 0, 0]]),
    ((np.int64(2), None), [[0, 0, 0], [0, 0, 0], [1, 1, 1]]),
    (([0, 0, 2], 1), [[0, 2, 0], [0, 0, 0], [0, 1, 0]]),       # repeats accumulate
    ((np.array([True, False, True]),), [[1, 1, 1], [0, 0, 0], [1, 1, 1]]),
])
def test_getitem_gradient_counts_each_selection(key, expected):
    t = ad.Tensor(np.arange(9.0).reshape(3, 3))
    t[key].sum().backward()
    np.testing.assert_array_equal(t.grad, expected)


@pytest.mark.parametrize("add_first", [True, False])
def test_a_gradient_passed_to_two_parents_is_not_shared(add_first):
    # The add node hands the same gradient array to both operands; if the
    # first to arrive were stored without a copy, adding a's other term in
    # place would change b's gradient too.
    a, b = ad.Tensor(np.array([1.0, 2.0])), ad.Tensor(np.array([3.0, 4.0]))
    terms = [(a + b).sum(), (a * 2.0).sum()]
    loss = terms[0] + terms[1] if add_first else terms[1] + terms[0]
    loss.backward()
    np.testing.assert_array_equal(a.grad, [3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_no_package_module_imports_the_tape():
    package = Path(ad.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            else:
                continue
            assert not any("autodiff" in name.split(".") for name in names), path.name
