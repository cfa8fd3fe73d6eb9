"""The learnable field F(x + s*dir, dir).

A positionally encoded fully-connected network with two output heads: a
nonnegative reflection density (softplus) and an unbounded drop channel.
Parameters live in one flat vector, float32 in every model the program
makes (float64 ones serve exact checks), and the MLP computes in their
dtype. Its features come in that dtype too: `encode` takes an output
dtype, the march asks for the model's, and the first layer reads them
without a cast copy. sigma and phi leave it as float64 and their
gradients come back as float64, so the cumulative trace and the losses
never see float32. The optimizer is an adaptive-moment update with bias
correction and float64 moments.

The MLP has one definition, a layer loop on plain arrays that serves both
inference and training. For training, `ModelGraph` keeps each hidden
layer's input and returns `(sigma, phi)`. The loss head's own adjoints
(`losses`, `field`) give the gradients at those outputs, and `backward`
takes them through the heads and hidden layers by hand into a flat vector
in `layer_shapes` order. It reuses the activation storage it has finished
with: each hidden layer's gradient overwrites that layer's activation once
nothing reads it, so it allocates no (N, width) buffer beside the graph's
(a model with the phi head sums that head's product from one temporary),
and a graph takes one backward.
Each elementwise step is one in-place pass over the activations: bias
add, relu as ``np.maximum``, the relu mask on the gradient, and the
rank-1 head products as broadcast multiplies. Each
rounds as the op a tape-recorded MLP would run, so for a float64 model the
gradient is bit-identical to one (up to the sign of a zero: relu gives
+0.0 where the tape's ``z * (z > 0)`` gives -0.0).

`backward` returns the flat gradient as a plain array, after checking it
is finite; `opt_step` takes that array.

Every pass runs whole, at whatever thread count numpy's OpenBLAS has.
Outputs are byte-deterministic for a given seed, numpy and OpenBLAS
build, CPU kernel and OpenBLAS thread count: two runs in one process give
equal bytes. Threaded OpenBLAS blocks two products otherwise than its
one-thread kernels do: the weight gradient's sum over rows, in its GEMM
tail, and the heads' products, in its GEMV. At the benchmark's 4,096 and
8,256 rows one and two threads agree; at other row counts they can
differ in the last bits.

`FieldModel`'s shape fields are the run config's network keys, and the
checkpoint header holds them in field order (single model record,
little-endian):

    magic   8 bytes   b"PLNKFLD1"
    header  7 int32   [encoding_levels, dir_levels, use_direction,
                       hidden_layers, hidden_width, has_phi_head, param_count]
    params  param_count float32 (a float64 model's are rounded to it)

A header with a negative count or level, a layer count or width below 1
(`check_shape`), a flag other than 0 or 1, or a count other than its
shape's is an error naming the file, as is a record longer than the bytes
left and a non-finite parameter. All but the last are found before
anything sized by the count is allocated. `init_model` and `opt_step` keep
every model the program makes finite, so the inference pass takes that as
given.

A checkpoint file written by the trainer holds b"PLNKCKPT" + int32 record
count, then that many model records (coarse first, fine second).
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import DivergenceError, InvalidInputError

MODEL_MAGIC = b"PLNKFLD1"
CHECKPOINT_MAGIC = b"PLNKCKPT"


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp of a nonpositive argument only."""
    e = np.exp(-np.abs(a))
    return np.where(np.asarray(a) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def encode(positions, directions, levels: int, dir_levels: int,
           dtype=np.float64) -> np.ndarray:
    """Fourier-feature encoding of unit-cube positions (and optional directions).

    Raw coordinates are kept alongside sin/cos pairs at frequencies
    2^0 pi ... 2^(levels-1) pi, built by angle doubling from one sin and
    cos of pi * coords (see `_fourier_into` for its round-off). Output
    width is 3 + 6*levels, plus 3 + 6*dir_levels when ``directions`` is
    not None. The output has ``dtype``: the values are computed in float64
    and rounded once on store, so a float32 encoding equals the float64 one
    cast to float32, bit for bit.

    Directions come one per position, or one per ray: B rows for N = B*J
    positions, where row i serves positions i*J ... (i+1)*J - 1. Per-ray
    directions are encoded once and repeated. `pipeline` alone enforces
    the unit cube, on every ray before any of its points is encoded.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n = positions.shape[0]
    pos_width = encoded_width(levels, 0, False)
    out = np.empty((n, encoded_width(levels, dir_levels, directions is not None)), dtype)
    _fourier_into(out[:, :pos_width], positions, levels)
    if directions is not None:
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        rays = directions.shape[0]
        per_ray = np.empty((rays, out.shape[1] - pos_width), dtype)
        _fourier_into(per_ray, directions, dir_levels)
        out[:, pos_width:].reshape(rays, n // rays, -1)[...] = per_ray[:, None, :]
    return out


def _fourier_into(out: np.ndarray, coords: np.ndarray, levels: int) -> None:
    """Write [coords, sin, cos at each level] into the (n, 3 + 6*levels) block.

    Level 0 is one sin and one cos of pi * coords. Each next level doubles
    the angle, sin 2a = 2 sin a cos a and cos 2a = (cos a - sin a)(cos a + sin a),
    so level k is within about 2^k * 2e-16 of np.sin and np.cos of
    2^k pi coords. The levels are built as contiguous (levels, n, 3) blocks
    and written through one (n, levels, 2, 3) view of the output.
    """
    n = coords.shape[0]
    out[:, :3] = coords
    if not levels:
        return
    waves = np.empty((2, levels, n, 3))
    sin, cos = waves
    np.multiply(coords, np.pi, out=cos[0])
    np.sin(cos[0], out=sin[0])
    np.cos(cos[0], out=cos[0])
    for k in range(1, levels):    # sin[k] holds cos - sin until cos[k] is done
        np.add(cos[k - 1], sin[k - 1], out=cos[k])
        np.subtract(cos[k - 1], sin[k - 1], out=sin[k])
        cos[k] *= sin[k]
        np.multiply(sin[k - 1], cos[k - 1], out=sin[k])
        sin[k] *= 2.0
    # Splitting the unit-stride last axis gives a view, never a copy.
    out[:, 3:].reshape(n, levels, 2, 3)[...] = waves.transpose(2, 1, 0, 3)


def check_shape(encoding_levels, dir_levels, hidden_layers, hidden_width) -> None:
    """The network-shape rule, for a `FieldModel` and the run config's keys alike."""
    shape = (encoding_levels, dir_levels, hidden_layers, hidden_width)
    if min(encoding_levels, dir_levels) < 0:
        raise InvalidInputError(f"encoding_levels and dir_levels must be at least 0, not {shape}")
    if min(hidden_layers, hidden_width) < 1:
        raise InvalidInputError(f"hidden_width and hidden_layers must be at least 1, not {shape}")


def encoded_width(levels: int, dir_levels: int, use_direction: bool) -> int:
    width = 3 + 6 * levels
    if use_direction:
        width += 3 + 6 * dir_levels
    return width


@dataclass
class FieldModel:
    """The network's shape, as the run config's keys name it, and its flat parameters.

    ``params`` is a float32 or float64 vector, kept in its dtype; ``None``
    gives a float32 zero vector of the shape's length.
    """

    encoding_levels: int
    dir_levels: int
    use_direction: bool
    hidden_layers: int
    hidden_width: int
    has_phi_head: bool
    params: np.ndarray | None

    def __post_init__(self):
        check_shape(self.encoding_levels, self.dir_levels, self.hidden_layers, self.hidden_width)
        if self.use_direction not in (0, 1) or self.has_phi_head not in (0, 1):
            raise InvalidInputError(f"use_direction and has_phi_head must be 0 or 1, not "
                                    f"{self.use_direction} and {self.has_phi_head}")
        self.use_direction, self.has_phi_head = bool(self.use_direction), bool(self.has_phi_head)
        if self.params is None:
            self.params = np.zeros(self.param_count(), dtype=np.float32)
        self.params = np.asarray(self.params)
        if self.params.dtype not in (np.float32, np.float64) or self.params.ndim != 1:
            raise InvalidInputError(f"parameter vector must be a float32 or float64 vector, not "
                                    f"{self.params.dtype} {self.params.shape}")
        if self.params.size != self.param_count():
            raise InvalidInputError(f"parameter count {self.params.size} does not match the "
                                    f"shape's {self.param_count()}")

    def input_width(self) -> int:
        return encoded_width(self.encoding_levels, self.dir_levels, self.use_direction)

    def layer_shapes(self) -> list:
        """(weight_shape, bias_shape) per linear layer, heads last."""
        widths = [self.input_width()] + [self.hidden_width] * self.hidden_layers
        shapes = [((a, b), (b,)) for a, b in zip(widths, widths[1:])]
        return shapes + [((widths[-1], 1), (1,))] * (1 + self.has_phi_head)  # sigma, phi

    def param_count(self) -> int:
        """The length of `layer_shapes`' layout, in exact integer arithmetic."""
        width = self.hidden_width
        return ((self.input_width() + 1) * width + (self.hidden_layers - 1) * (width + 1) * width
                + (1 + self.has_phi_head) * (width + 1))

    def param_views(self) -> list:
        """(weight, bias) ndarray views into the flat vector, layout order."""
        return _layout_views(self.layer_shapes(), self.params)

    def describe_parameter(self, index: int) -> str:
        """Where flat parameter ``index`` lives: network, layer, W/b and position."""
        network = "fine" if self.has_phi_head else "coarse"
        n_hidden = self.hidden_layers
        offset = 0
        for i, (w_shape, b_shape) in enumerate(self.layer_shapes()):
            layer = f"layer {i}" if i < n_hidden else ("sigma head", "phi head")[i - n_hidden]
            w_size, b_size = int(np.prod(w_shape)), int(np.prod(b_shape))
            if index < offset + w_size:
                row, col = divmod(index - offset, w_shape[1])
                return f"{network} {layer} W[{row}, {col}]"
            if index < offset + w_size + b_size:
                return f"{network} {layer} b[{index - offset - w_size}]"
            offset += w_size + b_size
        raise InvalidInputError(f"parameter index {index} is out of range")


def init_model(model: FieldModel, rng, sigma_bias: float) -> FieldModel:
    """He-initialize ``model``'s parameters in place and return it.

    Every bias starts at 0 but the sigma head's, at ``sigma_bias``: a
    negative one makes the initial field carry little return mass, so the
    cdf starts far from 1.
    """
    rng = np.random.default_rng(rng)
    for i, (w, b) in enumerate(model.param_views()):
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
        b[...] = sigma_bias if i == model.hidden_layers else 0.0
    return model


def _layout_views(shapes: list, flat: np.ndarray) -> list:
    """(weight, bias) views into a flat vector laid out by ``shapes``."""
    views = []
    offset = 0
    for w_shape, b_shape in shapes:
        w_size = int(np.prod(w_shape))
        b_size = int(np.prod(b_shape))
        w = flat[offset:offset + w_size].reshape(w_shape)
        b = flat[offset + w_size:offset + w_size + b_size]
        views.append((w, b))
        offset += w_size + b_size
    return views


class ModelGraph:
    """One training pass of a model: what its hand-written backward needs.

    ``forward`` keeps each hidden layer's input and the last hidden
    activation (``acts``), the sigma head's pre-activation and ``sigma``;
    a relu mask is recomputed from the layer's output as ``h > 0``. A graph
    takes one `backward`, which overwrites every hidden activation with a
    gradient; ``spent`` records that it ran, and a second raises.
    """

    def __init__(self, model: FieldModel):
        self.model = model
        self.views = model.param_views()
        self.acts = []
        self.pre_sigma = self.sigma = None
        self.spent = False

    def forward(self, feats: np.ndarray):
        """(sigma, phi) of shape (N,), as `forward` gives; phi is None without the head."""
        self.pre_sigma, phi = _layers(self.model, self.views, feats, self.acts)
        self.sigma = softplus(self.pre_sigma)
        return self.sigma, phi


def _layers(model: FieldModel, views: list, feats, acts=None):
    """The MLP on plain arrays: (sigma head pre-activation, float64 phi-or-None).

    It computes in the parameters' dtype: features in it are the first
    layer's input as they are, others are cast to it in a copy.
    A list ``acts`` receives each hidden layer's input, then the last
    hidden activation. Each layer is one matmul, then the bias add and
    relu, ``np.maximum(z, 0.0)``, in place on its result: for a float64
    model, the values a tape-recorded MLP computes, with +0.0 where its
    ``z * (z > 0)`` gives -0.0.
    """
    n_hidden = model.hidden_layers
    dtype = model.params.dtype
    x = np.asarray(feats, dtype=dtype)
    shape = (len(x), model.hidden_width)
    if acts is None:        # inference alternates between two buffers
        pair = [np.empty(shape, dtype) for _ in range(min(n_hidden, 2))]
        outs = [pair[i % 2] for i in range(n_hidden)]
    else:
        outs = [np.empty(shape, dtype) for _ in range(n_hidden)]
        acts[:] = [x] + outs
    h = x
    for (w, b), out in zip(views[:n_hidden], outs):
        np.matmul(h, w, out=out)
        np.add(out, b, out=out)
        np.maximum(out, 0.0, out=out)
        h = out
    w_s, b_s = views[n_hidden]
    pre_sigma = (h @ w_s + b_s)[:, 0]
    phi = None
    if model.has_phi_head:
        w_p, b_p = views[n_hidden + 1]
        phi = np.asarray((h @ w_p + b_p)[:, 0], dtype=np.float64)
    return pre_sigma, phi


def forward(model: FieldModel, feats: np.ndarray):
    """Inference pass on plain arrays; returns (sigma, phi-or-None)."""
    pre_sigma, phi = _layers(model, model.param_views(), feats)
    return softplus(pre_sigma), phi


def backward(graph: ModelGraph, g_sigma: np.ndarray, g_phi=None) -> np.ndarray:
    """The flat parameter gradient of one model, in its dtype, checked finite.

    ``g_sigma`` and ``g_phi`` (N,) are the loss's float64 gradients at the
    graph's outputs; a phi head without ``g_phi`` gets a zero gradient.
    Each head's gradient (sigma's through softplus') is cast once to the
    parameters' dtype, and a finite one that overflows it is a divergence
    named by its head. A non-finite gradient is a divergence, reported by
    the layer and position of its first bad entry.

    It spends the graph: every hidden activation becomes gradient
    storage, so a second backward of the same graph raises
    `InvalidInputError`.
    """
    if graph.spent:
        raise InvalidInputError("this graph's backward already ran; run forward on a new "
                                "ModelGraph")
    graph.spent = True
    model, dtype = graph.model, graph.model.params.dtype
    heads = {"sigma": g_sigma * sigmoid(graph.pre_sigma)}
    if model.has_phi_head:
        heads["phi"] = np.zeros_like(g_sigma) if g_phi is None else g_phi
    with np.errstate(over="ignore"):
        columns = [np.asarray(g, dtype=dtype) for g in heads.values()]
    for (name, g), column in zip(heads.items(), columns):
        if np.any(np.isinf(column) & np.isfinite(g)):
            network = "fine" if model.has_phi_head else "coarse"
            raise DivergenceError(f"the {network} {name} head's gradient overflows {dtype}")
    gradient = _mlp_backward(graph, columns)
    if not np.all(np.isfinite(gradient)):
        bad = int(np.flatnonzero(~np.isfinite(gradient))[0])
        raise DivergenceError(f"gradient contains non-finite entries, first at "
                              f"{model.describe_parameter(bad)} (parameter {bad})")
    return gradient


def _mlp_backward(graph: ModelGraph, heads: list) -> np.ndarray:
    """Flat parameter gradient from the heads' (N,) pre-activation gradients, sigma first.

    Each step rounds as the vjp a tape-recorded MLP would run, so for a
    float64 model the result is bit-identical to it: softplus' as
    ``g * sigmoid(pre)`` (in `backward`); each head's part of the last
    hidden gradient as the broadcast product ``column * w.T``, which equals
    the tape's K=1 matmul, summed in place; the relu mask multiplied in
    place; bias gradients as sums over rows and weight gradients as
    ``input.T @ g``. The input features get none.

    Each hidden layer's one buffer serves both directions: layer i's
    output gradient is written over its output activation ``acts[i + 1]``
    once the weight gradients above have read that activation and its relu
    mask is taken. Only the phi head's product takes an (N, width)
    temporary, so a one-head model allocates no float buffer of that size.
    """
    model, views, acts = graph.model, graph.views, graph.acts
    grad = np.empty(model.param_count(), dtype=model.params.dtype)
    grad_views = _layout_views(model.layer_shapes(), grad)
    n_hidden = model.hidden_layers
    h = acts[n_hidden]
    columns = [g.reshape(-1, 1) for g in heads]
    for i, column in enumerate(columns, start=n_hidden):
        g_w, g_b = grad_views[i]
        np.matmul(h.T, column, out=g_w)
        g_b[...] = column.sum(axis=0)
    g = h
    mask = np.greater(h, 0.0)               # before g overwrites h
    np.multiply(columns[0], views[n_hidden][0].T, out=g)
    for j in range(1, len(columns)):        # the phi head's product, in a temporary
        np.add(g, columns[j] * views[n_hidden + j][0].T, out=g)
    np.multiply(g, mask, out=g)
    for i in reversed(range(n_hidden)):
        g, (g_w, g_b) = acts[i + 1], grad_views[i]
        np.matmul(acts[i].T, g, out=g_w)
        np.sum(g, axis=0, out=g_b)
        if i:                               # acts[i] is read: its gradient overwrites it
            np.greater(acts[i], 0.0, out=mask)
            np.matmul(g, views[i][0].T, out=acts[i])
            np.multiply(acts[i], mask, out=acts[i])
    return grad


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_model(cls, model: FieldModel) -> "AdamState":
        n = model.params.size
        return cls(np.zeros(n), np.zeros(n), 0)


def opt_step(model: FieldModel, g: np.ndarray, lr: float, state: AdamState) -> None:
    """One bias-corrected adaptive-moment update, in place.

    The float64 moments are updated in their arrays, with the operation order of
    ``m = b1 * m + (1 - b1) * g`` and ``v = b2 * v + (1 - b2) * g ** 2``.
    A non-finite moment is a divergence, like a non-finite update or a parameter it
    would overflow: a finite gradient above about 1e154 overflows ``v``, which would
    freeze the entry. A divergence leaves the parameters as they were.
    """
    g = np.asarray(g, dtype=np.float64)
    b1, b2, eps = 0.9, 0.999, 1e-8     # decay rates and denominator floor
    state.t += 1
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        state.m *= b1
        state.m += (1.0 - b1) * g
        state.v *= b2
        square = g * g
        square *= 1.0 - b2
        state.v += square
        update = state.m / (1.0 - b1 ** state.t)
        update *= lr
        denom = state.v / (1.0 - b2 ** state.t)
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        stepped = np.asarray(model.params - update, dtype=model.params.dtype)
    # A non-finite m_hat makes lr * m_hat non-finite; a non-finite v_hat, its root.
    finite = np.isfinite(stepped) & np.isfinite(denom)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0])
        raise DivergenceError(
            f"non-finite moment, update or parameter at {model.describe_parameter(bad)} "
            f"(parameter {bad}, gradient={float(g[bad])!r}, update={float(update[bad])!r}, "
            f"m={float(state.m[bad])!r}, v={float(state.v[bad])!r}, step {state.t})"
        )
    model.params[...] = stepped


# -- checkpoint serialization ----------------------------------------------------


def _write_model(fh, model: FieldModel) -> None:
    fh.write(MODEL_MAGIC)
    shape = [getattr(model, f.name) for f in fields(model)[:-1]]
    fh.write(struct.pack("<7i", *shape, model.params.size))
    fh.write(model.params.astype("<f4").tobytes())


def _read_exact(fh, n: int) -> bytes:
    """``n`` bytes of ``fh``. A regular file is measured first, so a short
    one is refused without a read that allocates ``n`` bytes."""
    info = os.fstat(fh.fileno())
    short = stat.S_ISREG(info.st_mode) and n > info.st_size - fh.tell()
    data = fh.read() if short else fh.read(n)
    if len(data) != n:
        raise InvalidInputError(f"the file ends {n - len(data)} bytes early")
    return data


def _read_model(fh) -> FieldModel:
    magic = fh.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise InvalidInputError("not a field-model record")
    *shape, count = struct.unpack("<7i", _read_exact(fh, 28))
    if count < 0:
        raise InvalidInputError(f"parameter count {count} is negative")
    # A zero-stride stand-in for the parameters: the model checks its shape,
    # then the count against it, and nothing sized by the count is allocated.
    model = FieldModel(*shape, np.broadcast_to(np.float32(0.0), count))
    params = np.frombuffer(_read_exact(fh, 4 * count), dtype="<f4").astype(np.float32)
    model.params = params
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        i = int(bad[0])
        raise InvalidInputError(f"non-finite parameter {float(params[i])!r} at "
                                f"{model.describe_parameter(i)} (parameter {i})")
    return model


def save_checkpoint(path, coarse: FieldModel, fine: FieldModel) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<i", 2))
        _write_model(fh, coarse)
        _write_model(fh, fine)


def load_checkpoint(path):
    """(coarse, fine) models; a malformed or short file, one whose records
    are not a coarse model without the drop head and then a fine model with
    it, one with a non-finite parameter, or one with bytes after them,
    raises naming the file."""
    with open(path, "rb") as fh:
        try:
            if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                raise InvalidInputError("not a checkpoint file")
            (count,) = struct.unpack("<i", _read_exact(fh, 4))
            if count != 2:
                raise InvalidInputError("checkpoint must hold coarse and fine models")
            coarse, fine = _read_model(fh), _read_model(fh)
            if coarse.has_phi_head or not fine.has_phi_head:
                raise InvalidInputError("the first model record must be the coarse one, "
                                        "without a phi head, and the second the fine one, "
                                        "with a phi head")
            if fh.read(1):
                raise InvalidInputError("unexpected bytes after the fine model record")
            return coarse, fine
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from None
