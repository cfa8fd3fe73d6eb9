"""The learnable field F(x + s*dir, dir).

A positionally encoded fully-connected network with two output heads: a
nonnegative reflection density (softplus) and an unbounded drop channel.
Parameters live in one flat float64 vector, and the optimizer is a standard
adaptive-moment update with bias correction.

The MLP has one definition, a layer loop on plain arrays that serves both
inference and training. For training, `ModelGraph` keeps each hidden
layer's input and returns `(sigma, phi)` as leaf tensors: the autodiff tape
starts there and records only the loss head. `backward` runs the tape down
to those leaves, then a hand-written backward through the heads and hidden
layers turns their gradients into a flat vector in `layer_shapes` order.
The hand-written pass uses the same array operations as a tape-recorded
MLP would, so the gradient is bit-identical to one.

Checkpoint layout (single model record, little-endian):

    magic   8 bytes   b"PLNKFLD1"
    header  7 int32   [encoding_levels, dir_levels, use_direction,
                       n_hidden, hidden_width, has_phi_head, param_count]
    params  param_count float32

A checkpoint file written by the trainer holds b"PLNKCKPT" + int32 record
count, then that many model records (coarse first, fine second).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (CorruptedModelError, DivergenceError, InvalidInputError,
                     OutOfBoundsError)

MODEL_MAGIC = b"PLNKFLD1"
CHECKPOINT_MAGIC = b"PLNKCKPT"
POSITION_BOUND = 1.001


def encode(positions, directions=None, levels: int = 8, dir_levels: int = 2) -> np.ndarray:
    """Fourier-feature encoding of unit-cube positions (and optional directions).

    Raw coordinates are kept alongside sin/cos pairs at frequencies
    2^0 pi ... 2^(levels-1) pi. Output width is 3 + 6*levels, plus
    3 + 6*dir_levels when directions are given.

    Directions come one per position, or one per ray: B rows for N = B*J
    positions, where row i serves positions i*J ... (i+1)*J - 1. Per-ray
    directions are encoded once and repeated.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if np.any(np.abs(positions) > POSITION_BOUND):
        raise OutOfBoundsError("encoded positions must lie inside the unit cube")
    n = positions.shape[0]
    pos_width = encoded_width(levels, 0, False)
    out = np.empty((n, encoded_width(levels, dir_levels, directions is not None)))
    _fourier_into(out[:, :pos_width], positions, levels)
    if directions is not None:
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        rays = directions.shape[0]
        if rays == 0 or n % rays:
            raise InvalidInputError("directions must come per position or per ray")
        per_ray = np.empty((rays, out.shape[1] - pos_width))
        _fourier_into(per_ray, directions, dir_levels)
        out.reshape(rays, n // rays, -1)[:, :, pos_width:] = per_ray[:, None, :]
    return out


def _fourier_into(out: np.ndarray, coords: np.ndarray, levels: int) -> None:
    """Write [coords, sin, cos at each level] into the (n, 3 + 6*levels) block."""
    out[:, :3] = coords
    for k in range(levels):
        scaled = coords * (2.0 ** k * np.pi)
        np.sin(scaled, out=out[:, 3 + 6 * k:6 + 6 * k])
        np.cos(scaled, out=out[:, 6 + 6 * k:9 + 6 * k])


def encoded_width(levels: int, dir_levels: int, use_direction: bool) -> int:
    width = 3 + 6 * levels
    if use_direction:
        width += 3 + 6 * dir_levels
    return width


@dataclass
class FieldModel:
    """Architecture description plus the flat parameter vector."""

    encoding_levels: int = 8
    dir_levels: int = 2
    use_direction: bool = True
    layer_widths: list = field(default_factory=lambda: [128, 128, 128, 128])
    has_phi_head: bool = False
    params: np.ndarray = None

    def __post_init__(self):
        if self.params is None:
            self.params = np.zeros(self.param_count())
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.param_count(),):
            raise InvalidInputError(
                f"parameter vector must have length {self.param_count()}"
            )

    def input_width(self) -> int:
        return encoded_width(self.encoding_levels, self.dir_levels, self.use_direction)

    def layer_shapes(self) -> list:
        """(weight_shape, bias_shape) per linear layer, heads last."""
        widths = [self.input_width()] + list(self.layer_widths)
        shapes = [((widths[i], widths[i + 1]), (widths[i + 1],))
                  for i in range(len(self.layer_widths))]
        shapes.append(((widths[-1], 1), (1,)))  # sigma head
        if self.has_phi_head:
            shapes.append(((widths[-1], 1), (1,)))  # phi head
        return shapes

    def param_count(self) -> int:
        return sum(int(np.prod(w)) + int(np.prod(b)) for w, b in self.layer_shapes())

    def param_views(self) -> list:
        """(weight, bias) ndarray views into the flat vector, layout order."""
        return _layout_views(self.layer_shapes(), self.params)

    def describe_parameter(self, index: int) -> str:
        """Where flat parameter ``index`` lives: network, layer, W/b and position."""
        network = "fine" if self.has_phi_head else "coarse"
        n_hidden = len(self.layer_widths)
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

    def copy(self) -> "FieldModel":
        return FieldModel(self.encoding_levels, self.dir_levels, self.use_direction,
                          list(self.layer_widths), self.has_phi_head,
                          self.params.copy())


def init_model(encoding_levels: int = 8, dir_levels: int = 2, use_direction: bool = True,
               layer_widths=None, has_phi_head: bool = False, rng=None,
               sigma_bias: float = -4.0) -> FieldModel:
    """He-initialized model; the sigma head bias starts negative so the
    initial field carries little return mass and the cdf is far from 1."""
    rng = np.random.default_rng(rng)
    model = FieldModel(encoding_levels, dir_levels, use_direction,
                       list(layer_widths or [128, 128, 128, 128]), has_phi_head)
    views = model.param_views()
    n_hidden = len(model.layer_widths)
    for i, (w, b) in enumerate(views):
        fan_in = w.shape[0]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
        b[...] = 0.0
        if i == n_hidden:  # sigma head
            b[...] = sigma_bias
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
    activation (``acts``) and the sigma head's pre-activation; a relu mask
    is recomputed from the layer's output as ``h > 0``.
    """

    def __init__(self, model: FieldModel):
        self.model = model
        self.views = model.param_views()
        self.acts = []
        self.pre_sigma = None
        self.sigma = self.phi = None

    def forward(self, feats: np.ndarray):
        """(sigma, phi) leaf Tensors of shape (N,); phi is None without the head.

        The tape starts at these leaves: nothing of the MLP is recorded.
        """
        self.pre_sigma, phi = _layers(self.model, self.views, feats, self.acts)
        self.sigma = ad.Tensor(ad.softplus(self.pre_sigma))
        self.phi = None if phi is None else ad.Tensor(phi)
        return self.sigma, self.phi


def _layers(model: FieldModel, views: list, feats, acts=None):
    """The MLP on plain arrays: (sigma head pre-activation, phi-or-None).

    A list ``acts`` receives each hidden layer's input, then the last
    hidden activation. Relu is ``z * (z > 0)`` and the bias is added to
    the matmul result: the same values a tape-recorded MLP computes.
    """
    n_hidden = len(model.layer_widths)
    h = np.asarray(feats, dtype=float)
    for w, b in views[:n_hidden]:
        if acts is not None:
            acts.append(h)
        h = h @ w
        h += b
        np.multiply(h, h > 0, out=h)
    if acts is not None:
        acts.append(h)
    w_s, b_s = views[n_hidden]
    pre_sigma = (h @ w_s + b_s)[:, 0]
    phi = None
    if model.has_phi_head:
        w_p, b_p = views[n_hidden + 1]
        phi = (h @ w_p + b_p)[:, 0]
    return pre_sigma, phi


def forward(model: FieldModel, feats: np.ndarray):
    """Inference pass on plain arrays; returns (sigma, phi-or-None)."""
    if np.isnan(model.params).any():
        raise CorruptedModelError("model parameters contain NaN")
    pre_sigma, phi = _layers(model, model.param_views(), feats)
    return ad.softplus(pre_sigma), phi


@dataclass
class GradientTape:
    """A scalar loss value and its flat parameter gradient.

    With the model given, a non-finite gradient is reported by the layer
    and position of its first bad entry.
    """

    loss: float
    gradient: np.ndarray
    model: FieldModel = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.gradient = np.asarray(self.gradient, dtype=np.float64)
        if not np.all(np.isfinite(self.gradient)):
            where = ""
            if self.model is not None:
                bad = int(np.flatnonzero(~np.isfinite(self.gradient))[0])
                where = f", first at {self.model.describe_parameter(bad)} (parameter {bad})"
            raise DivergenceError(f"gradient contains non-finite entries{where}")


def backward(graph: ModelGraph, loss: ad.Tensor) -> GradientTape:
    """Gradient of a scalar loss for one model's parameters.

    The tape runs from ``loss`` down to the graph's ``(sigma, phi)``
    leaves; the hand-written MLP backward takes it from there.
    """
    loss.backward()
    n = graph.pre_sigma.shape[0]
    g_sigma = graph.sigma.grad if graph.sigma.grad is not None else np.zeros(n)
    g_phi = None
    if graph.phi is not None:
        g_phi = graph.phi.grad if graph.phi.grad is not None else np.zeros(n)
    return GradientTape(loss.item(), _mlp_backward(graph, g_sigma, g_phi), graph.model)


def _mlp_backward(graph: ModelGraph, g_sigma: np.ndarray, g_phi) -> np.ndarray:
    """Flat parameter gradient from the (N,) gradients at sigma and phi.

    Each step mirrors the vjp a tape-recorded MLP would run, so the result
    is bit-identical to it: softplus' as ``g * sigmoid(pre)``, head
    gradients through ``(N, 1)`` columns, bias gradients as sums over rows
    and weight gradients as ``input.T @ g``. The input features get none.
    """
    model, views, acts = graph.model, graph.views, graph.acts
    grad = np.empty(model.param_count())
    grad_views = _layout_views(model.layer_shapes(), grad)
    n_hidden = len(model.layer_widths)
    heads = [g_sigma * ad.sigmoid(graph.pre_sigma)]
    if g_phi is not None:
        heads.append(g_phi)
    h = acts[n_hidden]
    g_h = None
    for i, g in enumerate(heads, start=n_hidden):
        column = g.reshape(-1, 1)
        g_w, g_b = grad_views[i]
        np.matmul(h.T, column, out=g_w)
        g_b[...] = column.sum(axis=0)
        part = column @ views[i][0].T
        g_h = part if g_h is None else g_h + part
    for i in reversed(range(n_hidden)):
        g_h *= acts[i + 1] > 0
        g_w, g_b = grad_views[i]
        np.matmul(acts[i].T, g_h, out=g_w)
        g_b[...] = g_h.sum(axis=0)
        if i:
            g_h = g_h @ views[i][0].T
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


def opt_step(model: FieldModel, tape: GradientTape, lr: float, state: AdamState,
             betas=(0.9, 0.999), eps: float = 1e-8) -> None:
    """One bias-corrected adaptive-moment update, in place.

    A non-finite moment is a divergence, like a non-finite update: a finite
    gradient above about 1e154 overflows ``v``, which would freeze the entry.
    """
    if tape.gradient.shape != model.params.shape:
        raise InvalidInputError("gradient length must match the parameter vector")
    b1, b2 = betas
    state.t += 1
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        state.m = b1 * state.m + (1.0 - b1) * tape.gradient
        state.v = b2 * state.v + (1.0 - b2) * tape.gradient ** 2
        m_hat = state.m / (1.0 - b1 ** state.t)
        v_hat = state.v / (1.0 - b2 ** state.t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
    finite = np.isfinite(m_hat) & np.isfinite(v_hat) & np.isfinite(update)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0])
        raise DivergenceError(
            f"non-finite moment or update at {model.describe_parameter(bad)} (parameter "
            f"{bad}, gradient={float(tape.gradient[bad])!r}, m={float(state.m[bad])!r}, "
            f"v={float(state.v[bad])!r}, step {state.t})"
        )
    model.params -= update


# -- checkpoint serialization ----------------------------------------------------


def _write_model(fh, model: FieldModel) -> None:
    if len(set(model.layer_widths)) != 1:
        raise InvalidInputError("checkpoint layout requires uniform hidden widths")
    fh.write(MODEL_MAGIC)
    header = struct.pack(
        "<7i", model.encoding_levels, model.dir_levels, int(model.use_direction),
        len(model.layer_widths), model.layer_widths[0], int(model.has_phi_head),
        model.params.size,
    )
    fh.write(header)
    fh.write(model.params.astype("<f4").tobytes())


def _read_model(fh) -> FieldModel:
    magic = fh.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise InvalidInputError("not a field-model record")
    levels, dir_levels, use_dir, n_hidden, width, has_phi, count = struct.unpack(
        "<7i", fh.read(28))
    params = np.frombuffer(fh.read(4 * count), dtype="<f4").astype(np.float64)
    model = FieldModel(levels, dir_levels, bool(use_dir), [width] * n_hidden,
                       bool(has_phi), params)
    return model


def save_checkpoint(path, coarse: FieldModel, fine: FieldModel) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<i", 2))
        _write_model(fh, coarse)
        _write_model(fh, fine)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise InvalidInputError("not a checkpoint file")
        (count,) = struct.unpack("<i", fh.read(4))
        if count != 2:
            raise InvalidInputError("checkpoint must hold coarse and fine models")
        coarse = _read_model(fh)
        fine = _read_model(fh)
    return coarse, fine
