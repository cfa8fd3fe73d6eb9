"""Network stack: encoding, forward/backward, optimizer, checkpoints."""

import re
import struct
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from plink import autodiff as ad
from plink import net as nets
from plink.config import RunConfig
from plink.errors import (ConfigError, CorruptedModelError, DivergenceError,
                          InvalidInputError, OutOfBoundsError)
from tests.tape_head import tape_backward


def make_model(encoding_levels, dir_levels, hidden_layers, hidden_width, has_phi_head,
               rng, sigma_bias=-4.0, use_direction=True, dtype=np.float32):
    """A He-initialized model of the given shape, float32 as the program makes them."""
    model = nets.FieldModel(encoding_levels, dir_levels, use_direction, hidden_layers,
                            hidden_width, has_phi_head, None)
    return nets.init_model(replace(model, params=model.params.astype(dtype)), rng, sigma_bias)


def probe_model(seed=0, has_phi=True, dtype=np.float32):
    """~300-parameter model used for the finite-difference checks."""
    return make_model(2, 1, 2, 8, has_phi, seed, sigma_bias=-1.0, dtype=dtype)


def widened(model):
    """The same model with its parameters as float64, values unchanged."""
    return replace(model, params=model.params.astype(np.float64))


def tape_mlp(model, feats):
    """Reference: the MLP recorded op by op on the autodiff tape.

    Returns (sigma, phi-or-None, gradient), where gradient() gathers the
    flat parameter gradient from the leaves after a backward pass.
    """
    leaves = [(ad.Tensor(w), ad.Tensor(b)) for w, b in model.param_views()]
    n_hidden = model.hidden_layers
    h = ad.Tensor(feats)
    for w, b in leaves[:n_hidden]:
        h = ad.maximum0(h @ w + b)
    w_s, b_s = leaves[n_hidden]
    sigma = ad.softplus((h @ w_s + b_s)[:, 0])
    phi = None
    if model.has_phi_head:
        w_p, b_p = leaves[n_hidden + 1]
        phi = (h @ w_p + b_p)[:, 0]

    def gradient():
        return np.concatenate([
            np.ravel(leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
            for pair in leaves for leaf in pair])

    return sigma, phi, gradient


def reference_encode(positions, directions, levels, dir_levels):
    """The encoding built block by block and concatenated."""
    def fourier(coords, n):
        out = [coords]
        for k in range(n):
            scaled = coords * (2.0 ** k * np.pi)
            out += [np.sin(scaled), np.cos(scaled)]
        return out

    parts = fourier(positions, levels)
    if directions is not None:
        parts += fourier(directions, dir_levels)
    return np.concatenate(parts, axis=-1)


# net.encode doubles the angle from level to level instead of calling
# np.sin and np.cos at each one; level k may differ from them by this
# much times 2^k (about 5x what was observed at positions up to the bound).
LEVEL_TOL = 1e-15


def encode_tolerance(*levels):
    """Per-column bound on |encode - reference_encode| for these blocks."""
    return np.concatenate([np.concatenate([np.zeros(3)] + [np.full(6, 2.0 ** k * LEVEL_TOL)
                                                           for k in range(n)])
                           for n in levels])


class TestEncode:
    def test_origin_level_one(self):
        out = nets.encode(np.zeros((1, 3)), None, levels=1, dir_levels=0)
        np.testing.assert_allclose(out, [[0, 0, 0, 0, 0, 0, 1, 1, 1]])

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-1, 1, size=(4, 3))
        d = rng.normal(size=(4, 3))
        a = nets.encode(p, d, levels=5, dir_levels=2)
        b = nets.encode(p, d, levels=5, dir_levels=2)
        np.testing.assert_array_equal(a, b)

    def test_position_only_width_formula(self):
        out = nets.encode(np.zeros((2, 3)), None, levels=2, dir_levels=0)
        assert out.shape == (2, 3 + 12)

    def test_with_direction_width(self):
        out = nets.encode(np.zeros((2, 3)), np.ones((2, 3)), levels=8, dir_levels=2)
        assert out.shape == (2, 6 + 48 + 12)
        assert nets.encoded_width(8, 2, True) == 66

    def test_out_of_cube_rejected(self):
        with pytest.raises(OutOfBoundsError):
            nets.encode(np.array([[1.2, 0.0, 0.0]]), None, levels=2, dir_levels=0)

    def test_matches_concatenated_blocks(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-1, 1, size=(12, 3))
        d = rng.normal(size=(12, 3))
        for out, ref, tol in (
                (nets.encode(p, d, levels=4, dir_levels=2), reference_encode(p, d, 4, 2),
                 encode_tolerance(4, 2)),
                (nets.encode(p, None, 3, 0), reference_encode(p, None, 3, 0),
                 encode_tolerance(3))):
            assert out.shape == ref.shape
            assert np.all(np.abs(out - ref) <= tol)

    @pytest.mark.parametrize("levels", range(11))
    def test_doubling_recurrence_is_within_the_stated_bound(self, levels):
        rng = np.random.default_rng(30 + levels)
        bound = nets.POSITION_BOUND
        p = rng.uniform(-bound, bound, size=(5000, 3))
        p[:3] = [[bound, -bound, 0.0], [-bound, bound, 1.0], [0.5, -0.25, 1e-300]]
        out = nets.encode(p, None, levels, 0)
        assert out.shape == (5000, 3 + 6 * levels)
        np.testing.assert_array_equal(out[:, :3], p)   # levels = 0: the coordinates only
        assert np.all(np.abs(out - reference_encode(p, None, levels, 0))
                      <= encode_tolerance(levels))

    def test_per_ray_directions_match_per_point_copies(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-1, 1, size=(4 * 7, 3))
        d = rng.normal(size=(4, 3))
        per_point = nets.encode(p, np.repeat(d, 7, axis=0), levels=3, dir_levels=2)
        np.testing.assert_array_equal(nets.encode(p, d, levels=3, dir_levels=2), per_point)

    @pytest.mark.parametrize("levels, dir_levels, directions", [
        (8, 2, "per ray"), (3, 1, "per position"), (0, 2, "per ray"), (0, 0, "per position"),
        (5, 0, None), (0, 0, None)])
    def test_float32_encoding_is_the_float64_one_rounded_once(self, levels, dir_levels,
                                                               directions):
        rng = np.random.default_rng(31 + levels)
        p = rng.uniform(-1, 1, size=(64 * 9, 3))
        d = {"per ray": rng.normal(size=(64, 3)), "per position": rng.normal(size=(64 * 9, 3)),
             None: None}[directions]
        got = nets.encode(p, d, levels, dir_levels, np.float32)
        want = nets.encode(p, d, levels, dir_levels).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_directions_must_divide_positions(self):
        with pytest.raises(InvalidInputError):
            nets.encode(np.zeros((5, 3)), np.ones((2, 3)), levels=1, dir_levels=1)

    def test_frequencies_are_powers_of_two_pi(self):
        p = np.array([[0.25, 0.0, 0.0]])
        out = nets.encode(p, None, 2, 0)[0]
        assert out[3] == pytest.approx(np.sin(0.25 * np.pi))
        assert out[9] == pytest.approx(np.sin(0.25 * 2 * np.pi))


class TestModel:
    def test_parameter_count_matches_architecture(self):
        model = probe_model()
        d = model.input_width()
        expected = (d * 8 + 8) + (8 * 8 + 8) + (8 * 1 + 1) + (8 * 1 + 1)
        assert model.param_count() == expected
        assert model.params.size == expected

    # (encoding_levels, dir_levels, hidden_layers, hidden_width), each at
    # and just past its bound.
    @pytest.mark.parametrize("shape, ok", [
        ((2, 1, 1, 8), True), ((2, 1, 0, 8), False),
        ((2, 1, 2, 1), True), ((2, 1, 2, 0), False),
        ((0, 1, 2, 8), True), ((-1, 1, 2, 8), False),
        ((2, 0, 2, 8), True), ((2, -1, 2, 8), False),
    ])
    def test_config_and_model_take_the_same_shapes(self, shape, ok):
        levels, dir_levels, layers, width = shape
        config = RunConfig(encoding_levels=levels, dir_levels=dir_levels, hidden_layers=layers,
                           hidden_width=width)
        verdicts = []
        for build, error in ((config.validate, ConfigError),
                             (lambda: nets.FieldModel(levels, dir_levels, True, layers, width,
                                                      True, None), InvalidInputError)):
            try:
                build()
                verdicts.append(True)
            except error as exc:
                assert re.search(r"must be at least [01], not \(", str(exc))
                verdicts.append(False)
        assert verdicts == [ok, ok]

    def test_parameters_keep_a_float32_or_float64_dtype(self):
        shape = (2, 1, True, 2, 8, True)
        assert nets.FieldModel(*shape, None).params.dtype == np.float32
        count = probe_model().param_count()
        for dtype in (np.float32, np.float64):
            params = np.arange(count, dtype=dtype)
            assert nets.FieldModel(*shape, params).params is params
        for bad in (np.arange(count), np.zeros(count, np.float16)):
            with pytest.raises(InvalidInputError, match="float32 or float64"):
                nets.FieldModel(*shape, bad)

    def test_float32_model_computes_in_float32_and_returns_float64(self):
        model = probe_model(seed=3)
        feats = nets.encode(np.full((5, 3), 0.1), np.full((5, 3), 0.3),
                            model.encoding_levels, model.dir_levels)
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        assert sigma.dtype == phi.dtype == np.float64
        assert {a.dtype for a in graph.acts} == {np.dtype(np.float32)}
        assert nets.backward(graph, np.ones(5), np.ones(5)).dtype == np.float32
        assert all(a.dtype == np.float64 for a in nets.forward(model, feats))

    def test_float32_model_gives_the_same_bytes_from_float32_and_float64_features(self):
        # The program's shape and the benchmark's coarse row count: float32
        # features are the first layer's input as they are, where float64
        # ones are cast in a copy.
        model = make_model(8, 2, 4, 128, True, rng=13)
        rng = np.random.default_rng(13)
        feats64 = nets.encode(rng.uniform(-1, 1, (4096, 3)), rng.normal(size=(64, 3)),
                              model.encoding_levels, model.dir_levels)
        feats32 = feats64.astype(np.float32)
        graph32, graph64 = nets.ModelGraph(model), nets.ModelGraph(model)
        pairs = [(nets.forward(model, feats32), nets.forward(model, feats64)),
                 (graph32.forward(feats32), graph64.forward(feats64))]
        for got, want in pairs:
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
        assert graph32.acts[0] is feats32
        assert all(a.tobytes() == b.tobytes() for a, b in zip(graph32.acts, graph64.acts))

    def test_sigma_nonnegative_everywhere(self):
        model = make_model(8, 2, 2, 32, True, rng=3)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(100_000, 3))
        dirs = rng.normal(size=(100_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        feats = nets.encode(pts, dirs, model.encoding_levels, model.dir_levels)
        sigma, phi = nets.forward(model, feats)
        assert np.all(sigma >= 0.0)
        assert np.all(np.isfinite(sigma)) and np.all(np.isfinite(phi))

    def test_nan_parameters_rejected(self):
        model = probe_model()
        model.params[10] = np.nan
        feats = nets.encode(np.zeros((1, 3)), np.array([[1.0, 0, 0]]),
                            model.encoding_levels, model.dir_levels)
        with pytest.raises(CorruptedModelError):
            nets.forward(model, feats)

    def test_graph_and_inference_agree(self):
        model = probe_model(seed=9)
        rng = np.random.default_rng(2)
        feats = nets.encode(rng.uniform(-1, 1, (17, 3)), rng.normal(size=(17, 3)),
                            model.encoding_levels, model.dir_levels)
        sigma_np, phi_np = nets.forward(model, feats)
        graph = nets.ModelGraph(model)
        sigma_g, phi_g = graph.forward(feats)
        np.testing.assert_allclose(sigma_g, sigma_np, rtol=1e-12)
        np.testing.assert_allclose(phi_g, phi_np, rtol=1e-12)


def mixed_loss(sigma, phi):
    """A scalar loss on one or both heads' Tensor leaves, through the tape."""
    loss = (sigma.reshape(3, -1) ** 2).sum() * 0.5
    if phi is not None:
        loss = loss + ad.sigmoid(phi * ad.log(sigma + 1.0)).mean()
    return loss


def leaf_loss(sigma, phi):
    """(mixed loss, sigma leaf, phi leaf): the arguments after the graph of `tape_backward`."""
    leaves = ad.Tensor(sigma), None if phi is None else ad.Tensor(phi)
    return (mixed_loss(*leaves),) + leaves


class TestHandWrittenBackward:
    """The hand-written MLP backward of a float64 model against the tape-recorded MLP."""

    @pytest.mark.parametrize("has_phi, widths", [(True, [16, 16, 16]), (False, [16, 16]),
                                                 (True, [12])])
    def test_gradient_is_bit_identical_to_the_tape(self, has_phi, widths):
        model = make_model(3, 2, len(widths), widths[0], has_phi, rng=21, sigma_bias=-0.5,
                           dtype=np.float64)
        rng = np.random.default_rng(21)
        feats = nets.encode(rng.uniform(-1, 1, (60, 3)), rng.normal(size=(60, 3)),
                            model.encoding_levels, model.dir_levels)
        sigma_ref, phi_ref, gradient = tape_mlp(model, feats)
        loss_ref = mixed_loss(sigma_ref, phi_ref)
        loss_ref.backward()

        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        np.testing.assert_array_equal(sigma, sigma_ref.value)
        if has_phi:
            np.testing.assert_array_equal(phi, phi_ref.value)
        else:
            assert phi is None
        loss, *leaves = leaf_loss(sigma, phi)
        grad = tape_backward(graph, loss, *leaves)
        assert loss.item() == loss_ref.item()
        assert np.array_equal(grad, gradient())
        assert np.any(grad[:model.input_width() * widths[0]] != 0.0)

    def test_exact_zero_pre_activations_match_the_tape(self):
        # Relu is np.maximum(z, 0): +0.0 where the tape's z * (z > 0) gives
        # -0.0, and 0 at z == 0 exactly, whose mask the backward must drop.
        model = make_model(1, 1, 2, 10, True, rng=28, sigma_bias=-0.5, dtype=np.float64)
        rng = np.random.default_rng(28)
        feats = rng.normal(size=(48, model.input_width()))
        feats[::4] = 0.0                              # every unit of these rows is at 0
        w0, _ = model.param_views()[0]
        w0[:, :3] = 0.0                               # these units are 0 on every row
        pre = feats @ w0
        assert np.count_nonzero(pre == 0.0) > 3 * 48 and np.any(pre < 0.0)
        sigma_ref, phi_ref, gradient = tape_mlp(model, feats)
        loss_ref = mixed_loss(sigma_ref, phi_ref)
        loss_ref.backward()

        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        assert not np.any(np.signbit(graph.acts[1]))
        np.testing.assert_array_equal(sigma, sigma_ref.value)
        np.testing.assert_array_equal(phi, phi_ref.value)
        loss, *leaves = leaf_loss(sigma, phi)
        grad = tape_backward(graph, loss, *leaves)
        assert loss.item() == loss_ref.item()
        assert np.array_equal(grad, gradient())
        assert np.all(grad[:w0.size].reshape(w0.shape)[:, :3] == 0.0)

    def test_unused_head_matches_the_tape(self):
        model = probe_model(seed=22, dtype=np.float64)
        rng = np.random.default_rng(22)
        feats = nets.encode(rng.uniform(-1, 1, (6, 3)), rng.normal(size=(6, 3)),
                            model.encoding_levels, model.dir_levels)
        sigma_ref, _, gradient = tape_mlp(model, feats)
        sigma_ref.sum().backward()
        graph = nets.ModelGraph(model)
        sigma, _ = graph.forward(feats)
        assert np.array_equal(nets.backward(graph, np.ones_like(sigma)), gradient())

    def test_graph_keeps_one_input_per_layer(self):
        model = probe_model(seed=23)
        feats = nets.encode(np.full((5, 3), 0.1), np.full((5, 3), 0.3),
                            model.encoding_levels, model.dir_levels)
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        assert [a.shape for a in graph.acts] == [(5, model.input_width()), (5, 8), (5, 8)]
        assert sigma.shape == phi.shape == (5,)


class TestDivergenceReport:
    @pytest.mark.parametrize("layer, part, index, expected", [
        (1, 0, (2, 5), "fine layer 1 W[2, 5]"),
        (0, 1, (3,), "fine layer 0 b[3]"),
        (3, 0, (4, 0), "fine phi head W[4, 0]"),
    ])
    def test_opt_step_names_the_layer(self, layer, part, index, expected):
        model = probe_model(seed=24)
        grad = np.zeros(model.params.size)
        nets._layout_views(model.layer_shapes(), grad)[layer][part][index] = np.nan
        with pytest.raises(DivergenceError, match=re.escape(f"at {expected} (parameter")):
            nets.opt_step(model, grad, 1e-3, nets.AdamState.for_model(model))

    def test_backward_names_a_planted_head_gradient(self):
        # A dead last hidden layer leaves the sigma head's bias the only
        # parameter its gradient reaches; four rows of 5e307 overflow its sum.
        model = probe_model(seed=25, has_phi=False, dtype=np.float64)
        w, b = model.param_views()[model.hidden_layers - 1]
        w[...], b[...] = 0.0, 0.0
        model.param_views()[model.hidden_layers][1][...] = 0.0    # sigmoid(pre) = 0.5
        graph = nets.ModelGraph(model)
        sigma, _ = graph.forward(np.ones((4, model.input_width())))
        bad = model.param_count() - 1
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=re.escape(
                f"first at coarse sigma head b[0] (parameter {bad})")):
            nets.backward(graph, np.full_like(sigma, 1e308))

    @pytest.mark.parametrize("has_phi, g_sigma, g_phi, expected", [
        (False, 1e308, None, "the coarse sigma head's gradient overflows float32"),
        (True, 1e39, 0.0, "the fine sigma head's gradient overflows float32"),
        (True, 1.0, -1e39, "the fine phi head's gradient overflows float32"),
    ])
    def test_backward_names_a_head_gradient_that_overflows_float32(self, has_phi, g_sigma,
                                                                   g_phi, expected):
        # The float32 twin of the planted gradient above: a finite float64
        # head gradient that float32 cannot hold is reported at its head,
        # not at the first parameter its infinity would reach.
        model = probe_model(seed=25, has_phi=has_phi)
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(np.ones((4, model.input_width())))
        g_phi = None if g_phi is None else np.full_like(phi, g_phi)
        with pytest.raises(DivergenceError, match=re.escape(expected)):
            nets.backward(graph, np.full_like(sigma, g_sigma), g_phi)

    def test_backward_names_the_layer(self):
        model = probe_model(seed=26)
        feats = nets.encode(np.full((4, 3), 0.2), np.full((4, 3), 0.4),
                            model.encoding_levels, model.dir_levels)
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        with np.errstate(invalid="ignore"), \
                pytest.raises(DivergenceError, match=re.escape("fine layer 0 W[0, 0]")):
            nets.backward(graph, np.full_like(sigma, np.inf), np.ones_like(phi))

    def test_every_index_maps_to_its_own_position(self):
        model = probe_model(seed=27)
        names = {model.describe_parameter(i) for i in range(model.param_count())}
        assert len(names) == model.param_count()
        with pytest.raises(InvalidInputError):
            model.describe_parameter(model.param_count())


class TestBackward:
    def loss_value(self, model, feats):
        sigma, phi = nets.forward(model, feats)
        return float(np.sum(sigma ** 2) + np.sum(np.tanh(phi)))

    def test_matches_central_differences(self):
        model = probe_model(seed=4, dtype=np.float64)
        rng = np.random.default_rng(4)
        feats = nets.encode(rng.uniform(-1, 1, (9, 3)), rng.normal(size=(9, 3)),
                            model.encoding_levels, model.dir_levels)
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        grad = nets.backward(graph, 2.0 * sigma, 1.0 - np.tanh(phi) ** 2)

        eps = 1e-5
        numeric = np.zeros_like(model.params)
        for i in range(model.params.size):
            orig = model.params[i]
            model.params[i] = orig + eps
            hi = self.loss_value(model, feats)
            model.params[i] = orig - eps
            lo = self.loss_value(model, feats)
            model.params[i] = orig
            numeric[i] = (hi - lo) / (2 * eps)
        scale = np.maximum(np.abs(numeric), 1e-5)
        assert np.max(np.abs(grad - numeric) / scale) < 1e-4

    def test_unused_parameter_has_zero_gradient(self):
        # loss built from sigma only: the phi head receives no gradient
        model = probe_model(seed=5)
        feats = nets.encode(np.full((3, 3), 0.2), np.full((3, 3), 0.5),
                            model.encoding_levels, model.dir_levels)
        graph = nets.ModelGraph(model)
        sigma, _ = graph.forward(feats)
        grad = nets.backward(graph, np.ones_like(sigma))
        shapes = model.layer_shapes()
        phi_size = int(np.prod(shapes[-1][0])) + int(np.prod(shapes[-1][1]))
        np.testing.assert_array_equal(grad[-phi_size:], 0.0)

    def test_a_spent_graph_refuses_a_second_backward(self):
        # backward writes a gradient over the last hidden activation.
        model = probe_model(seed=8)
        feats = nets.encode(np.full((4, 3), 0.3), np.full((4, 3), -0.2),
                            model.encoding_levels, model.dir_levels)
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(feats)
        assert not graph.spent
        nets.backward(graph, np.ones_like(sigma), np.ones_like(phi))
        assert graph.spent
        with pytest.raises(InvalidInputError, match="backward already ran"):
            nets.backward(graph, np.ones_like(sigma), np.ones_like(phi))

    def test_doubling_loss_doubles_gradient(self):
        model = probe_model(seed=6)
        feats = nets.encode(np.full((4, 3), -0.3), np.full((4, 3), 0.1),
                            model.encoding_levels, model.dir_levels)
        graph1 = nets.ModelGraph(model)
        s1, _ = graph1.forward(feats)
        grad1 = nets.backward(graph1, np.ones_like(s1))
        graph2 = nets.ModelGraph(model)
        s2, _ = graph2.forward(feats)
        grad2 = nets.backward(graph2, np.full_like(s2, 2.0))
        np.testing.assert_allclose(grad2, 2.0 * grad1, rtol=1e-12)


class TestOptStep:
    def test_zero_gradient_keeps_parameters(self):
        model = probe_model(seed=7)
        before = model.params.copy()
        state = nets.AdamState.for_model(model)
        nets.opt_step(model, np.zeros_like(model.params), lr=1e-3, state=state)
        np.testing.assert_array_equal(model.params, before)

    def test_first_step_closed_form(self):
        model = probe_model(seed=8, dtype=np.float64)
        before = model.params.copy()
        state = nets.AdamState.for_model(model)
        rng = np.random.default_rng(8)
        g = rng.normal(size=model.params.size)
        lr = 2e-3
        nets.opt_step(model, g, lr, state)
        # bias-corrected first step: lr * g / (|g| + eps)
        expected = before - lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(model.params, expected, rtol=1e-9)

    def test_identical_seeds_identical_trajectories(self):
        runs = []
        for _ in range(2):
            model = probe_model(seed=12)
            state = nets.AdamState.for_model(model)
            rng = np.random.default_rng(12)
            for _ in range(5):
                g = rng.normal(size=model.params.size)
                nets.opt_step(model, g, 1e-3, state)
            runs.append(model.params.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_non_finite_update_raises(self):
        model = probe_model(seed=13)
        state = nets.AdamState.for_model(model)
        g = np.zeros(model.params.size)
        g[0] = np.inf
        with pytest.raises(DivergenceError):
            nets.opt_step(model, g, 1e-3, state)
        # With a finite gradient, an infinite lr makes only the update
        # non-finite, and opt_step's check fires on that too.
        before = model.params.copy()
        with pytest.raises(DivergenceError, match=re.escape("(parameter 0, gradient=1.0")):
            nets.opt_step(model, np.eye(1, g.size)[0], np.inf, nets.AdamState.for_model(model))
        np.testing.assert_array_equal(model.params, before)

    def test_overflowing_gradient_raises_instead_of_freezing(self):
        model = probe_model(seed=15)
        state = nets.AdamState.for_model(model)
        huge = np.zeros(model.params.size)
        huge[0] = 1e200             # finite, but its square overflows
        name = model.describe_parameter(0)
        with pytest.raises(DivergenceError, match=re.escape(f"at {name} (parameter 0,")):
            nets.opt_step(model, huge, 1e-3, state)
        # The same step followed by ordinary ones used to leave v[0] = inf and
        # params[0] unmoved, with no error; every step now reports it.
        with pytest.raises(DivergenceError):
            nets.opt_step(model, np.eye(1, huge.size)[0], 1e-3, state)

    def test_update_that_overflows_float32_parameters_raises(self):
        # lr = 1e39 passes RunConfig.validate. Only parameter 3 has a
        # gradient, and its update, about 1e39, is finite in float64 but
        # beyond float32's range.
        model = probe_model(seed=16)
        before = model.params.copy()
        g = np.eye(1, model.params.size, 3)[0]
        with pytest.raises(DivergenceError, match=re.escape(
                f"at {model.describe_parameter(3)} (parameter 3, gradient=1.0, update=9.9")):
            nets.opt_step(model, g, 1e39, nets.AdamState.for_model(model))
        assert model.params.dtype == np.float32
        np.testing.assert_array_equal(model.params, before)

    def test_gradient_length_mismatch_rejected(self):
        model = probe_model(seed=14)
        state = nets.AdamState.for_model(model)
        with pytest.raises(InvalidInputError):
            nets.opt_step(model, np.zeros(3), 1e-3, state)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        coarse = make_model(8, 2, 2, 16, False, rng=1)
        fine = make_model(8, 2, 2, 16, True, rng=2)
        path = tmp_path / "model.ckpt"
        nets.save_checkpoint(path, coarse, fine)
        loaded_coarse, loaded_fine = nets.load_checkpoint(path)
        assert loaded_fine.has_phi_head and not loaded_coarse.has_phi_head
        assert (loaded_coarse.hidden_layers, loaded_coarse.hidden_width) == (2, 16)
        # parameters survive the float32 round trip
        np.testing.assert_allclose(loaded_fine.params, fine.params, atol=1e-6)

    def test_round_trip_keeps_a_non_default_shape(self, tmp_path):
        shape = dict(encoding_levels=0, dir_levels=2, use_direction=False, hidden_layers=3,
                     hidden_width=5)
        coarse, fine = (make_model(**shape, has_phi_head=phi, rng=seed)
                        for phi, seed in ((False, 1), (True, 2)))
        path = tmp_path / "model.ckpt"
        nets.save_checkpoint(path, coarse, fine)
        blob = path.read_bytes()
        assert blob[20:48] == struct.pack("<7i", 0, 2, 0, 3, 5, 0, coarse.params.size)
        for saved, loaded in zip((coarse, fine), nets.load_checkpoint(path)):
            assert [getattr(loaded, f.name) for f in fields(loaded)[:-1]] == \
                [getattr(saved, f.name) for f in fields(saved)[:-1]]
            np.testing.assert_array_equal(loaded.params, saved.params.astype(np.float32))

    def test_float32_round_trip_is_bit_identical(self, tmp_path):
        coarse = make_model(8, 2, 2, 16, False, rng=1)
        fine = make_model(8, 2, 2, 16, True, rng=2)
        path = tmp_path / "model.ckpt"
        nets.save_checkpoint(path, coarse, fine)
        for saved, loaded in zip((coarse, fine), nets.load_checkpoint(path)):
            assert loaded.params.dtype == np.float32
            np.testing.assert_array_equal(loaded.params, saved.params)
            loaded.params[0] += 1.0          # a loaded model is trained in place

    def test_layout_is_little_endian_float32(self, tmp_path):
        coarse = make_model(1, 1, 1, 4, False, rng=1)
        fine = make_model(1, 1, 1, 4, True, rng=2)
        path = tmp_path / "model.ckpt"
        nets.save_checkpoint(path, coarse, fine)
        blob = path.read_bytes()
        assert blob.startswith(b"PLNKCKPT")
        (count,) = struct.unpack("<i", blob[8:12])
        assert count == 2
        assert blob[12:20] == b"PLNKFLD1"
        header = struct.unpack("<7i", blob[20:48])
        assert header == (1, 1, 1, 1, 4, 0, coarse.params.size)
        first = struct.unpack("<f", blob[48:52])[0]
        assert first == pytest.approx(coarse.params[0], abs=1e-6)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(InvalidInputError):
            nets.load_checkpoint(path)


def test_field_model_shape_fields_are_run_config_keys():
    # One name per network size: the config key, the model field and the
    # checkpoint header field are the same.
    names = [f.name for f in fields(nets.FieldModel)]
    assert names[-2:] == ["has_phi_head", "params"]
    config_keys = {f.name: f.type for f in fields(RunConfig)}
    for f in fields(nets.FieldModel)[:-2]:
        assert config_keys.get(f.name) == f.type, f.name


def outputs(model, n, rays, seed):
    """Every array an encoding and the MLP passes write, for n points on ``rays`` rays."""
    rng = np.random.default_rng(seed)
    feats = nets.encode(rng.uniform(-1.0, 1.0, (n, 3)), rng.normal(size=(rays, 3)),
                        model.encoding_levels, model.dir_levels, model.params.dtype)
    sigma_i, phi_i = nets.forward(model, feats)
    graph = nets.ModelGraph(model)
    sigma, phi = graph.forward(feats)
    grad = nets.backward(graph, rng.normal(size=n) * 1e-2, rng.normal(size=n) * 1e-2)
    return [feats, sigma_i, phi_i, sigma, phi, *graph.acts, grad]


def assert_all_equal(got, expected):
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("dtype, n, rays", [
    (np.float32, 8256, 64),     # the benchmark's fine and coarse passes
    (np.float32, 4096, 64),
    (np.float64, 1001, 7),      # odd rows, float64
], ids=["f32-8256", "f32-4096", "f64-1001"])
def test_repeated_passes_in_one_process_are_byte_identical(dtype, n, rays):
    # Bytes may depend on OpenBLAS's thread count, but not on the run.
    model = make_model(8, 2, 4, 128, True, rng=n, sigma_bias=-1.0, dtype=dtype)
    first = outputs(model, n, rays, seed=n)
    assert_all_equal(outputs(model, n, rays, seed=n), first)


def test_passes_from_four_threads_each_equal_a_lone_pass():
    model = make_model(8, 2, 2, 64, True, rng=11, sigma_bias=-1.0)
    expected = outputs(model, 1024, 16, seed=11)
    results, interval = [], sys.getswitchinterval()

    def passes():
        for _ in range(25):
            results.append(outputs(model, 1024, 16, seed=11))

    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=passes) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(results) == 100
    for got in results:
        assert_all_equal(got, expected)
