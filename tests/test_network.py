"""Network step/gradient tests against transcription and finite-difference oracles."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import oracles
from crashcast import network, parallel
from crashcast.data import sample_dtype
from crashcast.dropout import DropoutSpec, sample_masks
from crashcast.network import (
    NetworkConfig,
    dpm_forward,
    dpm_forward_batch,
    dpm_gradients,
    init_params,
    inputs_from_samples,
    param_shapes,
    sample_losses,
    sigmoid,
    zero_grads,
)
from oracles import convlstm_sequence, convlstm_steps, lstm_steps


def make_conv_layer(rng, c_in=1, p=2, k=3, q=4, r=4, stride=1, scale=0.3):
    """Field -> array map of one ConvLSTM layer whose output is (ceil(q/stride), ceil(r/stride), p)."""
    oq, orr = -(-q // stride), -(-r // stride)
    fields = {}
    for g in "ifco":
        fields[f"w_x{g}"] = rng.standard_normal((k, k, c_in, p)) * scale
        fields[f"w_h{g}"] = rng.standard_normal((k, k, p, p)) * scale
        fields[f"b_{g}"] = rng.standard_normal(p) * scale
    for g in "ifo":
        fields[f"w_c{g}"] = rng.standard_normal((oq, orr, p)) * scale
    return fields


def make_lstm_layer(rng, d=3, u=4, scale=0.4):
    fields = {}
    for g in "ifco":
        fields[f"w_x{g}"] = rng.standard_normal((u, d)) * scale
        fields[f"w_h{g}"] = rng.standard_normal((u, u)) * scale
        fields[f"b_{g}"] = rng.standard_normal(u) * scale
    for g in "ifo":
        fields[f"w_c{g}"] = rng.standard_normal(u) * scale
    return fields


def step_transcribed(layer, x, h_prev, c_prev, stride=1, o_gate_uses_new_cell=True):
    """Straight-line transcription of the gate equations using oracle ops only."""
    conv_x = lambda g: oracles.conv2d(x, layer[f"w_x{g}"], stride)
    conv_h = lambda g: oracles.conv2d(h_prev, layer[f"w_h{g}"], 1)
    gi = oracles.pointwise("sigmoid", conv_x("i") + conv_h("i")
                           + oracles.hadamard(layer["w_ci"], c_prev) + layer["b_i"])
    gf = oracles.pointwise("sigmoid", conv_x("f") + conv_h("f")
                           + oracles.hadamard(layer["w_cf"], c_prev) + layer["b_f"])
    c_new = oracles.hadamard(gf, c_prev) + oracles.hadamard(
        gi, oracles.pointwise("tanh", conv_x("c") + conv_h("c") + layer["b_c"]))
    peek = c_new if o_gate_uses_new_cell else c_prev
    go = oracles.pointwise("sigmoid", conv_x("o") + conv_h("o")
                           + oracles.hadamard(layer["w_co"], peek) + layer["b_o"])
    h_new = oracles.hadamard(go, oracles.pointwise("tanh", c_new))
    return h_new, c_new


def zeroed(layer):
    for w in layer.values():
        w[...] = 0.0
    return layer


def test_step_all_zero_parameters():
    rng = np.random.default_rng(0)
    layer = zeroed(make_conv_layer(rng))
    x = rng.standard_normal((4, 4, 1))
    [(h, c)] = convlstm_steps(layer, [x])
    # sigma(0) = 0.5 gates on a zero cell: everything stays zero
    assert (h == 0.0).all() and (c == 0.0).all()


def test_step_gate_saturation_closed_form():
    rng = np.random.default_rng(1)
    layer = zeroed(make_conv_layer(rng, c_in=1, p=1, k=1))
    layer["b_i"][...] = 20.0
    layer["b_o"][...] = 20.0
    x = rng.standard_normal((4, 4, 1))
    [(h, c)] = convlstm_steps(layer, [x])
    assert np.allclose(c, 0.0, atol=1e-8) and np.allclose(h, 0.0, atol=1e-8)
    # with an identity cell kernel the saturated gates pass tanh(x) straight through
    layer["w_xc"][...] = 1.0
    [(h, c)] = convlstm_steps(layer, [x])
    assert np.allclose(c, np.tanh(x), atol=1e-7)
    assert np.allclose(h, np.tanh(np.tanh(x)), atol=1e-7)


def two_steps(rng, layer, shape, stride=1):
    """Two frames and the core's (h, c) after each; step 2 starts from a non-zero state."""
    xs = list(rng.standard_normal((2, *shape)))
    steps = convlstm_steps(layer, xs, stride)
    h1, c1 = steps[0]
    assert np.abs(h1).max() > 0.05 and np.abs(c1).max() > 0.05
    return xs, steps


@pytest.mark.parametrize("stride", [1, 2])
def test_step_matches_transcription_oracle(stride):
    rng = np.random.default_rng(2 + stride)
    layer = make_conv_layer(rng, c_in=2, p=2, q=4, r=4, stride=stride)
    (x1, x2), [(h1, c1), (h2, c2)] = two_steps(rng, layer, (4, 4, 2), stride)
    zero = np.zeros_like(h1)
    for (h, c), (h_ref, c_ref) in (((h1, c1), step_transcribed(layer, x1, zero, zero, stride)),
                                   ((h2, c2), step_transcribed(layer, x2, h1, c1, stride))):
        assert np.max(np.abs(h - h_ref)) <= 1e-12
        assert np.max(np.abs(c - c_ref)) <= 1e-12


def test_output_gate_peeks_at_new_cell_state():
    # regression pin: using C(t-1) in the O gate must change the output
    rng = np.random.default_rng(5)
    layer = make_conv_layer(rng, c_in=1, p=2)
    (_, x2), [(h1, c1), (h2, _)] = two_steps(rng, layer, (4, 4, 1))
    h_wrong, _ = step_transcribed(layer, x2, h1, c1, o_gate_uses_new_cell=False)
    assert np.max(np.abs(h2 - h_wrong)) > 1e-6


def test_sequence_single_step_and_zero_weights():
    rng = np.random.default_rng(7)
    layer = make_conv_layer(rng, c_in=1, p=2)
    x = rng.standard_normal((4, 4, 1))
    single = convlstm_sequence(layer, [x], return_sequences=False)
    h_ref, _ = step_transcribed(layer, x, np.zeros((4, 4, 2)), np.zeros((4, 4, 2)))
    assert np.allclose(single, h_ref, atol=1e-14)
    zeroed(layer)
    out = convlstm_sequence(layer, [rng.standard_normal((4, 4, 1)) for _ in range(4)],
                            return_sequences=False)
    assert (out == 0.0).all()
    with pytest.raises(ValueError):
        convlstm_sequence(layer, [])


def test_sequence_matches_step_replay():
    rng = np.random.default_rng(8)
    layer = make_conv_layer(rng, c_in=1, p=2)
    xs = [rng.standard_normal((4, 4, 1)) for _ in range(5)]
    outs = convlstm_sequence(layer, xs)
    h = np.zeros((4, 4, 2))
    c = np.zeros((4, 4, 2))
    for t, x in enumerate(xs):
        h, c = step_transcribed(layer, x, h, c)
        assert np.allclose(outs[t], h, atol=1e-13)


def test_lstm_zero_weights_and_shape_errors():
    rng = np.random.default_rng(9)
    layer = zeroed(make_lstm_layer(rng))
    [(h, c)] = lstm_steps(layer, [np.zeros(3)])
    assert (h == 0.0).all() and (c == 0.0).all()
    with pytest.raises(ValueError):
        lstm_steps(layer, [np.zeros(5)])


def test_lstm_degenerates_from_convlstm():
    """The vector LSTM is the 1x1-spatial, 1x1-kernel ConvLSTM."""
    rng = np.random.default_rng(10)
    d, u = 3, 4
    vec = make_lstm_layer(rng, d=d, u=u)
    conv = {}
    for g in "ifco":
        conv[f"w_x{g}"] = vec[f"w_x{g}"].T.reshape(1, 1, d, u)
        conv[f"w_h{g}"] = vec[f"w_h{g}"].T.reshape(1, 1, u, u)
        conv[f"b_{g}"] = vec[f"b_{g}"].copy()
    for g in "ifo":
        conv[f"w_c{g}"] = vec[f"w_c{g}"].reshape(1, 1, u)
    xs = list(rng.standard_normal((2, d)))
    # step 2 runs from the non-zero state step 1 leaves
    for (h_vec, c_vec), (h_conv, c_conv) in zip(
            lstm_steps(vec, xs), convlstm_steps(conv, [x.reshape(1, 1, d) for x in xs])):
        assert np.max(np.abs(h_conv[0, 0] - h_vec)) <= 1e-12
        assert np.max(np.abs(c_conv[0, 0] - c_vec)) <= 1e-12


def test_lstm_matches_transcription_oracle():
    rng = np.random.default_rng(11)
    w = make_lstm_layer(rng)
    xs = list(rng.standard_normal((2, 3)))
    steps = lstm_steps(w, xs)
    assert np.abs(steps[0][0]).max() > 0.05 and np.abs(steps[0][1]).max() > 0.05
    h_prev, c_prev = np.zeros(4), np.zeros(4)
    # step 1 from zero state, step 2 from the non-zero state step 1 leaves
    for x, (h, c) in zip(xs, steps):
        gi = sigmoid(w["w_xi"] @ x + w["w_hi"] @ h_prev + w["w_ci"] * c_prev + w["b_i"])
        gf = sigmoid(w["w_xf"] @ x + w["w_hf"] @ h_prev + w["w_cf"] * c_prev + w["b_f"])
        c_ref = gf * c_prev + gi * np.tanh(w["w_xc"] @ x + w["w_hc"] @ h_prev + w["b_c"])
        go = sigmoid(w["w_xo"] @ x + w["w_ho"] @ h_prev + w["w_co"] * c_ref + w["b_o"])
        h_ref = go * np.tanh(c_ref)
        assert np.allclose(h, h_ref, atol=1e-12)
        assert np.allclose(c, c_ref, atol=1e-12)
        h_prev, c_prev = h, c


# --- full network -------------------------------------------------------------


def tiny_config(input_mode="images_state_action", cameras=("dashcam",), rows=4, cols=4, seq_len=2,
                strides=(1, 2), kernels=(3, 3)):
    return NetworkConfig(
        input_mode=input_mode,
        cameras=cameras,
        image_rows=rows,
        image_cols=cols,
        seq_len=seq_len,
        conv_filters=(2, 2),
        conv_kernels=kernels,
        conv_strides=strides,
        lstm_units=3,
        merge_units=4,
    )


def make_samples(rng, config, n, n_cams=3):
    """n DPMD sample records holding the first n_cams cameras of CAMERA_ORDER."""
    rows, cols = config.image_rows, config.image_cols
    samples = np.recarray(n, sample_dtype(config.seq_len, n_cams, rows, cols))
    frames = samples["frames"]
    for i in range(n):
        for t in range(config.seq_len):
            for c in range(n_cams):
                frames["images"][i, t, c] = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
            frames["state"][i, t] = rng.standard_normal(9)
            frames["action"][i, t] = rng.integers(0, 2)
        samples.label[i] = rng.integers(0, 2)
    return samples


def test_forward_zero_network_is_uniform():
    config = tiny_config()
    params = init_params(config, seed=0)
    for t in params.tensors().values():
        t[...] = 0.0
    rng = np.random.default_rng(12)
    sample = make_samples(rng, config, 1)[0]
    probs = dpm_forward(params, config, sample)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)


def test_forward_is_deterministic_and_normalized():
    config = tiny_config()
    params = init_params(config, seed=3)
    rng = np.random.default_rng(13)
    sample = make_samples(rng, config, 1)[0]
    p1 = dpm_forward(params, config, sample)
    p2 = dpm_forward(params, config, sample)
    assert (p1 == p2).all()
    assert abs(p1.sum() - 1.0) <= 1e-12
    assert (p1 > 0).all()


# the camera-sweep strides, an odd non-square image (ceil-division output
# dims at the stride-2 layer), a two-camera network, and unequal kernels (a
# first-layer border other than 1, a re-border between layers)
SHAPE_VARIANTS = {
    "strides_2_1": dict(strides=(2, 1)),
    "odd_5x7": dict(rows=5, cols=7),
    "two_cameras": dict(cameras=("left_mirror", "dashcam")),
    "kernels_5_3": dict(kernels=(5, 3)),
    "kernels_1_3": dict(kernels=(1, 3)),
}


def check_forward_batch_matches_single(config):
    params = init_params(config, seed=4)
    rng = np.random.default_rng(14)
    samples = make_samples(rng, config, 3)
    batch = dpm_forward_batch(params, config, samples)
    for i, s in enumerate(samples):
        assert np.allclose(batch[i], dpm_forward(params, config, s), atol=1e-12)


def test_forward_batch_matches_single():
    check_forward_batch_matches_single(tiny_config())


@pytest.mark.parametrize("variant", sorted(SHAPE_VARIANTS))
def test_forward_batch_matches_single_shapes(variant):
    check_forward_batch_matches_single(tiny_config(**SHAPE_VARIANTS[variant]))


def _load_reference():
    """perfbench/reference.py, loaded by path: a forward written from the gate
    equations that shares no code with the package."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", ["default"] + sorted(SHAPE_VARIANTS))
@pytest.mark.parametrize("mode", network.INPUT_MODES)
def test_forward_matches_independent_reference(mode, variant):
    """The whole network against the reference forward, unmasked and masked: a
    wrong branch order, camera index or state/action layout shows here, where
    the finite-difference tests cannot see it."""
    reference = _load_reference()
    config = tiny_config(mode, **SHAPE_VARIANTS.get(variant, {}))
    params = init_params(config, seed=25)
    rng = np.random.default_rng(26)
    for t in params.tensors().values():
        t += rng.standard_normal(t.shape) * 0.05
    samples = make_samples(rng, config, 3)
    for masks in ({}, sample_masks(DropoutSpec(rate=0.3), params, 27).masks):
        probs = dpm_forward_batch(params, config, samples, masks)
        for p, frames in zip(probs[:, 0], samples["frames"]):
            want = reference.reference_p_collision(
                config, params.tensors(), masks, frames["images"],
                frames["state"].astype(np.float64), frames["action"].astype(np.float64))
            assert abs(p - want) <= 1e-12


def test_inputs_promote_stored_values_exactly():
    """Each camera is read at its CAMERA_ORDER position in the record into the
    interior of an exactly zero border of conv_kernels[0] // 2; images are
    uint8 / 255 and states the float32 values, then the action, in float64."""
    config = tiny_config(cameras=("right_mirror", "left_mirror"), kernels=(5, 3))
    samples = make_samples(np.random.default_rng(21), config, 3)
    right, left, states = inputs_from_samples(config, samples)
    a, rows, cols = 2, config.image_rows, config.image_cols
    assert states.shape == (10, config.seq_len, 3, 1, 1) and states.dtype == np.float64
    for image in (left, right):
        assert image.shape == (1, config.seq_len, 3, rows + 2 * a, cols + 2 * a)
        border = np.ones(image.shape, dtype=bool)
        border[..., a : a + rows, a : a + cols] = False
        assert image[border].tobytes() == bytes(8 * int(border.sum()))
    for b, s in enumerate(samples):
        for t, frame in enumerate(s["frames"]):
            for image, index in ((left, 0), (right, 2)):
                want = [[float(v) / 255.0 for v in row] for row in frame["images"][index]]
                assert image[0, t, b, a : a + rows, a : a + cols].tolist() == want
            assert states[:, t, b, 0, 0].tolist() == [float(v) for v in frame["state"]] + \
                [float(frame["action"])]


def test_forward_missing_modality_errors():
    config = tiny_config(cameras=("left_mirror", "dashcam"))
    params = init_params(config, seed=5)
    rng = np.random.default_rng(15)
    sample = make_samples(rng, config, 1, n_cams=1)[0]  # left_mirror only
    with pytest.raises(ValueError):
        dpm_forward(params, config, sample)


def test_branch_permutation_symmetry():
    """Swapping identical camera branches with their head blocks is a no-op."""
    rng = np.random.default_rng(16)
    cfg_a = tiny_config(cameras=("left_mirror", "dashcam"), input_mode="images_only")
    cfg_b = tiny_config(cameras=("dashcam", "left_mirror"), input_mode="images_only")
    params_a = init_params(cfg_a, seed=6)
    params_b = params_a.copy()
    w = cfg_a.branch_feature_dim
    wm = params_a.tensors()["head.w_merge"]
    params_b.tensors()["head.w_merge"] = np.concatenate([wm[:, w : 2 * w], wm[:, :w]], axis=1)
    sample = make_samples(rng, cfg_a, 1)[0]
    pa = dpm_forward(params_a, cfg_a, sample)
    pb = dpm_forward(params_b, cfg_b, sample)
    assert np.allclose(pa, pb, atol=1e-12)


def test_gradients_at_saturated_minimum_vanish():
    config = tiny_config()
    params = init_params(config, seed=7)
    rng = np.random.default_rng(17)
    sample = make_samples(rng, config, 1)[0]
    predicted = int(np.argmax(dpm_forward(params, config, sample)))
    label = 1 if predicted == 0 else 0  # label whose target index is the argmax
    params.tensors()["head.w_out"] *= 2000.0  # saturate the softmax at its own prediction
    params.tensors()["head.b_out"] *= 2000.0
    loss, grads = dpm_gradients(params, config, [sample, sample], [label, label])
    norm = max(np.max(np.abs(g)) for g in grads.values())
    assert loss < 1e-8
    assert norm < 1e-10


def test_tensor_names_follow_record_order():
    """tensors() order is the DPMW record order and the dropout-mask draw order;
    param_shapes gives the same names and shapes without allocating."""
    cameras = ("right_mirror", "dashcam")
    params = init_params(tiny_config(cameras=cameras), seed=0)
    layer = ["w_xi", "w_hi", "w_xf", "w_hf", "w_xc", "w_hc", "w_xo", "w_ho",
             "w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o"]
    expected = ([f"cam.{cam}.l{li}.{f}" for cam in cameras for li in (0, 1) for f in layer]
                + [f"lstm.{f}" for f in layer]
                + ["head.w_merge", "head.b_merge", "head.w_out", "head.b_out"])
    assert list(params.tensors()) == expected
    for config in (tiny_config(cameras=cameras),
                   tiny_config("images_only", rows=7, cols=5, strides=(2, 1))):
        tensors = init_params(config, seed=0).tensors()
        assert list(param_shapes(config).items()) == [(n, t.shape) for n, t in tensors.items()]


def test_images_only_has_no_state_branch_parameters():
    config = tiny_config(input_mode="images_only")
    params = init_params(config, seed=8)
    assert not any(name.startswith("lstm.") for name in params.tensors())
    rng = np.random.default_rng(18)
    samples = make_samples(rng, config, 2)
    _, grads = dpm_gradients(params, config, samples, [s.label for s in samples])
    assert not any(name.startswith("lstm.") for name in grads)


def relative_gradient_errors(params, config, samples, labels, eps=1e-4, loss=None):
    """Max relative error per tensor between BPTT and central differences of
    loss() (by default the loss dpm_gradients returns)."""
    _, grads = dpm_gradients(params, config, samples, labels)
    loss = loss or (lambda: dpm_gradients(params, config, samples, labels)[0])
    errs = {}
    for name, tensor in params.tensors().items():
        original = tensor.copy()

        def loss_with(values, _t=tensor):
            _t[...] = values
            out = loss()
            _t[...] = original
            return out

        fd = oracles.finite_diff_gradient(loss_with, original, eps=eps)
        rel = np.abs(grads[name] - fd) / (np.abs(grads[name]) + 1e-8)
        errs[name] = float(np.max(rel))
    return errs


GRADIENT_CASES = {mode: dict(input_mode=mode)
                  for mode in ("images_only", "images_state", "images_state_action")}
GRADIENT_CASES.update(SHAPE_VARIANTS)


@pytest.mark.parametrize("case", list(GRADIENT_CASES))
def test_gradients_match_finite_differences(case):
    config = tiny_config(**GRADIENT_CASES[case])
    params = init_params(config, seed=9)
    # move away from the symmetric init so no gradient is accidentally zero
    rng = np.random.default_rng(19)
    for t in params.tensors().values():
        t += rng.standard_normal(t.shape) * 0.05
    samples = make_samples(rng, config, 2)
    labels = [0, 1]
    errs = relative_gradient_errors(params, config, samples, labels)
    worst = max(errs.values())
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"


@pytest.mark.parametrize("point_seed", [101, 102, 103, 104, 105])
def test_gradients_match_finite_differences_at_random_points(point_seed):
    config = tiny_config()
    params = init_params(config, seed=point_seed)
    rng = np.random.default_rng(point_seed)
    for t in params.tensors().values():
        t += rng.standard_normal(t.shape) * 0.2
    samples = make_samples(rng, config, 2)
    labels = [int(rng.integers(0, 2)), int(rng.integers(0, 2))]
    worst = max(relative_gradient_errors(params, config, samples, labels).values())
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e} at seed {point_seed}"


def test_gradients_with_masks_zero_dropped_weights():
    config = tiny_config()
    params = init_params(config, seed=10)
    rng = np.random.default_rng(20)
    samples = make_samples(rng, config, 2)
    name = "cam.dashcam.l0.w_xi"
    mask = np.ones_like(params.tensors()[name])
    mask.reshape(-1)[::2] = 0.0
    loss_m, grads_m = dpm_gradients(params, config, samples, [0, 1], masks={name: mask})
    assert (grads_m[name].reshape(-1)[::2] == 0.0).all()
    loss_p, _ = dpm_gradients(params, config, samples, [0, 1])
    assert loss_m != loss_p  # the mask actually changed the forward pass


def test_zero_grads_shapes():
    config = tiny_config()
    params = init_params(config, seed=11)
    grads = zero_grads(params)
    tensors = params.tensors()
    assert set(grads) == set(tensors)
    for name in grads:
        assert grads[name].shape == tensors[name].shape
        assert (grads[name] == 0).all()


def test_params_copy_is_deep():
    config = tiny_config()
    params = init_params(config, seed=12)
    clone = params.copy()
    clone.tensors()["head.w_out"][...] = 123.0
    assert not (params.tensors()["head.w_out"] == 123.0).any()


def _three_block_case():
    """A tiny network away from its symmetric init and a 40-sample batch: blocks of 16, 16, 8."""
    config = tiny_config()
    params = init_params(config, seed=13)
    rng = np.random.default_rng(23)
    for t in params.tensors().values():
        t += rng.standard_normal(t.shape) * 0.05
    samples = make_samples(rng, config, 40)
    assert network.BLOCK == 16
    return config, params, samples, samples.label.astype(np.int64)


def test_three_block_gradients_match_finite_differences():
    config, params, samples, labels = _three_block_case()

    def loss():  # the mean loss of a forward alone, which costs less than a gradient
        return float(sample_losses(dpm_forward_batch(params, config, samples), labels).mean())

    worst = max(relative_gradient_errors(params, config, samples, labels, loss=loss).values())
    assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"


def test_three_block_batch_equals_its_blocks_run_serially(monkeypatch):
    config, params, samples, labels = _three_block_case()
    masks = sample_masks(DropoutSpec(rate=0.2), params, 3).masks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the block threads as finely as possible
    try:
        threaded = [dpm_gradients(params, config, samples, labels, masks),
                    dpm_forward_batch(params, config, samples, masks)]
    finally:
        sys.setswitchinterval(interval)
    blocks = []

    def serial(fn, items):  # the same blocks, one after another on this thread
        blocks.append([(s.start, min(s.stop, len(samples))) for s in items])
        with parallel.one_blas_thread():
            return [fn(s) for s in items]

    monkeypatch.setattr(network, "thread_map", serial)
    loss, grads = dpm_gradients(params, config, samples, labels, masks)
    probs = dpm_forward_batch(params, config, samples, masks)
    assert blocks == [[(0, 16), (16, 32), (32, 40)]] * 2
    assert loss == threaded[0][0]
    assert list(grads) == list(threaded[0][1])
    for name, g in grads.items():
        assert g.tobytes() == threaded[0][1][name].tobytes(), name
    assert probs.tobytes() == threaded[1].tobytes()
    # the batch's forward is its blocks' forwards, concatenated
    parts = [dpm_forward_batch(params, config, samples[lo:hi], masks)
             for lo, hi in blocks[0]]
    assert probs.tobytes() == np.concatenate(parts).tobytes()
    assert loss == float(sample_losses(probs, labels).mean())
