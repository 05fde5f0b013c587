"""Test oracles: exact-order dense-array ops and single-sample layer adapters.

Tensors are float64 C-order numpy arrays with a fixed dimension order of
rows x cols x channels (x filters for convolution kernels). Every op here is
pure: inputs are never mutated and outputs are fresh arrays.

conv2d accumulates in a fixed (kernel-row, kernel-col, in-channel) order so
that its output is bit-identical to a naive quadruple-loop convolution that
sums in the same order; the gradient-check and transcription oracles rely on
this.

convlstm_steps, convlstm_sequence and lstm_steps run one sample through the
network's ConvLSTM core, which starts from zero state; a test that needs a
step from a non-zero state takes the second step of a two-frame sequence.
A layer is a field -> array map (`w_xi`, ..., `b_o`), as the core sees it.

premasked gives the weights a Monte-Carlo dropout pass should apply at every
time step; an unmasked forward on them is the mask-constancy reference.

render_frame ray-casts one frame over its full pixel grid in float
intensities (sky 0.0, ground 0.25, vehicle 1.0), and quantize_image maps a
float image to DPMD storage bytes, round(255 * intensity); the simulator's
window renderer, which writes those bytes itself, must equal the two
together.

step_world advances both vehicles by one tick, and tick_states and
tick_scenario run a whole episode one tick at a time with it; the
simulator's whole-episode trajectories, label, event time and frame records
must equal theirs. They test each frame with the separating-axis test alone,
where the simulator skips frames too far apart to touch.

pack_frames keeps the frames of a whole episode that lie within a horizon of
its event and packs them one frame at a time; the simulator's horizon window
packed by data.truncate_episode must equal it.
"""

import math
from dataclasses import replace

import numpy as np

from crashcast.data import DASHCAM_MOUNT, frame_dtype
from crashcast.network import _channels_last, _kernel_pad, _layer, _layer_forward, _repad, sigmoid
from crashcast.sim import (
    CAMERA_ORDER,
    FRAME_DTYPE,
    VehicleState,
    WorldConfig,
    _unit,
    detect_collision,
    scenario_start_states,
)


def _as_f64(x):
    return np.ascontiguousarray(x, dtype=np.float64)


def conv2d(x, kernel, stride=1):
    """Same-padded 2-D convolution, top-left anchored when strided.

    x: (q, r, c_in); kernel: (m, n, c_in, p) with odd m, n.
    Returns (ceil(q/stride), ceil(r/stride), p).
    """
    x = _as_f64(x)
    kernel = _as_f64(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ValueError(f"conv2d expects 3-d input and 4-d kernel, got {x.shape} and {kernel.shape}")
    q, r, c_in = x.shape
    m, n, kc, p = kernel.shape
    if kc != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, kernel expects {kc}")
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError(f"kernel spatial extents must be odd, got {m}x{n}")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    oq = -(-q // stride)
    orr = -(-r // stride)
    xp = np.zeros((q + 2 * (m // 2), r + 2 * (n // 2), c_in))
    xp[m // 2 : m // 2 + q, n // 2 : n // 2 + r, :] = x
    out = np.zeros((oq, orr, p))
    for u in range(m):
        for v in range(n):
            for c in range(c_in):
                sl = xp[u : u + (oq - 1) * stride + 1 : stride,
                        v : v + (orr - 1) * stride + 1 : stride, c]
                out += sl[:, :, None] * kernel[u, v, c, :]
    return out


def pointwise(op_kind, x):
    """Elementwise nonlinearity; op_kind in {"sigmoid", "tanh", "relu"}."""
    x = _as_f64(x)
    if op_kind == "sigmoid":
        return sigmoid(x)
    if op_kind == "tanh":
        return np.tanh(x)
    if op_kind == "relu":
        return np.maximum(x, 0.0)
    raise ValueError(f"unknown pointwise op {op_kind!r}")


def hadamard(a, b):
    """Elementwise product of two same-shaped tensors."""
    a = _as_f64(a)
    b = _as_f64(b)
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def dense(weights, bias, x):
    """Affine map W x + b for W (out, in), b (out,), x (in,)."""
    weights = _as_f64(weights)
    bias = _as_f64(bias)
    x = _as_f64(x)
    if weights.ndim != 2 or x.ndim != 1 or bias.ndim != 1:
        raise ValueError("dense expects 2-d weights, 1-d bias and input")
    if weights.shape[1] != x.shape[0] or weights.shape[0] != bias.shape[0]:
        raise ValueError(f"dense dimension mismatch: W {weights.shape}, b {bias.shape}, x {x.shape}")
    return weights @ x + bias


def softmax(x):
    """Shift-invariant softmax over a 1-d tensor."""
    x = _as_f64(x)
    z = np.exp(x - np.max(x))
    return z / np.sum(z)


def finite_diff_gradient(f, x, eps=1e-4):
    """Central-difference gradient of a scalar function of a tensor.

    The workhorse oracle for every analytic gradient in the package;
    f must be deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.array(x, dtype=np.float64)  # private copy: we perturb in place
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def _core_input(x, layer):
    """Channels-last (B, L, H, W, c) sequence -> padded channels-first (c, L, B, ., .)."""
    return _repad(x.transpose(4, 1, 0, 2, 3), (0, 0), _kernel_pad(layer))


def convlstm_steps(layer, xs, stride=1):
    """The gate-equation step iterated from zero state over frames xs, each
    (q, r, c_in): the (h, c) after each step, each (q', r', p)."""
    run = _layer_forward(layer, _core_input(np.stack(xs)[None], layer), stride)
    steps = []
    for t in range(1, len(xs) + 1):
        h = run.hidden(t)
        steps.append((_channels_last(h)[0], _channels_last(run.cs[:, t].reshape(h.shape))[0]))
    return steps


def convlstm_sequence(layer, xs, stride=1, return_sequences=True):
    """Every hidden state of convlstm_steps, or the last one."""
    outs = [h for h, _ in convlstm_steps(layer, xs, stride)]
    return outs if return_sequences else outs[-1]


def lstm_steps(layer, xs):
    """Vector LSTM steps from zero state: kernels (u, d) and (u, u), peepholes (u,);
    each x (d,), each h, c (u,)."""
    conv = _layer({f"lstm.{f}": w for f, w in layer.items()}, "lstm")
    return [(h[0, 0], c[0, 0]) for h, c in convlstm_steps(conv, [x[None, None] for x in xs])]


def premasked(params, masks):
    """A copy of params with each masked tensor multiplied by its mask."""
    out = params.copy()
    for name, t in out.tensors().items():
        if name in masks:
            t *= masks[name]
    return out


def quantize_image(img):
    """Map a float image in [0, 1] to storage bytes: rint(255 * img), clipped to [0, 255]."""
    q = np.multiply(img, 255.0)
    np.rint(q, out=q)
    np.clip(q, 0, 255, out=q)
    return q.astype(np.uint8)


def render_frame(sensor, other, cam, world):
    """Ray-cast one camera view; returns a (rows, cols) image in [0, 1]."""
    ch, sh = _unit(sensor.heading)
    px = sensor.x + cam.mount[0] * ch - cam.mount[1] * sh
    py = sensor.y + cam.mount[0] * sh + cam.mount[1] * ch
    pz = cam.mount[2]
    cc, sc = _unit(sensor.heading - cam.yaw_offset)

    focal = (cam.cols / 2.0) / math.tan(cam.fov / 2.0)
    u = cam.cols / 2.0 - (np.arange(cam.cols) + 0.5)        # left-positive
    v = cam.rows / 2.0 - (np.arange(cam.rows) + 0.5)        # up-positive
    uu, dz = np.meshgrid(u, v)
    dx = focal * cc - uu * sc
    dy = focal * sc + uu * cc

    img = np.zeros((cam.rows, cam.cols))
    img[dz < 0] = 0.25

    if other is not None:
        cb, sb = _unit(other.heading)
        # ray origin and direction in the box frame (x along the vehicle)
        ox = (px - other.x) * cb + (py - other.y) * sb
        oy = -(px - other.x) * sb + (py - other.y) * cb
        oz = pz
        bdx = dx * cb + dy * sb
        bdy = -dx * sb + dy * cb
        bdz = dz
        t_near = np.full(dx.shape, -np.inf)
        t_far = np.full(dx.shape, np.inf)
        for o, d, lo, hi in (
            (ox, bdx, -other.length / 2.0, other.length / 2.0),
            (oy, bdy, -other.width / 2.0, other.width / 2.0),
            (oz, bdz, 0.0, world.vehicle_height),
        ):
            d = np.where(d == 0.0, 1e-300, d)
            t1 = (lo - o) / d
            t2 = (hi - o) / d
            t_near = np.maximum(t_near, np.minimum(t1, t2))
            t_far = np.minimum(t_far, np.maximum(t1, t2))
        hit = (t_near <= t_far) & (t_near > 0.0)
        img[hit] = 1.0
    return img


def pack_frames(episode, horizon):
    """Frame records of the frames within `horizon` seconds up to the episode's
    event: each camera's images stacked frame by frame, and the
    state vector built from one tuple per frame. A window with no frame gives
    zero records of the dtype a non-empty one would have."""
    lo, hi = episode.event_time - horizon - 1e-9, episode.event_time + 1e-9
    kept = [i for i, t in enumerate(episode.frames.t) if lo <= t <= hi]
    cameras = [c for c in CAMERA_ORDER if c in episode.images]
    rows, cols = episode.images[cameras[0]].shape[1:]
    frames = np.recarray(len(kept), frame_dtype(len(cameras), rows, cols))
    if not kept:
        return frames
    for ci, cam in enumerate(cameras):
        frames.images[:, ci] = np.stack([episode.images[cam][i] for i in kept])
    for j, i in enumerate(kept):
        f = episode.frames[i]
        frames.state[j] = (*DASHCAM_MOUNT, f.x, f.y, 0.0, f.speed, f.torque_cmd,
                           float(f.accelerator))
        frames.action[j] = f.action
    return frames


def _step_vehicle(v, dt, world):
    if v.accelerator:
        new_speed = min(v.speed + world.max_accel * v.torque_cmd * dt, world.top_speed)
    else:
        new_speed = v.speed
    # trapezoid of old/new speed: exact for piecewise-constant acceleration
    dist = 0.5 * (v.speed + new_speed) * dt
    c, s = _unit(v.heading)
    return VehicleState(v.x + dist * c, v.y + dist * s, v.heading, new_speed, v.torque_cmd,
                        v.accelerator, v.length, v.width)


def step_world(state, dt, world=WorldConfig()):
    """Advance the (sensor, other) pair by one time step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    sensor, other = state
    return _step_vehicle(sensor, dt, world), _step_vehicle(other, dt, world)


def tick_states(spec, world=WorldConfig(), to_collision=True):
    """(t, sensor, other) at every frame of an episode, both vehicles stepped by
    step_world, up to its collision by the SAT or, if not to_collision,
    for the whole max_duration."""
    sensor, other = scenario_start_states(spec.scenario_id, world)
    other = replace(other, accelerator=1)
    states = []
    for k in range(int(math.floor(spec.max_duration / spec.dt + 1e-9)) + 1):
        t = k * spec.dt
        sensor = replace(sensor, accelerator=1 if t + 1e-12 >= spec.delay else 0)
        states.append((t, sensor, other))
        if to_collision and detect_collision(sensor, other):
            break
        sensor, other = step_world((sensor, other), spec.dt, world)
    return states


def tick_scenario(spec, world=WorldConfig(), horizon=None):
    """(label, event time, frame records, kept states) of an episode run one tick
    at a time: the collision frame by the SAT, else the first frame of
    closest approach by math.hypot, and the FRAME_DTYPE records and
    (t, sensor, other) of the frames within `horizon` up to the event."""
    states = tick_states(spec, world)
    _t, sensor, other = states[-1]
    label = int(detect_collision(sensor, other))
    if label:
        event_time = states[-1][0]
    else:
        best, event_time = math.inf, 0.0
        for t, sensor, other in states:
            dist = math.hypot(sensor.x - other.x, sensor.y - other.y)
            if dist < best:
                best, event_time = dist, t
    if horizon is not None:
        states = [s for s in states
                  if event_time - horizon - 1e-9 <= s[0] <= event_time + 1e-9]
    frames = np.array([(t, s.x, s.y, s.speed, s.torque_cmd, s.accelerator, s.accelerator)
                       for t, s, _o in states], dtype=FRAME_DTYPE)
    return label, event_time, frames, states
