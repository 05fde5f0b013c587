"""Multi-branch convolutional-recurrent collision predictor.

One ConvLSTM stack per camera plus an optional vector-LSTM branch for
proprioceptive state/action sequences, merged by a relu dense layer into a
2-way softmax. Index 0 of the output is P(collision).

The gate equations, for both the convolutional and the vector layers
(the vector layer is the 1x1-spatial special case):

    I = sigmoid(Wxi*X + Whi*H(t-1) + Wci.C(t-1) + bi)
    F = sigmoid(Wxf*X + Whf*H(t-1) + Wcf.C(t-1) + bf)
    C = F.C(t-1) + I.tanh(Wxc*X + Whc*H(t-1) + bc)
    O = sigmoid(Wxo*X + Who*H(t-1) + Wco.C + bo)     <- new cell state
    H = O.tanh(C)

where * is a same-padded convolution, . is elementwise, and the output
gate peeks at the NEW cell state. Dropout masks multiply weight tensors
elementwise and are held fixed across all time steps of one pass.

The parameters are one name -> array map (`cam.dashcam.l0.w_xi`, `lstm.b_f`,
`head.w_out`, ...) in param_shapes order; checkpoints, gradients, dropout
masks and the optimizer state use the same names. All layers, the vector
LSTM included (as a 1x1 layer), run on one channels-first core (see the
section comment below): convolutions are im2col + matmul, and the
input-to-gate term of a layer is computed for the whole sequence in one
matrix product. Each camera's stack and the state LSTM (a one-layer branch)
are branches (_branches) that the forward and the backward walk in one loop,
each fed its input in the core's layout. The test suite checks each step
against a straight-line transcription of the gate equations built from
exact-order oracle ops, and all gradients against central differences.

A batch runs as consecutive blocks of BLOCK samples through
parallel.thread_map (see parallel.py). A batch's probabilities are its
blocks' probabilities in order, and its gradient is the sum of its blocks'
gradients taken in block order, so every result depends on the constant
BLOCK and on neither the core count nor the BLAS thread setting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import STATE_DIM
from .parallel import thread_map
from .sim import CAMERA_ORDER

BLOCK = 16  # samples per forward/backward block; see the module docstring

GATES = ("i", "f", "c", "o")

INPUT_MODES = ("images_only", "images_state", "images_state_action")


@dataclass(frozen=True)
class NetworkConfig:
    input_mode: str = "images_state_action"
    cameras: tuple = CAMERA_ORDER
    image_rows: int = 32
    image_cols: int = 32
    seq_len: int = 5
    conv_filters: tuple = (8, 8)
    conv_kernels: tuple = (3, 3)
    conv_strides: tuple = (1, 2)
    lstm_units: int = 16
    merge_units: int = 32
    image_channels = 1  # DPMD images are greyscale; a class constant, not a field

    def __post_init__(self):
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input_mode {self.input_mode!r}")
        if not self.cameras:
            raise ValueError("camera set must be non-empty")
        for cam in self.cameras:
            if cam not in CAMERA_ORDER:
                raise ValueError(f"unknown camera {cam!r}")
        if self.seq_len < 1:
            raise ValueError("sequence length must be >= 1")
        if min(self.image_rows, self.image_cols, self.lstm_units, self.merge_units) < 1:
            raise ValueError("image dimensions and unit counts must be >= 1")
        n = len(self.conv_filters)
        if n == 0:
            raise ValueError("need at least one conv layer")
        if not (len(self.conv_kernels) == len(self.conv_strides) == n):
            raise ValueError("per-layer conv hyperparameter tuples must have equal length")
        if min(self.conv_filters) < 1 or min(self.conv_strides) < 1:
            raise ValueError("conv filter counts and strides must be >= 1")
        if any(k < 1 or k % 2 == 0 for k in self.conv_kernels):
            raise ValueError(f"conv kernels must be odd and >= 1, got {self.conv_kernels}")
        # the widths of the DPMW config-block fields (u8 or u16) that store each value
        if n > 255:
            raise ValueError(f"at most 255 conv layers fit a checkpoint, got {n}")
        for name, limit in (("conv_kernels", 255), ("conv_strides", 255), ("conv_filters", 65535),
                            ("image_rows", 65535), ("image_cols", 65535), ("seq_len", 65535),
                            ("lstm_units", 65535), ("merge_units", 65535)):
            value = getattr(self, name)
            if max(value if isinstance(value, tuple) else (value,)) > limit:
                raise ValueError(f"{name} must be <= {limit} to fit a checkpoint, got {value}")

    @property
    def conv_return_sequences(self):
        """Per conv layer: every layer but the last hands its whole sequence on."""
        return (True,) * (len(self.conv_filters) - 1) + (False,)

    @property
    def has_state_branch(self):
        return self.input_mode != "images_only"

    @property
    def state_dim(self):
        """Width of the state branch's input: the state vector, plus the action."""
        return {"images_state": STATE_DIM,
                "images_state_action": STATE_DIM + 1}.get(self.input_mode, 0)

    def layer_dims(self):
        """Spatial dims at the OUTPUT of each conv layer."""
        q, r = self.image_rows, self.image_cols
        dims = []
        for s in self.conv_strides:
            q = -(-q // s)
            r = -(-r // s)
            dims.append((q, r))
        return dims

    @property
    def branch_feature_dim(self):
        q, r = self.layer_dims()[-1]
        return q * r * self.conv_filters[-1]

    @property
    def merge_input_dim(self):
        d = self.branch_feature_dim * len(self.cameras)
        if self.has_state_branch:
            d += self.lstm_units
        return d


@dataclass
class NetworkParams:
    """Every tensor of the network by name, in param_shapes order (the DPMW
    record order and the dropout-mask draw order)."""

    arrays: dict

    def tensors(self):
        """The live name -> array map: in-place edits reach the forward pass."""
        return self.arrays

    def copy(self):
        return NetworkParams({name: t.copy() for name, t in self.arrays.items()})


_CONV_TENSOR_FIELDS = tuple(
    [f"w_{k}{g}" for g in GATES for k in "xh"]
    + [f"w_c{g}" for g in ("i", "f", "o")] + [f"b_{g}" for g in GATES]
)


def param_shapes(config):
    """Name -> shape of every tensor init_params makes, in record order, allocating none."""
    shapes = {}

    def recurrent(prefix, w_x, w_h, w_c, bias):
        kernels = {"x": w_x, "h": w_h, "c": w_c}
        shapes.update((f"{prefix}.{f}", kernels[f[2]] if f[0] == "w" else bias)
                      for f in _CONV_TENSOR_FIELDS)

    for cam in config.cameras:
        c_in = config.image_channels
        for li, (p, k, (q, r)) in enumerate(zip(config.conv_filters, config.conv_kernels,
                                                config.layer_dims())):
            recurrent(f"cam.{cam}.l{li}", (k, k, c_in, p), (k, k, p, p), (q, r, p), (p,))
            c_in = p
    if config.has_state_branch:
        u = config.lstm_units
        recurrent("lstm", (u, config.state_dim), (u, u), (u,), (u,))
    shapes["head.w_merge"] = (config.merge_units, config.merge_input_dim)
    shapes["head.b_merge"] = (config.merge_units,)
    shapes["head.w_out"] = (2, config.merge_units)
    shapes["head.b_out"] = (2,)
    return shapes


# weight families eligible for dropout masking, by connection kind
MASKABLE_FAMILIES = {
    "inputs": tuple(f"w_x{g}" for g in GATES),
    "recurrent": tuple(f"w_h{g}" for g in GATES),
    "outputs": tuple(f"w_c{g}" for g in ("i", "f", "o")),
}


def _glorot(rng, shape, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _glorot_fans(shape):
    """(fan_in, fan_out) of a weight: kernels (m, n, c_in, p), matrices (out, in),
    peepholes (q', r', p) or (u,)."""
    if len(shape) == 4:
        m, n, c_in, p = shape
        return m * n * c_in, m * n * p
    if len(shape) == 2:
        return shape[1], shape[0]
    return shape[-1], shape[-1]


def init_params(config, seed=0):
    """Glorot-uniform weights, zero biases except forget gate at +1."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in param_shapes(config).items():
        field = name.rsplit(".", 1)[1]
        if field.startswith("b_"):
            tensors[name] = np.full(shape, 1.0 if field == "b_f" else 0.0)
        else:
            tensors[name] = _glorot(rng, shape, *_glorot_fans(shape))
    return NetworkParams(tensors)


# --- channels-first ConvLSTM core ------------------------------------------
#
# Inside the core every tensor is channels-first: a layer's input sequence is
# (c, L, B, H, W), its hidden states (p, L+1, B, q'+2a, r'+2b), stored with the
# zero border its own recurrent convolution reads (a, b = m//2, n//2), its cell
# states (p, L+1, B, q'r') and its gates (4, p, L, B, q'r'), gate-major. Index 0
# of the state axis is the initial state. Each channel of one step is a run of
# B*q'*r' contiguous doubles, so the gate arithmetic works on long unit-stride
# slabs, and each convolution is one GEMM of the stacked gate kernels against
# an im2col matrix whose columns are (time, batch, row, col) positions. The
# input term W_x*X(t) + b does not depend on the recurrence, so it is one GEMM
# over all L*B frames of a layer, and its weight and bias gradients one GEMM
# over the stacked dz of all steps. The recurrent term is one GEMM per step.

def _im2col(xp, m, n, stride, oh, ow, out):
    """Columns of a padded channels-first tensor xp (c, ..., Hp, Wp), written into `out`.

    Returns (m*n*c, prod(...)*oh*ow): row (u, v, ch) holds what kernel tap
    (u, v) of channel ch sees at every output position, matching the
    (m, n, c, p) kernel layout.
    """
    col = out.reshape((m, n) + xp.shape[:-2] + (oh, ow))
    for u in range(m):
        for v in range(n):
            col[u, v] = xp[..., u : u + (oh - 1) * stride + 1 : stride,
                           v : v + (ow - 1) * stride + 1 : stride]
    return col.reshape(m * n * xp.shape[0], -1)


def _col2im(dcol, dxp, m, n, stride, oh, ow):
    """Adjoint of _im2col: adds column gradients onto the padded tensor dxp."""
    d = dcol.reshape((m, n) + dxp.shape[:-2] + (oh, ow))
    for u in range(m):
        for v in range(n):
            dxp[..., u : u + (oh - 1) * stride + 1 : stride,
                v : v + (ow - 1) * stride + 1 : stride] += d[u, v]
    return dxp


def _repad(x, pad, want):
    """Re-borders a channels-first tensor padded by `pad` to `want` (a copy unless equal)."""
    if pad == want:
        return x
    (ph, pw), (qh, qw) = pad, want
    inner = x[..., ph : x.shape[-2] - ph, pw : x.shape[-1] - pw]
    return np.pad(inner, ((0, 0),) * (x.ndim - 2) + ((qh, qh), (qw, qw)))


def _kernel_pad(layer):
    m, n = layer["w_xi"].shape[:2]
    return m // 2, n // 2


def _channels_last(x):
    """(p, B, q, r) -> contiguous (B, q, r, p)."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _layer(tensors, prefix):
    """Field -> array map of the recurrent layer `prefix` of a name -> array map.

    A layer is what the core takes: kernels (m, n, c_in, p), peepholes
    (q', r', p) and biases (p,). The vector LSTM's (u, d) and (u, u) kernels
    and (u,) peepholes are seen as that 1x1 layer through views, so applied
    to a gradient map, the core's += reaches the named arrays.
    """
    layer = {f: tensors[f"{prefix}.{f}"] for f in _CONV_TENSOR_FIELDS}
    if layer["w_xi"].ndim == 2:
        for f, w in layer.items():
            if f.startswith("w_"):
                layer[f] = w[None, None] if w.ndim == 1 else w.T[None, None]
    return layer


def _stack_gate_kernels(layer, prefix):
    ws = [layer[f"{prefix}{g}"] for g in GATES]
    m, n, c, p = ws[0].shape
    return np.concatenate(ws, axis=3).reshape(m * n * c, 4 * p)


def _peepholes(layer):
    """Peepholes (q', r', p) as channels-first (p, 1, q'r') broadcast operands."""
    out = []
    for g in ("i", "f", "o"):
        w = layer[f"w_c{g}"]
        out.append(np.ascontiguousarray(w.transpose(2, 0, 1)).reshape(w.shape[2], 1, -1))
    return out


def sigmoid(x, out=None):
    """Numerically stable logistic function, optionally written into `out`.

    With e = exp(-|x|) this is where(x >= 0, 1, e) / (1 + e): 1 / (1 + exp(-x))
    for x >= 0 and exp(x) / (1 + exp(x)) below, bit for bit, with no boolean
    mask. The numerator is formed as exp(min(x, 0)), which equals
    where(x >= 0, 1, e) exactly and is cheaper than a select. `out` may be x
    itself.
    """
    x = np.asarray(x, dtype=np.float64)
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)  # -|x|
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(num, out=num)
    num /= den
    return num


@dataclass
class _LayerRun:
    """One layer's pass over a sequence, holding what its backward needs."""

    layer: dict         # field -> array, as _layer gives it
    stride: int
    wx: np.ndarray      # stacked input kernels and biases (m*n*c + 1, 4p)
    wh: np.ndarray      # stacked recurrent kernels (m*n*p, 4p)
    in_shape: tuple     # padded input (c, L, B, H+2a, W+2b)
    col_x: np.ndarray   # input columns and a row of ones (m*n*c + 1, L*B*q'*r'), kept for a backward
    gates: np.ndarray   # (4, p, L, B, q'r') activations; dz once backward ran
    hs: np.ndarray      # (p, L+1, B, q'+2a, r'+2b) padded hidden states
    cs: np.ndarray      # (p, L+1, B, q'r') cell states

    @property
    def out_dims(self):
        a, b = _kernel_pad(self.layer)
        return self.hs.shape[3] - 2 * a, self.hs.shape[4] - 2 * b

    def hidden(self, t):
        """Hidden state t as a (p, B, q', r') view."""
        a, b = _kernel_pad(self.layer)
        q, r = self.out_dims
        return self.hs[:, t, :, a : a + q, b : b + r]


# The step loops below run every elementwise operation in place on
# preallocated (p, B, q'r') work arrays: at training batch sizes a fresh
# temporary per operation costs more than the arithmetic. Each group of
# calls is annotated with the expression it evaluates.

def _layer_forward(layer, xp, stride=1, keep_cols=False):
    """Runs one ConvLSTM layer (a _layer map) from zero state over a padded
    channels-first sequence.

    xp: (c, L, B, H+2a, W+2b) with a, b = m//2, n//2. keep_cols keeps the
    input columns for a backward.
    """
    m, n, _, p = layer["w_xi"].shape
    a, b = m // 2, n // 2
    _, length, batch, hp, wp = xp.shape
    q, r = -(-(hp - 2 * a) // stride), -(-(wp - 2 * b) // stride)
    # the biases ride in the input GEMM as one more kernel row against a row of ones
    wx = np.vstack([_stack_gate_kernels(layer, "w_x"),
                    np.concatenate([layer[f"b_{g}"] for g in GATES])])
    wh = _stack_gate_kernels(layer, "w_h")
    col_x = np.empty((m * n * xp.shape[0] + 1, length * batch * q * r))
    _im2col(xp, m, n, stride, q, r, col_x[:-1])
    col_x[-1] = 1.0
    gates = (wx.T @ col_x).reshape(4, p, length, batch, q * r)
    if not keep_cols:
        col_x = None
    hs = np.zeros((p, length + 1, batch, q + 2 * a, r + 2 * b))
    cs = np.empty((p, length + 1, batch, q * r))
    cs[:, 0] = 0.0
    w_ci, w_cf, w_co = _peepholes(layer)
    w_cif = np.stack([w_ci, w_cf])
    col_h = np.empty((m * n * p, batch * q * r))
    zh = np.empty((4 * p, batch * q * r))
    tmp = np.empty((2, p, batch, q * r))
    mul, add = np.multiply, np.add
    for t in range(length):
        z = gates[:, :, t]
        if t > 0:  # W_h * H(t-1) vanishes on the zero initial state
            np.matmul(wh.T, _im2col(hs[:, t], m, n, 1, q, r, col_h), out=zh)
            z += zh.reshape(z.shape)
        gif, gi, gf, gc, go = z[:2], *z
        c_prev, c_new = cs[:, t], cs[:, t + 1]
        mul(w_cif, c_prev, out=tmp)
        add(gif, tmp, out=gif)
        sigmoid(gif, out=gif)                      # i, f = sigmoid(z + w_c . c_prev)
        np.tanh(gc, out=gc)                        # g = tanh(z_c)
        mul(gf, c_prev, out=c_new)
        mul(gi, gc, out=tmp[0])
        add(c_new, tmp[0], out=c_new)              # c_new = f . c_prev + i . g
        mul(w_co, c_new, out=tmp[0])
        add(go, tmp[0], out=go)
        sigmoid(go, out=go)                        # o = sigmoid(z_o + w_co . c_new)
        np.tanh(c_new, out=tmp[0])
        mul(go.reshape(p, batch, q, r), tmp[0].reshape(p, batch, q, r),
            out=hs[:, t + 1, :, a : a + q, b : b + r])   # h = o . tanh(c_new)
    return _LayerRun(layer, stride, wx, wh, xp.shape, col_x, gates, hs, cs)


def _layer_backward(run, dh_out, grads, need_dx):
    """BPTT through one layer run, adding its parameter gradients into `grads`,
    the layer's field -> array map of the gradient (see _layer).

    dh_out: (p, L', B, q', r') gradient w.r.t. the layer's last L' hidden
    states (L' = L when it returns sequences, else 1). Returns the gradient
    w.r.t. its unpadded input (c, L, B, H, W), or None unless need_dx.
    The run's gate buffer is overwritten with dz.
    """
    m, n, c_in, p = run.layer["w_xi"].shape
    a, b = m // 2, n // 2
    length, batch = run.cs.shape[1] - 1, run.cs.shape[2]
    q, r = run.out_dims
    w_ci, w_cf, w_co = _peepholes(run.layer)
    gates = run.gates
    col_h = np.empty((m * n * p, batch * q * r))
    dcol_h = np.empty((m * n * p, batch * q * r))
    dwh = np.zeros((m * n * p, 4 * p))
    dhp = np.empty((p, batch, q + 2 * a, r + 2 * b))
    dh, dc, dc_new, tanh_c, w1, w2 = (np.empty((p, batch, q * r)) for _ in range(6))
    dc.fill(0.0)
    dh4 = dh.reshape(p, batch, q, r)
    mul, add, sub = np.multiply, np.add, np.subtract
    lag = length - dh_out.shape[1]
    for t in range(length - 1, -1, -1):
        if t == length - 1:
            dh4[...] = dh_out[:, t - lag]
        elif t >= lag:
            add(dhp[..., a : a + q, b : b + r], dh_out[:, t - lag], out=dh4)
        else:
            dh4[...] = dhp[..., a : a + q, b : b + r]
        gi, gf, gc, go = gates[:, :, t]
        c_prev = run.cs[:, t]
        np.tanh(run.cs[:, t + 1], out=tanh_c)
        mul(dh, go, out=dc_new)
        mul(tanh_c, tanh_c, out=w2)
        sub(1.0, w2, out=w2)
        mul(dc_new, w2, out=dc_new)                # dh . o . (1 - tanh(c)^2)
        mul(dh, tanh_c, out=w1)
        mul(w1, go, out=w1)
        sub(1.0, go, out=w2)
        mul(w1, w2, out=go)                        # dz_o = dh . tanh(c) . o . (1 - o)
        add(dc_new, dc, out=dc_new)
        mul(go, w_co, out=w2)
        add(dc_new, w2, out=dc_new)                # dc = ... + dc_in + dz_o . w_co
        mul(dc_new, gf, out=dc)                    # dc_prev = dc . f + ...
        mul(dc_new, gc, out=w1)
        mul(w1, gi, out=w1)                        # dc . g . i
        mul(gc, gc, out=w2)
        sub(1.0, w2, out=w2)
        mul(dc_new, gi, out=gc)
        mul(gc, w2, out=gc)                        # dz_c = dc . i . (1 - g^2)
        sub(1.0, gi, out=w2)
        mul(w1, w2, out=gi)                        # dz_i = dc . g . i . (1 - i)
        mul(dc_new, c_prev, out=w1)
        mul(w1, gf, out=w1)
        sub(1.0, gf, out=w2)
        mul(w1, w2, out=gf)                        # dz_f = dc . c_prev . f . (1 - f)
        mul(gi, w_ci, out=w2)
        add(dc, w2, out=dc)
        mul(gf, w_cf, out=w2)
        add(dc, w2, out=dc)                        # ... + dz_i . w_ci + dz_f . w_cf
        dz = gates[:, :, t].reshape(4 * p, batch * q * r)
        if t > 0:
            dwh += _im2col(run.hs[:, t], m, n, 1, q, r, col_h) @ dz.T
            np.matmul(run.wh, dz, out=dcol_h)
            dhp.fill(0.0)
            _col2im(dcol_h, dhp, m, n, 1, q, r)

    dz_all = gates.reshape(4 * p, -1)
    dwx = run.col_x @ dz_all.T
    db = dwx[-1].reshape(4, p)  # the bias row of the input GEMM
    dwx = dwx[:-1].reshape(m, n, c_in, 4, p)
    dwh = dwh.reshape(m, n, p, 4, p)
    for k, g in enumerate(GATES):
        grads[f"b_{g}"] += db[k]
        grads[f"w_x{g}"] += dwx[:, :, :, k]
        grads[f"w_h{g}"] += dwh[:, :, :, k]
    dz_i, dz_f, _, dz_o = gates
    for g, dzg, cell in (("i", dz_i, run.cs[:, :-1]), ("f", dz_f, run.cs[:, :-1]),
                         ("o", dz_o, run.cs[:, 1:])):
        dpeep = np.einsum("plbk,plbk->pk", dzg, cell).reshape(p, q, r)
        grads[f"w_c{g}"] += dpeep.transpose(1, 2, 0)
    if not need_dx:
        return None
    hp, wp = run.in_shape[3:]
    dxp = _col2im(run.wx[:-1] @ dz_all, np.zeros(run.in_shape), m, n, run.stride, q, r)
    return dxp[..., a : hp - a, b : wp - b]


# --- full network ------------------------------------------------------------

def _branches(config):
    """(layer prefixes, strides) of each recurrent branch, in the head's feature
    order: each camera's ConvLSTM stack, then the state LSTM as one 1x1 layer."""
    n = len(config.conv_filters)
    branches = [([f"cam.{cam}.l{li}" for li in range(n)], config.conv_strides)
                for cam in config.cameras]
    if config.has_state_branch:
        branches.append((["lstm"], (1,)))
    return branches


def check_samples(config, frames):
    """The one rule for which DPMD sample frames a network of config can read:
    their dtype must hold its window length, image size and every camera."""
    if frames.shape[-1] != config.seq_len:
        raise ValueError(f"samples hold {frames.shape[-1]}-frame windows, network expects "
                         f"{config.seq_len}")
    n_stored, rows, cols = frames.dtype["images"].shape
    if (rows, cols) != (config.image_rows, config.image_cols):
        raise ValueError(f"sample images are {rows}x{cols}, network expects "
                         f"{config.image_rows}x{config.image_cols}")
    for cam in config.cameras:
        if cam not in CAMERA_ORDER[:n_stored]:
            raise ValueError(f"samples lack camera {cam!r}, which the network reads")


def inputs_from_samples(config, samples):
    """Each branch's core input from DPMD sample records, in _branches order.

    A camera's is (1, L, B, H+2a, W+2a) with a = conv_kernels[0] // 2: its
    uint8 storage bytes / 255 inside a zero border. The state branch's is
    (d, L, B, 1, 1): the float32 state values, with the action appended in
    images_state_action mode, in float64.
    """
    frames = np.asarray(samples)["frames"]
    if not len(frames):
        raise ValueError("empty sample batch")
    check_samples(config, frames)
    batch, length = frames.shape
    rows, cols = config.image_rows, config.image_cols
    a = config.conv_kernels[0] // 2
    inputs = []
    for cam in config.cameras:
        xp = np.zeros((1, length, batch, rows + 2 * a, cols + 2 * a))
        np.divide(frames["images"][:, :, CAMERA_ORDER.index(cam)].transpose(1, 0, 2, 3), 255.0,
                  out=xp[0, :, :, a : a + rows, a : a + cols])
        inputs.append(xp)
    if config.has_state_branch:
        columns = [frames["state"]]
        if config.input_mode == "images_state_action":
            columns.append(frames["action"][..., None])
        inputs.append(np.concatenate(columns, axis=2, dtype=np.float64).T[..., None, None])
    return inputs


def _masked(params, masks):
    """params with each mask multiplied into its named tensor, or params itself."""
    if not masks:
        return params
    return NetworkParams({name: t * masks[name] if name in masks else t
                          for name, t in params.tensors().items()})


def _blocks(n):
    """Slices of the consecutive BLOCK-sample blocks of an n-sample batch."""
    return [slice(lo, lo + BLOCK) for lo in range(0, n, BLOCK)]


def _forward_batch(params, config, inputs, cache=None):
    """Run the network on the branch inputs of inputs_from_samples; returns
    (B, 2) probabilities. A cache gets every layer run, branch by branch, in
    "runs" and the head's operands in "head"."""
    tensors = params.tensors()
    feats = []
    for (prefixes, strides), xp in zip(_branches(config), inputs):
        layers = [_layer(tensors, prefix) for prefix in prefixes]
        for li, (layer, stride) in enumerate(zip(layers, strides)):
            run = _layer_forward(layer, xp, stride, keep_cols=cache is not None)
            if cache is not None:
                cache["runs"].append(run)
            h_last = run.hidden(-1)
            if li + 1 < len(layers):  # every layer but the last hands on its whole sequence
                xp = _repad(run.hs[:, 1:], _kernel_pad(layer), _kernel_pad(layers[li + 1]))
            del run  # without a cache, frees the gates before the next layer runs
        h_out = _channels_last(h_last)
        feats.append(h_out.reshape(h_out.shape[0], -1))
    feat = np.concatenate(feats, axis=1)
    w_merge, w_out = tensors["head.w_merge"], tensors["head.w_out"]
    if feat.shape[1] != w_merge.shape[1]:
        raise ValueError(f"head expects {w_merge.shape[1]} features, got {feat.shape[1]}")
    act = feat @ w_merge.T + tensors["head.b_merge"]
    hidden = np.maximum(act, 0.0)
    logits = hidden @ w_out.T + tensors["head.b_out"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    probs = ez / ez.sum(axis=1, keepdims=True)
    if cache is not None:
        cache["head"] = (feat, act, hidden, w_merge, w_out)
    return probs


def dpm_forward_batch(params, config, samples, masks=None):
    """(B, 2) probabilities for a batch of sample records, run in BLOCK-sample
    blocks that share one masked copy of the weights."""
    samples = np.asarray(samples)
    if not len(samples):
        raise ValueError("empty sample batch")
    params = _masked(params, masks)

    def block(part):
        return _forward_batch(params, config, inputs_from_samples(config, samples[part]))

    return np.concatenate(thread_map(block, _blocks(len(samples))))


def dpm_forward(params, config, sample, masks=None):
    """Probabilities [P(collision), P(no collision)] for one sample record."""
    return dpm_forward_batch(params, config, np.asarray(sample)[None], masks)[0]


def zero_grads(params):
    return {name: np.zeros_like(t) for name, t in params.tensors().items()}


def _true_class(labels):
    """Softmax index of the true class: label 1 is collision, P(collision) is index 0."""
    return 1 - np.asarray(labels, dtype=np.int64)


def sample_losses(probs, labels):
    """Per-sample cross-entropy -ln P(true class), P clipped below at 1e-12."""
    picked = probs[np.arange(len(probs)), _true_class(labels)]
    return -np.log(np.clip(picked, 1e-12, None))


def dpm_gradients(params, config, samples, labels, masks=None):
    """Mean cross-entropy over the batch and exact BPTT gradients.

    labels: 1 = collision, 0 = no collision (see _true_class). Each block
    runs forward and backward on its own, its loss gradient scaled by the
    size of the whole batch; the blocks' gradients are summed in block order
    and the masks multiply the sum.
    """
    samples, labels = np.asarray(samples), np.asarray(labels)
    if len(samples) == 0:
        raise ValueError("empty sample batch")
    if len(labels) != len(samples):
        raise ValueError("labels must match samples")
    b = len(samples)
    masked = _masked(params, masks)

    def block(part):
        cache = {"runs": []}
        probs = _forward_batch(masked, config, inputs_from_samples(config, samples[part]), cache)
        grads = zero_grads(params)
        dlogits = probs.copy()
        dlogits[np.arange(len(probs)), _true_class(labels[part])] -= 1.0
        dlogits /= b

        feat, act, hidden, w_merge, w_out = cache["head"]
        grads["head.w_out"] += dlogits.T @ hidden
        grads["head.b_out"] += dlogits.sum(axis=0)
        dhidden = dlogits @ w_out
        dact = dhidden * (act > 0)
        grads["head.w_merge"] += dact.T @ feat
        grads["head.b_merge"] += dact.sum(axis=0)
        dfeat = dact @ w_merge

        runs = iter(cache["runs"])
        offset = 0
        for prefixes, _strides in _branches(config):
            branch = [next(runs) for _ in prefixes]
            p, batch, q, r = branch[-1].hidden(-1).shape  # the head reads the last state only
            d_out = dfeat[:, offset : offset + p * q * r].reshape(batch, q, r, p)
            d_out = d_out.transpose(3, 0, 1, 2)[:, None]  # (p, 1, B, q', r')
            offset += p * q * r
            for li in range(len(branch) - 1, -1, -1):
                # a branch's first input is its data sequence: its gradient is never used
                d_out = _layer_backward(branch[li], d_out, _layer(grads, prefixes[li]),
                                        need_dx=li > 0)
        return sample_losses(probs, labels[part]), grads

    parts = thread_map(block, _blocks(b))
    grads = parts[0][1]
    for _losses, more in parts[1:]:
        for name, g in more.items():
            grads[name] += g
    if masks:
        for name, m in masks.items():
            if name in grads:
                grads[name] *= m
    return float(np.concatenate([losses for losses, _ in parts]).mean()), grads
