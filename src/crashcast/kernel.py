"""Minimal dense-array numerics: the network's sigmoid and the test oracles.

Tensors are float64 C-order numpy arrays with a fixed dimension order of
rows x cols x channels (x filters for convolution kernels).  Every function
here is pure: inputs are never mutated and outputs are fresh arrays, except
where sigmoid is given an `out` array.

conv2d accumulates in a fixed (kernel-row, kernel-col, in-channel) order so
that its output is bit-identical to a naive quadruple-loop convolution that
sums in the same order; the gradient-check and transcription oracles in the
test suite rely on this.
"""

import numpy as np


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


def sigmoid(x, out=None):
    """Numerically stable logistic function, optionally written into `out`.

    With e = exp(-|x|) this is where(x >= 0, 1, e) / (1 + e): 1 / (1 + exp(-x))
    for x >= 0 and exp(x) / (1 + exp(x)) below, bit for bit, with no boolean
    mask. The numerator is formed as exp(min(x, 0)), which equals
    where(x >= 0, 1, e) exactly and is cheaper than a select. `out` may be x
    itself.
    """
    x = np.asarray(x, dtype=np.float64)
    den = np.copysign(x, -1.0, out=np.empty_like(x))  # -|x|
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(num, out=num)
    num /= den
    return num


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
