"""Tensor-kernel contract tests against closed forms and a naive-loop oracle."""

import numpy as np
import pytest

from crashcast.network import sigmoid
from oracles import conv2d, dense, finite_diff_gradient, hadamard, pointwise, softmax


def conv2d_naive(x, k, stride):
    """Quadruple-loop reference convolution, same-padded and top-left anchored.

    Sums in (kernel-row, kernel-col, in-channel) order so the result is
    bit-identical to conv2d.
    """
    q, r, c_in = x.shape
    m, n, _, p = k.shape
    oq = -(-q // stride)
    orr = -(-r // stride)
    out = np.zeros((oq, orr, p))
    for i in range(oq):
        for j in range(orr):
            for f in range(p):
                acc = 0.0
                for u in range(m):
                    for v in range(n):
                        for c in range(c_in):
                            ii = i * stride + u - m // 2
                            jj = j * stride + v - n // 2
                            if 0 <= ii < q and 0 <= jj < r:
                                acc = acc + x[ii, jj, c] * k[u, v, c, f]
                out[i, j, f] = acc
    return out


def test_conv2d_identity_kernel():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    k = np.ones((1, 1, 1, 1))
    out = conv2d(x, k, stride=1)
    assert out.shape == (2, 2, 1)
    assert (out == x).all()


def test_conv2d_ones_padding_sums():
    x = np.ones((3, 3, 1))
    k = np.ones((3, 3, 1, 1))
    out = conv2d(x, k, stride=1)[:, :, 0]
    # zero padding: the centre sees all 9 ones, the corners see 4
    assert out[1, 1] == 9.0
    for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert out[i, j] == 4.0
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert out[i, j] == 6.0


def test_conv2d_strided_matches_naive_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 8, 2))
    k = rng.standard_normal((3, 3, 2, 4))
    out = conv2d(x, k, stride=2)
    assert out.shape == (4, 4, 4)
    assert (out == conv2d_naive(x, k, 2)).all()


@pytest.mark.parametrize("q,r,c_in", [(1, 1, 1), (2, 3, 1), (5, 5, 2), (8, 7, 2), (8, 8, 2)])
@pytest.mark.parametrize("m,n,p", [(1, 1, 1), (3, 3, 2), (1, 3, 3), (3, 1, 1)])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_exact_vs_naive(q, r, c_in, m, n, p, stride):
    rng = np.random.default_rng(q * 1000 + r * 100 + m * 10 + n + stride)
    x = rng.standard_normal((q, r, c_in))
    k = rng.standard_normal((m, n, c_in, p))
    assert (conv2d(x, k, stride) == conv2d_naive(x, k, stride)).all()


def test_conv2d_linearity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 6, 2))
    y = rng.standard_normal((6, 6, 2))
    k = rng.standard_normal((3, 3, 2, 3))
    a, b = 1.7, -0.4
    lhs = conv2d(a * x + b * y, k)
    rhs = a * conv2d(x, k) + b * conv2d(y, k)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ValueError):
        conv2d(np.zeros((4, 4, 2)), np.zeros((3, 3, 3, 1)))


def test_conv2d_even_kernel_raises():
    with pytest.raises(ValueError):
        conv2d(np.zeros((4, 4, 1)), np.zeros((2, 2, 1, 1)))


def test_pointwise_closed_forms():
    z = np.zeros((3, 2))
    assert (pointwise("sigmoid", z) == 0.5).all()
    assert (pointwise("tanh", z) == 0.0).all()
    assert (pointwise("relu", np.array([-1.0, 0.0, 2.0])) == [0.0, 0.0, 2.0]).all()


def test_sigmoid_symmetry_and_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        # open-interval range holds until float64 saturation near |x| ~ 37
        x = rng.standard_normal((4, 5)) * rng.uniform(0.1, 10)
        s = pointwise("sigmoid", x)
        assert ((s > 0) & (s < 1)).all()
        assert np.allclose(s + pointwise("sigmoid", -x), 1.0, atol=1e-12)
    big = rng.standard_normal((4, 5)) * 1e3
    assert np.allclose(pointwise("sigmoid", big) + pointwise("sigmoid", -big), 1.0, atol=1e-12)



def sigmoid_masked(x):
    """The two-branch logistic, selected with boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_form():
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             1e-300, -1e-300, 36.0, -36.0, 37.0, -37.0, 700.0, -700.0, 745.0, -745.0,
             800.0, -800.0, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(4)
    x = np.concatenate([edges, rng.standard_normal(100_000) * 50,
                        rng.standard_normal(100_000) * 800])
    nan = np.isnan(x)
    want = sigmoid_masked(x)
    for got in (sigmoid(x), sigmoid(x.copy(), out=np.empty_like(x))):
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
        assert np.isnan(got[nan]).all()
    inplace = x.copy()
    sigmoid(inplace, out=inplace)
    assert np.array_equal(inplace[~nan].view(np.int64), want[~nan].view(np.int64))

def test_pointwise_extreme_inputs_stay_finite():
    x = np.array([-1e4, -700.0, 700.0, 1e4])
    for kind in ("sigmoid", "tanh", "relu"):
        assert np.isfinite(pointwise(kind, x)).all()


def test_pointwise_unknown_kind():
    with pytest.raises(ValueError):
        pointwise("gelu", np.zeros(2))


def test_hadamard():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    assert (hadamard(a, np.ones_like(a)) == a).all()
    assert (hadamard(a, np.zeros_like(a)) == 0.0).all()
    assert (hadamard(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == [4.0, 10.0, 18.0]).all()
    with pytest.raises(ValueError):
        hadamard(np.zeros((2, 2)), np.zeros((2, 3)))


def test_dense():
    x = np.array([3.0, -1.0])
    assert (dense(np.eye(2), np.zeros(2), x) == x).all()
    assert (dense(np.zeros((2, 2)), np.array([1.0, 2.0]), x) == [1.0, 2.0]).all()
    rng = np.random.default_rng(9)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    v = rng.standard_normal(4)
    # naive dot-product oracle
    expect = np.array([sum(w[i, j] * v[j] for j in range(4)) + b[i] for i in range(3)])
    assert np.allclose(dense(w, b, v), expect, atol=1e-12)
    with pytest.raises(ValueError):
        dense(w, b, rng.standard_normal(5))


def test_softmax_closed_forms():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)
    out = softmax(np.array([np.log(2.0), 0.0]))
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    # shift invariance keeps huge inputs from overflowing
    big = softmax(np.array([1000.0, 1000.0]))
    assert np.isfinite(big).all()
    assert np.allclose(big, [0.5, 0.5], atol=1e-15)


def test_softmax_normalization_and_shift_invariance():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        k = rng.integers(2, 8)
        x = rng.standard_normal(k) * rng.uniform(0.01, 1e3)
        p = softmax(x)
        assert (p >= 0).all() and p[np.argmax(x)] > 0
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.allclose(p, softmax(x + 17.3), atol=1e-12)
    # strict positivity at ordinary magnitudes (no underflow)
    for _ in range(200):
        p = softmax(rng.standard_normal(4) * 10)
        assert (p > 0).all()


def test_finite_diff_gradient_sum():
    x = np.arange(6, dtype=float).reshape(2, 3)
    g = finite_diff_gradient(lambda t: float(np.sum(t)), x)
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_gradient_quadratic():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 4))
    g = finite_diff_gradient(lambda t: float(np.sum(t * t)), x, eps=1e-4)
    assert np.allclose(g, 2 * x, atol=1e-7)


def test_finite_diff_does_not_mutate_input():
    x = np.full((2, 2), 0.5)
    before = x.copy()
    finite_diff_gradient(lambda t: float(np.sum(t * t)), x)
    assert (x == before).all()


def test_kernel_ops_are_pure():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4, 2))
    k = rng.standard_normal((3, 3, 2, 2))
    xc, kc = x.copy(), k.copy()
    conv2d(x, k)
    pointwise("sigmoid", x)
    hadamard(x, x)
    softmax(x[0, :, 0])
    assert (x == xc).all() and (k == kc).all()
