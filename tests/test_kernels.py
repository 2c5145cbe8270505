"""The numpy kernels: exact agreement with their plain formulas, plus the
fused AdamW update oracle."""

import numpy as np
import pytest
from scipy.special import erf

from crossmae import kernels

RNG = np.random.default_rng(123)
X = RNG.standard_normal((37, 29))
GY = RNG.standard_normal((37, 29))
GAIN = RNG.standard_normal(29) + 1.5
BIAS = RNG.standard_normal(29)
# Rows of very different scale and offset, a constant row and exact zeros of
# both signs: the in-place kernels must match the plain formulas on them too.
EDGE = np.vstack([RNG.standard_normal((4, 29)) * 1e3 + 50.0,
                  RNG.standard_normal((4, 29)) * 1e-3,
                  np.full((1, 29), 4.2),
                  np.r_[np.zeros(14), -np.zeros(15)][None, :]])
EDGE_GY = RNG.standard_normal(EDGE.shape)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# The kernels as plain expressions, in the form they had before they were
# rewritten to work in place.
def _gelu_fwd_formula(x):
    return 0.5 * x * (1.0 + erf(x * kernels.INV_SQRT2))


def _gelu_bwd_formula(x, gy):
    cdf = 0.5 * (1.0 + erf(x * kernels.INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * kernels.INV_SQRT_2PI
    return gy * (cdf + x * pdf)


def _softmax_fwd_formula(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_bwd_formula(y, gy):
    dot = (gy * y).sum(axis=1, keepdims=True)
    return y * (gy - dot)


def _layernorm_fwd_formula(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return xhat * gain + bias, xhat, inv_std[:, 0]


def _layernorm_bwd_formula(xhat, inv_std, gain, gy):
    gxhat = gy * gain
    m1 = gxhat.mean(axis=1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
    gx = (gxhat - m1 - xhat * m2) * inv_std[:, None]
    return gx, (gy * xhat).sum(axis=0), gy.sum(axis=0)


@pytest.mark.parametrize("x,gy", [(X, GY), (EDGE, EDGE_GY), (X[:1], GY[:1])])
def test_kernels_match_their_formulas_bit_for_bit(x, gy):
    x_before, gy_before = x.copy(), gy.copy()
    y, cdf = kernels.gelu_fwd(x)
    _same_bits(y, _gelu_fwd_formula(x))
    _same_bits(cdf, 0.5 * (1.0 + erf(x * kernels.INV_SQRT2)))
    _same_bits(kernels.gelu_bwd(x, cdf, gy), _gelu_bwd_formula(x, gy))

    s = kernels.softmax_fwd(x)
    _same_bits(s, _softmax_fwd_formula(x))
    _same_bits(kernels.softmax_bwd(s, gy), _softmax_bwd_formula(s, gy))

    gain, bias = GAIN[:x.shape[1]], BIAS[:x.shape[1]]
    got = kernels.layernorm_fwd(x, gain, bias, 1e-5)
    want = _layernorm_fwd_formula(x, gain, bias, 1e-5)
    for g, w in zip(got, want):
        _same_bits(g, w)
    xhat, inv_std = want[1], want[2]
    for g, w in zip(kernels.layernorm_bwd(xhat, inv_std, gain, gy),
                    _layernorm_bwd_formula(xhat, inv_std, gain, gy)):
        _same_bits(g, w)
    # no kernel writes to its inputs
    _same_bits(x, x_before)
    _same_bits(gy, gy_before)
    _same_bits(cdf, 0.5 * (1.0 + erf(x * kernels.INV_SQRT2)))


def test_active_backend_is_declared():
    assert kernels.BACKEND == "numpy"
    assert callable(kernels.gelu_fwd)


def test_adamw_matches_hand_computed_step():
    p = np.array([0.0])
    g = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    lr, b1, b2, eps = 0.1, 0.9, 0.95, 1e-8
    kernels.adamw_update(p, g, m, v, lr, b1, b2, eps, 0.0, 1 - b1, 1 - b2)
    mhat = (1 - b1) * 1.0 / (1 - b1)
    vhat = (1 - b2) * 1.0 / (1 - b2)
    assert abs(p[0] - (-lr * mhat / (np.sqrt(vhat) + eps))) < 1e-15
    assert abs(m[0] - (1 - b1)) < 1e-15 and abs(v[0] - (1 - b2)) < 1e-15


def test_adamw_zero_grad_pure_decay():
    p = np.array([1.0, -2.0])
    g = np.zeros(2)
    m = np.zeros(2)
    v = np.zeros(2)
    kernels.adamw_update(p, g, m, v, 0.1, 0.9, 0.95, 1e-8, 0.05, 0.1, 0.05)
    assert np.max(np.abs(p - np.array([0.995, -1.99]))) < 1e-15

    p2 = np.array([3.0])
    kernels.adamw_update(p2, np.zeros(1), np.zeros(1), np.zeros(1),
                         0.1, 0.9, 0.95, 1e-8, 0.0, 0.1, 0.05)
    assert p2[0] == 3.0


def test_fallback_softmax_rows_sum_to_one():
    y = kernels.softmax_fwd(X)
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(y > 0)


def test_fallback_layernorm_rows_standardized():
    y, xhat, inv_std = kernels.layernorm_fwd(X, np.ones(29), np.zeros(29), 1e-5)
    assert np.max(np.abs(y.mean(axis=1))) < 1e-12
    assert np.max(np.abs(xhat - y)) == 0.0
    assert inv_std.shape == (37,)
