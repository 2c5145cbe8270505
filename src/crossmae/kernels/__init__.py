"""The hot inner-loop kernels, in numpy.

All kernels operate on float64 C-contiguous arrays. 2-D inputs are treated
row-wise (softmax and layernorm normalize the last axis). Each kernel works
in place on the first temporary it allocates, and keeps the operation order
of the plain expression written in its docstring, so the results are the
same bits as that expression's.
"""
import numpy as np
from scipy.special import erf

BACKEND = "numpy"

INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu_fwd(x):
    """Exact (erf-based) GELU. Returns (y, cdf) with
    cdf = 0.5 * (1 + erf(x / sqrt 2)) and y = x * cdf; gelu_bwd reuses cdf."""
    cdf = erf(x * INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def gelu_bwd(x, cdf, gy):
    """d/dx of exact GELU times the upstream gradient, given gelu_fwd's cdf:
    gy * (cdf + x * exp(-0.5 * x * x) / sqrt(2 pi))."""
    t = x * x
    t *= -0.5
    np.exp(t, out=t)
    t *= INV_SQRT_2PI
    t *= x
    t += cdf
    t *= gy
    return t


def softmax_fwd(x):
    """Row softmax of a 2-D array, shifted for stability:
    e / e.sum(row) with e = exp(x - x.max(row))."""
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_bwd(y, gy):
    """Row-softmax backward given the forward output y:
    y * (gy - (gy * y).sum(row))."""
    t = gy * y
    dot = t.sum(axis=1, keepdims=True)
    np.subtract(gy, dot, out=t)
    t *= y
    return t


def layernorm_fwd(x, gain, bias, eps):
    """Row layernorm with affine scale/shift: xhat * gain + bias with
    xhat = (x - mu) / sqrt(var + eps), mu the row mean and var the row mean
    of (x - mu)**2, as numpy's x.var computes it.

    Returns (y, xhat, inv_std); xhat and inv_std are consumed by the backward.
    """
    xhat = x - x.mean(axis=1, keepdims=True)
    inv_std = np.square(xhat).mean(axis=1, keepdims=True)
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    y = xhat * gain
    y += bias
    return y, xhat, inv_std[:, 0]


def layernorm_bwd(xhat, inv_std, gain, gy):
    """Backward of layernorm_fwd. Returns (gx, ggain, gbias) with
    gxhat = gy * gain,
    gx = (gxhat - gxhat.mean(row) - xhat * (gxhat * xhat).mean(row)) * inv_std,
    ggain = (gy * xhat).sum(axis=0) and gbias = gy.sum(axis=0)."""
    gx = gy * gain
    m1 = gx.mean(axis=1, keepdims=True)
    t = gx * xhat
    m2 = t.mean(axis=1, keepdims=True)
    gx -= m1
    np.multiply(xhat, m2, out=t)
    gx -= t
    gx *= inv_std[:, None]
    np.multiply(gy, xhat, out=t)
    return gx, t.sum(axis=0), gy.sum(axis=0)


def adamw_update(param, grad, m, v, lr, beta1, beta2, eps, weight_decay, bias_c1, bias_c2):
    """Fused decoupled-weight-decay Adam step, in place on flat float64 arrays.

    bias_c1/bias_c2 are the precomputed 1 - beta^t correction terms.
    """
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / bias_c1
    vhat = v / bias_c2
    param -= lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * param)
