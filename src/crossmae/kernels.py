"""The hot inner-loop kernels, in numpy.

All kernels operate on float64 C-contiguous arrays. 2-D inputs are treated
row-wise (softmax and layernorm normalize the last axis). Each kernel works
in place on the first temporary it allocates, and keeps the operation order
of the plain expression written in its docstring.

A row or column sum is one BLAS GEMV against a cached read-only ones vector
(row_sums, col_sums): on (784, 13) to (3,136, 49) arrays it ran 3-7x
faster than ndarray.sum along either axis (one BLAS thread). A row mean is a
row sum divided in place by the row length. The GEMV adds in its own order,
so softmax_fwd, softmax_bwd, layernorm_fwd and layernorm_bwd match their
expressions within the summation bound, n * eps * sum(|terms|) for a sum of
n terms, not bit for bit. gelu_fwd, gelu_bwd and adamw_update take no sums
and give the same bits as their expressions.

adamw_update updates the optimizer's flat parameter and moment buffers in
place, reading the gradient that backward wrote into AdamWState.grad. Every
other kernel returns fresh arrays and leaves its inputs as they were.

gelu_fwd imports erf from scipy.special when called, not with this module:
loading scipy is most of the time `import crossmae.cli` takes, and a
process that never runs the model (synth, raw-feature analyze, a rejected
config) need not pay it.
"""
import functools

import numpy as np

BACKEND = "numpy"

INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@functools.cache
def _ones(n):
    """A read-only vector of n ones, built once per length."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def row_sums(x):
    """The row sums of a 2-D array, x.sum(axis=1), as one BLAS GEMV."""
    return x @ _ones(x.shape[1])


def col_sums(x):
    """The column sums of a 2-D array, x.sum(axis=0), as one BLAS GEMV."""
    return _ones(x.shape[0]) @ x


def gelu_fwd(x):
    """Exact (erf-based) GELU. Returns (y, cdf) with
    cdf = 0.5 * (1 + erf(x / sqrt 2)) and y = x * cdf; gelu_bwd reuses cdf."""
    from scipy.special import erf
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
    e /= row_sums(e)[:, None]
    return e


def softmax_bwd(y, gy):
    """Row-softmax backward given the forward output y:
    y * (gy - (gy * y).sum(row))."""
    t = gy * y
    np.subtract(gy, row_sums(t)[:, None], out=t)
    t *= y
    return t


def layernorm_fwd(x, gain, bias, eps):
    """Row layernorm with affine scale/shift: xhat * gain + bias with
    xhat = (x - mu) / sqrt(var + eps), mu the row mean and var the row mean
    of (x - mu)**2, as numpy's x.var computes it.

    Returns (y, xhat, inv_std); xhat and inv_std are consumed by the backward.
    """
    n = x.shape[1]
    mu = row_sums(x)
    mu /= n
    xhat = x - mu[:, None]
    inv_std = row_sums(np.square(xhat))
    inv_std /= n
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std[:, None]
    y = xhat * gain
    y += bias
    return y, xhat, inv_std


def layernorm_bwd(xhat, inv_std, gain, gy):
    """Backward of layernorm_fwd. Returns (gx, ggain, gbias) with
    gxhat = gy * gain,
    gx = (gxhat - gxhat.mean(row) - xhat * (gxhat * xhat).mean(row)) * inv_std,
    ggain = (gy * xhat).sum(axis=0) and gbias = gy.sum(axis=0)."""
    n = gy.shape[1]
    gx = gy * gain
    m1 = row_sums(gx)
    m1 /= n
    t = gx * xhat
    m2 = row_sums(t)
    m2 /= n
    gx -= m1[:, None]
    np.multiply(xhat, m2[:, None], out=t)
    gx -= t
    gx *= inv_std[:, None]
    np.multiply(gy, xhat, out=t)
    return gx, col_sums(t), col_sums(gy)


def adamw_update(param, grad, m, v, lr, beta1, beta2, eps, weight_decay, bias_c1, bias_c2):
    """Fused decoupled-weight-decay Adam step, in place on flat float64 arrays.

    bias_c1/bias_c2 are the precomputed 1 - beta^t correction terms. The
    update is, in this operation order,
    m = beta1 * m + (1 - beta1) * grad, v = beta2 * v + (1 - beta2) * grad * grad,
    param -= lr * (m / bias_c1 / (sqrt(v / bias_c2) + eps) + weight_decay * param),
    worked through two scratch arrays of the flat size.
    """
    s = np.multiply(grad, 1.0 - beta1)
    m *= beta1
    m += s
    np.multiply(grad, 1.0 - beta2, out=s)
    s *= grad
    v *= beta2
    v += s
    t = np.divide(v, bias_c2)
    np.sqrt(t, out=t)
    t += eps
    np.divide(m, bias_c1, out=s)
    s /= t
    np.multiply(param, weight_decay, out=t)
    s += t
    s *= lr
    param -= s
