"""Kernel and classical CCA between unmasked and masked views.

The analysis scores a masking policy by how strongly the visible part of a
window predicts the hidden part: build per-window view features, reduce with
PCA, and take the top singular value of the whitened cross-covariance
sigma_1(Gamma), Gamma = S_uu^{-1/2} S_um S_mm^{-1/2}. The view features are
the raw cells of each view, or, given a model state, the mean encoder latent
of each view (model.forward_frozen). kcca_solve gives the kernel
counterpart, the top regularized canonical correlation of two caller-built
Gram matrices over the same windows. Both solvers return plain numbers: the
singular values and rho. Only kcca_solve needs scipy.linalg, and it imports
it when called, so the policy analysis runs without loading scipy.
"""
from dataclasses import dataclass

import numpy as np

from .masking import MaskMatrix, sample_mask
from .model import ModelState, encode, forward_frozen
from .windows import SensorWindow, as_generator, patchify, standardize

POWER_ITERS = 300
POWER_TOL = 1e-12
POWER_SEED = 12345


class ConditioningError(RuntimeError):
    """A Gram or covariance matrix is not usable even after regularization."""


@dataclass
class ViewGrams:
    """Unmasked-view and masked-view Gram matrices over the same n windows."""

    k_u: np.ndarray
    k_m: np.ndarray

    def __post_init__(self):
        for name, k in (("k_u", self.k_u), ("k_m", self.k_m)):
            k = np.asarray(k, dtype=np.float64)
            if k.ndim != 2 or k.shape[0] != k.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.abs(k - k.T).max() > 1e-10:
                raise ValueError(f"{name} not symmetric within 1e-10")
            setattr(self, name, k)
        if self.k_u.shape != self.k_m.shape:
            raise ValueError("view Grams must share a shape")


def center_gram(k: np.ndarray) -> np.ndarray:
    """Double-center: HKH with H = I - (1/n) 1 1^T."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("center_gram needs a square matrix")
    row = k.mean(axis=0, keepdims=True)
    col = k.mean(axis=1, keepdims=True)
    return k - row - col + k.mean()


def _regularized(k: np.ndarray, gamma: float) -> np.ndarray:
    n = k.shape[0]
    r = k @ k + gamma * k
    r.flat[::n + 1] += 1e-8 * np.trace(r) / n + 1e-12
    return r


def _chol_or_raise(r: np.ndarray, k: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(k)
        raise ConditioningError(
            f"{name} indefinite beyond tolerance: min eigenvalue {eig[0]:.6e} "
            f"against max {eig[-1]:.6e}") from None


def kcca_solve(grams: ViewGrams, gamma_u: float, gamma_m: float, centered: bool) -> float:
    """Top regularized kernel canonical correlation.

    Stationary system K_U K_M beta = rho (K_U^2 + gamma_U K_U) alpha and
    symmetrically for beta. Whitening both regularizers by Cholesky turns it
    into an ordinary symmetric eigenproblem; the top eigenvalue is rho^2 and
    is found by power iteration with a fixed-seed start vector.
    """
    from scipy.linalg import cho_solve, solve_triangular

    if not (gamma_u > 0 and gamma_m > 0):
        raise ValueError("regularizers must be > 0")
    k_u, k_m = grams.k_u, grams.k_m
    if centered:
        k_u, k_m = center_gram(k_u), center_gram(k_m)
    n = k_u.shape[0]
    r_u = _regularized(k_u, gamma_u)
    r_m = _regularized(k_m, gamma_m)
    l_u = _chol_or_raise(r_u, k_u, "K_U")
    l_m = _chol_or_raise(r_m, k_m, "K_M")
    cross = k_u @ k_m

    def apply(w):
        x = solve_triangular(l_u, w, trans="T", lower=True)
        y = cho_solve((l_m, True), cross.T @ x)
        return solve_triangular(l_u, cross @ y, lower=True)

    w = as_generator(POWER_SEED).standard_normal(n)
    w /= np.linalg.norm(w)
    lam = 0.0
    for _ in range(POWER_ITERS):
        w_next = apply(w)
        lam_next = np.linalg.norm(w_next)
        if lam_next <= 0.0:
            lam = 0.0
            break
        w_next /= lam_next
        done = abs(lam_next - lam) < POWER_TOL * max(1.0, lam_next)
        lam, w = lam_next, w_next
        if done:
            break
    return float(np.sqrt(max(lam, 0.0)))


def pca_reduce(features: np.ndarray, k: int) -> np.ndarray:
    """Column-center and project onto the top-k right singular vectors.

    Each component's sign is fixed so its largest-magnitude loading is
    positive, making the scores reproducible across LAPACK builds.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D (n, q)")
    n, q = x.shape
    if not 1 <= k <= min(n, q):
        raise ValueError(f"k={k} out of range for {n}x{q} features")
    xc = x - x.mean(axis=0, keepdims=True)
    u, s, vt = np.linalg.svd(xc, full_matrices=False)
    flip = np.sign(vt[np.arange(vt.shape[0]), np.abs(vt).argmax(axis=1)])
    flip[flip == 0] = 1.0
    return xc @ (vt[:k] * flip[:k, None]).T


def _inv_sqrt(s: np.ndarray, name: str) -> np.ndarray:
    d = s.shape[0]
    s = s + np.eye(d) * (1e-8 * np.trace(s) / d)
    vals, vecs = np.linalg.eigh(s)
    if vals[0] <= 0:
        raise ConditioningError(
            f"{name} not positive definite after jitter: min eigenvalue {vals[0]:.6e}")
    return (vecs / np.sqrt(vals)) @ vecs.T


def cca_sigma(s_uu: np.ndarray, s_mm: np.ndarray, s_um: np.ndarray) -> np.ndarray:
    """Singular values of Gamma = S_uu^{-1/2} S_um S_mm^{-1/2}, largest first,
    from the within-view and cross-view covariances."""
    wu = _inv_sqrt(np.asarray(s_uu, dtype=np.float64), "S_UU")
    wm = _inv_sqrt(np.asarray(s_mm, dtype=np.float64), "S_MM")
    gamma = wu @ np.asarray(s_um, dtype=np.float64) @ wm
    # The full decomposition, not compute_uv=False: LAPACK's values-only path
    # rounds differently, and sigma1.csv is part of the byte-identical runs.
    return np.linalg.svd(gamma)[1]


def _raw_view_features(window: SensorWindow, bits: np.ndarray, keep: int, patch_len: int) -> np.ndarray:
    """The C x L window, every cell whose mask bit is not keep zeroed, flattened."""
    c_n, p_n = bits.shape
    vals = window.values[:, :p_n * patch_len]
    cell_keep = np.repeat(bits == keep, patch_len, axis=1)
    return np.where(cell_keep, vals, 0.0).ravel()


def _encoded_view_features(state: ModelState, grids, masks) -> np.ndarray:
    """(n, D) mean patch-token latents of each window's visible view."""
    feats = []
    for chunk, latents in forward_frozen(state, encode, grids, masks):
        blocks = latents.reshape(chunk.stop - chunk.start, -1, latents.shape[1])
        feats.append(blocks[:, 1:].mean(axis=1))  # patch tokens only, class row dropped
    return np.concatenate(feats)


def sigma1_experiment(dataset, policy: str, state: ModelState | None = None, pca_k: int = 50,
                      seed: int = 0, ratio: float = 0.15, patch_len: int = 20) -> float:
    """sigma_1 of the unmasked/masked view cross-covariance under one policy.

    Every window gets its own mask draw. The view features are raw cells when
    state is None, else the encoder latents of state (whose arch sets the
    patch length); both feature sets are PCA-reduced (k clipped to
    min(n, q) - 1) and the whitened cross-covariance's top singular value
    comes from cca_sigma.
    """
    if not dataset:
        raise ValueError("sigma1_experiment needs a non-empty dataset")
    if state is not None:
        patch_len = state.arch.patch_len
    c_n, length = dataset[0].values.shape
    p_n = length // patch_len
    children = np.random.SeedSequence(seed).spawn(len(dataset))
    masks = [sample_mask(policy, c_n, p_n, ratio, child) for child in children]
    if state is None:
        f_u = np.stack([_raw_view_features(w, m.bits, 0, patch_len)
                        for w, m in zip(dataset, masks)])
        f_m = np.stack([_raw_view_features(w, m.bits, 1, patch_len)
                        for w, m in zip(dataset, masks)])
    else:
        # The unmasked view shows the encoder the visible cells; the masked
        # view shows it the hidden ones.
        grids = [patchify(standardize(w), patch_len) for w in dataset]
        f_u = _encoded_view_features(state, grids, masks)
        f_m = _encoded_view_features(state, grids, [MaskMatrix(1 - m.bits) for m in masks])
    n = f_u.shape[0]
    k = min(pca_k, min(n, f_u.shape[1]) - 1, min(n, f_m.shape[1]) - 1)
    if k < 1:
        raise ValueError("dataset too small for PCA reduction")
    z_u = pca_reduce(f_u, k)
    z_m = pca_reduce(f_m, k)
    return float(cca_sigma(z_u.T @ z_u / n, z_m.T @ z_m / n, z_u.T @ z_m / n)[0])
