"""Kernel and classical CCA between unmasked and masked views.

The analysis scores a masking policy by how strongly the visible part of a
window predicts the hidden part: build per-window view features, reduce with
PCA, and take the top singular value of the whitened cross-covariance
sigma_1(Gamma), Gamma = S_uu^{-1/2} S_um S_mm^{-1/2}. PCA eigendecomposes the
smaller Gram of the centred features (n x n for fewer windows than features,
as in Sirovich's method of snapshots, Q. Appl. Math. 1987), so it never builds
a thin SVD's two factors only to keep k score columns. The sign of each score
column is whatever the eigensolver returns: sigma_1 does not read it, since
flipping a column of either view leaves Gamma's singular values unchanged.
The windows arrive as one (n, C, L) array and their masks as one (n, C, P)
array; the view features are the raw cells of each view, or, given a model
state, the mean patch-token latent of one frozen encoder pass over each view
(model.forward_frozen). kcca_solve gives the kernel counterpart, the top
regularized canonical correlation of two caller-built Gram matrices over the
same windows, both centred and both regularized by one gamma, in closed form
by the low-rank route of Bach & Jordan (JMLR 2002) and Hardoon, Szedmak &
Shawe-Taylor (Neural Computation 2004). Both return plain numbers: the
singular values and rho.
"""
from dataclasses import dataclass

import numpy as np

from .masking import POLICIES, sample_masks
from .model import ModelState, encode, forward_frozen
from .windows import patchify, standardize


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
            _check_symmetric(k, name)
            setattr(self, name, k)
        if self.k_u.shape != self.k_m.shape:
            raise ValueError("view Grams must share a shape")


def _check_symmetric(k: np.ndarray, name: str) -> None:
    """Raise unless the square k is finite and symmetric within 1e-10. Each
    128 x 128 tile is compared with its mirrored tile, so both reads stay in
    cache (k - k.T reads k column by column, about 5x slower at n = 5,000).
    A NaN or infinity leaves a NaN or infinite difference with its mirror."""
    n, tile = len(k), 128
    with np.errstate(invalid="ignore"):  # inf - inf
        for i in range(0, n, tile):
            for j in range(i, n, tile):
                d = np.abs(k[i:i + tile, j:j + tile] - k[j:j + tile, i:i + tile].T).max()
                if not d <= 1e-10:
                    raise ValueError(f"{name} not symmetric within 1e-10" if d > 1e-10
                                     else f"{name} holds a non-finite value")


def center_gram(k: np.ndarray) -> np.ndarray:
    """Double-center: HKH with H = I - (1/n) 1 1^T."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("center_gram needs a square matrix")
    out = k - k.mean(axis=0, keepdims=True)
    out -= k.mean(axis=1, keepdims=True)
    out += k.mean()
    return out


def _factor(k: np.ndarray, name: str) -> np.ndarray:
    """G with k = G^T G up to rounding, by pivoted Cholesky down to the floor
    n eps max(diag k) of numpy's matrix_rank. Pivots near the floor put
    rounding error into G: the residual diagonal of PSD, centred RBF Grams of
    full rank fell to -1.4e-9 max(diag k) at n = 50 to 500. So k counts as
    indefinite only when the residual S = k - G^T G breaks a PSD bound by more
    than tol = sqrt(floor max(diag k)), 3.3e-7 max(diag k) at n = 500: on
    its diagonal d, S_ii >= 0, and, since |S_ij| <= sqrt(S_ii S_jj), on one
    product with a fixed seeded x (not ones, which a centred k maps to 0),
    |S x| <= sqrt(d) (sqrt(d) . |x|). The product catches [[0, 1], [1, 0]],
    whose residual diagonal is 0."""
    n = k.shape[0]
    d = k.diagonal().copy()
    top = max(d.max(), 0.0)
    floor = n * np.finfo(np.float64).eps * top
    g = np.empty((min(n, 16), n))
    r, j = 0, int(d.argmax())
    while d[j] > floor:
        if r == len(g):  # double the rows: one copy per doubling, not per pivot
            g = np.vstack([g, np.empty((min(r, n - r), n))])
        g[r] = (k[j] - g[:r, j] @ g[:r]) / np.sqrt(d[j])
        d -= g[r] * g[r]
        d[j] = 0.0  # exactly zero; rounding must not make it a pivot again
        r, j = r + 1, int(d.argmax())
    g = g[:r]
    tol = np.sqrt(floor * top)
    x = np.random.default_rng(0).standard_normal(n)
    root = np.sqrt(np.maximum(d, 0.0))
    bound = root * (root @ np.abs(x)) + tol * np.abs(x).sum()
    # written so that NaN fails too
    if not (d.min() >= -tol and (np.abs(k @ x - g.T @ (g @ x)) <= bound).all()):
        eig = np.linalg.eigvalsh(k)
        raise ConditioningError(
            f"{name} indefinite beyond tolerance: min eigenvalue {eig[0]:.6e} "
            f"against max {eig[-1]:.6e}")
    return g


def kcca_solve(grams: ViewGrams, gamma: float) -> float:
    """Top regularized kernel canonical correlation of the centred Grams,
    rho = sigma_max(R_U^{-1/2} K_U K_M R_M^{-1/2}) with R = K^2 + gamma K + eps I
    and eps = 1e-8 tr(K^2 + gamma K) / n + 1e-12, one gamma for both views.
    The thin SVD of each centred Gram's factor gives K = Q diag(lam) Q^T, so
    R^{-1/2} K = A Q^T with A = Q diag(lam / sqrt(lam^2 + gamma lam + eps)),
    and rho is the top singular value of A_U^T A_M. ConditioningError names
    the eigenvalues of a centred Gram that is not positive semi-definite."""
    if not gamma > 0:
        raise ValueError("regularizer must be > 0")
    bases = []
    for k, name in ((grams.k_u, "K_U"), (grams.k_m, "K_M")):
        k = center_gram(k)
        q, s, _ = np.linalg.svd(_factor(k, name).T, full_matrices=False)
        lam = s * s
        r = lam * lam + gamma * lam
        bases.append(q * (lam / np.sqrt(r + 1e-8 * r.sum() / len(k) + 1e-12)))
    a_u, a_m = bases
    if not (a_u.shape[1] and a_m.shape[1]):
        return 0.0
    return float(np.linalg.svd(a_u.T @ a_m, compute_uv=False)[0])


def pca_reduce(features: np.ndarray, k: int) -> np.ndarray:
    """Column-center and project onto the top-k principal directions: the
    (n, k) scores, largest variance first, each column's sign arbitrary.

    The directions come from the eigendecomposition of the smaller Gram of
    the centred features xc, not from a thin SVD. With more features than
    rows, q > n (the method of snapshots), the top eigenvectors u_j of
    xc xc^T, with eigenvalues s_j^2, give the directions v_j = xc^T u_j / s_j
    and the scores xc v_j = s_j u_j, so nothing is divided: past the
    numerical rank s_j is rounding noise, and so are the scores. Otherwise
    the top eigenvectors of xc^T xc are the directions. A Gram that
    overflows raises a ValueError.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-D (n, q)")
    n, q = x.shape
    if not 1 <= k <= min(n, q):
        raise ValueError(f"k={k} out of range for {n}x{q} features")
    xc = x - x.mean(axis=0, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = xc @ xc.T if n < q else xc.T @ xc
    if not np.isfinite(gram).all():
        raise ValueError(f"the Gram of the centred {n}x{q} features is not finite")
    lam, u = np.linalg.eigh(gram)  # ascending
    if n < q:
        return u[:, :-k - 1:-1] * np.sqrt(np.maximum(lam[:-k - 1:-1], 0.0))
    return xc @ u[:, :-k - 1:-1]


def _inv_sqrt(s: np.ndarray, name: str) -> np.ndarray:
    d = s.shape[0]
    s = s + np.eye(d) * (1e-8 * np.trace(s) / d)
    vals, vecs = np.linalg.eigh(s)
    # written so that NaN fails too
    if not vals[0] > 0:
        raise ConditioningError(
            f"{name} not positive definite after jitter: min eigenvalue {vals[0]:.6e}")
    return (vecs / np.sqrt(vals)) @ vecs.T


def cca_sigma(s_uu: np.ndarray, s_mm: np.ndarray, s_um: np.ndarray) -> np.ndarray:
    """Singular values of Gamma = S_uu^{-1/2} S_um S_mm^{-1/2}, largest first,
    from the within-view and cross-view covariances."""
    wu = _inv_sqrt(np.asarray(s_uu, dtype=np.float64), "S_UU")
    wm = _inv_sqrt(np.asarray(s_mm, dtype=np.float64), "S_MM")
    gamma = wu @ np.asarray(s_um, dtype=np.float64) @ wm
    return np.linalg.svd(gamma, compute_uv=False)


def _raw_view_features(values: np.ndarray, shown: np.ndarray, patch_len: int) -> np.ndarray:
    """(n, C * P * patch_len) features of one view: the (n, C, L) windows
    trimmed to P * patch_len samples, every cell of a patch the (n, C, P)
    view mask does not show zeroed, each window flattened."""
    p_n = shown.shape[-1]
    cells = np.repeat(shown, patch_len, axis=-1)
    return np.where(cells, values[..., :p_n * patch_len], 0.0).reshape(len(values), -1)


def _model_view_features(state: ModelState, grids: np.ndarray, hides: np.ndarray) -> np.ndarray:
    """(n, D) features of one view: the mean patch-token latent of a frozen
    encoder pass over the (n, C, P, L_p) grids with the (n, C, P) masks
    hides (True = hidden). The class row is dropped, so only the patch rows
    query the encoder's last block (model.forward_frozen)."""
    n_shown = np.count_nonzero(~hides[0])
    patch_rows = np.broadcast_to(np.arange(1, n_shown + 1), (len(grids), n_shown))
    return forward_frozen(state, encode, grids, hides, lambda w: w.mean(axis=1), patch_rows)


def sigma1_experiment(values, state: ModelState | None = None, *, pca_k: int, seed: int,
                      ratio: float, patch_len: int) -> dict:
    """sigma_1 of the unmasked/masked view cross-covariance under each
    policy, over the (n, C, L) windows: {CROSS: sigma_1, SYNC: sigma_1}.

    Child i of SeedSequence(seed).spawn(n) seeds window i's mask under each
    policy, so both policies draw from the same n seeds. Each child's
    generator is seeded once and serves both policies: its fresh state is
    kept and restored before the second policy's draw (masking.sample_masks),
    so each policy's masks are those of a generator just built from the
    child, without hashing each seed twice. The view features
    are raw cells when state is None, else the encoder latents of state;
    then state.arch sets the patch length, the patch_len argument is
    ignored, and the windows are standardized and patchified once for both
    policies. Both feature sets are PCA-reduced (k clipped to min(n, q) - 1)
    and the whitened cross-covariance's top singular value comes from
    cca_sigma.
    """
    if len(values) == 0:
        raise ValueError("sigma1_experiment needs a non-empty dataset")
    if state is not None:
        patch_len = state.arch.patch_len
        grids = patchify(standardize(values), patch_len)
    n, c_n, length = values.shape
    p_n = length // patch_len
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]
    fresh = [rng.bit_generator.state for rng in rngs]
    sigma1 = {}
    for i, policy in enumerate(POLICIES):
        if i:
            for rng, start in zip(rngs, fresh):
                rng.bit_generator.state = start
        masks = sample_masks(policy, c_n, p_n, ratio, rngs)
        if state is None:
            f_u = _raw_view_features(values, ~masks, patch_len)
            f_m = _raw_view_features(values, masks, patch_len)
        else:
            # The unmasked view shows the encoder the visible cells; the masked
            # view shows it the hidden ones.
            f_u, f_m = (_model_view_features(state, grids, hides) for hides in (masks, ~masks))
        k = min(pca_k, min(n, f_u.shape[1]) - 1, min(n, f_m.shape[1]) - 1)
        if k < 1:
            raise ValueError("dataset too small for PCA reduction")
        z_u = pca_reduce(f_u, k)
        z_m = pca_reduce(f_m, k)
        sigma1[policy] = float(cca_sigma(z_u.T @ z_u / n, z_m.T @ z_m / n,
                                         z_u.T @ z_m / n)[0])
    return sigma1
