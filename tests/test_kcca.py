"""Gram centering, (K)CCA solvers, PCA, and the sigma_1 experiment."""

import warnings

import numpy as np
import pytest

from crossmae import kcca
from crossmae.kcca import (ConditioningError, ViewGrams, cca_sigma, center_gram, kcca_solve,
                           pca_reduce, sigma1_experiment)
from crossmae.masking import POLICIES, sample_mask
from crossmae.model import ArchSpec, init_model
from crossmae.windows import SynthSpec, generate_windows


def test_center_gram_examples():
    assert np.max(np.abs(center_gram(np.ones((5, 5))))) < 1e-12
    rng = np.random.default_rng(6)
    x = rng.standard_normal((7, 3))
    k = x @ x.T
    c = center_gram(k)
    assert np.max(np.abs(c.sum(axis=0))) < 1e-10
    assert np.max(np.abs(center_gram(c) - c)) < 1e-10


def test_kcca_identical_views_is_perfectly_correlated():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 3))
    k = x @ x.T
    rho = kcca_solve(ViewGrams(k, k.copy()), 1e-6)
    assert rho >= 0.999


def test_kcca_permutation_null_stays_low():
    rng = np.random.default_rng(8)
    n = 200
    x = rng.standard_normal((n, 5))
    y = rng.standard_normal((n, 5))
    k_u, k_m = x @ x.T, y @ y.T
    rhos = []
    for s in range(200):
        perm = np.random.default_rng([77, s]).permutation(n)
        shuffled = k_m[np.ix_(perm, perm)]
        rhos.append(kcca_solve(ViewGrams(k_u, shuffled), 1e-2))
    assert np.quantile(rhos, 0.95) < 0.35


def test_kcca_invariant_under_simultaneous_permutation():
    rng = np.random.default_rng(9)
    n = 30
    z = rng.standard_normal((n, 2))
    x = z + 0.3 * rng.standard_normal((n, 2))
    y = z + 0.3 * rng.standard_normal((n, 2))
    k_u, k_m = x @ x.T, y @ y.T
    base = kcca_solve(ViewGrams(k_u, k_m), 1e-3)
    perm = rng.permutation(n)
    moved = kcca_solve(ViewGrams(k_u[np.ix_(perm, perm)], k_m[np.ix_(perm, perm)]), 1e-3)
    assert abs(base - moved) < 1e-8


def test_kcca_rho_of_related_views_is_a_correlation():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((25, 3))
    y = x @ rng.standard_normal((3, 3)) + 0.1 * rng.standard_normal((25, 3))
    grams = ViewGrams(x @ x.T, y @ y.T)
    rho = kcca_solve(grams, 1e-3)
    assert 0.0 <= rho <= 1.0 + 1e-10


def _exact_rho(k_u, k_m, gamma):
    """sigma_max(R_U^{-1/2} K_U K_M R_M^{-1/2}) of the centred Grams, with
    R = K^2 + gamma K + eps I and eps = 1e-8 tr(K^2 + gamma K) / n + 1e-12,
    from full eigendecompositions."""
    def whiten(k):  # R^{-1/2} K, symmetric
        lam, q = np.linalg.eigh(center_gram(k))
        r = lam * lam + gamma * lam
        return (q * (lam / np.sqrt(r + 1e-8 * r.sum() / len(lam) + 1e-12))) @ q.T
    return np.linalg.svd(whiten(k_u) @ whiten(k_m), compute_uv=False)[0]


def _related_grams(kind, n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 2))
    x = np.hstack([z, rng.standard_normal((n, 3))]) + 0.5 * rng.standard_normal((n, 5))
    y = np.hstack([z @ rng.standard_normal((2, 2)), rng.standard_normal((n, 2))])
    y += 0.5 * rng.standard_normal((n, 4))
    if kind == "linear":
        return x @ x.T, y @ y.T

    def rbf(a):
        sq = (a * a).sum(axis=1)
        k = np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2.0 * a @ a.T, 0.0) / (2 * a.shape[1]))
        return (k + k.T) / 2

    return rbf(x), rbf(y)


@pytest.mark.parametrize("gamma", [1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("n", [200, 320])
@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_kcca_matches_the_exact_definition(kind, n, gamma):
    # The linear Grams have rank 5; the centred RBF Grams have full rank
    # apart from the constant direction centring removes.
    k_u, k_m = _related_grams(kind, n)
    rho = kcca_solve(ViewGrams(k_u, k_m), gamma)
    assert abs(rho - _exact_rho(k_u, k_m, gamma)) < 1e-9


def test_kcca_of_a_constant_view_is_zero():
    # Centring leaves the constant Gram with a factor of rank 0.
    assert kcca_solve(ViewGrams(np.ones((4, 4)), np.eye(4)), 1e-2) == 0.0


@pytest.mark.parametrize("gamma", [1.0, 1e-4])
def test_kcca_conditioning_error_names_eigenvalue(gamma):
    # Both stay indefinite once centred. The first leaves a residual diagonal
    # of -0.5; the signed cycle (eigenvalues -2, 0, 0, 2 after centring) has a
    # zero diagonal and leaves none, so only the product check catches it.
    cycle = np.array([[0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0],
                      [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]])
    for bad in (np.diag([-1.0, 1.0, 1.0, 1.0]), cycle):
        with pytest.raises(ConditioningError, match="eigenvalue"):
            kcca_solve(ViewGrams(bad, np.eye(len(bad))), gamma)


def test_view_grams_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ViewGrams(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="square"):
        ViewGrams(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="share a shape"):
        ViewGrams(np.eye(2), np.eye(3))
    # NaN makes every comparison false, so a check written as "fail when the
    # asymmetry exceeds the bound" passes it.
    for bad in ([[np.nan, 1.0], [1.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
                [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(ValueError, match="^k_m holds a non-finite value$"):
            ViewGrams(np.eye(2), np.array(bad))
    k = np.random.default_rng(3).standard_normal((300, 300))
    k = k + k.T
    ViewGrams(k, k)  # 300 spans three tiles of the symmetry check
    k[290, 5] += 1e-9
    with pytest.raises(ValueError, match="^k_u not symmetric within 1e-10$"):
        ViewGrams(k, k.T)


def test_pca_rank_one_recovery_and_centering():
    rng = np.random.default_rng(11)
    direction = rng.standard_normal(6)
    weights = rng.standard_normal(30)
    x = np.outer(weights, direction)
    z = pca_reduce(x, 1)
    target = (weights - weights.mean()) * np.linalg.norm(direction)
    sign = np.sign(z[0, 0]) * np.sign(target[0])
    assert np.max(np.abs(z[:, 0] - sign * target)) < 1e-8
    assert abs(z.mean()) < 1e-10


def test_pca_full_rank_round_trip_and_bounds():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((20, 4))
    z = pca_reduce(x, 4)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-10
    centered = x - x.mean(axis=0)
    coef, *_ = np.linalg.lstsq(z, centered, rcond=None)
    assert np.max(np.abs(z @ coef - centered)) < 1e-8
    with pytest.raises(ValueError):
        pca_reduce(x, 5)
    with pytest.raises(ValueError):
        pca_reduce(x, 0)


@pytest.mark.parametrize("shape", [(6, 10), (10, 6)], ids=["snapshots", "features"])
def test_pca_rejects_a_gram_that_overflows(shape):
    x = 1e200 * np.random.default_rng(14).standard_normal(shape)
    with pytest.raises(ValueError, match=rf"^the Gram of the centred {shape[0]}x{shape[1]} "
                                         "features is not finite$"):
        pca_reduce(x, 2)


def test_pca_is_deterministic():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((15, 5))
    assert np.array_equal(pca_reduce(x, 3), pca_reduce(x.copy(), 3))


def _svd_pca(features, k):
    """PCA by the thin SVD of the centred features: the reference that
    pca_reduce's Gram route is held to, each column up to its sign."""
    xc = features - features.mean(axis=0, keepdims=True)
    return xc @ np.linalg.svd(xc, full_matrices=False)[2][:k].T


def _column_err(z, ref):
    """Each column's largest difference from ref's, up to the column's sign."""
    return np.minimum(np.abs(z - ref).max(axis=0), np.abs(z + ref).max(axis=0))


def _flipped_pca(features, k):
    """pca_reduce with every other score column negated."""
    z = pca_reduce(features, k)
    z[:, ::2] *= -1.0
    return z


def _svd_cca_sigma(s_uu, s_mm, s_um):
    """cca_sigma's values from the full SVD of Gamma."""
    gamma = kcca._inv_sqrt(s_uu, "S_UU") @ s_um @ kcca._inv_sqrt(s_mm, "S_MM")
    return np.linalg.svd(gamma)[1]


# The Gram route squares the features' condition: eigh's backward error of
# about m eps s_1^2 on an m x m Gram moves the k-th component by about
# m eps (s_1 / s_k)^2 of its own scale, 3.6e-11 for m = 16 and s_1 / s_k = 100.
PCA_RTOL = 1e-10


def _spectrum_features(n, q, seed):
    """(n, q) features whose centred singular values run geometrically from
    100 down to 1 over rank min(n, q) - 1, plus a column offset."""
    rng = np.random.default_rng(seed)
    r = min(n, q) - 1
    a = rng.standard_normal((n, r))
    u = np.linalg.qr(a - a.mean(axis=0))[0]  # orthogonal to the ones column
    v = np.linalg.qr(rng.standard_normal((q, r)))[0]
    return (u * np.geomspace(100.0, 1.0, r)) @ v.T + rng.standard_normal(q)


@pytest.mark.parametrize("n, q", [(12, 30), (30, 12), (16, 16)])
def test_pca_matches_the_thin_svd(n, q):
    x = _spectrum_features(n, q, seed=n * q)
    for k in range(1, min(n, q)):
        z, ref = pca_reduce(x, k), _svd_pca(x, k)
        assert z.shape == ref.shape == (n, k)
        assert (_column_err(z, ref) <= PCA_RTOL * np.abs(ref).max(axis=0)).all(), k


@pytest.mark.parametrize("n, q", [(12, 30), (30, 12)])
def test_pca_past_the_rank_of_masked_features_is_finite_and_empty(n, q):
    # a view that hides the same cells of every window leaves zero columns
    x = np.random.default_rng(q).standard_normal((n, q))
    x[:, 4:] = 0.0
    k = min(n, q) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z = pca_reduce(x, k)
    ref = _svd_pca(x, k)
    assert np.isfinite(z).all()
    assert (_column_err(z[:, :4], ref[:, :4]) <= PCA_RTOL * np.abs(ref[:, :4]).max(axis=0)).all()
    # past rank 4 only rounding is left: s_j <= sqrt(m eps) s_1 on an m x m Gram
    bound = np.sqrt(min(n, q) * np.finfo(np.float64).eps) * np.linalg.norm(z[:, 0])
    assert np.abs(z[:, 4:]).max() <= bound


def test_cca_sigma_zero_cross_and_identical_views():
    s = np.diag([2.0, 1.0, 0.5])
    sigma = cca_sigma(s, s.copy(), np.zeros((3, 3)))
    assert np.max(np.abs(sigma)) < 1e-12

    rng = np.random.default_rng(14)
    x = rng.standard_normal((500, 3))
    c = x.T @ x / 500
    sigma2 = cca_sigma(c, c.copy(), c.copy())
    assert abs(sigma2[0] - 1.0) < 1e-8


def test_cca_sigma_invariant_under_linear_mixing():
    rng = np.random.default_rng(15)
    z_u = rng.standard_normal((2000, 3))
    z_m = 0.6 * z_u + 0.8 * rng.standard_normal((2000, 3))
    a = rng.standard_normal((3, 3)) + np.eye(3)
    b = rng.standard_normal((3, 3)) + np.eye(3)

    def sig(u, m):
        n = u.shape[0]
        u = u - u.mean(axis=0)
        m = m - m.mean(axis=0)
        return cca_sigma(u.T @ u / n, m.T @ m / n, u.T @ m / n)

    base = sig(z_u, z_m)
    mixed = sig(z_u @ a, z_m @ b)
    assert np.max(np.abs(base - mixed)) < 1e-6


def test_cca_sigma_conditioning_error_on_indefinite_view():
    s_uu = np.diag([1.0, -0.1])
    with pytest.raises(ConditioningError, match="eigenvalue"):
        cca_sigma(s_uu, np.eye(2), 0.1 * np.eye(2))


def test_cca_sigma_conditioning_error_on_a_nan_covariance():
    # a NaN eigenvalue fails the positivity check instead of reaching the SVD
    s_uu = np.full((2, 2), np.nan)
    with pytest.raises(ConditioningError, match="min eigenvalue nan"):
        cca_sigma(s_uu, np.eye(2), 0.1 * np.eye(2))


def _transition_windows(n, strength, seed, length=80):
    base, _ = generate_windows(SynthSpec(n_windows=n, n_modalities=4,
                                         n_samples=length, n_classes=3,
                                         shared_latent_strength=strength,
                                         noise_sd=1.0, seed=seed))
    return base


def test_sigma1_experiment_bounds_and_determinism():
    # length 140 gives P=7, the smallest grid where the synchronized policy
    # is non-degenerate at the default 0.15 ratio
    ws = _transition_windows(30, 0.9, 16, length=140)
    v1 = sigma1_experiment(ws, pca_k=10, seed=3, ratio=0.15, patch_len=20)
    v2 = sigma1_experiment(ws, pca_k=10, seed=3, ratio=0.15, patch_len=20)
    assert v1 == v2
    assert list(v1) == ["cross", "sync"]
    for v in v1.values():
        assert 0.0 <= v <= 1.0 + 1e-8


def test_each_policy_draws_its_masks_from_every_seeds_fresh_stream(monkeypatch):
    drawn, draw = [], kcca.sample_masks

    def spy(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(kcca, "sample_masks", spy)
    rng = np.random.default_rng(4)
    for _ in range(6):
        n, c_n, p_n, patch_len = (int(x) for x in rng.integers([3, 2, 4, 1], [40, 6, 12, 4]))
        ratio = float(rng.uniform(1.0 / p_n, 1.0 - 1.0 / p_n))
        seed = int(rng.integers(2**32))
        # a trailing part patch that the grid drops
        values = rng.standard_normal((n, c_n, p_n * patch_len + int(rng.integers(patch_len))))
        del drawn[:]
        sigma1_experiment(values, pca_k=3, seed=seed, ratio=ratio, patch_len=patch_len)
        children = np.random.SeedSequence(seed).spawn(n)
        assert len(drawn) == len(POLICIES)
        for policy, masks in zip(POLICIES, drawn):
            want = np.stack([sample_mask(policy, c_n, p_n, ratio, child) for child in children])
            assert masks.tobytes() == want.tobytes()


# The thin-SVD route replaces the PCA and the CCA; the flipped route negates
# score columns, which sigma_1 must not read.
REFERENCES = {"svd": ({"pca_reduce": _svd_pca, "cca_sigma": _svd_cca_sigma}, PCA_RTOL),
              "flipped_columns": ({"pca_reduce": _flipped_pca}, 1e-12)}


@pytest.mark.parametrize("encoder, policy, reference", [
    pytest.param(encoder, policy, reference,
                 id=f"{encoder}-{policy}" + ("" if reference == "svd" else f"-{reference}"))
    for reference in REFERENCES for encoder in ("raw_flatten", "model_encoder")
    for policy in ("cross", "sync")])
def test_sigma1_experiment_matches_the_thin_svd_route(monkeypatch, encoder, policy, reference):
    ws = _transition_windows(30, 0.9, 18, length=140)
    state = None
    if encoder == "model_encoder":
        state = init_model(ArchSpec(n_modalities=4, n_patches=7, patch_len=20, d_model=8,
                                    enc_layers=1, dec_layers=1, n_heads=2), seed=0)
    args = dict(pca_k=10, seed=5, ratio=0.15, patch_len=20)
    sigma = sigma1_experiment(ws, state, **args)[policy]
    replaced, rtol = REFERENCES[reference]
    for name, fn in replaced.items():
        monkeypatch.setattr(kcca, name, fn)
    ref = sigma1_experiment(ws, state, **args)[policy]
    assert abs(sigma - ref) <= rtol * ref


def test_sigma1_experiment_model_encoder_runs():
    # P=7: the synchronized policy hides a column at the 0.15 ratio
    ws = _transition_windows(12, 0.9, 17, length=140)
    arch = ArchSpec(n_modalities=4, n_patches=7, patch_len=20, d_model=8,
                    enc_layers=1, dec_layers=1, n_heads=2)
    v = sigma1_experiment(ws, init_model(arch, seed=0), pca_k=6, seed=4, ratio=0.15,
                          patch_len=20)
    assert all(0.0 <= v[policy] <= 1.0 + 1e-8 for policy in ("cross", "sync"))
    with pytest.raises(ValueError):
        sigma1_experiment(np.empty((0, 4, 80)), pca_k=50, seed=0, ratio=0.15, patch_len=20)
