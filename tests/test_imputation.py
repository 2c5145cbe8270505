"""Missingness tasks, statistical baselines, model fill, pooled scoring."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_kernels import _summation_bound

from crossmae.imputation import (METHODS, TASKS, MissingnessTask,
                                 _sample_mask_array, impute_chained,
                                 impute_linear, impute_model, impute_nearest,
                                 score, task_mask)
from crossmae.model import FORWARD_CHUNK, ArchSpec, init_model
from crossmae.train import OptimConfig, PretrainConfig, pretrain
from crossmae.windows import SynthSpec, generate_windows, patchify, standardize


def test_task_and_method_registries():
    assert TASKS == ("random", "temporal", "sensor", "extrapolation")
    assert METHODS == ("model", "linear", "nearest", "chained")


def test_task_validation():
    with pytest.raises(ValueError):
        MissingnessTask(kind="diagonal")
    with pytest.raises(ValueError):
        MissingnessTask(kind="temporal", ratio=0.0)
    with pytest.raises(ValueError):
        MissingnessTask(kind="random", ratio=1.0)


def test_random_task_exact_cell_count():
    m = task_mask(MissingnessTask(kind="random", ratio=0.7), 6, 10,
                  np.random.default_rng(0))
    assert int(m.sum()) == 42


def test_temporal_task_masks_whole_columns():
    m = task_mask(MissingnessTask(kind="temporal", ratio=0.7), 6, 10,
                  np.random.default_rng(1))
    cols = m.sum(axis=0)
    assert int((cols == 6).sum()) == 7 and int((cols == 0).sum()) == 3


def test_temporal_task_column_subsets_uniform():
    rng = np.random.default_rng(2)
    task = MissingnessTask(kind="temporal", ratio=0.7)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        m = task_mask(task, 2, 10, rng)
        key = tuple(np.flatnonzero(m[0]).tolist())
        counts[key] = counts.get(key, 0) + 1
    n_subsets = len(list(itertools.combinations(range(10), 7)))
    assert len(counts) == n_subsets  # 120
    for k, c in counts.items():
        assert abs(c / draws - 1.0 / n_subsets) <= 0.02


def test_sensor_task_hides_all_but_one_modality():
    drawn = task_mask(MissingnessTask(kind="sensor"), 4, 5, np.random.default_rng(4))
    vis = np.flatnonzero(drawn.sum(axis=1) == 0)
    assert vis.size == 1
    assert int(drawn.sum()) == 3 * 5


def test_extrapolation_masks_trailing_columns():
    m = task_mask(MissingnessTask(kind="extrapolation", ratio=0.7), 4, 10,
                  np.random.default_rng(6))
    assert np.all(m[:, 3:] == 1)
    assert np.all(m[:, :3] == 0)


def test_sample_mask_array_expansion():
    bits = np.array([[1, 0], [0, 1]], dtype=bool)
    sm = _sample_mask_array(bits, patch_len=3, n_samples=8)
    assert sm.shape == (2, 8)
    assert np.array_equal(sm[0], [1, 1, 1, 0, 0, 0, 0, 0])
    assert np.array_equal(sm[1], [0, 0, 0, 1, 1, 1, 0, 0])  # samples 6,7 beyond P*L_p stay visible


def _linear_window():
    return np.array([[[1.0, 2.0, 3.0, 4.0], [3.0, 3.0, 3.0, 5.0]]])


def test_impute_linear_interior_gap():
    sm = np.array([[[False, True, True, False], [False, False, False, False]]])
    out = impute_linear(_linear_window(), sm)[0]
    assert np.array_equal(out[0], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(out[1], _linear_window()[0, 1])


def test_impute_linear_edge_extension_and_dead_channel():
    w = np.array([[[7.0, 7.0, 3.0, 5.0], [1.0, 1.0, 1.0, 1.0]]])
    sm = np.array([[[True, True, False, False], [True, True, True, True]]])
    out = impute_linear(w, sm)[0]
    assert np.array_equal(out[0], [3.0, 3.0, 3.0, 5.0])
    assert np.array_equal(out[1], np.zeros(4))


def test_impute_nearest_examples():
    sm = np.array([[[False, True, True, False], [False, False, False, False]]])
    out = impute_nearest(_linear_window(), sm)[0]
    assert np.array_equal(out[0], [1.0, 1.0, 4.0, 4.0])

    w = np.array([[[1.0, 9.0, 3.0], [0.0, 0.0, 0.0]]])
    tie = np.array([[[False, True, False], [False, False, False]]])
    out2 = impute_nearest(w, tie)[0]
    assert out2[0, 1] == 1.0  # tie resolved toward the earlier sample


def _nearest_oracle(window, sample_mask_):
    """Brute force on one (C, L) window: each hidden sample copies
    argmin |i - v| over the visible v of its channel, the earliest v winning
    ties."""
    filled = window.copy()
    for c, row in enumerate(sample_mask_):
        vis = np.flatnonzero(~row)
        for i in np.flatnonzero(row):
            filled[c, i] = 0.0 if vis.size == 0 else window[c, vis[np.argmin(np.abs(i - vis))]]
    return filled


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=40),
       st.floats(min_value=0.0, max_value=1.0))
def test_impute_nearest_matches_brute_force(seed, length, hide_prob):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((1, 3, length))
    sm = rng.uniform(size=(1, 3, length)) < hide_prob
    assert impute_nearest(w, sm)[0].tobytes() == _nearest_oracle(w[0], sm[0]).tobytes()


def test_baselines_preserve_visible_samples():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((1, 3, 12))
        sm = rng.uniform(size=(1, 3, 12)) < 0.5
        for fill in (impute_linear, impute_nearest):
            out = fill(w, sm)
            assert np.array_equal(out[~sm], w[~sm])


def test_chained_recovers_exact_linear_map():
    # the fixed ridge penalty biases small designs, so give the regression
    # enough signal energy that the bias sits well under the tolerance
    rng = np.random.default_rng(7)
    base = 100.0 * rng.standard_normal(1000)
    w = np.stack([base, 2.0 * base + 1.0, -0.5 * base + 3.0])
    sm = np.zeros((3, 1000), dtype=bool)
    sm[1, 200:300] = True
    filled = impute_chained(w[None], sm[None], sweeps=3)[0]
    truth = 2.0 * base[200:300] + 1.0
    assert np.max(np.abs(filled[1, 200:300] - truth)) < 1e-6
    assert np.array_equal(filled[~sm], w[~sm])


def test_chained_single_sweep_touches_only_missing():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((1, 3, 30))
    sm = rng.uniform(size=(1, 3, 30)) < 0.3
    filled = impute_chained(w, sm, sweeps=1)
    assert np.array_equal(filled[~sm], w[~sm])
    with pytest.raises(ValueError):
        impute_chained(w, sm, sweeps=0)


def test_chained_independent_noise_regresses_to_mean():
    rng = np.random.default_rng(9)
    n = 400
    w = rng.standard_normal((3, n)) + np.array([[0.0], [5.0], [-2.0]])
    sm = np.zeros((3, n), dtype=bool)
    sm[1, 100:120] = True
    filled = impute_chained(w[None], sm[None], sweeps=3)[0]
    visible_mean = w[1, ~sm[1]].mean()
    imputed = filled[1, sm[1]]
    assert abs(imputed.mean() - visible_mean) < 3.0 / np.sqrt(n - 20)
    assert np.max(np.abs(imputed - visible_mean)) < 0.5


def test_score_identity_offset_and_empty():
    rng = np.random.default_rng(10)
    w = rng.standard_normal((1, 2, 16))
    sm = np.zeros((1, 2, 16), dtype=bool)
    sm[0, 0, 3:9] = True
    same = score(w, w, sm)
    assert same.mae == 0.0 and same.mse == 0.0

    shifted = w + np.where(sm, 0.25, 0.0)
    off = score(shifted, w, sm)
    assert abs(off.mae - 0.25) < 1e-12 and abs(off.mse - 0.0625) < 1e-12

    with pytest.raises(ValueError):
        score(w, w, np.zeros((1, 2, 16), dtype=bool))


def test_impute_model_zero_mask_is_identity_and_visible_bits_kept():
    arch = ArchSpec(n_modalities=3, n_patches=4, patch_len=4, d_model=8,
                    enc_layers=1, dec_layers=1, n_heads=2)
    ws, _ = generate_windows(SynthSpec(n_windows=4, n_modalities=3, n_samples=16,
                                       n_classes=2, shared_latent_strength=0.9,
                                       noise_sd=0.2, seed=30))
    state, _ = pretrain(ws, arch, PretrainConfig(
        optim=OptimConfig(epochs=1, warmup_epochs=0, batch_size=4)), seed=0)
    w = standardize(ws[0])

    hole = np.zeros((3, 4), dtype=bool)
    assert np.array_equal(impute_model(state, w[None], hole[None])[0], w)

    mask = np.zeros((3, 4), dtype=bool)
    mask[0, 1] = mask[2, 3] = True
    out = impute_model(state, w[None], mask[None])[0]
    sm = _sample_mask_array(mask, 4, 16)
    assert np.array_equal(out[~sm], w[~sm])
    assert not np.array_equal(out[sm], w[sm])

    with pytest.raises(ValueError):
        impute_model(state, w[None], np.ones((1, 3, 4), dtype=bool))


def test_impute_model_rejects_masks_that_hide_different_numbers_of_patches():
    arch = ArchSpec(n_modalities=2, n_patches=2, patch_len=4, d_model=8, n_heads=2)
    masks = np.zeros((2, 2, 2), dtype=bool)
    masks[0, 0, 0] = masks[1, 0, 0] = masks[1, 1, 1] = True
    with pytest.raises(ValueError, match=r"^every mask in a batch must hide the same number "
                                         r"of patches, got \[1, 2\]$"):
        impute_model(init_model(arch, 0), np.zeros((2, 2, 8)), masks)


def test_model_beats_zeros_predictor_after_overfit():
    # strength-1 noiseless windows, sensor task: reconstruction from the one
    # visible modality must do better than predicting all zeros
    arch = ArchSpec(n_modalities=6, n_patches=8, patch_len=8)
    ws, _ = generate_windows(SynthSpec(n_windows=8, n_modalities=6, n_samples=64,
                                       n_classes=4, shared_latent_strength=1.0,
                                       noise_sd=0.0, seed=11))
    opt = OptimConfig(lr=1e-2, epochs=300, warmup_epochs=10, batch_size=8)
    state, _ = pretrain(ws, arch, PretrainConfig(optim=opt), seed=11)

    rng = np.random.default_rng(12)
    evals = standardize(ws)
    task = MissingnessTask(kind="sensor")
    masks = np.stack([task_mask(task, 6, 8, rng) for _ in evals])
    smasks = _sample_mask_array(masks, 8, 64)
    model_filled = impute_model(state, evals, masks)
    zeros = np.where(smasks, 0.0, evals)
    mse_model = score(model_filled, evals, smasks).mse
    mse_zero = score(zeros, evals, smasks).mse
    assert mse_model < mse_zero


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_calls_match_the_per_window_formulas(data):
    n = data.draw(st.integers(1, 4), label="n")
    c_n = data.draw(st.integers(2, 4), label="C")
    length = data.draw(st.integers(2, 40), label="L")
    patch_len = data.draw(st.integers(1, length), label="patch_len")
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6), label="seed"))
    values = rng.standard_normal((n, c_n, length)) * rng.uniform(0.1, 10.0)
    constant = rng.uniform(size=(n, c_n)) < 0.3  # exactly representable means: sd == 0
    values[constant] = rng.integers(-5, 6, size=(int(constant.sum()), 1))
    masks = rng.uniform(size=values.shape) < data.draw(st.floats(0.0, 1.0), label="hide")

    z, grids = standardize(values), patchify(values, patch_len)
    linear, nearest = impute_linear(values, masks), impute_nearest(values, masks)
    p_n = length // patch_len
    t = np.arange(length)
    for i in range(n):
        want_lin = values[i].copy()
        for c in range(c_n):
            x = values[i, c]
            mu, sd = x.mean(), x.std()
            assert z[i, c].tobytes() == (np.zeros(length) if sd == 0.0
                                         else (x - mu) / sd).tobytes()
            vis = ~masks[i, c]
            want_lin[c, ~vis] = (np.interp(t[~vis], t[vis], x[vis]) if vis.any()
                                 else 0.0)
        assert np.array_equal(grids[i], values[i, :, :p_n * patch_len].reshape(
            c_n, p_n, patch_len))
        assert linear[i].tobytes() == want_lin.tobytes()
        assert nearest[i].tobytes() == _nearest_oracle(values[i], masks[i]).tobytes()


# A window's frozen output may move by a few ulps with the windows that share
# its chunk: OpenBLAS orders a GEMV row sum by where the row falls in the call.
# Each filled patch is held to the summation bound of its own L_p values, the
# most one reordered sum over them can move; measured at most 20% of it.
@pytest.mark.parametrize("kind", TASKS)
def test_model_fill_matches_one_window_calls_within_the_summation_bound(kind):
    arch = ArchSpec(n_modalities=6, n_patches=25, patch_len=8)
    state = init_model(arch, seed=0)
    n = FORWARD_CHUNK + 4
    values, _ = generate_windows(SynthSpec(n_windows=n, n_modalities=6, n_samples=200,
                                           n_classes=4, shared_latent_strength=0.9,
                                           noise_sd=0.1, seed=5))
    values = standardize(values)
    rng = np.random.default_rng(3)
    masks = np.stack([task_mask(MissingnessTask(kind=kind), 6, 25, rng) for _ in values])
    got = impute_model(state, values, masks)
    want = np.concatenate([impute_model(state, values[i:i + 1], masks[i:i + 1])
                           for i in range(n)])
    patches = want.reshape(n, 6, 25, 8)
    bound = _summation_bound(patches, axis=3)[..., None]
    assert np.all(np.abs(got.reshape(patches.shape) - patches) <= bound)
