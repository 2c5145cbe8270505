"""Missingness tasks, model and statistical imputers, and masked-cell scoring.

Four tasks over the patch grid:
- random: cells hidden independently across modalities and time (cross mask);
- temporal: whole time columns hidden at random;
- sensor: everything hidden except one modality, drawn per window;
- extrapolation: the trailing time columns hidden.

A task draws one (C, P) bool patch mask per window (True = hidden); the
windows of a run stack theirs into a (B, C, P) array. Every imputer fills a
new copy of the (B, C, L) windows: the model imputer reads the patch masks,
the statistical ones their per-sample expansion (B, C, L)
(_sample_mask_array). All imputers must leave visible samples untouched,
and are scored on hidden samples only, pooled over all windows.
"""
from dataclasses import dataclass

import numpy as np

from .masking import CROSS, SYNC, floor_count, sample_mask
from .model import ModelState, forward_frozen, reconstruct
from .windows import patchify

TASKS = ("random", "temporal", "sensor", "extrapolation")
METHODS = ("model", "linear", "nearest", "chained")
# Ridge added to the Gram of impute_chained's regressions.
CHAINED_RIDGE = 1e-3


@dataclass
class MissingnessTask:
    kind: str
    ratio: float = 0.7

    def __post_init__(self):
        if self.kind not in TASKS:
            raise ValueError(f"kind must be one of {TASKS}, got {self.kind!r}")
        if self.kind != "sensor" and not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio!r}")


def task_mask(task: MissingnessTask, n_modalities: int, n_patches: int, rng) -> np.ndarray:
    """Build the (C, P) bool patch mask (True = hidden) for one window under
    the given task."""
    rng = np.random.default_rng(rng)
    c_n, p_n = n_modalities, n_patches
    if task.kind == "random":
        return sample_mask(CROSS, c_n, p_n, task.ratio, rng)
    if task.kind == "temporal":
        return sample_mask(SYNC, c_n, p_n, task.ratio, rng)
    mask = np.zeros((c_n, p_n), dtype=bool)
    if task.kind == "sensor":
        if c_n < 2:
            raise ValueError("sensor task needs C >= 2")
        mask[:, :] = True
        mask[int(rng.integers(0, c_n)), :] = False
    else:  # extrapolation
        k = floor_count(task.ratio, p_n)
        if k < 1 or k >= p_n:
            raise ValueError(f"extrapolation task degenerate at ratio {task.ratio}, P={p_n}")
        mask[:, p_n - k:] = True
    return mask


def _sample_mask_array(masks: np.ndarray, patch_len: int, n_samples: int) -> np.ndarray:
    """Expand (..., C, P) patch masks to per-sample bool masks (..., C, L).
    Samples beyond P * patch_len are never hidden."""
    p_n = masks.shape[-1]
    out = np.zeros(masks.shape[:-1] + (n_samples,), dtype=bool)
    out[..., :p_n * patch_len] = np.repeat(masks, patch_len, axis=-1)
    return out


def impute_model(state: ModelState, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Reconstruct the hidden patches of the (B, C, L) windows, given their
    (B, C, P) masks, with the pretrained autoencoder; visible samples are
    passed through bit-identically. The model runs frozen
    (model.forward_frozen), on the hidden patches' rows alone; a mask that
    hides nothing runs no pass."""
    if len(values) != len(masks):
        raise ValueError(f"{len(values)} windows but {len(masks)} masks")
    arch = state.arch
    c_n, p_n, lp = arch.n_modalities, arch.n_patches, arch.patch_len
    grids = patchify(values, lp)
    # every mask hides the same number of patches (model._check_masks)
    hidden = np.nonzero(masks.reshape(len(masks), -1))[1].reshape(len(masks), -1)
    if hidden.size:
        grids[masks] = forward_frozen(state, reconstruct, grids, masks, lambda w: w,
                                      hidden).reshape(-1, lp)
    filled = values.copy()
    filled[..., :p_n * lp] = grids.reshape(len(values), c_n, p_n * lp)
    return filled


def impute_linear(values: np.ndarray, sample_masks: np.ndarray) -> np.ndarray:
    """Per-channel linear interpolation between visible samples of the
    (n, C, L) windows, constant extension at the edges, zero-fill for fully
    hidden channels."""
    filled = values.copy()
    length = values.shape[-1]
    t = np.arange(length)
    for row, hidden, out in zip(values.reshape(-1, length), sample_masks.reshape(-1, length),
                                filled.reshape(-1, length)):  # the n * C channels
        vis = ~hidden
        if not vis.any():
            out[:] = 0.0
            continue
        out[hidden] = np.interp(t[hidden], t[vis], row[vis])
    return filled


def impute_nearest(values: np.ndarray, sample_masks: np.ndarray) -> np.ndarray:
    """Each hidden sample of the (n, C, L) windows copies the temporally
    nearest visible sample in its channel; distance ties break toward the
    earlier sample. Fully hidden channels are filled with 0."""
    length = values.shape[-1]
    t = np.arange(length)
    # the last visible index at or before each sample (-1: none) and the
    # first at or after it (length: none)
    left = np.maximum.accumulate(np.where(sample_masks, -1, t), axis=-1)
    right = np.minimum.accumulate(np.where(sample_masks, length, t)[..., ::-1], axis=-1)[..., ::-1]
    take_left = (left >= 0) & ((right == length) | (t - left <= right - t))
    nearest = np.where(take_left, left, right)
    filled = np.take_along_axis(values, np.minimum(nearest, length - 1), axis=-1)
    filled[nearest == length] = 0.0
    return filled


def impute_chained(values: np.ndarray, sample_masks: np.ndarray, sweeps: int) -> np.ndarray:
    """Simplified chained-equations imputation, pooled across the (n, C, L)
    windows.

    Missing entries start at the channel means of pooled visible data; each
    sweep ridge-regresses every channel on the other channels' same-time
    values (fit on rows where the target is visible) and overwrites that
    channel's missing entries with predictions.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if len(values) == 0:
        raise ValueError("impute_chained needs at least one window")
    n, c_n, length = values.shape
    if c_n < 2:
        raise ValueError("impute_chained needs C >= 2")
    # rows = (window, time); columns = channels
    data = values.transpose(0, 2, 1).copy().reshape(-1, c_n)
    miss = sample_masks.transpose(0, 2, 1).reshape(-1, c_n)
    for c in range(c_n):
        vis = ~miss[:, c]
        mean_c = data[vis, c].mean() if vis.any() else 0.0
        data[miss[:, c], c] = mean_c
    # Each channel's fit and predict rows stay fixed across sweeps, so their
    # index arrays are built once: (c, fit rows, predict rows, the np.ix_
    # pair of each with the other channels) for every channel with both.
    plans = []
    for c in range(c_n):
        fit_rows, pred_rows = np.flatnonzero(~miss[:, c]), np.flatnonzero(miss[:, c])
        if len(fit_rows) and len(pred_rows):
            others = [k for k in range(c_n) if k != c]
            plans.append((c, fit_rows, pred_rows, np.ix_(fit_rows, others),
                          np.ix_(pred_rows, others)))
    ridge = CHAINED_RIDGE * np.eye(c_n - 1)
    for _ in range(sweeps):
        for c, fit_rows, pred_rows, fit_ix, pred_ix in plans:
            x_fit = data[fit_ix]
            y_fit = data[fit_rows, c]
            xm = x_fit.mean(axis=0)
            ym = y_fit.mean()
            xc = x_fit - xm
            gram = xc.T @ xc + ridge
            coef = np.linalg.solve(gram, xc.T @ (y_fit - ym))
            data[pred_rows, c] = (data[pred_ix] - xm) @ coef + ym
    block = data.reshape(n, length, c_n).transpose(0, 2, 1)
    return np.where(sample_masks, block, values)


@dataclass
class ImputeScore:
    mae: float
    mse: float


def score(filled: np.ndarray, truth: np.ndarray, sample_masks: np.ndarray) -> ImputeScore:
    """MAE/MSE over hidden samples only, pooled across all the (n, C, L)
    windows. The sums run window by window, so that the totals do not depend
    on how many windows share a call. impute_model's fill can: a window's
    frozen output (model.forward_frozen) can move by a few ulps with the
    windows that share its model.FORWARD_CHUNK, and with how many hidden
    rows the chunk keeps, since BLAS orders a short row sum by where the
    row falls in the call."""
    if filled.shape != truth.shape:
        raise ValueError("shape mismatch between filled and truth")
    abs_sum = 0.0
    sq_sum = 0.0
    count = 0
    for f, t, miss in zip(filled, truth, sample_masks):
        diff = f[miss] - t[miss]
        abs_sum += np.abs(diff).sum()
        sq_sum += (diff * diff).sum()
        count += diff.size
    if count == 0:
        raise ValueError("score needs at least one hidden cell")
    return ImputeScore(abs_sum / count, sq_sum / count)
