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
and are scored on hidden samples only, pooled over all windows. A fill
shares no memory with the windows or with another fill, so `crossmae impute`
scores each as soon as it is made and drops it before making the next: one
fill is alive at a time.
"""
from dataclasses import dataclass

import numpy as np

from .masking import CROSS, SYNC, floor_count, sample_masks
from .model import ModelState, _check_masks, forward_frozen, reconstruct
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
    the given task: task_masks of one window."""
    return task_masks(task, n_modalities, n_patches, rng, 1)[0]


def task_masks(task: MissingnessTask, n_modalities: int, n_patches: int, rng,
               n: int) -> np.ndarray:
    """The (n, C, P) bool patch masks of n windows under the given task,
    drawn in turn from the one generator that rng gives
    (np.random.default_rng): bit for bit the masks of n task_mask calls on
    that generator. random and temporal draw their n permutations in one
    masking.sample_masks call, sensor its n visible modalities in one
    integers call."""
    rng = np.random.default_rng(rng)
    c_n, p_n = n_modalities, n_patches
    if task.kind == "random":
        return sample_masks(CROSS, c_n, p_n, task.ratio, [rng] * n)
    if task.kind == "temporal":
        return sample_masks(SYNC, c_n, p_n, task.ratio, [rng] * n)
    masks = np.zeros((n, c_n, p_n), dtype=bool)
    if task.kind == "sensor":
        if c_n < 2:
            raise ValueError("sensor task needs C >= 2")
        masks[:] = True
        masks[np.arange(n), rng.integers(0, c_n, size=n)] = False
    else:  # extrapolation
        k = floor_count(task.ratio, p_n)
        if k < 1 or k >= p_n:
            raise ValueError(f"extrapolation task degenerate at ratio {task.ratio}, P={p_n}")
        masks[:, :, p_n - k:] = True
    return masks


def _sample_mask_array(masks: np.ndarray, patch_len: int, n_samples: int) -> np.ndarray:
    """Expand (..., C, P) patch masks to per-sample bool masks (..., C, L).
    Samples beyond P * patch_len are never hidden."""
    p_n = masks.shape[-1]
    out = np.zeros(masks.shape[:-1] + (n_samples,), dtype=bool)
    out[..., :p_n * patch_len] = np.repeat(masks, patch_len, axis=-1)
    return out


def _check_sample_masks(values: np.ndarray, sample_masks: np.ndarray) -> None:
    """Require (n, C, L) windows and per-sample masks that are a bool array
    of exactly their shape. Anything else would be misread, not rejected:
    zip truncates to fewer windows, an integer array indexes, a narrower one
    broadcasts, and a (C, L) window would be taken for C windows of one
    channel."""
    if np.ndim(values) != 3:
        raise ValueError(f"the windows must be an (n, C, L) array, got shape {np.shape(values)}")
    dtype = getattr(sample_masks, "dtype", type(sample_masks).__name__)
    if dtype != bool or np.shape(sample_masks) != np.shape(values):
        raise ValueError(f"sample_masks must be a bool array of the windows' shape "
                         f"{np.shape(values)}, got {dtype} of shape {np.shape(sample_masks)}")


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
    _check_masks(masks)
    grids = patchify(values, lp)
    # every mask hides the same number of patches, so each window has a row of them
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
    _check_sample_masks(values, sample_masks)
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
    earlier sample. Fully hidden channels are filled with 0.

    Beside the fill, two int64 index arrays of the windows' size are held:
    each is accumulated in place, and the nearest index is written back into
    the first."""
    _check_sample_masks(values, sample_masks)
    length = values.shape[-1]
    t = np.arange(length)
    # the last visible index at or before each sample (-1: none) and the
    # first at or after it (length: none)
    left = np.where(sample_masks, -1, t)
    np.maximum.accumulate(left, axis=-1, out=left)
    right = np.where(sample_masks, length, t)
    np.minimum.accumulate(right[..., ::-1], axis=-1, out=right[..., ::-1])
    # the nearest, into left: right where there is no left, or where right
    # is nearer (t - left > right - t); length in a fully hidden channel
    np.copyto(left, right, where=(left < 0) | ((right < length) & (left + right < 2 * t)))
    del right
    gone = left == length
    np.minimum(left, length - 1, out=left)
    filled = np.take_along_axis(values, left, axis=-1)
    filled[gone] = 0.0
    return filled


def impute_chained(values: np.ndarray, sample_masks: np.ndarray, sweeps: int) -> np.ndarray:
    """Simplified chained-equations imputation in the style of MICE (van
    Buuren & Groothuis-Oudshoorn, J. Stat. Softw. 2011), pooled across the
    (n, C, L) windows.

    The pooled data is held channel-major: one (C, n * L) array whose row c
    is channel c of every window, end to end. Missing entries start at the
    mean of their channel's visible samples. Each sweep then visits the
    channels in order, Gauss-Seidel: channel c is ridge-regressed on the
    other channels' same-time values, fit on the samples where c is visible,
    and its missing entries are overwritten with the predictions, which the
    channels after it read in the same sweep. A channel with no visible or
    no missing sample is never regressed.

    A regression runs as whole-row passes over that array, with no gather.
    The means of every channel over c's fit samples are one GEMV against c's
    0/1 fit weights. The Gram is one GEMM of the centred copy, weighted,
    against the centred copy itself (two scratch arrays for the call). The
    prediction sums the other channels' centred rows scaled by their
    coefficients, and is written into c's missing samples alone. Against a
    per-channel gather of the fit and missing samples, only the order of
    the sums moves.
    """
    _check_sample_masks(values, sample_masks)
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if len(values) == 0:
        raise ValueError("impute_chained needs at least one window")
    n, c_n, length = values.shape
    if c_n < 2:
        raise ValueError("impute_chained needs C >= 2")
    data = values.transpose(1, 0, 2).copy().reshape(c_n, -1)
    miss = sample_masks.transpose(1, 0, 2).reshape(c_n, -1)
    for row, hidden in zip(data, miss):
        vis = ~hidden
        np.copyto(row, row[vis].mean() if vis.any() else 0.0, where=hidden)
    _chained_sweeps(data, miss, sweeps)
    return data.reshape(c_n, n, length).transpose(1, 0, 2).copy()


def _chained_sweeps(data: np.ndarray, miss: np.ndarray, sweeps: int) -> None:
    """impute_chained's sweeps over the channel-major (C, N) data, in place;
    miss is its (C, N) bool mask. The scratch arrays are freed on return,
    before impute_chained copies the result out."""
    c_n, n_rows = data.shape
    n_fit = n_rows - np.count_nonzero(miss, axis=1)
    # the channels with both fit and predict samples, each with the others
    # and their block of the Gram
    plans = []
    for c in range(c_n):
        if 0 < n_fit[c] < n_rows:
            others = np.delete(np.arange(c_n), c)
            plans.append((c, others, np.ix_(others, others)))
    ridge = CHAINED_RIDGE * np.eye(c_n - 1)
    centred, weighted = np.empty_like(data), np.empty_like(data)
    fit, pred = np.empty(n_rows, dtype=data.dtype), np.empty(n_rows, dtype=data.dtype)
    for _ in range(sweeps):
        for c, others, block in plans:
            np.logical_not(miss[c], out=fit)  # c's 0/1 fit weights
            means = data @ fit / n_fit[c]
            np.subtract(data, means[:, None], out=centred)
            np.multiply(centred, fit, out=weighted)
            # a fit weight is 0 or 1, so this GEMM forms the products of the
            # centred fit samples' Gram and no others
            gram = weighted @ centred.T
            coef = np.linalg.solve(gram[block] + ridge, gram[others, c])
            # Each sample's prediction sums its own channels in one order,
            # wherever the sample falls. A GEMV rounds by the sample's place
            # in its blocks, and an ill-conditioned fit of a later channel
            # magnifies an ulp between two samples that agree.
            np.multiply(centred[others[0]], coef[0], out=pred)
            for k, b in zip(others[1:], coef[1:]):
                pred += centred[k] * b
            pred += means[c]
            np.putmask(data[c], miss[c], pred)


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
        raise ValueError(f"shape mismatch between filled {filled.shape} and truth {truth.shape}")
    _check_sample_masks(truth, sample_masks)
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
