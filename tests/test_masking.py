"""Mask sampling counts and column structure."""

import numpy as np
import pytest

from crossmae.masking import CROSS, POLICIES, SYNC, floor_count, sample_mask, sample_masks


def test_cross_count_example():
    m = sample_mask(CROSS, 6, 10, 0.75, np.random.default_rng(0))
    assert int(m.sum()) == 45  # floor(0.75 * 60)


def test_sync_column_example():
    m = sample_mask(SYNC, 6, 10, 0.75, np.random.default_rng(0))
    assert int(m.sum()) == 42  # 7 columns * 6 modalities
    col = m.sum(axis=0)
    assert set(col.tolist()) <= {0, 6}
    assert int((col == 6).sum()) == 7


def test_lattice_counts_and_structure():
    # acceptance runs the full 1,000-seed sweep; this is the fast slice
    ratios = (0.05, 0.25, 0.5, 0.75, 0.95)
    for c in range(2, 7):
        for p in range(2, 13):
            for rho in ratios:
                k_cross = floor_count(rho, c * p)
                k_sync = floor_count(rho, p)
                for seed in range(25):
                    rng = np.random.default_rng(seed)
                    if 1 <= k_cross < c * p:
                        m = sample_mask(CROSS, c, p, rho, rng)
                        assert int(m.sum()) == k_cross
                    if 1 <= k_sync < p:
                        m = sample_mask(SYNC, c, p, rho, rng)
                        cols = m.sum(axis=0)
                        assert int((cols == c).sum()) == k_sync
                        assert int((cols == 0).sum()) == p - k_sync


def test_at_least_one_patch_visible():
    for seed in range(200):
        m = sample_mask(CROSS, 2, 2, 0.5, np.random.default_rng(seed))
        assert int(m.sum()) == 2
        assert (m == 0).any()


def test_degenerate_parameters_rejected():
    rng = np.random.default_rng(0)
    for rho in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            sample_mask(CROSS, 4, 4, rho, rng)
    with pytest.raises(ValueError):
        sample_mask(CROSS, 2, 2, 0.2, rng)  # floor(0.2*4) = 0 cells
    with pytest.raises(ValueError):
        sample_mask(SYNC, 4, 3, 0.25, rng)  # floor(0.25*3) = 0 columns
    with pytest.raises(ValueError):
        sample_mask("diagonal", 4, 4, 0.5, rng)


def test_cross_allows_partially_visible_columns():
    # a column with both masked and visible cells is what sync forbids
    rng = np.random.default_rng(0)
    found = False
    for _ in range(1000):
        m = sample_mask(CROSS, 6, 10, 0.75, rng)
        cols = m.sum(axis=0)
        if np.any((cols > 0) & (cols < 6)):
            found = True
            break
    assert found


def test_cross_small_grid_hits_every_admissible_mask():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(600):
        m = sample_mask(CROSS, 2, 2, 0.5, rng)
        seen.add(m.tobytes())
    assert len(seen) == 6  # C(4, 2)


def test_a_batch_of_masks_is_one_mask_per_generator():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n, c_n, p_n = (int(x) for x in rng.integers([1, 2, 2], [12, 7, 13]))
        policy = POLICIES[int(rng.integers(2))]
        cells = c_n * p_n if policy == CROSS else p_n
        ratio = (int(rng.integers(1, cells)) + 0.5) / cells
        seeds = np.random.SeedSequence(int(rng.integers(2**32))).spawn(n)
        masks = sample_masks(policy, c_n, p_n, ratio,
                             [np.random.default_rng(seed) for seed in seeds])
        assert masks.dtype == bool and masks.flags.c_contiguous
        assert masks.tobytes() == np.stack([sample_mask(policy, c_n, p_n, ratio, seed)
                                            for seed in seeds]).tobytes()


def test_a_batch_of_masks_checks_its_settings_once_and_draws_nothing_on_a_fault():
    rngs = [np.random.default_rng(s) for s in range(3)]
    before = [r.bit_generator.state for r in rngs]
    for policy, ratio, message in ((CROSS, 1.0, "ratio must lie in"),
                                   (SYNC, 0.2, "hides no column"),
                                   ("diagonal", 0.5, "unknown policy")):
        with pytest.raises(ValueError, match=message):
            sample_masks(policy, 4, 4, ratio, rngs)
    assert [r.bit_generator.state for r in rngs] == before
    assert sample_masks(CROSS, 4, 4, 0.5, []).shape == (0, 4, 4)
