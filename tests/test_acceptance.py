"""End-to-end acceptance suite.

One test per acceptance criterion, in order, each printing a single
PASS/FAIL line with the measured quantity against its stated tolerance.
Run `pytest -v tests/test_acceptance.py` for the full scorecard; it takes
about 55 s on 2 cores, half of it the criterion 7/8 pretraining sweep, whose
ten runs share two worker processes.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from crossmae import cli
from crossmae.kcca import ViewGrams, cca_sigma, kcca_solve
from crossmae.masking import CROSS, SYNC, floor_count, sample_mask
from crossmae.model import (ArchSpec, alignment_identity, gradcheck_model,
                            init_model)
from crossmae.train import OptimConfig, PretrainConfig, ProbeConfig, pretrain, probe
from crossmae.imputation import (MissingnessTask, _sample_mask_array,
                                 impute_linear, impute_model, score, task_mask)
from crossmae.windows import SynthSpec, generate_windows, standardize


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    arch = ArchSpec(n_modalities=3, n_patches=4, patch_len=6)
    err, _ = gradcheck_model(arch, seed=0, h=1e-4, max_coords=6)
    elapsed = time.time() - t0
    _verdict(1, "gradient correctness", err < 1e-3 and elapsed < 120,
             f"max rel err {err:.3e} < 1e-3, {elapsed:.1f}s < 120s")


def test_criterion_02_overfit_sanity():
    t0 = time.time()
    ws, _ = generate_windows(SynthSpec(n_windows=8, n_modalities=6, n_samples=64,
                                       n_classes=4, shared_latent_strength=0.9,
                                       noise_sd=0.0, seed=11))
    arch = ArchSpec(n_modalities=6, n_patches=8, patch_len=8)
    opt = OptimConfig(lr=1e-2, epochs=500, warmup_epochs=10, batch_size=8)
    _, trace = pretrain(ws, arch,
                        PretrainConfig(policy=CROSS, mask_ratio=0.75,
                                       augment_prob=0.0, optim=opt), seed=11)
    elapsed = time.time() - t0
    ratio = trace[-1] / trace[0]
    _verdict(2, "overfit sanity", ratio < 0.10 and elapsed < 120,
             f"500 steps, final/initial loss {ratio:.4f} < 0.10, {elapsed:.0f}s < 120s")


def _analyze_rows(tmp_path, strength):
    cfg_path = tmp_path / "analyze.cfg"
    cfg_path.write_text(f"data.strength={strength}\n")
    out = tmp_path / f"run{strength}"
    assert cli.main(["analyze", "--out", str(out), "--config", str(cfg_path)]) == 0
    rows = {}
    for line in (out / "sigma1.csv").read_text().splitlines()[1:]:
        policy, seed, _, _, _, sigma1 = line.split(",")
        rows[(policy, int(seed))] = float(sigma1)
    return rows


def test_criterion_03_sigma1_policy_ordering(tmp_path):
    rows = _analyze_rows(tmp_path, 0.9)
    gaps = [rows[("cross", s)] - rows[("sync", s)] for s in range(5)]
    wins = sum(g > 0 for g in gaps)
    mean_gap = float(np.mean(gaps))
    _verdict(3, "sigma1 policy ordering", wins >= 4 and mean_gap > 0.02,
             f"cross beats sync in {wins}/5 seeds, mean gap {mean_gap:+.4f} > 0.02")


def test_criterion_04_sigma1_null_control(tmp_path):
    rows = _analyze_rows(tmp_path, 0.0)
    gap = float(np.mean([rows[("cross", s)] - rows[("sync", s)] for s in range(5)]))
    _verdict(4, "sigma1 null control", abs(gap) < 0.05,
             f"independent channels, |mean gap| {abs(gap):.4f} < 0.05")


def test_criterion_05_cca_oracles():
    rng = np.random.default_rng(7)
    n = 10_000
    rho = np.array([0.9, 0.5])
    z = rng.standard_normal((n, 2))
    w = rng.standard_normal((n, 2))
    u = z @ (rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
    m = (z * rho + w * np.sqrt(1.0 - rho**2)) @ (rng.standard_normal((2, 2))
                                                 + 2.0 * np.eye(2))
    u -= u.mean(axis=0)
    m -= m.mean(axis=0)
    sig = cca_sigma(u.T @ u / n, m.T @ m / n, u.T @ m / n)
    cca_ok = abs(sig[0] - 0.9) <= 0.02 and abs(sig[1] - 0.5) <= 0.02

    rng = np.random.default_rng(42)
    nk = 5_000
    z1 = rng.standard_normal(nk)
    y1 = 0.8 * z1 + 0.6 * rng.standard_normal(nk)
    x = z1[:, None]
    y = y1[:, None]
    rho_k = kcca_solve(ViewGrams(x @ x.T, y @ y.T), 1e-4)
    kcca_ok = abs(rho_k - 0.80) <= 0.02
    _verdict(5, "cca oracle",
             cca_ok and kcca_ok,
             f"designed sigma ({sig[0]:.4f}, {sig[1]:.4f}) vs (0.9, 0.5) +-0.02; "
             f"bivariate kcca rho {rho_k:.4f} vs 0.80 +-0.02")


def test_criterion_06_masking_combinatorics():
    ratios = (0.05, 0.25, 0.5, 0.75, 0.95)
    checked = 0
    for c in range(2, 7):
        for p in range(2, 13):
            for rho in ratios:
                k_cross = floor_count(rho, c * p)
                k_sync = floor_count(rho, p)
                do_cross = 1 <= k_cross < c * p
                do_sync = k_sync >= 1
                if not (do_cross or do_sync):
                    continue
                for seed in range(1000):
                    rng = np.random.default_rng(seed)
                    if do_cross:
                        m = sample_mask(CROSS, c, p, rho, rng)
                        assert int(m.sum()) == k_cross, (c, p, rho, seed)
                        checked += 1
                    if do_sync:
                        m = sample_mask(SYNC, c, p, rho, rng)
                        cols = m.sum(axis=0)
                        assert int((cols == c).sum()) == k_sync, (c, p, rho, seed)
                        assert int((cols == 0).sum()) == p - k_sync, (c, p, rho, seed)
                        checked += 1

    rng = np.random.default_rng(0)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        m = sample_mask(CROSS, 2, 2, 0.5, rng)
        key = m.tobytes()
        counts[key] = counts.get(key, 0) + 1
    uniform_ok = (len(counts) == 6 and
                  all(abs(v / draws - 1 / 6) <= 0.02 for v in counts.values()))
    worst = max(abs(v / draws - 1 / 6) for v in counts.values())
    _verdict(6, "masking combinatorics", uniform_ok,
             f"{checked} lattice draws exact; enumeration worst |freq - 1/6| "
             f"{worst:.4f} <= 0.02")


def _per_channel_mean(window, smask):
    filled = window.copy()
    for c in range(filled.shape[0]):
        vis = ~smask[c]
        filled[c, smask[c]] = filled[c, vis].mean() if vis.any() else 0.0
    return filled


# The criterion 07/08 sweep: five seeds of 32 windows of 6 x 64 samples.
SWEEP_SEEDS = range(5)
SWEEP_ARCH = ArchSpec(n_modalities=6, n_patches=8, patch_len=8)


def _sweep_windows(seed):
    return generate_windows(SynthSpec(
        n_windows=32, n_modalities=SWEEP_ARCH.n_modalities,
        n_samples=SWEEP_ARCH.n_patches * SWEEP_ARCH.patch_len, n_classes=4,
        shared_latent_strength=0.9, noise_sd=0.3, seed=seed))[0]


def _sweep_pretrain(seed, policy):
    """One of the sweep's pretraining runs, as a worker process runs it."""
    opt = OptimConfig(lr=5e-3, epochs=200, batch_size=8)
    state, _ = pretrain(_sweep_windows(seed), SWEEP_ARCH,
                        PretrainConfig(policy=policy, mask_ratio=0.75, optim=opt), seed=seed)
    return state


@pytest.fixture(scope="module")
def imputation_sweep():
    """Five seeds of paired cross/sync pretraining plus task evaluations.

    The ten pretraining runs share min(2, cores) spawned worker processes,
    each with one BLAS thread; the evaluations run here, seed by seed."""
    jobs = [(seed, policy) for seed in SWEEP_SEEDS for policy in (CROSS, SYNC)]
    with pytest.MonkeyPatch.context() as mp:
        # read by each worker's numpy at import; restored here on exit
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            trained = dict(zip(jobs, pool.map(_sweep_pretrain, *zip(*jobs))))
    c_n, p_n, patch_len = SWEEP_ARCH.n_modalities, SWEEP_ARCH.n_patches, SWEEP_ARCH.patch_len
    length = p_n * patch_len
    per_seed = []
    for seed in SWEEP_SEEDS:
        eval_ws = standardize(_sweep_windows(seed + 10_000))
        states = {policy: trained[(seed, policy)] for policy in (CROSS, SYNC)}
        rng = np.random.default_rng(seed + 777)
        mses = {}
        for kind in ("temporal", "sensor"):
            task = MissingnessTask(kind=kind, ratio=0.7)
            masks = np.stack([task_mask(task, c_n, p_n, rng) for _ in eval_ws])
            smasks = _sample_mask_array(masks, patch_len, length)
            fillers = {
                "model_cross": lambda w, m, sm: impute_model(states[CROSS], w[None], m[None])[0],
                "model_sync": lambda w, m, sm: impute_model(states[SYNC], w[None], m[None])[0],
                "linear": lambda w, m, sm: impute_linear(w[None], sm[None])[0],
                "mean": lambda w, m, sm: _per_channel_mean(w, sm),
            }
            for name, fill in fillers.items():
                filled = np.stack([fill(w, m, sm) for w, m, sm in zip(eval_ws, masks, smasks)])
                mses[(kind, name)] = score(filled, eval_ws, smasks).mse
        per_seed.append(mses)
    return per_seed


def test_criterion_07_imputation_ordering(imputation_sweep):
    temporal_wins = sum(
        r[("temporal", "model_cross")] < r[("temporal", "linear")]
        for r in imputation_sweep)
    sensor_wins = sum(
        r[("sensor", "model_cross")] < r[("sensor", "mean")]
        for r in imputation_sweep)
    _verdict(7, "imputation ordering",
             temporal_wins >= 4 and sensor_wins >= 4,
             f"temporal model<linear {temporal_wins}/5, "
             f"sensor model<mean {sensor_wins}/5, both need >=4")


def test_criterion_08_cross_beats_synchronized(imputation_sweep):
    wins = sum(
        r[("sensor", "model_cross")] < r[("sensor", "model_sync")]
        for r in imputation_sweep)
    gaps = [r[("sensor", "model_sync")] - r[("sensor", "model_cross")]
            for r in imputation_sweep]
    _verdict(8, "cross vs synchronized pretraining", wins >= 4,
             f"cross checkpoint lower sensor MSE in {wins}/5 seeds "
             f"(mean advantage {np.mean(gaps):+.3f})")


def test_criterion_09_probe_gain():
    c_n, length, patch_len = 6, 64, 8
    arch = ArchSpec(n_modalities=c_n, n_patches=length // patch_len,
                    patch_len=patch_len)
    ws, labels = generate_windows(SynthSpec(n_windows=400, n_modalities=c_n,
                                            n_samples=length, n_classes=4,
                                            shared_latent_strength=0.9, noise_sd=0.3,
                                            seed=42))
    pre_state, _ = pretrain(
        ws[:128], arch,
        PretrainConfig(optim=OptimConfig(lr=5e-3, epochs=100, batch_size=16)),
        seed=0)
    rand_state = init_model(arch, seed=7)

    cfg = ProbeConfig(mode="lp", epochs=200, lr=1e-2, train_fraction=0.7)
    before = pre_state.fingerprint()
    top1_pre = probe(pre_state, ws, labels, 4, cfg, seed=5).top1
    frozen = pre_state.fingerprint() == before
    top1_rand = probe(rand_state, ws, labels, 4, cfg, seed=5).top1
    gain = top1_pre - top1_rand
    _verdict(9, "probe gain", gain >= 0.10 and frozen,
             f"LP top-1 pretrained {top1_pre:.3f} vs random-init {top1_rand:.3f}, "
             f"gain {100 * gain:+.0f} points >= 10; encoder bit-identical: {frozen}")


def test_criterion_10_alignment_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        u = rng.standard_normal(24)
        v = rng.standard_normal(24)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        worst = max(worst, alignment_identity(u, v)[2])
    _verdict(10, "alignment identity", worst < 1e-10,
             f"1000 normalized pairs, max |L - (2c^2 - 2A)| = {worst:.2e} < 1e-10")


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_criterion_11_cli_determinism(tmp_path):
    data = tmp_path / "data"
    cfgs = {
        "synth": {"data.n_windows": 10, "data.n_modalities": 4,
                  "data.n_samples": 32, "seed": 3},
        "pretrain": {"data.dir": str(data), "arch.patch_len": 8,
                     "optim.epochs": 3, "optim.warmup_epochs": 1, "seed": 0},
        "impute": {"data.dir": str(data),
                   "checkpoint": str(tmp_path / "pretrain-a" / "checkpoint"),
                   "seed": 1},
        "probe": {"data.dir": str(data),
                  "checkpoint": str(tmp_path / "pretrain-a" / "checkpoint"),
                  "probe.epochs": 5, "seed": 2},
        # k = 5 components of 20 transitions, so sigma1 depends on the data
        "analyze": {"data.n_windows": 20, "data.n_modalities": 4,
                    "data.n_samples": 140, "exp.n_transitions": 20,
                    "exp.pca_k": 5, "exp.n_seeds": 1, "seed": 0},
        "gradcheck": {"arch.n_modalities": 2, "arch.n_patches": 2,
                      "arch.patch_len": 4, "arch.d_model": 8,
                      "arch.n_heads": 2, "check.max_coords": 2, "seed": 0},
    }
    cli.main(["synth", "--out", str(data), "--config", _cfg(tmp_path, "synth", cfgs)])
    mismatches = []
    for command, overrides in cfgs.items():
        cfg_path = _cfg(tmp_path, command, cfgs)
        run_a = tmp_path / f"{command}-a"
        run_b = tmp_path / f"{command}-b"
        cli.main([command, "--out", str(run_a), "--config", cfg_path])
        cli.main([command, "--out", str(run_b), "--config", cfg_path])
        a, b = _tree_bytes(run_a), _tree_bytes(run_b)
        if a != b:
            mismatches.append(command)
    # the reruns compare a sigma1 that no PCA of n - 1 components pins to 1
    sigma1 = [float(line.split(",")[-1]) for line in
              (tmp_path / "analyze-a" / "sigma1.csv").read_text().splitlines()[1:]]
    assert len(sigma1) == 2 and all(abs(s - 1.0) > 1e-3 for s in sigma1), sigma1
    _verdict(11, "cli determinism", not mismatches,
             "all six commands rerun byte-identical" if not mismatches
             else f"non-identical reruns: {', '.join(mismatches)}")


def _cfg(tmp_path, command, cfgs):
    path = tmp_path / f"{command}.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in cfgs[command].items()))
    return str(path)
