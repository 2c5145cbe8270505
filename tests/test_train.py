"""Optimizer math, LR schedule, pretraining loop, probe harness."""

import numpy as np
import pytest

from crossmae import kernels, train
from crossmae.masking import CROSS, SYNC
from crossmae.model import ArchSpec, init_model
from crossmae.train import (AdamWState, OptimConfig, PretrainConfig, ProbeConfig,
                            adamw_step, class_embeddings, cosine_lr, pretrain,
                            probe)
from crossmae.windows import SynthSpec, generate_windows, patchify, standardize

ARCH = ArchSpec(n_modalities=3, n_patches=4, patch_len=8, d_model=8,
                enc_layers=1, dec_layers=1, n_heads=2, mlp_ratio=2)


def _windows(n=8, seed=0, noise=0.3, classes=4, length=32):
    return generate_windows(SynthSpec(n_windows=n, n_modalities=3, n_samples=length,
                                      n_classes=classes, shared_latent_strength=0.9,
                                      noise_sd=noise, seed=seed))


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(10, 10, 100, 2.0, 0.5) == 2.0
    assert abs(cosine_lr(100, 10, 100, 2.0, 0.5) - 0.5) < 1e-15
    assert abs(cosine_lr(55, 10, 100, 2.0, 0.5) - 1.25) < 1e-12  # cos(pi/2) = 0
    assert cosine_lr(0, 10, 100, 2.0, 0.5) == 0.0
    assert cosine_lr(5, 10, 100, 2.0, 0.0) == 1.0  # linear warmup
    with pytest.raises(ValueError):
        cosine_lr(101, 10, 100, 2.0, 0.5)
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 100, 2.0, 0.5)


def test_optim_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(epochs=5, warmup_epochs=10)
    with pytest.raises(ValueError):
        OptimConfig(lr=-1.0)
    with pytest.raises(ValueError):
        OptimConfig(batch_size=0)


def test_adamw_step_zero_grad_is_pure_decay():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    opt = AdamWState(params)
    cfg = OptimConfig(weight_decay=0.05)
    adamw_step(params, grads, opt, lr=0.1, cfg=cfg)
    assert np.max(np.abs(params["w"] - np.array([0.995, -1.99]))) < 1e-15
    assert opt.t == 1

    params2 = {"w": np.array([3.0])}
    opt2 = AdamWState(params2)
    adamw_step(params2, {"w": np.zeros(1)}, opt2, lr=0.1,
               cfg=OptimConfig(weight_decay=0.0))
    assert params2["w"][0] == 3.0


def test_adamw_step_hand_computed_scalar():
    params = {"w": np.array([0.0])}
    opt = AdamWState(params)
    cfg = OptimConfig(weight_decay=0.0, beta1=0.9, beta2=0.95, eps=1e-8)
    adamw_step(params, {"w": np.array([1.0])}, opt, lr=0.1, cfg=cfg)
    m_hat = (1 - 0.9) * 1.0 / (1 - 0.9**1)
    v_hat = (1 - 0.95) * 1.0 / (1 - 0.95**1)
    want = -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(params["w"][0] - want) < 1e-15


def test_adamw_step_updates_multi_dim_params_in_place():
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
    ref = {k: v.copy() for k, v in params.items()}
    grads = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
    opt = AdamWState(params)
    adamw_step(params, grads, opt, lr=0.01, cfg=OptimConfig())
    for k in params:
        assert params[k].shape == ref[k].shape
        assert np.max(np.abs(params[k] - ref[k])) > 0.0


def test_pretrain_deterministic_per_seed():
    ws = _windows()
    cfg = PretrainConfig(optim=OptimConfig(epochs=3, warmup_epochs=1, batch_size=4))
    s1, t1 = pretrain(ws, ARCH, cfg, seed=5)
    s2, t2 = pretrain(ws, ARCH, cfg, seed=5)
    assert t1 == t2
    assert s1.fingerprint() == s2.fingerprint()
    s3, t3 = pretrain(ws, ARCH, cfg, seed=6)
    assert s3.fingerprint() != s1.fingerprint()


def test_pretrain_zero_epochs_returns_init():
    ws = _windows()
    cfg = PretrainConfig(optim=OptimConfig(epochs=0, warmup_epochs=0))
    init = init_model(ARCH, seed=99)
    state, trace = pretrain(ws, ARCH, cfg, seed=0, init_state=init)
    assert trace == []
    assert state.fingerprint() == init.fingerprint()
    assert state is not init


def test_pretrain_policies_give_distinct_states():
    ws = _windows()
    opt = OptimConfig(epochs=2, warmup_epochs=0, batch_size=8)
    a, _ = pretrain(ws, ARCH, PretrainConfig(policy=CROSS, optim=opt), seed=1)
    b, _ = pretrain(ws, ARCH, PretrainConfig(policy=SYNC, optim=opt), seed=1)
    assert a.fingerprint() != b.fingerprint()


def test_pretrain_rejects_empty_dataset():
    with pytest.raises(ValueError):
        pretrain([], ARCH, PretrainConfig(), seed=0)


def test_class_embeddings_shape_and_determinism():
    ws = _windows(n=6)
    state = init_model(ARCH, seed=0)
    e1 = class_embeddings(state, ws)
    e2 = class_embeddings(state, ws)
    assert e1.shape == (6, ARCH.d_model)
    assert np.array_equal(e1, e2)


def test_probe_untrained_head_is_chance_level():
    ws = _windows(n=400, seed=21, classes=4)
    labels = np.array([w.label for w in ws])
    state = init_model(ARCH, seed=0)
    cfg = ProbeConfig(mode="lp", epochs=0, train_fraction=0.7)
    res = probe(state, ws, labels, 4, cfg, seed=3)
    assert abs(res.top1 - 0.25) <= 0.1
    assert res.train_size == 280 and res.val_size == 120


def test_linear_probe_leaves_encoder_bit_identical():
    ws = _windows(n=40, seed=22)
    labels = np.array([w.label for w in ws])
    state = init_model(ARCH, seed=1)
    before = state.fingerprint()
    res = probe(state, ws, labels, 4, ProbeConfig(mode="lp", epochs=10), seed=3)
    assert state.fingerprint() == before
    assert res.trace and res.trace[-1] < res.trace[0]


def test_probe_deterministic_per_seed():
    ws = _windows(n=30, seed=23)
    labels = np.array([w.label for w in ws])
    state = init_model(ARCH, seed=2)
    cfg = ProbeConfig(mode="lp", epochs=5)
    r1 = probe(state, ws, labels, 4, cfg, seed=9)
    r2 = probe(state, ws, labels, 4, cfg, seed=9)
    assert r1.top1 == r2.top1 and r1.trace == r2.trace


def test_fine_tune_mode_updates_encoder():
    ws = _windows(n=12, seed=24)
    labels = np.array([w.label for w in ws])
    state = init_model(ARCH, seed=3)
    before = state.fingerprint()
    res = probe(state, ws, labels, 4, ProbeConfig(mode="ft", epochs=2), seed=4)
    assert 0.0 <= res.top1 <= 1.0
    assert state.fingerprint() == before  # caller's state untouched; FT works on a copy


def test_probe_label_length_mismatch():
    ws = _windows(n=5)
    with pytest.raises(ValueError):
        probe(init_model(ARCH, seed=0), ws, np.zeros(4, dtype=int), 4,
              ProbeConfig(), seed=0)



def test_pretrain_stops_at_step_0_on_a_nan_sample(monkeypatch):
    ws = _windows()
    ws[3].values[1, 5] = np.nan  # written after SensorWindow validated the array
    steps = []
    monkeypatch.setattr(train, "adamw_step", lambda *args: steps.append(args))
    cfg = PretrainConfig(augment_prob=0.0,
                         optim=OptimConfig(epochs=2, warmup_epochs=0, batch_size=8))
    with pytest.raises(ValueError, match="finite"):
        pretrain(ws, ARCH, cfg, seed=0)
    assert steps == []


def test_pretrain_names_the_step_and_group_of_a_non_finite_gradient():
    init = init_model(ARCH, seed=0).copy()
    init.params["enc0.mlp.W1"][0, 0] = np.nan
    cfg = PretrainConfig(optim=OptimConfig(epochs=2, warmup_epochs=0, batch_size=8))
    with pytest.raises(FloatingPointError,
                       match=r"step 0: loss nan, first non-finite gradient in embed\.W"):
        pretrain(_windows(), ARCH, cfg, seed=0, init_state=init)


def test_adamw_state_entries_share_one_buffer():
    params = init_model(ARCH, seed=0).params
    before = {k: v.copy() for k, v in params.items()}
    opt = AdamWState(params)
    assert list(params) == list(before)
    assert opt.flat.size == opt.m.size == opt.v.size == sum(v.size for v in before.values())
    for k, v in params.items():
        assert np.shares_memory(v, opt.flat)
        assert v.shape == before[k].shape and np.array_equal(v, before[k])
    opt.flat[:] = 0.0
    assert not any(v.any() for v in params.values())


def test_adamw_step_is_one_kernel_call_equal_to_one_per_group(monkeypatch):
    rng = np.random.default_rng(4)
    params = init_model(ARCH, seed=0).params
    grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    cfg = OptimConfig()
    per_group = {}
    for k, v in params.items():
        p, m, vv = v.ravel().copy(), np.zeros(v.size), np.zeros(v.size)
        kernels.adamw_update(p, grads[k].ravel(), m, vv, 0.01, cfg.beta1, cfg.beta2, cfg.eps,
                             cfg.weight_decay, 1.0 - cfg.beta1, 1.0 - cfg.beta2)
        per_group[k] = p.reshape(v.shape)
    calls = []
    real = kernels.adamw_update
    monkeypatch.setattr(kernels, "adamw_update", lambda *a: calls.append(a) or real(*a))
    opt = AdamWState(params)
    adamw_step(params, grads, opt, lr=0.01, cfg=cfg)
    assert len(params) == 42 and len(calls) == 1
    for k in params:
        assert params[k].tobytes() == per_group[k].tobytes()
    with pytest.raises(ValueError, match="parameter dict"):
        adamw_step(dict(params), grads, opt, lr=0.01, cfg=cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pretrain_stops_on_finite_divergence():
    # lr 1e3 drives the loss to ~1e99 without ever making it non-finite; the
    # squared gradient then overflows AdamW's second moment.
    cfg = PretrainConfig(optim=OptimConfig(lr=1e3, warmup_epochs=0, batch_size=16, epochs=20))
    with pytest.raises(FloatingPointError,
                       match=r"pretrain step \d+: loss [-+0-9.e]+, AdamW left embed\.W or its "
                             r"second moment non-finite"):
        pretrain(_windows(), ARCH, cfg, seed=0)


def test_pretrain_grids_each_dataset_window_once_and_never_mutates_it(monkeypatch):
    ws = _windows()
    fresh = {patchify(standardize(w), ARCH.patch_len).patches.tobytes() for w in ws}
    seen, built = [], []
    real_loss, real_patchify = train.mae_loss, train.patchify

    def spy_loss(b, grids, masks, **kwargs):
        seen.extend(grids)
        return real_loss(b, grids, masks, **kwargs)

    monkeypatch.setattr(train, "mae_loss", spy_loss)
    monkeypatch.setattr(train, "patchify", lambda *a: built.append(a) or real_patchify(*a))
    cfg = PretrainConfig(augment_prob=0.0,
                         optim=OptimConfig(epochs=3, warmup_epochs=0, batch_size=3))
    pretrain(ws, ARCH, cfg, seed=0)
    assert len(seen) == 3 * len(ws) and len(built) == len(ws)
    cached = {id(g): g for g in seen}.values()
    assert len(cached) == len(ws)
    assert all(not g.patches.flags.writeable for g in cached)
    assert {g.patches.tobytes() for g in cached} == fresh


def test_linear_probe_top1_reads_the_trained_head():
    # Both values were recorded before the head moved into AdamWState's flat
    # buffer; a probe scoring the stale initial head would report 0.25.
    ws = _windows(n=40, seed=25)
    labels = np.array([w.label for w in ws])
    state = init_model(ARCH, seed=1)
    untrained = probe(state, ws, labels, 4, ProbeConfig(mode="lp", epochs=0, lr=5e-2), seed=3)
    trained = probe(state, ws, labels, 4, ProbeConfig(mode="lp", epochs=60, lr=5e-2), seed=3)
    assert untrained.top1 == 3 / 12
    assert trained.top1 == 7 / 12
