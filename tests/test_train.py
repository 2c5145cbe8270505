"""Optimizer math, LR schedule, pretraining loop, probe harness."""

from collections import Counter

import numpy as np
import pytest
from test_kernels import _summation_bound

from crossmae import kernels, train
from crossmae.masking import CROSS, SYNC
from crossmae.model import FORWARD_CHUNK, ArchSpec, init_model
from crossmae.tape import DiffArray
from crossmae.train import (AdamWState, OptimConfig, PretrainConfig, ProbeConfig,
                            adamw_step, class_embeddings, cosine_lr, pretrain,
                            probe)
from crossmae.windows import SynthSpec, generate_windows, patchify, standardize

ARCH = ArchSpec(n_modalities=3, n_patches=4, patch_len=8, d_model=8,
                enc_layers=1, dec_layers=1, n_heads=2, mlp_ratio=2)


def _windows(n=8, seed=0, noise=0.3, classes=4, length=32):
    """(values, labels) of n synthetic windows."""
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


@pytest.mark.parametrize("kwargs, message", [
    ({"lr": -1.0}, "lr must be positive, got -1.0"),
    ({"lr": 0.0}, "lr must be positive, got 0.0"),
    ({"lr": float("nan")}, "lr must be positive, got nan"),
    ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
    ({"epochs": -1}, "epochs must be at least 0, got -1"),
    ({"epochs": 5, "warmup_epochs": 10}, r"warmup_epochs must lie in \[0, 5\], got 10"),
    ({"beta1": 1.5}, r"beta1 must lie in \[0, 1\), got 1.5"),
    ({"beta1": -0.1}, r"beta1 must lie in \[0, 1\), got -0.1"),
    ({"beta2": 1.0}, r"beta2 must lie in \[0, 1\), got 1.0"),
    ({"beta2": float("nan")}, r"beta2 must lie in \[0, 1\), got nan"),
    ({"eps": 0.0}, "eps must be positive, got 0.0"),
    ({"weight_decay": -5.0}, "weight_decay must be at least 0, got -5.0"),
    ({"weight_decay": float("nan")}, "weight_decay must be at least 0, got nan"),
    ({"min_lr": -1.0}, r"min_lr must lie in \[0, 0.0005\], got -1.0"),
    ({"lr": 1e-3, "min_lr": 2e-3}, r"min_lr must lie in \[0, 0.001\], got 0.002"),
    ({"lr": float("inf")}, "lr must be finite, got inf"),
    ({"lr": float("-inf")}, "lr must be positive, got -inf"),
    ({"eps": float("inf")}, "eps must be finite, got inf"),
    ({"weight_decay": float("inf")}, "weight_decay must be finite, got inf")],
    ids=["lr-1", "lr0", "lr_nan", "batch_size0", "epochs-1", "warmup_epochs10",
         "beta1_1.5", "beta1-0.1", "beta2_1", "beta2_nan", "eps0", "weight_decay-5",
         "weight_decay_nan", "min_lr-1", "min_lr_above_lr", "lr_inf", "lr-inf", "eps_inf",
         "weight_decay_inf"])
def test_optim_config_names_the_bad_field_and_value(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OptimConfig(**kwargs)


@pytest.mark.parametrize("field, value", [("lr", 0.0), ("epochs", -1), ("weight_decay", -1.0),
                                          ("lr", float("inf")), ("weight_decay", float("inf"))])
def test_probe_names_a_bad_optimizer_setting(field, value):
    with pytest.raises(ValueError, match=f"^{field} must "):
        ProbeConfig(**{field: value})


def test_adamw_step_zero_grad_is_pure_decay():
    params = {"w": np.array([1.0, -2.0])}
    opt = AdamWState(params)
    opt.grad[...] = np.zeros(2)
    cfg = OptimConfig(weight_decay=0.05)
    adamw_step(opt, lr=0.1, cfg=cfg)
    assert np.max(np.abs(params["w"] - np.array([0.995, -1.99]))) < 1e-15
    assert opt.t == 1

    params2 = {"w": np.array([3.0])}
    opt2 = AdamWState(params2)
    opt2.grad[...] = np.zeros(1)
    adamw_step(opt2, lr=0.1, cfg=OptimConfig(weight_decay=0.0))
    assert params2["w"][0] == 3.0


def test_adamw_step_hand_computed_scalar():
    params = {"w": np.array([0.0])}
    opt = AdamWState(params)
    cfg = OptimConfig(weight_decay=0.0, beta1=0.9, beta2=0.95, eps=1e-8)
    opt.grad[...] = np.array([1.0])
    adamw_step(opt, lr=0.1, cfg=cfg)
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
    opt.grad[...] = np.concatenate([grads[k].ravel() for k in opt.names])
    adamw_step(opt, lr=0.01, cfg=OptimConfig())
    for k in params:
        assert params[k].shape == ref[k].shape
        assert np.max(np.abs(params[k] - ref[k])) > 0.0


def test_pretrain_deterministic_per_seed():
    ws, _ = _windows()
    cfg = PretrainConfig(optim=OptimConfig(epochs=3, warmup_epochs=1, batch_size=4))
    s1, t1 = pretrain(ws, ARCH, cfg, seed=5)
    s2, t2 = pretrain(ws, ARCH, cfg, seed=5)
    assert t1 == t2
    assert s1.fingerprint() == s2.fingerprint()
    s3, t3 = pretrain(ws, ARCH, cfg, seed=6)
    assert s3.fingerprint() != s1.fingerprint()


def test_pretrain_zero_epochs_returns_init():
    ws, _ = _windows()
    cfg = PretrainConfig(optim=OptimConfig(epochs=0, warmup_epochs=0))
    init = init_model(ARCH, seed=99)
    state, trace = pretrain(ws, ARCH, cfg, seed=0, init_state=init)
    assert trace == []
    assert state.fingerprint() == init.fingerprint()
    assert state is not init


def test_pretrain_policies_give_distinct_states():
    ws, _ = _windows()
    opt = OptimConfig(epochs=2, warmup_epochs=0, batch_size=8)
    a, _ = pretrain(ws, ARCH, PretrainConfig(policy=CROSS, optim=opt), seed=1)
    b, _ = pretrain(ws, ARCH, PretrainConfig(policy=SYNC, optim=opt), seed=1)
    assert a.fingerprint() != b.fingerprint()


def test_pretrain_rejects_empty_dataset():
    with pytest.raises(ValueError):
        pretrain(np.empty((0, 3, 32)), ARCH, PretrainConfig(), seed=0)


# As for imputation's model fill: a window's class token may move by a few ulps
# with its chunk. Each is held to the summation bound of its own D features;
# measured at most 1% of it.
def test_class_embeddings_match_one_window_calls_within_the_summation_bound():
    arch = ArchSpec(n_modalities=6, n_patches=25, patch_len=8)
    state = init_model(arch, seed=1)
    ws, _ = generate_windows(SynthSpec(n_windows=FORWARD_CHUNK + 4, n_modalities=6,
                                       n_samples=200, n_classes=4, shared_latent_strength=0.9,
                                       noise_sd=0.1, seed=5))
    got = class_embeddings(state, ws)
    want = np.concatenate([class_embeddings(state, w[None]) for w in ws])
    assert got.shape == want.shape == (len(ws), arch.d_model)
    assert np.all(np.abs(got - want) <= _summation_bound(want)[:, None])


def test_class_embeddings_shape_and_determinism():
    ws, _ = _windows(n=6)
    state = init_model(ARCH, seed=0)
    e1 = class_embeddings(state, ws)
    e2 = class_embeddings(state, ws)
    assert e1.shape == (6, ARCH.d_model)
    assert np.array_equal(e1, e2)


def test_probe_untrained_head_is_chance_level():
    ws, labels = _windows(n=400, seed=21, classes=4)
    state = init_model(ARCH, seed=0)
    cfg = ProbeConfig(mode="lp", epochs=0, train_fraction=0.7)
    res = probe(state, ws, labels, 4, cfg, seed=3)
    assert abs(res.top1 - 0.25) <= 0.1
    assert res.train_size == 280 and res.val_size == 120


def test_linear_probe_leaves_encoder_bit_identical():
    ws, labels = _windows(n=40, seed=22)
    state = init_model(ARCH, seed=1)
    before = state.fingerprint()
    res = probe(state, ws, labels, 4, ProbeConfig(mode="lp", epochs=10), seed=3)
    assert state.fingerprint() == before
    assert res.trace and res.trace[-1] < res.trace[0]


def test_probe_deterministic_per_seed():
    ws, labels = _windows(n=30, seed=23)
    state = init_model(ARCH, seed=2)
    cfg = ProbeConfig(mode="lp", epochs=5)
    r1 = probe(state, ws, labels, 4, cfg, seed=9)
    r2 = probe(state, ws, labels, 4, cfg, seed=9)
    assert r1.top1 == r2.top1 and r1.trace == r2.trace


def test_fine_tune_mode_updates_encoder():
    ws, labels = _windows(n=12, seed=24)
    state = init_model(ARCH, seed=3)
    before = state.fingerprint()
    res = probe(state, ws, labels, 4, ProbeConfig(mode="ft", epochs=2), seed=4)
    assert 0.0 <= res.top1 <= 1.0
    assert state.fingerprint() == before  # caller's state untouched; FT works on a copy


def test_probe_label_length_mismatch():
    ws, _ = _windows(n=5)
    with pytest.raises(ValueError):
        probe(init_model(ARCH, seed=0), ws, np.zeros(4, dtype=int), 4,
              ProbeConfig(), seed=0)


@pytest.mark.parametrize("bad", [-1, 4])
def test_probe_rejects_a_label_outside_its_classes(monkeypatch, bad):
    ws, labels = _windows(n=6, seed=25)
    labels[[2, 4]] = bad
    # the check comes before any draw
    monkeypatch.setattr(train, "_split_indices", lambda *a: pytest.fail("drew a split"))
    with pytest.raises(ValueError, match=f"^label {bad} at index 2 is not a class in \\[0, 4\\)$"):
        probe(init_model(ARCH, seed=0), ws, labels, 4, ProbeConfig(epochs=3), seed=0)


@pytest.mark.parametrize("mode, group", [("lp", "probe.W"), ("ft", "embed.W")])
def test_probe_names_the_step_and_group_of_a_non_finite_gradient(monkeypatch, mode, group):
    ws, labels = _windows(n=12, seed=24)
    state = init_model(ARCH, seed=0)
    state.params["enc0.mlp.W1"][0, 0] = np.nan
    steps = []
    monkeypatch.setattr(train, "adamw_step", lambda *args: steps.append(args))
    with pytest.raises(FloatingPointError,
                       match=rf"^probe step 0: loss nan, first non-finite gradient in {group}$"):
        probe(state, ws, labels, 4, ProbeConfig(mode=mode, epochs=2), seed=4)
    assert steps == []


def test_pretrain_stops_at_step_0_on_a_nan_sample(monkeypatch):
    ws, _ = _windows()
    ws[3, 1, 5] = np.nan
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
        pretrain(_windows()[0], ARCH, cfg, seed=0, init_state=init)


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
    opt.grad[...] = np.concatenate([grads[k].ravel() for k in opt.names])
    adamw_step(opt, lr=0.01, cfg=cfg)
    assert len(params) == 40 and len(calls) == 1
    for k in params:
        assert params[k].tobytes() == per_group[k].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pretrain_stops_on_finite_divergence():
    # lr 1e3 drives the loss to ~1e99 without ever making it non-finite; the
    # squared gradient then overflows AdamW's second moment.
    cfg = PretrainConfig(optim=OptimConfig(lr=1e3, warmup_epochs=0, batch_size=16, epochs=20))
    with pytest.raises(FloatingPointError,
                       match=r"pretrain step \d+: loss [-+0-9.e]+, AdamW left enc0\.mlp\.W2 "
                             r"or its second moment non-finite"):
        pretrain(_windows()[0], ARCH, cfg, seed=0)


def test_pretrain_grids_each_dataset_window_once_and_never_mutates_it(monkeypatch):
    ws, _ = _windows()
    fresh = {g.tobytes() for g in patchify(standardize(ws), ARCH.patch_len)}
    seen, built = [], []
    real_loss, real_patchify = train.mae_loss, train.patchify

    def spy_loss(b, grids, masks, **kwargs):
        loss = real_loss(b, grids, masks, **kwargs)
        seen.extend(g.tobytes() for g in grids)  # read after the model ran
        return loss

    monkeypatch.setattr(train, "mae_loss", spy_loss)
    monkeypatch.setattr(train, "patchify", lambda *a: built.append(a) or real_patchify(*a))
    cfg = PretrainConfig(augment_prob=0.0,
                         optim=OptimConfig(epochs=3, warmup_epochs=0, batch_size=3))
    pretrain(ws, ARCH, cfg, seed=0)
    assert len(seen) == 3 * len(ws) and len(built) == 1  # one call for the whole dataset
    # every window, unchanged, once per epoch
    assert Counter(seen) == {g: 3 for g in fresh}


def test_every_spliced_row_is_its_window_standardized_and_patchified(monkeypatch):
    ws, _ = _windows()
    spliced, seen = [], []
    real_splice, real_loss = train.splice_augment, train.mae_loss

    def spy_splice(*args, **kwargs):
        res = real_splice(*args, **kwargs)
        spliced.append(res.window.copy())
        return res

    def spy_loss(b, grids, masks, **kwargs):
        seen.extend(g.tobytes() for g in grids)
        return real_loss(b, grids, masks, **kwargs)

    monkeypatch.setattr(train, "splice_augment", spy_splice)
    monkeypatch.setattr(train, "mae_loss", spy_loss)
    cfg = PretrainConfig(augment_prob=1.0,
                         optim=OptimConfig(epochs=2, warmup_epochs=0, batch_size=3))
    pretrain(ws, ARCH, cfg, seed=0)
    assert len(seen) == len(spliced) == 2 * len(ws)
    assert seen == [patchify(standardize(w), ARCH.patch_len).tobytes() for w in spliced]


def test_linear_probe_top1_reads_the_trained_head():
    # Both values were recorded before the head moved into AdamWState's flat
    # buffer; a probe scoring the stale initial head would report 0.25.
    ws, labels = _windows(n=40, seed=25)
    state = init_model(ARCH, seed=1)
    untrained = probe(state, ws, labels, 4, ProbeConfig(mode="lp", epochs=0, lr=5e-2), seed=3)
    trained = probe(state, ws, labels, 4, ProbeConfig(mode="lp", epochs=60, lr=5e-2), seed=3)
    assert untrained.top1 == 3 / 12
    assert trained.top1 == 7 / 12


@pytest.mark.parametrize("mode", ["lp", "ft"])
def test_probe_rejects_fewer_than_two_windows(mode):
    ws, labels = _windows(n=1)
    with pytest.raises(ValueError, match="at least 2 windows.*got 1$"):
        probe(init_model(ARCH, seed=0), ws, labels, 4, ProbeConfig(mode=mode, epochs=2), seed=0)


def _spy_on_steps(monkeypatch):
    """Record every Binding a training loop makes and the AdamWState of each
    _step call."""
    bindings, opts = [], []
    real_binding, real_step = train.Binding, train._step

    def binding(*args, **kwargs):
        bindings.append(real_binding(*args, **kwargs))
        return bindings[-1]

    def step(loop, step, state, opt, lr, cfg, build_loss):
        opts.append(opt)
        return real_step(loop, step, state, opt, lr, cfg, build_loss)

    monkeypatch.setattr(train, "Binding", binding)
    monkeypatch.setattr(train, "_step", step)
    return bindings, opts


@pytest.mark.parametrize("mode, epochs, per_epoch, warmup_epochs, lr, min_lr", [
    ("pretrain", 3, 3, 1, 2e-3, 1e-4),  # 12 windows in batches of 5, 5 and 2
    ("lp", 3, 1, 0, 1e-2, 0.0),  # one full batch of the 8 training windows
    ("ft", 2, 2, 0, 1e-2, 0.0),  # 28 training windows in batches of 16 and 12
])
def test_every_step_gets_the_cosine_schedule_lr(monkeypatch, mode, epochs, per_epoch,
                                                warmup_epochs, lr, min_lr):
    lrs = []
    real = train.adamw_step
    monkeypatch.setattr(train, "adamw_step",
                        lambda opt, lr, cfg: lrs.append(lr) or real(opt, lr, cfg))
    if mode == "pretrain":
        pretrain(_windows(n=12)[0], ARCH,
                 PretrainConfig(optim=OptimConfig(lr=lr, min_lr=min_lr, epochs=epochs,
                                                  warmup_epochs=warmup_epochs, batch_size=5)),
                 seed=0)
    else:
        ws, labels = _windows(n=12 if mode == "lp" else 40, seed=24)
        probe(init_model(ARCH, seed=0), ws, labels, 4,
              ProbeConfig(mode=mode, epochs=epochs, lr=lr), seed=0)
    total, warmup = epochs * per_epoch, warmup_epochs * per_epoch
    assert lrs == [cosine_lr(s, warmup, total, lr, min_lr) for s in range(total)]


@pytest.mark.parametrize("mode", ["pretrain", "lp", "ft"])
def test_backward_writes_every_gradient_into_the_optimizer_buffer(monkeypatch, mode):
    ws, labels = _windows(n=12, seed=24)
    bindings, opts = _spy_on_steps(monkeypatch)
    if mode == "pretrain":
        pretrain(ws, ARCH, PretrainConfig(optim=OptimConfig(epochs=2, warmup_epochs=0,
                                                            batch_size=8)), seed=0)
    else:
        probe(init_model(ARCH, seed=0), ws, labels, 4, ProbeConfig(mode=mode, epochs=2),
              seed=0)
    trained = [b for b in bindings if b.p and isinstance(next(iter(b.p.values())), DiffArray)]
    assert len(trained) == len(opts) == (4 if mode == "pretrain" else 2)
    opt = opts[0]
    assert all(o is opt for o in opts)
    for b in trained:
        assert list(b.p) == opt.names
    # the buffer holds the last step's leaf gradients in opt.names order,
    # finite and not all zero
    last = np.concatenate([leaf.grad.ravel() for leaf in trained[-1].p.values()])
    assert np.array_equal(opt.grad, last)
    assert np.isfinite(opt.grad).all() and opt.grad.any()
