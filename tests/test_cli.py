"""CLI subcommands: run layout, determinism hooks, config plumbing."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from crossmae import cli
from crossmae.config import ManifestError
from crossmae.model import (ArchSpec, _param_layout, init_model, load_checkpoint,
                            save_checkpoint)
from crossmae.train import OptimConfig, PretrainConfig, pretrain
from crossmae.windows import (SynthSpec, draw_splice, generate_windows, load_dataset,
                              save_dataset, splice_augment)


def _write_cfg(path, **kv):
    with open(path, "w") as fh:
        for k, v in kv.items():
            fh.write(f"{k}={v}\n")
    return str(path)


def _run(cmd, out, cfg_path=None, seed=None):
    argv = [cmd, "--out", str(out)]
    if cfg_path:
        argv += ["--config", str(cfg_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert cli.main(argv) == 0
    assert not os.path.exists(os.path.join(out, cli.ERROR_NAME))
    return str(out)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliruns")
    cfg = _write_cfg(root / "synth.cfg", **{
        "data.n_windows": 12, "data.n_modalities": 4, "data.n_samples": 32,
        "data.n_classes": 4, "data.noise_sd": 0.2, "seed": 3})
    return _run("synth", root / "data", cfg)


@pytest.fixture(scope="module")
def checkpoint_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("clipre")
    cfg = _write_cfg(root / "pre.cfg", **{
        "data.dir": data_dir, "arch.patch_len": 8, "optim.epochs": 2,
        "optim.warmup_epochs": 1, "optim.batch_size": 16, "seed": 0})
    out = _run("pretrain", root / "run", cfg)
    return os.path.join(out, "checkpoint")


def test_run_dir_records_config_and_format(data_dir):
    cfg_text = open(os.path.join(data_dir, "config.txt")).read()
    assert "data.n_windows=12" in cfg_text
    assert "seed=3" in cfg_text
    fmt = open(os.path.join(data_dir, "format.txt")).read()
    assert fmt == "crossmae-run-v1\ncommand=synth\n"


def test_run_dir_records_the_versions_that_ran_it(data_dir):
    import platform

    import crossmae

    run = open(os.path.join(data_dir, "run.txt")).read()
    assert run == (f"crossmae={crossmae.__version__}\npython={platform.python_version()}\n"
                   f"numpy={np.__version__}\n")


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in Path(root).rglob("*")
            if p.is_file()}


@pytest.mark.parametrize("command", ["impute", "synth"])
def test_a_run_into_another_command_s_directory_is_refused_before_writing(
        data_dir, checkpoint_dir, tmp_path, capsys, command):
    import shutil

    out = tmp_path / "pretrained"
    shutil.copytree(os.path.dirname(checkpoint_dir), out)
    before = _tree(out)
    cfg = _write_cfg(tmp_path / "c.cfg", **(
        {"data.dir": data_dir, "checkpoint": checkpoint_dir} if command == "impute"
        else {"data.n_windows": 2, "data.n_samples": 16}))
    assert cli.console([command, "--out", str(out), "--config", cfg]) == 1
    fmt = re.escape(str(out / cli.FORMAT_NAME))
    assert re.fullmatch(rf"crossmae: {fmt}: the directory holds a run of command pretrain; "
                        rf"{command} will not write into it\n", capsys.readouterr().err)
    assert _tree(out) == before


def test_a_format_file_that_is_not_utf8_is_refused_by_name(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / cli.FORMAT_NAME).write_bytes(f"{cli.RUN_FORMAT}\n".encode() + b"command=\xffsynth\n")
    cfg = _write_cfg(tmp_path / "c.cfg", **{"data.n_windows": 2, "data.n_samples": 16})
    assert cli.console(["synth", "--out", str(out), "--config", cfg]) == 1
    fmt = re.escape(str(out / cli.FORMAT_NAME))
    assert re.fullmatch(rf"crossmae: {fmt}: not UTF-8 text \(.*\)\n", capsys.readouterr().err)
    assert os.listdir(out) == [cli.FORMAT_NAME]


def test_synth_layout_and_blob_identity(data_dir, tmp_path):
    values, _, n_classes = load_dataset(data_dir)
    assert values.shape == (12, 4, 32) and n_classes == 4
    blob = os.path.join(data_dir, "data.f32")
    assert os.path.getsize(blob) == (12 * 4 * 32 + 12) * 4  # the values, then the labels

    cfg = _write_cfg(tmp_path / "again.cfg", **{
        "data.n_windows": 12, "data.n_modalities": 4, "data.n_samples": 32,
        "data.n_classes": 4, "data.noise_sd": 0.2, "seed": 3})
    again = _run("synth", tmp_path / "again", cfg)
    assert open(blob, "rb").read() == open(os.path.join(again, "data.f32"), "rb").read()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path / "s.cfg", **{"data.n_windows": 3, "seed": 3})
    out = _run("synth", tmp_path / "o", cfg, seed=9)
    assert "seed=9" in open(os.path.join(out, "config.txt")).read()


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path / "bad.cfg", **{"data.windows": 5})
    with pytest.raises(ManifestError, match="unknown key 'data.windows'"):
        cli.main(["synth", "--out", str(tmp_path / "o"), "--config", cfg])


def test_missing_out_flag_exits(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["synth"])
    with pytest.raises(SystemExit):
        cli.main([])


def test_pretrain_outputs_and_epoch_zero_matches_init(data_dir, tmp_path):
    base = {"data.dir": data_dir, "arch.patch_len": 8, "optim.epochs": 0,
            "optim.warmup_epochs": 0, "seed": 5}
    out1 = _run("pretrain", tmp_path / "a", _write_cfg(tmp_path / "c1.cfg", **base))
    out2 = _run("pretrain", tmp_path / "b", _write_cfg(tmp_path / "c2.cfg", **base))
    blob1 = open(os.path.join(out1, "checkpoint", "data.f32"), "rb").read()
    blob2 = open(os.path.join(out2, "checkpoint", "data.f32"), "rb").read()
    assert blob1 == blob2
    assert open(os.path.join(out1, "summary.txt")).read() == "final_loss=nan\n"
    assert open(os.path.join(out1, "loss.csv")).read() == "epoch,loss\n"

    windows, _, _ = load_dataset(data_dir)
    state, _ = pretrain(windows, load_checkpoint(os.path.join(out1, "checkpoint")).arch,
                        PretrainConfig(optim=OptimConfig(epochs=0, warmup_epochs=0)),
                        seed=5)
    names = sorted(state.params)
    manual = np.concatenate([state.params[n].ravel() for n in names]).astype("<f4")
    assert manual.tobytes() == blob1  # checkpoint is exactly the untouched init


def test_pretrain_policies_distinct_and_loadable(data_dir, tmp_path):
    outs = {}
    for policy in ("cross", "sync"):
        cfg = _write_cfg(tmp_path / f"{policy}.cfg", **{
            "data.dir": data_dir, "arch.patch_len": 8, "optim.epochs": 2,
            "optim.warmup_epochs": 0, "mask.policy": policy, "seed": 1})
        outs[policy] = _run("pretrain", tmp_path / policy, cfg)
    a = load_checkpoint(os.path.join(outs["cross"], "checkpoint"))
    b = load_checkpoint(os.path.join(outs["sync"], "checkpoint"))
    assert a.fingerprint() != b.fingerprint()


def test_pretrain_resume_continues_trace(data_dir, tmp_path):
    common = {"data.dir": data_dir, "arch.patch_len": 8, "optim.lr": 5e-3,
              "optim.warmup_epochs": 2, "optim.batch_size": 16,
              "augment.prob": 0.0, "seed": 2}
    first = _run("pretrain", tmp_path / "first",
                 _write_cfg(tmp_path / "f.cfg", **common, **{"optim.epochs": 4}))
    resumed = _run("pretrain", tmp_path / "resumed",
                   _write_cfg(tmp_path / "r.cfg", **common, **{
                       "optim.epochs": 4, "resume": os.path.join(first, "checkpoint")}))

    def trace_of(d):
        lines = open(os.path.join(d, "loss.csv")).read().splitlines()[1:]
        return [float(line.split(",")[1]) for line in lines]

    t_first, t_resumed = trace_of(first), trace_of(resumed)
    drop = t_first[0] - t_first[-1]
    assert drop > 0
    assert t_resumed[0] < t_first[0] - 0.5 * drop  # warm start, not a fresh model
    assert abs(t_resumed[0] - t_first[-1]) < 0.5 * drop + 0.05


def test_pretrain_names_the_checkpoint_float32_cannot_hold(tmp_path):
    # one step at lr 1e40 leaves finite float64 parameters past float32's
    # range, and the step that does so stops the run before any checkpoint
    save_dataset(tmp_path / "data", np.random.default_rng(0).standard_normal((24, 4, 64)),
                 np.zeros(24, dtype=np.int64), n_classes=1)
    cfg = _write_cfg(tmp_path / "lr.cfg", **{
        "data.dir": tmp_path / "data", "optim.lr": 1e40, "optim.epochs": 1,
        "optim.warmup_epochs": 0, "optim.batch_size": 32})
    checkpoint = tmp_path / "o" / "checkpoint"
    with pytest.raises(FloatingPointError, match=r"^pretrain step 0: loss \S+, AdamW left "
                                                 r"embed\.W or its second moment non-finite, "
                                                 r"or past float32's largest value "
                                                 r"3\.4028235e\+38$"):
        cli.main(["pretrain", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(checkpoint)
    error = open(tmp_path / "o" / cli.ERROR_NAME).read()
    assert error.startswith("pretrain step 0: ") and error.count("\n") == 1


def test_pretrain_resume_arch_mismatch_rejected(data_dir, checkpoint_dir, tmp_path):
    cfg = _write_cfg(tmp_path / "m.cfg", **{
        "data.dir": data_dir, "arch.patch_len": 4, "optim.epochs": 1,
        "optim.warmup_epochs": 0, "resume": checkpoint_dir, "seed": 0})
    with pytest.raises(ManifestError, match="does not match"):
        cli.main(["pretrain", "--out", str(tmp_path / "o"), "--config", cfg])


def test_impute_report_rows_and_rerun_bytes(data_dir, checkpoint_dir, tmp_path):
    cfg = _write_cfg(tmp_path / "imp.cfg", **{
        "data.dir": data_dir, "checkpoint": checkpoint_dir, "seed": 4})
    out1 = _run("impute", tmp_path / "i1", cfg)
    out2 = _run("impute", tmp_path / "i2", cfg)
    r1 = open(os.path.join(out1, "report.csv")).read()
    assert r1 == open(os.path.join(out2, "report.csv")).read()
    lines = r1.splitlines()
    assert lines[0] == "task,method,ratio,mae,mse,n_windows,seed"
    assert len(lines) == 1 + 16  # 4 tasks x 4 methods
    sensor_rows = [l for l in lines[1:] if l.startswith("sensor,")]
    assert len(sensor_rows) == 4 and all(",NA," in l for l in sensor_rows)
    temporal_rows = [l for l in lines[1:] if l.startswith("temporal,")]
    assert all(",0.7," in l for l in temporal_rows)


@pytest.mark.parametrize("command", ["impute", "probe", "analyze"])
def test_impute_grid_mismatch_rejected(checkpoint_dir, tmp_path, command):
    other = tmp_path / "odd"
    cfg = _write_cfg(tmp_path / "s.cfg", **{
        "data.n_windows": 3, "data.n_modalities": 3, "data.n_samples": 32})
    _run("synth", other, cfg)
    settings = {"data.dir": str(other), "checkpoint": checkpoint_dir}
    if command == "analyze":  # its own 6 x 200 windows, against a 4 x 4 x 8 grid
        settings = {"exp.encoder": "model_encoder", "exp.checkpoint": checkpoint_dir}
    bad = _write_cfg(tmp_path / "b.cfg", **settings)
    with pytest.raises(ManifestError, match="does not fit") as err:
        cli.main([command, "--out", str(tmp_path / "o"), "--config", bad])
    assert str(err.value).startswith(os.path.join(checkpoint_dir, "manifest.txt") + ":")
    assert not os.path.exists(tmp_path / "o")


def _copy_checkpoint(checkpoint_dir, to):
    to.mkdir()
    for name in ("manifest.txt", "data.f32"):
        (to / name).write_bytes((Path(checkpoint_dir) / name).read_bytes())
    return to / "manifest.txt"


@pytest.mark.parametrize("command, key", [("impute", "checkpoint"), ("probe", "checkpoint"),
                                          ("pretrain", "resume")])
def test_non_finite_checkpoint_rejected_before_the_run_directory_exists(
        data_dir, checkpoint_dir, tmp_path, command, key):
    bad = _copy_checkpoint(checkpoint_dir, tmp_path / "nan_checkpoint").parent
    blob = np.fromfile(bad / "data.f32", dtype="<f4")
    blob[0] = np.nan
    blob.tofile(bad / "data.f32")
    cfg = _write_cfg(tmp_path / "c.cfg", **{"data.dir": data_dir, key: str(bad)})
    with pytest.raises(ManifestError, match=f"^{re.escape(str(bad / 'data.f32'))}: "
                                            "array .* holds a non-finite value at index .*$"):
        cli.main([command, "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


def test_checkpoint_grid_too_large_to_build_rejected_before_the_run_directory_exists(
        data_dir, checkpoint_dir, tmp_path, monkeypatch):
    from crossmae import model

    man = _copy_checkpoint(checkpoint_dir, tmp_path / "huge")
    man.write_text(man.read_text().replace("n_patches=4\n", "n_patches=99999999999\n"))

    def fail(*args):
        raise AssertionError("built a position table before checking the grid")

    monkeypatch.setattr(model, "positions_2d", fail)
    cfg = _write_cfg(tmp_path / "c.cfg", **{"data.dir": data_dir, "checkpoint": str(man.parent)})
    with pytest.raises(ManifestError, match=f"^{re.escape(str(man))}: dataset 4x32 does not "
                                            "fit checkpoint grid 4x99999999999x8 "):
        cli.main(["impute", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("kind", ["dataset", "dataset-v2", "dataset-v3", "checkpoint",
                                  "checkpoint-v2"])
def test_older_format_rejected_before_the_run_directory_exists(data_dir, checkpoint_dir,
                                                               tmp_path, kind):
    """A dataset without a format line; a crossmae-dataset-v2 dataset, whose
    labels.txt held one label per line; a crossmae-dataset-v3 dataset, with a
    sample_rate_hz key; a crossmae-checkpoint-v1 checkpoint, with name@offset
    parameter lines and the blob in params.f32; and a crossmae-checkpoint-v2
    checkpoint, with an attn.bk array per block: each as earlier versions
    wrote them."""
    old = tmp_path / kind
    old.mkdir()
    if kind.startswith("dataset"):
        values, labels, _ = load_dataset(data_dir)
        if kind == "dataset":
            head, got = "n_windows=12\nC=4\nL=32\n", None
        elif kind == "dataset-v2":
            head, got = "format=crossmae-dataset-v2\narray.values=12x4x32\n", \
                "'crossmae-dataset-v2'"
            (old / "labels.txt").write_text("".join(f"{label}\n" for label in labels))
        else:
            head, got = "format=crossmae-dataset-v3\narray.values=12x4x32\narray.labels=12\n", \
                "'crossmae-dataset-v3'"
        arrays = (values, labels) if kind == "dataset-v3" else (values,)
        (old / "data.f32").write_bytes(b"".join(a.astype("<f4").tobytes() for a in arrays))
        (old / "manifest.txt").write_text(head + "sample_rate_hz=50.0\nn_classes=4\n")
        settings, fmt = {"data.dir": old, "checkpoint": checkpoint_dir}, "dataset-v4"
    elif kind == "checkpoint":
        state = load_checkpoint(checkpoint_dir)
        lines, offset = ["format=crossmae-checkpoint-v1"], 0
        lines += [f"{k}={v}" for k, v in vars(state.arch).items()]
        for name in sorted(state.params):
            shape = state.params[name].shape
            lines.append(f"param.{name}={'x'.join(map(str, shape))}@{offset}")
            offset += state.params[name].size
        (old / "manifest.txt").write_text("\n".join(lines) + "\n")
        (old / "params.f32").write_bytes((Path(checkpoint_dir) / "data.f32").read_bytes())
        settings = {"data.dir": data_dir, "checkpoint": old}
        fmt, got = "checkpoint-v3", "'crossmae-checkpoint-v1'"
    else:
        state = load_checkpoint(checkpoint_dir)
        arch = state.arch
        arrays = {**state.params, **{f"{stack}{i}.attn.bk": np.zeros(arch.d_model)
                                     for stack, n in (("enc", arch.enc_layers),
                                                      ("dec", arch.dec_layers))
                                     for i in range(n)}}
        lines = ["format=crossmae-checkpoint-v2"]
        lines += [f"{k}={v}" for k, v in vars(arch).items()]
        lines += [f"array.{name}={'x'.join(map(str, arrays[name].shape))}"
                  for name in sorted(arrays)]
        (old / "manifest.txt").write_text("\n".join(lines) + "\n")
        (old / "data.f32").write_bytes(b"".join(arrays[name].astype("<f4").tobytes()
                                                for name in sorted(arrays)))
        settings = {"data.dir": data_dir, "checkpoint": old}
        fmt, got = "checkpoint-v3", "'crossmae-checkpoint-v2'"
    cfg = _write_cfg(tmp_path / "c.cfg", **settings)
    with pytest.raises(ManifestError, match=f"^{re.escape(str(old / 'manifest.txt'))}: key "
                                            f"format: expected crossmae-{fmt}, got {got}$"):
        cli.main(["impute", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


def test_probe_summary(data_dir, checkpoint_dir, tmp_path):
    cfg = _write_cfg(tmp_path / "p.cfg", **{
        "data.dir": data_dir, "checkpoint": checkpoint_dir,
        "probe.epochs": 5, "seed": 6})
    out = _run("probe", tmp_path / "p", cfg)
    summary = dict(line.split("=") for line in
                   open(os.path.join(out, "summary.txt")).read().splitlines())
    assert 0.0 <= float(summary["top1"]) <= 1.0
    assert int(summary["train_size"]) + int(summary["val_size"]) == 12
    curve = open(os.path.join(out, "curve.csv")).read().splitlines()
    assert curve[0] == "epoch,loss" and len(curve) == 6


def test_probe_rejects_unlabeled_dataset(checkpoint_dir, tmp_path):
    rng = np.random.default_rng(0)
    save_dataset(tmp_path / "unlabeled", rng.standard_normal((3, 4, 32)), np.array([0, -1, -1]),
                 n_classes=1)
    cfg = _write_cfg(tmp_path / "u.cfg", **{
        "data.dir": str(tmp_path / "unlabeled"), "checkpoint": checkpoint_dir})
    blob = tmp_path / "unlabeled" / "data.f32"
    with pytest.raises(ManifestError, match=f"^{re.escape(str(blob))}: array labels holds -1, "
                                            r".*labeled dataset at index \(1,\)$"):
        cli.main(["probe", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


def test_analyze_rows_and_summary(tmp_path):
    cfg = _write_cfg(tmp_path / "a.cfg", **{
        "data.n_windows": 24, "data.n_samples": 140, "data.n_modalities": 4,
        "exp.n_transitions": 24, "exp.n_seeds": 2, "exp.pca_k": 50, "seed": 0})
    out = _run("analyze", tmp_path / "a", cfg)
    lines = open(os.path.join(out, "sigma1.csv")).read().splitlines()
    assert lines[0] == "policy,seed,n,pca_k,encoder_kind,sigma1"
    assert len(lines) == 1 + 4  # 2 policies x 2 seeds
    assert sum(l.startswith("cross,") for l in lines[1:]) == 2
    summary = dict(line.split("=") for line in
                   open(os.path.join(out, "summary.txt")).read().splitlines())
    gap = float(summary["mean_sigma1_cross"]) - float(summary["mean_sigma1_sync"])
    assert abs(gap - float(summary["mean_gap"])) < 1e-12


def _transitions_formula(spec, rng, n):
    """A replicate's transitions as first built: every base window, then n
    splices of them."""
    base, _ = generate_windows(spec)
    return np.stack([splice_augment(base, rng).window for _ in range(n)])


# the analyze defaults (raw features), the evaluate benchmark's model-encoder
# analyze, and a pool of 2 base windows that every transition reuses
@pytest.mark.parametrize("n_windows, n_modalities, n_samples, n_trans", [
    (200, 6, 200, 200), (200, 6, 200, 32), (2, 3, 40, 50)])
def test_transitions_from_their_plans_match_splicing_the_full_base(n_windows, n_modalities,
                                                                   n_samples, n_trans):
    for seed in (0, 1009):
        spec = SynthSpec(n_windows=n_windows, n_modalities=n_modalities, n_samples=n_samples,
                         n_classes=4, shared_latent_strength=0.9, noise_sd=1.0, seed=seed)
        got = cli._transitions(spec, np.random.default_rng([seed + 1000]), n_trans)
        ref = _transitions_formula(spec, np.random.default_rng([seed + 1000]), n_trans)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_a_replicate_generates_exactly_the_base_windows_its_splices_read(monkeypatch):
    spec = SynthSpec(n_windows=200, n_modalities=3, n_samples=40, n_classes=4,
                     shared_latent_strength=0.9, noise_sd=1.0, seed=4)
    generated = []

    def spy(spec, which=None):
        values, labels = generate_windows(spec, which)
        generated.append(values)
        return values, labels

    monkeypatch.setattr(cli, "generate_windows", spy)
    cli._transitions(spec, np.random.default_rng(7), 32)
    rng = np.random.default_rng(7)
    plans = [draw_splice(spec.n_windows, spec.n_samples, rng) for _ in range(32)]
    sources = sorted({w for plan in plans for w in plan[:2]})
    assert len(sources) < spec.n_windows
    assert len(generated) == 1
    assert generated[0].tobytes() == generate_windows(spec)[0][sources].tobytes()


def test_analyze_model_encoder_needs_checkpoint(tmp_path):
    cfg = _write_cfg(tmp_path / "m.cfg", **{"exp.encoder": "model_encoder"})
    with pytest.raises(ManifestError, match="exp.checkpoint"):
        cli.main(["analyze", "--out", str(tmp_path / "o"), "--config", cfg])


@pytest.mark.parametrize("key, value", [("exp.n_seeds", 0), ("exp.n_seeds", -1),
                                        ("exp.pca_k", 0), ("exp.encoder", "pixels")])
def test_analyze_rejects_bad_settings_before_writing_results(tmp_path, key, value):
    cfg = _write_cfg(tmp_path / "a.cfg", **{key: value})
    with pytest.raises(ManifestError, match=key):
        cli.main(["analyze", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("key, value, message", [
    ("check.max_coords", 0, "must be at least 1, got 0"),
    ("check.max_coords", -3, "must be at least 1, got -3"),
    ("check.h", 0.0, "must be positive, got 0.0"),
    ("check.h", -1e-4, "must be positive, got -0.0001"),
    ("check.h", float("inf"), "must be finite, got inf"),
    # 3 x 99999999999 x 6 float64 values would be 13.1 TiB
    ("arch.n_patches", 99999999999,
     "1799999999982 window values C x P x L_p exceed the limit of 134217728")])
def test_gradcheck_rejects_bad_settings_before_writing_results(tmp_path, key, value, message):
    cfg = _write_cfg(tmp_path / "g.cfg", **{key: value})
    with pytest.raises(ManifestError, match=f"^{re.escape(cfg)}: key {key}: {message}$"):
        cli.main(["gradcheck", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


# (command, settings written to the config file, key the error must name).
# None drops a setting that the command's base config would write; a key
# missing from the settings is at fault with its default value. "one-window"
# stands for a copy of the test dataset cut to its first window.
BAD_SETTINGS = [
    ("synth", {"data.strength": 2}, "data.strength"),
    ("synth", {"seed": -1}, "seed"),
    ("synth", {"--seed": -1}, "seed"),
    ("synth", {"data.n_classes": 2**24 + 1}, "data.n_classes"),  # a label float32 cannot hold
    ("synth", {"data.noise_sd": 1e39}, "data.noise_sd"),  # a value float32 cannot hold
    ("pretrain", {"optim.lr": -1}, "optim.lr"),
    ("pretrain", {"optim.lr": float("inf")}, "optim.lr"),
    ("pretrain", {"optim.eps": float("inf")}, "optim.eps"),
    ("pretrain", {"optim.weight_decay": float("inf")}, "optim.weight_decay"),
    ("pretrain", {"optim.epochs": 0}, "optim.warmup_epochs"),
    ("pretrain", {"mask.ratio": 1.5}, "mask.ratio"),
    ("pretrain", {"mask.ratio": 0.05}, "mask.ratio"),  # no cell of a 4 x 4 grid
    ("pretrain", {"mask.policy": "foo"}, "mask.policy"),
    ("pretrain", {"arch.n_heads": 3}, "arch.n_heads"),
    ("pretrain", {"arch.patch_len": 0}, "arch.patch_len"),
    ("pretrain", {"arch.patch_len": 33}, "arch.patch_len"),
    ("pretrain", {"data.dir": None}, "data.dir"),
    ("pretrain", {"data.dir": "nowhere"}, "data.dir"),
    ("pretrain", {"resume": "nowhere"}, "resume"),
    ("impute", {"task.ratio": 0}, "task.ratio"),
    ("impute", {"task.ratio": 0.05}, "task.ratio"),  # no column of 4 patches
    ("impute", {"chained.sweeps": 0}, "chained.sweeps"),
    ("impute", {"checkpoint": "nowhere"}, "checkpoint"),
    ("probe", {"probe.mode": "xx"}, "probe.mode"),
    ("probe", {"probe.lr": 0.0}, "probe.lr"),
    ("probe", {"probe.weight_decay": float("inf")}, "probe.weight_decay"),
    ("probe", {"checkpoint": None}, "checkpoint"),
    ("probe", {"data.dir": "one-window"}, "data.dir"),
    ("analyze", {"data.strength": 2}, "data.strength"),
    ("analyze", {"exp.n_transitions": 0}, "exp.n_transitions"),
    ("analyze", {"exp.patch_len": 0}, "exp.patch_len"),
    ("analyze", {"exp.mask_ratio": 0}, "exp.mask_ratio"),
    ("analyze", {"data.n_windows": 1}, "data.n_windows"),
    ("analyze", {"exp.encoder": "model_encoder", "exp.checkpoint": "nowhere"},
     "exp.checkpoint"),
    ("gradcheck", {"arch.n_heads": 3}, "arch.n_heads"),
    ("gradcheck", {"arch.patch_len": 10**9}, "arch.patch_len"),
    ("gradcheck", {"arch.n_modalities": 20000, "arch.n_patches": 1}, "arch.n_modalities"),
    ("gradcheck", {"arch.n_modalities": 1, "arch.n_patches": 1}, "arch.n_patches"),  # 0.5 of 1 cell
]


@pytest.mark.parametrize("command, settings, key", BAD_SETTINGS,
                         ids=[f"{c}-{'-'.join(f'{k}={v}' for k, v in s.items())}"
                              for c, s, _ in BAD_SETTINGS])
def test_bad_setting_names_its_key_before_the_run_directory_exists(
        data_dir, checkpoint_dir, tmp_path, command, settings, key):
    base = {"pretrain": {"data.dir": data_dir},
            "impute": {"data.dir": data_dir, "checkpoint": checkpoint_dir},
            "probe": {"data.dir": data_dir, "checkpoint": checkpoint_dir}}.get(command, {})
    if settings.get("data.dir") == "one-window":
        values, labels, n_classes = load_dataset(data_dir)
        save_dataset(tmp_path / "one-window", values[:1], labels[:1], n_classes)
    written = {k: str(tmp_path / v) if v in ("nowhere", "one-window") else v
               for k, v in {**base, **settings}.items() if v is not None and k != "--seed"}
    cfg = _write_cfg(tmp_path / "bad.cfg", **written)
    argv = [command, "--out", str(tmp_path / "o"), "--config", cfg]
    if "--seed" in settings:
        argv += ["--seed", str(settings["--seed"])]
    with pytest.raises(ManifestError) as err:
        cli.main(argv)
    where = "--seed" if "--seed" in settings else cfg
    assert str(err.value).startswith(f"{where}: key {key}: ")
    if key not in written and where == cfg:
        assert str(err.value).endswith(" is the default)")
    assert not os.path.exists(tmp_path / "o")


# Runs one command with the address space capped, so that an allocation the
# size checks miss fails fast instead of exhausting the machine's memory.
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from crossmae import cli
from crossmae.config import ManifestError
try:
    cli.main(sys.argv[1:])
except ManifestError as exc:
    print(exc)
else:
    sys.exit("accepted")
"""


def _run_capped(command, out, cfg):
    """Run command under CAPPED in a child process: (its result, its wall seconds)."""
    src = Path(cli.__file__).resolve().parent.parent
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", CAPPED, command, "--out", str(out),
                           "--config", cfg],
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    return done, time.monotonic() - start


@pytest.mark.parametrize("command, key, value, size", [
    ("gradcheck", "arch.d_model", 4000000, 32000000000000),
    ("gradcheck", "arch.mlp_ratio", 100000000, 102400000000),
    ("pretrain", "arch.d_model", 4000000, 32000000000000),
    ("pretrain", "arch.mlp_ratio", 100000000, 102400000000)])
def test_mlp_weight_too_large_rejected_before_the_run_directory_exists(
        data_dir, tmp_path, command, key, value, size):
    settings = {key: value, "arch.n_heads": 4}
    if command == "pretrain":
        settings["data.dir"] = data_dir
    cfg = _write_cfg(tmp_path / "c.cfg", **settings)
    done, _ = _run_capped(command, tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"{cfg}: key {key}: {size} MLP weight values d_model x "
                                   "d_model * mlp_ratio exceed the limit of 134217728")
    assert not os.path.exists(tmp_path / "o")


# Each layer count at 10^9: unchecked, the run creates its run directory and
# then grows in init_model until a MemoryError.
@pytest.mark.parametrize("command, key, size", [
    ("gradcheck", "arch.enc_layers", 8512000009126),
    ("gradcheck", "arch.dec_layers", 8512000017638),
    ("pretrain", "arch.enc_layers", 8512000009256),
    ("pretrain", "arch.dec_layers", 8512000017768)])
def test_parameter_count_too_large_rejected_before_the_run_directory_exists(
        data_dir, tmp_path, command, key, size):
    settings = {key: 10**9}
    if command == "pretrain":
        settings["data.dir"] = data_dir
    cfg = _write_cfg(tmp_path / "c.cfg", **settings)
    done, seconds = _run_capped(command, tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"{cfg}: key {key}: {size} parameter values exceed the "
                                   "limit of 134217728")
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# A dataset of 16 windows of 2 x 1000 samples, so a step holds 16 windows.
# At arch.patch_len=1 its 2,000 tokens pass every per-window bound, but the
# step holds 16 x 4 x 2001^2 attention scores: unchecked, the run creates its
# run directory and then fails to allocate 1.91 GiB in its first step. At
# arch.patch_len=10 and arch.mlp_ratio=2048, the step's MLP activations
# outgrow the limit in the same way.
@pytest.mark.parametrize("settings, message", [
    ({"arch.patch_len": 1},
     "arch.patch_len: 256256064 step attention scores batch x n_heads x (C x P + 1)^2"),
    ({"arch.patch_len": 10, "arch.mlp_ratio": 2048},
     "arch.mlp_ratio: 210763776 step MLP activations batch x (C x P + 1) x d_model * "
     "mlp_ratio")])
def test_step_too_large_rejected_before_the_run_directory_exists(tmp_path, settings, message):
    synth = _write_cfg(tmp_path / "s.cfg", **{"data.n_windows": 16, "data.n_modalities": 2,
                                             "data.n_samples": 1000})
    data = _run("synth", tmp_path / "data", synth)
    cfg = _write_cfg(tmp_path / "c.cfg", **{"data.dir": data, "optim.warmup_epochs": 0,
                                           "optim.epochs": 1, **settings})
    done, seconds = _run_capped("pretrain", tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{cfg}: key {message} exceed the limit of 134217728"
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# Two gradcheck archs that pass every bound above. At d_model 512 and
# mlp_ratio 64, a pass of 12 windows binds 12 bumped copies of enc0.mlp.W1;
# at patch_len 2^20 on a 4 x 8 grid, it reconstructs 12 windows of 2^25
# values each. Unchecked, each run creates its run directory and then fails
# to allocate 1.50 or 3.00 GiB.
@pytest.mark.parametrize("settings, message", [
    ({"arch.d_model": 512, "arch.mlp_ratio": 64, "arch.enc_layers": 1, "arch.dec_layers": 1},
     "arch.d_model: 201326592 bumped parameter values batch x max(d_model x d_model * "
     "mlp_ratio, patch_len x d_model)"),
    ({"arch.n_modalities": 4, "arch.n_patches": 8, "arch.patch_len": 2**20, "arch.d_model": 4,
      "arch.n_heads": 1},
     "arch.patch_len: 402653184 pass window values batch x C x P x L_p")])
def test_gradcheck_pass_too_large_rejected_before_the_run_directory_exists(
        tmp_path, settings, message):
    cfg = _write_cfg(tmp_path / "c.cfg", **settings)
    done, seconds = _run_capped("gradcheck", tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{cfg}: key {message} exceed the limit of 134217728"
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# gradcheck bounds a pass's bumped copies by batch x max(d_model x d_model *
# mlp_ratio, patch_len x d_model), on the claim that the largest parameter
# group is an MLP weight or the embedding's or head's weight. The archs: the
# defaults; patch_len past d_model * mlp_ratio; patch_len equal to it; and
# 3 + 2 layers.
@pytest.mark.parametrize("settings", [
    {},
    {"arch.patch_len": 80, "arch.d_model": 8, "arch.mlp_ratio": 2, "arch.n_heads": 2},
    {"arch.patch_len": 32, "arch.mlp_ratio": 1},
    {"arch.enc_layers": 3, "arch.dec_layers": 2, "arch.mlp_ratio": 4}])
def test_gradcheck_bounds_bumped_copies_by_the_largest_parameter_group(tmp_path, monkeypatch,
                                                                       settings):
    class Checked(Exception):
        pass

    bumped = []

    def check_sizes(run, *arrays):
        bumped.extend(size for what, size, _ in arrays if what.startswith("bumped parameter"))
        if bumped:
            raise Checked

    monkeypatch.setattr(cli, "_check_sizes", check_sizes)
    # at most 3 coordinates, so a pass binds 6 copies
    cfg = _write_cfg(tmp_path / "c.cfg", **settings, **{"check.max_coords": 3})
    with pytest.raises(Checked):
        cli.main(["gradcheck", "--out", str(tmp_path / "o"), "--config", cfg])
    values = {**cli.GRADCHECK_DEFAULTS, **settings}
    arch = ArchSpec(**{name: values[key] for name, key in cli.ARCH_KEYS.items()})
    assert bumped == [6 * max(math.prod(shape) for _, shape in _param_layout(arch))]


# A checkpoint with arch.patch_len=1 on windows of 2 x 1000 samples: 2,000
# tokens pass every per-window bound, but a pass over 16 windows holds
# 16 x 4 x 2001^2 attention scores. Unchecked, `probe.mode=ft` creates its run
# directory and then fails to allocate 1.31 GiB for its first step of 11
# training windows.
@pytest.mark.parametrize("command, settings, message", [
    ("probe", {"probe.mode": "ft"},
     "checkpoint: 176176044 step attention scores batch x n_heads x (C x P + 1)^2"),
    ("probe", {"probe.mode": "lp"},
     "checkpoint: 256256064 pass attention scores batch x n_heads x (C x P + 1)^2"),
    ("impute", {}, "checkpoint: 256256064 pass attention scores batch x n_heads x "
                   "(C x P + 1)^2"),
    ("analyze", {"exp.encoder": "model_encoder", "data.n_modalities": 2,
                 "data.n_samples": 1000},
     "exp.checkpoint: 256256064 pass attention scores batch x n_heads x (C x P + 1)^2")])
def test_frozen_pass_too_large_rejected_before_the_run_directory_exists(tmp_path, command,
                                                                        settings, message):
    synth = _write_cfg(tmp_path / "s.cfg", **{"data.n_windows": 16, "data.n_modalities": 2,
                                             "data.n_samples": 1000})
    data = _run("synth", tmp_path / "data", synth)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_model(ArchSpec(n_modalities=2, n_patches=1000, patch_len=1), 0), ckpt)
    paths = ({"exp.checkpoint": ckpt} if command == "analyze"
             else {"data.dir": data, "checkpoint": ckpt})
    cfg = _write_cfg(tmp_path / "c.cfg", **paths, **settings)
    done, seconds = _run_capped(command, tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{cfg}: key {message} exceed the limit of 134217728"
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# 2^20 transitions of 2 x 32 samples pass the transition, seed and frozen-pass
# bounds, but each view's model-encoder features at d_model 256 hold 2^28
# values. Unchecked, from the code: the run creates its run directory, splices
# 2^20 transitions one by one and then needs 2 GiB for the first view.
def test_view_features_too_large_rejected_before_the_run_directory_exists(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_model(ArchSpec(n_modalities=2, n_patches=4, patch_len=8, d_model=256),
                               0), ckpt)
    cfg = _write_cfg(tmp_path / "c.cfg", **{"exp.encoder": "model_encoder",
                                           "exp.checkpoint": ckpt, "exp.n_transitions": 2**20,
                                           "data.n_modalities": 2, "data.n_samples": 32})
    done, seconds = _run_capped("analyze", tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"{cfg}: key exp.n_transitions: 268435456 view features "
                                   "n_transitions x d_model exceed the limit of 134217728")
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# A gradcheck arch of 2 x 1000 patches of one sample passes every one-window
# bound, but at check.max_coords=8 a group's 16 bumped evaluations run as one
# pass of 16 x 4 x 2001^2 attention scores. Unchecked, the run creates its run
# directory and then fails to allocate 1.91 GiB in its first group.
def test_gradcheck_batch_too_large_rejected_before_the_run_directory_exists(tmp_path):
    cfg = _write_cfg(tmp_path / "c.cfg", **{"arch.n_modalities": 2, "arch.n_patches": 1000,
                                           "arch.patch_len": 1, "check.max_coords": 8})
    done, seconds = _run_capped("gradcheck", tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"{cfg}: key arch.n_patches: 256256064 pass attention "
                                   "scores batch x n_heads x (C x P + 1)^2 exceed the limit "
                                   "of 134217728")
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# 2^22 windows (or transitions) of 2 x 2 values pass the values bound; their
# SeedSequences alone would take about 1.7 GB.
@pytest.mark.parametrize("command, key", [("synth", "data.n_windows"),
                                          ("analyze", "exp.n_transitions")])
def test_window_seeds_too_many_rejected_before_the_run_directory_exists(tmp_path, command,
                                                                         key):
    cfg = _write_cfg(tmp_path / "c.cfg", **{key: 2**22, "data.n_modalities": 2,
                                           "data.n_samples": 2})
    done, seconds = _run_capped(command, tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"{cfg}: key {key}: 268435456 seed values "
                                   f"{key.split('.')[-1]} x 64 exceed the limit of 134217728")
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


# Each key set to 10^11 over the defaults: 200 windows (and transitions) of
# 6 modalities x 200 samples. Unchecked, each run creates its run directory
# and then runs out of memory, in SeedSequence.spawn after 86 s for
# data.n_windows.
@pytest.mark.parametrize("command, key, size, what", [
    ("synth", "data.n_windows", 120000000000000, "dataset values n_windows"),
    ("synth", "data.n_modalities", 4000000000000000, "dataset values n_windows"),
    ("synth", "data.n_samples", 120000000000000, "dataset values n_windows"),
    ("analyze", "data.n_windows", 120000000000000, "dataset values n_windows"),
    ("analyze", "data.n_samples", 120000000000000, "dataset values n_windows"),
    ("analyze", "exp.n_transitions", 120000000000000, "transition values n_transitions")])
def test_dataset_too_large_rejected_before_the_run_directory_exists(tmp_path, command, key,
                                                                    size, what):
    cfg = _write_cfg(tmp_path / "c.cfg", **{key: 10**11})
    done, seconds = _run_capped(command, tmp_path / "o", cfg)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (f"{cfg}: key {key}: {size} {what} x n_modalities x "
                                   "n_samples exceed the limit of 134217728")
    assert not os.path.exists(tmp_path / "o")
    assert seconds < 20


@pytest.mark.parametrize("command", ["synth", "analyze"])
def test_sample_rate_is_an_unknown_key(tmp_path, command):
    cfg = _write_cfg(tmp_path / "c.cfg", **{"data.sample_rate_hz": 50.0})
    with pytest.raises(ManifestError, match=f"^{re.escape(cfg)}: unknown key "
                                            "'data.sample_rate_hz' "):
        cli.main([command, "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o")


def test_gradcheck_refuses_a_non_finite_error(tmp_path):
    # with a step of 1e300 the bumped losses overflow, and their difference is NaN
    cfg = _write_cfg(tmp_path / "g.cfg", **{"check.h": 1e300})
    with pytest.raises(FloatingPointError,
                       match=f"^{re.escape(cfg)}: key check.h: 1e\\+300 gives "
                             r"max_rel_err=nan in group \S+$"), \
            pytest.warns(RuntimeWarning):
        cli.main(["gradcheck", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o" / "gradcheck.txt")


def test_gradcheck_refuses_a_step_that_moves_no_parameter(tmp_path):
    # a step of 1e-300 rounds away on every nonzero parameter, so every
    # numeric gradient of such a parameter would read 0
    cfg = _write_cfg(tmp_path / "g.cfg", **{"check.h": 1e-300})
    with pytest.raises(ManifestError, match=f"^{re.escape(cfg)}: key check.h: a step of "
                                            r"1e-300 leaves embed\.W\.flat\[\d+\] = \S+ "
                                            "unchanged$"):
        cli.main(["gradcheck", "--out", str(tmp_path / "o"), "--config", cfg])
    assert not os.path.exists(tmp_path / "o" / "gradcheck.txt")


def test_gradcheck_fails_when_the_error_reaches_the_bound(tmp_path):
    # a step of 1e-13 moves every parameter, but rounding swamps the
    # difference of the bumped losses
    cfg = _write_cfg(tmp_path / "g.cfg", **{"check.h": 1e-13})
    with pytest.raises(FloatingPointError, match=f"^{re.escape(cfg)}: key check.h: 1e-13 gives "
                                                 r"max_rel_err=\S+ in group \S+, not below "
                                                 "0.001$") as caught:
        cli.main(["gradcheck", "--out", str(tmp_path / "o"), "--config", cfg])
    lines = open(tmp_path / "o" / "gradcheck.txt").read().splitlines()
    err, group = (line.split("=")[1] for line in lines)
    assert f"max_rel_err={err} in group {group}," in str(caught.value)
    assert float(err) >= cli.GRADCHECK_TOL
    assert open(tmp_path / "o" / cli.ERROR_NAME).read() == f"{caught.value}\n"


def _run_configs(data_dir, checkpoint_dir, tmp_path) -> dict:
    """A small config of each command, for runs into fresh directories."""
    settings = {
        "synth": {"data.n_windows": 4, "data.n_samples": 16},
        "pretrain": {"data.dir": data_dir, "arch.patch_len": 8, "optim.epochs": 1,
                     "optim.warmup_epochs": 1},
        "impute": {"data.dir": data_dir, "checkpoint": checkpoint_dir},
        "probe": {"data.dir": data_dir, "checkpoint": checkpoint_dir, "probe.epochs": 1},
        "analyze": {"data.n_windows": 8, "data.n_modalities": 3, "data.n_samples": 140,
                    "exp.n_transitions": 8, "exp.n_seeds": 1, "exp.pca_k": 3},
        "gradcheck": {"arch.n_modalities": 2, "arch.n_patches": 2, "arch.patch_len": 4,
                      "arch.d_model": 8, "arch.n_heads": 2, "check.max_coords": 1}}
    assert list(settings) == list(cli.COMMANDS)
    return {command: _write_cfg(tmp_path / f"{command}.cfg", **kv)
            for command, kv in settings.items()}


def test_each_command_writes_exactly_its_declared_files(data_dir, checkpoint_dir, tmp_path):
    cfgs = _run_configs(data_dir, checkpoint_dir, tmp_path)
    for command, (_, _, outputs) in cli.COMMANDS.items():
        out = _run(command, tmp_path / command, cfgs[command])
        declared = set(cli.RUN_FILES) - {cli.ERROR_NAME} | set(outputs)
        if command == "synth":  # the dataset, written before Run.start
            declared |= {"manifest.txt", "data.f32"}
        assert set(_tree(out)) == declared, command


# Each command's first step after Run.start, which the rerun makes fail.
FIRST_STEPS = {"pretrain": "pretrain", "impute": "impute_model", "probe": "probe",
               "analyze": "sigma1_experiment", "gradcheck": "gradcheck_model"}


@pytest.mark.parametrize("command", FIRST_STEPS)
def test_a_rerun_that_fails_leaves_no_file_of_the_earlier_run(data_dir, checkpoint_dir,
                                                               tmp_path, monkeypatch, command):
    cfg = _run_configs(data_dir, checkpoint_dir, tmp_path)[command]
    out = _run(command, tmp_path / "o", cfg)
    assert set(cli.COMMANDS[command][2]) <= set(_tree(out))

    def fail(*args, **kwargs):
        raise RuntimeError("the step failed")

    monkeypatch.setattr(cli, FIRST_STEPS[command], fail)
    with pytest.raises(RuntimeError, match="the step failed"):
        cli.main([command, "--out", out, "--config", cfg])
    files = _tree(out)
    assert set(files) == set(cli.RUN_FILES)
    assert files[cli.ERROR_NAME] == b"the step failed\n"


def test_a_rerun_that_succeeds_removes_the_failed_run_s_error(tmp_path):
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / cli.ERROR_NAME).write_text("an earlier failure\n")
    cfg = _write_cfg(tmp_path / "s.cfg", **{"data.n_windows": 2, "data.n_samples": 16})
    _run("synth", tmp_path / "o", cfg)


@pytest.mark.parametrize("settings, message", [
    ({"arch.d_model": 0}, r"key arch\.d_model: d_model must be at least 1, got 0"),
    ({"check.h": 1e-13}, r"key check\.h: 1e-13 gives max_rel_err=\S+ in group \S+, not below")])
def test_console_prints_the_message_and_exits_1_without_a_traceback(tmp_path, settings, message):
    cfg = _write_cfg(tmp_path / "g.cfg", **settings)
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "crossmae.cli", "gradcheck",
                           "--out", str(tmp_path / "o"), "--config", cfg],
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert re.fullmatch(f"crossmae: {re.escape(cfg)}: {message}.*\n", done.stderr)
    assert "Traceback" not in done.stderr and done.stdout == ""


# An encoder whose final layernorm gain is zero maps every view to one point,
# so the visible view's covariance is singular however much jitter it gets.
def test_console_names_a_conditioning_error_and_the_run_keeps_it(tmp_path, capsys):
    state = init_model(ArchSpec(n_modalities=2, n_patches=4, patch_len=8), 0)
    state.params["enc.norm.g"][:] = 0.0
    save_checkpoint(state, tmp_path / "ckpt")
    cfg = _write_cfg(tmp_path / "c.cfg", **{
        "exp.encoder": "model_encoder", "exp.checkpoint": tmp_path / "ckpt",
        "data.n_modalities": 2, "data.n_samples": 32, "exp.n_transitions": 20,
        "exp.n_seeds": 1, "exp.pca_k": 5, "exp.mask_ratio": 0.5})
    assert cli.console(["analyze", "--out", str(tmp_path / "o"), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crossmae: S_UU not positive definite after jitter")
    assert open(tmp_path / "o" / cli.ERROR_NAME).read() == err[len("crossmae: "):]


# At a noise level of 1e200 every sum of squares of the transitions
# overflows: a model-encoder run meets it in standardize's variance, a raw
# run in the PCA Gram. At 1e150 both run.
@pytest.mark.parametrize("encoder", ["raw_flatten", "model_encoder"])
def test_analyze_names_a_noise_level_whose_squares_overflow(checkpoint_dir, tmp_path, capsys,
                                                            encoder):
    settings = {"data.n_modalities": 4, "data.n_samples": 32, "exp.n_transitions": 20,
                "exp.n_seeds": 1, "exp.pca_k": 5, "exp.mask_ratio": 0.5, "exp.patch_len": 8,
                "exp.encoder": encoder}
    if encoder == "model_encoder":
        settings["exp.checkpoint"] = checkpoint_dir
    ok = _write_cfg(tmp_path / "ok.cfg", **settings, **{"data.noise_sd": 1e150})
    rows = open(os.path.join(_run("analyze", tmp_path / "ok", ok), "sigma1.csv")).readlines()
    sigmas = [float(row.split(",")[-1]) for row in rows[1:]]
    assert len(sigmas) == 2 and all(0.0 <= v <= 1.0 + 1e-8 for v in sigmas)

    bad = _write_cfg(tmp_path / "bad.cfg", **settings, **{"data.noise_sd": 1e200})
    assert cli.console(["analyze", "--out", str(tmp_path / "o"), "--config", bad]) == 1
    err = capsys.readouterr().err
    cause = ("standardize needs a finite sd in every channel; channel (0, 0) has sd inf"
             if encoder == "model_encoder"
             else "the Gram of the centred 20x128 features is not finite")
    assert err == (f"crossmae: {bad}: key data.noise_sd: the transitions' sum of squares "
                   f"overflows: {cause}\n")
    assert open(tmp_path / "o" / cli.ERROR_NAME).read() == err[len("crossmae: "):]
    assert not os.path.exists(tmp_path / "o" / "sigma1.csv")


# synth meets the file in save_dataset, gradcheck in Run.start
@pytest.mark.parametrize("command", ["synth", "gradcheck"])
def test_console_names_an_out_path_that_is_a_file(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    cfg = _write_cfg(tmp_path / "s.cfg", **{"data.n_windows": 2, "data.n_samples": 16}
                     if command == "synth" else {})
    assert cli.console([command, "--out", str(out), "--config", cfg]) == 1
    assert re.fullmatch(rf"crossmae: \[Errno \d+\] File exists: {re.escape(repr(str(out)))}\n",
                        capsys.readouterr().err)
    assert out.read_text() == "not a directory\n"


def test_gradcheck_command_reports_small_error(tmp_path):
    cfg = _write_cfg(tmp_path / "g.cfg", **{
        "arch.n_modalities": 2, "arch.n_patches": 2, "arch.patch_len": 4,
        "arch.d_model": 8, "arch.n_heads": 2, "check.max_coords": 2})
    out = _run("gradcheck", tmp_path / "g", cfg)
    lines = open(os.path.join(out, "gradcheck.txt")).read().splitlines()
    assert [line.split("=")[0] for line in lines] == ["max_rel_err", "worst_group"]
    assert float(lines[0].split("=")[1]) < 1e-3
    arch = ArchSpec(n_modalities=2, n_patches=2, patch_len=4, d_model=8, n_heads=2)
    assert lines[1].split("=")[1] in dict(_param_layout(arch))


COLD_START = """
import json, os, sys
import crossmae.cli
from crossmae.config import ManifestError
root = sys.argv[1]


def run(cmd):
    crossmae.cli.main([cmd, "--out", os.path.join(root, cmd),
                       "--config", os.path.join(root, cmd + ".cfg")])


run("synth")
run("analyze")
try:
    run("gradcheck")
except ManifestError:
    pass
else:
    sys.exit("gradcheck accepted check.max_coords=0")
import numpy as np
from crossmae.kcca import ViewGrams, kcca_solve
kcca_solve(ViewGrams(np.eye(3), np.ones((3, 3)) + np.eye(3)), 1e-2)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cold_start_runs_synth_raw_analyze_and_a_rejection_without_scipy(tmp_path):
    _write_cfg(tmp_path / "synth.cfg", **{"data.n_windows": 4, "data.n_samples": 32})
    _write_cfg(tmp_path / "analyze.cfg", **{
        "data.n_windows": 12, "data.n_samples": 140, "data.n_modalities": 3,
        "exp.n_transitions": 12, "exp.n_seeds": 1, "exp.pca_k": 4})
    _write_cfg(tmp_path / "gradcheck.cfg", **{"check.max_coords": 0})
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert os.path.exists(tmp_path / "analyze" / "summary.txt")
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_every_subcommand_holds_the_heap(monkeypatch, tmp_path):
    import ctypes
    from crossmae import model

    opened, calls = [], []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc)
    model._hold_heap.cache_clear()
    try:
        cfg = _write_cfg(tmp_path / "s.cfg", **{"data.n_windows": 2, "data.n_samples": 16})
        _run("synth", tmp_path / "o", cfg)
        assert opened == [None]
        assert calls == [(model.M_MMAP_THRESHOLD, 64 << 20),
                         (model.M_TRIM_THRESHOLD, 256 << 20)]
    finally:
        model._hold_heap.cache_clear()
