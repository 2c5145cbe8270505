"""The three benchmark workloads and the output checks of their pipelines.

Each workload generates its inputs from the workload seed into a work
directory and returns the pipelines it runs, in order, as `crossmae` CLI
argument lists. Every pipeline also knows how many window visits one call
makes (the numerator of its throughput), how to read the values that matter
out of its run directory, and which invariants those values must satisfy.
"""
from dataclasses import dataclass
import math
from pathlib import Path
from typing import Callable

# Window counts and run lengths. Shapes follow the workload definitions in
# NOTES.md; counts are sized so one round takes about a second or two.
PRETRAIN_WINDOWS = 32
PRETRAIN_EPOCHS = 10  # the smallest run the default 10 warmup epochs allow
EVAL_WINDOWS = 32
EVAL_TRANSITIONS = 32
EVAL_L = 200
GRADCHECK_BOUND = 1e-3  # acceptance criterion 01
# Window visits one `crossmae gradcheck` call counts for: a fixed weight, the
# number of single-window tapes it built at its defaults when the benchmark
# was written. It sets gradcheck's share of evaluate's throughput and does
# not follow later changes to gradcheck's sampling.
GRADCHECK_VISITS = 697


@dataclass
class Pipeline:
    name: str
    argv: list
    visits: int
    read: Callable[[Path], dict]
    check: Callable[[dict], list]


def _write_cfg(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return str(path)


def _synth(work: Path, seed: int, n_windows: int, n_samples: int) -> str:
    import crossmae.cli

    data = work / "data"
    cfg = _write_cfg(work / "synth.cfg", {"data.n_windows": n_windows,
                                          "data.n_samples": n_samples, "seed": seed})
    crossmae.cli.main(["synth", "--config", cfg, "--out", str(data)])
    return str(data)


def _kv(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if line)


def _csv(path: Path) -> list:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _finite(xs) -> bool:
    return all(math.isfinite(x) for x in xs)


# -- pretrain -------------------------------------------------------------
def _read_pretrain(out: Path) -> dict:
    return {"loss": [float(r["loss"]) for r in _csv(out / "loss.csv")]}


def _check_pretrain(v: dict) -> list:
    loss = v["loss"]
    if len(loss) != PRETRAIN_EPOCHS or not _finite(loss):
        return [f"loss trace not {PRETRAIN_EPOCHS} finite values: {loss}"]
    if not loss[-1] < loss[0]:
        return [f"final epoch loss {loss[-1]} not below first {loss[0]}"]
    return []


def _setup_pretrain(work: Path, seed: int) -> list:
    data = _synth(work, seed, PRETRAIN_WINDOWS, 64)
    cfg = _write_cfg(work / "pretrain.cfg", {"data.dir": data, "optim.epochs": PRETRAIN_EPOCHS,
                                             "seed": seed})
    return [Pipeline("pretrain", ["pretrain", "--config", cfg],
                     PRETRAIN_EPOCHS * PRETRAIN_WINDOWS, _read_pretrain, _check_pretrain)]


# -- evaluate ---------------------------------------------------------------
def _read_impute(out: Path) -> dict:
    return {f"{r['task']}/{r['method']}": [float(r["mae"]), float(r["mse"])]
            for r in _csv(out / "report.csv")}


def _check_impute(v: dict) -> list:
    if len(v) != 16 or not _finite(x for pair in v.values() for x in pair):
        return [f"report.csv has {len(v)} distinct task/method rows, expected 16 finite"]
    return []


def _read_probe(out: Path) -> dict:
    kv = _kv(out / "summary.txt")
    return {"top1": float(kv["top1"]), "final_loss": float(kv["final_loss"]),
            "train_size": int(kv["train_size"]), "val_size": int(kv["val_size"])}


def _probe_split(n: int, train_fraction: float = 0.7) -> tuple:
    cut = min(max(int(round(train_fraction * n)), 1), n - 1)
    return cut, n - cut


def _check_probe(v: dict) -> list:
    problems = []
    if not 0.0 <= v["top1"] <= 1.0:
        problems.append(f"top1 {v['top1']} outside [0, 1]")
    if (v["train_size"], v["val_size"]) != _probe_split(EVAL_WINDOWS):
        problems.append(f"split {v['train_size']}/{v['val_size']} != {_probe_split(EVAL_WINDOWS)}")
    if not math.isfinite(v["final_loss"]):
        problems.append(f"final probe loss {v['final_loss']}")
    return problems


def _read_analyze(out: Path) -> dict:
    return {"sigma1": [float(r["sigma1"]) for r in _csv(out / "sigma1.csv")]}


def _check_analyze(n_rows: int):
    def check(v: dict) -> list:
        if len(v["sigma1"]) != n_rows or not _finite(v["sigma1"]):
            return [f"sigma1.csv holds {v['sigma1']}, expected {n_rows} finite values"]
        return []
    return check


def _read_gradcheck(out: Path) -> dict:
    return {"max_rel_err": float(_kv(out / "gradcheck.txt")["max_rel_err"])}


def _check_gradcheck(v: dict) -> list:
    if not v["max_rel_err"] < GRADCHECK_BOUND:
        return [f"max_rel_err {v['max_rel_err']} not below {GRADCHECK_BOUND}"]
    return []


def _setup_evaluate(work: Path, seed: int) -> list:
    from crossmae.cli import PRETRAIN_DEFAULTS as pd
    from crossmae.model import ArchSpec, init_model, save_checkpoint

    data = _synth(work, seed, EVAL_WINDOWS, EVAL_L)
    arch = ArchSpec(n_modalities=6, n_patches=EVAL_L // pd["arch.patch_len"],
                    patch_len=pd["arch.patch_len"], d_model=pd["arch.d_model"],
                    enc_layers=pd["arch.enc_layers"], dec_layers=pd["arch.dec_layers"],
                    n_heads=pd["arch.n_heads"], mlp_ratio=pd["arch.mlp_ratio"])
    ckpt = str(work / "checkpoint")
    save_checkpoint(init_model(arch, seed), ckpt)
    impute = _write_cfg(work / "impute.cfg", {"data.dir": data, "checkpoint": ckpt, "seed": seed})
    probe = _write_cfg(work / "probe.cfg", {"data.dir": data, "checkpoint": ckpt,
                                            "probe.mode": "lp", "seed": seed})
    analyze = _write_cfg(work / "analyze.cfg", {"exp.encoder": "model_encoder",
                                                "exp.checkpoint": ckpt,
                                                "exp.n_transitions": EVAL_TRANSITIONS,
                                                "exp.n_seeds": 1, "seed": seed})
    return [
        Pipeline("impute", ["impute", "--config", impute], EVAL_WINDOWS * 4,
                 _read_impute, _check_impute),
        Pipeline("probe", ["probe", "--config", probe], EVAL_WINDOWS, _read_probe, _check_probe),
        Pipeline("analyze", ["analyze", "--config", analyze], EVAL_TRANSITIONS * 2,
                 _read_analyze, _check_analyze(2)),
        Pipeline("gradcheck", ["gradcheck", "--seed", str(seed)], GRADCHECK_VISITS,
                 _read_gradcheck, _check_gradcheck),
    ]


# -- analyze_raw -------------------------------------------------------------
def _setup_analyze_raw(work: Path, seed: int) -> list:
    from crossmae.cli import ANALYZE_DEFAULTS as ad

    cfg = _write_cfg(work / "analyze.cfg", {"seed": seed})
    n_seeds = ad["exp.n_seeds"]
    return [Pipeline("analyze", ["analyze", "--config", cfg],
                     ad["exp.n_transitions"] * 2 * n_seeds,
                     _read_analyze, _check_analyze(2 * n_seeds))]


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {"pretrain": _setup_pretrain, "evaluate": _setup_evaluate,
             "analyze_raw": _setup_analyze_raw}

# Relative tolerance per pipeline for the comparison with the recorded
# reference values. It admits reordered floating-point sums, not changed
# arithmetic; probe top-1 may move by one window. gradcheck's max_rel_err is
# a few-ulp cancellation residue that any reordering changes, so it is held
# to its acceptance bound only.
RTOL = {"pretrain": 1e-6, "impute": 1e-6, "probe": 1e-6, "analyze": 1e-6, "gradcheck": None}


def _flatten(v, prefix=""):
    if isinstance(v, dict):
        for k, x in v.items():
            yield from _flatten(x, f"{prefix}{k}.")
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from _flatten(x, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), v


def compare(pipeline: str, got: dict, want: dict) -> list:
    """Differences between read values and the recorded reference."""
    if RTOL[pipeline] is None:
        return []
    got_flat, want_flat = dict(_flatten(got)), dict(_flatten(want))
    if got_flat.keys() != want_flat.keys():
        return [f"{pipeline}: keys {sorted(got_flat)} differ from reference {sorted(want_flat)}"]
    problems = []
    for key, w in want_flat.items():
        g = got_flat[key]
        if key == "top1":
            ok = abs(g - w) <= 1.0 / got["val_size"] + 1e-12
        elif isinstance(w, int):
            ok = g == w
        else:
            ok = math.isclose(g, w, rel_tol=RTOL[pipeline], abs_tol=1e-12)
        if not ok:
            problems.append(f"{pipeline}: {key} = {g!r}, reference {w!r}")
    return problems
