"""Self-tests of the benchmark: python3 -m pytest -q perfbench/tests"""
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import crossmae.cli
import harness
import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run_dirs(pipelines, base: Path) -> dict:
    """Bytes of every file each pipeline writes, keyed by pipeline/file."""
    out = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for p in pipelines:
            run = base / p.name
            crossmae.cli.main(p.argv + ["--out", str(run)])
            out.update({f"{p.name}/{f.relative_to(run)}": f.read_bytes()
                        for f in run.rglob("*") if f.is_file()})
    return out


def test_metric_names_and_caps():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert len(e2e) <= 16 and len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [(m["name"], m["unit"]) for m in layers] == tracer.PER_LAYER
    assert {m["name"] for m in e2e} == {"windows_per_s", "setup_s", "peak_rss_mb"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_patches_are_restored_after_tracing():
    import crossmae.kcca
    import crossmae.kernels
    import crossmae.model
    import crossmae.tape
    import crossmae.train

    before = {(m, a): v for m in list(sys.modules) if m.startswith("crossmae")
              for a, v in vars(sys.modules[m]).items()}
    methods = (crossmae.model.Binding.__init__, crossmae.tape.Tape.backward,
               crossmae.tape.Tape.__init__, crossmae.tape.Tape.leaf)
    with tracer.Tracer():
        assert crossmae.train.encode is crossmae.kcca.encode is crossmae.model.encode
        assert crossmae.cli.pretrain is crossmae.train.pretrain
        assert hasattr(crossmae.cli.pretrain, "__wrapped__")
        assert hasattr(crossmae.kernels.gelu_fwd, "__wrapped__")
    after = {(m, a): v for m in list(sys.modules) if m.startswith("crossmae")
             for a, v in vars(sys.modules[m]).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (crossmae.model.Binding.__init__, crossmae.tape.Tape.backward,
            crossmae.tape.Tape.__init__, crossmae.tape.Tape.leaf) == methods
    assert crossmae.train.encode is crossmae.model.encode
    assert not hasattr(crossmae.model.encode, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        pipelines = workloads.WORKLOADS[workload](tmp_path, 3)
    plain = _run_dirs(pipelines, tmp_path / "plain")
    with tracer.Tracer() as spans:
        traced = _run_dirs(pipelines, tmp_path / "traced")
    assert len(spans.name) > 0
    assert plain.keys() == traced.keys() and plain == traced


def test_exact_node_counts(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "a").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        pretrain = workloads.WORKLOADS["pretrain"](tmp_path / "p", 0)
        raw = workloads.WORKLOADS["analyze_raw"](tmp_path / "a", 0)
    with tracer.Tracer() as spans:
        _run_dirs(pretrain, tmp_path / "p" / "run")
    m = spans.metrics(windows=pretrain[0].visits, untraced_round_s=1.0, traced_round_s=1.0,
                      out_bytes=0)
    assert m["tape.nodes_per_window"] == 167
    assert m["tape.backward.calls"] == m["train.adamw_step.calls"] == 20
    with tracer.Tracer() as spans:
        _run_dirs(raw, tmp_path / "a" / "run")
    m = spans.metrics(windows=raw[0].visits, untraced_round_s=1.0, traced_round_s=1.0,
                      out_bytes=0)
    assert m["tape.nodes"] == 0 and m["tape.tapes"] == 0
    assert m["kcca.pca_reduce.calls"] == 20


def test_coverage_counts_unattributed_time():
    """cli.main time that no layer below cli accounts for lowers coverage."""
    spans = tracer.Tracer()
    for span, parent, start, end in (("cli.main", -1, 0.0, 1.0), ("model.encode", 0, 0.1, 0.4),
                                     ("tape.matmul", 1, 0.2, 0.3)):
        spans.name.append(spans._ids[span])
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    m = spans.metrics(windows=1, untraced_round_s=1.0, traced_round_s=1.0, out_bytes=0)
    assert m["cli.self_s"] == pytest.approx(0.7)
    assert m["model.self_s"] == pytest.approx(0.2)
    assert m["trace.coverage"] == pytest.approx(0.3)


def _layer_self(metrics):
    return {k[:-len(".self_s")]: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}


@pytest.mark.parametrize("workload", ["pretrain", "analyze_raw"])
def test_result_lines_follow_the_contract(workload):
    untraced, _ = harness.measure(workload, 0, 0.0, False, ROOT)
    traced, _ = harness.measure(workload, 0, 0.0, True, ROOT)
    for res, spec in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: m["unit"] for k, m in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    metrics = traced["metrics"]
    assert abs(metrics["trace.coverage"]["value"] - 1.0) < 0.1
    shares = _layer_self(metrics)
    if workload == "pretrain":
        assert metrics["tape.nodes_per_window"]["value"] == 167
        core = shares.pop("tape") + shares.pop("kernels") + shares.pop("model")
        assert core > max(shares.values())
    else:
        assert metrics["tape.nodes"]["value"] == 0
        assert max(shares, key=shares.get) == "kcca"


def test_reference_comparison_tolerance():
    want = {"loss": [1.0, 0.5]}
    assert workloads.compare("pretrain", {"loss": [1.0 + 1e-12, 0.5]}, want) == []
    assert workloads.compare("pretrain", {"loss": [1.0 + 1e-5, 0.5]}, want)
    probe = {"top1": 0.5, "final_loss": 1.0, "train_size": 22, "val_size": 10}
    assert workloads.compare("probe", dict(probe, top1=0.6), probe) == []
    assert workloads.compare("probe", dict(probe, top1=0.7), probe)
    assert workloads.compare("probe", dict(probe, train_size=21), probe)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pretrain",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
