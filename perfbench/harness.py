"""Closed-loop measurement of one workload.

One client in one process: each pipeline is one in-process call to
`crossmae.cli.main`, started after the previous call returned. A round runs
every pipeline of the workload once; the timed phase runs whole rounds until
the requested seconds have passed. Every call's run directory is checked
(outside the timed region) and then deleted.
"""
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import crossmae
import crossmae.cli
import crossmae.kernels
import numpy
import scipy

import pin
import tracer
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import crossmae.cli; print(time.perf_counter() - t)")

# Host pace. On a shared host this machine's speed drifts by 20-40% in
# regimes that last minutes, and a regime moves every timing of a run
# together. So each run also times a fixed kernel of its own, after every
# set-up repeat and every pipeline call, and reports its time metrics at the
# nominal pace: the speed at which that kernel takes PACE_NOMINAL_S.
PACE_NOMINAL_S = 0.02
_PACE = numpy.random.default_rng(0)
_PACE_X, _PACE_W, _PACE_M = (_PACE.standard_normal(s) for s in ((48, 32), (32, 32), (300, 200)))


def pace_seconds() -> float:
    """Time a fixed kernel that mixes crossmae's kinds of work but runs none
    of its code: a Python loop over small matmuls and ufuncs, as on the tape,
    and one LAPACK SVD, as in kcca.pca_reduce."""
    t0 = perf_counter()
    acc = {}
    for i in range(600):
        h = _PACE_X @ _PACE_W
        h = numpy.tanh(h - h.mean(axis=1, keepdims=True))
        acc[i % 7] = float(h[:, :4].sum())
    numpy.linalg.svd(_PACE_M, full_matrices=False)
    return perf_counter() - t0


class Runner:
    """Calls pipelines, checks their outputs and keeps the failure count."""

    def __init__(self, pipelines, work: Path, reference):
        self.pipelines = pipelines
        self.work = work
        self.reference = reference
        self.expected = {}  # pipeline name -> file digests of its first call
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.problems = []
        self.paces = []  # pace_seconds() after each call
        self._calls = 0

    def call(self, p):
        """Wall seconds of one successful call, or None if it failed."""
        out = self.work / f"run{self._calls}"
        self._calls += 1
        self.attempted += 1
        # Each call starts with no garbage pending, as in a fresh `crossmae`
        # process; collections inside the call stay in its timed region.
        gc.collect()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                crossmae.cli.main(p.argv + ["--out", str(out)])
            dt = perf_counter() - t0
            problems = self._check(p, out)
        except Exception:  # a failed call is counted, reported and the loop goes on
            dt, problems = None, [f"{p.name}: {traceback.format_exc()}"]
        shutil.rmtree(out, ignore_errors=True)
        self.paces.append(pace_seconds())
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return dt

    def _check(self, p, out: Path) -> list:
        files = {f.relative_to(out).as_posix(): f.read_bytes()
                 for f in sorted(out.rglob("*")) if f.is_file()}
        self.out_bytes += sum(len(b) for b in files.values())
        digests = {k: hashlib.sha256(b).hexdigest() for k, b in files.items()}
        first = self.expected.setdefault(p.name, digests)
        problems = [] if digests == first else [f"{p.name}: run directory differs from first call"]
        try:
            values = p.read(out)
        except (OSError, KeyError, ValueError) as exc:
            return problems + [f"{p.name}: unreadable outputs ({exc!r})"]
        problems += p.check(values)
        if self.reference is not None:
            problems += workloads.compare(p.name, values, self.reference[p.name])
        return problems

    def rounds(self, seconds: float):
        """Whole rounds until `seconds` have passed (at least one). Returns
        (per-round lists of call seconds, None for a failed call; wall s)."""
        t0 = perf_counter()
        out = []
        while True:
            out.append([self.call(p) for p in self.pipelines])
            if perf_counter() - t0 >= seconds:
                return out, perf_counter() - t0


def _import_seconds(src: Path) -> float:
    """Time `import crossmae.cli` in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, work: Path, src: Path):
    """Generate the inputs SETUP_REPEATS times. Returns (pipelines of the last
    set-up, set-up seconds = fastest import + fastest input generation,
    pace_seconds() after each repeat).

    The fastest repeat, not the median: these are sub-second timings whose
    noise on a shared host only ever adds time."""
    imports, gens, paces = [], [], []
    for k in range(SETUP_REPEATS):
        imports.append(_import_seconds(src))
        inputs = work / f"inputs{k}"
        inputs.mkdir()
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            pipelines = workloads.WORKLOADS[workload](inputs, seed)
        gens.append(perf_counter() - t0)
        paces.append(pace_seconds())
    return pipelines, min(imports) + min(gens), paces


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(root: Path, workload: str, seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "commit": _commit(root),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas.get('version', '?')}",
        "scipy_blas": f"{sblas['name']} {sblas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in pin.THREAD_VARS},
        "backend": crossmae.kernels.BACKEND, "crossmae": crossmae.__file__,
    }


def _median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def _round_seconds(rounds):
    return [sum(r) for r in rounds if None not in r]


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload. Returns (result dict as printed, report lines)."""
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(root, workload, seed)
    lines = [f"env {k} {v}" for k, v in env.items()]
    lines.append("reference " + ("recorded" if reference else "none recorded for this seed; "
                                 "checking invariants and rerun identity only"))
    try:
        pipelines, setup_s, setup_paces = setup(workload, seed, work, root / "src")
        runner = Runner(pipelines, work, reference)
        runner.rounds(0)  # warm-up round: lazy set-up, memory plateau, first-call digests
        runner.paces.clear()
        visits = sum(p.visits for p in pipelines)
        if trace:
            plain, _ = runner.rounds(seconds / 2)
            runner.out_bytes = 0
            spans = tracer.Tracer()
            with spans:
                traced, _ = runner.rounds(seconds / 2)
            spans.save(work.parent / f"spans-{workload}-seed{seed}.npz")
            plain_s = _median_or_zero(_round_seconds(plain))
            traced_s = _median_or_zero(_round_seconds(traced))
            metrics = spans.metrics(windows=visits * len(traced), untraced_round_s=plain_s,
                                    traced_round_s=traced_s, out_bytes=runner.out_bytes)
            units = dict(tracer.PER_LAYER)
            lines.append(f"trace base: untraced round {plain_s:.4f} s (n={len(plain)}), "
                         f"traced round {traced_s:.4f} s (n={len(traced)})")
            lines.append(f"train.step_ms.tail is p{spans.step_tail_pct:.1f} of n={spans.step_n}")
        else:
            rounds, _ = runner.rounds(seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ok = _round_seconds(rounds)
            # Paces are >1 when the host ran slower than nominal. Each round
            # is scaled by the pace measured after its own calls.
            n = len(pipelines)
            paces = [statistics.median(runner.paces[i * n:(i + 1) * n]) / PACE_NOMINAL_S
                     for i in range(len(rounds))]
            setup_pace = statistics.median(setup_paces) / PACE_NOMINAL_S
            rates = [visits / sum(r) * f for r, f in zip(rounds, paces) if None not in r]
            metrics = {"windows_per_s": _median_or_zero(rates),
                       "setup_s": setup_s / setup_pace, "peak_rss_mb": peak}
            units = {"windows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
            lines.append(f"pace set-up {setup_pace:.4f} (n={len(setup_paces)}), timed phase "
                         f"p50 {statistics.median(paces):.4f} (n={len(runner.paces)}); "
                         f"as measured: windows_per_s {_median_or_zero([visits / s for s in ok]):.4f}"
                         f" 1/s, setup_s {setup_s:.4f} s")
            lines += _pipeline_report(pipelines, rounds, paces, runner)
            p50, (tl, pct) = _median_or_zero(ok), tracer.tail(ok)
            lines.append(f"round_s as measured p50 {p50:.4f} s, tail p{pct:.1f} {tl:.4f} s, "
                         f"n={len(ok)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in runner.problems[:20]:
        lines.append("FAILED " + msg.strip().replace("\n", "\n       "))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines


def _pipeline_report(pipelines, rounds, paces, runner):
    """The per-pipeline figures at the nominal pace: windows/s for each
    pipeline, gradcheck in seconds, and the failed fraction of all calls."""
    lines = []
    for i, p in enumerate(pipelines):
        secs = [r[i] / f for r, f in zip(rounds, paces) if r[i] is not None]
        if p.name == "gradcheck":
            lines.append(f"metric gradcheck_s {_median_or_zero(secs):.6f} s n={len(secs)}")
        else:
            rate = _median_or_zero([p.visits / s for s in secs])
            lines.append(f"metric {p.name}.windows_per_s {rate:.4f} 1/s n={len(secs)}")
    lines.append(f"metric fail_frac {runner.failed / runner.attempted:.4f} ratio "
                 f"n={runner.attempted}")
    return lines
