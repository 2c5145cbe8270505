"""Record the reference outputs the benchmark compares every call against.

    python3 perfbench/record_reference.py

Runs each workload's pipelines once per seed in SEEDS, fails if any output
check fails, and rewrites perfbench/reference.json. Record at a commit whose
outputs are known good; a later commit that only reorders floating-point
sums must still match within workloads.RTOL.
"""
import pin  # noqa: F401  (first: pins BLAS/OpenMP threads before numpy loads)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import crossmae.cli  # noqa: E402

import workloads  # noqa: E402

# Seeds 0-63 plus the held-out seed 1009 (see NOTES.md).
SEEDS = [*range(64), 1009]


def record(workload: str, seed: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    values = {}
    with contextlib.redirect_stdout(io.StringIO()):
        pipelines = workloads.WORKLOADS[workload](work, seed)
        for p in pipelines:
            out = work / f"run-{p.name}"
            crossmae.cli.main(p.argv + ["--out", str(out)])
            values[p.name] = p.read(out)
            problems = p.check(values[p.name])
            if problems:
                raise SystemExit(f"{workload} seed {seed}: {problems}")
    return values


def main():
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    ref = {}
    try:
        for workload in workloads.WORKLOADS:
            ref[workload] = {str(s): record(workload, s, work) for s in SEEDS}
            print(f"recorded {workload}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
