"""crossmae benchmark launcher.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload (or, with `all`, every workload in its own process) from
the root of a source checkout, importing crossmae from `src/`. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics from a separate traced phase. See perfbench/NOTES.md.
"""
import pin  # noqa: F401  (first: pins BLAS/OpenMP threads before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (stdlib only at import time)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0  # seed 1009 is held out for confirming later claims


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a fresh process, then one summary line per metric."""
    summary, code = {}, 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print("\n".join(f"[{w}] {line}" for line in out[:-1]))
        if proc.returncode != 0 or not out:
            print(f"[{w}] exited with code {proc.returncode}")
            code = 1
            continue
        summary[w] = json.loads(out[-1])
    for w, res in summary.items():
        for name, m in res["metrics"].items():
            print(f"{w:12s} {name:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{w:12s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    correct = code == 0 and all(r["correct"] for r in summary.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "metrics": {f"{w}.{k}": m for w, r in summary.items()
                                  for k, m in r["metrics"].items()}}))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "crossmae" / "cli.py").is_file():
        print(f"crossmae sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import crossmae

    if Path(crossmae.__file__).resolve().parent != (src / "crossmae").resolve():
        print(f"imported crossmae from {crossmae.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    result, lines = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
