"""cizsl benchmark: one workload per invocation, from the root of a checkout.

    python3 bench/run.py --workload train-default --seed 1 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped; `--trace 1`
is a separate traced run that reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. The full record,
with the machine and thread settings, goes to bench/out/. See README.md.
"""
import os

# BLAS and OpenMP read these once, when numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["CIZSL_THREADS"] = "1"  # sweeps run sequentially in this process

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("train-default", "sweep-small", "eval-wide")
IMPORT_REPEATS = 5

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import cizsl.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median wall time of `import cizsl.cli` (numpy included) in a fresh
    interpreter with the same environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ[v] for v in (*THREAD_VARS, "CIZSL_THREADS")},
        "git_commit": _git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced run keeps starting operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cizsl" / "__init__.py").is_file():
        print(f"error: no cizsl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cizsl
    if Path(cizsl.__file__).resolve().parent != SRC / "cizsl":
        print(f"error: imported cizsl from {cizsl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            res = workloads.traced(args.workload, args.seed, work,
                                   OUT / f"spans-{args.workload}.csv")
        else:
            res = workloads.measure(args.workload, args.seed, args.seconds, work,
                                    import_seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **res, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {tag}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = res["notes"].get(name, "")
        print(f"{name:28s} {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))
    print(f"{'su_auc':28s} {res['su_auc']}")
    print(f"{'failed_ratio':28s} {res['failed'] / res['attempted']:.6g}"
          f"  [{res['failed']} of {res['attempted']} operations]")
    for failure in res["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
