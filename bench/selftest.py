"""Self-tests of the benchmark's own accounting.

    python3 bench/selftest.py

Checks that span self time is the span's duration minus its children and
that recorded spans nest; that the FLOP formula matches a hand count for a
2-layer network; and that the counts which must be exact (`train.py_calls`
and the computed `net.flops`, `net.param_copy.bytes`,
`evaluate.distance_bytes`) repeat exactly across two traced runs.
"""
import json
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))
import numpy as np  # noqa: E402

import spans  # noqa: E402
from cizsl.net import Layer, MlpNetwork  # noqa: E402

SEED = 3  # seed of the two traced runs per workload
EXACT = ("train.py_calls", "net.flops", "net.param_copy.bytes", "evaluate.distance_bytes")
failures = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def span_accounting() -> None:
    o = spans.OTHER
    # root [0, 100] holds a [10, 30] and b [40, 70]; b holds g [45, 50]
    tree = [(0, 0, 100, -1, o), (1, 10, 30, 0, o), (2, 40, 70, 0, o), (3, 45, 50, 2, o)]
    check(spans.self_times(tree) == [50, 20, 25, 5], "self time = duration - children")
    check(spans.nesting_errors(tree) == [], "hand-made tree nests")
    leaves = [(0, 0, 100, -1, o), (1, 90, 110, 0, o)]
    check(len(spans.nesting_errors(leaves)) == 1, "a child leaving its parent is caught")
    overlap = [(0, 0, 100, -1, o), (1, 10, 50, 0, o), (2, 40, 60, 0, o)]
    check(len(spans.nesting_errors(overlap)) == 1, "overlapping siblings are caught")

    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: sum(range(1000)), "leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "mid")
    top = tracer.wrap(lambda: [mid() for _ in range(2)], "top", ctx=spans.TRAIN)
    top()
    with tracer.phase("phase", spans.EVAL):
        mid()
    recorded = tracer.spans
    check(spans.nesting_errors(recorded) == [], "recorded spans nest")
    roots = sum(e - s for _, s, e, p, _ in recorded if p < 0)
    check(sum(spans.self_times(recorded)) == roots,
          "self times add up to the root spans' durations")
    contexts = {tracer.names[n]: set() for n, *_ in recorded}
    for n, _, _, _, c in recorded:
        contexts[tracer.names[n]].add(c)
    check(contexts["leaf"] == {spans.TRAIN, spans.EVAL},
          "a span takes the context of the span that opened it")


def flop_formula() -> None:
    # 5 rows through 3 -> 4 -> 2: 5*3*4 + 5*4*2 = 100 multiply-adds per matmul
    shapes = [(4, 3), (2, 4)]
    expected = {"forward": 200, "backward": 400, "input_grad": 200, "penalty_sweep": 1000}
    for kind, flops in expected.items():
        check(spans.matmul_flops(kind, 5, shapes) == flops, f"{kind} flops, hand count")

    net = MlpNetwork([Layer(np.ones(s), np.zeros(s[0]), "leaky_relu", 0.2) for s in shapes])
    tracer = spans.Tracer()
    wrapped = {attr: tracer.wrap(MlpNetwork.__dict__[attr], name, ctx, count)
               for owner, attr, name, ctx, count in spans.targets()
               if owner == "cizsl.net:MlpNetwork" and name != "net.param_copy"}
    _, cache = wrapped["forward_cached"](net, np.ones((5, 3)))
    wrapped["backward"](net, cache, np.ones((5, 2)))
    select = np.array([1.0, 0.0])
    u = wrapped["input_grad_rows"](net, cache, select)
    wrapped["grad_of_input_grad"](net, cache, select, u)
    check(tracer.counts[spans.OTHER, "net.flops"] == sum(expected.values()),
          "flop counters on a real 2-layer network")


def counts_repeat(workload: str, seed: int) -> None:
    values = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload",
                               workload, "--seed", str(seed), "--seconds", "1",
                               "--trace", "1"], cwd=run.ROOT, capture_output=True,
                              text=True, timeout=600, check=True)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        values.append({k: metrics[k]["value"] for k in EXACT})
    for key in EXACT:
        check(values[0][key] == values[1][key],
              f"{workload}: {key} repeats exactly ({values[0][key]!r}, {values[1][key]!r})")


def main() -> int:
    span_accounting()
    flop_formula()
    for workload in run.WORKLOAD_NAMES:
        counts_repeat(workload, SEED)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
