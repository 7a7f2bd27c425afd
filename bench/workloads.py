"""The three benchmark workloads and the two ways to run them.

Every workload runs in-process through cizsl's public entry points: the
`cizsl` commands via `cli.main`, and `train` with its public snapshot hook
where per-iteration timestamps are needed. Functions are looked up on their
modules at call time, so the traced run's wrappers see every call. README.md
says why each workload exists and which layer moves which metric.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import spans

cz_cli = importlib.import_module("cizsl.cli")
cz_net = importlib.import_module("cizsl.net")
cz_numerics = importlib.import_module("cizsl.numerics")
cz_train = importlib.import_module("cizsl.train")

# acceptance criterion 4 (tests/test_acceptance.py), one seed of its hard split
ACCEPTANCE4_DATA = dict(n_super=8, classes_per_super=4, instances_per_class=50,
                        text_dim=32, feature_dim=48, noise_dim=16,
                        descriptor_noise=0.3, feature_noise=0.05, nonlinear=True,
                        split_mode="hard", unseen_fraction=0.25)
ACCEPTANCE4_TRAIN = dict(n_steps=400, batch_size=32, text_embed_dim=16,
                         hidden_dim=48, eval_interval=100)
LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)

# 100 classes (20 super-categories x 5; 75 seen, 25 unseen), 4,000 rows
WIDE_DATA = dict(n_super=20, classes_per_super=5, instances_per_class=40,
                 text_dim=64, feature_dim=128, split_mode="hard",
                 unseen_fraction=0.25)
# two step-timing windows per set-up, so the step metrics span ten windows
WIDE_TRAIN_STEPS = 200

# one `cizsl train` of the default config, cut from 3000 iterations to fit a run
DEFAULT_TRAIN_STEPS = 300

# Iteration latencies are summarised per window of this many consecutive
# iterations (N iterations give N - 1 latencies, so 200, 300 and 400 fill 2,
# 3 and 4 windows), so every workload's tail is the same percentile; over a
# whole 400-iteration command the tail is set by a few machine hiccups and
# drifts from run to run.
STEP_WINDOW = 99

# set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 5


class Run:
    """Samples, output checks and operation counts of one benchmark run."""

    def __init__(self, seed: int, tracer: spans.Tracer | None = None):
        self.seed = seed
        self.tracer = tracer
        # per STEP_WINDOW iterations: median and tail of their latencies
        self.step_p50: list[float] = []
        self.step_tail: list[float] = []
        self.commands = 0
        self.eval_ms: list[float] = []
        self.wall_s: list[float] = []
        self.su_auc: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first: dict = {}
        self._op_ok = True

    def add_steps(self, step_ms: list[float]) -> None:
        """Record one train command's iteration latencies, per window."""
        for i in range(0, len(step_ms) - STEP_WINDOW + 1, STEP_WINDOW):
            window = step_ms[i:i + STEP_WINDOW]
            self.step_p50.append(statistics.median(window))
            self.step_tail.append(tail(window)[1])
        self.commands += 1

    @contextlib.contextmanager
    def operation(self, what: str):
        """One attempted operation; it fails if it raises or a check fails."""
        self.attempted += 1
        self._op_ok = True
        try:
            yield
        except Exception as e:  # counted as a failed operation; the run goes on
            self.expect(False, f"{what} raised {type(e).__name__}: {e}")
        self.failed += not self._op_ok

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self._op_ok = False
            self.failures.append(message)

    def expect_same(self, key: str, value, message: str) -> None:
        """`value` must equal the first value recorded under `key`."""
        self.expect(self._first.setdefault(key, value) == value, message)

    def eval_phase(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.phase("bench.eval_pass", spans.EVAL)


@dataclasses.dataclass
class State:
    config: Path                   # the experiment config every command reads
    work: Path
    checkpoint: Path | None = None  # the checkpoint the last eval pass read


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cli(*argv) -> str:
    """Run one `cizsl` command in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cz_cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"cizsl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_values(*argv) -> dict[str, str]:
    """The `key=value` lines a command prints."""
    return dict(line.split("=", 1) for line in cli(*argv).splitlines() if "=" in line)


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def make_dataset(work: Path, synthetic: dict, seed: int) -> Path:
    """`cizsl synth`: synthesize a dataset and write it as CZFD blobs."""
    config = write_json(work / "synth.json", {"synthetic": {**synthetic, "seed": seed}})
    return Path(cli_values("synth", "--config", config, "--out", work / "data")["manifest"])


def experiment(work: Path, manifest: Path, train: dict) -> Path:
    """Write the experiment config the later commands read, and parse it."""
    path = write_json(work / "experiment.json", {"dataset": str(manifest), "train": train})
    cz_cli.load_experiment_config(path)
    return path


def train_command(config: Path, run_dir: Path, **overrides):
    """`cizsl train` as cmd_train runs it, timestamping every iteration;
    returns the model and the iteration latencies in ms.

    The timestamps come from train's public snapshot hook, called every
    iteration (eval_interval=1, which changes no arithmetic). Besides the
    timestamp the hook only writes a checkpoint every `eval_interval`
    iterations of the config, as cmd_train's hook does.
    """
    cfg = cz_cli.load_experiment_config(config)
    dataset = cfg.load_data()
    run_dir.mkdir(parents=True, exist_ok=True)
    every = cfg.train.eval_interval
    stamps = []

    def hook(it, gen, disc, div):
        stamps.append(time.perf_counter())
        if it % every == 0:
            cz_net.save_checkpoint(run_dir / f"checkpoint_{it:06d}.czsl", gen, disc)

    model = cz_train.train(dataset, dataclasses.replace(cfg.train, eval_interval=1,
                                                        **overrides),
                           snapshot_fn=hook)
    (run_dir / "history.csv").write_text(model.history.to_csv())
    cz_net.save_checkpoint(run_dir / "checkpoint_final.czsl", model.generator,
                           model.discriminator)
    return model, (np.diff(stamps) * 1e3).tolist()


def check_training(run: Run, model, run_dir: Path, key: str) -> None:
    h = model.history
    run.expect(all(np.all(np.isfinite(getattr(h, c))) for c in h.CSV_COLUMNS),
               "training history has non-finite values")
    digest = hashlib.sha256((run_dir / "history.csv").read_bytes()).hexdigest()
    run.expect_same(key + ".history", digest,
                    "history.csv differs between runs of one seed")
    gen, _ = cz_net.load_checkpoint(run_dir / "checkpoint_final.czsl")
    rng = cz_numerics.RngStream(run.seed, 99)
    t, z = rng.normal((16, gen.text_dim)), rng.normal((16, gen.noise_dim))
    run.expect(np.array_equal(gen.forward(t, z), model.generator.forward(t, z)),
               "reloaded checkpoint generates different features")


def check_curve(run: Run, path: Path) -> None:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    seen = [float(r[1]) for r in rows]
    unseen = [float(r[2]) for r in rows]
    run.expect(all(a >= b for a, b in zip(seen, seen[1:])),
               "seen accuracy rises along curve.csv")
    run.expect(all(a <= b for a, b in zip(unseen, unseen[1:])),
               "unseen accuracy falls along curve.csv")


def eval_pass(run: Run, config: Path, checkpoint: Path, out_dir: Path, key: str) -> None:
    """`cizsl eval` then `cizsl retrieve` on one checkpoint, checked."""
    with run.operation("eval pass"):
        with run.eval_phase():
            start = time.perf_counter()
            ev = cli_values("eval", "--config", config, "--checkpoint", checkpoint,
                            "--out", out_dir)
            rt = cli_values("retrieve", "--config", config, "--checkpoint", checkpoint)
            run.eval_ms.append((time.perf_counter() - start) * 1e3)
        su_auc = float(ev["su_auc"])
        run.expect(0.0 <= su_auc <= 1.0, f"su_auc {su_auc} outside [0, 1]")
        run.expect_same(key + ".eval", (ev, rt),
                        "eval or retrieve output differs between repeats")
        check_curve(run, out_dir / "curve.csv")
        run.su_auc[key] = su_auc


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class TrainDefault:
    """`cizsl train` on the example-config dataset with the default TrainConfig,
    each trained checkpoint then evaluated as a user would."""

    name = "train-default"
    min_ops = 1
    traced_ops = 2
    evals_per_op = 4
    auc_key = "train"

    def setup(self, run: Run, work: Path) -> State:
        example = json.loads(cli("synth", "--example-config"))
        manifest = make_dataset(work, example["synthetic"], run.seed)
        train = {**example["train"], "seed": run.seed, "n_steps": DEFAULT_TRAIN_STEPS}
        return State(experiment(work, manifest, train), work)

    def op(self, run: Run, state: State) -> None:
        run_dir = state.work / "run"
        state.checkpoint = run_dir / "checkpoint_final.czsl"
        with run.operation("train"):
            start = time.perf_counter()
            model, step_ms = train_command(state.config, run_dir)
            run.wall_s.append(time.perf_counter() - start)
            run.add_steps(step_ms)
            check_training(run, model, run_dir, "train")
        for _ in range(self.evals_per_op):
            eval_pass(run, state.config, state.checkpoint, run_dir, "train")


class SweepSmall:
    """One seed of the acceptance-4 ablation: cross-validate lambda, train the
    creative and the non-creative model at the chosen lambda, score both."""

    name = "sweep-small"
    min_ops = 2
    traced_ops = 1
    evals_per_op = 3
    auc_key = "creative"

    def setup(self, run: Run, work: Path) -> State:
        manifest = make_dataset(work, ACCEPTANCE4_DATA, run.seed)
        return State(experiment(work, manifest, {**ACCEPTANCE4_TRAIN, "seed": run.seed}),
                     work)

    def op(self, run: Run, state: State) -> None:
        out = state.work / "sweep"
        start = time.perf_counter()
        best = None  # a failed sweep fails the creative training too
        with run.operation("sweep"):
            best = float(cli_values("sweep-lambda", "--config", state.config,
                                    "--grid", ",".join(map(str, LAMBDA_GRID)),
                                    "--out", out)["best_lambda"])
            rows = (out / "sweep.csv").read_text().splitlines()[1:]
            checkpoints = ACCEPTANCE4_TRAIN["n_steps"] // ACCEPTANCE4_TRAIN["eval_interval"]
            run.expect(best in LAMBDA_GRID, f"best lambda {best} is not in the grid")
            run.expect(len(rows) == len(LAMBDA_GRID) * checkpoints,
                       f"sweep.csv has {len(rows)} rows, expected "
                       f"{len(LAMBDA_GRID) * checkpoints}")
        # Each model is scored once right after its training, as one seed of
        # the ablation does; wall_s ends there. Only the creative training is
        # step-timed: the baseline skips the creativity term, and mixing its
        # faster iterations in would put the median between two clusters.
        models = (("base", {"creativity_enabled": False}),
                  ("creative", {"lambda_creativity": best}))
        for key, overrides in models:
            state.checkpoint = out / key / "checkpoint_final.czsl"
            with run.operation(f"train {key}"):
                _, step_ms = train_command(state.config, out / key, **overrides)
                if key == "creative":
                    run.add_steps(step_ms)
            eval_pass(run, state.config, state.checkpoint, out / key, key)
        run.wall_s.append(time.perf_counter() - start)
        # more eval_ms samples, outside wall_s
        for key, _ in models:
            for _ in range(self.evals_per_op - 1):
                eval_pass(run, state.config, out / key / "checkpoint_final.czsl",
                          out / key, key)


class EvalWide:
    """Repeated `cizsl eval` + `cizsl retrieve` from disk at 100 classes x 4,000
    rows x 128 dims, on a checkpoint trained during set-up."""

    name = "eval-wide"
    min_ops = 1
    traced_ops = 3
    auc_key = "eval"

    def setup(self, run: Run, work: Path) -> State:
        manifest = make_dataset(work, WIDE_DATA, run.seed)
        config = experiment(work, manifest, {"seed": run.seed, "n_steps": WIDE_TRAIN_STEPS})
        run_dir = work / "run"
        with run.operation("train checkpoint"):
            model, step_ms = train_command(config, run_dir)
            run.add_steps(step_ms)
            check_training(run, model, run_dir, "train")
        return State(config, work, run_dir / "checkpoint_final.czsl")

    def op(self, run: Run, state: State) -> None:
        start = time.perf_counter()
        eval_pass(run, state.config, state.checkpoint, state.work / "eval", "eval")
        run.wall_s.append(time.perf_counter() - start)


WORKLOADS = {w.name: w for w in (TrainDefault(), SweepSmall(), EvalWide())}


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

def tail(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it: the 11th-largest sample, or the maximum when n <= 10."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, work: Path, import_s: float) -> dict:
    """Untraced run: set up SETUP_REPEATS times, then run operations until
    `seconds` have passed and at least `min_ops` ran, and report the
    end-to-end metrics."""
    workload = WORKLOADS[name]
    run = Run(seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(run, work)
        setup_s.append(time.perf_counter() - start)
    deadline = time.perf_counter() + seconds
    ops = 0
    while ops < workload.min_ops or time.perf_counter() < deadline:
        workload.op(run, state)
        ops += 1
    metrics = {
        "setup_s": (import_s + statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(run.wall_s), "s"),
        "step_ms_p50": (statistics.median(run.step_p50), "ms"),
        "step_ms_tail": (statistics.median(run.step_tail), "ms"),
        "eval_ms_p50": (statistics.median(run.eval_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"imports {import_s:.4f} s + median of {len(setup_s)} set-ups",
        "wall_s": f"median of n={len(run.wall_s)}",
        "step_ms_p50": f"median over {len(run.step_p50)} windows of {STEP_WINDOW} "
                       f"iterations in {run.commands} train commands of each "
                       f"window's p50",
        "step_ms_tail": f"median over {len(run.step_tail)} windows of each window's "
                        f"p{tail(range(STEP_WINDOW))[0]:.2f}",
        "eval_ms_p50": f"n={len(run.eval_ms)}",
        "peak_rss_mb": "getrusage ru_maxrss",
    }
    return result(run, metrics, notes, workload)


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def traced(name: str, seed: int, work: Path, spans_path: Path) -> dict:
    """Traced run: set up once untraced and once with every layer wrapped,
    then alternate untraced and traced operations. Per-layer metrics come
    from the traced set-up and operations; the tracing overhead compares
    the two sides' median operation times."""
    workload = WORKLOADS[name]
    tracer = spans.Tracer()
    run, traced_run = Run(seed), Run(seed, tracer)
    traced_run._first = run._first  # tracing must not change any output
    state = workload.setup(run, work / "plain")
    with tracer.installed():
        traced_state = workload.setup(traced_run, work / "traced")
    plain_s, traced_s = [], []
    for _ in range(workload.traced_ops):
        plain_s.append(_timed(workload.op, run, state))
        with tracer.installed():
            traced_s.append(_timed(workload.op, traced_run, traced_state))
    tracer.write(spans_path)

    metrics = spans.layer_metrics(tracer)
    cfg = cz_cli.load_experiment_config(state.config)
    metrics["train.py_calls"] = (
        spans.py_calls_per_iteration(cz_train.train, cfg.load_data(), cfg.train),
        "calls/iter")
    metrics["evaluate.peak_alloc_mb"] = (spans.peak_alloc_mb(
        lambda: eval_pass(run, state.config, state.checkpoint, work / "alloc",
                          workload.auc_key)), "MB")
    metrics["evaluate.su_auc"] = (run.su_auc.get(workload.auc_key, 0.0), "auc")
    plain, with_spans = statistics.median(plain_s), statistics.median(traced_s)
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - plain) / plain, "%")
    run.attempted += traced_run.attempted
    run.failed += traced_run.failed
    run.failures += traced_run.failures
    notes = {"trace.overhead_pct": f"median of {len(plain_s)} operations: {plain:.3f} s "
                                   f"untraced, {with_spans:.3f} s traced",
             "train.py_calls": "cProfile, iterations 11-30 of the workload's "
                               "training config"}
    return result(run, metrics, notes, workload)


def result(run: Run, metrics: dict, notes: dict, workload) -> dict:
    return {"metrics": metrics, "notes": notes, "attempted": run.attempted,
            "failed": run.failed, "failures": run.failures,
            "su_auc": run.su_auc.get(workload.auc_key)}
