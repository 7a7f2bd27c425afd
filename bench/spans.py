"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

The recorder wraps the public functions and methods of each cizsl layer
from outside the package: a wrapped function is rebound in every cizsl
module that imported it by name, and a wrapped method is replaced on its
class, so every consumer records the span. Spans (name, start, end, parent,
context) are kept in memory and written out when the run ends.

A span's context says which unit of work it belongs to:
  TRAIN  inside `train.train` (per-iteration metrics are taken from these),
  EVAL   inside one benchmark eval pass (per-pass metrics),
  OTHER  everything else, including what runs inside `train` but outside
         its loop: the validation scoring of `cross_validate_lambda` and
         checkpoint writes from the snapshot hook.
"""
from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import functools
import os
import pstats
import sys
import time
import tracemalloc
from collections import defaultdict

OTHER, TRAIN, EVAL = 0, 1, 2

# Multiply-add count per (rows x in x out) of each layer, from the matmuls in
# cizsl.net (elementwise work is not counted; one multiply-add is 2 flops):
#   forward_cached       h @ W.T                                   1 matmul
#   backward             dz.T @ h, dz @ W                          2 matmuls
#   input_grad_rows      u @ W                                     1 matmul
#   grad_of_input_grad   tangent h_dot @ W.T; reverse bar_zdot.T @ h_dot,
#                        bar_z.T @ h, bar_zdot @ W, bar_z @ W      5 matmuls
MATMULS_PER_LAYER = {"forward": 1, "backward": 2, "input_grad": 1, "penalty_sweep": 5}


def matmul_flops(kind: str, rows: int, shapes) -> int:
    """Flops of one MlpNetwork pass of `kind` over `rows` rows, computed from
    the (out, in) weight shapes of its layers."""
    return 2 * MATMULS_PER_LAYER[kind] * rows * sum(o * i for o, i in shapes)


def _net_shapes(net):
    return [layer.weight.shape for layer in net.layers]


def self_times(spans) -> list[int]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the covered part of the parent.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def nesting_errors(spans) -> list[str]:
    """Spans that leave their parent's interval or overlap an earlier sibling."""
    errors = []
    last_end: dict[int, int] = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} leaves its parent {parent}")
        if start < last_end.get(parent, start):
            errors.append(f"span {i} overlaps an earlier sibling")
        last_end[parent] = end
    return errors


class Tracer:
    """In-memory spans and counters around the wrapped cizsl functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._ctx: list[int] = [OTHER]
        self.counts: dict = defaultdict(int)
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, ctx: int | None = None, count=None):
        """`fn` recording one span per call; `ctx` sets the context for the
        span and everything below it, `count(counts, ctx, args, kwargs, result)`
        adds to the counters after the call returns."""
        nid = self._name_id(name)
        spans, stack, ctxs, counts = self.spans, self._stack, self._ctx, self.counts
        clock = time.perf_counter_ns

        # `phase`'s bookkeeping, inlined: this runs on every wrapped call
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = ctxs[-1] if ctx is None else ctx
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ctxs.append(c)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ctxs.pop()
                spans[idx] = (nid, start, end, parent, c)
            if count is not None:
                count(counts, c, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def phase(self, name: str, ctx: int):
        """A span opened by the benchmark itself, e.g. one eval pass."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._ctx.append(ctx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._ctx.pop()
            self.spans[idx] = (nid, start, end, parent, ctx)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Every target in `targets()` wrapped while the block runs."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "cizsl" or name.startswith("cizsl.")}
        for owner_name, attr, span, ctx, count in targets():
            owner = _resolve(mods, owner_name)
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, span, ctx, count)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            # functions: rebind every module-level name bound to the original
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)

    def _uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Spans as CSV: name, start_ns, end_ns, parent index, context."""
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,context\n")
            for nid, start, end, parent, ctx in self.spans:
                f.write(f"{self.names[nid]},{start},{end},{parent},{ctx}\n")


def _resolve(mods, dotted: str):
    module, _, cls = dotted.partition(":")
    owner = mods[module]
    return getattr(owner, cls) if cls else owner


# --------------------------------------------------------------------------
# Counters
# --------------------------------------------------------------------------

def _rows(cache) -> int:
    return cache.x.shape[0]


def _flops(kind, rows_of):
    def count(counts, ctx, args, kwargs, result):
        counts[ctx, "net.flops"] += matmul_flops(kind, rows_of(args, result),
                                                 _net_shapes(args[0]))
    return count


def _param_bytes(counts, ctx, args, kwargs, result):
    counts[ctx, "net.param_copy.bytes"] += 8 * args[0].n_params


def _iterations(counts, ctx, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    counts[ctx, "train.iterations"] += config.n_steps


def _minmax(counts, ctx, args, kwargs, result):
    counts[ctx, "divergence.minmax.calls"] += 1
    counts[ctx, "divergence.minmax.degenerate"] += result == 0.0


def _file_bytes(key, arg=0):
    def count(counts, ctx, args, kwargs, result):
        counts[ctx, key] += os.path.getsize(args[arg])
    return count


def _distance_bytes(*center_args):
    # l2 distances materialize an N x K x D float64 difference tensor
    def count(counts, ctx, args, kwargs, result):
        features = args[0]
        k = sum(args[i].class_ids.size for i in center_args)
        counts[ctx, "evaluate.distance_bytes"] += \
            8 * features.shape[0] * k * features.shape[-1]
    return count


def targets():
    """(owner, attribute, span name, context, counter) for every wrapped name.

    Owners are "module" for functions and "module:Class" for methods.
    `gradcheck` and `errors` are the test contract, not user traffic, and
    stay unwrapped.
    """
    net_mlp = "cizsl.net:MlpNetwork"
    return [
        ("cizsl.cli", "load_experiment_config", "cli.config", None, None),
        ("cizsl.data", "make_synthetic", "data.synth", None, None),
        ("cizsl.data", "load_dataset", "data.load", None,
         _file_bytes("data.bytes_read")),
        ("cizsl.data", "read_blob", "data.read_blob", None,
         _file_bytes("data.bytes_read")),
        ("cizsl.data", "split_train_val", "data.split", None, None),
        ("cizsl.data", "class_means", "data.class_means", None, None),
        ("cizsl.numerics", "adam_step", "numerics.adam", None, None),
        ("cizsl.numerics:RngStream", "normal", "numerics.rng", None, None),
        ("cizsl.numerics:RngStream", "uniform", "numerics.rng", None, None),
        ("cizsl.numerics:RngStream", "integers", "numerics.rng", None, None),
        ("cizsl.numerics:RngStream", "permutation", "numerics.rng", None, None),
        ("cizsl.numerics", "softmax", "numerics.softmax", None, None),
        ("cizsl.numerics", "log_softmax", "numerics.softmax", None, None),
        (net_mlp, "forward_cached", "net.forward", None,
         _flops("forward", lambda a, r: _rows(r[1]))),
        (net_mlp, "backward", "net.backward", None,
         _flops("backward", lambda a, r: _rows(a[1]))),
        (net_mlp, "input_grad_rows", "net.penalty.input_grad", None,
         _flops("input_grad", lambda a, r: _rows(a[1]))),
        (net_mlp, "grad_of_input_grad", "net.penalty.sweep", None,
         _flops("penalty_sweep", lambda a, r: _rows(a[1]))),
        (net_mlp, "param_vector", "net.param_copy", None, _param_bytes),
        (net_mlp, "set_param_vector", "net.param_copy", None, _param_bytes),
        ("cizsl.net:Generator", "forward_cached", "net.gen.forward", None, None),
        ("cizsl.net:Generator", "backward", "net.gen.backward", None, None),
        ("cizsl.net:Generator", "param_vector", "net.param_copy", None, None),
        ("cizsl.net:Generator", "set_param_vector", "net.param_copy", None, None),
        ("cizsl.net:Discriminator", "forward_cached", "net.disc.forward", None, None),
        ("cizsl.net:Discriminator", "backward", "net.disc.backward", None, None),
        ("cizsl.net:Discriminator", "param_vector", "net.param_copy", None, None),
        ("cizsl.net:Discriminator", "set_param_vector", "net.param_copy", None, None),
        ("cizsl.net", "gradient_penalty", "net.penalty", None, None),
        ("cizsl.net", "save_checkpoint", "net.checkpoint.save", OTHER,
         _file_bytes("net.checkpoint.bytes")),
        ("cizsl.net", "load_checkpoint", "net.checkpoint.load", None, None),
        ("cizsl.divergence", "entropy_loss_batch", "divergence.entropy", None, None),
        ("cizsl.divergence:DivergenceParams", "validate", "divergence.validate",
         None, None),
        ("cizsl.divergence", "minmax_gradient_scale", "divergence.minmax_scale",
         None, _minmax),
        ("cizsl.losses", "discriminator_loss", "losses.critic", None, None),
        ("cizsl.losses", "generator_loss", "losses.generator", None, None),
        ("cizsl.losses", "creativity_loss", "losses.creativity", None, None),
        ("cizsl.losses", "hallucinate_batch", "losses.hallucinate", None, None),
        ("cizsl.train", "train", "train.train", TRAIN, _iterations),
        ("cizsl.train", "validation_auc", "train.validation_auc", OTHER, None),
        ("cizsl.train", "cross_validate_lambda", "train.cross_validate", None, None),
        ("cizsl.evaluate", "synthesize_centers", "evaluate.centers", None, None),
        ("cizsl.evaluate", "seen_unseen_curve", "evaluate.curve", None,
         _distance_bytes(2, 3)),
        ("cizsl.evaluate", "zsl_top1", "evaluate.top1", None, _distance_bytes(2)),
        ("cizsl.evaluate", "retrieval_precision", "evaluate.retrieval", None,
         _distance_bytes(2)),
    ]


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

_FORWARD = ("net.forward", "net.gen.forward", "net.disc.forward")
_BACKWARD = ("net.backward", "net.gen.backward", "net.disc.backward")
_PENALTY = ("net.penalty", "net.penalty.input_grad", "net.penalty.sweep")
# callbacks run inside `train` that are not part of the training loop
_NOT_LOOP = ("train.validation_auc", "net.checkpoint.save")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans and counters.

    Training metrics are per iteration (TRAIN context), evaluate metrics per
    benchmark eval pass (EVAL context); the rest are per call.
    """
    names, spans = tracer.names, tracer.spans
    own = self_times(spans)
    agg = defaultdict(lambda: [0, 0, 0])  # (name, ctx) -> self ns, total ns, calls
    loop_ns = 0
    for (nid, start, end, parent, ctx), self_ns in zip(spans, own):
        a = agg[names[nid], ctx]
        a[0] += self_ns
        a[1] += end - start
        a[2] += 1
        name = names[nid]
        if name == "train.train":
            loop_ns += end - start
        elif name in _NOT_LOOP and parent >= 0 and names[spans[parent][0]] == "train.train":
            loop_ns -= end - start

    def total(span_names, field, ctx=None):
        if isinstance(span_names, str):
            span_names = (span_names,)
        ctxs = (OTHER, TRAIN, EVAL) if ctx is None else (ctx,)
        return sum(agg[n, c][field] for n in span_names for c in ctxs)

    def count(key, ctx=None):
        ctxs = (OTHER, TRAIN, EVAL) if ctx is None else (ctx,)
        return sum(tracer.counts[c, key] for c in ctxs)

    def ratio(num, den):
        return num / den if den else 0.0

    iters = count("train.iterations")
    passes = total("bench.eval_pass", 2)
    out: dict[str, tuple[float, str]] = {}

    def per_call(metric, span):
        out[metric] = (ratio(total(span, 1), total(span, 2)) * 1e-6, "ms/call")

    def self_ms(metric, span_names):
        out[metric] = (ratio(total(span_names, 0, TRAIN), iters) * 1e-6, "ms/iter")

    def calls(metric, span):
        out[metric] = (ratio(total(span, 2, TRAIN), iters), "calls/iter")

    def per_pass(metric, span):
        out[metric] = (ratio(total(span, 1, EVAL), passes) * 1e-6, "ms/pass")

    per_call("cli.config_ms", "cli.config")
    per_call("data.synth_ms", "data.synth")
    per_call("data.load_ms", "data.load")
    out["data.bytes_read"] = (ratio(count("data.bytes_read"), total("data.load", 2)),
                              "B/call")
    per_call("data.split_ms", "data.split")
    per_call("data.class_means_ms", "data.class_means")

    self_ms("numerics.adam.self_ms", "numerics.adam")
    calls("numerics.adam.calls", "numerics.adam")
    calls("numerics.rng.calls", "numerics.rng")
    calls("numerics.softmax.calls", "numerics.softmax")

    self_ms("net.forward.self_ms", _FORWARD)
    calls("net.forward.calls", "net.forward")
    self_ms("net.backward.self_ms", _BACKWARD)
    calls("net.backward.calls", "net.backward")
    self_ms("net.penalty.self_ms", _PENALTY)
    self_ms("net.param_copy.self_ms", "net.param_copy")
    out["net.param_copy.bytes"] = (ratio(count("net.param_copy.bytes", TRAIN), iters),
                                   "B/iter")
    out["net.flops"] = (ratio(count("net.flops", TRAIN), iters), "flop/iter")
    per_call("net.checkpoint.save_ms", "net.checkpoint.save")
    per_call("net.checkpoint.load_ms", "net.checkpoint.load")
    out["net.checkpoint.bytes"] = (
        ratio(count("net.checkpoint.bytes"), total("net.checkpoint.save", 2)), "B/call")

    self_ms("divergence.entropy.self_ms", "divergence.entropy")
    calls("divergence.validate.calls", "divergence.validate")
    out["divergence.degenerate_ratio"] = (
        ratio(count("divergence.minmax.degenerate", TRAIN),
              count("divergence.minmax.calls", TRAIN)), "ratio")

    self_ms("losses.critic.self_ms", "losses.critic")
    self_ms("losses.generator.self_ms", "losses.generator")
    self_ms("losses.creativity.self_ms", "losses.creativity")
    self_ms("losses.hallucinate.self_ms", "losses.hallucinate")

    self_ms("train.loop.self_ms", "train.train")
    out["train.critic_share"] = (ratio(total("losses.critic", 1, TRAIN), loop_ns), "ratio")

    per_pass("evaluate.centers_ms", "evaluate.centers")
    per_pass("evaluate.curve_ms", "evaluate.curve")
    per_pass("evaluate.top1_ms", "evaluate.top1")
    per_pass("evaluate.retrieval_ms", "evaluate.retrieval")
    out["evaluate.distance_bytes"] = (ratio(count("evaluate.distance_bytes", EVAL), passes),
                                      "B/pass")
    return out


def py_calls_per_iteration(train_fn, dataset, config, first: int = 10,
                           last: int = 30) -> float:
    """Python calls per training iteration, counted by cProfile over
    iterations first+1 .. last. The profiling hook's own calls are removed."""
    prof = cProfile.Profile()

    def _profile_hook(it, gen, disc, div):
        if it == first:
            prof.enable()
        elif it == last:
            prof.disable()

    train_fn(dataset, dataclasses.replace(config, n_steps=last, eval_interval=1),
             snapshot_fn=_profile_hook)
    stats = pstats.Stats(prof).stats
    calls = sum(nc for (_, _, func), (_, nc, _, _, _) in stats.items()
                if func != _profile_hook.__name__ and "_lsprof.Profiler" not in func)
    return calls / (last - first)


def peak_alloc_mb(fn) -> float:
    """Peak traced allocation, in MiB, while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
