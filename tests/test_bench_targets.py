"""The benchmark's traced run wraps package functions by name; every name it
lists must exist where it looks for it, or `bench/run.py --trace 1` breaks."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cizsl.net import build_discriminator
from cizsl.numerics import RngStream

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().targets()
    assert targets
    for owner_name, attr, *_ in targets:
        module, _, cls = owner_name.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        # the tracer reads the attribute from the owner's own namespace
        assert attr in vars(owner), f"{owner_name}.{attr} is missing"
        assert callable(vars(owner)[attr]), f"{owner_name}.{attr} is not callable"


def test_counter_inputs_exist():
    # the counters read cache.x rows, layer weight shapes and n_params
    disc = build_discriminator(RngStream(0, 0), input_dim=3, n_classes=2)
    _, cache = disc.net.forward_cached(np.zeros((4, 3)))
    assert cache.x.shape[0] == 4
    assert [l.weight.shape for l in disc.net.layers] == [(128, 3), (3, 128)]
    assert disc.net.n_params == 128 * 3 + 128 + 3 * 128 + 3
