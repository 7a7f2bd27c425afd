"""Command-line entry point wiring all modules into reproducible experiments.

Commands: train, eval, retrieve, synth, gradcheck, sweep-lambda.
Exit codes: 0 success, 1 configuration or input error, 2 runtime or
numerical failure. All commands are deterministic given their config files
(including the seed). Floating-point stdout is printed with 6 significant
digits; the training history CSV keeps full precision for byte-exact
regression comparison.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

from .data import (SyntheticConfig, _write_files, load_dataset, make_synthetic,
                   save_dataset)
from .errors import (CizslError, DatasetFormatError, InvalidConfigError,
                     InvalidInputError, InvalidSplitError)
from .evaluate import (METRICS, curve_csv, curve_svg, generalized_curve, harmonic_mean,
                       retrieval_precision, unseen_centers, valid_retrieval_ratio)
from .gradcheck import run_gradient_contract
from .net import load_checkpoint, save_checkpoint
from .train import TrainConfig, cross_validate_lambda, train

# exit 1; every other package error, and numpy's FloatingPointError, exits 2
_INPUT_ERRORS = (InvalidConfigError, InvalidInputError, InvalidSplitError,
                 DatasetFormatError, OSError)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _float_list(text: str, flag: str) -> list[float]:
    """Finite numbers from a comma-separated command-line value."""
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise InvalidConfigError(f"{flag} must be a comma list of finite numbers, got {text!r}")


@dataclasses.dataclass(frozen=True)
class EvalOptions:
    samples_per_center: int = 60
    metric: str = "l2"
    retrieval_ratios: tuple[float, ...] = (0.25, 0.5, 1.0)

    def validate(self) -> "EvalOptions":
        if self.samples_per_center < 1:
            raise InvalidConfigError("eval.samples_per_center must be >= 1")
        if self.metric not in METRICS:
            raise InvalidConfigError(f"eval.metric must be l2 or cosine, got {self.metric!r}")
        ratios = self.retrieval_ratios
        if not (isinstance(ratios, (tuple, list)) and ratios
                and all(valid_retrieval_ratio(r) for r in ratios)):
            raise InvalidConfigError(
                f"eval.retrieval_ratios must be a non-empty list of finite numbers > 0, "
                f"got {ratios!r}")
        return self


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    train: TrainConfig = TrainConfig()
    eval: EvalOptions = EvalOptions()
    dataset_path: str | None = None
    synthetic: SyntheticConfig | None = None
    out_dir: str = "run"

    def validate(self) -> "ExperimentConfig":
        if (self.dataset_path is None) == (self.synthetic is None):
            raise InvalidConfigError(
                "config must set exactly one of 'dataset' / 'synthetic'")
        self.train.validate()
        self.eval.validate()
        if self.synthetic is not None:
            self.synthetic.validate()
        return self

    def load_data(self):
        if self.dataset_path is not None:
            return load_dataset(self.dataset_path)
        return make_synthetic(self.synthetic)


def _typed(value, hint, name: str):
    """A JSON value as the annotated field type: ints pass for floats (but
    bools for neither), floats must be finite (JSON readers accept NaN and
    Infinity), lists become tuples of numbers; anything else that does not
    match raises InvalidConfigError naming the field."""
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            return tuple(_typed(v, typing.get_args(hint)[0], name) for v in value)
        raise InvalidConfigError(f"{name} must be a list of numbers, got {value!r}")
    if hint is float and type(value) is int:
        return float(value)
    if hint is float and type(value) is float and not math.isfinite(value):
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
    if isinstance(value, hint) and not (isinstance(value, bool) and hint is not bool):
        return value
    raise InvalidConfigError(f"{name} must be of type {hint.__name__}, got {value!r}")


def _build_section(cls, raw: dict, section: str):
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"config section {section!r} must be a JSON object")
    hints = typing.get_type_hints(cls)
    for key in raw:
        if key not in hints:
            raise InvalidConfigError(f"unknown field {section}.{key!r}")
    return cls(**{key: _typed(value, hints[key], f"{section}.{key}")
                  for key, value in raw.items()})


def load_experiment_config(path, seed: int | None = None,
                           out_dir: str | None = None) -> ExperimentConfig:
    """Parse a JSON experiment file; flags override file values."""
    path = Path(path)
    if not path.exists():
        raise InvalidConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise InvalidConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise InvalidConfigError("config root must be a JSON object")
    known = {"dataset", "synthetic", "train", "eval", "out_dir"}
    for key in raw:
        if key not in known:
            raise InvalidConfigError(f"unknown top-level config field {key!r}")
        if key in ("dataset", "out_dir") and not isinstance(raw[key], str):
            raise InvalidConfigError(f"{key} must be a string, got {raw[key]!r}")
    train_cfg = _build_section(TrainConfig, raw.get("train", {}), "train")
    eval_cfg = _build_section(EvalOptions, raw.get("eval", {}), "eval")
    synth_cfg = None
    if "synthetic" in raw:
        synth_cfg = _build_section(SyntheticConfig, raw["synthetic"], "synthetic")
    if seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=seed)
        if synth_cfg is not None:
            synth_cfg = dataclasses.replace(synth_cfg, seed=seed)
    cfg = ExperimentConfig(
        train=train_cfg, eval=eval_cfg,
        dataset_path=raw.get("dataset"),
        synthetic=synth_cfg,
        out_dir=out_dir if out_dir is not None else raw.get("out_dir", "run"),
    )
    return cfg.validate()


def _config_snapshot(cfg: ExperimentConfig) -> str:
    """The config in the file format, unset sections left out."""
    out = dataclasses.asdict(cfg)
    out["dataset"] = out.pop("dataset_path")
    return json.dumps({key: value for key, value in out.items() if value is not None},
                      indent=1, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config, seed=args.seed, out_dir=args.out)
    dataset = cfg.load_data()
    run_dir = Path(cfg.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_files([(run_dir / "config.json", [_config_snapshot(cfg).encode()])])

    def snap(it, gen, disc, div):
        save_checkpoint(run_dir / f"checkpoint_{it:06d}.czsl", gen, disc)

    model = train(dataset, cfg.train, snapshot_fn=snap)
    _write_files([(run_dir / "history.csv", [model.history.to_csv().encode()])])
    save_checkpoint(run_dir / "checkpoint_final.czsl", model.generator,
                    model.discriminator)
    print(f"steps={cfg.train.n_steps}")
    if model.history.iteration.size:
        print(f"final_loss_g={_fmt(model.history.loss_g[-1])}")
        print(f"final_loss_d={_fmt(model.history.loss_d[-1])}")
        print(f"final_gamma={_fmt(model.history.gamma[-1])}")
        print(f"final_beta={_fmt(model.history.beta[-1])}")
    print(f"run_dir={run_dir}")
    return 0


def _load_eval_inputs(args):
    cfg = load_experiment_config(args.config, seed=args.seed, out_dir=args.out)
    dataset = cfg.load_data()
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise InvalidInputError(f"checkpoint not found: {ckpt}")
    gen, disc = load_checkpoint(ckpt)
    if gen.text_dim != dataset.text_dim or gen.output_dim != dataset.feature_dim:
        raise InvalidInputError(
            f"checkpoint dims (text {gen.text_dim}, feature {gen.output_dim}) do not "
            f"match dataset (text {dataset.text_dim}, feature {dataset.feature_dim})")
    return cfg, dataset, gen, disc


def cmd_eval(args) -> int:
    cfg, dataset, gen, _ = _load_eval_inputs(args)
    curve = generalized_curve(gen, dataset, cfg.eval.samples_per_center, cfg.train.seed,
                              cfg.eval.metric)
    # the +inf anchor predicts every row unseen: zero-shot top-1
    top1 = float(curve.unseen_acc[-1])
    h = harmonic_mean(*curve.at_zero)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_files([(out_dir / "curve.csv", [curve_csv(curve).encode()]),
                  (out_dir / "curve.svg", [curve_svg(curve).encode()])])
    print(f"top1={_fmt(top1)}")
    print(f"su_auc={_fmt(curve.auc)}")
    print(f"harmonic_mean={_fmt(h)}")
    return 0


def cmd_retrieve(args) -> int:
    cfg, dataset, gen, _ = _load_eval_inputs(args)
    ratios = cfg.eval.retrieval_ratios
    if args.ratios:
        ratios = tuple(_float_list(args.ratios, "--ratios"))
        dataclasses.replace(cfg.eval, retrieval_ratios=ratios).validate()
    centers = unseen_centers(gen, dataset, cfg.eval.samples_per_center, cfg.train.seed)
    precisions = retrieval_precision(dataset.features, dataset.labels, centers,
                                     ratios=ratios, metric=cfg.eval.metric)
    for ratio in ratios:
        print(f"precision_at_{_fmt(ratio)}={_fmt(precisions[float(ratio)])}")
    return 0


def cmd_synth(args) -> int:
    if args.example_config:
        print(_config_snapshot(ExperimentConfig(synthetic=SyntheticConfig())), end="")
        return 0
    if not args.config or not args.out:
        raise InvalidConfigError("synth requires --config and --out (or --example-config)")
    cfg = load_experiment_config(args.config, seed=args.seed, out_dir=args.out)
    if cfg.synthetic is None:
        raise InvalidConfigError("synth requires a 'synthetic' config section")
    dataset = make_synthetic(cfg.synthetic)
    manifest = Path(args.out)
    if manifest.suffix != ".json":
        manifest = manifest / "dataset.json"
    save_dataset(dataset, manifest)
    print(f"manifest={manifest}")
    print(f"classes={dataset.class_ids.size}")
    print(f"instances={dataset.n_instances}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradient_contract(seed=args.seed or 0)
    for line in report.lines():
        print(line)
    if not report.passed:
        print("gradcheck FAILED")
        return 2
    print("gradcheck OK")
    return 0


def cmd_sweep_lambda(args) -> int:
    cfg = load_experiment_config(args.config, seed=args.seed, out_dir=args.out)
    dataset = cfg.load_data()
    grid = _float_list(args.grid, "--grid")
    best, rows = cross_validate_lambda(dataset, cfg.train, grid)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["lambda,iteration,val_auc"]
    lines += [f"{_fmt(lam)},{it},{_fmt(auc)}" for lam, it, auc in rows]
    _write_files([(out_dir / "sweep.csv", [("\n".join(lines) + "\n").encode()])])
    print(f"best_lambda={_fmt(best)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cizsl",
        description="Creativity-regularized zero-shot feature generation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("train", help="run a training experiment")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="zero-shot and generalized metrics")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("retrieve", help="per-class retrieval precision")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ratios", default=None, help="comma list, default 0.25,0.5,1.0")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("synth", help="write a synthetic benchmark dataset")
    common(p)
    p.add_argument("--example-config", action="store_true",
                   help="print a full-defaults config template and exit")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference contract over all losses")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("sweep-lambda", help="cross-validate the creativity weight")
    common(p)
    p.add_argument("--grid", default="0.01,0.1,1,10")
    p.set_defaults(fn=cmd_sweep_lambda)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("train", "eval", "retrieve", "sweep-lambda") \
                and not args.config:
            raise InvalidConfigError(f"{args.command} requires --config")
        return args.fn(args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CizslError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
