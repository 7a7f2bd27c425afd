"""SHA-256 digest of every output of a fixed command set, for checking that a
refactor leaves the program's outputs byte-identical.

    python tools/digest.py SEED > digest.txt

Runs `python -m cizsl.cli` from this checkout's `src/` in a temporary
directory: `synth` on the base config and on an easy-split, linear variant
(the manifest and the three blobs), `train` with the default config, with
`creativity_enabled: false`, with the extra-class ablation under the renyi
divergence, under kl (nothing learned) and under tsallis (gamma learned,
beta tied to it), `train` once more from the default run's written
`config.json` (`train-from-snapshot`), then `sweep-lambda`, `eval` and
`retrieve` on the default run's final checkpoint, `eval` and `retrieve`
once more on it with `"eval": {"metric": "cosine"}` (the cosine distances,
curve and ranking), `train`, `eval` and `retrieve` on the base synth's
manifest (the path that reads a dataset from disk), and `gradcheck --seed 0`.
SEED overrides the config seeds of every command but gradcheck and
`train-from-snapshot`, which reads its seed from the snapshot. The tool
exits with an error unless every `train-from-snapshot` hash equals the
matching `train-default` hash: the snapshot must read back as the config
that wrote it. The
manifest config names its dataset by a path relative to the temporary
directory, so its `config.json` snapshot hashes the same from any
directory. Prints one `sha256  artifact` line per output file and per
command's stdout, sorted by artifact. Each command writes to its own output
directory, whose path is replaced by `OUT` before hashing, so neither the
temporary directory nor the output directory changes a hash. Compare two
checkouts with `diff` of their outputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BASE_CONFIG = {
    "synthetic": {"n_super": 8, "classes_per_super": 4, "instances_per_class": 40,
                  "text_dim": 32, "feature_dim": 48, "split_mode": "hard"},
    "train": {"n_steps": 200, "eval_interval": 50},
    "eval": {"samples_per_center": 60},
}

SYNTH_VARIANTS = {
    "synth-base": {},
    "synth-easy-linear": {"split_mode": "easy", "nonlinear": False},
}

TRAIN_VARIANTS = {
    "train-default": {},
    "train-no-creativity": {"creativity_enabled": False},
    "train-extra-renyi": {"extra_class_for_hallucinated": True,
                          "divergence_mode": "renyi", "learn_beta": False},
    "train-kl": {"divergence_mode": "kl", "learn_gamma": False, "learn_beta": False},
    "train-tsallis": {"divergence_mode": "tsallis", "learn_beta": False},
}


def _run(work: Path, label: str, args: list[str], lines: dict) -> None:
    """Run one command with output directory `work/label` and record the
    hashes of its stdout and of every file it wrote there."""
    out = work / label
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CIZSL_THREADS", None)
    cmd = [sys.executable, "-m", "cizsl.cli", *args]
    if args[0] != "gradcheck":
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")

    def record(name: str, data: bytes) -> None:
        data = data.replace(str(out).encode(), b"OUT")
        lines[f"{label}/{name}"] = hashlib.sha256(data).hexdigest()

    record("stdout", proc.stdout)
    if out.is_dir():
        for f in sorted(out.rglob("*")):
            if f.is_file():
                record(f.relative_to(out).as_posix(), f.read_bytes())


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        sys.exit("usage: python tools/digest.py SEED")
    seed = argv[0]
    lines: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="cizsl-digest-") as tmp:
        work = Path(tmp)
        for label, synthetic in SYNTH_VARIANTS.items():
            cfg = work / f"{label}.json"
            cfg.write_text(json.dumps({
                "synthetic": {**BASE_CONFIG["synthetic"], **synthetic}}))
            _run(work, label, ["synth", "--config", str(cfg), "--seed", seed], lines)
        for label, train in TRAIN_VARIANTS.items():
            cfg = work / f"{label}.json"
            cfg.write_text(json.dumps({**BASE_CONFIG,
                                       "train": {**BASE_CONFIG["train"], **train}}))
            _run(work, label, ["train", "--config", str(cfg), "--seed", seed], lines)
        # the default run once more from its own config.json, with no --seed:
        # the snapshot must read back as the config that wrote it
        _run(work, "train-from-snapshot",
             ["train", "--config", str(work / "train-default" / "config.json")], lines)
        runs = [{key.partition("/")[2]: value for key, value in lines.items()
                 if key.startswith(f"{label}/")}
                for label in ("train-default", "train-from-snapshot")]
        if runs[0] != runs[1]:
            sys.exit("train from the default run's config.json gave other outputs")
        common = ["--config", str(work / "train-default.json"), "--seed", seed]
        checkpoint = str(work / "train-default" / "checkpoint_final.czsl")
        _run(work, "sweep-lambda", ["sweep-lambda", *common], lines)
        _run(work, "eval", ["eval", *common, "--checkpoint", checkpoint], lines)
        _run(work, "retrieve", ["retrieve", *common, "--checkpoint", checkpoint], lines)
        cfg = work / "cosine.json"
        cfg.write_text(json.dumps({**BASE_CONFIG,
                                   "eval": {**BASE_CONFIG["eval"], "metric": "cosine"}}))
        common = ["--config", str(cfg), "--seed", seed]
        _run(work, "eval-cosine", ["eval", *common, "--checkpoint", checkpoint], lines)
        _run(work, "retrieve-cosine", ["retrieve", *common, "--checkpoint", checkpoint],
             lines)
        cfg = work / "manifest.json"
        cfg.write_text(json.dumps({"dataset": "synth-base/dataset.json",
                                   "train": BASE_CONFIG["train"],
                                   "eval": BASE_CONFIG["eval"]}))
        common = ["--config", str(cfg), "--seed", seed]
        checkpoint = str(work / "manifest-train" / "checkpoint_final.czsl")
        _run(work, "manifest-train", ["train", *common], lines)
        _run(work, "manifest-eval", ["eval", *common, "--checkpoint", checkpoint], lines)
        _run(work, "manifest-retrieve", ["retrieve", *common, "--checkpoint", checkpoint],
             lines)
        _run(work, "gradcheck", ["gradcheck", "--seed", "0"], lines)
    for artifact in sorted(lines):
        print(f"{lines[artifact]}  {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
