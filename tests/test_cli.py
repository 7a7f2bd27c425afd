import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import cizsl.data
from cizsl.cli import load_experiment_config, main
from cizsl.data import SyntheticConfig, ZslDataset, make_synthetic, save_dataset
from cizsl.evaluate import synthesize_centers, zsl_top1
from cizsl.net import Generator, Layer, MlpNetwork, load_checkpoint, save_checkpoint
from cizsl.numerics import STREAM_EVAL, RngStream
from helpers import fail_halfway_through, write_blob


EXAMPLE_CONFIG = """\
{
 "eval": {
  "metric": "l2",
  "retrieval_ratios": [
   0.25,
   0.5,
   1.0
  ],
  "samples_per_center": 60
 },
 "out_dir": "run",
 "synthetic": {
  "classes_per_super": 4,
  "descriptor_noise": 0.3,
  "feature_dim": 48,
  "feature_noise": 0.05,
  "instances_per_class": 50,
  "n_super": 8,
  "noise_dim": 16,
  "nonlinear": true,
  "seed": 0,
  "split_mode": "hard",
  "text_dim": 32,
  "unseen_fraction": 0.25
 },
 "train": {
  "adam_beta1": 0.5,
  "adam_beta2": 0.9,
  "alpha_mode": "uniform-0.2-0.8",
  "batch_size": 64,
  "beta_init": 0.5,
  "creativity_enabled": true,
  "divergence_mode": "sharma-mittal",
  "eval_interval": 100,
  "extra_class_for_hallucinated": false,
  "gamma_init": 2.0,
  "gp_weight": 10.0,
  "hidden_dim": 128,
  "lambda_creativity": 1.0,
  "learn_beta": true,
  "learn_gamma": true,
  "learning_rate": 0.001,
  "n_critic": 5,
  "n_steps": 3000,
  "noise_dim": 16,
  "seed": 0,
  "text_embed_dim": 64
 }
}
"""


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "synthetic": {"n_super": 3, "classes_per_super": 1, "instances_per_class": 30,
                      "text_dim": 8, "feature_dim": 12, "noise_dim": 4,
                      "descriptor_noise": 0.3, "feature_noise": 0.05,
                      "nonlinear": True, "split_mode": "hard",
                      "unseen_fraction": 0.34, "seed": 3},
        "train": {"n_steps": 10, "batch_size": 8, "seed": 3, "noise_dim": 4,
                  "text_embed_dim": 8, "hidden_dim": 16, "eval_interval": 5},
        "eval": {"samples_per_center": 10},
        "out_dir": str(path.parent / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrainCommand:
    def test_writes_run_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code, out, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        run = tmp_path / "run"
        history = (run / "history.csv").read_text()
        assert len(history.strip().splitlines()) == 1 + 10
        assert (run / "checkpoint_final.czsl").exists()
        assert (run / "checkpoint_000005.czsl").exists()
        assert (run / "checkpoint_000010.czsl").exists()
        assert json.loads((run / "config.json").read_text())["train"]["n_steps"] == 10
        assert "final_loss_g=" in out

    def test_writes_every_file_through_a_temp_name(self, tmp_path, capsys):
        # each file is written as <name>.tmp and moved into place
        cfg = write_config(tmp_path / "cfg.json")
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == 0
        assert sorted(f.name for f in (tmp_path / "run").iterdir()) == [
            "checkpoint_000005.czsl", "checkpoint_000010.czsl", "checkpoint_final.czsl",
            "config.json", "history.csv"]

    def test_malformed_config_exits_1_naming_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"bogus_field": 1},
                                   "synthetic": {"seed": 0}}))
        code, _, err = run_cli(capsys, "train", "--config", str(bad))
        assert code == 1
        assert "bogus_field" in err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "n_steps", "5"),
        ("train", "n_steps", 2.5),
        ("train", "learning_rate", None),
        ("train", "hidden_dim", [4]),
        ("train", "n_critic", True),
        ("train", "learn_gamma", "yes"),
        ("eval", "retrieval_ratios", 0.5),
        ("eval", "retrieval_ratios", [0.5, "1"]),
        ("synthetic", "nonlinear", 1),
    ])
    def test_mistyped_field_exits_1_naming_it(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert f"{section}.{key}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [("out_dir", 3), ("dataset", None)])
    def test_non_string_path_exits_1(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert key in err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "learning_rate", float("nan")),
        ("train", "learning_rate", -1.0),
        ("train", "learning_rate", 0),
        ("train", "adam_beta1", 1.0),
        ("train", "adam_beta2", -0.1),
        ("train", "adam_beta2", float("nan")),
        ("train", "lambda_creativity", float("inf")),
        ("train", "beta_init", float("nan")),
        ("train", "gamma_init", float("-inf")),
        ("train", "gp_weight", float("nan")),
        ("synthetic", "feature_noise", float("nan")),
        ("eval", "retrieval_ratios", [0.5, float("inf")]),
    ])
    def test_non_finite_or_out_of_range_setting_exits_1(self, tmp_path, capsys,
                                                        section, key, value):
        # json writes these as NaN / Infinity, which json readers accept
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert key in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode,learn,name", [
        ("kl", {"learn_beta": False}, "gamma"),
        ("bhattacharyya", {"learn_gamma": False}, "beta"),
        ("renyi", {}, "beta"),
        ("tsallis", {}, "beta"),
    ], ids=["kl", "bhattacharyya", "renyi", "tsallis"])
    def test_learning_a_pinned_parameter_exits_1(self, tmp_path, capsys, mode, learn, name):
        cfg = write_config(tmp_path / "cfg.json",
                           train={"divergence_mode": mode, "learn_gamma": True,
                                  "learn_beta": True, **learn})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert f"mode {mode!r} pins {name}; it cannot be learnable" in err
        assert not (tmp_path / "run").exists()

    def test_int_accepted_for_float_and_list_for_tuple(self, tmp_path):
        cfg = load_experiment_config(write_config(
            tmp_path / "cfg.json", train={"learning_rate": 1},
            eval={"retrieval_ratios": [1, 0.5]}))
        assert type(cfg.train.learning_rate) is float
        assert cfg.eval.retrieval_ratios == (1.0, 0.5)

    def test_not_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(capsys, "train", "--config", str(bad))
        assert code == 1

    def test_both_dataset_and_synthetic_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset="something.json")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert "exactly one" in err

    def test_determinism_byte_identical_history(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "a"))
        run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "history.csv").read_bytes() == \
            (tmp_path / "b" / "history.csv").read_bytes()
        assert (tmp_path / "a" / "checkpoint_final.czsl").read_bytes() == \
            (tmp_path / "b" / "checkpoint_final.czsl").read_bytes()

    def test_diverging_run_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           train={"learning_rate": 1e200, "n_steps": 30})
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert "diverged at iteration" in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    # a toy the generator genuinely learns: zero feature noise, easy split
    tmp = tmp_path_factory.mktemp("evalrun")
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps({
        "synthetic": {"n_super": 3, "classes_per_super": 2,
                      "instances_per_class": 20, "text_dim": 8,
                      "feature_dim": 10, "noise_dim": 4,
                      "descriptor_noise": 1.0, "feature_noise": 0.0,
                      "nonlinear": True, "split_mode": "easy",
                      "unseen_fraction": 0.5, "seed": 2},
        "train": {"n_steps": 400, "batch_size": 16, "seed": 0, "noise_dim": 4,
                  "text_embed_dim": 8, "hidden_dim": 32, "eval_interval": 200},
        "eval": {"samples_per_center": 60},
        "out_dir": str(tmp / "run"),
    }))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, tmp / "run" / "checkpoint_final.czsl", tmp


class TestEvalCommands:

    def test_eval_prints_metrics_and_writes_curve(self, trained_run, capsys):
        cfg_path, ckpt, tmp = trained_run
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg_path),
                               "--checkpoint", str(ckpt),
                               "--out", str(tmp / "eval"))
        assert code == 0
        metrics = dict(line.split("=") for line in out.strip().splitlines())
        # degenerate zero-noise toy: the trained generator places every
        # synthesized center in the right cell
        assert float(metrics["top1"]) == 1.0
        assert 0.0 <= float(metrics["su_auc"]) <= 1.0
        assert 0.0 <= float(metrics["harmonic_mean"]) <= 1.0
        curve = (tmp / "eval" / "curve.csv").read_text()
        assert curve.splitlines()[0] == "calibration,acc_seen,acc_unseen"
        svg = (tmp / "eval" / "curve.svg").read_text()
        assert svg.startswith("<svg")

    def test_failed_curve_write_leaves_the_older_curve(self, trained_run, capsys,
                                                       tmp_path, monkeypatch):
        cfg_path, ckpt, _ = trained_run
        out = tmp_path / "eval"
        out.mkdir()
        for name in ("curve.csv", "curve.svg"):
            (out / name).write_text("older\n")
        monkeypatch.setattr(cizsl.data, "open", fail_halfway_through("curve.csv.tmp"),
                            raising=False)
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                               "--checkpoint", str(ckpt), "--out", str(out))
        monkeypatch.undo()
        assert code == 1
        assert "No space left" in err
        # neither curve file was replaced and no temp file is left
        assert {f.name: f.read_text() for f in out.iterdir()} == {
            "curve.csv": "older\n", "curve.svg": "older\n"}

    def test_missing_checkpoint_exits_1(self, trained_run, capsys):
        cfg_path, _, tmp = trained_run
        capsys.readouterr()
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                               "--checkpoint", str(tmp / "nope.czsl"))
        assert code == 1

    def test_top1_equals_zsl_top1_on_unseen_rows(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json")
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "checkpoint_final.czsl"
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg_path),
                               "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"))
        assert code == 0
        metrics = dict(line.split("=") for line in out.strip().splitlines())

        cfg = load_experiment_config(cfg_path)
        ds = cfg.load_data()
        gen, _ = load_checkpoint(ckpt)
        centers = synthesize_centers(gen, ds.unseen_class_ids, ds.descriptors[~ds.seen_mask],
                                     cfg.eval.samples_per_center,
                                     RngStream(cfg.train.seed, STREAM_EVAL))
        rows = np.isin(ds.labels, ds.unseen_class_ids)
        top1 = zsl_top1(ds.features[rows], ds.labels[rows], centers)
        assert metrics["top1"] == f"{top1:.6g}"

    @pytest.mark.parametrize("points", [1, 2, 201])
    def test_too_few_calibration_points_exits_1(self, tmp_path, capsys, points):
        # the curve is exact, so any grid size is now an unknown field
        cfg = write_config(tmp_path / "cfg.json", eval={"calibration_points": points})
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg),
                               "--checkpoint", str(tmp_path / "unused.czsl"))
        assert code == 1
        assert "eval.'calibration_points'" in err

    def test_dim_mismatch_exits_1(self, trained_run, capsys, tmp_path):
        cfg_path, ckpt, _ = trained_run
        other = write_config(tmp_path / "other.json",
                             synthetic={"text_dim": 9, "feature_dim": 7})
        capsys.readouterr()
        code, _, err = run_cli(capsys, "eval", "--config", str(other),
                               "--checkpoint", str(ckpt))
        assert code == 1
        assert "match" in err

    def test_sigmoid_tag_checkpoint_exits_1(self, trained_run, capsys, tmp_path):
        # activation tag 3 (a sigmoid layer) is no longer supported
        cfg_path, ckpt, _ = trained_run
        raw = bytearray(ckpt.read_bytes())
        raw[26] = 3  # the embed layer's tag, after the file and layer headers
        bad = tmp_path / "sigmoid.czsl"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                               "--checkpoint", str(bad))
        assert code == 1
        assert "activation tag 3" in err


class TestRetrieveCommand:
    def make_exact_setup(self, tmp_path):
        """Dataset with zero noise and a checkpoint whose generator computes
        the true descriptor-to-feature map exactly, so synthesized centers
        are the exact class points."""
        rng = np.random.default_rng(5)
        t_dim, x_dim, k = 6, 8, 6
        desc = rng.normal(size=(k, t_dim))
        mapping = rng.normal(size=(x_dim, t_dim))
        clean = np.maximum(desc @ mapping.T, 0.0)
        n = 15
        features = np.repeat(clean, n, axis=0)
        class_ids = np.arange(1, k + 1)
        ds = ZslDataset(
            features=features,
            labels=np.repeat(class_ids, n),
            class_ids=class_ids.astype(np.int64),
            class_names=[f"c{i}" for i in class_ids],
            descriptors=desc,
            super_ids=np.arange(k, dtype=np.int64),
            seen_mask=np.array([True, True, True, True, False, False]),
        ).validate()
        save_dataset(ds, tmp_path / "toy.json")
        noise_dim = 3
        gen = Generator(
            embed=MlpNetwork([Layer(np.eye(t_dim), np.zeros(t_dim), "identity")]),
            trunk=MlpNetwork([Layer(
                np.hstack([mapping, np.zeros((x_dim, noise_dim))]),
                np.zeros(x_dim), "relu")]),
            noise_dim=noise_dim)
        from cizsl.net import build_discriminator
        from cizsl.numerics import RngStream
        disc = build_discriminator(RngStream(0, 0), input_dim=x_dim, n_classes=4)
        save_checkpoint(tmp_path / "exact.czsl", gen, disc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": str(tmp_path / "toy.json"),
            "train": {"noise_dim": noise_dim, "seed": 0},
            "eval": {"samples_per_center": 60},
            "out_dir": str(tmp_path / "out"),
        }))
        return cfg, tmp_path / "exact.czsl"

    def test_exact_map_checkpoint_retrieves_perfectly(self, tmp_path, capsys):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        code, out, _ = run_cli(capsys, "retrieve", "--config", str(cfg),
                               "--checkpoint", str(ckpt))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["precision_at_0.25=1", "precision_at_0.5=1",
                         "precision_at_1=1"]

    def test_ratio_flag_order_respected(self, tmp_path, capsys):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        code, out, _ = run_cli(capsys, "retrieve", "--config", str(cfg),
                               "--checkpoint", str(ckpt), "--ratios", "1.0,0.5")
        assert code == 0
        assert [l.split("=")[0] for l in out.strip().splitlines()] == \
            ["precision_at_1", "precision_at_0.5"]

    @pytest.mark.parametrize("ratios", ["-0.5", "0", "0.5,-1"])
    def test_nonpositive_ratio_exits_1(self, tmp_path, capsys, ratios):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        code, out, err = run_cli(capsys, "retrieve", "--config", str(cfg),
                                 "--checkpoint", str(ckpt), f"--ratios={ratios}")
        assert code == 1
        assert "eval.retrieval_ratios" in err
        assert "precision_at" not in out

    @pytest.mark.parametrize("ratios", ["abc", "0.5,x", "nan"])
    def test_unparseable_ratios_exit_1(self, tmp_path, capsys, ratios):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        code, _, err = run_cli(capsys, "retrieve", "--config", str(cfg),
                               "--checkpoint", str(ckpt), "--ratios", ratios)
        assert code == 1
        assert "--ratios" in err

    def test_nonpositive_config_ratio_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           eval={"retrieval_ratios": [0.5, 0.0]})
        code, _, err = run_cli(capsys, "retrieve", "--config", str(cfg),
                               "--checkpoint", str(tmp_path / "missing.czsl"))
        assert code == 1
        assert "eval.retrieval_ratios" in err

    def test_mistyped_manifest_field_exits_1(self, tmp_path, capsys):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        manifest = json.loads((tmp_path / "toy.json").read_text())
        manifest["classes"][2]["seen"] = "no"
        (tmp_path / "toy.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "eval", "--config", str(cfg),
                                 "--checkpoint", str(ckpt))
        assert code == 1
        assert out == ""
        assert err == "error: class entry 2 field 'seen' must be a boolean, got 'no'\n"

    def test_entry_naming_another_blob_exits_1(self, tmp_path, capsys):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        write_blob(tmp_path / "wide.czfd", np.ones((1, 7)), "<f8")
        manifest = json.loads((tmp_path / "toy.json").read_text())
        manifest["classes"][4].update(descriptor_blob="wide.czfd", descriptor_row=0)
        (tmp_path / "toy.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "retrieve", "--config", str(cfg),
                                 "--checkpoint", str(ckpt))
        assert code == 1
        assert out == ""
        assert err == ("error: class entry 4 names row 0 of descriptor blob wide.czfd: "
                       "entry i must name row i of the one blob toy_descriptors.czfd\n")

    def test_empty_unseen_set_exits_1(self, tmp_path, capsys):
        cfg, ckpt = self.make_exact_setup(tmp_path)
        # rewrite the dataset with every class seen
        from cizsl.data import load_dataset
        ds = load_dataset(tmp_path / "toy.json")
        ds = dataclasses.replace(ds, seen_mask=np.ones_like(ds.seen_mask))
        save_dataset(ds, tmp_path / "toy.json")
        capsys.readouterr()
        code, _, err = run_cli(capsys, "retrieve", "--config", str(cfg),
                               "--checkpoint", str(ckpt))
        assert code == 1
        assert "unseen" in err


class TestSynthCommand:
    def test_example_config_is_loadable_template(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "synth", "--example-config")
        assert code == 0
        template = json.loads(out)
        assert {"synthetic", "train", "eval", "out_dir"} <= set(template)
        # the emitted template round-trips through the loader
        path = tmp_path / "template.json"
        path.write_text(out)
        from cizsl.cli import load_experiment_config
        cfg = load_experiment_config(path)
        assert cfg.synthetic is not None

    def test_example_config_text(self, capsys):
        # the template's exact bytes: one-space indent, sorted keys, a
        # trailing newline (the same text as the `config.json` snapshot)
        code, out, _ = run_cli(capsys, "synth", "--example-config")
        assert code == 0
        assert out == EXAMPLE_CONFIG

    def test_writes_loadable_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        code, out, _ = run_cli(capsys, "synth", "--config", str(cfg),
                               "--out", str(tmp_path / "ds"))
        assert code == 0
        from cizsl.data import load_dataset
        ds = load_dataset(tmp_path / "ds" / "dataset.json")
        assert ds.n_instances == 90
        # hard-mode super-category disjointness
        seen_supers = set(ds.super_ids[ds.seen_mask].tolist())
        unseen_supers = set(ds.super_ids[~ds.seen_mask].tolist())
        assert seen_supers.isdisjoint(unseen_supers)

    def test_writes_the_manifest_and_three_blobs_only(self, tmp_path, capsys):
        # each file is written as <name>.tmp and moved into place
        cfg = write_config(tmp_path / "cfg.json")
        code, _, _ = run_cli(capsys, "synth", "--config", str(cfg),
                             "--out", str(tmp_path / "ds"))
        assert code == 0
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == [
            "dataset.json", "dataset_descriptors.czfd", "dataset_features.czfd",
            "dataset_labels.czfd"]

    def test_fixed_seed_reproduces_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "d1"))
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "d2"))
        for name in ("dataset.json", "dataset_features.czfd"):
            assert (tmp_path / "d1" / name).read_bytes() == \
                (tmp_path / "d2" / name).read_bytes()

    def test_requires_synthetic_section(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dataset": "x.json"}))
        code, _, err = run_cli(capsys, "synth", "--config", str(p),
                               "--out", str(tmp_path / "o"))
        assert code == 1


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "gradcheck OK" in out
        # report lists per-loss max relative error
        assert re.search(r"gradcheck discriminator_loss: max_rel_err=\S+ tol=0.001 PASS", out)
        assert out.count("PASS") >= 8

    def test_corrupted_gradient_exits_2(self, capsys, monkeypatch):
        # a wrong second-order sweep must surface through the penalty checks
        original = MlpNetwork.grad_of_input_grad
        monkeypatch.setattr(MlpNetwork, "grad_of_input_grad",
                            lambda self, *a: 1.5 * original(self, *a))
        code, out, _ = run_cli(capsys, "gradcheck", "--seed", "0")
        assert code == 2
        assert re.search(r"gradcheck lipschitz_penalty: .* FAIL", out)
        assert "gradcheck FAILED" in out


class TestSweepLambdaCommand:
    def test_writes_table_and_prints_best(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           synthetic={"n_super": 5, "classes_per_super": 2,
                                      "instances_per_class": 10,
                                      "unseen_fraction": 0.2, "seed": 4},
                           train={"n_steps": 10, "eval_interval": 5})
        code, out, _ = run_cli(capsys, "sweep-lambda", "--config", str(cfg),
                               "--grid", "0.0,0.5")
        assert code == 0
        match = re.search(r"best_lambda=(\S+)", out)
        assert match and float(match.group(1)) in (0.0, 0.5)
        table = (tmp_path / "run" / "sweep.csv").read_text().strip().splitlines()
        assert table[0] == "lambda,iteration,val_auc"
        assert len(table) == 1 + 2 * 2  # grid size x checkpoints

    def test_fewer_steps_than_eval_interval_exits_1(self, tmp_path, capsys):
        # no checkpoint would be scored, so no lambda could win
        cfg = write_config(tmp_path / "cfg.json",
                           synthetic={"n_super": 5, "classes_per_super": 2,
                                      "instances_per_class": 10,
                                      "unseen_fraction": 0.2, "seed": 4},
                           train={"n_steps": 3, "eval_interval": 5})
        code, _, err = run_cli(capsys, "sweep-lambda", "--config", str(cfg),
                               "--grid", "0.0,0.5")
        assert code == 1
        assert "train.n_steps" in err and "train.eval_interval" in err

    def test_diverging_grid_model_exits_2_naming_its_lambda(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           synthetic={"n_super": 5, "classes_per_super": 2,
                                      "instances_per_class": 10,
                                      "unseen_fraction": 0.2, "seed": 4},
                           train={"n_steps": 10, "eval_interval": 5})
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, "sweep-lambda", "--config", str(cfg),
                                   "--grid", "0.5,1e308")
        assert code == 2
        assert "diverged at iteration" in err and "lambda_creativity 1e+308" in err

    @pytest.mark.parametrize("threads", ["two", "0", "-1", "1.5"])
    def test_bad_thread_count_exits_1(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("CIZSL_THREADS", threads)
        cfg = write_config(tmp_path / "cfg.json")
        code, _, err = run_cli(capsys, "sweep-lambda", "--config", str(cfg),
                               "--grid", "0.0,0.5")
        assert code == 1
        assert "CIZSL_THREADS" in err

    @pytest.mark.parametrize("grid", ["abc", "0.1,x", "nan", "1,inf"])
    def test_unparseable_grid_exits_1(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path / "cfg.json")
        code, _, err = run_cli(capsys, "sweep-lambda", "--config", str(cfg),
                               "--grid", grid)
        assert code == 1
        assert "--grid" in err
