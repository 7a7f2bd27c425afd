import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cizsl.data import SyntheticConfig, make_synthetic
from cizsl.errors import (InvalidConfigError, InvalidSplitError, InvalidStateError,
                          TrainingDivergedError)
from cizsl.net import Generator, MlpNetwork, save_checkpoint
from cizsl.train import (TrainConfig, cross_validate_lambda, select_best_lambda,
                         train, train_lockstep, validation_auc)

# the module, which the package's `train` function shadows as an attribute
cizsl_train = importlib.import_module("cizsl.train")


def tiny_dataset(seed=3, **kw):
    base = dict(n_super=3, classes_per_super=1, instances_per_class=30,
                text_dim=8, feature_dim=12, noise_dim=4, split_mode="hard",
                unseen_fraction=0.34, seed=seed)
    base.update(kw)
    return make_synthetic(SyntheticConfig(**base))


def tiny_config(**kw):
    base = dict(n_steps=20, batch_size=8, seed=0, noise_dim=4,
                text_embed_dim=8, hidden_dim=16, eval_interval=10)
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("kw", [
        {"lambda_creativity": -1.0},
        {"n_critic": 0},
        {"batch_size": 1},
        {"alpha_mode": "bogus"},
        {"gp_weight": -2.0},
        {"eval_interval": 0},
        {"divergence_mode": "nope"},
        {"divergence_mode": "kl", "learn_gamma": True, "learn_beta": True},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(InvalidConfigError):
            tiny_config(**kw).validate()

    def test_divergence_pinning(self):
        assert tiny_config(divergence_mode="kl", learn_gamma=False,
                           learn_beta=False).divergence().gamma == 1.0
        p = tiny_config(divergence_mode="tsallis", gamma_init=1.7,
                        learn_beta=False).divergence()
        assert p.beta == p.gamma == 1.7
        p = tiny_config(divergence_mode="bhattacharyya", learn_gamma=False,
                        learn_beta=False).divergence()
        assert (p.gamma, p.beta) == (0.5, 1.0)


class TestTrain:
    def test_zero_steps_returns_initialized_networks(self):
        ds = tiny_dataset()
        cfg = tiny_config(n_steps=0)
        model = train(ds, cfg)
        assert model.history.iteration.size == 0
        # a second zero-step run from the same seed is the same init
        model2 = train(ds, cfg)
        np.testing.assert_array_equal(model.generator.param_vector(),
                                      model2.generator.param_vector())

    def test_determinism_bit_identical(self):
        ds = tiny_dataset()
        cfg = tiny_config(n_steps=30)
        m1 = train(ds, cfg)
        m2 = train(ds, cfg)
        np.testing.assert_array_equal(m1.generator.param_vector(),
                                      m2.generator.param_vector())
        np.testing.assert_array_equal(m1.discriminator.param_vector(),
                                      m2.discriminator.param_vector())
        assert m1.history.to_csv() == m2.history.to_csv()
        assert m1.divergence.gamma == m2.divergence.gamma

    def test_history_shape_and_columns(self):
        ds = tiny_dataset()
        model = train(ds, tiny_config(n_steps=12))
        h = model.history
        assert h.iteration.size == 12
        assert h.iteration[0] == 1 and h.iteration[-1] == 12
        csv = h.to_csv()
        assert csv.splitlines()[0] == "iteration,loss_g,loss_d,mean_entropy,gamma,beta"
        assert len(csv.splitlines()) == 13

    def test_divergence_parameters_learn(self):
        ds = tiny_dataset()
        model = train(ds, tiny_config(n_steps=30, lambda_creativity=1.0))
        assert model.divergence.gamma != pytest.approx(2.0)
        assert model.divergence.beta != pytest.approx(0.5)

    def test_divergence_parameters_fixed_without_learnables(self):
        ds = tiny_dataset()
        model = train(ds, tiny_config(n_steps=10, divergence_mode="kl",
                                      learn_gamma=False, learn_beta=False))
        assert model.divergence.gamma == 1.0 and model.divergence.beta == 1.0

    def test_tsallis_keeps_beta_tied(self):
        ds = tiny_dataset()
        model = train(ds, tiny_config(n_steps=20, divergence_mode="tsallis",
                                      gamma_init=1.6, learn_beta=False))
        assert model.divergence.beta == model.divergence.gamma

    def test_snapshot_hook_cadence(self):
        ds = tiny_dataset()
        seen = []
        train(ds, tiny_config(n_steps=25, eval_interval=10),
              snapshot_fn=lambda it, g, d, p: seen.append(it))
        assert seen == [10, 20]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_to_nonfinite_reported_with_iteration(self):
        # an absurd learning rate overflows the squared penalty immediately
        ds = tiny_dataset()
        with pytest.raises(TrainingDivergedError) as exc:
            train(ds, tiny_config(n_steps=50, learning_rate=1e200))
        assert exc.value.iteration >= 1

    def test_extra_class_ablation_trains(self):
        ds = tiny_dataset()
        model = train(ds, tiny_config(n_steps=5, extra_class_for_hallucinated=True))
        assert model.discriminator.n_classes == ds.seen_class_ids.size + 1

    @pytest.mark.parametrize("extra", [False, True])
    def test_network_passes_per_iteration(self, monkeypatch, extra):
        # per iteration: one generator pass for all n_critic fake batches
        # (and the extra-class rows), one in the generator loss; one critic
        # forward per critic loss, the penalty's included
        built, critic_fwd, gen_fwd, per_loss = [], [0], [0], []
        build = cizsl_train.build_discriminator
        monkeypatch.setattr(cizsl_train, "build_discriminator",
                            lambda *a: built.append(build(*a)) or built[-1])
        net_forward = MlpNetwork.forward_cached

        def counted_net_forward(self, x):
            # the loop forwards the stack whose one member is the built critic
            critic_fwd[0] += built[0].net in (self.members or ())
            return net_forward(self, x)

        gen_forward = Generator.forward_cached

        def counted_gen_forward(self, t, z):
            gen_fwd[0] += 1
            return gen_forward(self, t, z)

        loss = cizsl_train.discriminator_loss

        def counted_loss(*args, **kwargs):
            before = critic_fwd[0]
            result = loss(*args, **kwargs)
            per_loss.append(critic_fwd[0] - before)
            return result

        monkeypatch.setattr(MlpNetwork, "forward_cached", counted_net_forward)
        monkeypatch.setattr(Generator, "forward_cached", counted_gen_forward)
        monkeypatch.setattr(cizsl_train, "discriminator_loss", counted_loss)
        train(tiny_dataset(), tiny_config(n_steps=3, n_critic=5,
                                          extra_class_for_hallucinated=extra))
        assert per_loss == [1] * 15
        assert gen_fwd[0] == 2 * 3

    def test_critic_steps_invalidate_earlier_caches(self, monkeypatch):
        # Adam updates the critic in place; a cache from before must go stale
        caches = []
        loss = cizsl_train.discriminator_loss

        def checked_loss(disc, x_real, *args, **kwargs):
            if caches:
                with pytest.raises(InvalidStateError, match="stale"):
                    disc.net.backward(caches[-1], np.zeros(x_real.shape[:-1]
                                                           + (disc.net.out_dim,)))
            caches.append(disc.net.forward_cached(x_real)[1])
            return loss(disc, x_real, *args, **kwargs)

        monkeypatch.setattr(cizsl_train, "discriminator_loss", checked_loss)
        train(tiny_dataset(), tiny_config(n_steps=2, n_critic=3))
        assert len(caches) == 6

    def test_wasserstein_gap_decreases_from_step_10(self):
        # pinned-seed regression on the 2-seen-class benchmark
        ds = tiny_dataset(seed=3)
        cfg = TrainConfig(n_steps=500, batch_size=16, seed=3, noise_dim=4,
                          learning_rate=0.003, text_embed_dim=8, hidden_dim=24)
        h = train(ds, cfg).history
        assert h.w_gap[499] < h.w_gap[9]


def checkpoint_writer(run_dir: Path):
    """A snapshot function saving each snapshot as cmd_train does."""
    run_dir.mkdir(parents=True, exist_ok=True)

    def snap(it, gen, disc, div):
        save_checkpoint(run_dir / f"checkpoint_{it:06d}.czsl", gen, disc)
    return snap


class TestLockstep:
    @pytest.mark.parametrize("extra", [False, True])
    def test_grid_models_are_byte_identical_to_solo_runs(self, tmp_path, extra):
        # lambda = 0 takes the creativity term's early return inside a grid
        # whose other models run the full term
        ds = tiny_dataset()
        configs = [tiny_config(n_steps=12, eval_interval=6, lambda_creativity=lam,
                               seed=seed, extra_class_for_hallucinated=extra)
                   for lam, seed in ((0.0, 11), (0.5, 12), (4.0, 13))]
        grid = train_lockstep(ds, configs, [checkpoint_writer(tmp_path / f"grid{b}")
                                            for b in range(3)])
        for b, cfg in enumerate(configs):
            solo = train(ds, cfg, checkpoint_writer(tmp_path / f"solo{b}"))
            assert grid[b].history.to_csv() == solo.history.to_csv()
            assert grid[b].divergence == solo.divergence
            for run, model in (("grid", grid[b]), ("solo", solo)):
                save_checkpoint(tmp_path / f"{run}{b}" / "checkpoint_final.czsl",
                                model.generator, model.discriminator)
            names = sorted(p.name for p in (tmp_path / f"solo{b}").iterdir())
            assert names == ["checkpoint_000006.czsl", "checkpoint_000012.czsl",
                             "checkpoint_final.czsl"]
            for name in names:
                assert (tmp_path / f"grid{b}" / name).read_bytes() == \
                    (tmp_path / f"solo{b}" / name).read_bytes()

    def test_models_are_views_of_the_stack(self):
        ds = tiny_dataset()
        models = train_lockstep(ds, [tiny_config(n_steps=2, seed=s) for s in (1, 2)])
        gens = [m.generator for m in models]
        assert all(g.params.shape == (gens[0].n_params,) for g in gens)
        # rows of one (2, n) buffer
        assert gens[0].params.base is gens[1].params.base
        assert gens[0].params.base.shape == (2, gens[0].n_params)
        assert gens[0].forward(np.zeros((3, ds.text_dim)), np.zeros((3, 4))).shape \
            == (3, ds.feature_dim)

    @pytest.mark.parametrize("kw", [{"batch_size": 6}, {"gamma_init": 1.5},
                                    {"extra_class_for_hallucinated": True}])
    def test_configs_may_differ_only_in_lambda_and_seed(self, kw):
        with pytest.raises(InvalidConfigError, match="lambda_creativity and train.seed"):
            train_lockstep(tiny_dataset(), [tiny_config(), tiny_config(seed=4, **kw)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_model_is_named_by_its_lambda(self):
        # 1e308 overflows the creativity gradient; the other model is sound
        ds = tiny_dataset()
        with pytest.raises(TrainingDivergedError,
                           match=r"iteration 1 \(lambda_creativity 1e\+308\)") as exc:
            train_lockstep(ds, [tiny_config(lambda_creativity=0.5),
                                tiny_config(lambda_creativity=1e308, seed=7)])
        assert exc.value.iteration == 1


class TestCrossValidation:
    def dataset(self):
        return make_synthetic(SyntheticConfig(
            n_super=5, classes_per_super=2, instances_per_class=10,
            text_dim=8, feature_dim=10, noise_dim=4, split_mode="hard",
            unseen_fraction=0.2, seed=4))

    def test_single_value_grid_returns_it(self):
        best, rows = cross_validate_lambda(self.dataset(),
                                           tiny_config(n_steps=10), [0.25])
        assert best == 0.25
        assert len(rows) == 1  # one checkpoint at eval_interval=10

    def test_row_count_is_grid_times_checkpoints(self):
        best, rows = cross_validate_lambda(self.dataset(),
                                           tiny_config(n_steps=20, eval_interval=10),
                                           [0.0, 1.0])
        assert len(rows) == 2 * 2
        assert {r[0] for r in rows} == {0.0, 1.0}

    def test_tie_breaks_to_smaller_lambda(self):
        assert select_best_lambda([0.0, 0.0], [0.5, 0.5]) == 0.0
        assert select_best_lambda([1.0, 0.1], [0.7, 0.7]) == 0.1
        assert select_best_lambda([1.0, 0.1], [0.7, 0.6]) == 1.0

    def test_no_scored_checkpoint_picks_smallest(self):
        inf = float("inf")
        assert select_best_lambda([1.0, 0.1, 0.5], [-inf, -inf, -inf]) == 0.1
        assert select_best_lambda([1.0, 0.1], [-inf, 0.2]) == 0.1

    def test_fewer_steps_than_eval_interval_rejected(self):
        with pytest.raises(InvalidConfigError, match="n_steps.*eval_interval"):
            cross_validate_lambda(self.dataset(), tiny_config(n_steps=5), [0.1, 1.0])

    def test_too_few_validation_classes_rejected(self):
        ds = make_synthetic(SyntheticConfig(
            n_super=4, classes_per_super=1, instances_per_class=5,
            text_dim=4, feature_dim=6, noise_dim=2, split_mode="hard",
            unseen_fraction=0.25, seed=0))
        # 3 seen classes -> 80/20 split leaves a single validation class
        with pytest.raises(InvalidSplitError):
            cross_validate_lambda(ds, tiny_config(n_steps=10), [0.1])

    def test_empty_grid_rejected(self):
        from cizsl.errors import InvalidInputError
        with pytest.raises(InvalidInputError):
            cross_validate_lambda(self.dataset(), tiny_config(), [])

    def test_parallel_workers_match_sequential(self):
        ds = self.dataset()
        cfg = tiny_config(n_steps=10)
        best_seq, rows_seq = cross_validate_lambda(ds, cfg, [0.0, 0.5])
        os.environ["CIZSL_THREADS"] = "2"
        try:
            best_par, rows_par = cross_validate_lambda(ds, cfg, [0.0, 0.5])
        finally:
            del os.environ["CIZSL_THREADS"]
        assert best_seq == best_par
        assert rows_seq == rows_par

    def test_uneven_worker_chunks_match_one_stack(self, monkeypatch):
        # three grid points over two workers: lockstep chunks of two and one
        ds = self.dataset()
        cfg = tiny_config(n_steps=10)
        one = cross_validate_lambda(ds, cfg, [0.0, 0.5, 2.0])
        monkeypatch.setenv("CIZSL_THREADS", "2")
        assert cross_validate_lambda(ds, cfg, [0.0, 0.5, 2.0]) == one

    def test_cli_import_leaves_out_the_process_pool(self):
        # only a parallel sweep imports concurrent.futures.process
        src = str(Path(cizsl_train.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, cizsl.cli; print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path}).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("raw", ["", " 1 "])
    def test_empty_or_one_thread_runs_sequentially(self, monkeypatch, raw):
        monkeypatch.setenv("CIZSL_THREADS", raw)
        best, rows = cross_validate_lambda(self.dataset(), tiny_config(n_steps=10), [0.1])
        assert best == 0.1 and rows

    @pytest.mark.parametrize("raw", ["two", "0", "-2", "2.0"])
    def test_bad_thread_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("CIZSL_THREADS", raw)
        with pytest.raises(InvalidConfigError, match="CIZSL_THREADS"):
            cross_validate_lambda(self.dataset(), tiny_config(n_steps=10), [0.1])

    def test_validation_auc_in_unit_interval(self):
        from cizsl.data import split_train_val
        ts, _ = split_train_val(self.dataset(), 0.8, seed=1)
        model = train(ts, tiny_config(n_steps=10))
        auc = validation_auc(model.generator, ts, samples_per_center=5)
        assert 0.0 <= auc <= 1.0
