"""Creativity-regularized conditional feature generation for zero-shot
recognition, plus the generalized seen/unseen evaluation stack."""

from .data import SyntheticConfig, ZslDataset, load_dataset, make_synthetic, save_dataset
from .divergence import DivergenceParams, batch_minmax_normalize, sm_divergence
from .evaluate import (ClassCenters, SeenUnseenCurve, harmonic_mean,
                       retrieval_precision, seen_unseen_curve, synthesize_centers,
                       zsl_top1)
from .losses import creativity_loss, discriminator_loss, generator_loss
from .net import (Discriminator, Generator, MlpNetwork, build_discriminator,
                  build_generator, load_checkpoint, save_checkpoint)
from .numerics import AdamState, RngStream, adam_init, adam_step, finite_diff_gradient, softmax
from .train import TrainConfig, TrainedModel, cross_validate_lambda, train, train_lockstep

__version__ = "0.1.0"
