"""Sharpness-aware training for low-rank adapters on dense numpy networks.

The package splits into six layers: linalg (the SVD pseudo-inverse,
projectors, seeded randomness), model (adapted networks, one forward
sweep shared by the forward and reverse passes, reversible
perturbations), optimizers (the training steps and their shared
perturbation pipeline, one QR factorisation per adapter factor),
diagnostics (sharpness probes, the EMA gap bound, balancedness dynamics),
harness (configs, synthetic tasks, the config-to-step entry point
make_step, the experiment loop, and benchmark), and checks (the identity
checks that both the verify self-check suite and the acceptance tests
run), with a CLI on top.

The top level re-exports only the ten names of the README's library
example and four submodules; everything else is imported from its module.
"""

from . import diagnostics, harness, model, optimizers
from .diagnostics import run_scale_invariant_flow, sharpness_sam
from .harness import ExperimentConfig, run_experiment
from .linalg import make_rng
from .model import backward, build_network
from .optimizers import BaseUpdateConfig, flat_lora_step, init_sgd_state
