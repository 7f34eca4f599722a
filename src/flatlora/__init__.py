"""Sharpness-aware training for low-rank adapters on dense numpy networks.

The package splits into six layers: linalg (the SVD pseudo-inverse,
projectors, seeded randomness), model (adapted networks, forward/backward,
reversible perturbations), optimizers (the training steps, their shared
perturbation pipeline, and the Gram pseudo-inverse it runs on),
diagnostics (sharpness probes, the EMA gap bound, balancedness dynamics),
harness (configs, synthetic tasks, the config-to-step entry point
make_step, the experiment loop, and benchmark), and checks (the identity
checks that both the verify self-check suite and the acceptance tests
run), with a CLI on top.
"""

from .linalg import (
    DEFAULT_TOL,
    Matrix,
    NumericalError,
    Rng,
    ShapeError,
    SvdResult,
    frobenius_norm,
    make_rng,
    matrixize,
    pseudo_inverse,
    row_space_projector,
    col_space_projector,
    svd,
    vectorize,
)
from .model import (
    Batch,
    GradientSet,
    LoRALinear,
    Network,
    PerturbationHandle,
    apply_b_perturbation,
    apply_perturbation,
    backward,
    build_network,
    clone_network,
    effective_full_perturbation,
    forward,
    forward_with_offsets,
    make_lora_layer,
)
from .optimizers import (
    BaseUpdateConfig,
    MemoryCounts,
    OPTIMIZER_KINDS,
    PerturbState,
    PerturbationPlan,
    SgdState,
    StepStats,
    base_update,
    eflat_lora_step,
    flat_lora_step,
    full_to_lowrank_perturbation,
    gram_pseudo_inverse,
    init_perturb_state,
    init_sgd_state,
    lora_sam_step,
    lora_step,
    param_and_memory_counts,
    perturbation_from_gradients,
    perturbation_from_rho,
    reconstruct_full_gradient,
    rho_at,
    sam_direction,
)
from .diagnostics import (
    AssumptionConstants,
    BalancednessTrace,
    balancedness,
    ema_sam_gap_bound,
    estimate_assumption_constants,
    loss_match_residual,
    neighborhood_max_oracle,
    network_balancedness,
    run_scale_invariant_flow,
    sharpness_ema,
    sharpness_sam,
)
from .harness import (
    BenchReport,
    ConfigError,
    ExperimentAbort,
    ExperimentConfig,
    MetricsRecord,
    RunSummary,
    Task,
    bench,
    generate_task,
    load_config,
    make_step,
    parse_config_text,
    run_experiment,
    sweep,
)
from .checks import VerifyReport, verify

__version__ = "0.1.0"
