"""Training steps for adapted networks: plain descent, two-pass sharpness-
aware variants, and the single-pass EMA variant.

The sharpness-aware steps share one pipeline: take adapter gradients,
reconstruct the implied full-space gradient through pseudo-inverses of the
factors, normalise it to a radius rho, and transfer it back onto the b
factor so the merged weight moves along the full-space direction restricted
to the row space of a.  The variants differ only in when gradients are
evaluated and whether the perturbation persists across steps.

All steps mutate the network's adapter factors in place and leave w0
untouched.  Each returns StepStats so callers can account for gradient
evaluations and wall time without instrumenting the internals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve

from .linalg import (
    DEFAULT_TOL,
    ZERO_GRAD_EPS,
    Matrix,
    _check_tol,
    as_matrix,
    pseudo_inverse,
)
from .model import (
    Batch,
    GradientSet,
    Network,
    apply_b_perturbation,
    apply_perturbation,
    backward,
)

OPTIMIZER_KINDS = ("lora", "lora-sam", "flat-lora", "eflat-lora")
RHO_SCHEDULES = ("constant", "inverse-sqrt")
DIRECTION_VARIANTS = ("standard", "signed")


class OptimizerStateError(RuntimeError):
    """Optimizer state used out of order (e.g. EMA perturbation flags
    inconsistent with the step counter)."""


@dataclass
class BaseUpdateConfig:
    """Hyperparameters of the underlying momentum-SGD update."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not (self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class SgdState:
    """Momentum buffers, one per adapter factor."""

    velocity_b: list[Matrix]
    velocity_a: list[Matrix]


def init_sgd_state(net: Network) -> SgdState:
    return SgdState(
        velocity_b=[np.zeros_like(layer.b) for layer in net.layers],
        velocity_a=[np.zeros_like(layer.a) for layer in net.layers],
    )


@dataclass
class StepStats:
    """What one optimizer step cost and saw.

    loss_original is the loss at the unperturbed parameters when the step
    evaluated it, NaN otherwise; loss_perturbed likewise for the perturbed
    parameters.  perturb_norm is the Frobenius norm of the adapter
    perturbation applied this step, all factors stacked.
    """

    grad_evals: int
    loss_original: float
    loss_perturbed: float
    perturb_norm: float
    wall_time_ms: float


def rho_at(rho0: float, t: int, schedule: str = "constant") -> float:
    """Perturbation radius at 1-based step t."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if rho0 < 0.0:
        raise ValueError(f"rho0 must be >= 0, got {rho0}")
    if schedule == "constant":
        return rho0
    if schedule == "inverse-sqrt":
        return rho0 / math.sqrt(t)
    raise ValueError(f"unknown rho schedule {schedule!r}")


def sam_direction(
    g: Matrix, rho: float, variant: str = "standard"
) -> tuple[Matrix, bool]:
    """Ascent direction of norm rho from a gradient.

    standard: rho * g / ||g||.  signed: rho * |g| / ||g||, i.e. the
    elementwise sign of g times g, same norm.  A gradient with Frobenius
    norm at or below ZERO_GRAD_EPS is degenerate: the direction is all
    zeros and the flag is set.  rho = 0 gives zeros without the flag.
    """
    if variant not in DIRECTION_VARIANTS:
        raise ValueError(f"unknown direction variant {variant!r}")
    g = np.asarray(g, dtype=np.float64)
    norm = float(np.linalg.norm(g))
    if norm <= ZERO_GRAD_EPS:
        return np.zeros_like(g), True
    if variant == "signed":
        return (rho / norm) * np.abs(g), False
    return (rho / norm) * g, False


def reconstruct_full_gradient(
    grad_b: Matrix,
    grad_a: Matrix,
    a: Matrix,
    b: Matrix,
    scale: float,
    tol: float = DEFAULT_TOL,
) -> Matrix:
    """Merged-weight gradient implied by the two factor gradients.

    The factor gradients relate to the dense gradient G by
    grad_b = scale * G @ a.T and grad_a = scale * b.T @ G, so each factor
    gives a one-sided estimate through a pseudo-inverse; averaging them:

        0.5 * ((1/scale) * grad_b @ (a^+)^T + (1/scale) * (b^+)^T @ grad_a)

    which equals 0.5 * (G @ P_A + P_B @ G) when the factor gradients are
    exact -- the dense gradient seen through the row space of a and the
    column space of b.
    """
    a_pinv = gram_pseudo_inverse(a, tol)
    b_pinv = gram_pseudo_inverse(b, tol)
    inv_scale = 1.0 / scale
    return 0.5 * (
        inv_scale * (grad_b @ a_pinv.T) + inv_scale * (b_pinv.T @ grad_a)
    )


def full_to_lowrank_perturbation(
    e_w_bar: Matrix, a: Matrix, scale: float, tol: float = DEFAULT_TOL
) -> Matrix:
    """b-factor shift whose merged effect matches a dense perturbation.

    Returns e_b = (1/scale) * e_w_bar @ a^+.  The induced merged change is
    scale * e_b @ a = e_w_bar @ a^+ @ a: exactly the part of e_w_bar lying
    in the row space of a.  The component outside that row space is
    unrepresentable at fixed a and is silently dropped; callers who care
    measure it with diagnostics.loss_match_residual.
    """
    return (1.0 / scale) * (e_w_bar @ gram_pseudo_inverse(a, tol))


@dataclass
class PerturbationPlan:
    """Per-layer perturbation of one sharpness-aware step.

    e_w_bar: dense ascent directions (norm rho per layer, zeros where
    degenerate).  e_b: their b-factor transfers.  degenerate_layers: indices
    whose reconstructed gradient vanished.  grads: the gradient set the plan
    was built from (carries the loss at the evaluation point).
    """

    e_w_bar: list[Matrix]
    e_b: list[Matrix]
    degenerate_layers: tuple[int, ...]
    grads: GradientSet

    def total_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(e * e)) for e in self.e_b))


# Cholesky-diagonal ratio below which the Gram solve is not trusted and
# the SVD pseudo-inverse takes over.
_GRAM_GUARD = 3e-3


def _gram_solve_pinv_t(m: Matrix, tol: float) -> Matrix:
    """(m^+)^T for a wide matrix via the Gram normal equations.

    solve(m m^T, m) equals inv(m m^T) m = (m^+)^T when m has full row rank;
    a failed or ill-conditioned Cholesky factorisation falls back to the
    SVD pseudo-inverse (transposed), so rank deficiency is handled exactly.
    This sits on the per-step hot path, hence the factor reuse and the
    skipped finiteness checks.
    """
    gram = m @ m.T
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except LinAlgError:
        return pseudo_inverse(m, tol).T
    diag = factor[0].diagonal().tolist()
    if min(diag) <= _GRAM_GUARD * max(diag):
        return pseudo_inverse(m, tol).T
    return cho_solve(factor, m, check_finite=False)


def gram_pseudo_inverse(m: Matrix, tol: float = DEFAULT_TOL) -> Matrix:
    """Moore-Penrose pseudo-inverse m^+ of a wide or tall matrix through
    the Gram route of _gram_solve_pinv_t.

    A tall m is solved as its wide transpose, since (m^T)^+ = (m^+)^T.
    Agrees with linalg.pseudo_inverse to within solve round-off.
    """
    m = as_matrix(m)
    _check_tol(tol)
    if m.shape[1] >= m.shape[0]:
        return _gram_solve_pinv_t(m, tol).T
    return _gram_solve_pinv_t(m.T, tol)


def perturbation_from_gradients(
    net: Network,
    grads: GradientSet,
    rho: float,
    variant: str = "standard",
    tol: float = DEFAULT_TOL,
) -> PerturbationPlan:
    """Build the full-space perturbation and its low-rank transfer from
    already-computed adapter gradients.

    Normalisation is per layer: each layer's reconstructed gradient is
    scaled to norm rho independently.  This is the one implementation the
    step functions use; it computes the same quantities as
    reconstruct_full_gradient followed by sam_direction and
    full_to_lowrank_perturbation, sharing each layer's factorisations.
    """
    if variant not in DIRECTION_VARIANTS:
        raise ValueError(f"unknown direction variant {variant!r}")
    e_w_bar: list[Matrix] = []
    e_b: list[Matrix] = []
    degenerate: list[int] = []
    for i, layer in enumerate(net.layers):
        # a is rank x m (wide), b is n x rank (tall); rank <= min(n, m).
        a_pinv_t = _gram_solve_pinv_t(layer.a, tol)
        b_pinv = _gram_solve_pinv_t(layer.b.T, tol)
        half_inv_scale = 0.5 / layer.scale
        g_bar = half_inv_scale * (
            grads.grad_b[i] @ a_pinv_t + b_pinv.T @ grads.grad_a[i]
        )
        norm = float(np.linalg.norm(g_bar))
        if norm <= ZERO_GRAD_EPS:
            degenerate.append(i)
            e_w_bar.append(np.zeros_like(g_bar))
            e_b.append(np.zeros_like(layer.b))
            continue
        direction = (rho / norm) * (np.abs(g_bar) if variant == "signed" else g_bar)
        e_w_bar.append(direction)
        e_b.append((1.0 / layer.scale) * (direction @ a_pinv_t.T))
    return PerturbationPlan(
        e_w_bar=e_w_bar,
        e_b=e_b,
        degenerate_layers=tuple(degenerate),
        grads=grads,
    )


def perturbation_from_rho(
    net: Network,
    batch: Batch,
    rho: float,
    variant: str = "standard",
    tol: float = DEFAULT_TOL,
) -> PerturbationPlan:
    """One gradient evaluation at the current parameters, then the
    perturbation built from it."""
    grads = backward(net, batch)
    return perturbation_from_gradients(net, grads, rho, variant, tol)


def base_update(
    net: Network, grads: GradientSet, cfg: BaseUpdateConfig, state: SgdState
) -> None:
    """Momentum-SGD on the adapter factors, in place; w0 never moves.

    v := momentum * v + (grad + weight_decay * param)
    param := param - learning_rate * v
    """
    n_layers = len(net.layers)
    if len(grads.grad_b) != n_layers or len(grads.grad_a) != n_layers:
        raise ValueError("gradient set does not match the network's layer count")
    lr = cfg.learning_rate
    if cfg.momentum == 0.0 and cfg.weight_decay == 0.0:
        # Plain SGD; the velocity buffers would just mirror the gradients.
        for layer, gb, ga in zip(net.layers, grads.grad_b, grads.grad_a):
            layer.b -= lr * gb
            layer.a -= lr * ga
        return
    mom = cfg.momentum
    wd = cfg.weight_decay
    for i, layer in enumerate(net.layers):
        vb = state.velocity_b[i]
        vb *= mom
        vb += grads.grad_b[i]
        if wd != 0.0:
            vb += wd * layer.b
        layer.b -= lr * vb
        va = state.velocity_a[i]
        va *= mom
        va += grads.grad_a[i]
        if wd != 0.0:
            va += wd * layer.a
        layer.a -= lr * va


def lora_step(
    net: Network, batch: Batch, cfg: BaseUpdateConfig, state: SgdState
) -> StepStats:
    """One plain training step: gradient at the current point, update."""
    t0 = time.perf_counter()
    grads = backward(net, batch)
    base_update(net, grads, cfg, state)
    return StepStats(
        grad_evals=1,
        loss_original=grads.loss,
        loss_perturbed=math.nan,
        perturb_norm=0.0,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def lora_sam_step(
    net: Network,
    batch: Batch,
    rho: float,
    cfg: BaseUpdateConfig,
    state: SgdState,
    variant: str = "standard",
) -> StepStats:
    """Two-pass step that perturbs each factor along its own gradient.

    Both factors get independent ascent directions of norm rho (per layer,
    per factor).  Because the factors multiply each other, the induced
    merged-weight perturbation is quadratic in rho and need not track the
    full-space ascent direction; this step exists as the baseline the
    transfer-based steps improve on.
    """
    t0 = time.perf_counter()
    grads0 = backward(net, batch)
    e_b: list[Matrix] = []
    e_a: list[Matrix] = []
    sq = 0.0
    for gb, ga in zip(grads0.grad_b, grads0.grad_a):
        db, _ = sam_direction(gb, rho, variant)
        da, _ = sam_direction(ga, rho, variant)
        e_b.append(db)
        e_a.append(da)
        sq += float(np.sum(db * db)) + float(np.sum(da * da))
    handle = apply_perturbation(net, e_b=e_b, e_a=e_a)
    grads1 = backward(net, batch)
    handle.revert()
    base_update(net, grads1, cfg, state)
    return StepStats(
        grad_evals=2,
        loss_original=grads0.loss,
        loss_perturbed=grads1.loss,
        perturb_norm=math.sqrt(sq),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def flat_lora_step(
    net: Network,
    batch: Batch,
    rho: float,
    cfg: BaseUpdateConfig,
    state: SgdState,
    variant: str = "standard",
    tol: float = DEFAULT_TOL,
) -> StepStats:
    """Two-pass step with the full-space perturbation transferred to b.

    Gradient at the current point, reconstruct and normalise the dense
    ascent direction, shift b so the merged weight moves along it, take
    the gradient there, revert, update with the perturbed-point gradient.
    """
    t0 = time.perf_counter()
    plan = perturbation_from_rho(net, batch, rho, variant, tol)
    handle = apply_b_perturbation(net, plan.e_b)
    grads1 = backward(net, batch)
    handle.revert()
    base_update(net, grads1, cfg, state)
    return StepStats(
        grad_evals=2,
        loss_original=plan.grads.loss,
        loss_perturbed=grads1.loss,
        perturb_norm=plan.total_norm(),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


@dataclass
class PerturbState:
    """Carry-over state of the single-pass EMA variant.

    ema_e_b holds the smoothed b-factor perturbation currently believed in;
    applied says whether it is presently added into the network.  Between
    steps the network is left perturbed, so evaluation code must remove()
    first and reapply() after.
    """

    rho0: float
    beta: float
    ema_e_b: list[Matrix]
    last_e_b: list[Matrix] | None = None
    step_index: int = 0
    applied: bool = False
    _saved_b: list[Matrix] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.rho0 < 0.0:
            raise ValueError(f"rho0 must be >= 0, got {self.rho0}")

    def apply(self, net: Network) -> None:
        """Add the EMA perturbation into the b factors."""
        if self.applied:
            raise OptimizerStateError("EMA perturbation is already applied")
        self._saved_b = [layer.b for layer in net.layers]
        for layer, e in zip(net.layers, self.ema_e_b):
            layer.b = layer.b + e
        self.applied = True

    def remove(self, net: Network) -> None:
        """Restore the unperturbed b factors, bit for bit."""
        if not self.applied:
            raise OptimizerStateError("EMA perturbation is not applied")
        for layer, saved in zip(net.layers, self._saved_b):
            layer.b = saved
        self._saved_b = None
        self.applied = False


def init_perturb_state(net: Network, rho0: float, beta: float) -> PerturbState:
    """Fresh EMA state: zero perturbation, nothing applied."""
    return PerturbState(
        rho0=rho0,
        beta=beta,
        ema_e_b=[np.zeros_like(layer.b) for layer in net.layers],
    )


def eflat_lora_step(
    net: Network,
    batch: Batch,
    pstate: PerturbState,
    cfg: BaseUpdateConfig,
    state: SgdState,
    variant: str = "standard",
    tol: float = DEFAULT_TOL,
    schedule: str = "inverse-sqrt",
) -> StepStats:
    """Single-pass step: the gradient is taken at the EMA-perturbed point.

    One evaluation serves both purposes: it drives the base update and
    seeds the next perturbation.  The fresh per-step perturbation is folded
    into an exponential moving average,

        ema_t = (1 - beta) * ema_{t-1} + beta * e_t,

    which is applied before the step returns, so the network stays
    perturbed between steps.  The very first step runs at the unperturbed
    point (the EMA starts at zero and nothing is applied yet).
    """
    if pstate.applied != (pstate.step_index > 0):
        raise OptimizerStateError(
            f"EMA state inconsistent: step_index={pstate.step_index} but "
            f"applied={pstate.applied}"
        )
    t0 = time.perf_counter()
    t = pstate.step_index + 1
    was_applied = pstate.applied
    grads = backward(net, batch)
    rho_t = rho_at(pstate.rho0, t, schedule)
    plan = perturbation_from_gradients(net, grads, rho_t, variant, tol)
    if was_applied:
        pstate.remove(net)
    base_update(net, grads, cfg, state)
    beta = pstate.beta
    for ema, e in zip(pstate.ema_e_b, plan.e_b):
        ema *= 1.0 - beta
        ema += beta * e
    pstate.last_e_b = plan.e_b
    pstate.apply(net)
    pstate.step_index = t
    loss = grads.loss
    return StepStats(
        grad_evals=1,
        loss_original=loss if not was_applied else math.nan,
        loss_perturbed=loss if was_applied else math.nan,
        perturb_norm=plan.total_norm(),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


@dataclass
class MemoryCounts:
    """Parameter and auxiliary-buffer element counts for one optimizer kind.

    extra follows a fixed accounting convention for persistent auxiliary
    state beyond the gradients every kind needs: lora keeps nothing,
    lora-sam keeps one perturbation per factor (exactly 1.0x the trainable
    count), flat-lora keeps the transfer plus workspace at 1.5x, and
    eflat-lora keeps both the EMA and the per-step perturbation at 2.0x.
    """

    kind: str
    trainable: int
    frozen: int
    extra: float


_EXTRA_MULTIPLIER = {
    "lora": 0.0,
    "lora-sam": 1.0,
    "flat-lora": 1.5,
    "eflat-lora": 2.0,
}


def param_and_memory_counts(net: Network, kind: str) -> MemoryCounts:
    """Element counts: trainable adapters, frozen base, optimizer extras."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    trainable = 0
    frozen = 0
    for layer in net.layers:
        n, m = layer.w0.shape
        trainable += n * layer.rank + layer.rank * m
        frozen += n * m
    return MemoryCounts(
        kind=kind,
        trainable=trainable,
        frozen=frozen,
        extra=_EXTRA_MULTIPLIER[kind] * trainable,
    )
