"""Training steps for adapted networks: plain descent, two-pass sharpness-
aware variants, and the single-pass EMA variant.

The sharpness-aware steps share one pipeline: take adapter gradients,
reconstruct the implied full-space gradient through pseudo-inverses of the
factors, normalise it to a radius rho, and transfer it back onto the b
factor so the merged weight moves along the full-space direction restricted
to the row space of a.  The variants differ only in when gradients are
evaluated and whether the perturbation persists across steps.  The steps
take the pseudo-inverses from one Householder QR per factor and never form
the dense reconstructed gradient; sam_direction normalises every dense
direction.  reconstruct_full_gradient and full_to_lowrank_perturbation are
the dense SVD reference route.

All steps mutate the network's adapter factors in place and leave w0
untouched.  Each returns StepStats so callers can account for gradient
evaluations without instrumenting the internals; callers time the call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs

from .linalg import (
    DEFAULT_TOL,
    ZERO_GRAD_EPS,
    Matrix,
    _check_tol,
    _sq_norm,
    pseudo_inverse,
)
from .model import (
    Batch,
    GradientSet,
    Network,
    PerturbationHandle,
    apply_b_perturbation,
    apply_perturbation,
    backward,
)

# perfbench's tracer wraps these two names; nothing in the package calls
# them, and the next benchmark change deletes this line.
cho_factor, cho_solve = scipy.linalg.cho_factor, scipy.linalg.cho_solve

OPTIMIZER_KINDS = ("lora", "lora-sam", "flat-lora", "eflat-lora")
RHO_SCHEDULES = ("constant", "inverse-sqrt")


class OptimizerStateError(RuntimeError):
    """Optimizer state used out of order (e.g. EMA perturbation flags
    inconsistent with the step counter)."""


@dataclass(frozen=True)
class BaseUpdateConfig:
    """Hyperparameters of the underlying momentum-SGD update."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        _check_learning_rate(self.learning_rate)
        _check_momentum(self.momentum)
        _check_weight_decay(self.weight_decay)


def _check_learning_rate(learning_rate: float) -> None:
    if not (learning_rate > 0.0 and math.isfinite(learning_rate)):
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")


def _check_momentum(momentum: float) -> None:
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")


def _check_weight_decay(weight_decay: float) -> None:
    if not (weight_decay >= 0.0 and math.isfinite(weight_decay)):
        raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")


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
    """What one optimizer step cost in gradient evaluations and saw.

    loss_original is the loss at the unperturbed parameters when the step
    evaluated it, NaN otherwise; loss_perturbed likewise for the perturbed
    parameters.  perturb_norm is the Frobenius norm of the adapter
    perturbation applied this step, all factors stacked.
    """

    grad_evals: int
    loss_original: float
    loss_perturbed: float
    perturb_norm: float


def _check_variant(variant: str) -> None:
    """The ascent direction is rho * g / ||g|| alone.  The two-pass and EMA
    steps keep a positional direction slot, and ExperimentConfig its
    direction_variant field, for callers that pass them; both take
    "standard" and nothing else."""
    if variant != "standard":
        raise ValueError(f"direction variant must be 'standard', got {variant!r}")


def _check_rho(rho: float, name: str = "rho") -> None:
    """A radius is finite and >= 0: a NaN or infinite one poisons every
    loss after it, and a negative one steps downhill."""
    if not (rho >= 0.0 and math.isfinite(rho)):
        raise ValueError(f"{name} must be >= 0 and finite, got {rho}")


def _check_beta(beta: float) -> None:
    """An EMA weight lies in (0, 1]: at 0 the EMA would never move."""
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")


def rho_at(rho0: float, t: int, schedule: str = "constant") -> float:
    """Perturbation radius at 1-based step t."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    _check_rho(rho0, "rho0")
    if schedule == "constant":
        return rho0
    if schedule == "inverse-sqrt":
        return rho0 / math.sqrt(t)
    raise ValueError(f"unknown rho schedule {schedule!r}")


def sam_direction(g: Matrix, rho: float) -> tuple[Matrix, bool]:
    """Ascent direction rho * g / ||g|| of norm rho from a gradient.

    A gradient with Frobenius norm at or below ZERO_GRAD_EPS is
    degenerate: the direction is all zeros and the flag is set.  rho = 0
    gives zeros without the flag.
    """
    _check_rho(rho)
    g = np.asarray(g, dtype=np.float64)
    norm = math.sqrt(_sq_norm(g))
    if norm <= ZERO_GRAD_EPS:
        return np.zeros_like(g), True
    return (rho / norm) * g, False


def reconstruct_full_gradient(
    grad_b: Matrix, grad_a: Matrix, a: Matrix, b: Matrix, scale: float
) -> Matrix:
    """Merged-weight gradient implied by the two factor gradients.

    The factor gradients relate to the dense gradient G by
    grad_b = scale * G @ a.T and grad_a = scale * b.T @ G, so each factor
    gives a one-sided estimate through a pseudo-inverse; averaging them:

        0.5 * ((1/scale) * grad_b @ (a^+)^T + (1/scale) * (b^+)^T @ grad_a)

    which equals 0.5 * (G @ P_A + P_B @ G) when the factor gradients are
    exact -- the dense gradient seen through the row space of a and the
    column space of b.  Both pseudo-inverses cut at DEFAULT_TOL, the
    steps' default svd_tol.
    """
    a_pinv = pseudo_inverse(a, DEFAULT_TOL)
    b_pinv = pseudo_inverse(b, DEFAULT_TOL)
    inv_scale = 1.0 / scale
    return 0.5 * (
        inv_scale * (grad_b @ a_pinv.T) + inv_scale * (b_pinv.T @ grad_a)
    )


def full_to_lowrank_perturbation(e_w_bar: Matrix, a: Matrix, scale: float) -> Matrix:
    """b-factor shift whose merged effect matches a dense perturbation.

    Returns e_b = (1/scale) * e_w_bar @ a^+.  The induced merged change is
    scale * e_b @ a = e_w_bar @ a^+ @ a: exactly the part of e_w_bar lying
    in the row space of a.  The component outside that row space is
    unrepresentable at fixed a and is silently dropped; callers who care
    measure it with diagnostics.loss_match_residual.
    """
    return (1.0 / scale) * (e_w_bar @ pseudo_inverse(a, DEFAULT_TOL))


@dataclass
class PerturbationPlan:
    """Per-layer perturbation of one sharpness-aware step: only what the
    step applies.

    e_b: the b-factor transfers the step applies.  degenerate_layers:
    indices whose reconstructed gradient vanished (their e_b is zero).
    The dense n x m ascent direction is not kept; callers that want it
    take the reference route, reconstruct_full_gradient then
    sam_direction.
    """

    e_b: list[Matrix]
    degenerate_layers: tuple[int, ...]

    def total_norm(self) -> float:
        return math.sqrt(sum(_sq_norm(e) for e in self.e_b))


# Smallest-to-largest |diag R| ratio of a factor's QR at or below which
# _pinv_factors does not trust its triangular solve and takes the SVD
# pseudo-inverse; |diag R| is the Cholesky diagonal of the Gram matrix.
_GRAM_GUARD = 3e-3


@functools.cache
def _identity(r: int) -> Matrix:
    """The r x r identity, built once per rank and read-only: dtrtrs
    solves into its own copy of the right-hand side."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _pinv_factors(m: Matrix, tol: float) -> tuple[Matrix, Matrix]:
    """(q, t) with m^+ == q @ t for a wide r x k factor m: q is k x r with
    orthonormal columns, t is r x r.

    One Householder QR m^T = q R (LAPACK dgeqrf/dorgqr) and one triangular
    solve R^T t = I (dtrtrs) give m^+ = q R^-T: no Gram matrix is formed,
    so the error grows with cond(m), not its square.  |diag R| is the
    Cholesky diagonal of m m^T, so the switch reads the Gram matrix's
    conditioning without forming it: when its smallest entry is at or
    below _GRAM_GUARD times its largest (a zero b at init, a nearly
    rank-deficient a), the SVD pseudo-inverse m^+ takes over, with q from
    the same QR of m^+ and t = q^T m^+.  A non-finite factor stays on the
    QR route, so its NaNs reach the step's loss, which the experiment
    loop checks.
    """
    r = m.shape[0]
    reflectors, tau, _, _ = dgeqrf(m.T)
    diag = np.abs(reflectors.diagonal()).tolist()
    pinv = None
    if min(diag) <= _GRAM_GUARD * max(diag) and math.isfinite(sum(diag)):
        pinv = pseudo_inverse(m, tol)
        reflectors, tau, _, _ = dgeqrf(pinv)
    else:
        t = dtrtrs(reflectors[:r], _identity(r), trans=1)[0]
    q = dorgqr(reflectors, tau, overwrite_a=1)[0]
    return q, (t if pinv is None else q.T @ pinv)


def perturbation_from_gradients(
    net: Network,
    grads: GradientSet,
    rho: float,
    tol: float = DEFAULT_TOL,
) -> PerturbationPlan:
    """Build the low-rank transfer of the normalised full-space ascent
    direction from already-computed adapter gradients.

    Normalisation is per layer: each layer's reconstructed gradient is
    scaled to norm rho independently.  This is the one implementation the
    step functions use; it computes the same quantities as
    reconstruct_full_gradient followed by sam_direction and
    full_to_lowrank_perturbation, from one QR factorisation per factor.

    With a^+ = Q1 T1 and (b^+)^T = Q2 T2 from _pinv_factors (Q1 m x r and
    Q2 n x r with orthonormal columns, T1 and T2 r x r), the scaled
    reconstructed gradient g_bar = h * F, h = 0.5 / scale, is

        F = grad_b @ (a^+)^T + (b^+)^T @ grad_a = X1 Q1^T + Q2 Z2,
        X1 = grad_b T1^T,  Z2 = T2 grad_a.

    The plan never forms the n x m matrix F.  With W = Z2 Q1 and
    U = X1 + Q2 W, F = U Q1^T + Q2 (Z2 - W Q1^T), two parts with
    orthogonal row spaces, so

        ||F||^2 = ||U||^2 + ||Z2||^2 - ||W||^2,   F @ a^+ = U T1,
        e_b = (1 / scale) * (rho / ||g_bar||) * g_bar @ a^+
            = (c / scale) * U T1,  c = rho * h / ||g_bar||,

    from n x r, r x m and r x r arrays only, so a layer's plan takes
    O((n + m) * rank) memory.  The plan holds e_b and nothing else per
    layer: the pseudo-inverses, the dense direction and the gradients are
    not kept.
    """
    _check_rho(rho)
    _check_tol(tol)
    e_b: list[Matrix] = []
    degenerate: list[int] = []
    for i, layer in enumerate(net.layers):
        # a is rank x m (wide), b is n x rank (tall); rank <= min(n, m).
        q1, t1 = _pinv_factors(layer.a, tol)
        q2, t2 = _pinv_factors(layer.b.T, tol)
        half_inv_scale = 0.5 / layer.scale
        z2 = t2 @ grads.grad_a[i]
        w = z2 @ q1
        sq = _sq_norm(z2) - _sq_norm(w)
        # Drop each m- or n-long temporary once used: they set the plan's
        # peak.
        del z2, q1
        u = grads.grad_b[i] @ t1.T
        u += q2 @ w
        del q2
        sq += _sq_norm(u)
        norm = half_inv_scale * math.sqrt(max(sq, 0.0))
        flat = norm <= ZERO_GRAD_EPS
        if flat:
            degenerate.append(i)
            e_b.append(np.zeros_like(layer.b))
        else:
            transfer = u @ t1
            del u
            c = rho * half_inv_scale / norm
            transfer *= c / layer.scale
            e_b.append(transfer)
    return PerturbationPlan(e_b=e_b, degenerate_layers=tuple(degenerate))


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
    mom = cfg.momentum
    wd = cfg.weight_decay
    for i, layer in enumerate(net.layers):
        for param, v, g in ((layer.b, state.velocity_b[i], grads.grad_b[i]),
                            (layer.a, state.velocity_a[i], grads.grad_a[i])):
            v *= mom
            v += g
            if wd != 0.0:
                v += wd * param
            param -= lr * v


def lora_step(
    net: Network, batch: Batch, cfg: BaseUpdateConfig, state: SgdState
) -> StepStats:
    """One plain training step: gradient at the current point, update."""
    grads = backward(net, batch)
    base_update(net, grads, cfg, state)
    return StepStats(
        grad_evals=1,
        loss_original=grads.loss,
        loss_perturbed=math.nan,
        perturb_norm=0.0,
    )


def _two_pass_step(
    net: Network,
    batch: Batch,
    cfg: BaseUpdateConfig,
    state: SgdState,
    shift: Callable[[GradientSet], tuple[list[Matrix], list[Matrix] | None, float]],
) -> StepStats:
    """The body both two-pass steps share: gradient at the current point,
    shift(grads) -> (e_b, e_a, norm), gradient at the shifted point,
    revert, update with the shifted-point gradient.

    Only the first-pass loss and the shift's norm outlive the shift: the
    first-pass gradients and the shift's arrays are released before the
    second backward.  The factors are reverted even if that backward
    raises.
    """
    grads = backward(net, batch)
    loss0 = grads.loss
    e_b, e_a, norm = shift(grads)
    with apply_perturbation(net, e_b=e_b, e_a=e_a):
        del grads, e_b, e_a
        grads = backward(net, batch)
    base_update(net, grads, cfg, state)
    return StepStats(
        grad_evals=2,
        loss_original=loss0,
        loss_perturbed=grads.loss,
        perturb_norm=norm,
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
    transfer-based steps improve on.  variant takes "standard" alone.
    """
    _check_variant(variant)

    def shift(grads: GradientSet) -> tuple[list[Matrix], list[Matrix], float]:
        e_b: list[Matrix] = []
        e_a: list[Matrix] = []
        sq = 0.0
        for gb, ga in zip(grads.grad_b, grads.grad_a):
            db, _ = sam_direction(gb, rho)
            da, _ = sam_direction(ga, rho)
            e_b.append(db)
            e_a.append(da)
            sq += _sq_norm(db) + _sq_norm(da)
        return e_b, e_a, math.sqrt(sq)

    return _two_pass_step(net, batch, cfg, state, shift)


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
    variant takes "standard" alone.
    """
    _check_variant(variant)

    def shift(grads: GradientSet) -> tuple[list[Matrix], None, float]:
        plan = perturbation_from_gradients(net, grads, rho, tol)
        return plan.e_b, None, plan.total_norm()

    return _two_pass_step(net, batch, cfg, state, shift)


@dataclass
class PerturbState:
    """Carry-over state of the single-pass EMA variant.

    ema_e_b holds the smoothed b-factor perturbation currently believed in;
    applied says whether it is presently added into the network, i.e.
    whether the PerturbationHandle of that apply is held.  Between steps
    the network is left perturbed, so evaluation code must remove() first
    and apply() after.  The per-step shift e_t is folded into ema_e_b and
    not kept: a caller that wants it builds it with backward and
    perturbation_from_gradients on the live network before the step, as
    the step itself does.
    """

    rho0: float
    beta: float
    ema_e_b: list[Matrix]
    step_index: int = 0
    _handle: PerturbationHandle | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        _check_rho(self.rho0, "rho0")

    @property
    def applied(self) -> bool:
        return self._handle is not None

    def apply(self, net: Network) -> None:
        """Add the EMA perturbation into the b factors."""
        if self.applied:
            raise OptimizerStateError("EMA perturbation is already applied")
        self._handle = apply_b_perturbation(net, self.ema_e_b)

    def remove(self, net: Network) -> None:
        """Restore the unperturbed b factors, bit for bit."""
        if not self.applied:
            raise OptimizerStateError("EMA perturbation is not applied")
        if self._handle.net is not net:
            raise OptimizerStateError("EMA perturbation is applied to another network")
        self._handle.revert()
        self._handle = None


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
    point (the EMA starts at zero and nothing is applied yet).  variant
    takes "standard" alone.
    """
    _check_variant(variant)
    if pstate.applied != (pstate.step_index > 0):
        raise OptimizerStateError(
            f"EMA state inconsistent: step_index={pstate.step_index} but "
            f"applied={pstate.applied}"
        )
    t = pstate.step_index + 1
    was_applied = pstate.applied
    grads = backward(net, batch)
    rho_t = rho_at(pstate.rho0, t, schedule)
    plan = perturbation_from_gradients(net, grads, rho_t, tol)
    if was_applied:
        pstate.remove(net)
    base_update(net, grads, cfg, state)
    beta = pstate.beta
    for ema, e in zip(pstate.ema_e_b, plan.e_b):
        ema *= 1.0 - beta
        ema += beta * e
    pstate.apply(net)
    pstate.step_index = t
    loss = grads.loss
    return StepStats(
        grad_evals=1,
        loss_original=loss if not was_applied else math.nan,
        loss_perturbed=loss if was_applied else math.nan,
        perturb_norm=plan.total_norm(),
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

    trainable: int
    extra: float


_EXTRA_MULTIPLIER = {
    "lora": 0.0,
    "lora-sam": 1.0,
    "flat-lora": 1.5,
    "eflat-lora": 2.0,
}


def param_and_memory_counts(net: Network, kind: str) -> MemoryCounts:
    """Element counts: trainable adapters and optimizer extras."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    trainable = 0
    for layer in net.layers:
        n, m = layer.w0.shape
        trainable += n * layer.rank + layer.rank * m
    return MemoryCounts(trainable=trainable, extra=_EXTRA_MULTIPLIER[kind] * trainable)
