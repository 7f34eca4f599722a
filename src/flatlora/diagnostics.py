"""Measurements about flatness: sharpness probes, the EMA-vs-exact gap and
its theoretical ceiling, balancedness dynamics under perturbed gradient
flow, and the projected loss-match identity check.

Nothing in here changes training behaviour; every function restores any
parameter perturbation it applies, by holding its handle in a with block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_GRAD_EPS,
    Matrix,
    NumericalError,
    _sq_norm,
    make_rng,
    row_space_projector,
)
from .model import (
    Batch,
    Network,
    apply_b_perturbation,
    apply_perturbation,
    backward,
    forward,
    forward_with_offsets,
)
from .optimizers import PerturbState, _check_beta, _check_rho, sam_direction

# estimate_assumption_constants draws TAU_PROBES random factor shifts of
# entrywise scale TAU_PROBE_SCALE; neighborhood_max_oracle tries
# ORACLE_SAMPLES random directions.
TAU_PROBES = 8
TAU_PROBE_SCALE = 1e-2
ORACLE_SAMPLES = 32


@dataclass
class AssumptionConstants:
    """Empirical stand-ins for the smoothness constant, the gradient-norm
    ceiling, and the minibatch gradient noise variance."""

    tau_hat: float
    grad_bound_hat: float
    noise_var_hat: float


@dataclass
class BalancednessTrace:
    """Per-step record of the perturbed factorisation flow.

    balancedness has one entry per step (measured before the update),
    drift_rate holds |delta balancedness| / eta for each step, and
    bound_rhs the theoretical ceiling on the instantaneous drift at the
    same step.
    """

    balancedness: np.ndarray
    drift_rate: np.ndarray
    bound_rhs: np.ndarray
    losses: np.ndarray
    final_balancedness: float


def sam_probe(net: Network, batch: Batch, rho: float) -> tuple[float, float]:
    """The ascent-direction sharpness probe: (loss, increase).

    One backward sweep at the current parameters gives the loss and each
    layer's merged-weight gradient; each gradient is scaled to norm rho
    and added as a dense offset, and one forward sweep with those offsets
    gives the perturbed loss.  On a layer of the merged route the offset
    goes into the merged weight, (merged_weight() + offset) @ h, so that
    sweep costs one plain forward there (forward_with_offsets).  Returns
    the loss at the current parameters (the bits forward would return
    there) and the perturbed loss minus it.  Layers with vanishing
    gradient contribute a zero offset.
    """
    grads = backward(net, batch, want_full=True)
    offsets: list[Matrix | None] = []
    for gw in grads.grad_w:
        direction, degenerate = sam_direction(gw, rho)
        offsets.append(None if degenerate else direction)
    _, loss_perturbed = forward_with_offsets(net, batch, offsets)
    return grads.loss, loss_perturbed - grads.loss


def sharpness_sam(net: Network, batch: Batch, rho: float) -> float:
    """Loss increase along the per-layer normalised ascent direction: the
    increase of sam_probe, for callers that do not need the loss."""
    return sam_probe(net, batch, rho)[1]


def sharpness_ema(net: Network, batch: Batch, pstate: PerturbState) -> float:
    """Loss increase produced by the EMA perturbation currently tracked.

    Works whether or not the perturbation is applied at call time, and
    leaves the network in the state it found it: an applied shift is
    removed for the two forward passes and applied again after them, also
    when a pass raises.
    """
    was_applied = pstate.applied
    if was_applied:
        pstate.remove(net)
    try:
        _, loss_plain = forward(net, batch)
        with apply_b_perturbation(net, pstate.ema_e_b):
            _, loss_perturbed = forward(net, batch)
    finally:
        if was_applied:
            pstate.apply(net)
    return loss_perturbed - loss_plain


def ema_sam_gap_bound(
    consts: AssumptionConstants, rho0: float, beta: float, t: int
) -> float:
    """Ceiling on |EMA sharpness - exact sharpness| at step t >= 2.

    (tau * rho0 / sqrt(t-1) + G + sigma^2)
        * (rho0 / sqrt(t) + rho0 * (1-beta)^(t-1) + rho0)

    with tau the smoothness constant, G the gradient-norm ceiling and
    sigma^2 the gradient noise variance, all taken from consts.  rho0 must
    be finite and >= 0, and beta lie in (0, 1], as PerturbState requires.
    """
    if t < 2:
        raise ValueError(f"the gap bound needs t >= 2, got {t}")
    _check_rho(rho0, "rho0")
    _check_beta(beta)
    lhs = consts.tau_hat * rho0 / math.sqrt(t - 1) + consts.grad_bound_hat + consts.noise_var_hat
    rhs = rho0 / math.sqrt(t) + rho0 * (1.0 - beta) ** (t - 1) + rho0
    return lhs * rhs


def _flat_merged_gradient(net: Network, batch: Batch) -> np.ndarray:
    grads = backward(net, batch, want_full=True)
    return np.concatenate([gw.ravel() for gw in grads.grad_w])


def _flat_merged_weights(net: Network) -> np.ndarray:
    return np.concatenate([layer.merged_weight().ravel() for layer in net.layers])


def estimate_assumption_constants(
    net: Network,
    batches: list[Batch],
    seed: int = 0,
) -> AssumptionConstants:
    """Estimate the constants the gap bound needs, at the current point.

    tau_hat: largest gradient-difference-over-distance slope between the
    current parameters and TAU_PROBES random shifts of both factors
    (applied to net and reverted, one at a time), measured in
    merged-weight space on the pooled data.  grad_bound_hat: largest minibatch gradient norm.
    noise_var_hat: mean squared deviation of minibatch gradients from the
    pooled gradient.

    These are optimistic (finitely sampled) stand-ins, good enough to give
    the bound a concrete value at desk scale.
    """
    if not batches:
        raise ValueError("need at least one batch")
    rng = make_rng(seed)
    pooled = Batch(
        inputs=np.concatenate([b.inputs for b in batches], axis=1),
        targets=np.concatenate([b.targets for b in batches], axis=1),
    )
    g_pool = _flat_merged_gradient(net, pooled)

    grad_bound = math.sqrt(_sq_norm(g_pool))
    noise_sq = 0.0
    for b in batches:
        g_b = _flat_merged_gradient(net, b)
        grad_bound = max(grad_bound, math.sqrt(_sq_norm(g_b)))
        noise_sq += _sq_norm(g_b - g_pool)
    noise_var = noise_sq / len(batches)

    w_base = _flat_merged_weights(net)
    tau = 0.0
    for _ in range(TAU_PROBES):
        e_b: list[Matrix] = []
        e_a: list[Matrix] = []
        for layer in net.layers:
            e_b.append(TAU_PROBE_SCALE * rng.standard_normal(layer.b.shape))
            e_a.append(TAU_PROBE_SCALE * rng.standard_normal(layer.a.shape))
        with apply_perturbation(net, e_b=e_b, e_a=e_a):
            g_probe = _flat_merged_gradient(net, pooled)
            w_probe = _flat_merged_weights(net)
        dist = math.sqrt(_sq_norm(w_probe - w_base))
        if dist <= ZERO_GRAD_EPS:
            continue
        tau = max(tau, math.sqrt(_sq_norm(g_probe - g_pool)) / dist)
    return AssumptionConstants(
        tau_hat=tau, grad_bound_hat=grad_bound, noise_var_hat=noise_var
    )


def neighborhood_max_oracle(
    net: Network,
    batch: Batch,
    rho: float,
    seed: int = 0,
) -> float:
    """Brute-force estimate of the worst loss increase at radius rho.

    Starts from sam_probe's increase along the normalised ascent
    direction, then evaluates ORACLE_SAMPLES random dense directions, each
    Gaussian draw scaled to norm rho per layer by sam_direction, and
    returns the largest increase seen.  By construction it is at least
    the single-direction sharpness probe.
    """
    rng = make_rng(seed)
    loss0, best = sam_probe(net, batch, rho)
    for _ in range(ORACLE_SAMPLES):
        offsets: list[Matrix | None] = []
        for layer in net.layers:
            direction, degenerate = sam_direction(rng.standard_normal(layer.w0.shape), rho)
            offsets.append(None if degenerate else direction)
        _, loss_p = forward_with_offsets(net, batch, offsets)
        best = max(best, loss_p - loss0)
    return best


def balancedness(x: np.ndarray, y: np.ndarray) -> float:
    """Half the squared-norm imbalance of a factor pair: (|x|^2 - |y|^2)/2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 0.5 * (_sq_norm(x) - _sq_norm(y))


def network_balancedness(net: Network) -> float:
    """Balancedness of the stacked adapter factors: (sum|b|^2 - sum|a|^2)/2."""
    sq_b = sum(_sq_norm(layer.b) for layer in net.layers)
    sq_a = sum(_sq_norm(layer.a) for layer in net.layers)
    return 0.5 * (sq_b - sq_a)


def run_scale_invariant_flow(
    target: Matrix,
    rho: float,
    scale: float,
    eta: float,
    steps: int,
    seed: int = 0,
    init_scale: float = 1.0,
) -> BalancednessTrace:
    """Discretised perturbed gradient flow on a rank-one factorisation.

    Objective: L(x y^T) = 0.5 * |x y^T - target|_F^2.  Each step perturbs
    only x, along the normalised dense gradient pulled back through y:

        x~ = x + rho * (1/scale) * (G/|G|) @ y / |y|^2,   y~ = y,

    then takes a plain gradient-descent step on both factors using the
    gradients at the perturbed point.  Alongside the factor trajectories
    it records the balancedness drift rate |delta B| / eta and the
    theoretical ceiling rho * (1/scale) * |g_x~| / |y| for each step, so
    callers can check that the drift never exceeds the ceiling (up to
    discretisation slack).  rho = 0 makes the ceiling identically zero and
    the flow an exact gradient flow, under which balancedness is conserved
    up to O(eta) discretisation error.  rho must be finite and >= 0,
    scale and eta finite and > 0, and target and init_scale finite.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2:
        raise ValueError("target must be a matrix")
    if not np.isfinite(target).all():
        raise ValueError("target must hold only finite values")
    if not math.isfinite(init_scale):
        raise ValueError(f"init_scale must be finite, got {init_scale}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_rho(rho)
    for name, value in (("scale", scale), ("eta", eta)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be > 0 and finite, got {value}")
    n, m = target.shape
    rng = make_rng(seed)
    x = init_scale * rng.standard_normal(n)
    y = init_scale * rng.standard_normal(m)

    bal = np.empty(steps)
    drift = np.empty(steps)
    bound = np.empty(steps)
    losses = np.empty(steps)
    b_now = balancedness(x, y)
    for t in range(steps):
        y_norm_sq = _sq_norm(y)
        if y_norm_sq <= ZERO_GRAD_EPS:
            raise NumericalError(f"y collapsed to zero at step {t}")
        resid = np.outer(x, y) - target
        losses[t] = 0.5 * _sq_norm(resid)
        g_norm = math.sqrt(_sq_norm(resid))
        if g_norm > ZERO_GRAD_EPS and rho > 0.0:
            x_tilde = x + (rho / (scale * g_norm * y_norm_sq)) * (resid @ y)
        else:
            x_tilde = x
        resid_tilde = np.outer(x_tilde, y) - target
        g_x = resid_tilde @ y
        g_y = resid_tilde.T @ x_tilde

        bal[t] = b_now
        bound[t] = abs(rho / scale) * math.sqrt(_sq_norm(g_x)) / math.sqrt(y_norm_sq)
        x = x - eta * g_x
        y = y - eta * g_y
        b_next = balancedness(x, y)
        drift[t] = abs(b_next - b_now) / eta
        b_now = b_next
    return BalancednessTrace(
        balancedness=bal,
        drift_rate=drift,
        bound_rhs=bound,
        losses=losses,
        final_balancedness=b_now,
    )


def loss_match_residual(
    net: Network,
    batch: Batch,
    layer_index: int,
    e_w_bar: Matrix,
    e_b: Matrix,
) -> tuple[float, float]:
    """Check the transfer identity on one layer of a live network.

    Returns (projected_diff, unprojected_residual): the first is
    |L(params with b + e_b) - L(params with dense offset e_w_bar projected
    onto the row space of a)|, which the transfer construction makes zero
    up to round-off; the second is the norm of the part of e_w_bar outside
    that row space, the component the low-rank move cannot represent.  The
    second number is informational, not an error.
    """
    n_layers = len(net.layers)
    if not (0 <= layer_index < n_layers):
        raise IndexError(f"layer_index {layer_index} out of range for {n_layers} layers")
    shifts: list[Matrix | None] = [None] * n_layers
    shifts[layer_index] = e_b
    with apply_b_perturbation(net, shifts):
        _, loss_lowrank = forward(net, batch)

    projector = row_space_projector(net.layers[layer_index].a)
    projected = e_w_bar @ projector
    offsets: list[Matrix | None] = [None] * n_layers
    offsets[layer_index] = projected
    _, loss_projected = forward_with_offsets(net, batch, offsets)

    unprojected = math.sqrt(_sq_norm(e_w_bar - projected))
    return abs(loss_lowrank - loss_projected), unprojected
