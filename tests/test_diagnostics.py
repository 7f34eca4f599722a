"""Diagnostics correctness: sharpness probes against closed forms and
brute-force oracles, the gap-bound formula, assumption-constant estimates,
and balancedness conservation under the perturbed factorisation flow."""

import math

import numpy as np
import pytest

from flatlora import diagnostics
from flatlora.checks import random_batch, random_net, reference_plan, transfer_loss_match
from flatlora.linalg import NumericalError, ShapeError, make_rng
from flatlora.model import (
    Batch,
    LoRALinear,
    Network,
    backward,
    build_network,
    forward,
    forward_with_offsets,
)
from flatlora.diagnostics import (
    AssumptionConstants,
    balancedness,
    ema_sam_gap_bound,
    estimate_assumption_constants,
    loss_match_residual,
    neighborhood_max_oracle,
    network_balancedness,
    run_scale_invariant_flow,
    sam_probe,
    sharpness_ema,
    sharpness_sam,
)
from flatlora.optimizers import (
    BaseUpdateConfig,
    eflat_lora_step,
    init_perturb_state,
    init_sgd_state,
    perturbation_from_gradients,
)


def quadratic_net_and_batch(seed=0, dim=4):
    """Single identity layer fed the scaled identity batch, so the loss is
    exactly 0.5 * |W - M|_F^2 in the merged weight W."""
    rng = make_rng(seed)
    w0 = rng.standard_normal((dim, dim))
    layer = LoRALinear(w0=w0, b=rng.standard_normal((dim, dim)) * 0.2,
                       a=rng.standard_normal((dim, dim)), scale=1.0)
    net = Network(layers=[layer], activation="identity", loss_kind="mse")
    m_star = rng.standard_normal((dim, dim))
    root_k = np.sqrt(float(dim))
    batch = Batch(inputs=root_k * np.eye(dim), targets=root_k * m_star)
    return net, batch, m_star


def generic_net(seed=0, dims=(6, 5, 3), rank=2):
    rng = make_rng(seed)
    net = build_network(list(dims), rank=rank, scale=1.0, rng=rng)
    for layer in net.layers:
        layer.b = rng.standard_normal(layer.b.shape) * 0.3
    return net


def generic_batch(net, seed=0, k=8):
    rng = make_rng([seed, 5])
    return Batch(
        inputs=rng.standard_normal((net.in_dim, k)),
        targets=rng.standard_normal((net.out_dim, k)),
    )


# ----------------------------------------------------------------- sharpness

def test_sharpness_sam_quadratic_closed_form():
    """On an exactly quadratic loss the ascent probe is rho|g| + rho^2/2."""
    net, batch, m_star = quadratic_net_and_batch(seed=1)
    g_norm = float(np.linalg.norm(net.layers[0].merged_weight() - m_star))
    for rho in (0.01, 0.1, 0.5):
        got = sharpness_sam(net, batch, rho)
        want = rho * g_norm + 0.5 * rho * rho
        assert abs(got - want) < 1e-9, f"rho={rho}"


def test_sharpness_sam_leaves_parameters_untouched():
    net = generic_net(seed=2)
    batch = generic_batch(net, seed=2)
    before = [(l.w0.copy(), l.b.copy(), l.a.copy()) for l in net.layers]
    sharpness_sam(net, batch, rho=0.2)
    for layer, (w0, b, a) in zip(net.layers, before):
        assert np.array_equal(layer.w0, w0)
        assert np.array_equal(layer.b, b)
        assert np.array_equal(layer.a, a)


# The id names the ascent direction the probe takes, rho * g / ||g||.
@pytest.mark.parametrize("rho", [0.15], ids=["standard"])
def test_sam_probe_loss_is_forward_loss_and_increase_is_sharpness_sam(rho):
    for seed in range(4):
        net = generic_net(seed=seed)
        batch = generic_batch(net, seed=seed)
        loss, increase = sam_probe(net, batch, rho)
        assert loss.hex() == forward(net, batch)[1].hex()
        assert increase.hex() == sharpness_sam(net, batch, rho).hex()


def test_sharpness_sam_zero_rho_is_zero():
    net = generic_net(seed=3)
    assert sharpness_sam(net, generic_batch(net, seed=3), rho=0.0) == 0.0


def test_sharpness_ema_applied_and_unapplied_agree():
    net = generic_net(seed=4)
    batch = generic_batch(net, seed=4)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.9)
    rng = make_rng(5)
    for e in pstate.ema_e_b:
        e += rng.standard_normal(e.shape) * 0.05

    params_before = [l.b.copy() for l in net.layers]
    unapplied = sharpness_ema(net, batch, pstate)
    assert not pstate.applied
    for layer, saved in zip(net.layers, params_before):
        assert np.array_equal(layer.b, saved)

    pstate.apply(net)
    applied = sharpness_ema(net, batch, pstate)
    assert pstate.applied
    pstate.remove(net)
    for layer, saved in zip(net.layers, params_before):
        assert np.array_equal(layer.b, saved)

    # Both paths evaluate the same b + e and subtract the same two losses.
    assert applied == unapplied


def test_sharpness_ema_puts_applied_shift_back_when_a_pass_raises():
    rng = make_rng(1)
    net = random_net(rng, (6, 5, 3), rank=2)
    batch = random_batch(rng, net)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.9)
    opt, sgd = BaseUpdateConfig(learning_rate=0.05), init_sgd_state(net)
    for _ in range(3):
        eflat_lora_step(net, batch, pstate, opt, sgd)
    before = [layer.b.tobytes() for layer in net.layers]

    bad = Batch(inputs=batch.inputs, targets=np.zeros((7, batch.inputs.shape[1])))
    with pytest.raises(ShapeError):
        sharpness_ema(net, bad, pstate)
    assert pstate.applied
    assert [layer.b.tobytes() for layer in net.layers] == before
    eflat_lora_step(net, batch, pstate, opt, sgd)


def test_neighborhood_oracle_dominates_ascent_probe():
    for seed in range(4):
        net = generic_net(seed=seed)
        batch = generic_batch(net, seed=seed)
        rho = 0.15
        probe = sharpness_sam(net, batch, rho)
        oracle = neighborhood_max_oracle(net, batch, rho, seed=seed)
        assert oracle >= probe - 1e-12


def test_neighborhood_oracle_keeps_a_nan_loss(monkeypatch):
    """A NaN perturbed loss makes the oracle NaN, not its clean maximum
    (call 1 is sam_probe's, so call 6 is the 5th random direction)."""
    calls = []

    def nan_on_sixth(net, batch, offsets):
        calls.append(None)
        out, loss = forward_with_offsets(net, batch, offsets)
        return out, math.nan if len(calls) == 6 else loss

    net = generic_net(seed=1)
    batch = generic_batch(net, seed=1)
    monkeypatch.setattr(diagnostics, "forward_with_offsets", nan_on_sixth)
    assert math.isnan(neighborhood_max_oracle(net, batch, 0.15, seed=1))


# ----------------------------------------------------------------- gap bound

def test_gap_bound_hand_value():
    consts = AssumptionConstants(tau_hat=2.0, grad_bound_hat=3.0, noise_var_hat=0.5)
    rho0, beta, t = 0.1, 0.9, 5
    lhs = 2.0 * 0.1 / math.sqrt(4.0) + 3.0 + 0.5
    rhs = 0.1 / math.sqrt(5.0) + 0.1 * (0.1 ** 4) + 0.1
    assert abs(ema_sam_gap_bound(consts, rho0, beta, t) - lhs * rhs) < 1e-12


def test_gap_bound_requires_second_step():
    consts = AssumptionConstants(tau_hat=1.0, grad_bound_hat=1.0, noise_var_hat=0.0)
    with pytest.raises(ValueError):
        ema_sam_gap_bound(consts, 0.1, 0.9, 1)
    assert ema_sam_gap_bound(consts, 0.1, 0.9, 2) > 0.0


@pytest.mark.parametrize("rho0, beta", [
    (math.nan, 0.9), (math.inf, 0.9), (-0.1, 0.9),
    (0.1, 0.0), (0.1, 1.5), (0.1, math.nan),
])
def test_gap_bound_rejects_a_bad_radius_or_beta(rho0, beta):
    """A NaN or infinite rho0 would give a non-finite ceiling and a negative
    one a negative ceiling; beta follows PerturbState's (0, 1] rule."""
    consts = AssumptionConstants(tau_hat=2.0, grad_bound_hat=3.0, noise_var_hat=0.25)
    with pytest.raises(ValueError):
        ema_sam_gap_bound(consts, rho0, beta, 5)


def test_gap_bound_shrinks_with_t():
    consts = AssumptionConstants(tau_hat=1.0, grad_bound_hat=2.0, noise_var_hat=0.3)
    values = [ema_sam_gap_bound(consts, 0.2, 0.9, t) for t in (2, 10, 100, 10 ** 8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # The floor is (G + sigma^2) * rho0 as t grows.
    assert values[-1] == pytest.approx((2.0 + 0.3) * 0.2, rel=1e-3)


# ----------------------------------------------------------------- constants

def test_assumption_constants_deterministic_and_positive():
    net = generic_net(seed=6)
    rng = make_rng(7)
    batches = [generic_batch(net, seed=s) for s in range(4)]
    c1 = estimate_assumption_constants(net, batches, seed=3)
    c2 = estimate_assumption_constants(net, batches, seed=3)
    assert (c1.tau_hat, c1.grad_bound_hat, c1.noise_var_hat) == (
        c2.tau_hat, c2.grad_bound_hat, c2.noise_var_hat)
    assert c1.tau_hat > 0.0 and c1.grad_bound_hat > 0.0 and c1.noise_var_hat > 0.0


def test_assumption_constants_zero_noise_for_identical_batches():
    net = generic_net(seed=8)
    batch = generic_batch(net, seed=8)
    consts = estimate_assumption_constants(net, [batch, batch, batch])
    assert consts.noise_var_hat < 1e-20
    grads = backward(net, batch, want_full=True)
    pooled_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.grad_w))
    assert consts.grad_bound_hat == pytest.approx(pooled_norm, rel=1e-12)


@pytest.mark.parametrize("nan_call, field", [(2, "grad_bound_hat"), (7, "tau_hat")],
                         ids=["minibatch", "probe"])
def test_assumption_constants_keep_a_nan_gradient(monkeypatch, nan_call, field):
    """A NaN gradient makes the constant reduced over it NaN.  With three
    batches, call 1 is the pooled gradient, calls 2-4 the minibatches and
    calls 5 on the probes."""
    calls = []
    clean = diagnostics._flat_merged_gradient

    def nan_on_call(net, batch):
        calls.append(None)
        g = clean(net, batch)
        return np.full_like(g, math.nan) if len(calls) == nan_call else g

    net = generic_net(seed=6)
    batches = [generic_batch(net, seed=s) for s in range(3)]
    monkeypatch.setattr(diagnostics, "_flat_merged_gradient", nan_on_call)
    consts = estimate_assumption_constants(net, batches, seed=3)
    assert math.isnan(getattr(consts, field))


def test_assumption_constants_validation():
    net = generic_net()
    with pytest.raises(ValueError):
        estimate_assumption_constants(net, [])


def test_assumption_constants_restore_network():
    net = generic_net(seed=9)
    before = [(l.b.copy(), l.a.copy()) for l in net.layers]
    estimate_assumption_constants(net, [generic_batch(net, seed=9)])
    for layer, (b, a) in zip(net.layers, before):
        assert np.array_equal(layer.b, b)
        assert np.array_equal(layer.a, a)


# -------------------------------------------------------------- balancedness

def test_balancedness_hand_values():
    assert balancedness(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 10.0
    assert balancedness(np.ones(4), np.ones(4)) == 0.0
    net = generic_net(seed=10)
    manual = 0.5 * (sum(float(np.sum(l.b ** 2)) for l in net.layers)
                    - sum(float(np.sum(l.a ** 2)) for l in net.layers))
    assert network_balancedness(net) == pytest.approx(manual, abs=1e-15)


def test_flow_conserves_balancedness_without_perturbation():
    """rho = 0 is plain gradient descent on the factorisation; the ceiling
    is identically zero and the drift is pure discretisation error with a
    rate proportional to eta."""
    rng = make_rng(11)
    target = rng.standard_normal((5, 4))
    coarse = run_scale_invariant_flow(target, rho=0.0, scale=1.0,
                                      eta=1e-3, steps=400, seed=11)
    fine = run_scale_invariant_flow(target, rho=0.0, scale=1.0,
                                    eta=1e-4, steps=4000, seed=11)
    assert np.all(coarse.bound_rhs == 0.0)
    drift_coarse = abs(coarse.final_balancedness - coarse.balancedness[0])
    drift_fine = abs(fine.final_balancedness - fine.balancedness[0])
    # Same time horizon, one tenth the step size: drift shrinks about 10x.
    assert drift_fine < 0.2 * drift_coarse
    assert drift_coarse < 1e-2


def test_flow_drift_stays_under_ceiling_with_perturbation():
    rng = make_rng(12)
    target = rng.standard_normal((4, 4))
    trace = run_scale_invariant_flow(target, rho=0.05, scale=1.0,
                                     eta=1e-4, steps=300, seed=12)
    assert np.all(trace.drift_rate <= 1.1 * trace.bound_rhs + 1e-12)
    assert np.all(np.isfinite(trace.losses))


def test_flow_scale_enters_ceiling_inversely():
    """Doubling the merge scale halves the pulled-back perturbation and
    with it the drift ceiling.  The relation is exact in the prefactor;
    a vanishing rho keeps the evaluation point fixed so it shows cleanly."""
    rng = make_rng(13)
    target = rng.standard_normal((4, 3))
    t1 = run_scale_invariant_flow(target, rho=1e-8, scale=1.0,
                                  eta=1e-4, steps=50, seed=13)
    t2 = run_scale_invariant_flow(target, rho=1e-8, scale=2.0,
                                  eta=1e-4, steps=50, seed=13)
    assert t2.bound_rhs[0] == pytest.approx(0.5 * t1.bound_rhs[0], rel=1e-6)


def test_flow_validation_and_collapse():
    target = np.zeros((3, 3))
    with pytest.raises(ValueError):
        run_scale_invariant_flow(np.zeros(3), 0.1, 1.0, 1e-4, 10)
    with pytest.raises(ValueError):
        run_scale_invariant_flow(target, 0.1, 1.0, 1e-4, 0)
    with pytest.raises(ValueError):
        run_scale_invariant_flow(target, 0.1, 1.0, 0.0, 10)
    with pytest.raises(NumericalError):
        run_scale_invariant_flow(target, 0.1, 1.0, 1e-4, 10, init_scale=0.0)


@pytest.mark.parametrize("argument", ["target", "init_scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_flow_rejects_non_finite_target_and_init_scale(argument, bad):
    """A NaN or infinite target entry or init_scale would run the flow to
    an all-NaN trace (the collapse check is False for NaN); it is refused
    before step 0, with the argument named."""
    target = np.eye(3)
    init_scale = 1.0
    if argument == "target":
        target[0, 0] = bad
    else:
        init_scale = bad
    with pytest.raises(ValueError, match=argument):
        run_scale_invariant_flow(target, 0.1, 1.0, 1e-4, 3, init_scale=init_scale)


@pytest.mark.parametrize("rho, scale, eta", [
    (math.nan, 1.0, 1e-4), (math.inf, 1.0, 1e-4), (-0.1, 1.0, 1e-4),
    (0.1, 0.0, 1e-4), (0.1, -1.0, 1e-4), (0.1, math.nan, 1e-4), (0.1, math.inf, 1e-4),
    (0.1, 1.0, math.nan), (0.1, 1.0, math.inf),
])
def test_flow_rejects_a_bad_radius_scale_or_eta(rho, scale, eta):
    """Each of these would run to an all-NaN trace, a NaN or
    sign-flipped ceiling, or a bare ZeroDivisionError."""
    target = make_rng(14).standard_normal((3, 3))
    with pytest.raises(ValueError):
        run_scale_invariant_flow(target, rho, scale, eta, 10)


# ---------------------------------------------------------------- loss match

def plan_and_directions(net, batch, rho):
    """The steps' plan at rho and, per layer, the dense direction it
    transfers, taken by the reference route (reconstruct, normalise)."""
    grads = backward(net, batch)
    plan = perturbation_from_gradients(net, grads, rho)
    return plan, reference_plan(net, grads, rho)[0]


def test_loss_match_projected_difference_vanishes():
    """The low-rank shift reproduces the projected dense perturbation's
    loss exactly.  At rank 2 below the input dim 6 the dense direction has
    mass outside the row space of a, so the unprojected component is
    reported positive (0.214 here)."""
    diff, unrepresented = transfer_loss_match(make_rng(14), 3, 0.3)
    assert diff < 1e-10
    assert unrepresented > 0.0


def test_loss_match_full_row_rank_represents_everything():
    """With rank equal to the input dim nothing falls outside the row
    space, so the unprojected residual is round-off."""
    rng = make_rng(15)
    net = build_network([4, 4], rank=4, scale=1.0, rng=rng)
    net.layers[0].b = rng.standard_normal((4, 4)) * 0.3
    batch = generic_batch(net, seed=15)
    plan, e_w_bar = plan_and_directions(net, batch, rho=0.2)
    diff, unrepresented = loss_match_residual(
        net, batch, 0, e_w_bar[0], plan.e_b[0])
    assert diff < 1e-10
    assert unrepresented < 1e-10


def test_loss_match_restores_network_and_validates_index():
    net = generic_net(seed=16)
    batch = generic_batch(net, seed=16)
    plan, e_w_bar = plan_and_directions(net, batch, rho=0.1)
    before = [l.b.copy() for l in net.layers]
    originals = [l.b for l in net.layers]
    loss_match_residual(net, batch, 0, e_w_bar[0], plan.e_b[0])
    for layer, saved in zip(net.layers, before):
        assert np.array_equal(layer.b, saved)
    wrong_dim = Batch(inputs=batch.inputs,
                      targets=np.zeros((net.out_dim + 1, batch.inputs.shape[1])))
    with pytest.raises(ShapeError):
        loss_match_residual(net, wrong_dim, 0, e_w_bar[0], plan.e_b[0])
    for layer, original in zip(net.layers, originals):
        assert layer.b is original
    with pytest.raises(IndexError):
        loss_match_residual(net, batch, len(net.layers), e_w_bar[0],
                            plan.e_b[0])
    with pytest.raises(IndexError):
        loss_match_residual(net, batch, -1, e_w_bar[0], plan.e_b[0])
