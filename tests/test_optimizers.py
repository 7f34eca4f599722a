"""Optimizer-level identities: gradient reconstruction against projector
oracles, perturbation transfer, update semantics, the EMA state machine,
and memory accounting."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from flatlora.checks import (ema_closed_form, reference_plan, step_composition,
                             zero_radius_degeneration)
from flatlora.harness import ExperimentConfig
from flatlora.linalg import (
    _worst,
    _worst_abs,
    col_space_projector,
    make_rng,
    row_space_projector,
)
from flatlora.model import Batch, backward, build_network, forward
from flatlora import optimizers
from flatlora.optimizers import (
    _GRAM_GUARD,
    OPTIMIZER_KINDS,
    BaseUpdateConfig,
    OptimizerStateError,
    base_update,
    eflat_lora_step,
    flat_lora_step,
    full_to_lowrank_perturbation,
    init_perturb_state,
    init_sgd_state,
    lora_sam_step,
    lora_step,
    param_and_memory_counts,
    perturbation_from_gradients,
    reconstruct_full_gradient,
    rho_at,
    sam_direction,
)

RECON_TOL = 1e-9


def make_net(seed=0, dims=(6, 5, 3), rank=2, scale=1.0, nonzero_b=True):
    rng = make_rng(seed)
    net = build_network(list(dims), rank=rank, scale=scale, rng=rng)
    if nonzero_b:
        for layer in net.layers:
            layer.b = rng.standard_normal(layer.b.shape) * 0.4
    return net


def make_batch(net, seed=0, k=9):
    rng = make_rng([seed, 7])
    return Batch(
        inputs=rng.standard_normal((net.in_dim, k)),
        targets=rng.standard_normal((net.out_dim, k)),
    )


# ------------------------------------------------------------------ schedule

def test_rho_at_values_and_validation():
    assert rho_at(0.5, 1, "constant") == 0.5
    assert rho_at(0.5, 100, "constant") == 0.5
    assert abs(rho_at(0.5, 4, "inverse-sqrt") - 0.25) < 1e-15
    assert rho_at(0.5, 1, "inverse-sqrt") == 0.5
    with pytest.raises(ValueError):
        rho_at(0.5, 0)
    with pytest.raises(ValueError):
        rho_at(-0.1, 1)
    with pytest.raises(ValueError):
        rho_at(0.5, 1, "linear")


# ----------------------------------------------------------------- direction

def test_sam_direction_norm_and_alignment():
    rng = make_rng(1)
    g = rng.standard_normal((4, 6))
    d, degenerate = sam_direction(g, rho=0.3)
    assert not degenerate
    assert abs(np.linalg.norm(d) - 0.3) < 1e-12
    # Parallel to g: cross terms vanish.
    cos = float(np.sum(d * g)) / (np.linalg.norm(d) * np.linalg.norm(g))
    assert abs(cos - 1.0) < 1e-12


def test_sam_direction_degenerate_and_zero_rho():
    d, degenerate = sam_direction(np.zeros((3, 3)), rho=0.5)
    assert degenerate and np.array_equal(d, np.zeros((3, 3)))
    g = np.ones((2, 2))
    d, degenerate = sam_direction(g, rho=0.0)
    assert not degenerate and np.array_equal(d, np.zeros((2, 2)))


# ------------------------------------------------------------- reconstruction

def synthetic_factor_grads(rng, n, m, r, scale):
    """A dense gradient and the exact factor gradients it induces."""
    a = rng.standard_normal((r, m))
    b = rng.standard_normal((n, r))
    g = rng.standard_normal((n, m))
    return g, scale * (g @ a.T), scale * (b.T @ g), a, b


def test_reconstruction_equals_projected_average():
    """With exact chain-rule factor gradients the reconstruction equals
    0.5 * (G @ P_A + P_B @ G)."""
    rng = make_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, m) + 1))
        scale = float(rng.uniform(0.25, 4.0))
        g, gb, ga, a, b = synthetic_factor_grads(rng, n, m, r, scale)
        got = reconstruct_full_gradient(gb, ga, a, b, scale)
        want = 0.5 * (g @ row_space_projector(a) + col_space_projector(b) @ g)
        worst = _worst(worst, _worst_abs(got - want))
    assert worst < RECON_TOL


def test_reconstruction_recovers_dense_gradient_at_full_rank():
    """Square full-rank factors make both projectors the identity, so the
    reconstruction returns the dense gradient itself."""
    rng = make_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g, gb, ga, a, b = synthetic_factor_grads(rng, n, n, n, 1.5)
        got = reconstruct_full_gradient(gb, ga, a, b, 1.5)
        assert np.max(np.abs(got - g)) < RECON_TOL


def test_transfer_merged_effect_is_row_space_projection():
    """scale * e_b @ a equals e_w_bar projected onto the row space of a."""
    rng = make_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, m) + 1))
        scale = float(rng.uniform(0.5, 2.0))
        a = rng.standard_normal((r, m))
        e_w_bar = rng.standard_normal((n, m))
        e_b = full_to_lowrank_perturbation(e_w_bar, a, scale)
        merged = scale * (e_b @ a)
        want = e_w_bar @ row_space_projector(a)
        assert np.max(np.abs(merged - want)) < RECON_TOL


def test_plan_matches_composed_reference_route():
    """The fused per-step kernel agrees with the readable composition of
    reconstruct, normalise, transfer."""
    net = make_net(seed=5)
    batch = make_batch(net, seed=5)
    grads = backward(net, batch)
    rho = 0.2
    plan = perturbation_from_gradients(net, grads, rho)
    _, e_b, degenerate = reference_plan(net, grads, rho)
    assert degenerate == ()
    for got, want in zip(plan.e_b, e_b):
        assert np.max(np.abs(got - want)) < 1e-12
    assert plan.degenerate_layers == ()


def test_plan_normalizes_each_layer_to_rho():
    """Each layer's e_b is the transfer of a direction of norm rho."""
    net = make_net(seed=6, dims=(7, 6, 5, 2), rank=2)
    batch = make_batch(net, seed=6)
    rho = 0.37
    grads = backward(net, batch)
    plan = perturbation_from_gradients(net, grads, rho)
    e_w_bar, e_b, _ = reference_plan(net, grads, rho)
    for e in e_w_bar:
        assert abs(np.linalg.norm(e) - rho) < 1e-10
    for got, want in zip(plan.e_b, e_b):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_plan_flags_degenerate_layers_at_exact_minimum():
    """Targets equal to predictions zero the loss gradient, so every
    layer's reconstructed direction degenerates to zero."""
    net = make_net(seed=7)
    rng = make_rng(8)
    inputs = rng.standard_normal((net.in_dim, 5))
    preds, _ = forward(net, Batch(inputs=inputs, targets=np.zeros((net.out_dim, 5))))
    batch = Batch(inputs=inputs, targets=preds)
    grads = backward(net, batch)
    plan = perturbation_from_gradients(net, grads, rho=0.5)
    e_w_bar, _, _ = reference_plan(net, grads, 0.5)
    assert plan.degenerate_layers == tuple(range(len(net.layers)))
    for e_w, e_b in zip(e_w_bar, plan.e_b):
        assert np.array_equal(e_w, np.zeros_like(e_w))
        assert np.array_equal(e_b, np.zeros_like(e_b))
    assert plan.total_norm() == 0.0


def test_plan_rejects_a_bad_variant_or_tol(monkeypatch):
    """The plan checks tol up front, also when no factor falls back to SVD.
    The steps' direction slot takes "standard" alone: any other value
    raises before the step runs a backward sweep or touches a factor."""
    net = make_net(seed=10)
    batch = make_batch(net, seed=10)
    grads = backward(net, batch)
    for bad in (5.0, -1.0, 0.0):
        with pytest.raises(ValueError):
            perturbation_from_gradients(net, grads, 0.1, tol=bad)
    monkeypatch.setattr(optimizers, "backward", lambda *args: pytest.fail("backward ran"))
    cfg = BaseUpdateConfig(learning_rate=0.05)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.9)
    before = [(layer.b.tobytes(), layer.a.tobytes()) for layer in net.layers]
    for variant in ("signed", "sideways"):
        for step in (
            lambda: lora_sam_step(net, batch, 0.1, cfg, init_sgd_state(net), variant),
            lambda: flat_lora_step(net, batch, 0.1, cfg, init_sgd_state(net), variant),
            lambda: eflat_lora_step(net, batch, pstate, cfg, init_sgd_state(net),
                                    variant),
        ):
            with pytest.raises(ValueError, match="direction variant"):
                step()
    assert [(layer.b.tobytes(), layer.a.tobytes()) for layer in net.layers] == before
    assert pstate.step_index == 0 and not pstate.applied


def test_plan_handles_zero_b_factor_at_init():
    """Fresh networks have b = 0; the rank-deficient side must fall back
    cleanly instead of blowing up."""
    net = make_net(seed=9, nonzero_b=False)
    batch = make_batch(net, seed=9)
    grads = backward(net, batch)
    plan = perturbation_from_gradients(net, grads, rho=0.1)
    e_w_bar, _, _ = reference_plan(net, grads, 0.1)
    for e_w, e_b in zip(e_w_bar, plan.e_b):
        assert np.all(np.isfinite(e_w))
        assert np.all(np.isfinite(e_b))
        assert abs(np.linalg.norm(e_w) - 0.1) < 1e-10


def _a_with_cholesky_diag_ratio(rng, r, m, ratio):
    """An r x m factor whose Gram a @ a.T has a Cholesky factor with
    diagonal geomspace(1, ratio) and random entries below it, so the R of
    a.T's QR has |diag R| = geomspace(1, ratio) too."""
    t = np.tril(rng.standard_normal((r, r)), -1) * 0.3
    t[np.diag_indices(r)] = np.geomspace(1.0, ratio, r)
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return t @ q.T


# a's |diag R| ratio as a multiple of _GRAM_GUARD, for the cases that sweep
# the QR -> SVD switch from a quarter to four times the guard.
_GUARD_FACTORS = {"a-below-guard": 0.5, "a-above-guard": 2.0}
_GUARD_FACTORS.update(
    {f"a-at-{f}x-guard": f for f in (0.25, 0.9, 0.999, 1.001, 1.1, 4.0)})


# Each id ends in the ascent direction the plan takes, rho * g / ||g||.
@pytest.mark.parametrize("case", [
    "wide", "full-rank-square", "zero-b", "exact-minimum", *_GUARD_FACTORS,
], ids=lambda case: f"{case}-standard")
def test_factored_plan_matches_dense_oracle(case, monkeypatch):
    """The plan's e_b and its degenerate layers agree with the dense SVD
    reconstruct -> sam_direction -> transfer route, on both sides of the QR -> SVD switch for a, which fires
    exactly below the guard."""
    fallbacks = []
    original = optimizers.pseudo_inverse
    monkeypatch.setattr(optimizers, "pseudo_inverse",
                        lambda m, tol: fallbacks.append(m.shape) or original(m, tol))
    if case == "wide":
        net = make_net(seed=21, dims=(256, 256, 64), rank=8, scale=1.5)
    elif case == "full-rank-square":
        net = make_net(seed=22, dims=(5, 5, 5), rank=5, scale=0.8)
    elif case == "zero-b":
        net = make_net(seed=23, dims=(9, 7, 4), rank=3, nonzero_b=False)
    elif case == "exact-minimum":
        net = make_net(seed=23, dims=(9, 7, 4), rank=3)
    else:
        net = make_net(seed=24, dims=(9, 7, 4), rank=3, scale=1.7)
        ratio = _GUARD_FACTORS[case] * _GRAM_GUARD
        rng = make_rng(25)
        for layer in net.layers:
            layer.a = _a_with_cholesky_diag_ratio(rng, *layer.a.shape, ratio)
    batch = make_batch(net, seed=26)
    if case == "exact-minimum":
        batch = Batch(inputs=batch.inputs, targets=forward(net, batch)[0])
    grads = backward(net, batch)
    fallbacks.clear()
    plan = perturbation_from_gradients(net, grads, 0.3)
    want_fallbacks = []
    if case == "zero-b":
        want_fallbacks = [layer.b.T.shape for layer in net.layers]
    elif _GUARD_FACTORS.get(case, 1.0) < 1.0:
        want_fallbacks = [layer.a.shape for layer in net.layers]
    assert fallbacks == want_fallbacks
    _, e_b, degenerate = reference_plan(net, grads, 0.3)
    assert plan.degenerate_layers == degenerate
    assert degenerate == (
        tuple(range(len(net.layers))) if case == "exact-minimum" else ())
    for got, want in zip(plan.e_b, e_b):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_factored_plan_stays_below_a_dense_layer_in_memory():
    """One standard plan on a 256 x 256 rank-8 layer allocates under a
    quarter of one dense n x m float64 array, so building the dense
    reconstructed gradient fails this."""
    net = make_net(seed=27, dims=(256, 256), rank=8)
    grads = backward(net, make_batch(net, seed=27, k=4))
    perturbation_from_gradients(net, grads, 0.1)
    n, m = net.layers[0].w0.shape
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan = perturbation_from_gradients(net, grads, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert plan.degenerate_layers == ()
    assert peak < n * m * 8 / 4


def test_plan_keeps_only_its_transfer():
    """At 256-wide dims, rank 8, batch 64, what a plan still holds once
    built is its e_b, within 2 KB: neither the gradients nor the
    pseudo-inverses nor a dense direction.  Keeping the two
    pseudo-inverses reads 74,904 bytes against e_b's 20,480."""
    net = make_net(seed=29, dims=(256, 256, 64), rank=8)
    grads = backward(net, make_batch(net, seed=29, k=64))
    perturbation_from_gradients(net, grads, 0.1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        plan = perturbation_from_gradients(net, grads, 0.1)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert abs(held - sum(e.nbytes for e in plan.e_b)) <= 2048


def test_flat_lora_step_releases_its_plan_before_the_second_pass():
    """At 256-wide dims, rank 8, batch 64, a flat-lora step peaks within
    1.1x of a lora step: the first-pass gradients, pseudo-inverses and e_b
    are gone before the second backward.  Keeping the plan reads 1.24x."""
    net = make_net(seed=28, dims=(256, 256, 64), rank=8)
    batch = make_batch(net, seed=28, k=64)
    cfg = BaseUpdateConfig(learning_rate=1e-3)
    state = init_sgd_state(net)
    peaks = {}
    for name, step in (("lora", lambda: lora_step(net, batch, cfg, state)),
                       ("flat", lambda: flat_lora_step(net, batch, 0.05, cfg, state))):
        step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peaks["flat"] <= 1.1 * peaks["lora"]


def test_lora_sam_step_releases_its_gradients_before_the_second_pass():
    """At 256-wide dims, rank 8, batch 64, a lora-sam step peaks at most
    one copy of the adapter factors (the shifted factors) plus 2 KB above
    a lora step: the first-pass gradients and the directions are gone
    before the second backward.  Keeping either adds another 53,248
    bytes, the size of all factors."""
    net = make_net(seed=28, dims=(256, 256, 64), rank=8)
    batch = make_batch(net, seed=28, k=64)
    cfg = BaseUpdateConfig(learning_rate=1e-3)
    state = init_sgd_state(net)
    factor_bytes = sum(layer.b.nbytes + layer.a.nbytes for layer in net.layers)
    peaks = {}
    for name, step in (("lora", lambda: lora_step(net, batch, cfg, state)),
                       ("sam", lambda: lora_sam_step(net, batch, 0.05, cfg, state))):
        step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peaks["sam"] <= peaks["lora"] + factor_bytes + 2048


# ------------------------------------------------------------------- updates

def test_base_update_plain_sgd():
    """Without momentum and weight decay, two updates on one SgdState are
    param - lr * grad exactly: the velocity keeps nothing between steps."""
    net = make_net(seed=10)
    state = init_sgd_state(net)
    for seed in (10, 11):
        grads = backward(net, make_batch(net, seed=seed))
        expect_b = [l.b - 0.1 * gb for l, gb in zip(net.layers, grads.grad_b)]
        expect_a = [l.a - 0.1 * ga for l, ga in zip(net.layers, grads.grad_a)]
        base_update(net, grads, BaseUpdateConfig(learning_rate=0.1), state)
        for layer, eb, ea in zip(net.layers, expect_b, expect_a):
            assert np.array_equal(layer.b, eb)
            assert np.array_equal(layer.a, ea)


def test_base_update_momentum_and_weight_decay():
    """Two steps against a hand-rolled velocity recurrence."""
    net = make_net(seed=11)
    batch = make_batch(net, seed=11)
    cfg = BaseUpdateConfig(learning_rate=0.05, momentum=0.9, weight_decay=0.01)
    state = init_sgd_state(net)

    mirror = copy.deepcopy(net)
    vel_b = [np.zeros_like(l.b) for l in mirror.layers]
    vel_a = [np.zeros_like(l.a) for l in mirror.layers]
    for _ in range(2):
        grads = backward(net, batch)
        mirror_grads = backward(mirror, batch)
        base_update(net, grads, cfg, state)
        for i, layer in enumerate(mirror.layers):
            vel_b[i] = 0.9 * vel_b[i] + mirror_grads.grad_b[i] + 0.01 * layer.b
            layer.b = layer.b - 0.05 * vel_b[i]
            vel_a[i] = 0.9 * vel_a[i] + mirror_grads.grad_a[i] + 0.01 * layer.a
            layer.a = layer.a - 0.05 * vel_a[i]
    for got, want in zip(net.layers, mirror.layers):
        assert np.max(np.abs(got.b - want.b)) < 1e-13
        assert np.max(np.abs(got.a - want.a)) < 1e-13


def test_base_update_config_validation():
    with pytest.raises(ValueError):
        BaseUpdateConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        BaseUpdateConfig(learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        BaseUpdateConfig(learning_rate=0.1, weight_decay=-0.1)


def test_base_update_rejects_mismatched_gradients():
    net = make_net()
    grads = backward(net, make_batch(net))
    grads.grad_b.append(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        base_update(net, grads, BaseUpdateConfig(learning_rate=0.1),
                    init_sgd_state(net))


# --------------------------------------------------------------------- steps

def test_step_gradient_eval_counts():
    cfg = BaseUpdateConfig(learning_rate=0.02)
    net = make_net(seed=12)
    batch = make_batch(net, seed=12)
    assert lora_step(net, batch, cfg, init_sgd_state(net)).grad_evals == 1
    assert lora_sam_step(net, batch, 0.05, cfg, init_sgd_state(net)).grad_evals == 2
    assert flat_lora_step(net, batch, 0.05, cfg, init_sgd_state(net)).grad_evals == 2
    pstate = init_perturb_state(net, rho0=0.05, beta=0.9)
    assert eflat_lora_step(net, batch, pstate, cfg, init_sgd_state(net)).grad_evals == 1


def test_lora_step_descends_on_fixed_batch():
    net = make_net(seed=13)
    batch = make_batch(net, seed=13)
    cfg = BaseUpdateConfig(learning_rate=0.05)
    state = init_sgd_state(net)
    _, before = forward(net, batch)
    for _ in range(50):
        lora_step(net, batch, cfg, state)
    _, after = forward(net, batch)
    assert after < before


def test_two_pass_steps_revert_perturbation_before_update():
    """After a flat step, parameters equal start minus lr times the
    perturbed-point gradient; no perturbation residue remains."""
    net = make_net(seed=14)
    stats = flat_lora_step(net, make_batch(net, seed=14), 0.1,
                           BaseUpdateConfig(learning_rate=0.03), init_sgd_state(net))
    assert stats.perturb_norm > 0.0
    assert math.isfinite(stats.loss_original) and math.isfinite(stats.loss_perturbed)
    assert step_composition(ExperimentConfig(
        layer_dims=[6, 5, 3], rank=2, learning_rate=0.03, rho0=0.1, batch_size=9,
        n_batches=1, seed=14)) == 0.0


@pytest.mark.parametrize("step", [lora_sam_step, flat_lora_step],
                         ids=["lora-sam", "flat-lora"])
def test_two_pass_steps_revert_when_the_perturbed_pass_raises(step, monkeypatch):
    """A second backward that raises leaves every factor the very object it
    was before the step: the shift is reverted on the way out."""
    net = make_net(seed=31)
    batch = make_batch(net, seed=31)
    originals = [(layer.b, layer.a) for layer in net.layers]
    calls = []

    def second_call_raises(net_, batch_, backward=optimizers.backward):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("overflow in the perturbed pass")
        return backward(net_, batch_)

    monkeypatch.setattr(optimizers, "backward", second_call_raises)
    with pytest.raises(FloatingPointError):
        step(net, batch, 0.1, BaseUpdateConfig(learning_rate=0.05), init_sgd_state(net))
    assert len(calls) == 2
    for layer, (b, a) in zip(net.layers, originals):
        assert layer.b is b and layer.a is a


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"])
def test_entry_points_reject_a_bad_radius_or_decay(bad):
    """Every library entry point that takes a radius refuses one that is not
    finite and >= 0, and the update config refuses a decay that is not;
    a two-pass step raises before it shifts any factor."""
    net = make_net(seed=32)
    batch = make_batch(net, seed=32)
    grads = backward(net, batch)
    with pytest.raises(ValueError):
        rho_at(bad, 3)
    with pytest.raises(ValueError):
        rho_at(bad, 3, "inverse-sqrt")
    with pytest.raises(ValueError):
        init_perturb_state(net, rho0=bad, beta=0.9)
    with pytest.raises(ValueError):
        sam_direction(grads.grad_b[0], bad)
    with pytest.raises(ValueError):
        sam_direction(np.zeros((2, 2)), bad)
    with pytest.raises(ValueError):
        perturbation_from_gradients(net, grads, bad)
    if bad != -0.1:
        with pytest.raises(ValueError):
            BaseUpdateConfig(learning_rate=0.1, weight_decay=bad)
    originals = [(layer.b, layer.a) for layer in net.layers]
    for step in (lora_sam_step, flat_lora_step):
        with pytest.raises(ValueError):
            step(net, batch, bad, BaseUpdateConfig(learning_rate=0.05), init_sgd_state(net))
        for layer, (b, a) in zip(net.layers, originals):
            assert layer.b is b and layer.a is a


def _zero_rho_config(seed):
    return ExperimentConfig(layer_dims=[6, 5, 3], rank=2, learning_rate=0.04,
                            batch_size=9, n_batches=5, steps=5, seed=seed)


def test_zero_rho_two_pass_steps_match_plain_lora():
    """rho = 0 collapses every sharpness-aware variant, the two-pass steps
    and eflat-lora alike, onto plain training, trajectory-exact."""
    assert zero_radius_degeneration(_zero_rho_config(15)) == 0.0


def test_eflat_zero_rho_matches_plain_lora():
    assert zero_radius_degeneration(_zero_rho_config(16)) == 0.0


# ----------------------------------------------------------------- EMA state

def test_eflat_leaves_network_perturbed_between_steps():
    net = make_net(seed=17)
    batch = make_batch(net, seed=17)
    cfg = BaseUpdateConfig(learning_rate=0.02)
    state = init_sgd_state(net)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.9)

    stats1 = eflat_lora_step(net, batch, pstate, cfg, state)
    assert pstate.applied and pstate.step_index == 1
    assert math.isfinite(stats1.loss_original) and math.isnan(stats1.loss_perturbed)

    stats2 = eflat_lora_step(net, batch, pstate, cfg, state)
    assert math.isnan(stats2.loss_original) and math.isfinite(stats2.loss_perturbed)

    # remove() strips exactly the EMA perturbation.
    perturbed = [layer.b.copy() for layer in net.layers]
    pstate.remove(net)
    for layer, pb, e in zip(net.layers, perturbed, pstate.ema_e_b):
        assert np.max(np.abs(pb - (layer.b + e))) < 1e-15
    pstate.apply(net)


def test_perturb_state_remove_restores_original_objects():
    net = make_net(seed=18)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.9)
    for e in pstate.ema_e_b:
        e += 0.25
    originals = [layer.b for layer in net.layers]
    pstate.apply(net)
    assert pstate.applied
    assert all(layer.b is not b for layer, b in zip(net.layers, originals))
    pstate.remove(net)
    assert not pstate.applied
    assert all(layer.b is b for layer, b in zip(net.layers, originals))


def test_perturb_state_misuse_errors():
    net = make_net(seed=18)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.9)
    with pytest.raises(OptimizerStateError):
        pstate.remove(net)
    pstate.apply(net)
    with pytest.raises(OptimizerStateError):
        pstate.apply(net)
    with pytest.raises(OptimizerStateError):
        pstate.remove(copy.deepcopy(net))
    pstate.remove(net)

    # A state claiming to be mid-run but unapplied is rejected by the step.
    stale = init_perturb_state(net, rho0=0.1, beta=0.9)
    stale.step_index = 3
    with pytest.raises(OptimizerStateError):
        eflat_lora_step(net, make_batch(net, seed=18), stale,
                        BaseUpdateConfig(learning_rate=0.01), init_sgd_state(net))


def test_perturb_state_validation():
    net = make_net()
    with pytest.raises(ValueError):
        init_perturb_state(net, rho0=0.1, beta=0.0)
    with pytest.raises(ValueError):
        init_perturb_state(net, rho0=0.1, beta=1.5)
    with pytest.raises(ValueError):
        init_perturb_state(net, rho0=-0.1, beta=0.9)


def _ema_residuals(seed):
    return ema_closed_form(ExperimentConfig(
        layer_dims=[6, 5, 3], rank=2, optimizer="eflat-lora", learning_rate=0.02,
        rho0=0.15, beta=0.7, batch_size=9, n_batches=6, steps=6, seed=seed))


def test_ema_matches_closed_form_sum():
    """After T steps the EMA equals sum_k beta * (1-beta)^(T-k) * e_k with
    e_k the recorded per-step perturbations."""
    closed, _ = _ema_residuals(19)
    assert closed < 1e-10


def test_ema_beta_one_keeps_only_latest():
    """With beta = 1 the EMA equals the newest perturbation after each of
    4 steps."""
    _, beta_one = _ema_residuals(20)
    assert beta_one < 1e-15


# -------------------------------------------------------------------- memory

def test_memory_counts_unknown_kind():
    net = make_net()
    with pytest.raises(ValueError):
        param_and_memory_counts(net, "adamw")
    assert set(OPTIMIZER_KINDS) == {"lora", "lora-sam", "flat-lora", "eflat-lora"}


def test_cached_identity_stays_the_identity_through_flat_and_eflat_rounds():
    """_pinv_factors hands dtrtrs one read-only identity per rank; after a
    flat-lora round and an eflat-lora round at ranks 1 to 8 it is still
    np.eye(r), the same array, and refuses a write."""
    cfg = BaseUpdateConfig(learning_rate=0.02)
    for r in range(1, 9):
        net = make_net(seed=50 + r, dims=(10, 9, 8), rank=r)
        batch = make_batch(net, seed=r)
        flat_lora_step(net, batch, 0.05, cfg, init_sgd_state(net))
        pstate = init_perturb_state(net, rho0=0.05, beta=0.9)
        state = init_sgd_state(net)
        for _ in range(2):
            eflat_lora_step(net, batch, pstate, cfg, state)
        eye = optimizers._identity(r)
        assert eye is optimizers._identity(r) and not eye.flags.writeable
        assert np.array_equal(eye, np.eye(r)) and eye.dtype == np.float64
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0
