"""Self-checks of the identities the package is built on.

Each shared check draws its own cases and returns its worst residuals,
or whether an exact identity held: verify() runs it small for
`flatlora verify`, and the tests run it under their own seeds, sizes and
tolerances.  Checks only verify() runs live in its body.

Four oracles are defined here once, for verify() and the tests alike:
central_difference, reference_plan (the dense reconstruct ->
sam_direction -> transfer route), qr_pseudo_inverse and
pinv_factors_agreement.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .harness import (CSV_HEADER, ExperimentConfig, _build_student, _raising_errstate,
                      generate_task, make_step, run_experiment, run_paths, train_kinds)
from .linalg import (DEFAULT_TOL, Rng, _sq_norm, _worst, _worst_abs, col_space_projector,
                     make_rng, pseudo_inverse, row_space_projector)
from .model import (Batch, GradientSet, LoRALinear, Network, apply_b_perturbation, backward,
                    build_network, forward)
from .optimizers import (OPTIMIZER_KINDS, BaseUpdateConfig, _pinv_factors, base_update,
                         full_to_lowrank_perturbation, init_sgd_state,
                         perturbation_from_gradients, reconstruct_full_gradient, rho_at,
                         sam_direction)


def random_net(rng: Rng, dims, rank: int, scale: float = 1.0,
               activation: str = "tanh", loss: str = "mse") -> Network:
    """A random adapted network whose b factors are filled (they start at
    zero), so that column spaces are generic."""
    net = build_network(list(dims), rank=rank, scale=scale, rng=rng,
                        activation=activation, loss_kind=loss)
    for layer in net.layers:
        layer.b = 0.4 * rng.standard_normal(layer.b.shape)
    return net


def random_batch(rng: Rng, net: Network, k: int = 6) -> Batch:
    """k Gaussian inputs with one-hot targets under softmax-CE, Gaussian
    targets otherwise."""
    if net.loss_kind == "softmax-ce":
        targets = np.zeros((net.out_dim, k))
        targets[rng.integers(0, net.out_dim, size=k), np.arange(k)] = 1.0
    else:
        targets = rng.standard_normal((net.out_dim, k))
    return Batch(inputs=rng.standard_normal((net.in_dim, k)), targets=targets)


FD_EPS = 1e-6


def central_difference(net: Network, batch: Batch, mat: np.ndarray) -> np.ndarray:
    """Central differences (loss(+FD_EPS) - loss(-FD_EPS)) / (2 FD_EPS) of
    net's loss on batch in each entry of mat, one of net's parameter
    arrays, walked in np.ndindex order; each entry is put back exactly."""
    numeric = np.zeros_like(mat)
    for idx in np.ndindex(*mat.shape):
        orig = mat[idx]
        mat[idx] = orig + FD_EPS
        _, up = forward(net, batch)
        mat[idx] = orig - FD_EPS
        _, down = forward(net, batch)
        mat[idx] = orig
        numeric[idx] = (up - down) / (2.0 * FD_EPS)
    return numeric


def reference_plan(net: Network, grads: GradientSet,
                   rho: float) -> tuple[list[np.ndarray], list[np.ndarray], tuple[int, ...]]:
    """The dense route the steps' plan must reproduce, layer by layer:
    reconstruct the full gradient, scale it to rho (sam_direction) and
    transfer it onto b.  Returns (e_w_bar, e_b, degenerate_layers)."""
    e_w_bar, e_b, degenerate = [], [], []
    for i, layer in enumerate(net.layers):
        direction, flat = sam_direction(reconstruct_full_gradient(
            grads.grad_b[i], grads.grad_a[i], layer.a, layer.b, layer.scale), rho)
        if flat:
            degenerate.append(i)
        e_w_bar.append(direction)
        e_b.append(full_to_lowrank_perturbation(direction, layer.a, layer.scale))
    return e_w_bar, e_b, tuple(degenerate)


def qr_pseudo_inverse(m: np.ndarray, tol: float) -> np.ndarray:
    """m^+ as q @ t from the steps' QR route (_pinv_factors, looked up in
    this module), which takes a wide factor: a tall m goes in as its
    transpose."""
    tall = m.shape[0] > m.shape[1]
    q, t = _pinv_factors(m.T if tall else m, tol)
    p = q @ t
    return p.T if tall else p


def pinv_factors_agreement(rng: Rng, n_cases: int) -> float:
    """Worst entry of qr_pseudo_inverse - pseudo_inverse over n_cases
    random shapes up to 8 x 8, every fourth with a zero row and the first
    all zero."""
    worst = 0.0
    for trial in range(n_cases):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols))
        if trial % 4 == 0:
            m[0, :] = 0.0
        if trial == 0:
            m = np.zeros((rows, cols))
        worst = _worst(worst, _worst_abs(qr_pseudo_inverse(m, DEFAULT_TOL) - pseudo_inverse(m)))
    return worst


def algebraic_core(rng: Rng, n_cases: int) -> tuple[float, float, float]:
    """Worst (Moore-Penrose, projector, loss-match) residuals over n_cases
    random shapes up to 16 x 16.

    Every fourth matrix is rank-deficient.  The projector residual covers
    idempotence and symmetry of row- and column-space projectors and the
    row projector fixing a.  The loss match compares a norm-0.1 dense
    perturbation with its transfer onto b on a live one-layer network with
    init-scaled weights, the only kind of case the optimizer transfers.
    """
    penrose = projector = loss_match = 0.0
    for trial in range(n_cases):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 17))
        r = int(rng.integers(1, min(n, m) + 1))
        mat = rng.standard_normal((n, m))
        if trial % 4 == 0 and n > 1:
            mat[-1, :] = mat[0, :]
        p = pseudo_inverse(mat)
        penrose = _worst(penrose, _worst_abs(
            mat @ p @ mat - mat, p @ mat @ p - p, mat @ p - (mat @ p).T, p @ mat - (p @ mat).T
        ))
        a = rng.standard_normal((r, m))
        proj = row_space_projector(a)
        cproj = col_space_projector(rng.standard_normal((n, r)))
        projector = _worst(projector, _worst_abs(
            proj @ proj - proj, proj - proj.T, a @ proj - a, cproj @ cproj - cproj, cproj - cproj.T
        ))
        scale = float(rng.uniform(0.5, 2.0))
        layer = LoRALinear(
            w0=rng.standard_normal((n, m)) / np.sqrt(m),
            b=0.4 * rng.standard_normal((n, r)),
            a=rng.standard_normal((r, m)) * np.sqrt(2.0 / m),
            scale=scale,
        )
        net = Network(layers=[layer], activation="identity", loss_kind="mse")
        batch = random_batch(rng, net, k=4)
        e_w_bar, _ = sam_direction(rng.standard_normal((n, m)), 0.1)
        e_b = full_to_lowrank_perturbation(e_w_bar, layer.a, scale)
        diff, _ = diagnostics.loss_match_residual(net, batch, 0, e_w_bar, e_b)
        loss_match = _worst(loss_match, diff)
    return penrose, projector, loss_match


def gradient_fidelity(rng: Rng, n_nets: int) -> tuple[float, float]:
    """Worst (finite-difference relative error, chain-rule residual) over
    n_nets random 2-3 layer networks cycling tanh/relu/identity and
    mse/softmax-CE.  Every entry of both factors is compared with a central
    difference; the chain rule ties the factor gradients to the
    merged-weight gradient.  On a layer of the factored route backward
    builds the two apart, so the residual checks one against the other;
    on a layer of the merged route it takes the factor gradients through
    the merged-weight gradient, so the identity holds by construction
    there and the central differences are that layer's check."""
    fd_rel = chain = 0.0
    for trial in range(n_nets):
        depth = int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        rank = int(rng.integers(1, min(dims) + 1))
        net = random_net(rng, dims, rank, scale=float(rng.uniform(0.5, 2.0)),
                         activation=("tanh", "relu", "identity")[trial % 3],
                         loss=("mse", "softmax-ce")[trial % 2])
        batch = random_batch(rng, net, k=5)
        grads = backward(net, batch, want_full=True)
        for li, layer in enumerate(net.layers):
            for mat, grad in ((layer.b, grads.grad_b[li]), (layer.a, grads.grad_a[li])):
                numeric = central_difference(net, batch, mat)
                for idx in np.ndindex(*mat.shape):
                    denom = _worst(abs(numeric[idx]), abs(grad[idx]), 1e-8)
                    fd_rel = _worst(fd_rel, abs(numeric[idx] - grad[idx]) / denom)
            gw = grads.grad_w[li]
            chain = _worst(chain, _worst_abs(grads.grad_b[li] - layer.scale * (gw @ layer.a.T),
                                             grads.grad_a[li] - layer.scale * (layer.b.T @ gw)))
    return fd_rel, chain


def transfer_loss_match(rng: Rng, n_nets: int, rho: float) -> tuple[float, float]:
    """Worst (loss-match, unrepresented) residuals of each layer's plan at
    rho, shifted onto b, against reference_plan's dense direction, over
    n_nets random 6-5-3 rank-2 networks (see loss_match_residual)."""
    worst = unrepresented = 0.0
    for _ in range(n_nets):
        net = random_net(rng, (6, 5, 3), rank=2, scale=2.0)
        batch = random_batch(rng, net)
        grads = backward(net, batch)
        plan = perturbation_from_gradients(net, grads, rho)
        e_w_bar, _, _ = reference_plan(net, grads, rho)
        for li, e_w in enumerate(e_w_bar):
            diff, unproj = diagnostics.loss_match_residual(net, batch, li, e_w, plan.e_b[li])
            worst = _worst(worst, diff)
            unrepresented = _worst(unrepresented, unproj)
    return worst, unrepresented


def zero_radius_degeneration(cfg: ExperimentConfig) -> float:
    """Worst factor difference after cfg.steps steps at rho0 = 0 between
    plain training and each sharpness-aware kind from the same seed (the
    EMA shift is removed before comparing)."""
    cfg = dataclasses.replace(cfg, rho0=0.0)
    runs = train_kinds(cfg, generate_task(cfg), OPTIMIZER_KINDS)
    ref = runs.pop("lora").net
    worst = 0.0
    for run in runs.values():
        for lr_, ln in zip(ref.layers, run.net.layers):
            worst = _worst(worst, _worst_abs(lr_.b - ln.b, lr_.a - ln.a))
    return worst


def _shift_then_step(cfg: ExperimentConfig, net: Network, step, batch: Batch,
                     t: int) -> list[np.ndarray]:
    """eflat-lora's per-step shift e_t, built the step's way from the
    live (EMA-shifted) network just before step(batch, t) runs; both
    calls only read the network."""
    rho_t = rho_at(cfg.rho0, t, cfg.resolved_schedule())
    e_t = perturbation_from_gradients(net, backward(net, batch), rho_t,
                                      cfg.svd_tol).e_b
    step(batch, t)
    return e_t


def ema_closed_form(cfg: ExperimentConfig) -> tuple[float, float]:
    """Worst (closed-form, beta-one) residuals of eflat-lora's EMA.

    After cfg.steps steps the running EMA must equal the geometric sum
    over k of beta (1 - beta)^(T - k) e_k of the per-step shifts; with
    beta = 1 the EMA must equal the newest shift after each of 4 steps.
    Each e_k comes from backward and perturbation_from_gradients on the
    live network just before step k, at that step's radius.
    """
    cfg = dataclasses.replace(cfg, optimizer="eflat-lora")
    task = generate_task(cfg)
    net = _build_student(cfg, task)
    step, pstate = make_step(cfg, net)
    cfg1 = dataclasses.replace(cfg, beta=1.0)
    net1 = _build_student(cfg1, task)
    step1, pstate1 = make_step(cfg1, net1)
    closed = beta_one = 0.0
    with _raising_errstate():
        per_step = [_shift_then_step(cfg, net, step, task.train_batch(t), t)
                    for t in range(1, cfg.steps + 1)]
        for t in range(1, 5):
            last = _shift_then_step(cfg1, net1, step1, task.train_batch(t), t)
            for ema, e in zip(pstate1.ema_e_b, last):
                beta_one = _worst(beta_one, _worst_abs(ema - e))
    for li, ema in enumerate(pstate.ema_e_b):
        want = np.zeros_like(ema)
        for k, e_list in enumerate(per_step, start=1):
            want += cfg.beta * (1.0 - cfg.beta) ** (cfg.steps - k) * e_list[li]
        closed = _worst(closed, _worst_abs(want - ema))
    return closed, beta_one


def apply_revert_restores(rng: Rng) -> bool:
    """Whether apply_b_perturbation puts b + e in new arrays on a random
    6-5-3 rank-2 network, and revert() hands back the original b and a
    objects with their bytes."""
    net = random_net(rng, (6, 5, 3), rank=2, scale=2.0)
    before = [(layer.b, layer.a, layer.b.copy(), layer.a.copy()) for layer in net.layers]
    e_b = [0.1 * rng.standard_normal(layer.b.shape) for layer in net.layers]
    with apply_b_perturbation(net, e_b):
        shifted = all(layer.b is not b and np.array_equal(layer.b, b + e)
                      for layer, (b, *_), e in zip(net.layers, before, e_b))
    return shifted and all(layer.b is b and layer.a is a and np.array_equal(b, b0)
                           and np.array_equal(a, a0)
                           for layer, (b, a, b0, a0) in zip(net.layers, before))


def step_composition(cfg: ExperimentConfig) -> float:
    """Worst factor difference between one flat-lora step of cfg and its
    composition without an in-place shift: the plan at step 1's radius,
    the gradient at a shifted copy, base_update of the unshifted student."""
    cfg = dataclasses.replace(cfg, optimizer="flat-lora", steps=1)
    task = generate_task(cfg)
    live = train_kinds(cfg, task, ("flat-lora",))["flat-lora"].net
    ref = _build_student(cfg, task)
    batch = task.train_batch(1)
    rho = rho_at(cfg.rho0, 1, cfg.resolved_schedule())
    plan = perturbation_from_gradients(ref, backward(ref, batch), rho, cfg.svd_tol)
    probe = copy.deepcopy(ref)
    for layer, e in zip(probe.layers, plan.e_b):
        layer.b = layer.b + e
    opt = BaseUpdateConfig(learning_rate=cfg.learning_rate, momentum=cfg.momentum,
                           weight_decay=cfg.weight_decay)
    base_update(ref, backward(probe, batch), opt, init_sgd_state(ref))
    return _worst(*(_worst_abs(ll.b - lr_.b, ll.a - lr_.a)
                    for ll, lr_ in zip(live.layers, ref.layers)))


def drift_bound(n_seeds: int, rho: float, scale: float, steps: int) -> tuple[float, float]:
    """Worst (excess over 1.1 x ceiling, drift/ceiling ratio) of per-step
    balancedness drift in the perturbed factorisation flow (eta = 1e-4)
    toward a random 6 x 5 rank-one target, over seeds 0 .. n_seeds - 1."""
    excess, ratio = -math.inf, 0.0
    for seed in range(n_seeds):
        rng = make_rng([97, seed])
        target = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        trace = diagnostics.run_scale_invariant_flow(
            target, rho=rho, scale=scale, eta=1e-4, steps=steps, seed=seed
        )
        excess = _worst(excess, np.max(trace.drift_rate - 1.1 * trace.bound_rhs))
        ratio = _worst(ratio, np.max(trace.drift_rate / np.maximum(trace.bound_rhs, 1e-300)))
    return excess, ratio


def csv_replays(cfg: ExperimentConfig) -> bool:
    """Whether two runs of cfg write byte-identical metrics CSVs that start
    with the header."""
    with tempfile.TemporaryDirectory() as tmp:
        contents = []
        for name in ("a", "b"):
            out_dir = os.path.join(tmp, name)
            run_experiment(cfg, out_dir=out_dir)
            with open(run_paths(cfg, out_dir)[0], "rb") as fh:
                contents.append(fh.read())
    return contents[0] == contents[1] and contents[0].startswith(CSV_HEADER.encode())


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    residual: float
    tolerance: float
    note: str = ""

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status}  {self.name}: residual {self.residual:.3e} "
            f"(tol {self.tolerance:.1e})"
        )
        if self.note:
            line += f"  [{self.note}]"
        return line


@dataclass
class VerifyReport:
    checks: list[VerifyCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def format_lines(self) -> list[str]:
        lines = [c.format_line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks)} checks, {n_fail} failed"
            if n_fail
            else f"{len(self.checks)} checks, all passed"
        )
        return lines


def _tiny(**overrides) -> ExperimentConfig:
    """The small teacher-student problem the training checks of verify() share."""
    fields = dict(layer_dims=[6, 5, 3], rank=2, scale=2.0, batch_size=12, n_batches=3,
                  steps=30, eval_every=10, seed=7)
    return ExperimentConfig(**{**fields, **overrides})


def verify() -> VerifyReport:
    """Self-check suite covering the identities the package is built on.

    Each check exercises a property end to end on freshly generated
    problems and reports its worst residual against a fixed tolerance.
    The unrepresentable-component check is informational: it reports the
    size of the perturbation component outside the row space of a without
    ever failing on it.
    """
    checks: list[VerifyCheck] = []

    def add(name: str, residual: float, tolerance: float) -> None:
        checks.append(VerifyCheck(name, residual <= tolerance, residual, tolerance))

    def add_flag(name: str, ok: bool) -> None:
        add(name, 0.0 if ok else 1.0, 0.0)

    rng = make_rng(2026)
    penrose, projector, core_match = algebraic_core(rng, 30)
    add("pseudo_inverse_moore_penrose", penrose, 1e-9)

    add("pinv_factors_agreement", pinv_factors_agreement(rng, 30), 1e-9)
    add("row_projector_properties", projector, 1e-10)

    fd_rel, chain = gradient_fidelity(rng, 3)
    add("gradient_finite_difference", fd_rel, 1e-4)
    add("gradient_chain_identity", chain, 1e-10)

    match, residual_info = transfer_loss_match(rng, 5, 0.1)
    add("transfer_loss_match", _worst(core_match, match), 1e-10)
    checks.append(VerifyCheck("unrepresentable_component_report", True, residual_info, math.inf,
                              "informational: dense perturbation mass outside the row space of a"))

    add("rho_zero_degeneration", zero_radius_degeneration(_tiny(steps=25)), 1e-12)
    ema = ema_closed_form(_tiny(optimizer="eflat-lora", steps=10, rho0=0.08, beta=0.7))
    add("ema_closed_form", _worst(*ema), 1e-10)

    add_flag("apply_revert_bit_identical", apply_revert_restores(rng))
    add("step_composition_equivalence", step_composition(_tiny()), 1e-14)

    # Over 20 steps of each kind, the frozen base weights never move and
    # the gradient evaluations per step are exactly 1, 2, 2, 1.
    cfg_w = _tiny(steps=20)
    task = generate_task(cfg_w)
    frozen = [w.copy() for w in task.w0_list]  # students may share a read-only w0
    runs = train_kinds(cfg_w, task, OPTIMIZER_KINDS)
    add_flag("base_weights_frozen", all(
        np.array_equal(layer.w0, w0)
        for run in runs.values() for layer, w0 in zip(run.net.layers, frozen)
    ))
    expected_evals = {"lora": 1, "lora-sam": 2, "flat-lora": 2, "eflat-lora": 1}
    add_flag("grad_eval_counts", all(
        runs[kind].grad_evals == 20 * want for kind, want in expected_evals.items()
    ))

    # Sharpness probe on an exactly quadratic objective has a closed form.
    worst = 0.0
    mf_cfg = ExperimentConfig(
        task="matrix-factorization", layer_dims=[5, 4], rank=2, scale=1.0,
        optimizer="lora", steps=0, seed=3,
    )
    task = generate_task(mf_cfg)
    net_q = _build_student(mf_cfg, task)
    for layer in net_q.layers:
        layer.b = 0.5 * make_rng(11).standard_normal(layer.b.shape)
    batch_q = task.eval_batch
    grads_q = backward(net_q, batch_q, want_full=True)
    g_norm = math.sqrt(_sq_norm(grads_q.grad_w[0]))
    for rho in (0.01, 0.1, 0.5):
        measured = diagnostics.sharpness_sam(net_q, batch_q, rho)
        expected = rho * g_norm + 0.5 * rho * rho
        worst = _worst(worst, abs(measured - expected))
    add("sharpness_quadratic_closed_form", worst, 1e-9)

    # The brute-force neighborhood maximum dominates the one-direction probe.
    net_o = random_net(make_rng(21), (6, 5, 3), rank=2, scale=2.0)
    batch_o = random_batch(make_rng(22), net_o)
    s_probe = diagnostics.sharpness_sam(net_o, batch_o, 0.1)
    s_oracle = diagnostics.neighborhood_max_oracle(net_o, batch_o, 0.1)
    add("oracle_dominates_probe", _worst(s_probe - s_oracle, 0.0), 1e-12)

    excess, _ = drift_bound(2, rho=0.05, scale=2.0, steps=300)
    add("balancedness_drift_bound", _worst(excess, 0.0), 1e-9)

    # Gap-bound formula against a hand-computed value.
    consts = diagnostics.AssumptionConstants(
        tau_hat=2.0, grad_bound_hat=3.0, noise_var_hat=0.25
    )
    got = diagnostics.ema_sam_gap_bound(consts, rho0=0.1, beta=0.9, t=5)
    lhs = 2.0 * 0.1 / 2.0 + 3.0 + 0.25
    rhs = 0.1 / math.sqrt(5.0) + 0.1 * 0.1**4 + 0.1
    add("gap_bound_formula", abs(got - lhs * rhs), 1e-12)

    add_flag("csv_replay_determinism", csv_replays(_tiny(optimizer="eflat-lora")))
    return VerifyReport(checks=checks)
