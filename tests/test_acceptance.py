"""Acceptance suite: one test per shipped guarantee, each printing a single
pass/fail line.  Tolerances and sample counts are part of the contract; do
not loosen them to make a failing build green."""

import dataclasses
import time

import numpy as np

from conftest import acceptance_lines

from flatlora import diagnostics
from flatlora.checks import (_worst, _worst_abs, algebraic_core, csv_replays, drift_bound,
                             ema_closed_form, gradient_fidelity, random_batch, random_net,
                             verify, zero_radius_degeneration)
from flatlora.harness import (
    ExperimentConfig,
    _build_student,
    bench,
    generate_task,
    run_experiment,
    train_kinds,
)
from flatlora.linalg import make_rng, row_space_projector, col_space_projector
from flatlora.model import PerturbationHandle, backward, build_network, forward
from flatlora.optimizers import param_and_memory_counts, reconstruct_full_gradient


def _report(criterion: str, ok: bool, detail: str) -> None:
    """One line per criterion, echoed inline and again in the terminal
    summary so the verdicts survive output capture."""
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    acceptance_lines.append(line)
    assert ok, line


def test_algebraic_core_on_randomized_configurations():
    """Pseudo-inverse conditions, projector properties, and the projected
    loss-match identity across 1000 random dims/ranks, under 30 seconds."""
    t0 = time.perf_counter()
    n_cases = 1000
    worst_mp, worst_proj, worst_match = algebraic_core(make_rng(1001), n_cases)
    elapsed = time.perf_counter() - t0
    ok = worst_mp <= 1e-9 and worst_proj <= 1e-10 and worst_match <= 1e-10 and elapsed < 30.0
    _report(
        "algebraic-core",
        ok,
        f"{n_cases} cases: penrose={worst_mp:.2e}<=1e-9, "
        f"projector={worst_proj:.2e}<=1e-10, loss-match={worst_match:.2e}<=1e-10, "
        f"{elapsed:.1f}s<30s",
    )


def test_gradient_fidelity_against_finite_differences():
    """Analytic adapter gradients vs central differences on 100 random
    networks (every entry of both factors), plus the exact chain tie
    between factor gradients and the merged-weight gradient."""
    n_nets = 100
    worst_rel, worst_chain = gradient_fidelity(make_rng(1002), n_nets)
    ok = worst_rel < 1e-4 and worst_chain <= 1e-10
    _report(
        "gradient-fidelity",
        ok,
        f"{n_nets} nets: fd-rel={worst_rel:.2e}<1e-4, chain={worst_chain:.2e}<=1e-10",
    )


def test_full_gradient_reconstruction_identity():
    """The reconstructed dense gradient equals the projected average of the
    true merged-weight gradient on 210 live networks, and equals the true
    gradient itself whenever the factors are square and full rank."""
    rng = make_rng(1003)
    worst_generic = 0.0
    n_generic = 150
    for _ in range(n_generic):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        rank = int(rng.integers(1, min(dims) + 1))
        net = random_net(rng, dims, rank, scale=float(rng.uniform(0.5, 2.0)))
        batch = random_batch(rng, net, k=5)
        grads = backward(net, batch, want_full=True)
        for li, layer in enumerate(net.layers):
            got = reconstruct_full_gradient(
                grads.grad_b[li], grads.grad_a[li], layer.a, layer.b, layer.scale
            )
            gw = grads.grad_w[li]
            want = 0.5 * (gw @ row_space_projector(layer.a)
                          + col_space_projector(layer.b) @ gw)
            worst_generic = _worst(worst_generic, _worst_abs(got - want))

    worst_square = 0.0
    n_square = 60
    for _ in range(n_square):
        d = int(rng.integers(2, 7))
        net = random_net(rng, [d, d], rank=d, scale=float(rng.uniform(0.5, 2.0)))
        batch = random_batch(rng, net, k=5)
        grads = backward(net, batch, want_full=True)
        got = reconstruct_full_gradient(
            grads.grad_b[0], grads.grad_a[0], net.layers[0].a, net.layers[0].b,
            net.layers[0].scale,
        )
        worst_square = _worst(worst_square, _worst_abs(got - grads.grad_w[0]))
    ok = worst_generic <= 1e-9 and worst_square <= 1e-9
    _report(
        "gradient-reconstruction",
        ok,
        f"{n_generic}+{n_square} cases: projected={worst_generic:.2e}<=1e-9, "
        f"full-rank-square={worst_square:.2e}<=1e-9",
    )


def test_zero_radius_degenerates_to_plain_training():
    """At rho = 0 every sharpness-aware step reproduces the plain step's
    trajectory from the same seed."""
    cfg_base = ExperimentConfig(layer_dims=[6, 5, 3], rank=2, optimizer="lora",
                                learning_rate=0.05, rho0=0.0, batch_size=8,
                                n_batches=3, steps=30, seed=12)
    worst = zero_radius_degeneration(cfg_base)
    ok = worst <= 1e-12
    _report("zero-radius-degeneration", ok,
            f"3 variants x 30 steps: worst diff={worst:.2e}<=1e-12")


def test_ema_perturbation_closed_form():
    """The running EMA equals its geometric closed form after 10 steps, and
    beta = 1 keeps only the newest perturbation."""
    cfg = ExperimentConfig(layer_dims=[6, 5, 3], rank=2, optimizer="eflat-lora",
                           learning_rate=0.05, rho0=0.08, beta=0.7,
                           batch_size=8, n_batches=3, steps=10, seed=5)
    worst, worst_beta1 = ema_closed_form(cfg)
    ok = worst <= 1e-10 and worst_beta1 <= 1e-10
    _report("ema-closed-form", ok,
            f"10 steps: closed-form={worst:.2e}<=1e-10, beta=1 residual="
            f"{worst_beta1:.2e}")


def test_balancedness_drift_bound_in_flow():
    """Discretised perturbed factorisation flow: per-step balancedness
    drift never exceeds its theoretical ceiling times 1.1, across 5 seeds
    and 1000 steps each, in under 10 seconds."""
    t0 = time.perf_counter()
    worst_excess, worst_ratio = drift_bound(5, rho=0.1, scale=1.0, steps=1000)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and elapsed < 10.0
    _report(
        "balancedness-drift-bound",
        ok,
        f"5 seeds x 1000 steps: max drift/bound={worst_ratio:.3f}<=1.1, "
        f"{elapsed:.1f}s<10s",
    )


def test_ema_gap_decays_under_decaying_radius():
    """With the inverse-sqrt radius schedule, the EMA-vs-exact sharpness gap
    over the last tenth of training falls below the first tenth on at
    least 4 of 5 seeds, and every recorded gap sits under the assumption-
    based ceiling with a 10x slack."""
    decays = 0
    worst_rel = 0.0
    details = []
    for seed in range(5):
        cfg = ExperimentConfig(
            task="teacher-student", layer_dims=[8, 8, 4], rank=3,
            optimizer="eflat-lora", learning_rate=0.05, rho0=0.1, beta=0.9,
            batch_size=32, n_batches=6, noise_std=0.1, steps=300,
            eval_every=10, seed=seed,
        )
        task = generate_task(cfg)
        consts = diagnostics.estimate_assumption_constants(
            _build_student(cfg, task), task.train_batches, seed=seed
        )
        records, _ = run_experiment(cfg)
        early = [r.gap for r in records if r.step <= cfg.steps // 10]
        late = [r.gap for r in records if r.step > cfg.steps - cfg.steps // 10]
        if float(np.mean(late)) < float(np.mean(early)):
            decays += 1
        rel = _worst(*(
            r.gap / diagnostics.ema_sam_gap_bound(consts, cfg.rho0, cfg.beta, r.step)
            for r in records
            if r.step >= 2
        ))
        worst_rel = _worst(worst_rel, rel)
        details.append(f"s{seed}:{np.mean(early):.4f}->{np.mean(late):.4f}")
    ok = decays >= 4 and worst_rel <= 10.0
    _report(
        "ema-gap-decay",
        ok,
        f"decayed {decays}/5 seeds (need >=4), max gap/bound={worst_rel:.3f}<=10; "
        + " ".join(details),
    )


def test_sharpness_reduction_at_matched_fit():
    """Mean final ascent-direction sharpness over 5 seeds: the transferred
    two-pass variant lands at or below plain training, the single-pass EMA
    variant within 1.5x of it, with final train losses matched within 2x."""
    rho_probe = 0.3
    kinds = ("lora", "flat-lora", "eflat-lora")
    sharp = {k: [] for k in kinds}
    losses = {k: [] for k in kinds}
    for seed in range(5):
        base = ExperimentConfig(
            task="teacher-student", layer_dims=[12, 12, 3], rank=3,
            optimizer="lora", learning_rate=0.1, rho0=rho_probe,
            batch_size=8, n_batches=4, noise_std=0.2, steps=2000, seed=seed,
        )
        task = generate_task(base)
        for kind, run in train_kinds(base, task, kinds).items():
            losses[kind].append(
                float(np.mean([forward(run.net, b)[1] for b in task.train_batches]))
            )
            # One fixed probe radius for every optimizer, so the numbers
            # compare like for like.
            sharp[kind].append(diagnostics.sharpness_sam(run.net, task.eval_batch,
                                                         rho_probe))
    mean_sharp = {k: float(np.mean(v)) for k, v in sharp.items()}
    mean_loss = {k: float(np.mean(v)) for k, v in losses.items()}
    loss_values = list(mean_loss.values())
    matched = np.max(loss_values) <= 2.0 * np.min(loss_values)
    flat_ok = mean_sharp["flat-lora"] <= mean_sharp["lora"]
    eflat_ok = mean_sharp["eflat-lora"] <= 1.5 * mean_sharp["flat-lora"]
    ok = matched and flat_ok and eflat_ok
    _report(
        "sharpness-reduction",
        ok,
        f"mean sharpness lora={mean_sharp['lora']:.3f}, "
        f"flat={mean_sharp['flat-lora']:.3f}<=lora, "
        f"eflat={mean_sharp['eflat-lora']:.3f}<=1.5x flat; "
        f"train losses within {np.max(loss_values) / np.min(loss_values):.2f}x<=2x",
    )


def test_efficiency_ratios_on_default_config():
    """Per-step wall-time ratios against plain training on the default
    config sit in the published bands, and gradient-evaluation ratios are
    exactly 2x and 1x."""
    cfg = dataclasses.replace(ExperimentConfig(), steps=250)
    report = bench(cfg, repeats=3)
    by_kind = {e.optimizer: e for e in report.entries}
    flat_ratio = by_kind["flat-lora"].ratio_vs_lora
    eflat_ratio = by_kind["eflat-lora"].ratio_vs_lora
    flat_evals = by_kind["flat-lora"].grad_eval_ratio_vs_lora
    eflat_evals = by_kind["eflat-lora"].grad_eval_ratio_vs_lora
    ok = (
        1.6 <= flat_ratio <= 2.4
        and 0.95 <= eflat_ratio <= 1.4
        and flat_evals == 2.0
        and eflat_evals == 1.0
    )
    _report(
        "efficiency-ratios",
        ok,
        f"wall flat/lora={flat_ratio:.2f} in [1.6,2.4], "
        f"eflat/lora={eflat_ratio:.2f} in [0.95,1.4]; "
        f"grad-eval ratios {flat_evals:.0f}x/{eflat_evals:.0f}x (exact); median ms/step "
        + ", ".join(f"{e.optimizer}={e.median_step_ms:.3f}" for e in report.entries),
    )


def test_parameter_and_memory_accounting():
    """Trainable counts are exactly the summed factor sizes and the extra
    multipliers are 0/1/1.5/2 across 20 random architectures."""
    rng = make_rng(1010)
    n_arch = 20
    ok = True
    for _ in range(n_arch):
        depth = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 20)) for _ in range(depth + 1)]
        rank = int(rng.integers(1, min(dims) + 1))
        net = build_network(dims, rank=rank, scale=1.0, rng=rng)
        want_trainable = sum(n * rank + rank * m for m, n in zip(dims, dims[1:]))
        for kind, mult in (("lora", 0.0), ("lora-sam", 1.0),
                           ("flat-lora", 1.5), ("eflat-lora", 2.0)):
            counts = param_and_memory_counts(net, kind)
            ok = ok and counts.trainable == want_trainable
            ok = ok and counts.extra == mult * want_trainable
    _report("memory-accounting", ok,
            f"{n_arch} architectures: trainable=sum(n*r+r*m), extras 0/1/1.5/2x")


def test_determinism_and_self_check_contract(monkeypatch):
    """The self-check suite exits 0 on the shipped code, any config+seed
    replays a byte-identical CSV, and a build whose perturbation revert is
    a silent no-op makes the suite exit nonzero."""
    clean = verify()
    clean_ok = clean.all_passed and clean.exit_code() == 0

    cfg = ExperimentConfig(layer_dims=[6, 5, 3], rank=2, optimizer="eflat-lora",
                           learning_rate=0.05, rho0=0.05, batch_size=8,
                           n_batches=3, steps=30, eval_every=10, seed=9)
    replay_ok = csv_replays(cfg)

    with monkeypatch.context() as mp:
        mp.setattr(PerturbationHandle, "revert", lambda self: None)
        mutated = verify()
    mutation_ok = (not mutated.all_passed) and mutated.exit_code() != 0

    ok = clean_ok and replay_ok and mutation_ok
    _report(
        "determinism-and-self-check",
        ok,
        f"clean exit={clean.exit_code()}, csv replay byte-identical={replay_ok}, "
        f"revert-skip mutation exit={mutated.exit_code()}!=0",
    )
