"""End-to-end harness behaviour: config parsing and hashing, task
generation, run determinism and file outputs, the bench report, the
self-check suite, and CLI exit codes."""

import copy
import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from flatlora import checks, cli, diagnostics, harness, model, optimizers
from flatlora.checks import verify
from flatlora.cli import main
from flatlora.harness import (
    CSV_HEADER,
    OUT_DIR_ENV_VAR,
    ConfigError,
    ExperimentAbort,
    ExperimentConfig,
    bench,
    _build_student,
    generate_task,
    load_config,
    make_step,
    parse_config_text,
    run_experiment,
    run_paths,
    sweep,
    train_kinds,
)
from flatlora.model import PerturbationHandle, forward
from flatlora.optimizers import (
    OPTIMIZER_KINDS,
    BaseUpdateConfig,
    eflat_lora_step,
    flat_lora_step,
    init_perturb_state,
    init_sgd_state,
    lora_sam_step,
    lora_step,
    rho_at,
)


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        layer_dims=[6, 5, 3],
        rank=2,
        optimizer="flat-lora",
        learning_rate=0.05,
        rho0=0.05,
        batch_size=8,
        n_batches=2,
        steps=20,
        eval_every=5,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- configs

def test_parse_config_text_happy_path():
    cfg = parse_config_text(
        """
        # training setup
        task = teacher-student
        layer_dims = 8,6,4
        optimizer = eflat-lora
        learning_rate = 0.1   # inline comment
        rho0 = 0.2
        """
    )
    assert cfg.layer_dims == [8, 6, 4]
    assert cfg.optimizer == "eflat-lora"
    assert cfg.learning_rate == 0.1
    # Unset keys keep their defaults.
    assert cfg.beta == ExperimentConfig().beta


def test_parse_collects_every_offender():
    with pytest.raises(ConfigError) as err:
        parse_config_text(
            "optimizer = lora\n"
            "coffee = strong\n"
            "learning_rate = fast\n"
            "not a key value line\n"
            "layer_dims = 16,,4\n"
            "optimizer = lora-sam\n"
        )
    fields = err.value.fields
    assert "optimizer: repeated on line 6" in str(err.value)
    assert "coffee" in fields
    assert "learning_rate" in fields
    assert "layer_dims" in fields
    assert any(f.startswith("line") for f in fields)
    for dims in ("16,4,", ",16,4", ""):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"layer_dims = {dims}\n")
        assert err.value.fields == ["layer_dims"]


def test_validate_collects_every_offender():
    cfg = ExperimentConfig(optimizer="adam", rank=99, beta=2.0,
                           direction_variant="signed")
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert {"optimizer", "rank", "beta", "direction_variant"} <= set(err.value.fields)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(weight_decay=bad, noise_std=bad, seed=-1).validate()
        assert err.value.fields == ["noise_std", "seed", "weight_decay"]


def test_task_specific_validation():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(task="matrix-factorization", layer_dims=[4, 4, 4],
                         rank=2).validate()
    assert "layer_dims" in err.value.fields
    with pytest.raises(ConfigError):
        ExperimentConfig(task="two-cluster", layer_dims=[6, 5, 3],
                         rank=2).validate()
    ExperimentConfig(task="two-cluster", layer_dims=[6, 5, 2], rank=2).validate()


def test_config_hash_excludes_seed_only():
    cfg = tiny_config()
    assert dataclasses.replace(cfg, seed=99).config_hash() == cfg.config_hash()
    assert dataclasses.replace(cfg, learning_rate=0.06).config_hash() != cfg.config_hash()
    assert len(cfg.config_hash()) == 12
    assert cfg.config_hash() == cfg.config_hash()


def test_canonical_text_round_trips():
    cfg = tiny_config(optimizer="eflat-lora", rho_schedule="inverse-sqrt", svd_tol=1e-10)
    assert parse_config_text(cfg.canonical_text()) == cfg


def test_resolved_schedule_auto():
    assert tiny_config(optimizer="eflat-lora").resolved_schedule() == "inverse-sqrt"
    assert tiny_config(optimizer="flat-lora").resolved_schedule() == "constant"
    assert tiny_config(optimizer="lora-sam").resolved_schedule() == "constant"
    explicit = tiny_config(optimizer="eflat-lora", rho_schedule="constant")
    assert explicit.resolved_schedule() == "constant"


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("optimizer = lora\nsteps = 5\nbatch_size = 4\n")
    cfg = load_config(str(path))
    assert cfg.optimizer == "lora" and cfg.steps == 5
    path.write_text("optimizer = lora\ndirection_variant = signed\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.fields == ["direction_variant"]


# --------------------------------------------------------------------- tasks

def test_generate_task_deterministic():
    cfg = tiny_config()
    t1 = generate_task(cfg)
    t2 = generate_task(cfg)
    assert len(t1.train_batches) == cfg.n_batches
    for b1, b2 in zip(t1.train_batches, t2.train_batches):
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.targets, b2.targets)
    assert np.array_equal(t1.eval_batch.inputs, t2.eval_batch.inputs)
    assert not np.array_equal(t1.train_batches[0].inputs,
                              generate_task(tiny_config(seed=4)).train_batches[0].inputs)


def test_generate_task_peaks_within_an_activation_of_the_task_it_returns():
    """The teacher's hidden outputs take their tanh in place, so at the
    default config generate_task's traced peak exceeds the bytes of the
    task it returns by no more than 1.05 of the largest activation (it
    reads 1.02; 1.77 when each tanh made a fresh array)."""
    cfg = ExperimentConfig()
    generate_task(cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        task = generate_task(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    batches = task.train_batches + [task.eval_batch]
    held = (sum(b.inputs.nbytes + b.targets.nbytes for b in batches)
            + sum(w.nbytes for w in task.w0_list))
    activation = max(cfg.layer_dims) * cfg.batch_size * 8
    assert peak - held <= 1.05 * activation


def test_teacher_student_noise_touches_train_targets_only():
    clean = generate_task(tiny_config(noise_std=0.0))
    noisy = generate_task(tiny_config(noise_std=0.5))
    assert np.array_equal(clean.train_batches[0].inputs, noisy.train_batches[0].inputs)
    assert np.array_equal(clean.eval_batch.targets, noisy.eval_batch.targets)
    assert not np.array_equal(clean.train_batches[0].targets,
                              noisy.train_batches[0].targets)
    assert clean.activation == "tanh" and clean.loss_kind == "mse"


def test_two_cluster_targets_are_one_hot():
    task = generate_task(tiny_config(task="two-cluster", layer_dims=[6, 5, 2]))
    assert task.loss_kind == "softmax-ce"
    for batch in task.train_batches + [task.eval_batch]:
        assert batch.targets.shape[0] == 2
        assert np.array_equal(np.sum(batch.targets, axis=0),
                              np.ones(batch.targets.shape[1]))
        assert set(np.unique(batch.targets)) <= {0.0, 1.0}


def test_matrix_factorization_loss_is_exact_quadratic():
    """With scaled-identity inputs the training loss equals half the squared
    Frobenius distance between the merged weight and the target."""
    from flatlora.harness import _build_student
    from flatlora.linalg import make_rng

    cfg = tiny_config(task="matrix-factorization", layer_dims=[5, 4], rank=2,
                      optimizer="lora")
    task = generate_task(cfg)
    net = _build_student(cfg, task)
    root = np.sqrt(5.0)
    m_star = task.eval_batch.targets / root
    rng = make_rng(8)
    net.layers[0].b = rng.standard_normal(net.layers[0].b.shape)
    _, loss = forward(net, task.eval_batch)
    merged = net.layers[0].merged_weight()
    assert abs(loss - 0.5 * float(np.sum((merged - m_star) ** 2))) < 1e-10


# ---------------------------------------------------------------------- runs

def test_run_records_land_on_eval_grid_and_final_step():
    records, summary = run_experiment(tiny_config(steps=20, eval_every=5))
    assert [r.step for r in records] == [5, 10, 15, 20]
    records, _ = run_experiment(tiny_config(steps=23, eval_every=10))
    assert [r.step for r in records] == [10, 20, 23]


def test_run_grad_evals_cumulative():
    records, summary = run_experiment(tiny_config(optimizer="lora", steps=20))
    assert records[-1].grad_evals_cumulative == 20
    assert summary.total_grad_evals == 20
    records, summary = run_experiment(tiny_config(optimizer="flat-lora", steps=20))
    assert records[-1].grad_evals_cumulative == 40
    records, summary = run_experiment(tiny_config(optimizer="eflat-lora", steps=20))
    assert summary.total_grad_evals == 20


def test_run_zero_steps_gives_summary_only():
    records, summary = run_experiment(tiny_config(steps=0))
    assert records == []
    assert summary.steps == 0 and summary.total_grad_evals == 0
    assert math.isnan(summary.final_train_loss)
    assert math.isfinite(summary.final_eval_loss)


def test_run_sharpness_columns_by_optimizer():
    records, _ = run_experiment(tiny_config(optimizer="lora", steps=10))
    assert all(math.isnan(r.sharpness_ema) and math.isnan(r.gap) for r in records)
    assert all(math.isfinite(r.sharpness_sam) for r in records)
    records, _ = run_experiment(tiny_config(optimizer="eflat-lora", steps=10))
    assert all(math.isfinite(r.sharpness_ema) for r in records)
    assert all(r.gap >= 0.0 for r in records)


def _stepped(cfg, steps):
    """Task, student and EMA state after `steps` steps of cfg's optimizer."""
    task = generate_task(cfg)
    net = _build_student(cfg, task)
    step, pstate = make_step(cfg, net)
    for t in range(1, steps + 1):
        step(task.train_batches[(t - 1) % len(task.train_batches)], t)
    return task, net, pstate


def _evaluate_at(cfg, task, net, pstate, step):
    return harness.MetricsRecord(
        step, 0.0, *harness._evaluate(cfg, net, task, pstate, step), 0, 0.0)


@pytest.mark.parametrize("kind, steps, sweeps", [
    ("lora", 3, 2),
    ("lora-sam", 3, 2),
    ("flat-lora", 3, 2),
    ("eflat-lora", 3, 3),
    ("eflat-lora", 0, 3),
])
def test_evaluate_runs_one_sweep_per_parameter_point(kind, steps, sweeps, monkeypatch):
    """Unperturbed point (the probe's backward) and SAM point always; the
    EMA point too for eflat-lora, whether or not its shift was applied
    (never, at steps = 0)."""
    cfg = tiny_config(optimizer=kind)
    task, net, pstate = _stepped(cfg, steps)
    sweep_fn = model._forward_cache
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep_fn(*args, **kwargs)

    monkeypatch.setattr(model, "_forward_cache", counted)
    _evaluate_at(cfg, task, net, pstate, steps)
    assert len(calls) == sweeps


_EVALUATE_CASES = [("lora", 7), ("lora-sam", 7), ("flat-lora", 7),
                   ("eflat-lora", 7), ("eflat-lora", 0)]


# Each id ends in the config's direction_variant, which takes "standard"
# alone.
@pytest.mark.parametrize("kind, steps", _EVALUATE_CASES, ids=[
    f"{kind}-{steps}-standard" for kind, steps in _EVALUATE_CASES])
def test_evaluate_matches_separate_measurements_bit_for_bit(kind, steps):
    """The record's eval columns against the measurements taken one by one
    on a clone: remove the EMA shift, forward, sharpness_sam,
    sharpness_ema, reapply.  The network comes back bit for bit."""
    cfg = tiny_config(optimizer=kind)
    task, net, pstate = _stepped(cfg, steps)
    clone, clone_pstate = copy.deepcopy((net, pstate))
    batch = task.eval_batch

    was_applied = clone_pstate is not None and clone_pstate.applied
    if was_applied:
        clone_pstate.remove(clone)
    _, eval_loss = forward(clone, batch)
    rho = rho_at(cfg.rho0, max(steps, 1), cfg.resolved_schedule())
    s_sam = diagnostics.sharpness_sam(clone, batch, rho)
    if clone_pstate is not None:
        s_ema = diagnostics.sharpness_ema(clone, batch, clone_pstate)
        gap = abs(s_ema - s_sam)
    else:
        s_ema = gap = math.nan
    if was_applied:
        clone_pstate.apply(clone)

    before = [(layer.b.tobytes(), layer.a.tobytes()) for layer in net.layers]
    rec = _evaluate_at(cfg, task, net, pstate, steps)
    got = [rec.eval_loss, rec.sharpness_sam, rec.sharpness_ema, rec.gap]
    want = [eval_loss, s_sam, s_ema, gap]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert [(layer.b.tobytes(), layer.a.tobytes()) for layer in net.layers] == before
    if pstate is not None:
        assert pstate.applied == was_applied


def test_evaluate_puts_applied_ema_back_when_a_measurement_raises(monkeypatch):
    cfg = tiny_config(optimizer="eflat-lora")
    task, net, pstate = _stepped(cfg, 3)
    assert pstate.applied
    before = [layer.b.tobytes() for layer in net.layers]

    def broken_probe(*args):
        raise RuntimeError("probe failed")

    monkeypatch.setattr(diagnostics, "sam_probe", broken_probe)
    with pytest.raises(RuntimeError, match="probe failed"):
        harness._evaluate(cfg, net, task, pstate, 3)
    assert pstate.applied
    assert [layer.b.tobytes() for layer in net.layers] == before


def test_run_writes_replayable_csv(tmp_path):
    cfg = tiny_config(optimizer="eflat-lora")
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(cfg, out_dir=dir_a)
    run_experiment(cfg, out_dir=dir_b)
    csv_a, sum_a = run_paths(cfg, dir_a)
    csv_b, sum_b = run_paths(cfg, dir_b)
    bytes_a = open(csv_a, "rb").read()
    assert bytes_a == open(csv_b, "rb").read()
    assert open(sum_a, "rb").read() == open(sum_b, "rb").read()
    assert bytes_a.decode().splitlines()[0] == CSV_HEADER
    assert os.path.basename(csv_a) == f"{cfg.config_hash()}_{cfg.seed}.csv"
    summary = json.loads(open(sum_a).read())
    assert summary["config_hash"] == cfg.config_hash()
    assert summary["seed"] == cfg.seed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_aborts_on_divergence_with_step():
    cfg = tiny_config(optimizer="lora", learning_rate=1e6, steps=200,
                      eval_every=1000)
    with pytest.raises(ExperimentAbort) as err:
        run_experiment(cfg)
    assert 1 <= err.value.step <= 200
    assert "aborted at step" in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_divergence_stops_at_the_first_floating_point_error(kind):
    """A diverging run raises no warning: the first overflow, invalid or
    divide in a numpy operation ends it as an abort at that step, with
    numpy's error as the cause."""
    cfg = tiny_config(optimizer=kind, learning_rate=50.0, steps=200,
                      eval_every=1000)
    with pytest.raises(ExperimentAbort) as err:
        run_experiment(cfg)
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert str(err.value) == (
        f"aborted at step {err.value.step}: {err.value.__cause__}")


def test_sweep_writes_one_file_pair_per_seed(tmp_path):
    cfg = tiny_config(optimizer="lora", steps=10)
    out = str(tmp_path)
    summaries = sweep(cfg, [0, 1, 2], out_dir=out)
    assert [s.seed for s in summaries] == [0, 1, 2]
    assert len({s.config_hash for s in summaries}) == 1
    for seed in (0, 1, 2):
        run_cfg = dataclasses.replace(cfg, seed=seed)
        csv_path, sum_path = run_paths(run_cfg, out)
        assert os.path.exists(csv_path) and os.path.exists(sum_path)
    # Different seeds, different trajectories.
    assert summaries[0].final_eval_loss != summaries[1].final_eval_loss


# ----------------------------------------------------------------- make_step

@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_make_step_matches_explicit_calls_with_every_field(kind):
    """Every optimizer field off its default (direction_variant has only
    "standard", which the twin passes in the steps' positional slot); on
    the matrix-factorization task the factors pass through the SVD
    fallback, so svd_tol moves the trajectory as well and a dropped field
    breaks bit equality."""
    schedule = "constant" if kind == "eflat-lora" else "inverse-sqrt"
    cfg = ExperimentConfig(
        task="matrix-factorization", layer_dims=[6, 5], rank=2, optimizer=kind,
        learning_rate=0.05, momentum=0.5, weight_decay=0.01, rho0=0.05,
        beta=0.6, rho_schedule=schedule, svd_tol=1e-2, steps=10, seed=3,
    )
    task = generate_task(cfg)
    net, twin = _build_student(cfg, task), _build_student(cfg, task)
    step, pstate = make_step(cfg, net)
    assert (pstate is not None) == (kind == "eflat-lora")
    opt = BaseUpdateConfig(learning_rate=0.05, momentum=0.5, weight_decay=0.01)
    sgd = init_sgd_state(twin)
    twin_pstate = init_perturb_state(twin, rho0=0.05, beta=0.6)
    batch = task.train_batches[0]
    for t in range(1, 11):
        step(batch, t)
        rho = rho_at(0.05, t, schedule)
        if kind == "lora":
            lora_step(twin, batch, opt, sgd)
        elif kind == "lora-sam":
            lora_sam_step(twin, batch, rho, opt, sgd, "standard")
        elif kind == "flat-lora":
            flat_lora_step(twin, batch, rho, opt, sgd, "standard", 1e-2)
        else:
            eflat_lora_step(twin, batch, twin_pstate, opt, sgd, "standard", 1e-2,
                            schedule)
    for got, want in zip(net.layers, twin.layers):
        assert np.array_equal(got.b, want.b)
        assert np.array_equal(got.a, want.a)


def test_make_step_rejects_unknown_kind():
    cfg = tiny_config()
    net = _build_student(cfg, generate_task(cfg))
    with pytest.raises(ValueError, match="bogus"):
        make_step(dataclasses.replace(cfg, optimizer="bogus"), net)


# --------------------------------------------------------------------- bench

def test_bench_report_structure_and_grad_eval_ratios():
    cfg = tiny_config(optimizer="lora", steps=30, batch_size=4)
    report = bench(cfg, repeats=1)
    assert report.steps_timed == 27
    kinds = [e.optimizer for e in report.entries]
    assert kinds == list(OPTIMIZER_KINDS)
    by_kind = {e.optimizer: e for e in report.entries}
    assert by_kind["lora"].ratio_vs_lora == 1.0
    for kind, want in (("lora", 1.0), ("lora-sam", 2.0),
                       ("flat-lora", 2.0), ("eflat-lora", 1.0)):
        assert by_kind[kind].grad_eval_ratio_vs_lora == want
        assert by_kind[kind].median_step_ms > 0.0
    payload = json.loads(report.to_json())
    assert payload["config_hash"] == cfg.config_hash()
    assert len(payload["entries"]) == 4


def test_bench_validation():
    with pytest.raises(ValueError):
        bench(tiny_config(steps=1), repeats=1)
    with pytest.raises(ValueError):
        bench(tiny_config(steps=30), repeats=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bench_aborts_on_a_diverging_config():
    """bench steps under run_experiment's np.errstate, so a diverging
    config raises ExperimentAbort naming the step and the optimizer,
    with numpy's error as the cause and no warning."""
    cfg = tiny_config(optimizer="lora", learning_rate=1e6, steps=30)
    with pytest.raises(ExperimentAbort) as err:
        bench(cfg, repeats=1)
    assert 1 <= err.value.step <= 30
    assert any(str(err.value).startswith(f"aborted at step {err.value.step}: {kind}: ")
               for kind in OPTIMIZER_KINDS)
    assert isinstance(err.value.__cause__, FloatingPointError)


# --------------------------------------------------------------- train_kinds

def _same_factors(got, want):
    return all(np.array_equal(g.b, w.b) and np.array_equal(g.a, w.a)
               for g, w in zip(got.layers, want.layers))


def test_train_kinds_alone_matches_interleaved():
    """Each kind trained alone gives the factor bytes and gradient
    evaluations of that kind in the all-kinds interleaved call."""
    cfg = tiny_config(steps=12)
    task = generate_task(cfg)
    together = train_kinds(cfg, task, OPTIMIZER_KINDS)
    assert list(together) == list(OPTIMIZER_KINDS)
    for kind in OPTIMIZER_KINDS:
        alone = train_kinds(cfg, task, (kind,))[kind]
        assert _same_factors(alone.net, together[kind].net)
        assert alone.grad_evals == together[kind].grad_evals
        assert len(alone.step_ms) == cfg.steps


def test_train_kinds_returns_networks_with_the_ema_shift_off():
    """Every returned network equals its kind stepped by hand through
    make_step with any applied EMA shift then removed; for eflat-lora the
    network as the last step left it differs, so the shift did come off."""
    cfg = tiny_config(steps=12)
    task = generate_task(cfg)
    runs = train_kinds(cfg, task, OPTIMIZER_KINDS)
    for kind in OPTIMIZER_KINDS:
        kind_cfg = dataclasses.replace(cfg, optimizer=kind)
        net = _build_student(kind_cfg, task)
        step, pstate = make_step(kind_cfg, net)
        for t in range(1, cfg.steps + 1):
            step(task.train_batch(t), t)
        if pstate is not None:
            assert pstate.applied and not _same_factors(runs[kind].net, net)
            pstate.remove(net)
        assert _same_factors(runs[kind].net, net)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_radius_check_aborts_on_a_diverging_config():
    """The zero-radius check trains through train_kinds, under
    run_experiment's error state: a diverging config raises
    ExperimentAbort naming the kind and the step, with no warning."""
    cfg = tiny_config(optimizer="lora", learning_rate=1e6, steps=30)
    with pytest.raises(ExperimentAbort) as err:
        checks.zero_radius_degeneration(cfg)
    assert 1 <= err.value.step <= 30
    assert any(str(err.value).startswith(f"aborted at step {err.value.step}: {kind}: ")
               for kind in OPTIMIZER_KINDS)
    assert isinstance(err.value.__cause__, FloatingPointError)


# -------------------------------------------------------------------- verify

def test_verify_all_checks_pass():
    report = verify()
    assert report.all_passed
    assert report.exit_code() == 0
    assert len(report.checks) == 18
    lines = report.format_lines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("all passed")
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))


def _pinv_factors_untransposed(m, tol, pinv_factors=optimizers._pinv_factors):
    """_pinv_factors with t = R^-1 in place of R^-T: the triangular solve
    without its transpose."""
    q, t = pinv_factors(m, tol)
    return q, t.T


def _nan_backward(net, batch, want_full=False, backward=model.backward):
    """backward with every gradient it returns filled with NaN."""
    grads = backward(net, batch, want_full=want_full)
    for g in (*grads.grad_b, *grads.grad_a, *(grads.grad_w or ())):
        g.fill(np.nan)
    return grads


@pytest.mark.parametrize(
    "owner, name, fault, check",
    [
        (PerturbationHandle, "revert", lambda self: None, "apply_revert_bit_identical"),
        (model, "_activation_grad", lambda y, kind: np.ones_like(y),
         "gradient_finite_difference"),
        (harness, "rho_at", lambda rho0, t, schedule, rho_at=harness.rho_at:
         2.0 * rho_at(rho0, t, schedule), "step_composition_equivalence"),
        (checks, "_pinv_factors", _pinv_factors_untransposed, "pinv_factors_agreement"),
        (checks, "backward", _nan_backward, "gradient_chain_identity"),
    ],
    ids=["revert-noop", "activation-grad-ones", "rho-doubled", "pinv-untransposed",
         "nan-backward"],
)
def test_verify_catches_skipped_revert(monkeypatch, owner, name, fault, check):
    """A planted fault (a revert that silently does nothing, a wrong
    activation derivative, a doubled radius, an untransposed triangular
    solve in the QR pseudo-inverse, gradients that are all NaN) turns the
    named check of the self-check suite red."""
    monkeypatch.setattr(owner, name, fault)
    report = verify()
    assert not report.all_passed
    assert report.exit_code() == 1
    failed = {c.name for c in report.checks if not c.passed}
    assert check in failed


# ----------------------------------------------------------------------- CLI

def write_cfg(tmp_path, name="run.cfg", **overrides):
    cfg = tiny_config(**overrides)
    path = tmp_path / name
    path.write_text(cfg.canonical_text())
    return str(path), cfg


def test_cli_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path)
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    csv_path, sum_path = run_paths(cfg, out)
    assert os.path.exists(csv_path) and os.path.exists(sum_path)
    assert "final:" in capsys.readouterr().out


def test_cli_run_uses_env_out_dir(tmp_path, monkeypatch):
    cfg_path, cfg = write_cfg(tmp_path)
    env_dir = str(tmp_path / "envout")
    monkeypatch.setenv(OUT_DIR_ENV_VAR, env_dir)
    assert main(["run", "--config", cfg_path]) == 0
    csv_path, _ = run_paths(cfg, env_dir)
    assert os.path.exists(csv_path)


def test_cli_invalid_config_exits_one(tmp_path, capsys):
    """An unknown optimizer or direction variant ends in a config error
    and exit 1, with no file written."""
    bad = tmp_path / "bad.cfg"
    out = tmp_path / "out"
    for text, field_name in (("optimizer = adam\n", "optimizer"),
                             ("direction_variant = signed\n", "direction_variant")):
        bad.write_text(text)
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and field_name in err
        assert not out.exists()


def test_cli_missing_config_exits_one(tmp_path, capsys):
    """A missing path, a directory and a non-UTF-8 file each end in one
    message line and exit 1, not a traceback."""
    (tmp_path / "latin1.cfg").write_bytes("optimizer = lora # caf\xe9\n".encode("latin-1"))
    for name in ("nope.cfg", ".", "latin1.cfg"):
        assert main(["run", "--config", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot read") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_divergence_exits_two(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, optimizer="lora", learning_rate=1e6,
                            steps=200, eval_every=1000)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "numerical abort" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path, optimizer="lora", steps=10)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg_path, "--seeds", "0,1", "--out", out]) == 0
    assert "2 runs" in capsys.readouterr().out
    for seeds in ("zero", "0,,1", "0,1,", ""):
        assert main(["sweep", "--config", cfg_path, "--seeds", seeds, "--out", out]) == 1
        assert capsys.readouterr().err == f"cannot parse seed list {seeds!r}\n"
    assert main(["sweep", "--config", cfg_path, "--seeds=-1", "--out", out]) == 1
    assert capsys.readouterr().err.endswith("config error: invalid config (seed: must be >= 0)\n")


def test_sweep_refuses_a_repeated_seed_before_any_run(tmp_path, monkeypatch, capsys):
    """A seed listed twice would run twice into the same CSV and summary,
    and a negative seed would stop the sweep after the runs before it;
    sweep raises ConfigError naming every repeated seed, or the bad seed,
    and the CLI ends in one message line and exit 1, before any task is
    built or any file written."""
    cfg_path, cfg = write_cfg(tmp_path, optimizer="lora", steps=10)

    def no_work(*args, **kwargs):
        raise AssertionError("trained before checking the seeds")

    monkeypatch.setattr(harness, "generate_task", no_work)
    with pytest.raises(ConfigError) as err:
        sweep(cfg, [2, 0, 1, 0, 2, 0], out_dir=str(tmp_path))
    assert err.value.fields == ["seeds"]
    assert str(err.value) == "invalid config (seeds: repeated 0, 2)"
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--seeds", "0,0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: invalid config (seeds: repeated 0)\n"
    assert captured.out == "" and not out.exists()
    with pytest.raises(ConfigError) as err:
        sweep(cfg, [0, 1, -1], out_dir=str(out))
    assert err.value.fields == ["seed"]
    assert main(["sweep", "--config", cfg_path, "--seeds", "0,1,-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: invalid config (seed: must be >= 0)\n"
    assert captured.out == "" and not out.exists()


def test_cli_out_that_cannot_be_a_directory_exits_one_before_any_work(
        tmp_path, monkeypatch, capsys):
    """An --out that is a file, or lies under one, ends run, sweep and
    bench in one message line and exit 1 before any task is built."""
    cfg_path, _ = write_cfg(tmp_path, optimizer="lora", steps=30, batch_size=4)
    afile = tmp_path / "afile"
    afile.write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr(harness, "generate_task", no_work)
    for out in (afile, afile / "sub"):
        for argv in (["run"], ["sweep", "--seeds", "0"], ["bench", "--repeats", "1"]):
            assert main([*argv, "--config", cfg_path, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"cannot use {out}: ") and err.count("\n") == 1


def test_cli_empty_out_exits_one_before_any_work(tmp_path, monkeypatch, capsys):
    """An empty --out, or an empty $FLATLORA_OUT_DIR with no --out, ends
    run, sweep and bench in one message line and exit 1 before the config
    is read, not as a config that cannot be read."""
    cfg_path, _ = write_cfg(tmp_path, optimizer="lora", steps=30, batch_size=4)

    def no_work(*args, **kwargs):
        raise AssertionError("read the config before checking --out")

    monkeypatch.setattr(cli, "load_config", no_work)
    for argv in (["run"], ["sweep", "--seeds", "0"], ["bench", "--repeats", "1"]):
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        assert main([*argv, "--config", cfg_path, "--out", ""]) == 1
        assert capsys.readouterr().err == "cannot use an empty output path\n"
        monkeypatch.setenv(OUT_DIR_ENV_VAR, "")
        assert main([*argv, "--config", cfg_path]) == 1
        assert capsys.readouterr().err == "cannot use an empty output path\n"


def test_cli_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out and "PASS" in out


def test_cli_bench_writes_json(tmp_path, capsys):
    cfg_path, cfg = write_cfg(tmp_path, optimizer="lora", steps=30, batch_size=4)
    out = str(tmp_path / "bench")
    assert main(["bench", "--config", cfg_path, "--repeats", "1", "--out", out]) == 0
    bench_path = os.path.join(out, f"{cfg.config_hash()}.bench.json")
    assert os.path.exists(bench_path)
    assert "optimizer" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_bench_divergence_exits_two_and_writes_no_report(tmp_path, capsys):
    cfg_path, _ = write_cfg(tmp_path, optimizer="lora", learning_rate=1e6,
                            steps=30)
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg_path, "--repeats", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numerical abort: aborted at step")
    assert not list(out.glob("*.bench.json"))


def test_cli_bench_argument_errors_exit_one(tmp_path, capsys):
    """Zero repeats, or no steps left after the warmup, end in one message
    line and exit 1, not a traceback."""
    cfg_path, _ = write_cfg(tmp_path, optimizer="lora", steps=30, batch_size=4)
    short_path, _ = write_cfg(tmp_path, "short.cfg", optimizer="lora", steps=1)
    out = str(tmp_path / "bench")
    for argv in (["--config", cfg_path, "--repeats", "0"], ["--config", short_path]):
        assert main(["bench", *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
    assert not os.path.exists(out)
