"""Experiment harness: configs, task generators, the training loop with
metrics output, the wall-time benchmark, and the self-check suite.

Runs are deterministic by construction: every random draw flows from the
config seed through named substreams, and the metrics CSV is written with
round-trip float formatting, so an identical config and seed reproduces
the file byte for byte.  Wall-clock time is the one unavoidable source of
nondeterminism; it is recorded in the CSV only when the config opts in
(measure_time = true), and the benchmark handles timing separately.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .linalg import make_rng, pseudo_inverse, row_space_projector
from .model import (
    Batch,
    Network,
    apply_b_perturbation,
    backward,
    build_network,
    clone_network,
    forward,
)
from .optimizers import (
    DIRECTION_VARIANTS,
    OPTIMIZER_KINDS,
    RHO_SCHEDULES,
    BaseUpdateConfig,
    PerturbState,
    StepStats,
    base_update,
    eflat_lora_step,
    flat_lora_step,
    gram_pseudo_inverse,
    init_perturb_state,
    init_sgd_state,
    lora_sam_step,
    lora_step,
    param_and_memory_counts,
    perturbation_from_gradients,
    rho_at,
)

TASK_KINDS = ("teacher-student", "two-cluster", "matrix-factorization")

OUT_DIR_ENV_VAR = "FLATLORA_OUT_DIR"

CSV_HEADER = (
    "step,train_loss,eval_loss,sharpness_sam,sharpness_ema,gap,"
    "balancedness,grad_evals_cumulative,wall_time_ms_cumulative,perturb_norm"
)


class ConfigError(ValueError):
    """A config failed validation; .fields lists the offending keys."""

    def __init__(self, problems: dict[str, str]):
        self.fields = sorted(problems)
        details = "; ".join(f"{k}: {problems[k]}" for k in self.fields)
        super().__init__(f"invalid config ({details})")


class ExperimentAbort(RuntimeError):
    """Training produced non-finite numbers; .step says where."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"aborted at step {step}: {message}")


@dataclass
class ExperimentConfig:
    """Everything one run needs.  The config hash covers every field except
    the seed, so sweeps over seeds share a hash and runs land in files
    named <hash>_<seed>.csv."""

    task: str = "teacher-student"
    layer_dims: list[int] = field(default_factory=lambda: [16, 16, 4])
    rank: int = 4
    scale: float = 1.0
    optimizer: str = "lora"
    learning_rate: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    rho0: float = 0.05
    beta: float = 0.9
    rho_schedule: str = "auto"
    direction_variant: str = "standard"
    batch_size: int = 3072
    n_batches: int = 8
    noise_std: float = 0.05
    steps: int = 2000
    eval_every: int = 100
    seed: int = 0
    svd_tol: float = 1e-12
    measure_time: bool = False

    def validate(self) -> None:
        problems: dict[str, str] = {}
        if self.task not in TASK_KINDS:
            problems["task"] = f"must be one of {TASK_KINDS}"
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            problems["layer_dims"] = "need >= 2 positive dims"
        elif self.task == "matrix-factorization" and len(self.layer_dims) != 2:
            problems["layer_dims"] = "matrix-factorization uses exactly [in, out]"
        elif self.task == "two-cluster" and self.layer_dims[-1] != 2:
            problems["layer_dims"] = "two-cluster needs output dim 2"
        if len(self.layer_dims) >= 2 and not (
            1 <= self.rank <= min(min(a, b) for a, b in zip(self.layer_dims, self.layer_dims[1:]))
        ):
            problems["rank"] = "must satisfy 1 <= rank <= min layer dim"
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            problems["scale"] = "must be positive and finite"
        if self.optimizer not in OPTIMIZER_KINDS:
            problems["optimizer"] = f"must be one of {OPTIMIZER_KINDS}"
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            problems["learning_rate"] = "must be positive"
        if not (0.0 <= self.momentum < 1.0):
            problems["momentum"] = "must lie in [0, 1)"
        if self.weight_decay < 0.0:
            problems["weight_decay"] = "must be >= 0"
        if self.rho0 < 0.0 or not math.isfinite(self.rho0):
            problems["rho0"] = "must be >= 0 and finite"
        if not (0.0 < self.beta <= 1.0):
            problems["beta"] = "must lie in (0, 1]"
        if self.rho_schedule not in RHO_SCHEDULES + ("auto",):
            problems["rho_schedule"] = f"must be 'auto' or one of {RHO_SCHEDULES}"
        if self.direction_variant not in DIRECTION_VARIANTS:
            problems["direction_variant"] = f"must be one of {DIRECTION_VARIANTS}"
        if self.batch_size < 1:
            problems["batch_size"] = "must be >= 1"
        if self.n_batches < 1:
            problems["n_batches"] = "must be >= 1"
        if self.noise_std < 0.0:
            problems["noise_std"] = "must be >= 0"
        if self.steps < 0:
            problems["steps"] = "must be >= 0"
        if self.eval_every < 1:
            problems["eval_every"] = "must be >= 1"
        if not (0.0 < self.svd_tol < 1.0):
            problems["svd_tol"] = "must lie in (0, 1)"
        if problems:
            raise ConfigError(problems)

    def resolved_schedule(self) -> str:
        """eflat-lora defaults to a decaying radius, the two-pass variants
        to a constant one."""
        if self.rho_schedule != "auto":
            return self.rho_schedule
        return "inverse-sqrt" if self.optimizer == "eflat-lora" else "constant"

    def canonical_text(self, include_seed: bool = True) -> str:
        lines = []
        for f in dataclasses.fields(self):
            if not include_seed and f.name == "seed":
                continue
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        digest = hashlib.sha256(self.canonical_text(include_seed=False).encode())
        return digest.hexdigest()[:12]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_CONFIG_PARSERS = {
    "task": str,
    "layer_dims": lambda s: [int(p) for p in s.split(",") if p.strip() != ""],
    "rank": int,
    "scale": float,
    "optimizer": str,
    "learning_rate": float,
    "momentum": float,
    "weight_decay": float,
    "rho0": float,
    "beta": float,
    "rho_schedule": str,
    "direction_variant": str,
    "batch_size": int,
    "n_batches": int,
    "noise_std": float,
    "steps": int,
    "eval_every": int,
    "seed": int,
    "svd_tol": float,
    "measure_time": lambda s: {"true": True, "false": False}[s.lower()],
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format (# starts a comment line).

    Unknown keys and unparseable values raise ConfigError listing every
    offender; missing keys keep their defaults.  The parsed config is
    validated before it is returned.
    """
    values: dict = {}
    problems: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems[f"line {lineno}"] = f"expected key = value, got {line!r}"
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            problems[key] = "unknown key"
            continue
        try:
            values[key] = parser(value)
        except (ValueError, KeyError):
            problems[key] = f"cannot parse {value!r}"
    if problems:
        raise ConfigError(problems)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


@dataclass
class Task:
    """Generated data plus the architecture choices it implies."""

    kind: str
    train_batches: list[Batch]
    eval_batch: Batch
    w0_list: list[np.ndarray]
    activation: str
    loss_kind: str


def _dense_forward(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    h = x
    for i, w in enumerate(weights):
        h = w @ h
        if i < len(weights) - 1:
            h = np.tanh(h)
    return h


def generate_task(cfg: ExperimentConfig) -> Task:
    """Deterministic synthetic data for the configured task kind.

    teacher-student: a frozen random tanh teacher produces regression
    targets (train targets carry Gaussian noise, the eval batch is clean);
    the student's frozen base weights start near the teacher, so training
    mimics adapting a competent base model.

    two-cluster: two Gaussian blobs with one-hot targets under softmax
    cross-entropy.

    matrix-factorization: a single linear layer with zero base weight is
    trained to factor a rank-one target; inputs are sqrt(in_dim) times the
    identity, which makes the loss exactly half the squared Frobenius
    distance between the merged weight and the target.
    """
    cfg.validate()
    dims = cfg.layer_dims
    rng = make_rng([cfg.seed, 0])
    if cfg.task == "teacher-student":
        teacher = [
            rng.standard_normal((n, m)) / np.sqrt(m)
            for m, n in zip(dims, dims[1:])
        ]
        w0_list = [
            w + 0.1 * rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
            for w in teacher
        ]
        train = []
        for _ in range(cfg.n_batches):
            x = rng.standard_normal((dims[0], cfg.batch_size))
            t = _dense_forward(teacher, x)
            t = t + cfg.noise_std * rng.standard_normal(t.shape)
            train.append(Batch(inputs=x, targets=t))
        x_eval = rng.standard_normal((dims[0], cfg.batch_size))
        eval_batch = Batch(inputs=x_eval, targets=_dense_forward(teacher, x_eval))
        return Task(
            kind=cfg.task,
            train_batches=train,
            eval_batch=eval_batch,
            w0_list=w0_list,
            activation="tanh",
            loss_kind="mse",
        )
    if cfg.task == "two-cluster":
        direction = rng.standard_normal(dims[0])
        direction /= np.linalg.norm(direction)
        separation = 6.0
        centers = np.stack([0.5 * separation * direction, -0.5 * separation * direction])
        w0_list = [
            rng.standard_normal((n, m)) / np.sqrt(m)
            for m, n in zip(dims, dims[1:])
        ]

        def draw(k: int) -> Batch:
            labels = rng.integers(0, 2, size=k)
            x = centers[labels].T + rng.standard_normal((dims[0], k))
            t = np.zeros((2, k))
            t[labels, np.arange(k)] = 1.0
            return Batch(inputs=x, targets=t)

        train = [draw(cfg.batch_size) for _ in range(cfg.n_batches)]
        eval_batch = draw(cfg.batch_size)
        return Task(
            kind=cfg.task,
            train_batches=train,
            eval_batch=eval_batch,
            w0_list=w0_list,
            activation="tanh",
            loss_kind="softmax-ce",
        )
    # matrix-factorization
    m, n = dims[0], dims[1]
    target = np.outer(rng.standard_normal(n), rng.standard_normal(m))
    root = np.sqrt(float(m))
    batch = Batch(inputs=root * np.eye(m), targets=root * target)
    return Task(
        kind=cfg.task,
        train_batches=[batch],
        eval_batch=batch,
        w0_list=[np.zeros((n, m))],
        activation="identity",
        loss_kind="mse",
    )


@dataclass
class MetricsRecord:
    """One evaluation row.  train_loss is the loss seen by the step's own
    gradient evaluation (the unperturbed point when the optimizer visits
    it, otherwise the perturbed point).  sharpness_ema and gap are NaN for
    optimizers that do not maintain an EMA perturbation."""

    step: int
    train_loss: float
    eval_loss: float
    sharpness_sam: float
    sharpness_ema: float
    gap: float
    balancedness: float
    grad_evals_cumulative: int
    wall_time_ms_cumulative: float
    perturb_norm: float

    def to_csv_row(self) -> str:
        return ",".join(
            [
                str(self.step),
                repr(self.train_loss),
                repr(self.eval_loss),
                repr(self.sharpness_sam),
                repr(self.sharpness_ema),
                repr(self.gap),
                repr(self.balancedness),
                str(self.grad_evals_cumulative),
                repr(self.wall_time_ms_cumulative),
                repr(self.perturb_norm),
            ]
        )


@dataclass
class RunSummary:
    """End-of-run scorecard, written as <hash>_<seed>.summary.json."""

    config_hash: str
    seed: int
    optimizer: str
    task: str
    steps: int
    final_train_loss: float
    final_eval_loss: float
    final_sharpness_sam: float
    final_sharpness_ema: float
    final_gap: float
    total_grad_evals: int
    total_wall_time_ms: float
    trainable_params: int
    extra_memory_elements: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"


def _build_student(cfg: ExperimentConfig, task: Task) -> Network:
    return build_network(
        cfg.layer_dims,
        rank=cfg.rank,
        scale=cfg.scale,
        rng=make_rng([cfg.seed, 1]),
        activation=task.activation,
        loss_kind=task.loss_kind,
        w0_list=task.w0_list,
    )


def make_step(
    cfg: ExperimentConfig, net: Network
) -> tuple[Callable[[Batch, int], StepStats], PerturbState | None]:
    """The configured optimizer as one callable over net.

    Returns (step, pstate): step(batch, t) takes the 1-based step t and
    runs one step of cfg.optimizer with the config's update, radius
    schedule, direction variant and SVD tolerance; pstate is the EMA
    state of eflat-lora (None for the other kinds), which evaluation code
    removes and reapplies around its measurements.  The step functions are
    looked up in this module on every call, so wrappers installed on this
    module's names (perfbench's tracer) see every step.
    """
    opt = BaseUpdateConfig(
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
    )
    sgd = init_sgd_state(net)
    rho0, schedule = cfg.rho0, cfg.resolved_schedule()
    variant, tol = cfg.direction_variant, cfg.svd_tol
    kind = cfg.optimizer
    if kind == "lora":
        return (lambda batch, t: lora_step(net, batch, opt, sgd)), None
    if kind == "lora-sam":
        return (lambda batch, t: lora_sam_step(
            net, batch, rho_at(rho0, t, schedule), opt, sgd, variant)), None
    if kind == "flat-lora":
        return (lambda batch, t: flat_lora_step(
            net, batch, rho_at(rho0, t, schedule), opt, sgd, variant, tol)), None
    if kind == "eflat-lora":
        pstate = init_perturb_state(net, rho0=rho0, beta=cfg.beta)
        return (lambda batch, t: eflat_lora_step(
            net, batch, pstate, opt, sgd, variant, tol, schedule)), pstate
    raise ValueError(f"unknown optimizer kind {kind!r}")


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    task: Task | None = None,
) -> tuple[list[MetricsRecord], RunSummary]:
    """Train per the config, evaluating every eval_every steps.

    Returns the metrics records and the summary; when out_dir is given the
    CSV and summary JSON are also written there.  Raises ExperimentAbort
    (with the offending step) if any loss turns non-finite.
    """
    cfg.validate()
    if task is None:
        task = generate_task(cfg)
    net = _build_student(cfg, task)
    step, pstate = make_step(cfg, net)

    records: list[MetricsRecord] = []
    grad_evals = 0
    wall_ms = 0.0
    last_train_loss = math.nan
    pool = task.train_batches
    for t in range(1, cfg.steps + 1):
        stats = step(pool[(t - 1) % len(pool)], t)
        grad_evals += stats.grad_evals
        wall_ms += stats.wall_time_ms
        last_train_loss = (
            stats.loss_original
            if math.isfinite(stats.loss_original)
            else stats.loss_perturbed
        )
        if not math.isfinite(last_train_loss):
            raise ExperimentAbort(t, f"training loss is {last_train_loss}")
        if t % cfg.eval_every == 0 or t == cfg.steps:
            records.append(
                _evaluate(cfg, net, task, pstate, t, last_train_loss, grad_evals,
                          wall_ms, stats.perturb_norm)
            )

    if cfg.steps == 0:
        final = _evaluate(cfg, net, task, pstate, 0, math.nan, 0, 0.0, 0.0)
        summary_source = final
    else:
        summary_source = records[-1]
    counts = param_and_memory_counts(net, cfg.optimizer)
    summary = RunSummary(
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        optimizer=cfg.optimizer,
        task=cfg.task,
        steps=cfg.steps,
        final_train_loss=summary_source.train_loss,
        final_eval_loss=summary_source.eval_loss,
        final_sharpness_sam=summary_source.sharpness_sam,
        final_sharpness_ema=summary_source.sharpness_ema,
        final_gap=summary_source.gap,
        total_grad_evals=grad_evals,
        total_wall_time_ms=wall_ms,
        trainable_params=counts.trainable,
        extra_memory_elements=counts.extra,
    )
    if out_dir is not None:
        write_run_outputs(cfg, records, summary, out_dir)
    return records, summary


def _evaluate(
    cfg: ExperimentConfig,
    net: Network,
    task: Task,
    pstate,
    step: int,
    train_loss: float,
    grad_evals: int,
    wall_ms: float,
    perturb_norm: float,
) -> MetricsRecord:
    """Measure everything at the unperturbed parameters, then put the
    network back exactly as found."""
    was_applied = pstate.applied if pstate is not None else False
    if was_applied:
        pstate.remove(net)
    _, eval_loss = forward(net, task.eval_batch)
    if not math.isfinite(eval_loss):
        raise ExperimentAbort(step, f"eval loss is {eval_loss}")
    rho_now = rho_at(cfg.rho0, max(step, 1), cfg.resolved_schedule())
    s_sam = diagnostics.sharpness_sam(
        net, task.eval_batch, rho_now, cfg.direction_variant
    )
    if pstate is not None:
        s_ema = diagnostics.sharpness_ema(net, task.eval_batch, pstate)
        gap = abs(s_ema - s_sam)
    else:
        s_ema = math.nan
        gap = math.nan
    bal = diagnostics.network_balancedness(net)
    if was_applied:
        pstate.apply(net)
    return MetricsRecord(
        step=step,
        train_loss=train_loss,
        eval_loss=eval_loss,
        sharpness_sam=s_sam,
        sharpness_ema=s_ema,
        gap=gap,
        balancedness=bal,
        grad_evals_cumulative=grad_evals,
        wall_time_ms_cumulative=wall_ms if cfg.measure_time else 0.0,
        perturb_norm=perturb_norm,
    )


def run_paths(cfg: ExperimentConfig, out_dir: str) -> tuple[str, str]:
    stem = f"{cfg.config_hash()}_{cfg.seed}"
    return (
        os.path.join(out_dir, stem + ".csv"),
        os.path.join(out_dir, stem + ".summary.json"),
    )


def write_run_outputs(
    cfg: ExperimentConfig,
    records: list[MetricsRecord],
    summary: RunSummary,
    out_dir: str,
) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path, summary_path = run_paths(cfg, out_dir)
    lines = [CSV_HEADER] + [r.to_csv_row() for r in records]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary.to_json())
    return csv_path, summary_path


def sweep(
    cfg: ExperimentConfig, seeds: list[int], out_dir: str | None = None
) -> list[RunSummary]:
    """Run the same config across seeds (data and init reseeded per run)."""
    summaries = []
    for seed in seeds:
        run_cfg = dataclasses.replace(cfg, seed=seed)
        _, summary = run_experiment(run_cfg, out_dir=out_dir)
        summaries.append(summary)
    return summaries


@dataclass
class BenchEntry:
    optimizer: str
    median_step_ms: float
    ratio_vs_lora: float
    grad_evals_per_step: float
    grad_eval_ratio_vs_lora: float
    trainable_params: int
    extra_memory_elements: float


@dataclass
class BenchReport:
    config_hash: str
    repeats: int
    steps_timed: int
    entries: list[BenchEntry]

    def to_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "repeats": self.repeats,
            "steps_timed": self.steps_timed,
            "entries": [dataclasses.asdict(e) for e in self.entries],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bench(cfg: ExperimentConfig, repeats: int = 3) -> BenchReport:
    """Median per-step wall time for each optimizer on the config's task,
    with diagnostics disabled (bare steps, no evaluation in the loop).

    Every optimizer runs the same schedule of batches from the same task
    and its own freshly built student.  The optimizers are interleaved
    across repeats (repeat 1 of each kind, then repeat 2, ...) so a drift
    in machine speed cannot systematically favour one kind; the first
    tenth of each run's steps (at least one) is discarded as warmup before
    taking medians.  Too few repeats or steps raise ConfigError.
    """
    cfg.validate()
    if repeats < 1:
        raise ConfigError({"repeats": f"must be >= 1, got {repeats}"})
    warmup = max(1, cfg.steps // 10)
    if cfg.steps <= warmup:
        raise ConfigError({"steps": f"bench needs steps > {warmup} for warmup"})
    task = generate_task(cfg)
    pool = task.train_batches
    times: dict[str, list[float]] = {kind: [] for kind in OPTIMIZER_KINDS}
    eval_counts = dict.fromkeys(OPTIMIZER_KINDS, 0)
    for _ in range(repeats):
        for kind in OPTIMIZER_KINDS:
            run_cfg = dataclasses.replace(cfg, optimizer=kind)
            step, _ = make_step(run_cfg, _build_student(run_cfg, task))
            for t in range(1, cfg.steps + 1):
                stats = step(pool[(t - 1) % len(pool)], t)
                eval_counts[kind] += stats.grad_evals
                if t > warmup:
                    times[kind].append(stats.wall_time_ms)
    medians = {kind: statistics.median(times[kind]) for kind in OPTIMIZER_KINDS}
    evals = {kind: n / (repeats * cfg.steps) for kind, n in eval_counts.items()}
    net_for_counts = _build_student(cfg, task)
    entries = []
    for kind in OPTIMIZER_KINDS:
        counts = param_and_memory_counts(net_for_counts, kind)
        entries.append(
            BenchEntry(
                optimizer=kind,
                median_step_ms=medians[kind],
                ratio_vs_lora=medians[kind] / medians["lora"],
                grad_evals_per_step=evals[kind],
                grad_eval_ratio_vs_lora=evals[kind] / evals["lora"],
                trainable_params=counts.trainable,
                extra_memory_elements=counts.extra,
            )
        )
    return BenchReport(
        config_hash=cfg.config_hash(),
        repeats=repeats,
        steps_timed=cfg.steps - warmup,
        entries=entries,
    )


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


def _tiny_config(optimizer: str = "flat-lora", **overrides) -> ExperimentConfig:
    base = dict(
        task="teacher-student",
        layer_dims=[6, 5, 3],
        rank=2,
        scale=2.0,
        optimizer=optimizer,
        learning_rate=0.05,
        rho0=0.05,
        batch_size=12,
        n_batches=3,
        steps=30,
        eval_every=10,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _make_verify_net(rng, dims=(6, 5, 3), rank=2, scale=2.0, loss="mse"):
    net = build_network(list(dims), rank=rank, scale=scale, rng=rng,
                        activation="tanh", loss_kind=loss)
    # b starts at zero; fill it so column spaces are generic.
    for layer in net.layers:
        layer.b = 0.3 * rng.standard_normal(layer.b.shape)
    return net


def _random_batch(rng, net: Network, k: int = 8) -> Batch:
    return Batch(
        inputs=rng.standard_normal((net.in_dim, k)),
        targets=rng.standard_normal((net.out_dim, k)),
    )


def verify() -> VerifyReport:
    """Self-check suite covering the identities the package is built on.

    Each check exercises a property end to end on freshly generated
    problems and reports its worst residual against a fixed tolerance.
    The unrepresentable-component check is informational: it reports the
    size of the perturbation component outside the row space of a without
    ever failing on it.
    """
    checks: list[VerifyCheck] = []
    rng = make_rng(2026)

    # Moore-Penrose conditions, including rank-deficient inputs.
    worst = 0.0
    for trial in range(30):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols))
        if trial % 3 == 0 and min(rows, cols) > 1:
            m[:, -1] = m[:, 0]  # force rank deficiency
        p = pseudo_inverse(m)
        worst = max(
            worst,
            float(np.max(np.abs(m @ p @ m - m))),
            float(np.max(np.abs(p @ m @ p - p))),
            float(np.max(np.abs((m @ p) - (m @ p).T))),
            float(np.max(np.abs((p @ m) - (p @ m).T))),
        )
    checks.append(VerifyCheck("pseudo_inverse_moore_penrose", worst <= 1e-9, worst, 1e-9))

    # The fast Gram route agrees with the SVD route everywhere.
    worst = 0.0
    for trial in range(30):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols))
        if trial % 4 == 0:
            m[0, :] = 0.0
        if trial == 0:
            m = np.zeros((rows, cols))
        worst = max(worst, float(np.max(np.abs(gram_pseudo_inverse(m) - pseudo_inverse(m)))))
    checks.append(VerifyCheck("gram_pseudo_inverse_agreement", worst <= 1e-9, worst, 1e-9))

    # Projector idempotence, symmetry, and action on the row space.
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(r, 10))
        a = rng.standard_normal((r, c))
        p = row_space_projector(a)
        worst = max(
            worst,
            float(np.max(np.abs(p @ p - p))),
            float(np.max(np.abs(p - p.T))),
            float(np.max(np.abs(a @ p - a))),
        )
    checks.append(VerifyCheck("row_projector_properties", worst <= 1e-10, worst, 1e-10))

    # Gradient check against central finite differences.
    worst = 0.0
    net = _make_verify_net(rng)
    batch = _random_batch(rng, net)
    grads = backward(net, batch)
    eps = 1e-6
    for li, layer in enumerate(net.layers):
        for mat, grad in ((layer.b, grads.grad_b[li]), (layer.a, grads.grad_a[li])):
            idx = (int(rng.integers(mat.shape[0])), int(rng.integers(mat.shape[1])))
            orig = mat[idx]
            mat[idx] = orig + eps
            _, lp = forward(net, batch)
            mat[idx] = orig - eps
            _, lm = forward(net, batch)
            mat[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad[idx]) / denom)
    checks.append(VerifyCheck("gradient_finite_difference", worst <= 1e-4, worst, 1e-4))

    # Factor gradients match the merged-weight gradient through the chain rule.
    worst = 0.0
    grads = backward(net, batch, want_full=True)
    for li, layer in enumerate(net.layers):
        gw = grads.grad_w[li]
        worst = max(
            worst,
            float(np.max(np.abs(grads.grad_b[li] - layer.scale * (gw @ layer.a.T)))),
            float(np.max(np.abs(grads.grad_a[li] - layer.scale * (layer.b.T @ gw)))),
        )
    checks.append(VerifyCheck("gradient_chain_identity", worst <= 1e-10, worst, 1e-10))

    # Transferred perturbation reproduces the projected dense loss exactly,
    # and the unrepresentable component is reported, never asserted.
    worst = 0.0
    residual_info = 0.0
    for _ in range(5):
        net_t = _make_verify_net(rng)
        batch_t = _random_batch(rng, net_t)
        plan = perturbation_from_gradients(
            net_t, backward(net_t, batch_t), rho=0.1
        )
        for li in range(len(net_t.layers)):
            diff, unproj = diagnostics.loss_match_residual(
                net_t, batch_t, li, plan.e_w_bar[li], plan.e_b[li]
            )
            worst = max(worst, diff)
            residual_info = max(residual_info, unproj)
    checks.append(VerifyCheck("transfer_loss_match", worst <= 1e-10, worst, 1e-10))
    checks.append(
        VerifyCheck(
            "unrepresentable_component_report",
            True,
            residual_info,
            math.inf,
            "informational: dense perturbation mass outside the row space of a",
        )
    )

    # rho = 0 collapses every variant onto the plain step.
    worst = 0.0
    for kind in ("lora-sam", "flat-lora", "eflat-lora"):
        cfg_a = _tiny_config("lora", rho0=0.0, steps=25)
        cfg_b = _tiny_config(kind, rho0=0.0, steps=25)
        task = generate_task(cfg_a)
        net_a = _build_student(cfg_a, task)
        net_b = _build_student(cfg_b, task)
        step_a, _ = make_step(cfg_a, net_a)
        step_b, pstate = make_step(cfg_b, net_b)
        for t in range(1, 26):
            b = task.train_batches[(t - 1) % len(task.train_batches)]
            step_a(b, t)
            step_b(b, t)
        if pstate is not None:
            pstate.remove(net_b)
        for la, lb in zip(net_a.layers, net_b.layers):
            worst = max(
                worst,
                float(np.max(np.abs(la.b - lb.b))),
                float(np.max(np.abs(la.a - lb.a))),
            )
    checks.append(VerifyCheck("rho_zero_degeneration", worst <= 1e-12, worst, 1e-12))

    # EMA of per-step perturbations matches its closed form.
    worst = 0.0
    beta = 0.7
    cfg_e = _tiny_config("eflat-lora", steps=10, rho0=0.08, beta=beta)
    task = generate_task(cfg_e)
    net_e = _build_student(cfg_e, task)
    step_e, pstate = make_step(cfg_e, net_e)
    per_step: list[list[np.ndarray]] = []
    for t in range(1, 11):
        step_e(task.train_batches[(t - 1) % len(task.train_batches)], t)
        per_step.append([e.copy() for e in pstate.last_e_b])
    t_final = len(per_step)
    for li in range(len(net_e.layers)):
        closed = np.zeros_like(pstate.ema_e_b[li])
        for k, e_list in enumerate(per_step, start=1):
            closed += beta * (1.0 - beta) ** (t_final - k) * e_list[li]
        worst = max(worst, float(np.max(np.abs(closed - pstate.ema_e_b[li]))))
    checks.append(VerifyCheck("ema_closed_form", worst <= 1e-10, worst, 1e-10))

    # Apply/revert restores the exact parameter bytes.
    net_r = _make_verify_net(rng)
    before_b = [layer.b.copy() for layer in net_r.layers]
    before_a = [layer.a.copy() for layer in net_r.layers]
    shifts = [0.1 * rng.standard_normal(layer.b.shape) for layer in net_r.layers]
    handle = apply_b_perturbation(net_r, shifts)
    handle.revert()
    exact = all(
        np.array_equal(layer.b, before_b[i]) and np.array_equal(layer.a, before_a[i])
        for i, layer in enumerate(net_r.layers)
    )
    checks.append(
        VerifyCheck("apply_revert_bit_identical", exact, 0.0 if exact else 1.0, 0.0)
    )

    # A full two-pass step equals the same computation written without any
    # in-place perturb/revert (catches a skipped or wrong revert).
    cfg_c = _tiny_config("flat-lora", steps=1)
    task = generate_task(cfg_c)
    net_live = _build_student(cfg_c, task)
    net_ref = clone_network(net_live)
    b0 = task.train_batches[0]
    make_step(cfg_c, net_live)[0](b0, 1)
    plan = perturbation_from_gradients(net_ref, backward(net_ref, b0), 0.05)
    probe = clone_network(net_ref)
    for layer, e in zip(probe.layers, plan.e_b):
        layer.b = layer.b + e
    grads1 = backward(probe, b0)
    base_update(net_ref, grads1, BaseUpdateConfig(learning_rate=0.05),
                init_sgd_state(net_ref))
    worst = 0.0
    for ll, lr_ in zip(net_live.layers, net_ref.layers):
        worst = max(
            worst,
            float(np.max(np.abs(ll.b - lr_.b))),
            float(np.max(np.abs(ll.a - lr_.a))),
        )
    checks.append(VerifyCheck("step_composition_equivalence", worst <= 1e-14, worst, 1e-14))

    # Frozen base weights never move, whatever the optimizer does.
    cfg_w = _tiny_config("eflat-lora", steps=20)
    task = generate_task(cfg_w)
    net_w = _build_student(cfg_w, task)
    w0_before = [layer.w0.copy() for layer in net_w.layers]
    step_w, _ = make_step(cfg_w, net_w)
    for t in range(1, 21):
        step_w(task.train_batches[(t - 1) % len(task.train_batches)], t)
    frozen_ok = all(
        np.array_equal(layer.w0, w0_before[i]) for i, layer in enumerate(net_w.layers)
    )
    checks.append(
        VerifyCheck("base_weights_frozen", frozen_ok, 0.0 if frozen_ok else 1.0, 0.0)
    )

    # Gradient evaluations per step are exactly 1, 2, 2, 1.
    expected_evals = {"lora": 1, "lora-sam": 2, "flat-lora": 2, "eflat-lora": 1}
    eval_ok = True
    cfg_g = _tiny_config("lora", steps=3)
    task = generate_task(cfg_g)
    for kind, want in expected_evals.items():
        kind_cfg = dataclasses.replace(cfg_g, optimizer=kind)
        step_g, _ = make_step(kind_cfg, _build_student(kind_cfg, task))
        eval_ok = eval_ok and step_g(task.train_batches[0], 1).grad_evals == want
    checks.append(
        VerifyCheck("grad_eval_counts", eval_ok, 0.0 if eval_ok else 1.0, 0.0)
    )

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
    g_norm = float(np.linalg.norm(grads_q.grad_w[0]))
    for rho in (0.01, 0.1, 0.5):
        measured = diagnostics.sharpness_sam(net_q, batch_q, rho)
        expected = rho * g_norm + 0.5 * rho * rho
        worst = max(worst, abs(measured - expected))
    checks.append(VerifyCheck("sharpness_quadratic_closed_form", worst <= 1e-9, worst, 1e-9))

    # The brute-force neighborhood maximum dominates the one-direction probe.
    net_o = _make_verify_net(make_rng(21))
    batch_o = _random_batch(make_rng(22), net_o)
    s_probe = diagnostics.sharpness_sam(net_o, batch_o, 0.1)
    s_oracle = diagnostics.neighborhood_max_oracle(net_o, batch_o, 0.1, n_samples=32)
    short = max(0.0, s_probe - s_oracle)
    checks.append(VerifyCheck("oracle_dominates_probe", short <= 1e-12, short, 1e-12))

    # Balancedness drift in the perturbed factorisation flow stays under
    # its ceiling (10% discretisation slack at this eta).
    worst = 0.0
    for seed in (0, 1):
        rng_f = make_rng([97, seed])
        target = np.outer(rng_f.standard_normal(6), rng_f.standard_normal(5))
        trace = diagnostics.run_scale_invariant_flow(
            target, rho=0.05, scale=2.0, eta=1e-4, steps=300, seed=seed
        )
        worst = max(worst, float(np.max(trace.drift_rate - 1.1 * trace.bound_rhs)))
    checks.append(
        VerifyCheck("balancedness_drift_bound", worst <= 1e-9, max(worst, 0.0), 1e-9)
    )

    # Gap-bound formula against a hand-computed value.
    consts = diagnostics.AssumptionConstants(
        tau_hat=2.0, grad_bound_hat=3.0, noise_var_hat=0.25
    )
    got = diagnostics.ema_sam_gap_bound(consts, rho0=0.1, beta=0.9, t=5)
    lhs = 2.0 * 0.1 / 2.0 + 3.0 + 0.25
    rhs = 0.1 / math.sqrt(5.0) + 0.1 * 0.1**4 + 0.1
    expected = lhs * rhs
    diff = abs(got - expected)
    checks.append(VerifyCheck("gap_bound_formula", diff <= 1e-12, diff, 1e-12))

    # Identical config and seed reproduce the metrics CSV byte for byte.
    import tempfile

    cfg_d = _tiny_config("eflat-lora", steps=30, eval_every=10)
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = os.path.join(tmp, "a")
        dir_b = os.path.join(tmp, "b")
        run_experiment(cfg_d, out_dir=dir_a)
        run_experiment(cfg_d, out_dir=dir_b)
        path_a, _ = run_paths(cfg_d, dir_a)
        path_b, _ = run_paths(cfg_d, dir_b)
        with open(path_a, "rb") as fh:
            bytes_a = fh.read()
        with open(path_b, "rb") as fh:
            bytes_b = fh.read()
    replay_ok = bytes_a == bytes_b and bytes_a.startswith(CSV_HEADER.encode())
    checks.append(
        VerifyCheck("csv_replay_determinism", replay_ok, 0.0 if replay_ok else 1.0, 0.0)
    )

    return VerifyReport(checks=checks)
