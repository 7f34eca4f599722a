"""Experiment harness: configs, task generators, the config-to-step entry
point, the training loop with metrics output, and the wall-time benchmark.

Runs are deterministic by construction: every random draw flows from the
config seed through named substreams, every norm is numpy's pairwise sum
(linalg._sq_norm) rather than a BLAS dot whose bits follow the thread
count, and the metrics CSV is written with round-trip float formatting, so
an identical config and seed reproduces the file byte for byte.  The
training loop reads no clock; only train_kinds times each step call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .linalg import _check_tol, _sq_norm, make_rng
from .model import Batch, Network, build_network, forward
from .optimizers import (
    OPTIMIZER_KINDS,
    RHO_SCHEDULES,
    BaseUpdateConfig,
    PerturbState,
    StepStats,
    _check_beta,
    _check_rho,
    _check_variant,
    eflat_lora_step,
    flat_lora_step,
    init_perturb_state,
    init_sgd_state,
    lora_sam_step,
    lora_step,
    param_and_memory_counts,
    rho_at,
)

TASK_KINDS = ("teacher-student", "two-cluster", "matrix-factorization")

OUT_DIR_ENV_VAR = "FLATLORA_OUT_DIR"


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


def _raising_errstate() -> np.errstate:
    """The error state every training loop runs under: overflow, invalid
    and divide raise, and harmless underflow stays quiet."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


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
        if not (self.weight_decay >= 0.0 and math.isfinite(self.weight_decay)):
            problems["weight_decay"] = "must be >= 0 and finite"
        if self.rho_schedule not in RHO_SCHEDULES + ("auto",):
            problems["rho_schedule"] = f"must be 'auto' or one of {RHO_SCHEDULES}"
        for name, check in (("rho0", lambda: _check_rho(self.rho0, "rho0")),
                            ("beta", lambda: _check_beta(self.beta)),
                            ("direction_variant", lambda: _check_variant(self.direction_variant)),
                            ("svd_tol", lambda: _check_tol(self.svd_tol))):
            try:
                check()
            except ValueError as exc:
                problems[name] = str(exc)
        if self.batch_size < 1:
            problems["batch_size"] = "must be >= 1"
        if self.n_batches < 1:
            problems["n_batches"] = "must be >= 1"
        if not (self.noise_std >= 0.0 and math.isfinite(self.noise_std)):
            problems["noise_std"] = "must be >= 0 and finite"
        if self.steps < 0:
            problems["steps"] = "must be >= 0"
        if self.eval_every < 1:
            problems["eval_every"] = "must be >= 1"
        if self.seed < 0:
            problems["seed"] = "must be >= 0"
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
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# One value parser per field type of ExperimentConfig (its annotations are
# strings under postponed evaluation), the inverse of _format_value.
_TYPE_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "list[int]": lambda s: [int(p) for p in s.split(",")],
}
_CONFIG_PARSERS = {
    f.name: _TYPE_PARSERS[f.type] for f in dataclasses.fields(ExperimentConfig)
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format (# starts a comment line).

    Unknown, repeated and unparseable keys raise ConfigError listing every
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
        if key in values or key in problems:
            problems[key] = f"repeated on line {lineno}"
            continue
        try:
            values[key] = parser(value)
        except ValueError:
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

    train_batches: list[Batch]
    eval_batch: Batch
    w0_list: list[np.ndarray]
    activation: str
    loss_kind: str

    def train_batch(self, t: int) -> Batch:
        """The batch of 1-based step t: the train batches in order, cycled."""
        return self.train_batches[(t - 1) % len(self.train_batches)]


def _dense_forward(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    # tanh in place: each hidden layer holds one array at a time.
    h = x
    for i, w in enumerate(weights):
        h = w @ h
        if i < len(weights) - 1:
            np.tanh(h, out=h)
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
            train_batches=train,
            eval_batch=eval_batch,
            w0_list=w0_list,
            activation="tanh",
            loss_kind="mse",
        )
    if cfg.task == "two-cluster":
        direction = rng.standard_normal(dims[0])
        direction /= math.sqrt(_sq_norm(direction))
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
    perturb_norm: float

    def to_csv_row(self) -> str:
        """Fields in declaration order, floats in round-trip form."""
        return ",".join(repr(getattr(self, f.name)) for f in dataclasses.fields(self))


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(MetricsRecord))


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
    schedule and SVD tolerance; pstate is the EMA state of eflat-lora
    (None for the other kinds), which evaluation code removes and
    reapplies around its measurements.  The step functions are
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
    tol = cfg.svd_tol
    kind = cfg.optimizer
    if kind == "lora":
        return (lambda batch, t: lora_step(net, batch, opt, sgd)), None
    if kind == "lora-sam":
        return (lambda batch, t: lora_sam_step(
            net, batch, rho_at(rho0, t, schedule), opt, sgd)), None
    if kind == "flat-lora":
        return (lambda batch, t: flat_lora_step(
            net, batch, rho_at(rho0, t, schedule), opt, sgd, tol=tol)), None
    if kind == "eflat-lora":
        pstate = init_perturb_state(net, rho0=rho0, beta=cfg.beta)
        return (lambda batch, t: eflat_lora_step(
            net, batch, pstate, opt, sgd, tol=tol, schedule=schedule)), pstate
    raise ValueError(f"unknown optimizer kind {kind!r}")


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> tuple[list[MetricsRecord], RunSummary]:
    """Train per the config on the task generate_task(cfg) builds,
    evaluating every eval_every steps.

    Returns the metrics records and the summary; when out_dir is given the
    CSV and summary JSON are also written there, into a directory made
    before any training.  Raises ExperimentAbort (with the offending
    step) if any loss turns non-finite.  Training and evaluation run
    under _raising_errstate(), so divergence stops at its first numpy
    operation, with no warnings, as an abort at that step.
    """
    cfg.validate()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    task = generate_task(cfg)
    net = _build_student(cfg, task)
    step, pstate = make_step(cfg, net)

    records: list[MetricsRecord] = []
    grad_evals = 0
    t = 0
    try:
        with _raising_errstate():
            for t in range(1, cfg.steps + 1):
                stats = step(task.train_batch(t), t)
                grad_evals += stats.grad_evals
                train_loss = (
                    stats.loss_original
                    if math.isfinite(stats.loss_original)
                    else stats.loss_perturbed
                )
                if not math.isfinite(train_loss):
                    raise ExperimentAbort(t, f"training loss is {train_loss}")
                if t % cfg.eval_every == 0 or t == cfg.steps:
                    records.append(MetricsRecord(
                        t, train_loss, *_evaluate(cfg, net, task, pstate, t),
                        grad_evals, stats.perturb_norm))
            last = records[-1] if records else MetricsRecord(
                0, math.nan, *_evaluate(cfg, net, task, pstate, 0), 0, 0.0)
    except FloatingPointError as exc:
        raise ExperimentAbort(t, str(exc)) from exc

    counts = param_and_memory_counts(net, cfg.optimizer)
    summary = RunSummary(
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        optimizer=cfg.optimizer,
        task=cfg.task,
        steps=cfg.steps,
        final_train_loss=last.train_loss,
        final_eval_loss=last.eval_loss,
        final_sharpness_sam=last.sharpness_sam,
        final_sharpness_ema=last.sharpness_ema,
        final_gap=last.gap,
        total_grad_evals=last.grad_evals_cumulative,
        trainable_params=counts.trainable,
        extra_memory_elements=counts.extra,
    )
    if out_dir is not None:
        write_run_outputs(cfg, records, summary, out_dir)
    return records, summary


def _evaluate(
    cfg: ExperimentConfig, net: Network, task: Task, pstate: PerturbState | None, step: int
) -> tuple[float, float, float, float, float]:
    """(eval_loss, sharpness_sam, sharpness_ema, gap, balancedness) at the
    unperturbed parameters; the network is put back exactly as found,
    also when a measurement raises.

    One sweep per distinct parameter point.  With an EMA state, one
    forward on the network as the step left it gives the EMA point
    first: the step applied its shift, b + ema_e_b, the sum
    apply_b_perturbation would build, and at step 0 nothing is applied
    and the EMA is zero.  Then an applied shift comes off, the
    sharpness probe's backward at the unperturbed point gives
    eval_loss, and its one offset forward the SAM point.  The EMA
    sharpness is the EMA loss minus eval_loss, the subtraction
    diagnostics.sharpness_ema makes.  So an evaluation costs two sweeps,
    three for eflat-lora at every step count.  sharpness_ema and gap are
    NaN without an EMA state.
    """
    ema_loss = None if pstate is None else forward(net, task.eval_batch)[1]
    was_applied = pstate is not None and pstate.applied
    if was_applied:
        pstate.remove(net)
    try:
        rho_now = rho_at(cfg.rho0, max(step, 1), cfg.resolved_schedule())
        eval_loss, s_sam = diagnostics.sam_probe(net, task.eval_batch, rho_now)
        if not math.isfinite(eval_loss):
            raise ExperimentAbort(step, f"eval loss is {eval_loss}")
        s_ema = gap = math.nan
        if ema_loss is not None:
            s_ema = ema_loss - eval_loss
            gap = abs(s_ema - s_sam)
        return eval_loss, s_sam, s_ema, gap, diagnostics.network_balancedness(net)
    finally:
        if was_applied:
            pstate.apply(net)


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
    """Run the same config across seeds (data and init reseeded per run).
    A seed listed twice would rewrite its run's files, and a bad seed
    would stop the sweep part way; either raises ConfigError before any
    run."""
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ConfigError({"seeds": f"repeated {', '.join(map(str, repeated))}"})
    run_cfgs = [dataclasses.replace(cfg, seed=seed) for seed in seeds]
    for run_cfg in run_cfgs:
        run_cfg.validate()
    return [run_experiment(run_cfg, out_dir=out_dir)[1] for run_cfg in run_cfgs]


@dataclass
class TrainedKind:
    net: Network
    grad_evals: int
    step_ms: list[float]


def train_kinds(
    cfg: ExperimentConfig, task: Task, kinds: Sequence[str]
) -> dict[str, TrainedKind]:
    """cfg.steps steps of each kind in kinds, each on a fresh student of
    task, interleaved: step t of every kind runs on task.train_batch(t)
    before step t + 1 of any, so a drift in machine speed cannot
    systematically favour one kind.  Each step(batch, t) call is timed
    from outside, under run_experiment's error state; divergence raises
    ExperimentAbort naming the kind and the step, with no warnings.
    Returns per kind the network with its EMA shift removed, its gradient
    evaluations and its step times in ms.
    """
    runs = {}
    for kind in kinds:
        run_cfg = dataclasses.replace(cfg, optimizer=kind)
        net = _build_student(run_cfg, task)
        runs[kind] = (TrainedKind(net, 0, []), *make_step(run_cfg, net))
    t = 0
    try:
        with _raising_errstate():
            for t in range(1, cfg.steps + 1):
                batch = task.train_batch(t)
                for kind, (run, step, _) in runs.items():
                    t0 = time.perf_counter()
                    stats = step(batch, t)
                    run.step_ms.append((time.perf_counter() - t0) * 1e3)
                    run.grad_evals += stats.grad_evals
    except FloatingPointError as exc:
        raise ExperimentAbort(t, f"{kind}: {exc}") from exc
    for run, _, pstate in runs.values():
        if pstate is not None and pstate.applied:
            pstate.remove(run.net)
    return {kind: run for kind, (run, _, _) in runs.items()}


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
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"


def _bench_warmup(cfg: ExperimentConfig, repeats: int) -> int:
    """The warmup step count of a bench; bad arguments raise ConfigError."""
    cfg.validate()
    if repeats < 1:
        raise ConfigError({"repeats": f"must be >= 1, got {repeats}"})
    warmup = max(1, cfg.steps // 10)
    if cfg.steps <= warmup:
        raise ConfigError({"steps": f"bench needs steps > {warmup} for warmup"})
    return warmup


def bench(cfg: ExperimentConfig, repeats: int = 3) -> BenchReport:
    """Median per-step wall time for each optimizer on the config's task,
    with diagnostics disabled (bare steps, no evaluation in the loop).

    Each repeat trains every kind through train_kinds: fresh students of
    one task, interleaved step by step, each step call timed from outside
    under run_experiment's error state, so a diverging config raises
    ExperimentAbort naming the optimizer and the step.  The first tenth
    of each run's steps (at least one) is cut as warmup before taking
    medians.  Too few repeats or steps raise ConfigError.
    """
    warmup = _bench_warmup(cfg, repeats)
    task = generate_task(cfg)
    runs = [train_kinds(cfg, task, OPTIMIZER_KINDS) for _ in range(repeats)]
    medians = {kind: statistics.median([ms for r in runs for ms in r[kind].step_ms[warmup:]])
               for kind in OPTIMIZER_KINDS}
    evals = {kind: sum(r[kind].grad_evals for r in runs) / (repeats * cfg.steps)
             for kind in OPTIMIZER_KINDS}
    entries = []
    for kind in OPTIMIZER_KINDS:
        counts = param_and_memory_counts(runs[0][kind].net, kind)
        entries.append(BenchEntry(
            optimizer=kind,
            median_step_ms=medians[kind],
            ratio_vs_lora=medians[kind] / medians["lora"],
            grad_evals_per_step=evals[kind],
            grad_eval_ratio_vs_lora=evals[kind] / evals["lora"],
            trainable_params=counts.trainable,
            extra_memory_elements=counts.extra,
        ))
    return BenchReport(config_hash=cfg.config_hash(), repeats=repeats,
                       steps_timed=cfg.steps - warmup, entries=entries)
