"""Experiment harness: configs, task generators, the config-to-step entry
point, the training loop with metrics output, and the wall-time benchmark.

Runs are deterministic by construction: every random draw flows from the
config seed through named substreams, every norm is numpy's pairwise sum
(linalg._sq_norm) rather than a BLAS dot whose bits follow the thread
count, and the metrics CSV is written with round-trip float formatting, so
an identical config and seed reproduces the file byte for byte.  The
training loop reads no clock; only train_kinds times each step call.

generate_task's teacher-student branch makes every draw in the calling
thread, in stream order.  One worker thread only does arithmetic on the
drawn arrays: it builds the teacher and w0 from their draws, then adds
the teacher's outputs into each train batch's drawn noise while the next
batch is drawn.  No array of the task depends on how the two threads are
scheduled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import queue
import statistics
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .linalg import _check_tol, make_rng
from .model import Batch, Network, _check_rank, _check_scale, build_network, forward
from .optimizers import (
    OPTIMIZER_KINDS,
    RHO_SCHEDULES,
    BaseUpdateConfig,
    PerturbState,
    StepStats,
    _check_beta,
    _check_learning_rate,
    _check_momentum,
    _check_rho,
    _check_variant,
    _check_weight_decay,
    eflat_lora_step,
    flat_lora_step,
    init_perturb_state,
    init_sgd_state,
    lora_sam_step,
    lora_step,
    param_and_memory_counts,
    rho_at,
)

TASK_KINDS = ("teacher-student", "matrix-factorization")

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, checked when made and frozen.  The config
    hash covers every field except the seed, so sweeps over seeds share a
    hash and runs land in files named <hash>_<seed>.csv."""

    task: str = "teacher-student"
    layer_dims: tuple[int, ...] = (16, 16, 4)
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

    def __post_init__(self) -> None:
        if type(self.layer_dims) is list:
            object.__setattr__(self, "layer_dims", tuple(self.layer_dims))
        self.validate()

    def validate(self) -> None:
        problems = {f.name: f"must be {f.type}, got {type(getattr(self, f.name)).__name__}"
                    for f in dataclasses.fields(self)
                    if type(getattr(self, f.name)) is not _FIELD_TYPES[f.type][0]}
        if problems:
            raise ConfigError(problems)
        if self.task not in TASK_KINDS:
            problems["task"] = f"must be one of {TASK_KINDS}"
        if len(self.layer_dims) < 2 or any(type(d) is not int or d < 1 for d in self.layer_dims):
            problems["layer_dims"] = "need >= 2 positive int dims"
        elif self.task == "matrix-factorization" and len(self.layer_dims) != 2:
            problems["layer_dims"] = "matrix-factorization uses exactly [in, out]"
        if self.optimizer not in OPTIMIZER_KINDS:
            problems["optimizer"] = f"must be one of {OPTIMIZER_KINDS}"
        if self.rho_schedule not in RHO_SCHEDULES + ("auto",):
            problems["rho_schedule"] = f"must be 'auto' or one of {RHO_SCHEDULES}"
        # Each rule below is the check its runtime owner makes on the way in,
        # and the message is the owner's.  No rank fits a bad layer_dims, so
        # the rank is checked only against good ones.
        for name, check in (("rank", self._check_layer_ranks),
                            ("scale", lambda: _check_scale(self.scale)),
                            ("learning_rate", lambda: _check_learning_rate(self.learning_rate)),
                            ("momentum", lambda: _check_momentum(self.momentum)),
                            ("weight_decay", lambda: _check_weight_decay(self.weight_decay)),
                            ("rho0", lambda: _check_rho(self.rho0, "rho0")),
                            ("beta", lambda: _check_beta(self.beta)),
                            ("direction_variant", lambda: _check_variant(self.direction_variant)),
                            ("svd_tol", lambda: _check_tol(self.svd_tol))):
            if name == "rank" and "layer_dims" in problems:
                continue
            try:
                check()
            except ValueError as exc:
                problems[name] = str(exc)
        if not (self.noise_std >= 0.0 and math.isfinite(self.noise_std)):
            problems["noise_std"] = "must be >= 0 and finite"
        for name, floor in (("batch_size", 1), ("n_batches", 1), ("steps", 0),
                            ("eval_every", 1), ("seed", 0)):
            if getattr(self, name) < floor:
                problems[name] = f"must be >= {floor}"
        if problems:
            raise ConfigError(problems)

    def _check_layer_ranks(self) -> None:
        """Check the rank against each layer of layer_dims in build order,
        as build_network's LoRALinear does."""
        for m, n in zip(self.layer_dims, self.layer_dims[1:]):
            _check_rank(self.rank, n, m)

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
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# Per field annotation of ExperimentConfig (a string under postponed
# evaluation), the exact type of a value, so no bool or numpy scalar, and
# the parser of its text, the inverse of _format_value.
_FIELD_TYPES = {
    "str": (str, str),
    "int": (int, int),
    "float": (float, float),
    "tuple[int, ...]": (tuple, lambda s: tuple(int(p) for p in s.split(","))),
}
_CONFIG_PARSERS = {
    f.name: _FIELD_TYPES[f.type][1] for f in dataclasses.fields(ExperimentConfig)
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value format (# starts a comment line).

    Unknown, repeated and unparseable keys raise ConfigError listing every
    offender; missing keys keep their defaults, and the config checks
    the values as it is made.
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
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def _add_teacher_outputs(
    teacher: list[np.ndarray],
    w0_list: list[np.ndarray],
    jobs: queue.SimpleQueue,
    errstate: dict,
    errors: list[BaseException],
) -> None:
    """generate_task's worker, under the caller's numpy error state: build
    the teacher and w0 in place from their draws, then for each
    (x, targets) taken from jobs, in order, add the teacher's output at x
    into targets, until None.  Its own error goes to errors, and it ends
    there.  It draws nothing and calls no name that a tracer may wrap."""
    try:
        with np.errstate(**errstate):
            # w / sqrt(m) and w + 0.1 * d / sqrt(m), each array's
            # operations in the order the formula gives them (+ commutes).
            for w, d in zip(teacher, w0_list):
                root = np.sqrt(w.shape[1])
                w /= root
                d *= 0.1
                d /= root
                d += w
            while (job := jobs.get()) is not None:
                x, targets = job
                targets += _dense_forward(teacher, x)
    except BaseException as exc:
        errors.append(exc)


def generate_task(cfg: ExperimentConfig) -> Task:
    """Deterministic synthetic data for the configured task kind.

    teacher-student: a frozen random tanh teacher produces regression
    targets (train targets carry Gaussian noise, the eval batch is clean);
    the student's frozen base weights start near the teacher, so training
    mimics adapting a competent base model.  An error of the calling
    thread wins over one of the worker, raised once it stops.

    matrix-factorization: a single linear layer with zero base weight is
    trained to factor a rank-one target; inputs are sqrt(in_dim) times the
    identity, which makes the loss exactly half the squared Frobenius
    distance between the merged weight and the target.
    """
    dims = cfg.layer_dims
    rng = make_rng([cfg.seed, 0])
    if cfg.task == "teacher-student":
        teacher = [rng.standard_normal((n, m)) for m, n in zip(dims, dims[1:])]
        w0_list = [rng.standard_normal(w.shape) for w in teacher]
        # A train target is t + noise_std * noise, which has the bits of the
        # noise scaled in place with t added into it, since * and + commute
        # exactly.  This thread makes every draw in stream order and scales
        # each batch's noise; one worker builds the teacher and w0 from
        # their draws, then adds each batch's t while the next is drawn.
        jobs: queue.SimpleQueue = queue.SimpleQueue()
        errors: list[BaseException] = []
        worker = threading.Thread(target=_add_teacher_outputs,
                                  args=(teacher, w0_list, jobs, np.geterr(), errors))
        worker.start()
        train = []
        try:
            for _ in range(cfg.n_batches):
                if errors:
                    break
                x = rng.standard_normal((dims[0], cfg.batch_size))
                noise = rng.standard_normal((dims[-1], cfg.batch_size))
                noise *= cfg.noise_std
                jobs.put((x, noise))
                train.append(Batch(inputs=x, targets=noise))
            x_eval = rng.standard_normal((dims[0], cfg.batch_size))
        finally:
            jobs.put(None)
            worker.join()
        if errors:
            raise errors[0]
        eval_batch = Batch(inputs=x_eval, targets=_dense_forward(teacher, x_eval))
        return Task(
            train_batches=train,
            eval_batch=eval_batch,
            w0_list=w0_list,
            activation="tanh",
            loss_kind="mse",
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
    module's names (perfbench's tracer) see every step.  A config is
    checked when made, so cfg.optimizer is one of OPTIMIZER_KINDS.
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
    # eflat-lora
    pstate = init_perturb_state(net, rho0=rho0, beta=cfg.beta)
    return (lambda batch, t: eflat_lora_step(
        net, batch, pstate, opt, sgd, tol=tol, schedule=schedule)), pstate


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
    run, the bad seed as its config is made by dataclasses.replace."""
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ConfigError({"seeds": f"repeated {', '.join(map(str, repeated))}"})
    run_cfgs = [dataclasses.replace(cfg, seed=seed) for seed in seeds]
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
