"""Workloads, the operations they time, and the checks on their outputs.

One operation is one optimizer step on a step round, or one
run_experiment call.  Every operation is called through the package's
public names, looked up at call time (flatlora.optimizers.lora_step,
flatlora.harness.run_experiment, ...), so a Tracer installed between
operations sees it and an uninstalled one leaves no trace.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

KINDS = ("lora", "lora-sam", "flat-lora", "eflat-lora")
STEP_FUNCTIONS = {
    "lora": "lora_step",
    "lora-sam": "lora_sam_step",
    "flat-lora": "flat_lora_step",
    "eflat-lora": "eflat_lora_step",
}
GRAD_EVALS = {"lora": 1, "lora-sam": 2, "flat-lora": 2, "eflat-lora": 1}
RUN_OPTIMIZER = "eflat-lora"
RUN_STEPS = 100
EVAL_EVERY = 5
MIN_UNITS = 3  # fewest step rounds, and fewest run ops, in any measurement
CAL_CALLS = 10  # calibration calls before every unit of a measurement


@dataclass(frozen=True)
class Workload:
    """A teacher-student configuration and how a run spends its seconds.

    round_steps: steps per optimizer kind on each freshly built student.
    run_share: share of the measured time given to run_experiment calls
    (always at the eval-run configuration); the rest goes to step rounds.
    """

    name: str
    layer_dims: tuple[int, ...]
    rank: int
    batch_size: int
    round_steps: int
    run_share: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default-steps", (16, 16, 4), 4, 3072, round_steps=40, run_share=0.3,
            why="default dims, batch 3072: elementwise temporaries in forward "
                "and backward dominate; 4x16 pseudo-inverses cost little",
        ),
        Workload(
            "wide-steps", (256, 256, 64), 8, 64, round_steps=20, run_share=0.3,
            why="256-wide layers, rank 8, batch 64: Gram solves, SVD fallbacks "
                "and the dense reconstructed gradient dominate flat/eflat steps",
        ),
        Workload(
            "eval-run", (16, 16, 4), 4, 3072, round_steps=40, run_share=0.5,
            why="run_experiment with eflat-lora, eval every 5 steps: sharpness "
                "probes, EMA remove/apply and CSV output around training",
        ),
    )
}


def load_flatlora(root: Path):
    """Import flatlora from root/src and from nowhere else."""
    src = (root / "src").resolve()
    if not (src / "flatlora" / "__init__.py").is_file():
        raise FileNotFoundError(f"no flatlora package under {src}")
    sys.path.insert(0, str(src))
    import flatlora

    if Path(flatlora.__file__).resolve().parent != src / "flatlora":
        raise ImportError(f"flatlora imported from {flatlora.__file__}, not {src}")
    return flatlora


def adapter_digest(net) -> str:
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.b.tobytes())
        h.update(layer.a.tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Timings:
    """Outside-in wall times of the operations of one measurement."""

    step_ns: dict[str, list[int]] = field(
        default_factory=lambda: {kind: [] for kind in KINDS}
    )
    run_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    cal_ns: list[int] = field(default_factory=list)


class Calibration:
    """A fixed kernel that touches no flatlora code and does not depend on
    the seed: a 256x64 by 64x256 product, and a pure-Python loop of 2000
    multiply-adds, the two kinds of work a step spends its time on.  Each
    call takes the next of COPIES pairs of operands, so that no one
    placement of them in memory sets the time.  Timed between the units of
    a measurement, its median is the speed the machine ran at during that
    run.
    """

    COPIES = 8

    def __init__(self):
        import numpy as np  # loads after run.py has set the BLAS threads

        rng = np.random.default_rng(0)
        self.operands = [(rng.standard_normal((256, 64)),
                          rng.standard_normal((64, 256)))
                         for _ in range(self.COPIES)]
        self.calls = 0

    def __call__(self) -> int:
        """Nanoseconds one call of the kernel took."""
        a, b = self.operands[self.calls % self.COPIES]
        self.calls += 1
        t0 = time.perf_counter_ns()
        a @ b
        total = 0
        for i in range(2000):
            total += i * i
        return time.perf_counter_ns() - t0


@dataclass
class Student:
    kind: str
    net: object
    sgd: object
    pstate: object
    update: object
    w0: list


@dataclass
class Reference:
    """Results of the untimed, untraced pass: one step round per kind and
    one run, under tracemalloc."""

    step_peak_bytes: dict[str, int]
    adapter_digests: dict[str, str]
    run_peak_bytes: int
    csv_digest: str


class Bench:
    """One workload at one seed: its task, its operations, their checks and
    the operation counts."""

    def __init__(self, fl, workload: Workload, seed: int, out_dir: Path):
        self.fl = fl
        self.w = workload
        self.seed = seed
        self.configs = {kind: self._config(workload, kind) for kind in KINDS}
        self.run_config = self._config(WORKLOADS["eval-run"], RUN_OPTIMIZER,
                                       steps=RUN_STEPS)
        out_dir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=out_dir)
        self.calibration = Calibration()
        self.run_dir = self._tmp.name
        self.task = None
        self.initial_eval_loss = math.nan
        self.run_initial_eval_loss = math.nan
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def close(self) -> None:
        self._tmp.cleanup()

    def _config(self, workload: Workload, kind: str, steps: int = 2000):
        return self.fl.harness.ExperimentConfig(
            task="teacher-student",
            layer_dims=list(workload.layer_dims),
            rank=workload.rank,
            batch_size=workload.batch_size,
            optimizer=kind,
            steps=steps,
            eval_every=EVAL_EVERY,
            seed=self.seed,
        )

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    # -- set-up ----------------------------------------------------------

    def _build(self, task, cfg):
        return self.fl.harness.build_network(
            cfg.layer_dims,
            rank=cfg.rank,
            scale=cfg.scale,
            rng=self.fl.make_rng([cfg.seed, 1]),
            activation=task.activation,
            loss_kind=task.loss_kind,
            w0_list=task.w0_list,
        )

    def setup(self, tracer=None) -> float:
        """Generate the task and build one student per kind; seconds taken.

        The step rounds that follow train on this task.  The previous task
        is released first, as consecutive run_experiment calls release
        theirs, so every task lands where the last one was.
        """
        self.task = None
        if tracer is not None:
            tracer.begin_op("setup")
        t0 = time.perf_counter()
        task = self.fl.harness.generate_task(self.configs["lora"])
        nets = [self._build(task, self.configs[kind]) for kind in KINDS]
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if math.isnan(self.initial_eval_loss):
            forward = self.fl.model.forward
            self.initial_eval_loss = forward(nets[0], task.eval_batch)[1]
            run_task = self.fl.harness.generate_task(self.run_config)
            run_net = self._build(run_task, self.run_config)
            self.run_initial_eval_loss = forward(run_net, run_task.eval_batch)[1]
        self.task = task
        return elapsed

    def student(self, kind: str) -> Student:
        O = self.fl.optimizers
        cfg = self.configs[kind]
        net = self._build(self.task, cfg)
        return Student(
            kind=kind,
            net=net,
            sgd=O.init_sgd_state(net),
            pstate=(O.init_perturb_state(net, rho0=cfg.rho0, beta=cfg.beta)
                    if kind == "eflat-lora" else None),
            update=O.BaseUpdateConfig(
                learning_rate=cfg.learning_rate,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
            ),
            w0=[layer.w0.copy() for layer in net.layers],
        )

    def eval_loss(self, st: Student) -> float:
        """Eval loss at the unperturbed adapters; the network is left as found."""
        applied = st.pstate is not None and st.pstate.applied
        if applied:
            st.pstate.remove(st.net)
        loss = self.fl.model.forward(st.net, self.task.eval_batch)[1]
        if applied:
            st.pstate.apply(st.net)
        return loss

    # -- step rounds -----------------------------------------------------

    def _step_args(self, st: Student, batch, t: int) -> tuple:
        cfg = self.configs[st.kind]
        schedule = cfg.resolved_schedule()
        if st.kind == "lora":
            return (st.net, batch, st.update, st.sgd)
        if st.kind == "eflat-lora":
            return (st.net, batch, st.pstate, st.update, st.sgd,
                    cfg.direction_variant, cfg.svd_tol, schedule)
        rho = self.fl.optimizers.rho_at(cfg.rho0, t, schedule)
        if st.kind == "lora-sam":
            return (st.net, batch, rho, st.update, st.sgd, cfg.direction_variant)
        return (st.net, batch, rho, st.update, st.sgd,
                cfg.direction_variant, cfg.svd_tol)

    def _check_step(self, st: Student, stats, t: int) -> str | None:
        if stats.grad_evals != GRAD_EVALS[st.kind]:
            return f"{stats.grad_evals} grad evals"
        if st.kind == "lora":
            losses = [stats.loss_original]
        elif st.kind == "eflat-lora":
            # The first step runs unperturbed, every later one perturbed.
            losses = [stats.loss_original if t == 1 else stats.loss_perturbed]
        else:
            losses = [stats.loss_original, stats.loss_perturbed]
        if not all(math.isfinite(x) for x in losses):
            return f"loss {losses}"
        if st.kind == "eflat-lora" and not st.pstate.applied:
            return "PerturbState.applied is false"
        return None

    def step_round(self, kind: str, timings: Timings | None = None,
                   tracer=None, peaks: list[int] | None = None) -> Student:
        """round_steps steps of one kind on a freshly built student.

        Step times after the first tenth (the warmup harness.bench also
        drops) go to timings; with peaks given, each step's tracemalloc
        peak above the traced size at its start is appended there.
        """
        st = self.student(kind)
        step = getattr(self.fl.optimizers, STEP_FUNCTIONS[kind])
        pool = self.task.train_batches
        n = self.w.round_steps
        warmup = max(1, n // 10)
        bad = 0
        done = 0
        for t in range(1, n + 1):
            args = self._step_args(st, pool[(t - 1) % len(pool)], t)
            self.attempted += 1
            done += 1
            if peaks is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            if tracer is not None:
                tracer.begin_op(kind)
            try:
                t0 = time.perf_counter_ns()
                stats = step(*args)
                elapsed = time.perf_counter_ns() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                self._fail(1, f"{kind} step {t} raised {exc!r}")
                return st
            finally:
                if tracer is not None:
                    tracer.end_op()
            if peaks is not None:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            problem = self._check_step(st, stats, t)
            if problem is not None:
                bad += 1
                self._fail(1, f"{kind} step {t}: {problem}")
            if timings is not None and t > warmup:
                timings.step_ns[kind].append(elapsed)
        problem = None
        if any(layer.w0.tobytes() != saved.tobytes()
               for layer, saved in zip(st.net.layers, st.w0)):
            problem = "w0 changed"
        elif not self.eval_loss(st) < self.initial_eval_loss:
            problem = "eval loss did not fall"
        if problem is not None:
            self._fail(done - bad, f"{kind} round: {problem}")
        return st

    # -- run operations --------------------------------------------------

    def run_op(self, timings: Timings | None = None, tracer=None) -> None:
        """One run_experiment call writing its CSV to the bench's temp dir."""
        H = self.fl.harness
        cfg = self.run_config
        self.attempted += 1
        first_span = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.begin_op("run")
        try:
            t0 = time.perf_counter()
            records, summary = H.run_experiment(cfg, out_dir=self.run_dir)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(1, f"run raised {exc!r}")
            return
        finally:
            if tracer is not None:
                tracer.end_op()
        problem = None
        if summary.total_grad_evals != cfg.steps * GRAD_EVALS[cfg.optimizer]:
            problem = f"{summary.total_grad_evals} grad evals"
        elif not all(math.isfinite(r.train_loss) and math.isfinite(r.eval_loss)
                     for r in records):
            problem = "non-finite loss in the records"
        elif not records[-1].eval_loss < self.run_initial_eval_loss:
            problem = "eval loss did not fall"
        elif tracer is not None:
            # run_experiment keeps its PerturbState; the trace shows whether
            # it ends applied: one more apply than remove.
            names = [rec[0] for rec in tracer.spans[first_span:]]
            balance = (names.count("optimizers.perturb_state.apply")
                       - names.count("optimizers.perturb_state.remove"))
            if balance != 1:
                problem = f"PerturbState apply-remove balance {balance}"
        if problem is not None:
            self._fail(1, f"run: {problem}")
        elif timings is not None:
            timings.run_s.append(elapsed)

    def csv_path(self) -> str:
        return self.fl.harness.run_paths(self.run_config, self.run_dir)[0]

    # -- measurements ----------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> tuple[Timings, Timings]:
        """Interleave step rounds (every kind once, on fresh students) and
        run ops for `seconds`, giving run ops run_share of the time.  An
        untraced set-up and CAL_CALLS calibration calls precede every unit,
        so their samples spread over the whole measurement too.

        With a tracer each unit runs twice, untraced and traced, the order
        alternating, so the second Timings gives the tracing overhead.
        """
        plain, traced = Timings(), Timings()
        start = time.perf_counter()
        run_time = total_time = 0.0
        rounds = runs = 0
        while True:
            if time.perf_counter() - start >= seconds:
                if rounds >= MIN_UNITS and runs >= MIN_UNITS:
                    break
                do_run = runs < MIN_UNITS
            else:
                do_run = rounds > 0 and run_time < self.w.run_share * total_time
            plain.setup_s.append(self.setup())
            plain.cal_ns.extend(self.calibration() for _ in range(CAL_CALLS))
            passes = [(None, plain)]
            if tracer is not None:
                passes.append((tracer, traced))
                if (rounds + runs) % 2:
                    passes.reverse()
            t0 = time.perf_counter()
            for tr, timings in passes:
                if tr is not None:
                    tr.install()
                try:
                    if do_run:
                        self.run_op(timings, tr)
                    else:
                        for kind in KINDS:
                            self.step_round(kind, timings, tr)
                finally:
                    if tr is not None:
                        tr.uninstall()
            spent = time.perf_counter() - t0
            total_time += spent
            if do_run:
                runs += 1
                run_time += spent
            else:
                rounds += 1
        return plain, traced

    def reference(self) -> Reference:
        """Untimed, untraced pass under tracemalloc: per-kind step peaks and
        final adapter digests, then one run's peak and CSV digest."""
        peaks: dict[str, int] = {}
        digests: dict[str, str] = {}
        tracemalloc.start()
        try:
            for kind in KINDS:
                per_step: list[int] = []
                st = self.step_round(kind, peaks=per_step)
                peaks[kind] = max(per_step, default=0)
                digests[kind] = adapter_digest(st.net)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self.run_op()
            run_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return Reference(peaks, digests, run_peak, file_digest(self.csv_path()))

    def memory_trace(self, tracer) -> None:
        """One traced step round per kind with span peaks (tracer built
        with track_memory=True)."""
        tracemalloc.start()
        tracer.install()
        try:
            for kind in KINDS:
                self.step_round(kind, tracer=tracer)
        finally:
            tracer.uninstall()
            tracemalloc.stop()
