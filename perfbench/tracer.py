"""Span tracing from outside the flatlora package.

A Tracer replaces module-level names and methods with wrappers at the
places where their callers look them up (for example
flatlora.optimizers.backward, which every step function calls, or
PerturbationHandle.revert), records one span per call, and puts every
original back on uninstall.  Nothing inside src/ is edited or imported
differently; with the tracer uninstalled the program runs exactly the
code it always runs.

Spans are recorded only while an operation is open (begin_op/end_op), so
the benchmark's own bookkeeping between operations never shows up.  Each
span holds its name, the operation label (optimizer kind, "run" or
"setup"), the operation id, its parent span, start and end in
perf_counter nanoseconds and, when memory tracking is on, the tracemalloc
peak reached inside it above the traced size at its start.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc

# Span record fields, kept as plain lists on the hot path.
NAME, LABEL, OP, PARENT, START, END, PEAK, EXTRA, BASE = range(9)


def patch_targets(fl):
    """(owner, attribute, span name) for every wrapped name.

    The owner is the namespace the caller looks the name up in, so a
    function imported into two modules is wrapped in both.  Span names are
    <layer>.<function>, the layer being the module that implements it.
    """
    O, M, D, H = fl.optimizers, fl.model, fl.diagnostics, fl.harness
    targets = []
    for step in ("lora_step", "lora_sam_step", "flat_lora_step", "eflat_lora_step"):
        targets.append((O, step, "optimizers.step"))  # the benchmark's own calls
        targets.append((H, step, "optimizers.step"))  # run_experiment's calls
    targets += [
        (O, "backward", "model.backward"),
        (O, "apply_perturbation", "model.apply_perturbation"),
        (O, "apply_b_perturbation", "model.apply_perturbation"),
        (M.PerturbationHandle, "revert", "model.revert"),
        (O, "perturbation_from_gradients", "optimizers.perturbation_from_gradients"),
        (O, "sam_direction", "optimizers.sam_direction"),
        (O, "base_update", "optimizers.base_update"),
        (O.PerturbState, "apply", "optimizers.perturb_state.apply"),
        (O.PerturbState, "remove", "optimizers.perturb_state.remove"),
        (O, "cho_factor", "linalg.cho_factor"),
        (O, "cho_solve", "linalg.cho_solve"),
        (O, "pseudo_inverse", "linalg.pseudo_inverse"),
        (D, "sharpness_sam", "diagnostics.sharpness_sam"),
        (D, "sharpness_ema", "diagnostics.sharpness_ema"),
        (D, "network_balancedness", "diagnostics.network_balancedness"),
        (D, "backward", "model.backward"),
        (D, "forward", "model.forward"),
        (D, "forward_with_offsets", "model.forward_with_offsets"),
        (D, "apply_b_perturbation", "model.apply_perturbation"),
        (D, "sam_direction", "optimizers.sam_direction"),
        (H, "forward", "model.forward"),
        (H, "generate_task", "harness.generate_task"),
        (H, "build_network", "harness.build_network"),
        (H, "write_run_outputs", "harness.write_run_outputs"),
        (H, "run_experiment", "harness.run_experiment"),
    ]
    return targets


def _record_degenerate(span, plan):
    span[EXTRA] = len(plan.degenerate_layers)


def _record_bytes(span, paths):
    span[EXTRA] = sum(os.path.getsize(p) for p in paths)


# Values read from a wrapped call's result, kept in the span's EXTRA slot.
RESULT_HOOKS = {
    "optimizers.perturbation_from_gradients": _record_degenerate,
    "harness.write_run_outputs": _record_bytes,
}


class Tracer:
    """Install wrappers, collect spans, restore the originals."""

    def __init__(self, fl, track_memory: bool = False):
        self.fl = fl
        self.track_memory = track_memory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: tuple[int, str] | None = None
        self._next_op = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in patch_targets(self.fl):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if span is not None and hook is not None:
                hook(self.spans[span], result)
            return result

        return traced

    # -- operations and spans ------------------------------------------

    def begin_op(self, label: str) -> None:
        self._op = (self._next_op, label)
        self._next_op += 1

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    def _open(self, name):
        if self._op is None:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self._op[1], self._op[0], parent, 0, 0, 0, None, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            for open_idx in self._stack[:-1]:
                outer = self.spans[open_idx]
                outer[PEAK] = max(outer[PEAK], peak)
            tracemalloc.reset_peak()
            rec[BASE] = current
        rec[START] = time.perf_counter_ns()
        return idx

    def _close(self, idx) -> None:
        if idx is None:
            return
        end = time.perf_counter_ns()
        rec = self.spans[idx]
        rec[END] = end
        self._stack.pop()
        if self.track_memory:
            _, peak = tracemalloc.get_traced_memory()
            for open_idx in self._stack:
                outer = self.spans[open_idx]
                outer[PEAK] = max(outer[PEAK], peak)
            rec[PEAK] = max(rec[PEAK], peak) - rec[BASE]

    # -- output -----------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in the order the spans opened."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx,
                    "parent": rec[PARENT],
                    "name": rec[NAME],
                    "label": rec[LABEL],
                    "op": rec[OP],
                    "start_ns": rec[START],
                    "end_ns": rec[END],
                    "peak_bytes": rec[PEAK] if self.track_memory else None,
                    "extra": rec[EXTRA],
                }) + "\n")


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    The program is single-threaded, so children of one span never overlap
    and their durations add up to the part of the parent they cover.
    """
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def aggregate(spans):
    """Per (label, span name): calls, summed self and total ns, the
    largest peak, and the summed values that result hooks recorded."""
    selfs = self_times_ns(spans)
    agg: dict[tuple[str, str], dict] = {}
    for rec, self_ns in zip(spans, selfs):
        a = agg.setdefault((rec[LABEL], rec[NAME]), {
            "calls": 0, "self_ns": 0, "total_ns": 0, "peak": 0, "extra": 0,
        })
        a["calls"] += 1
        a["self_ns"] += self_ns
        a["total_ns"] += rec[END] - rec[START]
        a["peak"] = max(a["peak"], rec[PEAK])
        if rec[EXTRA] is not None:
            a["extra"] += rec[EXTRA]
    return agg
