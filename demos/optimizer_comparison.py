"""
Four optimizers on one teacher-student task
===========================================

Train the same student with plain adapter SGD, the per-factor two-pass
variant, the transferred two-pass variant, and the single-pass EMA
variant, all from the same seed, then compare what each one bought:
final fit, sharpness along the ascent direction, and the gradient
evaluations spent.

The sharpness probe uses one fixed radius for every run so the numbers
compare like for like.
"""

import numpy as np

from flatlora.harness import ExperimentConfig, generate_task, train_kinds
from flatlora.model import forward
from flatlora.optimizers import OPTIMIZER_KINDS
from flatlora.diagnostics import sharpness_sam

RHO = 0.3

base = ExperimentConfig(
    task="teacher-student",
    layer_dims=[12, 12, 3],
    rank=3,
    optimizer="lora",
    learning_rate=0.1,
    rho0=RHO,
    batch_size=8,
    n_batches=4,
    noise_std=0.2,
    steps=2000,
    seed=0,
)
task = generate_task(base)

print(f"task: {base.task}, dims {base.layer_dims}, rank {base.rank}, "
      f"{base.n_batches} batches of {base.batch_size}, {base.steps} steps")
print()
print(f"{'optimizer':<12} {'train loss':>10} {'eval loss':>10} "
      f"{'sharpness':>10} {'grad evals':>10}")

# Every kind trains on the same batches; each network comes back with any
# EMA shift removed, so everything is measured at the unperturbed parameters.
for kind, run in train_kinds(base, task, OPTIMIZER_KINDS).items():
    train_loss = float(np.mean([forward(run.net, b)[1] for b in task.train_batches]))
    _, eval_loss = forward(run.net, task.eval_batch)
    sharp = sharpness_sam(run.net, task.eval_batch, RHO)
    print(f"{kind:<12} {train_loss:>10.4f} {eval_loss:>10.4f} "
          f"{sharp:>10.4f} {run.grad_evals:>10d}")

print()
print("Among the runs that actually fit the data (plain, transferred, EMA:")
print("train losses within a factor of two), the transferred variant lands")
print("on the flattest solution and the EMA variant keeps part of that")
print("effect at the single-evaluation price.  The per-factor variant shows")
print("a lower probe value but reaches a visibly worse train fit: its")
print("perturbation lives in factor space and does not track the merged-")
print("weight ascent direction, so it acts as blunt regularisation.")
