"""
From factor gradients to a full-space perturbation and back
===========================================================

A low-rank adapter trains b and a, but flatness lives in the merged
weight w0 + scale * b @ a.  This walkthrough reconstructs the dense
gradient from the factor gradients, normalises it to a radius-rho ascent
direction, transfers that direction onto b alone, and then shows the
two facts that make the transfer trustworthy:

  * the merged effect of the b-shift is exactly the dense direction
    projected onto the row space of a, and
  * the perturbed loss through b equals the perturbed loss through the
    projected dense offset, to round-off.

Whatever part of the direction falls outside the row space of a is
unrepresentable at fixed a; it is measured and printed, never hidden.
"""

import numpy as np

from flatlora.linalg import make_rng, row_space_projector
from flatlora.model import Batch, backward, build_network
from flatlora.optimizers import (
    full_to_lowrank_perturbation,
    reconstruct_full_gradient,
    sam_direction,
)
from flatlora.diagnostics import loss_match_residual

rng = make_rng(42)

# A small two-layer network with nonzero adapters, and a batch to probe with.
net = build_network([10, 8, 4], rank=3, scale=2.0, rng=rng)
for layer in net.layers:
    layer.b = 0.3 * rng.standard_normal(layer.b.shape)
batch = Batch(
    inputs=rng.standard_normal((10, 16)),
    targets=rng.standard_normal((4, 16)),
)

# Factor gradients on the one hand, true merged-weight gradients on the other.
grads = backward(net, batch, want_full=True)
rho = 0.1

print(f"loss at the current parameters: {grads.loss:.6f}")
print(f"ascent radius rho = {rho}")
print()

for i, layer in enumerate(net.layers):
    # Reconstruct the dense gradient from grad_b and grad_a alone.
    g_bar = reconstruct_full_gradient(
        grads.grad_b[i], grads.grad_a[i], layer.a, layer.b, layer.scale
    )

    # It must equal the true dense gradient averaged through the two
    # projectors: the row space of a and the column space of b.
    gw = grads.grad_w[i]
    p_a = row_space_projector(layer.a)
    p_b = layer.b @ np.linalg.pinv(layer.b)
    recon_err = np.max(np.abs(g_bar - 0.5 * (gw @ p_a + p_b @ gw)))

    # Normalise to radius rho and transfer onto b.
    direction, _ = sam_direction(g_bar, rho)
    e_b = full_to_lowrank_perturbation(direction, layer.a, layer.scale)

    # Merged effect of the b-shift vs the projected dense direction.
    merged = layer.scale * (e_b @ layer.a)
    projection_err = np.max(np.abs(merged - direction @ p_a))

    # Loss-level agreement plus the unrepresentable component's size.
    loss_diff, outside = loss_match_residual(net, batch, i, direction, e_b)

    print(f"layer {i}  ({layer.w0.shape[0]} x {layer.w0.shape[1]}, rank {layer.rank})")
    print(f"  reconstruction vs projected average : {recon_err:.3e}")
    print(f"  merged b-shift vs projected direction: {projection_err:.3e}")
    print(f"  perturbed-loss difference            : {loss_diff:.3e}")
    print(f"  direction mass outside row space of a: {outside:.4f} (of {rho})")
print()
print("The transfer is exact on the representable part; the printed outside")
print("mass is the price of holding a fixed while perturbing only b.")
