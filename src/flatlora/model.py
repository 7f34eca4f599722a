"""Small dense networks with frozen base weights and low-rank adapters.

Each layer computes (w0 + scale * b @ a) @ x with w0 frozen; only the
factors b and a train.  Samples sit in columns, so a batch of k inputs is
a (dim, k) array.  The hidden layers share one activation; the final layer
is linear and feeds either mean squared error (column-wise, averaged over
the batch) or softmax cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm

from .linalg import Matrix, Rng, ShapeError, as_matrix

ACTIVATIONS = ("tanh", "relu", "identity")
LOSS_KINDS = ("mse", "softmax-ce")


class PerturbationStateError(RuntimeError):
    """A perturbation handle was used outside its apply/revert lifecycle."""


class AccumulationError(RuntimeError):
    """BLAS returned a copy instead of adding a product into the given array."""


@dataclass
class LoRALinear:
    """One adapted layer: frozen w0 (n x m), trainable b (n x r), a (r x m)."""

    w0: Matrix
    b: Matrix
    a: Matrix
    scale: float
    rank: int

    def __post_init__(self) -> None:
        self.w0 = as_matrix(self.w0)
        self.b = as_matrix(self.b)
        self.a = as_matrix(self.a)
        n, m = self.w0.shape
        if self.rank < 1 or self.rank > min(n, m):
            raise ShapeError(f"rank {self.rank} invalid for a {n} x {m} layer")
        if self.b.shape != (n, self.rank):
            raise ShapeError(f"b must be {(n, self.rank)}, got {self.b.shape}")
        if self.a.shape != (self.rank, m):
            raise ShapeError(f"a must be {(self.rank, m)}, got {self.a.shape}")
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def out_dim(self) -> int:
        return self.w0.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w0.shape[1]

    def merged_weight(self) -> Matrix:
        """The effective dense weight w0 + scale * b @ a."""
        return self.w0 + self.scale * (self.b @ self.a)


@dataclass
class Batch:
    """Column-major sample batch: inputs (d_in, k), targets (d_out, k)."""

    inputs: Matrix
    targets: Matrix

    def __post_init__(self) -> None:
        self.inputs = as_matrix(self.inputs)
        self.targets = as_matrix(self.targets)
        if self.inputs.shape[1] != self.targets.shape[1]:
            raise ShapeError(
                f"inputs have {self.inputs.shape[1]} columns but targets have "
                f"{self.targets.shape[1]}"
            )
        if self.inputs.shape[1] < 1:
            raise ShapeError("a batch needs at least one sample column")

    @property
    def size(self) -> int:
        return self.inputs.shape[1]


@dataclass
class Network:
    """A stack of adapted layers with an activation and a loss choice."""

    layers: list[LoRALinear]
    activation: str = "tanh"
    loss_kind: str = "mse"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError("a network needs at least one layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        for left, right in zip(self.layers, self.layers[1:]):
            if right.in_dim != left.out_dim:
                raise ShapeError(
                    f"layer output dim {left.out_dim} feeds layer expecting "
                    f"{right.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class GradientSet:
    """Per-layer adapter gradients, the loss they were taken at, and
    optionally the merged-weight gradients."""

    grad_b: list[Matrix]
    grad_a: list[Matrix]
    loss: float
    grad_w: list[Matrix] | None = None


def kaiming_matrix(rng: Rng, rows: int, cols: int, fan_in: int) -> Matrix:
    """Gaussian entries scaled by sqrt(2 / fan_in)."""
    return rng.standard_normal((rows, cols)) * np.sqrt(2.0 / fan_in)


def make_lora_layer(w0: Matrix, rank: int, scale: float, rng: Rng) -> LoRALinear:
    """Adapter factors for a frozen weight: a is Kaiming-scaled Gaussian with
    fan_in equal to the layer input dim, b starts at zero so the merged
    weight initially equals w0."""
    w0 = as_matrix(w0)
    n, m = w0.shape
    a = kaiming_matrix(rng, rank, m, fan_in=m)
    b = np.zeros((n, rank))
    return LoRALinear(w0=w0, b=b, a=a, scale=scale, rank=rank)


def build_network(
    layer_dims: list[int],
    rank: int,
    scale: float,
    rng: Rng,
    activation: str = "tanh",
    loss_kind: str = "mse",
    w0_list: list[Matrix] | None = None,
) -> Network:
    """Assemble a network from a dim chain [d0, d1, ..., dL].

    w0_list supplies the frozen weights (copied); when omitted they are
    Gaussian scaled by 1/sqrt(fan_in).
    """
    if len(layer_dims) < 2:
        raise ShapeError("layer_dims needs at least an input and an output dim")
    layers = []
    for i, (m, n) in enumerate(zip(layer_dims, layer_dims[1:])):
        if w0_list is not None:
            w0 = as_matrix(w0_list[i]).copy()
            if w0.shape != (n, m):
                raise ShapeError(f"w0[{i}] must be {(n, m)}, got {w0.shape}")
        else:
            w0 = rng.standard_normal((n, m)) / np.sqrt(m)
        layers.append(make_lora_layer(w0, rank=rank, scale=scale, rng=rng))
    return Network(layers=layers, activation=activation, loss_kind=loss_kind)


def clone_network(net: Network) -> Network:
    """Independent deep copy; mutating the clone never touches the source."""
    layers = [
        LoRALinear(
            w0=layer.w0.copy(),
            b=layer.b.copy(),
            a=layer.a.copy(),
            scale=layer.scale,
            rank=layer.rank,
        )
        for layer in net.layers
    ]
    return Network(layers=layers, activation=net.activation, loss_kind=net.loss_kind)


def _activate(z: Matrix, kind: str) -> Matrix:
    # In place: the sweep owns z.
    if kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _activation_grad(y: Matrix, kind: str) -> Matrix:
    # Written in terms of the activation output, which backward caches; it
    # overwrites y, which backward has finished reading.
    if kind == "tanh":
        np.multiply(y, y, out=y)
        np.subtract(1.0, y, out=y)
    elif kind == "relu":
        np.greater(y, 0.0, out=y)
    else:
        y.fill(1.0)
    return y


def _loss_and_grad(pred: Matrix, targets: Matrix, kind: str):
    """Loss value and its gradient with respect to pred (a fresh array)."""
    k = pred.shape[1]
    if kind == "mse":
        resid = pred - targets
        loss = 0.5 * float(np.sum(resid * resid)) / k
        resid /= k
        return loss, resid
    # softmax-ce: column-wise softmax, targets are probability columns.
    shifted = pred - pred.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=0, keepdims=True)
    shifted -= np.log(z)
    loss = -float(np.sum(targets * shifted)) / k
    exp /= z
    exp -= targets
    exp /= k
    return loss, exp


def _check_batch(net: Network, batch: Batch) -> None:
    if batch.inputs.shape[0] != net.in_dim:
        raise ShapeError(
            f"batch inputs have dim {batch.inputs.shape[0]}, network expects "
            f"{net.in_dim}"
        )
    if batch.targets.shape[0] != net.out_dim:
        raise ShapeError(
            f"batch targets have dim {batch.targets.shape[0]}, network "
            f"produces {net.out_dim}"
        )


def _add_product(x: Matrix, y: Matrix, out: Matrix) -> Matrix:
    """out += x @ y in place, with no array for x @ y.

    One dgemm with beta = 1 on out.T: column-major BLAS computes
    out.T += y.T @ x.T, the call numpy's row-major matmul makes for x @ y,
    and an operand in F order (such as w0.T) goes in untransposed with the
    trans flag, as numpy passes it, so nothing is copied.  BLAS holds each
    dot product in a register and adds it to out once, and that register
    holds the double x @ y would store, so out gets the bits of
    out + x @ y.  This holds while the inner dimension fits one BLAS panel
    (384 with OpenBLAS's SkylakeX kernels); past it each panel's partial
    sum is added to out in turn, which rounds differently.  numpy takes
    a matrix-vector route when x has one row or y one column; there the
    product is built and added, to keep numpy's roundings.

    Raises AccumulationError when BLAS hands back a copy, which it does
    unless out is a C-ordered float64 array; the sum is never dropped.
    """
    if x.shape[0] == 1 or y.shape[1] == 1:
        out += x @ y
        return out
    a, trans_a = (y, 1) if y.flags.f_contiguous else (y.T, 0)
    b, trans_b = (x, 1) if x.flags.f_contiguous else (x.T, 0)
    got = dgemm(1.0, a, b, beta=1.0, c=out.T, trans_a=trans_a,
                trans_b=trans_b, overwrite_c=1)
    if not np.shares_memory(got, out):
        raise AccumulationError(
            f"cannot add a product into a {out.dtype} array that is not "
            "C-ordered"
        )
    return out


def _forward_cache(
    net: Network, batch: Batch, offsets: list[Matrix | None]
) -> list[tuple[Matrix, Matrix, Matrix]]:
    """The one forward sweep: (input, a @ input, output) per layer.

    Layer i computes w0 @ h + scale * (b @ (a @ h)), plus offsets[i] @ h
    when that offset is not None, and applies the activation on every
    layer but the last.  The batch is checked before the offsets.  Each
    layer's output is built in one fresh array: the low-rank product,
    scaled in place, then w0 @ h and offsets[i] @ h added into it by BLAS
    (_add_product), so no other n x k array is made, with the roundings
    of the sum written out (_add_product says when).  The last output, which forward
    returns, is an array nothing else holds; backward uses up the cache
    entries (it overwrites the hidden outputs), so a cache serves one
    pass.
    """
    _check_batch(net, batch)
    if len(offsets) != len(net.layers):
        raise ShapeError(
            f"got {len(offsets)} offsets for {len(net.layers)} layers"
        )
    last = len(net.layers) - 1
    h = batch.inputs
    cache = []
    for i, (layer, off) in enumerate(zip(net.layers, offsets)):
        ax = layer.a @ h
        z = layer.b @ ax
        z *= layer.scale
        _add_product(layer.w0, h, z)
        if off is not None:
            if off.shape != layer.w0.shape:
                raise ShapeError(
                    f"offset {i} must be {layer.w0.shape}, got {off.shape}"
                )
            _add_product(off, h, z)
        if i < last:
            _activate(z, net.activation)
        cache.append((h, ax, z))
        h = z
    return cache


def forward(net: Network, batch: Batch) -> tuple[Matrix, float]:
    """Predictions and loss at the current parameters."""
    return forward_with_offsets(net, batch, [None] * len(net.layers))


def forward_with_offsets(
    net: Network, batch: Batch, offsets: list[Matrix | None]
) -> tuple[Matrix, float]:
    """Forward pass with a dense additive offset on each merged weight.

    offsets[i] is added to layer i's effective weight (None skips a layer);
    the stored parameters are never touched.  This is how full-space
    perturbations are evaluated without materialising a perturbed network.
    """
    pred = _forward_cache(net, batch, offsets)[-1][2]
    loss, _ = _loss_and_grad(pred, batch.targets, net.loss_kind)
    return pred, loss


def backward(net: Network, batch: Batch, want_full: bool = False) -> GradientSet:
    """Adapter gradients (and optionally merged-weight gradients) by
    reverse accumulation over the forward sweep's cache.

    grad_b and grad_a come out of the factored chain rule directly, never
    through the merged-weight gradient, so the factored and merged routes
    stay independent checks of each other.  The sweep's cache is used up
    as the reverse pass goes: each entry is dropped once read, and each
    hidden output is overwritten with its activation derivative.  The
    gradient passed down is built in one array: scale * (a.T @ (b.T @ g)),
    then w0.T @ g added into it by BLAS (_add_product), with the same
    roundings.  The batch is never written.
    """
    cache = _forward_cache(net, batch, [None] * len(net.layers))
    last = len(net.layers) - 1
    loss, g = _loss_and_grad(cache[last][2], batch.targets, net.loss_kind)
    grad_b: list[Matrix | None] = [None] * len(net.layers)
    grad_a: list[Matrix | None] = [None] * len(net.layers)
    grad_w: list[Matrix | None] = [None] * len(net.layers) if want_full else None
    for i in range(last, -1, -1):
        layer = net.layers[i]
        x_in, ax, out = cache[i]
        cache[i] = None
        if i < last:
            # Layer i + 1 has read out as its input: out becomes the
            # activation derivative.
            g *= _activation_grad(out, net.activation)
        del out
        grad_b[i] = layer.scale * (g @ ax.T)
        del ax
        bt_g = layer.b.T @ g
        grad_a[i] = layer.scale * (bt_g @ x_in.T)
        if want_full:
            grad_w[i] = g @ x_in.T
        if i > 0:
            g_next = layer.a.T @ bt_g
            del bt_g
            g_next *= layer.scale
            g = _add_product(layer.w0.T, g, g_next)
    return GradientSet(grad_b=grad_b, grad_a=grad_a, loss=loss, grad_w=grad_w)


def effective_full_perturbation(e_b: Matrix, a: Matrix, scale: float) -> Matrix:
    """Dense weight change induced by shifting b by e_b: scale * e_b @ a."""
    e_b = as_matrix(e_b)
    a = as_matrix(a)
    if e_b.shape[1] != a.shape[0]:
        raise ShapeError(f"cannot multiply {e_b.shape} @ {a.shape}")
    return scale * (e_b @ a)


@dataclass
class PerturbationHandle:
    """Undo token for an in-place adapter perturbation.

    Applying a perturbation swaps in freshly allocated factor arrays; the
    handle keeps the originals, so revert restores them bit for bit (the
    very objects come back, no arithmetic involved).  Usable as a context
    manager; revert is one-shot.
    """

    net: Network
    saved_b: list[Matrix | None]
    saved_a: list[Matrix | None]
    reverted: bool = field(default=False)

    def revert(self) -> None:
        if self.reverted:
            raise PerturbationStateError("perturbation already reverted")
        for i, layer in enumerate(self.net.layers):
            if self.saved_b[i] is not None:
                layer.b = self.saved_b[i]
            if self.saved_a[i] is not None:
                layer.a = self.saved_a[i]
        self.reverted = True

    def __enter__(self) -> "PerturbationHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.reverted:
            self.revert()


def apply_perturbation(
    net: Network,
    e_b: list[Matrix | None] | None = None,
    e_a: list[Matrix | None] | None = None,
) -> PerturbationHandle:
    """Shift adapter factors in place: b += e_b[i], a += e_a[i] per layer.

    Either list may be None (or hold None entries) to leave factors alone.
    Returns the handle that restores the pre-perturbation arrays.
    """
    n_layers = len(net.layers)
    for name, lst in (("e_b", e_b), ("e_a", e_a)):
        if lst is not None and len(lst) != n_layers:
            raise ShapeError(f"{name} has {len(lst)} entries for {n_layers} layers")
    saved_b: list[Matrix | None] = [None] * n_layers
    saved_a: list[Matrix | None] = [None] * n_layers
    for i, layer in enumerate(net.layers):
        shift_b = e_b[i] if e_b is not None else None
        shift_a = e_a[i] if e_a is not None else None
        if shift_b is not None:
            if shift_b.shape != layer.b.shape:
                raise ShapeError(
                    f"e_b[{i}] must be {layer.b.shape}, got {shift_b.shape}"
                )
            saved_b[i] = layer.b
            layer.b = layer.b + shift_b
        if shift_a is not None:
            if shift_a.shape != layer.a.shape:
                raise ShapeError(
                    f"e_a[{i}] must be {layer.a.shape}, got {shift_a.shape}"
                )
            saved_a[i] = layer.a
            layer.a = layer.a + shift_a
    return PerturbationHandle(net=net, saved_b=saved_b, saved_a=saved_a)


def apply_b_perturbation(net: Network, e_b: list[Matrix | None]) -> PerturbationHandle:
    """Perturb only the b factors; the common case for transferred
    full-space directions."""
    return apply_perturbation(net, e_b=e_b, e_a=None)
