"""Small dense networks with frozen base weights and low-rank adapters.

Each layer computes (w0 + scale * b @ a) @ x with w0 frozen; only the
factors b and a train.  Samples sit in columns, so a batch of k inputs is
a (dim, k) array.  The hidden layers share one activation; the final layer
is linear and feeds either mean squared error (column-wise, averaged over
the batch) or softmax cross-entropy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .linalg import Matrix, Rng, ShapeError, _sq_norm, as_matrix

ACTIVATIONS = ("tanh", "relu", "identity")
LOSS_KINDS = ("mse", "softmax-ce")


class PerturbationStateError(RuntimeError):
    """A perturbation handle was used outside its apply/revert lifecycle."""


class AccumulationError(RuntimeError):
    """A product cannot be added into the given array in place: BLAS would
    return a copy, or the product is not float64."""


def _check_rank(rank: int, n: int, m: int) -> None:
    """An adapter of an n x m layer has rank 1 .. min(n, m)."""
    if rank < 1 or rank > min(n, m):
        raise ShapeError(f"rank {rank} invalid for a {n} x {m} layer")


def _check_scale(scale: float) -> None:
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")


@dataclass
class LoRALinear:
    """One adapted layer: frozen w0 (n x m), trainable b (n x r), a (r x m);
    the rank r is read off a."""

    w0: Matrix
    b: Matrix
    a: Matrix
    scale: float

    def __post_init__(self) -> None:
        self.w0 = as_matrix(self.w0)
        self.b = as_matrix(self.b)
        self.a = as_matrix(self.a)
        n, m = self.w0.shape
        r = self.rank
        _check_rank(r, n, m)
        if self.b.shape != (n, r):
            raise ShapeError(f"b must be {(n, r)}, got {self.b.shape}")
        if self.a.shape != (r, m):
            raise ShapeError(f"a must be {(r, m)}, got {self.a.shape}")
        _check_scale(self.scale)

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w0.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w0.shape[1]

    def merged_weight(self) -> Matrix:
        """The effective dense weight w0 + scale * b @ a, a fresh array:
        b @ a, scaled in place unless scale is 1.0 (where x * 1.0 == x),
        then w0 added in place, one n x m array with the formula's bits."""
        w = self.b @ self.a
        if self.scale != 1.0:
            w *= self.scale
        w += self.w0
        return w


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


def make_lora_layer(w0: Matrix, rank: int, scale: float, rng: Rng) -> LoRALinear:
    """Adapter factors for a frozen weight: a is Kaiming-scaled Gaussian with
    fan_in equal to the layer input dim, b starts at zero so the merged
    weight initially equals w0."""
    w0 = as_matrix(w0)
    n, m = w0.shape
    a = rng.standard_normal((rank, m)) * np.sqrt(2.0 / m)
    b = np.zeros((n, rank))
    return LoRALinear(w0=w0, b=b, a=a, scale=scale)


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


def _activate(z: Matrix, kind: str) -> Matrix:
    # In place: the sweep owns z.
    if kind == "tanh":
        np.tanh(z, out=z)
    elif kind == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _activation_grad(y: Matrix, kind: str) -> Matrix:
    """Overwrite a hidden output y with its activation derivative and
    return it: 1 - y*y for tanh, the 0/1 mask y > 0 for relu, ones for
    identity.  Written in terms of the output, which backward caches;
    backward passes the whole output once, after the next layer has read
    it, and then multiplies the returned array by the incoming gradient
    one row block at a time, so the output's buffer ends up holding that
    layer's gradient."""
    if kind == "tanh":
        np.multiply(y, y, out=y)
        np.subtract(1.0, y, out=y)
    elif kind == "relu":
        np.greater(y, 0.0, out=y)
    else:
        y.fill(1.0)
    return y


def _loss_and_grad(pred: Matrix, targets: Matrix, kind: str):
    """Loss value and its gradient with respect to pred, which is built in
    pred's own buffer and returned: pred becomes the residual (mse) or the
    log-probabilities and then the softmax minus the targets (softmax-ce),
    divided by the batch size.  The caller must own pred."""
    k = pred.shape[1]
    if kind == "mse":
        pred -= targets
        loss = 0.5 * _sq_norm(pred) / k
        pred /= k
        return loss, pred
    # softmax-ce: column-wise softmax, targets are probability columns.
    pred -= pred.max(axis=0, keepdims=True)
    exp = np.exp(pred)
    z = exp.sum(axis=0, keepdims=True)
    pred -= np.log(z)
    loss = -float(np.sum(targets * pred)) / k
    np.divide(exp, z, out=pred)
    del exp
    pred -= targets
    pred /= k
    return loss, pred


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


_FLOAT64 = np.dtype(np.float64)


def _blas_operand(m: Matrix) -> tuple[Matrix, int]:
    """A float64 m as numpy's matmul hands it to column-major dgemm, with
    the trans flag: m itself for F order, m.T untransposed for C order,
    and an m in neither order copied in its own axis order first; in
    backward that is a row block of a.T.  f2py would copy that last kind
    in F order, and dgemm would take it with the other trans flag than
    numpy's, which rounds differently."""
    if not (m.flags.c_contiguous or m.flags.f_contiguous):
        m = m.copy(order="K")
    return (m, 1) if m.flags.f_contiguous else (m.T, 0)


def _overflow_raises() -> bool:
    """Whether numpy's error state raises on overflow, as run_experiment
    and bench set it."""
    return np.geterr()["over"] == "raise"


def _add_product(x: Matrix, y: Matrix, out: Matrix,
                 check: bool | None = None) -> Matrix:
    """out += x @ y in place, with no array for x @ y.

    One dgemm with beta = 1 on out.T: column-major BLAS computes
    out.T += y.T @ x.T, the call numpy's row-major matmul makes for x @ y,
    and an operand in F order (such as w0.T) goes in untransposed with the
    trans flag, as numpy passes it, so nothing is copied; an operand in
    neither order (in backward, a row block of a.T), or of another dtype,
    is first copied as numpy copies it (_blas_operand).  BLAS holds each
    dot product in a register and adds it to out once, and that register
    holds the double x @ y would store, so out gets the bits of
    out + x @ y.  This holds while the inner dimension fits one BLAS
    panel (384 with OpenBLAS's SkylakeX kernels); past it each panel's
    partial sum is added to out in turn, which rounds differently.  numpy
    takes a matrix-vector route when x has one row or y one column; there
    the product is built and added, to keep numpy's roundings.  dgemm's
    alpha stays 1: with another alpha OpenBLAS rounds alpha * (x @ y)
    and the addition as one operation in many shapes, so out would miss
    the bits of out + alpha * (x @ y).

    Raises AccumulationError rather than drop the sum or round it
    otherwise: when out is not a C-ordered float64 array, since BLAS
    would then add into a copy, and when x @ y is not float64 (complex
    or float32 operands, say).  numpy's error state does not see inside
    dgemm, so under np.errstate(over="raise"), as run_experiment trains,
    a non-finite entry left in out raises FloatingPointError, as numpy's
    matmul raises on its overflow; out.max() and out.min() find it with
    no array the size of out.  check, when not None, stands for that
    reading of the error state (_overflow_raises), which a caller adding
    many products takes once.
    """
    if x.dtype != _FLOAT64 or y.dtype != _FLOAT64:
        product = np.result_type(x.dtype, y.dtype)
        if product != _FLOAT64:
            raise AccumulationError(f"cannot add a {product} product as float64")
        # numpy casts an operand of another dtype to C-ordered float64.
        x, y = (m if m.dtype == _FLOAT64 else
                np.ascontiguousarray(m, dtype=np.float64) for m in (x, y))
    if x.shape[0] == 1 or y.shape[1] == 1:
        out += x @ y
        return out
    a, trans_a = _blas_operand(y)
    b, trans_b = _blas_operand(x)
    c = out.T
    got = dgemm(1.0, a, b, beta=1.0, c=c, trans_a=trans_a, trans_b=trans_b,
                overwrite_c=1)
    if got is not c and not np.shares_memory(got, out):
        raise AccumulationError(
            f"cannot add a product into a {out.dtype} array that is not "
            "C-ordered"
        )
    if check is None:
        check = _overflow_raises()
    if check and not (math.isfinite(out.max()) and math.isfinite(out.min())):
        raise FloatingPointError("non-finite entry in a product added by BLAS")
    return out


def _check_shift(shift, shape: tuple[int, int], what: str) -> None:
    """A factor shift or weight offset is a real ndarray of the shape it
    is added to; its dtype and layout are left as they are."""
    if not isinstance(shift, np.ndarray):
        raise TypeError(f"{what} must be an ndarray, got {type(shift).__name__}")
    if shift.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be real, got dtype {shift.dtype}")
    if shift.shape != shape:
        raise ShapeError(f"{what} must be {shape}, got {shift.shape}")


def _merged_route(layer: LoRALinear, k: int) -> bool:
    """Whether the sweep runs layer through its merged weight for a batch
    of k columns: when the n x m weight holds no more entries than the
    rank x k product a @ h, one product with w0 + scale * b @ a does the
    work of the factored route's two skinny ones."""
    n, m = layer.w0.shape
    return n * m <= layer.rank * k


def _forward_cache(
    net: Network, batch: Batch, offsets: list[Matrix | None], hold: bool = True
) -> list[Matrix]:
    """The one forward sweep: the activations [x, h_1, ..., h_L], the
    batch's inputs and then each layer's output.  With hold False, for a
    sweep no backward follows, it returns only [h_L], so each hidden
    output is dropped once the next layer has read it.

    Layer i computes (w0 + scale * b @ a + offsets[i]) @ h, with no
    offset term when offsets[i] is None, and applies the activation on
    every layer but the last.  The batch is checked before the offsets.
    Each layer takes one of two routes, chosen from its shape and the
    batch width k alone (_merged_route).  A layer whose n x m weight is
    no larger than rank x k takes the merged route: its output is
    layer.merged_weight() @ h, one product, and with an offset
    (layer.merged_weight() + offsets[i]) @ h, the offset added into the
    fresh merged weight, still one product.  Every other layer takes the
    factored route, w0 @ h + scale * (b @ (a @ h)): the low-rank product,
    scaled in place unless scale is 1.0, where x * 1.0 == x bit for bit,
    then w0 @ h added into it by BLAS (_add_product), and then
    offsets[i] @ h added by BLAS too, since folding the offset there
    would build an n x m weight larger than the rank x k product.  So
    each layer's output is built in one fresh array and no other n x k
    array is made, with the roundings of the formula written out
    (_add_product says when), and a @ h (rank x k) is dropped once
    b @ (a @ h) is built.  Layer i's output is layer i + 1's input, the
    same array.  backward reuses the output buffers for its gradients:
    the last output becomes the loss gradient and each hidden output the
    gradient passed down into the layer that produced it, so a sweep
    serves one pass.  The last output, which forward returns, is an
    array nothing else holds.
    """
    _check_batch(net, batch)
    if len(offsets) != len(net.layers):
        raise ShapeError(
            f"got {len(offsets)} offsets for {len(net.layers)} layers"
        )
    last = len(net.layers) - 1
    h = batch.inputs
    check = None  # numpy's error state, read at the first BLAS sum
    acts = []
    for i, (layer, off) in enumerate(zip(net.layers, offsets)):
        if hold:
            acts.append(h)
        if off is not None:
            _check_shift(off, layer.w0.shape, f"offset {i}")
        if _merged_route(layer, h.shape[1]):
            w = layer.merged_weight()
            if off is not None:
                w += off
            z = w @ h
            del w  # not held under the next layer's arrays
        else:
            z = layer.b @ (layer.a @ h)
            if layer.scale != 1.0:
                z *= layer.scale
            if check is None:
                check = _overflow_raises()
            _add_product(layer.w0, h, z, check)
            if off is not None:
                _add_product(off, h, z, check)
        if i < last:
            _activate(z, net.activation)
        h = z
    acts.append(h)
    return acts


def forward(net: Network, batch: Batch) -> tuple[Matrix, float]:
    """Predictions and loss at the current parameters."""
    return forward_with_offsets(net, batch, [None] * len(net.layers))


def forward_with_offsets(
    net: Network, batch: Batch, offsets: list[Matrix | None]
) -> tuple[Matrix, float]:
    """Forward pass with a dense additive offset on each merged weight.

    offsets[i], a real ndarray of the weight's shape (_check_shift), is
    added to layer i's effective weight (None skips a layer); the stored
    parameters are never touched.  This is how full-space
    perturbations are evaluated without materialising a perturbed network.
    A layer of the merged route adds its offset into the merged weight
    it builds anyway, so the sweep costs what forward's does there; a
    layer of the factored route adds offsets[i] @ h into its output
    (_forward_cache).  The prediction is the sweep's last activation, the
    one it keeps with hold False.
    """
    pred = _forward_cache(net, batch, offsets, hold=False)[-1]
    loss, _ = _loss_and_grad(pred.copy(), batch.targets, net.loss_kind)
    return pred, loss


# backward builds the gradient passed down in row blocks of about this
# many bytes, and in at least four blocks once an output is larger than
# half of it; a smaller output stays whole.
_BLOCK_BYTES = 80 * 1024


def _row_blocks(y: Matrix) -> tuple[slice, ...]:
    """Row slices splitting y into y.nbytes // _BLOCK_BYTES blocks of
    near-equal rows, and at least four once y is larger than half of
    _BLOCK_BYTES.  y stays whole when it has one column or is no larger
    than that, and no block has fewer than two rows: a product with one
    row or one column takes numpy's matrix-vector route, whose roundings
    depend on the rows it covers, while a block's matrix products give
    the bits of the same rows of the whole array's.  The slices depend
    on y's shape, its size and the block size alone, so they are built
    once per such triple."""
    return _row_slices(*y.shape, y.nbytes, _BLOCK_BYTES)


@functools.lru_cache(maxsize=256)
def _row_slices(rows: int, cols: int, nbytes: int, block_bytes: int) -> tuple[slice, ...]:
    split = cols > 1 and 2 * nbytes > block_bytes
    n = max(1, min(max(4, nbytes // block_bytes), rows // 2)) if split else 1
    bounds = [rows * j // n for j in range(n + 1)]
    return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


def backward(net: Network, batch: Batch, want_full: bool = False) -> GradientSet:
    """Adapter gradients (and optionally merged-weight gradients) by
    reverse accumulation over the forward sweep's activations.

    Each layer takes its gradients on its sweep route.  A layer of the
    merged route, whose n x m weight is no larger than rank x k, builds
    its weight gradient gw = g @ x_in.T once and takes
    grad_b = scale * (gw @ a.T) and grad_a = scale * (b.T @ gw) from it,
    one k-long product in place of four; gw is grad_w when want_full.
    There the chain identity between the factor and weight gradients
    holds by construction, so what checks a merged layer's factor
    gradients is the central finite differences (verify's
    gradient_finite_difference) and their agreement with the factored
    chain rule below to a tight relative tolerance
    (test_merged_route_factor_gradients_agree_with_the_factored_chain_rule).
    A layer of the factored route takes them from the chain rule through
    its factors, grad_b = scale * (g @ (a @ x_in).T) and
    grad_a = scale * ((b.T @ g) @ x_in.T), and grad_w = g @ x_in.T apart;
    the sweep hands over only the activations, so a @ x_in is rebuilt
    from x_in before x_in is overwritten: the sweep's own product, on the
    same operands, with the same bits.

    No n x k array is allocated: the last layer's output becomes
    the loss gradient (_loss_and_grad), and once layer i + 1 has read its
    input y (layer i's output) for its own gradients, y becomes layer i's
    gradient, (w.T @ g) * act'(y) with w = w0 + scale * b @ a: y is
    overwritten with its activation derivative in one pass
    (_activation_grad), then, one block of rows at a time (_row_blocks),
    the block of w.T @ g is built and y's rows are multiplied by it, each
    block released before the next.  A layer of the factored route
    builds the block as w0.T[rows] @ g, which numpy's matmul reads from
    the strided rows in place, and BLAS adds a.T[rows] @ (scale * b.T @ g)
    into it (_add_product), which copies only that rank-wide block of
    a.T; b.T @ g is scaled in its own buffer once grad_a is built, so
    every scale takes this one order.  A layer of the merged route
    builds it as w.T[rows] @ g, one product with layer.merged_weight(),
    the weight the sweep ran it through, and makes no rank x k array.
    Every multiplication by scale, here and in the sweep, is skipped at
    scale 1.0, where it changes no bit.  The roundings are those of the
    formula written one array per operation, on each layer's route.
    Each activation is dropped from the sweep's list once read.  The
    batch is never written.
    """
    acts = _forward_cache(net, batch, [None] * len(net.layers))
    last = len(net.layers) - 1
    k = batch.inputs.shape[1]
    loss, g = _loss_and_grad(acts.pop(), batch.targets, net.loss_kind)
    grad_b: list[Matrix | None] = [None] * len(net.layers)
    grad_a: list[Matrix | None] = [None] * len(net.layers)
    grad_w: list[Matrix | None] = [None] * len(net.layers) if want_full else None
    check = None  # numpy's error state, read at the first BLAS sum
    for i in range(last, -1, -1):
        layer = net.layers[i]
        x_in = acts.pop()
        scale = layer.scale
        merged = _merged_route(layer, k)
        if merged:
            gw = g @ x_in.T
            gb, ga = gw @ layer.a.T, layer.b.T @ gw
            bt_g = None
        else:
            gb = g @ (layer.a @ x_in).T
            bt_g = layer.b.T @ g
            ga = bt_g @ x_in.T
            gw = g @ x_in.T if want_full else None
        if scale != 1.0:
            gb *= scale
            ga *= scale
        grad_b[i], grad_a[i] = gb, ga
        if want_full:
            grad_w[i] = gw
        del gw
        if i > 0:
            # x_in is layer i - 1's output, read for the last time above.
            act = _activation_grad(x_in, net.activation)
            if merged:
                w_t = layer.merged_weight().T
            else:
                w_t, a_t = layer.w0.T, layer.a.T
                if scale != 1.0:
                    bt_g *= scale
                if check is None:
                    check = _overflow_raises()
            for rows in _row_blocks(act):
                part = w_t[rows] @ g
                if not merged:
                    _add_product(a_t[rows], bt_g, part, check)
                block = act[rows]
                np.multiply(block, part, out=block)
                del part, block
            g = act
        del x_in, bt_g
    return GradientSet(grad_b=grad_b, grad_a=grad_a, loss=loss, grad_w=grad_w)


class PerturbationHandle:
    """Undo token for an in-place adapter perturbation.

    Applying a perturbation swaps in freshly allocated factor arrays; the
    handle keeps the originals, so revert restores them bit for bit (the
    very objects come back, no arithmetic involved).  Usable as a context
    manager; revert is one-shot.
    """

    __slots__ = ("_net", "_saved", "_reverted")

    def __init__(self, net: Network, saved: list[tuple[LoRALinear, str, Matrix]]):
        self._net = net
        self._saved = saved  # (layer, factor name, original array)
        self._reverted = False

    @property
    def net(self) -> Network:
        return self._net

    def revert(self) -> None:
        if self._reverted:
            raise PerturbationStateError("perturbation already reverted")
        for layer, name, original in self._saved:
            setattr(layer, name, original)
        self._reverted = True

    def __enter__(self) -> "PerturbationHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._reverted:
            self.revert()


def apply_perturbation(
    net: Network,
    e_b: list[Matrix | None] | None = None,
    e_a: list[Matrix | None] | None = None,
) -> PerturbationHandle:
    """Shift adapter factors in place: b += e_b[i], a += e_a[i] per layer.

    Either list may be None (or hold None entries) to leave factors alone;
    any other entry must be a real ndarray of its factor's shape
    (_check_shift).  Every entry is checked and every shifted array built
    before any factor is replaced, so a call that raises leaves the
    network as it was.
    Returns the handle that restores the pre-perturbation arrays.
    """
    n_layers = len(net.layers)
    moves = []
    for name, shifts in (("b", e_b), ("a", e_a)):
        if shifts is None:
            continue
        if len(shifts) != n_layers:
            raise ShapeError(f"e_{name} has {len(shifts)} entries for {n_layers} layers")
        for i, (layer, shift) in enumerate(zip(net.layers, shifts)):
            if shift is None:
                continue
            factor = getattr(layer, name)
            _check_shift(shift, factor.shape, f"e_{name}[{i}]")
            moves.append((layer, name, factor, factor + shift))
    for layer, name, _, shifted in moves:
        setattr(layer, name, shifted)
    return PerturbationHandle(net, [move[:3] for move in moves])


def apply_b_perturbation(net: Network, e_b: list[Matrix | None]) -> PerturbationHandle:
    """Perturb only the b factors; the common case for transferred
    full-space directions."""
    return apply_perturbation(net, e_b=e_b, e_a=None)
