"""Forward/backward correctness for adapted networks: merged-weight
equivalence, finite-difference gradient checks, and the perturbation
apply/revert lifecycle."""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from flatlora.checks import random_net
from flatlora.harness import ExperimentConfig, _raising_errstate, make_step
from flatlora.linalg import ShapeError, make_rng
from flatlora.model import (
    AccumulationError,
    Batch,
    LoRALinear,
    Network,
    PerturbationStateError,
    apply_b_perturbation,
    apply_perturbation,
    backward,
    build_network,
    forward,
    forward_with_offsets,
    make_lora_layer,
    _add_product,
    _row_blocks,
)
from flatlora.optimizers import init_perturb_state
from flatlora import model

FD_STEP = 1e-6
FD_TOL = 1e-4


def small_net(seed=0, dims=(5, 4, 3), rank=2, activation="tanh", loss="mse", scale=1.0):
    rng = make_rng(seed)
    net = build_network(list(dims), rank=rank, scale=scale, rng=rng,
                        activation=activation, loss_kind=loss)
    # Nonzero b so gradients and merged weights are nontrivial.
    for layer in net.layers:
        layer.b = rng.standard_normal(layer.b.shape) * 0.3
    return net


def random_batch(net, seed=0, k=7):
    rng = make_rng([seed, 99])
    inputs = rng.standard_normal((net.in_dim, k))
    if net.loss_kind == "softmax-ce":
        targets = np.zeros((net.out_dim, k))
        targets[rng.integers(0, net.out_dim, size=k), np.arange(k)] = 1.0
    else:
        targets = rng.standard_normal((net.out_dim, k))
    return Batch(inputs=inputs, targets=targets)


# ---------------------------------------------------------------- construction

def test_layer_shape_validation():
    w0 = np.zeros((4, 6))
    with pytest.raises(ShapeError):
        LoRALinear(w0=w0, b=np.zeros((4, 2)), a=np.zeros((3, 6)), scale=1.0)
    with pytest.raises(ShapeError):
        LoRALinear(w0=w0, b=np.zeros((5, 2)), a=np.zeros((2, 6)), scale=1.0)
    with pytest.raises(ShapeError):
        LoRALinear(w0=w0, b=np.zeros((4, 5)), a=np.zeros((5, 6)), scale=1.0)
    with pytest.raises(ValueError):
        LoRALinear(w0=w0, b=np.zeros((4, 2)), a=np.zeros((2, 6)), scale=0.0)
    with pytest.raises(ShapeError):
        LoRALinear(w0=w0, b=np.zeros((4, 0)), a=np.zeros((0, 6)), scale=1.0)


def test_network_adjacency_validation():
    rng = make_rng(0)
    l1 = make_lora_layer(rng.standard_normal((4, 5)), rank=2, scale=1.0, rng=rng)
    l2 = make_lora_layer(rng.standard_normal((3, 7)), rank=2, scale=1.0, rng=rng)
    with pytest.raises(ShapeError):
        Network(layers=[l1, l2])
    with pytest.raises(ValueError):
        Network(layers=[l1], activation="gelu")
    with pytest.raises(ValueError):
        Network(layers=[l1], loss_kind="hinge")
    with pytest.raises(ShapeError):
        build_network([5], rank=1, scale=1.0, rng=rng)


def test_batch_validation():
    with pytest.raises(ShapeError):
        Batch(inputs=np.zeros((3, 4)), targets=np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        Batch(inputs=np.zeros((3, 0)), targets=np.zeros((2, 0)))
    Batch(inputs=np.zeros((3, 4)), targets=np.zeros((2, 4)))


def test_batch_and_layer_refuse_complex_input():
    """A complex batch or factor raises TypeError naming its dtype rather
    than be taken as its real part with a ComplexWarning."""
    with pytest.raises(TypeError, match="got dtype complex128"):
        Batch(inputs=np.ones((3, 2)) * (1 + 1j), targets=np.zeros((2, 2)))
    with pytest.raises(TypeError, match="got dtype complex128"):
        LoRALinear(w0=np.eye(2), b=np.ones((2, 1)) * 1j, a=np.ones((1, 2)),
                   scale=1.0)


def test_initial_adapter_is_identity_on_base():
    """b starts at zero, so the adapted net equals the frozen base net."""
    rng = make_rng(3)
    net = build_network([6, 5, 2], rank=2, scale=7.0, rng=rng)
    for layer in net.layers:
        assert np.array_equal(layer.b, np.zeros_like(layer.b))
        assert np.array_equal(layer.merged_weight(), layer.w0)


def test_kaiming_scale_of_a_factor():
    """Entries of a have variance about 2/fan_in."""
    rng = make_rng(4)
    net = build_network([400, 300], rank=64, scale=1.0, rng=rng)
    a = net.layers[0].a
    observed = float(np.var(a))
    assert abs(observed - 2.0 / 400) < 0.3 * (2.0 / 400)


# ------------------------------------------------------------------- forward

def test_forward_matches_dense_merged_network():
    """Running the factored net equals running a plain dense net built from
    the merged weights, for every activation and loss."""
    for activation in ("tanh", "relu", "identity"):
        for loss in ("mse", "softmax-ce"):
            net = small_net(seed=11, activation=activation, loss=loss, scale=0.5)
            batch = random_batch(net, seed=11)
            pred, loss_val = forward(net, batch)

            h = batch.inputs
            last = len(net.layers) - 1
            for i, layer in enumerate(net.layers):
                h = layer.merged_weight() @ h
                if i < last:
                    if activation == "tanh":
                        h = np.tanh(h)
                    elif activation == "relu":
                        h = np.maximum(h, 0.0)
            assert np.max(np.abs(pred - h)) < 1e-12
            assert np.isfinite(loss_val)


def test_mse_loss_hand_value():
    layer = LoRALinear(w0=np.array([[2.0]]), b=np.zeros((1, 1)),
                       a=np.ones((1, 1)), scale=1.0)
    net = Network(layers=[layer], loss_kind="mse")
    batch = Batch(inputs=np.array([[1.0, 2.0]]), targets=np.array([[1.0, 1.0]]))
    # preds = [2, 4]; residuals [1, 3]; loss = 0.5 * (1 + 9) / 2 = 2.5
    _, loss = forward(net, batch)
    assert abs(loss - 2.5) < 1e-15


def test_softmax_ce_loss_hand_value():
    layer = LoRALinear(w0=np.eye(2), b=np.zeros((2, 1)),
                       a=np.zeros((1, 2)), scale=1.0)
    net = Network(layers=[layer], loss_kind="softmax-ce")
    batch = Batch(inputs=np.array([[1.0], [0.0]]), targets=np.array([[1.0], [0.0]]))
    # logits (1, 0); p(class 0) = e / (e + 1); loss = log(1 + e^-1)
    _, loss = forward(net, batch)
    assert abs(loss - np.log1p(np.exp(-1.0))) < 1e-12


def test_softmax_ce_shift_invariance():
    """Large logits must not overflow thanks to the max-shift."""
    layer = LoRALinear(w0=np.eye(2) * 500.0, b=np.zeros((2, 1)),
                       a=np.zeros((1, 2)), scale=1.0)
    net = Network(layers=[layer], loss_kind="softmax-ce")
    batch = Batch(inputs=np.array([[1.0], [1.0]]), targets=np.array([[1.0], [0.0]]))
    _, loss = forward(net, batch)
    assert np.isfinite(loss) and abs(loss - np.log(2.0)) < 1e-12


def test_forward_rejects_mismatched_batch():
    net = small_net()
    with pytest.raises(ShapeError):
        forward(net, Batch(inputs=np.zeros((net.in_dim + 1, 2)),
                           targets=np.zeros((net.out_dim, 2))))
    with pytest.raises(ShapeError):
        forward(net, Batch(inputs=np.zeros((net.in_dim, 2)),
                           targets=np.zeros((net.out_dim + 1, 2))))


def test_forward_with_offsets_matches_merged_shift():
    """Adding a dense offset equals rebuilding the net with w0 shifted."""
    net = small_net(seed=21)
    batch = random_batch(net, seed=21)
    rng = make_rng(22)
    offsets = [rng.standard_normal(layer.w0.shape) * 0.01 for layer in net.layers]

    shifted = copy.deepcopy(net)
    for layer, off in zip(shifted.layers, offsets):
        layer.w0 = layer.w0 + off
    _, expected = forward(shifted, batch)
    _, got = forward_with_offsets(net, batch, offsets)
    assert abs(got - expected) < 1e-12

    # None entries skip layers; all-None equals the plain forward.
    _, base = forward(net, batch)
    _, same = forward_with_offsets(net, batch, [None] * len(net.layers))
    assert same == base


def test_forward_with_offsets_validation():
    net = small_net()
    batch = random_batch(net)
    with pytest.raises(ShapeError):
        forward_with_offsets(net, batch, [None])
    bad = [np.zeros((1, 1))] + [None] * (len(net.layers) - 1)
    with pytest.raises(ShapeError):
        forward_with_offsets(net, batch, bad)


# A shift or offset that is not a real ndarray: the function builds it
# from a real one of the right shape, and the message it must raise.
NOT_REAL_ARRAYS = {
    "complex": (lambda x: x * (1 + 1j), "must be real, got dtype complex128"),
    "list": (lambda x: x.tolist(), "must be an ndarray, got list"),
    "longdouble": (lambda x: x.astype(np.longdouble),
                   f"must be real, got dtype {np.dtype(np.longdouble)}"),
}


def not_real_array(bad):
    """NOT_REAL_ARRAYS[bad], skipped where np.longdouble is float64."""
    if bad == "longdouble" and np.dtype(np.longdouble) == np.float64:
        pytest.skip("np.longdouble is float64 on this platform")
    return NOT_REAL_ARRAYS[bad]


@pytest.mark.parametrize("k", [3, 20], ids=["factored", "merged"])
@pytest.mark.parametrize("bad", sorted(NOT_REAL_ARRAYS))
def test_forward_with_offsets_refuses_a_complex_or_list_offset(bad, k):
    """A complex, list or longdouble offset raises TypeError on either
    route, before the sweep reads it: not an AttributeError for a list,
    nor a cast or AccumulationError from inside the sweep for a complex
    or longdouble array."""
    net = small_net()
    batch = random_batch(net, k=k)
    assert {_merged(layer, k) for layer in net.layers} == {k == 20}
    make, message = not_real_array(bad)
    offsets = [None, make(np.ones_like(net.layers[1].w0))]
    with pytest.raises(TypeError, match=f"offset 1 {message}"):
        forward_with_offsets(net, batch, offsets)


# ------------------------------------------------------------------ backward

def fd_gradient(net, batch, layer_index, which, step=FD_STEP):
    """Central finite differences through the loss, entry by entry."""
    layer = net.layers[layer_index]
    target = layer.b if which == "b" else layer.a
    grad = np.zeros_like(target)
    for i in range(target.shape[0]):
        for j in range(target.shape[1]):
            old = target[i, j]
            target[i, j] = old + step
            _, up = forward(net, batch)
            target[i, j] = old - step
            _, down = forward(net, batch)
            target[i, j] = old
            grad[i, j] = (up - down) / (2.0 * step)
    return grad


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("loss", ["mse", "softmax-ce"])
def test_backward_matches_finite_differences(activation, loss):
    net = small_net(seed=31, activation=activation, loss=loss, scale=0.7)
    batch = random_batch(net, seed=31)
    grads = backward(net, batch)
    _, loss_val = forward(net, batch)
    assert abs(grads.loss - loss_val) < 1e-14
    for idx in range(len(net.layers)):
        for which, got in (("b", grads.grad_b[idx]), ("a", grads.grad_a[idx])):
            want = fd_gradient(net, batch, idx, which)
            denom = max(np.max(np.abs(want)), 1e-12)
            assert np.max(np.abs(got - want)) / denom < FD_TOL, (
                f"layer {idx} grad_{which} mismatch under {activation}/{loss}"
            )


def test_merged_gradient_matches_finite_differences():
    """grad_w from want_full=True differentiates the merged weight."""
    net = small_net(seed=41)
    batch = random_batch(net, seed=41)
    grads = backward(net, batch, want_full=True)
    step = FD_STEP
    for idx, layer in enumerate(net.layers):
        want = np.zeros_like(layer.w0)
        for i in range(layer.w0.shape[0]):
            for j in range(layer.w0.shape[1]):
                old = layer.w0[i, j]
                layer.w0[i, j] = old + step
                _, up = forward(net, batch)
                layer.w0[i, j] = old - step
                _, down = forward(net, batch)
                layer.w0[i, j] = old
                want[i, j] = (up - down) / (2.0 * step)
        denom = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(grads.grad_w[idx] - want)) / denom < FD_TOL


def test_factor_gradients_satisfy_chain_identity():
    """grad_b = scale * grad_w @ a.T and grad_a = scale * b.T @ grad_w,
    tying the factored route to the merged route exactly."""
    net = small_net(seed=51, dims=(6, 5, 4, 2), rank=2)
    batch = random_batch(net, seed=51)
    grads = backward(net, batch, want_full=True)
    for layer, gb, ga, gw in zip(net.layers, grads.grad_b, grads.grad_a, grads.grad_w):
        assert np.max(np.abs(gb - layer.scale * (gw @ layer.a.T))) < 1e-10
        assert np.max(np.abs(ga - layer.scale * (layer.b.T @ gw))) < 1e-10


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("loss", ["mse", "softmax-ce"])
def test_forward_offsets_and_backward_share_one_sweep(activation, loss):
    """forward, forward_with_offsets with no offsets and backward run the
    same sweep, so predictions and losses agree bit for bit."""
    net = small_net(seed=5, activation=activation, loss=loss)
    batch = random_batch(net, seed=5)
    pred, loss_plain = forward(net, batch)
    pred_off, loss_off = forward_with_offsets(net, batch, [None] * len(net.layers))
    assert np.array_equal(pred, pred_off)
    assert loss_plain == loss_off == backward(net, batch).loss


def _merged(layer, k):
    """Whether the sweep takes layer's merged route at batch width k."""
    n, m = layer.w0.shape
    return n * m <= layer.rank * k


def _oracle_sweep(net, batch, offsets, merged=_merged, offset_merged=None):
    """The sweep written out of place, one fresh array per operation: a
    layer of the merged route (merged(layer, k)) as merged_weight() @ h,
    with an offset (merged_weight() + offset) @ h, any other as
    w0 @ h + scale * (b @ (a @ h)), with an offset plus offset @ h.
    offset_merged(layer, k), when given, picks a layer's offset formula
    in place of its route."""
    offset_merged = offset_merged or merged
    last = len(net.layers) - 1
    h = batch.inputs
    cache = []
    for i, (layer, off) in enumerate(zip(net.layers, offsets)):
        ax = layer.a @ h
        fold = off is not None and offset_merged(layer, h.shape[1])
        if merged(layer, h.shape[1]) or fold:
            w = layer.merged_weight()
            z = (w + off if fold else w) @ h
        else:
            z = layer.w0 @ h + layer.scale * (layer.b @ ax)
        if off is not None and not fold:
            z = z + off @ h
        if i < last:
            if net.activation == "tanh":
                z = np.tanh(z)
            elif net.activation == "relu":
                z = np.maximum(z, 0.0)
        cache.append((h, ax, z))
        h = z
    return cache


def _oracle_loss_and_grad(pred, targets, kind):
    k = pred.shape[1]
    if kind == "mse":
        resid = pred - targets
        return 0.5 * float(np.sum(resid * resid)) / k, resid / k
    shifted = pred - pred.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=0, keepdims=True)
    log_probs = shifted - np.log(z)
    return -float(np.sum(targets * log_probs)) / k, (exp / z - targets) / k


def _oracle_backward(net, batch, merged=_merged, formula=None):
    """The gradients written out of place.  A layer of the merged route
    takes its factor gradients through its weight gradient,
    gw = g @ x_in.T, as scale * (gw @ a.T) and scale * (b.T @ gw), and
    passes down merged_weight().T @ g; any other takes them from the
    factored chain rule, scale * (g @ (a @ x_in).T) and
    scale * ((b.T @ g) @ x_in.T), and passes down
    w0.T @ g + a.T @ (scale * (b.T @ g)).  formula(layer, k), when
    given, picks the factor-gradient formula in place of the route."""
    formula = formula or merged
    cache = _oracle_sweep(net, batch, [None] * len(net.layers), merged)
    last = len(net.layers) - 1
    loss, g = _oracle_loss_and_grad(cache[last][2], batch.targets, net.loss_kind)
    grad_b, grad_a, grad_w = [], [], []
    for i in range(last, -1, -1):
        layer = net.layers[i]
        x_in, ax, out = cache[i]
        if i < last:
            if net.activation == "tanh":
                g = g * (1.0 - out * out)
            elif net.activation == "relu":
                g = g * (out > 0.0).astype(np.float64)
            else:
                g = g * np.ones_like(out)
        gw = g @ x_in.T
        bt_g = layer.b.T @ g
        if formula(layer, x_in.shape[1]):
            grad_b.insert(0, layer.scale * (gw @ layer.a.T))
            grad_a.insert(0, layer.scale * (layer.b.T @ gw))
        else:
            grad_b.insert(0, layer.scale * (g @ ax.T))
            grad_a.insert(0, layer.scale * (bt_g @ x_in.T))
        grad_w.insert(0, gw)
        if i > 0 and merged(layer, x_in.shape[1]):
            g = layer.merged_weight().T @ g
        elif i > 0:
            g = layer.w0.T @ g + layer.a.T @ (layer.scale * bt_g)
    return loss, grad_b, grad_a, grad_w


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("loss", ["mse", "softmax-ce"])
def test_in_place_sweep_is_bit_identical_to_out_of_place_formulas(activation, loss):
    """forward, forward_with_offsets and backward(want_full=True) write the
    same bytes as the sweep computed one fresh array per operation, on a
    three-layer net whose first two layers take the factored route and
    whose last, 3 x 4 against rank x k = 2 x 7, the merged route, at
    scale 0.7 and at scale 1.0, where every multiplication by the scale
    is skipped; the offsets on the first and last layer miss the bits of
    the other route's offset formula, offset @ h added apart on the
    merged layer and folded into the merged weight on the factored one;
    backward leaves batch.inputs alone, and a prediction held from
    forward survives a later backward unchanged."""
    for scale in (0.7, 1.0):
        net = small_net(seed=9, dims=(5, 6, 4, 3), activation=activation,
                        loss=loss, scale=scale)
        batch = random_batch(net, seed=9)
        assert [_merged(layer, 7) for layer in net.layers] == [False, False, True]
        inputs_before = batch.inputs.copy()
        rng = make_rng(9)
        offsets = [rng.standard_normal(net.layers[0].w0.shape) * 0.2, None,
                   rng.standard_normal(net.layers[2].w0.shape) * 0.2]
        for offs in ([None] * 3, offsets):
            want_pred = _oracle_sweep(net, batch, offs)[-1][2]
            want_loss, _ = _oracle_loss_and_grad(want_pred, batch.targets, loss)
            pred, got_loss = forward_with_offsets(net, batch, offs)
            assert _same_bytes(pred, want_pred) and got_loss == want_loss
        for flipped in net.layers[0], net.layers[2]:
            other = _oracle_sweep(net, batch, offsets, offset_merged=lambda layer, k:
                                  _merged(layer, k) != (layer is flipped))
            assert not _same_bytes(pred, other[-1][2]), scale
        held, held_loss = forward(net, batch)
        held_bytes = held.tobytes()
        assert _same_bytes(held, _oracle_sweep(net, batch, [None] * 3)[-1][2])
        want_loss, want_b, want_a, want_w = _oracle_backward(net, batch)
        assert held_loss == want_loss
        grads = backward(net, batch, want_full=True)
        assert grads.loss == want_loss
        for got, want in zip(grads.grad_b + grads.grad_a + grads.grad_w,
                             want_b + want_a + want_w):
            assert _same_bytes(got, want), scale
        assert _same_bytes(batch.inputs, inputs_before)
        assert held.tobytes() == held_bytes


@pytest.mark.parametrize("k", [1, 2, 3072])
@pytest.mark.parametrize("width", [1, 2, 3, 5, 17])
def test_backward_is_bit_identical_at_row_block_edges(monkeypatch, width, k):
    """backward builds each hidden gradient in the hidden output's buffer
    one row block at a time; at every activation and loss, at scale 0.7
    and 1.0, with the module's block size (five uneven blocks at width
    17, k = 3072) and with blocks of two or three rows (one block when
    k = 1), backward(want_full=True) writes the bytes of the oracle that
    builds each gradient as one array.  At k = 3072 every layer takes
    the merged route, at k = 1 and 2 the factored one, but for the
    width-1 and width-2 square layer at k = 2 and the width-1 one at
    k = 1, which take the merged route between two factored layers."""
    for block_bytes in (model._BLOCK_BYTES, 1):
        monkeypatch.setattr(model, "_BLOCK_BYTES", block_bytes)
        sizes = [s.stop - s.start for s in _row_blocks(np.empty((width, k)))]
        assert sum(sizes) == width and (len(sizes) == 1 or min(sizes) >= 2)
        if block_bytes == 1:
            assert len(sizes) == (max(1, width // 2) if k > 1 else 1)
        elif (width, k) == (17, 3072):
            assert sizes == [3, 3, 4, 3, 4]
        for activation, loss, scale in itertools.product(
                ("tanh", "relu", "identity"), ("mse", "softmax-ce"), (0.7, 1.0)):
            net = small_net(seed=width, dims=(5, width, width, 3),
                            rank=min(2, width), activation=activation,
                            loss=loss, scale=scale)
            batch = random_batch(net, seed=k, k=k)
            want_loss, want_b, want_a, want_w = _oracle_backward(net, batch)
            grads = backward(net, batch, want_full=True)
            assert grads.loss == want_loss
            for got, want in zip(grads.grad_b + grads.grad_a + grads.grad_w,
                                 want_b + want_a + want_w):
                assert _same_bytes(got, want), (block_bytes, activation, loss, scale)


def _traced_peak(fn):
    """Peak traced bytes of one call above the traced size at its start,
    after an untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dims, rank, k, scale, backward_bound, forward_bound, "
                         "offset",
                         [((16, 16, 4), 4, 3072, 0.5, 1.52, 1.26, False),
                          ((256, 256, 64), 8, 64, 0.5, 1.74, 1.3, False),
                          ((256, 256, 64), 8, 64, 1.0, 1.74, 1.3, False),
                          ((16, 16, 16, 4), 4, 3072, 0.5, 2.52, 2.01, False),
                          ((16, 16, 4), 4, 3072, 0.5, 1.52, 1.26, True)],
                         ids=["default-dims", "wide-dims", "wide-dims-scale-1",
                              "three-layer", "default-dims-offsets"])
def test_sweep_peak_memory_stays_within_a_few_activations(dims, rank, k, scale,
                                                          backward_bound,
                                                          forward_bound,
                                                          offset):
    """The sweep reuses the arrays it owns, runs each layer no larger
    than rank x k through its merged weight, and hands backward only its
    activations: in units of the largest n x k float64 activation,
    backward, which builds each hidden gradient in row blocks inside the
    hidden output, rebuilds every a @ h it needs and, on the merged
    route, drops b.T @ g before the blocks, peaks at
    no more than 1.52 at the default dims, where every layer takes the
    merged route (it reads 1.51; 1.76 on the factored route), 1.74 at
    the wide dims, factored, at scale 0.5 and 1.0, where each block
    starts as w0.T[rows] @ g, which numpy reads in place, and
    a.T[rows] @ (scale * b.T @ g) is added (1.73; 1.95 at scale 0.5
    when that block of w0.T was copied for BLAS), and 2.52 with three
    layers (2.51; 2.76 factored), and forward, which drops each hidden
    output once the next layer has read it, at no more than 1.26, 1.3,
    1.3 and 2.01 (1.25, 1.29, 1.29 and 2.01; 1.50 and 2.25 factored).
    With a dense offset on every layer, forward_with_offsets at the
    default dims, where each offset is added into the merged weight,
    peaks at no more than 1.26 too (1.25).  Re-measured once the sweep
    kept no a @ h: backward 1.5071, 1.7320 and 2.5075, forward 1.2538,
    1.2889 and 2.0078, with offsets 1.2538.
    A fresh array for the gradient passed down read 2.76 at the default
    dims; building the products apart and adding them about 3.5; one
    fresh array per operation about 5."""
    net = small_net(seed=13, dims=dims, rank=rank, scale=scale)
    batch = random_batch(net, seed=13, k=k)
    rng = make_rng(13)
    offsets = [rng.standard_normal(layer.w0.shape) * 0.2 if offset else None
               for layer in net.layers]
    activation_bytes = max(dims) * k * 8
    assert (_traced_peak(lambda: backward(net, batch))
            <= backward_bound * activation_bytes)
    sweep = ((lambda: forward_with_offsets(net, batch, offsets)) if offset
             else (lambda: forward(net, batch)))
    assert _traced_peak(sweep) <= forward_bound * activation_bytes


WIDE_DIMS = {"layer_dims": [256, 256, 64], "rank": 8, "batch_size": 64}
THREE_LAYERS = {"layer_dims": [16, 16, 16, 4]}


@pytest.mark.parametrize("kind, dims, bound", [
    ("lora", {}, 1.52),
    ("lora-sam", {}, 1.52),
    ("flat-lora", {}, 1.52),
    ("eflat-lora", {}, 1.52),
    ("lora", WIDE_DIMS, 1.74),
    ("lora-sam", WIDE_DIMS, 2.15),
    ("flat-lora", WIDE_DIMS, 1.9),
    ("eflat-lora", WIDE_DIMS, 1.74),
    ("lora", THREE_LAYERS, 2.53),
    ("lora-sam", THREE_LAYERS, 2.53),
    ("flat-lora", THREE_LAYERS, 2.53),
    ("eflat-lora", THREE_LAYERS, 2.53),
], ids=["lora", "lora-sam", "flat-lora", "eflat-lora", "wide-dims-lora",
        "wide-dims-lora-sam", "wide-dims-flat-lora", "wide-dims-eflat-lora",
        "three-layer-lora", "three-layer-lora-sam", "three-layer-flat-lora",
        "three-layer-eflat-lora"])
def test_step_peak_memory_stays_within_a_few_activations(kind, dims, bound):
    """One step of each optimizer kind peaks at no more than a bound just
    above its measured peak, in units of the largest activation: 1.52 at
    the default config, where every layer takes the merged route (1.51
    for each kind; 1.76 factored), at the wide dims, factored, 1.74 for
    lora and eflat-lora (1.73), 1.9 for flat-lora (1.89) and 2.15 for
    lora-sam (2.146), whose step holds its dense direction too (each
    0.22 more when backward copied each block of w0.T for BLAS, and 0.03
    more again with every a @ h held), and with three layers at the
    default width 2.53 (2.51, 2.52 for lora-sam; 2.76 or more
    factored).  The two passes of a sharpness-aware step never hold two
    sweeps at once, and neither the plan nor the update adds an n x k
    array."""
    cfg = ExperimentConfig(optimizer=kind, **dims)
    net = small_net(seed=13, dims=tuple(cfg.layer_dims), rank=cfg.rank,
                    scale=cfg.scale)
    batch = random_batch(net, seed=13, k=cfg.batch_size)
    step, _ = make_step(cfg, net)
    t = itertools.count(1)
    activation_bytes = max(cfg.layer_dims) * cfg.batch_size * 8
    assert _traced_peak(lambda: step(batch, next(t))) <= bound * activation_bytes


@pytest.mark.parametrize("layout", ["w0-f-order", "inputs-f-order",
                                    "inputs-strided", "one-sample", "one-output"])
def test_sweep_is_bit_identical_for_any_operand_layout(layout):
    """_add_product hands F-ordered operands to BLAS with the trans flag,
    lets it copy strided and float32 ones, and builds the product where
    numpy takes its matrix-vector route; forward with a transposed-view
    offset and a float32 offset, and backward(want_full=True), write the
    bytes of the sweep computed one fresh array per operation."""
    one_output = layout == "one-output"
    net = small_net(seed=11, dims=(5, 6, 4, 1 if one_output else 3),
                    rank=1 if one_output else 2, scale=0.7)
    batch = random_batch(net, seed=11, k=1 if layout == "one-sample" else 7)
    if layout == "w0-f-order":
        for layer in net.layers:
            layer.w0 = np.asfortranarray(layer.w0)
    elif layout == "inputs-f-order":
        batch = Batch(np.asfortranarray(batch.inputs), batch.targets)
    elif layout == "inputs-strided":
        wide = np.repeat(np.repeat(batch.inputs, 2, axis=0), 3, axis=1)
        batch = Batch(wide[::2, ::3], batch.targets)
    assert batch.inputs.flags.c_contiguous == (not layout.startswith("inputs"))
    rng = make_rng(11)
    n0, m0 = net.layers[0].w0.shape
    offsets = [(rng.standard_normal((m0, n0)) * 0.2).T, None,
               (rng.standard_normal(net.layers[2].w0.shape) * 0.2).astype(np.float32)]
    assert offsets[0].flags.f_contiguous and not offsets[0].flags.c_contiguous
    for offs in ([None] * 3, offsets):
        want_pred = _oracle_sweep(net, batch, offs)[-1][2]
        pred, _ = forward_with_offsets(net, batch, offs)
        assert _same_bytes(pred, want_pred)
    want_loss, want_b, want_a, want_w = _oracle_backward(net, batch)
    grads = backward(net, batch, want_full=True)
    assert grads.loss == want_loss
    for got, want in zip(grads.grad_b + grads.grad_a + grads.grad_w,
                         want_b + want_a + want_w):
        assert _same_bytes(got, want)


def _in_layout(values, layout):
    """values copied into an array of the named layout; the same numbers
    in other memory."""
    if layout == "rows-of-a-transpose":
        # First axis of unit stride, as a row block of w0.T has.
        held = np.zeros((values.shape[1], values.shape[0] + 3))
        held[:, 2:2 + values.shape[0]] = values.T
        return held.T[2:2 + values.shape[0]]
    if layout == "reversed-f-order":
        return np.asfortranarray(values[::-1])[::-1]
    if layout == "f-order-strided":
        held = np.zeros((2 * values.shape[0], 3 * values.shape[1]), order="F")
        held[::2, ::3] = values
        return held[::2, ::3]
    if layout == "float32-f-order":
        return np.asfortranarray(values.astype(np.float32))
    raise ValueError(layout)


STRIDED_LAYOUTS = ["rows-of-a-transpose", "reversed-f-order",
                   "f-order-strided", "float32-f-order"]


@pytest.mark.parametrize("layout", STRIDED_LAYOUTS)
def test_forward_with_a_strided_offset_writes_the_oracle_bytes(layout):
    """_add_product hands BLAS an operand in neither C nor F order, or
    not float64, as numpy's matmul takes it (copied in its own axis
    order, or cast to C order), so forward_with_offsets with such
    offsets, and with such inputs, writes the bytes of the sweep
    computed one fresh array per operation.  Handed to f2py as they are,
    such operands went to dgemm with the other trans flag."""
    net = small_net(seed=21, dims=(17, 24, 9, 3), scale=0.7)
    rng = make_rng(21)
    offsets = [_in_layout(rng.standard_normal(layer.w0.shape) * 0.2, layout)
               for layer in net.layers]
    assert not any(o.flags.c_contiguous for o in offsets)
    batch = random_batch(net, seed=21, k=3)
    inputs = _in_layout(batch.inputs, layout).astype(np.float64, copy=False)
    for batch in (batch, Batch(inputs, batch.targets)):
        want_pred = _oracle_sweep(net, batch, offsets)[-1][2]
        pred, _ = forward_with_offsets(net, batch, offsets)
        assert _same_bytes(pred, want_pred)


@pytest.mark.parametrize("layout", STRIDED_LAYOUTS)
def test_add_product_gives_numpys_bits_for_an_operand_in_any_layout(layout):
    """out += x @ y with either operand in the layout, over shapes from
    2 to 64 rows, adds the bits of numpy's x @ y."""
    rng = make_rng(23)
    for n, m, k in itertools.product([2, 3, 17, 64], [5, 17, 64], [2, 3, 5, 64]):
        x, y = rng.standard_normal((n, m)), rng.standard_normal((m, k))
        base = rng.standard_normal((n, k))
        for left, right in ((_in_layout(x, layout), y), (x, _in_layout(y, layout))):
            out = base.copy()
            _add_product(left, right, out)
            assert _same_bytes(out, base + left @ right), (n, m, k)


@pytest.mark.parametrize("left, right", [
    (np.ones((4, 5), dtype=complex), np.ones((5, 3))),
    (np.ones((4, 5), dtype=np.float32), np.ones((5, 3), dtype=np.float32)),
], ids=["complex", "float32-product"])
def test_add_product_refuses_a_product_that_is_not_float64(left, right):
    """dgemm cannot add a complex or a float32 product bit for bit; the
    call raises and out keeps its zeros."""
    out = np.zeros((4, 3))
    with pytest.raises(AccumulationError):
        _add_product(left, right, out)
    assert not out.any()


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_merged_weight_has_the_bits_of_the_written_formula(scale):
    """merged_weight() builds b @ a, scales it in place and adds w0 into
    it, with the bits and dtype of w0 + scale * (b @ a); the array is
    fresh, so writing into it, as the sweep does with an offset, leaves
    w0, b and a as they were."""
    net = small_net(seed=31, dims=(40, 30, 20), rank=4, scale=scale)
    for layer in net.layers:
        before = [p.copy() for p in (layer.w0, layer.b, layer.a)]
        w = layer.merged_weight()
        want = layer.w0 + scale * (layer.b @ layer.a)
        assert w.dtype == np.float64 and _same_bytes(w, want)
        if scale != 1.0:  # another order rounds differently
            assert not _same_bytes(w, layer.w0 + (scale * layer.b) @ layer.a)
        w += np.ones_like(w)
        for got, was in zip((layer.w0, layer.b, layer.a), before):
            assert _same_bytes(got, was)
        assert _same_bytes(layer.merged_weight(), want)


def test_row_blocks_are_an_immutable_tuple_that_follows_the_block_size(monkeypatch):
    """The slices are built once per shape, size and block size and handed
    out as one tuple; a monkeypatched _BLOCK_BYTES or another dtype of the
    same shape gets its own split."""
    def sizes(y):
        return [s.stop - s.start for s in _row_blocks(y)]

    blocks = _row_blocks(np.empty((17, 3072)))
    assert isinstance(blocks, tuple) and blocks is _row_blocks(np.empty((17, 3072)))
    with pytest.raises(TypeError):
        blocks[0] = slice(0, 1)
    assert sizes(np.empty((17, 3072))) == [3, 3, 4, 3, 4]
    assert sizes(np.empty((17, 3072), dtype=np.float32)) == [4, 4, 4, 5]
    monkeypatch.setattr(model, "_BLOCK_BYTES", 1)
    assert sizes(np.empty((17, 3072))) == [2] * 7 + [3]
    monkeypatch.undo()
    assert sizes(np.empty((17, 3072))) == [3, 3, 4, 3, 4]


def test_row_blocks_split_outputs_over_half_a_block_in_at_least_four():
    """An output larger than half of _BLOCK_BYTES takes at least four
    blocks of at least two rows; a smaller one, or one column, stays
    whole."""
    def sizes(rows, cols):
        return [s.stop - s.start for s in _row_blocks(np.empty((rows, cols)))]

    assert sizes(256, 64) == [64] * 4
    assert sizes(16, 3072) == [4] * 4
    assert sizes(17, 3072) == [3, 3, 4, 3, 4]
    assert sizes(5, 3072) == [2, 3]
    assert sizes(12, 8) == [12]
    assert sizes(8192, 1) == [8192]


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_backward_is_bit_identical_at_the_wide_split(scale):
    """At hidden width 256 and batch 64 the hidden output takes four
    64-row blocks and the one below it four 24-row blocks, the rows of a
    non-square w0.T, both on the factored route; above them a last layer
    whose 10 x 48 weight is no larger than rank x k (8 x 64) passes its
    gradient down through its merged weight; at every activation and
    loss, backward(want_full=True) writes the bytes of the oracle that
    builds each gradient as one array."""
    assert [s.stop - s.start for s in _row_blocks(np.empty((96, 64)))] == [24] * 4
    for activation in ("tanh", "relu", "identity"):
        for loss in ("mse", "softmax-ce"):
            net = small_net(seed=29, dims=(48, 256, 96, 48, 10), rank=8,
                            activation=activation, loss=loss, scale=scale)
            batch = random_batch(net, seed=29, k=64)
            assert [_merged(layer, 64) for layer in net.layers] == [False] * 3 + [True]
            want_loss, want_b, want_a, want_w = _oracle_backward(net, batch)
            grads = backward(net, batch, want_full=True)
            assert grads.loss == want_loss
            for got, want in zip(grads.grad_b + grads.grad_a + grads.grad_w,
                                 want_b + want_a + want_w):
                assert _same_bytes(got, want), (activation, loss)


@pytest.mark.parametrize("out_dim", [3, 4], ids=["n-m-equals-rank-k",
                                                   "one-row-more"])
def test_a_layer_takes_the_merged_route_up_to_rank_times_batch(out_dim):
    """A layer whose n x m weight holds exactly rank x k entries (3 x 8
    against 2 x 12) runs through its merged weight, and one with a row
    more through its factors: forward and backward(want_full=True)
    write the bytes of the oracle that routes that layer so, at scale
    0.7 and 1.0, and not those of the oracle that routes it the other
    way, nor, on the same sweep, its factor gradients those of the
    other route's formula."""
    for scale in (0.7, 1.0):
        net = small_net(seed=37, dims=(6, 8, out_dim), rank=2, scale=scale)
        batch = random_batch(net, seed=37, k=12)
        edge = net.layers[1]
        assert edge.w0.size - edge.rank * 12 == (0 if out_dim == 3 else 8)
        assert _merged(edge, 12) == (out_dim == 3) and not _merged(net.layers[0], 12)

        def flipped(layer, k):
            return _merged(layer, k) != (layer is edge)

        pred, _ = forward(net, batch)
        assert _same_bytes(pred, _oracle_sweep(net, batch, [None, None])[-1][2])
        assert not _same_bytes(
            pred, _oracle_sweep(net, batch, [None, None], flipped)[-1][2])
        want_loss, want_b, want_a, want_w = _oracle_backward(net, batch)
        grads = backward(net, batch, want_full=True)
        assert grads.loss == want_loss
        for got, want in zip(grads.grad_b + grads.grad_a + grads.grad_w,
                             want_b + want_a + want_w):
            assert _same_bytes(got, want), scale
        other = _oracle_backward(net, batch, flipped)
        assert not _same_bytes(grads.grad_w[0], other[3][0])
        _, other_b, other_a, _ = _oracle_backward(net, batch, formula=flipped)
        assert _same_bytes(other_b[0], want_b[0])
        assert not (_same_bytes(grads.grad_b[1], other_b[1])
                    and _same_bytes(grads.grad_a[1], other_a[1])), scale


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("loss", ["mse", "softmax-ce"])
@pytest.mark.parametrize("scale", [0.7, 1.0])
def test_merged_route_factor_gradients_agree_with_the_factored_chain_rule(
        activation, loss, scale):
    """On layers of the merged route backward takes grad_b and grad_a
    through the weight gradient g @ x_in.T; they agree with the factored
    chain rule, scale * (g @ (a @ x_in).T) and scale * ((b.T @ g) @ x_in.T)
    on the same sweep, to 1e-14 of each gradient's largest entry (1.7e-15
    at most over 40 seeds of these nets), on two layers at batch 12, the
    default dims and three layers at batch 64."""
    for dims, rank, k in (((5, 4, 3), 2, 12), ((16, 16, 4), 4, 3072),
                          ((16, 16, 16, 4), 4, 64)):
        net = small_net(seed=43, dims=dims, rank=rank, activation=activation,
                        loss=loss, scale=scale)
        batch = random_batch(net, seed=43, k=k)
        assert all(_merged(layer, k) for layer in net.layers)
        grads = backward(net, batch)
        _, want_b, want_a, _ = _oracle_backward(
            net, batch, formula=lambda layer, k: False)
        for got, want in zip(grads.grad_b + grads.grad_a, want_b + want_a):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), dims


@pytest.mark.parametrize("make_out", [
    lambda: np.zeros((4, 3), order="F"),
    lambda: np.zeros((4, 3), dtype=np.float32),
    lambda: np.zeros((4, 6))[:, ::2],
], ids=["f-order", "float32", "strided"])
def test_add_product_refuses_an_out_it_cannot_add_into(make_out):
    """BLAS would add into a converted copy of such an out and drop the
    sum; _add_product raises instead, and out keeps its zeros."""
    rng = make_rng(17)
    out = make_out()
    with pytest.raises(AccumulationError):
        _add_product(rng.standard_normal((4, 5)), rng.standard_normal((5, 3)), out)
    assert not out.any()


def test_add_product_raises_on_an_overflow_under_errstate():
    """dgemm overflows two 3 x 4 and 4 x 5 arrays of 1e300 out of numpy's
    sight; under np.errstate(over="raise") _add_product raises
    FloatingPointError, as x @ y does, and under numpy's default state
    it leaves the inf in out, as before."""
    x, y = np.full((3, 4), 1e300), np.full((4, 5), 1e300)
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            x @ y
        with pytest.raises(FloatingPointError):
            _add_product(x, y, np.zeros((3, 5)))
    with np.errstate(over="ignore"):
        out = _add_product(x, y, np.zeros((3, 5)))
    assert np.isposinf(out).all()


def test_add_product_checks_finiteness_without_an_array_the_size_of_out():
    """The check under np.errstate(over="raise") reduces out in place:
    one call peaks at well under out's own bytes."""
    rng = make_rng(19)
    x, y = rng.standard_normal((256, 64)), rng.standard_normal((64, 64))
    out = np.zeros((256, 64))
    with np.errstate(over="raise"):
        assert _traced_peak(lambda: _add_product(x, y, out)) < out.nbytes // 16


def test_factored_forward_past_one_blas_panel_stays_within_rounding():
    """A 512-wide input puts w0 @ h past one BLAS panel (384 inner), where
    dgemm adds each panel's partial sum into the output in turn and so
    may round otherwise than w0 @ h + scale * (b @ (a @ h)).  Under the
    training error state forward raises nothing there and matches the
    out-of-place oracle to 1e-13 relative: a wide input is no error.  (At
    one OpenBLAS thread 480 of the 2048 hidden entries here take other
    bits.)"""
    net = small_net(seed=59, dims=(512, 32, 3))
    batch = random_batch(net, seed=59, k=64)
    assert not _merged(net.layers[0], 64)
    with _raising_errstate():
        pred, _ = forward(net, batch)
    want = _oracle_sweep(net, batch, [None, None])[-1][2]
    assert np.max(np.abs(pred - want)) <= 1e-13 * np.max(np.abs(want))


def test_forward_raises_on_an_overflow_in_a_factored_tanh_layer():
    """A factored-route layer whose w0 @ h overflows inside dgemm: under
    numpy's default state tanh hides the inf as 1.0 and the loss stays
    finite; under np.errstate(over="raise") forward raises
    FloatingPointError before the activation reads it."""
    net = small_net(seed=47, dims=(5, 6, 4, 3), activation="tanh")
    batch = random_batch(net, seed=47)
    assert not _merged(net.layers[0], 7)
    net.layers[0].w0[:] = 1e300
    batch.inputs[:] = 1e10
    with np.errstate(over="ignore"):
        _, loss = forward(net, batch)
    assert np.isfinite(loss)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            forward(net, batch)


@pytest.mark.parametrize("overflow", ["product", "sum"])
def test_forward_raises_on_an_overflow_in_a_merged_layer_offset(overflow):
    """A merged-route layer adds its offset into the merged weight and
    runs one numpy product, so under np.errstate(over="raise") an
    overflow in the product (a 1e300 offset on inputs of 1e10) or in the
    sum (an offset of 1.7e308 on a weight of 1.7e308) raises
    FloatingPointError from numpy itself; with every floating-point
    error ignored the inf goes on into the activation."""
    net = small_net(seed=53, dims=(5, 4, 3), activation="tanh")
    batch = random_batch(net, seed=53, k=12)
    assert all(_merged(layer, 12) for layer in net.layers)
    offsets = [np.full(net.layers[0].w0.shape, 1e300), None]
    if overflow == "sum":
        net.layers[0].w0[:] = offsets[0][:] = 1.7e308
    else:
        batch.inputs[:] = 1e10
    with np.errstate(all="ignore"):
        forward_with_offsets(net, batch, offsets)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            forward_with_offsets(net, batch, offsets)


def test_backward_default_skips_full_gradients():
    net = small_net()
    assert backward(net, random_batch(net)).grad_w is None


# -------------------------------------------------------------- perturbation

def test_apply_revert_restores_exact_objects():
    net = small_net(seed=61)
    originals_b = [layer.b for layer in net.layers]
    originals_a = [layer.a for layer in net.layers]
    rng = make_rng(62)
    e_b = [rng.standard_normal(layer.b.shape) for layer in net.layers]
    handle = apply_b_perturbation(net, e_b)
    for layer, orig, shift in zip(net.layers, originals_b, e_b):
        assert layer.b is not orig
        assert np.array_equal(layer.b, orig + shift)
    handle.revert()
    for layer, ob, oa in zip(net.layers, originals_b, originals_a):
        assert layer.b is ob  # the original array objects come back
        assert layer.a is oa


def test_revert_is_one_shot():
    net = small_net()
    handle = apply_b_perturbation(net, [np.ones_like(l.b) for l in net.layers])
    handle.revert()
    with pytest.raises(PerturbationStateError):
        handle.revert()


def test_perturbation_context_manager_reverts():
    net = small_net(seed=63)
    before = [layer.b.copy() for layer in net.layers]
    with apply_b_perturbation(net, [np.ones_like(l.b) for l in net.layers]):
        assert not np.array_equal(net.layers[0].b, before[0])
    for layer, saved in zip(net.layers, before):
        assert np.array_equal(layer.b, saved)

    # An exception inside the block still reverts.
    with pytest.raises(RuntimeError):
        with apply_b_perturbation(net, [np.ones_like(l.b) for l in net.layers]):
            raise RuntimeError("boom")
    for layer, saved in zip(net.layers, before):
        assert np.array_equal(layer.b, saved)


def test_apply_perturbation_both_factors_and_none_entries():
    net = small_net(seed=64)
    b0 = net.layers[0].b.copy()
    a1 = net.layers[1].a.copy()
    e_b = [np.ones_like(net.layers[0].b), None]
    e_a = [None, np.ones_like(net.layers[1].a)]
    with apply_perturbation(net, e_b=e_b, e_a=e_a):
        assert np.array_equal(net.layers[0].b, b0 + 1.0)
        assert np.array_equal(net.layers[1].a, a1 + 1.0)
    assert np.array_equal(net.layers[0].b, b0)
    assert np.array_equal(net.layers[1].a, a1)


def test_apply_perturbation_validation():
    net = small_net()
    with pytest.raises(ShapeError):
        apply_perturbation(net, e_b=[np.zeros((1, 1))])
    bad = [np.zeros((1, 1))] + [None] * (len(net.layers) - 1)
    with pytest.raises(ShapeError):
        apply_perturbation(net, e_b=bad)


@pytest.mark.parametrize("bad", ["e_b", "e_a"])
def test_apply_perturbation_is_all_or_nothing(bad):
    """A wrong-shaped later entry raises before any factor moves: every
    layer keeps its original b and a objects, also when the bad entry is
    in e_a and all of e_b is well formed."""
    net = random_net(make_rng(1), (6, 5, 3), rank=2)
    originals = [(layer.b, layer.a) for layer in net.layers]
    layer0 = net.layers[0]
    if bad == "e_b":
        shifts = {"e_b": [np.ones_like(layer0.b), np.ones((9, 9))]}
    else:
        shifts = {"e_b": [np.ones_like(layer.b) for layer in net.layers],
                  "e_a": [np.ones_like(layer0.a), np.ones((9, 9))]}
    with pytest.raises(ShapeError):
        apply_perturbation(net, **shifts)
    for layer, (b, a) in zip(net.layers, originals):
        assert layer.b is b and layer.a is a


@pytest.mark.parametrize("k", [3, 20], ids=["factored", "merged"])
@pytest.mark.parametrize("bad", sorted(NOT_REAL_ARRAYS))
def test_apply_perturbation_refuses_a_complex_or_list_shift(bad, k):
    """A complex, list or longdouble shift raises TypeError before any
    factor moves, also through PerturbState.apply, and the next forward
    reads the loss it read before.  A complex b would make the merged
    route return a real loss from a complex network and the factored
    route raise AccumulationError at the next forward; a longdouble one
    would turn b into longdouble until reverted."""
    net = small_net()
    batch = random_batch(net, k=k)
    assert {_merged(layer, k) for layer in net.layers} == {k == 20}
    _, loss = forward(net, batch)
    originals = [(layer.b, layer.a) for layer in net.layers]
    make, message = not_real_array(bad)
    e_b = [np.ones_like(layer.b) for layer in net.layers]
    e_a = [np.ones_like(net.layers[0].a), make(np.ones_like(net.layers[1].a))]
    with pytest.raises(TypeError, match=f"e_a\\[1\\] {message}"):
        apply_perturbation(net, e_b=e_b, e_a=e_a)
    pstate = init_perturb_state(net, rho0=0.1, beta=0.5)
    pstate.ema_e_b[1] = make(pstate.ema_e_b[1])
    with pytest.raises(TypeError, match=f"e_b\\[1\\] {message}"):
        pstate.apply(net)
    assert not pstate.applied
    for layer, (b, a) in zip(net.layers, originals):
        assert layer.b is b and layer.a is a
    assert forward(net, batch)[1] == loss
