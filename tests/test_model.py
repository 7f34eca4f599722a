"""Forward/backward correctness for adapted networks: merged-weight
equivalence, finite-difference gradient checks, and the perturbation
apply/revert lifecycle."""

import tracemalloc

import numpy as np
import pytest

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
    clone_network,
    effective_full_perturbation,
    forward,
    forward_with_offsets,
    make_lora_layer,
    _add_product,
)

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
        LoRALinear(w0=w0, b=np.zeros((4, 2)), a=np.zeros((3, 6)), scale=1.0, rank=2)
    with pytest.raises(ShapeError):
        LoRALinear(w0=w0, b=np.zeros((5, 2)), a=np.zeros((2, 6)), scale=1.0, rank=2)
    with pytest.raises(ShapeError):
        LoRALinear(w0=w0, b=np.zeros((4, 5)), a=np.zeros((5, 6)), scale=1.0, rank=5)
    with pytest.raises(ValueError):
        LoRALinear(w0=w0, b=np.zeros((4, 2)), a=np.zeros((2, 6)), scale=0.0, rank=2)


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
    b = Batch(inputs=np.zeros((3, 4)), targets=np.zeros((2, 4)))
    assert b.size == 4


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
                       a=np.ones((1, 1)), scale=1.0, rank=1)
    net = Network(layers=[layer], loss_kind="mse")
    batch = Batch(inputs=np.array([[1.0, 2.0]]), targets=np.array([[1.0, 1.0]]))
    # preds = [2, 4]; residuals [1, 3]; loss = 0.5 * (1 + 9) / 2 = 2.5
    _, loss = forward(net, batch)
    assert abs(loss - 2.5) < 1e-15


def test_softmax_ce_loss_hand_value():
    layer = LoRALinear(w0=np.eye(2), b=np.zeros((2, 1)),
                       a=np.zeros((1, 2)), scale=1.0, rank=1)
    net = Network(layers=[layer], loss_kind="softmax-ce")
    batch = Batch(inputs=np.array([[1.0], [0.0]]), targets=np.array([[1.0], [0.0]]))
    # logits (1, 0); p(class 0) = e / (e + 1); loss = log(1 + e^-1)
    _, loss = forward(net, batch)
    assert abs(loss - np.log1p(np.exp(-1.0))) < 1e-12


def test_softmax_ce_shift_invariance():
    """Large logits must not overflow thanks to the max-shift."""
    layer = LoRALinear(w0=np.eye(2) * 500.0, b=np.zeros((2, 1)),
                       a=np.zeros((1, 2)), scale=1.0, rank=1)
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

    shifted = clone_network(net)
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


def _oracle_sweep(net, batch, offsets):
    """The sweep written out of place, one fresh array per operation."""
    last = len(net.layers) - 1
    h = batch.inputs
    cache = []
    for i, (layer, off) in enumerate(zip(net.layers, offsets)):
        ax = layer.a @ h
        z = layer.w0 @ h + layer.scale * (layer.b @ ax)
        if off is not None:
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


def _oracle_backward(net, batch):
    cache = _oracle_sweep(net, batch, [None] * len(net.layers))
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
        bt_g = layer.b.T @ g
        grad_b.insert(0, layer.scale * (g @ ax.T))
        grad_a.insert(0, layer.scale * (bt_g @ x_in.T))
        grad_w.insert(0, g @ x_in.T)
        if i > 0:
            g = layer.w0.T @ g + layer.scale * (layer.a.T @ bt_g)
    return loss, grad_b, grad_a, grad_w


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("loss", ["mse", "softmax-ce"])
def test_in_place_sweep_is_bit_identical_to_out_of_place_formulas(activation, loss):
    """forward, forward_with_offsets and backward(want_full=True) write the
    same bytes as the sweep computed one fresh array per operation, on a
    three-layer net; backward leaves batch.inputs alone, and a prediction
    held from forward survives a later backward unchanged."""
    net = small_net(seed=9, dims=(5, 6, 4, 3), activation=activation,
                    loss=loss, scale=0.7)
    batch = random_batch(net, seed=9)
    inputs_before = batch.inputs.copy()
    rng = make_rng(9)
    offsets = [rng.standard_normal(net.layers[0].w0.shape) * 0.2, None,
               rng.standard_normal(net.layers[2].w0.shape) * 0.2]
    for offs in ([None] * 3, offsets):
        want_pred = _oracle_sweep(net, batch, offs)[-1][2]
        want_loss, _ = _oracle_loss_and_grad(want_pred, batch.targets, loss)
        pred, got_loss = forward_with_offsets(net, batch, offs)
        assert _same_bytes(pred, want_pred) and got_loss == want_loss
    held, held_loss = forward(net, batch)
    held_bytes = held.tobytes()
    assert _same_bytes(held, _oracle_sweep(net, batch, [None] * 3)[-1][2])
    want_loss, want_b, want_a, want_w = _oracle_backward(net, batch)
    assert held_loss == want_loss
    grads = backward(net, batch, want_full=True)
    assert grads.loss == want_loss
    for got, want in zip(grads.grad_b + grads.grad_a + grads.grad_w,
                         want_b + want_a + want_w):
        assert _same_bytes(got, want)
    assert _same_bytes(batch.inputs, inputs_before)
    assert held.tobytes() == held_bytes


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


@pytest.mark.parametrize("dims, rank, k", [((16, 16, 4), 4, 3072),
                                           ((256, 256, 64), 8, 64)],
                         ids=["default-dims", "wide-dims"])
def test_sweep_peak_memory_stays_within_a_few_activations(dims, rank, k):
    """The sweep reuses the arrays it owns and BLAS adds w0 @ h and
    w0.T @ g into them: backward peaks at no more than 3 and forward at no
    more than 2 of the largest n x k float64 activation.  Building those
    products apart and adding them reads about 3.5 and 2.25; one fresh
    array per elementwise operation about 5 and 3."""
    net = small_net(seed=13, dims=dims, rank=rank, scale=0.5)
    batch = random_batch(net, seed=13, k=k)
    activation_bytes = max(dims) * k * 8
    assert _traced_peak(lambda: backward(net, batch)) <= 3.0 * activation_bytes
    assert _traced_peak(lambda: forward(net, batch)) <= 2.0 * activation_bytes


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


def test_backward_default_skips_full_gradients():
    net = small_net()
    assert backward(net, random_batch(net)).grad_w is None


# -------------------------------------------------------------- perturbation

def test_effective_full_perturbation_value():
    e_b = np.array([[1.0], [0.0]])
    a = np.array([[2.0, 3.0]])
    out = effective_full_perturbation(e_b, a, scale=0.5)
    assert np.array_equal(out, np.array([[1.0, 1.5], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        effective_full_perturbation(np.zeros((2, 2)), a, scale=1.0)


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


def test_clone_network_is_independent():
    net = small_net(seed=71)
    twin = clone_network(net)
    twin.layers[0].b[0, 0] += 5.0
    twin.layers[0].w0[0, 0] += 5.0
    assert net.layers[0].b[0, 0] != twin.layers[0].b[0, 0]
    assert net.layers[0].w0[0, 0] != twin.layers[0].w0[0, 0]
    batch = random_batch(net, seed=71)
    _, l1 = forward(net, batch)
    fresh = clone_network(net)
    _, l2 = forward(fresh, batch)
    assert l1 == l2
