import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn import autodiff as ad
from setnn import train as tr
from setnn.checks import _off_kink_dense, _same_bits as same_bits
from setnn.layers import (
    NONLINEARITIES,
    EquivariantLayer,
    EquivariantStack,
    SetBatch,
    random_equivariant_stack,
    random_invariant_model,
)
from setnn.autodiff import (
    NonDeterministicError,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    UnknownPrimitiveError,
    apply_primitive,
    backprop,
    grad_check,
)

from test_first_maximum import drawn_layouts


def test_tensor_is_float64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)


def test_tensor_adopts_a_contiguous_float64_buffer():
    """A C-contiguous float64 array is the tensor's data, not a copy of it, so
    a view of one flat parameter vector can be a Tensor; float32 or strided
    input is copied into a new float64 array."""
    flat = np.arange(8.0)
    view = flat[2:8].reshape(3, 2)
    assert np.shares_memory(Tensor(view).data, flat)
    for other in (flat.astype(np.float32), flat[::2]):
        data = Tensor(other).data
        assert not np.shares_memory(data, other)
        assert data.dtype == np.float64 and data.flags["C_CONTIGUOUS"]
        assert np.array_equal(data, other)


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])


def test_unknown_primitive():
    with pytest.raises(UnknownPrimitiveError):
        apply_primitive("convolve", (Tensor([1.0]),))


def _identity(x: Tensor, act: str = "linear") -> Tensor:
    """``act(x)`` as one dense node with an identity weight and zero bias."""
    width = x.shape[1]
    return ad.dense(x, Tensor(np.eye(width)), Tensor(np.zeros(width)), act)


def test_eager_without_tape():
    out = _identity(Tensor([[-1.0, 2.0]]), "relu")
    assert out.tape is None and out.node_id is None
    np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


def test_forward_values():
    np.testing.assert_allclose(ad.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])).data, 2.5)


def test_non_finite_result_raises():
    big = Tensor([[700.0, 710.0]])
    with Tape(), np.errstate(over="ignore"):
        scaled = ad.dense(big, Tensor(1e300 * np.eye(2)), Tensor(np.zeros(2)), "linear")
        with pytest.raises(NonFiniteError):  # 7e302 is finite, its square is not
            ad.mse_loss(scaled, Tensor([[0.0, 0.0]]))


# Plain numpy activations (forward, and backward from input and output).
_ACTIVATION_REFERENCE = {
    "linear": (lambda x: x, lambda g, x, out: g),
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, x, out: g * (x > 0.0)),
    "tanh": (np.tanh, lambda g, x, out: g * (1.0 - out * out)),
}


def _dense_and_grads(build, x, W, b, target):
    with Tape() as tape:
        out = build(x, W, b)
        grads = backprop(tape, ad.mse_loss(out, target), [x, W, b])
    return (out.data, *grads)


def _dense_reference(act, x, W, b, target):
    fw, bw = _ACTIVATION_REFERENCE[act]
    pre = x @ W + b
    out = fw(pre)
    g = bw((2.0 / out.size) * (out - target) * np.asarray(1.0), pre, out)
    return out, g @ W.T, x.T @ g, g.sum(axis=0)


@pytest.mark.parametrize("act", sorted(NONLINEARITIES))
def test_dense_matches_composed_ops_bit_for_bit(act):
    """The fused node reproduces the composed numpy ops x @ W, + b and the
    activation exactly, forward and backward, at a population-like layer
    shape."""
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(400, 64)))
    W = Tensor(rng.normal(scale=0.2, size=(64, 64)))
    b = Tensor(rng.normal(scale=0.1, size=64))
    target = Tensor(rng.normal(size=(400, 64)))
    fused = _dense_and_grads(lambda x, W, b: ad.dense(x, W, b, act), x, W, b, target)
    reference = _dense_reference(act, x.data, W.data, b.data, target.data)
    for name, got, ref in zip(("out", "dx", "dW", "db"), fused, reference):
        assert np.array_equal(got, ref), f"{act}: {name} differs from plain numpy"


@pytest.mark.parametrize("act, sign", [("relu", -1.0), ("tanh", 1.0), ("tanh", -1.0)])
def test_dense_raises_on_overflow_the_activation_would_hide(act, sign):
    """x @ W overflows to +-inf, which relu (-inf -> 0) or tanh (-> +-1) would
    map to a finite output."""
    x = Tensor([[1e200, 1e200]])
    W = Tensor([[sign * 1e200], [sign * 1e200]])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.dense(x, W, Tensor([0.0]), act)


def test_dense_validates_shapes_and_activation():
    x, W, b = (Tensor(a) for a in _off_kink_dense())
    with pytest.raises(ShapeError):
        ad.dense(x, W, Tensor([0.0]), "relu")
    with pytest.raises(ShapeError):
        ad.dense(Tensor(x.data[:, :2]), W, b, "relu")
    with pytest.raises(UnknownPrimitiveError):
        ad.dense(x, W, b, "softplus")


def test_relu_grad_zero_at_zero():
    x = Tensor([[-1.0], [0.0], [2.0], [3.0]])
    with Tape() as tape:
        # d loss / d relu(x) = 0.5 * (relu(x) + 1) is non-zero everywhere
        loss = ad.mse_loss(_identity(x, "relu"), Tensor([[-1.0], [-1.0], [-1.0], [-1.0]]))
    (gx,) = backprop(tape, loss, [x])
    np.testing.assert_array_equal(gx, [[0.0], [0.0], [1.5], [2.0]])


def test_segment_max_tie_goes_to_first_row():
    x = Tensor([[2.0], [2.0], [1.0]])
    with Tape() as tape:
        pooled = ad.segment_max(x, [0, 3])
        loss = ad.mse_loss(pooled, Tensor([[1.5]]))
    (gx,) = backprop(tape, loss, [x])
    np.testing.assert_array_equal(gx, [[1.0], [0.0], [0.0]])


def test_backprop_requires_scalar_loss():
    x = Tensor([[1.0, 2.0]])
    with Tape() as tape:
        y = _identity(x, "relu")
        with pytest.raises(ShapeError):
            backprop(tape, y, [x])


def test_unused_leaf_gets_zero_gradient():
    x = Tensor([1.0, 2.0])
    w = Tensor([[3.0]])
    with Tape() as tape:
        _identity(w, "relu")  # on the tape, but the loss does not read it
        loss = ad.mse_loss(x, Tensor([0.0, 0.0]))
    assert w.tape is tape
    gw, gx = backprop(tape, loss, [w, x])
    np.testing.assert_array_equal(gw, [[0.0]])
    np.testing.assert_array_equal(gx, [1.0, 2.0])


def test_tensor_never_on_the_tape_gets_zero_gradient():
    x = Tensor([1.0, 2.0])
    w = Tensor([[3.0], [4.0]])
    with Tape() as tape:
        loss = ad.mse_loss(x, Tensor([0.0, 0.0]))
    assert w.tape is None
    (gw,) = backprop(tape, loss, [w])
    assert gw.shape == w.shape
    np.testing.assert_array_equal(gw, [[0.0], [0.0]])


def test_tensor_from_a_previous_tape_gets_zeros_not_the_stale_node_gradient():
    w = Tensor([[2.0]])
    with Tape():
        ad.dense(Tensor([[1.0]]), w, Tensor([0.0]), "linear")
    x, y = Tensor([[3.0]]), Tensor([[5.0]])
    with Tape() as tape:
        loss = ad.mse_loss(ad.dense(x, y, Tensor([0.0]), "linear"), Tensor([[0.0]]))
    # w's stale node id now names y's leaf, whose gradient is not zero
    assert w.node_id == y.node_id and w.tape is not tape
    gw, gy = backprop(tape, loss, [w, y])
    np.testing.assert_array_equal(gw, [[0.0]])
    np.testing.assert_array_equal(gy, [[90.0]])


def test_gradients_come_back_in_wrt_order():
    rng = np.random.default_rng(4)
    x, W, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=2))
    with Tape() as tape:
        h = ad.dense(x, W, b, "tanh")
        loss = ad.mse_loss(h, Tensor(np.zeros((5, 2))))
    gx, gW, gb = backprop(tape, loss, [x, W, b])
    shuffled = backprop(tape, loss, [b, x, W, b])
    assert [g.shape for g in shuffled] == [(2,), (5, 3), (3, 2), (2,)]
    for got, want in zip(shuffled, (gb, gx, gW, gb)):
        assert np.array_equal(got, want)
    # an intermediate tensor keeps its gradient too
    gh, gx_again = backprop(tape, loss, [h, x])
    assert np.array_equal(gh, (2.0 / h.data.size) * h.data)
    assert np.array_equal(gx_again, gx)


def test_gradient_overflow_raises_for_a_finite_loss():
    # forward: x @ W = 1e150 per column, loss 1e300; d loss / d x = 4 * 5e149 * 1e300
    x, W, b = Tensor([[1e-150]]), Tensor(np.full((1, 4), 1e300)), Tensor(np.zeros(4))
    with Tape() as tape:
        loss = ad.mse_loss(ad.dense(x, W, b, "linear"), Tensor(np.zeros((1, 4))))
    assert np.isfinite(loss.data)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            backprop(tape, loss, [W, x])
        # only the returned gradients are checked; d loss / d W = 0.5 is finite
        (gW,) = backprop(tape, loss, [W])
    np.testing.assert_array_equal(gW, [[0.5] * 4])


def test_loss_from_another_tape_is_rejected():
    x = Tensor([1.0, 2.0])
    with Tape():
        other = ad.mse_loss(x, Tensor([0.0, 0.0]))
    with Tape() as tape:
        ad.mse_loss(x, Tensor([1.0, 1.0]))
        with pytest.raises(ad.AutodiffError):
            backprop(tape, other, [x])
    with pytest.raises(ad.AutodiffError):  # an untaped loss is on no tape
        backprop(tape, ad.mse_loss(x, Tensor([0.0, 0.0])), [x])


def test_gradient_shapes_match_leaves():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=3))
    x = Tensor(rng.normal(size=(5, 4)))
    with Tape() as tape:
        h = ad.dense(x, w, b, "tanh")
        loss = ad.mse_loss(h, Tensor(np.zeros((5, 3))))
    gw, gb, gx = backprop(tape, loss, [w, b, x])
    assert gw.shape == w.shape
    assert gb.shape == b.shape
    assert gx.shape == x.shape


def test_shared_weight_gradient_is_sum_of_per_element_contributions():
    """Pushing one shared weight matrix through every element of a set in one
    matmul gives the same gradient as summing per-element gradients."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    w = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(np.zeros(2))

    with Tape() as tape:
        h = ad.dense(Tensor(x), w, b, "tanh")
        loss = ad.mse_loss(h, Tensor(np.zeros((6, 2))))
    # the mean over 6 rows, times 6, is the sum of the per-row losses
    batched = 6.0 * backprop(tape, loss, [w])[0]

    total = np.zeros_like(w.data)
    for m in range(x.shape[0]):
        with Tape() as tape:
            h = ad.dense(Tensor(x[m:m + 1]), w, b, "tanh")
            loss = ad.mse_loss(h, Tensor(np.zeros((1, 2))))
        total += backprop(tape, loss, [w])[0]
    np.testing.assert_allclose(batched, total, rtol=0, atol=1e-12)


def _well_separated(rng, shape, gap=0.05):
    """Values with pairwise gaps, so max/argmax are stable under fd steps."""
    n = int(np.prod(shape))
    vals = np.arange(n) * gap + rng.uniform(0, gap / 4, size=n)
    rng.shuffle(vals)
    return vals.reshape(shape)


def _loss_through(op):
    def f(params):
        out = op(*params)
        if out.data.shape == ():
            return out
        out = _identity(out, "tanh")
        return ad.mse_loss(out, Tensor(np.zeros(out.shape)))

    return f


GRAD_CASES = {
    "mse_loss": lambda rng: ([Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,)))], ad.mse_loss),
    "set_softmax_nll": lambda rng: ([Tensor(rng.normal(size=(7, 1)))],
                                    lambda s: ad.set_softmax_nll(s, [0, 3, 7], [1, 2])),
    "segment_sum": lambda rng: ([Tensor(rng.normal(size=(6, 2)))], lambda x: ad.segment_sum(x, [0, 2, 6])),
    "segment_mean": lambda rng: ([Tensor(rng.normal(size=(6, 2)))], lambda x: ad.segment_mean(x, [0, 4, 6])),
    "segment_max": lambda rng: ([Tensor(_well_separated(rng, (6, 2)))], lambda x: ad.segment_max(x, [0, 3, 6])),
    "segment_center": lambda rng: ([Tensor(rng.normal(size=(6, 2))), Tensor(rng.normal(size=(2, 2)))],
                                   lambda x, pooled: ad.segment_center(x, pooled, [0, 2, 6])),
    "segment_broadcast": lambda rng: ([Tensor(rng.normal(size=(2, 3)))], lambda x: ad.segment_broadcast(x, [0, 2, 5])),
    "segment_augment": lambda rng: ([Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(2, 3)))],
                                    lambda x, pooled: ad.segment_augment(x, pooled, [0, 2, 5])),
}
# Fixed inputs whose pre-activations keep 0.1 away from the relu kink.
GRAD_CASES.update({
    f"dense_{act}": lambda rng, act=act: ([Tensor(a) for a in _off_kink_dense()], lambda x, W, b: ad.dense(x, W, b, act))
    for act in NONLINEARITIES
})


@pytest.mark.parametrize("case", sorted(GRAD_CASES))
def test_grad_matches_central_differences(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    params, op = GRAD_CASES[case](rng)
    err = grad_check(_loss_through(op), params, step=1e-5, seed=3)
    assert err <= 1e-4, f"{case}: relative gradient error {err}"


def test_grad_check_tight_for_smooth_ops():
    rng = np.random.default_rng(9)
    params = [Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=2))]
    err = grad_check(_loss_through(lambda x, W, b: ad.dense(x, W, b, "tanh")), params, step=1e-5, seed=0)
    assert err <= 1e-6


def test_grad_check_rejects_bad_step():
    x = [Tensor([[1.0]])]
    f = _loss_through(_identity)
    for bad in (0.0, -1e-5, 0.5):
        with pytest.raises(ad.AutodiffError):
            grad_check(f, x, step=bad)


def test_grad_check_detects_nondeterminism():
    state = {"n": 0}

    def f(params):
        state["n"] += 1
        scaled = ad.dense(params[0], Tensor([[float(state["n"])]]), Tensor([0.0]), "linear")
        return ad.mse_loss(scaled, Tensor([[0.0]]))

    with pytest.raises(NonDeterministicError):
        grad_check(f, [Tensor([[1.0]])])


def test_grad_check_catches_wrong_gradient():
    # A deliberately broken function: uses a stale constant in place of the
    # parameter on the second branch, so analytic and numeric gradients split.
    def f(params):
        (x,) = params
        frozen = Tensor(x.data[0].copy())
        return ad.mse_loss(ad.dense(x, Tensor(np.eye(2)), frozen, "linear"), Tensor(np.zeros(x.shape)))

    err = grad_check(f, [Tensor([[1.0, 2.0]])])
    assert err > 1e-2


def test_set_softmax_nll_value_and_grad():
    scores = Tensor([[0.0], [0.0], [0.0], [1.0]])
    out = ad.set_softmax_nll(scores, [0, 4], [3])
    expected = -np.log(np.exp(1.0) / (3.0 + np.exp(1.0)))
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    with Tape() as tape:
        loss = ad.set_softmax_nll(scores, [0, 4], [3])
    (g,) = backprop(tape, loss, [scores])
    np.testing.assert_allclose(g.sum(), 0.0, atol=1e-15)
    assert g.shape == (4, 1) and g[3, 0] < 0 < g[0, 0]


def test_set_softmax_nll_validates_targets_and_offsets():
    s = Tensor(np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        ad.set_softmax_nll(s, [0, 4], [4])
    with pytest.raises(ShapeError):
        ad.set_softmax_nll(s, [0, 2, 2, 4], [0, 0, 0])
    with pytest.raises(ShapeError):
        ad.set_softmax_nll(s, [1, 4], [0])
    # a fractional target is refused, not truncated to a row
    for targets in ([0.9, 1.2], np.array([1.0, 0.0]), ["0", "1"]):
        with pytest.raises(ShapeError, match="integer target"):
            ad.set_softmax_nll(s, [0, 2, 4], targets)


@pytest.mark.parametrize("shape", [(4,), (4, 2), (1, 4)])
def test_set_softmax_nll_takes_only_a_column_of_scores(shape):
    with pytest.raises(ShapeError, match=r"a \(total, 1\) column"):
        ad.set_softmax_nll(Tensor(np.zeros(shape)), [0, 2, 4], [0, 1])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_segment_sum_matches_per_segment_numpy(sizes, seed):
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    x = rng.normal(size=(offsets[-1], 3))
    out = ad.segment_sum(Tensor(x), offsets).data
    for s in range(len(sizes)):
        np.testing.assert_allclose(out[s], x[offsets[s]:offsets[s + 1]].sum(axis=0), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_segment_broadcast_then_sum_scales_by_counts(sizes, seed):
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pooled = rng.normal(size=(len(sizes), 2))
    back = ad.segment_sum(ad.segment_broadcast(Tensor(pooled), offsets), offsets).data
    np.testing.assert_allclose(back, pooled * np.asarray(sizes)[:, None], atol=1e-12)


@pytest.mark.parametrize("sizes, width", [
    ([3000, 5, 2500], 4),
    ([1] * 3000 + [2] * 500, 3),
    ([5000], 2),
    (list(range(1, 120)), 1),
], ids=["large-segments", "many-tiny-segments", "one-set", "width-1"])
def test_segment_reductions_equal_the_per_set_loop(sizes, width):
    # the kernels sum one run block of equal-size sets at a time; they must
    # keep the bits of one sum per set
    rng = np.random.default_rng(len(sizes))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    x = rng.normal(size=(offsets[-1], width))

    def per_set(a):
        return np.array([a[lo:hi].sum(axis=0) for lo, hi in zip(offsets[:-1], offsets[1:])])
    sums = per_set(x)
    assert np.array_equal(ad.segment_sum(Tensor(x), offsets).data, sums)
    assert np.array_equal(ad.segment_mean(Tensor(x), offsets).data, sums / np.asarray(sizes)[:, None])

    pooled = Tensor(rng.normal(size=(len(sizes), width)))
    with Tape() as tape:
        loss = ad.mse_loss(ad.segment_broadcast(pooled, offsets), Tensor(x))
    (g,) = backprop(tape, loss, [pooled])
    g_spread = (2.0 / x.size) * (np.repeat(pooled.data, sizes, axis=0) - x) * np.asarray(1.0)
    assert np.array_equal(g, per_set(g_spread))

    for a in (x, x[:, 0].copy()):
        a[rng.random(a.shape) < 0.2] = 0.0  # exact ties, so the first maximum is the lowest row
        check_layout_kernels(a, offsets)


def check_layout_kernels(a, offsets):
    """The layout's kernels on a matrix or one column against one loop step
    per set, bit for bit."""
    segs = ad.Segments(offsets)
    bounds = list(zip(offsets[:-1], offsets[1:]))
    sizes = np.diff(offsets)
    assert same_bits(segs.sums(a), np.array([a[lo:hi].sum(axis=0) for lo, hi in bounds]))
    assert np.array_equal(segs.argmax(a), np.array([lo + a[lo:hi].argmax(axis=0) for lo, hi in bounds]))
    rows = a[: len(sizes)]
    assert same_bits(segs.spread(rows), np.concatenate([[r] * m for r, m in zip(rows, sizes)]))


@settings(max_examples=60, deadline=None)
@given(drawn_layouts())
def test_segment_kernels_equal_the_per_set_loop_on_drawn_layouts(layout):
    x, offsets = layout
    check_layout_kernels(x, offsets)
    check_layout_kernels(x[:, 0].copy(), offsets)


def test_offsets_validation():
    x = Tensor(np.zeros((4, 2)))
    for bad in ([0, 2], [1, 4], [0, 2, 2, 4], [0, 5], [4, 0]):
        with pytest.raises(ShapeError):
            ad.segment_sum(x, bad)
    for bad in ([1, 2, 3], [0, 2, 2], [0, 3, 1]):
        with pytest.raises(ShapeError):
            ad.segment_broadcast(Tensor(np.zeros((2, 2))), bad)
    # offsets that are not an integer array are refused, not truncated, by
    # the primitives and by SetBatch alike
    for bad in ([0, 1.5, 4], ["0", "2", "4"], [0, 2**63, 4], np.array([0.0, 2.0, 4.0]), [], [[0, 4]]):
        with pytest.raises(ShapeError, match="integer array"):
            ad.segment_sum(x, bad)
        with pytest.raises(ShapeError, match="integer array"):
            SetBatch(x.data, bad)
    with pytest.raises(ShapeError, match="strictly increasing"):
        ad.segment_sum(x, np.array([0, 2**63, 4], dtype=np.uint64))


def test_a_validated_layout_stays_valid():
    off = np.array([0, 2, 5])
    segs = ad.Segments(off)
    off[1] = 4  # the caller's array is copied, not frozen or aliased
    assert segs.offsets.tolist() == [0, 2, 5] and segs.sizes.tolist() == [2, 3]
    batch = SetBatch(np.zeros((5, 2)), segs)
    assert batch.segments is segs
    for arr in (segs.offsets, segs.sizes, segs.starts, batch.offsets, batch.segments.sizes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # a Segments is checked against its input's rows, naming both counts
    x, pooled = Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2)))
    for op in (lambda: ad.segment_sum(x, segs), lambda: ad.segment_mean(x, segs), lambda: ad.segment_max(x, segs),
               lambda: ad.segment_center(x, pooled, segs), lambda: ad.segment_augment(x, pooled, segs),
               lambda: ad.set_softmax_nll(Tensor(np.zeros((4, 1))), segs, [0, 0]), lambda: SetBatch(x.data, segs)):
        with pytest.raises(ShapeError, match="span 5 rows, but the input has 4"):
            op()
    with pytest.raises(ShapeError, match="one row per segment"):
        ad.segment_broadcast(Tensor(np.zeros((3, 2))), segs)
    assert ad.segment_sum(Tensor(np.ones((5, 2))), segs).data.tolist() == [[2.0, 2.0], [3.0, 3.0]]


@pytest.mark.parametrize("spread", [ad.segment_center, ad.segment_augment])
def test_spread_ops_want_one_pooled_row_per_segment(spread):
    x = Tensor(np.zeros((4, 2)))
    # a (2, 1) pooled matrix would broadcast across the columns unchecked
    for shape in ((1, 2), (3, 2), (2, 1), (2, 3), (2,)):
        with pytest.raises(ShapeError, match="pooled row per segment"):
            spread(x, Tensor(np.zeros(shape)), [0, 1, 4])
    assert spread(x, Tensor(np.ones((2, 2))), [0, 1, 4]).shape[0] == 4


def test_tape_reuse_across_tapes():
    w = Tensor([[2.0]])
    for _ in range(2):
        with Tape() as tape:
            loss = ad.mse_loss(ad.dense(Tensor([[1.0]]), w, Tensor([0.0]), "linear"), Tensor([[0.0]]))
        np.testing.assert_allclose(backprop(tape, loss, [w])[0], [[4.0]])


# --- what backprop computes, and whose gradient a vjp may overwrite ----------


def reference_backprop(tape, loss, wrt):
    """The sweep with no work skipped: every node the loss reaches is swept,
    each vjp gets all-True ``needs`` and a copy of its gradient, and
    contributions add out of place."""
    grads = {loss.node_id: np.asarray(1.0)}
    for nid in range(loss.node_id, -1, -1):
        node = tape.nodes[nid]
        if node.kind == "leaf" or nid not in grads:
            continue
        for iid, ig in zip(node.inputs, node.vjp(grads[nid].copy(), (True,) * len(node.inputs))):
            grads[iid] = grads[iid] + ig if iid in grads else ig
    return [grads[t.node_id] if t.tape is tape and t.node_id in grads else np.zeros_like(t.data) for t in wrt]


def record_needs(tape):
    """Wrap every node's vjp to log ``{node id: needs}`` when backprop calls it."""
    log = {}

    def logged(nid, vjp):
        def vjp_logging(g, needs):
            log[nid] = needs
            return vjp(g, needs)
        return vjp_logging
    for nid, node in enumerate(tape.nodes):
        if node.vjp is not None:
            node.vjp = logged(nid, node.vjp)
    return log


def test_a_wanted_relu_output_keeps_its_unmasked_gradient():
    """relu's backward masks its gradient in place, so the gradient backprop
    returns for a wanted dense output must not be the one it hands on."""
    x = Tensor([[-1.0, 2.0], [3.0, -4.0]])
    with Tape() as tape:
        h = _identity(x, "relu")  # [[0, 2], [3, 0]]
        loss = ad.mse_loss(h, Tensor(-np.ones((2, 2))))
    unmasked = 0.5 * (h.data + 1.0)  # d loss / d h, non-zero everywhere
    for wrt in ([h], [h, x], [x, h]):
        grads = dict(zip(map(id, wrt), backprop(tape, loss, wrt)))
        assert np.array_equal(grads[id(h)], unmasked)
        if id(x) in grads:
            assert np.array_equal(grads[id(x)], unmasked * (h.data > 0.0))


def test_a_population_step_asks_for_no_data_or_target_gradient():
    rng = np.random.default_rng(6)
    cfg = tr.TrainConfig(task="population")
    model = tr.build_model(cfg, 2, rng)
    batch = SetBatch.from_sets([rng.normal(size=(m, 2)) for m in (5, 3, 8)])
    with Tape() as tape:
        loss, _ = tr._batch_loss(cfg, model, batch, rng.normal(size=3))
    log = record_needs(tape)
    grads = backprop(tape, loss, model.params())
    kinds = [node.kind for node in tape.nodes]
    dense_ids = [nid for nid, kind in enumerate(kinds) if kind == "dense"]
    # the data leaf feeds only the first dense, the target leaf only the loss
    assert log[dense_ids[0]] == (False, True, True)
    assert all(log[nid] == (True, True, True) for nid in dense_ids[1:])
    assert log[kinds.index("mse_loss")] == (True, False)
    assert sorted(log) == [nid for nid, kind in enumerate(kinds) if kind != "leaf"]
    for got, want in zip(grads, reference_backprop(tape, loss, model.params())):
        assert same_bits(got, want)


def test_a_wanted_data_leaf_still_gets_its_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(6, 3)))
    layers = [(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4)), "relu"),
              (Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=2)), "linear")]
    with Tape() as tape:
        h = x
        for W, b, act in layers:
            h = ad.dense(h, W, b, act)
        loss = ad.mse_loss(ad.segment_mean(h, [0, 2, 6]), Tensor(rng.normal(size=(2, 2))))
    params = [p for W, b, _ in layers for p in (W, b)]
    (want,) = reference_backprop(tape, loss, [x])
    assert np.any(want != 0.0)
    (alone,) = backprop(tape, loss, [x])
    assert same_bits(alone, want)
    assert same_bits(backprop(tape, loss, params + [x])[-1], want)


def _forward_from(model, x, batch):
    """``model.forward(batch)``, from a data tensor the caller holds."""
    if isinstance(model, EquivariantStack):
        for layer in model.layers:
            x = layer.forward(x, batch.segments)
        return x
    for layer in model.phi:
        x = layer.forward(x)
    x = getattr(ad, f"segment_{model.pool}")(x, batch.segments)
    for layer in model.rho:
        x = layer.forward(x)
    return x


def _layer_kinds(model):
    """(variant, pool, activation) of every layer; an invariant model's dense
    layers count under its pool, with no variant."""
    if isinstance(model, EquivariantStack):
        return {(l.variant, l.pool, l.dense.nonlinearity) for l in model.layers}
    return {(None, model.pool, l.nonlinearity) for l in model.phi + model.rho}


def _check_backprop_against_reference(seed, sizes, equivariant, wanted):
    """backprop on a random model's tape, for the drawn subset of the data
    leaf and the parameters, gives the reference sweep's bits; returns the
    model's layer kinds."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    model = (random_equivariant_stack(rng, width) if equivariant
             else random_invariant_model(rng, width, out_width=int(rng.integers(1, 3))))
    batch = SetBatch.from_sets([rng.normal(size=(m, width)) for m in sizes])
    x = Tensor(batch.elements)
    with Tape() as tape:
        out = _forward_from(model, x, batch)
        loss = ad.mse_loss(out, Tensor(rng.normal(size=out.shape)))
    assert same_bits(out.data, model.forward(batch).data)
    leaves = [x, *model.params()]
    wrt = [t for t, w in zip(leaves, wanted + [True] * len(leaves)) if w]
    reference = reference_backprop(tape, loss, wrt)
    for _ in range(2):  # a second sweep of the same tape gives the same bits
        for got, want in zip(backprop(tape, loss, wrt), reference):
            assert same_bits(got, want)
    return _layer_kinds(model)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 9), min_size=1, max_size=6),
       st.booleans(), st.lists(st.booleans(), max_size=12))
def test_backprop_matches_the_reference_sweep_bit_for_bit(seed, sizes, equivariant, wanted):
    _check_backprop_against_reference(seed, sizes, equivariant, wanted)


def test_the_reference_sweep_check_covers_every_layer_kind():
    """Fixed seeds on which the property above meets both equivariant
    variants, every pool and every activation."""
    kinds = set()
    for seed in range(16):
        for equivariant in (False, True):
            kinds |= _check_backprop_against_reference(seed, [3, 1, 4, 4], equivariant, [seed % 2 == 0])
    assert {v for v, _, _ in kinds} >= {None, *EquivariantLayer.VARIANTS}
    assert {p for _, p, _ in kinds} == {"sum", "max", "mean"}
    assert {a for _, _, a in kinds} == set(NONLINEARITIES)
