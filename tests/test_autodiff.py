import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn import autodiff as ad
from setnn.checks import _off_kink_dense
from setnn.layers import NONLINEARITIES, SetBatch
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


def test_tensor_is_float64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)


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
    "set_softmax_nll": lambda rng: ([Tensor(rng.normal(size=7))], lambda s: ad.set_softmax_nll(s, [0, 3, 7], [1, 2])),
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
    scores = Tensor([0.0, 0.0, 0.0, 1.0])
    out = ad.set_softmax_nll(scores, [0, 4], [3])
    expected = -np.log(np.exp(1.0) / (3.0 + np.exp(1.0)))
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    with Tape() as tape:
        loss = ad.set_softmax_nll(scores, [0, 4], [3])
    (g,) = backprop(tape, loss, [scores])
    np.testing.assert_allclose(g.sum(), 0.0, atol=1e-15)
    assert g[3] < 0 < g[0]


def test_set_softmax_nll_validates_targets_and_offsets():
    s = Tensor(np.zeros(4))
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

    # the layout's other kernels, on a matrix and on one column
    segs = ad.Segments(offsets)
    bounds = list(zip(offsets[:-1], offsets[1:]))
    for a in (x, x[:, 0].copy()):
        a[rng.random(a.shape) < 0.2] = 0.0  # exact ties, so the first maximum is the lowest row
        assert np.array_equal(segs.max(a), np.array([a[lo:hi].max(axis=0) for lo, hi in bounds]))
        assert np.array_equal(segs.argmax(a), np.array([lo + a[lo:hi].argmax(axis=0) for lo, hi in bounds]))
        rows = a[: len(sizes)]
        assert np.array_equal(segs.spread(rows), np.concatenate([[r] * m for r, m in zip(rows, sizes)]))


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
               lambda: ad.set_softmax_nll(Tensor(np.zeros(4)), segs, [0, 0]), lambda: SetBatch(x.data, segs)):
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
