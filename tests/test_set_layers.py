import hashlib
import itertools
import json
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn import autodiff as ad
from setnn.autodiff import ShapeError, Tape, Tensor, grad_check
from setnn.checks import _stack_tolerance
from setnn.layers import (
    DenseLayer,
    EquivariantLayer,
    EquivariantStack,
    InvariantModel,
    SetBatch,
    commutant_dimension,
    model_from_json,
    model_to_json,
    random_equivariant_stack,
    random_invariant_model,
)


def build_theta(lam: float, gam: float, M: int) -> np.ndarray:
    """Tied M x M matrix: lam on the diagonal (plus gam), gam elsewhere."""
    if M < 1:
        raise ShapeError(f"M must be >= 1, got {M}")
    return lam * np.eye(M) + gam * np.ones((M, M))


def commutes_with_all_permutations(theta: np.ndarray) -> bool:
    """Exhaustively check theta @ P == P @ theta, within 1e-12, over all M!
    permutations."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ShapeError(f"theta must be square, got {theta.shape}")
    M = theta.shape[0]
    if M > 8:
        raise ShapeError(f"M={M} too large for exhaustive permutation check (max 8)")
    for perm in itertools.permutations(range(M)):
        p = np.asarray(perm)
        inv = np.empty(M, dtype=np.int64)
        inv[p] = np.arange(M)
        # P @ theta permutes rows; theta @ P permutes columns by the inverse
        if np.max(np.abs(theta[p, :] - theta[:, inv])) > 1e-12:
            return False
    return True


def test_setbatch_validation():
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [0, 2, 2, 4])  # empty middle set
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [0, 3])
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [1, 4])


def test_setbatch_accessors():
    b = SetBatch.from_sets([np.ones((2, 3)), np.zeros((5, 3))])
    assert b.num_sets == 2
    assert b.width == 3
    np.testing.assert_array_equal(b.segments.sizes, [2, 5])
    assert b.set_at(1).shape == (5, 3)


@pytest.mark.parametrize("sets, bad", [
    ([np.ones((2, 3)), []], 1),               # atleast_2d([]) is a (1, 0) row
    ([np.ones((2, 3)), np.zeros((0, 3))], 1),  # no elements
    ([np.zeros((2, 0)), np.zeros((2, 0))], 0),  # zero width
    ([np.ones((2, 3)), np.ones((1, 3)), np.ones((2, 2))], 2),  # ragged widths
    ([np.ones((2, 3)), np.ones((2, 3, 1))], 1),  # not a matrix
], ids=["empty-list", "no-rows", "zero-width", "ragged-width", "3-d"])
def test_from_sets_rejects_and_names_the_bad_set(sets, bad):
    with pytest.raises(ShapeError, match=f"set {bad} ") as info:
        SetBatch.from_sets(sets)
    assert info.value.set_index == bad
    with pytest.raises(ShapeError, match="no sets"):
        SetBatch.from_sets([])


def test_gather_and_slice_match_the_packed_sets():
    rng = np.random.default_rng(5)
    sets = [rng.normal(size=(int(m), 3)) for m in rng.integers(1, 9, size=7)]
    batch = SetBatch.from_sets(sets)
    picked = [5, 0, 5, 3]
    gathered = batch.gather(picked)
    expected = SetBatch.from_sets([sets[i] for i in picked])
    np.testing.assert_array_equal(gathered.elements, expected.elements)
    np.testing.assert_array_equal(gathered.offsets, expected.offsets)
    assert not np.shares_memory(gathered.elements, batch.elements)

    part = batch.slice(2, 6)
    expected = SetBatch.from_sets(sets[2:6])
    np.testing.assert_array_equal(part.elements, expected.elements)
    np.testing.assert_array_equal(part.offsets, expected.offsets)
    assert np.shares_memory(part.elements, batch.elements)
    for lo, hi in ((3, 3), (-1, 2), (0, 8)):
        with pytest.raises(ShapeError):
            batch.slice(lo, hi)


def test_permuted_returns_the_rows_it_read():
    rng = np.random.default_rng(6)
    sets = [rng.normal(size=(int(m), 2)) for m in (1, 4, 1, 1, 7, 3, 1)]
    batch = SetBatch.from_sets(sets)
    shuffled, rows = batch.permuted(rng)
    np.testing.assert_array_equal(shuffled.elements, batch.elements[rows])
    assert shuffled.segments is batch.segments
    for a, b in zip(batch.offsets[:-1], batch.offsets[1:]):
        assert sorted(rows[a:b].tolist()) == list(range(a, b))
    assert not np.array_equal(rows, np.arange(rows.size))


def test_identity_model_pure_sum_and_max():
    batch = SetBatch.from_sets([np.array([[1.0], [2.0], [3.0]])])
    model = InvariantModel([], "sum", [])
    np.testing.assert_allclose(model.forward(batch).data, [[6.0]])
    batch2 = SetBatch.from_sets([np.array([[1.0], [5.0], [3.0]])])
    np.testing.assert_allclose(InvariantModel([], "max", []).forward(batch2).data, [[5.0]])


def test_singleton_pools_coincide():
    batch = SetBatch.from_sets([np.array([[0.3, -1.2]])])
    outs = [InvariantModel([], pool, []).forward(batch).data for pool in ("sum", "max", "mean")]
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])


def test_invariance_under_permutation_random_models():
    rng = np.random.default_rng(42)
    for _ in range(25):
        width = int(rng.integers(1, 17))
        model = random_invariant_model(rng, width)
        sets = [rng.normal(size=(int(rng.integers(1, 51)), width)) for _ in range(4)]
        batch = SetBatch.from_sets(sets)
        base = model.forward(batch).data
        shuffled, _ = batch.permuted(rng)
        again = model.forward(shuffled).data
        np.testing.assert_allclose(again, base, rtol=1e-6, atol=1e-9)


def test_width_mismatch_raises():
    model = InvariantModel([DenseLayer(np.zeros((3, 2)), np.zeros(2), "relu")], "sum", [])
    batch = SetBatch.from_sets([np.zeros((2, 4))])
    with pytest.raises(ShapeError):
        model.forward(batch)
    with pytest.raises(ShapeError):
        InvariantModel(
            [DenseLayer(np.zeros((3, 2)), np.zeros(2), "relu")],
            "sum",
            [DenseLayer(np.zeros((5, 1)), np.zeros(1), "linear")],
        )


# --- equivariant layers ------------------------------------------------------


def test_scalar_variant_identity_and_sum_broadcast():
    x = Tensor([[1.0], [2.0], [3.0]])
    layer = EquivariantLayer.scalar(1.0, 0.0, 1, pool="sum", nonlinearity="linear")
    np.testing.assert_allclose(layer.forward(x, [0, 3]).data, [[1.0], [2.0], [3.0]])
    layer = EquivariantLayer.scalar(0.0, 1.0, 1, pool="sum", nonlinearity="linear")
    np.testing.assert_allclose(layer.forward(x, [0, 3]).data, [[6.0], [6.0], [6.0]])


def test_maxpool_normalized_hand_example():
    layer = EquivariantLayer("maxpool-normalized", DenseLayer([[1.0]], [0.0], "linear"))
    with Tape() as tape:
        out = layer.forward(Tensor([[1.0], [2.0], [3.0]]), [0, 3]).data
    np.testing.assert_allclose(out, [[-2.0], [-1.0], [0.0]])
    # the pool, the centering and the dense layer are one tape node each
    assert [n.kind for n in tape.nodes if n.kind != "leaf"] == ["segment_max", "segment_center", "dense"]


def test_scalar_layer_matches_materialized_theta():
    rng = np.random.default_rng(3)
    lam, gam = 0.8, -0.45
    layer = EquivariantLayer.scalar(lam, gam, 1, pool="sum", nonlinearity="tanh")
    x = rng.normal(size=(5, 1))
    via_theta = np.tanh(build_theta(lam, gam, 5) @ x)
    np.testing.assert_allclose(layer.forward(Tensor(x), [0, 5]).data, via_theta, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_equivariance_random_stacks(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 7))
    stack = random_equivariant_stack(rng, width)
    M = int(rng.integers(1, 21))
    x = rng.normal(size=(M, width))
    perm = rng.permutation(M)
    base = stack.forward(SetBatch(x, [0, M])).data
    permuted = stack.forward(SetBatch(x[perm], [0, M])).data
    tol = _stack_tolerance(stack)
    np.testing.assert_allclose(permuted, base[perm], rtol=tol, atol=tol)


def test_random_stack_factory_draws_are_pinned():
    """The property battery's 100 stacks come from random_equivariant_stack:
    over seeds 0-199 its JSON and the generator's next draw have a fixed
    sha256, so a rewrite of the factory keeps the battery's draws. Both hold
    only drawn numbers, so the pin does not depend on BLAS."""
    digest = hashlib.sha256()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        digest.update(model_to_json(random_equivariant_stack(rng, 3)).encode())
        digest.update(np.float64(rng.random()).tobytes())
    assert digest.hexdigest() == "06e0c4bbf51a683daa084e05025a6fce194c5b0c6832131839386853406db2d2"


def test_stack_respects_segment_boundaries():
    rng = np.random.default_rng(11)
    stack = random_equivariant_stack(rng, 3)
    sets = [rng.normal(size=(m, 3)) for m in (2, 7, 4)]
    batch = SetBatch.from_sets(sets)
    flat = stack.forward(batch).data
    for i, s in enumerate(sets):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        np.testing.assert_allclose(flat[lo:hi], stack.forward(SetBatch(s, [0, len(s)])).data, rtol=1e-9, atol=1e-9)


def test_equivariant_width_mismatch():
    layer = EquivariantLayer("full-lambda-gamma", DenseLayer(np.zeros((6, 2)), np.zeros(2), "tanh"))
    with pytest.raises(ShapeError):
        layer.forward(Tensor(np.zeros((4, 5))), [0, 4])


_NUMPY_POOLS = {"sum": np.sum, "mean": np.mean, "max": np.max}
_NUMPY_ACTS = {"linear": lambda a: a, "relu": lambda a: np.maximum(a, 0.0), "tanh": np.tanh}


@pytest.mark.parametrize("pool", ["sum", "mean", "max"])
@pytest.mark.parametrize("variant", ["scalar-lambda-gamma", "full-lambda-gamma"])
def test_lambda_gamma_layer_is_pool_augment_dense(variant, pool):
    """A full-lambda-gamma layer and the scalar constructor's record three
    nodes and compute sigma(beta + x Lambda - repeat(pool(x)) Gamma); the
    scalar layer's Lambda and Gamma are lam * I and -gam * I with beta = 0,
    and its output is bit for bit the frozen reference
    dense(segment_augment(x, pool(x)), kron([lam; -gam], I), 0)."""
    rng = np.random.default_rng(8)
    sizes, d = (3, 1, 5), 4
    x = rng.normal(size=(sum(sizes), d))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for act in ("linear", "relu", "tanh"):
        if variant == "scalar-lambda-gamma":
            lam, gam = rng.normal(size=2)
            layer = EquivariantLayer.scalar(lam, gam, d, pool=pool, nonlinearity=act)
            Lambda, Gamma, beta = lam * np.eye(d), -gam * np.eye(d), np.zeros(d)
            frozen = DenseLayer(np.kron([[lam], [-gam]], np.eye(d)), np.zeros(d), act).forward(
                ad.segment_augment(Tensor(x), getattr(ad, f"segment_{pool}")(Tensor(x), offsets), offsets))
            np.testing.assert_array_equal(layer.forward(Tensor(x), offsets).data, frozen.data)
        else:
            Lambda, Gamma, beta = rng.normal(size=(d, 3)), rng.normal(size=(d, 3)), rng.normal(size=3)
            layer = EquivariantLayer(variant, DenseLayer(np.concatenate([Lambda, Gamma]), beta, act), pool)
        with Tape() as tape:
            out = layer.forward(Tensor(x), offsets).data
        assert [n.kind for n in tape.nodes if n.kind != "leaf"] == [f"segment_{pool}", "segment_augment", "dense"]
        pooled = np.concatenate([_NUMPY_POOLS[pool](s, axis=0, keepdims=True)
                                 for s in np.split(x, offsets[1:-1])])
        want = _NUMPY_ACTS[act](beta + x @ Lambda - np.repeat(pooled, sizes, axis=0) @ Gamma)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_stack_widths_must_chain():
    """A stack whose layer widths do not chain is refused when it is built
    or loaded, not when data first reaches it; a scalar layer has a width
    like any other."""
    scalar = lambda width: EquivariantLayer.scalar(1.0, 0.5, width, pool="sum")
    first = EquivariantLayer("maxpool-normalized", DenseLayer(np.zeros((8, 4)), np.zeros(4), "tanh"))
    second = EquivariantLayer("full-lambda-gamma", DenseLayer(np.zeros((6, 1)), np.zeros(1), "tanh"))
    for layers in ([first, second], [first, scalar(4), second], [first, scalar(3)]):
        with pytest.raises(ShapeError, match="widths disagree: 4 -> 3"):
            EquivariantStack(layers)
        with pytest.raises(ShapeError, match="widths disagree: 4 -> 3"):
            model_from_json(json.dumps({"type": "equivariant_stack", "layers": [
                json.loads(model_to_json(EquivariantStack([layer])))["layers"][0] for layer in layers]}))
    fits = EquivariantLayer("full-lambda-gamma", DenseLayer(np.zeros((8, 1)), np.zeros(1), "tanh"))
    assert EquivariantStack([scalar(8), first, scalar(4), fits, scalar(1)]).layers[3] is fits


def test_layer_constructor_validation():
    """A layer refuses an unknown variant and a full-lambda-gamma weight that
    cannot be split into equal Lambda and Gamma halves; its DenseLayer has
    refused a weight that is not a matrix."""
    for variant in ("nonsense", "scalar-lambda-gamma"):
        with pytest.raises(ShapeError, match="unknown variant"):
            EquivariantLayer(variant, DenseLayer(np.eye(2), np.zeros(2), "tanh"))
    with pytest.raises(ShapeError, match="unknown nonlinearity"):
        EquivariantLayer("maxpool-normalized", DenseLayer(np.eye(2), np.zeros(2), "sigmoid"))
    with pytest.raises(ShapeError, match=r"stacked \[Lambda; Gamma\] weight, got 3 rows"):
        EquivariantLayer("full-lambda-gamma", DenseLayer(np.zeros((3, 2)), np.zeros(2), "tanh"))
    for Lambda in (1.0, np.zeros(3), np.zeros((3, 2, 1))):
        with pytest.raises(ShapeError, match=r"dense layer wants W \(in,out\)"):
            EquivariantLayer("maxpool-normalized", DenseLayer(Lambda, np.zeros(2), "tanh"))


@pytest.mark.parametrize("pool, gam, expected", [
    ("mean", -1.0 / 3, [[-2.0], [-1.0], [3.0], [4.0], [-4.0]]),
    ("sum", -1.0, [[-8.0], [-7.0], [-3.0], [4.0], [-4.0]]),
], ids=["mean", "sum"])
def test_maxpool_normalized_centres_by_its_pool(pool, gam, expected):
    """The layer is ``x - pool(x)``: with ``pool="mean"`` Lemma 3's tied
    matrix at lam = 1, gam = -1/M, with ``pool="sum"`` at gam = -1. The pool
    survives a JSON round trip."""
    layer = EquivariantLayer("maxpool-normalized", DenseLayer([[1.0]], [0.0], "linear"), pool)
    x = Tensor([[1.0], [2.0], [6.0], [4.0], [-4.0]])
    with Tape() as tape:
        out = layer.forward(x, [0, 3, 5]).data
    np.testing.assert_allclose(out, expected)
    np.testing.assert_allclose(out[:3], build_theta(1.0, gam, 3) @ x.data[:3])
    assert [n.kind for n in tape.nodes if n.kind != "leaf"] == [f"segment_{pool}", "segment_center", "dense"]
    clone = model_from_json(model_to_json(EquivariantStack([layer])))
    assert clone.layers[0].pool == pool
    assert np.array_equal(clone.forward(SetBatch(x.data, [0, 3, 5])).data, out)


# --- permutation algebra -----------------------------------------------------


def test_build_theta_examples():
    np.testing.assert_array_equal(build_theta(2.0, 3.0, 2), [[5.0, 3.0], [3.0, 5.0]])
    np.testing.assert_array_equal(build_theta(1.0, 0.0, 3), np.eye(3))
    np.testing.assert_array_equal(build_theta(0.0, 1.0, 2), [[1.0, 1.0], [1.0, 1.0]])


def test_commutes_with_all_permutations():
    assert commutes_with_all_permutations(build_theta(2.0, 3.0, 2))
    assert commutes_with_all_permutations(np.eye(4))
    assert not commutes_with_all_permutations(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ShapeError):
        commutes_with_all_permutations(np.eye(9))


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_commutant_dimension_is_two(M):
    assert commutant_dimension(M) == 2


def test_commutant_dimension_range():
    for bad in (1, 7):
        with pytest.raises(ShapeError):
            commutant_dimension(bad)


def test_random_tied_matrices_commute():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = int(rng.integers(1, 7))
        theta = build_theta(float(rng.normal()), float(rng.normal()), M)
        assert commutes_with_all_permutations(theta)


# --- serialization -----------------------------------------------------------


def test_invariant_model_json_roundtrip_bit_exact():
    rng = np.random.default_rng(19)
    model = random_invariant_model(rng, 5, out_width=2)
    text = model_to_json(model)
    clone = model_from_json(text)
    assert model_to_json(clone) == text
    for a, b in zip(model.params(), clone.params()):
        assert np.array_equal(a.data, b.data)
    batch = SetBatch.from_sets([rng.normal(size=(4, 5))])
    np.testing.assert_array_equal(
        model.forward(batch).data, clone.forward(batch).data
    )


def test_equivariant_stack_json_roundtrip_bit_exact():
    rng = np.random.default_rng(23)
    stack = random_equivariant_stack(rng, 4)
    text = model_to_json(stack)
    clone = model_from_json(text)
    assert model_to_json(clone) == text
    x = rng.normal(size=(6, 4))
    batch = SetBatch(x, [0, 6])
    np.testing.assert_array_equal(stack.forward(batch).data, clone.forward(batch).data)


def test_json_is_single_document_with_descriptor():
    rng = np.random.default_rng(2)
    doc = json.loads(model_to_json(random_invariant_model(rng, 3)))
    assert doc["type"] == "invariant"
    assert set(doc) == {"type", "pool", "phi", "rho"}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_json_refuses_a_non_finite_weight(bad):
    """JSON has no Infinity or NaN and the loader refuses them, so a model
    with such a weight is not written."""
    model = random_invariant_model(np.random.default_rng(3), 3)
    model.rho[-1].W.data[0, 0] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        model_to_json(model)


# Golden bytes: repr floats and a fixed key order, so no BLAS or libm is
# involved.
_GOLDEN_INVARIANT = (
    '{"type": "invariant", "pool": "mean", '
    '"phi": [{"W": [[0.5, -1.0]], "b": [0.25, 0.0], "nonlinearity": "relu"}], '
    '"rho": [{"W": [[2.0], [0.1]], "b": [-0.5], "nonlinearity": "linear"}]}'
)
_GOLDEN_STACK = (
    '{"type": "equivariant_stack", "layers": ['
    '{"variant": "full-lambda-gamma", "pool": "sum", "nonlinearity": "linear", '
    '"Lambda": [[0.5]], "beta": [0.0], "Gamma": [[0.25]]}, '
    '{"variant": "full-lambda-gamma", "pool": "mean", "nonlinearity": "relu", '
    '"Lambda": [[1.0, 0.5]], "beta": [0.1, 0.0], "Gamma": [[0.0, -2.0]]}, '
    '{"variant": "maxpool-normalized", "pool": "max", "nonlinearity": "tanh", '
    '"Lambda": [[0.75], [1.5]], "beta": [-1.0]}]}'
)


def _conditioned(mode: str, width: int, text: str = _GOLDEN_INVARIANT) -> str:
    """``text`` with the condition keys older invariant-model files carry."""
    return text.replace('"pool": "mean", ', f'"pool": "mean", "condition_mode": "{mode}", "condition_width": {width}, ')


def test_model_json_golden_bytes():
    model = InvariantModel([DenseLayer([[0.5, -1.0]], [0.25, 0.0], "relu")], "mean",
                           [DenseLayer([[2.0], [0.1]], [-0.5], "linear")])
    stack = EquivariantStack([
        EquivariantLayer.scalar(0.5, -0.25, 1, pool="sum", nonlinearity="linear"),
        EquivariantLayer("full-lambda-gamma", DenseLayer([[1.0, 0.5], [0.0, -2.0]], [0.1, 0.0], "relu"), "mean"),
        EquivariantLayer("maxpool-normalized", DenseLayer([[0.75], [1.5]], [-1.0], "tanh")),
    ])
    for built, golden in ((model, _GOLDEN_INVARIANT), (stack, _GOLDEN_STACK)):
        assert model_to_json(built) == golden
        assert model_to_json(model_from_json(golden)) == golden
    # older files carry two constant condition keys; they load and save
    # without them
    assert model_to_json(model_from_json(_conditioned("none", 0))) == _GOLDEN_INVARIANT


def _edited(text: str, path: tuple, value) -> str:
    doc = json.loads(text)
    reduce(getitem, path[:-1], doc)[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ("[]", "must be JSON objects"),
    ('"invariant"', "must be JSON objects"),
    ("{}", "no 'type'"),
    ('{"type": "pooled"}', "unknown model type"),
    (_edited(_GOLDEN_INVARIANT, ("phi",), 5), "'phi' must be a list"),
    (_edited(_GOLDEN_INVARIANT, ("rho",), {"W": []}), "'rho' must be a list"),
    (_edited(_GOLDEN_INVARIANT, ("phi", 0), [[0.5, -1.0]]), "must be JSON objects"),
    (_edited(_GOLDEN_INVARIANT, ("pool",), ["sum"]), "'pool' must be a str"),
    (_edited(_GOLDEN_INVARIANT, ("phi", 0, "W"), {"a": 1}), "'W' is not numeric"),
    (_edited(_GOLDEN_INVARIANT, ("phi", 0, "W"), [0.5, -1.0]), "'W' must be a finite rank-2"),
    (_edited(_GOLDEN_INVARIANT, ("phi", 0, "b"), [float("nan"), 0.0]), "'b' must be a finite"),
    (_edited(_GOLDEN_INVARIANT, ("phi", 0, "b"), [10 ** 400, 0.0]), "'b' is not numeric"),
    (_edited(_GOLDEN_INVARIANT, ("phi", 0, "nonlinearity"), ["relu"]), "'nonlinearity' must be a str"),
    # a per-set condition concatenated after the pool widens rho's input
    (_conditioned("concat-after-pool", 2, _edited(_GOLDEN_INVARIANT, ("rho", 0, "W"), [[2.0], [0.1], [1.0], [1.0]])),
     "layer widths disagree: 2 -> 4"),
    (_conditioned("concat-after-pool", 1, _edited(_GOLDEN_INVARIANT, ("rho", 0, "W"), [[2.0], [0.1], [1.0]])),
     "layer widths disagree: 2 -> 3"),
    (_edited(_GOLDEN_STACK, ("layers",), 5), "'layers' must be a list"),
    (_edited(_GOLDEN_STACK, ("layers", 1), "full"), "must be JSON objects"),
    # the scalar variant, retired for the scalar constructor, is not read
    (_edited(_GOLDEN_STACK, ("layers", 0), {"variant": "scalar-lambda-gamma", "pool": "sum",
                                            "nonlinearity": "linear", "lam": 0.5, "gam": -0.25}),
     "'scalar-lambda-gamma' is not read; write the layer as 'full-lambda-gamma' with Lambda = lam\\*I"),
    (_edited(_GOLDEN_STACK, ("layers", 1, "Gamma"), "x"), "could not convert"),
    (_edited(_GOLDEN_STACK, ("layers", 1, "Gamma"), [[0.0, -2.0], [1.0, 1.0]]),
     r"Gamma's shape \(2, 2\) differs from Lambda's \(1, 2\)"),
    (_edited(_GOLDEN_STACK, ("layers", 2, "variant"), 3), "'variant' must be a str"),
    (_edited(_GOLDEN_STACK, ("layers", 2, "pool"), "median"), "pool must be one of"),
    ("[" * 100000 + "]" * 100000, "nested too deeply"),
], ids=["list", "string", "no-type", "unknown-type", "phi-number", "rho-object", "layer-list", "pool-list",
        "W-object", "W-vector", "b-nan", "b-huge", "nonlinearity-list", "condition-mode", "condition-width",
        "layers-number", "layer-string", "scalar-variant", "Gamma-string", "Gamma-shape", "variant-number", "maxpool-pool",
        "nested-too-deep"])
def test_model_from_json_rejects_malformed_documents(text, message):
    with pytest.raises(ValueError, match=message):
        model_from_json(text)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


_DELETE = object()
_leaf = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from(["invariant", "equivariant_stack", "none", "sum", "max", "relu", "linear",
                                   "scalar-lambda-gamma", "full-lambda-gamma", "maxpool-normalized"]))
_value = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(["type", "W", "b", "lam", "Lambda", "beta"]), inner,
                                        max_size=3), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_model_from_json_fuzz_loads_a_model_or_raises_value_error(data):
    """Edit a valid model document at random places: loading gives a model
    that saves back stably, or a ValueError (ShapeError included)."""
    doc = json.loads(data.draw(st.sampled_from([_GOLDEN_INVARIANT, _GOLDEN_STACK])))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(_value | st.just(_DELETE))
        if not path:
            doc = None if value is _DELETE else value
        elif value is _DELETE:
            del reduce(getitem, path[:-1], doc)[path[-1]]
        else:
            reduce(getitem, path[:-1], doc)[path[-1]] = value
    try:
        model = model_from_json(json.dumps(doc))
    except ValueError:
        return
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text


@pytest.mark.parametrize("act", ["linear", "tanh"])
@pytest.mark.parametrize("pool", ["sum", "mean", "max"])
@pytest.mark.parametrize("variant", ["scalar-lambda-gamma", "full-lambda-gamma"])
def test_lambda_gamma_gradients_match_central_differences(variant, pool, act):
    """A lambda-gamma layer reads x twice, through the pool and through
    segment_augment; backprop must add both paths into x's gradient."""
    rng = np.random.default_rng(12)
    sizes, d = (3, 1, 5), 4
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    # distinct entries at least 0.02 apart keep each maximum under a 1e-6 step
    x = Tensor(rng.permutation(sum(sizes) * d).reshape(-1, d) * 0.02 - 0.3)
    if variant == "scalar-lambda-gamma":
        layer = EquivariantLayer.scalar(0.7, -0.4, d, pool=pool, nonlinearity=act)
    else:
        # one (2d, 3) draw is the (d, 3) Lambda draw followed by the Gamma draw
        layer = EquivariantLayer(variant, DenseLayer(rng.normal(scale=0.5, size=(2 * d, 3)),
                                                     rng.normal(scale=0.1, size=3), act), pool)
    target = Tensor(rng.normal(size=(sum(sizes), layer.out_width)))
    err = grad_check(lambda ps: ad.mse_loss(layer.forward(x, offsets), target), [x, *layer.params()],
                     step=1e-6, seed=0)
    assert err <= 1e-6, f"relative gradient error {err:.3e}"
