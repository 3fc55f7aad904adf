import json

import numpy as np
import pytest

from setnn.autodiff import ShapeError, Tensor
from setnn.layers import (
    DenseLayer,
    EquivariantLayer,
    EquivariantStack,
    InvariantModel,
    SetBatch,
    build_theta,
    commutant_dimension,
    commutes_with_all_permutations,
    equivariant_forward,
    invariant_forward,
    model_from_json,
    model_to_json,
    random_equivariant_stack,
    random_invariant_model,
)


def test_setbatch_validation():
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [0, 2, 2, 4])  # empty middle set
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [0, 3])
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [1, 4])
    with pytest.raises(ShapeError):
        SetBatch(np.zeros((4, 2)), [0, 2, 4], condition=np.zeros((3, 1)))


def test_setbatch_accessors():
    b = SetBatch.from_sets([np.ones((2, 3)), np.zeros((5, 3))])
    assert b.num_sets == 2
    assert b.width == 3
    np.testing.assert_array_equal(b.sizes(), [2, 5])
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
    cond = rng.normal(size=(7, 2))
    batch = SetBatch.from_sets(sets, condition=cond)
    picked = [5, 0, 5, 3]
    gathered = batch.gather(picked)
    expected = SetBatch.from_sets([sets[i] for i in picked], condition=cond[picked])
    np.testing.assert_array_equal(gathered.elements, expected.elements)
    np.testing.assert_array_equal(gathered.offsets, expected.offsets)
    np.testing.assert_array_equal(gathered.condition, expected.condition)
    assert not np.shares_memory(gathered.elements, batch.elements)

    part = batch.slice(2, 6)
    expected = SetBatch.from_sets(sets[2:6], condition=cond[2:6])
    np.testing.assert_array_equal(part.elements, expected.elements)
    np.testing.assert_array_equal(part.offsets, expected.offsets)
    np.testing.assert_array_equal(part.condition, expected.condition)
    assert np.shares_memory(part.elements, batch.elements)
    for lo, hi in ((3, 3), (-1, 2), (0, 8)):
        with pytest.raises(ShapeError):
            batch.slice(lo, hi)


def test_identity_model_pure_sum_and_max():
    batch = SetBatch.from_sets([np.array([[1.0], [2.0], [3.0]])])
    model = InvariantModel([], "sum", [])
    np.testing.assert_allclose(invariant_forward(model, batch).data, [[6.0]])
    batch2 = SetBatch.from_sets([np.array([[1.0], [5.0], [3.0]])])
    np.testing.assert_allclose(invariant_forward(InvariantModel([], "max", []), batch2).data, [[5.0]])


def test_singleton_pools_coincide():
    batch = SetBatch.from_sets([np.array([[0.3, -1.2]])])
    outs = [invariant_forward(InvariantModel([], pool, []), batch).data for pool in ("sum", "max", "mean")]
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])


def test_invariance_under_permutation_random_models():
    rng = np.random.default_rng(42)
    for _ in range(25):
        width = int(rng.integers(1, 17))
        model = random_invariant_model(rng, width)
        sets = [rng.normal(size=(int(rng.integers(1, 51)), width)) for _ in range(4)]
        batch = SetBatch.from_sets(sets)
        base = invariant_forward(model, batch).data
        shuffled, _ = batch.permuted(rng)
        again = invariant_forward(model, shuffled).data
        np.testing.assert_allclose(again, base, rtol=1e-6, atol=1e-9)


def test_conditioning_is_held_fixed_under_permutation():
    rng = np.random.default_rng(7)
    model = random_invariant_model(rng, 4, with_condition=True, condition_width=3)
    cond = rng.normal(size=(3, 3))
    batch = SetBatch.from_sets([rng.normal(size=(m, 4)) for m in (2, 9, 30)], condition=cond)
    base = invariant_forward(model, batch).data
    shuffled, _ = batch.permuted(rng)
    np.testing.assert_allclose(invariant_forward(model, shuffled).data, base, rtol=1e-6, atol=1e-9)
    # a different condition must generally change the output
    other = SetBatch(batch.elements, batch.offsets, condition=cond + 1.0)
    assert not np.allclose(invariant_forward(model, other).data, base)


def test_condition_mode_mismatches_raise():
    rng = np.random.default_rng(0)
    model = random_invariant_model(rng, 2, with_condition=True, condition_width=2)
    plain = SetBatch.from_sets([np.zeros((3, 2))])
    with pytest.raises(ShapeError):
        invariant_forward(model, plain)


def test_width_mismatch_raises():
    model = InvariantModel([DenseLayer(np.zeros((3, 2)), np.zeros(2), "relu")], "sum", [])
    batch = SetBatch.from_sets([np.zeros((2, 4))])
    with pytest.raises(ShapeError):
        invariant_forward(model, batch)
    with pytest.raises(ShapeError):
        InvariantModel(
            [DenseLayer(np.zeros((3, 2)), np.zeros(2), "relu")],
            "sum",
            [DenseLayer(np.zeros((5, 1)), np.zeros(1), "linear")],
        )


# --- equivariant layers ------------------------------------------------------


def test_scalar_variant_identity_and_sum_broadcast():
    layer = EquivariantLayer("scalar-lambda-gamma", lam=1.0, gam=0.0, pool="sum", nonlinearity="linear")
    np.testing.assert_allclose(equivariant_forward(layer, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    layer = EquivariantLayer("scalar-lambda-gamma", lam=0.0, gam=1.0, pool="sum", nonlinearity="linear")
    np.testing.assert_allclose(equivariant_forward(layer, [1.0, 2.0, 3.0]), [6.0, 6.0, 6.0])


def test_maxpool_normalized_hand_example():
    layer = EquivariantLayer("maxpool-normalized", Lambda=[[1.0]], beta=[0.0], nonlinearity="linear")
    np.testing.assert_allclose(equivariant_forward(layer, [1.0, 2.0, 3.0]), [-2.0, -1.0, 0.0])


def test_scalar_layer_matches_materialized_theta():
    rng = np.random.default_rng(3)
    lam, gam = 0.8, -0.45
    layer = EquivariantLayer("scalar-lambda-gamma", lam=lam, gam=gam, pool="sum", nonlinearity="tanh")
    x = rng.normal(size=(5, 1))
    via_theta = np.tanh(layer.theta(5) @ x)
    np.testing.assert_allclose(equivariant_forward(layer, x), via_theta, rtol=1e-12, atol=1e-12)


def _stack_tol(stack) -> float:
    layers = stack.layers if isinstance(stack, EquivariantStack) else [stack]
    soft = any(
        l.pool in ("sum", "mean") and l.variant != "maxpool-normalized"
        for l in layers
    )
    return 1e-9 if soft else 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_equivariance_random_stacks(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 7))
    stack = random_equivariant_stack(rng, width)
    M = int(rng.integers(1, 21))
    x = rng.normal(size=(M, width))
    perm = rng.permutation(M)
    base = equivariant_forward(stack, x)
    permuted = equivariant_forward(stack, x[perm])
    tol = _stack_tol(stack)
    np.testing.assert_allclose(permuted, base[perm], rtol=tol, atol=tol)


def test_stack_respects_segment_boundaries():
    rng = np.random.default_rng(11)
    stack = random_equivariant_stack(rng, 3)
    sets = [rng.normal(size=(m, 3)) for m in (2, 7, 4)]
    batch = SetBatch.from_sets(sets)
    flat = stack.forward_batch(batch).data
    for i, s in enumerate(sets):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        np.testing.assert_allclose(flat[lo:hi], equivariant_forward(stack, s), rtol=1e-9, atol=1e-9)


def test_equivariant_width_mismatch():
    layer = EquivariantLayer("full-lambda-gamma", Lambda=np.zeros((3, 2)), Gamma=np.zeros((3, 2)), beta=np.zeros(2))
    with pytest.raises(ShapeError):
        equivariant_forward(layer, np.zeros((4, 5)))


def test_layer_constructor_validation():
    with pytest.raises(ShapeError):
        EquivariantLayer("nonsense", lam=1.0, gam=1.0)
    with pytest.raises(ShapeError):
        EquivariantLayer("scalar-lambda-gamma", lam=1.0)
    with pytest.raises(ShapeError):
        EquivariantLayer("full-lambda-gamma", Lambda=np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        EquivariantLayer("full-lambda-gamma", Lambda=np.zeros((3, 2)), Gamma=np.zeros((2, 2)))


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
        invariant_forward(model, batch).data, invariant_forward(clone, batch).data
    )


def test_equivariant_stack_json_roundtrip_bit_exact():
    rng = np.random.default_rng(23)
    stack = random_equivariant_stack(rng, 4)
    text = model_to_json(stack)
    clone = model_from_json(text)
    assert model_to_json(clone) == text
    x = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(equivariant_forward(stack, x), equivariant_forward(clone, x))


def test_json_is_single_document_with_descriptor():
    rng = np.random.default_rng(2)
    doc = json.loads(model_to_json(random_invariant_model(rng, 3)))
    assert doc["type"] == "invariant"
    assert {"pool", "phi", "rho", "condition_mode"} <= set(doc)
