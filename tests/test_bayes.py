import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn.bayes import (
    BayesSetError,
    BetaBinomialModel,
    as_binary_matrix,
    expand,
    log_marginal_likelihood,
    score_item,
    score_item_oracle,
    score_set,
    score_set_telescoped,
)


def test_model_validation():
    with pytest.raises(BayesSetError):
        BetaBinomialModel([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(BayesSetError):
        BetaBinomialModel([1.0], [1.0, 1.0])
    with pytest.raises(BayesSetError, match="non-empty"):
        BetaBinomialModel.uniform(0)
    for bad in (np.nan, np.inf):
        with pytest.raises(BayesSetError):
            BetaBinomialModel([1.0, bad], [1.0, 1.0])
        with pytest.raises(BayesSetError):
            BetaBinomialModel([1.0, 1.0], [bad, 1.0])
    m = BetaBinomialModel.uniform(3)
    np.testing.assert_array_equal(m.beta, [2.0, 2.0, 2.0])


def test_binary_matrix_validation():
    with pytest.raises(BayesSetError):
        as_binary_matrix([[0, 2]], 2)
    with pytest.raises(BayesSetError):
        as_binary_matrix([[0, 1, 1]], 2)
    assert as_binary_matrix([], 4).shape == (0, 4)


@pytest.mark.parametrize("items", [
    [[0.5, 1]],
    np.array([[0.7, 1.9]]),
    [[0, float("nan")]],
    [[0, 1], [0, 1, 1], [1, 0]],
    [[0, 1], [1]],
], ids=["half", "fractional-array", "nan", "ragged-long", "ragged-short"])
def test_binary_matrix_rejects_non_bits_and_ragged_rows(items):
    # a fractional bit must not be truncated to 0 by the integer cast
    with pytest.raises(BayesSetError):
        as_binary_matrix(items, 2)


def test_binary_matrix_accepts_exact_bits_of_any_dtype():
    want = np.array([[0, 1], [1, 0]], dtype=np.int64)
    for items in ([[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], np.array([[False, True], [True, False]])):
        got = as_binary_matrix(items, 2)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_score_item_empty_query_is_zero():
    m = BetaBinomialModel.uniform(5)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 5)
    assert score_item(m, [], x) == pytest.approx(0.0, abs=1e-12)


def test_score_item_hand_value():
    # d=1, uniform prior, X = {1, 1}, x = 1:
    # log((1+2)/(2+2)) - log(1/2) = log(3/2)
    m = BetaBinomialModel.uniform(1)
    s = score_item(m, [[1], [1]], [1])
    assert s == pytest.approx(math.log(1.5), abs=1e-12)


def test_score_set_hand_value():
    m = BetaBinomialModel.uniform(1)
    s = score_set(m, [[1], [1]])
    assert s == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)


def test_score_set_singleton_is_zero():
    m = BetaBinomialModel.uniform(4)
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, 4)
    assert score_set(m, [x]) == pytest.approx(0.0, abs=1e-12)


def test_dimension_mismatch():
    m = BetaBinomialModel.uniform(3)
    with pytest.raises(BayesSetError):
        score_item(m, [[0, 1]], [0, 1, 1])


def _random_model_and_sets(rng, d=None, n=None):
    d = d or int(rng.integers(1, 9))
    n = n if n is not None else int(rng.integers(0, 7))
    model = BetaBinomialModel(rng.uniform(0.2, 5.0, d), rng.uniform(0.2, 5.0, d))
    X = rng.integers(0, 2, (n, d))
    x = rng.integers(0, 2, d)
    return model, X, x


def test_count_form_matches_lgamma_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        model, X, x = _random_model_and_sets(rng)
        fast = score_item(model, X, x)
        slow = score_item_oracle(model, X, x)
        assert abs(fast - slow) <= 1e-9, (fast, slow)


def test_score_set_matches_telescoped_sum():
    rng = np.random.default_rng(29)
    for _ in range(200):
        model, X, _ = _random_model_and_sets(rng)
        if X.shape[0] == 0:
            continue
        assert abs(score_set(model, X) - score_set_telescoped(model, X)) <= 1e-9


def test_scores_permutation_invariant():
    rng = np.random.default_rng(5)
    model, X, x = _random_model_and_sets(rng, d=6, n=9)
    perm = rng.permutation(9)
    assert score_item(model, X, x) == score_item(model, X[perm], x)
    assert score_set(model, X) == score_set(model, X[perm])


def test_monotonicity_of_agreement():
    """Adding another copy of an item to a pure set never lowers the score of
    a further identical candidate."""
    m = BetaBinomialModel.uniform(4)
    item = np.array([1, 0, 1, 1])
    prev = score_item(m, [], item)
    X = []
    for _ in range(6):
        X.append(item)
        cur = score_item(m, X, item)
        assert cur >= prev
        prev = cur


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_oracle_identity_property(d, n, seed):
    rng = np.random.default_rng(seed)
    model = BetaBinomialModel(rng.uniform(0.3, 4.0, d), rng.uniform(0.3, 4.0, d))
    X = rng.integers(0, 2, (n, d))
    x = rng.integers(0, 2, d)
    assert abs(score_item(model, X, x) - score_item_oracle(model, X, x)) <= 1e-9


def _stirling_lgamma(x: float) -> float:
    """Independent log-Gamma for x >= 100: Stirling series with four
    Bernoulli correction terms (truncation below 1e-19 relative there)."""
    return (
        (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi)
        + 1.0 / (12.0 * x) - 1.0 / (360.0 * x**3) + 1.0 / (1260.0 * x**5) - 1.0 / (1680.0 * x**7)
    )


def test_lgamma_accuracy_on_the_scoring_range():
    # the oracle leans on libm lgamma; anchor it to exact integer factorials
    # below 171 and to an independent Stirling evaluation above 100
    for n in (1, 2, 5, 20, 100, 170):
        exact = math.log(math.factorial(n - 1))
        assert abs(math.lgamma(n) - exact) <= 1e-12 * max(1.0, abs(exact))
    rng = np.random.default_rng(3)
    for x in rng.uniform(100.0, 1e6, 300):
        ref = _stirling_lgamma(x)
        assert abs(math.lgamma(x) - ref) <= 1e-12 * abs(ref)


def test_expand_ranks_identical_candidate_first():
    m = BetaBinomialModel.uniform(5)
    member = np.array([1, 1, 0, 1, 0])
    X = np.tile(member, (4, 1))
    rng = np.random.default_rng(7)
    others = rng.integers(0, 2, (9, 5))
    candidates = np.concatenate([others[:4], member[None, :], others[4:]], axis=0)
    ranked = expand(m, X, candidates, k=3)
    assert ranked[0][0] == 4
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


def test_expand_full_k_and_stable_ties():
    m = BetaBinomialModel.uniform(2)
    X = [[1, 0]]
    candidates = [[1, 0], [1, 0], [0, 1]]
    ranked = expand(m, X, candidates, k=3)
    assert len(ranked) == 3
    assert [i for i, _ in ranked[:2]] == [0, 1]  # equal scores keep input order


def test_expand_same_bits_as_per_candidate_scores():
    """expand scores the pool in one pass; every score must equal score_item's
    bit for bit and the order must be a stable descending sort of them."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        d = int(rng.integers(1, 251))
        n = int(rng.integers(1, 3001))
        model = BetaBinomialModel(rng.uniform(0.1, 5.0, d), rng.uniform(0.1, 5.0, d))
        X = rng.integers(0, 2, (0 if trial == 0 else int(rng.integers(1, 30)), d))
        C = rng.integers(0, 2, (n, d))
        dup = rng.random(n) < 0.2
        C[dup] = C[rng.integers(0, n, n)[dup]]
        ranked = expand(model, X, C, k=n)
        ref = [score_item(model, X, c) for c in C]
        assert ranked == [(i, ref[i]) for i in sorted(range(n), key=lambda i: -ref[i])]
        top = expand(model, X, C, k=max(1, n // 3))
        assert top == ranked[: len(top)]


def test_expand_validation():
    m = BetaBinomialModel.uniform(2)
    with pytest.raises(BayesSetError):
        expand(m, [[1, 0]], [], k=1)
    with pytest.raises(BayesSetError):
        expand(m, [[1, 0]], [[1, 0]], k=2)
