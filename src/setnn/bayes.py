"""Beta-Binomial set scorer: rank candidates by coherence with a query set.

Each item is a d-dimensional bit vector. Per coordinate, a Beta(beta_plus,
beta_minus) prior over the unknown Bernoulli rate yields a closed-form
marginal likelihood for any collection of bits. The score of a candidate x
against a query set X is the pointwise mutual information

    s(x | X) = log p(X and x jointly) - log p(X) - log p(x),

which reduces to a per-coordinate expression in the bit counts of X. Two
independent routes compute it here: the fast count form used for ranking, and
the log-Gamma marginal-likelihood form used as an oracle; the test suite holds
them to 1e-9 agreement. `score_set` measures the internal coherence of a set
the same way and telescopes into per-item scores.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BayesSetError",
    "BetaBinomialModel",
    "as_binary_matrix",
    "score_item",
    "score_item_oracle",
    "log_marginal_likelihood",
    "score_set",
    "score_set_telescoped",
    "expand",
]


class BayesSetError(ValueError):
    pass


class BetaBinomialModel:
    """Per-coordinate positive pseudo-counts for bits 1 (plus) and 0 (minus)."""

    def __init__(self, beta_plus, beta_minus):
        bp = np.asarray(beta_plus, dtype=np.float64)
        bm = np.asarray(beta_minus, dtype=np.float64)
        if bp.ndim != 1 or bp.shape != bm.shape or bp.size == 0:
            raise BayesSetError(f"prior vectors must be equal-length, non-empty 1-D, got {bp.shape} and {bm.shape}")
        if not (np.all((bp > 0) & np.isfinite(bp)) and np.all((bm > 0) & np.isfinite(bm))):
            raise BayesSetError("pseudo-counts must be finite and strictly positive")
        self.beta_plus = bp
        self.beta_minus = bm

    @classmethod
    def uniform(cls, d: int) -> "BetaBinomialModel":
        """The default prior: one pseudo-observation of each outcome."""
        return cls(np.ones(d), np.ones(d))

    @property
    def d(self) -> int:
        return self.beta_plus.size

    @property
    def beta(self) -> np.ndarray:
        return self.beta_plus + self.beta_minus


def as_binary_matrix(items, d: int) -> np.ndarray:
    """Validate and stack items into an (n, d) 0/1 integer matrix.

    Entries must equal 0 or 1 exactly (bools and 0.0/1.0 floats qualify); the
    test runs on the values as given, before the integer cast, so a fractional
    or NaN bit is rejected rather than truncated.
    """
    if len(items) == 0:
        return np.zeros((0, d), dtype=np.int64)
    try:
        mat = np.asarray(items)
    except ValueError as exc:  # ragged rows
        raise BayesSetError(f"items must be vectors of width {d}: {exc}") from exc
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise BayesSetError(f"items must be vectors of width {d}, got shape {mat.shape}")
    if mat.shape[1] != d:
        raise BayesSetError(f"items must be vectors of width {d}, got width {mat.shape[1]}")
    if not ((mat == 0) | (mat == 1)).all():
        raise BayesSetError("item entries must be 0 or 1")
    return mat.astype(np.int64, copy=False)


def _counts(X: np.ndarray) -> tuple[int, np.ndarray]:
    return X.shape[0], X.sum(axis=0)


def _item_scores(model: BetaBinomialModel, Xm: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Count-form scores of every row of the validated (n, d) matrix `cand`
    against the validated query matrix `Xm`, in one pass.

    Per coordinate the score is log((beta_plus + M_plus) / (beta + M)) minus
    the prior log-rate log(beta_plus / beta) when the candidate bit is 1, and
    the mirrored expression in beta_minus/M_minus when it is 0. Each row is
    summed along the contiguous last axis, which numpy sums exactly as it sums
    a lone 1-D row, so a candidate's score does not depend on the pool around it.
    """
    M, m_plus = _counts(Xm)
    beta = model.beta
    m_minus = M - m_plus
    on = np.log(model.beta_plus + m_plus) - np.log(beta + M) - np.log(model.beta_plus) + np.log(beta)
    off = np.log(model.beta_minus + m_minus) - np.log(beta + M) - np.log(model.beta_minus) + np.log(beta)
    return np.where(cand == 1, on, off).sum(axis=1)


def score_item(model: BetaBinomialModel, X, x) -> float:
    """Count-form candidate score; zero against an empty query set."""
    Xm = as_binary_matrix(X, model.d)
    xv = as_binary_matrix([x], model.d)
    return float(_item_scores(model, Xm, xv)[0])


def log_marginal_likelihood(model: BetaBinomialModel, X) -> float:
    """log p(X) under the per-coordinate Beta-Bernoulli marginal."""
    Xm = as_binary_matrix(X, model.d)
    M, m_plus = _counts(Xm)
    m_minus = M - m_plus
    lg = np.vectorize(math.lgamma)
    total = (
        lg(model.beta_plus + m_plus) - lg(model.beta_plus)
        + lg(model.beta_minus + m_minus) - lg(model.beta_minus)
        + lg(model.beta) - lg(model.beta + M)
    )
    return float(total.sum())


def score_item_oracle(model: BetaBinomialModel, X, x) -> float:
    """The same score via three marginal likelihoods; slow but assumption-free."""
    Xm = as_binary_matrix(X, model.d)
    xv = as_binary_matrix([x], model.d)
    joint = np.concatenate([Xm, xv], axis=0)
    return (
        log_marginal_likelihood(model, joint)
        - log_marginal_likelihood(model, Xm)
        - log_marginal_likelihood(model, xv)
    )


def score_set(model: BetaBinomialModel, X) -> float:
    """Coherence of a non-empty set: log p(X) minus the sum of per-item
    log-marginals. Depends on X only through its bit counts, so it is exactly
    permutation-invariant."""
    Xm = as_binary_matrix(X, model.d)
    if Xm.shape[0] == 0:
        raise BayesSetError("score_set needs a non-empty set")
    M, m_plus = _counts(Xm)
    m_minus = M - m_plus
    singles = m_plus * np.log(model.beta_plus / model.beta) + m_minus * np.log(model.beta_minus / model.beta)
    return log_marginal_likelihood(model, Xm) - float(singles.sum())


def score_set_telescoped(model: BetaBinomialModel, X) -> float:
    """score_set rebuilt as sum_m s(x_m | {x_1..x_{m-1}}) from the count form;
    an independent route used to cross-check score_set."""
    Xm = as_binary_matrix(X, model.d)
    if Xm.shape[0] == 0:
        raise BayesSetError("score_set needs a non-empty set")
    return sum(score_item(model, Xm[:m], Xm[m]) for m in range(Xm.shape[0]))


def expand(model: BetaBinomialModel, X, candidates, k: int) -> list[tuple[int, float]]:
    """Top-k candidate indices with scores, best first; ties keep input order."""
    cand = as_binary_matrix(candidates, model.d)
    n = cand.shape[0]
    if n == 0:
        raise BayesSetError("candidate pool is empty")
    if not 1 <= k <= n:
        raise BayesSetError(f"k must lie in 1..{n}, got {k}")
    scores = _item_scores(model, as_binary_matrix(X, model.d), cand)
    order = np.argsort(-scores, kind="stable")[:k]  # stable: ties keep input order
    return list(zip(order.tolist(), scores[order].tolist()))
