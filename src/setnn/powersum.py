"""Sum-of-powers set embeddings, their inversion, and exact worked examples.

`embed` maps a sorted sample ``x_1 <= ... <= x_M`` in [0,1] to the vector of
power sums ``Z_q = sum_m y_m^q`` of its centered values ``y_m = 2 x_m - 1``
for ``q = 0..M``. These are a triangular linear map of the power sums of the
x_m themselves, so the embedding is injective for the same reason, but their
Vandermonde system on [-1,1] is far better conditioned than on [0,1]. It is
the only embedding offered, since `invert` reads every power-sum vector as
one of centered values. The embedding is invertible: Newton-Girard
recurrences turn power sums into elementary symmetric polynomials, i.e. the
coefficients of the monic polynomial whose roots are the y_m, and the
eigenvalues of its companion matrix recover them: one ``np.linalg.eigvals``
call on the matrix ``np.roots`` would build, with the same roots in the same
order. This gives a constructive sum-decomposition of any continuous
symmetric function of a fixed-size set, checked here by round-trip rather
than assumed.

`countable_encode` is the companion construction for finite universes: each
subset maps to a distinct base-4 fraction, exactly representable in float64
for small code values.

`closed_form_eval` evaluates a handful of symmetric functions written
explicitly in the sum-decomposed form (mean, smooth max, smooth second
largest, and two polynomial identities) so they can be compared against direct
computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerSumError",
    "RootConvergenceError",
    "SortedSample",
    "PowerSumVector",
    "countable_encode",
    "embed",
    "newton_girard",
    "poly_roots",
    "invert",
    "closed_form_eval",
    "closed_form_reference",
    "MAX_SET_SIZE",
]

# Beyond this size the power-sum system is too ill-conditioned for float64
# round-trips, so the cap is part of the contract rather than a soft limit:
# embed takes no more values. Share of 1000 sorted uniform samples per M (one
# default_rng(0) drawn for M = 1..16 in turn) whose round trip misses 1e-6 or
# raises: none for M <= 7, 0.1% at M = 8, none at M = 9, at most 0.1% for
# M = 10..12, 0.6% at 13, 0.8% at 14, 2.2% at 15, 3.7% at 16.
MAX_SET_SIZE = 16

# Largest code value for which sums of distinct 4**-c are exact in binary64:
# the bits live at positions 0..2c of the significand, and 2*26 == 52.
_MAX_CODE = 26
_MAX_UNIVERSE = 20

_CLIP_SLACK = 1e-9  # roots may land this far outside [0,1] from rounding


class PowerSumError(ValueError):
    pass


class RootConvergenceError(PowerSumError):
    pass


# eq=False: compared and hashed by identity, since a generated == over an
# array field has no single truth value (PowerSumVector likewise)
@dataclass(frozen=True, eq=False)
class SortedSample:
    """Non-decreasing values in [0,1]."""

    values: np.ndarray

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise PowerSumError(f"sample must be a non-empty vector, got shape {arr.shape}")
        if np.any(arr[1:] < arr[:-1]):  # False at a NaN, as is every comparison with one
            raise PowerSumError("sample must be sorted non-decreasing")
        if np.isnan(arr).any():
            raise PowerSumError("sample must lie in [0,1], got NaN")
        if arr[0] < 0.0 or arr[-1] > 1.0:
            raise PowerSumError(f"sample must lie in [0,1], got range [{arr[0]}, {arr[-1]}]")
        object.__setattr__(self, "values", np.ascontiguousarray(arr))

    @classmethod
    def from_values(cls, values) -> "SortedSample":
        arr = np.asarray(values, dtype=np.float64)
        return cls(np.sort(arr) if arr.ndim == 1 else arr)  # the constructor refuses other ranks

    @property
    def M(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class PowerSumVector:
    """Z[q] = sum of q-th powers, q = 0..M; Z[0] is the set size exactly."""

    Z: np.ndarray

    def __init__(self, Z):
        arr = np.asarray(Z, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise PowerSumError(f"need Z_0..Z_M with M >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise PowerSumError("power sums must be finite")
        if arr[0] != round(arr[0]) or arr[0] < 1:
            raise PowerSumError(f"Z_0 must be a positive integer set size, got {arr[0]}")
        if arr[0] != arr.size - 1:
            raise PowerSumError(f"Z_0 = {arr[0]} inconsistent with {arr.size - 1} moments")
        object.__setattr__(self, "Z", np.ascontiguousarray(arr))

    @property
    def M(self) -> int:
        return int(self.Z[0])


def countable_encode(items, code: dict) -> float:
    """Sum of 4**-code[x] over the distinct items: a subset-injective real.

    The code map must be injective with values in 0..26 over a universe of at
    most 20 elements; under those bounds every subset gets a distinct,
    exactly-representable float64 value.
    """
    if len(code) > _MAX_UNIVERSE:
        raise PowerSumError(f"universe size {len(code)} exceeds {_MAX_UNIVERSE}")
    seen = set()
    for key, c in code.items():
        if not isinstance(c, (int, np.integer)) or c < 0 or c > _MAX_CODE:
            raise PowerSumError(f"code for {key!r} must be an integer in 0..{_MAX_CODE}, got {c!r}")
        if c in seen:
            raise PowerSumError(f"code map is not injective: value {c} repeats")
        seen.add(c)
    total = 0.0
    for x in set(items):
        if x not in code:
            raise PowerSumError(f"item {x!r} is not in the universe")
        total += 4.0 ** -int(code[x])
    return total


def embed(sample) -> PowerSumVector:
    """Embed a [0,1] sample as the power sums Z_0..Z_M of its centered values.

    The centering y = 2x - 1 is monotone, so the centered values are already
    sorted. Row q-1 of the table is y**q, each row the previous one times y,
    so every power is the same chain of multiplications as a loop over q
    would make, and each contiguous row sums as a lone vector does. Every
    centered value lies in [-1,1], so no power can overflow.
    """
    if not isinstance(sample, SortedSample):
        sample = SortedSample.from_values(sample)
    M = sample.M
    if M > MAX_SET_SIZE:
        raise PowerSumError(f"{M} values exceed the supported set size {MAX_SET_SIZE}")
    y = 2.0 * sample.values - 1.0
    Z = np.empty(M + 1)
    Z[0] = M
    np.multiply.accumulate(np.broadcast_to(y, (M, M)), axis=0).sum(axis=1, out=Z[1:])
    return PowerSumVector(Z)


def newton_girard(Z: PowerSumVector) -> np.ndarray:
    """Elementary symmetric polynomials e_1..e_M from power sums.

    Uses the recurrence k*e_k = sum_{i=1..k} (-1)**(i-1) * e_{k-i} * p_i,
    which is O(M^2) and numerically tame for the sizes allowed here. It runs
    on Python floats, whose IEEE double arithmetic gives the bits numpy
    float64 scalars would, at a fraction of the call overhead.
    """
    if not isinstance(Z, PowerSumVector):
        Z = PowerSumVector(Z)
    p = Z.Z.tolist()  # p[i] = Z_i; p[0] unused by the recurrence
    e = [1.0]
    for k in range(1, len(p)):
        acc = 0.0
        sign = 1.0
        for i in range(1, k + 1):
            acc += sign * e[k - i] * p[i]
            sign = -sign
        e.append(acc / k)
    return np.array(e[1:])


def _poly_coeffs(e: np.ndarray) -> np.ndarray:
    """Monic coefficients [1, c_1, .., c_M] of prod(x - x_m): c_k = (-1)^k e_k."""
    coeffs = np.empty(e.size + 1)
    coeffs[0] = 1.0
    coeffs[1::2] = -e[0::2]
    coeffs[2::2] = e[1::2]
    return coeffs


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """The roots ``np.roots`` gives for monic coefficients, in its order.

    A trailing zero coefficient is a root at 0: it is stripped before the
    companion matrix is built and its zero appended after the eigenvalues.
    The array is real when every eigenvalue is, as ``eigvals`` returns it.
    """
    c = coeffs[: coeffs.nonzero()[0][-1] + 1]
    n = c.size - 1
    roots = np.empty(0)
    if n:
        companion = np.eye(n, k=-1)
        companion[0] = -c[1:] / c[0]
        roots = np.linalg.eigvals(companion)
    return np.concatenate((roots, np.zeros(coeffs.size - c.size, roots.dtype)))


def poly_roots(e) -> np.ndarray:
    """All real roots of the monic polynomial with elementary symmetric
    coefficients e, sorted ascending, multiplicities preserved.

    The roots are the eigenvalues of the companion matrix, built and ordered
    as ``np.roots`` does without its wrapper (`_companion_roots`). When every
    eigenvalue is real they are the answer. Otherwise clustered real roots
    came back with small spurious imaginary parts; projecting one onto the
    real axis is accepted whenever that does not worsen its residual past the
    float64 noise floor, so genuinely complex roots keep theirs. Imaginary
    parts left above 1e-8 are an error.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 1 or e.size < 1:
        raise PowerSumError("need at least e_1")
    M = e.size
    if M > MAX_SET_SIZE:
        raise PowerSumError(f"degree {M} exceeds the supported maximum {MAX_SET_SIZE}")
    if not np.isfinite(e).all():
        raise PowerSumError("coefficients must be finite")
    coeffs = _poly_coeffs(e)
    try:
        roots = _companion_roots(coeffs)
    except np.linalg.LinAlgError as exc:
        raise RootConvergenceError(f"companion eigenvalues did not converge: {exc}") from exc
    if not np.iscomplexobj(roots):
        return np.sort(roots)
    noise_floor = 100.0 * np.finfo(np.float64).eps * max(1.0, np.abs(coeffs).max())
    near = np.flatnonzero((roots.imag != 0.0) & (np.abs(roots.imag) <= 1e-6))
    if near.size:
        p_here = np.abs(np.polyval(coeffs, roots[near]))
        p_real = np.abs(np.polyval(coeffs, roots[near].real))
        project = near[p_real <= np.maximum(p_here, noise_floor)]
        roots[project] = roots[project].real
    if np.max(np.abs(roots.imag)) > 1e-8:
        raise RootConvergenceError(f"complex residual {np.max(np.abs(roots.imag)):.3e} above tolerance")
    return np.sort(roots.real)


def invert(Z: PowerSumVector) -> SortedSample:
    """Recover the sorted [0,1] sample whose embedding is Z.

    The roots are the centered values ``2x - 1`` and are mapped back to [0,1].
    Values may land a hair outside [0,1] from rounding; anything within a
    1e-9 slack is clipped back, anything further out is an error (Z was not
    the embedding of a valid sample).
    """
    x = (poly_roots(newton_girard(Z)) + 1.0) / 2.0
    if x[0] < -_CLIP_SLACK or x[-1] > 1.0 + _CLIP_SLACK:
        raise PowerSumError(f"recovered values [{x[0]}, {x[-1]}] fall outside [0,1]")
    return SortedSample(np.clip(x, 0.0, 1.0))


# --- worked closed forms ------------------------------------------------------

_MAX_ALPHA = 700.0


def _smooth_sums(x: np.ndarray, alpha: float) -> tuple[float, float]:
    """Sums of e^(a x) and x e^(a x), both scaled by e^(-a max(x)).

    The scaling cancels in every ratio the closed forms take and keeps all
    intermediates in range for any alpha.
    """
    ex = np.exp(alpha * (x - x.max()))
    return float(ex.sum()), float((x * ex).sum())


def closed_form_eval(name: str, X, alpha: float | None = None) -> float:
    """Evaluate one of the explicit sum-decomposed symmetric functions.

    ``mean``                  phi = [1, x],            rho = v/u
    ``max_smooth``            phi = [e^ax, x e^ax],    rho = v/u
    ``second_largest_smooth`` phi = [e^ax, x e^ax],    rho = (v - (v/u) e^(a v/u)) / (u - e^(a v/u))
    ``poly_x1x2``   (M=2)     phi = [x, x^2, x^3],     rho = uv - w + 3(u^2 - v)/2
    ``poly_sym3``   (M=3)     phi = [x, x^2, x^3],     rho = (u^3 + 2w - 3uv)/6 + u

    The smooth variants need ``alpha``. ``max_smooth`` converges to the true
    max from below as alpha grows (error bounded by log(M)/alpha). The
    second-largest form peels off the smoothed max ``v/u`` rather than the
    exact max; the leftover fraction of the top element grows like
    alpha * gap * e^(-alpha*gap), which eventually dominates, so the
    expression approximates the second largest only at moderate alpha (best
    when the top-two gap is small) and reverts to the max as alpha -> inf.
    This is a property of the formula itself, reproduced here deliberately;
    the tests pin both behaviors.
    """
    x = np.asarray(X, dtype=np.float64).reshape(-1)
    if x.size < 1:
        raise PowerSumError("X must be non-empty")
    if name == "mean":
        return float(x.sum() / x.size)
    if name in ("max_smooth", "second_largest_smooth"):
        if alpha is None:
            raise PowerSumError(f"{name} requires alpha")
        if not 0.0 < alpha <= _MAX_ALPHA:
            raise PowerSumError(f"alpha must lie in (0, {_MAX_ALPHA}], got {alpha}")
        u, v = _smooth_sums(x, float(alpha))
        if name == "max_smooth":
            return v / u
        if x.size < 2:
            raise PowerSumError("second_largest_smooth needs at least two elements")
        m1 = v / u  # smooth estimate of the largest element
        peel = np.exp(alpha * (m1 - float(x.max())))  # e^(a m1), same scaling as u, v
        den = u - peel
        num = v - m1 * peel
        if not np.isfinite(den) or den <= 0.0:
            raise PowerSumError(
                "alpha too large to resolve the second largest in float64 for this sample"
            )
        return num / den
    if name == "poly_x1x2":
        if x.size != 2:
            raise PowerSumError("poly_x1x2 is defined for exactly two elements")
        u, v, w = (x.sum(), (x**2).sum(), (x**3).sum())
        return float(u * v - w + 1.5 * (u * u - v))
    if name == "poly_sym3":
        if x.size != 3:
            raise PowerSumError("poly_sym3 is defined for exactly three elements")
        u, v, w = (x.sum(), (x**2).sum(), (x**3).sum())
        return float((u**3 + 2.0 * w - 3.0 * u * v) / 6.0 + u)
    raise PowerSumError(f"unknown closed form {name!r}")


def closed_form_reference(name: str, X, alpha: float | None = None) -> float:
    """The target each closed form is meant to compute, evaluated directly."""
    x = np.asarray(X, dtype=np.float64).reshape(-1)
    if name == "mean":
        return float(x.mean())
    if name == "max_smooth":
        return float(x.max())
    if name == "second_largest_smooth":
        if x.size < 2:
            raise PowerSumError("second largest needs at least two elements")
        return float(np.sort(x)[-2])
    if name == "poly_x1x2":
        x1, x2 = x
        return float(x1 * x2 * (x1 + x2 + 3.0))
    if name == "poly_sym3":
        x1, x2, x3 = x
        return float(x1 * x2 * x3 + x1 + x2 + x3)
    raise PowerSumError(f"unknown closed form {name!r}")
