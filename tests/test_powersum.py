import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn.powersum import (
    MAX_SET_SIZE,
    PowerSumError,
    PowerSumVector,
    RootConvergenceError,
    SortedSample,
    closed_form_eval,
    closed_form_reference,
    countable_encode,
    embed,
    invert,
    newton_girard,
    poly_roots,
)


def test_countable_encode_examples():
    code = {"a": 1, "b": 2, "c": 3}
    assert countable_encode(set(), code) == 0.0
    assert countable_encode({"a", "c"}, code) == 0.265625


def test_countable_encode_validation():
    with pytest.raises(PowerSumError):
        countable_encode({"a"}, {"a": 1, "b": 1})  # not injective
    with pytest.raises(PowerSumError):
        countable_encode({"z"}, {"a": 1})  # outside the universe
    with pytest.raises(PowerSumError):
        countable_encode(set(), {"x": -1})
    with pytest.raises(PowerSumError):
        countable_encode(set(), {"x": 27})
    big = {i: i for i in range(21)}
    with pytest.raises(PowerSumError):
        countable_encode(set(), big)


def test_countable_encode_injective_on_8_element_universe():
    universe = list("abcdefgh")
    code = {u: i for i, u in enumerate(universe)}
    seen = set()
    for r in range(9):
        for subset in itertools.combinations(universe, r):
            seen.add(countable_encode(subset, code))
    assert len(seen) == 256


def test_sorted_sample_validation():
    with pytest.raises(PowerSumError):
        SortedSample([0.5, 0.2])
    with pytest.raises(PowerSumError):
        SortedSample([-0.1, 0.5])
    with pytest.raises(PowerSumError):
        SortedSample([0.5, 1.2])
    s = SortedSample.from_values([0.9, 0.1])
    np.testing.assert_array_equal(s.values, [0.1, 0.9])


@pytest.mark.parametrize("values", [[np.nan, 0.2, 0.5], [0.1, np.nan, 0.5], [0.2, 0.5, np.nan], [np.nan]],
                         ids=["first", "middle", "last", "alone"])
@pytest.mark.parametrize("fn", [SortedSample, embed], ids=["SortedSample", "embed"])
def test_a_nan_is_outside_the_unit_interval(fn, values):
    """Every comparison with NaN is False, so only an explicit check refuses it."""
    with pytest.raises(PowerSumError, match=r"must lie in \[0,1\], got NaN"):
        fn(values)


@pytest.mark.parametrize("fn", [embed], ids=["embed"])
def test_embedding_is_capped_at_the_invertible_size(fn):
    x = np.linspace(0.0, 1.0, MAX_SET_SIZE + 1)
    with pytest.raises(PowerSumError, match=f"{MAX_SET_SIZE + 1} values exceed the supported set size {MAX_SET_SIZE}"):
        fn(x)
    assert fn(x[:MAX_SET_SIZE]).M == MAX_SET_SIZE


@pytest.mark.parametrize("make", [lambda: invert(PowerSumVector([2.0, 1e300, 1e300]))],
                         ids=["newton-girard-overflow"])
def test_overflow_is_a_power_sum_error_not_a_warning(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PowerSumError, match="must be finite"):
            make()


@pytest.mark.parametrize("fn", [embed, SortedSample.from_values], ids=["embed", "from_values"])
@pytest.mark.parametrize("value", [3.0, 0.5, np.float64(0.5)], ids=["three", "half", "numpy-half"])
def test_a_scalar_is_not_a_sample(fn, value):
    """The rank is checked before sorting, so a scalar is a PowerSumError."""
    with pytest.raises(PowerSumError, match="non-empty vector"):
        fn(value)


def test_power_sum_vector_validation():
    with pytest.raises(PowerSumError):
        PowerSumVector([2.5, 0.7, 0.29])  # Z_0 not integral
    with pytest.raises(PowerSumError):
        PowerSumVector([3.0, 0.7, 0.29])  # Z_0 inconsistent with length


def test_samples_and_power_sums_compare_and_hash_by_identity():
    for make in (lambda: SortedSample([0.1, 0.2]), lambda: embed([0.1, 0.2])):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, a, b}) == 2


def test_embed_examples():
    np.testing.assert_allclose(embed([0.5]).Z, [1.0, 0.0])
    np.testing.assert_allclose(embed([0.2, 0.5]).Z, [2.0, -0.6, 0.36])


def test_embed_is_exactly_permutation_invariant():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, 9)
    np.testing.assert_array_equal(embed(x).Z, embed(x[rng.permutation(9)]).Z)


def test_newton_girard_examples():
    np.testing.assert_allclose(newton_girard(PowerSumVector([3.0, 6.0, 14.0, 36.0])), [6.0, 11.0, 6.0], atol=1e-12)
    np.testing.assert_allclose(newton_girard(PowerSumVector([1.0, 0.7])), [0.7])
    np.testing.assert_allclose(newton_girard(PowerSumVector([2.0, 0.7, 0.29])), [0.7, 0.10], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_newton_girard_matches_vieta(M, seed):
    """Power sums of known roots must reproduce the polynomial coefficients."""
    rng = np.random.default_rng(seed)
    roots = rng.uniform(0, 1, M)
    e = newton_girard(PowerSumVector(_ref_power_sums(roots)))
    expected = [sum(np.prod(c) for c in itertools.combinations(roots, k)) for k in range(1, M + 1)]
    np.testing.assert_allclose(e, expected, atol=1e-9)


def test_poly_roots_integer_example():
    # x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    np.testing.assert_allclose(poly_roots([6.0, 11.0, 6.0]), [1.0, 2.0, 3.0], atol=1e-9)


def test_poly_roots_double_root():
    np.testing.assert_allclose(poly_roots([1.0, 0.25]), [0.5, 0.5], atol=1e-6)


def test_poly_roots_two_point():
    e = [1.0, 0.09]  # (x - 0.1)(x - 0.9)
    np.testing.assert_allclose(poly_roots(e), [0.1, 0.9], atol=1e-10)


def test_invert_rejects_out_of_range_roots():
    with pytest.raises(PowerSumError):
        invert(PowerSumVector(_ref_power_sums([1.0, 2.0, 3.0])))


def test_poly_roots_rejects_complex():
    # x^2 - x + 1 has complex roots
    with pytest.raises(RootConvergenceError):
        poly_roots([1.0, 1.0])


def test_poly_roots_degree_cap():
    with pytest.raises(PowerSumError):
        poly_roots(np.ones(17))


def test_invert_examples():
    np.testing.assert_allclose(invert(embed([0.25, 0.75])).values, [0.25, 0.75], atol=1e-9)
    np.testing.assert_allclose(invert(embed([0.5])).values, [0.5], atol=1e-12)


def test_roundtrip_property_sampled():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(60):
        M = int(rng.integers(2, 9))
        while True:
            x = np.sort(rng.uniform(0, 1, M))
            if np.min(np.diff(x)) >= 1e-3:
                break
        worst = max(worst, float(np.max(np.abs(invert(embed(x)).values - x))))
    assert worst <= 1e-6, f"roundtrip error {worst}"


def test_roundtrip_m10_well_separated():
    x = np.linspace(0.02, 0.98, 10)
    np.testing.assert_allclose(invert(embed(x)).values, x, atol=1e-6)


def test_roundtrip_reliable_at_m12():
    """The centered embedding keeps uniform samples of size 12 invertible; the
    power sums of the raw [0,1] values failed about a third of them."""
    rng = np.random.default_rng(1200)
    failures = 0
    for _ in range(300):
        x = np.sort(rng.uniform(0, 1, 12))
        try:
            failures += not np.max(np.abs(invert(embed(x)).values - x)) <= 1e-6
        except PowerSumError:
            failures += 1
    assert failures <= 3, f"{failures}/300 round-trips at M=12 failed"


def test_continuity_probe():
    rng = np.random.default_rng(23)
    x = np.sort(rng.uniform(0.05, 0.95, 6))
    while np.min(np.diff(x)) < 5e-3:
        x = np.sort(rng.uniform(0.05, 0.95, 6))
    delta = 1e-4
    x2 = np.sort(x + rng.uniform(-delta, delta, 6))
    moved = np.max(np.abs(invert(embed(x2)).values - invert(embed(x)).values))
    assert moved <= 100 * delta


def test_closed_form_mean_exact():
    assert closed_form_eval("mean", [0.2, 0.4]) == pytest.approx(0.3, abs=1e-15)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 11)
    assert abs(closed_form_eval("mean", x) - closed_form_reference("mean", x)) <= 1e-12


def test_closed_form_polynomials_exact():
    assert closed_form_eval("poly_x1x2", [1.0, 2.0]) == pytest.approx(12.0, abs=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x2 = rng.uniform(-2, 2, 2)
        assert abs(closed_form_eval("poly_x1x2", x2) - closed_form_reference("poly_x1x2", x2)) <= 1e-12
        x3 = rng.uniform(-2, 2, 3)
        assert abs(closed_form_eval("poly_sym3", x3) - closed_form_reference("poly_sym3", x3)) <= 1e-12


def test_closed_form_smooth_max_converges_monotonically():
    # top-two gap of 0.05 keeps the alpha=200 error nonzero, so the decrease
    # is strict at every step
    x = [0.2, 0.5, 0.85, 0.9]
    errs = [abs(closed_form_eval("max_smooth", x, alpha=a) - 0.9) for a in (10.0, 50.0, 200.0)]
    assert errs[0] > errs[1] > errs[2]
    assert abs(closed_form_eval("max_smooth", [0.1, 0.9], alpha=50.0) - 0.9) <= 0.02


def test_closed_form_second_largest_moderate_alpha():
    # small top gap, moderate alpha: the peel works and the estimate lands
    # within a few thousandths of the true second largest
    x = [0.3, 0.6, 0.88, 0.9]
    err = abs(closed_form_eval("second_largest_smooth", x, alpha=10.0) - 0.88)
    assert err <= 0.01


def test_second_largest_reverts_to_max_at_large_alpha():
    """The peel subtracts e^(a*v/u), not the exact max contribution, so the
    unremoved remainder of the top element eventually dominates and the
    expression drifts back toward the max."""
    x = [0.3, 0.6, 0.88, 0.9]
    drift = [abs(closed_form_eval("second_largest_smooth", x, alpha=a) - 0.9) for a in (50.0, 200.0, 600.0)]
    assert drift[0] > drift[1] > drift[2]
    assert drift[2] <= 0.005


def test_second_largest_reports_float_breakdown():
    # a huge alpha on a wide gap pushes the peel step below float resolution
    with pytest.raises(PowerSumError):
        closed_form_eval("second_largest_smooth", [0.1, 0.9], alpha=700.0)


def test_closed_form_validation():
    with pytest.raises(PowerSumError):
        closed_form_eval("median", [0.5])
    with pytest.raises(PowerSumError):
        closed_form_eval("max_smooth", [0.5])  # alpha missing
    with pytest.raises(PowerSumError):
        closed_form_eval("poly_x1x2", [1.0, 2.0, 3.0])
    with pytest.raises(PowerSumError):
        closed_form_eval("second_largest_smooth", [0.5], alpha=10.0)


# --- the bits of the numpy-scalar implementation --------------------------------
# A frozen copy of the power-sum round trip as first written: one multiply and
# one sum per power, Newton-Girard on numpy float64 scalars, and np.roots with
# a near-real projection of every complex eigenvalue. The shipped code must give
# the same bits, and the same exception, on every sample.

def _ref_power_sums(v):
    v = np.sort(np.asarray(v, dtype=np.float64))
    Z = np.empty(v.size + 1)
    Z[0] = v.size
    powers = np.ones_like(v)
    for q in range(1, v.size + 1):
        powers = powers * v
        Z[q] = powers.sum()
    return Z


def _ref_newton_girard(p):
    M = p.size - 1
    e = np.zeros(M + 1)
    e[0] = 1.0
    for k in range(1, M + 1):
        acc = 0.0
        sign = 1.0
        for i in range(1, k + 1):
            acc += sign * e[k - i] * p[i]
            sign = -sign
        e[k] = acc / k
    return e[1:]


def _ref_coeffs(e):
    signs = np.where(np.arange(1, e.size + 1) % 2 == 1, -1.0, 1.0)
    return np.concatenate(([1.0], signs * e))


def _ref_poly_roots(e):
    coeffs = _ref_coeffs(e)
    roots = np.roots(coeffs).astype(np.complex128)
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


def _ref_invert(p):
    x = (_ref_poly_roots(_ref_newton_girard(p)) + 1.0) / 2.0
    if x[0] < -1e-9 or x[-1] > 1.0 + 1e-9:
        raise PowerSumError(f"recovered values [{x[0]}, {x[-1]}] fall outside [0,1]")
    return np.clip(x, 0.0, 1.0)


def _outcome(fn, *args):
    """The result's bytes, or the exception's type and message."""
    try:
        return np.asarray(fn(*args), dtype=np.float64).tobytes()
    except PowerSumError as exc:
        return type(exc), str(exc)


def _bit_pin_samples():
    rng = np.random.default_rng(2209)
    samples = [np.sort(rng.uniform(0.0, 1.0, M)) for M in range(1, MAX_SET_SIZE + 1) for _ in range(120)]
    for M in range(1, MAX_SET_SIZE + 1):
        samples += [np.full(M, 0.5), np.full(M, rng.uniform()), np.zeros(M), np.ones(M),
                    np.linspace(0.0, 1.0, M), np.round(rng.uniform(0.0, 1.0, M), 1)]
        if M >= 2:
            samples.append(np.concatenate(([0.5], rng.uniform(0.0, 1.0, M - 1))))
            samples.append(np.concatenate(([0.5, 0.5], rng.uniform(0.0, 1.0, M - 2))))
    return [np.sort(x) for x in samples]


def test_round_trip_keeps_the_bits_of_the_numpy_scalar_implementation():
    paths = {"one zero root": 0, "zero roots": 0, "complex": 0, "raised": 0}
    for x in _bit_pin_samples():
        Z = embed(x)
        p = _ref_power_sums(2.0 * x - 1.0)
        assert Z.Z.tobytes() == p.tobytes(), x
        e = newton_girard(Z)
        ref_e = _ref_newton_girard(p)
        assert e.tobytes() == ref_e.tobytes(), x
        assert _outcome(poly_roots, e) == _outcome(_ref_poly_roots, ref_e), x
        got = _outcome(lambda z: invert(z).values, Z)
        assert got == _outcome(_ref_invert, p), x
        coeffs = _ref_coeffs(ref_e)
        zero_roots = coeffs.size - 1 - np.flatnonzero(coeffs)[-1]
        paths["one zero root"] += zero_roots == 1
        paths["zero roots"] += zero_roots >= 2
        paths["complex"] += bool(np.any(np.roots(coeffs).imag != 0.0))
        paths["raised"] += isinstance(got, tuple)
    # every branch of the shipped code is compared, not just the common one
    assert all(n >= 5 for n in paths.values()), paths


def test_power_sums_of_unsorted_reals_keep_their_bits():
    """embed sorts the sample, centers it and sums its powers with the bits of
    the frozen one-power-at-a-time reference."""
    rng = np.random.default_rng(2210)
    for _ in range(400):
        x = rng.uniform(0.0, 1.0, int(rng.integers(1, MAX_SET_SIZE + 1)))
        assert embed(x).Z.tobytes() == _ref_power_sums(2.0 * np.sort(x) - 1.0).tobytes(), x
