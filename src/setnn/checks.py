"""Self-contained property battery behind the ``check`` CLI subcommand.

Five suites, one per structural guarantee the library makes:

* invariance: random pooled models are unchanged by element permutations;
* equivariance: random equivariant stacks and the outlier stack commute with
  permutations, and the permutation commutant is exactly two dimensional;
* gradients: every autodiff primitive and both default architectures agree
  with central finite differences, and backprop gives each parameter the
  same bits alone as among all of them, sweep after sweep of one tape;
* powersum-roundtrip: the sum-of-powers embedding inverts, the countable
  encoding is injective, and the closed-form models match direct references;
* bayes-oracle: both scoring routes of the Beta-Binomial model agree, and
  ``expand`` ranks exactly as per-candidate scoring does.

Each suite runs on its own deterministic generator derived from the battery
seed, returns a CheckResult rather than raising, and is independent of the
others, so callers may run any subset in any order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from setnn import autodiff as ad
from setnn.autodiff import Tensor, grad_check
from setnn import bayes
from setnn.bayes import BetaBinomialModel
from setnn.layers import (
    NONLINEARITIES,
    SetBatch,
    commutant_dimension,
    random_equivariant_stack,
    random_invariant_model,
)
from setnn.powersum import (
    SortedSample,
    closed_form_eval,
    closed_form_reference,
    countable_encode,
    embed,
    invert,
)
from setnn.train import TrainConfig, build_model

__all__ = ["CheckResult", "run_all", "summary_table", "SUITES",
           "check_invariance", "check_equivariance", "check_gradients",
           "check_powersum", "check_bayes"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, started: float, failures: list[str], detail: str) -> CheckResult:
    if failures:
        detail = f"{len(failures)} failure(s); first: {failures[0]}"
    return CheckResult(name, not failures, detail, time.perf_counter() - started)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def check_invariance(seed: int = 0) -> CheckResult:
    """Random pooled models on random sets: permuting every set leaves the
    outputs unchanged within 1e-6 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 10]))
    failures = []
    worst = 0.0
    for t in range(100):
        in_width = int(rng.integers(1, 9))
        model = random_invariant_model(rng, in_width, out_width=int(rng.integers(1, 4)))
        sizes = rng.integers(1, 51, size=3)
        batch = SetBatch.from_sets([rng.normal(size=(m, in_width)) for m in sizes])
        shuffled, _ = batch.permuted(rng)
        err = _max_rel(model.forward(batch).data, model.forward(shuffled).data)
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"trial {t}: relative deviation {err:.3e} > 1e-6")
    return _result("invariance", started, failures,
                   f"100 random models within 1e-6 (worst {worst:.2e})")


def _stack_tolerance(stack) -> float:
    return 1e-9 if any(l.pool in ("sum", "mean") for l in stack.layers) else 1e-12


def check_equivariance(seed: int = 0) -> CheckResult:
    """Random equivariant stacks, and the outlier stack that training builds
    on ragged sets: forward of a permuted set equals the permuted forward;
    the permutation commutant has dimension 2."""
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    failures = []
    cases = []
    for t in range(100):
        in_width = int(rng.integers(1, 7))
        stack = random_equivariant_stack(rng, in_width)
        m = int(rng.integers(1, 13))
        x = rng.normal(size=(m, in_width))
        perm = rng.permutation(m)
        direct = stack.forward(SetBatch(x[perm], [0, m])).data
        routed = stack.forward(SetBatch(x, [0, m])).data[perm]
        cases.append((f"trial {t}", stack, direct, routed))
    # the trained architecture on ragged sets, each permuted on its own, so
    # a spread that puts a pooled row on another set's rows is seen too
    stack = build_model(TrainConfig(task="outlier"), 3, rng)
    batch = SetBatch.from_sets([rng.normal(size=(m, 3)) for m in (5, 1, 9, 3)])
    shuffled, rows = batch.permuted(rng)
    cases.append(("outlier stack", stack, stack.forward(shuffled).data, stack.forward(batch).data[rows]))
    for name, stack, direct, routed in cases:
        err = float(np.max(np.abs(direct - routed)))
        bound = _stack_tolerance(stack) * max(1.0, float(np.max(np.abs(routed))))
        if err > bound:
            failures.append(f"{name}: deviation {err:.3e} > {bound:.1e}")
    for m in range(2, 7):
        dim = commutant_dimension(m)
        if dim != 2:
            failures.append(f"commutant dimension at M={m} is {dim}, want 2")
    return _result("equivariance", started, failures,
                   "100 random stacks and the outlier stack on 4 ragged sets commute; "
                   "commutant dimension 2 for M in 2..6")


def _separated(rng: np.random.Generator, shape, gap: float = 0.1) -> np.ndarray:
    """Values whose pairwise column distances exceed ``gap`` so max-style
    primitives keep a stable argmax under finite-difference steps."""
    flat = np.arange(int(np.prod(shape)), dtype=np.float64)
    rng.shuffle(flat)
    return (flat * gap + rng.uniform(0, gap / 4)).reshape(shape)


def _scalarize(t: Tensor) -> Tensor:
    if t.data.ndim == 0:
        return t
    width = t.shape[1]
    out = ad.dense(t, Tensor(0.3 * np.eye(width)), Tensor(np.zeros(width)), "tanh")
    return ad.mse_loss(out, Tensor(np.zeros(out.shape)))


def _off_kink_dense():
    """(x, W, b) whose pre-activations all lie at least 0.1 from zero, with
    both signs in every column, so relu stays off its kink."""
    x = np.array([[0.9, -0.4, 0.3], [-0.7, 0.5, 1.1], [0.2, 0.8, -0.6], [-1.2, -0.3, 0.4]])
    W = np.array([[0.8, -0.5], [0.6, 0.9], [-0.4, 0.7]])
    return x, W, np.array([0.1, -0.3])


def _case_rng(seed: int, index: int) -> np.random.Generator:
    """Gradient check ``index``'s own generator, so no check moves another's data."""
    return np.random.default_rng(np.random.SeedSequence([seed, 12, index]))


def _gradient_cases(seed: int):
    """(name, f, params, smooth) per primitive; f closes over fixed data, and
    case ``i`` draws its params from ``_case_rng(seed, i)``."""
    off = (0, 2, 5, 9)
    normal = lambda *shapes: lambda rng: [rng.normal(size=shape) for shape in shapes]
    separated = lambda rng: [_separated(rng, (9, 3))]
    cases = []

    def case(name, draw, fn, smooth=True):
        params = [Tensor(a) for a in draw(_case_rng(seed, len(cases)))]
        cases.append((name, lambda ps, fn=fn: _scalarize(fn(*ps)), params, smooth))

    for act in NONLINEARITIES:
        case(f"dense-{act}", lambda rng: _off_kink_dense(),
             lambda x, W, b, act=act: ad.dense(x, W, b, act), smooth=act != "relu")
    case("mse_loss", normal((5, 1), (5, 1)), ad.mse_loss)
    case("set_softmax_nll", normal((9, 1)),
         lambda x: ad.set_softmax_nll(x, off, (1, 0, 3)))
    case("segment_sum", normal((9, 3)), lambda x: ad.segment_sum(x, off))
    case("segment_mean", normal((9, 3)), lambda x: ad.segment_mean(x, off))
    case("segment_max", separated, lambda x: ad.segment_max(x, off), smooth=False)
    # x feeds both the pool and the centering, so backprop must add the paths
    case("segment_center", separated,
         lambda x: ad.segment_center(x, ad.segment_max(x, off), off), smooth=False)
    case("segment_broadcast", normal((3, 4)),
         lambda x: ad.segment_broadcast(x, off))
    case("segment_augment", normal((9, 3), (3, 3)),
         lambda x, pooled: ad.segment_augment(x, pooled, off))
    return cases


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _sweep_failures(name: str, f, params: list[Tensor]) -> list[str]:
    """backprop computes only what ``wrt`` asks for and may overwrite the
    gradients it hands on, so a sweep for one parameter alone, and a second
    sweep of the same tape, must give the first full sweep's bits."""
    with ad.Tape() as tape:
        loss = f(params)
    every = ad.backprop(tape, loss, params)
    failures = []
    if not all(map(_same_bits, every, ad.backprop(tape, loss, params))):
        failures.append(f"{name}: a second sweep of the same tape gives other gradients")
    for i, (p, g) in enumerate(zip(params, every)):
        if not _same_bits(ad.backprop(tape, loss, [p])[0], g):
            failures.append(f"{name}: parameter {i} alone gets other gradient bits than among all")
    return failures


def check_gradients(seed: int = 0) -> CheckResult:
    """Finite-difference checks of all primitives (1e-6 smooth / 1e-4 kinked)
    and of both default architectures through their losses (1e-4), and, bit
    for bit, each parameter's gradient alone and from a second sweep."""
    started = time.perf_counter()
    cases = _gradient_cases(seed)
    failures = []
    for name, f, params, smooth in cases:
        tol = 1e-6 if smooth else 1e-4
        err = grad_check(f, params, seed=seed)
        if err > tol:
            failures.append(f"{name}: relative error {err:.3e} > {tol:.0e}")
        failures += _sweep_failures(name, f, params)

    rng = _case_rng(seed, len(cases))
    reg = build_model(TrainConfig(task="population"), 3, rng)
    sizes = [4, 2, 6, 3]
    batch = SetBatch.from_sets([rng.normal(size=(m, 3)) for m in sizes])
    targets = Tensor(rng.normal(size=(4, 1)))
    # step 1e-6: at 1e-5 the difference quotient can straddle a relu kink
    f = lambda ps: ad.mse_loss(reg.forward(batch), targets)
    err = grad_check(f, reg.params(), step=1e-6, seed=seed)
    if err > 1e-4:
        failures.append(f"regression architecture: relative error {err:.3e} > 1e-4")
    failures += _sweep_failures("regression architecture", f, reg.params())

    rng = _case_rng(seed, len(cases) + 1)
    sel = build_model(TrainConfig(task="outlier"), 5, rng)
    sbatch = SetBatch.from_sets([rng.normal(size=(m, 5)) for m in (4, 6, 5)])
    stargets = (2, 0, 4)
    f = lambda ps: ad.set_softmax_nll(sel.forward(sbatch), sbatch.segments, stargets)
    err = grad_check(f, sel.params(), step=1e-6, seed=seed)
    if err > 1e-4:
        failures.append(f"selection architecture: relative error {err:.3e} > 1e-4")
    failures += _sweep_failures("selection architecture", f, sel.params())
    return _result("gradients", started, failures,
                   "all primitives and both default architectures pass finite differences; "
                   "each parameter alone and a second sweep give the same gradient bits")


def _gapped_sample(rng: np.random.Generator, m: int, min_gap: float = 1e-3) -> SortedSample:
    while True:
        vals = np.sort(rng.uniform(0.0, 1.0, size=m))
        if m == 1 or np.min(np.diff(vals)) >= min_gap:
            return SortedSample(vals)


def check_powersum(seed: int = 0) -> CheckResult:
    """Embedding roundtrip at 1e-6 for sets of 2..12 values at least 1e-3
    apart, injective countable encoding over all subsets of a 12-element
    universe, closed forms against references."""
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    failures = []
    worst = 0.0
    for t in range(200):
        m = int(rng.integers(2, 13))
        sample = _gapped_sample(rng, m)
        err = float(np.max(np.abs(invert(embed(sample)).values - sample.values)))
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"roundtrip trial {t} (M={m}): error {err:.3e} > 1e-6")

    universe = {i: i for i in range(12)}
    codes = {}
    for mask in range(4096):
        items = [i for i in range(12) if mask >> i & 1]
        z = countable_encode(items, universe)
        if z in codes:
            failures.append(f"countable encoding collides: {codes[z]:#x} vs {mask:#x}")
            break
        codes[z] = mask

    for t in range(50):
        for name, m in (("mean", int(rng.integers(1, 9))), ("poly_x1x2", 2), ("poly_sym3", 3)):
            vals = _gapped_sample(rng, m).values
            got = closed_form_eval(name, vals)
            want = closed_form_reference(name, vals)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                failures.append(f"{name} trial {t}: {got!r} vs reference {want!r}")
        vals = _gapped_sample(rng, int(rng.integers(2, 9))).values
        errs = [abs(closed_form_eval("max_smooth", vals, alpha=a) - vals[-1])
                for a in (10.0, 50.0, 200.0)]
        if not errs[0] >= errs[1] >= errs[2]:
            failures.append(f"smooth max error not decreasing: {errs}")
    return _result("powersum-roundtrip", started, failures,
                   f"200 roundtrips (M = 2..12) within 1e-6 (worst {worst:.2e}); "
                   "4096 subset encodings distinct; closed forms match references")


def check_bayes(seed: int = 0) -> CheckResult:
    """Count-form scores equal their log-Gamma forms on random triples, and
    ``expand`` rankings equal a stable sort of per-candidate scores."""
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 14]))
    failures = []
    for t in range(1000):
        d = int(rng.integers(1, 7))
        model = BetaBinomialModel(rng.uniform(0.1, 5.0, size=d), rng.uniform(0.1, 5.0, size=d))
        X = rng.integers(0, 2, size=(int(rng.integers(1, 7)), d)).astype(np.float64)
        x = rng.integers(0, 2, size=d).astype(np.float64)
        a = bayes.score_item(model, X, x)
        b = bayes.score_item_oracle(model, X, x)
        if abs(a - b) > 1e-9 * max(1.0, abs(b)):
            failures.append(f"score_item trial {t}: {a!r} vs {b!r}")
        s = bayes.score_set(model, X)
        st = bayes.score_set_telescoped(model, X)
        if abs(s - st) > 1e-9 * max(1.0, abs(st)):
            failures.append(f"score_set trial {t}: {s!r} vs {st!r}")
    # expand scores the whole pool in one pass; it must rank exactly as a
    # stable sort of per-candidate score_item calls, on pools with duplicates
    rng = np.random.default_rng(np.random.SeedSequence([seed, 15]))
    pools = 4
    for t in range(pools):
        d = int(rng.integers(1, 41))
        model = BetaBinomialModel(rng.uniform(0.1, 5.0, size=d), rng.uniform(0.1, 5.0, size=d))
        X = rng.integers(0, 2, size=(int(rng.integers(0, 9)), d))
        n = int(rng.integers(1, 201))
        C = rng.integers(0, 2, size=(n, d))
        dup = rng.random(n) < 0.2
        C[dup] = C[rng.integers(0, n, size=n)[dup]]
        ranked = bayes.expand(model, X, C, n)
        ref = [bayes.score_item(model, X, c) for c in C]
        want = sorted(range(n), key=lambda i: -ref[i])
        if ranked != [(i, ref[i]) for i in want]:
            failures.append(f"expand pool {t}: ranking differs from stable sort of score_item")
        for i, score in ranked[:5]:
            b = bayes.score_item_oracle(model, X, C[i])
            if abs(score - b) > 1e-9 * max(1.0, abs(b)):
                failures.append(f"expand pool {t} candidate {i}: {score!r} vs oracle {b!r}")
    return _result("bayes-oracle", started, failures,
                   "1000 random triples: both scoring routes agree within 1e-9; "
                   f"{pools} expand rankings equal per-candidate scoring")


SUITES = {
    "invariance": check_invariance,
    "equivariance": check_equivariance,
    "gradients": check_gradients,
    "powersum-roundtrip": check_powersum,
    "bayes-oracle": check_bayes,
}


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for fn in SUITES.values()]


def summary_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    return "\n".join(lines)
