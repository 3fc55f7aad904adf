import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn.layers import SetBatch
from setnn.tasks import (
    POPULATION_KINDS,
    TASKS,
    GaussianTaskSpec,
    LabeledSetDataset,
    TaskError,
    _block_mi,
    _dataset_rng,
    _random_pd,
    _rotation,
    gen_digit_sum,
    gen_outlier_sets,
    gen_population_task,
    load_jsonl,
    save_jsonl,
)


def _sets(ds):
    """The dataset's sets, each a view of its packed batch."""
    return [ds.batch.set_at(i) for i in range(len(ds))]


def test_spec_validation():
    with pytest.raises(TaskError):
        GaussianTaskSpec(kind="entropy", num_sets=1, seed=0)
    with pytest.raises(TaskError):
        GaussianTaskSpec(kind="rotation", num_sets=1, seed=0, d=5)
    with pytest.raises(TaskError):
        GaussianTaskSpec(kind="random", num_sets=0, seed=0)
    with pytest.raises(TaskError):
        GaussianTaskSpec(kind="random", num_sets=1, seed=0, set_size_range=(10, 5))
    with pytest.raises(TaskError):
        GaussianTaskSpec(kind="rank1", num_sets=1, seed=0, alpha_fixed=0.5)
    with pytest.raises(TaskError, match="num_sets must be an integer >= 1, got 2.0"):
        GaussianTaskSpec(kind="random", num_sets=2.0, seed=0)
    assert GaussianTaskSpec(kind="random", num_sets=1, seed=0, set_size_range=[5, 8]).set_size_range == (5, 8)
    spec = GaussianTaskSpec(kind="correlation", num_sets=1, seed=0)
    assert spec.d == 16 and spec.element_dim == 32


def test_rotation_of_identity_has_constant_entropy_target():
    # the first-marginal entropy formula is rotation-invariant at identity
    # covariance: 0.5 * ln(2*pi*e) for every angle
    expected = 0.5 * np.log(2.0 * np.pi * np.e)
    assert expected == pytest.approx(1.418939, abs=1e-6)
    for angle in np.linspace(0.0, np.pi, 7):
        cov = _rotation(angle) @ np.eye(2) @ _rotation(angle).T
        assert 0.5 * np.log(2.0 * np.pi * np.e * cov[0, 0]) == pytest.approx(expected, abs=1e-12)


def test_block_mi_matches_scalar_formula():
    # d=1 pair with correlation 0.5: MI = -0.5 * ln(1 - 0.25)
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert _block_mi(cov, 1) == pytest.approx(0.143841, abs=1e-6)
    assert _block_mi(cov, 1) == pytest.approx(-0.5 * np.log(0.75), rel=1e-12)


def test_rotation_dataset_shapes_and_meta():
    spec = GaussianTaskSpec(kind="rotation", num_sets=5, seed=11, set_size_range=(30, 60))
    ds = gen_population_task(spec)
    assert len(ds) == 5
    assert all(30 <= s.shape[0] <= 60 and s.shape[1] == 2 for s in _sets(ds))
    assert ds.meta["kind"] == "rotation"
    assert all(0.0 <= m["alpha"] <= np.pi for m in ds.per_set_meta)


def test_correlation_targets_match_analytic_mi():
    """The determinant route must agree with -0.5 * d * ln(1 - alpha^2)."""
    spec = GaussianTaskSpec(kind="correlation", num_sets=8, seed=3, d=4, set_size_range=(10, 20))
    ds = gen_population_task(spec)
    for i in range(len(ds)):
        alpha = ds.per_set_meta[i]["alpha"]
        analytic = -0.5 * spec.d * np.log(1.0 - alpha * alpha)
        assert ds.targets[i] == pytest.approx(analytic, abs=1e-9)


def test_correlation_alpha_fixed_zero_gives_zero_mi():
    spec = GaussianTaskSpec(kind="correlation", num_sets=4, seed=9, d=3,
                            set_size_range=(5, 9), alpha_fixed=0.0)
    ds = gen_population_task(spec)
    np.testing.assert_allclose(ds.targets, 0.0, atol=1e-12)
    assert _sets(ds)[0].shape[1] == 6


def test_rank1_and_random_targets_are_nonnegative_total_correlation():
    for kind in ("rank1", "random"):
        spec = GaussianTaskSpec(kind=kind, num_sets=6, seed=2, d=8, set_size_range=(5, 9))
        ds = gen_population_task(spec)
        assert np.all(ds.targets >= -1e-12)
        assert np.ptp(ds.targets) > 0  # the per-set parameter actually varies


def test_rotation_plugin_estimate_consistency():
    """Sample first-dimension variance must reproduce the analytic entropy
    target, tying generated data to its label without any model."""
    spec = GaussianTaskSpec(kind="rotation", num_sets=100, seed=123, set_size_range=(500, 500))
    ds = gen_population_task(spec)
    devs = []
    for i in range(len(ds)):
        var = _sets(ds)[i][:, 0].var(ddof=1)
        devs.append(abs(0.5 * np.log(2.0 * np.pi * np.e * var) - ds.targets[i]))
    assert float(np.mean(devs)) <= 0.05


def test_population_determinism():
    spec = GaussianTaskSpec(kind="random", num_sets=4, seed=77, d=6, set_size_range=(5, 9))
    a = gen_population_task(spec)
    b = gen_population_task(spec)
    assert all(np.array_equal(x, y) for x, y in zip(_sets(a), _sets(b)))
    np.testing.assert_array_equal(a.targets, b.targets)


@pytest.mark.parametrize("kind, d, alpha", [
    *[("correlation", d, alpha) for d in (1, 2, 16, 64) for alpha in (-1.0, 1.0)],
    *[(kind, d, None) for kind in ("rank1", "random") for d in (1, 32)],
    ("rotation", 2, None),
])
def test_population_covariances_are_positive_definite_at_the_extremes(kind, d, alpha):
    """Every recipe's covariance has a Cholesky factor and finite targets, at
    the clipped couplings +-1 and at the smallest and largest dimensions."""
    spec = GaussianTaskSpec(kind=kind, num_sets=6, seed=8, d=d, set_size_range=(3, 5), alpha_fixed=alpha)
    assert np.all(np.isfinite(gen_population_task(spec).targets))


def test_the_clipped_correlation_block_keeps_eigenvalues_of_1e_minus_6():
    """``[[B, aB], [aB, B]]`` with ``|a|`` clipped to 0.999 has eigenvalues
    ``(1 +- a) * eig(B)``, and ``_random_pd`` gives ``eig(B) >= 1e-3``."""
    alpha = 1.0 - 1e-3
    for d in (1, 2, 16, 64):
        for seed in range(60):
            base = _random_pd(_dataset_rng(seed), d)
            block = np.block([[base, alpha * base], [alpha * base, base]])
            assert np.linalg.eigvalsh(block)[0] >= 1e-6 * (1 - 1e-9), (d, seed)


def test_digit_sum_encoding_and_targets():
    ds = gen_digit_sum(50, 10, None, seed=5)
    for s, t in zip(_sets(ds), ds.targets):
        assert s.shape[1] == 10
        assert set(np.unique(s)) <= {0.0, 1.0}
        np.testing.assert_array_equal(s.sum(axis=1), np.ones(s.shape[0]))
        assert t == s.argmax(axis=1).sum()
        assert 1 <= s.shape[0] <= 10
    assert any(s.shape[0] < 10 for s in _sets(ds))


def test_digit_sum_fixed_test_size():
    ds = gen_digit_sum(10, 10, 37, seed=5)
    assert all(s.shape[0] == 37 for s in _sets(ds))
    assert ds.meta["set_size_at_test"] == 37


def test_digit_sum_determinism():
    a = gen_digit_sum(20, 10, None, seed=8)
    b = gen_digit_sum(20, 10, None, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(_sets(a), _sets(b)))
    np.testing.assert_array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, gen_digit_sum(20, 10, None, seed=9).targets)


def test_outlier_construction():
    ds = gen_outlier_sets(30, set_size=8, d=4, shift=3.0, seed=2)
    assert all(s.shape == (8, 4) for s in _sets(ds))
    assert np.all((ds.targets >= 0) & (ds.targets < 8))
    assert ds.targets.dtype == np.int64
    # the planted index must vary across sets
    assert len(set(ds.targets.tolist())) > 1


def test_outlier_validation():
    with pytest.raises(TaskError):
        gen_outlier_sets(5, set_size=1, d=4, shift=1.0, seed=0)
    with pytest.raises(TaskError):
        gen_outlier_sets(5, set_size=4, d=4, shift=-1.0, seed=0)
    # shift zero is the chance-level control and must be allowed
    gen_outlier_sets(2, set_size=4, d=4, shift=0.0, seed=0)


def test_outlier_heuristic_recovers_planted_index():
    """With a large shift, the element farthest from the set centroid is the
    planted outlier nearly always."""
    ds = gen_outlier_sets(200, set_size=8, d=8, shift=6.0, seed=31)
    hits = 0
    for s, t in zip(_sets(ds), ds.targets):
        centroid = s.mean(axis=0)
        hits += int(np.linalg.norm(s - centroid, axis=1).argmax() == t)
    assert hits / 200 >= 0.99


def test_permuting_a_set_tracks_its_target():
    ds = gen_outlier_sets(5, set_size=6, d=3, shift=4.0, seed=13)
    rng = np.random.default_rng(0)
    for s, t in zip(_sets(ds), ds.targets):
        perm = rng.permutation(6)
        permuted = s[perm]
        new_target = int(np.where(perm == t)[0][0])
        np.testing.assert_array_equal(permuted[new_target], s[t])


# one small dataset of every generator: (task, make(num_sets, seed))
_GENERATORS = {
    **{kind: ("population", lambda n, seed, kind=kind: gen_population_task(GaussianTaskSpec(
        kind=kind, num_sets=n, seed=seed, d=2, set_size_range=(3, 6)))) for kind in POPULATION_KINDS},
    "digit-sum": ("digit-sum", lambda n, seed: gen_digit_sum(n, 6, None, seed=seed)),
    "outlier": ("outlier", lambda n, seed: gen_outlier_sets(n, set_size=5, d=2, shift=2.0, seed=seed)),
}


@pytest.mark.parametrize("name", _GENERATORS)
def test_jsonl_roundtrip_plain_and_gzip(tmp_path, name):
    """Every generator's sets, targets and metadata survive save and load,
    and its dataset metadata is the task's ``meta_keys``."""
    task, make = _GENERATORS[name]
    ds = make(3, 4)
    keys = set(TASKS[task].meta_keys) - ({"alpha_fixed"} if ds.meta.get("alpha_fixed") is None else set())
    assert set(ds.meta) == keys
    for path in (str(tmp_path / "data.jsonl"), str(tmp_path / "data.jsonl.gz")):
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert len(back) == len(ds)
        for a, b in zip(_sets(ds), _sets(back)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.targets, ds.targets)
        assert back.targets.dtype == ds.targets.dtype
        assert back.meta == ds.meta
        assert back.per_set_meta == ds.per_set_meta


def test_jsonl_bytes_deterministic(tmp_path):
    ds = gen_digit_sum(10, 6, None, seed=1)
    paths = [tmp_path / f"{i}.jsonl.gz" for i in (0, 1)]
    for p in paths:
        save_jsonl(ds, str(p))
    a, b = (p.read_bytes() for p in paths)
    assert a == b


def test_jsonl_index_targets_roundtrip(tmp_path):
    ds = gen_outlier_sets(4, set_size=5, d=2, shift=2.0, seed=6)
    path = str(tmp_path / "o.jsonl")
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back.targets.dtype == np.int64
    np.testing.assert_array_equal(back.targets, ds.targets)


def test_load_empty_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TaskError):
        load_jsonl(str(path))


def test_load_rejects_truncated_and_undecodable_files(tmp_path):
    """A cut or corrupt gzip stream, a wrong gzip checksum, binary junk and
    too-deep nesting each raise a TaskError that names the file."""
    ds = gen_digit_sum(20, 6, None, seed=1)
    whole = tmp_path / "whole.jsonl.gz"
    save_jsonl(ds, str(whole))
    cut = tmp_path / "cut.jsonl.gz"
    cut.write_bytes(whole.read_bytes()[:-12])
    flipped = bytearray(whole.read_bytes())
    flipped[30:60] = bytes(b ^ 0xFF for b in flipped[30:60])
    corrupt = tmp_path / "corrupt.jsonl.gz"
    corrupt.write_bytes(bytes(flipped))
    flipped = bytearray(whole.read_bytes())
    flipped[-6] ^= 1
    crc = tmp_path / "crc.jsonl.gz"
    crc.write_bytes(bytes(flipped))
    junk = tmp_path / "junk.jsonl"
    junk.write_bytes(b"\xff\xfe\x00garbage\n")
    nested = tmp_path / "nested.jsonl"
    nested.write_bytes(b"[" * 100000 + b"]" * 100000 + b"\n")
    for path in (cut, corrupt, crc, junk, nested):
        with pytest.raises(TaskError, match=path.name):
            load_jsonl(str(path))


@pytest.mark.parametrize("meta", [{}, {"task": "sorting"}, {"task": "rotation"}, {"task": ["digit-sum"]}],
                         ids=["missing", "unknown", "kind-name", "list"])
def test_load_refuses_a_first_line_that_names_no_task(tmp_path, meta):
    """The dataset names its task on line 1; anything but a key of TASKS is
    refused there, with the three task names."""
    path = tmp_path / "d.jsonl"
    _write_lines(path, [{"elements": [[0.0, 1.0]], "target": 1.0, "meta": dict(meta, target_kind="scalar")}] * 2)
    with pytest.raises(TaskError) as info:
        load_jsonl(str(path))
    assert str(info.value) == (f"{path} line 1: task must be one of ('population', 'digit-sum', 'outlier'), "
                               f"got {meta.get('task')!r}")


@pytest.mark.parametrize("name", _GENERATORS)
def test_prefix_sets_are_stable_under_dataset_growth(name):
    """The first K sets of a larger generation equal the K-set generation,
    so one run can be split into matched train/test halves."""
    make = _GENERATORS[name][1]
    small, big = make(4, 55), make(7, 55)
    for a, b in zip(_sets(small), _sets(big)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(small.targets, big.targets[:4])


def test_subset_copies_and_relabels():
    ds = gen_outlier_sets(6, set_size=4, d=2, shift=1.0, seed=3)
    sub = ds.subset([4, 1])
    assert len(sub) == 2 and sub.meta["num_sets"] == 2
    np.testing.assert_array_equal(_sets(sub)[0], _sets(ds)[4])
    np.testing.assert_array_equal(sub.targets, ds.targets[[4, 1]])
    _sets(sub)[0][0, 0] = 99.0
    assert _sets(ds)[4][0, 0] != 99.0


_SCALAR = {"task": "digit-sum", "target_kind": "scalar"}
_INDEX = {"task": "outlier", "target_kind": "index"}


def test_dataset_validation():
    one = SetBatch.from_sets([np.zeros((2, 2))])
    with pytest.raises(TaskError):
        LabeledSetDataset(one, np.array([1.0, 2.0]), _SCALAR)
    with pytest.raises(TaskError):
        LabeledSetDataset(one, np.array([np.inf]), _SCALAR)
    with pytest.raises(TaskError, match="one target each"):
        LabeledSetDataset(one, np.array([[1.0]]), _SCALAR)
    with pytest.raises(TaskError, match="metadata"):
        LabeledSetDataset(one, np.array([1.0]), _SCALAR, [{}, {}])

    three = SetBatch.from_sets([np.zeros((2, 2)), np.ones((3, 2)), np.ones((1, 2))])
    scalar_cases = [
        (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, np.nan], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]), [0.0, 0.0, 0.0], 1),
        (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [-np.inf, 1.0]]), [0.0, 0.0, 0.0], 2),
        (three.elements, [0.0, np.nan, 0.0], 1),
    ]
    for elements, targets, bad in scalar_cases:
        with pytest.raises(TaskError, match=f"set {bad} ") as info:
            LabeledSetDataset(SetBatch(elements, three.offsets), np.array(targets), _SCALAR)
        assert info.value.set_index == bad

    for targets, bad in (([0, 3, 0], 1), ([0, 0, 1], 2), ([-1, 0, 0], 0), ([0, 1.5, 0], 1)):
        with pytest.raises(TaskError, match=f"set {bad} .*integer in") as info:
            LabeledSetDataset(three, np.array(targets), _INDEX)
        assert info.value.set_index == bad
    ok = LabeledSetDataset(three, np.array([1.0, 2.0, 0.0]), _INDEX)
    assert ok.targets.dtype == np.int64 and ok.targets.tolist() == [1, 2, 0]
    assert LabeledSetDataset(three, np.array([1, 2, 3]), _SCALAR).targets.dtype == np.float64


_ONE_OF = "task must be one of ('population', 'digit-sum', 'outlier'), got "


@pytest.mark.parametrize("meta, message", [
    ({}, _ONE_OF + "None"),
    ({"task": "rotation", "target_kind": "scalar"}, _ONE_OF + "'rotation'"),
    ({"task": ["outlier"], "target_kind": "index"}, _ONE_OF + "['outlier']"),
    ({"task": "outlier", "target_kind": "scalar"}, "task 'outlier' needs target_kind 'index', got 'scalar'"),
    ({"task": "outlier"}, "task 'outlier' needs target_kind 'index', got None"),
    ({"task": "population", "target_kind": "index"}, "task 'population' needs target_kind 'scalar', got 'index'"),
    ({"task": "digit-sum", "target_kind": "bogus"}, "task 'digit-sum' needs target_kind 'scalar', got 'bogus'"),
], ids=["no-task", "kind-name", "list", "outlier-scalar", "outlier-none", "population-index", "digit-sum-bogus"])
def test_a_dataset_refuses_metadata_that_does_not_fit_its_task(meta, message):
    """An in-memory dataset checks its own task and target kind when it is
    made, as a loaded one does, so no later reader needs to."""
    one = SetBatch.from_sets([np.zeros((2, 2))])
    with pytest.raises(TaskError) as info:
        LabeledSetDataset(one, np.array([1.0]), meta)
    assert str(info.value) == message and info.value.set_index is None


def _write_lines(path, objs):
    with open(path, "w") as f:
        for obj in objs:
            f.write(json.dumps(obj) + "\n")


@pytest.mark.parametrize("second, message", [
    ({"elements": [[1.0, 2.0, 3.0]], "target": 1.0}, "set 1 has width 3 but set 0 has width 2"),
    ({"elements": [[]], "target": 1.0}, "set 1 must be a non-empty"),
    ({"elements": [1.0, 2.0], "target": 1.0}, "elements must be a list of rows, got shape (2,)"),
    ({"elements": 5, "target": 1.0}, "elements must be a list of rows, got shape ()"),
    ({"elements": [], "target": 1.0}, "elements must be a list of rows, got shape (0,)"),
    ({"elements": [[1.0, float("nan")]], "target": 1.0}, "non-finite element"),
    ({"elements": [[1.0, 2.0]], "target": float("inf")}, "must be finite"),
    ({"elements": [[1.0, 2.0], [3]], "target": 1.0}, "inhomogeneous"),
    ({"elements": [[1.0, 2.0]], "target": [1.0]}, "line 3"),
    ({"elements": [[1.0, 2.0]], "target": 10 ** 400}, "line 3"),
    ({"elements": [[1.0, 2.0]], "target": "2"}, "target must be a JSON number, got '2'"),
    ({"elements": [[1.0, 2.0]], "target": True}, "target must be a JSON number, got True"),
    ({"elements": [[True, False]], "target": 1.0}, "elements must be JSON numbers, got a boolean"),
    ({"elements": [[0.5, 1.0], [0.5, True]], "target": 1.0}, "elements must be JSON numbers, got a boolean"),
    ({"elements": [[1.0, 2.0]]}, "missing field 'target'"),
    ({"elements": [[1.0, 2.0]], "target": 1.0, "meta": 4}, "meta must be a JSON object"),
    ({"elements": [[1.0, 2.0]], "target": 1.0, "meta": {"task": "outlier", "target_kind": "index"}},
     "dataset fields ['target_kind', 'task'] differ from line 1"),
    ({"elements": [[1.0, 2.0]], "target": 1.0, "meta": {"task": "digit-sum"}},
     "dataset fields ['target_kind'] differ from line 1"),
], ids=["ragged", "empty", "flat-list", "scalar", "empty-list", "nan-element", "inf-target", "ragged-rows", "list-target", "huge-target",
        "string-target", "bool-target", "bool-element", "mixed-bool", "no-target", "meta-not-object", "task-changes", "key-dropped"])
def test_load_names_the_bad_line(tmp_path, second, message):
    meta = {"task": "digit-sum", "target_kind": "scalar"}
    path = tmp_path / "bad.jsonl"
    good = {"elements": [[0.0, 1.0]], "target": 1.0, "meta": meta}
    with open(path, "w") as f:  # a blank line, so set 1 is on line 3
        f.write(json.dumps(good) + "\n\n" + json.dumps({"meta": meta, **second}) + "\n")
    with pytest.raises(TaskError, match="line 3") as info:
        load_jsonl(str(path))
    assert message in str(info.value)


def test_load_reads_a_boolean_in_meta(tmp_path):
    """Only elements refuse booleans: a line whose ``true`` is in its meta loads."""
    path = tmp_path / "flagged.jsonl"
    meta = {"task": "digit-sum", "target_kind": "scalar", "flagged": True}
    path.write_text(json.dumps({"elements": [[0.0, 1.0]], "target": 1.0, "meta": meta}) + "\n")
    ds = load_jsonl(str(path))
    np.testing.assert_array_equal(ds.batch.elements, [[0.0, 1.0]])
    assert ds.per_set_meta == [{"flagged": True}]


_numbers = st.one_of(st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none())
_nested = st.recursive(_numbers, lambda inner: st.lists(inner, max_size=4), max_leaves=16)
_matrix = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(_numbers, min_size=width, max_size=width), min_size=1, max_size=4))
_line = st.one_of(
    st.fixed_dictionaries({"elements": _matrix | _nested, "target": _numbers | _nested,
                           "meta": st.fixed_dictionaries({}, optional={
                               "task": st.sampled_from(["outlier", "digit-sum", "population"]) | _nested,
                               "target_kind": st.sampled_from(["index", "scalar"]) | _nested})}),
    _nested,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, min_size=0, max_size=4))
def test_load_jsonl_fuzz_loads_a_valid_dataset_or_raises_task_error(objs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.jsonl")
        _write_lines(path, objs)
        try:
            ds = load_jsonl(path)
        except TaskError:
            return
    assert len(ds) == len(objs)
    assert ds.batch.width >= 1 and np.all(ds.batch.segments.sizes >= 1)
    assert np.all(np.isfinite(ds.batch.elements)) and np.all(np.isfinite(ds.targets))
    assert ds.targets.shape == (len(ds),)
    if ds.meta.get("target_kind") == "index":
        assert ds.targets.dtype == np.int64
        assert np.all((ds.targets >= 0) & (ds.targets < ds.batch.segments.sizes))
