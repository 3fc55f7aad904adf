"""The first-maximum kernels against per-set loops kept here as the reference.

`segment_max` (forward and backward), `set_softmax_nll` and the outlier
task's element selection reduce each run of equal-size sets as one block;
these loops are the per-set form they replaced. `segment_max` takes a plain
maximum forward when its input has no zero and finds the first maximum's
rows in its vjp, so both paths are checked, and so is where the rows are
found; training with it and with the loop must write the same bytes.
Max-centering, recorded as `segment_max` then `segment_center`, must also
match the arithmetic of the four tape nodes it once took, with backprop
adding the gradient through the maximum to the direct one. All must agree
bit for bit, sign of zero included, on ragged batches and on long
equal-size runs between ragged sets, with ties and a signed-zero maximum.
"""

import numpy as np
import pytest

from setnn import autodiff as ad
from setnn import train as tr
from setnn.layers import SetBatch, model_to_json
from setnn.tasks import LabeledSetDataset, gen_digit_sum, gen_outlier_sets

# set sizes below 8, at multiples of 8 and between them: the pairwise sum
# behind ndarray.sum works in blocks of 8
SIZES = [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 40, 1, 40, 6, 4]
# long equal-size runs (blocks of many sets) between short ragged ones, a
# large set, and a run of two single-row sets
RUNS = [16] * 40 + [3, 3, 7] + [16] * 8 + [400] + [1, 1] + [5]
LAYOUTS = [SIZES * 4, RUNS]  # SIZES * 4 repeats each ragged size in many short runs
UNIFORM = [16] * 96  # one block, as an outlier batch is


def ref_segment_max(x, off):
    nsets = off.size - 1
    out = np.empty((nsets, x.shape[1]))
    argrows = np.empty((nsets, x.shape[1]), dtype=np.int64)
    for s in range(nsets):
        lo, hi = off[s], off[s + 1]
        seg = x[lo:hi]
        idx = seg.argmax(axis=0)  # first index on ties
        argrows[s] = lo + idx
        out[s] = seg[idx, np.arange(x.shape[1])]
    return out, argrows


def ref_segment_max_grad(g, x, off, argrows):
    gx = np.zeros_like(x)
    cols = np.arange(gx.shape[1])
    for s in range(off.size - 1):
        gx[argrows[s], cols] += g[s]
    return gx


def ref_segment_max_primitive(xs, attrs):
    """``segment_max`` as the per-set loops above, in the registry's form."""
    (x,) = xs
    off = attrs["offsets"].offsets  # training passes each batch's Segments
    out, argrows = ref_segment_max(x, off)
    return out, lambda g, needs: (ref_segment_max_grad(g, x, off, argrows),)


def ref_set_softmax_nll(flat, off, targets):
    nsets = off.size - 1
    probs = np.empty_like(flat)
    nll = 0.0
    for s in range(nsets):
        lo, hi = off[s], off[s + 1]
        seg = flat[lo:hi]
        z = seg - seg.max()
        e = np.exp(z)
        p = e / e.sum()
        probs[lo:hi] = p
        nll -= np.log(p[targets[s]])
    gx = probs.copy()
    gx[off[:-1] + targets] -= 1.0
    gx *= 1.0 / nsets
    return np.asarray(nll / nsets), probs, gx


def selections(model, dataset):
    """The picks ``evaluate`` scores an outlier model by."""
    return tr._metric_input(True, tr._column(model, dataset, True), dataset.batch.segments)


def ref_selections(model, dataset):
    picks = np.empty(len(dataset), dtype=np.int64)
    for lo, hi in tr._eval_slices(dataset.batch.offsets):
        batch = dataset.to_set_batch(slice(lo, hi))
        scores = tr._output(True, model, batch).data.reshape(-1)
        for j in range(batch.num_sets):
            seg = scores[batch.offsets[j]:batch.offsets[j + 1]]
            picks[lo + j] = int(np.argmax(seg))
    return picks


def chain_center(x, off, g):
    """``x - maxpool(x)`` and its gradient for the upstream gradient ``g`` as
    the nodes segment_max -> segment_broadcast -> scale by -1 -> add computed
    them, summed into the gradient of ``x`` in backprop's order. The scaling
    and the add are inlined here in numpy, in the same order."""
    prim = ad._PRIMITIVES
    attrs = {"offsets": tuple(off.tolist())}
    top, max_vjp = prim["segment_max"]((x,), attrs)
    spread, spread_vjp = prim["segment_broadcast"]((top,), attrs)
    neg = -1.0 * spread
    out = x + neg
    gx, gneg = g, g
    gspread = -1.0 * gneg
    (gtop,) = spread_vjp(gspread, (True,))
    (gmax,) = max_vjp(gtop, (True,))
    return out, gx + gmax


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def ragged(seed, width, sizes):
    """Integer-valued entries (so ties are common) in sets of the given
    sizes; set 2 has a -0.0 maximum ahead of a 0.0 one, set 3 a 0.0 ahead
    of a -0.0."""
    rng = np.random.default_rng(seed)
    off = np.concatenate([[0], np.cumsum(sizes)])
    x = rng.integers(-3, 4, size=(off[-1], width)).astype(np.float64)
    for s, first in ((2, -0.0), (3, 0.0)):
        lo, hi = off[s], off[s + 1]
        x[lo:hi] = -rng.integers(1, 4, size=(hi - lo, width))
        x[lo + 1] = first
        x[hi - 1] = -first
    return x, off


def relu_like(seed, width, sizes):
    """ReLU outputs with integer ties: mostly zeros of both signs, and about
    40% of each set's columns nothing but zeros, whose maximum is the first
    zero, -0.0 or 0.0."""
    rng = np.random.default_rng(seed)
    off = np.concatenate([[0], np.cumsum(sizes)])
    x = np.maximum(rng.integers(-4, 3, size=(off[-1], width)), 0).astype(np.float64)
    x[np.repeat(rng.random((len(sizes), width)) < 0.4, sizes, axis=0)] = 0.0
    x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    return x, off


def count_argmax(monkeypatch):
    """The shapes ``ad.Segments.argmax`` is called with from now on."""
    calls = []
    original = ad.Segments.argmax

    def counting(segs, x):
        calls.append(x.shape)
        return original(segs, x)
    monkeypatch.setattr(ad.Segments, "argmax", counting)
    return calls


def upstream(seed, shape):
    """A gradient with inexact entries, so sums round, and with zeros of
    both signs."""
    rng = np.random.default_rng(seed + 10)
    g = rng.integers(-2, 3, size=shape) * 0.1
    g[(g == 0) & (rng.random(shape) < 0.5)] = -0.0
    return g


@pytest.mark.parametrize("width", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_max_matches_the_per_set_loop(width, seed):
    for sizes in LAYOUTS:
        x, off = ragged(seed, width, sizes)
        out, vjp = ad._PRIMITIVES["segment_max"]((x,), {"offsets": tuple(off.tolist())})
        ref_out, argrows = ref_segment_max(x, off)
        assert same_bits(out, ref_out)
        assert np.signbit(out[2]).all() and not np.signbit(out[3]).any()
        rng = np.random.default_rng(seed + 10)
        g = rng.integers(-2, 3, size=out.shape).astype(np.float64)
        g[g == 0] = -0.0
        (gx,) = vjp(g, (True,))
        assert same_bits(gx, ref_segment_max_grad(g, x, off, argrows))
        assert not np.signbit(gx[gx == 0]).any()


@pytest.mark.parametrize("zeros", [True, False], ids=["relu", "no-zero"])
@pytest.mark.parametrize("width", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_max_finds_the_first_maximum_rows_once(zeros, width, seed, monkeypatch):
    """An input with a zero takes the first maximum's rows in the forward
    pass and hands them to the vjp; one with none (here with integer ties)
    takes a plain maximum, and the vjp finds the rows."""
    calls = count_argmax(monkeypatch)
    for sizes in [UNIFORM, *LAYOUTS]:
        if zeros:
            x, off = relu_like(seed, width, sizes)
        else:
            x, off = ragged(seed, width, sizes)
            x[x == 0] = 0.5
        out, vjp = ad._PRIMITIVES["segment_max"]((x,), {"offsets": tuple(off.tolist())})
        assert len(calls) == zeros
        ref_out, argrows = ref_segment_max(x, off)
        assert same_bits(out, ref_out)
        if zeros:
            zero = ref_out == 0
            assert zero.mean() >= 0.3
            assert np.signbit(ref_out[zero]).any() and not np.signbit(ref_out[zero]).all()
        g = upstream(seed, out.shape)
        (gx,) = vjp(g, (True,))
        assert len(calls) == 1
        assert same_bits(gx, ref_segment_max_grad(g, x, off, argrows))
        calls.clear()


def test_evaluate_finds_first_maxima_only_for_the_selection(monkeypatch):
    ds = gen_outlier_sets(128, seed=31)
    model, _ = tr.train(tr.TrainConfig(task="outlier", epochs=1, batch_size=64, seed=32), ds)
    calls = count_argmax(monkeypatch)
    tr.evaluate(model, ds, "outlier")
    assert calls == [(len(ds.batch.elements), 1)]


def test_a_training_step_finds_first_maxima_in_backward_only(monkeypatch):
    """The pooled baseline max-pools the raw Gaussian elements, which hold no
    zero, so its forward pass takes a plain maximum. The data needs no
    gradient, so a training step's backprop does not sweep the pool and finds
    no rows either; a pool whose input needs a gradient finds them in
    backward, once."""
    ds = gen_outlier_sets(64, seed=33)
    cfg = tr.TrainConfig(task="outlier", pooled_baseline=True)
    model = tr.build_model(cfg, ds.element_dim, np.random.default_rng(34))
    calls = count_argmax(monkeypatch)
    with ad.Tape() as tape:
        loss, _ = tr._batch_loss(cfg, model, ds.to_set_batch(), ds.targets)
    assert sum(node.kind == "segment_max" for node in tape.nodes) == 1
    ad.backprop(tape, loss, model.params())
    assert calls == []

    x = ad.Tensor(ds.batch.elements)
    with ad.Tape() as tape:
        pooled = ad.segment_max(x, ds.batch.segments)
        loss = ad.mse_loss(pooled, ad.Tensor(np.zeros(pooled.shape)))
    assert calls == []
    ad.backprop(tape, loss, [x])
    assert len(calls) == 1


@pytest.mark.parametrize("make, cfg", [
    (lambda: gen_outlier_sets(192, seed=41),
     tr.TrainConfig(task="outlier", pooled_baseline=True, epochs=3, batch_size=64, seed=42)),
    (lambda: gen_digit_sum(256, 10, None, seed=43),
     tr.TrainConfig(task="digit-sum", pool="max", epochs=3, batch_size=32, seed=44)),
], ids=["pooled-baseline", "relu-max-pool"])
def test_training_matches_the_per_set_loop_bit_for_bit(make, cfg, monkeypatch):
    """Model and metrics bytes of training with the shipped segment_max and
    with the per-set loop. Both runs use the same BLAS, so unlike the CLI's
    golden hashes this holds on any machine. Each case must record
    segment_max, or the comparison would hold vacuously."""
    ds = make()
    model, records = tr.train(cfg, ds)
    calls = []
    monkeypatch.setitem(ad._PRIMITIVES, "segment_max",
                        lambda xs, attrs: calls.append(1) or ref_segment_max_primitive(xs, attrs))
    ref_model, ref_records = tr.train(cfg, ds)
    assert calls
    assert model_to_json(model) == model_to_json(ref_model)
    assert tr.metrics_to_csv(records) == tr.metrics_to_csv(ref_records)


def _probe(g):
    """A scalar loss primitive whose vjp hands ``g`` on unchanged, so
    backprop starts from exactly that upstream gradient."""
    return lambda xs, attrs: (np.asarray(float(np.sum(xs[0] * g))), lambda gout, needs: (gout * g,))


@pytest.mark.parametrize("width", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_center_matches_the_four_node_chain(width, seed, monkeypatch):
    for sizes in LAYOUTS:
        x, off = ragged(seed, width, sizes)
        g = upstream(seed, x.shape)
        monkeypatch.setitem(ad._PRIMITIVES, "probe", _probe(g))
        leaf = ad.Tensor(x)
        with ad.Tape() as tape:
            centered = ad.segment_center(leaf, ad.segment_max(leaf, off), off)
            loss = ad.apply_primitive("probe", (centered,))
        assert [n.kind for n in tape.nodes] == ["leaf", "segment_max", "segment_center", "probe"]
        out = centered.data
        (gx,) = ad.backprop(tape, loss, [leaf])
        chain_out, chain_gx = chain_center(x, off, g)
        assert same_bits(out, chain_out)
        assert same_bits(gx, chain_gx)
        # and the per-set loop with the chain's arithmetic
        top, argrows = ref_segment_max(x, off)
        assert same_bits(out, x + -1.0 * np.repeat(top, np.diff(off), axis=0))
        sums = np.array([(-1.0 * g[lo:hi]).sum(axis=0) for lo, hi in zip(off[:-1], off[1:])])
        assert same_bits(gx, g + ref_segment_max_grad(sums, x, off, argrows))


@pytest.mark.parametrize("shape", ["flat", "column"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_set_softmax_nll_matches_the_per_set_loop(shape, seed):
    for sizes in LAYOUTS:
        x, off = ragged(seed, 1, sizes)
        flat = x[:, 0]
        scores = flat if shape == "flat" else x
        targets = np.random.default_rng(seed + 20).integers(0, np.diff(off))
        attrs = {"offsets": tuple(off.tolist()), "targets": tuple(targets.tolist())}
        value, vjp = ad._PRIMITIVES["set_softmax_nll"]((scores,), attrs)
        (gx,) = vjp(np.asarray(1.0), (True,))
        ref_value, ref_probs, ref_gx = ref_set_softmax_nll(flat, off, targets)
        assert same_bits(value, ref_value)
        assert same_bits(gx, ref_gx.reshape(scores.shape))
        # at g = nsets the gradient is probs - onehot, unscaled, so it pins
        # the probabilities themselves
        (unscaled,) = vjp(np.asarray(float(off.size - 1)), (True,))
        onehot = np.zeros_like(flat)
        onehot[off[:-1] + targets] = 1.0
        assert same_bits(unscaled.reshape(-1), ref_probs - onehot)


def test_selections_match_the_per_set_loop(monkeypatch):
    for sizes in (SIZES * 12, RUNS * 3):
        x, off = ragged(3, 2, sizes)
        targets = np.zeros(off.size - 1, dtype=np.int64)
        ds = LabeledSetDataset(SetBatch(x, off), targets, {"task": "outlier", "target_kind": "index"})
        assert len(list(tr._eval_slices(off))) > 1
        for cfg in (tr.TrainConfig(task="outlier"), tr.TrainConfig(task="outlier", pooled_baseline=True)):
            model = tr.build_model(cfg, 2, np.random.default_rng(4))
            assert np.array_equal(selections(model, ds), ref_selections(model, ds))
        # the first coordinate as the score: integer ties and a signed-zero maximum
        with monkeypatch.context() as m:
            m.setattr(tr, "_output", lambda selects, model, batch: ad.Tensor(batch.elements[:, :1]))
            picks = selections(None, ds)
            assert np.array_equal(picks, ref_selections(None, ds))
        assert picks[2] == 1 and picks[3] == 1


def test_run_block_row_sums_add_as_one_dimensional_sums():
    """The set softmax divides by row sums of (sets, size) blocks in place of
    one ndarray.sum per set; both add pairwise in the same order."""
    rng = np.random.default_rng(5)
    for size in [*range(1, 300), 400, 1000, 8193]:
        e = np.exp(rng.normal(size=(3, size)))
        assert same_bits(e.sum(axis=1), [row.sum() for row in e]), size
