"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every differentiable computation runs through :func:`apply_primitive`, which
evaluates a primitive eagerly and, when a :class:`Tape` is active, records a
node (and a leaf node for each input not yet on that tape). Without an active
tape the same calls are plain eager numpy evaluation. ``backprop(tape, loss,
wrt)`` sweeps the tape in reverse and returns one gradient array per tensor in
``wrt``, in order; the caller never handles node ids. It computes only the
gradients that ``wrt`` depends on: a node's vjp runs only if the node reads,
directly or not, a tensor of ``wrt``.

Each primitive is one function ``(arrays, attrs) -> (out, vjp)``: it checks
its inputs, computes ``out``, and returns with it a closure ``vjp(g, needs)``
that maps the gradient ``g`` of ``out`` to one gradient per input, holding
only the arrays that needs. ``needs`` holds one bool per input; where it is
False the vjp may return ``None`` in that input's place. ``g`` belongs to the
vjp, which may overwrite it and may pass it on as the gradient of at most one
input. A tape node keeps its kind, its input node ids, that ``vjp`` and
``out``; ``backprop`` calls ``node.vjp(g, needs)``.

The primitive set is intentionally small: a fused dense layer (matmul, bias
and activation in one node), the only affine map or activation on the tape;
segment pooling over ragged batches, whose layout is one validated
:class:`Segments` passed as the ``offsets`` attr, and three ways to spread a
pooled row back over its segment (repeat it, subtract it as ``x - pooled``,
or append its negation as ``[x, -pooled]``); and the two loss heads used in
training. Only ``Segments.spread``, ``sums``, ``max`` and ``argmax`` read
which rows a segment holds. A pooled row comes from its own pooling node, so
the gradient through the pool reaches ``x`` by backprop's sum rule. All arrays
are float64; any primitive producing a NaN/Inf raises at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Segments",
    "Tape",
    "apply_primitive",
    "backprop",
    "grad_check",
    "AutodiffError",
    "ShapeError",
    "UnknownPrimitiveError",
    "NonFiniteError",
    "NonDeterministicError",
    "PRIMITIVE_KINDS",
]


class AutodiffError(ValueError):
    """Base class for tape/primitive errors."""


class ShapeError(AutodiffError):
    pass


class UnknownPrimitiveError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    """A primitive produced NaN or Inf, which is an error state."""


class NonDeterministicError(AutodiffError):
    """grad_check evaluated the target twice and got different results."""


class Tensor:
    """Dense float64 array, optionally attached to the active tape.

    `node_id` is only meaningful together with `tape`; a tensor re-used under
    a new tape is recorded as a fresh leaf there.
    """

    __slots__ = ("data", "node_id", "tape")

    def __init__(self, data):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.node_id: int | None = None
        self.tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class _Node:
    __slots__ = ("kind", "inputs", "vjp", "out_data")

    def __init__(self, kind, inputs, vjp, out_data):
        self.kind = kind
        self.inputs = inputs        # node ids of inputs, all < own id
        self.vjp = vjp              # (output gradient, needs) -> one gradient per input; None on a leaf
        self.out_data = out_data    # a leaf keeps its tensor's own data


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Append-only record of one computation, used as a context manager.

    Nodes are stored in the order they were created, so every node's inputs
    precede it and the reverse sweep in :func:`backprop` is a valid
    topological order.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must be exited in LIFO order"

    def _node_id(self, t: Tensor) -> int:
        """``t``'s node on this tape, recorded as a leaf if it has none yet."""
        if t.tape is not self:
            self.nodes.append(_Node("leaf", (), None, t.data))
            t.node_id = len(self.nodes) - 1
            t.tape = self
        return t.node_id


# ---------------------------------------------------------------------------
# Primitive registry: kind -> primitive(arrays, attrs) -> (out_array, vjp).
#
# vjp(grad_out, needs) returns one gradient per input array, in input order,
# or None where needs is False, and closes over only what it reads. It owns
# grad_out: it may overwrite it, or return it as one input's gradient.
# ---------------------------------------------------------------------------


def _tanh_backward(g, out):
    # (1 - out**2) * g in one temporary, not g's buffer; the same bits as
    # g * (1 - out**2), since multiplication commutes
    t = out * out
    np.subtract(1.0, t, out=t)
    t *= g
    return t


# Activations of ``dense``. Each forward overwrites its argument and returns
# it; each backward scales the incoming gradient, which the vjp owns, using
# the activation's output alone. The keys, in order, are
# ``layers.NONLINEARITIES``.
_ACTIVATIONS = {
    # derivative at exactly 0 is 0; in place, the same bits as g * (out > 0.0)
    "relu": (lambda out: np.maximum(out, 0.0, out=out), lambda g, out: np.multiply(g, out > 0.0, out=g)),
    "tanh": (lambda out: np.tanh(out, out=out), _tanh_backward),
    "linear": (lambda out: out, lambda g, out: g),
}


def _dense(xs, attrs):
    x, W, b = xs
    if x.ndim != 2 or W.ndim != 2 or x.shape[1] != W.shape[0] or b.shape != (W.shape[1],):
        raise ShapeError(f"dense wants x (N,K), W (K,P), b (P,), got {x.shape}, {W.shape}, {b.shape}")
    act = attrs["act"]
    if act not in _ACTIVATIONS:
        raise UnknownPrimitiveError(f"unknown activation {act!r}")
    forward, backward = _ACTIVATIONS[act]
    out = x @ W
    out += b
    # Every activation maps finite values to finite values, so this one check
    # on the pre-activation stands in for the output check apply_primitive
    # skips for dense. It also catches a -inf that relu would turn into 0.
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("primitive 'dense' produced non-finite values")
    out = forward(out)

    def vjp(g, needs):
        g = backward(g, out)
        return (g @ W.T if needs[0] else None,
                x.T @ g if needs[1] else None,
                g.sum(axis=0) if needs[2] else None)
    return out, vjp


def _mse_loss(xs, attrs):
    p, t = xs
    if p.shape != t.shape:
        raise ShapeError(f"mse_loss shapes disagree: {p.shape} vs {t.shape}")
    d = p - t

    def vjp(g, needs):
        gp = (2.0 / d.size) * d * g
        return gp, (-gp if needs[1] else None)
    return np.asarray((d * d).mean()), vjp


class Segments:
    """A ragged batch's validated layout, and the only code that turns it into
    rows: segment ``i`` is rows ``offsets[i]:offsets[i+1]``, from ``starts[i]``;
    offsets are 1-D integers from 0, strictly increasing. ``spread`` repeats a
    row per segment over its rows; ``sums``, ``max`` and ``argmax`` reduce one
    block per maximal run of equal-size segments. Its arrays are read-only.
    """

    def __init__(self, offsets):
        off = np.asarray(offsets)
        if off.dtype.kind not in "iu" or off.ndim != 1 or off.size < 2 or off[0] != 0:
            raise ShapeError(f"offsets must be a 1-D integer array from 0, got {off.tolist()!r}")
        self.offsets = off = off.astype(np.int64)  # a copy; a uint64 past int64 turns negative
        self.sizes = sizes = np.diff(off)
        if np.any(sizes <= 0):
            raise ShapeError("offsets must be strictly increasing (no empty segments)")
        off.flags.writeable = sizes.flags.writeable = False
        self.starts = off[:-1]  # a view of read-only offsets, so read-only too
        cut = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), sizes.size]
        self._runs = [(off[a], off[b], b - a, sizes[a]) for a, b in zip(cut[:-1], cut[1:])]

    @classmethod
    def of(cls, offsets, rows: int | None = None) -> "Segments":
        """``offsets`` as a Segments, refused unless it spans ``rows`` rows, if given."""
        segs = offsets if isinstance(offsets, cls) else cls(offsets)
        if rows is not None and segs.offsets[-1] != rows:
            raise ShapeError(f"offsets span {segs.offsets[-1]} rows, but the input has {rows}")
        return segs

    def _blocks(self, x):
        """``x`` as one ``(segments, size, ...)`` view per maximal run of equal sizes."""
        return [x[lo:hi].reshape(n, m, *x.shape[1:]) for lo, hi, n, m in self._runs]

    def spread(self, rows):
        """Each segment's row of ``rows`` repeated over that segment's rows."""
        return np.repeat(rows, self.sizes, axis=0)

    def sums(self, x):
        """Each segment's sum of the rows of ``x``, one row sum per run block."""
        return np.concatenate([block.sum(axis=1) for block in self._blocks(x)])

    def max(self, x):
        """Each segment's maximum of the rows of ``x``, one ``max`` per run block."""
        return np.concatenate([block.max(axis=1) for block in self._blocks(x)])

    def argmax(self, x):
        """Row of each segment's first maximum of finite ``x``, per column: the
        lowest row equal to the maximum (``-0.0 == 0.0``), as ``argmax`` breaks
        ties. Max pooling uses it in its vjp, and in its forward pass when the
        input has a zero; outlier selection uses it."""
        local = np.concatenate([block.argmax(axis=1) for block in self._blocks(x)])
        return local + self.starts.reshape(-1, *(1,) * (x.ndim - 1))


def _set_softmax_nll(xs, attrs):
    (scores,) = xs
    flat = scores.reshape(-1) if scores.ndim == 2 and scores.shape[1] == 1 else scores
    if flat.ndim != 1:
        raise ShapeError(f"set_softmax_nll expects (total,) or (total,1) scores, got {scores.shape}")
    segs = Segments.of(attrs["offsets"], flat.shape[0])
    targets = np.asarray(attrs["targets"])
    nsets = segs.sizes.size
    if targets.dtype.kind not in "iu" or targets.shape != (nsets,):
        raise ShapeError(f"need one integer target per set, got {targets.dtype} {targets.shape} for {nsets} sets")
    targets = targets.astype(np.int64)
    bad = np.flatnonzero((targets < 0) | (targets >= segs.sizes))
    if bad.size:
        raise ShapeError(f"target {targets[bad[0]]} out of range for set {bad[0]} of size {segs.sizes[bad[0]]}")
    e = np.exp(flat - segs.spread(segs.max(flat)))
    probs = e / segs.spread(segs.sums(e))
    picked = segs.starts + targets
    nll = sum(-np.log(probs[picked]))  # in set order, from 0

    def vjp(g, needs):
        gx = probs.copy()
        gx[picked] -= 1.0
        gx *= g / nsets
        return (gx.reshape(scores.shape),)
    return np.asarray(nll / nsets), vjp


def _segment_input(xs, attrs):
    """``(x, segs)``: the first input, a ``(total, H)`` matrix, and the Segments
    of its rows; a second input must hold one ``(H,)`` row per segment."""
    x = xs[0]
    if x.ndim != 2:
        raise ShapeError(f"segment ops expect a (total, H) matrix, got {x.shape}")
    segs = Segments.of(attrs["offsets"], x.shape[0])
    if len(xs) > 1 and xs[1].shape != (segs.sizes.size, x.shape[1]):
        raise ShapeError(f"segment ops want one ({x.shape[1]},) pooled row per segment, got {xs[1].shape}")
    return x, segs


def _segment_sum(xs, attrs):
    x, segs = _segment_input(xs, attrs)
    return segs.sums(x), lambda g, needs: (segs.spread(g),)


def _segment_mean(xs, attrs):
    x, segs = _segment_input(xs, attrs)
    return segs.sums(x) / segs.sizes[:, None], lambda g, needs: (segs.spread(g / segs.sizes[:, None]),)


def _segment_max(xs, attrs):
    x, segs = _segment_input(xs, attrs)
    if x.all():
        # with no zero there is no -0.0/0.0 tie, so the maximum has the first
        # maximum's bits; the vjp alone needs its rows, and finds them itself
        argrows = None
        out = segs.max(x)
    else:
        # with a zero, not segs.max: of [-0.0, 0.0] it gives 0.0, not the first -0.0
        argrows = segs.argmax(x)
        out = np.take_along_axis(x, argrows, axis=0)

    def vjp(g, needs):
        rows = segs.argmax(x) if argrows is None else argrows
        gx = np.zeros_like(x)
        gx[rows, np.arange(gx.shape[1])] += g  # += on zeros: a -0.0 gradient lands as +0.0
        return (gx,)
    return out, vjp


def _segment_center(xs, attrs):
    x, segs = _segment_input(xs, attrs)
    return x - segs.spread(xs[1]), lambda g, needs: (g, -segs.sums(g))


def _segment_broadcast(xs, attrs):
    (x,) = xs
    segs = Segments.of(attrs["offsets"])
    if x.ndim != 2 or x.shape[0] != segs.sizes.size:
        raise ShapeError(f"segment_broadcast expects one row per segment, got {x.shape} for {segs.sizes.size} segments")
    return segs.spread(x), lambda g, needs: (segs.sums(g),)


def _segment_augment(xs, attrs):
    x, segs = _segment_input(xs, attrs)
    d = x.shape[1]
    return (np.concatenate([x, -segs.spread(xs[1])], axis=1),
            lambda g, needs: (g[:, :d], -segs.sums(g[:, d:])))


_PRIMITIVES = {
    "dense": _dense,
    "mse_loss": _mse_loss,
    "set_softmax_nll": _set_softmax_nll,
    "segment_sum": _segment_sum,
    "segment_mean": _segment_mean,
    "segment_max": _segment_max,
    "segment_center": _segment_center,
    "segment_broadcast": _segment_broadcast,
    "segment_augment": _segment_augment,
}

PRIMITIVE_KINDS = tuple(sorted(_PRIMITIVES))


def apply_primitive(kind: str, inputs: tuple[Tensor, ...] | list[Tensor], attrs: dict | None = None) -> Tensor:
    """Evaluate one primitive and record it on the active tape, if any.

    Raises ShapeError for non-conforming inputs, UnknownPrimitiveError for an
    unregistered kind, and NonFiniteError if the result contains NaN/Inf.
    """
    if kind not in _PRIMITIVES:
        raise UnknownPrimitiveError(f"unknown primitive kind {kind!r}")
    out, vjp = _PRIMITIVES[kind](tuple(t.data for t in inputs), attrs or {})
    out = np.asarray(out, dtype=np.float64)
    # dense checks its pre-activation instead (see _dense)
    if kind != "dense" and not np.all(np.isfinite(out)):
        raise NonFiniteError(f"primitive {kind!r} produced non-finite values")
    result = Tensor.__new__(Tensor)
    result.data = out
    result.node_id = None
    result.tape = None
    if _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        ids = tuple(tape._node_id(t) for t in inputs)
        tape.nodes.append(_Node(kind, ids, vjp, out))
        result.node_id = len(tape.nodes) - 1
        result.tape = tape
    return result


def backprop(tape: Tape, loss: Tensor, wrt: list[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar ``loss`` with respect to each tensor in ``wrt``.

    Returns one float64 array per tensor of ``wrt``, in order, shaped like it.
    A tensor the loss does not reach, or that is not on ``tape``, gets zeros.
    The gradient of a tensor shared by several consumers (e.g. a weight applied
    to every element of a set, or a layer input that is both pooled and
    spread) accumulates one contribution per use. Other intermediate
    gradients are dropped as soon as they have been propagated.

    Only what ``wrt`` depends on is computed. Before the sweep, a node is
    marked as needing a gradient if it is in ``wrt``, or if it is not a leaf
    and one of its inputs needs one. A node is swept only if one of its inputs
    is marked, and its ``vjp(g, needs)`` gets one bool per input saying which;
    where one is False the vjp may return None, and backprop skips it. The
    ``g`` a vjp receives is its own, to overwrite or to pass on as the
    gradient of at most one input: backprop pops it, or, for a node in
    ``wrt``, hands over a copy and keeps the original to return.
    Raises AutodiffError if ``loss`` is not on ``tape`` and NonFiniteError if
    a returned gradient holds NaN or Inf.
    """
    if loss.tape is not tape:
        raise AutodiffError("loss node is not on this tape")
    if loss.data.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    wanted = {t.node_id for t in wrt if t.tape is tape}
    need = []
    for nid in range(loss.node_id + 1):
        need.append(nid in wanted or any(need[i] for i in tape.nodes[nid].inputs))

    grads: dict[int, np.ndarray] = {loss.node_id: np.asarray(1.0)}
    for nid in range(loss.node_id, -1, -1):
        node = tape.nodes[nid]
        if nid not in grads:
            continue
        needs = tuple(need[i] for i in node.inputs)
        if not any(needs):  # a leaf, or a node that reads only what needs no gradient
            continue
        g = grads[nid].copy() if nid in wanted else grads.pop(nid)
        for iid, needed, ig in zip(node.inputs, needs, node.vjp(g, needs)):
            if not needed:
                continue
            grads[iid] = grads[iid] + ig if iid in grads else ig

    out = []
    for t in wrt:
        g = grads.get(t.node_id) if t.tape is tape else None
        if g is None:
            g = np.zeros_like(t.data)
        elif g.shape != t.shape:
            raise ShapeError(f"gradient shape {g.shape} != tensor shape {t.shape}")
        elif not np.all(np.isfinite(g)):
            raise NonFiniteError("backprop produced a non-finite gradient")
        out.append(g)
    return out


def grad_check(f, params: list[Tensor], step: float = 1e-5, seed: int = 0) -> float:
    """Compare backprop gradients of ``f(params)`` with central differences.

    ``f`` must build a scalar from the given parameter tensors using
    primitives only, deterministically; it is evaluated twice up front and a
    bitwise mismatch raises NonDeterministicError. Returns the maximum of
    ``|analytic - numeric| / max(1, |analytic|)`` over every coordinate of a
    tensor with at most 10 entries and 10 sampled coordinates of a larger one.
    """
    if not 0.0 < step <= 1e-2:
        raise AutodiffError(f"step must lie in (0, 1e-2], got {step}")

    def value() -> float:
        out = f(params)
        if out.data.shape != ():
            raise ShapeError("grad_check target must be scalar")
        return float(out.data)

    if value() != value():
        raise NonDeterministicError("two evaluations of f at the same point differ")

    with Tape() as tape:
        analytic = backprop(tape, f(params), params)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= 10 else rng.choice(n, size=10, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            up = value()
            flat[c] = orig - step
            down = value()
            flat[c] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(gflat[c] - numeric) / max(1.0, abs(gflat[c]))
            if err > worst:
                worst = err
    return worst


# Functional aliases used throughout the model code.

def dense(x: Tensor, W: Tensor, b: Tensor, act: str) -> Tensor:
    """``act(x @ W + b)`` as one tape node."""
    return apply_primitive("dense", (x, W, b), {"act": act})


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    return apply_primitive("mse_loss", (pred, target))


def set_softmax_nll(scores: Tensor, offsets, targets) -> Tensor:
    return apply_primitive("set_softmax_nll", (scores,), {"offsets": offsets, "targets": targets})


def segment_sum(x: Tensor, offsets) -> Tensor:
    return apply_primitive("segment_sum", (x,), {"offsets": offsets})


def segment_mean(x: Tensor, offsets) -> Tensor:
    return apply_primitive("segment_mean", (x,), {"offsets": offsets})


def segment_max(x: Tensor, offsets) -> Tensor:
    return apply_primitive("segment_max", (x,), {"offsets": offsets})


def segment_center(x: Tensor, pooled: Tensor, offsets) -> Tensor:
    """``x`` minus its segment's row of ``pooled``, per row, as one tape node."""
    return apply_primitive("segment_center", (x, pooled), {"offsets": offsets})


def segment_broadcast(x: Tensor, offsets) -> Tensor:
    return apply_primitive("segment_broadcast", (x,), {"offsets": offsets})


def segment_augment(x: Tensor, pooled: Tensor, offsets) -> Tensor:
    """``[x, -pooled]`` with each segment's row of ``pooled`` repeated over its
    rows: the input of an equivariant layer's affine map, as one tape node."""
    return apply_primitive("segment_augment", (x, pooled), {"offsets": offsets})
