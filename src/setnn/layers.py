"""Set architectures: ragged batches, invariant models, equivariant layers.

An invariant model applies a per-element dense stack, pools each set with a
commutative reduction, then applies a second dense stack. Its output depends
only on the multiset of elements, which the test suite verifies behaviorally.

Equivariant layers act on the rows of one set and commute with row
permutations. Two weight-sharing variants are provided:

* ``full-lambda-gamma``: ``sigma(beta + x@Lambda - pool(x)@Gamma)`` with full
  weight matrices, pooling over the set and broadcasting back.
  :meth:`EquivariantLayer.scalar` builds the paper's scalar form
  ``sigma(lam*x + gam*pool(x))`` as this variant with ``Lambda = lam*I``,
  ``Gamma = -gam*I`` and ``beta = 0``; with sum pooling it is exactly the
  tied dense matrix ``Theta = lam*I + gam*ones``.
* ``maxpool-normalized``: ``sigma(beta + (x - pool(x))@Lambda)``, a single
  weight matrix applied after subtracting the per-channel pool (max by
  default; the mean gives the set-centring ``x - mean(x)``).

Both variants are three tape nodes: pool, spread, ``dense``. A
``segment_<pool>`` node pools each set; the pooled rows are spread back over
the set's rows, and one fused ``dense`` applies the layer's weight.
``full-lambda-gamma`` spreads with ``segment_augment`` into
``[x, -pool(x)]``, under the stacked weight ``[Lambda; Gamma]``;
``maxpool-normalized`` spreads with ``segment_center`` into
``x - pool(x)``, under ``Lambda``.

`commutant_dimension` checks the algebra directly: the matrices commuting
with every permutation form a two-dimensional space, the tied family.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from setnn import autodiff as ad
from setnn.autodiff import ShapeError, Tensor

__all__ = [
    "SetBatch",
    "DenseLayer",
    "InvariantModel",
    "EquivariantLayer",
    "EquivariantStack",
    "commutant_dimension",
    "glorot_uniform",
    "random_invariant_model",
    "random_equivariant_stack",
    "model_to_json",
    "model_from_json",
]

NONLINEARITIES = tuple(ad._ACTIVATIONS)


class SetBatch:
    """Ragged batch of sets: flat (total, D) element matrix plus offsets.

    Set ``i`` occupies rows ``offsets[i]:offsets[i+1]``. The offsets (plain or
    an ``autodiff.Segments``) become ``segments`` here, validated once, ending
    at the total row count; the models pass it to every segment primitive.
    """

    def __init__(self, elements, offsets):
        self.elements = np.ascontiguousarray(np.asarray(elements, dtype=np.float64))
        if self.elements.ndim != 2:
            raise ShapeError(f"elements must be (total, D), got {self.elements.shape}")
        self.segments = ad.Segments.of(offsets, self.elements.shape[0])
        self.offsets = self.segments.offsets

    @classmethod
    def from_sets(cls, sets) -> "SetBatch":
        """Pack per-set ``(n_i, D)`` matrices, one row per element.

        The only packer of per-set arrays. A set that is not a matrix, is
        empty, has zero width or differs in width from set 0 raises a
        ShapeError that names it, with its index in ``set_index``.
        """
        mats = [np.asarray(s, dtype=np.float64) for s in sets]
        if not mats:
            raise ShapeError("no sets to pack")
        for i, m in enumerate(mats):
            if m.ndim != 2 or m.size == 0:
                problem = f"must be a non-empty (n, D) matrix with D >= 1, got shape {m.shape}"
            elif m.shape[1] != mats[0].shape[1]:  # set 0 passed the first test
                problem = f"has width {m.shape[1]} but set 0 has width {mats[0].shape[1]}"
            else:
                continue
            err = ShapeError(f"set {i} {problem}")
            err.set_index = i
            raise err
        offsets = np.concatenate([[0], np.cumsum([m.shape[0] for m in mats])])
        return cls(np.concatenate(mats, axis=0), offsets)

    @property
    def num_sets(self) -> int:
        return self.offsets.size - 1

    @property
    def width(self) -> int:
        return self.elements.shape[1]

    def set_at(self, i: int) -> np.ndarray:
        return self.elements[self.offsets[i]:self.offsets[i + 1]]

    def gather(self, indices) -> "SetBatch":
        """The sets at ``indices``, in that order, as a new batch (a copy)."""
        idx = np.asarray(indices, dtype=np.int64)
        segs = ad.Segments(np.concatenate([[0], np.cumsum(self.segments.sizes[idx])]))
        rows = segs.spread(self.segments.starts[idx] - segs.starts) + np.arange(segs.offsets[-1])
        return SetBatch(np.take(self.elements, rows, axis=0), segs)

    def slice(self, lo: int, hi: int) -> "SetBatch":
        """Sets ``lo`` to ``hi - 1`` as a batch sharing this batch's arrays."""
        if not 0 <= lo < hi <= self.num_sets:
            raise ShapeError(f"set range [{lo}, {hi}) is not inside [0, {self.num_sets})")
        first, last = self.offsets[lo], self.offsets[hi]
        return SetBatch(self.elements[first:last], self.offsets[lo:hi + 1] - first)

    def permuted(self, rng: np.random.Generator) -> tuple["SetBatch", np.ndarray]:
        """Independently permute the rows of every set; returns the permuted
        batch and the rows it read, so its elements are ``self.elements[rows]``."""
        segs = self.segments
        rows = np.concatenate([rng.permutation(m) for m in segs.sizes]) + segs.spread(segs.starts)
        return SetBatch(self.elements[rows], segs), rows


class DenseLayer:
    """``sigma(x @ W + b)``, one fused ``dense`` node over the arrays ``W`` and ``b``."""

    def __init__(self, W, b, nonlinearity: str = "linear"):
        if nonlinearity not in NONLINEARITIES:
            raise ShapeError(f"unknown nonlinearity {nonlinearity!r}")
        self.W = Tensor(W)
        self.b = Tensor(b)
        if self.W.data.ndim != 2 or self.b.data.shape != (self.W.data.shape[1],):
            raise ShapeError(f"dense layer wants W (in,out) and b (out,), got {self.W.shape} / {self.b.shape}")
        self.nonlinearity = nonlinearity

    @property
    def in_width(self) -> int:
        return self.W.data.shape[0]

    @property
    def out_width(self) -> int:
        return self.W.data.shape[1]

    def forward(self, x: Tensor) -> Tensor:
        return ad.dense(x, self.W, self.b, self.nonlinearity)

    def params(self) -> list[Tensor]:
        return [self.W, self.b]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def dense_stack(rng: np.random.Generator, widths, nonlinearity: str, final: str = "linear") -> list[DenseLayer]:
    """Dense layers through consecutive widths; the last uses ``final``."""
    layers = []
    for i in range(len(widths) - 1):
        act = nonlinearity if i < len(widths) - 2 else final
        layers.append(DenseLayer(glorot_uniform(rng, widths[i], widths[i + 1]), np.zeros(widths[i + 1]), act))
    return layers


_POOLS = {"sum": ad.segment_sum, "max": ad.segment_max, "mean": ad.segment_mean}


def _check_chain(layers) -> None:
    """Refuse consecutive layers whose widths do not chain."""
    for a, b in zip(layers, layers[1:]):
        if a.out_width != b.in_width:
            raise ShapeError(f"layer widths disagree: {a.out_width} -> {b.in_width}")


class InvariantModel:
    """Per-element dense stack, commutative pooling, then a per-set stack."""

    def __init__(self, phi: list[DenseLayer], pool: str, rho: list[DenseLayer]):
        if pool not in _POOLS:
            raise ShapeError(f"pool must be one of {sorted(_POOLS)}, got {pool!r}")
        self.phi = list(phi)
        self.pool = pool
        self.rho = list(rho)
        # pooling keeps the width, so phi's output feeds rho's input
        _check_chain(self.phi + self.rho)

    def forward(self, batch: SetBatch) -> Tensor:
        if self.phi and batch.width != self.phi[0].in_width:
            raise ShapeError(f"element width {batch.width} != phi input {self.phi[0].in_width}")
        h = Tensor(batch.elements)
        for layer in self.phi:
            h = layer.forward(h)
        out = _POOLS[self.pool](h, batch.segments)
        for layer in self.rho:
            out = layer.forward(out)
        return out

    def params(self) -> list[Tensor]:
        return [p for layer in self.phi + self.rho for p in layer.params()]


class EquivariantLayer:
    """One permutation-equivariant layer; see the module docstring for the
    two variants. ``pool`` selects the cross-element reduction of both
    variants; ``maxpool-normalized`` subtracts it from each row.

    ``dense`` is the :class:`DenseLayer` of the layer's one ``dense`` node,
    held as given: its weight is ``Lambda`` for ``maxpool-normalized`` and the
    stacked ``[Lambda; Gamma]`` for ``full-lambda-gamma``, its bias ``beta``."""

    VARIANTS = ("full-lambda-gamma", "maxpool-normalized")

    def __init__(self, variant: str, dense: DenseLayer, pool: str = "max"):
        if variant not in self.VARIANTS:
            raise ShapeError(f"unknown variant {variant!r}")
        if pool not in _POOLS:
            raise ShapeError(f"pool must be one of {sorted(_POOLS)}, got {pool!r}")
        if variant == "full-lambda-gamma" and dense.in_width % 2:
            raise ShapeError(f"full-lambda-gamma wants a stacked [Lambda; Gamma] weight, got {dense.in_width} rows")
        self.variant = variant
        self.pool = pool
        self.dense = dense

    @classmethod
    def scalar(cls, lam: float, gam: float, width: int, pool: str = "max",
               nonlinearity: str = "tanh") -> "EquivariantLayer":
        """The paper's scalar layer ``sigma(lam*x + gam*pool(x))`` on ``width``
        channels: a ``full-lambda-gamma`` layer with ``Lambda = lam*I``,
        ``Gamma = -gam*I`` and ``beta = 0``. Only its initial weights are tied;
        they train like any other layer's, so a trained layer does not stay
        scalar."""
        dense = DenseLayer(np.kron([[lam], [-gam]], np.eye(width)), np.zeros(width), nonlinearity)
        return cls("full-lambda-gamma", dense, pool)

    @property
    def in_width(self) -> int:
        return self.dense.in_width // (2 if self.variant == "full-lambda-gamma" else 1)

    @property
    def out_width(self) -> int:
        return self.dense.out_width

    def forward(self, x: Tensor, segments) -> Tensor:
        """Apply to a flat (total, D) matrix, pooling within each segment."""
        # maxpool-normalized: sigma(beta + (x - pool(x)) @ Lambda);
        # full-lambda-gamma: sigma(beta + [x, -pool(x)] @ [Lambda; Gamma])
        if x.data.shape[1] != self.in_width:
            raise ShapeError(f"element width {x.data.shape[1]} != layer input {self.in_width}")
        spread = ad.segment_center if self.variant == "maxpool-normalized" else ad.segment_augment
        return self.dense.forward(spread(x, _POOLS[self.pool](x, segments), segments))

    def params(self) -> list[Tensor]:
        return self.dense.params()


class EquivariantStack:
    """Composition of equivariant layers; equivariant end to end."""

    def __init__(self, layers: list[EquivariantLayer]):
        self.layers = list(layers)
        _check_chain(self.layers)

    def forward(self, batch: SetBatch) -> Tensor:
        x = Tensor(batch.elements)
        for layer in self.layers:
            x = layer.forward(x, batch.segments)
        return x

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]


def commutant_dimension(M: int) -> int:
    """Dimension of {A : A P == P A for every permutation matrix P}.

    Solved as a nullspace problem over all transpositions (which generate the
    full permutation group): stack the linear constraints A P - P A = 0 and
    count near-zero singular values.
    """
    if not 2 <= M <= 6:
        raise ShapeError(f"commutant_dimension supports 2 <= M <= 6, got {M}")
    rows = []
    eye = np.eye(M)
    for i, j in itertools.combinations(range(M), 2):
        perm = np.arange(M)
        perm[[i, j]] = perm[[j, i]]
        P = eye[perm]
        # row-major vec(A P - P A) = (I kron P^T - P kron I) vec(A)
        rows.append(np.kron(eye, P.T) - np.kron(P, eye))
    system = np.concatenate(rows, axis=0)
    svals = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(svals < 1e-10))


# --- random model factories (shared by the property battery and tests) -----


def random_invariant_model(rng: np.random.Generator, in_width: int, out_width: int = 1) -> InvariantModel:
    hidden = [int(rng.integers(1, 17)) for _ in range(int(rng.integers(1, 3)))]
    phi_widths = [in_width] + hidden
    act = str(rng.choice(["relu", "tanh"]))
    phi = dense_stack(rng, phi_widths, act, final=act)
    pool = str(rng.choice(["sum", "max", "mean"]))
    rho_widths = [phi_widths[-1]] + [int(rng.integers(1, 17)) for _ in range(int(rng.integers(0, 2)))] + [out_width]
    rho = dense_stack(rng, rho_widths, act)
    # non-zero biases so the models are not accidentally odd/even functions
    for layer in phi + rho:
        layer.b.data[...] = rng.normal(scale=0.1, size=layer.b.data.shape)
    return InvariantModel(phi, pool, rho)


def random_equivariant_stack(rng: np.random.Generator, in_width: int) -> EquivariantStack:
    depth = int(rng.integers(1, 5))
    layers = []
    width = in_width
    for _ in range(depth):
        variant = str(rng.choice(["scalar", *EquivariantLayer.VARIANTS]))
        act = str(rng.choice(["tanh", "relu", "linear"]))
        if variant == "scalar":
            pool = str(rng.choice(["sum", "max", "mean"]))
            layers.append(EquivariantLayer.scalar(float(rng.normal()), float(rng.normal()), width,
                                                  pool=pool, nonlinearity=act))
        else:
            out_w = int(rng.integers(1, 9))
            W = rng.normal(scale=0.5, size=(width, out_w))
            beta = rng.normal(scale=0.1, size=out_w)
            pool = "max"
            if variant == "full-lambda-gamma":
                pool = str(rng.choice(["sum", "max", "mean"]))
                W = np.concatenate([W, rng.normal(scale=0.5, size=(width, out_w))])
            layers.append(EquivariantLayer(variant, DenseLayer(W, beta, act), pool))
            width = out_w
    return EquivariantStack(layers)


# --- JSON serialization -----------------------------------------------------
#
# One JSON document per model: an architecture descriptor plus parameter
# arrays. Floats are emitted with repr semantics, which round-trips binary64
# exactly, so save -> load -> save is byte-identical. Loading is a boundary:
# any malformed document raises a ShapeError or another ValueError. Keys it
# does not read, such as the condition fields of older files, are ignored.


def _dense_to_obj(layer: DenseLayer) -> dict:
    return {"W": layer.W.data.tolist(), "b": layer.b.data.tolist(), "nonlinearity": layer.nonlinearity}


def _field(obj, key: str, kind: type | None = None):
    """``obj[key]``, of type ``kind`` if given; a ShapeError names what is wrong."""
    if not isinstance(obj, dict):
        raise ShapeError(f"model entries must be JSON objects, got {type(obj).__name__}")
    if key not in obj:
        raise ShapeError(f"model entry has no {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ShapeError(f"model field {key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _floats(obj, key: str, ndim: int) -> np.ndarray:
    """``obj[key]`` as a finite float64 array of rank ``ndim``."""
    try:
        arr = np.asarray(_field(obj, key), dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ShapeError(f"model field {key!r} is not numeric: {exc}") from exc
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        raise ShapeError(f"model field {key!r} must be a finite rank-{ndim} array, got shape {arr.shape}")
    return arr


def _dense_from_obj(obj) -> DenseLayer:
    return DenseLayer(_floats(obj, "W", 2), _floats(obj, "b", 1), _field(obj, "nonlinearity", str))


def _equivariant_layer_to_obj(layer: EquivariantLayer) -> dict:
    d = layer.in_width
    obj = {"variant": layer.variant, "pool": layer.pool, "nonlinearity": layer.dense.nonlinearity,
           "Lambda": layer.dense.W.data[:d].tolist(), "beta": layer.dense.b.data.tolist()}
    if layer.variant == "full-lambda-gamma":
        obj["Gamma"] = layer.dense.W.data[d:].tolist()
    return obj


def _equivariant_layer_from_obj(obj) -> EquivariantLayer:
    variant = _field(obj, "variant", str)
    if variant == "scalar-lambda-gamma":
        raise ShapeError("variant 'scalar-lambda-gamma' is not read; write the layer as 'full-lambda-gamma' "
                         "with Lambda = lam*I, Gamma = -gam*I and beta = 0 at its input width")
    W = _floats(obj, "Lambda", 2)
    if variant == "full-lambda-gamma":
        Gamma = _floats(obj, "Gamma", 2)
        if Gamma.shape != W.shape:
            raise ShapeError(f"Gamma's shape {Gamma.shape} differs from Lambda's {W.shape}")
        W = np.concatenate([W, Gamma])
    return EquivariantLayer(variant, DenseLayer(W, _floats(obj, "beta", 1), _field(obj, "nonlinearity", str)),
                            _field(obj, "pool", str))


def model_to_json(model) -> str:
    if isinstance(model, InvariantModel):
        doc = {
            "type": "invariant",
            "pool": model.pool,
            "phi": [_dense_to_obj(l) for l in model.phi],
            "rho": [_dense_to_obj(l) for l in model.rho],
        }
    elif isinstance(model, EquivariantStack):
        doc = {"type": "equivariant_stack", "layers": [_equivariant_layer_to_obj(l) for l in model.layers]}
    else:
        raise ShapeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc, allow_nan=False)


def model_from_json(text: str):
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ShapeError(f"model document is nested too deeply: {exc}") from exc
    model_type = _field(doc, "type")
    if model_type == "invariant":
        return InvariantModel(
            [_dense_from_obj(o) for o in _field(doc, "phi", list)],
            _field(doc, "pool", str),
            [_dense_from_obj(o) for o in _field(doc, "rho", list)],
        )
    if model_type == "equivariant_stack":
        return EquivariantStack([_equivariant_layer_from_obj(o) for o in _field(doc, "layers", list)])
    raise ShapeError(f"unknown model type {model_type!r}")
