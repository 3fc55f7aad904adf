"""Set architectures: ragged batches, invariant models, equivariant layers.

An invariant model applies a per-element dense stack, pools each set with a
commutative reduction, then applies a second dense stack. Its output depends
only on the multiset of elements, which the test suite verifies behaviorally.

Equivariant layers act on the rows of one set and commute with row
permutations. Three weight-sharing variants are provided:

* ``scalar-lambda-gamma``: ``sigma(lam*x + gam*pool(x))`` with scalar
  coefficients; with sum pooling this is exactly the tied dense matrix
  ``Theta = lam*I + gam*ones`` materialized by :func:`build_theta`.
* ``full-lambda-gamma``: ``sigma(beta + x@Lambda - pool(x)@Gamma)`` with full
  weight matrices, pooling over the set and broadcasting back.
* ``maxpool-normalized``: ``sigma(beta + (x - maxpool(x))@Lambda)``, a single
  weight matrix applied after subtracting the per-channel max.

Every variant is three tape nodes: pool, spread, ``dense``. A
``segment_<pool>`` node pools each set; the pooled rows are spread back over
the set's rows, and one fused ``dense`` applies the layer's weight. The two
lambda-gamma forms spread with ``segment_augment`` into ``[x, -pool(x)]``,
under the stacked weight ``[Lambda; Gamma]`` (``[lam*I; -gam*I]`` for the
scalar form); ``maxpool-normalized`` spreads with ``segment_center`` into
``x - pool(x)``, under ``Lambda``.

`commutes_with_all_permutations` and `commutant_dimension` check the algebra
directly: the tied two-parameter family is precisely the space of matrices
commuting with every permutation.
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
    "build_theta",
    "commutes_with_all_permutations",
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

    Set ``i`` occupies rows ``offsets[i]:offsets[i+1]``. Offsets must start at
    0, end at the total row count, and be strictly increasing; empty sets are
    rejected.
    """

    def __init__(self, elements, offsets):
        self.elements = np.ascontiguousarray(np.asarray(elements, dtype=np.float64))
        if self.elements.ndim != 2:
            raise ShapeError(f"elements must be (total, D), got {self.elements.shape}")
        self.offsets = ad._check_offsets(offsets, self.elements.shape[0])

    @classmethod
    def from_sets(cls, sets) -> "SetBatch":
        """Pack per-set ``(n_i, D)`` arrays (a 1-D array is one element).

        The only packer of per-set arrays. A set that is empty, has zero
        width or differs in width from set 0 raises a ShapeError that names
        it; its index is also in the error's ``set_index``.
        """
        mats = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sets]
        if not mats:
            raise ShapeError("no sets to pack")
        width = mats[0].shape[-1]
        for i, m in enumerate(mats):
            if m.ndim != 2 or m.size == 0:
                problem = f"must be a non-empty (n, D) matrix with D >= 1, got shape {m.shape}"
            elif m.shape[1] != width:
                problem = f"has width {m.shape[1]} but set 0 has width {width}"
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

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def set_at(self, i: int) -> np.ndarray:
        return self.elements[self.offsets[i]:self.offsets[i + 1]]

    def gather(self, indices) -> "SetBatch":
        """The sets at ``indices``, in that order, as a new batch (a copy)."""
        idx = np.asarray(indices, dtype=np.int64)
        starts = self.offsets[:-1][idx]
        sizes = self.offsets[1:][idx] - starts
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rows = np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1])
        return SetBatch(np.take(self.elements, rows, axis=0), offsets)

    def slice(self, lo: int, hi: int) -> "SetBatch":
        """Sets ``lo`` to ``hi - 1`` as a batch sharing this batch's arrays."""
        if not 0 <= lo < hi <= self.num_sets:
            raise ShapeError(f"set range [{lo}, {hi}) is not inside [0, {self.num_sets})")
        first, last = self.offsets[lo], self.offsets[hi]
        return SetBatch(self.elements[first:last], self.offsets[lo:hi + 1] - first)

    def permuted(self, rng: np.random.Generator) -> tuple["SetBatch", list[np.ndarray]]:
        """Independently permute the rows of every set; returns the permuted
        batch and the per-set permutations used."""
        sizes = self.sizes()
        perms = [rng.permutation(m) for m in sizes]
        rows = np.concatenate(perms) + np.repeat(self.offsets[:-1], sizes)
        return SetBatch(self.elements[rows], self.offsets.copy()), perms


class DenseLayer:
    def __init__(self, W, b, nonlinearity: str = "linear"):
        if nonlinearity not in NONLINEARITIES:
            raise ShapeError(f"unknown nonlinearity {nonlinearity!r}")
        self.W = W if isinstance(W, Tensor) else Tensor(W)
        self.b = b if isinstance(b, Tensor) else Tensor(b)
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


class InvariantModel:
    """Per-element dense stack, commutative pooling, then a per-set stack."""

    def __init__(self, phi: list[DenseLayer], pool: str, rho: list[DenseLayer]):
        if pool not in _POOLS:
            raise ShapeError(f"pool must be one of {sorted(_POOLS)}, got {pool!r}")
        self.phi = list(phi)
        self.pool = pool
        self.rho = list(rho)
        for a, b in zip(self.phi, self.phi[1:]):
            if a.out_width != b.in_width:
                raise ShapeError(f"phi widths disagree: {a.out_width} -> {b.in_width}")
        for a, b in zip(self.rho, self.rho[1:]):
            if a.out_width != b.in_width:
                raise ShapeError(f"rho widths disagree: {a.out_width} -> {b.in_width}")
        if self.phi and self.rho and self.rho[0].in_width != self.phi[-1].out_width:
            raise ShapeError(f"rho input width {self.rho[0].in_width} != pooled width {self.phi[-1].out_width}")

    def forward(self, batch: SetBatch) -> Tensor:
        if self.phi and batch.width != self.phi[0].in_width:
            raise ShapeError(f"element width {batch.width} != phi input {self.phi[0].in_width}")
        h = Tensor(batch.elements)
        for layer in self.phi:
            h = layer.forward(h)
        out = _POOLS[self.pool](h, batch.offsets)
        for layer in self.rho:
            out = layer.forward(out)
        return out

    def params(self) -> list[Tensor]:
        return [p for layer in self.phi + self.rho for p in layer.params()]

    @property
    def out_width(self) -> int:
        if self.rho:
            return self.rho[-1].out_width
        if self.phi:
            return self.phi[-1].out_width
        return 0


class EquivariantLayer:
    """One permutation-equivariant layer; see the module docstring for the
    three variants. ``pool`` selects the cross-element reduction for the two
    lambda-gamma variants; ``maxpool-normalized`` always uses max and takes
    no other value.

    ``W`` is the weight of the layer's one ``dense`` node: ``Lambda`` for
    ``maxpool-normalized``, the stacked ``[Lambda; Gamma]`` for
    ``full-lambda-gamma`` and None for the scalar variant, whose weight is
    built for the input width at each forward pass."""

    VARIANTS = ("scalar-lambda-gamma", "full-lambda-gamma", "maxpool-normalized")

    def __init__(self, variant: str, *, lam: float | None = None, gam: float | None = None,
                 Lambda=None, Gamma=None, beta=None, pool: str = "max", nonlinearity: str = "tanh"):
        if variant not in self.VARIANTS:
            raise ShapeError(f"unknown variant {variant!r}")
        if nonlinearity not in NONLINEARITIES:
            raise ShapeError(f"unknown nonlinearity {nonlinearity!r}")
        if pool not in _POOLS:
            raise ShapeError(f"pool must be one of {sorted(_POOLS)}, got {pool!r}")
        if variant == "maxpool-normalized" and pool != "max":
            raise ShapeError(f"maxpool-normalized pools by max, got pool {pool!r}")
        self.variant = variant
        self.pool = pool
        self.nonlinearity = nonlinearity
        self.lam = None
        self.gam = None
        self.W = None
        self.beta = None
        if variant == "scalar-lambda-gamma":
            if lam is None or gam is None:
                raise ShapeError("scalar variant needs lam and gam")
            self.lam = float(lam)
            self.gam = float(gam)
            return
        if Lambda is None:
            raise ShapeError(f"{variant} needs a Lambda matrix")
        self.W = Lambda if isinstance(Lambda, Tensor) else Tensor(Lambda)
        if self.W.data.ndim != 2:
            raise ShapeError("Lambda must be a (D, D') matrix")
        d_out = self.W.data.shape[1]
        self.beta = beta if isinstance(beta, Tensor) else Tensor(np.zeros(d_out) if beta is None else beta)
        if self.beta.data.shape != (d_out,):
            raise ShapeError(f"beta must be ({d_out},)")
        if variant == "full-lambda-gamma":
            if Gamma is None:
                raise ShapeError("full-lambda-gamma needs a Gamma matrix")
            Gamma = Gamma.data if isinstance(Gamma, Tensor) else np.asarray(Gamma, dtype=np.float64)
            if Gamma.shape != self.W.data.shape:
                raise ShapeError("Gamma must match Lambda's shape")
            self.W = Tensor(np.concatenate([self.W.data, Gamma]))

    @property
    def in_width(self) -> int | None:
        if self.W is None:
            return None
        return self.W.data.shape[0] // (2 if self.variant == "full-lambda-gamma" else 1)

    @property
    def out_width(self) -> int | None:
        return None if self.W is None else self.W.data.shape[1]

    def forward(self, x: Tensor, offsets) -> Tensor:
        """Apply to a flat (total, D) matrix, pooling within each segment."""
        if self.in_width is not None and x.data.shape[1] != self.in_width:
            raise ShapeError(f"element width {x.data.shape[1]} != layer input {self.in_width}")
        # maxpool-normalized: sigma(beta + (x - pool(x)) @ Lambda); the others:
        # sigma(beta + [x, -pool(x)] @ [Lambda; Gamma]), where the scalar
        # variant's Lambda and Gamma are lam * I and -gam * I
        W, beta = self.W, self.beta
        if W is None:
            d = x.data.shape[1]
            W, beta = Tensor(np.kron([[self.lam], [-self.gam]], np.eye(d))), Tensor(np.zeros(d))
        spread = ad.segment_center if self.variant == "maxpool-normalized" else ad.segment_augment
        return ad.dense(spread(x, _POOLS[self.pool](x, offsets), offsets), W, beta, self.nonlinearity)

    def params(self) -> list[Tensor]:
        return [] if self.W is None else [self.W, self.beta]


class EquivariantStack:
    """Composition of equivariant layers; equivariant end to end."""

    def __init__(self, layers: list[EquivariantLayer]):
        self.layers = list(layers)
        # the scalar layers keep any width, so only the others must chain
        sized = [l for l in self.layers if l.in_width is not None]
        for a, b in zip(sized, sized[1:]):
            if a.out_width != b.in_width:
                raise ShapeError(f"equivariant layer widths disagree: {a.out_width} -> {b.in_width}")

    def forward(self, x: Tensor, offsets) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x, offsets)
        return x

    def forward_batch(self, batch: SetBatch) -> Tensor:
        return self.forward(Tensor(batch.elements), batch.offsets)

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]


def build_theta(lam: float, gam: float, M: int) -> np.ndarray:
    """Tied M x M matrix: lam on the diagonal (plus gam), gam elsewhere."""
    if M < 1:
        raise ShapeError(f"M must be >= 1, got {M}")
    return lam * np.eye(M) + gam * np.ones((M, M))


def commutes_with_all_permutations(theta: np.ndarray) -> bool:
    """Exhaustively check theta @ P == P @ theta, within 1e-12, over all M!
    permutations."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ShapeError(f"theta must be square, got {theta.shape}")
    M = theta.shape[0]
    if M > 8:
        raise ShapeError(f"M={M} too large for exhaustive permutation check (max 8)")
    for perm in itertools.permutations(range(M)):
        p = np.asarray(perm)
        inv = np.empty(M, dtype=np.int64)
        inv[p] = np.arange(M)
        # P @ theta permutes rows; theta @ P permutes columns by the inverse
        if np.max(np.abs(theta[p, :] - theta[:, inv])) > 1e-12:
            return False
    return True


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
        # column k of the constraint block: vec(E_k P - P E_k)
        block = np.empty((M * M, M * M))
        for k in range(M * M):
            E = np.zeros((M, M))
            E.flat[k] = 1.0
            block[:, k] = (E @ P - P @ E).ravel()
        rows.append(block)
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
        variant = str(rng.choice(EquivariantLayer.VARIANTS))
        act = str(rng.choice(["tanh", "relu", "linear"]))
        if variant == "scalar-lambda-gamma":
            pool = str(rng.choice(["sum", "max", "mean"]))
            layers.append(EquivariantLayer(variant, lam=float(rng.normal()), gam=float(rng.normal()),
                                           pool=pool, nonlinearity=act))
        else:
            out_w = int(rng.integers(1, 9))
            Lambda = rng.normal(scale=0.5, size=(width, out_w))
            beta = rng.normal(scale=0.1, size=out_w)
            if variant == "full-lambda-gamma":
                pool = str(rng.choice(["sum", "max", "mean"]))
                Gamma = rng.normal(scale=0.5, size=(width, out_w))
                layers.append(EquivariantLayer(variant, Lambda=Lambda, Gamma=Gamma, beta=beta,
                                               pool=pool, nonlinearity=act))
            else:
                layers.append(EquivariantLayer(variant, Lambda=Lambda, beta=beta, nonlinearity=act))
            width = out_w
    return EquivariantStack(layers)


# --- JSON serialization -----------------------------------------------------
#
# One JSON document per model: an architecture descriptor plus parameter
# arrays. Floats are emitted with repr semantics, which round-trips binary64
# exactly, so save -> load -> save is byte-identical. Loading is a boundary:
# any malformed document raises a ShapeError or another ValueError.


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
    obj = {"variant": layer.variant, "pool": layer.pool, "nonlinearity": layer.nonlinearity}
    if layer.variant == "scalar-lambda-gamma":
        obj["lam"] = layer.lam
        obj["gam"] = layer.gam
    else:
        d = layer.in_width
        obj["Lambda"] = layer.W.data[:d].tolist()
        obj["beta"] = layer.beta.data.tolist()
        if layer.variant == "full-lambda-gamma":
            obj["Gamma"] = layer.W.data[d:].tolist()
    return obj


def _equivariant_layer_from_obj(obj) -> EquivariantLayer:
    variant = _field(obj, "variant", str)
    kw = {"pool": _field(obj, "pool", str), "nonlinearity": _field(obj, "nonlinearity", str)}
    if variant == "scalar-lambda-gamma":
        return EquivariantLayer(variant, lam=_floats(obj, "lam", 0), gam=_floats(obj, "gam", 0), **kw)
    return EquivariantLayer(
        variant,
        Lambda=_floats(obj, "Lambda", 2),
        Gamma=_floats(obj, "Gamma", 2) if variant == "full-lambda-gamma" else None,
        beta=_floats(obj, "beta", 1),
        **kw,
    )


def model_to_json(model) -> str:
    if isinstance(model, InvariantModel):
        doc = {
            "type": "invariant",
            "pool": model.pool,
            # kept so saved models keep their bytes; no other value loads
            "condition_mode": "none",
            "condition_width": 0,
            "phi": [_dense_to_obj(l) for l in model.phi],
            "rho": [_dense_to_obj(l) for l in model.rho],
        }
    elif isinstance(model, EquivariantStack):
        doc = {"type": "equivariant_stack", "layers": [_equivariant_layer_to_obj(l) for l in model.layers]}
    else:
        raise ShapeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc)


def model_from_json(text: str):
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ShapeError(f"model document is nested too deeply: {exc}") from exc
    model_type = _field(doc, "type")
    if model_type == "invariant":
        if doc.get("condition_mode") != "none" or doc.get("condition_width") != 0:
            raise ShapeError("invariant models take no per-set condition: "
                             'want "condition_mode": "none" and "condition_width": 0')
        return InvariantModel(
            [_dense_from_obj(o) for o in _field(doc, "phi", list)],
            _field(doc, "pool", str),
            [_dense_from_obj(o) for o in _field(doc, "rho", list)],
        )
    if model_type == "equivariant_stack":
        return EquivariantStack([_equivariant_layer_from_obj(o) for o in _field(doc, "layers", list)])
    raise ShapeError(f"unknown model type {model_type!r}")
