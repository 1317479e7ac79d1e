"""Label encodings, feature-to-encoding mappers, and nearest-label prediction.

A label's semantic encoding concatenates, in a declared order, any of: the
center of its concept's embedding ball, its word-vector encoding, and a
hand-made attribute vector.  A linear mapper ``g`` is trained on seen-class
features so that ``g(x)`` lands near the encoding of the right label; test
features are classified by the nearest candidate encoding.

Two mappers are provided, both in closed form.  The autoencoder mapper
minimizes the tied-weight objective

    || X - W' Z ||_F^2  +  lam * || W X - Z ||_F^2

whose stationary points solve the Sylvester equation
``Z Z' W + lam W X X' = (1 + lam) Z X'``; it is solved directly in the
eigenbases of ``Z Z'`` and ``X X'``, taking the minimum-norm solution when
the system is singular.  The ridge baseline is ``Z X' (X X' + alpha I)^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError, UnknownNameError, check_ranges
from .elembed import EmbeddingSpace
from .harness import Sample, ZslDataset
from .ontology import Ontology
from .textio import fmt, read_floats, read_int
from .textwalk import WordVectors, label_table, word_encoding


class Component(Enum):
    EL_CENTER = "el_center"
    WORD = "word"
    ATTRIBUTE = "attribute"


class Distance(Enum):
    L2 = "l2"
    COSINE = "cosine"


class CandidateSet(Enum):
    UNSEEN_ONLY = "unseen"
    SEEN_AND_UNSEEN = "all"


@dataclass(frozen=True)
class PredictConfig:
    distance: Distance = Distance.L2
    candidates: CandidateSet = CandidateSet.UNSEEN_ONLY


MAPPERS = ("sae", "ridge")


@dataclass(frozen=True)
class MapConfig:
    mapper: str = "sae"
    sae_lambda: float = 0.5
    ridge_alpha: float = 1e-3

    def __post_init__(self) -> None:
        if self.mapper not in MAPPERS:
            raise DataError(f"unknown mapper {self.mapper!r}")
        check_ranges("mapper config", sae_lambda=self.sae_lambda >= 0, ridge_alpha=self.ridge_alpha > 0)


@dataclass
class EncodingTable:
    components: tuple[Component, ...]
    dim: int
    encodings: dict[str, np.ndarray]


@dataclass
class SaeModel:
    weights: np.ndarray  # m x p
    lam: float
    train_loss: float


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def encode_labels(
    labels: Sequence[str],
    components: Sequence[Component],
    *,
    space: EmbeddingSpace | None = None,
    word_vectors: WordVectors | None = None,
    ontology: Ontology | None = None,
    attributes: Mapping[str, np.ndarray] | None = None,
    class_map: Mapping[str, str] | None = None,
    normalize_components: bool = True,
) -> EncodingTable:
    """Build the encoding table for ``labels``.

    ``class_map`` translates dataset labels to concept names; absent entries
    fall back to the label itself.  Each component vector is L2-normalized
    before concatenation unless ``normalize_components`` is off.
    """
    parts_order = tuple(components)
    if not parts_order:
        raise DataError("at least one encoding component is required")
    if len(set(parts_order)) != len(parts_order):
        raise DataError("encoding components must not repeat")
    words = label_table(ontology) if ontology is not None and Component.WORD in parts_order else {}
    encodings: dict[str, np.ndarray] = {}
    for label in labels:
        concept = class_map.get(label, label) if class_map else label
        parts = []
        for component in parts_order:
            if component is Component.EL_CENTER:
                if space is None:
                    raise DataError("el_center component requires an embedding space")
                if concept not in space.concepts:
                    raise UnknownNameError(f"no embedded concept for label {label!r} ({concept!r})")
                part = space.concepts[concept].center.astype(float)
            elif component is Component.WORD:
                if word_vectors is None:
                    raise DataError("word component requires word vectors")
                part = word_encoding(concept, word_vectors, words)
            else:
                if attributes is None:
                    raise DataError("attribute component requires an attribute table")
                if label not in attributes:
                    raise UnknownNameError(f"no attribute vector for label {label!r}")
                part = np.asarray(attributes[label], dtype=float)
            if normalize_components:
                norm = float(np.linalg.norm(part))
                if norm > 0.0:
                    part = part / norm
            parts.append(part)
        encodings[label] = np.concatenate(parts)
    dims = {v.size for v in encodings.values()}
    if len(dims) > 1:
        raise DataError(f"labels encode to inconsistent dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    return EncodingTable(parts_order, dim, encodings)


# ---------------------------------------------------------------------------
# autoencoder mapper
# ---------------------------------------------------------------------------


def _check_xz(x: np.ndarray, z: np.ndarray) -> None:
    if x.ndim != 2 or z.ndim != 2:
        raise DataError("feature and encoding matrices must be 2-D")
    if x.shape[1] != z.shape[1]:
        raise DataError(f"sample counts differ: {x.shape[1]} features vs {z.shape[1]} encodings")


def sae_loss(w: np.ndarray, x: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Tied-weight reconstruction objective (see module docstring)."""
    _check_xz(x, z)
    if w.shape != (z.shape[0], x.shape[0]):
        raise DataError(f"weights must be {z.shape[0]} x {x.shape[0]}, got {w.shape}")
    recon = x - w.T @ z
    code = w @ x - z
    return float(np.sum(recon * recon) + lam * np.sum(code * code))


def sae_grad(w: np.ndarray, x: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray:
    """Analytic gradient of :func:`sae_loss` with respect to the weights."""
    return -2.0 * z @ (x - w.T @ z).T + 2.0 * lam * (w @ x - z) @ x.T


def train_sae(x: np.ndarray, z: np.ndarray, lam: float) -> SaeModel:
    """Fit the tied-weight mapper by solving its stationarity equation.

    With ``Z Z' = U diag(a) U'`` and ``X X' = V diag(b) V'`` the equation
    decouples into ``(a_i + lam b_j) W~_ij = (1 + lam) (U' Z X' V)_ij`` for
    ``W = U W~ V'``.  Eigenvalues at or below ``size * eps * max`` count as
    zero, and every entry whose ``a_i + lam b_j`` is zero is set to zero,
    which picks the minimum-norm minimizer when the system is singular.
    """
    _check_xz(x, z)
    MapConfig(sae_lambda=lam)  # range-checks lam
    with np.errstate(over="ignore", invalid="ignore"):
        zzt = z @ z.T
        xxt = x @ x.T
    if not (np.isfinite(zzt).all() and np.isfinite(xxt).all()):
        raise NumericalError("autoencoder inputs overflow or are not finite")
    a, u = _eigh_clipped(zzt)
    b, v = _eigh_clipped(xxt)
    denom = a[:, None] + lam * b[None, :]
    rhs = (1.0 + lam) * (u.T @ (z @ x.T) @ v)
    w = u @ np.divide(rhs, denom, out=np.zeros_like(rhs), where=denom > 0.0) @ v.T
    loss = sae_loss(w, x, z, lam)
    if not np.isfinite(loss):
        raise NumericalError("autoencoder training produced a non-finite loss")
    return SaeModel(w, lam, loss)


def _eigh_clipped(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a PSD matrix with round-off eigenvalues set to 0."""
    vals, vecs = np.linalg.eigh(sym)
    cutoff = sym.shape[0] * np.finfo(float).eps * vals.max(initial=0.0)
    return np.where(vals > cutoff, vals, 0.0), vecs


def train_ridge(x: np.ndarray, z: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form ridge regression from features onto encodings."""
    _check_xz(x, z)
    MapConfig(ridge_alpha=alpha)  # range-checks alpha
    p = x.shape[0]
    gram = x @ x.T + alpha * np.eye(p)
    # solve (X X' + aI) W' = X Z' so that W = Z X' (X X' + aI)^{-1}
    return np.linalg.solve(gram, x @ z.T).T


def train_map(
    dataset: ZslDataset, table: EncodingTable, cfg: MapConfig
) -> tuple[SaeModel | np.ndarray, str]:
    """Fit the configured mapper on the seen samples; returns it with the text of its model file."""
    samples = dataset.train_samples()
    if not samples:
        raise DataError("no training samples: every sample has an unseen label")
    missing = sorted({s.label for s in samples} - set(table.encodings))
    if missing:
        raise DataError(f"labels without encodings: {', '.join(missing)}")
    x = np.stack([s.features for s in samples], axis=1)
    z = np.stack([table.encodings[s.label] for s in samples], axis=1)
    if cfg.mapper == "sae":
        model = train_sae(x, z, cfg.sae_lambda)
        return model, save_model(model)
    weights = train_ridge(x, z, cfg.ridge_alpha)
    return weights, save_model(weights, alpha=cfg.ridge_alpha)


def map_features(model: SaeModel | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the learned linear map to one feature vector or a p x N batch."""
    weights = model.weights if isinstance(model, SaeModel) else model
    x = np.asarray(x, dtype=float)
    if x.shape[0] != weights.shape[1]:
        raise DataError(f"feature dimension {x.shape[0]} does not match mapper ({weights.shape[1]})")
    return weights @ x


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(rows * rows, axis=1))


def _row_distances(rows: np.ndarray, point: np.ndarray, kind: Distance) -> np.ndarray:
    """Distance from each row of a C-contiguous N x m array to one m-vector.

    Both :func:`distance` and :func:`predict` go through here, so a batch and
    a single pair round identically and exact distance ties stay exact.
    """
    if kind is Distance.L2:
        return _row_norms(rows - point)
    norms = _row_norms(rows)
    point_norm = _row_norms(point[None, :])[0]
    if point_norm == 0.0 or not norms.all():
        raise NumericalError("cosine distance is undefined for a zero vector")
    return 1.0 - np.sum(rows * point, axis=1) / (norms * point_norm)


def distance(a: np.ndarray, b: np.ndarray, kind: Distance) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"cannot compare vectors of shapes {a.shape} and {b.shape}")
    return float(_row_distances(a[None, :], b, kind)[0])


def predict(
    gx: np.ndarray,
    table: EncodingTable,
    cfg: PredictConfig,
    seen_labels: Sequence[str],
    unseen_labels: Sequence[str],
) -> list[str]:
    """Label of the nearest encoding for each column of the m x N batch ``gx``.

    Ties go to the smaller label.  The candidate set is the unseen labels, or
    their union with the seen ones under :attr:`CandidateSet.SEEN_AND_UNSEEN`.
    """
    if cfg.candidates is CandidateSet.SEEN_AND_UNSEEN:
        candidates = sorted(set(unseen_labels) | set(seen_labels))
    else:
        candidates = sorted(set(unseen_labels))
    if not candidates:
        raise DataError("empty candidate set")
    for label in candidates:
        if label not in table.encodings:
            raise UnknownNameError(f"candidate label {label!r} has no encoding")
    gx = np.asarray(gx, dtype=float)
    if gx.ndim != 2 or gx.shape[0] != table.dim:
        raise DataError(f"mapped features must be {table.dim} x N, got shape {gx.shape}")
    if not np.isfinite(gx).all():
        raise NumericalError("mapped features are not finite")
    rows = np.ascontiguousarray(gx.T)
    best = np.full(rows.shape[0], np.inf)
    best_index = np.zeros(rows.shape[0], dtype=int)
    # candidates are sorted and only a strictly smaller distance wins
    for index, label in enumerate(candidates):
        d = _row_distances(rows, table.encodings[label], cfg.distance)
        closer = d < best
        best[closer] = d[closer]
        best_index[closer] = index
    return [candidates[i] for i in best_index]


def predict_test(
    model: SaeModel | np.ndarray, dataset: ZslDataset, table: EncodingTable, cfg: PredictConfig
) -> tuple[list[Sample], list[str]]:
    """The unseen samples of ``dataset`` and the label :func:`predict` gives each."""
    test = dataset.test_samples()
    if not test:
        raise DataError("no test samples: every sample has a seen label")
    gx = map_features(model, np.stack([s.features for s in test], axis=1))
    return test, predict(gx, table, cfg, sorted(dataset.seen_labels), sorted(dataset.unseen_labels))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_encodings(table: EncodingTable) -> str:
    lines = ["#components\t" + ",".join(c.value for c in table.components)]
    for label in sorted(table.encodings):
        lines.append(label + "\t" + ",".join(map(fmt, table.encodings[label])))
    return "".join(line + "\n" for line in lines)


def load_encodings(text: str) -> EncodingTable:
    components: tuple[Component, ...] = ()
    encodings: dict[str, np.ndarray] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.startswith("#components\t"):
            names = raw.split("\t", 1)[1].split(",")
            try:
                components = tuple(Component(n) for n in names if n)
            except ValueError as exc:
                raise DataError(f"encodings line {line_no}: {exc}") from None
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise DataError(f"encodings line {line_no}: encoding rows take 2 fields")
        if parts[0] in encodings:
            raise DataError(f"encodings line {line_no}: label {parts[0]!r} appears twice")
        encodings[parts[0]] = read_floats(parts[1].split(","), f"encodings line {line_no}")
    dims = {v.size for v in encodings.values()}
    if len(dims) > 1:
        raise DataError(f"inconsistent encoding dimensions: {sorted(dims)}")
    return EncodingTable(components, dims.pop() if dims else 0, encodings)


def save_model(model: SaeModel | np.ndarray, *, alpha: float | None = None) -> str:
    """Header with kind and shape, then row-major weight rows."""
    if isinstance(model, SaeModel):
        head = f"#kind\tsae\t{fmt(model.lam)}"
        weights = model.weights
    else:
        head = f"#kind\tridge\t{fmt(alpha if alpha is not None else 0.0)}"
        weights = model
    lines = [head, f"#shape\t{weights.shape[0]}\t{weights.shape[1]}"]
    lines.extend(",".join(map(fmt, row)) for row in weights)
    return "".join(line + "\n" for line in lines)


def load_model(text: str) -> SaeModel | np.ndarray:
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if len(lines) < 2 or not lines[0][1].startswith("#kind\t") or not lines[1][1].startswith("#shape\t"):
        raise DataError("model file must start with #kind and #shape headers")
    (kind_no, kind_line), (shape_no, shape_line) = lines[:2]
    kind = kind_line.split("\t")
    if len(kind) != 3:
        raise DataError(f"model line {kind_no}: #kind takes a mapper name and one number")
    param = read_floats(kind[2:], f"model line {kind_no}", 1)[0]
    shape = shape_line.split("\t")[1:]
    if len(shape) != 2:
        raise DataError(f"model line {shape_no}: #shape takes two nonnegative integers")
    rows, cols = (read_int(v, f"model line {shape_no}") for v in shape)
    if len(lines) - 2 != rows:
        raise DataError(f"expected {rows} weight rows, found {len(lines) - 2}")
    weights = np.array([read_floats(line.split(","), f"model line {no}", cols) for no, line in lines[2:]])
    weights = weights.reshape(rows, cols)
    if kind[1] == "sae":
        return SaeModel(weights, param, float("nan"))
    if kind[1] == "ridge":
        return weights
    raise DataError(f"unknown model kind {kind[1]!r}")
