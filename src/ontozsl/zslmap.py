"""Label encodings, feature-to-encoding mappers, and nearest-label prediction.

A label's semantic encoding concatenates, in a declared order, any of: the
center of its concept's embedding ball, its word-vector encoding, and a
hand-made attribute vector.  A linear mapper ``g`` is trained on seen-class
features so that ``g(x)`` lands near the encoding of the right label; test
features are classified by the nearest candidate encoding.  Nearness is L2
only: each part is unit-norm, so encodings share one norm and L2 ranks the
candidates exactly as cosine would.

Two mappers are provided, both in closed form.  The autoencoder mapper
minimizes the tied-weight objective

    || X - W' Z ||_F^2  +  lam * || W X - Z ||_F^2

whose stationary points solve the Sylvester equation
``Z Z' W + lam W X X' = (1 + lam) Z X'``; it is solved directly in the
eigenbases of ``Z Z'`` and ``X X'``, taking the minimum-norm solution when
the system is singular.  The ridge baseline ``Z X' (X X' + alpha I)^{-1}``
is the same decoupled solve with ``U = I``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError, RangeError, UnknownNameError, check_ranges
from .elembed import EmbeddingSpace
from .harness import ZslDataset, parse_vector_table, write_vector_table
from .ontology import Ontology
from .textio import Rows, fmt, read_float_rows, read_floats, read_int
from .textwalk import WordVectors, label_table, word_encoding


class Component(Enum):
    EL_CENTER = "el_center"
    WORD = "word"
    ATTRIBUTE = "attribute"


class CandidateSet(Enum):
    UNSEEN_ONLY = "unseen"
    SEEN_AND_UNSEEN = "all"

    def labels(self, seen: Iterable[str], unseen: Iterable[str]) -> list[str]:
        """The sorted labels that prediction ranks: the unseen ones, and under
        :attr:`SEEN_AND_UNSEEN` the seen ones too."""
        if self is CandidateSet.SEEN_AND_UNSEEN:
            return sorted(set(unseen) | set(seen))
        return sorted(set(unseen))


# each mapper and the MapConfig field of its parameter
MAPPERS = {"sae": "sae_lambda", "ridge": "ridge_alpha"}


@dataclass(frozen=True)
class MapConfig:
    mapper: str = "sae"
    sae_lambda: float = 0.5
    ridge_alpha: float = 1e-3

    def __post_init__(self) -> None:
        if self.mapper not in MAPPERS:
            raise DataError(f"unknown mapper {self.mapper!r}")
        check_ranges(
            "mapper config", sae_lambda=0 <= self.sae_lambda < math.inf,
            ridge_alpha=0 < self.ridge_alpha < math.inf,
        )


@dataclass
class EncodingTable:
    components: tuple[Component, ...]
    dim: int
    encodings: dict[str, np.ndarray]


@dataclass
class LinearMap:
    """A fitted ``g(x) = weights @ x`` (m x p): its kind, one of :data:`MAPPERS`, and
    that kind's lambda or alpha; a trained autoencoder adds its loss."""

    kind: str
    param: float
    weights: np.ndarray
    train_loss: float = float("nan")


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def parse_components(text: str) -> tuple[Component, ...]:
    """A comma-separated component list such as ``el_center,word``; blank entries are skipped.

    An unknown name, an empty list or a repeated component is a DataError.
    """
    known = {c.value: c for c in Component}
    names = [n.strip() for n in text.split(",") if n.strip()]
    for name in names:
        if name not in known:
            raise DataError(f"unknown encoding component {name!r} (known: {', '.join(known)})")
    return _distinct_components(known[n] for n in names)


def _distinct_components(components: Iterable[Component]) -> tuple[Component, ...]:
    parts = tuple(components)
    if not parts:
        raise DataError("at least one encoding component is required")
    if len(set(parts)) != len(parts):
        raise DataError("encoding components must not repeat")
    return parts


def encode_labels(
    labels: Sequence[str],
    components: Sequence[Component],
    *,
    space: EmbeddingSpace | None = None,
    word_vectors: WordVectors | None = None,
    ontology: Ontology | None = None,
    attributes: Mapping[str, np.ndarray] | None = None,
    class_map: Mapping[str, str] | None = None,
) -> EncodingTable:
    """Build the encoding table for ``labels``.

    ``class_map`` translates dataset labels to concept names; absent entries
    fall back to the label itself.  Each component vector is divided by its
    L2 norm before concatenation; a zero vector stays zero.
    """
    parts_order = _distinct_components(components)
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
            norm = float(np.linalg.norm(part))
            parts.append(part / norm if norm > 0.0 else part)
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


# samples per block of the mapper's column-blocked passes
_GATHER_ROWS = 1024


def sae_loss(w: np.ndarray, x: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Tied-weight reconstruction objective (see module docstring).

    Both residuals are summed ``_GATHER_ROWS`` samples at a time, so neither
    product is held for every sample at once.
    """
    _check_xz(x, z)
    if w.shape != (z.shape[0], x.shape[0]):
        raise DataError(f"weights must be {z.shape[0]} x {x.shape[0]}, got {w.shape}")
    decoded = encoded = 0.0
    for start in range(0, x.shape[1], _GATHER_ROWS):
        xs, zs = x[:, start : start + _GATHER_ROWS], z[:, start : start + _GATHER_ROWS]
        # each residual is squared where its product was, and freed before the next block's
        recon = w.T @ zs
        decoded += np.sum(np.square(np.subtract(xs, recon, out=recon), out=recon))
        code = w @ xs
        encoded += np.sum(np.square(np.subtract(code, zs, out=code), out=code))
        del recon, code
    return float(decoded + lam * encoded)


@np.errstate(over="ignore", invalid="ignore")  # _decoupled_solve reports overflow
def train_sae(x: np.ndarray, z: np.ndarray, lam: float) -> LinearMap:
    """Fit the tied-weight mapper by solving its stationarity equation.

    With ``Z Z' = U diag(a) U'`` and ``X X' = V diag(b) V'`` the equation
    decouples into ``(a_i + lam b_j) W~_ij = (1 + lam) (U' Z X' V)_ij`` for
    ``W = U W~ V'``.  Eigenvalues at or below ``size * eps * max`` count as
    zero, and every entry whose ``a_i + lam b_j`` is zero is set to zero,
    which picks the minimum-norm minimizer when the system is singular.
    """
    _check_xz(x, z)
    MapConfig(sae_lambda=lam)  # range-checks lam
    w = _decoupled_solve(z @ z.T, lam, 1.0 + lam, x, z)
    loss = sae_loss(w, x, z, lam)
    if not np.isfinite(loss):
        raise NumericalError("autoencoder training produced a non-finite loss")
    return LinearMap("sae", lam, w, loss)


@np.errstate(over="ignore", invalid="ignore")
def train_ridge(x: np.ndarray, z: np.ndarray, alpha: float) -> LinearMap:
    """Closed-form ridge ``W = Z X' (X X' + alpha I)^{-1}``: :func:`train_sae`'s solve with
    ``alpha I`` for ``Z Z'`` (so ``U = I``), ``lam = 1`` and ``Z X'`` unscaled."""
    _check_xz(x, z)
    MapConfig(ridge_alpha=alpha)  # range-checks alpha
    return LinearMap("ridge", alpha, _decoupled_solve(alpha * np.eye(z.shape[0]), 1.0, 1.0, x, z))


def _decoupled_solve(left: np.ndarray, lam: float, scale: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`train_sae`'s solve, ``left`` for ``Z Z'``; non-finite inputs or weights are a NumericalError."""
    xxt, zxt = x @ x.T, z @ x.T
    if not all(np.isfinite(p).all() for p in (left, xxt, zxt)):
        raise NumericalError("mapper inputs overflow or are not finite")
    a, u = _eigh_clipped(left)
    b, v = _eigh_clipped(xxt)
    denom = a[:, None] + lam * b[None, :]
    rhs = scale * (u.T @ zxt @ v)
    w = u @ np.divide(rhs, denom, out=np.zeros_like(rhs), where=denom > 0.0) @ v.T
    if not np.isfinite(w).all():
        raise NumericalError("mapper training produced non-finite weights")
    return w


def _eigh_clipped(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a PSD matrix with round-off eigenvalues set to 0."""
    vals, vecs = np.linalg.eigh(sym)
    cutoff = sym.shape[0] * np.finfo(float).eps * vals.max(initial=0.0)
    return np.where(vals > cutoff, vals, 0.0), vecs


def train_map(dataset: ZslDataset, table: EncodingTable, cfg: MapConfig) -> LinearMap:
    """Fit the configured mapper on the seen samples."""
    train = dataset.rows_of(dataset.seen_labels)
    if not train.any():
        raise DataError("no training samples: every sample has an unseen label")
    labels = list(compress(dataset.labels, train))
    names = sorted(set(labels))
    missing = [name for name in names if name not in table.encodings]
    if missing:
        raise DataError(f"labels without encodings: {', '.join(missing)}")
    encodings = np.array([table.encodings[name] for name in names])
    code = {name: i for i, name in enumerate(names)}
    x = _columns(dataset.features, np.flatnonzero(train))
    z = _columns(encodings, np.array([code[label] for label in labels]))
    if cfg.mapper == "sae":
        return train_sae(x, z, cfg.sae_lambda)
    return train_ridge(x, z, cfg.ridge_alpha)


def _columns(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[index].T`` in C order, gathered ``_GATHER_ROWS`` rows at a time, so no second copy is held.

    BLAS rounds a product by its operands' layout, and the mapper's products
    are rounded in this one.
    """
    out = np.empty((rows.shape[1], index.size))
    for start in range(0, index.size, _GATHER_ROWS):
        part = index[start : start + _GATHER_ROWS]
        out[:, start : start + part.size] = rows[part].T
    return out


def map_features(model: LinearMap, x: np.ndarray) -> np.ndarray:
    """Apply the learned linear map to one feature vector or a p x N batch."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.weights.shape[1]:
        raise DataError(f"feature dimension {x.shape[0]} does not match mapper ({model.weights.shape[1]})")
    return model.weights @ x


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def _row_distances(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """L2 distance from each row of a C-contiguous N x m array to one m-vector.

    Both :func:`distance` and :func:`predict` go through here, so a batch and
    a single pair round identically and exact distance ties stay exact.
    """
    diff = rows - point
    return np.sqrt(np.sum(diff * diff, axis=1))


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """The L2 distance of two vectors, one pair at a time: :func:`predict`'s oracle."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"cannot compare vectors of shapes {a.shape} and {b.shape}")
    return float(_row_distances(a[None, :], b)[0])


def _candidate_rows(table: EncodingTable, candidates: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct candidates in label order, and the matrix of their encodings, one row each."""
    labels = sorted(set(candidates))
    if not labels:
        raise DataError("empty candidate set")
    for label in labels:
        if label not in table.encodings:
            raise UnknownNameError(f"candidate label {label!r} has no encoding")
    return labels, np.array([table.encodings[label] for label in labels])


def predict(gx: np.ndarray, table: EncodingTable, candidates: Iterable[str]) -> list[str]:
    """Label of the L2-nearest candidate encoding for each column of the m x N batch ``gx``.

    ``candidates`` are the labels ranked, such as :meth:`CandidateSet.labels`
    gives; in any order, a tie goes to the smaller label.
    """
    labels, encodings = _candidate_rows(table, candidates)
    gx = np.asarray(gx, dtype=float)
    if gx.ndim != 2 or gx.shape[0] != table.dim:
        raise DataError(f"mapped features must be {table.dim} x N, got shape {gx.shape}")
    if not np.isfinite(gx).all():
        raise NumericalError("mapped features are not finite")
    rows = np.ascontiguousarray(gx.T)
    best = np.full(rows.shape[0], np.inf)
    best_index = np.zeros(rows.shape[0], dtype=int)
    # labels are sorted and only a strictly smaller distance wins
    for index, encoding in enumerate(encodings):
        d = _row_distances(rows, encoding)
        closer = d < best
        best[closer] = d[closer]
        best_index[closer] = index
    return [labels[i] for i in best_index]


def candidate_spread(table: EncodingTable, candidates: Iterable[str]) -> tuple[float, float]:
    """Smallest and median distance between the encodings of two of :func:`predict`'s candidates.

    A minimum far below the median means two labels that prediction can
    hardly tell apart.  With a single candidate there is no pair: both are NaN.
    """
    _labels, rows = _candidate_rows(table, candidates)
    gaps = sorted(d for i, row in enumerate(rows) for d in _row_distances(rows[i + 1:], row))
    if not gaps:
        return float("nan"), float("nan")
    half = len(gaps) // 2  # the middle one or two, as np.median takes them without its 0.5 MB of RSS
    return float(gaps[0]), float((gaps[half] + gaps[~half]) / 2)


def predict_test(
    model: LinearMap, dataset: ZslDataset, table: EncodingTable, candidates: Iterable[str]
) -> tuple[list[str], list[str], list[str]]:
    """The ids and labels of the unseen samples of ``dataset``, and the label :func:`predict`
    gives each among ``candidates``."""
    test = dataset.rows_of(dataset.unseen_labels)
    if not test.any():
        raise DataError("no test samples: every sample has a seen label")
    gx = map_features(model, _columns(dataset.features, np.flatnonzero(test)))
    predictions = predict(gx, table, candidates)
    return list(compress(dataset.ids, test)), list(compress(dataset.labels, test)), predictions


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_encodings(table: EncodingTable) -> str:
    """A ``#components`` header over the attribute table format."""
    head = "#components\t" + ",".join(c.value for c in table.components) + "\n"
    return head + write_vector_table(table.encodings)


def load_encodings(rows: Rows) -> EncodingTable:
    """Read :func:`save_encodings` output, header required; other ``#`` lines are comments.

    One pass over the rows, so errors come in line order; a missing header
    is reported once every row has been read.
    """
    components: tuple[Component, ...] = ()

    def table_rows() -> Iterator[tuple[str, str]]:
        nonlocal components
        for where, line in rows:
            if not line.startswith("#components\t"):
                yield where, line
            elif components:
                raise DataError(f"{where}: a second #components header")
            else:
                try:
                    components = parse_components(line.split("\t", 1)[1])
                except DataError as exc:
                    raise DataError(f"{where}: {exc}") from None

    encodings = parse_vector_table(table_rows())
    if not components:
        raise DataError("encodings file has no #components header")
    return EncodingTable(components, next(iter(encodings.values())).size if encodings else 0, encodings)


def save_model(model: LinearMap) -> str:
    """Header with kind, parameter and shape, then row-major weight rows."""
    rows = [f"#kind\t{model.kind}\t{fmt(model.param)}", "#shape\t{}\t{}".format(*model.weights.shape)]
    rows.extend(",".join(map(fmt, row)) for row in model.weights)
    return "".join(row + "\n" for row in rows)


def load_model(rows: Rows) -> LinearMap:
    """Read :func:`save_model` output.

    Weight rows are parsed in blocks as they come and counted at the end, so
    a malformed row is reported before a row count that does not match.
    """
    rows = iter(rows)
    head = [next(rows, None), next(rows, None)]
    if None in head or not head[0][1].startswith("#kind\t") or not head[1][1].startswith("#shape\t"):
        raise DataError("model file must start with #kind and #shape headers")
    (kind_where, kind_line), (shape_where, shape_line) = head
    kind = kind_line.split("\t")
    if len(kind) != 3:
        raise DataError(f"{kind_where}: #kind takes a mapper name and one number")
    if kind[1] not in MAPPERS:
        raise DataError(f"{kind_where}: unknown model kind {kind[1]!r}")
    param = float(read_floats(kind[2:], kind_where, 1)[0])
    try:
        MapConfig(kind[1], **{MAPPERS[kind[1]]: param})
    except RangeError as exc:
        raise DataError(f"{kind_where}: {exc}") from None
    shape = shape_line.split("\t")[1:]
    if len(shape) != 2:
        raise DataError(f"{shape_where}: #shape takes two nonnegative integers")
    height, width = (read_int(v, shape_where) for v in shape)
    weights = read_float_rows(rows, width)
    if len(weights) != height:
        raise DataError(f"expected {height} weight rows, found {len(weights)}")
    return LinearMap(kind[1], param, weights)
