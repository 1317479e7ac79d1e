"""Geometric embeddings for normalized ontologies.

Each concept becomes an n-ball (center, radius), each relation a translation
vector.  Training minimizes max-margin losses that realize the normal-form
axioms geometrically; every loss adds ``| ||center|| - 1 |`` regularizers that
pull the centers of its concept operands onto the unit sphere.  With margin
``e`` and writing ``c(X)``/``r(X)`` for center and radius:

    NF1  A [= B           max(0, |c(A)-c(B)| + r(A) - r(B) - e)
    NF2  A [= Some(t, B)  max(0, |c(A)+v(t)-c(B)| + r(A) - r(B) - e)
    NF3  Some(t, A) [= B  max(0, |c(A)-v(t)-c(B)| - r(A) - r(B) - e)
    NF4  And(A, B) [= C   three hinges keeping C near the A/B overlap
    DISJ And(A, B) [= Bot max(0, r(A) + r(B) - |c(A)-c(B)| + e)
    RSUB t [= s           |v(t) - v(s)|        (no regularizers)

plus a negative loss that pushes corrupted NF2 fillers out of reach.  Each is
a sum of norm penalties and hinges ``max(0, sd*|x(a) + sv*x(t) - x(b)| +
sa*r(a) + sb*r(b) + m*e)`` over rows ``x`` of one matrix (concept centers, then
relation vectors).  Axioms compile once into index and coefficient tables, and
one array kernel gives the loss and analytic gradient of any set of table rows,
for training, :func:`total_loss` and the one-axiom :func:`axiom_loss` alike.
Training runs Adam on minibatch gradients, the optimizer EL Embeddings
(Kulmanov et al., 2019) uses for these losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericalError, UnknownNameError, check_ranges, check_table_size
from .normalform import (
    BOTTOM,
    NF1,
    NF2,
    NF3,
    NF4,
    TOP,
    Disjointness,
    NormalAxiom,
    NormalizedOntology,
    RSub,
    classify,
)
from .textio import Rows, fmt, lines, read_floats, read_int, unique


@dataclass
class Ball:
    center: np.ndarray
    radius: float


@dataclass
class EmbeddingSpace:
    """Balls and relation vectors; a trained space also carries its epoch losses,
    which equality and the file format leave out."""

    dim: int
    concepts: dict[str, Ball]
    relations: dict[str, np.ndarray]
    train_losses: tuple[float, ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingSpace):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.concepts.keys() == other.concepts.keys()
            and self.relations.keys() == other.relations.keys()
            and all(
                np.array_equal(b.center, other.concepts[n].center)
                and b.radius == other.concepts[n].radius
                for n, b in self.concepts.items()
            )
            and all(np.array_equal(v, other.relations[n]) for n, v in self.relations.items())
        )


@dataclass(frozen=True)
class ElTrainConfig:
    dim: int = 50
    margin: float = 0.1
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 64
    negatives: int = 1
    min_radius: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(
            "embedding config", self, dim=self.dim >= 1, margin=0 <= self.margin < math.inf,
            learning_rate=0 < self.learning_rate < math.inf, epochs=self.epochs >= 0,
            batch_size=self.batch_size >= 1, negatives=self.negatives >= 0,
            min_radius=0 < self.min_radius < math.inf, seed=self.seed >= 0,
        )


# ---------------------------------------------------------------------------
# loss terms and the kernel
# ---------------------------------------------------------------------------

# Parameter rows are keyed ("c", concept) or ("v", relation); gradient
# dictionaries use the same keys plus ("r", concept) for radii.
Key = tuple[str, str]

# Hinge coefficients (sv, sd, sa, sb, m, pa, pb): pa and pb weight the norm
# penalties of rows a and b.  These are the ones of a corrupted NF2 term.
_NEGATIVE = (1, -1, 1, 1, 1, 1, 1)


class _Terms(NamedTuple):
    rows: np.ndarray  # (n, 4) int: rows a, b, t of each hinge, axiom number
    coef: np.ndarray  # (n, 7): sv, sd, sa, sb, m*e, pa, pb


def _hinges(ax: NormalAxiom) -> list[tuple]:
    """Hinges ``(a, b, t or None, sv, sd, sa, sb, m, pa, pb)`` of one axiom."""
    if isinstance(ax, NF1):
        return [(("c", ax.sub), ("c", ax.sup), None, 0, 1, 1, -1, -1, 1, 1)]
    if isinstance(ax, NF2):
        return [(("c", ax.sub), ("c", ax.filler), ("v", ax.relation), 1, 1, 1, -1, -1, 1, 1)]
    if isinstance(ax, NF3):
        return [(("c", ax.filler), ("c", ax.sup), ("v", ax.relation), -1, 1, -1, -1, -1, 1, 1)]
    # And(A, B) [= Bottom is a disjointness in disguise
    if isinstance(ax, Disjointness) or (isinstance(ax, NF4) and ax.sup == BOTTOM):
        return [(("c", ax.left), ("c", ax.right), None, 0, -1, 1, 1, 1, 1, 1)]
    if isinstance(ax, NF4):
        left, right, sup = ("c", ax.left), ("c", ax.right), ("c", ax.sup)
        return [
            (left, right, None, 0, 1, -1, -1, -1, 1, 1),
            (left, sup, None, 0, 1, 0, -1, -1, 0, 1),
            (right, sup, None, 0, 1, 0, -1, -1, 0, 0),
        ]
    if isinstance(ax, RSub):
        return [(("v", ax.sub), ("v", ax.sup), None, 0, 1, 0, 0, 0, 0, 0)]
    raise DataError(f"cannot embed axiom {ax!r}")


def _compile(
    axioms: Sequence[NormalAxiom], keys: list[Key], margin: float
) -> tuple[_Terms, np.ndarray]:
    """Term tables of ``axioms`` over rows ``keys``, and the hinge row of each NF2 axiom."""
    row = {key: i for i, key in enumerate(keys)}
    rows, coef, nf2 = [], [], []
    try:
        for number, ax in enumerate(axioms):
            if isinstance(ax, NF2):
                nf2.append(len(rows))
            for a, b, rel, sv, sd, sa, sb, m, pa, pb in _hinges(ax):
                # a hinge without a relation reads row a with coefficient 0
                rows.append((row[a], row[b], row[rel or a], number))
                coef.append((sv, sd, sa, sb, m * margin, pa, pb))
    except KeyError as missing:
        kind, name = missing.args[0]
        kind = "concept" if kind == "c" else "relation"
        raise UnknownNameError(f"no embedded {kind} named {name!r}") from None
    terms = _Terms(
        np.array(rows, dtype=np.intp).reshape(-1, 4), np.array(coef, dtype=float).reshape(-1, 7)
    )
    return terms, np.array(nf2, dtype=np.intp)


def _corrupt(terms: _Terms, j: np.ndarray, fake: np.ndarray, margin: float) -> _Terms:
    """Negative terms: NF2 hinge rows ``j`` of ``terms`` with fillers ``fake``."""
    rows = terms.rows[j]
    rows[:, 1] = fake
    coef = np.tile(np.array(_NEGATIVE, dtype=float), (len(j), 1))
    coef[:, 4] *= margin
    return _Terms(rows, coef)


def _with_negatives(
    terms: _Terms, nf2: np.ndarray, cfg: ElTrainConfig, n_concepts: int, rng: np.random.Generator
) -> _Terms:
    """Append ``cfg.negatives`` corruptions of NF2 hinge rows ``nf2``, drawn in that order."""
    if cfg.negatives == 0 or n_concepts < 2 or nf2.size == 0:
        return terms
    j = np.repeat(nf2, cfg.negatives)
    # uniform over the other concepts; concept rows come first
    drawn = rng.integers(n_concepts - 1, size=j.size)
    negative = _corrupt(terms, j, drawn + (drawn >= terms.rows[j, 1]), cfg.margin)
    return _Terms(*(np.concatenate(pair) for pair in zip(terms, negative)))


def _loss_grad(
    params: np.ndarray, radii: np.ndarray, terms: _Terms, grad: bool = True
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Summed loss of ``terms`` and, when asked, its gradients on params and radii.

    Gradients of repeated rows accumulate.  Subgradients at kinks: a zero
    distance gives a zero direction, a zero center no penalty gradient.
    """
    a, b, rel, _ = terms.rows.T
    sv, sd, sa, sb, bias = terms.coef[:, :5].T
    ends = params[terms.rows[:, :2]]
    diff = ends[:, 0] + sv[:, None] * params[rel] - ends[:, 1]
    # vecdot rounds like np.linalg.norm on one vector, keeping exact zeros exact
    dist = np.sqrt(np.vecdot(diff, diff))
    raw = sd * dist + (sa * radii[a] + sb * radii[b]) + bias
    norms = np.sqrt(np.vecdot(ends, ends))
    penalty = terms.coef[:, 5:]
    loss = float(np.maximum(raw, 0.0).sum() + (penalty * np.abs(norms - 1.0)).sum())
    if not grad:
        return loss, None, None
    active = raw > 0.0
    step = diff * np.divide(sd, dist, out=np.zeros_like(dist), where=active & (dist > 0.0))[:, None]
    pull = penalty * np.sign(norms - 1.0)
    pull = np.divide(pull, norms, out=np.zeros_like(norms), where=norms > 0.0)
    ends *= pull[:, :, None]
    weights = np.stack([ends[:, 0] + step, ends[:, 1] - step, sv[:, None] * step], axis=1)
    dim = params.shape[1]
    flat = terms.rows[:, :3, None] * dim + np.arange(dim)
    g_params = np.bincount(flat.ravel(), weights.ravel(), minlength=params.size)
    radius_signs = terms.coef[:, 2:4] * active[:, None]
    g_radii = np.bincount(terms.rows[:, :2].ravel(), radius_signs.ravel(), minlength=radii.size)
    return loss, g_params.reshape(params.shape), g_radii


def _pack(space: EmbeddingSpace) -> tuple[list[Key], np.ndarray, np.ndarray]:
    """Row keys, parameter matrix and radii (0 on relation rows) of a space."""
    concepts, relations = sorted(space.concepts), sorted(space.relations)
    vectors = [space.concepts[c].center for c in concepts] + [space.relations[r] for r in relations]
    radii = [space.concepts[c].radius for c in concepts] + [0.0] * len(relations)
    keys = [("c", c) for c in concepts] + [("v", r) for r in relations]
    return keys, np.array(vectors, dtype=float).reshape(len(keys), space.dim), np.array(radii)


def axiom_loss(
    space: EmbeddingSpace, axiom: NormalAxiom, margin: float, *, negative: bool = False, grad: bool = False
):
    """Loss of one axiom through the kernel.

    ``negative`` scores an NF2 axiom's filler as a corrupted one, the margin
    loss that drives it out of reach of the translated ball; other kinds have
    no negative term.  With ``grad`` the result is ``(loss, grads)``, keyed
    ``("c", concept)``, ``("r", concept)`` for radii and ``("v", relation)``,
    with an entry for every operand.
    """
    if negative and not isinstance(axiom, NF2):
        raise DataError(f"only NF2 axioms have negative terms, not {axiom!r}")
    keys, params, radii = _pack(space)
    terms, nf2 = _compile([axiom], keys, margin)
    if negative:
        terms = _corrupt(terms, nf2, terms.rows[nf2, 1], margin)
    loss, g_params, g_radii = _loss_grad(params, radii, terms, grad)
    if not grad:
        return loss
    grads: dict[Key, np.ndarray | float] = {}
    for i in np.unique(terms.rows[:, :3]):
        kind, name = keys[i]
        grads[kind, name] = g_params[i]
        if kind == "c":
            grads["r", name] = float(g_radii[i])
    return loss, grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# Adam's decay rates of the gradient moments and its stabilizer (Kingma & Ba, 2015)
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a NumericalError
def total_loss(space: EmbeddingSpace, n: NormalizedOntology, cfg: ElTrainConfig) -> float:
    """Sum of axiom losses plus sampled NF2 corruption losses.

    Deterministic: corrupted fillers are redrawn from a generator seeded with
    ``cfg.seed`` on every call, in axiom order.  A loss that is not finite is
    a :class:`NumericalError`.
    """
    keys, params, radii = _pack(space)
    terms, nf2 = _compile(n.axioms, keys, cfg.margin)
    terms = _with_negatives(terms, nf2, cfg, len(space.concepts), np.random.default_rng(cfg.seed))
    loss = _loss_grad(params, radii, terms, grad=False)[0]
    if not math.isfinite(loss):
        raise NumericalError(f"embedding loss is not finite: {loss}")
    return loss


def _initialize(n: NormalizedOntology, cfg: ElTrainConfig, rng: np.random.Generator) -> EmbeddingSpace:
    names = sorted(set(n.concept_names) | {TOP, BOTTOM})
    check_table_size("el_dim", len(names) + len(n.relation_names), cfg.dim)
    nominal = set(n.nominal_map.values())
    concepts: dict[str, Ball] = {}
    for name in names:
        center = rng.normal(size=cfg.dim)
        center /= np.linalg.norm(center)
        radius = cfg.min_radius if name in nominal else max(0.1, cfg.min_radius)
        concepts[name] = Ball(center, radius)
    relations = {
        name: rng.uniform(-0.1, 0.1, size=cfg.dim) for name in sorted(n.relation_names)
    }
    return EmbeddingSpace(cfg.dim, concepts, relations)


@np.errstate(over="ignore", invalid="ignore")  # divergence is a NumericalError
def train_el(n: NormalizedOntology, cfg: ElTrainConfig) -> EmbeddingSpace:
    """Minibatch Adam over the axiom losses, one kernel call per minibatch.

    Axioms are reshuffled every epoch; each NF2 axiom in a batch contributes
    ``cfg.negatives`` corruption terms.  A step feeds the mean batch gradient
    to Adam (Kingma & Ba, 2015) with step size ``learning_rate``, moving every
    parameter at once; the moment estimates start at zero for each call.
    Training starts from unit-sphere centers, relation vectors within 0.1 of
    zero and radius ``max(0.1, min_radius)``, which ``epochs=0`` returns.  A
    radius is clamped to ``min_radius`` after each step; nominal-derived
    concepts keep exactly ``min_radius``.  A non-finite batch loss, or a
    non-finite parameter (which is named), aborts with a NumericalError
    naming the step; numpy's overflow warnings are silenced, since that error
    reports them.  A parameter table over ``errors.MAX_TABLE_BYTES`` is a
    DataError naming ``el_dim``, raised before anything is allocated.  The
    returned space carries the summed batch loss of each epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    space = _initialize(n, cfg, rng)
    if not n.axioms or cfg.epochs == 0:
        return space
    keys, params, radii = _pack(space)
    # one flat vector holds every parameter, so one update moves them all
    theta = np.concatenate((params.ravel(), radii))
    params, radii = theta[: params.size].reshape(params.shape), theta[params.size :]
    moment, square = np.zeros_like(theta), np.zeros_like(theta)
    grad, work = np.empty_like(theta), np.empty_like(theta)
    base, nf2 = _compile(n.axioms, keys, cfg.margin)
    n_concepts = len(space.concepts)
    nominal = set(n.nominal_map.values())
    pinned = np.array([name in nominal for _, name in keys[:n_concepts]])
    concept_radii = radii[:n_concepts]
    n_axioms = len(n.axioms)
    bounds = np.append(np.arange(0, n_axioms, cfg.batch_size), n_axioms)
    position = np.empty(n_axioms, dtype=np.intp)
    losses = []
    step = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n_axioms)
        position[order] = np.arange(n_axioms)
        # negatives are drawn in batch order, like one draw per NF2 axiom visited
        nf2_order = nf2[np.argsort(position[base.rows[nf2, 3]])]
        terms = _with_negatives(base, nf2_order, cfg, n_concepts, rng)
        by_position = np.argsort(position[terms.rows[:, 3]], kind="stable")
        rows, coef = terms.rows[by_position], terms.coef[by_position]
        starts = np.searchsorted(position[rows[:, 3]], bounds)
        epoch_loss = 0.0
        for k in range(len(bounds) - 1):
            batch = slice(starts[k], starts[k + 1])
            loss, g_params, g_radii = _loss_grad(params, radii, _Terms(rows[batch], coef[batch]))
            epoch_loss += loss
            step += 1
            # Adam on the mean batch gradient, in place: the batch length and
            # both bias corrections fold into scalar factors
            size = bounds[k + 1] - bounds[k]
            np.concatenate((g_params.ravel(), g_radii), out=grad)
            moment *= _BETA1
            moment += np.multiply(grad, (1.0 - _BETA1) / size, out=work)
            square *= _BETA2
            square += np.multiply(np.square(grad, out=work), (1.0 - _BETA2) / size**2, out=work)
            correction = np.sqrt(1.0 - _BETA2**step)
            denom = np.sqrt(square, out=work)
            denom += _EPSILON * correction
            update = np.divide(moment, denom, out=work)
            update *= cfg.learning_rate * correction / (1.0 - _BETA1**step)
            theta -= update
            if not np.isfinite(theta).all():
                raise _diverged(keys, params, radii, step)
            if not np.isfinite(loss):  # taken before the update, at finite parameters
                raise NumericalError(f"batch loss diverged at step {step}")
            np.maximum(concept_radii, cfg.min_radius, out=concept_radii)
            concept_radii[pinned] = cfg.min_radius
        losses.append(epoch_loss)
    names = [name for _, name in keys]
    balls = [Ball(params[i].copy(), float(radii[i])) for i in range(n_concepts)]
    relations = {name: params[i].copy() for i, name in enumerate(names) if i >= n_concepts}
    return EmbeddingSpace(cfg.dim, dict(zip(names[:n_concepts], balls)), relations, tuple(losses))


class Faithfulness(NamedTuple):
    nest_fraction: float
    nest_pairs: int
    disjoint_fraction: float
    disjoint_pairs: int


def faithfulness(space: EmbeddingSpace, n: NormalizedOntology, margin: float) -> Faithfulness:
    """How many entailed subsumptions nest and how many DISJ pairs separate.

    A pair A [= B that :func:`classify` derives (no self, ``Top`` or ``Bottom``
    pairs) nests when |c(A)-c(B)| + r(A) <= r(B) + margin, the zero set of the
    NF1 hinge; DISJ A B separates when |c(A)-c(B)| >= r(A) + r(B) + margin, the
    zero set of the disjointness hinge.  A fraction over no pairs is 1.
    """
    nest = [(x, y) for x, y in classify(n) if x != y and not {x, y} & {TOP, BOTTOM}]
    disjoint = [(ax.left, ax.right) for ax in n.axioms if isinstance(ax, Disjointness)]
    row = {name: i for i, name in enumerate(space.concepts)}
    balls = space.concepts.values()
    centers = np.array([ball.center for ball in balls]).reshape(len(row), space.dim)
    radii = np.array([ball.radius for ball in balls])
    a, b = np.array([(row[x], row[y]) for x, y in nest + disjoint], dtype=np.intp).reshape(-1, 2).T
    diff = centers[a] - centers[b]
    gap = np.sqrt(np.vecdot(diff, diff))
    nested = int((gap + radii[a] <= radii[b] + margin)[: len(nest)].sum())
    separated = int((gap >= radii[a] + radii[b] + margin)[len(nest) :].sum())
    return Faithfulness(
        nested / len(nest) if nest else 1.0, len(nest),
        separated / len(disjoint) if disjoint else 1.0, len(disjoint),
    )


def _diverged(keys: list[Key], params: np.ndarray, radii: np.ndarray, step: int) -> NumericalError:
    i = int(np.flatnonzero(~np.isfinite(params).all(axis=1) | ~np.isfinite(radii))[0])
    kind, name = keys[i]
    if kind == "v":
        return NumericalError(f"relation {name!r} diverged at step {step}")
    what = "center" if not np.isfinite(params[i]).all() else "radius"
    return NumericalError(f"{what} of {name!r} diverged at step {step}")


# ---------------------------------------------------------------------------
# embedding file format
# ---------------------------------------------------------------------------


def export_space(space: EmbeddingSpace) -> str:
    """Tab-separated rows, floats at 17 significant digits (lossless)."""
    rows = [f"#dim\t{space.dim}"]
    for name in sorted(space.concepts):
        ball = space.concepts[name]
        rows.append(f"C\t{name}\t{','.join(map(fmt, ball.center))}\t{fmt(ball.radius)}")
    for name in sorted(space.relations):
        rows.append(f"R\t{name}\t{','.join(map(fmt, space.relations[name]))}")
    return "".join(row + "\n" for row in rows)


def import_space(text: str) -> EmbeddingSpace:
    """Parse :func:`export_space` output; malformed or non-finite values are DataErrors."""
    return read_space(lines(text, "embedding space"))


def read_space(rows: Rows) -> EmbeddingSpace:
    """:func:`import_space` over ``(where, line)`` rows, such as ``textio.file_lines`` yields."""
    dim: int | None = None
    concepts: dict[str, Ball] = {}
    relations: dict[str, np.ndarray] = {}
    for where, line in rows:
        parts = line.split("\t")
        if parts[0] == "#dim":
            if dim is not None:
                raise DataError(f"{where}: second dimension header")
            dim = read_int(line.partition("\t")[2], where, 1)
            continue
        if dim is None:
            raise DataError(f"{where}: missing #dim header")
        if parts[0] == "C":
            if len(parts) != 4:
                raise DataError(f"{where}: concept rows take 4 fields")
            unique(concepts, parts[1], where, "concept")
            radius = float(read_floats(parts[3:], where, 1)[0])
            concepts[parts[1]] = Ball(read_floats(parts[2].split(","), where, dim), radius)
        elif parts[0] == "R":
            if len(parts) != 3:
                raise DataError(f"{where}: relation rows take 3 fields")
            unique(relations, parts[1], where, "relation")
            relations[parts[1]] = read_floats(parts[2].split(","), where, dim)
        else:
            raise DataError(f"{where}: unknown row type {parts[0]!r}")
    if dim is None:
        raise DataError("missing #dim header")
    return EmbeddingSpace(dim, concepts, relations)
