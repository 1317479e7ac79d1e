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
a sum of norm penalties and hinges ``max(0, sd*|x(a) - x(b) + sv*x(t)| +
sa*r(a) + sb*r(b) + m*e)`` over rows ``x`` of one matrix (concept centers, then
relation vectors), with ``sv`` 1 on a hinge with a relation and 0 on one
without.  Axioms compile once into index and coefficient tables.  One array
kernel gives the loss and analytic gradient of a batch of table rows, for
training, :func:`total_loss` and the one-axiom :func:`axiom_loss` alike: it
adds ``x(t)`` only to the hinges with a relation, takes the norm penalties of
each hinge's operand slots a and b from the rows it gathers for ``x(a) -
x(b)``, and writes the whole gradient through one ``np.bincount``.  Every
array of ``el_dim`` columns it needs lives in a buffer allocated once per call
of :func:`train_el`.  Training runs Adam on minibatch gradients, the optimizer
EL Embeddings (Kulmanov et al., 2019) uses for these losses.
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
        try:
            (keys, theta), (other_keys, other_theta) = _pack(self), _pack(other)
        except ValueError:  # a vector that is not dim long
            return False
        return self.dim == other.dim and keys == other_keys and np.array_equal(theta, other_theta)


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

# Hinge coefficients (sv, sd, sa, sb, m, pa, pb): sv is 1 on a hinge with a
# relation and 0 on one without, pa and pb weight the norm penalties of rows a
# and b.  These are the ones of a corrupted NF2 term.
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
        # |c(A)-v(t)-c(B)| read as |c(B)+v(t)-c(A)|, so every relation is added
        return [(("c", ax.sup), ("c", ax.filler), ("v", ax.relation), 1, 1, -1, -1, -1, 1, 1)]
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


def _with_negatives(terms: _Terms, nf2: np.ndarray, copies: int, margin: float) -> _Terms:
    """``terms`` followed by ``copies`` corrupted copies of each NF2 hinge row ``nf2``, in that order.

    The copies keep the true filler until :func:`_draw_fillers` draws theirs.
    Copies whose rows and coefficients (11 numbers each) would pass
    ``errors.MAX_TABLE_BYTES`` are a DataError naming ``el_negatives``.
    """
    check_table_size("el_negatives", nf2.size * copies, 11, copies, what="negative term table")
    j = np.repeat(nf2, copies)
    negative = _corrupt(terms, j, terms.rows[j, 1], margin)
    return _Terms(*(np.concatenate(pair) for pair in zip(terms, negative)))


def _draw_fillers(
    terms: _Terms, nf2: np.ndarray, visits: np.ndarray, copies: int, n_concepts: int, rng: np.random.Generator
) -> None:
    """Draw fillers for the corrupted copies that end ``terms`` (see :func:`_with_negatives`).

    The NF2 hinge rows ``nf2`` are visited in the order ``visits``, each
    drawing its ``copies`` fakes in turn.
    """
    first = len(terms.rows) - nf2.size * copies
    copy = (first + visits[:, None] * copies + np.arange(copies)).ravel()
    drawn = rng.integers(n_concepts - 1, size=copy.size)
    # uniform over the other concepts; concept rows come first
    terms.rows[copy, 1] = drawn + (drawn >= np.repeat(terms.rows[nf2[visits], 1], copies))


class _Batches(NamedTuple):
    """Terms grouped by batch, the hinges without a relation first in each batch."""

    rows: np.ndarray  # (n, 4) rows a, b, t and axiom number, in batch order
    coef: np.ndarray  # (n, 7) their coefficients
    bounds: list[int]  # batch k is hinges bounds[2k]:bounds[2k+2], with a relation from bounds[2k+1]


def _batches(terms: _Terms, batch: np.ndarray, n_batches: int) -> _Batches:
    """``terms`` grouped by their batch numbers ``batch``."""
    key = 2 * batch + (terms.coef[:, 0] != 0)
    order = np.argsort(key, kind="stable")
    return _Batches(
        terms.rows.take(order, axis=0), terms.coef.take(order, axis=0),
        np.searchsorted(key.take(order), np.arange(2 * n_batches + 1)).tolist(),
    )


class _Kernel:
    """Loss and gradient of one batch of terms at a time, over the parameter vector ``theta``.

    ``theta`` holds the parameter rows (concept centers, then relation
    vectors) one after another, then one radius per row, and gradients come
    back in the same layout.  Each array of ``el_dim`` columns that a step
    needs lives in a buffer allocated here, once, for batches of at most
    ``hinges`` hinges, ``shifts`` of them with a relation.  The norm
    penalties of a hinge's operand slots a and b read the rows gathered for
    its distance, and their pulls share those rows' scatter weights.
    Without ``grad`` the scatter buffers are left out.
    """

    def __init__(self, theta: np.ndarray, dim: int, hinges: int, shifts: int, grad: bool = True):
        n_rows = theta.size // (dim + 1)
        self.params = theta[: n_rows * dim].reshape(n_rows, dim)
        self.radii = theta[n_rows * dim :]
        # the scatter takes rows a, then rows b, of every hinge, row t of each
        # shift, then the radii of rows a and b
        scatter_rows = 2 * hinges + shifts + -(-2 * hinges // dim)
        # the largest buffer bounds the others
        check_table_size("el_dim", scatter_rows if grad else 2 * hinges, dim, what="step buffer")
        self.ends = np.empty(2 * hinges * dim)
        if grad:
            self.weights = np.empty(scatter_rows * dim)
            self.index = np.empty(scatter_rows * dim, dtype=np.intp)
            # where each parameter row's entries sit in theta
            self.slots = np.arange(self.params.size).reshape(self.params.shape)

    def __call__(self, b: _Batches, k: int, grad: bool = True) -> tuple[float, np.ndarray | None]:
        """Summed loss of batch ``k`` of ``b`` and, when asked, its gradient.

        Gradients of repeated rows accumulate.  Subgradients at kinks: a zero
        distance gives a zero direction, a zero center no penalty gradient.
        """
        start, shifted, end = b.bounds[2 * k : 2 * k + 3]
        n, q, dim = end - start, shifted - start, self.params.shape[1]
        rows, coef = b.rows[start:end], b.coef[start:end]
        ab = rows[:, :2].T
        # mode="clip" writes straight into out; every row is in range
        ends = self.params.take(ab, axis=0, out=self.ends[: 2 * n * dim].reshape(2, n, dim), mode="clip")
        # vecdot rounds like np.linalg.norm on one vector, keeping exact zeros exact
        norms = np.sqrt(np.vecdot(ends, ends))
        off = norms - 1.0
        penalty = coef[:, 5:7].T
        if grad:
            # the scatter weights of rows a and b start as their penalty pulls,
            # taken before c(a) - c(b) overwrites the rows of a
            pull = np.divide(penalty * np.sign(off), norms, out=np.zeros(norms.shape), where=norms > 0.0)
            pulls = np.multiply(ends, pull[:, :, None], out=self.weights[: ends.size].reshape(ends.shape))
        diff = np.subtract(ends[0], ends[1], out=ends[0])
        shift = self.params.take(rows[q:, 2], axis=0, out=ends[1, q:], mode="clip")
        diff[q:] += shift
        dist = np.sqrt(np.vecdot(diff, diff))
        radius = self.radii[ab] * coef[:, 2:4].T
        raw = coef[:, 1] * dist
        raw += radius[0] + radius[1]
        raw += coef[:, 4]
        loss = float(np.maximum(raw, 0.0).sum() + (penalty * np.abs(off)).sum())
        if not grad:
            return loss, None
        active = raw > 0.0
        scale = np.divide(coef[:, 1], dist, out=np.zeros(n), where=active & (dist > 0.0))
        # one scatter: step on rows a and t, -step on rows b, then the radius signs
        weights, index = self.weights, self.index
        at_t = ends.size
        at_radii = at_t + shift.size
        size = at_radii + 2 * n
        step = np.multiply(diff, scale[:, None], out=diff)
        pulls[0] += step
        pulls[1] -= step
        np.copyto(weights[at_t:at_radii].reshape(shift.shape), step[q:])
        np.multiply(coef[:, 2:4].T, active, out=weights[at_radii:size].reshape(ab.shape))
        self.slots.take(ab, axis=0, out=index[:at_t].reshape(ends.shape), mode="clip")
        self.slots.take(rows[q:, 2], axis=0, out=index[at_t:at_radii].reshape(shift.shape), mode="clip")
        np.add(ab, self.params.size, out=index[at_radii:size].reshape(ab.shape))
        return loss, np.bincount(index[:size], weights[:size], minlength=self.params.size + self.radii.size)


def _loss(theta: np.ndarray, dim: int, terms: _Terms, grad: bool) -> tuple[float, np.ndarray | None]:
    """Loss of ``terms`` as one batch and, with ``grad``, its gradient in ``theta``'s layout."""
    b = _batches(terms, np.zeros(len(terms.rows), dtype=np.intp), 1)
    return _Kernel(theta, dim, b.bounds[2], b.bounds[2] - b.bounds[1], grad)(b, 0, grad)


def _pack(space: EmbeddingSpace) -> tuple[list[Key], np.ndarray]:
    """Row keys and parameter vector of a space, laid out as :class:`_Kernel` reads it.

    Relation rows carry a radius of 0.
    """
    concepts, relations = sorted(space.concepts), sorted(space.relations)
    vectors = [space.concepts[c].center for c in concepts] + [space.relations[r] for r in relations]
    radii = [space.concepts[c].radius for c in concepts] + [0.0] * len(relations)
    keys = [("c", c) for c in concepts] + [("v", r) for r in relations]
    params = np.array(vectors, dtype=float).reshape(len(keys), space.dim)
    return keys, np.concatenate((params.ravel(), np.array(radii, dtype=float)))


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
    keys, theta = _pack(space)
    terms, nf2 = _compile([axiom], keys, margin)
    if negative:
        terms = _corrupt(terms, nf2, terms.rows[nf2, 1], margin)
    loss, g = _loss(theta, space.dim, terms, grad)
    if not grad:
        return loss
    g_params, g_radii = g[: len(keys) * space.dim].reshape(len(keys), space.dim), g[len(keys) * space.dim :]
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
    keys, theta = _pack(space)
    terms, nf2 = _compile(n.axioms, keys, cfg.margin)
    if cfg.negatives and len(space.concepts) >= 2 and nf2.size:
        terms = _with_negatives(terms, nf2, cfg.negatives, cfg.margin)
        rng = np.random.default_rng(cfg.seed)
        _draw_fillers(terms, nf2, np.arange(nf2.size), cfg.negatives, len(space.concepts), rng)
    loss = _loss(theta, space.dim, terms, grad=False)[0]
    if not math.isfinite(loss):
        raise NumericalError(f"embedding loss is not finite: {loss}")
    return loss


def _initialize(n: NormalizedOntology, cfg: ElTrainConfig, rng: np.random.Generator) -> EmbeddingSpace:
    names, relations = sorted(set(n.concept_names) | {TOP, BOTTOM}), sorted(n.relation_names)
    check_table_size("el_dim", len(names) + len(relations), cfg.dim)
    centers = rng.normal(size=(len(names), cfg.dim))
    centers /= np.sqrt(np.vecdot(centers, centers))[:, None]
    vectors = rng.uniform(-0.1, 0.1, size=(len(relations), cfg.dim))
    nominal = set(n.nominal_map.values())
    radii = [cfg.min_radius if name in nominal else max(0.1, cfg.min_radius) for name in names]
    return EmbeddingSpace(cfg.dim, dict(zip(names, map(Ball, centers, radii))), dict(zip(relations, vectors)))


@np.errstate(over="ignore", invalid="ignore")  # divergence is a NumericalError
def train_el(n: NormalizedOntology, cfg: ElTrainConfig) -> EmbeddingSpace:
    """Minibatch Adam over the axiom losses, one kernel call per minibatch.

    Axioms are reshuffled every epoch; each NF2 axiom in a batch contributes
    ``cfg.negatives`` corruption terms.  The terms, corrupted copies included,
    compile once per call, and so do the kernel's buffers, sized for the
    largest batch; an epoch only draws the permutation and the fakes, then
    groups the terms by batch.  A step feeds the mean batch gradient
    to Adam (Kingma & Ba, 2015) with step size ``learning_rate``, moving every
    parameter at once; the moment estimates start at zero for each call.
    Training starts from unit-sphere centers, relation vectors within 0.1 of
    zero and radius ``max(0.1, min_radius)``, which ``epochs=0`` returns.  A
    radius is clamped to ``min_radius`` after each step; nominal-derived
    concepts keep exactly ``min_radius``.  A non-finite batch loss, or a
    non-finite parameter (which is named), aborts with a NumericalError
    naming the step; numpy's overflow warnings are silenced, since that error
    reports them.  A parameter table or step buffer over
    ``errors.MAX_TABLE_BYTES`` is a DataError naming ``el_dim``, and
    corrupted copies over it one naming ``el_negatives``, raised before they
    are allocated.  A ``batch_size`` above the number of axioms trains as
    that number, one batch an epoch.  The returned space carries the summed
    batch loss of each epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    space = _initialize(n, cfg, rng)
    if not n.axioms or cfg.epochs == 0:
        return space
    keys, theta = _pack(space)
    terms, nf2 = _compile(n.axioms, keys, cfg.margin)
    copies = cfg.negatives if nf2.size else 0
    terms = _with_negatives(terms, nf2, copies, cfg.margin)
    n_concepts, n_axioms = len(space.concepts), len(n.axioms)
    batch_size = min(cfg.batch_size, n_axioms)  # a larger batch is the whole epoch too
    axiom = terms.rows[:, 3].copy()
    kernel = _Kernel(theta, cfg.dim, *_largest_batch(terms, n_axioms, batch_size))
    params, radii = kernel.params, kernel.radii
    moment, square, work = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)
    nominal = set(n.nominal_map.values())
    pinned = np.array([name in nominal for _, name in keys[:n_concepts]])
    concept_radii = radii[:n_concepts]
    n_batches = -(-n_axioms // batch_size)
    position = np.empty(n_axioms, dtype=np.intp)
    losses = []
    step = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n_axioms)
        position[order] = np.arange(n_axioms)
        if copies:
            # negatives are drawn in batch order, like one draw per NF2 axiom visited
            visits = np.argsort(position.take(axiom.take(nf2)))
            _draw_fillers(terms, nf2, visits, copies, n_concepts, rng)
        batches = _batches(terms, position.take(axiom) // batch_size, n_batches)
        epoch_loss = 0.0
        for k in range(n_batches):
            loss, grad = kernel(batches, k)
            epoch_loss += loss
            step += 1
            # Adam on the mean batch gradient, in place: the batch length and
            # both bias corrections fold into scalar factors
            size = min(batch_size, n_axioms - k * batch_size)
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
    params, names = params.copy(), [name for _, name in keys]
    concepts = {name: Ball(params[i], float(radii[i])) for i, name in enumerate(names[:n_concepts])}
    relations = dict(zip(names[n_concepts:], params[n_concepts:]))
    return EmbeddingSpace(cfg.dim, concepts, relations, tuple(losses))


def _largest_batch(terms: _Terms, n_axioms: int, batch_size: int) -> tuple[int, int]:
    """The most hinges and hinges with a relation ``batch_size`` axioms can hold."""

    def largest(weights: np.ndarray | None = None) -> int:
        per_axiom = np.bincount(terms.rows[:, 3], weights, minlength=n_axioms)
        return int(np.sort(per_axiom)[-batch_size:].sum())

    return largest(), largest(terms.coef[:, 0] != 0)


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
