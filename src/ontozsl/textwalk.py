"""Graph projection, random walks, and corpus-trained word vectors.

The ontology is projected onto a labeled multigraph: plain inclusions become
``subClassOf`` edges, shallow existentials on either side of an inclusion
become edges labeled with the relation, and assertions contribute edges over
the individuals themselves.  Uniform random walks over the graph, written out
through entity labels, give a corpus that a small skip-gram model with
negative sampling turns into word vectors.  Pretrained vectors can be passed
as initialization, so running extra epochs fine-tunes them on the walks.

Skip-gram training is minibatched.  The (center, context) pairs are index
arrays built once per run, and each epoch draws all of its negatives in one
call.  Each step then takes 8 consecutive pairs, computes their updates from
the vectors as they stood at the start of the step and adds them up, summing
the updates of rows that repeat within the step.  Learning rates up to 0.2
are tested to converge; a run whose vectors or loss stop being finite raises
:class:`NumericalError` at the end of the epoch.
"""

from __future__ import annotations

import logging
import re
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, UnknownNameError, check_ranges
from .normalform import NF1, NF2, NF3, _Namer, _rewrite
from .ontology import (
    Annotation,
    Atomic,
    COMMENT,
    ConceptAssertion,
    ConceptExpression,
    Conjunction,
    Equivalence,
    Existential,
    Gci,
    LABEL,
    Nominal,
    Ontology,
    RoleAssertion,
    RoleComposition,
    expression_text,
)
from .textio import fmt, read_floats, read_int

logger = logging.getLogger(__name__)

SUBCLASS_PREDICATE = "subClassOf"


@dataclass(frozen=True)
class ProjectedGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str, str]]


@dataclass(frozen=True)
class WalkConfig:
    walks_per_node: int = 10
    walk_length: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(
            "walk config", walks_per_node=self.walks_per_node >= 1,
            walk_length=self.walk_length >= 1, seed=self.seed >= 0,
        )


@dataclass(frozen=True)
class SkipGramConfig:
    dim: int = 25
    window: int = 2
    negatives: int = 5
    epochs: int = 50
    learning_rate: float = 0.05
    min_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(
            "skip-gram config", dim=self.dim >= 1, window=self.window >= 1,
            negatives=self.negatives >= 0, epochs=self.epochs >= 0,
            learning_rate=self.learning_rate > 0, min_count=self.min_count >= 1, seed=self.seed >= 0,
        )


@dataclass
class WalkCorpus:
    sentences: list[list[str]]
    vocabulary: dict[str, int]


@dataclass
class WordVectors:
    dim: int
    vectors: dict[str, np.ndarray]
    train_losses: tuple[float, ...] = ()
    pairs_per_epoch: int = 0


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _individuals_as_atoms(expr: ConceptExpression) -> ConceptExpression:
    if isinstance(expr, Nominal):
        return Atomic(expr.individual)
    if isinstance(expr, Conjunction):
        return Conjunction(_individuals_as_atoms(expr.left), _individuals_as_atoms(expr.right))
    if isinstance(expr, Existential):
        return Existential(expr.relation, _individuals_as_atoms(expr.filler))
    return expr


def project(o: Ontology) -> ProjectedGraph:
    """Project the ontology onto relation-labeled edges.

    Nested expressions are decomposed exactly as in normalization and the
    decomposition names show up as nodes.  The edge set only depends on the
    set of axioms, not their order.  Relation chains produce no edges and are
    counted in a warning.
    """
    gcis: list[tuple[ConceptExpression, ConceptExpression]] = []
    skipped = 0
    for ax in o.axioms:
        if isinstance(ax, Gci):
            gcis.append((_individuals_as_atoms(ax.sub), _individuals_as_atoms(ax.sup)))
        elif isinstance(ax, Equivalence):
            left = _individuals_as_atoms(ax.left)
            right = _individuals_as_atoms(ax.right)
            gcis.append((left, right))
            gcis.append((right, left))
        elif isinstance(ax, ConceptAssertion):
            gcis.append((Atomic(ax.individual), _individuals_as_atoms(ax.concept)))
        elif isinstance(ax, RoleAssertion):
            gcis.append((Atomic(ax.subject), Existential(ax.relation, Atomic(ax.object))))
        elif isinstance(ax, RoleComposition):
            skipped += 1
    if skipped:
        logger.warning("projection skipped %d relation chain(s)", skipped)

    # canonical order makes decomposition names independent of axiom order
    gcis = sorted(
        set(gcis), key=lambda pair: (expression_text(pair[0]), expression_text(pair[1]))
    )
    taken = set(o.concept_names) | set(o.relation_names) | set(o.individual_names)
    namer = _Namer(taken)
    normal = _rewrite(deque(gcis), namer)

    edges: set[tuple[str, str, str]] = set()
    for ax in normal:
        if isinstance(ax, NF1):
            edges.add((ax.sub, SUBCLASS_PREDICATE, ax.sup))
        elif isinstance(ax, NF2):
            edges.add((ax.sub, ax.relation, ax.filler))
        elif isinstance(ax, NF3):
            edges.add((ax.sup, ax.relation, ax.filler))
    nodes = set(o.concept_names) | set(o.individual_names) | set(namer.fresh)
    for s, _p, t in edges:
        nodes.update((s, t))
    return ProjectedGraph(frozenset(nodes), frozenset(edges))


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def random_walks(g: ProjectedGraph, cfg: WalkConfig) -> list[list[str]]:
    """Uniform truncated walks, ``walks_per_node`` from every node.

    A walk records node and predicate names alternately and stops early at
    nodes with no outgoing edges, so a sink yields the single-element walk.
    """
    if not g.nodes:
        raise DataError("cannot walk an empty graph")
    adjacency: dict[str, list[tuple[str, str]]] = {node: [] for node in g.nodes}
    for s, p, t in sorted(g.edges):
        adjacency[s].append((p, t))
    rng = np.random.default_rng(cfg.seed)
    walks = []
    for node in sorted(g.nodes):
        for _ in range(cfg.walks_per_node):
            path = [node]
            current = node
            for _step in range(cfg.walk_length):
                outgoing = adjacency[current]
                if not outgoing:
                    break
                pred, target = outgoing[int(rng.integers(len(outgoing)))]
                path.extend((pred, target))
                current = target
            walks.append(path)
    return walks


# ---------------------------------------------------------------------------
# lexicalization
# ---------------------------------------------------------------------------

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def split_identifier(name: str) -> list[str]:
    """Lowercase word pieces of an identifier: underscores, then camel case."""
    tokens = []
    for part in name.split("_"):
        for piece in _CAMEL_BOUNDARY.split(part):
            if piece:
                tokens.append(piece.lower())
    return tokens


def _text_tokens(text: str) -> list[str]:
    return [t.lower() for t in _WORD_RE.findall(text)]


def label_table(o: Ontology) -> dict[str, list[str]]:
    """Tokens of each name's first label annotation that has any."""
    table: dict[str, list[str]] = {}
    for ax in o.axioms:
        if isinstance(ax, Annotation) and ax.kind == LABEL and ax.entity not in table:
            tokens = _text_tokens(ax.text)
            if tokens:
                table[ax.entity] = tokens
    return table


def name_tokens(name: str, o: Ontology | dict[str, list[str]]) -> list[str]:
    """Tokens for a graph name: its label if annotated, else the identifier; ``o`` may be a label table."""
    labels = label_table(o) if isinstance(o, Ontology) else o
    return labels.get(name) or split_identifier(name)


def lexicalize(walks: list[list[str]], o: Ontology) -> WalkCorpus:
    """Expand walks into sentences of lowercase tokens.

    Comment annotations are appended afterwards as standalone sentences, one
    per annotation, so descriptive text reaches the corpus too.
    """
    labels = label_table(o)
    sentences = []
    for walk in walks:
        sentence: list[str] = []
        for name in walk:
            sentence.extend(name_tokens(name, labels))
        if sentence:
            sentences.append(sentence)
    for ax in o.axioms:
        if isinstance(ax, Annotation) and ax.kind == COMMENT:
            tokens = _text_tokens(ax.text)
            if tokens:
                sentences.append(tokens)
    vocabulary: dict[str, int] = {}
    for sentence in sentences:
        for token in sentence:
            vocabulary[token] = vocabulary.get(token, 0) + 1
    return WalkCorpus(sentences, vocabulary)


# ---------------------------------------------------------------------------
# skip-gram with negative sampling
# ---------------------------------------------------------------------------


# Pairs per minibatch step.  Rows repeated within a step add their updates, so
# a larger step overshoots on a small vocabulary: on the two test corpora at
# learning rate 0.2, 16 pairs per step blew up in 4 of 12 seeded runs and 64
# in all 12, while 8 converged in all of them.
_PAIRS_PER_STEP = 8


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _pairs(sentences: list[list[int]], window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) index arrays in corpus order: by center, then context position."""
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    tokens = np.array([t for s in sentences for t in s], dtype=np.intp)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    position = np.arange(len(tokens)) - starts
    offsets = np.array([o for o in range(-window, window + 1) if o != 0])
    target = position[:, None] + offsets
    valid = (target >= 0) & (target < np.repeat(lengths, lengths)[:, None])
    centers = np.broadcast_to(tokens[:, None], valid.shape)[valid]
    contexts = tokens[(starts[:, None] + target)[valid]]
    return centers, contexts


def _draw_negatives(
    rng: np.random.Generator, cdf: np.ndarray, n_pairs: int, negatives: int
) -> np.ndarray:
    """An epoch of noise tokens: what ``n_pairs`` calls of ``rng.choice(p=noise)`` draw."""
    draws = cdf.searchsorted(rng.random(n_pairs * negatives), side="right")
    return draws.reshape(n_pairs, negatives)


def train_skipgram(
    corpus: WalkCorpus, cfg: SkipGramConfig, init: WordVectors | None = None
) -> WordVectors:
    """Train input vectors on the corpus; ``init`` seeds known tokens.

    Tokens below ``min_count`` are dropped.  Negative targets are drawn from
    the unigram distribution raised to 3/4, all of an epoch's at once, and a
    negative equal to its pair's context is skipped.  Each step takes the
    next 8 (center, context) pairs in corpus order, computes every pair's
    update from the vectors as they stood at the start of the step, and adds
    them all, summing the updates of rows repeated within the step.  The
    learning rate decays linearly per pair to 1e-4 of ``learning_rate``;
    rates up to 0.2 are tested to converge.  With ``epochs=0`` the result for
    initialized tokens is exactly the initialization, which makes a
    pretrained file plus zero epochs a no-op and more epochs a fine-tune.
    Raises :class:`NumericalError` naming the epoch and the first token whose
    vector is no longer finite.
    """
    counts = {t: c for t, c in corpus.vocabulary.items() if c >= cfg.min_count}
    if not counts:
        raise DataError("corpus has no tokens above the count threshold")
    if init is not None and init.dim != cfg.dim:
        raise DataError(f"pretrained vectors have dim {init.dim}, expected {cfg.dim}")
    vocab = sorted(counts, key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    size, dim = len(vocab), cfg.dim

    rng = np.random.default_rng(cfg.seed)
    # one parameter matrix: input vectors in rows [0, size), output vectors after
    params = np.zeros((2 * size, dim))
    for token, i in index.items():
        if init is not None and token in init.vectors:
            params[i] = init.vectors[token]
        else:
            params[i] = rng.uniform(-0.5 / dim, 0.5 / dim, size=dim)

    noise = np.array([counts[t] for t in vocab], dtype=float) ** 0.75
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    sentences = [[index[t] for t in sent if t in index] for sent in corpus.sentences]
    centers, contexts = _pairs(sentences, cfg.window)
    n_pairs = len(centers)
    total_pairs = max(1, n_pairs * cfg.epochs)
    # score column 0 is the context (label 1), the others are negatives (label 0)
    sign = np.where(np.arange(1 + cfg.negatives) == 0, 1.0, -1.0)
    cols = np.arange(dim)
    step = _PAIRS_PER_STEP

    # per-epoch tables; rows index the output half of params.  They are
    # refilled in place, so two epochs' tables never coexist in memory.
    rows = np.empty((n_pairs, 1 + cfg.negatives), dtype=np.intp)
    rows[:, 0] = contexts + size
    kept = np.ones(rows.shape, dtype=bool)
    scale = np.empty(rows.shape)
    log_sig = np.empty(rows.shape)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            rows[:, 1:] = _draw_negatives(rng, cdf, n_pairs, cfg.negatives)
            rows[:, 1:] += size
            np.not_equal(rows[:, 1:], rows[:, :1], out=kept[:, 1:])
            processed = epoch * n_pairs + np.arange(n_pairs)
            alpha = cfg.learning_rate * np.maximum(1e-4, 1.0 - processed / total_pairs)
            # d(loss)/d(score) = sign * (sigmoid(sign * score) - 1); skipped negatives get 0
            np.multiply(kept, alpha[:, None], out=scale)
            scale *= sign
            for lo in range(0, n_pairs, step):
                c, r = centers[lo : lo + step], rows[lo : lo + step]
                vec, targets = params[c], params[r]
                ls = _log_sigmoid(sign * np.einsum("bd,bkd->bk", vec, targets))
                log_sig[lo : lo + step] = ls
                err = np.expm1(ls) * scale[lo : lo + step]
                grad_in = np.einsum("bk,bkd->bd", err, targets)
                grad_out = err[:, :, None] * vec[:, None, :]
                # bincount adds up the updates of rows repeated within the step
                flat = (np.concatenate([c, r.ravel()])[:, None] * dim + cols).ravel()
                weights = np.concatenate([grad_in.ravel(), grad_out.ravel()])
                params -= np.bincount(flat, weights, params.size).reshape(params.shape)
            losses.append(-float(np.sum(log_sig, where=kept)) / max(1, n_pairs))
            _check_finite(epoch, vocab, params, losses[-1])
    vectors = {t: params[i].copy() for t, i in index.items()}
    return WordVectors(dim, vectors, tuple(losses), n_pairs)


def _check_finite(epoch: int, vocab: list[str], params: np.ndarray, loss: float) -> None:
    bad = (~np.isfinite(params).all(axis=1)).reshape(2, len(vocab)).any(axis=0)
    if bad.any():
        token = vocab[int(np.argmax(bad))]
        raise NumericalError(
            f"skip-gram diverged in epoch {epoch + 1}: vector of {token!r} is not finite"
        )
    if not np.isfinite(loss):
        raise NumericalError(f"skip-gram diverged in epoch {epoch + 1}: loss is not finite")


def word_encoding(name: str, wv: WordVectors, o: Ontology | dict[str, list[str]]) -> np.ndarray:
    """Mean vector of the in-vocabulary tokens of :func:`name_tokens`."""
    tokens = name_tokens(name, o)
    known = [wv.vectors[t] for t in tokens if t in wv.vectors]
    if not known:
        raise UnknownNameError(
            f"no word vectors for any token of {name!r} (tokens: {', '.join(tokens) or 'none'})"
        )
    return np.mean(known, axis=0)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_corpus(corpus: WalkCorpus) -> str:
    return "".join(" ".join(sentence) + "\n" for sentence in corpus.sentences)


def load_corpus(text: str) -> WalkCorpus:
    sentences = [line.split() for line in text.splitlines() if line.split()]
    vocabulary: dict[str, int] = {}
    for sentence in sentences:
        for token in sentence:
            vocabulary[token] = vocabulary.get(token, 0) + 1
    return WalkCorpus(sentences, vocabulary)


def save_word_vectors(wv: WordVectors) -> str:
    """Plain text: ``count dim`` header, then one token and its coordinates."""
    lines = [f"{len(wv.vectors)} {wv.dim}"]
    lines.extend(f"{token} {' '.join(map(fmt, wv.vectors[token]))}" for token in sorted(wv.vectors))
    return "".join(line + "\n" for line in lines)


def load_word_vectors(text: str) -> WordVectors:
    """Parse :func:`save_word_vectors` output; malformed or non-finite values are DataErrors."""
    lines = enumerate(text.splitlines(), start=1)
    rows = [(line_no, line.split()) for line_no, line in lines if line.strip()]
    if not rows:
        raise DataError("empty word-vector file")
    head_no, head = rows[0]
    if len(head) != 2:
        raise DataError(f"line {head_no}: word-vector header must be 'count dim'")
    count, dim = read_int(head[0], f"line {head_no}"), read_int(head[1], f"line {head_no}", 1)
    if len(rows) - 1 != count:
        raise DataError(f"expected {count} vector rows, found {len(rows) - 1}")
    vectors: dict[str, np.ndarray] = {}
    for line_no, parts in rows[1:]:
        if parts[0] in vectors:
            raise DataError(f"line {line_no}: token {parts[0]!r} appears twice")
        vectors[parts[0]] = read_floats(parts[1:], f"line {line_no}", dim)
    return WordVectors(dim, vectors)
