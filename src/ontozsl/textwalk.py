"""Graph projection, random walks, and corpus-trained word vectors.

The ontology is projected onto a labeled multigraph: plain inclusions become
``subClassOf`` edges, shallow existentials on either side of an inclusion
become edges labeled with the relation, and assertions contribute edges over
the individuals themselves.  Uniform random walks over the graph, written out
through entity labels, give a corpus that a small skip-gram model with
negative sampling turns into word vectors.  Pretrained vectors can be passed
as initialization, so running extra epochs fine-tunes them on the walks.
"""

from __future__ import annotations

import logging
import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UnknownNameError
from .harness import float_row
from .normalform import NF1, NF2, NF3, TOP, _Namer, _rewrite
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
    RoleInclusion,
    expression_text,
)

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
        if self.walks_per_node < 1 or self.walk_length < 1:
            raise DataError("walk config out of range")


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
        if self.dim < 1 or self.window < 1 or self.negatives < 0 or self.epochs < 0:
            raise DataError("skip-gram config out of range")
        if self.learning_rate <= 0 or self.min_count < 1:
            raise DataError("skip-gram config out of range")


@dataclass
class WalkCorpus:
    sentences: list[list[str]]
    vocabulary: dict[str, int]


@dataclass
class WordVectors:
    dim: int
    vectors: dict[str, np.ndarray]
    train_losses: tuple[float, ...] = ()


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


def _label_table(o: Ontology) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for ax in o.axioms:
        if isinstance(ax, Annotation) and ax.kind == LABEL and ax.entity not in table:
            tokens = _text_tokens(ax.text)
            if tokens:
                table[ax.entity] = tokens
    return table


def name_tokens(name: str, o: Ontology) -> list[str]:
    """Tokens for one graph name: its label if annotated, else the identifier."""
    return _label_table(o).get(name) or split_identifier(name)


def lexicalize(walks: list[list[str]], o: Ontology) -> WalkCorpus:
    """Expand walks into sentences of lowercase tokens.

    Comment annotations are appended afterwards as standalone sentences, one
    per annotation, so descriptive text reaches the corpus too.
    """
    labels = _label_table(o)
    sentences = []
    for walk in walks:
        sentence: list[str] = []
        for name in walk:
            sentence.extend(labels.get(name) or split_identifier(name))
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


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def train_skipgram(
    corpus: WalkCorpus, cfg: SkipGramConfig, init: WordVectors | None = None
) -> WordVectors:
    """Train input vectors on the corpus; ``init`` seeds known tokens.

    Tokens below ``min_count`` are dropped.  Negative targets are drawn from
    the unigram distribution raised to 3/4.  With ``epochs=0`` the result for
    initialized tokens is exactly the initialization, which makes a pretrained
    file plus zero epochs a no-op and more epochs a fine-tune.
    """
    counts = {t: c for t, c in corpus.vocabulary.items() if c >= cfg.min_count}
    if not counts:
        raise DataError("corpus has no tokens above the count threshold")
    if init is not None and init.dim != cfg.dim:
        raise DataError(f"pretrained vectors have dim {init.dim}, expected {cfg.dim}")
    vocab = sorted(counts, key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    size = len(vocab)

    rng = np.random.default_rng(cfg.seed)
    w_in = np.empty((size, cfg.dim))
    for token, i in index.items():
        if init is not None and token in init.vectors:
            w_in[i] = init.vectors[token]
        else:
            w_in[i] = rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=cfg.dim)
    w_out = np.zeros((size, cfg.dim))

    noise = np.array([counts[t] for t in vocab], dtype=float) ** 0.75
    noise /= noise.sum()

    sentences = [[index[t] for t in sent if t in index] for sent in corpus.sentences]
    pairs_per_pass = 0
    for sent in sentences:
        for i in range(len(sent)):
            lo = max(0, i - cfg.window)
            hi = min(len(sent), i + cfg.window + 1)
            pairs_per_pass += hi - lo - 1
    total_pairs = max(1, pairs_per_pass * cfg.epochs)

    losses = []
    processed = 0
    for _epoch in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for sent in sentences:
            for i, center in enumerate(sent):
                lo = max(0, i - cfg.window)
                hi = min(len(sent), i + cfg.window + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    context = sent[j]
                    alpha = cfg.learning_rate * max(1e-4, 1.0 - processed / total_pairs)
                    if cfg.negatives > 0:
                        drawn = rng.choice(size, size=cfg.negatives, p=noise)
                        rows = [context] + [int(d) for d in drawn if d != context]
                    else:
                        rows = [context]
                    labels = np.zeros(len(rows))
                    labels[0] = 1.0
                    targets = w_out[rows]
                    vec = w_in[center]
                    scores = targets @ vec
                    epoch_loss -= float(
                        _log_sigmoid(scores[0]) + _log_sigmoid(-scores[1:]).sum()
                    )
                    err = 1.0 / (1.0 + np.exp(-scores)) - labels
                    w_out[rows] -= alpha * err[:, None] * vec[None, :]
                    w_in[center] = vec - alpha * (err @ targets)
                    processed += 1
                    epoch_pairs += 1
        losses.append(epoch_loss / max(1, epoch_pairs))
    return WordVectors(
        cfg.dim, {t: w_in[i].copy() for t, i in index.items()}, tuple(losses)
    )


def word_encoding(name: str, wv: WordVectors, o: Ontology) -> np.ndarray:
    """Mean vector of the in-vocabulary tokens in the name's lexicalization."""
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
    for token in sorted(wv.vectors):
        coords = " ".join(format(float(v), ".17g") for v in wv.vectors[token])
        lines.append(f"{token} {coords}")
    return "".join(line + "\n" for line in lines)


def load_word_vectors(text: str) -> WordVectors:
    """Parse :func:`save_word_vectors` output; malformed or non-finite values are DataErrors."""
    lines = enumerate(text.splitlines(), start=1)
    rows = [(line_no, line.split()) for line_no, line in lines if line.strip()]
    if not rows:
        raise DataError("empty word-vector file")
    head_no, head = rows[0]
    if len(head) != 2 or not all(v.isdecimal() for v in head) or int(head[1]) < 1:
        raise DataError(f"line {head_no}: word-vector header must be 'count dim'")
    count, dim = int(head[0]), int(head[1])
    if len(rows) - 1 != count:
        raise DataError(f"expected {count} vector rows, found {len(rows) - 1}")
    vectors: dict[str, np.ndarray] = {}
    for line_no, parts in rows[1:]:
        if len(parts) != dim + 1:
            raise DataError(f"line {line_no}: expected {dim} coordinates")
        vectors[parts[0]] = float_row(",".join(parts[1:]), f"line {line_no}", dim)
    return WordVectors(dim, vectors)
