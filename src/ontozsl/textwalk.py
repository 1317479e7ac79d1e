"""Graph projection, random walks, and corpus-trained word vectors.

The ontology is projected onto a labeled multigraph.  The projection takes
the inclusions and the rewriting of ``normalform``, with each individual
standing for itself rather than for an ``IND_`` concept: plain inclusions
become ``subClassOf`` edges, shallow existentials on either side of an
inclusion become edges labeled with the relation, and assertions and
nominals contribute edges over the individuals themselves.

The corpus is the two documents of OWL2Vec*: uniform random walks over the
graph, kept verbatim with one token per node or predicate name, and one
lexical sentence per label or comment, the entity's name followed by the
words of its text.  A small skip-gram model with negative sampling turns the
corpus into vectors of entity names and label words alike.  Pretrained
vectors can be passed as initialization, so running extra epochs fine-tunes
them on the corpus.

Skip-gram training is minibatched.  The (center, context) pairs are index
arrays built once per run.  Each epoch runs in blocks of 16 steps: a block
draws its negatives, computes its learning rates and builds one flat index
into the parameters that both the gather and the scatter of its steps use,
so the tables take memory in proportion to the block, not the corpus.  Each
step then takes 8 consecutive pairs, computes their updates from the vectors
as they stood at the start of the step and adds them into the entries the
step touched, summing the updates of rows that repeat within the step; its
cost does not depend on the vocabulary.  Learning rates up to 0.2 are tested
to converge; a run whose vectors or loss stop being finite raises
:class:`NumericalError` at the end of the epoch.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError, UnknownNameError, check_ranges, check_table_size
from .normalform import NF1, NF2, NF3, inclusions, rewrite
from .ontology import LABEL, Annotation, Ontology, RoleComposition, expression_text
from .textio import Rows, fmt, read_floats, read_int, unique

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
            "skip-gram config", dim=self.dim >= 1, window=self.window >= 1, negatives=self.negatives >= 0,
            epochs=self.epochs >= 0, learning_rate=0 < self.learning_rate < math.inf,
            min_count=self.min_count >= 1, seed=self.seed >= 0,
        )


@dataclass
class WalkCorpus:
    """Sentences of tokens; ``vocabulary`` counts each token, in first-seen order."""

    sentences: list[list[str]]
    vocabulary: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.vocabulary = dict(Counter(token for sentence in self.sentences for token in sentence))


@dataclass
class WordVectors:
    dim: int
    vectors: dict[str, np.ndarray]
    train_losses: tuple[float, ...] = ()
    pairs_per_epoch: int = 0


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def project(o: Ontology) -> ProjectedGraph:
    """Project the ontology onto relation-labeled edges.

    The inclusions are those of normalization with each individual standing
    for itself, decomposed by the same rewriting, so the decomposition names
    show up as nodes.  The edge set only depends on the set of axioms, not
    their order.  Relation chains produce no edges and are counted in a
    warning.
    """
    skipped = sum(isinstance(ax, RoleComposition) for ax in o.axioms)
    if skipped:
        logger.warning("projection skipped %d relation chain(s)", skipped)
    pairs = inclusions(o, {a: a for a in o.individual_names})
    # canonical order makes decomposition names independent of axiom order
    pairs = sorted(set(pairs), key=lambda pair: (expression_text(pair[0]), expression_text(pair[1])))
    taken = set(o.concept_names) | set(o.relation_names) | set(o.individual_names)
    normal, provenance = rewrite(pairs, taken)

    edges: set[tuple[str, str, str]] = set()
    for ax in normal:
        if isinstance(ax, NF1):
            edges.add((ax.sub, SUBCLASS_PREDICATE, ax.sup))
        elif isinstance(ax, NF2):
            edges.add((ax.sub, ax.relation, ax.filler))
        elif isinstance(ax, NF3):
            edges.add((ax.sup, ax.relation, ax.filler))
    nodes = set(o.concept_names) | set(o.individual_names) | set(provenance)
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
    """Words of a name: its first label's if annotated, else the identifier's; ``o`` may be a label table."""
    labels = label_table(o) if isinstance(o, Ontology) else o
    return labels.get(name) or split_identifier(name)


def lexicalize(walks: list[list[str]], o: Ontology) -> WalkCorpus:
    """The walks verbatim, then one lexical sentence per annotation.

    A walk sentence has one token per node or predicate name, case kept:
    names are case-sensitive, so ``Foo`` and ``foo`` stay two tokens.  Each
    ``Label`` or ``Comment`` annotation with any word then adds the sentence
    ``[entity, *words]``, its lowercase words after the entity's name, which
    puts the name's token beside the words that describe it.  A word that
    equals a lowercase entity name is that name's token: the label word
    ``dog`` and the concept ``dog`` share one vector.
    """
    sentences = [list(walk) for walk in walks if walk]
    for ax in o.axioms:
        if isinstance(ax, Annotation):
            tokens = _text_tokens(ax.text)
            if tokens:
                sentences.append([ax.entity, *tokens])
    return WalkCorpus(sentences)


# ---------------------------------------------------------------------------
# skip-gram with negative sampling
# ---------------------------------------------------------------------------


# Pairs per minibatch step.  Rows repeated within a step add their updates, so
# a larger step overshoots on a small vocabulary: on the two test corpora at
# learning rate 0.2, 16 pairs per step blew up in 4 of 12 seeded runs and 64
# in all 12, while 8 converged in all of them.
_PAIRS_PER_STEP = 8
# Steps per block.  A block's negatives, rates and flat gather/scatter index
# are tabulated at once, so training memory grows with the block, not the
# corpus.  The index takes (2 + negatives) * dim * 8 bytes a pair, 179 KB a
# block at the defaults; 16 steps ran as fast as 64 on the word-walks corpus.
_STEPS_PER_BLOCK = 16


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
    """Noise tokens: what ``n_pairs`` calls of ``rng.choice(p=noise)`` draw.

    Consecutive calls continue one stream, so drawing block by block gives
    the same tokens as one call for the whole epoch.
    """
    draws = cdf.searchsorted(rng.random(n_pairs * negatives), side="right")
    return draws.reshape(n_pairs, negatives)


def train_skipgram(
    corpus: WalkCorpus, cfg: SkipGramConfig, init: WordVectors | None = None
) -> WordVectors:
    """Train input vectors on the corpus; ``init`` seeds known tokens.

    Tokens below ``min_count`` are dropped.  Negative targets are drawn from
    the unigram distribution raised to 3/4, and a negative equal to its
    pair's context is skipped.  Each step takes the next 8 (center, context)
    pairs in corpus order, computes every pair's update from the vectors as
    they stood at the start of the step, and adds them all into the entries
    it gathered, summing the updates of rows repeated within the step.
    Steps run in blocks of 16; a block draws its negatives and builds the
    flat index of its gathered entries at once, so memory is bounded by the
    block and a step's cost by the rows it touches, whatever the corpus or
    vocabulary size.  The learning rate decays linearly per pair to 1e-4 of
    ``learning_rate``; rates up to 0.2 are tested to converge.  With
    ``epochs=0`` the result for initialized tokens is exactly the
    initialization, which makes a pretrained file plus zero epochs a no-op
    and more epochs a fine-tune.
    Raises :class:`NumericalError` naming the epoch and the first token whose
    vector is no longer finite, and a DataError naming ``w2v_dim`` before
    allocating a table over ``errors.MAX_TABLE_BYTES``.
    """
    counts = {t: c for t, c in corpus.vocabulary.items() if c >= cfg.min_count}
    if not counts:
        raise DataError("corpus has no tokens above the count threshold")
    if init is not None and init.dim != cfg.dim:
        raise DataError(f"pretrained vectors have dim {init.dim}, expected {cfg.dim}")
    vocab = sorted(counts, key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    size, dim = len(vocab), cfg.dim
    check_table_size("w2v_dim", 2 * size, dim)

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
    n_pairs, k = len(centers), cfg.negatives
    total_pairs = max(1, n_pairs * cfg.epochs)
    # score column 0 is the context (label 1), the others are negatives (label 0)
    sign = np.where(np.arange(1 + k) == 0, 1.0, -1.0)
    flat = params.reshape(-1)
    step = _PAIRS_PER_STEP
    block = step * _STEPS_PER_BLOCK
    # star[:, i, j] weighs gathered row j in the update of gathered row i: the
    # center takes every target's term and each target only the center's, so
    # one matmul gives all 2 + k updates of a pair
    star = np.zeros((step, 2 + k, 2 + k))
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss = 0.0
            for start in range(0, n_pairs, block):
                n = min(block, n_pairs - start)
                rows = np.empty((n, 2 + k), dtype=np.intp)
                rows[:, 0] = centers[start : start + n]
                rows[:, 1] = contexts[start : start + n] + size
                rows[:, 2:] = _draw_negatives(rng, cdf, n, k) + size
                kept = rows[:, 1:] != rows[:, 1:2]
                kept[:, 0] = True  # the context itself
                processed = epoch * n_pairs + np.arange(start, start + n)
                alpha = cfg.learning_rate * np.maximum(1e-4, 1.0 - processed / total_pairs)
                # -alpha * d(loss)/d(score) = rate / (1 + exp(sign * score));
                # skipped negatives get rate 0
                rate = kept * alpha[:, None] * sign
                # one flat index table, row * dim + column, serves both the
                # gather and the scatter
                at = rows[:, :, None] * dim + np.arange(dim)
                signed = np.empty(kept.shape)  # sign * score, kept for the loss
                for lo in range(0, n, step):
                    idx = at[lo : lo + step]
                    gathered = flat[idx]
                    scores = np.vecdot(gathered[:, 1:], gathered[:, :1])
                    np.multiply(scores, sign, out=signed[lo : lo + step])
                    coef = np.exp(signed[lo : lo + step])
                    coef += 1.0
                    np.divide(rate[lo : lo + step], coef, out=coef)
                    weights = star[: len(coef)]
                    weights[:, 0, 1:] = coef
                    weights[:, 1:, 0] = coef
                    # add.at sums the updates of rows repeated within the step
                    np.add.at(flat, idx.ravel(), (weights @ gathered).ravel())
                # a target's loss is softplus(-signed score), written to not overflow
                softplus = np.maximum(-signed, 0.0) + np.log1p(np.exp(-np.abs(signed)))
                loss += float(np.sum(softplus, where=kept))
            losses.append(loss / max(1, n_pairs))
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
    """The vector of the entity token ``name``, else the mean of its known :func:`name_tokens`.

    A corpus from :func:`lexicalize` gives every walked or annotated entity
    its own token; the fallback to label or identifier words serves vectors
    trained elsewhere, such as a plain word-vector file.
    """
    tokens = [name] if name in wv.vectors else name_tokens(name, o)
    known = [wv.vectors[t] for t in tokens if t in wv.vectors]
    if not known:
        raise UnknownNameError(
            f"no word vector for {name!r} nor for any of its words ({', '.join(tokens) or 'none'})"
        )
    return np.mean(known, axis=0)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_corpus(corpus: WalkCorpus) -> str:
    return "".join(" ".join(sentence) + "\n" for sentence in corpus.sentences)


def load_corpus(rows: Rows) -> WalkCorpus:
    """One sentence per ``(where, line)`` row of :func:`ontozsl.textio.lines`."""
    return WalkCorpus([line.split() for _where, line in rows])


def save_word_vectors(wv: WordVectors) -> str:
    """Plain text: ``count dim`` header, then one token and its coordinates."""
    rows = [f"{len(wv.vectors)} {wv.dim}"]
    rows.extend(f"{token} {' '.join(map(fmt, wv.vectors[token]))}" for token in sorted(wv.vectors))
    return "".join(row + "\n" for row in rows)


def load_word_vectors(rows: Rows) -> WordVectors:
    """Parse :func:`save_word_vectors` output from its rows; malformed or non-finite values are DataErrors.

    Rows are parsed as they come and the header's count is checked at the
    end, so a malformed row is reported before a count that does not match.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise DataError("empty word-vector file")
    head_where, head = first[0], first[1].split()
    if len(head) != 2:
        raise DataError(f"{head_where}: word-vector header must be 'count dim'")
    count, dim = read_int(head[0], head_where), read_int(head[1], head_where, 1)
    vectors: dict[str, np.ndarray] = {}
    for where, line in rows:
        token, *values = line.split()
        unique(vectors, token, where, "token")
        vectors[token] = read_floats(values, where, dim)
    if len(vectors) != count:
        raise DataError(f"expected {count} vector rows, found {len(vectors)}")
    return WordVectors(dim, vectors)
