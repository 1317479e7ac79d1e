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
words of its text.  The corpus becomes vectors of entity names and label
words alike by a closed-form stand-in for skip-gram: a truncated
factorization of the positive PMI of its (center, context) counts.  Skip-gram
with negative sampling implicitly factorizes a shifted PMI matrix (Levy &
Goldberg, NeurIPS 2014), and a truncated factorization of PPMI matches it
(Levy, Goldberg & Dagan, TACL 2015).  The counts stay a sparse table, and a
seeded subspace iteration, whose products with the table sum rows with
``reduceat`` instead of calling BLAS, gives the same bytes under any number
of BLAS threads.  The function and config keep their skip-gram names,
:func:`train_skipgram` and :class:`SkipGramConfig`, because the benchmark
patches the one and its workloads set the other's ``epochs``.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UnknownNameError, check_ranges, check_table_size
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
            "walk config", self, walks_per_node=self.walks_per_node >= 1,
            walk_length=self.walk_length >= 1, seed=self.seed >= 0,
        )


@dataclass(frozen=True)
class SkipGramConfig:
    """Settings of :func:`train_skipgram`: vector width, context window, rounds of
    subspace iteration (``epochs``), the token count threshold and the seed of
    the starting columns."""

    dim: int = 25
    window: int = 2
    epochs: int = 50
    min_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        check_ranges(
            "skip-gram config", self, dim=self.dim >= 1, window=self.window >= 1, epochs=self.epochs >= 1,
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
    pairs: int = 0


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
# word vectors: a truncated factorization of the corpus's PPMI table
# ---------------------------------------------------------------------------


# Columns the subspace iteration carries beyond ``dim``: column i <= dim then
# converges by (s[dim + 11] / s[i]) ** 2 a round, not by (s[dim + 1] / s[i]) ** 2.
_EXTRA_COLUMNS = 10


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


@dataclass(frozen=True)
class _Sparse:
    """A ``size`` x ``size`` matrix as COO arrays sorted by row, then column."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    size: int

    def transpose(self) -> _Sparse:
        order = np.lexsort((self.rows, self.cols))
        return _Sparse(self.cols[order], self.rows[order], self.vals[order], self.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with dense ``x``: each row's terms summed in column order by ``reduceat``.

        No BLAS call, so the bytes do not depend on the number of BLAS threads.
        """
        starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        out = np.zeros((self.size, x.shape[1]))
        out[self.rows[starts]] = np.add.reduceat(self.vals[:, None] * x[self.cols], starts, axis=0)
        return out


def _ppmi(centers: np.ndarray, contexts: np.ndarray, size: int) -> _Sparse:
    """Positive PMI of the (center, context) counts, context counts raised to 3/4.

    ``log(n(w, c) * Z / (n(w) * n(c) ** 0.75))`` with ``Z`` the sum of
    ``n(c) ** 0.75``, computed on the nonzero counts only; entries that are
    not positive are left out.
    """
    keys, counts = np.unique(centers * size + contexts, return_counts=True)
    rows, cols = np.divmod(keys, size)
    row_totals = np.bincount(rows, counts, size)
    smoothed = np.bincount(cols, counts, size) ** 0.75
    pmi = np.log(counts * smoothed.sum() / (row_totals[rows] * smoothed[cols]))
    keep = pmi > 0
    return _Sparse(rows[keep], cols[keep], pmi[keep], size)


def _orthonormal(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning ``y`` and their squared singular values, largest first.

    The left singular vectors of ``y``, from the SVD of its small Gram
    matrix.  A direction whose squared singular value is below 1e-12 of the
    largest is rounding noise: its column and its value come out zero.
    Products go through ``einsum``, not BLAS, as in :meth:`_Sparse.__matmul__`.
    The SVD, not ``eigh``: from 26 columns on, numpy's ``eigh`` wakes
    OpenBLAS threads that then spin for about 0.1 s, holding cores that the
    later stages and other processes could use, while its SVD stays on one
    thread up to 40 columns.
    """
    basis, squares, _ = np.linalg.svd(np.einsum("ij,ik->jk", y, y))
    keep = squares > squares[0] * 1e-12
    scale = np.zeros_like(squares)
    scale[keep] = squares[keep] ** -0.5
    return np.einsum("ij,jk->ik", y, basis * scale), np.where(keep, squares, 0.0)


def train_skipgram(corpus: WalkCorpus, cfg: SkipGramConfig) -> WordVectors:
    """Word vectors from a truncated factorization of the corpus's PPMI table.

    Skip-gram with negative sampling implicitly factorizes a shifted PMI
    matrix (Levy & Goldberg, 2014); this factorizes the positive PMI of the
    (center, context) counts within ``window`` explicitly.  Tokens below
    ``min_count`` are dropped.  The counts are a sparse table sorted by
    (center, context), and PPMI is computed on its nonzero entries with the
    context counts raised to 3/4.  ``epochs`` rounds of subspace iteration on
    ``dim`` + 10 columns, started from seeded Gaussian columns, approach its
    top left singular vectors U and values S; each round multiplies by the
    table's transpose and then by the table, orthonormalizing after each.
    A token's vector is its row of ``U sqrt(S)`` over the top ``dim``
    columns, each column signed so its largest entry is positive.  Products
    with the table are ``reduceat`` sums, not BLAS calls, and the only LAPACK
    call is the SVD of a (dim + 10)-square matrix, so the vectors do not
    depend on the number of BLAS threads.

    ``train_losses`` holds one value per round: the share of the table's
    squared Frobenius norm outside the top ``dim`` squared singular values
    found so far (0 for an all-zero table).  ``pairs`` counts the pairs the
    table sums.  A DataError names ``w2v_dim`` before a product would
    allocate a table over ``errors.MAX_TABLE_BYTES``.  The name and the
    ``epochs`` field predate the factorization; the benchmark reads them.
    """
    counts = {t: c for t, c in corpus.vocabulary.items() if c >= cfg.min_count}
    if not counts:
        raise DataError("corpus has no tokens above the count threshold")
    vocab = sorted(counts, key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    size, width = len(vocab), cfg.dim + _EXTRA_COLUMNS

    sentences = [[index[t] for t in sent if t in index] for sent in corpus.sentences]
    centers, contexts = _pairs(sentences, cfg.window)
    table = _ppmi(centers, contexts, size)
    check_table_size("w2v_dim", max(size, len(table.vals)), width, cfg.dim)
    transposed = table.transpose()
    total = float(np.sum(table.vals**2))

    left, _ = _orthonormal(np.random.default_rng(cfg.seed).standard_normal((size, width)))
    losses = []
    for _ in range(cfg.epochs):
        right, _ = _orthonormal(transposed @ left)
        left, squares = _orthonormal(table @ right)
        losses.append(1.0 - squares[: cfg.dim].sum() / total if total else 0.0)
    top = left[:, : cfg.dim]
    top[:, top[np.abs(top).argmax(axis=0), np.arange(cfg.dim)] < 0] *= -1.0
    vectors = top * squares[: cfg.dim] ** 0.25 + 0.0  # + 0.0 turns -0.0 into 0.0
    return WordVectors(cfg.dim, {t: vectors[i] for t, i in index.items()}, tuple(losses), len(centers))


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
