"""Datasets, evaluation metrics, and a synthetic benchmark generator.

A dataset is a feature table plus a label split: one N x p matrix of
features, with each row's sample id and label beside it.  Samples whose
label is in the seen set form the training split; samples with unseen
labels form the test split, and each is taken from the matrix with a
boolean mask.  Metrics follow the usual zero-shot conventions: the headline
number is the unweighted mean of per-class accuracy over the unseen classes,
with plain sample accuracy reported alongside for generalized evaluation.
The dataset tables and the predictions file are tab-separated rows.  Each
loader takes the ``(where, line)`` rows of :func:`ontozsl.textio.lines` or
:func:`ontozsl.textio.file_lines` and keeps only what it parses, so loading
a file never holds its text.  The comma-separated values of the feature and
vector tables go to :func:`ontozsl.textio.read_float_rows`, which parses
them in blocks into one matrix; numbers and repeated keys go through
:mod:`ontozsl.textio` too.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Container, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, check_ranges
from .ontology import (
    Annotation,
    Atomic,
    Bottom,
    Conjunction,
    Equivalence,
    Existential,
    Gci,
    LABEL,
    Ontology,
)
from .textio import Rows, fmt, read_float_rows, unique


@dataclass(frozen=True)
class Sample:
    """One sample, its ``features`` a view of its row of the dataset's matrix."""

    id: str
    label: str
    features: np.ndarray


@dataclass
class ZslDataset:
    """Row ``i`` of the N x p ``features`` matrix is sample ``ids[i]``, of label ``labels[i]``."""

    ids: list[str]
    labels: list[str]
    features: np.ndarray
    seen_labels: frozenset[str]
    unseen_labels: frozenset[str]

    def rows_of(self, labels: Container[str]) -> np.ndarray:
        """The boolean mask of the samples whose label is in ``labels``."""
        return np.array([label in labels for label in self.labels], dtype=bool)

    @property
    def samples(self) -> list[Sample]:
        """Every sample, built when asked for; the mapper and predict read the matrix."""
        return [Sample(*row) for row in zip(self.ids, self.labels, self.features)]

    def test_samples(self) -> list[Sample]:
        return [s for s in self.samples if s.label in self.unseen_labels]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _tab_rows(rows: Rows, *fields: str) -> Iterator[tuple[str, list[str]]]:
    """``(where, fields)`` of each tab-separated row; ``#`` lines are skipped."""
    for where, line in rows:
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != len(fields):
            raise DataError(f"{where}: expected {', '.join(fields)}")
        yield where, parts


def parse_split(rows: Rows) -> tuple[frozenset[str], frozenset[str]]:
    """Read ``[seen]`` / ``[unseen]`` sections of one label per line; a label may not repeat."""
    section = None
    seen: set[str] = set()
    unseen: set[str] = set()
    for where, raw in rows:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line == "[seen]":
            section = seen
        elif line == "[unseen]":
            section = unseen
        elif line.startswith("["):
            raise DataError(f"{where}: unknown section {line!r}")
        elif section is None:
            raise DataError(f"{where}: label before any section header")
        else:
            section.add(unique(section, line, where, "label"))
    overlap = seen & unseen
    if overlap:
        raise DataError(f"labels in both splits: {', '.join(sorted(overlap))}")
    return frozenset(seen), frozenset(unseen)


def write_split(seen: Iterable[str], unseen: Iterable[str]) -> str:
    rows = ["[seen]"] + sorted(seen) + ["[unseen]"] + sorted(unseen)
    return "".join(row + "\n" for row in rows)


def parse_features(rows: Rows, labels: Container[str] | None = None) -> tuple[list[str], list[str], np.ndarray]:
    """The ids, the labels and the N x p matrix of ``id<TAB>label<TAB>v1,...,vp`` rows.

    Given the split's ``labels``, a row whose label is not among them is an
    error at that row, raised after the rows before it are parsed.
    """
    ids: dict[str, None] = {}
    row_labels: list[str] = []

    def values() -> Iterator[tuple[str, str]]:
        for where, (sample_id, label, text) in _tab_rows(rows, "id", "label", "values"):
            ids[unique(ids, sample_id, where, "sample id")] = None
            if labels is not None and label not in labels:
                raise DataError(f"{where}: sample {sample_id!r} has label {label!r} outside both splits")
            row_labels.append(sys.intern(label))  # one string per label, not per row
            yield where, text

    features = read_float_rows(values())
    if not ids:
        raise DataError("feature file has no samples")
    return list(ids), row_labels, features


def write_features(samples: Iterable[Sample]) -> str:
    return "".join(f"{s.id}\t{s.label}\t{','.join(map(fmt, s.features))}\n" for s in samples)


def load_dataset(features: Rows, split: Rows) -> ZslDataset:
    """Combine feature and split rows, rejecting unlisted labels.

    The split is read first, then the feature rows, each checked against the
    split as it comes: the first sample whose label is in neither split is an
    error at its line, after the rows before it are parsed.
    """
    seen, unseen = parse_split(split)
    ids, labels, matrix = parse_features(features, seen | unseen)
    return ZslDataset(ids, labels, matrix, seen, unseen)


def parse_vector_table(rows: Rows) -> dict[str, np.ndarray]:
    """``label<TAB>v1,...,vk`` rows (used for attributes and similar tables).

    Each vector is a row of one matrix.
    """
    labels: dict[str, None] = {}

    def values() -> Iterator[tuple[str, str]]:
        for where, (label, text) in _tab_rows(rows, "label", "values"):
            labels[unique(labels, label, where, "label")] = None
            yield where, text

    matrix = read_float_rows(values())
    return dict(zip(labels, matrix))


def write_vector_table(table: Mapping[str, np.ndarray]) -> str:
    return "".join(f"{label}\t{','.join(map(fmt, table[label]))}\n" for label in sorted(table))


def parse_class_map(rows: Rows) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for where, (label, concept) in _tab_rows(rows, "label", "concept"):
        mapping[unique(mapping, label, where, "label")] = concept
    return mapping


def write_class_map(mapping: Mapping[str, str]) -> str:
    return "".join(f"{label}\t{mapping[label]}\n" for label in sorted(mapping))


def parse_predictions(rows: Rows) -> tuple[list[str], list[str]]:
    """Predicted and true labels of ``id<TAB>prediction<TAB>truth`` rows; an id may not repeat."""
    found: dict[str, list[str]] = {}
    for where, (sample_id, *labels) in _tab_rows(rows, "id", "prediction", "truth"):
        found[unique(found, sample_id, where, "sample id")] = labels
    return [row[0] for row in found.values()], [row[1] for row in found.values()]


def write_predictions(ids: Sequence[str], predictions: Sequence[str], truth: Sequence[str]) -> str:
    return "".join(f"{i}\t{p}\t{t}\n" for i, p, t in zip(ids, predictions, truth))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def sample_accuracy(predictions: Sequence[str], truth: Sequence[str]) -> float:
    """Fraction of correct predictions over all test samples."""
    if len(predictions) != len(truth):
        raise DataError("predictions and truth differ in length")
    if not truth:
        raise DataError("cannot score an empty test set")
    return sum(p == t for p, t in zip(predictions, truth)) / len(truth)


def unseen_scores(
    predictions: Sequence[str], truth: Sequence[str], unseen_labels: Iterable[str]
) -> tuple[float, dict[str, float], dict[str, tuple[int, int]]]:
    """Macro accuracy over the unseen classes, then each one's accuracy and ``(correct, total)``.

    A split without unseen labels, or an unseen class without test samples,
    is a DataError.
    """
    if len(predictions) != len(truth):
        raise DataError("predictions and truth differ in length")
    labels = sorted(set(unseen_labels))
    if not labels:
        raise DataError("the split has no unseen labels to score")
    total = Counter(truth)
    correct = Counter(t for p, t in zip(predictions, truth) if p == t)
    for label in labels:
        if not total[label]:
            raise DataError(f"class {label!r} has no test samples")
    counts = {label: (correct[label], total[label]) for label in labels}
    per_class = {label: hits / n for label, (hits, n) in counts.items()}
    return sum(per_class.values()) / len(per_class), per_class, counts


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------


@dataclass
class SyntheticData:
    ontology: Ontology
    dataset: ZslDataset
    attributes: dict[str, np.ndarray]


def _pick_trait_sets(
    rng: np.random.Generator, k_seen: int, k_unseen: int, traits_per_class: int
) -> tuple[list[tuple[int, ...]], int]:
    """Distinct trait combinations; unseen classes get well-separated ones.

    Every trait of an unseen class must also occur in some seen class, or no
    mapper could place it; resample until the draw satisfies that.
    """
    k = k_seen + k_unseen
    n_traits = traits_per_class + 3
    while math.comb(n_traits, traits_per_class) < k:
        n_traits += 1
    universe = list(combinations(range(n_traits), traits_per_class))
    for _attempt in range(1000):
        order = rng.permutation(len(universe))
        chosen = [universe[i] for i in order[:k]]
        # spread the unseen classes out: greedy farthest-first by overlap
        unseen: list[tuple[int, ...]] = [chosen[-1]]
        remaining = chosen[:-1]
        while len(unseen) < k_unseen:
            best = max(
                range(len(remaining)),
                key=lambda i: min(
                    traits_per_class - len(set(remaining[i]) & set(u)) for u in unseen
                ),
            )
            unseen.append(remaining.pop(best))
        seen_traits = set().union(*(set(s) for s in remaining)) if remaining else set()
        if all(set(u) <= seen_traits for u in unseen) and len(seen_traits) == n_traits:
            return remaining + unseen, n_traits
    raise DataError("could not cover all traits with seen classes; use more seen classes")


def gen_synthetic(
    k_seen: int,
    k_unseen: int,
    per_class: int,
    p: int = 16,
    noise: float = 0.05,
    seed: int = 0,
) -> SyntheticData:
    """Build a toy taxonomy with compositional class definitions.

    Each class gets a group and a set of traits; the ontology defines it as
    ``Group ^ Some(hasTrait, T1) ^ ...`` and groups are pairwise disjoint.
    The class indicator vector (group one-hot plus trait multi-hot) is the
    latent prototype: features are a seeded linear image of it plus Gaussian
    noise, and attribute vectors are the prototype plus noise.  Deterministic
    for a fixed argument tuple.
    """
    check_ranges(
        "synthetic benchmark", k_seen=k_seen >= 2, k_unseen=k_unseen >= 1,
        per_class=per_class >= 1, p=p >= 2, noise=0 <= noise < math.inf, seed=seed >= 0,
    )
    rng = np.random.default_rng(seed)
    k = k_seen + k_unseen
    traits_per_class = 3
    trait_sets, n_traits = _pick_trait_sets(rng, k_seen, k_unseen, traits_per_class)

    n_groups = max(2, min(3, k_seen // 3))
    groups = [i % n_groups for i in range(k)]  # seen classes first covers every group

    class_names = [f"Class_{i:02d}" for i in range(k)]
    group_names = [f"Group_{g}" for g in range(n_groups)]
    trait_names = [f"Trait_{t}" for t in range(n_traits)]
    relation = "hasTrait"
    root = "Domain"

    axioms = []
    for g in group_names:
        axioms.append(Gci(Atomic(g), Atomic(root)))
    for a, b in combinations(group_names, 2):
        axioms.append(Gci(Conjunction(Atomic(a), Atomic(b)), Bottom()))
    for i, name in enumerate(class_names):
        exprs = [Atomic(group_names[groups[i]])] + [
            Existential(relation, Atomic(trait_names[t])) for t in trait_sets[i]
        ]
        body = exprs[-1]
        for expr in reversed(exprs[:-1]):
            body = Conjunction(expr, body)
        axioms.append(Equivalence(Atomic(name), body))
        axioms.append(Annotation(name, LABEL, f"class {i:02d}"))
    ontology = Ontology(
        concept_names=tuple([root] + group_names + trait_names + class_names),
        relation_names=(relation,),
        individual_names=(),
        axioms=tuple(axioms),
    )

    q = n_groups + n_traits
    prototypes = np.zeros((k, q))
    for i in range(k):
        prototypes[i, groups[i]] = 1.0
        for t in trait_sets[i]:
            prototypes[i, n_groups + t] = 1.0
    mix = rng.normal(size=(p, q)) / np.sqrt(q)

    features = np.empty((k * per_class, p))
    for i in range(k):
        base = mix @ prototypes[i]
        for row in range(i * per_class, (i + 1) * per_class):
            features[row] = base + rng.normal(0.0, noise, size=p)
    attributes = {
        name: prototypes[i] + rng.normal(0.0, noise, size=q)
        for i, name in enumerate(class_names)
    }
    dataset = ZslDataset(
        ids=[f"s{row:05d}" for row in range(k * per_class)],
        labels=[name for name in class_names for _ in range(per_class)],
        features=features,
        seen_labels=frozenset(class_names[:k_seen]),
        unseen_labels=frozenset(class_names[k_seen:]),
    )
    return SyntheticData(ontology, dataset, attributes)
