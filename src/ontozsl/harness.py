"""Datasets, evaluation metrics, and a synthetic benchmark generator.

A dataset is a feature table plus a label split.  Samples whose label is in
the seen set form the training split; samples with unseen labels form the
test split.  Metrics follow the usual zero-shot conventions: the headline
number is the unweighted mean of per-class accuracy over the unseen classes,
with plain sample accuracy reported alongside for generalized evaluation.
The dataset tables and the predictions file are tab-separated rows; their
numbers go through :mod:`ontozsl.textio`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

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
from .textio import fmt, read_floats


@dataclass(frozen=True)
class Sample:
    id: str
    label: str
    features: np.ndarray


@dataclass
class ZslDataset:
    feature_dim: int
    samples: list[Sample]
    seen_labels: frozenset[str]
    unseen_labels: frozenset[str]

    def train_samples(self) -> list[Sample]:
        return [s for s in self.samples if s.label in self.seen_labels]

    def test_samples(self) -> list[Sample]:
        return [s for s in self.samples if s.label in self.unseen_labels]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _tab_rows(text: str, what: str, *fields: str) -> Iterator[tuple[str, list[str]]]:
    """``(where, fields)`` of each tab-separated row; blank and ``#`` lines are skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != len(fields):
            raise DataError(f"{what} line {line_no}: expected {', '.join(fields)}")
        yield f"{what} line {line_no}", parts


def parse_split(text: str) -> tuple[frozenset[str], frozenset[str]]:
    """Read ``[seen]`` / ``[unseen]`` sections of one label per line."""
    section = None
    seen: set[str] = set()
    unseen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[seen]":
            section = seen
        elif line == "[unseen]":
            section = unseen
        elif line.startswith("["):
            raise DataError(f"split line {line_no}: unknown section {line!r}")
        elif section is None:
            raise DataError(f"split line {line_no}: label before any section header")
        else:
            section.add(line)
    overlap = seen & unseen
    if overlap:
        raise DataError(f"labels in both splits: {', '.join(sorted(overlap))}")
    return frozenset(seen), frozenset(unseen)


def write_split(seen: Iterable[str], unseen: Iterable[str]) -> str:
    lines = ["[seen]"] + sorted(seen) + ["[unseen]"] + sorted(unseen)
    return "".join(line + "\n" for line in lines)


def parse_features(text: str) -> tuple[int, list[Sample]]:
    samples: list[Sample] = []
    dim: int | None = None
    for where, (sample_id, label, values) in _tab_rows(text, "features", "id", "label", "values"):
        row = read_floats(values.split(","), where, dim)
        dim = row.size
        samples.append(Sample(sample_id, label, row))
    if dim is None:
        raise DataError("feature file has no samples")
    return dim, samples


def write_features(samples: Iterable[Sample]) -> str:
    return "".join(f"{s.id}\t{s.label}\t{','.join(map(fmt, s.features))}\n" for s in samples)


def load_dataset(features_text: str, split_text: str) -> ZslDataset:
    """Combine feature and split files, rejecting unlisted labels."""
    dim, samples = parse_features(features_text)
    seen, unseen = parse_split(split_text)
    for s in samples:
        if s.label not in seen and s.label not in unseen:
            raise DataError(f"sample {s.id!r} has label {s.label!r} outside both splits")
    return ZslDataset(dim, samples, seen, unseen)


def parse_vector_table(text: str, what: str) -> dict[str, np.ndarray]:
    """``label<TAB>v1,...,vk`` rows (used for attributes and similar tables)."""
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for where, (label, values) in _tab_rows(text, what, "label", "values"):
        if label in table:
            raise DataError(f"{where}: label {label!r} appears twice")
        table[label] = read_floats(values.split(","), where, dim)
        dim = table[label].size
    return table


def write_vector_table(table: Mapping[str, np.ndarray]) -> str:
    return "".join(f"{label}\t{','.join(map(fmt, table[label]))}\n" for label in sorted(table))


def parse_class_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for where, (label, concept) in _tab_rows(text, "class map", "label", "concept"):
        if label in mapping:
            raise DataError(f"{where}: label {label!r} appears twice")
        mapping[label] = concept
    return mapping


def write_class_map(mapping: Mapping[str, str]) -> str:
    return "".join(f"{label}\t{mapping[label]}\n" for label in sorted(mapping))


def parse_predictions(text: str) -> tuple[list[str], list[str]]:
    """Predicted and true labels of ``id<TAB>prediction<TAB>truth`` rows."""
    rows = [parts for _where, parts in _tab_rows(text, "predictions", "id", "prediction", "truth")]
    return [row[1] for row in rows], [row[2] for row in rows]


def write_predictions(samples: Sequence[Sample], predictions: Sequence[str]) -> str:
    return "".join(f"{s.id}\t{label}\t{s.label}\n" for s, label in zip(samples, predictions))


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


def per_class_accuracy(
    predictions: Sequence[str], truth: Sequence[str], labels: Iterable[str]
) -> dict[str, float]:
    return unseen_scores(predictions, truth, labels)[1]


def macro_accuracy(
    predictions: Sequence[str], truth: Sequence[str], unseen_labels: Iterable[str]
) -> float:
    """Unweighted mean of per-class accuracy over the unseen classes."""
    return unseen_scores(predictions, truth, unseen_labels)[0]


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
        per_class=per_class >= 1, p=p >= 2, noise=noise >= 0, seed=seed >= 0,
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

    samples: list[Sample] = []
    idx = 0
    for i, name in enumerate(class_names):
        base = mix @ prototypes[i]
        for _ in range(per_class):
            x = base + rng.normal(0.0, noise, size=p)
            samples.append(Sample(f"s{idx:05d}", name, x))
            idx += 1
    attributes = {
        name: prototypes[i] + rng.normal(0.0, noise, size=q)
        for i, name in enumerate(class_names)
    }
    dataset = ZslDataset(
        feature_dim=p,
        samples=samples,
        seen_labels=frozenset(class_names[:k_seen]),
        unseen_labels=frozenset(class_names[k_seen:]),
    )
    return SyntheticData(ontology, dataset, attributes)
