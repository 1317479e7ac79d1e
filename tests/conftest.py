"""Shared generators for fuzzed ontologies and datasets, and test oracles."""

from __future__ import annotations

import numpy as np

from ontozsl.normalform import BOTTOM, NF1, NF2, NF3, NF4, TOP, Disjointness, RSub
from ontozsl.ontology import (
    Annotation,
    Atomic,
    Bottom,
    ConceptAssertion,
    Conjunction,
    Equivalence,
    Existential,
    Gci,
    Nominal,
    Ontology,
    RoleAssertion,
    RoleInclusion,
    Top,
)


def random_expression(rng: np.random.Generator, concepts, relations, depth, individuals=()):
    """Random concept expression with nesting depth at most ``depth``."""
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        leaf = rng.random()
        if individuals and leaf < 0.1:
            return Nominal(individuals[int(rng.integers(len(individuals)))])
        if leaf < 0.80:
            return Atomic(concepts[int(rng.integers(len(concepts)))])
        if leaf < 0.90:
            return Top()
        return Bottom()
    if roll < 0.75:
        return Conjunction(
            random_expression(rng, concepts, relations, depth - 1, individuals),
            random_expression(rng, concepts, relations, depth - 1, individuals),
        )
    return Existential(
        relations[int(rng.integers(len(relations)))],
        random_expression(rng, concepts, relations, depth - 1, individuals),
    )


def random_tbox(rng: np.random.Generator, max_concepts=8, max_depth=3) -> Ontology:
    """TBox-only ontology: inclusions, equivalences, relation inclusions."""
    concepts = [f"C{i}" for i in range(int(rng.integers(2, max_concepts + 1)))]
    relations = [f"r{i}" for i in range(int(rng.integers(1, 4)))]
    axioms = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.random()
        if kind < 0.60:
            axioms.append(
                Gci(
                    random_expression(rng, concepts, relations, max_depth),
                    random_expression(rng, concepts, relations, max_depth),
                )
            )
        elif kind < 0.85:
            axioms.append(
                Equivalence(
                    random_expression(rng, concepts, relations, max_depth),
                    random_expression(rng, concepts, relations, max_depth),
                )
            )
        else:
            a = relations[int(rng.integers(len(relations)))]
            b = relations[int(rng.integers(len(relations)))]
            axioms.append(RoleInclusion(a, b))
    return Ontology(
        concept_names=tuple(concepts),
        relation_names=tuple(relations),
        individual_names=(),
        axioms=tuple(axioms),
    )


def random_full_ontology(rng: np.random.Generator) -> Ontology:
    """Exercises the whole statement grammar, assertions and annotations too."""
    concepts = [f"C{i}" for i in range(int(rng.integers(1, 6)))]
    relations = [f"r{i}" for i in range(int(rng.integers(1, 3)))]
    individuals = [f"ind{i}" for i in range(int(rng.integers(0, 3)))]
    axioms = []
    for _ in range(int(rng.integers(0, 8))):
        kind = rng.random()
        if kind < 0.40:
            axioms.append(
                Gci(
                    random_expression(rng, concepts, relations, 2, individuals),
                    random_expression(rng, concepts, relations, 2, individuals),
                )
            )
        elif kind < 0.55:
            axioms.append(
                Equivalence(
                    random_expression(rng, concepts, relations, 2, individuals),
                    random_expression(rng, concepts, relations, 2, individuals),
                )
            )
        elif kind < 0.65:
            a = relations[int(rng.integers(len(relations)))]
            b = relations[int(rng.integers(len(relations)))]
            axioms.append(RoleInclusion(a, b))
        elif kind < 0.75 and individuals:
            axioms.append(
                ConceptAssertion(
                    individuals[int(rng.integers(len(individuals)))],
                    random_expression(rng, concepts, relations, 2, individuals),
                )
            )
        elif kind < 0.85 and individuals:
            axioms.append(
                RoleAssertion(
                    relations[int(rng.integers(len(relations)))],
                    individuals[int(rng.integers(len(individuals)))],
                    individuals[int(rng.integers(len(individuals)))],
                )
            )
        else:
            entity = concepts[int(rng.integers(len(concepts)))]
            kind_name = "label" if rng.random() < 0.5 else "comment"
            words = ["alpha", "beta", 'ga"mma', "delta\\x"]
            text = " ".join(
                words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(1, 4)))
            )
            axioms.append(Annotation(entity, kind_name, text))
    return Ontology(
        concept_names=tuple(concepts),
        relation_names=tuple(relations),
        individual_names=tuple(individuals),
        axioms=tuple(axioms),
    )


def count_complex_subexpressions(o: Ontology) -> int:
    """Distinct conjunction/existential subtrees across every logical axiom."""
    seen = set()

    def walk(expr):
        if isinstance(expr, (Conjunction, Existential)):
            seen.add(expr)
        if isinstance(expr, Conjunction):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, Existential):
            walk(expr.filler)

    for ax in o.axioms:
        if isinstance(ax, Gci):
            walk(ax.sub)
            walk(ax.sup)
        elif isinstance(ax, Equivalence):
            walk(ax.left)
            walk(ax.right)
        elif isinstance(ax, ConceptAssertion):
            walk(ax.concept)
    return len(seen)


def flatten_by_definitions(o: Ontology) -> Ontology:
    """Name every complex subexpression with an explicit DEF equivalence.

    The result proves the same subsumptions between the original concept
    names but normalizes without any machinery for nested expressions, which
    makes it an oracle for the rewriting route.
    """
    defs: dict = {}
    extra_axioms = []
    new_concepts = list(o.concept_names)

    def name_of(expr) -> Atomic | Top | Bottom:
        if isinstance(expr, (Atomic, Top, Bottom)):
            return expr
        if expr in defs:
            return Atomic(defs[expr])
        if isinstance(expr, Conjunction):
            shallow = Conjunction(name_of(expr.left), name_of(expr.right))
        else:
            shallow = Existential(expr.relation, name_of(expr.filler))
        fresh = f"DEF_{len(defs)}"
        defs[expr] = fresh
        new_concepts.append(fresh)
        extra_axioms.append(Equivalence(Atomic(fresh), shallow))
        return Atomic(fresh)

    flat_axioms = []
    for ax in o.axioms:
        if isinstance(ax, Gci):
            flat_axioms.append(Gci(name_of(ax.sub), name_of(ax.sup)))
        elif isinstance(ax, Equivalence):
            flat_axioms.append(Equivalence(name_of(ax.left), name_of(ax.right)))
        else:
            flat_axioms.append(ax)
    return Ontology(
        concept_names=tuple(new_concepts),
        relation_names=o.relation_names,
        individual_names=o.individual_names,
        axioms=tuple(extra_axioms + flat_axioms),
    )


def sae_grad(w: np.ndarray, x: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray:
    """Analytic gradient of ``zslmap.sae_loss`` in the weights; ``train_sae`` must zero it."""
    return -2.0 * z @ (x - w.T @ z).T + 2.0 * lam * (w @ x - z) @ x.T


def deep_some(levels: int) -> str:
    """Ontology text whose last line nests ``levels`` existentials: a tree ``levels + 1`` deep."""
    return "Concept(A)\nRelation(r)\nSubClassOf(A " + "Some(r " * levels + "A" + ")" * levels + ")\n"


def wide_and(operands: int) -> str:
    """Ontology text whose last line is one flat ``And`` of ``operands`` names."""
    names = [f"C{i}" for i in range(operands)]
    return "".join(f"Concept({n})\n" for n in names) + f"SubClassOf(C0 And({' '.join(names)}))\n"


def classify_oracle(n) -> set[tuple[str, str]]:
    """``normalform.classify`` by naive fixpoint: each round rescans every name per axiom.

    Each name subsumes itself, and everything is under ``Top`` whenever
    ``Top`` occurs in the input at all.  A pair ``(A, Bottom)`` signals that
    the two operands of a disjointness axiom were both derived for ``A``.
    """
    names = set(n.concept_names)
    for ax in n.axioms:
        names.update(ax.operands())
    subs = {name: {name} | ({TOP} if TOP in names else set()) for name in names}
    edges: set[tuple[str, str, str]] = set()

    nf1s = [ax for ax in n.axioms if isinstance(ax, NF1)]
    nf2s = [ax for ax in n.axioms if isinstance(ax, NF2)]
    nf3s = [ax for ax in n.axioms if isinstance(ax, NF3)]
    nf4s = [ax for ax in n.axioms if isinstance(ax, NF4)]
    disjs = [ax for ax in n.axioms if isinstance(ax, Disjointness)]
    rsubs = [ax for ax in n.axioms if isinstance(ax, RSub)]

    changed = True
    while changed:
        changed = False
        for ax in nf1s:
            for a in names:
                if ax.sub in subs[a] and ax.sup not in subs[a]:
                    subs[a].add(ax.sup)
                    changed = True
        for ax in nf4s:
            for a in names:
                if ax.left in subs[a] and ax.right in subs[a] and ax.sup not in subs[a]:
                    subs[a].add(ax.sup)
                    changed = True
        for ax in nf2s:
            for a in names:
                if ax.sub in subs[a] and (a, ax.relation, ax.filler) not in edges:
                    edges.add((a, ax.relation, ax.filler))
                    changed = True
        for ax in nf3s:
            for a, rel, b in list(edges):
                if rel == ax.relation and ax.filler in subs.get(b, ()) and ax.sup not in subs[a]:
                    subs[a].add(ax.sup)
                    changed = True
        for ax in rsubs:
            for a, rel, b in list(edges):
                if rel == ax.sub and (a, ax.sup, b) not in edges:
                    edges.add((a, ax.sup, b))
                    changed = True
        for ax in disjs:
            for a in names:
                if ax.left in subs[a] and ax.right in subs[a] and BOTTOM not in subs[a]:
                    subs[a].add(BOTTOM)
                    changed = True
    return {(a, b) for a, members in subs.items() for b in members}
