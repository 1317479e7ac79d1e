"""The EL normal form: the inclusion step, rewriting, classification, text form.

This module is the one place that knows the normal form.  :func:`inclusions`
reads every concept axiom as ``(sub, sup)`` pairs, :func:`rewrite` decomposes
such pairs into six shallow shapes over plain names (``Top`` and ``Bottom``
act as ordinary names here), and each shape's class declares its text tag and
which of its fields name relations:

    NF1   A [= B
    NF2   A [= Some(r, B)
    NF3   Some(r, A) [= B
    NF4   And(A, B) [= C
    DISJ  And(A, B) [= Bottom
    RSUB  r [= s

Nested expressions are peeled off by introducing fresh concept names with the
reserved ``NORM_`` prefix; a fresh name is reused when the same subexpression
shows up again, which keeps the number of fresh names at or below the number
of complex subexpressions in the input.  :func:`normalize` turns nominals
``One(a)`` into dedicated concepts named ``IND_a`` whose embedding radius
stays pinned at the minimum; the graph projection in ``textwalk`` runs the
same two steps with each individual standing for itself.  Axioms with
``Top`` on the right are dropped as tautologies.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import count
from typing import ClassVar, Iterable, Mapping

from .errors import DataError, UnsupportedAxiomError
from .ontology import (
    Atomic,
    Bottom,
    ConceptAssertion,
    ConceptExpression,
    Conjunction,
    Equivalence,
    Existential,
    Gci,
    Nominal,
    Ontology,
    RoleAssertion,
    RoleComposition,
    RoleInclusion,
    Top,
    expression_text,
    parse_expression,
    subexpressions,
    validate,
)

TOP = "Top"
BOTTOM = "Bottom"
FRESH_PREFIX = "NORM_"
NOMINAL_PREFIX = "IND_"

Inclusion = tuple[ConceptExpression, ConceptExpression]


class NormalAxiom:
    """One normal-form axiom; its fields are names, written in field order after ``TAG``.

    ``RELATIONS`` lists the fields that name relations; every other field
    names a concept.
    """

    __slots__ = ()
    TAG: ClassVar[str]
    RELATIONS: ClassVar[tuple[str, ...]] = ()

    def operands(self) -> tuple[str, ...]:
        """The concept names, in field order."""
        return tuple(getattr(self, f) for f in self.__dataclass_fields__ if f not in self.RELATIONS)

    def relations(self) -> tuple[str, ...]:
        return tuple(getattr(self, f) for f in self.RELATIONS)

    def text(self) -> str:
        return " ".join((self.TAG, *(getattr(self, f) for f in self.__dataclass_fields__)))


@dataclass(frozen=True)
class NF1(NormalAxiom):
    TAG = "NF1"
    sub: str
    sup: str


@dataclass(frozen=True)
class NF2(NormalAxiom):
    TAG = "NF2"
    RELATIONS = ("relation",)
    sub: str
    relation: str
    filler: str


@dataclass(frozen=True)
class NF3(NormalAxiom):
    TAG = "NF3"
    RELATIONS = ("relation",)
    relation: str
    filler: str
    sup: str


@dataclass(frozen=True)
class NF4(NormalAxiom):
    TAG = "NF4"
    left: str
    right: str
    sup: str


@dataclass(frozen=True)
class Disjointness(NormalAxiom):
    TAG = "DISJ"
    left: str
    right: str


@dataclass(frozen=True)
class RSub(NormalAxiom):
    TAG = "RSUB"
    RELATIONS = ("sub", "sup")
    sub: str
    sup: str


# the class of each normal-axiom kind, by its TAG
BY_TAG = {cls.TAG: cls for cls in (NF1, NF2, NF3, NF4, Disjointness, RSub)}


@dataclass(frozen=True)
class NormalizedOntology:
    """Output of :func:`normalize`.

    ``concept_names`` covers original, fresh, and nominal-derived names but
    never the builtin ``Top``/``Bottom``.  ``provenance`` maps each fresh name
    to the expression it stands for.
    """

    axioms: tuple[NormalAxiom, ...]
    fresh_names: tuple[str, ...]
    provenance: dict[str, ConceptExpression] = field(default_factory=dict)
    nominal_map: dict[str, str] = field(default_factory=dict)
    concept_names: frozenset[str] = frozenset()
    relation_names: frozenset[str] = frozenset()


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------


def _is_name(e: ConceptExpression) -> bool:
    return isinstance(e, (Atomic, Top, Bottom))


def _name_of(e: ConceptExpression) -> str:
    if isinstance(e, Atomic):
        return e.name
    if isinstance(e, Top):
        return TOP
    return BOTTOM


def inclusions(o: Ontology, individuals: Mapping[str, str]) -> list[Inclusion]:
    """The ``(sub, sup)`` pairs of the concept axioms, in axiom order.

    Individual ``a`` reads as the concept named ``individuals[a]``, both as a
    nominal ``One(a)`` and in assertions: ``Instance(a C)`` gives ``a [= C``
    and ``RelationInstance(r a b)`` gives ``a [= Some(r, b)``.  An equivalence
    gives both directions; relation axioms and annotations give nothing.
    """

    def concept(expr: ConceptExpression) -> ConceptExpression:
        if isinstance(expr, Nominal):
            return Atomic(individuals[expr.individual])
        if isinstance(expr, Conjunction):
            return Conjunction(concept(expr.left), concept(expr.right))
        if isinstance(expr, Existential):
            return Existential(expr.relation, concept(expr.filler))
        return expr

    pairs: list[Inclusion] = []
    for ax in o.axioms:
        if isinstance(ax, Gci):
            pairs.append((concept(ax.sub), concept(ax.sup)))
        elif isinstance(ax, Equivalence):
            left, right = concept(ax.left), concept(ax.right)
            pairs.extend(((left, right), (right, left)))
        elif isinstance(ax, ConceptAssertion):
            pairs.append((Atomic(individuals[ax.individual]), concept(ax.concept)))
        elif isinstance(ax, RoleAssertion):
            object_ = Atomic(individuals[ax.object])
            pairs.append((Atomic(individuals[ax.subject]), Existential(ax.relation, object_)))
    return pairs


def rewrite(
    pairs: Iterable[Inclusion], taken: set[str]
) -> tuple[list[NormalAxiom], dict[str, ConceptExpression]]:
    """Exhaustively apply the decomposition rules to ``(sub, sup)`` pairs.

    Returns the normal axioms, each once in order of first derivation, and
    the fresh names mapped to the expressions they stand for, in the order
    they were named.  Fresh names skip every name in ``taken``.
    """
    pending = deque(pairs)
    out: dict[NormalAxiom, None] = {}
    provenance: dict[str, ConceptExpression] = {}
    memo: dict[ConceptExpression, str] = {}
    numbers = count(1)

    def named(expr: ConceptExpression) -> Atomic:
        """The fresh name of a complex subexpression, one per distinct expression."""
        if expr not in memo:
            name = next(n for n in (f"{FRESH_PREFIX}{k}" for k in numbers) if n not in taken)
            memo[expr] = name
            provenance[name] = expr
        return Atomic(memo[expr])

    while pending:
        sub, sup = pending.popleft()
        if isinstance(sup, Top):
            continue  # X [= Top is a tautology
        if _is_name(sub) and _is_name(sup):
            out[NF1(_name_of(sub), _name_of(sup))] = None
        elif isinstance(sub, Conjunction):
            left, right = sub.left, sub.right
            if _is_name(left) and _is_name(right):
                if isinstance(sup, Bottom):
                    out[Disjointness(_name_of(left), _name_of(right))] = None
                elif _is_name(sup):
                    out[NF4(_name_of(left), _name_of(right), _name_of(sup))] = None
                else:  # shallow conjunction under a complex superclass
                    mid = named(sub)
                    pending.append((sub, mid))
                    pending.append((mid, sup))
            elif not _is_name(left):
                part = named(left)
                pending.append((left, part))
                pending.append((Conjunction(part, right), sup))
            else:
                part = named(right)
                pending.append((right, part))
                pending.append((Conjunction(left, part), sup))
        elif isinstance(sub, Existential):
            filler = sub.filler
            if not _is_name(filler):
                part = named(filler)
                pending.append((filler, part))
                pending.append((Existential(sub.relation, part), sup))
            elif _is_name(sup):
                out[NF3(sub.relation, _name_of(filler), _name_of(sup))] = None
            else:
                mid = named(sub)
                pending.append((sub, mid))
                pending.append((mid, sup))
        elif isinstance(sup, Conjunction):
            pending.append((sub, sup.left))
            pending.append((sub, sup.right))
        elif isinstance(sup, Existential):
            filler = sup.filler
            if _is_name(filler):
                out[NF2(_name_of(sub), sup.relation, _name_of(filler))] = None
            else:
                part = named(filler)
                pending.append((sub, Existential(sup.relation, part)))
                pending.append((part, filler))
        else:  # pragma: no cover - grammar leaves no other shape
            raise AssertionError(f"unhandled axiom shape {sub!r} [= {sup!r}")
    return list(out), provenance


def normalize(o: Ontology) -> NormalizedOntology:
    """Rewrite a well-formed ontology into normal form.

    Assertions become inclusions over nominal-derived concepts:
    ``Instance(a C)`` turns into ``IND_a [= C`` and ``RelationInstance(r a b)``
    into ``IND_a [= Some(r, IND_b)``.  Only individuals that some axiom
    mentions get such a concept.  Annotations do not affect the output;
    relation chains are rejected as unsupported.
    """
    problems = validate(o)
    if problems:
        raise DataError(f"ontology is not well-formed: {problems[0].reason}")
    if any(isinstance(ax, RoleComposition) for ax in o.axioms):
        raise UnsupportedAxiomError("relation chains are not supported by normalization")

    # with each individual standing for itself, the mentioned ones are atoms
    mentioned = {
        node.name
        for pair in inclusions(o, {a: a for a in o.individual_names})
        for expr in pair
        for node in subexpressions(expr)
        if isinstance(node, Atomic)
    }
    taken = set(o.concept_names) | set(o.relation_names) | set(o.individual_names)
    nominal_map = {}
    for ind in o.individual_names:
        if ind in mentioned:
            name, k = NOMINAL_PREFIX + ind, 0
            while name in taken:
                k += 1
                name = f"{NOMINAL_PREFIX}{ind}_{k}"
            taken.add(name)
            nominal_map[ind] = name

    axioms, provenance = rewrite(inclusions(o, nominal_map), taken)
    axioms.extend(RSub(ax.sub, ax.sup) for ax in o.axioms if isinstance(ax, RoleInclusion))
    return NormalizedOntology(
        axioms=tuple(dict.fromkeys(axioms)),
        fresh_names=tuple(provenance),
        provenance=provenance,
        nominal_map=nominal_map,
        concept_names=frozenset({*o.concept_names, *provenance, *nominal_map.values()}),
        relation_names=frozenset(o.relation_names),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(n: NormalizedOntology) -> set[tuple[str, str]]:
    """Saturate the completion rules and return all derived subsumptions.

    Each name subsumes itself, and everything is under ``Top`` whenever
    ``Top`` occurs in the input at all.  A pair ``(A, Bottom)`` signals that
    the two operands of a disjointness axiom were both derived for ``A``;
    ``Bottom`` is an ordinary name, not propagated back along existentials.
    The axioms are indexed by premise name and a worklist derives each pair
    and each existential edge once, as in ELK (Kazakov et al., JAR 2014).
    """
    names = set(n.concept_names).union(*(ax.operands() for ax in n.axioms))
    # NF1 A [= B reads as And(A, A) [= B, and DISJ as an NF4 into Bottom
    joins: dict[str, list[tuple[str, str]]] = defaultdict(list)  # conjunct -> (other, sup)
    links: dict[str, list[tuple[str, str]]] = defaultdict(list)  # NF2 sub -> (relation, filler)
    backs: dict[tuple[str, str], list[str]] = defaultdict(list)  # NF3 (relation, filler) -> sup
    above: dict[str, list[str]] = defaultdict(list)  # RSUB sub -> sup
    for ax in n.axioms:
        if isinstance(ax, NF1):
            joins[ax.sub].append((ax.sub, ax.sup))
        elif isinstance(ax, (NF4, Disjointness)):
            sup = ax.sup if isinstance(ax, NF4) else BOTTOM
            joins[ax.left].append((ax.right, sup))
            joins[ax.right].append((ax.left, sup))
        elif isinstance(ax, NF2):
            links[ax.sub].append((ax.relation, ax.filler))
        elif isinstance(ax, NF3):
            backs[ax.relation, ax.filler].append(ax.sup)
        else:
            above[ax.sub].append(ax.sup)

    top = {TOP} if TOP in names else set()
    subs = {name: {name} | top for name in names}
    sources: dict[str, set[tuple[str, str]]] = defaultdict(set)  # b -> (a, r) of each edge a -r-> b
    todo = deque((a, b) for a, members in subs.items() for b in members)

    def derive(a: str, b: str) -> None:
        if b not in subs[a]:
            subs[a].add(b)
            todo.append((a, b))

    while todo:
        a, b = todo.popleft()
        for other, sup in joins.get(b, ()):
            if other in subs[a]:
                derive(a, sup)
        for r, filler in links.get(b, ()):
            relations = [r]  # r and, through RSUB, every relation above it
            while relations:
                s = relations.pop()
                if (a, s) not in sources[filler]:
                    sources[filler].add((a, s))
                    relations.extend(above.get(s, ()))
                    for c in tuple(subs[filler]):  # a copy: a may be filler, whose set grows
                        for sup in backs.get((s, c), ()):
                            derive(a, sup)
        for c, r in sources.get(a, ()):
            for sup in backs.get((r, b), ()):
                derive(c, sup)
    return {(a, b) for a, members in subs.items() for b in members}


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def write_normalized(n: NormalizedOntology) -> str:
    """One axiom per line, then ``#``-prefixed trailers carrying the rest."""
    lines = [ax.text() for ax in n.axioms]
    lines.append("# fresh: " + " ".join(n.fresh_names))
    if n.nominal_map:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(n.nominal_map.items()))
        lines.append("# nominal: " + pairs)
    for name in n.fresh_names:
        if name in n.provenance:
            lines.append(f"# prov: {name} = {expression_text(n.provenance[name])}")
    extra_concepts = sorted(
        n.concept_names - {op for ax in n.axioms for op in ax.operands()} - {TOP, BOTTOM}
    )
    if extra_concepts:
        lines.append("# concepts: " + " ".join(extra_concepts))
    extra_relations = sorted(n.relation_names - {r for ax in n.axioms for r in ax.relations()})
    if extra_relations:
        lines.append("# relations: " + " ".join(extra_relations))
    return "".join(line + "\n" for line in lines)


def read_normalized(text: str) -> NormalizedOntology:
    """Parse the text form produced by :func:`write_normalized`.

    ``# prov:`` expressions are parsed last, over the file's own concept and
    relation names; one that does not parse is a DataError naming its line.
    """
    axioms: list[NormalAxiom] = []
    fresh: list[str] = []
    nominal: dict[str, str] = {}
    prov_lines: list[tuple[int, str, str]] = []
    extra_concepts: list[str] = []
    extra_relations: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("fresh:"):
                fresh.extend(body[len("fresh:"):].split())
            elif body.startswith("nominal:"):
                for pair in body[len("nominal:"):].split():
                    if "=" not in pair:
                        raise DataError(f"normalized axioms line {line_no}: malformed nominal entry {pair!r}")
                    ind, name = pair.split("=", 1)
                    nominal[ind] = name
            elif body.startswith("prov:"):
                name, eq, _ = body[len("prov:"):].partition("=")
                if not eq:
                    raise DataError(f"normalized axioms line {line_no}: provenance needs 'name = expression'")
                # blanking the head keeps error columns counted from the start of the line
                start = raw.index("=") + 1
                prov_lines.append((line_no, name.strip(), " " * start + raw[start:]))
            elif body.startswith("concepts:"):
                extra_concepts.extend(body[len("concepts:"):].split())
            elif body.startswith("relations:"):
                extra_relations.extend(body[len("relations:"):].split())
            continue
        kind, *args = line.split()
        if kind not in BY_TAG:
            raise DataError(f"normalized axioms line {line_no}: unknown normal form {kind!r}")
        ctor = BY_TAG[kind]
        arity = len(ctor.__dataclass_fields__)
        if len(args) != arity:
            raise DataError(f"normalized axioms line {line_no}: {kind} takes {arity} names, got {len(args)}")
        axioms.append(ctor(*args))
    concept_names = set(extra_concepts) | set(fresh) | set(nominal.values())
    relation_names = set(extra_relations)
    for ax in axioms:
        concept_names.update(ax.operands())
        relation_names.update(ax.relations())
    concept_names -= {TOP, BOTTOM}
    provenance = {
        name: parse_expression(expr, concept_names, relation_names, line_no)
        for line_no, name, expr in prov_lines
    }
    return NormalizedOntology(
        axioms=tuple(axioms),
        fresh_names=tuple(fresh),
        provenance=provenance,
        nominal_map=nominal,
        concept_names=frozenset(concept_names),
        relation_names=frozenset(relation_names),
    )
