"""Rewriting into normal form, plus a completion-rule subsumption classifier.

Every TBox/ABox axiom is rewritten into one of six shallow shapes over plain
names (``Top`` and ``Bottom`` act as ordinary names here):

    NF1   A [= B
    NF2   A [= Some(r, B)
    NF3   Some(r, A) [= B
    NF4   And(A, B) [= C
    DISJ  And(A, B) [= Bottom
    RSUB  r [= s

Nested expressions are peeled off by introducing fresh concept names with the
reserved ``NORM_`` prefix; a fresh name is reused when the same subexpression
shows up again, which keeps the number of fresh names at or below the number
of complex subexpressions in the input.  Nominals ``One(a)`` turn into
dedicated concepts named ``IND_a`` whose embedding radius stays pinned at the
minimum.  Axioms with ``Top`` on the right are dropped as tautologies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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
    validate,
)

TOP = "Top"
BOTTOM = "Bottom"
FRESH_PREFIX = "NORM_"
NOMINAL_PREFIX = "IND_"


class NormalAxiom:
    __slots__ = ()


@dataclass(frozen=True)
class NF1(NormalAxiom):
    sub: str
    sup: str


@dataclass(frozen=True)
class NF2(NormalAxiom):
    sub: str
    relation: str
    filler: str


@dataclass(frozen=True)
class NF3(NormalAxiom):
    relation: str
    filler: str
    sup: str


@dataclass(frozen=True)
class NF4(NormalAxiom):
    left: str
    right: str
    sup: str


@dataclass(frozen=True)
class Disjointness(NormalAxiom):
    left: str
    right: str


@dataclass(frozen=True)
class RSub(NormalAxiom):
    sub: str
    sup: str


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


class _Namer:
    """Hands out fresh names, one per distinct complex subexpression."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.fresh: list[str] = []
        self.provenance: dict[str, ConceptExpression] = {}
        self.memo: dict[ConceptExpression, str] = {}
        self.counter = 0

    def name_for(self, expr: ConceptExpression) -> str:
        if expr in self.memo:
            return self.memo[expr]
        while True:
            self.counter += 1
            name = f"{FRESH_PREFIX}{self.counter}"
            if name not in self.taken:
                break
        self.taken.add(name)
        self.fresh.append(name)
        self.memo[expr] = name
        self.provenance[name] = expr
        return name

    def avoid(self, base: str) -> str:
        """A non-fresh reserved name (used for nominals), collision-free."""
        name = base
        k = 0
        while name in self.taken:
            k += 1
            name = f"{base}_{k}"
        self.taken.add(name)
        return name


def _rewrite(pending: deque, namer: _Namer) -> list[NormalAxiom]:
    """Exhaustively apply the decomposition rules to (sub, sup) pairs."""
    out: list[NormalAxiom] = []
    seen: set[NormalAxiom] = set()

    def emit(ax: NormalAxiom) -> None:
        if ax not in seen:
            seen.add(ax)
            out.append(ax)

    while pending:
        sub, sup = pending.popleft()
        if isinstance(sup, Top):
            continue  # X [= Top is a tautology
        if _is_name(sub) and _is_name(sup):
            emit(NF1(_name_of(sub), _name_of(sup)))
        elif isinstance(sub, Conjunction):
            left, right = sub.left, sub.right
            if _is_name(left) and _is_name(right):
                if isinstance(sup, Bottom):
                    emit(Disjointness(_name_of(left), _name_of(right)))
                elif _is_name(sup):
                    emit(NF4(_name_of(left), _name_of(right), _name_of(sup)))
                else:  # shallow conjunction under a complex superclass
                    mid = Atomic(namer.name_for(sub))
                    pending.append((sub, mid))
                    pending.append((mid, sup))
            elif not _is_name(left):
                named = Atomic(namer.name_for(left))
                pending.append((left, named))
                pending.append((Conjunction(named, right), sup))
            else:
                named = Atomic(namer.name_for(right))
                pending.append((right, named))
                pending.append((Conjunction(left, named), sup))
        elif isinstance(sub, Existential):
            filler = sub.filler
            if not _is_name(filler):
                named = Atomic(namer.name_for(filler))
                pending.append((filler, named))
                pending.append((Existential(sub.relation, named), sup))
            elif _is_name(sup):
                emit(NF3(sub.relation, _name_of(filler), _name_of(sup)))
            else:
                mid = Atomic(namer.name_for(sub))
                pending.append((sub, mid))
                pending.append((mid, sup))
        elif isinstance(sup, Conjunction):
            pending.append((sub, sup.left))
            pending.append((sub, sup.right))
        elif isinstance(sup, Existential):
            filler = sup.filler
            if _is_name(filler):
                emit(NF2(_name_of(sub), sup.relation, _name_of(filler)))
            else:
                named = Atomic(namer.name_for(filler))
                pending.append((sub, Existential(sup.relation, named)))
                pending.append((named, filler))
        else:  # pragma: no cover - grammar leaves no other shape
            raise AssertionError(f"unhandled axiom shape {sub!r} [= {sup!r}")
    return out


def _replace_nominals(expr: ConceptExpression, table: dict[str, str]) -> ConceptExpression:
    if isinstance(expr, Nominal):
        return Atomic(table[expr.individual])
    if isinstance(expr, Conjunction):
        return Conjunction(_replace_nominals(expr.left, table), _replace_nominals(expr.right, table))
    if isinstance(expr, Existential):
        return Existential(expr.relation, _replace_nominals(expr.filler, table))
    return expr


def _collect_individuals(expr: ConceptExpression, into: set[str]) -> None:
    if isinstance(expr, Nominal):
        into.add(expr.individual)
    elif isinstance(expr, Conjunction):
        _collect_individuals(expr.left, into)
        _collect_individuals(expr.right, into)
    elif isinstance(expr, Existential):
        _collect_individuals(expr.filler, into)


def normalize(o: Ontology) -> NormalizedOntology:
    """Rewrite a well-formed ontology into normal form.

    Assertions become inclusions over nominal-derived concepts:
    ``Instance(a C)`` turns into ``IND_a [= C`` and ``RelationInstance(r a b)``
    into ``IND_a [= Some(r, IND_b)``.  Annotations do not affect the output;
    relation chains are rejected as unsupported.
    """
    problems = validate(o)
    if problems:
        raise DataError(f"ontology is not well-formed: {problems[0].reason}")

    mentioned: set[str] = set()
    for ax in o.axioms:
        if isinstance(ax, RoleComposition):
            raise UnsupportedAxiomError("relation chains are not supported by normalization")
        if isinstance(ax, Gci):
            _collect_individuals(ax.sub, mentioned)
            _collect_individuals(ax.sup, mentioned)
        elif isinstance(ax, Equivalence):
            _collect_individuals(ax.left, mentioned)
            _collect_individuals(ax.right, mentioned)
        elif isinstance(ax, ConceptAssertion):
            mentioned.add(ax.individual)
            _collect_individuals(ax.concept, mentioned)
        elif isinstance(ax, RoleAssertion):
            mentioned.update((ax.subject, ax.object))

    taken = set(o.concept_names) | set(o.relation_names) | set(o.individual_names)
    namer = _Namer(taken)
    nominal_map = {}
    for ind in o.individual_names:
        if ind in mentioned:
            nominal_map[ind] = namer.avoid(NOMINAL_PREFIX + ind)

    pending: deque = deque()
    rsubs: list[RSub] = []
    for ax in o.axioms:
        if isinstance(ax, Gci):
            pending.append((_replace_nominals(ax.sub, nominal_map), _replace_nominals(ax.sup, nominal_map)))
        elif isinstance(ax, Equivalence):
            left = _replace_nominals(ax.left, nominal_map)
            right = _replace_nominals(ax.right, nominal_map)
            pending.append((left, right))
            pending.append((right, left))
        elif isinstance(ax, ConceptAssertion):
            pending.append(
                (Atomic(nominal_map[ax.individual]), _replace_nominals(ax.concept, nominal_map))
            )
        elif isinstance(ax, RoleAssertion):
            pending.append(
                (Atomic(nominal_map[ax.subject]), Existential(ax.relation, Atomic(nominal_map[ax.object])))
            )
        elif isinstance(ax, RoleInclusion):
            rsubs.append(RSub(ax.sub, ax.sup))

    axioms = _rewrite(pending, namer)
    axioms.extend(rsubs)
    concept_names = set(o.concept_names) | set(namer.fresh) | set(nominal_map.values())
    return NormalizedOntology(
        axioms=tuple(dict.fromkeys(axioms)),
        fresh_names=tuple(namer.fresh),
        provenance=namer.provenance,
        nominal_map=nominal_map,
        concept_names=frozenset(concept_names),
        relation_names=frozenset(o.relation_names),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _axiom_concept_operands(ax: NormalAxiom) -> tuple[str, ...]:
    if isinstance(ax, NF1):
        return (ax.sub, ax.sup)
    if isinstance(ax, NF2):
        return (ax.sub, ax.filler)
    if isinstance(ax, NF3):
        return (ax.filler, ax.sup)
    if isinstance(ax, NF4):
        return (ax.left, ax.right, ax.sup)
    if isinstance(ax, Disjointness):
        return (ax.left, ax.right)
    return ()


def classify(n: NormalizedOntology) -> set[tuple[str, str]]:
    """Saturate the completion rules and return all derived subsumptions.

    Each name subsumes itself, and everything is under ``Top`` whenever
    ``Top`` occurs in the input at all.  A pair ``(A, Bottom)`` signals that
    the two operands of a disjointness axiom were both derived for ``A``.
    """
    names = set(n.concept_names)
    for ax in n.axioms:
        names.update(_axiom_concept_operands(ax))
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


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def normal_axiom_text(ax: NormalAxiom) -> str:
    if isinstance(ax, NF1):
        return f"NF1 {ax.sub} {ax.sup}"
    if isinstance(ax, NF2):
        return f"NF2 {ax.sub} {ax.relation} {ax.filler}"
    if isinstance(ax, NF3):
        return f"NF3 {ax.relation} {ax.filler} {ax.sup}"
    if isinstance(ax, NF4):
        return f"NF4 {ax.left} {ax.right} {ax.sup}"
    if isinstance(ax, Disjointness):
        return f"DISJ {ax.left} {ax.right}"
    if isinstance(ax, RSub):
        return f"RSUB {ax.sub} {ax.sup}"
    raise TypeError(f"not a normal axiom: {ax!r}")


def write_normalized(n: NormalizedOntology) -> str:
    """One axiom per line, then ``#``-prefixed trailers carrying the rest."""
    lines = [normal_axiom_text(ax) for ax in n.axioms]
    lines.append("# fresh: " + " ".join(n.fresh_names))
    if n.nominal_map:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(n.nominal_map.items()))
        lines.append("# nominal: " + pairs)
    for name in n.fresh_names:
        if name in n.provenance:
            lines.append(f"# prov: {name} = {expression_text(n.provenance[name])}")
    extra_concepts = sorted(
        n.concept_names
        - {op for ax in n.axioms for op in _axiom_concept_operands(ax)}
        - {TOP, BOTTOM}
    )
    if extra_concepts:
        lines.append("# concepts: " + " ".join(extra_concepts))
    extra_relations = sorted(
        n.relation_names
        - {ax.relation for ax in n.axioms if isinstance(ax, (NF2, NF3))}
        - {op for ax in n.axioms if isinstance(ax, RSub) for op in (ax.sub, ax.sup)}
    )
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
                        raise DataError(f"line {line_no}: malformed nominal entry {pair!r}")
                    ind, name = pair.split("=", 1)
                    nominal[ind] = name
            elif body.startswith("prov:"):
                name, eq, _ = body[len("prov:"):].partition("=")
                if not eq:
                    raise DataError(f"line {line_no}: provenance needs 'name = expression'")
                # blanking the head keeps error columns counted from the start of the line
                start = raw.index("=") + 1
                prov_lines.append((line_no, name.strip(), " " * start + raw[start:]))
            elif body.startswith("concepts:"):
                extra_concepts.extend(body[len("concepts:"):].split())
            elif body.startswith("relations:"):
                extra_relations.extend(body[len("relations:"):].split())
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        shapes = {"NF1": (NF1, 2), "NF2": (NF2, 3), "NF3": (NF3, 3), "NF4": (NF4, 3),
                  "DISJ": (Disjointness, 2), "RSUB": (RSub, 2)}
        if kind not in shapes:
            raise DataError(f"line {line_no}: unknown normal form {kind!r}")
        ctor, arity = shapes[kind]
        if len(args) != arity:
            raise DataError(f"line {line_no}: {kind} takes {arity} names, got {len(args)}")
        axioms.append(ctor(*args))
    concept_names = set(extra_concepts) | set(fresh) | set(nominal.values())
    relation_names = set(extra_relations)
    for ax in axioms:
        concept_names.update(_axiom_concept_operands(ax))
        if isinstance(ax, (NF2, NF3)):
            relation_names.add(ax.relation)
        elif isinstance(ax, RSub):
            relation_names.update((ax.sub, ax.sup))
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
