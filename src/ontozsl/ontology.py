"""EL ontology data model with a line-oriented text format.

An ontology is a signature of three disjoint name sets (concepts, relations,
individuals) plus an ordered list of axioms.  Concept expressions are built
from atomic names, ``Top``, ``Bottom``, binary conjunction, existential
restriction, and singleton nominals.

The text format has one statement per line, ``#`` starts a comment:

    Concept(Whale)
    Relation(hasTexture)
    Individual(willy)
    SubClassOf(Whale Animal)
    EquivalentTo(Killer_Whale And(Toothed_Whale Some(hasTexture Patches)))
    SubRelationOf(hasPart hasProperPart)
    RelationChain(locatedIn partOf -> locatedIn)
    Instance(willy Whale)
    RelationInstance(hasTexture willy Patches_3)
    Label(Killer_Whale "killer whale")
    Comment(Whale "marine mammal")

Expressions use ``Top``, ``Bottom``, ``And(E E+)``, ``Some(r E)``, ``One(a)``.
Every name must be declared before its first use, and label and comment text
must not be empty.  n-ary ``And`` folds to the right into binary conjunctions,
so ``And(A B C)`` is ``And(A And(B C))``.

The parser is the one definition of a well-formed ontology.  :func:`validate`
checks an ontology built in code by parsing ``serialize_ontology(o)``, so the
line and column of a violation refer to that text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Iterator

from .errors import ElfError

# ---------------------------------------------------------------------------
# concept expressions
# ---------------------------------------------------------------------------


class ConceptExpression:
    """Marker base for the expression union below."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(ConceptExpression):
    pass


@dataclass(frozen=True)
class Bottom(ConceptExpression):
    pass


@dataclass(frozen=True)
class Atomic(ConceptExpression):
    name: str


@dataclass(frozen=True)
class Conjunction(ConceptExpression):
    left: ConceptExpression
    right: ConceptExpression


@dataclass(frozen=True)
class Existential(ConceptExpression):
    relation: str
    filler: ConceptExpression


@dataclass(frozen=True)
class Nominal(ConceptExpression):
    individual: str


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


class Axiom:
    __slots__ = ()


@dataclass(frozen=True)
class Gci(Axiom):
    """General concept inclusion: ``sub`` is subsumed by ``sup``."""

    sub: ConceptExpression
    sup: ConceptExpression


@dataclass(frozen=True)
class Equivalence(Axiom):
    left: ConceptExpression
    right: ConceptExpression


@dataclass(frozen=True)
class RoleInclusion(Axiom):
    sub: str
    sup: str


@dataclass(frozen=True)
class RoleComposition(Axiom):
    """Chain of relations included in another relation."""

    chain: tuple[str, ...]
    sup: str


@dataclass(frozen=True)
class ConceptAssertion(Axiom):
    individual: str
    concept: ConceptExpression


@dataclass(frozen=True)
class RoleAssertion(Axiom):
    relation: str
    subject: str
    object: str


@dataclass(frozen=True)
class Annotation(Axiom):
    """Human-readable text attached to an entity; ``kind`` is label or comment."""

    entity: str
    kind: str
    text: str


LABEL = "label"
COMMENT = "comment"


@dataclass(frozen=True)
class Ontology:
    concept_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    individual_names: tuple[str, ...]
    axioms: tuple[Axiom, ...]


# Expression keywords can never be declared; subClassOf is claimed by the
# graph projection as its taxonomy predicate.
RESERVED_NAMES = frozenset({"Top", "Bottom", "And", "Some", "One", "subClassOf"})

# Deepest expression tree the parser builds, counting the root as level 1; an
# And operand after the first adds a level.  Serializing, hashing, normalizing,
# classifying and projecting recurse through it: 400 levels pass, 600 do not.
MAX_EXPRESSION_DEPTH = 256


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#.*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ElfError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return tokens


def _unquote(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw[1:-1], flags=re.DOTALL)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _Cursor:
    """Token stream over a single statement line."""

    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, expected: str) -> ElfError:
        tok = self.peek()
        if tok is None:
            return ElfError(f"expected {expected}, found end of line", self.line_no, self.line_len + 1)
        return ElfError(f"expected {expected}, found {tok.value!r}", tok.line, tok.col)

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.fail(expected)
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ElfError(f"trailing input {tok.value!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_DECLARATIONS = {"Concept": "concept", "Relation": "relation", "Individual": "individual"}


class _Parser:
    def __init__(self) -> None:
        # insertion-ordered declaration tables
        self.concepts: dict[str, None] = {}
        self.relations: dict[str, None] = {}
        self.individuals: dict[str, None] = {}
        self.axioms: list[Axiom] = []

    # -- declarations -------------------------------------------------------

    def declare(self, table: str, tok: _Token) -> None:
        name = tok.value
        if name in RESERVED_NAMES:
            raise ElfError(f"{name!r} is a reserved word and cannot be declared", tok.line, tok.col)
        owner = self._owner_of(name)
        if owner == table:
            raise ElfError(f"duplicate declaration of {name!r}", tok.line, tok.col)
        if owner is not None:
            raise ElfError(
                f"{name!r} already declared as a {owner}; name sets must be disjoint", tok.line, tok.col
            )
        getattr(self, table + "s")[name] = None

    def _owner_of(self, name: str) -> str | None:
        if name in self.concepts:
            return "concept"
        if name in self.relations:
            return "relation"
        if name in self.individuals:
            return "individual"
        return None

    def _resolve(self, tok: _Token, table: str) -> str:
        name = tok.value
        if name not in getattr(self, table + "s"):
            raise ElfError(f"undeclared {table} {name!r}", tok.line, tok.col)
        return name

    # -- expressions --------------------------------------------------------

    def parse_expr(self, cur: _Cursor, depth: int = 1) -> ConceptExpression:
        tok = cur.peek()
        if tok is None or tok.kind != "ident":
            raise cur.fail("a concept expression")
        if depth > MAX_EXPRESSION_DEPTH:
            raise ElfError(f"nested deeper than {MAX_EXPRESSION_DEPTH} levels", tok.line, tok.col)
        cur.take()
        word = tok.value
        if word == "Top":
            return Top()
        if word == "Bottom":
            return Bottom()
        if word == "And":
            cur.expect("lparen", "'('")
            args = [self.parse_expr(cur, depth + 1)]
            while cur.peek() is not None and cur.peek().kind != "rparen":
                args.append(self.parse_expr(cur, depth + len(args) + 1))
            cur.expect("rparen", "')'")
            if len(args) < 2:
                raise ElfError("And needs at least two operands", tok.line, tok.col)
            expr = args[-1]
            for arg in reversed(args[:-1]):
                expr = Conjunction(arg, expr)
            return expr
        if word == "Some":
            cur.expect("lparen", "'('")
            rel = self._resolve(cur.expect("ident", "a relation name"), "relation")
            filler = self.parse_expr(cur, depth + 1)
            cur.expect("rparen", "')'")
            return Existential(rel, filler)
        if word == "One":
            cur.expect("lparen", "'('")
            ind = self._resolve(cur.expect("ident", "an individual name"), "individual")
            cur.expect("rparen", "')'")
            return Nominal(ind)
        if word not in self.concepts:
            raise ElfError(f"undeclared concept {word!r}", tok.line, tok.col)
        return Atomic(word)

    # -- statements ---------------------------------------------------------

    def parse_statement(self, cur: _Cursor) -> None:
        head = cur.expect("ident", "a statement keyword")
        cur.expect("lparen", "'('")
        word = head.value
        if word in _DECLARATIONS:
            self.declare(_DECLARATIONS[word], cur.expect("ident", "a name"))
        elif word == "SubClassOf":
            sub = self.parse_expr(cur)
            sup = self.parse_expr(cur)
            self.axioms.append(Gci(sub, sup))
        elif word == "EquivalentTo":
            left = self.parse_expr(cur)
            right = self.parse_expr(cur)
            self.axioms.append(Equivalence(left, right))
        elif word == "SubRelationOf":
            sub = self._resolve(cur.expect("ident", "a relation name"), "relation")
            sup = self._resolve(cur.expect("ident", "a relation name"), "relation")
            self.axioms.append(RoleInclusion(sub, sup))
        elif word == "RelationChain":
            chain = [self._resolve(cur.expect("ident", "a relation name"), "relation")]
            while cur.peek() is not None and cur.peek().kind == "ident":
                chain.append(self._resolve(cur.take(), "relation"))
            cur.expect("arrow", "'->'")
            sup = self._resolve(cur.expect("ident", "a relation name"), "relation")
            self.axioms.append(RoleComposition(tuple(chain), sup))
        elif word == "Instance":
            ind = self._resolve(cur.expect("ident", "an individual name"), "individual")
            concept = self.parse_expr(cur)
            self.axioms.append(ConceptAssertion(ind, concept))
        elif word == "RelationInstance":
            rel = self._resolve(cur.expect("ident", "a relation name"), "relation")
            subj = self._resolve(cur.expect("ident", "an individual name"), "individual")
            obj = self._resolve(cur.expect("ident", "an individual name"), "individual")
            self.axioms.append(RoleAssertion(rel, subj, obj))
        elif word in ("Label", "Comment"):
            ent = cur.expect("ident", "an entity name")
            if self._owner_of(ent.value) is None:
                raise ElfError(f"undeclared name {ent.value!r}", ent.line, ent.col)
            string = cur.expect("string", "a quoted string")
            text = _unquote(string.value)
            if not text:
                raise ElfError("empty annotation text", string.line, string.col)
            self.axioms.append(Annotation(ent.value, LABEL if word == "Label" else COMMENT, text))
        else:
            raise ElfError(f"unknown statement {word!r}", head.line, head.col)
        cur.expect("rparen", "')'")
        cur.expect_end()


def parse_ontology(text: str) -> Ontology:
    """Parse ontology text into an :class:`Ontology`.

    Raises :class:`ElfError` with a 1-based line and column for syntax errors,
    undeclared or duplicate names, name-set disjointness violations and empty
    annotation text.
    """
    parser = _Parser()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, line_no)
        if not tokens:
            continue
        parser.parse_statement(_Cursor(tokens, line_no, len(line)))
    return Ontology(
        tuple(parser.concepts),
        tuple(parser.relations),
        tuple(parser.individuals),
        tuple(parser.axioms),
    )


def parse_expression(
    text: str, concepts: Collection[str], relations: Collection[str], line: int = 1
) -> ConceptExpression:
    """Parse one concept expression over the given names; it may not use nominals.

    Raises :class:`ElfError` at ``line``, with columns counted in ``text``.
    """
    parser = _Parser()
    parser.concepts, parser.relations = concepts, relations
    cur = _Cursor(_tokenize_line(text, line), line, len(text))
    expr = parser.parse_expr(cur)
    cur.expect_end()
    return expr


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------


def expression_text(expr: ConceptExpression) -> str:
    """Canonical text of ``expr``.

    It works from an explicit stack, not by recursion, so an expression built
    in code deeper than the parser allows still prints, and :func:`validate`
    can report the depth instead of crashing.
    """
    parts: list[str] = []
    # pending expressions and literal text, the next one on top
    stack: list[ConceptExpression | str] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Top):
            parts.append("Top")
        elif isinstance(item, Bottom):
            parts.append("Bottom")
        elif isinstance(item, Atomic):
            parts.append(item.name)
        elif isinstance(item, Nominal):
            parts.append(f"One({item.individual})")
        elif isinstance(item, Existential):
            parts.append(f"Some({item.relation} ")
            stack += [")", item.filler]
        elif isinstance(item, Conjunction):
            # flatten the right spine so And(A And(B C)) prints as And(A B C)
            args = [item.left]
            rest = item.right
            while isinstance(rest, Conjunction):
                args.append(rest.left)
                rest = rest.right
            args.append(rest)
            parts.append("And(")
            stack.append(")")
            for arg in reversed(args[1:]):
                stack += [arg, " "]
            stack.append(args[0])
        else:
            raise TypeError(f"not a concept expression: {item!r}")
    return "".join(parts)


def _axiom_text(ax: Axiom) -> str:
    if isinstance(ax, Gci):
        return f"SubClassOf({expression_text(ax.sub)} {expression_text(ax.sup)})"
    if isinstance(ax, Equivalence):
        return f"EquivalentTo({expression_text(ax.left)} {expression_text(ax.right)})"
    if isinstance(ax, RoleInclusion):
        return f"SubRelationOf({ax.sub} {ax.sup})"
    if isinstance(ax, RoleComposition):
        return f"RelationChain({' '.join(ax.chain)} -> {ax.sup})"
    if isinstance(ax, ConceptAssertion):
        return f"Instance({ax.individual} {expression_text(ax.concept)})"
    if isinstance(ax, RoleAssertion):
        return f"RelationInstance({ax.relation} {ax.subject} {ax.object})"
    if isinstance(ax, Annotation):
        head = "Label" if ax.kind == LABEL else "Comment"
        return f"{head}({ax.entity} {_quote(ax.text)})"
    raise TypeError(f"not an axiom: {ax!r}")


def serialize_ontology(o: Ontology) -> str:
    """Render canonical text: declarations in signature order, then axioms.

    The output of a well-formed ontology re-parses to an equal one (which is
    what :func:`validate` checks); an empty ontology serializes to the empty
    string.
    """
    lines = [f"Concept({n})" for n in o.concept_names]
    lines += [f"Relation({n})" for n in o.relation_names]
    lines += [f"Individual({n})" for n in o.individual_names]
    lines += [_axiom_text(ax) for ax in o.axioms]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One structural problem; ``axiom_index`` is None when no single axiom owns it."""

    axiom_index: int | None
    reason: str


def subexpressions(expr: ConceptExpression) -> Iterator[ConceptExpression]:
    """Every subexpression of ``expr`` in preorder, ``expr`` itself first."""
    yield expr
    if isinstance(expr, Conjunction):
        yield from subexpressions(expr.left)
        yield from subexpressions(expr.right)
    elif isinstance(expr, Existential):
        yield from subexpressions(expr.filler)


def validate(o: Ontology) -> list[Violation]:
    """What keeps ``o`` from being an ontology that :func:`parse_ontology` could build.

    The parser is the one definition of a well-formed ontology: ``o`` is
    well-formed exactly when parsing ``serialize_ontology(o)`` gives ``o``
    back, field by field as tuples.  Returns ``[]`` then, else one violation.
    A parse error keeps its message, whose line and column refer to
    ``serialize_ontology(o)``, and points at its axiom (None for a
    declaration).  Useful for ontologies built in code.
    """
    try:
        text = serialize_ontology(o)
    except TypeError as exc:
        return [Violation(None, str(exc))]
    try:
        back = parse_ontology(text)
    except ElfError as exc:
        declarations = len(o.concept_names) + len(o.relation_names) + len(o.individual_names)
        index = exc.line - 1 - declarations
        return [Violation(index if index >= 0 else None, str(exc))]
    for field in Ontology.__dataclass_fields__:
        if tuple(getattr(o, field)) != getattr(back, field):
            return [Violation(None, f"{field} change when written out and parsed back")]
    return []
