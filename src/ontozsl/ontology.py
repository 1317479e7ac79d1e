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

The statement table ``_STATEMENTS`` is the grammar of the fixed-shape
statements: one entry per keyword gives the axiom class and the kinds of its
arguments, and the parser reads it as the serializer writes from it.
Declarations, ``RelationChain``, ``Label`` and ``Comment`` are the only other
statements.

The parser is the one definition of a well-formed ontology.  :func:`validate`
checks an ontology built in code by parsing ``serialize_ontology(o)``, so the
line and column of a violation refer to that text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Iterator, NamedTuple

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
# the statement grammar
# ---------------------------------------------------------------------------

# The name kinds in signature order; ``Concept(x)`` declares a concept.
_KINDS = ("concept", "relation", "individual")
_DECLARATIONS = {kind.capitalize(): kind for kind in _KINDS}

# keyword -> (axiom class, the kind of each of its fields in field order), where
# "expr" is a concept expression and a name kind is a name declared as that kind
_STATEMENTS = {
    "SubClassOf": (Gci, ("expr", "expr")),
    "EquivalentTo": (Equivalence, ("expr", "expr")),
    "SubRelationOf": (RoleInclusion, ("relation", "relation")),
    "Instance": (ConceptAssertion, ("individual", "expr")),
    "RelationInstance": (RoleAssertion, ("relation", "individual", "individual")),
}
_KEYWORDS = {cls: (keyword, kinds) for keyword, (cls, kinds) in _STATEMENTS.items()}
_ANNOTATIONS = {"Label": LABEL, "Comment": COMMENT}

# what a name of each kind is called in "expected ..." errors; None is any kind
_NAME_WORDS = {"concept": "a concept name", "relation": "a relation name",
               "individual": "an individual name", None: "an entity name"}

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


class _Token(NamedTuple):
    kind: str
    value: str
    col: int


def _unquote(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw[1:-1], flags=re.DOTALL)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    """The names declared and axioms read so far, and the tokens of the current line."""

    def __init__(self) -> None:
        # insertion-ordered name sets, keyed by kind
        self.names: dict[str, Collection[str]] = {kind: {} for kind in _KINDS}
        self.axioms: list[Axiom] = []

    # -- the current line ---------------------------------------------------

    def start_line(self, text: str, line: int) -> bool:
        """Tokenize line number ``line``; False when it holds no statement.

        The tokens end with an ``end`` token one column past the text.
        """
        self.line, self.pos, self.tokens = line, 0, []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ElfError(f"unexpected character {text[pos]!r}", line, pos + 1)
            if m.lastgroup == "comment":
                break
            if m.lastgroup != "ws":
                self.tokens.append(_Token(m.lastgroup, m.group(), pos + 1))
            pos = m.end()
        self.tokens.append(_Token("end", "", len(text) + 1))
        return len(self.tokens) > 1

    def error(self, message: str, tok: _Token) -> ElfError:
        return ElfError(message, self.line, tok.col)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, expected: str) -> ElfError:
        tok = self.peek()
        found = "end of line" if tok.kind == "end" else repr(tok.value)
        return self.error(f"expected {expected}, found {found}", tok)

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(expected)
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise self.error(f"trailing input {tok.value!r}", tok)

    # -- names --------------------------------------------------------------

    def name(self, kind: str | None) -> str:
        """Read a name declared as ``kind``, or as any kind when ``kind`` is None."""
        tok = self.expect("ident", _NAME_WORDS[kind])
        if not any(tok.value in self.names[k] for k in ([kind] if kind else _KINDS)):
            raise self.error(f"undeclared {kind or 'name'} {tok.value!r}", tok)
        return tok.value

    def declare(self, kind: str) -> None:
        tok = self.expect("ident", "a name")
        name = tok.value
        if name in RESERVED_NAMES:
            raise self.error(f"{name!r} is a reserved word and cannot be declared", tok)
        owner = next((k for k in _KINDS if name in self.names[k]), None)
        if owner == kind:
            raise self.error(f"duplicate declaration of {name!r}", tok)
        if owner is not None:
            raise self.error(f"{name!r} already declared as a {owner}; name sets must be disjoint", tok)
        self.names[kind][name] = None

    # -- expressions and statements -----------------------------------------

    def parse_expr(self, depth: int = 1) -> ConceptExpression:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail("a concept expression")
        if depth > MAX_EXPRESSION_DEPTH:
            raise self.error(f"nested deeper than {MAX_EXPRESSION_DEPTH} levels", tok)
        word = tok.value
        if word not in ("Top", "Bottom", "And", "Some", "One"):
            return Atomic(self.name("concept"))
        self.pos += 1
        if word == "Top":
            return Top()
        if word == "Bottom":
            return Bottom()
        self.expect("lparen", "'('")
        if word == "And":
            args = [self.parse_expr(depth + 1)]
            while self.peek().kind not in ("rparen", "end"):
                args.append(self.parse_expr(depth + len(args) + 1))
            self.expect("rparen", "')'")
            if len(args) < 2:
                raise self.error("And needs at least two operands", tok)
            expr = args[-1]
            for arg in reversed(args[:-1]):
                expr = Conjunction(arg, expr)
            return expr
        if word == "Some":
            expr = Existential(self.name("relation"), self.parse_expr(depth + 1))
        else:
            expr = Nominal(self.name("individual"))
        self.expect("rparen", "')'")
        return expr

    def parse_statement(self) -> None:
        head = self.expect("ident", "a statement keyword")
        self.expect("lparen", "'('")
        word = head.value
        if word in _STATEMENTS:
            cls, kinds = _STATEMENTS[word]
            self.axioms.append(cls(*[self.parse_expr() if k == "expr" else self.name(k) for k in kinds]))
        elif word in _DECLARATIONS:
            self.declare(_DECLARATIONS[word])
        elif word == "RelationChain":
            chain = [self.name("relation")]
            while self.peek().kind == "ident":
                chain.append(self.name("relation"))
            self.expect("arrow", "'->'")
            self.axioms.append(RoleComposition(tuple(chain), self.name("relation")))
        elif word in _ANNOTATIONS:
            entity = self.name(None)
            string = self.expect("string", "a quoted string")
            text = _unquote(string.value)
            if not text:
                raise self.error("empty annotation text", string)
            self.axioms.append(Annotation(entity, _ANNOTATIONS[word], text))
        else:
            raise self.error(f"unknown statement {word!r}", head)
        self.expect("rparen", "')'")
        self.expect_end()


def parse_ontology(text: str) -> Ontology:
    """Parse ontology text into an :class:`Ontology`.

    Raises :class:`ElfError` with a 1-based line and column for syntax errors,
    undeclared or duplicate names, name-set disjointness violations and empty
    annotation text.
    """
    parser = _Parser()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if parser.start_line(line, line_no):
            parser.parse_statement()
    return Ontology(*(tuple(parser.names[kind]) for kind in _KINDS), tuple(parser.axioms))


def parse_expression(
    text: str, concepts: Collection[str], relations: Collection[str], line: int = 1
) -> ConceptExpression:
    """Parse one concept expression over the given names; it may not use nominals.

    Raises :class:`ElfError` at ``line``, with columns counted in ``text``.
    """
    parser = _Parser()
    parser.names.update(concept=concepts, relation=relations)
    parser.start_line(text, line)
    expr = parser.parse_expr()
    parser.expect_end()
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
    if type(ax) in _KEYWORDS:
        keyword, kinds = _KEYWORDS[type(ax)]
        values = [getattr(ax, field) for field in ax.__dataclass_fields__]
        args = [expression_text(v) if k == "expr" else str(v) for k, v in zip(kinds, values)]
        return f"{keyword}({' '.join(args)})"
    if isinstance(ax, RoleComposition):
        return f"RelationChain({' '.join(ax.chain)} -> {ax.sup})"
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
