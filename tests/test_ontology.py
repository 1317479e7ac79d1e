"""Parser, serializer, and structural validation."""

import numpy as np
import pytest

from conftest import deep_some, random_full_ontology, wide_and
from ontozsl.errors import DataError, ElfError
from ontozsl.normalform import classify, normalize
from ontozsl.ontology import (
    MAX_EXPRESSION_DEPTH,
    Annotation,
    Atomic,
    Axiom,
    Conjunction,
    Equivalence,
    Existential,
    Gci,
    Nominal,
    Ontology,
    RoleComposition,
    Top,
    Violation,
    expression_text,
    parse_ontology,
    serialize_ontology,
    validate,
)
from ontozsl.textwalk import project


def test_parse_minimal_inclusion():
    o = parse_ontology("Concept(A)\nConcept(B)\nSubClassOf(A B)")
    assert o.concept_names == ("A", "B")
    assert o.axioms == (Gci(Atomic("A"), Atomic("B")),)


def test_parse_definition_with_conjunction_and_existential():
    text = (
        "Concept(Killer_Whale)\nConcept(Toothed_Whale)\nConcept(Patches)\n"
        "Relation(hasTexture)\n"
        "EquivalentTo(Killer_Whale And(Toothed_Whale Some(hasTexture Patches)))\n"
    )
    o = parse_ontology(text)
    assert o.axioms == (
        Equivalence(
            Atomic("Killer_Whale"),
            Conjunction(Atomic("Toothed_Whale"), Existential("hasTexture", Atomic("Patches"))),
        ),
    )


def test_nary_conjunction_folds_to_the_right():
    text = "Concept(A)\nConcept(B)\nConcept(C)\nConcept(D)\nSubClassOf(And(A B C) D)\n"
    o = parse_ontology(text)
    assert o.axioms[0].sub == Conjunction(Atomic("A"), Conjunction(Atomic("B"), Atomic("C")))


def test_comments_and_blank_lines_are_skipped():
    o = parse_ontology("# header\n\nConcept(A)  # trailing\n\n# done\n")
    assert o.concept_names == ("A",)
    assert o.axioms == ()


def test_top_bottom_and_nominals_parse():
    text = (
        "Concept(A)\nRelation(r)\nIndividual(a)\n"
        "SubClassOf(A Top)\nSubClassOf(Bottom A)\nSubClassOf(A Some(r One(a)))\n"
    )
    o = parse_ontology(text)
    assert o.axioms[0].sup == Top()
    assert o.axioms[2].sup == Existential("r", Nominal("a"))


def test_relation_chain_parses_into_composition():
    text = "Relation(r)\nRelation(s)\nRelation(t)\nRelationChain(r s -> t)\n"
    o = parse_ontology(text)
    assert o.axioms == (RoleComposition(("r", "s"), "t"),)


def test_undeclared_name_error_carries_position():
    with pytest.raises(ElfError) as err:
        parse_ontology("SubClassOf(A B)")
    assert err.value.line == 1
    assert err.value.col == 12
    assert "undeclared" in str(err.value)


def test_declaration_must_precede_use():
    with pytest.raises(ElfError):
        parse_ontology("SubClassOf(A B)\nConcept(A)\nConcept(B)\n")


def test_reserved_names_rejected_in_declarations():
    for bad in ("Top", "Bottom", "And", "Some", "One", "subClassOf"):
        with pytest.raises(ElfError):
            parse_ontology(f"Concept({bad})")


def test_duplicate_declaration_rejected():
    with pytest.raises(ElfError):
        parse_ontology("Concept(A)\nConcept(A)\n")
    with pytest.raises(ElfError):
        parse_ontology("Concept(A)\nRelation(A)\n")


def test_malformed_name_rejected():
    with pytest.raises(ElfError):
        parse_ontology("Concept(1abc)")


def test_unterminated_string_rejected():
    with pytest.raises(ElfError) as err:
        parse_ontology('Concept(A)\nLabel(A "oops)')
    assert err.value.line == 2


def test_empty_annotation_text_rejected_at_the_string():
    for head in ("Label", "Comment"):
        with pytest.raises(ElfError, match="empty annotation text") as err:
            parse_ontology(f'Concept(A)\n{head}(A "")\n')
        assert (err.value.line, err.value.col) == (2, len(head) + 4)


def test_conjunction_needs_two_arguments():
    with pytest.raises(ElfError):
        parse_ontology("Concept(A)\nConcept(B)\nSubClassOf(And(A) B)\n")


def test_junk_after_statement_rejected():
    with pytest.raises(ElfError):
        parse_ontology("Concept(A) Concept(B)")


def test_serialize_empty_ontology_is_empty_string():
    assert serialize_ontology(Ontology((), (), (), ())) == ""


def test_serialize_minimal_inclusion_exact_text():
    o = parse_ontology("Concept(A)\nConcept(B)\nSubClassOf(A B)")
    assert serialize_ontology(o) == "Concept(A)\nConcept(B)\nSubClassOf(A B)\n"


def test_serialize_flattens_nested_conjunction_spine():
    expr = Conjunction(Atomic("A"), Conjunction(Atomic("B"), Atomic("C")))
    assert expression_text(expr) == "And(A B C)"


def test_parse_serialize_round_trip_fuzzed():
    rng = np.random.default_rng(7)
    for _ in range(200):
        o = random_full_ontology(rng)
        text = serialize_ontology(o)
        back = parse_ontology(text)
        assert back == o
        assert serialize_ontology(back) == text


_JUNK = ["(", ")", "->", '"x"', '""', "And", "Some", "One(", "Top", "C0", "r0", "ind0", "Concept",
         "SubClassOf", "RelationChain", "Label", "Instance", "Ghost", "1x", "@", "#"]


def _mutate(rng, text):
    """``text`` with a span deleted, a junk token inserted or a line duplicated."""
    op = int(rng.integers(3))
    i = int(rng.integers(len(text) + 1))
    if op == 0:
        return text[:i] + text[i + int(rng.integers(1, 12)) :]
    if op == 1:
        return f"{text[:i]} {_JUNK[int(rng.integers(len(_JUNK)))]} {text[i:]}"
    lines = text.splitlines(keepends=True) or [""]
    k = int(rng.integers(len(lines)))
    return "".join(lines[: k + 1] + lines[k:])


def test_a_mutated_text_parses_to_a_fixed_point_or_fails_inside_the_text():
    rng = np.random.default_rng(11)
    parsed = 0
    for _ in range(1500):
        text = _mutate(rng, serialize_ontology(random_full_ontology(rng)))
        try:
            once = serialize_ontology(parse_ontology(text))
        except ElfError as exc:
            lines = text.splitlines()
            assert 1 <= exc.line <= len(lines)
            assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1
            continue
        assert serialize_ontology(parse_ontology(once)) == once
        parsed += 1
    assert 100 < parsed < 1400  # both outcomes are exercised


def test_validate_accepts_generated_ontologies():
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert validate(random_full_ontology(rng)) == []


def test_validate_flags_unresolved_axiom_names():
    o = Ontology(("A",), (), (), (Gci(Atomic("A"), Atomic("Ghost")),))
    problems = validate(o)
    assert problems and problems[0].axiom_index == 0
    assert "Ghost" in problems[0].reason


def test_validate_flags_duplicate_and_reserved_signature_names():
    dup = Ontology(("A", "A"), (), (), ())
    assert any("declared twice" in v.reason or "duplicate" in v.reason for v in validate(dup))
    reserved = Ontology(("And",), (), (), ())
    assert validate(reserved)


def test_validate_flags_bad_annotation():
    o = Ontology(("A",), (), (), (Annotation("A", "color", "blue"),))
    assert validate(o)
    empty = Ontology(("A",), (), (), (Annotation("A", "label", ""),))
    assert validate(empty)


def test_validate_flags_empty_relation_chain():
    o = Ontology((), ("t",), (), (RoleComposition((), "t"),))
    assert validate(o)


class _Unknown(Axiom):
    pass


@pytest.mark.parametrize(
    "o, index, words",
    [
        (Ontology(("A B",), (), (), ()), None, "expected ')', found 'B'"),
        (Ontology(("A",), ("A",), (), ()), None, "name sets must be disjoint"),
        (Ontology(("A",), (), (), (Gci(Atomic("A"), Nominal("a")),)), 0, "undeclared individual 'a'"),
        (Ontology(("A",), (), (), (Gci(Atomic("A"), Top()), Annotation("B", "label", "b"))), 1,
         "undeclared name 'B'"),
        (Ontology(("A",), (), (), (_Unknown(),)), None, "not an axiom"),
        (Ontology(("A",), (), (), (Annotation("A", "label", "two\nlines"),)), 0, "unexpected character"),
        (Ontology(("A",), (), (), (Annotation("A", "color", "blue"),)), None, "axioms change"),
    ],
    ids=["invalid-name", "concept-and-relation", "undeclared-nominal", "annotation-on-undeclared",
         "unknown-axiom-type", "newline-in-label", "unknown-annotation-kind"],
)
def test_validate_flags_each_rule_with_the_parsers_message(o, index, words):
    (problem,) = validate(o)
    assert problem.axiom_index == index
    assert words in problem.reason


def test_validate_reports_positions_in_the_serialized_text():
    ghost = Gci(Atomic("A"), Existential("r", Atomic("Ghost")))
    o = Ontology(("A",), ("r",), (), (Gci(Atomic("A"), Top()), ghost))
    with pytest.raises(ElfError) as err:
        parse_ontology(serialize_ontology(o))
    assert err.value.line == 4
    assert validate(o) == [Violation(1, str(err.value))]


def _code_built_chain(levels):
    expr = Atomic("A")
    for _ in range(levels):
        expr = Existential("r", expr)
    return Ontology(("A",), ("r",), (), (Gci(Atomic("A"), expr),))


def test_validate_reports_a_code_built_expression_past_the_recursion_limit():
    # 3,000 levels is past Python's recursion limit; 300 is only past the parser's cap
    too_deep = validate(_code_built_chain(300))
    assert len(too_deep) == 1 and f"nested deeper than {MAX_EXPRESSION_DEPTH} levels" in too_deep[0].reason
    assert validate(_code_built_chain(3000)) == too_deep
    with pytest.raises(DataError, match=f"not well-formed: .*deeper than {MAX_EXPRESSION_DEPTH}"):
        normalize(_code_built_chain(3000))


def test_validate_accepts_an_ontology_built_with_lists():
    o = Ontology(["A", "B"], ["r"], ["a"], [Gci(Atomic("A"), Existential("r", Nominal("a"))),
                                            Annotation("B", "comment", "bee")])
    assert validate(o) == []


def test_violation_is_plain_record():
    v = Violation(3, "whatever")
    assert (v.axiom_index, v.reason) == (3, "whatever")


@pytest.mark.parametrize("shape", [deep_some, wide_and], ids=["deep-some", "wide-and"])
def test_expression_depth_is_capped_at_the_first_token_too_deep(shape):
    # each And operand after the first adds a level: the parser folds And right-nested
    deepest = parse_ontology(shape(MAX_EXPRESSION_DEPTH - 1))
    assert parse_ontology(serialize_ontology(deepest)) == deepest
    hash(deepest)
    classify(normalize(deepest))
    project(deepest)
    text = shape(MAX_EXPRESSION_DEPTH)
    with pytest.raises(ElfError, match=f"deeper than {MAX_EXPRESSION_DEPTH} levels") as err:
        parse_ontology(text)
    line = text.splitlines()[-1]
    assert err.value.line == len(text.splitlines())
    assert line[err.value.col - 1 :].rstrip(")") in ("A", f"C{MAX_EXPRESSION_DEPTH - 1}")
