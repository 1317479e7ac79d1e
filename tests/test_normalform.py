"""Normal-form rewriting and the completion-rule classifier."""

import re

import numpy as np
import pytest

from conftest import (
    classify_oracle,
    count_complex_subexpressions,
    flatten_by_definitions,
    random_full_ontology,
    random_tbox,
)
from ontozsl.errors import DataError, UnsupportedAxiomError
from ontozsl.normalform import (
    BOTTOM,
    NF1,
    NF2,
    NF3,
    NF4,
    Disjointness,
    TOP,
    RSub,
    classify,
    inclusions,
    normalize,
    read_normalized,
    write_normalized,
)
from ontozsl.ontology import (
    Atomic,
    Bottom,
    ConceptExpression,
    Conjunction,
    Existential,
    Gci,
    Nominal,
    Ontology,
    RoleInclusion,
    Top,
    parse_ontology,
)

NORMAL_SHAPES = (NF1, NF2, NF3, NF4, Disjointness, RSub)


def norm(text):
    return normalize(parse_ontology(text))


def original_pairs(n, concept_names):
    """Derived subsumptions restricted to the input vocabulary (plus Bottom)."""
    keep = set(concept_names)
    return {
        (a, b) for a, b in classify(n) if a in keep and (b in keep or b == "Bottom")
    }


def test_definition_normalizes_to_four_axioms_with_one_fresh_name():
    n = norm(
        "Concept(Killer_Whale)\nConcept(Toothed_Whale)\nConcept(Patches)\n"
        "Relation(hasTexture)\n"
        "EquivalentTo(Killer_Whale And(Toothed_Whale Some(hasTexture Patches)))\n"
    )
    assert len(n.fresh_names) == 1
    fresh = n.fresh_names[0]
    assert fresh == "NORM_1"
    assert set(n.axioms) == {
        NF1("Killer_Whale", "Toothed_Whale"),
        NF2("Killer_Whale", "hasTexture", "Patches"),
        NF3("hasTexture", "Patches", fresh),
        NF4("Toothed_Whale", fresh, "Killer_Whale"),
    }


def test_conjunction_under_bottom_becomes_disjointness():
    n = norm("Concept(A)\nConcept(B)\nSubClassOf(And(A B) Bottom)\n")
    assert n.axioms == (Disjointness("A", "B"),)
    assert n.fresh_names == ()


def test_top_superclass_is_dropped():
    n = norm("Concept(A)\nSubClassOf(A Top)\n")
    assert n.axioms == ()


def test_relation_inclusion_passes_through():
    n = norm("Relation(r)\nRelation(s)\nSubRelationOf(r s)\n")
    assert n.axioms == (RSub("r", "s"),)


def test_relation_chain_is_rejected():
    with pytest.raises(UnsupportedAxiomError):
        norm("Relation(r)\nRelation(s)\nRelationChain(r r -> s)\n")


def test_invalid_ontology_is_rejected_before_rewriting():
    from ontozsl.ontology import Atomic, Gci, Ontology

    bad = Ontology(("A",), (), (), (Gci(Atomic("A"), Atomic("Nope")),))
    with pytest.raises(DataError):
        normalize(bad)


def test_repeated_subexpression_reuses_the_fresh_name():
    n = norm(
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "SubClassOf(Some(r C) A)\nSubClassOf(And(Some(r C) B) A)\n"
    )
    # Some(r C) appears twice on the left; the second use must not mint a
    # second name.  The bare occurrence rewrites directly to NF3.
    assert len(n.fresh_names) <= 1


def test_fresh_names_skip_taken_names():
    n = norm("Concept(NORM_1)\nConcept(A)\nRelation(r)\nSubClassOf(Some(r And(A A)) NORM_1)\n")
    assert "NORM_1" not in n.fresh_names
    assert all(f not in ("NORM_1",) for f in n.fresh_names)


def test_assertions_become_nominal_inclusions():
    n = norm(
        "Concept(Person)\nRelation(knows)\nIndividual(alice)\nIndividual(bob)\n"
        "Instance(alice Person)\nRelationInstance(knows alice bob)\n"
    )
    assert n.nominal_map == {"alice": "IND_alice", "bob": "IND_bob"}
    assert NF1("IND_alice", "Person") in n.axioms
    assert NF2("IND_alice", "knows", "IND_bob") in n.axioms


def test_unmentioned_individuals_get_no_nominal_concept():
    n = norm("Concept(A)\nIndividual(ghost)\nSubClassOf(A A)\n")
    assert n.nominal_map == {}


def test_nominal_name_collision_gets_suffixed():
    n = norm("Concept(IND_a)\nIndividual(a)\nInstance(a IND_a)\n")
    assert n.nominal_map["a"] == "IND_a_1"


def test_annotations_do_not_reach_the_normal_form():
    n = norm('Concept(A)\nLabel(A "a thing")\nComment(A "notes")\nSubClassOf(A A)\n')
    assert all(isinstance(ax, NORMAL_SHAPES) for ax in n.axioms)


def test_inclusions_read_each_axiom_kind_through_the_individual_map():
    o = parse_ontology(
        "Concept(A)\nConcept(B)\nRelation(r)\nRelation(s)\nIndividual(a)\nIndividual(b)\n"
        "SubClassOf(A Some(r One(b)))\nEquivalentTo(A And(B One(a)))\nSubRelationOf(r s)\n"
        "RelationChain(r s -> s)\nInstance(a B)\nRelationInstance(r a b)\nLabel(A \"an a\")\n"
    )
    a, b, mix = Atomic("A"), Atomic("B"), Conjunction(Atomic("B"), Atomic("X_a"))
    assert inclusions(o, {"a": "X_a", "b": "X_b"}) == [
        (a, Existential("r", Atomic("X_b"))),
        (a, mix),
        (mix, a),
        (Atomic("X_a"), b),
        (Atomic("X_a"), Existential("r", Atomic("X_b"))),
    ]
    assert inclusions(o, {"a": "a", "b": "b"})[0] == (a, Existential("r", Atomic("b")))
    assert not any(
        isinstance(node, Nominal) for pair in inclusions(o, {"a": "a", "b": "b"}) for node in pair
    )


def test_classify_chains_inclusions():
    n = norm("Concept(A)\nConcept(B)\nConcept(C)\nSubClassOf(A B)\nSubClassOf(B C)\n")
    assert ("A", "C") in classify(n)


def test_classify_applies_existential_rules():
    n = norm(
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "SubClassOf(A Some(r B))\nSubClassOf(Some(r B) C)\n"
    )
    assert ("A", "C") in classify(n)


def test_classify_uses_relation_hierarchy():
    n = norm(
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\nRelation(s)\n"
        "SubClassOf(A Some(r B))\nSubRelationOf(r s)\nSubClassOf(Some(s B) C)\n"
    )
    assert ("A", "C") in classify(n)


def test_classify_derives_bottom_for_contradictions():
    n = norm(
        "Concept(A)\nConcept(B)\nConcept(C)\n"
        "SubClassOf(A B)\nSubClassOf(A C)\nSubClassOf(And(B C) Bottom)\n"
    )
    assert ("A", "Bottom") in classify(n)


def test_classify_without_axioms_is_reflexive_only():
    from ontozsl.normalform import NormalizedOntology

    n = NormalizedOntology(axioms=(), fresh_names=(), concept_names=frozenset({"A"}))
    assert classify(n) == {("A", "A")}


def test_classify_tracks_top_only_when_mentioned():
    n = norm("Concept(A)\nConcept(B)\nSubClassOf(Top A)\nSubClassOf(A B)\n")
    pairs = classify(n)
    assert ("B", "Top") in pairs  # everything sits under a mentioned Top
    assert ("Top", "A") in pairs and ("Top", "B") in pairs


def test_classify_closes_relation_chains_and_keeps_bottom_local():
    n = norm(
        "Concept(A)\nConcept(B)\nConcept(C)\nConcept(D)\nRelation(r)\nRelation(s)\nRelation(t)\n"
        "SubClassOf(A Some(r B))\nSubRelationOf(r s)\nSubRelationOf(s t)\nSubRelationOf(t r)\n"
        "SubClassOf(Some(t B) C)\nSubClassOf(B D)\nSubClassOf(And(B D) Bottom)\n"
    )
    pairs = classify(n)
    assert ("A", "C") in pairs and ("B", "Bottom") in pairs
    assert ("A", "Bottom") not in pairs  # no propagation back along r
    assert pairs == classify_oracle(n)


def test_classify_matches_the_fixpoint_oracle():
    rng = np.random.default_rng(31)  # the 500 cases of the normalizer-fuzz gate
    for _ in range(500):
        o = random_tbox(rng, max_concepts=8, max_depth=3)
        for n in (normalize(o), normalize(flatten_by_definitions(o))):
            assert classify(n) == classify_oracle(n)
    for seed in range(1000):
        n = normalize(random_full_ontology(np.random.default_rng(seed)))
        assert classify(n) == classify_oracle(n)


@pytest.mark.parametrize(
    "ax, text",
    [(NF1("A", "B"), "NF1 A B"), (NF2("A", "r", "B"), "NF2 A r B"), (NF3("r", "A", "B"), "NF3 r A B"),
     (NF4("A", "B", "C"), "NF4 A B C"), (Disjointness("A", "B"), "DISJ A B"), (RSub("r", "s"), "RSUB r s")],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_each_shape_declares_its_text_and_which_names_are_relations(ax, text):
    # concepts are upper case and relations lower case in these cases
    assert ax.text() == text
    assert ax.operands() == tuple(n for n in text.split()[1:] if n.isupper())
    assert ax.relations() == tuple(n for n in text.split()[1:] if n.islower())
    assert read_normalized(text + "\n").axioms == (ax,)


def test_write_and_read_normalized_round_trip():
    n = norm(
        "Concept(A)\nConcept(B)\nRelation(r)\nIndividual(a)\n"
        "SubClassOf(A Some(r And(A B)))\nInstance(a A)\nSubRelationOf(r r)\n"
    )
    back = read_normalized(write_normalized(n))
    assert back.axioms == n.axioms
    assert back.fresh_names == n.fresh_names
    assert back.nominal_map == n.nominal_map
    assert back.concept_names == n.concept_names
    assert back.relation_names == n.relation_names
    assert back.provenance == n.provenance


def test_fuzzed_provenance_round_trips():
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = normalize(random_full_ontology(rng))
        assert read_normalized(write_normalized(n)).provenance == n.provenance


@pytest.mark.parametrize(
    "trailer, message",
    [
        ("# prov: N = And(A", "line 3, col 18: expected"),
        ("# prov: N = And(A Q)", "line 3, col 19: undeclared concept 'Q'"),
        ("# prov: N = Some(q A)", "line 3, col 18: undeclared relation 'q'"),
        ("  # prov: N = A B", "line 3, col 17: trailing input"),
        ("# prov: N =", "line 3, col 12: expected a concept expression"),
        ("# prov: N", "line 3: provenance needs"),
    ],
)
def test_read_normalized_rejects_a_malformed_provenance_trailer(trailer, message):
    with pytest.raises(DataError, match=re.escape(message)):
        read_normalized(f"NF2 A r B\n# fresh: N\n{trailer}\n")


def test_read_normalized_rejects_wrong_arity():
    with pytest.raises(DataError, match="^normalized axioms line 1: NF1 takes 2 names, got 1$"):
        read_normalized("NF1 A\n")
    with pytest.raises(DataError, match="^normalized axioms line 2: unknown normal form 'NF9'$"):
        read_normalized("NF1 A B\nNF9 A B\n")
    with pytest.raises(DataError, match="^normalized axioms line 2: malformed nominal entry 'a'$"):
        read_normalized("NF1 A B\n# nominal: a\n")
    with pytest.raises(DataError, match="^normalized axioms line 2: provenance needs 'name = expression'$"):
        read_normalized("NF1 A B\n# prov: N\n")


def normalized_to_ontology(n):
    """Express a normalized ontology back in the surface syntax.

    Re-normalizing the result introduces no further fresh names, since every
    axiom is already shallow.
    """

    def as_expr(name: str) -> ConceptExpression:
        if name == TOP:
            return Top()
        if name == BOTTOM:
            return Bottom()
        return Atomic(name)

    axioms: list[Gci | RoleInclusion] = []
    for ax in n.axioms:
        if isinstance(ax, NF1):
            axioms.append(Gci(as_expr(ax.sub), as_expr(ax.sup)))
        elif isinstance(ax, NF2):
            axioms.append(Gci(as_expr(ax.sub), Existential(ax.relation, as_expr(ax.filler))))
        elif isinstance(ax, NF3):
            axioms.append(Gci(Existential(ax.relation, as_expr(ax.filler)), as_expr(ax.sup)))
        elif isinstance(ax, NF4):
            axioms.append(Gci(Conjunction(as_expr(ax.left), as_expr(ax.right)), as_expr(ax.sup)))
        elif isinstance(ax, Disjointness):
            axioms.append(Gci(Conjunction(as_expr(ax.left), as_expr(ax.right)), Bottom()))
        elif isinstance(ax, RSub):
            axioms.append(RoleInclusion(ax.sub, ax.sup))
    return Ontology(
        concept_names=tuple(sorted(n.concept_names)),
        relation_names=tuple(sorted(n.relation_names)),
        individual_names=(),
        axioms=tuple(axioms),
    )


def test_normalized_to_ontology_re_normalizes_without_new_names():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = normalize(random_tbox(rng))
        again = normalize(normalized_to_ontology(n))
        assert again.fresh_names == ()
        assert set(again.axioms) == set(n.axioms)


def test_fuzzed_outputs_are_all_normal_form():
    rng = np.random.default_rng(12)
    for _ in range(200):
        o = random_tbox(rng)
        n = normalize(o)
        names = set(n.concept_names) | {"Top", "Bottom"}
        for ax in n.axioms:
            assert isinstance(ax, NORMAL_SHAPES)
            if isinstance(ax, NF1):
                assert ax.sup != "Top"
                assert {ax.sub, ax.sup} <= names
            elif isinstance(ax, NF2):
                assert {ax.sub, ax.filler} <= names
            elif isinstance(ax, NF3):
                assert {ax.filler, ax.sup} <= names
            elif isinstance(ax, NF4):
                assert {ax.left, ax.right, ax.sup} <= names


def test_fuzzed_fresh_name_budget():
    rng = np.random.default_rng(13)
    for _ in range(200):
        o = random_tbox(rng)
        assert len(normalize(o).fresh_names) <= count_complex_subexpressions(o)


def test_fuzzed_classification_matches_definitional_flattening():
    rng = np.random.default_rng(14)
    for _ in range(150):
        o = random_tbox(rng)
        flat = flatten_by_definitions(o)
        flat_n = normalize(flat)
        assert flat_n.fresh_names == ()  # the oracle route needs no rewriting
        got = original_pairs(normalize(o), o.concept_names)
        want = original_pairs(flat_n, o.concept_names)
        assert got == want


def test_classify_is_monotone_under_extra_axioms():
    rng = np.random.default_rng(15)
    for _ in range(30):
        o = random_tbox(rng)
        if len(o.axioms) < 2:
            continue
        from ontozsl.ontology import Ontology

        smaller = Ontology(o.concept_names, o.relation_names, (), o.axioms[:-1])
        fewer = original_pairs(normalize(smaller), o.concept_names)
        more = original_pairs(normalize(o), o.concept_names)
        assert fewer <= more
