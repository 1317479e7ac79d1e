"""Graph projection, random walks, lexicalization, and PPMI word vectors."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ontozsl import errors, textwalk
from ontozsl.errors import DataError, UnknownNameError
from ontozsl.harness import gen_synthetic
from ontozsl.ontology import parse_ontology
from ontozsl.textio import lines
from ontozsl.textwalk import (
    SUBCLASS_PREDICATE,
    SkipGramConfig,
    WalkConfig,
    WordVectors,
    lexicalize,
    load_corpus,
    load_word_vectors,
    name_tokens,
    project,
    random_walks,
    save_corpus,
    save_word_vectors,
    split_identifier,
    train_skipgram,
    word_encoding,
)


def test_project_inclusion_and_existential_edges():
    o = parse_ontology(
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "SubClassOf(A B)\nSubClassOf(A Some(r C))\n"
    )
    g = project(o)
    assert ("A", SUBCLASS_PREDICATE, "B") in g.edges
    assert ("A", "r", "C") in g.edges


def test_project_reverses_existential_on_the_left():
    o = parse_ontology("Concept(A)\nConcept(B)\nRelation(r)\nSubClassOf(Some(r A) B)\n")
    g = project(o)
    assert ("B", "r", "A") in g.edges


def test_project_equivalence_gives_both_directions():
    o = parse_ontology("Concept(A)\nConcept(B)\nEquivalentTo(A B)\n")
    g = project(o)
    assert ("A", SUBCLASS_PREDICATE, "B") in g.edges
    assert ("B", SUBCLASS_PREDICATE, "A") in g.edges


def test_project_assertions_use_plain_individual_names():
    o = parse_ontology(
        "Concept(Person)\nRelation(knows)\nIndividual(alice)\nIndividual(bob)\n"
        "Instance(alice Person)\nRelationInstance(knows alice bob)\n"
    )
    g = project(o)
    assert ("alice", SUBCLASS_PREDICATE, "Person") in g.edges
    assert ("alice", "knows", "bob") in g.edges
    assert "IND_alice" not in g.nodes


def test_project_reads_a_nested_nominal_as_the_plain_individual():
    o = parse_ontology("Concept(A)\nRelation(r)\nIndividual(a)\nSubClassOf(A Some(r One(a)))\n")
    g = project(o)
    assert g.edges == {("A", "r", "a")}
    assert g.nodes == {"A", "a"}


def test_project_covers_declared_but_unused_names():
    o = parse_ontology("Concept(A)\nConcept(Island)\nSubClassOf(A A)\n")
    assert "Island" in project(o).nodes


def test_project_is_order_independent():
    base = (
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "EquivalentTo(A And(B Some(r C)))\nSubClassOf(And(C Some(r B)) A)\n"
    )
    swapped = (
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "SubClassOf(And(C Some(r B)) A)\nEquivalentTo(A And(B Some(r C)))\n"
    )
    assert project(parse_ontology(base)) == project(parse_ontology(swapped))


def test_project_skips_relation_chains():
    o = parse_ontology("Relation(r)\nRelation(s)\nRelationChain(r r -> s)\n")
    assert project(o).edges == frozenset()


def test_walks_on_single_edge_graph():
    o = parse_ontology("Concept(A)\nConcept(B)\nRelation(r)\nSubClassOf(A Some(r B))\n")
    walks = random_walks(project(o), WalkConfig(1, 2, 0))
    assert sorted(walks) == [["A", "r", "B"], ["B"]]


def test_walks_alternate_and_follow_real_edges():
    o = parse_ontology(
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "SubClassOf(A B)\nSubClassOf(B Some(r C))\nSubClassOf(C A)\n"
    )
    g = project(o)
    for walk in random_walks(g, WalkConfig(5, 4, 1)):
        assert len(walk) % 2 == 1
        for i in range(0, len(walk) - 1, 2):
            assert (walk[i], walk[i + 1], walk[i + 2]) in g.edges


def test_walks_are_deterministic():
    o = parse_ontology(
        "Concept(A)\nConcept(B)\nConcept(C)\nRelation(r)\n"
        "SubClassOf(A B)\nSubClassOf(A Some(r C))\n"
    )
    g = project(o)
    assert random_walks(g, WalkConfig(4, 3, 5)) == random_walks(g, WalkConfig(4, 3, 5))


def test_walks_choose_successors_uniformly():
    o = parse_ontology(
        "Concept(A)\nConcept(B)\nConcept(C)\nConcept(D)\n"
        "SubClassOf(A B)\nSubClassOf(A C)\nSubClassOf(A D)\n"
    )
    g = project(o)
    walks = random_walks(g, WalkConfig(3000, 1, 0))
    from_a = [w for w in walks if w[0] == "A"]
    assert len(from_a) == 3000
    sigma = np.sqrt((1 / 3) * (2 / 3) / 3000)
    for succ in ("B", "C", "D"):
        freq = sum(1 for w in from_a if w[2] == succ) / 3000
        assert abs(freq - 1 / 3) <= 3 * sigma


def test_walks_on_empty_graph_fail():
    o = parse_ontology("")
    with pytest.raises(DataError):
        random_walks(project(o), WalkConfig(1, 1, 0))


def test_walks_per_node_whose_walk_list_passes_the_size_limit_is_refused_before_walking():
    g = project(parse_ontology("Concept(A)\nConcept(B)\nSubClassOf(A B)\n"))
    with pytest.raises(DataError, match=f"^walks_per_node = {10**20} needs a 2 x {10**20} walk list of "
                       f"{16 * 10**20} bytes, over the limit of {1 << 30}$"):
        random_walks(g, WalkConfig(10**20, 1, 0))


def test_walks_on_a_cycle_are_refused_once_their_tokens_would_pass_the_size_limit(monkeypatch):
    cycle = "Concept(A)\nConcept(B)\nRelation(r)\nSubClassOf(A Some(r B))\nSubClassOf(B Some(r A))\n"
    g = project(parse_ontology(cycle))
    # one walk from each node, of 2 * 10 + 1 tokens: 42 tokens of 8 bytes
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 42 * 8)
    assert sum(map(len, random_walks(g, WalkConfig(1, 10, 0)))) == 42
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 42 * 8 - 1)
    with pytest.raises(DataError, match="^walk_length = 10 needs walks of over 41 tokens of 8 bytes, "
                       "over the limit of 335$"):
        random_walks(g, WalkConfig(1, 10, 0))


def test_walks_on_an_acyclic_graph_end_at_sinks_however_long_walk_length_is():
    g = project(parse_ontology("Concept(A)\nConcept(B)\nConcept(C)\nSubClassOf(A B)\nSubClassOf(B C)\n"))
    assert random_walks(g, WalkConfig(3, 10**20, 0)) == random_walks(g, WalkConfig(3, 2, 0))


def test_split_identifier_handles_underscores_and_camel_case():
    assert split_identifier("Killer_Whale") == ["killer", "whale"]
    assert split_identifier("hasTexture") == ["has", "texture"]
    assert split_identifier("HTTPServer2") == ["http", "server2"]
    assert split_identifier("alpha") == ["alpha"]


def test_lexicalize_keeps_walk_names_verbatim():
    o = parse_ontology("Concept(Killer_Whale)\nConcept(Patches)\nRelation(hasTexture)\n")
    corpus = lexicalize([["Killer_Whale", "hasTexture", "Patches"]], o)
    assert corpus.sentences == [["Killer_Whale", "hasTexture", "Patches"]]


def test_lexicalize_prefers_labels():
    o = parse_ontology('Concept(Killer_Whale)\nLabel(Killer_Whale "Orca, the killer")\n')
    corpus = lexicalize([["Killer_Whale"]], o)
    assert corpus.sentences == [["Killer_Whale"], ["Killer_Whale", "orca", "the", "killer"]]
    assert "whale" not in corpus.vocabulary  # the label's words, not the identifier's


def test_lexicalize_first_label_wins():
    o = parse_ontology('Concept(A)\nLabel(A "first one")\nLabel(A "second one")\n')
    assert name_tokens("A", o) == ["first", "one"]


def test_lexicalize_appends_comment_sentences():
    o = parse_ontology('Concept(A)\nComment(A "black and white predator")\n')
    corpus = lexicalize([["A"]], o)
    assert ["A", "black", "and", "white", "predator"] in corpus.sentences


def test_lexicalize_vocabulary_counts_tokens():
    o = parse_ontology('Concept(A_B)\nConcept(B)\nLabel(B "b side")\n')
    corpus = lexicalize([["A_B", "subClassOf", "B"], ["B"]], o)
    assert corpus.vocabulary == {"A_B": 1, "subClassOf": 1, "B": 3, "b": 1, "side": 1}


def test_lexicalized_corpus_is_the_walks_then_one_sentence_per_annotation():
    o = parse_ontology(
        "Concept(Killer_Whale)\nConcept(BigCat)\nRelation(hasPart)\n"
        "SubClassOf(Killer_Whale Some(hasPart BigCat))\n"
        'Comment(BigCat "a large cat")\nLabel(hasPart "has part")\nLabel(BigCat "--")\n'
    )
    walks = random_walks(project(o), WalkConfig(5, 3, 0))
    corpus = lexicalize(walks, o)
    assert corpus.sentences == walks + [["BigCat", "a", "large", "cat"], ["hasPart", "has", "part"]]


def test_lexicalize_keeps_names_case_sensitive():
    o = parse_ontology("Concept(Foo)\nConcept(foo)\nSubClassOf(Foo foo)\n")
    corpus = lexicalize(random_walks(project(o), WalkConfig(2, 1, 0)), o)
    assert corpus.vocabulary == {"Foo": 2, "subClassOf": 2, "foo": 4}
    wv = train_skipgram(corpus, SkipGramConfig(dim=3, epochs=2, seed=0))
    assert not np.array_equal(wv.vectors["Foo"], wv.vectors["foo"])
    assert_allclose(word_encoding("foo", wv, o), wv.vectors["foo"])


def test_a_label_word_equal_to_a_lowercase_name_shares_its_token():
    o = parse_ontology(
        'Concept(dog)\nConcept(Puppy)\nSubClassOf(Puppy dog)\nLabel(Puppy "young dog")\n'
    )
    corpus = lexicalize([["Puppy", "subClassOf", "dog"], ["dog"]], o)
    assert corpus.sentences[-1] == ["Puppy", "young", "dog"]
    assert corpus.vocabulary["dog"] == 3
    wv = train_skipgram(corpus, SkipGramConfig(dim=3, epochs=1, seed=0))
    assert set(wv.vectors) == {"Puppy", "subClassOf", "dog", "young"}


def test_skipgram_is_deterministic():
    corpus = load_corpus(lines("sun moon star\nmoon sun\nrock\n" * 3, "corpus"))
    cfg = SkipGramConfig(dim=8, epochs=5, seed=3)
    a = train_skipgram(corpus, cfg)
    b = train_skipgram(corpus, cfg)
    assert a.vectors.keys() == b.vectors.keys()
    for tok in a.vectors:
        assert np.array_equal(a.vectors[tok], b.vectors[tok])


def test_skipgram_groups_tokens_with_shared_contexts():
    # sun and moon appear in the same contexts; rock never forms a pair, so its vector is zero
    corpus = load_corpus(lines("sun sky glow\n" * 40 + "moon sky glow\n" * 40 + "rock\n" * 20, "corpus"))
    wv = train_skipgram(corpus, SkipGramConfig(dim=2, epochs=40, seed=1))
    sun, moon = wv.vectors["sun"], wv.vectors["moon"]
    assert_allclose(sun @ moon / (np.linalg.norm(sun) * np.linalg.norm(moon)), 1.0, rtol=1e-12)
    assert not wv.vectors["rock"].any()


def test_skipgram_min_count_filters_vocabulary():
    corpus = load_corpus(lines("sun moon\nsun moon\nrock sun\n", "corpus"))
    wv = train_skipgram(corpus, SkipGramConfig(dim=4, epochs=1, min_count=2, seed=0))
    assert "rock" not in wv.vectors
    with pytest.raises(DataError):
        train_skipgram(corpus, SkipGramConfig(dim=4, epochs=1, min_count=10, seed=0))


def test_skipgram_refuses_a_table_over_the_size_limit_before_allocating_it(monkeypatch):
    # 3 tokens and 6 positive PPMI entries; a product gathers 6 rows of dim + 10 columns
    corpus = load_corpus(lines("sun moon star\n", "corpus"))
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 6 * 14 * 8)
    train_skipgram(corpus, SkipGramConfig(dim=4, epochs=1))
    with pytest.raises(DataError, match="^w2v_dim = 5 needs a 6 x 15 parameter table of 720 bytes, "
                       "over the limit of 672$"):
        train_skipgram(corpus, SkipGramConfig(dim=5, epochs=1))


def test_a_window_past_the_longest_sentence_reaches_as_far_as_it():
    corpus = load_corpus(lines("sun moon star rock\nsun moon\nrock star sun\n", "corpus"))
    vectors = [
        save_word_vectors(train_skipgram(corpus, SkipGramConfig(dim=2, window=window, epochs=2)))
        for window in (3, 4, 1000, 10**20)
    ]
    assert vectors[1:] == vectors[:1] * 3


def test_skipgram_refuses_a_context_index_table_over_the_size_limit(monkeypatch):
    # 5 tokens, each reaching 2 positions each way
    corpus = load_corpus(lines("sun moon star\nsun moon\n", "corpus"))
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 5 * 4 * 8 - 1)
    for window in (2, 10**20):
        with pytest.raises(DataError, match=f"^w2v_window = {window} needs a 5 x 4 context index table "
                           "of 160 bytes, over the limit of 159$"):
            train_skipgram(corpus, SkipGramConfig(dim=1, window=window, epochs=1))


def _dense_ppmi(corpus, window):
    """The PPMI matrix by a loop over every token's window, in the vocabulary order of train_skipgram."""
    vocab = sorted(corpus.vocabulary, key=lambda t: (-corpus.vocabulary[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    counts = np.zeros((len(vocab), len(vocab)))
    for sentence in corpus.sentences:
        for i, token in enumerate(sentence):
            for j in range(max(0, i - window), min(len(sentence), i + window + 1)):
                if j != i:
                    counts[index[token], index[sentence[j]]] += 1
    smoothed = counts.sum(axis=0) ** 0.75
    ppmi = np.zeros_like(counts)
    for w, c in zip(*np.nonzero(counts)):
        pmi = math.log(counts[w, c] * smoothed.sum() / (counts[w].sum() * smoothed[c]))
        ppmi[w, c] = max(pmi, 0.0)
    return ppmi, vocab


def _random_corpus(seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    weights = 1.0 / np.arange(1, len(words) + 1)
    sentences = [
        " ".join(rng.choice(words, size=int(rng.integers(2, 9)), p=weights / weights.sum()))
        for _ in range(80)
    ]
    return load_corpus(lines("".join(s + "\n" for s in sentences), "corpus"))


# 37-40 tokens against dim + 10 columns.  Each case has a gap of at least
# 0.2 % of the largest singular value between singular values dim and dim + 1,
# so its top-dim subspace is well defined; the vectors matched the oracle to
# 2e-14 of it, and the loss sequence rose by at most 1e-15.
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim, window", [(2, 1), (4, 2), (6, 2)])
def test_skipgram_spans_the_top_singular_subspace_of_a_dense_ppmi(seed, dim, window):
    corpus = _random_corpus(seed)
    ppmi, vocab = _dense_ppmi(corpus, window)
    u, s, _ = np.linalg.svd(ppmi)
    assert s[dim - 1] - s[dim] > 0.002 * s[0]
    wv = train_skipgram(corpus, SkipGramConfig(dim=dim, window=window, epochs=60, seed=seed))
    vectors = np.array([wv.vectors[t] for t in vocab])
    # U sqrt(S) has orthogonal columns whose squared norms are the singular values
    assert_allclose(vectors.T @ vectors, np.diag(s[:dim]), rtol=0, atol=1e-9 * s[0])
    projector = u[:, :dim] @ u[:, :dim].T
    assert_allclose(projector @ vectors, vectors, rtol=0, atol=1e-9 * s[0])
    # each column's largest entry is positive
    assert (vectors[np.abs(vectors).argmax(axis=0), np.arange(dim)] > 0).all()
    assert len(wv.train_losses) == 60
    assert_allclose(wv.train_losses[-1], 1 - np.sum(s[:dim] ** 2) / np.sum(s**2), rtol=0, atol=1e-12)
    assert (np.diff(wv.train_losses) <= 1e-12).all()


@pytest.mark.parametrize(
    "text, pairs, rank",
    [
        ("sun moon star\n", 6, 3),  # 3 tokens against 35 columns
        ("sun sun sun\n", 6, 0),  # one token: every PMI is log 1 = 0
        ("sun\nmoon\n", 0, 0),  # no pairs at all
    ],
    ids=["small-vocabulary", "all-zero-ppmi", "no-pairs"],
)
def test_skipgram_on_a_degenerate_corpus_gives_finite_vectors_of_full_width(text, pairs, rank):
    # the suite turns numpy warnings into errors
    wv = train_skipgram(load_corpus(lines(text, "corpus")), SkipGramConfig(dim=25, epochs=3))
    vectors = np.array(list(wv.vectors.values()))
    assert wv.pairs == pairs
    assert vectors.shape[1] == 25 and np.isfinite(vectors).all()
    assert np.count_nonzero(vectors.any(axis=0)) == rank
    # the table's rank is below dim, so every round keeps all of it
    assert len(wv.train_losses) == 3
    assert_allclose(wv.train_losses, 0.0, rtol=0, atol=1e-12)


def _synthetic_corpus(sizes):
    ontology = gen_synthetic(*sizes).ontology
    return save_corpus(lexicalize(random_walks(project(ontology), WalkConfig(seed=1)), ontology))


def _uniform_corpus():
    rng = np.random.default_rng(0)
    return "".join(
        " ".join(f"w{i}" for i in rng.integers(0, 700, int(rng.integers(3, 9)))) + "\n" for _ in range(1500)
    )


# A dense BLAS product of the PPMI matrix with the columns gave different
# bytes under 1 and 2 threads on the uniform corpus, whose frequency order
# spreads each row's entries over the whole vocabulary; on the two synthetic
# corpora it happened to agree.
@pytest.mark.parametrize(
    "text",
    [lambda: _synthetic_corpus((40, 10, 10)), lambda: _synthetic_corpus((160, 40, 5)), _uniform_corpus],
    ids=["40-classes", "200-classes", "uniform-700-tokens"],
)
def test_word_vectors_are_the_same_bytes_under_one_and_two_blas_threads(tmp_path, text):
    (tmp_path / "corpus.txt").write_text(text())
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"wordvecs-{threads}.txt"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(textwalk.__file__).parents[1])}
        argv = ["w2v", "--corpus", str(tmp_path / "corpus.txt"), "--out", str(out)]
        subprocess.run([sys.executable, "-m", "ontozsl.cli", *argv], env=env, check=True)
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_word_encoding_averages_token_vectors():
    o = parse_ontology("Concept(Killer_Whale)\n")
    wv = WordVectors(2, {"killer": np.array([1.0, 0.0]), "whale": np.array([0.0, 1.0])})
    assert_allclose(word_encoding("Killer_Whale", wv, o), [0.5, 0.5])


def test_word_encoding_skips_oov_tokens():
    o = parse_ontology("Concept(Killer_Whale)\n")
    wv = WordVectors(2, {"whale": np.array([2.0, 4.0])})
    assert_allclose(word_encoding("Killer_Whale", wv, o), [2.0, 4.0])


def test_word_encoding_reads_the_entity_token_before_its_words():
    o = parse_ontology('Concept(Killer_Whale)\nLabel(Killer_Whale "orca")\n')
    vectors = {"Killer_Whale": np.array([3.0, 1.0]), "orca": np.array([0.0, 1.0])}
    assert np.array_equal(word_encoding("Killer_Whale", WordVectors(2, vectors), o), [3.0, 1.0])
    del vectors["Killer_Whale"]
    assert np.array_equal(word_encoding("Killer_Whale", WordVectors(2, vectors), o), [0.0, 1.0])


def test_word_encoding_all_oov_raises():
    o = parse_ontology("Concept(Killer_Whale)\n")
    wv = WordVectors(2, {"other": np.zeros(2)})
    with pytest.raises(UnknownNameError) as err:
        word_encoding("Killer_Whale", wv, o)
    assert "killer" in str(err.value)


def test_corpus_round_trip():
    corpus = load_corpus(lines("a b c\nd e\n", "corpus"))
    assert save_corpus(corpus) == "a b c\nd e\n"
    assert corpus.vocabulary == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}


def test_word_vector_file_round_trip():
    wv = WordVectors(3, {"sun": np.array([1.0, -2.5, 0.25]), "moon": np.zeros(3)})
    back = load_word_vectors(lines(save_word_vectors(wv), "word vectors"))
    assert back.dim == 3
    assert set(back.vectors) == {"sun", "moon"}
    assert np.array_equal(back.vectors["sun"], wv.vectors["sun"])


def test_word_vector_file_header_is_validated():
    with pytest.raises(DataError):
        load_word_vectors(lines("nonsense\n", "word vectors"))
    with pytest.raises(DataError):
        load_word_vectors(lines("2 3\nsun 1 2 3\n", "word vectors"))  # promised two rows, gave one
    with pytest.raises(DataError):
        load_word_vectors(lines("1 3\nsun 1 2\n", "word vectors"))  # wrong dimension


@pytest.mark.parametrize(
    "text, line",
    [
        ("x 2\nsun 1 2\n", 1),
        ("1 0\n", 1),
        ("1 2\n\nsun 1 q\n", 3),
        ("2 2\nsun 1 2\nmoon nan 2\n", 3),
        ("2 2\nsun 1 2\nsun 3 4\n", 3),
    ],
    ids=["header-not-a-number", "zero-dimension", "bad-coordinate", "nan-coordinate",
         "repeated-token"],
)
def test_word_vector_file_rejects_non_numbers_with_line_number(text, line):
    with pytest.raises(DataError, match=f"line {line}"):
        load_word_vectors(lines(text, "word vectors"))


def test_config_validation():
    with pytest.raises(DataError):
        WalkConfig(0, 4, 0)
    with pytest.raises(DataError):
        WalkConfig(1, 0, 0)
    with pytest.raises(DataError):
        SkipGramConfig(dim=0)
    with pytest.raises(DataError, match="epochs"):
        SkipGramConfig(epochs=0)
    for value in (math.inf, 2.5, 3.0):
        with pytest.raises(DataError, match="out of range: window$"):
            SkipGramConfig(window=value)
        with pytest.raises(DataError, match="out of range: walk_length$"):
            WalkConfig(walk_length=value)
