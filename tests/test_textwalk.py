"""Graph projection, random walks, lexicalization, and skip-gram vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ontozsl import errors, textwalk
from ontozsl.errors import DataError, NumericalError, UnknownNameError
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
    wv = train_skipgram(corpus, SkipGramConfig(dim=3, epochs=0, seed=0))
    assert set(wv.vectors) == {"Puppy", "subClassOf", "dog", "young"}


def test_skipgram_epochs_zero_is_identity_on_initialized_tokens():
    corpus = load_corpus(lines("sun moon\nsun moon\n", "corpus"))
    init = WordVectors(4, {"sun": np.arange(4.0)})
    cfg = SkipGramConfig(dim=4, epochs=0, seed=0)
    wv = train_skipgram(corpus, cfg, init=init)
    assert np.array_equal(wv.vectors["sun"], np.arange(4.0))
    assert set(wv.vectors) == {"sun", "moon"}


def test_skipgram_is_deterministic():
    corpus = load_corpus(lines("sun moon star\nmoon sun\nrock\n" * 3, "corpus"))
    cfg = SkipGramConfig(dim=8, epochs=5, seed=3)
    a = train_skipgram(corpus, cfg)
    b = train_skipgram(corpus, cfg)
    assert a.vectors.keys() == b.vectors.keys()
    for tok in a.vectors:
        assert np.array_equal(a.vectors[tok], b.vectors[tok])


def test_skipgram_loss_decreases_early():
    corpus = load_corpus(lines("sun moon\n" * 30 + "rock stone\n" * 30, "corpus"))
    cfg = SkipGramConfig(dim=10, epochs=10, seed=0)
    wv = train_skipgram(corpus, cfg)
    assert len(wv.train_losses) == 10
    assert wv.train_losses[-1] < wv.train_losses[0]


def test_skipgram_groups_tokens_with_shared_contexts():
    # sun and moon appear in the same contexts; rock never trains a pair
    corpus = load_corpus(lines("sun sky glow\n" * 40 + "moon sky glow\n" * 40 + "rock\n" * 20, "corpus"))
    wv = train_skipgram(corpus, SkipGramConfig(dim=12, epochs=40, seed=1))

    def cos(a, b):
        va, vb = wv.vectors[a], wv.vectors[b]
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    assert cos("sun", "moon") > cos("sun", "rock")


def test_skipgram_min_count_filters_vocabulary():
    corpus = load_corpus(lines("sun moon\nsun moon\nrock sun\n", "corpus"))
    wv = train_skipgram(corpus, SkipGramConfig(dim=4, epochs=1, min_count=2, seed=0))
    assert "rock" not in wv.vectors
    with pytest.raises(DataError):
        train_skipgram(corpus, SkipGramConfig(dim=4, epochs=1, min_count=10, seed=0))


def test_skipgram_refuses_a_table_over_the_size_limit_before_allocating_it(monkeypatch):
    corpus = load_corpus(lines("sun moon star\n", "corpus"))  # input and output rows of 3 tokens
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 6 * 4 * 8)
    train_skipgram(corpus, SkipGramConfig(dim=4, epochs=1))
    with pytest.raises(DataError, match="^w2v_dim = 5 needs a 6 x 5 parameter table of 240 bytes, "
                       "over the limit of 192$"):
        train_skipgram(corpus, SkipGramConfig(dim=5, epochs=1))


def test_skipgram_rejects_mismatched_init_dim():
    corpus = load_corpus(lines("sun moon\n", "corpus"))
    with pytest.raises(DataError):
        train_skipgram(corpus, SkipGramConfig(dim=4, seed=0), init=WordVectors(3, {}))


def _oracle_skipgram(corpus, cfg, pairs_per_step):
    """Plain per-pair loop: every pair of a step updates from the step's starting
    vectors, and updates aimed at one row add up.  Returns the vectors, the
    epoch losses and whether any pair drew the same row twice."""
    counts = {t: c for t, c in corpus.vocabulary.items() if c >= cfg.min_count}
    vocab = sorted(counts, key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    rng = np.random.default_rng(cfg.seed)
    w_in = np.array([rng.uniform(-0.5 / cfg.dim, 0.5 / cfg.dim, size=cfg.dim) for _ in vocab])
    w_out = np.zeros_like(w_in)
    noise = np.array([counts[t] for t in vocab], dtype=float) ** 0.75
    noise /= noise.sum()
    pairs = []
    for sent in corpus.sentences:
        ids = [index[t] for t in sent if t in index]
        for i, center in enumerate(ids):
            for j in range(max(0, i - cfg.window), min(len(ids), i + cfg.window + 1)):
                if j != i:
                    pairs.append((center, ids[j]))
    total = max(1, len(pairs) * cfg.epochs)
    losses, repeated, processed = [], False, 0
    for _epoch in range(cfg.epochs):
        loss = 0.0
        for lo in range(0, len(pairs), pairs_per_step):
            d_in, d_out = np.zeros_like(w_in), np.zeros_like(w_out)
            for center, context in pairs[lo : lo + pairs_per_step]:
                alpha = cfg.learning_rate * max(1e-4, 1.0 - processed / total)
                processed += 1
                drawn = rng.choice(len(vocab), cfg.negatives, p=noise) if cfg.negatives else []
                rows = [context] + [int(d) for d in drawn if d != context]
                repeated |= len(set(rows)) < len(rows)
                for k, row in enumerate(rows):
                    sig = 1.0 / (1.0 + math.exp(-float(w_out[row] @ w_in[center])))
                    loss -= math.log(sig) if k == 0 else math.log(1.0 - sig)
                    err = alpha * (sig - (1.0 if k == 0 else 0.0))
                    d_out[row] += err * w_in[center]
                    d_in[center] += err * w_out[row]
            w_in -= d_in
            w_out -= d_out
        losses.append(loss / max(1, len(pairs)))
    return {t: w_in[i] for t, i in index.items()}, losses, repeated


@pytest.mark.parametrize(
    "pairs_per_step, negatives",
    [(1, 5), (3, 5), (8, 5), (8, 0)],
    ids=["1", "3", "8", "8-no-negatives"],
)
def test_skipgram_matches_per_pair_oracle(monkeypatch, pairs_per_step, negatives):
    # 4 tokens and 5 draws per pair: draws repeat a row and hit the context;
    # 26 pairs per epoch leave a short last step for 3 and 8 pairs per step
    corpus = load_corpus(lines("sun moon star\nmoon sun\nrock\n" * 2 + "star rock sun moon\n", "corpus"))
    cfg = SkipGramConfig(dim=6, epochs=3, negatives=negatives, learning_rate=0.2, seed=4)
    monkeypatch.setattr(textwalk, "_PAIRS_PER_STEP", pairs_per_step)
    wv = train_skipgram(corpus, cfg)
    vectors, losses, repeated = _oracle_skipgram(corpus, cfg, pairs_per_step)
    assert repeated == (negatives > 0)
    assert wv.pairs_per_epoch == 26
    for token, vec in vectors.items():
        assert_allclose(wv.vectors[token], vec, rtol=0, atol=1e-12)
    assert_allclose(wv.train_losses, losses, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_skipgram_matches_per_pair_oracle_on_random_corpora(data):
    words = ["sun", "moon", "star", "rock", "sky", "glow"]
    sentences = data.draw(
        st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=6), min_size=1, max_size=6)
    )
    corpus = load_corpus(lines("".join(" ".join(s) + "\n" for s in sentences), "corpus"))
    cfg = SkipGramConfig(
        dim=data.draw(st.integers(1, 8)),
        window=data.draw(st.integers(1, 3)),
        negatives=data.draw(st.integers(0, 5)),
        epochs=data.draw(st.integers(1, 3)),
        learning_rate=data.draw(st.floats(1e-3, 0.2)),
        seed=data.draw(st.integers(0, 2**16)),
    )
    pairs_per_step = data.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textwalk, "_PAIRS_PER_STEP", pairs_per_step)
        patch.setattr(textwalk, "_STEPS_PER_BLOCK", data.draw(st.integers(1, 4)))
        wv = train_skipgram(corpus, cfg)
    vectors, losses, _repeated = _oracle_skipgram(corpus, cfg, pairs_per_step)
    for token, vec in vectors.items():
        assert_allclose(wv.vectors[token], vec, rtol=0, atol=1e-12)
    assert_allclose(wv.train_losses, losses, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        # 26 pairs: blocks of 3 steps leave a short last block
        "sun moon star\nmoon sun\nrock\n" * 2 + "star rock sun moon\n",
        # 480 pairs: the default block leaves a short last block too
        "sun sky glow\n" * 40 + "moon sky glow\n" * 40 + "rock\n" * 20,
    ],
    ids=["26-pairs", "480-pairs"],
)
def test_skipgram_result_does_not_depend_on_the_block_size(monkeypatch, text):
    corpus = load_corpus(lines(text, "corpus"))
    cfg = SkipGramConfig(dim=6, epochs=3, learning_rate=0.2, seed=4)
    runs = []
    for steps in (1, 3, textwalk._STEPS_PER_BLOCK):
        monkeypatch.setattr(textwalk, "_STEPS_PER_BLOCK", steps)
        runs.append(train_skipgram(corpus, cfg))
    first = runs[0]
    for wv in runs[1:]:
        assert wv.vectors.keys() == first.vectors.keys()
        for token, vec in first.vectors.items():
            assert np.array_equal(wv.vectors[token], vec)
        # per-block loss sums may round differently
        assert_allclose(wv.train_losses, first.train_losses, rtol=1e-13)


def test_epoch_negatives_equal_per_pair_choice_draws():
    for seed in range(20):
        gen = np.random.default_rng(seed)
        noise = gen.random(int(gen.integers(1, 30))) ** 3
        noise /= noise.sum()
        cdf = noise.cumsum()
        cdf /= cdf[-1]
        n_pairs, negatives = int(gen.integers(0, 50)), int(gen.integers(0, 6))
        table = textwalk._draw_negatives(np.random.default_rng(seed), cdf, n_pairs, negatives)
        rng = np.random.default_rng(seed)
        expected = [rng.choice(len(noise), size=negatives, p=noise) for _ in range(n_pairs)]
        assert table.shape == (n_pairs, negatives)
        assert np.array_equal(table, np.array(expected, dtype=int).reshape(n_pairs, negatives))


@pytest.mark.parametrize(
    "text",
    [
        "sun moon\n" * 30 + "rock stone\n" * 30,
        "sun sky glow\n" * 40 + "moon sky glow\n" * 40 + "rock\n" * 20,
    ],
    ids=["sun-moon", "sun-sky-glow"],
)
@pytest.mark.parametrize("seed", range(6))
def test_skipgram_is_stable_at_learning_rate_0_2(text, seed):
    cfg = SkipGramConfig(dim=10, epochs=10, learning_rate=0.2, seed=seed)
    wv = train_skipgram(load_corpus(lines(text, "corpus")), cfg)
    assert np.isfinite(wv.train_losses).all()
    assert wv.train_losses[-1] < wv.train_losses[0]


def test_skipgram_divergence_names_the_epoch_and_token():
    corpus = load_corpus(lines("sun moon star\nmoon sun\n" * 3, "corpus"))
    with pytest.raises(NumericalError, match=r"epoch 1: vector of '\w+' is not finite"):
        train_skipgram(corpus, SkipGramConfig(dim=4, epochs=3, learning_rate=1e200, seed=0))


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
    with pytest.raises(DataError):
        SkipGramConfig(learning_rate=-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(DataError, match="learning_rate"):
            SkipGramConfig(learning_rate=value)
