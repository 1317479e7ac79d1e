"""Dataset files, accuracy metrics, and the synthetic benchmark generator."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ontozsl.errors import DataError
from ontozsl.harness import (
    Sample,
    gen_synthetic,
    load_dataset,
    parse_class_map,
    parse_features,
    parse_split,
    parse_vector_table,
    sample_accuracy,
    unseen_scores,
    write_class_map,
    write_features,
    write_split,
    write_vector_table,
)
from ontozsl.normalform import classify, normalize
from ontozsl.zslmap import (
    CandidateSet,
    Component,
    MapConfig,
    encode_labels,
    predict_test,
    train_map,
)
from ontozsl.ontology import serialize_ontology, validate
from ontozsl.textio import file_lines, lines

SPLIT = "[seen]\ncat\ndog\n[unseen]\nzebra\n"
FEATURES = "s1\tcat\t1.0,2.0\ns2\tzebra\t3.0,4.0\n"


def test_parse_split_sections():
    seen, unseen = parse_split(lines(SPLIT, "split"))
    assert seen == {"cat", "dog"}
    assert unseen == {"zebra"}


def test_parse_split_rejects_a_label_listed_twice_in_one_section():
    with pytest.raises(DataError, match="^split line 3: label 'a' appears twice$"):
        parse_split(lines("[seen]\na\na\n[unseen]\nb\n", "split"))
    with pytest.raises(DataError, match="^split line 6: label 'b' appears twice$"):
        parse_split(lines("[seen]\na\n[unseen]\nb\n# twice\nb\n", "split"))


def test_parse_split_rejects_overlap_and_stray_lines():
    with pytest.raises(DataError):
        parse_split(lines("[seen]\ncat\n[unseen]\ncat\n", "split"))
    with pytest.raises(DataError):
        parse_split(lines("cat\n[seen]\n", "split"))
    with pytest.raises(DataError):
        parse_split(lines("[wat]\ncat\n", "split"))


def test_split_round_trip_is_sorted():
    text = write_split({"dog", "cat"}, {"zebra"})
    assert text == "[seen]\ncat\ndog\n[unseen]\nzebra\n"
    assert parse_split(lines(text, "split")) == ({"cat", "dog"}, {"zebra"})


def test_parse_features_shapes():
    ids, labels, features = parse_features(lines(FEATURES, "features"))
    assert (ids, labels) == (["s1", "s2"], ["cat", "zebra"])
    assert features.shape == (2, 2) and features.flags.c_contiguous
    assert_allclose(features[1], [3.0, 4.0])


def test_parse_features_rejects_bad_rows():
    with pytest.raises(DataError):
        parse_features(lines("s1\tcat\n", "features"))
    with pytest.raises(DataError):
        parse_features(lines("s1\tcat\t1,2\ns2\tdog\t1,2,3\n", "features"))
    with pytest.raises(DataError):
        parse_features(lines("", "features"))
    with pytest.raises(DataError, match="features line 3: sample id 's1' appears twice"):
        parse_features(lines("s1\tcat\t1,2\ns2\tdog\t1,2\ns1\tdog\t3,4\n", "features"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x-0.05", "", "1_0", "٣.٥", "１", "\xa01", "1\x1f"])
def test_float_tables_reject_non_finite_and_malformed_numbers(value):
    with pytest.raises(DataError, match="line 2"):
        parse_features(lines(f"s1\tcat\t1,2\ns2\tdog\t1,{value}\n", "features"))
    with pytest.raises(DataError, match="attributes line 2"):
        parse_vector_table(lines(f"a\t1,2\nb\t{value},1\n", "attributes"))


def test_features_round_trip():
    ids, labels, features = parse_features(lines(FEATURES, "features"))
    text = write_features(map(Sample, ids, labels, features))  # canonical form: no trailing zeros
    again = parse_features(lines(text, "features"))
    assert again[:2] == (ids, labels)
    assert again[2].tobytes() == features.tobytes()
    assert write_features(map(Sample, *again)) == text


def test_load_dataset_checks_label_coverage():
    ds = load_dataset(lines(FEATURES, "features"), lines(SPLIT, "split"))
    assert ds.rows_of(ds.seen_labels).tolist() == [True, False]
    assert [s.id for s in ds.test_samples()] == ["s2"]
    with pytest.raises(DataError):
        load_dataset(lines("s1\tmouse\t1.0,2.0\n", "features"), lines(SPLIT, "split"))


def test_loading_a_feature_file_peaks_below_its_size(tmp_path):
    """The rows stream from the file: loading holds the parsed samples, not the text.

    Reading the whole text first peaked at about 2.5x the file, and at 4.9x
    the dataset, on this file.
    """
    data = gen_synthetic(8, 2, 200, p=128)
    features, split = tmp_path / "features.tsv", tmp_path / "split.txt"
    features.write_text(write_features(data.dataset.samples))
    split.write_text(write_split(data.dataset.seen_labels, data.dataset.unseen_labels))
    size = features.stat().st_size
    assert size >= 4 * 2**20
    del data
    tracemalloc.start()
    try:
        dataset = load_dataset(file_lines(str(features), "features"), file_lines(str(split), "split"))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset.features.shape == (2000, 128)
    assert peak < size
    assert peak < 1.2 * kept


def test_loading_training_and_predicting_peak_near_twice_the_floats(tmp_path):
    """One feature matrix, and one split at a time gathered from it.

    On 12,000 x 512 features (49.2 MB of floats) the traced peak of these
    three calls was 113.5 MB (2.31x) with a Sample per row and the splits
    stacked from them, 110.4 MB (2.25x) with one matrix, and 84.7 MB (1.72x)
    with ``sae_loss`` summed over blocks of 1,024 samples.  This file has
    the same width and split at a sixth of the rows.  Its peak, 2.17x, is
    taken in the mapper's solve, with ``X X'`` and its eigenvectors (0.26x
    each) beside the feature matrix (1.0x) and the gathered training split
    (0.61x); a whole reconstruction in ``sae_loss`` (0.60x) took it to 2.25x.
    """
    data = gen_synthetic(24, 16, 50, p=512)
    features, split = tmp_path / "features.tsv", tmp_path / "split.txt"
    features.write_text(write_features(data.dataset.samples))
    split.write_text(write_split(data.dataset.seen_labels, data.dataset.unseen_labels))
    table = encode_labels(sorted(data.attributes), [Component.ATTRIBUTE], attributes=data.attributes)
    floats = data.dataset.features.nbytes
    del data
    tracemalloc.start()
    try:
        dataset = load_dataset(file_lines(str(features), "features"), file_lines(str(split), "split"))
        model = train_map(dataset, table, MapConfig())
        predict_test(model, dataset, table, CandidateSet.SEEN_AND_UNSEEN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.features.nbytes == floats == 2000 * 512 * 8
    assert peak < 2.3 * floats


def test_generated_features_keep_their_bytes():
    """``write_features`` of the acceptance inputs, as its sha256 digest."""
    text = write_features(gen_synthetic(8, 2, 30).dataset.samples)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "b766c63eef6855e3bbc4ed1f38f75ea75907fbc93b0194a2a5557127fd41351f"


def test_vector_table_round_trip():
    table = {"b": np.array([1.0, 2.0]), "a": np.array([0.5, -1.0])}
    text = write_vector_table(table)
    assert text.splitlines()[0].startswith("a\t")  # sorted by label
    back = parse_vector_table(lines(text, "attributes"))
    assert set(back) == {"a", "b"}
    assert np.array_equal(back["b"], table["b"])


def test_class_map_round_trip():
    text = write_class_map({"zebra": "Zebra_Concept"})
    assert parse_class_map(lines(text, "class map")) == {"zebra": "Zebra_Concept"}
    with pytest.raises(DataError):
        parse_class_map(lines("only-one-field\n", "class map"))


def test_sample_accuracy_example():
    assert sample_accuracy(["A", "B", "B", "B"], ["A", "A", "B", "B"]) == 0.75


def test_sample_accuracy_errors():
    with pytest.raises(DataError):
        sample_accuracy([], [])
    with pytest.raises(DataError):
        sample_accuracy(["A"], ["A", "B"])


def test_per_class_and_macro_accuracy():
    preds = ["A", "B", "B", "B"]
    truth = ["A", "A", "B", "B"]
    macro, per_class, counts = unseen_scores(preds, truth, ["A", "B"])
    assert per_class == {"A": 0.5, "B": 1.0}
    assert counts == {"A": (1, 2), "B": (2, 2)}
    assert macro == 0.75


def test_macro_accuracy_requires_samples_for_every_class():
    with pytest.raises(DataError):
        unseen_scores(["A"], ["A"], ["A", "Ghost"])


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(6))))
def test_macro_accuracy_ignores_sample_order(perm):
    preds = ["A", "A", "B", "B", "B", "A"]
    truth = ["A", "B", "B", "B", "A", "A"]
    shuffled_preds = [preds[i] for i in perm]
    shuffled_truth = [truth[i] for i in perm]
    assert unseen_scores(shuffled_preds, shuffled_truth, ["A", "B"]) == unseen_scores(
        preds, truth, ["A", "B"]
    )


def test_gen_synthetic_is_deterministic():
    a = gen_synthetic(4, 2, 5, p=8, noise=0.05, seed=3)
    b = gen_synthetic(4, 2, 5, p=8, noise=0.05, seed=3)
    assert serialize_ontology(a.ontology) == serialize_ontology(b.ontology)
    assert write_features(a.dataset.samples) == write_features(b.dataset.samples)
    assert write_vector_table(a.attributes) == write_vector_table(b.attributes)
    c = gen_synthetic(4, 2, 5, p=8, noise=0.05, seed=4)
    assert write_features(c.dataset.samples) != write_features(a.dataset.samples)


def test_gen_synthetic_ontology_is_valid_and_split_disjoint():
    data = gen_synthetic(6, 3, 4, p=10, noise=0.1, seed=0)
    assert validate(data.ontology) == []
    ds = data.dataset
    assert ds.seen_labels & ds.unseen_labels == frozenset()
    assert len(ds.seen_labels) == 6 and len(ds.unseen_labels) == 3
    counts = {}
    for s in ds.samples:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert all(n == 4 for n in counts.values())
    assert len(ds.samples) == 9 * 4
    assert set(data.attributes) == ds.seen_labels | ds.unseen_labels


def test_gen_synthetic_classes_sit_under_their_groups():
    data = gen_synthetic(4, 2, 2, p=8, noise=0.0, seed=1)
    pairs = classify(normalize(data.ontology))
    group_of = {
        a: b for a, b in pairs if a.startswith("Class_") and b.startswith("Group_")
    }
    assert set(group_of) == {f"Class_{i:02d}" for i in range(6)}
    assert all((cls, "Domain") in pairs for cls in group_of)


def test_gen_synthetic_distinct_trait_sets_per_class():
    data = gen_synthetic(8, 2, 1, p=8, noise=0.0, seed=0)
    # attribute tail is the trait multi-hot; no two classes share it exactly
    tails = {label: tuple(vec) for label, vec in data.attributes.items()}
    assert len(set(tails.values())) == len(tails)


def test_gen_synthetic_rejects_nonsense():
    with pytest.raises(DataError):
        gen_synthetic(0, 2, 5)
    with pytest.raises(DataError):
        gen_synthetic(4, 2, 0)
    with pytest.raises(DataError):
        gen_synthetic(4, 2, 5, noise=-0.1)
    for noise in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="noise"):
            gen_synthetic(4, 2, 5, noise=noise)
