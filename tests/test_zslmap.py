"""Label encodings, the SAE/ridge mappers, and nearest-encoding prediction."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sae_grad
from ontozsl.elembed import Ball, EmbeddingSpace
from ontozsl.errors import DataError, NumericalError, UnknownNameError
from ontozsl.harness import ZslDataset
from ontozsl.ontology import parse_ontology
from ontozsl.textio import lines
from ontozsl.textwalk import WordVectors
from ontozsl.zslmap import (
    CandidateSet,
    Component,
    EncodingTable,
    LinearMap,
    MapConfig,
    _row_distances,
    candidate_spread,
    distance,
    encode_labels,
    load_encodings,
    load_model,
    map_features,
    predict,
    predict_test,
    sae_loss,
    save_encodings,
    save_model,
    train_map,
    train_ridge,
    train_sae,
)


def kron_solve(x, z, lam):
    """Exact stationary point of the tied-weight objective.

    Vectorizing dL/dW = 0 gives (I (x) ZZ' + lam XX' (x) I) vec(W) =
    (1+lam) vec(ZX'), solved densely; small sizes only.
    """
    p, m = x.shape[0], z.shape[0]
    a = np.kron(np.eye(p), z @ z.T) + lam * np.kron(x @ x.T, np.eye(m))
    rhs = (1 + lam) * (z @ x.T).reshape(m * p, order="F")
    return np.linalg.solve(a, rhs).reshape((m, p), order="F")


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------


def tiny_space():
    return EmbeddingSpace(
        2,
        {
            "Cat": Ball(np.array([1.0, 0.0]), 0.1),
            "Dog": Ball(np.array([0.0, 1.0]), 0.2),
        },
        {},
    )


def tiny_vectors():
    return WordVectors(2, {"cat": np.array([3.0, 4.0]), "dog": np.array([1.0, 0.0])})


def test_encode_el_center_only():
    space = tiny_space()
    space.concepts["Cat"] = Ball(np.array([0.0, -2.5]), 0.1)
    table = encode_labels(["Cat"], [Component.EL_CENTER], space=space)
    assert table.dim == 2
    assert_allclose(table.encodings["Cat"], [0.0, -1.0])


def test_encode_concatenates_components_in_order():
    o = parse_ontology("Concept(Cat)\nConcept(Dog)\n")
    table = encode_labels(
        ["Cat"],
        [Component.WORD, Component.EL_CENTER],
        space=tiny_space(),
        word_vectors=tiny_vectors(),
        ontology=o,
    )
    assert table.dim == 4
    assert_allclose(table.encodings["Cat"], [0.6, 0.8, 1.0, 0.0])


def test_encode_normalizes_each_component_by_default():
    o = parse_ontology("Concept(Cat)\n")
    table = encode_labels(
        ["Cat"],
        [Component.EL_CENTER, Component.WORD],
        space=tiny_space(),
        word_vectors=tiny_vectors(),
        ontology=o,
    )
    assert_allclose(table.encodings["Cat"], [1.0, 0.0, 0.6, 0.8])


def test_encode_attribute_component_and_class_map():
    table = encode_labels(
        ["cat-label", "blank"],
        [Component.ATTRIBUTE],
        attributes={"cat-label": np.array([2.0, 0.0, 0.0]), "blank": np.zeros(3)},
    )
    assert_allclose(table.encodings["cat-label"], [1.0, 0.0, 0.0])
    assert_allclose(table.encodings["blank"], [0.0, 0.0, 0.0])  # a zero part stays zero
    # the class map redirects only the ontology-backed components
    table = encode_labels(
        ["cat-label"],
        [Component.EL_CENTER],
        space=tiny_space(),
        class_map={"cat-label": "Cat"},
    )
    assert_allclose(table.encodings["cat-label"], [1.0, 0.0])


def test_encode_rejects_duplicate_components():
    with pytest.raises(DataError):
        encode_labels(
            ["Cat"],
            [Component.EL_CENTER, Component.EL_CENTER],
            space=tiny_space(),
        )


def test_encode_requires_some_component():
    with pytest.raises(DataError):
        encode_labels(["Cat"], [], space=tiny_space())


def test_encode_missing_sources_raise():
    with pytest.raises(DataError):
        encode_labels(["Cat"], [Component.EL_CENTER])  # no space given
    with pytest.raises(UnknownNameError):
        encode_labels(["Mouse"], [Component.EL_CENTER], space=tiny_space())
    with pytest.raises(UnknownNameError):
        encode_labels(["Cat"], [Component.ATTRIBUTE], attributes={})


def test_load_encodings_rejects_a_second_components_header():
    text = "#components\tel_center\nCat\t1,0\n#components\tattribute\nDog\t0,1\n"
    with pytest.raises(DataError, match="encodings line 3: a second #components header"):
        load_encodings(lines(text, "encodings"))


def test_encodings_file_round_trip():
    rng = np.random.default_rng(16)
    for size in range(1, len(Component) + 1):
        for components in itertools.permutations(Component, size):
            encodings = {label: rng.normal(size=2 * size) for label in ("Cat", "Dog")}
            table = EncodingTable(components, 2 * size, encodings)
            back = load_encodings(lines(save_encodings(table), "encodings"))
            assert back.components == table.components
            assert back.dim == table.dim
            for label in table.encodings:
                assert np.array_equal(back.encodings[label], table.encodings[label])


def test_load_encodings_requires_the_components_header():
    with pytest.raises(DataError, match="encodings file has no #components header"):
        load_encodings(lines("Cat\t1,0\nDog\t0,1\n", "encodings"))


# ---------------------------------------------------------------------------
# SAE mapper
# ---------------------------------------------------------------------------


def test_sae_loss_identity_is_zero():
    x = np.random.default_rng(0).normal(size=(3, 6))
    assert sae_loss(np.eye(3), x, x, 0.5) == 0.0


def test_sae_loss_zero_weights():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5))
    z = rng.normal(size=(2, 5))
    w = np.zeros((2, 3))
    assert_allclose(sae_loss(w, x, z, 0.7), np.sum(x * x) + 0.7 * np.sum(z * z), rtol=1e-12)


def test_sae_loss_matches_elementwise_recomputation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 7))
    z = rng.normal(size=(3, 7))
    w = rng.normal(size=(3, 4))
    lam = 0.31
    dec = x - w.T @ z
    enc = w @ x - z
    manual = float(np.sum(dec**2) + lam * np.sum(enc**2))
    assert_allclose(sae_loss(w, x, z, lam), manual, rtol=1e-12)


def test_sae_loss_holds_no_product_over_every_sample():
    """The residuals are summed over column blocks of the samples.

    With p = 8 and m = 4, ``X X'`` and ``Z Z'`` are tiny, so the loss, not the
    solve, would hold train_sae's peak.  Summed whole, ``W' Z`` and ``W X``
    were 1.5x the features.
    """
    rng = np.random.default_rng(11)
    x, z = rng.normal(size=(8, 40_000)), rng.normal(size=(4, 40_000))
    tracemalloc.start()
    try:
        model = train_sae(x, z, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x.nbytes
    manual = np.sum((x - model.weights.T @ z) ** 2) + 0.5 * np.sum((model.weights @ x - z) ** 2)
    assert_allclose(model.train_loss, manual, rtol=1e-12)


def test_sae_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 9))
    z = rng.normal(size=(3, 9))
    w = rng.normal(size=(3, 4))
    lam = 0.5
    g = sae_grad(w, x, z, lam)
    step = 1e-6
    fd = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up = w.copy()
            up[i, j] += step
            dn = w.copy()
            dn[i, j] -= step
            fd[i, j] = (sae_loss(up, x, z, lam) - sae_loss(dn, x, z, lam)) / (2 * step)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


def test_sae_shape_mismatch_raises():
    with pytest.raises(DataError):
        sae_loss(np.eye(2), np.zeros((2, 3)), np.zeros((2, 4)), 0.5)
    with pytest.raises(DataError):
        train_sae(np.zeros((2, 3)), np.zeros((2, 4)), 0.5)


def test_train_sae_recovers_orthogonal_map():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    x = rng.normal(size=(4, 12))
    model = train_sae(x, q @ x, 0.5)
    assert model.train_loss < 1e-6
    assert np.abs(model.weights - q).max() < 1e-3


def test_train_sae_identity_target():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 10))
    model = train_sae(x, x, 0.5)
    assert model.train_loss < 1e-6


def test_train_sae_matches_kronecker_oracle():
    rng = np.random.default_rng(6)
    for p in (2, 3, 4):
        for m in (2, 3, 4):
            x = rng.normal(size=(p, 12))
            z = rng.normal(size=(m, 12))
            lam = 0.5
            model = train_sae(x, z, lam)
            exact = kron_solve(x, z, lam)
            assert np.abs(model.weights - exact).max() < 1e-4, (p, m)


def test_train_sae_is_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 8))
    z = rng.normal(size=(2, 8))
    a = train_sae(x, z, 0.5)
    b = train_sae(x, z, 0.5)
    assert np.array_equal(a.weights, b.weights)


def test_train_sae_is_minimum_norm_when_singular():
    rng = np.random.default_rng(8)
    for n, p, m, lam in ((3, 5, 4, 0.0), (3, 5, 4, 0.5), (6, 3, 4, 0.0), (2, 2, 3, 1.5)):
        x = rng.normal(size=(p, n))
        z = rng.normal(size=(m, n))
        a = np.kron(np.eye(p), z @ z.T) + lam * np.kron(x @ x.T, np.eye(m))
        rhs = (1 + lam) * (z @ x.T).reshape(m * p, order="F")
        want = np.linalg.lstsq(a, rhs, rcond=None)[0].reshape((m, p), order="F")
        got = train_sae(x, z, lam).weights
        assert np.abs(got - want).max() < 1e-8, (n, p, m, lam)


def test_train_sae_is_stationary_on_repeated_encodings():
    # pipeline-shaped: every sample of a class shares one encoding column
    rng = np.random.default_rng(14)
    classes = rng.normal(size=(50, 8))
    z = np.repeat(classes, 30, axis=1)
    x = rng.normal(size=(16, 8)).repeat(30, axis=1) + rng.normal(0.0, 0.05, size=(16, 240))
    for lam in (0.0, 0.5):
        w = train_sae(x, z, lam).weights
        residual = np.linalg.norm(sae_grad(w, x, z, lam))
        assert residual / np.linalg.norm((1 + lam) * z @ x.T) < 1e-10, lam


def test_train_sae_rejects_overflowing_inputs():
    with pytest.raises(NumericalError):
        train_sae(np.full((2, 3), 1e200), np.ones((2, 3)), 0.5)


# ---------------------------------------------------------------------------
# ridge mapper
# ---------------------------------------------------------------------------


def test_ridge_one_dimensional_slope():
    w = train_ridge(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]), 1e-6).weights
    assert_allclose(w, [[10.0 / (5.0 + 1e-6)]], rtol=1e-12)


def test_ridge_identity_recovery():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 20))
    w = train_ridge(x, x, 1e-9).weights
    assert_allclose(w, np.eye(3), atol=1e-6)


def test_ridge_shapes_and_alpha_guard():
    rng = np.random.default_rng(10)
    x, z = rng.normal(size=(4, 9)), rng.normal(size=(2, 9))
    model = train_ridge(x, z, 0.1)
    assert (model.kind, model.param, model.weights.shape) == ("ridge", 0.1, (2, 4))
    assert_allclose(model.weights, z @ x.T @ np.linalg.inv(x @ x.T + 0.1 * np.eye(4)), rtol=1e-12)
    with pytest.raises(DataError):
        train_ridge(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)


@pytest.mark.parametrize(
    "x, z",
    [(np.full((4, 10), 1e300), np.ones((2, 10))), (np.ones((4, 10)), np.full((2, 10), 1e308)),
     (np.ones((4, 10)), np.full((2, 10), np.nan))],
    ids=["features", "encodings", "nan-encodings"],
)
def test_ridge_rejects_overflowing_inputs(x, z):
    with pytest.raises(NumericalError, match="mapper inputs overflow"):
        train_ridge(x, z, 1e-3)


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"mapper": "lasso"}, "'lasso'"),
        ({"sae_lambda": -1.0}, "sae_lambda"),
        ({"sae_lambda": float("nan")}, "sae_lambda"),
        ({"ridge_alpha": 0.0}, "ridge_alpha"),
        ({"ridge_alpha": float("nan")}, "ridge_alpha"),
        ({"sae_lambda": float("inf")}, "sae_lambda"),
        ({"ridge_alpha": float("inf")}, "ridge_alpha"),
    ],
)
def test_map_config_rejects_out_of_range_and_nan(settings, named):
    with pytest.raises(DataError, match=named):
        MapConfig(**settings)
    if "sae_lambda" in settings:
        with pytest.raises(DataError, match=named):
            train_sae(np.eye(2), np.eye(2), settings["sae_lambda"])


def test_train_map_fits_and_saves_the_configured_mapper():
    rng = np.random.default_rng(11)
    ids, labels = [f"x{i}" for i in range(12)], ["abc"[i % 3] for i in range(12)]
    features = rng.normal(size=(12, 4))
    dataset = ZslDataset(ids, labels, features, frozenset("ab"), frozenset("c"))
    table = EncodingTable((Component.ATTRIBUTE,), 2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    train = [s for s in dataset.samples if s.label in "ab"]
    x = np.stack([s.features for s in train], axis=1)
    z = np.stack([table.encodings[s.label] for s in train], axis=1)
    model = train_map(dataset, table, MapConfig())
    assert model.kind == "sae" and save_model(model) == save_model(train_sae(x, z, 0.5))
    model = train_map(dataset, table, MapConfig("ridge", ridge_alpha=0.25))
    assert model.kind == "ridge" and save_model(model) == save_model(train_ridge(x, z, 0.25))
    with pytest.raises(DataError, match="without encodings: c"):
        train_map(ZslDataset(ids, labels, features, frozenset("abc"), frozenset()), table, MapConfig())
    with pytest.raises(DataError, match="no training samples"):
        train_map(ZslDataset(ids, labels, features, frozenset(), frozenset("abc")), table, MapConfig())


def test_predict_test_labels_each_unseen_sample():
    rows = (["x0", "x1", "x2"], ["a", "b", "c"], np.array([[1.0, 0.0], [0.1, 0.9], [0.0, 1.0]]))
    table = EncodingTable((Component.ATTRIBUTE,), 2, {"b": np.array([1.0, 0.0]), "c": np.array([0.0, 1.0])})
    dataset = ZslDataset(*rows, frozenset("a"), frozenset("bc"))
    model = LinearMap("ridge", 1e-3, np.eye(2))
    assert predict_test(model, dataset, table, ["b", "c"]) == (["x1", "x2"], ["b", "c"], ["c", "c"])
    with pytest.raises(DataError, match="no test samples"):
        predict_test(model, ZslDataset(*rows, frozenset("abc"), frozenset()), table, ["b", "c"])



def test_map_features_applies_the_matrix():
    model = LinearMap("sae", 0.5, np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert_allclose(map_features(model, np.array([3.0, 4.0])), [3.0, 8.0])
    assert_allclose(map_features(LinearMap("ridge", 1e-3, np.zeros((2, 2))), np.ones(2)), [0.0, 0.0])
    with pytest.raises(DataError):
        map_features(model, np.ones(3))


# ---------------------------------------------------------------------------
# distances and prediction
# ---------------------------------------------------------------------------


def test_distance_values():
    assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0
    a = np.array([1.0, 2.0])
    assert distance(a, a) == 0.0
    assert distance(np.zeros(2), np.zeros(2)) == 0.0
    with pytest.raises(DataError, match="shapes"):
        distance(np.zeros(2), np.zeros(3))


def test_l2_on_unit_norm_parts_ranks_labels_as_cosine_does():
    """Every encoding has norm sqrt(parts), so the L2-nearest label is the cosine-nearest one."""
    rng = np.random.default_rng(23)
    labels = [f"y{i:02d}" for i in range(15)]
    for _ in range(200):
        dims = rng.integers(1, 6, size=2)
        attributes = {lbl: rng.normal(size=dims[0]) for lbl in labels}
        vectors = WordVectors(int(dims[1]), {lbl: rng.normal(size=dims[1]) for lbl in labels})
        table = encode_labels(labels, [Component.ATTRIBUTE, Component.WORD],
                              attributes=attributes, word_vectors=vectors)
        gx = rng.normal(size=(table.dim, 8)) * rng.uniform(0.1, 10.0)
        rows = np.array([table.encodings[lbl] for lbl in labels])
        assert_allclose(np.linalg.norm(rows, axis=1), np.sqrt(2.0))
        cosine = (rows @ gx) / np.linalg.norm(rows, axis=1)[:, None] / np.linalg.norm(gx, axis=0)
        got = predict(gx, table, labels)
        assert got == [labels[i] for i in np.argmax(cosine, axis=0)]


def test_predict_picks_nearest_candidate():
    table = EncodingTable(
        (Component.EL_CENTER,),
        2,
        {"y1": np.array([0.0, 0.0]), "y2": np.array([1.0, 1.0])},
    )
    got = predict(np.array([[0.9, 0.0], [0.8, -0.1]]), table, ["y1", "y2"])
    assert got == ["y2", "y1"]


def test_predict_breaks_ties_lexicographically():
    table = EncodingTable(
        (Component.EL_CENTER,),
        1,
        {"b": np.array([1.0]), "a": np.array([-1.0]), "c": np.array([1.0])},
    )
    assert predict(np.array([[0.0]]), table, ["b", "a", "c"]) == ["a"]
    # between the two exactly tied candidates the smaller label wins, in either order
    assert predict(np.array([[1.0]]), table, ["b", "c"]) == ["b"]
    assert predict(np.array([[1.0]]), table, ["c", "b"]) == ["b"]


def test_predict_candidate_sets():
    table = EncodingTable(
        (Component.EL_CENTER,),
        1,
        {"seen": np.array([0.0]), "unseen": np.array([5.0])},
    )
    gx = np.array([[0.1]])
    unseen_only = CandidateSet.UNSEEN_ONLY.labels(["seen"], ["unseen"])
    assert unseen_only == ["unseen"] and predict(gx, table, unseen_only) == ["unseen"]
    every = CandidateSet.SEEN_AND_UNSEEN.labels(["seen"], ["unseen"])
    assert every == ["seen", "unseen"] and predict(gx, table, every) == ["seen"]


def test_predict_empty_candidates_or_missing_encoding():
    table = EncodingTable((Component.EL_CENTER,), 1, {"a": np.array([0.0])})
    with pytest.raises(DataError, match="empty candidate set"):
        predict(np.zeros((1, 1)), table, [])
    with pytest.raises(UnknownNameError, match="'ghost' has no encoding"):
        predict(np.zeros((1, 1)), table, ["ghost"])
    with pytest.raises(DataError):
        predict(np.zeros((2, 1)), table, ["a"])
    with pytest.raises(NumericalError):
        predict(np.full((1, 1), np.nan), table, ["a"])


def test_candidate_spread_gathers_the_candidates_as_predict_does():
    table = EncodingTable(
        (Component.EL_CENTER,), 1, {"a": np.array([0.0]), "b": np.array([3.0]), "c": np.array([4.0])}
    )
    assert candidate_spread(table, ["c", "a", "b"]) == candidate_spread(table, ["a", "b", "c"]) == (1.0, 3.0)
    with pytest.raises(DataError, match="empty candidate set"):
        candidate_spread(table, [])
    with pytest.raises(UnknownNameError, match="'ghost' has no encoding"):
        candidate_spread(table, ["a", "ghost"])


def test_predict_matches_brute_force_scan():
    rng = np.random.default_rng(11)
    labels = [f"y{i:02d}" for i in range(12)]
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        table = EncodingTable(
            (Component.EL_CENTER,),
            dim,
            {lbl: np.round(rng.normal(size=dim), 1) for lbl in labels},
        )
        unseen = [lbl for lbl in labels if rng.random() < 0.5] or [labels[0]]
        gx = np.round(rng.normal(size=dim), 1)
        got = predict(gx[:, None], table, unseen)[0]
        best = min(sorted(unseen), key=lambda lbl: (distance(table.encodings[lbl], gx), lbl))
        assert got == best


def test_batched_distances_equal_single_pairs_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 70))
        gx = rng.normal(size=(m, n))
        point = rng.normal(size=m)
        labels = [f"c{i}" for i in range(3)]
        table = EncodingTable((Component.EL_CENTER,), m, {lbl: rng.normal(size=m) for lbl in labels})
        batch = _row_distances(np.ascontiguousarray(gx.T), point)
        single = [distance(point, gx[:, j]) for j in range(n)]
        assert batch.tolist() == single
        got = predict(gx, table, labels)
        want = [
            min(labels, key=lambda lbl: (distance(table.encodings[lbl], gx[:, j]), lbl))
            for j in range(n)
        ]
        assert got == want


# ---------------------------------------------------------------------------
# model file
# ---------------------------------------------------------------------------


def assert_round_trips(model):
    back = load_model(lines(save_model(model), "model"))
    assert (back.kind, back.param) == (model.kind, model.param)
    assert np.array_equal(back.weights, model.weights)


def test_sae_model_file_round_trip():
    rng = np.random.default_rng(12)
    model = train_sae(rng.normal(size=(5, 8)), rng.normal(size=(3, 8)), 0.25)
    assert model.kind == "sae" and np.isfinite(model.train_loss)
    assert_round_trips(model)
    assert np.isnan(load_model(lines(save_model(model), "model")).train_loss)  # the file holds no loss


def test_ridge_model_file_round_trip():
    rng = np.random.default_rng(13)
    assert_round_trips(train_ridge(rng.normal(size=(4, 8)), rng.normal(size=(2, 8)), 0.01))
    assert_round_trips(LinearMap("ridge", 1e-300, rng.normal(size=(2, 4)) * 1e300))


def test_model_file_errors():
    with pytest.raises(DataError, match="model line 1: unknown model kind 'mystery'"):
        load_model(lines("#kind\tmystery\t0.5\n#shape\t2\t2\n1,0\n0,1\n", "model"))
    with pytest.raises(DataError):
        load_model(lines("#kind\tsae\t0.5\n#shape\t2\t2\n1,0\n", "model"))  # row count mismatch


def test_model_file_parameter_is_range_checked_like_the_config():
    for kind, named in [("ridge\t0", "ridge_alpha"), ("ridge\t-1", "ridge_alpha"), ("sae\t-1", "sae_lambda")]:
        with pytest.raises(DataError, match=f"^model line 1: mapper config out of range: {named}$"):
            load_model(lines(f"#kind\t{kind}\n#shape\t1\t1\n1\n", "model"))
    # the smallest value each config accepts loads
    assert load_model(lines("#kind\tsae\t0\n#shape\t1\t1\n1\n", "model")).param == 0.0
    assert load_model(lines("#kind\tridge\t5e-324\n#shape\t1\t1\n1\n", "model")).param == 5e-324
