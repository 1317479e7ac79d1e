"""Ball-embedding losses, analytic gradients, and SGD training."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ontozsl import elembed
from ontozsl.elembed import (
    Ball,
    ElTrainConfig,
    EmbeddingSpace,
    axiom_loss,
    export_space,
    import_space,
    initialize_space,
    total_loss,
    train_el,
)
from ontozsl.errors import DataError, NumericalError, UnknownNameError
from ontozsl.normalform import BOTTOM, NF1, NF2, NF3, NF4, Disjointness, NormalizedOntology, RSub


def space2d(**concepts):
    balls = {k: Ball(np.asarray(c, dtype=float), r) for k, (c, r) in concepts.items()}
    return EmbeddingSpace(2, balls, {})


# ---------------------------------------------------------------------------
# hand-computed loss values
# ---------------------------------------------------------------------------


def test_nf1_value_outside():
    s = space2d(A=((1, 0), 0.1), B=((0, 1), 0.2))
    assert_allclose(axiom_loss(s, NF1("A", "B"), 0.05), np.sqrt(2) - 0.15, atol=1e-9)


def test_nf1_value_with_norm_penalties():
    s = space2d(A=((2, 0), 0.0), B=((0, 0), 0.0))
    # hinge 2 + |2-1| + |0-1| = 4; the zero center contributes a flat penalty
    assert_allclose(axiom_loss(s, NF1("A", "B"), 0.0), 4.0, atol=1e-9)


def test_nf1_zero_inside_with_unit_centers():
    s = space2d(A=((1, 0), 0.05), B=((1, 0), 0.2))
    assert axiom_loss(s, NF1("A", "B"), 0.0) == 0.0


def exact_unit_vector(rng, dim=3):
    # renormalized doubles recompute to norm 1.0 most of the time; retry until
    # they do so the zero set can be checked with exact equality
    while True:
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if np.linalg.norm(v) == 1.0:
            return v


def test_nf1_zero_set_property():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 300:
        ca = exact_unit_vector(rng)
        cb = exact_unit_vector(rng)
        ra, rb = rng.uniform(0, 0.5, size=2)
        margin = rng.uniform(0, 0.3)
        slack = np.linalg.norm(ca - cb) + ra - rb - margin
        if abs(slack) < 1e-9:  # skip the hinge knife-edge
            continue
        s = EmbeddingSpace(3, {"A": Ball(ca, ra), "B": Ball(cb, rb)}, {})
        assert (axiom_loss(s, NF1("A", "B"), margin) == 0.0) == (slack < 0)
        checked += 1


def test_nf2_value():
    s = space2d(A=((0, 1), 0.2), B=((1, 0), 0.1))
    s.relations["r"] = np.array([1.0, 0.0])
    assert_allclose(axiom_loss(s, NF2("A", "r", "B"), 0.05), 1.05, atol=1e-9)


def test_nf2_with_zero_relation_equals_nf1():
    rng = np.random.default_rng(4)
    for _ in range(100):
        s = EmbeddingSpace(
            3,
            {
                "A": Ball(rng.normal(size=3), float(rng.uniform(0, 0.5))),
                "B": Ball(rng.normal(size=3), float(rng.uniform(0, 0.5))),
            },
            {"r": np.zeros(3)},
        )
        margin = float(rng.uniform(0, 0.2))
        assert axiom_loss(s, NF2("A", "r", "B"), margin) == axiom_loss(s, NF1("A", "B"), margin)


def test_nf3_penalty_only():
    s = space2d(A=((1, 0), 0.0), B=((0, 0), 0.0))
    s.relations["r"] = np.array([1.0, 0.0])
    # back-translated center lands on B's center, so only B's norm penalty bites
    assert_allclose(axiom_loss(s, NF3("r", "A", "B"), 0.0), 1.0, atol=1e-9)


def test_nf3_value():
    s = space2d(A=((1, 0), 0.25), B=((-1, 0), 0.25))
    s.relations["r"] = np.array([0.0, 0.0])
    assert_allclose(axiom_loss(s, NF3("r", "A", "B"), 0.1), 1.4, atol=1e-9)


def test_nf4_value():
    s = space2d(A=((1, 0), 0.5), B=((-1, 0), 0.5), C=((0, 1), 0.5))
    assert_allclose(axiom_loss(s, NF4("A", "B", "C"), 0.0), 1.0 + 2 * (np.sqrt(2) - 0.5), atol=1e-9)


def test_disjoint_value_and_symmetry():
    s = space2d(A=((1, 0), 0.5), B=((1, 0), 0.5))
    assert_allclose(axiom_loss(s, Disjointness("A", "B"), 0.0), 1.0, atol=1e-9)
    assert axiom_loss(s, Disjointness("A", "B"), 0.0) == axiom_loss(s, Disjointness("B", "A"), 0.0)


def test_role_value_and_symmetry():
    s = EmbeddingSpace(2, {}, {"r": np.array([3.0, 4.0]), "t": np.zeros(2)})
    assert axiom_loss(s, RSub("r", "t"), 0.0) == 5.0
    assert axiom_loss(s, RSub("t", "r"), 0.0) == 5.0
    assert axiom_loss(s, RSub("r", "r"), 0.0) == 0.0


def test_nf2_negative_value():
    s = space2d(A=((0, 1), 0.1), B=((1, 0), 0.1))
    s.relations["r"] = np.array([1.0, -1.0])  # lands exactly on B's center
    assert_allclose(axiom_loss(s, NF2("A", "r", "B"), 0.1, negative=True), 0.3, atol=1e-9)


def test_losses_are_nonnegative_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = EmbeddingSpace(
            3,
            {
                n: Ball(rng.normal(size=3), float(rng.uniform(0, 0.6)))
                for n in ("A", "B", "C")
            },
            {"r": rng.normal(size=3), "t": rng.normal(size=3)},
        )
        m = float(rng.uniform(0, 0.3))
        for value in (
            axiom_loss(s, NF1("A", "B"), m),
            axiom_loss(s, NF2("A", "r", "B"), m),
            axiom_loss(s, NF3("r", "A", "B"), m),
            axiom_loss(s, NF4("A", "B", "C"), m),
            axiom_loss(s, Disjointness("A", "B"), m),
            axiom_loss(s, RSub("r", "t"), 0.0),
            axiom_loss(s, NF2("A", "r", "B"), m, negative=True),
        ):
            assert value >= 0.0


def test_unknown_names_raise():
    s = space2d(A=((1, 0), 0.1))
    with pytest.raises(UnknownNameError):
        axiom_loss(s, NF1("A", "Nope"), 0.1)
    with pytest.raises(UnknownNameError):
        axiom_loss(s, RSub("r", "t"), 0.0)


def test_only_nf2_axioms_have_a_negative_term():
    s = space2d(A=((1, 0), 0.1), B=((0, 1), 0.2))
    for ax in (NF1("A", "B"), Disjointness("A", "B"), NF4("A", "B", "A")):
        with pytest.raises(DataError, match="NF2"):
            axiom_loss(s, ax, 0.1, negative=True)


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

DIM = 4
CONCEPTS = ("A", "B", "C")
RELATIONS = ("r", "t")


def pack(space):
    parts = []
    for n in CONCEPTS:
        parts.append(space.concepts[n].center)
        parts.append([space.concepts[n].radius])
    for n in RELATIONS:
        parts.append(space.relations[n])
    return np.concatenate(parts)


def unpack(vec):
    concepts = {}
    pos = 0
    for n in CONCEPTS:
        center = vec[pos : pos + DIM].copy()
        radius = float(vec[pos + DIM])
        concepts[n] = Ball(center, radius)
        pos += DIM + 1
    relations = {}
    for n in RELATIONS:
        relations[n] = vec[pos : pos + DIM].copy()
        pos += DIM
    return EmbeddingSpace(DIM, concepts, relations)


def grads_to_vector(grads):
    vec = np.zeros(len(CONCEPTS) * (DIM + 1) + len(RELATIONS) * DIM)
    pos = 0
    for n in CONCEPTS:
        if ("c", n) in grads:
            vec[pos : pos + DIM] = grads[("c", n)]
        if ("r", n) in grads:
            vec[pos + DIM] = grads[("r", n)]
        pos += DIM + 1
    for n in RELATIONS:
        if ("v", n) in grads:
            vec[pos : pos + DIM] = grads[("v", n)]
        pos += DIM
    return vec


def random_space(rng):
    concepts = {
        n: Ball(rng.normal(size=DIM) * rng.uniform(0.4, 1.8), float(rng.uniform(0.05, 0.6)))
        for n in CONCEPTS
    }
    relations = {n: rng.normal(size=DIM) * 0.5 for n in RELATIONS}
    return EmbeddingSpace(DIM, concepts, relations)


def kink_gaps(space, kind, margin):
    """Distances to the nearest non-smooth point; all must clear 1e-3."""
    c = {n: space.concepts[n].center for n in CONCEPTS}
    r = {n: space.concepts[n].radius for n in CONCEPTS}
    v = space.relations
    norm = np.linalg.norm
    gaps = []
    for n in CONCEPTS:
        gaps += [abs(norm(c[n]) - 1.0), norm(c[n])]
    if kind == "nf1":
        d = norm(c["A"] - c["B"])
        gaps += [d, abs(d + r["A"] - r["B"] - margin)]
    elif kind == "nf2":
        d = norm(c["A"] + v["r"] - c["B"])
        gaps += [d, abs(d + r["A"] - r["B"] - margin)]
    elif kind == "nf3":
        d = norm(c["A"] - v["r"] - c["B"])
        gaps += [d, abs(d - r["A"] - r["B"] - margin)]
    elif kind == "nf4":
        dab = norm(c["A"] - c["B"])
        dac = norm(c["A"] - c["C"])
        dbc = norm(c["B"] - c["C"])
        gaps += [dab, dac, dbc]
        gaps += [
            abs(dab - r["A"] - r["B"] - margin),
            abs(dac - r["C"] - margin),
            abs(dbc - r["C"] - margin),
        ]
    elif kind == "disjoint":
        d = norm(c["A"] - c["B"])
        gaps += [d, abs(r["A"] + r["B"] - d + margin)]
    elif kind == "role":
        gaps = [norm(v["r"] - v["t"])]
    elif kind == "nf2neg":
        d = norm(c["A"] + v["r"] - c["B"])
        gaps += [d, abs(r["A"] + r["B"] + margin - d)]
    return gaps


# Each kind's axiom over the names of random_space, and whether it is scored as a negative.
LOSS_TABLE = {
    "nf1": (NF1("A", "B"), False),
    "nf2": (NF2("A", "r", "B"), False),
    "nf3": (NF3("r", "A", "B"), False),
    "nf4": (NF4("A", "B", "C"), False),
    "disjoint": (Disjointness("A", "B"), False),
    "role": (RSub("r", "t"), False),
    "nf2neg": (NF2("A", "r", "B"), True),
}


def check_gradients(kind, points, seed, step=1e-5, rel_tol=1e-4):
    axiom, negative = LOSS_TABLE[kind]
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < points:
        space = random_space(rng)
        margin = float(rng.uniform(0.0, 0.3))
        if min(kink_gaps(space, kind, margin)) <= 1e-3:
            continue
        value, grads = axiom_loss(space, axiom, margin, negative=negative, grad=True)
        assert value == axiom_loss(space, axiom, margin, negative=negative)
        base = pack(space)
        fd = np.zeros_like(base)
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] += step
            hi = axiom_loss(unpack(bumped), axiom, margin, negative=negative)
            bumped[i] -= 2 * step
            lo = axiom_loss(unpack(bumped), axiom, margin, negative=negative)
            fd[i] = (hi - lo) / (2 * step)
        analytic = grads_to_vector(grads)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err < rel_tol, f"{kind}: relative gradient error {err:.2e}"
        checked += 1


@pytest.mark.parametrize("kind", sorted(LOSS_TABLE))
def test_gradients_match_finite_differences(kind):
    check_gradients(kind, points=25, seed=hash(kind) % 2**32)


BATCH_CONCEPTS = ("A", "B", "C", "D", BOTTOM)


def random_batch(rng):
    """Every axiom kind plus NF2 negatives, drawn from few names so operands repeat."""
    c = [str(name) for name in rng.choice(BATCH_CONCEPTS[:4], size=16)]
    r = [str(name) for name in rng.choice(RELATIONS, size=2)]
    axioms = [
        NF1(c[0], c[1]),
        NF2(c[2], r[0], c[3]),
        NF3(r[1], c[4], c[5]),
        NF4(c[6], c[7], c[8]),
        NF4(c[9], c[10], BOTTOM),
        Disjointness(c[11], c[0]),
        RSub("r", "t"),
    ]
    axioms += [axioms[int(i)] for i in rng.integers(len(axioms), size=5)]
    nf2 = [ax for ax in axioms if isinstance(ax, NF2)]
    negatives = [NF2(ax.sub, ax.relation, c[12 + i % 4]) for i, ax in enumerate(nf2)]
    return axioms, negatives


def test_batch_kernel_matches_finite_differences_and_single_axiom_sum():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        space = EmbeddingSpace(
            DIM,
            {
                n: Ball(rng.normal(size=DIM) * rng.uniform(0.4, 1.8), float(rng.uniform(0.05, 0.6)))
                for n in BATCH_CONCEPTS
            },
            {n: rng.normal(size=DIM) * 0.5 for n in RELATIONS},
        )
        margin = float(rng.uniform(0.0, 0.3))
        axioms, negatives = random_batch(rng)
        keys, params, radii = elembed._pack(space)
        terms, nf2 = elembed._compile(axioms, keys, margin)
        fakes = np.array([keys.index(("c", neg.filler)) for neg in negatives])
        j = nf2[: len(negatives)]
        corrupted = elembed._corrupt(terms, j, fakes, margin)
        terms = elembed._Terms(*(np.concatenate(pair) for pair in zip(terms, corrupted)))

        # stay clear of every kink: zero distances, hinge edges, unit and zero norms
        a, b, rel, _ = terms.rows.T
        sv, sd, sa, sb, bias = terms.coef[:, :5].T
        dist = np.linalg.norm(params[a] + sv[:, None] * params[rel] - params[b], axis=1)
        norms = np.linalg.norm(params[: len(BATCH_CONCEPTS)], axis=1)
        raw = sd * dist + sa * radii[a] + sb * radii[b] + bias
        gaps = np.concatenate([dist, np.abs(raw), norms, np.abs(norms - 1)])
        if gaps.min() <= 1e-3:
            continue

        loss, g_params, g_radii = elembed._loss_grad(params, radii, terms)
        step = 1e-5
        for values, grad in ((params, g_params), (radii, g_radii)):
            fd = np.zeros_like(values)
            for i in np.ndindex(values.shape):
                keep = values[i]
                values[i] = keep + step
                hi = elembed._loss_grad(params, radii, terms, grad=False)[0]
                values[i] = keep - step
                lo = elembed._loss_grad(params, radii, terms, grad=False)[0]
                values[i] = keep
                fd[i] = (hi - lo) / (2 * step)
            if values is radii:  # relation rows carry no radius
                fd[len(BATCH_CONCEPTS) :] = 0.0
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4

        summed_params, summed_radii, summed_loss = np.zeros_like(params), np.zeros_like(radii), 0.0
        for term, negative in [(ax, False) for ax in axioms] + [(ax, True) for ax in negatives]:
            value, grads = axiom_loss(space, term, margin, negative=negative, grad=True)
            summed_loss += value
            for (kind, name), g in grads.items():
                row = keys.index(("v" if kind == "v" else "c", name))
                if kind == "r":
                    summed_radii[row] += g
                else:
                    summed_params[row] += g
        assert_allclose(g_params, summed_params, rtol=0, atol=1e-12)
        assert_allclose(g_radii, summed_radii, rtol=0, atol=1e-12)
        assert_allclose(loss, summed_loss, rtol=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

CHAIN = NormalizedOntology(
    axioms=(NF1("A", "B"), NF1("B", "C")),
    fresh_names=(),
    concept_names=frozenset({"A", "B", "C"}),
)


def test_config_rejects_nonsense():
    with pytest.raises(DataError):
        ElTrainConfig(dim=0)
    with pytest.raises(DataError):
        ElTrainConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        ElTrainConfig(margin=-0.1)
    with pytest.raises(DataError):
        ElTrainConfig(min_radius=0.0)
    for name in ("margin", "learning_rate", "min_radius"):
        with pytest.raises(DataError, match=name):
            ElTrainConfig(**{name: float("nan")})


def test_initialize_space_is_seeded_and_well_formed():
    cfg = ElTrainConfig(dim=7, seed=42)
    s = initialize_space(CHAIN, cfg)
    assert s == initialize_space(CHAIN, cfg)
    assert set(s.concepts) == {"A", "B", "C", "Top", "Bottom"}
    for ball in s.concepts.values():
        assert_allclose(np.linalg.norm(ball.center), 1.0, atol=1e-12)
        assert ball.radius == 0.1
    assert s != initialize_space(CHAIN, ElTrainConfig(dim=7, seed=43))


def test_initialize_space_pins_nominal_radius():
    n = NormalizedOntology(
        axioms=(NF1("IND_a", "A"),),
        fresh_names=(),
        nominal_map={"a": "IND_a"},
        concept_names=frozenset({"A", "IND_a"}),
    )
    cfg = ElTrainConfig(dim=4, min_radius=1e-3)
    s = initialize_space(n, cfg)
    assert s.concepts["IND_a"].radius == cfg.min_radius
    trained = train_el(n, ElTrainConfig(dim=4, epochs=50, min_radius=1e-3))
    assert trained.concepts["IND_a"].radius == cfg.min_radius


def test_relation_vectors_initialized_small():
    n = NormalizedOntology(
        axioms=(NF2("A", "r", "B"),),
        fresh_names=(),
        concept_names=frozenset({"A", "B"}),
        relation_names=frozenset({"r"}),
    )
    s = initialize_space(n, ElTrainConfig(dim=50))
    assert np.all(np.abs(s.relations["r"]) <= 0.1)


def test_total_loss_empty_is_zero():
    n = NormalizedOntology(axioms=(), fresh_names=(), concept_names=frozenset({"A"}))
    s = initialize_space(n, ElTrainConfig(dim=3))
    assert total_loss(s, n, ElTrainConfig(dim=3)) == 0.0


def test_total_loss_single_nf1_matches_direct_call():
    cfg = ElTrainConfig(dim=3, margin=0.07)
    n = NormalizedOntology(axioms=(NF1("A", "B"),), fresh_names=(), concept_names=frozenset({"A", "B"}))
    s = initialize_space(n, cfg)
    assert total_loss(s, n, cfg) == axiom_loss(s, NF1("A", "B"), cfg.margin)


def test_total_loss_sums_mixed_axioms():
    cfg = ElTrainConfig(dim=3, margin=0.1)
    n = NormalizedOntology(
        axioms=(NF1("A", "B"), Disjointness("A", "C")),
        fresh_names=(),
        concept_names=frozenset({"A", "B", "C"}),
    )
    s = initialize_space(n, cfg)
    expected = axiom_loss(s, NF1("A", "B"), cfg.margin) + axiom_loss(
        s, Disjointness("A", "C"), cfg.margin
    )
    assert_allclose(total_loss(s, n, cfg), expected, rtol=1e-15)


def test_total_loss_is_repeatable_despite_sampling():
    cfg = ElTrainConfig(dim=4, negatives=3)
    n = NormalizedOntology(
        axioms=(NF2("A", "r", "B"),),
        fresh_names=(),
        concept_names=frozenset({"A", "B", "C", "D"}),
        relation_names=frozenset({"r"}),
    )
    s = initialize_space(n, cfg)
    assert total_loss(s, n, cfg) == total_loss(s, n, cfg)


def test_train_is_deterministic():
    cfg = ElTrainConfig(dim=5, epochs=50, seed=9)
    assert train_el(CHAIN, cfg) == train_el(CHAIN, cfg)


def test_train_zero_epochs_returns_initialization():
    cfg = ElTrainConfig(dim=5, epochs=0, seed=1)
    assert train_el(CHAIN, cfg) == initialize_space(CHAIN, cfg)


def test_train_chain_converges_and_nests_balls():
    cfg = ElTrainConfig(dim=5, learning_rate=0.002, epochs=2000, seed=0)
    s = train_el(CHAIN, cfg)
    assert total_loss(s, CHAIN, cfg) < 0.01
    for sub, sup in (("A", "B"), ("B", "C")):
        gap = (
            np.linalg.norm(s.concepts[sub].center - s.concepts[sup].center)
            + s.concepts[sub].radius
            - s.concepts[sup].radius
        )
        assert gap <= cfg.margin + 0.05


def test_train_separates_disjoint_balls():
    n = NormalizedOntology(
        axioms=(Disjointness("A", "B"),), fresh_names=(), concept_names=frozenset({"A", "B"})
    )
    cfg = ElTrainConfig(dim=5, learning_rate=0.002, epochs=2000, seed=0)
    s = train_el(n, cfg)
    dist = np.linalg.norm(s.concepts["A"].center - s.concepts["B"].center)
    assert dist >= s.concepts["A"].radius + s.concepts["B"].radius - 1e-6


def test_train_radii_never_below_min_radius_even_for_untouched_concepts():
    n = NormalizedOntology(
        axioms=(NF1("A", "B"),), fresh_names=(), concept_names=frozenset({"A", "B", "Lonely"})
    )
    for epochs in (0, 20):
        cfg = ElTrainConfig(dim=4, epochs=epochs, min_radius=0.5)
        s = train_el(n, cfg)
        assert {name: ball.radius >= 0.5 for name, ball in s.concepts.items()} == dict.fromkeys(
            ("A", "B", "Lonely", "Top", "Bottom"), True
        )


def test_train_divergence_names_the_parameter_and_step():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as err:
        train_el(CHAIN, ElTrainConfig(dim=5, learning_rate=1e308))
    assert re.fullmatch(
        r"(center of|radius of|relation) '(A|B|C|Top|Bottom)' diverged at step [1-9][0-9]*",
        str(err.value),
    )


def test_train_keeps_radii_clamped():
    cfg = ElTrainConfig(dim=4, epochs=200, min_radius=1e-3)
    s = train_el(CHAIN, cfg)
    assert all(ball.radius >= cfg.min_radius for ball in s.concepts.values())


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_export_import_round_trip_is_exact():
    cfg = ElTrainConfig(dim=5, epochs=100, seed=2)
    n = NormalizedOntology(
        axioms=(NF2("A", "r", "B"),),
        fresh_names=(),
        concept_names=frozenset({"A", "B"}),
        relation_names=frozenset({"r"}),
    )
    s = train_el(n, cfg)
    back = import_space(export_space(s))
    assert back == s
    assert total_loss(back, n, cfg) == total_loss(s, n, cfg)


def test_export_starts_with_dimension_header():
    s = space2d(A=((0.5, -0.25), 0.125))
    text = export_space(s)
    assert text.splitlines()[0] == "#dim\t2"
    assert "C\tA\t0.5,-0.25\t0.125" in text


def test_import_rejects_malformed_rows():
    with pytest.raises(DataError):
        import_space("C\tA\t1,2\t0.1\n")  # missing header
    with pytest.raises(DataError) as err:
        import_space("#dim\t2\nC\tA\t1,2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(DataError):
        import_space("#dim\t2\nC\tA\t1,2,3\t0.1\n")
    with pytest.raises(DataError):
        import_space("#dim\t2\nX\tA\t1,2\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("#dim\tfoo\n", 1),
        ("#dim\t0\n", 1),
        ("#dim\t2\nC\tA\t1,2\tx\n", 2),
        ("#dim\t2\nC\tA\t1,2\t0.1\nC\tB\tnan,2\t0.1\n", 3),
        ("#dim\t2\nC\tA\t1,2\tinf\n", 2),
        ("#dim\t2\nR\tr\t1,q\n", 2),
        ("#dim\t2\nC\tA\t1,2\t0.1\n#dim\t3\nC\tB\t1,2,3\t0.1\n", 3),
        ("#dim\t2\n#dim\t2\n", 2),
        ("#dim\t2\nC\tA\t1,2\t0.1\nC\tA\t3,4\t0.2\n", 3),
        ("#dim\t2\nR\tr\t1,2\nC\tr\t1,2\t0.1\nR\tr\t3,4\n", 4),
    ],
    ids=["dim-not-a-number", "dim-zero", "radius-not-a-number", "nan-center", "inf-radius",
         "bad-relation", "second-dim", "same-dim-twice", "repeated-concept", "repeated-relation"],
)
def test_import_rejects_non_numbers_with_line_number(text, line):
    with pytest.raises(DataError, match=f"line {line}"):
        import_space(text)
