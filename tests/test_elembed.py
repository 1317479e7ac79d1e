"""Ball-embedding losses, analytic gradients, Adam training and faithfulness."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ontozsl import elembed, errors
from ontozsl.elembed import (
    Ball,
    ElTrainConfig,
    EmbeddingSpace,
    axiom_loss,
    export_space,
    faithfulness,
    import_space,
    total_loss,
    train_el,
)
from ontozsl.errors import DataError, NumericalError, UnknownNameError
from ontozsl.harness import gen_synthetic
from ontozsl.normalform import BOTTOM, NF1, NF2, NF3, NF4, Disjointness, NormalizedOntology, RSub, normalize


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
    check_gradients(kind, points=25, seed=700 + sorted(LOSS_TABLE).index(kind))


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


def split(theta, rows):
    """The parameter rows and radii of a parameter vector over ``rows`` rows."""
    return theta[: rows * DIM].reshape(rows, DIM), theta[rows * DIM :]


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
        keys, theta = elembed._pack(space)
        params, radii = split(theta, len(keys))
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

        loss, grad = elembed._loss(theta, DIM, terms, grad=True)
        step = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            keep = theta[i]
            theta[i] = keep + step
            hi = elembed._loss(theta, DIM, terms, grad=False)[0]
            theta[i] = keep - step
            lo = elembed._loss(theta, DIM, terms, grad=False)[0]
            theta[i] = keep
            fd[i] = (hi - lo) / (2 * step)
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
        g_params, g_radii = split(grad, len(keys))
        assert_allclose(g_params, summed_params, rtol=0, atol=1e-12)
        assert_allclose(g_radii, summed_radii, rtol=0, atol=1e-12)
        assert_allclose(loss, summed_loss, rtol=1e-12)
        checked += 1


def reference_loss_grad(params, radii, terms, grad=True):
    """The per-term kernel the batched one replaced, kept as its oracle.

    One operand slot at a time: each hinge gathers rows a, b and t, and each
    slot pays its own norm penalty.  Gradients of repeated rows accumulate.
    Subgradients at kinks: a zero distance gives a zero direction, a zero
    center no penalty gradient.
    """
    a, b, rel, _ = terms.rows.T
    sv, sd, sa, sb, bias = terms.coef[:, :5].T
    ends = params[terms.rows[:, :2]]
    diff = ends[:, 0] + sv[:, None] * params[rel] - ends[:, 1]
    dist = np.sqrt(np.vecdot(diff, diff))
    raw = sd * dist + (sa * radii[a] + sb * radii[b]) + bias
    norms = np.sqrt(np.vecdot(ends, ends))
    penalty = terms.coef[:, 5:]
    loss = float(np.maximum(raw, 0.0).sum() + (penalty * np.abs(norms - 1.0)).sum())
    if not grad:
        return loss, None, None
    active = raw > 0.0
    step = diff * np.divide(sd, dist, out=np.zeros_like(dist), where=active & (dist > 0.0))[:, None]
    pull = penalty * np.sign(norms - 1.0)
    pull = np.divide(pull, norms, out=np.zeros_like(norms), where=norms > 0.0)
    ends *= pull[:, :, None]
    weights = np.stack([ends[:, 0] + step, ends[:, 1] - step, sv[:, None] * step], axis=1)
    dim = params.shape[1]
    flat = terms.rows[:, :3, None] * dim + np.arange(dim)
    g_params = np.bincount(flat.ravel(), weights.ravel(), minlength=params.size)
    radius_signs = terms.coef[:, 2:4] * active[:, None]
    g_radii = np.bincount(terms.rows[:, :2].ravel(), radius_signs.ravel(), minlength=radii.size)
    return loss, g_params.reshape(params.shape), g_radii


# C and D share a center, Z sits at the origin and relation z is zero, so exact
# zero distances and zero centers come up; the test counts them.  Five names
# and two relations for up to eleven axioms repeat rows within a batch.
ORACLE_CONCEPTS = ("A", "B", "C", "D", "Z")
ORACLE_KINDS = {
    "relation-free": ("nf1", "nf4", "nf4-bottom", "disjoint", "role"),
    "relation": ("nf2", "nf3"),
    "mixed": ("nf1", "nf2", "nf3", "nf4", "nf4-bottom", "disjoint", "role"),
}


def oracle_space(rng):
    centers = {n: rng.normal(size=DIM) * rng.uniform(0.4, 1.8) for n in "ABC"}
    centers |= {"D": centers["C"].copy(), "Z": np.zeros(DIM)}
    concepts = {n: Ball(c, float(rng.uniform(0.05, 0.6))) for n, c in centers.items()}
    return EmbeddingSpace(DIM, concepts, {"r": rng.normal(size=DIM) * 0.5, "z": np.zeros(DIM)})


def oracle_axiom(kind, rng):
    a, b, c = (str(name) for name in rng.choice(ORACLE_CONCEPTS, size=3))
    r, t = (str(name) for name in rng.choice(("r", "z"), size=2))
    return {
        "nf1": NF1(a, b), "nf2": NF2(a, r, b), "nf3": NF3(r, a, b), "nf4": NF4(a, b, c),
        "nf4-bottom": NF4(a, b, BOTTOM), "disjoint": Disjointness(a, b), "role": RSub(r, t),
    }[kind]


@pytest.mark.parametrize("kinds", sorted(ORACLE_KINDS))
def test_kernel_matches_the_per_term_oracle_batch_by_batch(kinds):
    rng = np.random.default_rng(900 + sorted(ORACLE_KINDS).index(kinds))
    zero_distances = zero_centers = 0
    for _ in range(40):
        space = oracle_space(rng)
        margin = float(rng.uniform(0.0, 0.3))
        axioms = [oracle_axiom(str(rng.choice(ORACLE_KINDS[kinds])), rng) for _ in range(rng.integers(1, 12))]
        keys, theta = elembed._pack(space)
        params, radii = split(theta, len(keys))
        terms, nf2 = elembed._compile(axioms, keys, margin)
        copies = int(rng.integers(3))
        terms = elembed._with_negatives(terms, nf2, copies, margin)
        if copies and nf2.size:
            elembed._draw_fillers(terms, nf2, rng.permutation(nf2.size), copies, len(space.concepts), rng)
        n_batches = 3
        batch = rng.integers(n_batches, size=len(axioms))[terms.rows[:, 3]]
        batches = elembed._batches(terms, batch, n_batches)
        kernel = elembed._Kernel(theta, DIM, len(batch), len(batch))
        for k in range(n_batches):
            part = elembed._Terms(terms.rows[batch == k], terms.coef[batch == k])
            want, want_params, want_radii = reference_loss_grad(params, radii, part)
            loss, grad = kernel(batches, k)
            assert_allclose(loss, want, rtol=1e-12, atol=0)
            assert kernel(batches, k, grad=False) == (loss, None)
            assert_allclose(grad, np.concatenate((want_params.ravel(), want_radii)), rtol=0, atol=1e-12)
            a, b, rel, _ = part.rows.T
            diff = params[a] + part.coef[:, :1] * params[rel] - params[b]
            zero_distances += int((~diff.any(axis=1)).sum())
            zero_centers += int(np.isin(part.rows[:, :2], keys.index(("c", "Z"))).sum())
    assert zero_distances > 0 and zero_centers > 0


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
        for value in (float("nan"), float("inf")):
            with pytest.raises(DataError, match=name):
                ElTrainConfig(**{name: value})


def test_initialize_space_is_seeded_and_well_formed():
    cfg = ElTrainConfig(dim=7, seed=42, epochs=0)
    s = train_el(CHAIN, cfg)
    assert s == train_el(CHAIN, cfg)
    assert set(s.concepts) == {"A", "B", "C", "Top", "Bottom"}
    for ball in s.concepts.values():
        assert_allclose(np.linalg.norm(ball.center), 1.0, atol=1e-12)
        assert ball.radius == 0.1
    assert s != train_el(CHAIN, ElTrainConfig(dim=7, seed=43, epochs=0))


def test_initialize_draws_each_center_and_relation_as_one_name_at_a_time_would():
    n = normalize(gen_synthetic(4, 2, 1, seed=0).ontology)
    for seed in range(5):
        cfg = ElTrainConfig(dim=9, seed=seed, epochs=0)
        rng = np.random.default_rng(seed)
        centers = {}
        for name in sorted(set(n.concept_names) | {"Top", "Bottom"}):
            center = rng.normal(size=cfg.dim)
            centers[name] = center / np.linalg.norm(center)
        relations = {name: rng.uniform(-0.1, 0.1, size=cfg.dim) for name in sorted(n.relation_names)}
        s = train_el(n, cfg)
        assert s.concepts.keys() == centers.keys() and s.relations.keys() == relations.keys()
        for name, center in centers.items():
            assert np.array_equal(s.concepts[name].center, center), (seed, name)
        for name, vector in relations.items():
            assert np.array_equal(s.relations[name], vector), (seed, name)


def test_spaces_compare_by_dim_names_and_values_but_not_losses_or_misshapen_vectors():
    s = train_el(CHAIN, ElTrainConfig(dim=3, epochs=2))
    assert s == replace(s, train_losses=())
    assert s != replace(s, dim=4)
    assert s != replace(s, concepts={**s.concepts, "D": Ball(np.zeros(3), 0.1)})
    assert s != replace(s, concepts={**s.concepts, "A": Ball(s.concepts["A"].center, 0.5)})
    assert s != replace(s, relations={"r": np.zeros(3)})
    assert EmbeddingSpace(2, {}, {}) != EmbeddingSpace(3, {}, {})
    # a space whose vectors are not dim long, also one whose numbers would fill the table
    good = space2d(A=((1, 0), 0.1), B=((0, 1), 0.2))
    for a, b in (((1, 0), (1, 0, 0)), ((1, 0), (1,)), ((1, 0), ((1, 0),)), ((1, 0, 0), (1,))):
        bad = space2d(A=(a, 0.1), B=(b, 0.2))
        assert good != bad and bad != good


def test_an_el_batch_over_the_axiom_count_trains_as_the_axiom_count():
    n = normalize(gen_synthetic(4, 2, 1, seed=0).ontology)
    cfg = ElTrainConfig(dim=4, epochs=3)
    whole = train_el(n, replace(cfg, batch_size=len(n.axioms)))
    for batch in (len(n.axioms) + 1, 10**20):
        s = train_el(n, replace(cfg, batch_size=batch))
        assert export_space(s) == export_space(whole) and s.train_losses == whole.train_losses


def test_el_negatives_whose_copies_pass_the_size_limit_are_refused_before_allocating(monkeypatch):
    loop = NormalizedOntology(
        axioms=(NF2("A", "r", "B"), NF2("B", "r", "A")), fresh_names=(),
        concept_names=frozenset({"A", "B"}), relation_names=frozenset({"r"}),
    )
    space = train_el(loop, ElTrainConfig(dim=2, epochs=0))
    message = "^el_negatives = {0} needs a {1} x 11 negative term table of {2} bytes, over the limit of {3}$"
    huge = ElTrainConfig(dim=2, negatives=10**20)
    for run in (lambda: train_el(loop, huge), lambda: total_loss(space, loop, huge)):
        with pytest.raises(DataError, match=message.format(10**20, 2 * 10**20, 176 * 10**20, 1 << 30)):
            run()
    # two NF2 axioms with 3 copies each: 6 rows of 11 numbers
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 6 * 11 * 8)
    train_el(loop, ElTrainConfig(dim=2, epochs=1, negatives=3))
    with pytest.raises(DataError, match=message.format(4, 8, 704, 528)):
        train_el(loop, ElTrainConfig(dim=2, epochs=1, negatives=4))


def test_initialize_space_pins_nominal_radius():
    n = NormalizedOntology(
        axioms=(NF1("IND_a", "A"),),
        fresh_names=(),
        nominal_map={"a": "IND_a"},
        concept_names=frozenset({"A", "IND_a"}),
    )
    cfg = ElTrainConfig(dim=4, min_radius=1e-3)
    s = train_el(n, replace(cfg, epochs=0))
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
    s = train_el(n, ElTrainConfig(dim=50, epochs=0))
    assert np.all(np.abs(s.relations["r"]) <= 0.1)


def test_total_loss_empty_is_zero():
    n = NormalizedOntology(axioms=(), fresh_names=(), concept_names=frozenset({"A"}))
    s = train_el(n, ElTrainConfig(dim=3, epochs=0))
    assert total_loss(s, n, ElTrainConfig(dim=3)) == 0.0


def test_total_loss_single_nf1_matches_direct_call():
    cfg = ElTrainConfig(dim=3, margin=0.07, epochs=0)
    n = NormalizedOntology(axioms=(NF1("A", "B"),), fresh_names=(), concept_names=frozenset({"A", "B"}))
    s = train_el(n, cfg)
    assert total_loss(s, n, cfg) == axiom_loss(s, NF1("A", "B"), cfg.margin)


def test_total_loss_sums_mixed_axioms():
    cfg = ElTrainConfig(dim=3, margin=0.1, epochs=0)
    n = NormalizedOntology(
        axioms=(NF1("A", "B"), Disjointness("A", "C")),
        fresh_names=(),
        concept_names=frozenset({"A", "B", "C"}),
    )
    s = train_el(n, cfg)
    expected = axiom_loss(s, NF1("A", "B"), cfg.margin) + axiom_loss(
        s, Disjointness("A", "C"), cfg.margin
    )
    assert_allclose(total_loss(s, n, cfg), expected, rtol=1e-15)


def test_total_loss_is_repeatable_despite_sampling():
    cfg = ElTrainConfig(dim=4, negatives=3, epochs=0)
    n = NormalizedOntology(
        axioms=(NF2("A", "r", "B"),),
        fresh_names=(),
        concept_names=frozenset({"A", "B", "C", "D"}),
        relation_names=frozenset({"r"}),
    )
    s = train_el(n, cfg)
    assert total_loss(s, n, cfg) == total_loss(s, n, cfg)


def test_train_is_deterministic():
    cfg = ElTrainConfig(dim=5, epochs=50, seed=9)
    assert train_el(CHAIN, cfg) == train_el(CHAIN, cfg)


def test_train_zero_epochs_returns_initialization():
    cfg = ElTrainConfig(dim=5, epochs=0, seed=1)
    start = train_el(CHAIN, cfg)
    assert start.train_losses == ()
    # the seeded start depends on the seed and the dimension alone
    assert start == train_el(CHAIN, replace(cfg, margin=0.5, learning_rate=0.5, batch_size=1, negatives=3))
    assert start != train_el(CHAIN, replace(cfg, epochs=1))


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


def test_train_reports_a_non_finite_batch_loss_as_divergence_without_a_warning():
    # centers near 1e300 stay finite, but their squared distances overflow;
    # the suite turns any numpy warning into an error
    with pytest.raises(NumericalError, match=r"^batch loss diverged at step [1-9][0-9]*$"):
        train_el(CHAIN, ElTrainConfig(dim=5, learning_rate=1e300, epochs=5))


def test_train_refuses_a_table_over_the_size_limit_before_allocating_it(monkeypatch):
    # the default limit, checked by arithmetic alone: the el_dim that once exhausted memory
    with pytest.raises(DataError, match="^el_dim = 100000000 needs a 36 x 100000000 parameter table of "
                       "28800000000 bytes, over the limit of 1073741824$"):
        errors.check_table_size("el_dim", 36, 100_000_000)
    # CHAIN embeds A, B, C, Top and Bottom: 5 rows; the step buffers come after
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 5 * 4 * 8)
    train_el(CHAIN, ElTrainConfig(dim=4, epochs=0))
    with pytest.raises(DataError, match="^el_dim = 5 needs a 5 x 5 parameter table of 200 bytes"):
        train_el(CHAIN, ElTrainConfig(dim=5, epochs=0))


def test_train_refuses_a_step_buffer_over_the_size_limit_before_allocating_it(monkeypatch):
    # A, B, Top, Bottom and r: a table of 5 rows.  One batch of both NF2
    # axioms and their corrupted copies scatters rows a and b of 4 hinges (8),
    # row t of each (4) and two rows of 4 radius slots: 14 rows of el_dim slots
    loop = NormalizedOntology(
        axioms=(NF2("A", "r", "B"), NF2("B", "r", "A")), fresh_names=(),
        concept_names=frozenset({"A", "B"}), relation_names=frozenset({"r"}),
    )
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 14 * 4 * 8)
    train_el(loop, ElTrainConfig(dim=4, epochs=1))
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 14 * 4 * 8 - 1)
    with pytest.raises(DataError, match="^el_dim = 4 needs a 14 x 4 step buffer of 448 bytes"):
        train_el(loop, ElTrainConfig(dim=4, epochs=1))
    # the buffers fit the largest batch, not the epoch: batches of one axiom
    # need 7 rows and fit under this limit
    train_el(loop, ElTrainConfig(dim=4, epochs=1, batch_size=1))


def test_a_repeated_training_run_reuses_its_memory():
    """Every per-step array lives in a run-long buffer, so a second run faults in few new pages."""
    code = (
        "import resource\n"
        "from ontozsl.elembed import ElTrainConfig, train_el\n"
        "from ontozsl.harness import gen_synthetic\n"
        "from ontozsl.normalform import normalize\n"
        "n = normalize(gen_synthetic(24, 6, 20, seed=0).ontology)\n"
        "train_el(n, ElTrainConfig())\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "train_el(n, ElTrainConfig())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(elembed.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(done.stdout) < 4000


def test_train_keeps_radii_clamped():
    cfg = ElTrainConfig(dim=4, epochs=200, min_radius=1e-3)
    s = train_el(CHAIN, cfg)
    assert all(ball.radius >= cfg.min_radius for ball in s.concepts.values())


# Every axiom kind, a nominal-derived concept and more axioms than one batch holds.
ADAM_ONTOLOGY = NormalizedOntology(
    axioms=(
        NF1("A", "B"),
        NF2("A", "r", "C"),
        NF3("s", "B", "D"),
        NF4("A", "C", "D"),
        Disjointness("B", "C"),
        NF1("B", "IND_a"),
        NF2("C", "s", "IND_a"),
        RSub("r", "s"),
    ),
    fresh_names=(),
    nominal_map={"a": "IND_a"},
    concept_names=frozenset({"A", "B", "C", "D", "IND_a"}),
    relation_names=frozenset({"r", "s"}),
)


def adam_reference(n, cfg):
    """Textbook Adam, one named parameter at a time, on summed one-axiom gradients.

    Batches and corrupted fillers are drawn from the stream ``train_el`` uses:
    the initialization, then per epoch a permutation and one draw per NF2 axiom
    visited.  Returns the final parameters, keyed like ``axiom_loss`` gradients,
    the summed loss of each epoch and how often the clamp raised a radius.
    """
    rng = np.random.default_rng(cfg.seed)
    start = elembed._initialize(n, cfg, rng)
    names = sorted(start.concepts)
    nominal = set(n.nominal_map.values())
    values = {("c", c): b.center.copy() for c, b in start.concepts.items()}
    values |= {("r", c): b.radius for c, b in start.concepts.items()}
    values |= {("v", r): v.copy() for r, v in start.relations.items()}
    moment, square = dict.fromkeys(values, 0.0), dict.fromkeys(values, 0.0)
    losses, t, clamped = [], 0, 0
    for _ in range(cfg.epochs):
        order = [n.axioms[i] for i in rng.permutation(len(n.axioms))]
        visited = [ax for ax in order for _ in range(cfg.negatives) if isinstance(ax, NF2)]
        drawn = iter(rng.integers(len(names) - 1, size=len(visited)))
        epoch_loss = 0.0
        for first in range(0, len(order), cfg.batch_size):
            batch = order[first : first + cfg.batch_size]
            space = EmbeddingSpace(
                cfg.dim,
                {c: Ball(values["c", c], values["r", c]) for c in names},
                {r: values["v", r] for r in start.relations},
            )
            terms = [(ax, False) for ax in batch]
            for ax in batch:
                for _ in range(cfg.negatives if isinstance(ax, NF2) else 0):
                    fake = int(next(drawn))
                    fake += fake >= names.index(ax.filler)
                    terms.append((NF2(ax.sub, ax.relation, names[fake]), True))
            grad = dict.fromkeys(values, 0.0)
            for term, negative in terms:
                loss, grads = axiom_loss(space, term, cfg.margin, negative=negative, grad=True)
                epoch_loss += loss
                for key, g in grads.items():
                    grad[key] = grad[key] + g
            t += 1
            for key in values:
                g = grad[key] / len(batch)
                moment[key] = 0.9 * moment[key] + 0.1 * g
                square[key] = 0.999 * square[key] + 0.001 * g * g
                m_hat = moment[key] / (1 - 0.9**t)
                v_hat = square[key] / (1 - 0.999**t)
                values[key] = values[key] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            for c in names:
                clamped += c not in nominal and values["r", c] < cfg.min_radius
                values["r", c] = cfg.min_radius if c in nominal else max(values["r", c], cfg.min_radius)
        losses.append(epoch_loss)
    return values, losses, clamped


ADAM_CONFIG = ElTrainConfig(dim=3, learning_rate=0.05, epochs=4, batch_size=3, min_radius=0.08, seed=5)


def check_adam_reference(cfg):
    """``train_el`` against :func:`adam_reference`; returns how often the clamp raised a radius."""
    s = train_el(ADAM_ONTOLOGY, cfg)
    values, losses, clamped = adam_reference(ADAM_ONTOLOGY, cfg)
    for name, ball in s.concepts.items():
        assert_allclose(ball.center, values["c", name], rtol=0, atol=1e-12)
        assert_allclose(ball.radius, values["r", name], rtol=0, atol=1e-12)
    for name, vector in s.relations.items():
        assert_allclose(vector, values["v", name], rtol=0, atol=1e-12)
    assert_allclose(s.train_losses, losses, rtol=1e-12)
    assert s.concepts["IND_a"].radius == cfg.min_radius
    return clamped


def test_train_matches_a_plain_adam_reference():
    # the run exercises the clamp and the pin
    assert check_adam_reference(ADAM_CONFIG) > 0


# a batch of one axiom holds hinges without a relation or only hinges with one
@pytest.mark.parametrize("changes", [{"negatives": 0}, {"negatives": 2}, {"batch_size": 1}],
                         ids=["no-negatives", "two-negatives", "batch-of-one"])
def test_train_matches_a_plain_adam_reference_on_other_settings(changes):
    check_adam_reference(replace(ADAM_CONFIG, **changes))


def test_faithfulness_counts_nested_and_separated_pairs():
    n = NormalizedOntology(
        axioms=(NF1("A", "B"), NF1("C", "B"), Disjointness("A", "C"), Disjointness("A", "D")),
        fresh_names=(),
        concept_names=frozenset({"A", "B", "C", "D"}),
    )
    s = space2d(
        A=((0.0, 0.0), 0.5), B=((0.1, 0.0), 0.55), C=((2.0, 0.0), 0.2), D=((0.75, 0.0), 0.2),
        Top=((0.0, 0.0), 0.1), Bottom=((0.0, 0.0), 0.1),
    )
    # A in B nests and A, D overlap only thanks to the margin; C in B does not nest, A, C separate
    assert faithfulness(s, n, 0.1) == (0.5, 2, 0.5, 2)
    empty = NormalizedOntology(axioms=(), fresh_names=(), concept_names=frozenset({"A"}))
    assert faithfulness(space2d(A=((0.0, 0.0), 0.5)), empty, 0.1) == (1.0, 0, 1.0, 0)


def test_default_training_nests_and_separates_the_synthetic_taxonomy():
    n = normalize(gen_synthetic(24, 6, 20, seed=0).ontology)
    cfg = ElTrainConfig()
    faithful = faithfulness(train_el(n, cfg), n, cfg.margin)
    assert faithful.nest_pairs > 200 and faithful.disjoint_pairs > 0
    assert faithful.nest_fraction >= 0.35
    assert faithful.disjoint_fraction == 1.0


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
