"""Release gates.

Each test here guards one gate end to end and prints a single
``PASS <gate> (<seconds>)`` line on success (visible with ``pytest -s``;
``pytest -v`` shows the same one-line-per-gate view).  Gates with a runtime
budget assert it.  The heavy lifting reuses the fuzzers and oracles from the
unit test modules so the gates stay in lockstep with them.
"""

import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    count_complex_subexpressions,
    flatten_by_definitions,
    random_full_ontology,
    random_tbox,
    sae_grad,
)
from test_elembed import CHAIN, LOSS_TABLE, check_gradients, exact_unit_vector
from test_normalform import NORMAL_SHAPES, original_pairs
from test_zslmap import kron_solve

from ontozsl.elembed import (
    Ball,
    ElTrainConfig,
    EmbeddingSpace,
    axiom_loss,
    export_space,
    import_space,
    total_loss,
    train_el,
)
from ontozsl.harness import gen_synthetic, unseen_scores, write_features, write_split
from ontozsl.normalform import NF1, NF2, NF3, NF4, Disjointness, NormalizedOntology, normalize
from ontozsl.ontology import parse_ontology, serialize_ontology
from ontozsl.pipeline import RunConfig, run_pipeline
from ontozsl.zslmap import (
    CandidateSet,
    Component,
    EncodingTable,
    distance,
    map_features,
    predict,
    sae_loss,
    train_sae,
)


@contextmanager
def gate(name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL {name} (took {elapsed:.2f}s, budget {budget:g}s)")
        raise AssertionError(f"{name} exceeded its {budget:g}s budget: {elapsed:.2f}s")
    print(f"PASS {name} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. loss fidelity
# ---------------------------------------------------------------------------


def test_a1_loss_fidelity():
    with gate("loss-fidelity", budget=1.0):
        s = EmbeddingSpace(
            2,
            {"A": Ball(np.array([1.0, 0.0]), 0.1), "B": Ball(np.array([0.0, 1.0]), 0.2)},
            {},
        )
        assert_allclose(axiom_loss(s, NF1("A", "B"), 0.05), np.sqrt(2) - 0.15, atol=1e-9)

        s = EmbeddingSpace(
            2,
            {"A": Ball(np.array([2.0, 0.0]), 0.0), "B": Ball(np.array([0.0, 0.0]), 0.0)},
            {},
        )
        assert_allclose(axiom_loss(s, NF1("A", "B"), 0.0), 4.0, atol=1e-9)

        s = EmbeddingSpace(
            2,
            {"A": Ball(np.array([0.0, 1.0]), 0.2), "B": Ball(np.array([1.0, 0.0]), 0.1)},
            {"r": np.array([1.0, 0.0])},
        )
        assert_allclose(axiom_loss(s, NF2("A", "r", "B"), 0.05), 1.05, atol=1e-9)

        # the zero set: exactly the contained configurations with unit centers
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            ca = exact_unit_vector(rng)
            cb = exact_unit_vector(rng)
            ra, rb = rng.uniform(0, 0.5, size=2)
            margin = float(rng.uniform(0, 0.3))
            slack = np.linalg.norm(ca - cb) + ra - rb - margin
            if abs(slack) < 1e-9:  # hinge knife-edge, equality direction unspecified
                continue
            s = EmbeddingSpace(3, {"A": Ball(ca, ra), "B": Ball(cb, rb)}, {})
            assert (axiom_loss(s, NF1("A", "B"), margin) == 0.0) == (slack < 0)
            checked += 1


# ---------------------------------------------------------------------------
# 2. analytic gradients against central finite differences
# ---------------------------------------------------------------------------


def test_a2_gradient_check():
    with gate("gradient-check", budget=10.0):
        for offset, kind in enumerate(sorted(LOSS_TABLE)):
            check_gradients(kind, points=100, seed=900 + offset, rel_tol=1e-4)

        rng = np.random.default_rng(950)
        for _ in range(100):
            p = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            n = int(rng.integers(5, 13))
            x = rng.normal(size=(p, n))
            z = rng.normal(size=(m, n))
            w = rng.normal(size=(m, p))
            lam = float(rng.uniform(0.1, 2.0))
            g = sae_grad(w, x, z, lam)
            step = 1e-6
            fd = np.zeros_like(w)
            for i in range(m):
                for j in range(p):
                    up, dn = w.copy(), w.copy()
                    up[i, j] += step
                    dn[i, j] -= step
                    fd[i, j] = (sae_loss(up, x, z, lam) - sae_loss(dn, x, z, lam)) / (2 * step)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


# ---------------------------------------------------------------------------
# 3. normalizer on fuzzed inputs, checked against definitional flattening
# ---------------------------------------------------------------------------


def test_a3_normalizer_fuzz():
    with gate("normalizer-fuzz", budget=30.0):
        rng = np.random.default_rng(31)
        names = set()
        for _ in range(500):
            o = random_tbox(rng, max_concepts=8, max_depth=3)
            n = normalize(o)
            universe = set(n.concept_names) | {"Top", "Bottom"}
            for ax in n.axioms:
                assert isinstance(ax, NORMAL_SHAPES)
                if isinstance(ax, NF1):
                    assert ax.sup != "Top" and {ax.sub, ax.sup} <= universe
                elif isinstance(ax, NF2):
                    assert {ax.sub, ax.filler} <= universe
                elif isinstance(ax, NF3):
                    assert {ax.filler, ax.sup} <= universe
                elif isinstance(ax, NF4):
                    assert {ax.left, ax.right, ax.sup} <= universe
            assert len(n.fresh_names) <= count_complex_subexpressions(o)

            flat_n = normalize(flatten_by_definitions(o))
            assert flat_n.fresh_names == ()
            got = original_pairs(n, o.concept_names)
            want = original_pairs(flat_n, o.concept_names)
            assert got == want
            names.update(n.fresh_names)


# ---------------------------------------------------------------------------
# 4. training produces the intended geometry on toy ontologies
# ---------------------------------------------------------------------------


def test_a4_geometric_convergence():
    with gate("geometric-convergence", budget=30.0):
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

        apart = NormalizedOntology(
            axioms=(Disjointness("A", "B"),),
            fresh_names=(),
            concept_names=frozenset({"A", "B"}),
        )
        s = train_el(apart, cfg)
        assert total_loss(s, apart, cfg) < 0.01
        dist = np.linalg.norm(s.concepts["A"].center - s.concepts["B"].center)
        assert dist >= s.concepts["A"].radius + s.concepts["B"].radius - 1e-6


# ---------------------------------------------------------------------------
# 5. mapper training against the dense normal-equation solve
# ---------------------------------------------------------------------------


def test_a5_sae_oracle():
    with gate("sae-oracle", budget=30.0):
        rng = np.random.default_rng(51)
        for p, m in product((2, 3, 4), repeat=2):
            x = rng.normal(size=(p, 12))
            z = rng.normal(size=(m, 12))
            lam = 0.5
            model = train_sae(x, z, lam)
            exact = kron_solve(x, z, lam)
            assert np.abs(model.weights - exact).max() < 1e-4, (p, m)

        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        x = rng.normal(size=(4, 12))
        model = train_sae(x, q @ x, 0.5)
        assert model.train_loss < 1e-6
        assert np.abs(model.weights - q).max() < 1e-3


# ---------------------------------------------------------------------------
# 6. nearest-encoding prediction against an exhaustive scan
# ---------------------------------------------------------------------------


def test_a6_prediction_scan():
    with gate("prediction-scan", budget=10.0):
        rng = np.random.default_rng(61)
        labels = [f"y{i:02d}" for i in range(12)]
        for _ in range(10000):
            dim = int(rng.integers(1, 5))
            # one decimal of precision forces frequent exact distance ties
            table = EncodingTable(
                (Component.EL_CENTER,),
                dim,
                {lbl: np.round(rng.normal(size=dim), 1) for lbl in labels},
            )
            seen = [lbl for lbl in labels if rng.random() < 0.3]
            unseen = [lbl for lbl in labels if lbl not in seen] or [labels[0]]
            pool = CandidateSet.UNSEEN_ONLY if rng.random() < 0.5 else CandidateSet.SEEN_AND_UNSEEN
            candidates = unseen if pool is CandidateSet.UNSEEN_ONLY else seen + unseen
            gx = np.round(rng.normal(size=dim), 1)
            got = predict(gx[:, None], table, pool.labels(seen, unseen))[0]
            best = min(candidates, key=lambda lbl: (distance(table.encodings[lbl], gx), lbl))
            assert got == best


# ---------------------------------------------------------------------------
# 7 and 8. the full run: accuracy gate, ablation, and reproducibility
# ---------------------------------------------------------------------------

_first_run: dict[str, bytes] = {}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    data = gen_synthetic(8, 2, 30, p=16, noise=0.05, seed=0)
    (root / "o.elf").write_text(serialize_ontology(data.ontology))
    (root / "f.tsv").write_text(write_features(data.dataset.samples))
    (root / "s.txt").write_text(
        write_split(data.dataset.seen_labels, data.dataset.unseen_labels)
    )
    cfg = RunConfig(
        ontology=str(root / "o.elf"),
        features=str(root / "f.tsv"),
        split=str(root / "s.txt"),
        out_dir=str(root / "run"),
    )
    return data, cfg


def _snapshot(out_dir: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}


def test_a7_end_to_end_gate(bench):
    data, cfg = bench
    with gate("end-to-end-gate", budget=120.0):
        report = run_pipeline(cfg)
        _first_run.update(_snapshot(cfg.out_dir))
        assert report.macro_unseen_accuracy >= 0.9

        # ablation: replace the learned encodings with seeded noise and keep
        # everything else identical; structure in the encodings is what the
        # accuracy gate is actually measuring
        ds = data.dataset
        rng = np.random.default_rng(cfg.seed)
        table = EncodingTable(
            (Component.EL_CENTER,),
            cfg.el_dim,
            {lbl: rng.normal(size=cfg.el_dim) for lbl in sorted(ds.seen_labels | ds.unseen_labels)},
        )
        train = [s for s in ds.samples if s.label in ds.seen_labels]
        x = np.stack([s.features for s in train], axis=1)
        z = np.stack([table.encodings[s.label] for s in train], axis=1)
        model = train_sae(x, z, cfg.sae_lambda)
        test = ds.test_samples()
        candidates = CandidateSet.UNSEEN_ONLY.labels(ds.seen_labels, ds.unseen_labels)
        preds = [predict(map_features(model, s.features)[:, None], table, candidates)[0] for s in test]
        ablated = unseen_scores(preds, [s.label for s in test], ds.unseen_labels)[0]
        assert ablated <= 0.6
        assert report.macro_unseen_accuracy - ablated >= 0.3


def test_a8_determinism(bench):
    _data, cfg = bench
    with gate("determinism"):
        if not _first_run:  # when the gate runs alone, produce the baseline
            run_pipeline(cfg)
            _first_run.update(_snapshot(cfg.out_dir))
        run_pipeline(cfg)
        second = _snapshot(cfg.out_dir)
        assert set(second) == set(_first_run)
        for name in sorted(second):
            assert second[name] == _first_run[name], f"{name} changed between identical runs"


# ---------------------------------------------------------------------------
# 9. serialization round trips
# ---------------------------------------------------------------------------


def test_a9_round_trips():
    with gate("round-trips", budget=10.0):
        rng = np.random.default_rng(91)
        for _ in range(500):
            o = random_full_ontology(rng)
            text = serialize_ontology(o)
            back = parse_ontology(text)
            assert back == o
            assert serialize_ontology(back) == text

        for _ in range(500):
            dim = int(rng.integers(1, 6))
            concepts = {
                f"C{i}": Ball(rng.normal(size=dim), float(rng.uniform(0, 1)))
                for i in range(int(rng.integers(1, 5)))
            }
            relations = {f"r{i}": rng.normal(size=dim) for i in range(int(rng.integers(0, 3)))}
            space = EmbeddingSpace(dim, concepts, relations)
            text = export_space(space)
            back = import_space(text)
            assert back == space
            assert export_space(back) == text
