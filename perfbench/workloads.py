"""The benchmark's workloads and the input files generated for them.

Every workload is ``gen_synthetic`` at fixed sizes plus ``RunConfig``
overrides; each one puts most of the run in a different layer, so a change to
one layer has a workload that exercises it and workloads that bypass it.  The
workload seed goes both to ``gen_synthetic(seed=)`` and to ``RunConfig.seed``.
Why each workload was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    k_seen: int
    k_unseen: int
    per_class: int
    feature_dim: int
    overrides: dict[str, object] = field(default_factory=dict)
    attributes: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # 208 normal axioms x 1000 epochs: EL training is ~78 % of the run and
        # skip-gram ~21 %, although el_center never reads the word vectors.
        Workload("el-taxonomy", 24, 6, 20, 16, {"w2v_epochs": 5}),
        # Accuracy depends only on the word vectors, so a faster skip-gram that
        # degrades them shows up as lower accuracy.
        Workload("word-walks", 16, 4, 20, 16,
                 {"components": "word", "el_epochs": 50, "w2v_epochs": 20}),
        # 7,200 train and 4,800 test samples over 40 candidates, read from a
        # ~16 MB feature file: mapper training, per-sample predict and loading.
        Workload("many-samples", 24, 16, 300, 64,
                 {"components": "el_center,attribute", "candidates": "all",
                  "el_epochs": 50, "w2v_epochs": 1},
                 attributes=True),
    )
}


def write_inputs(workload: Workload, seed: int, out: Path, *, tiny: bool = False) -> None:
    """Generate the workload's input files and ``settings.json`` under ``out``.

    ``settings.json`` holds the ``RunConfig`` keys, the expected test split and
    the candidate labels, which the output checks use.  ``tiny`` shrinks the
    data and the epochs to a warm-up that touches the same code paths in a
    fraction of a second.
    """
    from ontozsl import harness
    from ontozsl.ontology import serialize_ontology

    sizes = (4, 1, 2, 8) if tiny else (
        workload.k_seen, workload.k_unseen, workload.per_class, workload.feature_dim
    )
    data = harness.gen_synthetic(*sizes[:3], p=sizes[3], seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ontology.elf").write_text(serialize_ontology(data.ontology))
    (out / "features.tsv").write_text(harness.write_features(data.dataset.samples))
    (out / "split.txt").write_text(
        harness.write_split(data.dataset.seen_labels, data.dataset.unseen_labels)
    )
    config = {
        "ontology": str(out / "ontology.elf"),
        "features": str(out / "features.tsv"),
        "split": str(out / "split.txt"),
        "out_dir": str(out / "run"),
        "seed": seed,
        **workload.overrides,
    }
    if workload.attributes:
        (out / "attributes.tsv").write_text(harness.write_vector_table(data.attributes))
        config["attributes"] = str(out / "attributes.tsv")
    if tiny:
        config.update(el_epochs=1, w2v_epochs=1)
    seen = sorted(data.dataset.seen_labels)
    unseen = sorted(data.dataset.unseen_labels)
    settings = {
        "config": config,
        "test": [[s.id, s.label] for s in data.dataset.test_samples()],
        "candidates": unseen + seen if config.get("candidates") == "all" else unseen,
    }
    (out / "settings.json").write_text(json.dumps(settings))
