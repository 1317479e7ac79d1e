"""End-to-end run orchestration driven by a flat key-value config.

``run_pipeline`` executes every stage in order, writing each intermediate
artifact into the output directory: parse, normalize, train the concept
embeddings, project and walk the graph, train word vectors, encode the
labels, fit the feature-to-encoding mapper on the seen split, predict the
test split, and score it.  All randomness is derived from the single config
seed, so re-running a config reproduces every output file byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import elembed, harness, textwalk, zslmap
from .errors import DataError, OntozslError
from .normalform import normalize, write_normalized
from .ontology import parse_ontology, serialize_ontology
from .textio import fmt, read_file, read_floats, read_int
from .zslmap import CandidateSet, Component, Distance

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Flat settings for one pipeline run; every key is also a CLI flag."""

    ontology: str = ""
    features: str = ""
    split: str = ""
    class_map: str = ""
    attributes: str = ""
    pretrained_vectors: str = ""
    out_dir: str = "run"
    seed: int = 0

    el_dim: int = 50
    el_margin: float = 0.1
    el_lr: float = 0.01
    el_epochs: int = 1000
    el_batch: int = 64
    el_negatives: int = 1
    el_min_radius: float = 1e-3

    walks_per_node: int = 10
    walk_length: int = 4

    w2v_dim: int = 25
    w2v_window: int = 2
    w2v_negatives: int = 5
    w2v_epochs: int = 50
    w2v_lr: float = 0.05
    w2v_min_count: int = 1

    components: str = "el_center"
    normalize_components: bool = True

    mapper: str = "sae"
    sae_lambda: float = 0.5
    ridge_alpha: float = 1e-3

    distance: str = "l2"
    candidates: str = "unseen"

    def __post_init__(self) -> None:
        """Reject unknown enum values when the config is built, before any stage runs."""
        self.component_list()
        self.predict_config()
        if self.mapper not in ("sae", "ridge"):
            raise DataError(f"unknown mapper {self.mapper!r}")

    def component_list(self) -> tuple[Component, ...]:
        names = [n.strip() for n in self.components.split(",") if n.strip()]
        try:
            return tuple(Component(n) for n in names)
        except ValueError as exc:
            raise DataError(f"unknown encoding component: {exc}") from None

    def predict_config(self) -> zslmap.PredictConfig:
        try:
            return zslmap.PredictConfig(Distance(self.distance), CandidateSet(self.candidates))
        except ValueError as exc:
            raise DataError(f"unknown prediction setting: {exc}") from None

    def to_dict(self) -> dict[str, str]:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                out[f.name] = "true" if value else "false"
            elif isinstance(value, float):
                out[f.name] = fmt(value)
            else:
                out[f.name] = str(value)
        return out


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def config_from_pairs(pairs: dict[str, str], base: RunConfig = RunConfig()) -> RunConfig:
    """Apply string key-value overrides onto a config, with type coercion."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    updates = {}
    for key, raw in pairs.items():
        if key not in fields:
            raise DataError(f"unknown config key {key!r}")
        current = getattr(base, key)
        if isinstance(current, bool):
            if raw.lower() not in _BOOL_WORDS:
                raise DataError(f"config key {key!r} expects a boolean, got {raw!r}")
            updates[key] = _BOOL_WORDS[raw.lower()]
        elif isinstance(current, int):
            updates[key] = read_int(raw, f"config key {key!r}")
        elif isinstance(current, float):
            updates[key] = float(read_floats([raw], f"config key {key!r}", 1)[0])
        else:
            updates[key] = raw
    return dataclasses.replace(base, **updates)


def parse_config(text: str, base: RunConfig = RunConfig()) -> RunConfig:
    """Read ``key = value`` lines; ``#`` comments and blank lines are ignored."""
    pairs = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {line_no}: expected key = value")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return config_from_pairs(pairs, base)


@dataclass
class MetricsReport:
    macro_unseen_accuracy: float
    sample_accuracy: float
    per_class_accuracy: dict[str, float]
    counts: dict[str, int]
    config_echo: dict[str, str]
    el_total_loss: float = float("nan")
    w2v_losses: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def render_report(report: MetricsReport, per_class_counts: dict[str, tuple[int, int]]) -> str:
    lines = [
        f"macro_unseen_accuracy\t{fmt(report.macro_unseen_accuracy)}",
        f"sample_accuracy\t{fmt(report.sample_accuracy)}",
        f"el_total_loss\t{fmt(report.el_total_loss)}",
    ]
    for key in sorted(report.counts):
        lines.append(f"{key}\t{report.counts[key]}")
    lines.append("[per_class]")
    for label in sorted(report.per_class_accuracy):
        correct, total = per_class_counts[label]
        lines.append(f"{label}\t{fmt(report.per_class_accuracy[label])}\t{correct}\t{total}")
    lines.append("[config]")
    for key in sorted(report.config_echo):
        lines.append(f"{key}\t{report.config_echo[key]}")
    return "".join(line + "\n" for line in lines)


def report_json(report: MetricsReport) -> str:
    payload = {
        "macro_unseen_accuracy": report.macro_unseen_accuracy,
        "sample_accuracy": report.sample_accuracy,
        "el_total_loss": report.el_total_loss,
        "w2v_losses": list(report.w2v_losses),
        "per_class_accuracy": report.per_class_accuracy,
        "counts": report.counts,
        "config": report.config_echo,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class _stage:
    """Prefix any package error escaping the stage with the stage name."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> "_stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, OntozslError) and not getattr(exc, "stage", None):
            exc.stage = self.name
            exc.args = (f"{self.name}: {exc}",)
        return False


def run_pipeline(cfg: RunConfig) -> MetricsReport:
    """Execute all stages and write artifacts plus a manifest to ``out_dir``.

    Every stage config is built, and so range-checked, before the first stage.
    """
    components = cfg.component_list()
    el_cfg = elembed.ElTrainConfig(
        dim=cfg.el_dim,
        margin=cfg.el_margin,
        learning_rate=cfg.el_lr,
        epochs=cfg.el_epochs,
        batch_size=cfg.el_batch,
        negatives=cfg.el_negatives,
        min_radius=cfg.el_min_radius,
        seed=cfg.seed,
    )
    walk_cfg = textwalk.WalkConfig(cfg.walks_per_node, cfg.walk_length, cfg.seed + 1)
    sg_cfg = textwalk.SkipGramConfig(
        dim=cfg.w2v_dim,
        window=cfg.w2v_window,
        negatives=cfg.w2v_negatives,
        epochs=cfg.w2v_epochs,
        learning_rate=cfg.w2v_lr,
        min_count=cfg.w2v_min_count,
        seed=cfg.seed + 2,
    )
    predict_cfg = cfg.predict_config()

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}

    def emit(name: str, text: str) -> None:
        (out_dir / name).write_text(text)
        artifacts[name] = text

    with _stage("parse"):
        ontology = parse_ontology(read_file(cfg.ontology, "ontology"))
        emit("ontology.elf", serialize_ontology(ontology))

    with _stage("normalize"):
        normalized = normalize(ontology)
        emit("normalized.txt", write_normalized(normalized))

    with _stage("embed-el"):
        space = elembed.train_el(normalized, el_cfg)
        el_loss = elembed.total_loss(space, normalized, el_cfg)
        emit("el_space.tsv", elembed.export_space(space))
        logger.info("embedding loss after training: %.6f", el_loss)

    with _stage("walk"):
        graph = textwalk.project(ontology)
        walks = textwalk.random_walks(graph, walk_cfg)
        corpus = textwalk.lexicalize(walks, ontology)
        emit("corpus.txt", textwalk.save_corpus(corpus))

    with _stage("w2v"):
        pretrained = None
        if cfg.pretrained_vectors:
            pretrained = textwalk.load_word_vectors(read_file(cfg.pretrained_vectors, "pretrained vectors"))
        vectors = textwalk.train_skipgram(corpus, sg_cfg, init=pretrained)
        emit("wordvecs.txt", textwalk.save_word_vectors(vectors))

    with _stage("load-dataset"):
        dataset = harness.load_dataset(read_file(cfg.features, "features"), read_file(cfg.split, "split"))
        class_map = (
            harness.parse_class_map(read_file(cfg.class_map, "class map")) if cfg.class_map else {}
        )
        attributes = (
            harness.parse_vector_table(read_file(cfg.attributes, "attributes"), "attributes")
            if cfg.attributes
            else None
        )

    with _stage("encode"):
        labels = sorted(dataset.seen_labels | dataset.unseen_labels)
        table = zslmap.encode_labels(
            labels,
            components,
            space=space,
            word_vectors=vectors,
            ontology=ontology,
            attributes=attributes,
            class_map=class_map,
            normalize_components=cfg.normalize_components,
        )
        emit("encodings.tsv", zslmap.save_encodings(table))

    with _stage("train-map"):
        train = dataset.train_samples()
        if not train:
            raise DataError("no training samples: every sample has an unseen label")
        x = np.stack([s.features for s in train], axis=1)
        z = np.stack([table.encodings[s.label] for s in train], axis=1)
        if cfg.mapper == "sae":
            model: zslmap.SaeModel | np.ndarray = zslmap.train_sae(x, z, cfg.sae_lambda)
            emit("model.txt", zslmap.save_model(model))
        else:
            model = zslmap.train_ridge(x, z, cfg.ridge_alpha)
            emit("model.txt", zslmap.save_model(model, alpha=cfg.ridge_alpha))

    with _stage("predict"):
        test = dataset.test_samples()
        if not test:
            raise DataError("no test samples: every sample has a seen label")
        gx = zslmap.map_features(model, np.stack([s.features for s in test], axis=1))
        predictions = zslmap.predict(
            gx, table, predict_cfg, sorted(dataset.seen_labels), sorted(dataset.unseen_labels)
        )
        emit("predictions.tsv", harness.write_predictions(test, predictions))

    with _stage("eval"):
        truth = [s.label for s in test]
        per_class = harness.per_class_accuracy(predictions, truth, dataset.unseen_labels)
        report = MetricsReport(
            macro_unseen_accuracy=sum(per_class.values()) / len(per_class),
            sample_accuracy=harness.sample_accuracy(predictions, truth),
            per_class_accuracy=per_class,
            counts={
                "train_samples": len(train),
                "test_samples": len(test),
                "correct": sum(p == t for p, t in zip(predictions, truth)),
                "seen_classes": len(dataset.seen_labels),
                "unseen_classes": len(dataset.unseen_labels),
                "encoding_dim": table.dim,
                "w2v_pairs_per_epoch": vectors.pairs_per_epoch,
                "w2v_vocab": len(vectors.vectors),
            },
            config_echo=cfg.to_dict(),
            el_total_loss=el_loss,
            w2v_losses=vectors.train_losses,
        )
        per_class_counts = {
            label: (
                sum(p == t for p, t in zip(predictions, truth) if t == label),
                sum(t == label for t in truth),
            )
            for label in per_class
        }
        emit("report.txt", render_report(report, per_class_counts))
        emit("report.json", report_json(report))

    manifest = "".join(
        f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n"
        for name, text in sorted(artifacts.items())
    )
    (out_dir / "manifest.txt").write_text(manifest)
    return report
