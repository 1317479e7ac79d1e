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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import elembed, harness, textwalk, zslmap
from .errors import DataError, OntozslError, RangeError
from .normalform import BY_TAG, normalize, write_normalized
from .ontology import parse_ontology, serialize_ontology
from .textio import fmt, lines, read_file, read_setting, write_setting
from .zslmap import CandidateSet, Component, Distance

logger = logging.getLogger(__name__)


# How the fields of each stage config appear elsewhere: a RunConfig key is the
# prefix plus the field's short name and a CLI flag is --short-name; the stage
# seed is the run seed plus the offset (None: the stage takes no seed).
STAGES: dict[type, tuple[str, int | None, dict[str, str]]] = {
    elembed.ElTrainConfig: ("el_", 0, {"learning_rate": "lr", "batch_size": "batch"}),
    textwalk.WalkConfig: ("", 1, {}),
    textwalk.SkipGramConfig: ("w2v_", 2, {"learning_rate": "lr"}),
    zslmap.MapConfig: ("", None, {}),
}
FLAG_NAMES = {"ridge_alpha": "alpha"}  # the one flag that is not its key minus the prefix


def stage_keys(config: type) -> dict[str, str]:
    """The RunConfig key of each field of a stage config, but the seed, which is derived."""
    prefix, _offset, short = STAGES[config]
    names = [f.name for f in dataclasses.fields(config) if f.name != "seed"]
    return {name: prefix + short.get(name, name) for name in names}


# One field per stage setting, defaulted from its stage config; RunConfig adds the rest.
_StageKeys = dataclasses.make_dataclass(
    "_StageKeys",
    [(key, f.type, field(default=f.default)) for config in STAGES for f in dataclasses.fields(config)
     if (key := stage_keys(config).get(f.name))],
    frozen=True,
)


@dataclass(frozen=True)
class RunConfig(_StageKeys):
    """Flat settings for one pipeline run; every key is also a CLI flag.

    The stage settings (``el_*``, ``walks_per_node``, ``walk_length``, ``w2v_*``,
    ``mapper``, ``sae_lambda``, ``ridge_alpha``) are inherited fields that
    :data:`STAGES` derives from the stage configs, defaults included.
    """

    ontology: str = ""
    features: str = ""
    split: str = ""
    class_map: str = ""
    attributes: str = ""
    pretrained_vectors: str = ""
    out_dir: str = "run"
    seed: int = 0
    components: str = "el_center"
    normalize_components: bool = True
    distance: str = "l2"
    candidates: str = "unseen"

    def __post_init__(self) -> None:
        """Build every stage config, so a bad value fails before any stage runs."""
        self.component_list()
        self.predict_config()
        for config in STAGES:
            self.stage(config)

    def stage(self, config: type):
        """The config of one stage, read from this run's keys; a range error names the keys."""
        keys = stage_keys(config)
        settings = {name: getattr(self, key) for name, key in keys.items()}
        offset = STAGES[config][1]
        if offset is not None:
            settings["seed"] = self.seed + offset
        try:
            return config(**settings)
        except RangeError as exc:
            raise exc.renamed(keys) from None

    def component_list(self) -> tuple[Component, ...]:
        return zslmap.parse_components(self.components)

    def predict_config(self) -> zslmap.PredictConfig:
        try:
            return zslmap.PredictConfig(Distance(self.distance), CandidateSet(self.candidates))
        except ValueError as exc:
            raise DataError(f"unknown prediction setting: {exc}") from None

    def to_dict(self) -> dict[str, str]:
        return {f.name: write_setting(getattr(self, f.name)) for f in dataclasses.fields(self)}


def config_from_pairs(pairs: dict[str, str], base: RunConfig = RunConfig()) -> RunConfig:
    """Apply string key-value overrides onto a config, each read as the type of its default."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    updates = {}
    for key, raw in pairs.items():
        if key not in keys:
            raise DataError(f"unknown config key {key!r}")
        updates[key] = read_setting(raw, getattr(base, key), f"config key {key!r}")
    return dataclasses.replace(base, **updates)


def parse_config(text: str, base: RunConfig = RunConfig()) -> RunConfig:
    """Read ``key = value`` lines; ``#`` comments and blank lines are ignored."""
    pairs = {}
    for where, raw in lines(text, "config"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{where}: expected key = value")
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
    el_losses: tuple[float, ...] = ()
    el_nest_fraction: float = float("nan")
    el_disjoint_fraction: float = float("nan")
    w2v_losses: tuple[float, ...] = ()
    candidate_min_distance: float = float("nan")
    candidate_median_distance: float = float("nan")


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def render_report(report: MetricsReport, per_class_counts: dict[str, tuple[int, int]]) -> str:
    scalars = ("macro_unseen_accuracy", "sample_accuracy", "el_total_loss",
               "candidate_min_distance", "candidate_median_distance")
    rows = [f"{key}\t{fmt(getattr(report, key))}" for key in scalars]
    for key in sorted(report.counts):
        rows.append(f"{key}\t{report.counts[key]}")
    rows.append("[per_class]")
    for label in sorted(report.per_class_accuracy):
        correct, total = per_class_counts[label]
        rows.append(f"{label}\t{fmt(report.per_class_accuracy[label])}\t{correct}\t{total}")
    rows.append("[config]")
    for key in sorted(report.config_echo):
        rows.append(f"{key}\t{report.config_echo[key]}")
    return "".join(row + "\n" for row in rows)


def report_json(report: MetricsReport) -> str:
    """Every field of ``report``; ``config_echo`` is written as ``config``."""
    payload = dataclasses.asdict(report)
    payload["config"] = payload.pop("config_echo")
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

    Every stage config was built, and so range-checked, with ``cfg`` itself.
    """
    el_cfg = cfg.stage(elembed.ElTrainConfig)

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
        faithful = elembed.faithfulness(space, normalized, el_cfg.margin)
        emit("el_space.tsv", elembed.export_space(space))
        logger.info("embedding loss after training: %.6f", el_loss)

    with _stage("walk"):
        walks = textwalk.random_walks(textwalk.project(ontology), cfg.stage(textwalk.WalkConfig))
        corpus = textwalk.lexicalize(walks, ontology)
        emit("corpus.txt", textwalk.save_corpus(corpus))

    with _stage("w2v"):
        pretrained = None
        if cfg.pretrained_vectors:
            pretrained = textwalk.load_word_vectors(read_file(cfg.pretrained_vectors, "pretrained vectors"))
        vectors = textwalk.train_skipgram(corpus, cfg.stage(textwalk.SkipGramConfig), init=pretrained)
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
            cfg.component_list(),
            space=space,
            word_vectors=vectors,
            ontology=ontology,
            attributes=attributes,
            class_map=class_map,
            normalize_components=cfg.normalize_components,
        )
        emit("encodings.tsv", zslmap.save_encodings(table))

    with _stage("train-map"):
        model = zslmap.train_map(dataset, table, cfg.stage(zslmap.MapConfig))
        emit("model.txt", zslmap.save_model(model))

    with _stage("predict"):
        test, predictions = zslmap.predict_test(model, dataset, table, cfg.predict_config())
        emit("predictions.tsv", harness.write_predictions(test, predictions))
        # after predict, which has rejected every candidate set the spread cannot measure
        spread = zslmap.candidate_spread(
            table, cfg.predict_config(), sorted(dataset.seen_labels), sorted(dataset.unseen_labels)
        )

    with _stage("eval"):
        kinds = Counter(ax.TAG for ax in normalized.axioms)
        truth = [s.label for s in test]
        macro, per_class, per_class_counts = harness.unseen_scores(
            predictions, truth, dataset.unseen_labels
        )
        report = MetricsReport(
            macro_unseen_accuracy=macro,
            sample_accuracy=harness.sample_accuracy(predictions, truth),
            per_class_accuracy=per_class,
            counts={
                "train_samples": len(dataset.train_samples()),
                "test_samples": len(test),
                "correct": sum(p == t for p, t in zip(predictions, truth)),
                "seen_classes": len(dataset.seen_labels),
                "unseen_classes": len(dataset.unseen_labels),
                "encoding_dim": table.dim,
                "el_nest_pairs": faithful.nest_pairs,
                "el_disjoint_pairs": faithful.disjoint_pairs,
                "w2v_corpus_tokens": sum(len(sentence) for sentence in corpus.sentences),
                "w2v_pairs_per_epoch": vectors.pairs_per_epoch,
                "w2v_vocab": len(vectors.vectors),
                **{tag: kinds[tag] for tag in BY_TAG},
            },
            config_echo=cfg.to_dict(),
            el_total_loss=el_loss,
            el_losses=space.train_losses,
            el_nest_fraction=faithful.nest_fraction,
            el_disjoint_fraction=faithful.disjoint_fraction,
            w2v_losses=vectors.train_losses,
            candidate_min_distance=spread[0],
            candidate_median_distance=spread[1],
        )
        emit("report.txt", render_report(report, per_class_counts))
        emit("report.json", report_json(report))

    manifest = "".join(
        f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n"
        for name, text in sorted(artifacts.items())
    )
    (out_dir / "manifest.txt").write_text(manifest)
    return report
