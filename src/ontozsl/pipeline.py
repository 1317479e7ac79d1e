"""End-to-end run orchestration driven by a flat key-value config.

``run_pipeline`` executes every stage, writing each intermediate artifact
into the output directory: parse, normalize, train the concept embeddings,
project and walk the graph, train word vectors, load the dataset, encode the
labels, fit the feature-to-encoding mapper on the seen split, predict the
test split, and score it.  The stages run one after another, in this
order.  All randomness is derived from the single config seed, so
re-running a config reproduces every output file byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import elembed, harness, textwalk, zslmap
from .errors import DataError, OntozslError, RangeError
from .normalform import BY_TAG, normalize, write_normalized
from .ontology import parse_ontology, serialize_ontology
from .textio import file_lines, fmt, lines, read_file, read_setting, unique, write_setting
from .zslmap import CandidateSet, Component

logger = logging.getLogger(__name__)


# How the fields of each stage config appear as RunConfig keys: the prefix plus
# the field's short name; the stage seed is the run seed plus the offset (None:
# the stage takes no seed).
STAGES: dict[type, tuple[str, int | None, dict[str, str]]] = {
    elembed.ElTrainConfig: ("el_", 0, {"learning_rate": "lr", "batch_size": "batch"}),
    textwalk.WalkConfig: ("", 1, {}),
    textwalk.SkipGramConfig: ("w2v_", 2, {}),
    zslmap.MapConfig: ("", None, {}),
}


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
    """Flat settings for one pipeline run, which every CLI subcommand that takes a setting reads.

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
    candidates: str = "unseen"

    def __post_init__(self) -> None:
        """Build every stage config, so a bad value fails before any stage runs."""
        if not self.out_dir:
            raise DataError("out_dir must name a directory")
        self.component_list()
        self.candidate_set()
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

    def candidate_set(self) -> CandidateSet:
        try:
            return CandidateSet(self.candidates)
        except ValueError as exc:
            raise DataError(f"unknown prediction setting: {exc}") from None

    def to_dict(self) -> dict[str, str]:
        return {f.name: write_setting(getattr(self, f.name)) for f in dataclasses.fields(self)}


def config_from_pairs(
    pairs: dict[str, str], base: RunConfig = RunConfig(), places: dict[str, str] | None = None
) -> RunConfig:
    """Apply string key-value overrides onto a config, each read as the type of its default.

    ``places`` names where each key was read, such as ``config line 3``;
    an error about the key then starts with it.
    """
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    updates = {}
    for key, raw in pairs.items():
        place = f"{places[key]}: " if places else ""
        if key not in keys:
            raise DataError(f"{place}unknown config key {key!r}")
        updates[key] = read_setting(raw, getattr(base, key), f"{place}config key {key!r}")
    return dataclasses.replace(base, **updates)


def parse_config(text: str, base: RunConfig = RunConfig()) -> RunConfig:
    """Read ``key = value`` lines, each key at most once; blank lines are ignored.

    A line whose first non-blank character is ``#`` is a comment; a ``#``
    anywhere else is part of the value, so ``out_dir = runs/#3`` names
    ``runs/#3`` and ``seed = 2 # two`` is a bad value at its line.
    """
    pairs: dict[str, str] = {}
    places: dict[str, str] = {}
    for where, raw in lines(text, "config"):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{where}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs[unique(pairs, key, where, "config key")] = value
        places[key] = where
    return config_from_pairs(pairs, base, places)


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
    map_train_loss: float = float("nan")  # the autoencoder objective at its fitted weights; NaN for ridge
    # wall seconds of each stage in run order, plus "train_el", the part of embed-el
    # spent in train_el; never written, since every file in out_dir must repeat byte for byte
    stage_seconds: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def render_report(report: MetricsReport, per_class_counts: dict[str, tuple[int, int]]) -> str:
    scalars = ("macro_unseen_accuracy", "sample_accuracy", "el_total_loss",
               "candidate_min_distance", "candidate_median_distance", "map_train_loss")
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
    """Every field of ``report`` but the wall times; ``config_echo`` is written as ``config``."""
    payload = dataclasses.asdict(report)
    payload["config"] = payload.pop("config_echo")
    del payload["stage_seconds"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


# Every file run_pipeline writes into out_dir, the manifest and reports first,
# so a run stopped while removing an earlier run's files leaves none of them.
ARTIFACTS = ("manifest.txt", "report.txt", "report.json", "ontology.elf", "normalized.txt", "el_space.tsv",
             "corpus.txt", "wordvecs.txt", "encodings.tsv", "model.txt", "predictions.tsv")


class _stage:
    """Prefix any package error escaping the stage with the stage name, and time the stage."""

    def __init__(self, name: str, seconds: dict[str, float]):
        self.name = name
        self.seconds = seconds

    def __enter__(self) -> "_stage":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds[self.name] = time.perf_counter() - self.start
        if isinstance(exc, OntozslError) and not getattr(exc, "stage", None):
            exc.stage = self.name
            exc.args = (f"{self.name}: {exc}",)
        return False


def run_pipeline(cfg: RunConfig) -> MetricsReport:
    """Execute all stages and write artifacts plus a manifest to ``out_dir``.

    Every stage config was built, and so range-checked, with ``cfg`` itself.
    The stages run one after another, in the order of ``stage_seconds``.
    Every file of :data:`ARTIFACTS` that an earlier run left in ``out_dir``
    is removed first, but one that is an input of this run, so a run that
    fails leaves only its own artifacts.
    """
    el_cfg = cfg.stage(elembed.ElTrainConfig)

    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise DataError(f"out_dir {cfg.out_dir} is not a directory") from None
    inputs = [cfg.ontology, cfg.features, cfg.split, cfg.class_map, cfg.attributes, cfg.pretrained_vectors]
    kept = {Path(path).resolve() for path in inputs if path}
    for name in ARTIFACTS:
        path = out_dir / name
        if path.is_dir():
            raise DataError(f"out_dir {cfg.out_dir}: {name} is a directory")
        if path.resolve() not in kept:
            path.unlink(missing_ok=True)
    artifacts: dict[str, str] = {}
    seconds: dict[str, float] = {}

    def emit(name: str, text: str) -> None:
        (out_dir / name).write_text(text)
        artifacts[name] = text

    with _stage("parse", seconds):
        ontology = parse_ontology(read_file(cfg.ontology, "ontology"))
        emit("ontology.elf", serialize_ontology(ontology))

    with _stage("normalize", seconds):
        normalized = normalize(ontology)
        emit("normalized.txt", write_normalized(normalized))

    with _stage("embed-el", seconds):
        start = time.perf_counter()
        space = elembed.train_el(normalized, el_cfg)  # looked up on the module, so a patched one runs
        seconds["train_el"] = time.perf_counter() - start
        el_loss = elembed.total_loss(space, normalized, el_cfg)
        faithful = elembed.faithfulness(space, normalized, el_cfg.margin)
        emit("el_space.tsv", elembed.export_space(space))
        logger.info("embedding loss after training: %.6f", el_loss)

    with _stage("walk", seconds):
        walks = textwalk.random_walks(textwalk.project(ontology), cfg.stage(textwalk.WalkConfig))
        corpus = textwalk.lexicalize(walks, ontology)
        emit("corpus.txt", textwalk.save_corpus(corpus))

    with _stage("w2v", seconds):
        if cfg.pretrained_vectors:  # they stand in for the trained vectors
            vectors = textwalk.load_word_vectors(
                file_lines(cfg.pretrained_vectors, "pretrained vectors", "word vectors")
            )
        else:
            vectors = textwalk.train_skipgram(corpus, cfg.stage(textwalk.SkipGramConfig))
        emit("wordvecs.txt", textwalk.save_word_vectors(vectors))

    with _stage("load-dataset", seconds):
        dataset = harness.load_dataset(file_lines(cfg.features, "features"), file_lines(cfg.split, "split"))
        class_map = harness.parse_class_map(file_lines(cfg.class_map, "class map")) if cfg.class_map else {}
        attributes = (
            harness.parse_vector_table(file_lines(cfg.attributes, "attributes")) if cfg.attributes else None
        )

    with _stage("encode", seconds):
        labels = sorted(dataset.seen_labels | dataset.unseen_labels)
        table = zslmap.encode_labels(
            labels,
            cfg.component_list(),
            space=space,
            word_vectors=vectors,
            ontology=ontology,
            attributes=attributes,
            class_map=class_map,
        )
        emit("encodings.tsv", zslmap.save_encodings(table))

    with _stage("train-map", seconds):
        model = zslmap.train_map(dataset, table, cfg.stage(zslmap.MapConfig))
        emit("model.txt", zslmap.save_model(model))

    with _stage("predict", seconds):
        candidates = cfg.candidate_set().labels(dataset.seen_labels, dataset.unseen_labels)
        test_ids, truth, predictions = zslmap.predict_test(model, dataset, table, candidates)
        emit("predictions.tsv", harness.write_predictions(test_ids, predictions, truth))
        spread = zslmap.candidate_spread(table, candidates)

    with _stage("eval", seconds):
        kinds = Counter(ax.TAG for ax in normalized.axioms)
        macro, per_class, per_class_counts = harness.unseen_scores(
            predictions, truth, dataset.unseen_labels
        )
        report = MetricsReport(
            macro_unseen_accuracy=macro,
            sample_accuracy=harness.sample_accuracy(predictions, truth),
            per_class_accuracy=per_class,
            counts={
                "train_samples": int(dataset.rows_of(dataset.seen_labels).sum()),
                "test_samples": len(truth),
                "correct": sum(p == t for p, t in zip(predictions, truth)),
                "seen_classes": len(dataset.seen_labels),
                "unseen_classes": len(dataset.unseen_labels),
                "encoding_dim": table.dim,
                "el_nest_pairs": faithful.nest_pairs,
                "el_disjoint_pairs": faithful.disjoint_pairs,
                "w2v_corpus_tokens": sum(len(sentence) for sentence in corpus.sentences),
                "w2v_pairs": vectors.pairs,
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
            map_train_loss=model.train_loss,
            stage_seconds=seconds,
        )
        emit("report.txt", render_report(report, per_class_counts))
        emit("report.json", report_json(report))

    manifest = "".join(
        f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n"
        for name, text in sorted(artifacts.items())
    )
    (out_dir / "manifest.txt").write_text(manifest)
    return report
