"""End-to-end run orchestration driven by a flat key-value config.

:data:`STAGE_TABLE` lists the stages in run order: parse, normalize, train
the concept embeddings, project and walk the graph, train word vectors, load
the dataset, encode the labels, fit the feature-to-encoding mapper on the
seen split, predict the test split, and score it.  Each entry names the
values it reads and makes, its function and its artifacts, so each stage's
work is written once: ``run_pipeline`` walks the table in one process,
keeping every value in memory and writing every artifact into the output
directory, and each stage subcommand of the CLI runs one entry on values
read from files.  All randomness is derived from the single config seed, so
re-running a config reproduces every output file byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import elembed, harness, textwalk, zslmap
from .errors import DataError, OntozslError, RangeError
from .normalform import BY_TAG, normalize, write_normalized
from .ontology import parse_ontology, serialize_ontology
from .textio import file_lines, fmt, lines, read_file, read_setting, unique, write_setting
from .zslmap import CandidateSet, Component


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


@dataclass(frozen=True)
class Stage:
    """One stage: ``run(cfg, *values)`` takes the values ``reads`` names and returns the one
    ``makes`` names, or a tuple of them.  ``files`` are the RunConfig keys of the input files
    it opens; each artifact's function writes the values made as text.  ``help`` describes
    the stage's subcommand, which the pipeline-only stage lacks.
    """

    name: str
    files: tuple[str, ...]
    reads: tuple[str, ...]
    makes: tuple[str, ...]
    run: Callable
    artifacts: dict[str, Callable[..., str]]
    help: str | None = None

    def __call__(self, cfg: RunConfig, values: dict[str, object]) -> tuple:
        """The values made, in the order of ``makes``, from ``values`` by name."""
        made = self.run(cfg, *(values[name] for name in self.reads))
        return made if len(self.makes) > 1 else (made,)


def _embed_el(cfg: RunConfig, normalized, seconds: dict[str, float]):
    """The trained space and its total loss; ``seconds["train_el"]`` is the time spent in ``train_el``."""
    el_cfg = cfg.stage(elembed.ElTrainConfig)
    start = time.perf_counter()
    space = elembed.train_el(normalized, el_cfg)
    seconds["train_el"] = time.perf_counter() - start
    return space, elembed.total_loss(space, normalized, el_cfg)


def _w2v(cfg: RunConfig, corpus):
    if cfg.pretrained_vectors:  # they stand in for the trained vectors
        return textwalk.load_word_vectors(file_lines(cfg.pretrained_vectors, "pretrained vectors", "word vectors"))
    return textwalk.train_skipgram(corpus, cfg.stage(textwalk.SkipGramConfig))


def _load_dataset(cfg: RunConfig):
    """The dataset, its labels in order, and the attribute table and class map, each None when not set."""
    dataset = harness.load_dataset(file_lines(cfg.features, "features"), file_lines(cfg.split, "split"))
    class_map = harness.parse_class_map(file_lines(cfg.class_map, "class map")) if cfg.class_map else None
    attributes = harness.parse_vector_table(file_lines(cfg.attributes, "attributes")) if cfg.attributes else None
    return dataset, sorted(dataset.seen_labels | dataset.unseen_labels), attributes, class_map


def _candidates(cfg: RunConfig, dataset) -> list[str]:
    return cfg.candidate_set().labels(dataset.seen_labels, dataset.unseen_labels)


def _eval(cfg: RunConfig, normalized, space, total_loss, corpus, vectors, dataset, encodings, model,
          predictions, seconds):
    """The report, and the per-class counts that its text form adds."""
    _ids, truth, predicted = predictions
    faithful = elembed.faithfulness(space, normalized, cfg.el_margin)
    spread = zslmap.candidate_spread(encodings, _candidates(cfg, dataset))
    kinds = Counter(ax.TAG for ax in normalized.axioms)
    macro, per_class, per_class_counts = harness.unseen_scores(predicted, truth, dataset.unseen_labels)
    report = MetricsReport(
        macro_unseen_accuracy=macro,
        sample_accuracy=harness.sample_accuracy(predicted, truth),
        per_class_accuracy=per_class,
        counts={
            "train_samples": int(dataset.rows_of(dataset.seen_labels).sum()),
            "test_samples": len(truth),
            "correct": sum(p == t for p, t in zip(predicted, truth)),
            "seen_classes": len(dataset.seen_labels),
            "unseen_classes": len(dataset.unseen_labels),
            "encoding_dim": encodings.dim,
            "el_nest_pairs": faithful.nest_pairs,
            "el_disjoint_pairs": faithful.disjoint_pairs,
            "w2v_corpus_tokens": sum(len(sentence) for sentence in corpus.sentences),
            "w2v_pairs": vectors.pairs,
            "w2v_vocab": len(vectors.vectors),
            **{tag: kinds[tag] for tag in BY_TAG},
        },
        config_echo=cfg.to_dict(),
        el_total_loss=total_loss,
        el_losses=space.train_losses,
        el_nest_fraction=faithful.nest_fraction,
        el_disjoint_fraction=faithful.disjoint_fraction,
        w2v_losses=vectors.train_losses,
        candidate_min_distance=spread[0],
        candidate_median_distance=spread[1],
        map_train_loss=model.train_loss,
        stage_seconds=seconds,
    )
    return report, per_class_counts


# The stages in run order, each name also its stage_seconds key and its
# subcommand.  Every function looks its callees up on their module when it
# runs, so a patched one runs.  ``seconds`` is the run's stage_seconds.
STAGE_TABLE = (
    Stage("parse", ("ontology",), (), ("ontology",),
          lambda cfg: parse_ontology(read_file(cfg.ontology, "ontology")),
          {"ontology.elf": lambda ontology: serialize_ontology(ontology)}, "parse and re-serialize an ontology"),
    Stage("normalize", (), ("ontology",), ("normalized",), lambda cfg, ontology: normalize(ontology),
          {"normalized.txt": lambda normalized: write_normalized(normalized)},
          "rewrite an ontology into normal form"),
    Stage("embed-el", (), ("normalized", "seconds"), ("space", "total_loss"), _embed_el,
          {"el_space.tsv": lambda space, _loss: elembed.export_space(space)}, "train concept ball embeddings"),
    Stage("walk", (), ("ontology",), ("corpus",),
          lambda cfg, ontology: textwalk.lexicalize(
              textwalk.random_walks(textwalk.project(ontology), cfg.stage(textwalk.WalkConfig)), ontology),
          {"corpus.txt": lambda corpus: textwalk.save_corpus(corpus)},
          "random-walk an ontology graph into a corpus"),
    Stage("w2v", ("pretrained_vectors",), ("corpus",), ("vectors",), _w2v,
          {"wordvecs.txt": lambda vectors: textwalk.save_word_vectors(vectors)}, "train word vectors on a corpus"),
    Stage("load-dataset", ("features", "split", "class_map", "attributes"), (),
          ("dataset", "labels", "attributes", "class_map"), _load_dataset, {}),
    Stage("encode", (), ("space", "vectors", "ontology", "attributes", "class_map", "labels"), ("encodings",),
          lambda cfg, space, vectors, ontology, attributes, class_map, labels: zslmap.encode_labels(
              labels, cfg.component_list(), space=space, word_vectors=vectors, ontology=ontology,
              attributes=attributes, class_map=class_map),
          {"encodings.tsv": lambda encodings: zslmap.save_encodings(encodings)}, "build label encodings"),
    Stage("train-map", (), ("encodings", "dataset"), ("model",),
          lambda cfg, encodings, dataset: zslmap.train_map(dataset, encodings, cfg.stage(zslmap.MapConfig)),
          {"model.txt": lambda model: zslmap.save_model(model)}, "fit the feature-to-encoding mapper"),
    Stage("predict", (), ("encodings", "model", "dataset"), ("predictions",),
          lambda cfg, encodings, model, dataset: zslmap.predict_test(model, dataset, encodings,
                                                                     _candidates(cfg, dataset)),
          {"predictions.tsv": lambda p: harness.write_predictions(p[0], p[2], p[1])},  # ids, truth, predicted
          "label test samples by nearest encoding"),
    Stage("eval", (), ("normalized", "space", "total_loss", "corpus", "vectors", "dataset", "encodings", "model",
                       "predictions", "seconds"), ("report", "per_class_counts"), _eval,
          {"report.txt": render_report, "report.json": lambda report, _counts: report_json(report)}),
)

# Every file run_pipeline writes into out_dir: the manifest, then each stage's
# artifacts, the last stage's first, so a run stopped while removing an earlier
# run's files leaves no manifest or report.
ARTIFACTS = ("manifest.txt", *(name for stage in reversed(STAGE_TABLE) for name in stage.artifacts))


def run_pipeline(cfg: RunConfig) -> MetricsReport:
    """Walk :data:`STAGE_TABLE`, keeping each value in memory; write artifacts plus a manifest to ``out_dir``.

    Every stage config was built, and so range-checked, with ``cfg`` itself.
    The stages run one after another, in the order of ``stage_seconds``; a
    package error escaping a stage is prefixed with the stage's name.  Every
    file of :data:`ARTIFACTS` that an earlier run left in ``out_dir`` is
    removed first, but one that is an input of this run, so a run that fails
    leaves only its own artifacts.
    """
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise DataError(f"out_dir {cfg.out_dir} is not a directory") from None
    kept = {Path(getattr(cfg, key)).resolve() for stage in STAGE_TABLE for key in stage.files if getattr(cfg, key)}
    for name in ARTIFACTS:
        path = out_dir / name
        if path.is_dir():
            raise DataError(f"out_dir {cfg.out_dir}: {name} is a directory")
        if path.resolve() not in kept:
            path.unlink(missing_ok=True)
    artifacts: dict[str, str] = {}
    seconds: dict[str, float] = {}
    values: dict[str, object] = {"seconds": seconds}
    for stage in STAGE_TABLE:
        start = time.perf_counter()
        try:
            made = stage(cfg, values)
            values.update(zip(stage.makes, made))
            for name, save in stage.artifacts.items():
                artifacts[name] = save(*made)
                (out_dir / name).write_text(artifacts[name])
        except OntozslError as exc:
            if not getattr(exc, "stage", None):
                exc.stage = stage.name
                exc.args = (f"{stage.name}: {exc}",)
            raise
        finally:
            seconds[stage.name] = time.perf_counter() - start

    manifest = "".join(
        f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n"
        for name, text in sorted(artifacts.items())
    )
    (out_dir / "manifest.txt").write_text(manifest)
    return values["report"]
