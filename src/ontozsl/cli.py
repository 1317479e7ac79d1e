"""Command-line front end.

One subcommand per pipeline stage plus ``synth`` for benchmark generation and
``pipeline`` for the whole run.  Every subcommand that takes a setting reads
it by its ``RunConfig`` key from ``--config FILE`` and ``--set key=value``
(:func:`_settings`) before it opens any input, so stage commands run with a
pipeline's settings write its artifacts; other flags name a file, ``--out``
or one of ``synth``'s sizes.  Exit codes: 0 on success, 1 for usage
problems, 2 for bad input data, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial
from pathlib import Path

from . import elembed, harness, pipeline, textwalk, zslmap
from .errors import NumericalError, OntozslError, RangeError
from .normalform import classify, normalize, read_normalized, write_normalized
from .ontology import parse_ontology, serialize_ontology
from .textio import file_lines, fmt, read_file, read_setting, unique

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> None:
    _write(args.out, serialize_ontology(parse_ontology(read_file(args.ontology, "ontology"))))


def cmd_normalize(args) -> None:
    ontology = parse_ontology(read_file(args.ontology, "ontology"))
    _write(args.out, write_normalized(normalize(ontology)))


def cmd_classify(args) -> None:
    if args.normalized is not None:
        normalized = read_normalized(read_file(args.normalized, "normalized axioms"))
    else:
        normalized = normalize(parse_ontology(read_file(args.ontology, "ontology")))
    pairs = sorted(classify(normalized))
    _write(args.out, "".join(f"{a}\t{b}\n" for a, b in pairs))


def _settings(args) -> pipeline.RunConfig:
    """The run settings: the defaults, then the ``--config`` file, then each ``--set key=value``."""
    cfg = pipeline.RunConfig()
    if args.config:
        cfg = pipeline.parse_config(read_file(args.config, "config"), cfg)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return pipeline.config_from_pairs(overrides, cfg)


def cmd_embed_el(args) -> None:
    cfg = _settings(args).stage(elembed.ElTrainConfig)
    normalized = read_normalized(read_file(args.normalized, "normalized axioms"))
    space = elembed.train_el(normalized, cfg)
    loss = elembed.total_loss(space, normalized, cfg)
    print(f"total_loss\t{fmt(loss)}", file=sys.stderr)
    _write(args.out, elembed.export_space(space))


def cmd_project(args) -> None:
    graph = textwalk.project(parse_ontology(read_file(args.ontology, "ontology")))
    _write(args.out, "".join(f"{s}\t{p}\t{t}\n" for s, p, t in sorted(graph.edges)))


def cmd_walk(args) -> None:
    cfg = _settings(args).stage(textwalk.WalkConfig)
    ontology = parse_ontology(read_file(args.ontology, "ontology"))
    walks = textwalk.random_walks(textwalk.project(ontology), cfg)
    corpus = textwalk.lexicalize(walks, ontology)
    _write(args.out, textwalk.save_corpus(corpus))


def cmd_w2v(args) -> None:
    cfg = _settings(args).stage(textwalk.SkipGramConfig)
    corpus = textwalk.load_corpus(file_lines(args.corpus, "corpus"))
    _write(args.out, textwalk.save_word_vectors(textwalk.train_skipgram(corpus, cfg)))


def cmd_encode(args) -> None:
    components = _settings(args).component_list()
    space = elembed.read_space(file_lines(args.space, "embedding space")) if args.space else None
    vectors = textwalk.load_word_vectors(file_lines(args.vectors, "word vectors")) if args.vectors else None
    ontology = parse_ontology(read_file(args.ontology, "ontology")) if args.ontology else None
    attributes = (
        harness.parse_vector_table(file_lines(args.attributes, "attributes")) if args.attributes else None
    )
    class_map = harness.parse_class_map(file_lines(args.class_map, "class map")) if args.class_map else None
    labels: dict[str, None] = {}
    for where, line in file_lines(args.labels, "labels"):
        labels[unique(labels, line.strip(), where, "label")] = None
    table = zslmap.encode_labels(
        list(labels),
        components,
        space=space,
        word_vectors=vectors,
        ontology=ontology,
        attributes=attributes,
        class_map=class_map,
    )
    _write(args.out, zslmap.save_encodings(table))


def cmd_train_map(args) -> None:
    cfg = _settings(args).stage(zslmap.MapConfig)
    table = zslmap.load_encodings(file_lines(args.encodings, "encodings"))
    dataset = harness.load_dataset(file_lines(args.features, "features"), file_lines(args.split, "split"))
    _write(args.out, zslmap.save_model(zslmap.train_map(dataset, table, cfg)))


def cmd_predict(args) -> None:
    candidate_set = _settings(args).candidate_set()
    table = zslmap.load_encodings(file_lines(args.encodings, "encodings"))
    model = zslmap.load_model(file_lines(args.model, "model"))
    dataset = harness.load_dataset(file_lines(args.features, "features"), file_lines(args.split, "split"))
    candidates = candidate_set.labels(dataset.seen_labels, dataset.unseen_labels)
    ids, truth, labels = zslmap.predict_test(model, dataset, table, candidates)
    _write(args.out, harness.write_predictions(ids, labels, truth))


def cmd_eval(args) -> None:
    _seen, unseen = harness.parse_split(file_lines(args.split, "split"))
    predictions, truth = harness.parse_predictions(file_lines(args.predictions, "predictions"))
    macro, per_class, _counts = harness.unseen_scores(predictions, truth, unseen)
    rows = [
        f"macro_unseen_accuracy\t{fmt(macro)}",
        f"sample_accuracy\t{fmt(harness.sample_accuracy(predictions, truth))}",
    ]
    rows.extend(f"{label}\t{fmt(per_class[label])}" for label in sorted(per_class))
    _write(args.out, "".join(row + "\n" for row in rows))


# Each gen_synthetic parameter, its flag and the flag's default.
_SYNTH_FLAGS = (("k_seen", "--k-seen", 8), ("k_unseen", "--k-unseen", 2), ("per_class", "--per-class", 30),
                ("p", "--features-dim", 16), ("noise", "--noise", 0.05), ("seed", "--seed", 0))


def cmd_synth(args) -> None:
    try:
        data = harness.gen_synthetic(**{name: getattr(args, name) for name, _, _ in _SYNTH_FLAGS})
    except RangeError as exc:
        raise exc.renamed({name: flag for name, flag, _ in _SYNTH_FLAGS}) from None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ontology.elf").write_text(serialize_ontology(data.ontology))
    (out / "features.tsv").write_text(harness.write_features(data.dataset.samples))
    (out / "split.txt").write_text(
        harness.write_split(data.dataset.seen_labels, data.dataset.unseen_labels)
    )
    (out / "attributes.tsv").write_text(harness.write_vector_table(data.attributes))
    (out / "classmap.tsv").write_text(
        harness.write_class_map({label: label for label in sorted(data.attributes)})
    )
    print(f"wrote synthetic benchmark to {out}", file=sys.stderr)


def cmd_pipeline(args) -> None:
    cfg = _settings(args)
    report = pipeline.run_pipeline(cfg)
    print(f"macro_unseen_accuracy\t{report.macro_unseen_accuracy:.6f}")
    print(f"sample_accuracy\t{report.sample_accuracy:.6f}")
    print(f"report written to {Path(cfg.out_dir) / 'report.txt'}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_number(p: argparse.ArgumentParser, flag: str, default: float, **kwargs) -> None:
    """A numeric flag read like a config key of the same type (see ``textio.read_setting``)."""
    p.add_argument(flag, default=default, type=partial(read_setting, like=default, where=flag), **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="ontozsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, func, help_text: str, out: bool = True, settings: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if out:
            p.add_argument("--out", default=None)
        if settings:  # read by _settings
            p.add_argument("--config", default=None, help="file of key = value settings")
            p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        return p

    p = add("parse", cmd_parse, "parse and re-serialize an ontology")
    p.add_argument("ontology")

    p = add("normalize", cmd_normalize, "rewrite an ontology into normal form")
    p.add_argument("ontology")

    p = add("classify", cmd_classify, "derive all subsumptions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ontology", default=None)
    source.add_argument("--normalized", default=None)

    p = add("embed-el", cmd_embed_el, "train concept ball embeddings", settings=True)
    p.add_argument("--normalized", required=True)

    p = add("project", cmd_project, "project an ontology onto graph edges")
    p.add_argument("ontology")

    p = add("walk", cmd_walk, "random-walk an ontology graph into a corpus", settings=True)
    p.add_argument("ontology")

    p = add("w2v", cmd_w2v, "train word vectors on a corpus", settings=True)
    p.add_argument("--corpus", required=True)

    p = add("encode", cmd_encode, "build label encodings", settings=True)
    p.add_argument("--labels", required=True, help="file with one label per line")
    p.add_argument("--space", default=None)
    p.add_argument("--vectors", default=None)
    p.add_argument("--ontology", default=None)
    p.add_argument("--attributes", default=None)
    p.add_argument("--class-map", default=None)

    p = add("train-map", cmd_train_map, "fit the feature-to-encoding mapper", settings=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encodings", required=True)

    p = add("predict", cmd_predict, "label test samples by nearest encoding", settings=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encodings", required=True)
    p.add_argument("--model", required=True)

    p = add("eval", cmd_eval, "score a predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", required=True)

    p = add("synth", cmd_synth, "generate a synthetic benchmark", out=False)
    for name, flag, default in _SYNTH_FLAGS:
        _add_number(p, flag, default, dest=name, metavar=flag[2:].replace("-", "_").upper())
    p.add_argument("--out-dir", required=True)

    add("pipeline", cmd_pipeline, "run every stage from a config file", out=False, settings=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OntozslError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
