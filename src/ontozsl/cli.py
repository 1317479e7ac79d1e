"""Command-line front end.

One subcommand per pipeline stage plus ``synth`` for benchmark generation and
``pipeline`` for the whole run.  Exit codes: 0 on success, 1 for usage
problems, 2 for bad input data, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import elembed, harness, pipeline, textwalk, zslmap
from .errors import DataError, NumericalError, OntozslError
from .normalform import classify, normalize, read_normalized, write_normalized
from .ontology import parse_ontology, serialize_ontology, validate
from .textio import fmt, read_file
from .zslmap import CandidateSet, Component, Distance

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
    ontology = parse_ontology(read_file(args.ontology, "ontology"))
    problems = validate(ontology)
    if problems:
        raise DataError("; ".join(v.reason for v in problems))
    _write(args.out, serialize_ontology(ontology))


def cmd_normalize(args) -> None:
    ontology = parse_ontology(read_file(args.ontology, "ontology"))
    _write(args.out, write_normalized(normalize(ontology)))


def cmd_classify(args) -> None:
    if args.normalized:
        normalized = read_normalized(read_file(args.normalized, "normalized axioms"))
    else:
        normalized = normalize(parse_ontology(read_file(args.ontology, "ontology")))
    pairs = sorted(classify(normalized))
    _write(args.out, "".join(f"{a}\t{b}\n" for a, b in pairs))


def _el_config(args) -> elembed.ElTrainConfig:
    return elembed.ElTrainConfig(
        dim=args.dim,
        margin=args.margin,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        negatives=args.negatives,
        min_radius=args.min_radius,
        seed=args.seed,
    )


def cmd_embed_el(args) -> None:
    normalized = read_normalized(read_file(args.normalized, "normalized axioms"))
    cfg = _el_config(args)
    space = elembed.train_el(normalized, cfg)
    loss = elembed.total_loss(space, normalized, cfg)
    print(f"total_loss\t{fmt(loss)}", file=sys.stderr)
    _write(args.out, elembed.export_space(space))


def cmd_project(args) -> None:
    graph = textwalk.project(parse_ontology(read_file(args.ontology, "ontology")))
    lines = [f"{s}\t{p}\t{t}" for s, p, t in sorted(graph.edges)]
    _write(args.out, "".join(line + "\n" for line in lines))


def cmd_walk(args) -> None:
    ontology = parse_ontology(read_file(args.ontology, "ontology"))
    graph = textwalk.project(ontology)
    cfg = textwalk.WalkConfig(args.walks_per_node, args.walk_length, args.seed)
    walks = textwalk.random_walks(graph, cfg)
    if args.raw_out:
        _write(args.raw_out, "".join(" ".join(w) + "\n" for w in walks))
    corpus = textwalk.lexicalize(walks, ontology)
    _write(args.out, textwalk.save_corpus(corpus))


def cmd_w2v(args) -> None:
    corpus = textwalk.load_corpus(read_file(args.corpus, "corpus"))
    cfg = textwalk.SkipGramConfig(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        learning_rate=args.lr,
        min_count=args.min_count,
        seed=args.seed,
    )
    init = textwalk.load_word_vectors(read_file(args.init, "pretrained vectors")) if args.init else None
    _write(args.out, textwalk.save_word_vectors(textwalk.train_skipgram(corpus, cfg, init=init)))


def cmd_encode(args) -> None:
    try:
        components = tuple(Component(c.strip()) for c in args.components.split(",") if c.strip())
    except ValueError:
        raise DataError(f"unknown encoding component in {args.components!r}") from None
    space = elembed.import_space(read_file(args.space, "embedding space")) if args.space else None
    vectors = textwalk.load_word_vectors(read_file(args.vectors, "word vectors")) if args.vectors else None
    ontology = parse_ontology(read_file(args.ontology, "ontology")) if args.ontology else None
    attributes = (
        harness.parse_vector_table(read_file(args.attributes, "attributes"), "attributes")
        if args.attributes
        else None
    )
    class_map = harness.parse_class_map(read_file(args.class_map, "class map")) if args.class_map else None
    labels = [line.strip() for line in read_file(args.labels, "labels").splitlines() if line.strip()]
    table = zslmap.encode_labels(
        labels,
        components,
        space=space,
        word_vectors=vectors,
        ontology=ontology,
        attributes=attributes,
        class_map=class_map,
        normalize_components=not args.no_normalize,
    )
    _write(args.out, zslmap.save_encodings(table))


def _dataset_matrices(features_text, split_text, table):
    dataset = harness.load_dataset(features_text, split_text)
    train = dataset.train_samples()
    if not train:
        raise DataError("no training samples with seen labels")
    x = np.stack([s.features for s in train], axis=1)
    missing = sorted({s.label for s in train} - set(table.encodings))
    if missing:
        raise DataError(f"labels without encodings: {', '.join(missing)}")
    z = np.stack([table.encodings[s.label] for s in train], axis=1)
    return dataset, x, z


def cmd_train_map(args) -> None:
    table = zslmap.load_encodings(read_file(args.encodings, "encodings"))
    _dataset, x, z = _dataset_matrices(
        read_file(args.features, "features"), read_file(args.split, "split"), table
    )
    if args.mapper == "sae":
        _write(args.out, zslmap.save_model(zslmap.train_sae(x, z, args.sae_lambda)))
    else:
        _write(args.out, zslmap.save_model(zslmap.train_ridge(x, z, args.alpha), alpha=args.alpha))


def cmd_predict(args) -> None:
    table = zslmap.load_encodings(read_file(args.encodings, "encodings"))
    model = zslmap.load_model(read_file(args.model, "model"))
    dataset = harness.load_dataset(read_file(args.features, "features"), read_file(args.split, "split"))
    cfg = zslmap.PredictConfig(Distance(args.distance), CandidateSet(args.candidates))
    test = dataset.test_samples()
    if not test:
        raise DataError("no test samples with unseen labels")
    gx = zslmap.map_features(model, np.stack([s.features for s in test], axis=1))
    labels = zslmap.predict(
        gx, table, cfg, sorted(dataset.seen_labels), sorted(dataset.unseen_labels)
    )
    _write(args.out, harness.write_predictions(test, labels))


def cmd_eval(args) -> None:
    _seen, unseen = harness.parse_split(read_file(args.split, "split"))
    predictions, truth = harness.parse_predictions(read_file(args.predictions, "predictions"))
    per_class = harness.per_class_accuracy(predictions, truth, unseen)
    macro = sum(per_class.values()) / len(per_class)
    lines = [
        f"macro_unseen_accuracy\t{fmt(macro)}",
        f"sample_accuracy\t{fmt(harness.sample_accuracy(predictions, truth))}",
    ]
    lines.extend(f"{label}\t{fmt(per_class[label])}" for label in sorted(per_class))
    _write(args.out, "".join(line + "\n" for line in lines))


def cmd_synth(args) -> None:
    data = harness.gen_synthetic(
        args.k_seen, args.k_unseen, args.per_class, args.features_dim, args.noise, args.seed
    )
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
    cfg = pipeline.RunConfig()
    if args.config:
        cfg = pipeline.parse_config(read_file(args.config, "config"), cfg)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    cfg = pipeline.config_from_pairs(overrides, cfg)
    report = pipeline.run_pipeline(cfg)
    print(f"macro_unseen_accuracy\t{report.macro_unseen_accuracy:.6f}")
    print(f"sample_accuracy\t{report.sample_accuracy:.6f}")
    print(f"report written to {Path(cfg.out_dir) / 'report.txt'}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ontozsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("parse", cmd_parse, "parse and re-serialize an ontology")
    p.add_argument("ontology")
    p.add_argument("--out", default=None)

    p = add("normalize", cmd_normalize, "rewrite an ontology into normal form")
    p.add_argument("ontology")
    p.add_argument("--out", default=None)

    p = add("classify", cmd_classify, "derive all subsumptions")
    p.add_argument("--ontology", default=None)
    p.add_argument("--normalized", default=None)
    p.add_argument("--out", default=None)

    p = add("embed-el", cmd_embed_el, "train concept ball embeddings")
    p.add_argument("--normalized", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--negatives", type=int, default=1)
    p.add_argument("--min-radius", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)

    p = add("project", cmd_project, "project an ontology onto graph edges")
    p.add_argument("ontology")
    p.add_argument("--out", default=None)

    p = add("walk", cmd_walk, "random-walk an ontology graph into a corpus")
    p.add_argument("ontology")
    p.add_argument("--out", default=None)
    p.add_argument("--raw-out", default=None, help="also write walks before lexicalization")
    p.add_argument("--walks-per-node", type=int, default=10)
    p.add_argument("--walk-length", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    p = add("w2v", cmd_w2v, "train word vectors on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--init", default=None, help="pretrained vectors to fine-tune")
    p.add_argument("--dim", type=int, default=25)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = add("encode", cmd_encode, "build label encodings")
    p.add_argument("--labels", required=True, help="file with one label per line")
    p.add_argument("--components", default="el_center")
    p.add_argument("--space", default=None)
    p.add_argument("--vectors", default=None)
    p.add_argument("--ontology", default=None)
    p.add_argument("--attributes", default=None)
    p.add_argument("--class-map", default=None)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", default=None)

    p = add("train-map", cmd_train_map, "fit the feature-to-encoding mapper")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encodings", required=True)
    p.add_argument("--mapper", choices=("sae", "ridge"), default="sae")
    p.add_argument("--sae-lambda", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=1e-3)
    p.add_argument("--out", default=None)

    p = add("predict", cmd_predict, "label test samples by nearest encoding")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encodings", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--distance", choices=[d.value for d in Distance], default="l2")
    p.add_argument("--candidates", choices=[c.value for c in CandidateSet], default="unseen")
    p.add_argument("--out", default=None)

    p = add("eval", cmd_eval, "score a predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None)

    p = add("synth", cmd_synth, "generate a synthetic benchmark")
    p.add_argument("--k-seen", type=int, default=8)
    p.add_argument("--k-unseen", type=int, default=2)
    p.add_argument("--per-class", type=int, default=30)
    p.add_argument("--features-dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)

    p = add("pipeline", cmd_pipeline, "run every stage from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        if args.command == "classify" and not (args.ontology or args.normalized):
            raise _UsageError("classify needs --ontology or --normalized")
        args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OntozslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
