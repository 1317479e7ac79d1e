"""Command-line front end.

One subcommand per pipeline stage plus ``synth`` for benchmark generation and
``pipeline`` for the whole run.  A stage subcommand runs its entry of
:data:`pipeline.STAGE_TABLE` on values read from the files its flags name.
Every subcommand that takes a setting reads it by its ``RunConfig`` key from
``--config FILE`` and ``--set key=value`` (:func:`_settings`) before it opens
any input, so stage commands run with a pipeline's settings write its
artifacts; other flags name a file, ``--out`` or one of ``synth``'s sizes.
Exit codes: 0 on success, 1 for usage problems, 2 for bad input data, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial
from pathlib import Path

from . import elembed, harness, pipeline, textwalk, zslmap
from .errors import DataError, NumericalError, OntozslError, RangeError
from .normalform import classify, normalize, read_normalized
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
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise DataError(f"--out {path}: {exc.strerror}") from None


def _labels(rows) -> list[str]:
    labels: dict[str, None] = {}
    for where, line in rows:
        labels[unique(labels, line.strip(), where, "label")] = None
    return list(labels)


# How a stage subcommand reads each value a stage reads: from the file that its
# flag of the same name gives, the dataset from two.
_READERS = {
    "ontology": lambda args: parse_ontology(read_file(args.ontology, "ontology")),
    "normalized": lambda args: read_normalized(read_file(args.normalized, "normalized axioms")),
    "space": lambda args: elembed.read_space(file_lines(args.space, "embedding space")),
    "corpus": lambda args: textwalk.load_corpus(file_lines(args.corpus, "corpus")),
    "vectors": lambda args: textwalk.load_word_vectors(file_lines(args.vectors, "word vectors")),
    "attributes": lambda args: harness.parse_vector_table(file_lines(args.attributes, "attributes")),
    "class_map": lambda args: harness.parse_class_map(file_lines(args.class_map, "class map")),
    "labels": lambda args: _labels(file_lines(args.labels, "labels")),
    "encodings": lambda args: zslmap.load_encodings(file_lines(args.encodings, "encodings")),
    "model": lambda args: zslmap.load_model(file_lines(args.model, "model")),
    "dataset": lambda args: harness.load_dataset(file_lines(args.features, "features"),
                                                 file_lines(args.split, "split")),
    "seconds": lambda args: {},  # a subcommand reports no stage times
}


def _read(args, name: str):
    """The value ``name``, or None when the optional flag of that name is not given."""
    return None if vars(args).get(name, "") is None else _READERS[name](args)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _settings(args) -> pipeline.RunConfig:
    """The run settings: the defaults, then the ``--config`` file, then each ``--set key=value``."""
    cfg = pipeline.RunConfig()
    if getattr(args, "config", None):
        cfg = pipeline.parse_config(read_file(args.config, "config"), cfg)
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return pipeline.config_from_pairs(overrides, cfg)


def cmd_stage(stage: pipeline.Stage, args) -> None:
    """Run one stage on values read from files, writing its artifact to ``--out``.

    A flag named after an input file key of the stage (``files``) sets that key.
    Each further value made, such as embed-el's ``total_loss``, goes to stderr.
    """
    cfg = pipeline.config_from_pairs({k: vars(args)[k] for k in stage.files if k in vars(args)}, _settings(args))
    made = stage(cfg, {name: _read(args, name) for name in stage.reads})
    for name, value in zip(stage.makes[1:], made[1:]):
        print(f"{name}\t{fmt(value)}", file=sys.stderr)
    (save,) = stage.artifacts.values()
    _write(args.out, save(*made))


def cmd_classify(args) -> None:
    normalized = _read(args, "normalized") or normalize(_read(args, "ontology"))
    pairs = sorted(classify(normalized))
    _write(args.out, "".join(f"{a}\t{b}\n" for a, b in pairs))


def cmd_project(args) -> None:
    graph = textwalk.project(_read(args, "ontology"))
    _write(args.out, "".join(f"{s}\t{p}\t{t}\n" for s, p, t in sorted(graph.edges)))


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

    stages = {stage.name: stage for stage in pipeline.STAGE_TABLE}

    def add(name: str, func=None, help_text: str | None = None, out: bool = True, settings: bool = False):
        """A subcommand; without ``func``, the stage of that name runs."""
        if func is None:
            func, help_text = partial(cmd_stage, stages[name]), stages[name].help
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if out:
            p.add_argument("--out", default=None)
        if settings:  # read by _settings
            p.add_argument("--config", default=None, help="file of key = value settings")
            p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        return p

    p = add("parse")
    p.add_argument("ontology")

    p = add("normalize")
    p.add_argument("ontology")

    p = add("classify", cmd_classify, "derive all subsumptions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ontology", default=None)
    source.add_argument("--normalized", default=None)

    p = add("embed-el", settings=True)
    p.add_argument("--normalized", required=True)

    p = add("project", cmd_project, "project an ontology onto graph edges")
    p.add_argument("ontology")

    p = add("walk", settings=True)
    p.add_argument("ontology")

    p = add("w2v", settings=True)
    p.add_argument("--corpus", required=True)

    p = add("encode", settings=True)
    p.add_argument("--labels", required=True, help="file with one label per line")
    p.add_argument("--space", default=None)
    p.add_argument("--vectors", default=None)
    p.add_argument("--ontology", default=None)
    p.add_argument("--attributes", default=None)
    p.add_argument("--class-map", default=None)

    p = add("train-map", settings=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--encodings", required=True)

    p = add("predict", settings=True)
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
