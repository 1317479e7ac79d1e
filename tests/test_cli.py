"""Exit codes and subcommand behaviour, driven in-process through main()."""

import dataclasses
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ontozsl
from conftest import deep_some, wide_and
from ontozsl import cli, harness, pipeline, textio, textwalk, zslmap
from ontozsl.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from ontozsl.normalform import normalize, write_normalized
from ontozsl.ontology import serialize_ontology
from ontozsl.pipeline import STAGES, RunConfig

GOOD_ONTOLOGY = """Concept(A)
Concept(B)
Concept(C)
Relation(r)
SubClassOf(A Some(r B))
SubClassOf(B C)
Label(A "alpha")
"""


@pytest.fixture
def elf(tmp_path):
    path = tmp_path / "o.elf"
    path.write_text(GOOD_ONTOLOGY)
    return str(path)


def test_no_arguments_shows_help(capsys):
    assert main([]) == EXIT_USAGE
    assert "command" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_parse_round_trips_to_stdout(elf, capsys):
    assert main(["parse", elf]) == EXIT_OK
    out = capsys.readouterr().out
    assert "SubClassOf(A Some(r B))" in out
    assert out.startswith("Concept(A)\n")


def test_parse_reports_error_positions(tmp_path, capsys):
    path = tmp_path / "bad.elf"
    path.write_text("SubClassOf(A B)\n")
    assert main(["parse", str(path)]) == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_missing_file_is_a_data_error(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "nope.elf")]) == EXIT_DATA
    assert "not found" in capsys.readouterr().err
    assert main(["parse", str(tmp_path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: ontology file {tmp_path} is a directory\n"


def test_normalize_then_classify_from_file(elf, tmp_path, capsys):
    normalized = tmp_path / "n.txt"
    assert main(["normalize", elf, "--out", str(normalized)]) == EXIT_OK
    assert "NF2 A r B" in normalized.read_text()
    assert main(["classify", "--normalized", str(normalized)]) == EXIT_OK
    pairs = {tuple(l.split("\t")) for l in capsys.readouterr().out.splitlines()}
    assert ("B", "C") in pairs
    assert ("A", "C") not in pairs  # existential on the left does not chain


def test_classify_requires_an_input(capsys):
    assert main(["classify"]) == EXIT_USAGE
    assert "one of the arguments --ontology --normalized is required" in capsys.readouterr().err


def test_classify_rejects_two_inputs(elf, tmp_path, capsys):
    normalized = tmp_path / "n.txt"
    normalized.write_text("NF1 B C\n")
    assert main(["classify", "--ontology", elf, "--normalized", str(normalized)]) == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err


def test_classify_straight_from_ontology(elf, capsys):
    assert main(["classify", "--ontology", elf]) == EXIT_OK
    assert "B\tC" in capsys.readouterr().out


def test_project_lists_sorted_edges(elf, capsys):
    assert main(["project", elf]) == EXIT_OK
    assert capsys.readouterr().out == "A\tr\tB\nB\tsubClassOf\tC\n"


def test_walk_corpus_is_the_walks_then_the_label_sentence(elf, tmp_path, capsys):
    code = main(["walk", elf, "--set", "walks_per_node=2"])
    assert code == EXIT_OK
    *walks, label = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(walks) == 6
    for walk in walks:
        assert walk[0] in {"A", "B", "C"}
    assert label == ["A", "alpha"]
    assert main(["walk", elf, "--raw-out", str(tmp_path / "raw.txt")]) == EXIT_USAGE


def test_encode_word_falls_back_to_the_label_words_of_a_plain_vector_file(tmp_path, capsys):
    data = harness.gen_synthetic(4, 2, 2, seed=0)
    (tmp_path / "o.elf").write_text(serialize_ontology(data.ontology))
    labels = sorted(data.dataset.seen_labels | data.dataset.unseen_labels)
    (tmp_path / "labels.txt").write_text("".join(label + "\n" for label in labels))
    rng = np.random.default_rng(0)
    words = {word: rng.normal(size=3) for word in ["class", *(f"{i:02d}" for i in range(6))]}
    argv = ["encode", "--labels", str(tmp_path / "labels.txt"), "--set", "components=word",
            "--vectors", str(tmp_path / "vecs.txt"), "--ontology", str(tmp_path / "o.elf")]

    (tmp_path / "vecs.txt").write_text(textwalk.save_word_vectors(textwalk.WordVectors(3, words)))
    assert main([*argv, "--out", str(tmp_path / "e.tsv")]) == EXIT_OK
    table = zslmap.load_encodings(textio.file_lines(str(tmp_path / "e.tsv"), "encodings"))
    for i, label in enumerate(labels):  # label "class 0i" has no vector of its own
        mean = (words["class"] + words[f"{i:02d}"]) / 2
        np.testing.assert_allclose(table.encodings[label], mean / np.linalg.norm(mean))

    (tmp_path / "vecs.txt").write_text("1 3\nother 1 2 3\n")
    assert main(argv) == EXIT_DATA
    assert "no word vector for 'Class_00' nor for any of its words (class, 00)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "walk", "pipeline"])
def test_empty_label_text_is_a_data_error_at_its_line_and_column(tmp_path, capsys, command):
    path = tmp_path / "empty.elf"
    path.write_text('Concept(A)\nLabel(A "")\n')
    argv = [command, str(path)]
    if command == "pipeline":
        argv = ["pipeline", "--set", f"ontology={path}", "--set", f"out_dir={tmp_path / 'run'}"]
    assert main(argv) == EXIT_DATA
    assert "line 2, col 9: empty annotation text" in capsys.readouterr().err


def test_w2v_requires_a_corpus(capsys):
    assert main(["w2v"]) == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--init", "--negatives", "--lr"])
def test_w2v_flags_of_the_removed_skipgram_trainer_are_usage_errors(tmp_path, capsys, flag):
    corpus, out = tmp_path / "corpus.txt", tmp_path / "vecs.txt"
    corpus.write_text("sun moon star\n")
    assert main(["w2v", "--corpus", str(corpus), "--out", str(out), flag, "1"]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


def test_encode_rejects_unknown_component(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("A\n")
    assert main(["encode", "--labels", str(labels), "--set", "components=plasma"]) == EXIT_DATA
    assert "plasma" in capsys.readouterr().err


def test_encode_and_pipeline_reject_a_component_list_alike(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("A\n")
    for components in ("bogus", "", "word,word"):
        assert main(["encode", "--labels", str(labels), "--set", f"components={components}"]) == EXIT_DATA
        from_encode = capsys.readouterr().err
        assert main(["pipeline", "--set", f"components={components}"]) == EXIT_DATA
        assert capsys.readouterr().err == from_encode


def test_eval_without_unseen_labels_is_a_data_error(tmp_path, capsys):
    split = tmp_path / "s.txt"
    split.write_text("[seen]\nA\n[unseen]\n")
    preds = tmp_path / "p.tsv"
    preds.write_text("x1\tA\tA\n")
    assert main(["eval", "--predictions", str(preds), "--split", str(split)]) == EXIT_DATA
    assert "no unseen labels" in capsys.readouterr().err


def test_eval_rejects_malformed_predictions(tmp_path, capsys):
    split = tmp_path / "s.txt"
    split.write_text("[seen]\na\n[unseen]\nb\n")
    preds = tmp_path / "p.tsv"
    preds.write_text("x1\tb\n")
    assert main(["eval", "--predictions", str(preds), "--split", str(split)]) == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_pipeline_set_needs_key_value(capsys):
    assert main(["pipeline", "--set", "el_dim"]) == EXIT_USAGE
    assert "el_dim" in capsys.readouterr().err


def test_pipeline_unknown_key_is_a_data_error(capsys):
    assert main(["pipeline", "--set", "warp_drive=1"]) == EXIT_DATA


def test_the_distance_setting_is_gone(tmp_path, capsys):
    """Prediction is L2 only: ``distance`` is an unknown config key and ``predict --distance`` a usage error."""
    config, out = tmp_path / "run.cfg", tmp_path / "run"
    config.write_text(f"out_dir = {out}\ndistance = l2\n")
    assert main(["pipeline", "--config", str(config)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: config line 2: unknown config key 'distance'\n"
    assert not out.exists()
    argv = ["predict", "--features", "f", "--split", "s", "--encodings", "e", "--model", "m"]
    assert main([*argv, "--distance", "l2", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --distance l2\n"
    assert not out.exists()


def test_full_command_chain(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(
        [
            "synth",
            "--k-seen", "3",
            "--k-unseen", "1",
            "--per-class", "4",
            "--features-dim", "8",
            "--out-dir", str(data_dir),
        ]
    ) == EXIT_OK

    elf = str(data_dir / "ontology.elf")
    normalized = tmp_path / "n.txt"
    assert main(["normalize", elf, "--out", str(normalized)]) == EXIT_OK

    space = tmp_path / "space.tsv"
    assert main(
        [
            "embed-el",
            "--normalized", str(normalized),
            "--out", str(space),
            "--set", "el_dim=8",
            "--set", "el_epochs=60",
            "--set", "el_batch=16",
        ]
    ) == EXIT_OK

    corpus = tmp_path / "corpus.txt"
    assert main(["walk", elf, "--out", str(corpus), "--set", "walks_per_node=3"]) == EXIT_OK

    vectors = tmp_path / "vecs.txt"
    assert main(
        ["w2v", "--corpus", str(corpus), "--out", str(vectors), "--set", "w2v_dim=5", "--set", "w2v_epochs=2"]
    ) == EXIT_OK

    seen, unseen = harness.parse_split(textio.file_lines(str(data_dir / "split.txt"), "split"))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(name + "\n" for name in sorted(seen | unseen)))
    encodings = tmp_path / "e.tsv"
    assert main(
        [
            "encode",
            "--labels", str(labels),
            "--set", "components=el_center",
            "--space", str(space),
            "--out", str(encodings),
        ]
    ) == EXIT_OK

    model = tmp_path / "model.txt"
    assert main(
        [
            "train-map",
            "--features", str(data_dir / "features.tsv"),
            "--split", str(data_dir / "split.txt"),
            "--encodings", str(encodings),
            "--set", "mapper=ridge",
            "--set", "ridge_alpha=1e-6",
            "--out", str(model),
        ]
    ) == EXIT_OK

    predictions = tmp_path / "preds.tsv"
    assert main(
        [
            "predict",
            "--features", str(data_dir / "features.tsv"),
            "--split", str(data_dir / "split.txt"),
            "--encodings", str(encodings),
            "--model", str(model),
            "--out", str(predictions),
        ]
    ) == EXIT_OK
    lines = predictions.read_text().splitlines()
    assert len(lines) == 4  # one per unseen test sample
    assert all(len(line.split("\t")) == 3 for line in lines)

    capsys.readouterr()
    assert main(
        ["eval", "--predictions", str(predictions), "--split", str(data_dir / "split.txt")]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("macro_unseen_accuracy\t")
    macro = float(out.splitlines()[0].split("\t")[1])
    assert 0.0 <= macro <= 1.0


def test_synth_writes_the_same_bytes(tmp_path):
    """The default synthetic benchmark, file by file, as sha256 digests of its text."""
    assert main(["synth", "--out-dir", str(tmp_path)]) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == {
        "attributes.tsv": "145f531249bec5719de852b5304cadd6162c78813aca26b14fa6f4f545fd6a5c",
        "classmap.tsv": "c19a86e49a0eb1e59057ab95990e57439358f31a35c8a74b2fd03b80c3c3954a",
        "features.tsv": "b766c63eef6855e3bbc4ed1f38f75ea75907fbc93b0194a2a5557127fd41351f",
        "ontology.elf": "fca273056b4a8faf69086eebe936e67faf4522a84a02332d78f266b13d3f419d",
        "split.txt": "19aee8c7ff8e0e51fb3c50a706bf3d095cf069951d7e9658fa7f8daa457ba1da",
    }


def test_pipeline_subcommand_runs_from_config(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["synth", "--k-seen", "3", "--k-unseen", "1", "--per-class", "3",
                 "--features-dim", "8", "--out-dir", str(data_dir)]) == EXIT_OK
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""# tiny smoke run
ontology = {data_dir / 'ontology.elf'}
features = {data_dir / 'features.tsv'}
split = {data_dir / 'split.txt'}
attributes = {data_dir / 'attributes.tsv'}
out_dir = {tmp_path / 'run'}
el_dim = 8
el_epochs = 40
walks_per_node = 3
w2v_dim = 5
w2v_epochs = 2
"""
    )
    assert main(["pipeline", "--config", str(config), "--set", "seed=1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("macro_unseen_accuracy\t")
    assert (tmp_path / "run" / "report.json").exists()


def test_a_config_file_key_set_twice_exits_2_but_repeated_set_flags_override(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 1\nseed = 2\n")
    assert main(["pipeline", "--config", str(config)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: config line 2: config key 'seed' appears twice\n"
    runs = []

    def run_pipeline(cfg):
        runs.append(cfg)
        raise ontozsl.DataError("not run")

    monkeypatch.setattr(pipeline, "run_pipeline", run_pipeline)
    config.write_text("seed = 1\n")
    assert main(["pipeline", "--config", str(config), "--set", "seed=2", "--set", "seed=3"]) == EXIT_DATA
    assert [cfg.seed for cfg in runs] == [3]


GOOD_INPUTS = {
    "features": "x0\ta\t1,0\nx1\tb\t0,1\n",
    "split": "[seen]\na\n[unseen]\nb\n",
    "encodings": "#components\tattribute\na\t1,0\nb\t0,1\n",
    "model": "#kind\tsae\t0.5\n#shape\t2\t2\n1,0\n0,1\n",
    "attributes": "a\t1,0\nb\t0,1\n",
    "classmap": "a\ta\nb\tb\n",
    "labels": "a\nb\n",
    "predictions": "x0\ta\ta\nx1\tb\tb\n",
}


@pytest.mark.parametrize(
    "name, text",
    [
        ("features", "x0\ta\t1,0\nx1\tb\tnan,1\n"),
        ("attributes", "a\t1,0\nb\tx-0.05,1\n"),
        ("model", "#kind\tsae\n#shape\t2\t2\n1,0\n0,1\n"),
        ("model", "#kind\tsae\t0.5\n#shape\tfoo\t1\n1\n"),
        ("encodings", "#components\tbogus\na\t1,0\nb\t0,1\n"),
        ("ontology", deep_some(1200)),
        ("ontology", wide_and(600)),
        ("attributes", "a\t1,0\na\t0,1\n"),
        ("classmap", "a\ta\na\tb\n"),
        ("encodings", "#components\tattribute\na\t1,0\na\t0,1\n"),
        ("features", "x0\ta\t1,0\nx0\tb\t0,1\n"),
        ("encodings", "#components\tattribute\n#components\tel_center\na\t1,0\nb\t0,1\n"),
        ("predictions", "x1\tb\tb\nx1\ta\tb\nx2\ta\ta\n"),
        ("model", "#kind\tsae\t0.5\n#shape\t2\n1,0\n0,1\n"),
    ],
    ids=["nan-feature", "bad-attribute", "sae-without-lambda", "non-integer-shape", "unknown-component",
         "deep-some", "wide-and", "repeated-attribute", "repeated-class-map-label",
         "repeated-encoding", "repeated-sample-id", "second-components-header", "repeated-prediction-id",
         "one-field-shape"],
)
def test_malformed_numeric_files_exit_2_without_traceback(tmp_path, name, text):
    paths = {}
    for key, content in {**GOOD_INPUTS, name: text}.items():
        paths[key] = tmp_path / key
        paths[key].write_text(content)
    if name == "ontology":
        argv = ["parse", paths["ontology"]]
    elif name == "predictions":
        argv = ["eval", "--predictions", paths["predictions"], "--split", paths["split"]]
    elif name in ("attributes", "classmap"):
        argv = ["encode", "--labels", paths["labels"], "--set", "components=attribute",
                "--attributes", paths["attributes"], "--class-map", paths["classmap"]]
    else:
        argv = ["predict"] + [
            arg for key in ("features", "split", "encodings", "model") for arg in (f"--{key}", paths[key])
        ]
    env = {**os.environ, "PYTHONPATH": str(Path(ontozsl.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ontozsl.cli", *map(str, argv)], capture_output=True, text=True, env=env
    )
    assert done.returncode == EXIT_DATA, done.stderr
    assert "Traceback" not in done.stderr
    assert "line " in done.stderr


# One bad row per tabular file, the command that reads it and the error's start.
BAD_ROWS = {
    "features": ("x0\ta\t1,0\nx1\tb\t1,q\n", "features line 2: "),
    "split": ("[seen]\na\n\n[unseen]\n[other]\nb\n", "split line 5: "),
    "encodings": ("#components\tattribute\na\t1,0\nb\t0,1,2\n", "encodings line 3: "),
    "model": ("#kind\tsae\t0.5\n#shape\t2\t2\n1,0\n0,q\n", "model line 4: "),
    "predictions": ("x0\ta\ta\nx1\tb\n", "predictions line 2: "),
    "attributes": ("a\t1,0\nb\tnan,1\n", "attributes line 2: "),
    "classmap": ("a\ta\n\nb\n", "class map line 3: "),
    "labels": ("a\nb\na\n", "labels line 3: label 'a' appears twice"),
    "space": ("#dim\t2\nC\ta\t1,0\t0.1\nR\tr\t1\n", "embedding space line 3: "),
    "vectors": ("2 2\na 1 0\nb 0 q\n", "word vectors line 3: "),
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_every_tabular_file_names_itself_and_the_line(tmp_path, capsys, name):
    paths = {}
    good = {**GOOD_INPUTS, "space": "#dim\t2\nC\ta\t1,0\t0.1\n", "vectors": "1 2\na 1 0\n"}
    for key, content in {**good, name: BAD_ROWS[name][0]}.items():
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_text(content)
    if name == "predictions":
        argv = ["eval", "--predictions", paths["predictions"], "--split", paths["split"]]
    elif name in ("attributes", "classmap", "labels"):
        argv = ["encode", "--labels", paths["labels"], "--set", "components=attribute",
                "--attributes", paths["attributes"], "--class-map", paths["classmap"]]
    elif name in ("space", "vectors"):
        component, flag = ("el_center", "--space") if name == "space" else ("word", "--vectors")
        argv = ["encode", "--labels", paths["labels"], "--set", f"components={component}", flag, paths[name]]
    else:
        argv = ["predict"] + [
            arg for key in ("features", "split", "encodings", "model") for arg in (f"--{key}", paths[key])
        ]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: " + BAD_ROWS[name][1])
    assert not (tmp_path / "out").exists()


def test_a_feature_label_outside_both_splits_is_an_error_at_its_line(tmp_path, capsys):
    paths = {}
    for key, content in {**GOOD_INPUTS, "features": "x0\ta\t1,0\nx1\tNope\t0,1\nx2\tNope\t1,1\n"}.items():
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_text(content)
    argv = ["predict"] + [
        arg for key in ("features", "split", "encodings", "model") for arg in (f"--{key}", paths[key])
    ]
    assert main(argv) == EXIT_DATA
    expected = "error: features line 2: sample 'x1' has label 'Nope' outside both splits"
    assert capsys.readouterr().err.splitlines()[-1] == expected


@pytest.mark.parametrize(
    "component, message",
    [("el_center", "el_center component requires an embedding space"),
     ("word", "word component requires word vectors"),
     ("attribute", "attribute component requires an attribute table")],
)
def test_encode_without_the_source_of_a_component_exits_2(tmp_path, capsys, component, message):
    labels = tmp_path / "labels.txt"
    labels.write_text("a\n")
    assert main(["encode", "--labels", str(labels), "--set", f"components={component}"]) == EXIT_DATA
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--space", "#dim\tfoo\nC\ta\t1,0\t0.1\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\tx\n"),
        ("--space", "#dim\t2\nC\ta\tnan,0\t0.1\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\tinf\n"),
        ("--vectors", "x 2\na 1 0\n"),
        ("--vectors", "1 2\na 1 q\n"),
        ("--vectors", "1 2\na nan 0\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\t0.1\n#dim\t3\nC\tb\t1,0,0\t0.1\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\t0.1\nC\ta\t0,1\t0.1\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\t0.1\nR\tr\t1,0\nR\tr\t0,1\n"),
        ("--vectors", "2 2\na 1 2\na 3 4\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\n"),
        ("--space", "#dim\t2\nC\ta\t1,0\t0.1\nR\tr\n"),
    ],
    ids=["space-dim", "space-radius", "space-nan-center", "space-inf-radius",
         "vectors-header", "vectors-coordinate", "vectors-nan", "space-second-dim",
         "space-repeated-concept", "space-repeated-relation", "vectors-repeated-token",
         "space-short-concept-row", "space-short-relation-row"],
)
def test_malformed_embedding_files_exit_2_without_traceback(tmp_path, flag, text):
    labels, bad = tmp_path / "labels.txt", tmp_path / "bad.txt"
    labels.write_text("a\n")
    bad.write_text(text)
    components = "el_center" if flag == "--space" else "word"
    argv = ["encode", "--labels", str(labels), "--set", f"components={components}", flag, str(bad)]
    env = {**os.environ, "PYTHONPATH": str(Path(ontozsl.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ontozsl.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == EXIT_DATA, done.stderr
    assert "Traceback" not in done.stderr
    assert "line " in done.stderr


@pytest.fixture
def tiny_inputs(tmp_path):
    """Paths of a small benchmark plus its normal form and walk corpus."""
    data = harness.gen_synthetic(3, 1, 2, p=4)
    files = {
        "ontology": serialize_ontology(data.ontology),
        "normalized": write_normalized(normalize(data.ontology)),
        "corpus": "class group trait\ngroup class\n",
        "features": harness.write_features(data.dataset.samples),
        "split": harness.write_split(data.dataset.seen_labels, data.dataset.unseen_labels),
        "encodings": zslmap.save_encodings(
            zslmap.encode_labels(sorted(data.attributes), [zslmap.Component.ATTRIBUTE],
                                 attributes=data.attributes)
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: tmp_path / name for name in files}


def tiny_pipeline_argv(inputs, out):
    """``--set`` pairs for a quick pipeline run on :func:`tiny_inputs`, writing into ``out``."""
    argv = []
    for key in ("ontology", "features", "split"):
        argv += ["--set", f"{key}={inputs[key]}"]
    for setting in ("el_dim=2", "el_epochs=1", "walks_per_node=1", "w2v_dim=2", "w2v_epochs=1"):
        argv += ["--set", setting]
    return argv + ["--set", f"out_dir={out}"]


def run_cli(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(ontozsl.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "ontozsl.cli", *argv], capture_output=True, text=True, env=env
    )


# Each value used to crash with a traceback, or to fail or pass only after training.
# The stage subcommands read their settings before any input, so a missing
# input file ("missing") must not be what fails.
@pytest.mark.parametrize(
    "argv, named",
    [
        (["pipeline", "--set", "seed=-1"], "'seed'"),
        (["embed-el", "--normalized", "{normalized}", "--set", "seed=-1"], "'seed'"),
        (["walk", "{ontology}", "--set", "seed=-1"], "'seed'"),
        (["w2v", "--corpus", "{corpus}", "--set", "seed=-1"], "'seed'"),
        (["synth", "--seed", "-1"], "seed"),
        (["pipeline", "--set", "distance=cosine"], "unknown config key 'distance'"),
        (["pipeline", "--set", "candidates=bar"], "'bar'"),
        (["pipeline", "--set", "mapper=foo"], "'foo'"),
        (["pipeline", "--set", "el_margin=inf"], "'el_margin'"),
        (["pipeline", "--set", "mapper=ridge", "--set", "ridge_alpha=nan"], "'ridge_alpha'"),
        (["train-map", "--features", "{features}", "--split", "{split}", "--encodings", "{encodings}",
          "--set", "mapper=ridge", "--set", "ridge_alpha=nan"], "'ridge_alpha'"),
        (["embed-el", "--normalized", "{normalized}", "--set", "el_margin=nan"], "'el_margin'"),
        (["embed-el", "--normalized", "{normalized}", "--set", "el_epochs=1_0"], "'el_epochs'"),
        (["embed-el", "--normalized", "{normalized}", "--set", "el_dim=\u0663"], "'el_dim'"),
        (["synth", "--noise", "nan"], "--noise"),
        (["synth", "--features-dim", "1"], "out of range: --features-dim"),
        (["pipeline", "--set", "sae_lambda=-1"], "sae_lambda"),
        (["pipeline", "--set", "mapper=ridge", "--set", "ridge_alpha=0"], "ridge_alpha"),
        # range errors name the key typed, not the stage config's field
        (["pipeline", "--set", "el_lr=0"], "out of range: el_lr"),
        (["pipeline", "--set", "w2v_lr=0"], "unknown config key 'w2v_lr'"),
        (["pipeline", "--set", "w2v_negatives=5"], "unknown config key 'w2v_negatives'"),
        (["embed-el", "--normalized", "missing", "--set", "el_batch=0"], "out of range: el_batch"),
        (["walk", "missing", "--set", "walk_length=0"], "out of range: walk_length"),
        (["w2v", "--corpus", "missing", "--set", "w2v_epochs=0"], "out of range: w2v_epochs"),
        (["train-map", "--features", "missing", "--split", "missing", "--encodings", "missing",
          "--set", "ridge_alpha=0"], "out of range: ridge_alpha"),
        (["encode", "--labels", "missing", "--set", "components=plasma"], "'plasma'"),
        (["predict", "--features", "missing", "--split", "missing", "--encodings", "missing",
          "--model", "missing", "--set", "candidates=bar"], "'bar'"),
        (["walk", "missing", "--set", "walk_lenght=3"], "unknown config key 'walk_lenght'"),
        (["pipeline", "--set", "components="], "at least one encoding component"),
        (["pipeline", "--set", "components=el_center,el_center"], "must not repeat"),
    ],
    ids=["pipeline-seed", "embed-el-seed", "walk-seed", "w2v-seed", "synth-seed",
         "distance", "candidates", "mapper", "inf-margin", "nan-alpha", "train-map-nan-alpha",
         "embed-el-nan-margin", "embed-el-underscore-epochs", "embed-el-arabic-indic-dim",
         "synth-nan-noise", "synth-features-dim", "negative-sae-lambda", "zero-ridge-alpha", "zero-el-lr", "zero-w2v-lr",
         "w2v-negatives", "embed-el-zero-batch", "walk-zero-length", "w2v-zero-epochs", "train-map-zero-alpha",
         "encode-unknown-component", "predict-candidates", "walk-mistyped-key",
         "empty-components", "repeated-component"],
)
def test_bad_config_values_exit_2_before_any_stage_runs(tiny_inputs, tmp_path, argv, named):
    out = tmp_path / "out"
    argv = [arg.format(**tiny_inputs) for arg in argv]
    if argv[0] == "pipeline":
        argv += tiny_pipeline_argv(tiny_inputs, out)
    else:
        argv += ["--out-dir" if argv[0] == "synth" else "--out", str(out)]
    done = run_cli(argv)
    assert done.returncode == EXIT_DATA, done.stderr
    assert "Traceback" not in done.stderr
    assert named in done.stderr
    assert not out.exists()


def test_an_empty_out_dir_exits_2_and_writes_nothing(tiny_inputs, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["pipeline", *tiny_pipeline_argv(tiny_inputs, tmp_path / "out"), "--set", "out_dir="]) == EXIT_DATA
    assert capsys.readouterr().err == "error: out_dir must name a directory\n"
    assert not any(work.iterdir()) and not (tmp_path / "out").exists()


def test_ridge_overflow_exits_3_in_train_map_without_a_warning(tiny_inputs, tmp_path):
    ids, labels, features = harness.parse_features(textio.file_lines(str(tiny_inputs["features"]), "features"))
    huge = [harness.Sample(*row) for row in zip(ids, labels, np.full_like(features, 1e300))]
    tiny_inputs["features"].write_text(harness.write_features(huge))
    done = run_cli(["pipeline", "--set", "mapper=ridge", *tiny_pipeline_argv(tiny_inputs, tmp_path / "out")])
    assert done.returncode == EXIT_NUMERIC, done.stderr
    assert "train-map: mapper inputs overflow" in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "Traceback" not in done.stderr


def test_an_el_loss_that_overflows_exits_3_without_a_warning(tmp_path):
    """The centers stay finite near 3e300, but the batch loss does not: a divergence, not a result."""
    data = tmp_path / "data"
    assert run_cli(["synth", "--k-seen", "4", "--k-unseen", "2", "--per-class", "4",
                    "--out-dir", str(data)]).returncode == EXIT_OK
    inputs = [f"{key}={data / name}" for key, name in
              [("ontology", "ontology.elf"), ("features", "features.tsv"), ("split", "split.txt")]]
    argv = ["pipeline", "--set", "el_lr=1e300", "--set", "el_epochs=5"]
    for setting in [*inputs, f"out_dir={tmp_path / 'run'}"]:
        argv += ["--set", setting]
    done = run_cli(argv)
    assert done.returncode == EXIT_NUMERIC, done.stderr
    assert re.search(r"^numerical failure: embed-el: batch loss diverged at step [1-9][0-9]*$",
                     done.stderr, re.M), done.stderr
    assert "Warning" not in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "run" / "report.txt").exists()



def test_embed_el_exits_3_on_a_non_finite_loss(tmp_path, capsys):
    normalized, out = tmp_path / "n.txt", tmp_path / "space.tsv"
    normalized.write_text("NF2 A r B\nNF2 B r A\n")
    argv = ["embed-el", "--normalized", str(normalized), "--set", "el_epochs=0", "--set", "el_margin=1e308",
            "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines()[-1] == "numerical failure: embedding loss is not finite: inf"
    assert not out.exists()


@pytest.mark.parametrize("config", list(STAGES), ids=lambda c: c.__name__)
def test_run_config_defaults_are_the_stage_defaults(config):
    from_run = RunConfig().stage(config)
    offset = STAGES[config][1]
    if offset is not None:  # the run seed is 0; stages draw from seed + offset
        assert from_run.seed == offset
        from_run = dataclasses.replace(from_run, seed=0)
    assert from_run == config()


# Every subcommand that takes settings, with its required arguments.
SETTINGS_COMMANDS = {
    "pipeline": ["pipeline"],
    "embed-el": ["embed-el", "--normalized", "n.txt"],
    "walk": ["walk", "o.elf"],
    "w2v": ["w2v", "--corpus", "c.txt"],
    "encode": ["encode", "--labels", "l.txt"],
    "train-map": ["train-map", "--features", "f", "--split", "s", "--encodings", "e"],
    "predict": ["predict", "--features", "f", "--split", "s", "--encodings", "e", "--model", "m"],
}


@pytest.mark.parametrize("command", sorted(SETTINGS_COMMANDS))
def test_every_settings_subcommand_reads_the_run_config_keys(tmp_path, command):
    argv = SETTINGS_COMMANDS[command]
    assert cli._settings(cli.build_parser().parse_args(argv)) == RunConfig()
    config = tmp_path / "run.cfg"
    config.write_text("# a full-line comment\nseed = 4\nout_dir = runs/#3\n")
    args = cli.build_parser().parse_args([*argv, "--config", str(config), "--set", "el_dim=7"])
    assert cli._settings(args) == RunConfig(seed=4, out_dir="runs/#3", el_dim=7)


# Each setting flag the stage subcommands had, now a RunConfig key under --set.
REMOVED_FLAGS = [
    *(("embed-el", flag) for flag in ("--dim", "--margin", "--lr", "--epochs", "--batch", "--negatives",
                                      "--min-radius", "--seed")),
    *(("walk", flag) for flag in ("--walks-per-node", "--walk-length", "--seed")),
    *(("w2v", flag) for flag in ("--dim", "--window", "--epochs", "--min-count", "--seed")),
    *(("train-map", flag) for flag in ("--mapper", "--sae-lambda", "--alpha")),
    ("encode", "--components"),
    ("predict", "--candidates"),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
def test_a_removed_stage_setting_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert main([*SETTINGS_COMMANDS[command], flag, "5", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {flag} 5\n"
    assert not out.exists()


def test_a_chain_of_stage_commands_writes_the_pipeline_artifacts(tmp_path):
    """One config file at a nonzero seed drives both; every artifact the chain writes is the pipeline's."""
    data, run, chain = tmp_path / "data", tmp_path / "run", tmp_path / "chain"
    sizes = ["--k-seen", "4", "--k-unseen", "2", "--per-class", "4"]
    assert main(["synth", *sizes, "--out-dir", str(data)]) == EXIT_OK
    config = tmp_path / "run.cfg"
    config.write_text(
        f"ontology = {data / 'ontology.elf'}\nfeatures = {data / 'features.tsv'}\n"
        f"split = {data / 'split.txt'}\nout_dir = {run}\n"
        "seed = 3\nel_epochs = 5\ncomponents = el_center,word\ncandidates = all\n"
    )
    settings = ["--config", str(config)]
    assert main(["pipeline", *settings]) == EXIT_OK
    chain.mkdir()
    features, split = str(data / "features.tsv"), str(data / "split.txt")
    seen, unseen = harness.parse_split(textio.file_lines(split, "split"))
    (chain / "labels.txt").write_text("".join(label + "\n" for label in sorted(seen | unseen)))
    steps = {
        "ontology.elf": ["parse", str(data / "ontology.elf")],
        "normalized.txt": ["normalize", str(data / "ontology.elf")],
        "el_space.tsv": ["embed-el", *settings, "--normalized", str(chain / "normalized.txt")],
        "corpus.txt": ["walk", *settings, str(data / "ontology.elf")],
        "wordvecs.txt": ["w2v", *settings, "--corpus", str(chain / "corpus.txt")],
        "encodings.tsv": ["encode", *settings, "--labels", str(chain / "labels.txt"),
                          "--space", str(chain / "el_space.tsv"), "--vectors", str(chain / "wordvecs.txt"),
                          "--ontology", str(data / "ontology.elf")],
        "model.txt": ["train-map", *settings, "--features", features, "--split", split,
                      "--encodings", str(chain / "encodings.tsv")],
        "predictions.tsv": ["predict", *settings, "--features", features, "--split", split,
                            "--encodings", str(chain / "encodings.tsv"), "--model", str(chain / "model.txt")],
    }
    for name, argv in steps.items():
        assert main([*argv, "--out", str(chain / name)]) == EXIT_OK
    differ = [name for name in steps if (chain / name).read_bytes() != (run / name).read_bytes()]
    assert differ == []


def readme_commands():
    """The arguments of every ``ontozsl`` line in README's ``sh`` blocks, continuations joined.

    Also the files that the blocks write with ``cat > <name> <<'EOF'``, by name.
    """
    text = (Path(__file__).parents[1] / "README.md").read_text()
    commands, files = [], {}
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for name, body in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF\n", block, flags=re.S | re.M):
            files[name] = body
        block = re.sub(r"<<'EOF'\n.*?^EOF\n", "\n", block, flags=re.S | re.M)
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ontozsl"]:
                commands.append(words[1:])
    return commands, files


def test_every_readme_command_parses(tmp_path, monkeypatch):
    # parsing only: no command runs, but every setting is read as the CLI reads it
    commands, files = readme_commands()
    assert len(commands) == 14
    assert set(files) == {"run.cfg"}
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        Path(name).write_text(body)
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if hasattr(args, "set"):
            cli._settings(args)
