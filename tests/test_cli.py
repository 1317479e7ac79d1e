"""Exit codes and subcommand behaviour, driven in-process through main()."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ontozsl
from conftest import deep_some, wide_and
from ontozsl import cli, elembed, harness, textwalk, zslmap
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
    assert "ontology or" in capsys.readouterr().err


def test_classify_straight_from_ontology(elf, capsys):
    assert main(["classify", "--ontology", elf]) == EXIT_OK
    assert "B\tC" in capsys.readouterr().out


def test_project_lists_sorted_edges(elf, capsys):
    assert main(["project", elf]) == EXIT_OK
    assert capsys.readouterr().out == "A\tr\tB\nB\tsubClassOf\tC\n"


def test_walk_writes_both_corpus_and_raw(elf, tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    code = main(["walk", elf, "--raw-out", str(raw), "--walks-per-node", "2", "--seed", "1"])
    assert code == EXIT_OK
    assert "alpha" in capsys.readouterr().out  # label lexicalization applied
    for line in raw.read_text().splitlines():
        assert line.split()[0] in {"A", "B", "C"}


def test_w2v_requires_a_corpus(capsys):
    assert main(["w2v"]) == EXIT_USAGE


def test_w2v_divergence_exits_3_without_traceback(tmp_path):
    corpus, out = tmp_path / "corpus.txt", tmp_path / "vecs.txt"
    corpus.write_text("sun moon star\nmoon sun\n" * 3)
    argv = ["w2v", "--corpus", str(corpus), "--out", str(out), "--dim", "4", "--lr", "1e200"]
    env = {**os.environ, "PYTHONPATH": str(Path(ontozsl.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ontozsl.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == EXIT_NUMERIC, done.stderr
    assert "Traceback" not in done.stderr
    assert "epoch 1" in done.stderr
    assert not out.exists()


def test_encode_rejects_unknown_component(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("A\n")
    assert main(["encode", "--labels", str(labels), "--components", "plasma"]) == EXIT_DATA
    assert "plasma" in capsys.readouterr().err


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


def test_predict_cosine_zero_vector_is_numerical(tmp_path, capsys):
    features = tmp_path / "f.tsv"
    features.write_text(harness.write_features([harness.Sample("x1", "b", np.array([1.0, 2.0]))]))
    split = tmp_path / "s.txt"
    split.write_text(harness.write_split({"a"}, {"b"}))
    table = zslmap.EncodingTable(
        (zslmap.Component.EL_CENTER,),
        2,
        {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])},
    )
    encodings = tmp_path / "e.tsv"
    encodings.write_text(zslmap.save_encodings(table))
    model = tmp_path / "m.txt"
    model.write_text(zslmap.save_model(np.zeros((2, 2)), alpha=1e-3))
    code = main(
        [
            "predict",
            "--features", str(features),
            "--split", str(split),
            "--encodings", str(encodings),
            "--model", str(model),
            "--distance", "cosine",
        ]
    )
    assert code == EXIT_NUMERIC
    assert "zero" in capsys.readouterr().err.lower()


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
            "--dim", "8",
            "--epochs", "60",
            "--batch", "16",
        ]
    ) == EXIT_OK

    corpus = tmp_path / "corpus.txt"
    assert main(["walk", elf, "--out", str(corpus), "--walks-per-node", "3"]) == EXIT_OK

    vectors = tmp_path / "vecs.txt"
    assert main(
        ["w2v", "--corpus", str(corpus), "--out", str(vectors), "--dim", "5", "--epochs", "2"]
    ) == EXIT_OK

    seen, unseen = harness.parse_split((data_dir / "split.txt").read_text())
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(name + "\n" for name in sorted(seen | unseen)))
    encodings = tmp_path / "e.tsv"
    assert main(
        [
            "encode",
            "--labels", str(labels),
            "--components", "el_center",
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
            "--mapper", "ridge",
            "--alpha", "1e-6",
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


GOOD_INPUTS = {
    "features": "x0\ta\t1,0\nx1\tb\t0,1\n",
    "split": "[seen]\na\n[unseen]\nb\n",
    "encodings": "#components\tattribute\na\t1,0\nb\t0,1\n",
    "model": "#kind\tsae\t0.5\n#shape\t2\t2\n1,0\n0,1\n",
    "attributes": "a\t1,0\nb\t0,1\n",
    "classmap": "a\ta\nb\tb\n",
    "labels": "a\nb\n",
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
    ],
    ids=["nan-feature", "bad-attribute", "sae-without-lambda", "non-integer-shape", "unknown-component",
         "deep-some", "wide-and", "repeated-attribute", "repeated-class-map-label",
         "repeated-encoding"],
)
def test_malformed_numeric_files_exit_2_without_traceback(tmp_path, name, text):
    paths = {}
    for key, content in {**GOOD_INPUTS, name: text}.items():
        paths[key] = tmp_path / key
        paths[key].write_text(content)
    if name == "ontology":
        argv = ["parse", paths["ontology"]]
    elif name in ("attributes", "classmap"):
        argv = ["encode", "--labels", paths["labels"], "--components", "attribute",
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
    ],
    ids=["space-dim", "space-radius", "space-nan-center", "space-inf-radius",
         "vectors-header", "vectors-coordinate", "vectors-nan", "space-second-dim",
         "space-repeated-concept", "space-repeated-relation", "vectors-repeated-token"],
)
def test_malformed_embedding_files_exit_2_without_traceback(tmp_path, flag, text):
    labels, bad = tmp_path / "labels.txt", tmp_path / "bad.txt"
    labels.write_text("a\n")
    bad.write_text(text)
    components = "el_center" if flag == "--space" else "word"
    argv = ["encode", "--labels", str(labels), "--components", components, flag, str(bad)]
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


# Each value used to crash with a traceback, or to fail or pass only after training.
@pytest.mark.parametrize(
    "argv, named",
    [
        (["pipeline", "--set", "seed=-1"], "'seed'"),
        (["embed-el", "--normalized", "{normalized}", "--seed", "-1"], "--seed"),
        (["walk", "{ontology}", "--seed", "-1"], "--seed"),
        (["w2v", "--corpus", "{corpus}", "--seed", "-1"], "--seed"),
        (["synth", "--seed", "-1"], "seed"),
        (["pipeline", "--set", "distance=foo"], "'foo'"),
        (["pipeline", "--set", "candidates=bar"], "'bar'"),
        (["pipeline", "--set", "mapper=foo"], "'foo'"),
        (["pipeline", "--set", "el_margin=inf"], "'el_margin'"),
        (["pipeline", "--set", "mapper=ridge", "--set", "ridge_alpha=nan"], "'ridge_alpha'"),
        (["train-map", "--features", "{features}", "--split", "{split}", "--encodings", "{encodings}",
          "--mapper", "ridge", "--alpha", "nan"], "--alpha"),
        (["embed-el", "--normalized", "{normalized}", "--margin", "nan"], "--margin"),
        (["embed-el", "--normalized", "{normalized}", "--epochs", "1_0"], "--epochs"),
        (["embed-el", "--normalized", "{normalized}", "--dim", "\u0663"], "--dim"),
        (["synth", "--noise", "nan"], "--noise"),
        (["pipeline", "--set", "sae_lambda=-1"], "sae_lambda"),
        (["pipeline", "--set", "mapper=ridge", "--set", "ridge_alpha=0"], "ridge_alpha"),
        # range errors name the key or flag typed, not the stage config's field
        (["pipeline", "--set", "el_lr=0"], "out of range: el_lr"),
        (["pipeline", "--set", "w2v_lr=0"], "out of range: w2v_lr"),
        (["embed-el", "--normalized", "{normalized}", "--batch", "0"], "out of range: --batch"),
        (["walk", "{ontology}", "--walk-length", "0"], "out of range: --walk-length"),
        (["w2v", "--corpus", "{corpus}", "--lr", "0"], "out of range: --lr"),
        (["train-map", "--features", "{features}", "--split", "{split}", "--encodings", "{encodings}",
          "--alpha", "0"], "out of range: --alpha"),
    ],
    ids=["pipeline-seed", "embed-el-seed", "walk-seed", "w2v-seed", "synth-seed",
         "distance", "candidates", "mapper", "inf-margin", "nan-alpha", "train-map-nan-alpha",
         "embed-el-nan-margin", "embed-el-underscore-epochs", "embed-el-arabic-indic-dim",
         "synth-nan-noise", "negative-sae-lambda", "zero-ridge-alpha", "zero-el-lr", "zero-w2v-lr",
         "embed-el-zero-batch", "walk-zero-length", "w2v-zero-lr", "train-map-zero-alpha"],
)
def test_bad_config_values_exit_2_before_any_stage_runs(tiny_inputs, tmp_path, argv, named):
    out = tmp_path / "out"
    argv = [arg.format(**tiny_inputs) for arg in argv]
    if argv[0] == "pipeline":
        for key in ("ontology", "features", "split"):
            argv += ["--set", f"{key}={tiny_inputs[key]}"]
        for setting in ("el_dim=2", "el_epochs=1", "walks_per_node=1", "w2v_dim=2", "w2v_epochs=1"):
            argv += ["--set", setting]
        argv += ["--set", f"out_dir={out}"]
    else:
        argv += ["--out-dir" if argv[0] == "synth" else "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(ontozsl.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ontozsl.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == EXIT_DATA, done.stderr
    assert "Traceback" not in done.stderr
    assert named in done.stderr
    assert not out.exists()


# The stage subcommands with their required arguments.
STAGE_COMMANDS = {
    elembed.ElTrainConfig: ["embed-el", "--normalized", "n.txt"],
    textwalk.WalkConfig: ["walk", "o.elf"],
    textwalk.SkipGramConfig: ["w2v", "--corpus", "c.txt"],
    zslmap.MapConfig: ["train-map", "--features", "f", "--split", "s", "--encodings", "e"],
}


@pytest.mark.parametrize("config", list(STAGE_COMMANDS), ids=lambda c: c.__name__)
def test_stage_flag_and_run_config_defaults_are_the_stage_defaults(config):
    from_flags = cli._stage_config(cli.build_parser().parse_args(STAGE_COMMANDS[config]), config)
    from_run = RunConfig().stage(config)
    offset = STAGES[config][1]
    if offset is not None:  # the run seed is 0; stages draw from seed + offset
        assert from_run.seed == offset
        from_run = dataclasses.replace(from_run, seed=0)
    assert from_flags == from_run == config()
