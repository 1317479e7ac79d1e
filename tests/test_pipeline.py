"""Config handling and the end-to-end run orchestration."""

import importlib.util
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ontozsl import elembed, errors, textwalk
from ontozsl.cli import EXIT_DATA, EXIT_NUMERIC, main
from ontozsl.elembed import import_space
from ontozsl.errors import DataError, NumericalError, RangeError
from ontozsl.harness import (
    gen_synthetic,
    load_dataset,
    sample_accuracy,
    write_features,
    write_split,
    write_vector_table,
)
from ontozsl.normalform import BOTTOM, BY_TAG, TOP, Disjointness, classify, normalize, read_normalized
from ontozsl.ontology import parse_ontology, serialize_ontology
from ontozsl.pipeline import (
    ARTIFACTS,
    MetricsReport,
    RunConfig,
    config_from_pairs,
    parse_config,
    render_report,
    report_json,
    run_pipeline,
)
from ontozsl.textio import file_lines, fmt, lines
from ontozsl.textwalk import load_word_vectors
from ontozsl.zslmap import (
    CandidateSet,
    Component,
    candidate_spread,
    distance,
    encode_labels,
    load_encodings,
    load_model,
    map_features,
    predict,
    sae_loss,
    train_ridge,
)

FAST = dict(
    el_dim=8,
    el_epochs=40,
    walks_per_node=4,
    walk_length=3,
    w2v_dim=6,
    w2v_epochs=3,
)


@pytest.fixture(autouse=True)
def no_child_process_remains():
    """Every test here ends with no child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_benchmark(tmp_path: Path, k_seen=4, k_unseen=2, per_class=4, noise=0.05, seed=0):
    data = gen_synthetic(k_seen, k_unseen, per_class, p=10, noise=noise, seed=seed)
    (tmp_path / "o.elf").write_text(serialize_ontology(data.ontology))
    (tmp_path / "f.tsv").write_text(write_features(data.dataset.samples))
    (tmp_path / "s.txt").write_text(
        write_split(data.dataset.seen_labels, data.dataset.unseen_labels)
    )
    (tmp_path / "a.tsv").write_text(write_vector_table(data.attributes))
    return data


def base_config(tmp_path: Path, **overrides) -> RunConfig:
    settings = dict(
        ontology=str(tmp_path / "o.elf"),
        features=str(tmp_path / "f.tsv"),
        split=str(tmp_path / "s.txt"),
        attributes=str(tmp_path / "a.tsv"),
        out_dir=str(tmp_path / "run"),
        **FAST,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def pipeline_argv(cfg: RunConfig) -> list[str]:
    return ["pipeline"] + [arg for key, value in cfg.to_dict().items() for arg in ("--set", f"{key}={value}")]


def test_parse_config_reads_key_value_lines():
    cfg = parse_config("# a comment\nseed = 7\nel_dim = 12\ncomponents = word\n")
    assert cfg.seed == 7
    assert cfg.el_dim == 12
    assert cfg.components == "word"


def test_parse_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(DataError):
        parse_config("no_such_key = 1\n")
    with pytest.raises(DataError):
        parse_config("seed = banana\n")
    with pytest.raises(DataError):
        parse_config("just a line without equals\n")
    with pytest.raises(DataError, match="^config line 3: config key 'seed' appears twice$"):
        parse_config("seed = 1\n# seed = 2\nseed=3\n")


def test_a_hash_starts_a_config_comment_only_as_the_first_non_blank_character():
    cfg = parse_config("  # seed = 9\nout_dir = runs/#3\n")
    assert (cfg.seed, cfg.out_dir) == (0, "runs/#3")
    with pytest.raises(DataError, match=r"^config line 2: config key 'seed': expected an integer >= 0, got '2 # two'$"):
        parse_config("out_dir = run\nseed = 2 # two\n")


FLOAT_KEYS = ["el_margin", "el_lr", "el_min_radius", "sae_lambda", "ridge_alpha"]
INT_KEYS = ["el_dim", "el_epochs", "el_batch", "el_negatives", "walks_per_node", "walk_length",
            "w2v_dim", "w2v_window", "w2v_epochs", "w2v_min_count", "seed"]


# Each used to build, and then fail mid-run after earlier stages had written their artifacts.
@pytest.mark.parametrize(
    "key, value",
    [(key, math.inf) for key in FLOAT_KEYS] + [(key, v) for key in INT_KEYS for v in (math.inf, 2.5, 3.0)],
    ids=FLOAT_KEYS + [f"{key}={v}" for key in INT_KEYS for v in (math.inf, 2.5, 3.0)],
)
def test_a_non_finite_or_non_integer_setting_fails_before_any_stage_runs(tmp_path, key, value):
    write_benchmark(tmp_path)
    with pytest.raises(RangeError) as err:
        run_pipeline(base_config(tmp_path, mapper="ridge", **{key: value}))
    assert err.value.names == [key]
    assert not (tmp_path / "run").exists()


def test_config_from_pairs_coerces_types():
    cfg = config_from_pairs({"el_margin": "0.25", "components": "word", "w2v_epochs": "3"})
    assert cfg.el_margin == 0.25
    assert cfg.components == "word"
    assert cfg.w2v_epochs == 3


def test_config_round_trips_through_its_echo():
    cfg = RunConfig(seed=5, el_margin=0.125, sae_lambda=0.1, components="word")
    echoed = config_from_pairs(cfg.to_dict())
    assert echoed == cfg


def test_component_list_parses_commas():
    cfg = RunConfig(components="el_center, word")
    assert cfg.component_list() == (Component.EL_CENTER, Component.WORD)
    with pytest.raises(DataError):
        RunConfig(components="plasma").component_list()


def test_run_pipeline_writes_all_artifacts(tmp_path):
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path))
    out = tmp_path / "run"
    expected = {
        "ontology.elf",
        "normalized.txt",
        "el_space.tsv",
        "corpus.txt",
        "wordvecs.txt",
        "encodings.tsv",
        "model.txt",
        "predictions.tsv",
        "report.txt",
        "report.json",
        "manifest.txt",
    }
    assert {p.name for p in out.iterdir()} == expected == set(ARTIFACTS)
    assert 0.0 <= report.macro_unseen_accuracy <= 1.0
    assert report.counts["train_samples"] == 16
    assert report.counts["test_samples"] == 8
    # manifest digests match the files next to it
    import hashlib

    for line in (out / "manifest.txt").read_text().splitlines():
        digest, name = line.split("  ")
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_run_pipeline_echoes_config_and_embeds_it_in_reports(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path, seed=3)
    report = run_pipeline(cfg)
    assert report.config_echo == cfg.to_dict()
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    assert payload["config"]["seed"] == "3"
    text = (tmp_path / "run" / "report.txt").read_text()
    assert "macro_unseen_accuracy\t" in text


def test_report_carries_skipgram_diagnostics(tmp_path):
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path))
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    losses = payload["w2v_losses"]
    assert len(losses) == FAST["w2v_epochs"]
    assert np.isfinite(losses).all() and losses == list(report.w2v_losses)
    counts = payload["counts"]
    corpus = (tmp_path / "run" / "corpus.txt").read_text()
    sentences = [line.split() for line in corpus.splitlines()]
    w = RunConfig().w2v_window
    pairs = sum(min(len(s), i + w + 1) - max(0, i - w) - 1 for s in sentences for i in range(len(s)))
    assert counts["w2v_pairs"] == pairs > 0
    assert counts["w2v_vocab"] == len({t for s in sentences for t in s})
    assert counts["w2v_corpus_tokens"] == sum(len(s) for s in sentences) > counts["w2v_vocab"]
    text = (tmp_path / "run" / "report.txt").read_text()
    assert f"w2v_vocab\t{counts['w2v_vocab']}\n" in text
    assert f"w2v_corpus_tokens\t{counts['w2v_corpus_tokens']}\n" in text


def test_report_carries_el_diagnostics(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path)
    report = run_pipeline(cfg)
    out = tmp_path / "run"
    payload = json.loads((out / "report.json").read_text())
    losses = payload["el_losses"]
    assert len(losses) == FAST["el_epochs"]
    assert np.isfinite(losses).all() and losses == list(report.el_losses)

    # faithfulness recomputed pair by pair from the run's files and classify
    normalized = read_normalized((out / "normalized.txt").read_text())
    balls = import_space((out / "el_space.tsv").read_text()).concepts

    def gap(a, b):
        return float(np.linalg.norm(balls[a].center - balls[b].center))

    pairs = [(a, b) for a, b in classify(normalized) if a != b and not {a, b} & {TOP, BOTTOM}]
    nested = sum(gap(a, b) + balls[a].radius <= balls[b].radius + cfg.el_margin for a, b in pairs)
    disjoint = [ax for ax in normalized.axioms if isinstance(ax, Disjointness)]
    separated = sum(
        gap(ax.left, ax.right) >= balls[ax.left].radius + balls[ax.right].radius + cfg.el_margin
        for ax in disjoint
    )
    counts = payload["counts"]
    assert counts["el_nest_pairs"] == len(pairs) > 0
    assert counts["el_disjoint_pairs"] == len(disjoint) > 0
    assert payload["el_nest_fraction"] == report.el_nest_fraction == nested / len(pairs)
    assert payload["el_disjoint_fraction"] == report.el_disjoint_fraction == separated / len(disjoint)
    text = (out / "report.txt").read_text()
    assert f"el_nest_pairs\t{len(pairs)}\n" in text


def test_report_counts_each_normal_axiom_kind(tmp_path):
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path))
    out = tmp_path / "run"
    kinds = Counter(ax.TAG for ax in read_normalized((out / "normalized.txt").read_text()).axioms)
    payload = json.loads((out / "report.json").read_text())
    text = (out / "report.txt").read_text()
    for tag in BY_TAG:
        assert payload["counts"][tag] == report.counts[tag] == kinds[tag]
        assert f"{tag}\t{kinds[tag]}\n" in text
    assert kinds["NF1"] > 0 and kinds["RSUB"] == 0  # present and absent kinds alike


def test_run_pipeline_is_deterministic(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path)
    run_pipeline(cfg)
    first = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    run_pipeline(cfg)
    second = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert first == second


# Runs each benchmark workload's inputs, named on the command line, into out_dir
# run-<OPENBLAS_NUM_THREADS> beside them.
RUN_WORKLOADS = """
import json, os, sys
from ontozsl.pipeline import RunConfig, run_pipeline
for inputs in sys.argv[1:]:
    config = json.load(open(os.path.join(inputs, "settings.json")))["config"]
    config["out_dir"] = os.path.join(inputs, "run-" + os.environ["OPENBLAS_NUM_THREADS"])
    run_pipeline(RunConfig(**config))
"""


def test_every_output_but_the_reports_is_the_same_bytes_under_one_and_two_blas_threads(tmp_path, monkeypatch):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    inputs = [tmp_path / name for name in workloads.WORKLOADS]
    for path in inputs:
        workloads.write_inputs(workloads.WORKLOADS[path.name], 0, path)
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", RUN_WORKLOADS, *map(str, inputs)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(elembed.__file__).parents[1])},
        )
        for threads in ("1", "2")
    ]
    assert [run.wait() for run in runs] == [0, 0]
    for path in inputs:
        one, two = (
            {f.name: f.read_bytes() for f in (path / f"run-{threads}").iterdir()
             if not f.name.startswith("report.") and f.name != "manifest.txt"}
            for threads in ("1", "2")
        )
        assert "predictions.tsv" in one and "el_space.tsv" in one
        assert one == two, path.name


def test_an_empty_out_dir_is_a_data_error():
    with pytest.raises(DataError, match="^out_dir must name a directory$"):
        RunConfig(out_dir="")
    with pytest.raises(DataError, match="^out_dir must name a directory$"):
        config_from_pairs({"out_dir": ""})


def test_a_failed_rerun_leaves_no_manifest_or_report(tmp_path):
    """A manifest certifies the files beside it: a run that fails leaves none, nor the last run's artifacts."""
    write_benchmark(tmp_path)
    out = tmp_path / "run"
    run_pipeline(base_config(tmp_path))
    assert {p.name for p in out.iterdir()} == set(ARTIFACTS)
    with pytest.raises(DataError, match="^encode: attribute component requires an attribute table$"):
        run_pipeline(base_config(tmp_path, components="attribute", attributes=""))
    left = {p.name for p in out.iterdir()}
    assert left == {"ontology.elf", "normalized.txt", "el_space.tsv", "corpus.txt", "wordvecs.txt"}


def test_a_rerun_keeps_the_inputs_it_reads_from_out_dir(tmp_path):
    """``synth`` writes ontology.elf into its out dir, and pretrained vectors may be an earlier wordvecs.txt."""
    write_benchmark(tmp_path)
    out = tmp_path / "run"
    first = run_pipeline(base_config(tmp_path, components="el_center,word"))
    written = {name: (out / name).read_bytes() for name in ("encodings.tsv", "model.txt", "predictions.tsv")}
    cfg = base_config(tmp_path, components="el_center,word", ontology=str(out / "ontology.elf"),
                      pretrained_vectors=str(out / "wordvecs.txt"))
    second = run_pipeline(cfg)
    assert second.macro_unseen_accuracy == first.macro_unseen_accuracy
    assert {name: (out / name).read_bytes() for name in written} == written


# The stage that reads each input and the noun its errors use.
INPUTS = {"ontology": ("parse", "ontology"), "features": ("load-dataset", "features"),
          "split": ("load-dataset", "split"), "attributes": ("load-dataset", "attributes"),
          "class_map": ("load-dataset", "class map"), "pretrained_vectors": ("w2v", "pretrained vectors")}


@pytest.mark.parametrize("key", sorted(INPUTS))
def test_an_input_that_names_a_directory_is_a_data_error_naming_it(tmp_path, capsys, key):
    write_benchmark(tmp_path)
    (tmp_path / "d").mkdir()
    cfg = base_config(tmp_path, **{key: str(tmp_path / "d")})
    stage, noun = INPUTS[key]
    message = f"{stage}: {noun} file {tmp_path / 'd'} is a directory"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        run_pipeline(cfg)
    assert main(pipeline_argv(cfg)) == EXIT_DATA
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def test_a_fifo_is_still_an_input_file(tmp_path):
    os.mkfifo(tmp_path / "fifo")
    file_lines(str(tmp_path / "fifo"), "features")  # checked now, opened at the first row


def test_an_out_dir_that_names_a_file_is_a_data_error_naming_it(tmp_path, capsys):
    write_benchmark(tmp_path)
    for out_dir in (tmp_path / "o.elf", tmp_path / "o.elf" / "run"):
        cfg = base_config(tmp_path, out_dir=str(out_dir))
        message = f"out_dir {out_dir} is not a directory"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            run_pipeline(cfg)
        assert main(pipeline_argv(cfg)) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def test_a_directory_in_place_of_an_artifact_is_a_data_error_that_leaves_no_manifest(tmp_path):
    write_benchmark(tmp_path)
    out = tmp_path / "run"
    run_pipeline(base_config(tmp_path))
    (out / "model.txt").unlink()
    (out / "model.txt").mkdir()
    with pytest.raises(DataError, match=f"^{re.escape(f'out_dir {out}: model.txt is a directory')}$"):
        run_pipeline(base_config(tmp_path))
    assert not {"manifest.txt", "report.txt", "report.json"} & {p.name for p in out.iterdir()}


def test_encoding_dims_add_up_across_components(tmp_path):
    write_benchmark(tmp_path)
    dims = {}
    for name, components in (
        ("el", "el_center"),
        ("word", "word"),
        ("both", "el_center,word"),
    ):
        cfg = base_config(tmp_path, components=components, out_dir=str(tmp_path / name))
        dims[name] = run_pipeline(cfg).counts["encoding_dim"]
    assert dims["el"] == FAST["el_dim"]
    assert dims["word"] == FAST["w2v_dim"]
    assert dims["both"] == FAST["el_dim"] + FAST["w2v_dim"]


def test_run_pipeline_supports_ridge_over_all_candidates(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(
        tmp_path,
        components="attribute",
        mapper="ridge",
        ridge_alpha=1e-6,
        candidates="all",
    )
    report = run_pipeline(cfg)
    assert 0.0 <= report.sample_accuracy <= 1.0
    # ridge has no autoencoder objective
    assert math.isnan(report.map_train_loss)
    assert math.isnan(json.loads((tmp_path / "run" / "report.json").read_text())["map_train_loss"])
    assert "map_train_loss\tnan\n" in (tmp_path / "run" / "report.txt").read_text()


def test_report_carries_the_autoencoder_objective(tmp_path):
    """``map_train_loss`` is ``sae_loss`` at the written weights, over the seen samples."""
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path, components="attribute", sae_lambda=0.3))
    out = tmp_path / "run"
    dataset = load_dataset(
        lines((tmp_path / "f.tsv").read_text(), "features"), lines((tmp_path / "s.txt").read_text(), "split")
    )
    table = load_encodings(lines((out / "encodings.tsv").read_text(), "encodings"))
    model = load_model(lines((out / "model.txt").read_text(), "model"))
    train = dataset.rows_of(dataset.seen_labels)
    x = np.ascontiguousarray(dataset.features[train].T)
    z = np.array([table.encodings[label] for label, keep in zip(dataset.labels, train) if keep]).T
    expected = sae_loss(model.weights, x, z, 0.3)
    assert report.map_train_loss == expected
    assert 0.0 < expected
    assert json.loads((out / "report.json").read_text())["map_train_loss"] == report.map_train_loss
    assert f"map_train_loss\t{fmt(report.map_train_loss)}\n" in (out / "report.txt").read_text()


def test_run_pipeline_tags_errors_with_the_stage(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path, ontology=str(tmp_path / "missing.elf"))
    with pytest.raises(DataError) as err:
        run_pipeline(cfg)
    assert getattr(err.value, "stage", "") == "parse"
    assert "parse:" in str(err.value)


def test_noise_free_seen_classes_are_linearly_separable():
    data = gen_synthetic(8, 2, 30, p=16, noise=0.0, seed=0)
    ds = data.dataset
    table = encode_labels(
        sorted(ds.seen_labels | ds.unseen_labels),
        [Component.ATTRIBUTE],
        attributes=data.attributes,
    )
    train = [s for s in ds.samples if s.label in ds.seen_labels]
    x = np.stack([s.features for s in train], axis=1)
    z = np.stack([table.encodings[s.label] for s in train], axis=1)
    model = train_ridge(x, z, 1e-9)
    candidates = CandidateSet.SEEN_AND_UNSEEN.labels(ds.seen_labels, ds.unseen_labels)
    preds = [predict(map_features(model, s.features)[:, None], table, candidates)[0] for s in train]
    assert sample_accuracy(preds, [s.label for s in train]) == 1.0


def test_render_report_layout():
    report = MetricsReport(
        macro_unseen_accuracy=0.75,
        sample_accuracy=0.5,
        per_class_accuracy={"b": 1.0, "a": 0.5},
        counts={"test_samples": 4},
        config_echo={"seed": "0"},
    )
    text = render_report(report, {"a": (1, 2), "b": (2, 2)})
    lines = text.splitlines()
    assert lines[0] == "macro_unseen_accuracy\t0.75"
    assert "[per_class]" in lines
    assert "a\t0.5\t1\t2" in lines
    assert "[config]" in lines
    payload = json.loads(report_json(report))
    assert payload["macro_unseen_accuracy"] == 0.75


# 4 unseen candidates give 6 pairs, an even count; all 10 labels give 45
@pytest.mark.parametrize("candidates", ["unseen", "all"])
def test_report_carries_the_candidate_spread(tmp_path, candidates):
    data = write_benchmark(tmp_path, k_seen=6, k_unseen=4)
    report = run_pipeline(base_config(tmp_path, candidates=candidates))
    out = tmp_path / "run"
    table = load_encodings(lines((out / "encodings.tsv").read_text(), "encodings"))
    ds = data.dataset
    labels = sorted(ds.unseen_labels | (ds.seen_labels if candidates == "all" else set()))
    gaps = [
        distance(table.encodings[a], table.encodings[b])
        for i, a in enumerate(labels)
        for b in labels[i + 1:]
    ]
    assert len(gaps) == {"unseen": 6, "all": 45}[candidates]
    assert report.candidate_min_distance == min(gaps)
    assert report.candidate_median_distance == float(np.median(gaps))
    payload = json.loads((out / "report.json").read_text())
    assert payload["candidate_min_distance"] == min(gaps)
    assert payload["candidate_median_distance"] == float(np.median(gaps))
    text = (out / "report.txt").read_text()
    assert f"candidate_min_distance\t{fmt(min(gaps))}\n" in text


def test_candidate_spread_of_a_single_candidate_is_nan(tmp_path):
    data = write_benchmark(tmp_path, k_unseen=1)
    ds = data.dataset
    report = run_pipeline(base_config(tmp_path, components="attribute"))
    assert math.isnan(report.candidate_min_distance) and math.isnan(report.candidate_median_distance)
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    assert math.isnan(payload["candidate_min_distance"])
    assert "candidate_median_distance\tnan\n" in (tmp_path / "run" / "report.txt").read_text()
    # the same table read with every label a candidate has pairs again
    table = load_encodings(lines((tmp_path / "run" / "encodings.tsv").read_text(), "encodings"))
    low, mid = candidate_spread(table, CandidateSet.SEEN_AND_UNSEEN.labels(ds.seen_labels, ds.unseen_labels))
    assert 0.0 < low <= mid


def test_pretrained_vectors_stand_in_for_the_trained_ones(tmp_path):
    """The file's vectors are written as they are; labels without their own token read their words."""
    data = write_benchmark(tmp_path)
    rng = np.random.default_rng(4)
    words = {word: rng.normal(size=3) for word in ["class", *(f"{i:02d}" for i in range(6)), "unused"]}
    path = tmp_path / "pretrained.txt"
    path.write_text(
        "8 3\n" + "".join(f"{t} {' '.join(map(fmt, v))}\n" for t, v in words.items())
    )
    # w2v_dim = 6 is not read: the file's width is the vectors' width
    report = run_pipeline(base_config(tmp_path, components="word", pretrained_vectors=str(path)))
    out = tmp_path / "run"
    written = load_word_vectors(lines((out / "wordvecs.txt").read_text(), "word vectors"))
    assert written.dim == 3 and written.vectors.keys() == words.keys()
    for token, vector in words.items():
        assert np.array_equal(written.vectors[token], vector), token
    assert report.w2v_losses == () and report.counts["w2v_pairs"] == 0
    assert report.counts["w2v_vocab"] == 8
    table = load_encodings(lines((out / "encodings.tsv").read_text(), "encodings"))
    labels = sorted(data.dataset.seen_labels | data.dataset.unseen_labels)
    for i, label in enumerate(labels):  # label "class 0i" has no vector of its own
        mean = (words["class"] + words[f"{i:02d}"]) / 2
        np.testing.assert_allclose(table.encodings[label], mean / np.linalg.norm(mean), rtol=1e-15)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 6\nclass 1 2 3 4 5 6\n", "error: w2v: expected 2 vector rows, found 1"),
        ("2 6\nclass 1 2 3 4 5 6\n\ntrait 1 2 q 4 5 6\n", "error: w2v: word vectors line 4: "),
    ],
    ids=["missing-row", "malformed-row"],
)
def test_bad_pretrained_vectors_exit_2_in_the_w2v_stage(tmp_path, capsys, text, message):
    write_benchmark(tmp_path)
    (tmp_path / "pretrained.txt").write_text(text)
    cfg = base_config(tmp_path, pretrained_vectors=str(tmp_path / "pretrained.txt"))
    assert main(pipeline_argv(cfg)) == EXIT_DATA
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)


# Word-only accuracy on the word-walks inputs read 0.51, 0.25, 0.475 and 0.25
# at seeds 0-3 when walks were split into label words, and 0.675-1.0 at seeds
# 0-7 with entity tokens and label sentences (chance is 0.25).
@pytest.mark.parametrize("seed", range(4))
def test_word_vectors_score_above_the_floor_on_the_word_walks_inputs(tmp_path, seed):
    data = gen_synthetic(16, 4, 20, seed=seed)
    (tmp_path / "o.elf").write_text(serialize_ontology(data.ontology))
    (tmp_path / "f.tsv").write_text(write_features(data.dataset.samples))
    (tmp_path / "s.txt").write_text(write_split(data.dataset.seen_labels, data.dataset.unseen_labels))
    cfg = RunConfig(
        ontology=str(tmp_path / "o.elf"), features=str(tmp_path / "f.tsv"),
        split=str(tmp_path / "s.txt"), out_dir=str(tmp_path / "run"), seed=seed,
        components="word", el_epochs=50, w2v_epochs=20,
    )
    assert run_pipeline(cfg).macro_unseen_accuracy >= 0.6


# ---------------------------------------------------------------------------
# EL training and the stage order
# ---------------------------------------------------------------------------

STAGE_NAMES = ("parse", "normalize", "embed-el", "walk", "w2v", "load-dataset", "encode", "train-map",
               "predict", "eval")


def test_el_artifacts_match_an_in_process_train_el(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path)
    report = run_pipeline(cfg)
    el_cfg = cfg.stage(elembed.ElTrainConfig)
    normalized = normalize(parse_ontology((tmp_path / "o.elf").read_text()))
    space = elembed.train_el(normalized, el_cfg)
    assert (tmp_path / "run" / "el_space.tsv").read_text() == elembed.export_space(space)
    assert report.el_losses == space.train_losses
    assert report.el_total_loss == elembed.total_loss(space, normalized, el_cfg)


def test_report_records_every_stage_time_outside_its_files(tmp_path):
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path))
    assert set(report.stage_seconds) == {*STAGE_NAMES, "train_el"}
    assert all(seconds > 0 for seconds in report.stage_seconds.values()), report.stage_seconds
    out = tmp_path / "run"
    assert "stage_seconds" not in json.loads((out / "report.json").read_text())
    assert "train_el" not in (out / "report.txt").read_text()


def test_stage_times_come_in_the_serial_stage_order(tmp_path):
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path))
    assert list(report.stage_seconds) == ["parse", "normalize", "train_el", *STAGE_NAMES[2:]]
    assert report.stage_seconds["train_el"] <= report.stage_seconds["embed-el"]


def test_run_pipeline_forks_no_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    write_benchmark(tmp_path)
    report = run_pipeline(base_config(tmp_path))
    assert (tmp_path / "run" / "manifest.txt").is_file()
    assert report.stage_seconds["train_el"] > 0


DIVERGED = r"embed-el: (center of|radius of|relation) '\w+' diverged at step [1-9][0-9]*"


@pytest.mark.parametrize("features", ["f.tsv", "missing.tsv"])
def test_a_diverging_el_stage_reports_its_error_even_when_a_later_stage_fails(tmp_path, capsys, features):
    """The error of the serial order: EL ran first, so its divergence wins over a missing file."""
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path, el_lr=1e308, features=str(tmp_path / features))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as err:
            run_pipeline(cfg)
        assert re.fullmatch(DIVERGED, str(err.value))
        assert err.value.stage == "embed-el"
        capsys.readouterr()
        assert main(pipeline_argv(cfg)) == EXIT_NUMERIC
    assert re.fullmatch(f"numerical failure: {DIVERGED}", capsys.readouterr().err.splitlines()[-1])


@pytest.mark.parametrize("loss", [math.nan, math.inf])
def test_a_non_finite_el_total_loss_is_a_numerical_error(tmp_path, monkeypatch, loss):
    write_benchmark(tmp_path)
    if math.isnan(loss):
        train_el = elembed.train_el

        def with_a_nan_center(n, cfg):
            space = train_el(n, cfg)
            name = min(space.concepts)
            space.concepts[name] = elembed.Ball(np.full(space.dim, math.nan), space.concepts[name].radius)
            return space

        monkeypatch.setattr(elembed, "train_el", with_a_nan_center)
        cfg = base_config(tmp_path)
    else:
        # the untrained space's margin terms sum past the largest float
        cfg = base_config(tmp_path, el_epochs=0, el_margin=1e308)
    with pytest.raises(NumericalError, match=f"^embed-el: embedding loss is not finite: {loss}$"):
        run_pipeline(cfg)
    assert not (tmp_path / "run" / "report.txt").exists()


def test_a_failing_stage_beside_el_training_keeps_its_error(tmp_path):
    write_benchmark(tmp_path)
    with pytest.raises(DataError, match="^load-dataset: features file not found: "):
        run_pipeline(base_config(tmp_path, features=str(tmp_path / "missing.tsv")))
    # the EL stage ran first and wrote its space
    assert (tmp_path / "run" / "el_space.tsv").is_file()


# one of each OntozslError class, as (class, arguments), so each test raises a fresh one;
# ElfError and RangeError take other arguments than a message
PACKAGE_ERRORS = [
    (errors.OntozslError, ("plain",)),
    (DataError, ("bad data",)),
    (errors.ElfError, ("unexpected token", 3, 7)),
    (errors.UnknownNameError, ("no concept named 'X'",)),
    (errors.UnsupportedAxiomError, ("cannot embed it",)),
    (NumericalError, ("center of 'A' diverged at step 4",)),
    (RangeError, ("embedding config", ["dim", "margin"])),
]

# what out_dir holds when embed-el fails: the files of the two stages before it
BEFORE_EL = ["normalized.txt", "ontology.elf"]


def test_package_errors_has_every_error_class():
    def subclasses(cls):
        return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))

    assert {cls for cls, _ in PACKAGE_ERRORS} == subclasses(errors.OntozslError)


@pytest.mark.parametrize("cls, args", PACKAGE_ERRORS, ids=[cls.__name__ for cls, _ in PACKAGE_ERRORS])
def test_every_package_error_of_el_training_reaches_the_caller(tmp_path, monkeypatch, capsys, cls, args):
    raised = []

    def fail(normalized, cfg):
        raised.append(cls(*args))
        raise raised[-1]

    monkeypatch.setattr(elembed, "train_el", fail)
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path)
    with pytest.raises(cls) as err:
        run_pipeline(cfg)
    assert err.value is raised[0]
    assert str(err.value) == f"embed-el: {cls(*args)}"
    assert err.value.stage == "embed-el"
    assert {k: v for k, v in vars(err.value).items() if k != "stage"} == vars(cls(*args))
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == BEFORE_EL
    capsys.readouterr()
    numerical = issubclass(cls, NumericalError)
    assert main(pipeline_argv(cfg)) == (EXIT_NUMERIC if numerical else EXIT_DATA)
    prefix = "numerical failure" if numerical else "error"
    assert capsys.readouterr().err.splitlines()[-1] == f"{prefix}: embed-el: {cls(*args)}"


def test_a_fault_in_el_training_is_raised_with_its_own_traceback(tmp_path, monkeypatch):
    def broken(normalized, cfg):
        raise ValueError("a bug")

    monkeypatch.setattr(elembed, "train_el", broken)
    write_benchmark(tmp_path)
    with pytest.raises(ValueError, match="^a bug$") as err:
        run_pipeline(base_config(tmp_path))
    # not a package error, so no stage prefix; its own frame is the last one
    assert not hasattr(err.value, "stage")
    assert err.traceback[-1].name == "broken"
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == BEFORE_EL


def test_an_interrupt_in_el_training_stops_the_run_before_the_walks(tmp_path, monkeypatch):
    def interrupt(normalized, cfg):
        raise KeyboardInterrupt

    walked = []
    monkeypatch.setattr(elembed, "train_el", interrupt)
    monkeypatch.setattr(textwalk, "random_walks", lambda *args: walked.append(args))
    write_benchmark(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(base_config(tmp_path))
    assert walked == []
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == BEFORE_EL


def _run_in_daemon(cfg: RunConfig) -> None:
    run_pipeline(cfg)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process remains")


def test_run_pipeline_works_inside_a_daemonic_multiprocessing_worker(tmp_path):
    write_benchmark(tmp_path)
    cfg = base_config(tmp_path)
    worker = multiprocessing.get_context("fork").Process(target=_run_in_daemon, args=(cfg,), daemon=True)
    worker.start()
    worker.join(120)
    assert worker.exitcode == 0
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    run_pipeline(cfg)
    assert (tmp_path / "run" / "manifest.txt").read_text() == manifest


def test_an_oversized_el_table_exits_2_naming_el_dim(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(errors, "MAX_TABLE_BYTES", 1 << 20)  # small, so a miss allocates little
    write_benchmark(tmp_path)
    assert main(pipeline_argv(base_config(tmp_path, el_dim=100_000))) == EXIT_DATA
    error = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(r"error: embed-el: el_dim = 100000 needs a \d+ x 100000 parameter table "
                        r"of \d+ bytes, over the limit of 1048576", error), error
