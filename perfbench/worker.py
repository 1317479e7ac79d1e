"""Timed ``run_pipeline`` calls in a fresh interpreter; started by ``run.py``.

Usage: ``python worker.py WORK_DIR SECONDS TRACE``.  ``WORK_DIR`` holds the
``inputs/`` and ``warmup/`` directories that ``run.py`` generated.  The worker
runs one untimed warm-up pipeline, then whole pipelines back to back until
the next one would end after ``SECONDS``.  Peak RSS is read after the first
of them.  With ``TRACE`` 1 the runs alternate
traced and untraced, starting traced.  Each run's outputs are checked.  The
results go to ``WORK_DIR/result.json`` and the spans of the traced runs to
``WORK_DIR/spans.jsonl``, both outside every pipeline ``out_dir``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import ROOT, Tracer, self_time_by_name, self_times


def check_outputs(report, out_dir: Path, settings: dict, reference: str | None) -> str | None:
    """Return why the run's outputs are wrong, or None when they pass."""
    values = (report.macro_unseen_accuracy, report.sample_accuracy, report.el_total_loss)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite report metric in {values}"
    if reference is not None and (out_dir / "manifest.txt").read_text() != reference:
        return "manifest.txt differs from the first run"
    rows = [line.split("\t") for line in (out_dir / "predictions.tsv").read_text().splitlines()]
    if len(rows) != len(settings["test"]):
        return f"predictions.tsv has {len(rows)} rows for {len(settings['test'])} test samples"
    candidates = set(settings["candidates"])
    for row, (sample_id, label) in zip(rows, settings["test"]):
        if len(row) != 3 or row[0] != sample_id or row[2] != label or row[1] not in candidates:
            return f"bad prediction row {row!r} for sample {sample_id}"
    return None


def ball_fractions(out_dir: Path, margin: float) -> dict[str, float]:
    """How many entailed subsumptions nest and how many DISJ pairs separate.

    A pair A below B nests when |c(A)-c(B)| + r(A) <= r(B) + margin, the zero
    set of the NF1 hinge; DISJ A B separates when |c(A)-c(B)| >= r(A) + r(B) +
    margin, the zero set of the disjointness hinge.  Read from the run's files.
    """
    from ontozsl.elembed import import_space
    from ontozsl.normalform import BOTTOM, TOP, Disjointness, classify, read_normalized

    normalized = read_normalized((out_dir / "normalized.txt").read_text())
    space = import_space((out_dir / "el_space.tsv").read_text())
    balls = space.concepts

    def gap(a: str, b: str) -> float:
        return float(np.linalg.norm(balls[a].center - balls[b].center))

    builtin = {TOP, BOTTOM}
    pairs = [(a, b) for a, b in classify(normalized) if a != b and not {a, b} & builtin]
    nested = sum(gap(a, b) + balls[a].radius <= balls[b].radius + margin for a, b in pairs)
    disj = [ax for ax in normalized.axioms if isinstance(ax, Disjointness)]
    separated = sum(
        gap(ax.left, ax.right) >= balls[ax.left].radius + balls[ax.right].radius + margin
        for ax in disj
    )
    return {
        "el_nest_fraction": nested / len(pairs) if pairs else 1.0,
        "nest_pairs": len(pairs),
        "disjoint_fraction": separated / len(disj) if disj else 1.0,
        "disjoint_pairs": len(disj),
    }


def layer_metrics(tracer: Tracer, run: int, cfg, settings: dict, out_dir: Path) -> dict[str, float]:
    """Per-layer numbers of one traced run, from its spans and kept results."""
    from ontozsl import textwalk
    from ontozsl.zslmap import Component

    spans = tracer.finished(run)
    own = self_time_by_name(spans)

    def busy(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    normalized = tracer.kept["normalform.normalize"]
    kinds = Counter(type(ax).__name__ for ax in normalized.axioms)
    axioms = len(normalized.axioms)
    steps = cfg.el_epochs * -(-axioms // cfg.el_batch)
    train_s = busy("elembed.train")

    corpus = tracer.kept["textwalk.lexicalize"]
    vectors = tracer.kept["textwalk.skipgram"]
    vocab = vectors.vectors.keys()
    pairs_per_pass = 0
    for sentence in corpus.sentences:
        length = sum(token in vocab for token in sentence)
        for i in range(length):
            pairs_per_pass += min(length, i + cfg.w2v_window + 1) - max(0, i - cfg.w2v_window) - 1
    sg_pairs = pairs_per_pass * cfg.w2v_epochs
    skipgram_s = busy("textwalk.skipgram")
    dataset = tracer.kept["harness.load_dataset"]
    used: set[str] = set()
    if Component.WORD in cfg.component_list():
        ontology = tracer.kept["ontology.parse"]
        for label in dataset.seen_labels | dataset.unseen_labels:
            used.update(t for t in textwalk.name_tokens(label, ontology) if t in vocab)

    load_s = busy("harness.load_dataset")
    feature_bytes = Path(cfg.features).stat().st_size
    predict_s = busy("zslmap.predict", "zslmap.map_features")
    predict_calls = sum(s.name == "zslmap.predict" for s in spans)
    return {
        "ontology.parse_s": busy("ontology.parse"),
        "normalform.normalize_s": busy("normalform.normalize"),
        "normalform.axioms": axioms,
        "normalform.nf1": kinds["NF1"],
        "normalform.nf2": kinds["NF2"],
        "normalform.nf3": kinds["NF3"],
        "normalform.nf4": kinds["NF4"],
        "normalform.disj": kinds["Disjointness"],
        "normalform.rsub": kinds["RSub"],
        "elembed.train_s": train_s,
        "elembed.steps": steps,
        "elembed.us_per_axiom_epoch": train_s * 1e6 / (axioms * cfg.el_epochs),
        "elembed.loss_eval_s": busy("elembed.loss_eval"),
        "elembed.export_s": busy("elembed.export"),
        "textwalk.walk_s": busy("textwalk.project", "textwalk.random_walks", "textwalk.lexicalize"),
        "textwalk.corpus_tokens": sum(len(s) for s in corpus.sentences),
        "textwalk.vocab": len(vocab),
        "textwalk.skipgram_s": skipgram_s,
        "textwalk.sg_pairs": sg_pairs,
        "textwalk.sg_us_per_pair": skipgram_s * 1e6 / sg_pairs,
        "textwalk.sg_final_loss": vectors.train_losses[-1],
        "textwalk.save_s": busy("textwalk.save_corpus", "textwalk.save_vectors"),
        "textwalk.vectors_used_ratio": len(used) / len(vocab),
        "harness.load_dataset_s": load_s,
        "harness.feature_bytes": feature_bytes,
        "harness.load_mb_per_s": feature_bytes / 1e6 / load_s,
        "zslmap.encode_s": busy("zslmap.encode"),
        "zslmap.train_map_s": busy("zslmap.train_map"),
        "zslmap.sae_loss_calls": tracer.counts[run, "zslmap.sae_loss_calls"],
        "zslmap.predict_s": predict_s,
        "zslmap.predict_calls": predict_calls,
        "zslmap.distance_evals": predict_calls * len(settings["candidates"]),
        "zslmap.predict_us_per_sample": predict_s * 1e6 / predict_calls,
        "zslmap.save_s": busy("zslmap.save_encodings", "zslmap.save_model"),
        "pipeline.self_s": busy(ROOT),
        "pipeline.artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
    }


def main(argv: list[str]) -> int:
    work, seconds, trace = Path(argv[1]), float(argv[2]), argv[3] == "1"
    from ontozsl import pipeline

    def load(name: str):
        settings = json.loads((work / name / "settings.json").read_text())
        return settings, pipeline.RunConfig(**settings["config"])

    _, warm_cfg = load("warmup")
    pipeline.run_pipeline(warm_cfg)
    settings, cfg = load("inputs")
    out_dir = Path(cfg.out_dir)

    tracer = Tracer()
    runs: list[dict] = []
    layers: list[dict[str, float]] = []
    reference = None
    report = None
    start = time.perf_counter()
    while True:
        run = len(runs)
        traced = trace and run % 2 == 0
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(run):
                    report = tracer.wrap(ROOT, pipeline.run_pipeline)(cfg)
            else:
                report = pipeline.run_pipeline(cfg)
            elapsed = time.perf_counter() - t0
            error = check_outputs(report, out_dir, settings, reference)
        except Exception:
            elapsed = time.perf_counter() - t0
            error = traceback.format_exc()
        if error is None:
            reference = reference or (out_dir / "manifest.txt").read_text()
            if traced:
                layers.append(layer_metrics(tracer, run, cfg, settings, out_dir))
        else:
            print(f"run {run} failed: {error}", file=sys.stderr)
        runs.append({"traced": traced, "seconds": elapsed, "ok": error is None})
        if run == 0:
            # Later repeats in the same process fragment the heap and raise the
            # peak by 14-29 MB at random, which one pipeline per process never sees.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        used = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in runs)
        if len(runs) >= (2 if trace else 1) and used + typical > seconds:
            break

    result = {"runs": runs, "peak_rss_mb": peak_rss_mb, "layers": layers}
    if runs[-1]["ok"]:
        result["quality"] = {
            "macro_unseen_accuracy": report.macro_unseen_accuracy,
            "el_total_loss": report.el_total_loss,
            **ball_fractions(out_dir, cfg.el_margin),
        }
    with open(work / "spans.jsonl", "w") as f:
        for run in sorted({s.run for s in tracer.spans if s is not None}):
            spans = tracer.finished(run)
            own = self_times(spans)
            for s in spans:
                f.write(json.dumps({**dataclasses.asdict(s), "self": own[s.id]}) + "\n")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
