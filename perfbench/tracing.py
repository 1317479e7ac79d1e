"""Spans around the public functions ``run_pipeline`` calls, added from outside.

The tracer replaces module attributes with timing wrappers for the length of
one traced run and restores them afterwards, so the traced run is the real
pipeline and no file of the package changes.  ``pipeline.py`` imports
``parse_ontology``, ``serialize_ontology``, ``normalize`` and
``write_normalized`` by name, so those are patched on ``ontozsl.pipeline``;
every other call goes through a module attribute.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name); the module is a dotted name under ontozsl
SPANS = (
    ("pipeline", "parse_ontology", "ontology.parse"),
    ("pipeline", "serialize_ontology", "ontology.serialize"),
    ("pipeline", "normalize", "normalform.normalize"),
    ("pipeline", "write_normalized", "normalform.write"),
    ("elembed", "train_el", "elembed.train"),
    ("elembed", "total_loss", "elembed.loss_eval"),
    ("elembed", "export_space", "elembed.export"),
    ("textwalk", "project", "textwalk.project"),
    ("textwalk", "random_walks", "textwalk.random_walks"),
    ("textwalk", "lexicalize", "textwalk.lexicalize"),
    ("textwalk", "save_corpus", "textwalk.save_corpus"),
    ("textwalk", "train_skipgram", "textwalk.skipgram"),
    ("textwalk", "save_word_vectors", "textwalk.save_vectors"),
    ("harness", "load_dataset", "harness.load_dataset"),
    ("harness", "parse_vector_table", "harness.parse_vector_table"),
    ("zslmap", "encode_labels", "zslmap.encode"),
    ("zslmap", "save_encodings", "zslmap.save_encodings"),
    ("zslmap", "train_sae", "zslmap.train_map"),
    ("zslmap", "train_ridge", "zslmap.train_map"),
    ("zslmap", "save_model", "zslmap.save_model"),
    ("zslmap", "map_features", "zslmap.map_features"),
    ("zslmap", "predict", "zslmap.predict"),
)

# Called once per gradient-descent iteration inside train_sae: counted, not
# timed, so the count comes from outside without a span per iteration.
COUNTED = (("zslmap", "sae_loss", "zslmap.sae_loss_calls"),)

# Return values kept (the latest per name) for counts taken after the run.
KEEP = frozenset(
    {"ontology.parse", "normalform.normalize", "textwalk.lexicalize", "textwalk.skipgram",
     "harness.load_dataset"}
)

ROOT = "pipeline.run"


@dataclass(frozen=True)
class Span:
    run: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Spans, counters and kept results of traced runs, all held in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[tuple[int, str]] = Counter()
        self.kept: dict[str, object] = {}
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(self.run, sid, parent, name, start, end)
            if keep:
                self.kept[name] = result
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.run, name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, run: int):
        """Patch every traced function for one run, then restore the originals."""
        self.run = run
        saved = []
        try:
            for table, wrapper in ((SPANS, self.wrap), (COUNTED, self.count)):
                for module_name, attr, name in table:
                    module = importlib.import_module(f"ontozsl.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def finished(self, run: int) -> list[Span]:
        return [s for s in self.spans if s is not None and s.run == run]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    own = self_times(spans)
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.id]
    return totals
