"""In-memory spans for the traced benchmark run, and the per-layer metrics.

Spans are recorded from the benchmark's own files: the harness opens a span
around each stage call it makes, and :func:`patched` wraps, at run time, the
public names the program calls internally (``adrcm.infer.predict_pair`` and
``retrieve``, ``adrcm.iors.generate_synthetic``,
``adrcm.kb.candidate_chunk_ids``) plus the gateway's ``chat`` and
``embed_batch`` and the backend's ``complete`` on the objects the harness
builds. Nothing in ``adrcm`` is edited. Each span has a name, start, end,
parent, the id of the pair or triplet it serves, and the round (one set-up
repeat or one timed iteration) it ran in.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import adrcm.infer
import adrcm.iors
import adrcm.kb


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: int | None
    unit: str | None
    round: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when enabled; every call is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = ""
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, unit: str | None = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.span_id if parent else None,
                    unit if unit is not None else (parent.unit if parent else None),
                    self.round, attrs=attrs)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(self, name: str, fn, *, unit=None, attrs=None, result_attrs=None):
        """``fn`` wrapped in a span; ``unit``/``attrs`` read the bound arguments."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            span = self.start(name, unit(bound) if unit else None,
                              **(attrs(bound) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
                if result_attrs is not None:
                    span.attrs.update(result_attrs(result))
                return result
            finally:
                self.finish(span)
        return wrapper

    def instrument_gateway(self, gateway) -> None:
        """Span the gateway's chat and embedding calls and its backend's calls."""
        if not self.enabled:
            return
        gateway.chat = self.wrap("llm.chat", gateway.chat, attrs=lambda a: {
            "chars": sum(len(m.content) for m in a["exchange"].messages)})
        self.instrument_embedder(gateway)
        backend = gateway.chat_backend
        backend.complete = self.wrap("llm.complete", backend.complete)

    def instrument_embedder(self, embedder) -> None:
        if self.enabled:
            embedder.embed_batch = self.wrap(
                "llm.embed_batch", embedder.embed_batch,
                attrs=lambda a: {"texts": len(a["texts"])})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "unit": s.unit, "round": s.round,
                    "attrs": s.attrs}, sort_keys=True) + "\n")


def _pair_unit(bound) -> str:
    return f"{bound['sample'].document.doc_id}/{bound['head_id']}/{bound['tail_id']}"


def _triplet_unit(bound) -> str:
    return (f"{bound['document'].doc_id}/{bound['head'].entity_id}/"
            f"{bound['tail'].entity_id}")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap the program's internal call sites for the duration of the block."""
    if not tracer.enabled:
        yield
        return
    targets = [
        (adrcm.infer, "predict_pair", "infer.predict_pair", dict(
            unit=_pair_unit, result_attrs=lambda r: {"unparseable": r.unparseable})),
        (adrcm.infer, "retrieve", "kb.retrieve", {}),
        (adrcm.kb, "candidate_chunk_ids", "kb.candidate_chunk_ids",
         dict(result_attrs=lambda r: {"scored": len(r)})),
        (adrcm.iors, "generate_synthetic", "iors.generate_synthetic", dict(
            unit=_triplet_unit,
            result_attrs=lambda r: {"accepted": r.accepted, "rounds": r.iterations_used})),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, span_name, options in targets:
            setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), **options))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def self_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (count, total seconds, self seconds).

    Self time is a span's duration minus the part its children cover.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, list] = {}
    for s in spans:
        covered = _union([(c.start, c.end) for c in children.get(s.span_id, ())])
        entry = out.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.duration
        entry[2] += s.duration - covered
    return {name: (n, total, own) for name, (n, total, own) in sorted(out.items())}


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], iteration_rounds: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced rounds.

    Stage times (``*_s``) and counts are the median over rounds of their
    per-round sum, taken over the rounds in which the span occurs (set-up
    repeats for loads that belong to set-up); per-call times are
    percentiles over every call.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    has_child = {s.parent for s in spans if s.name == "llm.complete"}
    parent_name = {s.span_id: s.name for s in spans}

    def per_round(name: str, value=lambda s: s.duration, rounds=None) -> float:
        sums: dict[str, float] = {}
        for s in by_name.get(name, ()):
            sums[s.round] = sums.get(s.round, 0.0) + value(s)
        if rounds is not None:
            sums = {r: sums.get(r, 0.0) for r in rounds}
        return statistics.median(sums.values()) if sums else 0.0

    def ms(name: str, keep=lambda s: True) -> list[float]:
        return [s.duration * 1e3 for s in by_name.get(name, ()) if keep(s)]

    chats = by_name.get("llm.chat", [])
    hits = [s for s in chats if s.span_id not in has_child]
    per_iter = len(iteration_rounds) or 1
    miss_ms = ms("llm.chat", lambda s: s.span_id in has_child)
    busy = statistics.median([
        _union([(s.start, s.end) for s in by_name.get("llm.complete", ()) if s.round == r])
        for r in iteration_rounds]) if iteration_rounds else 0.0
    triplets = by_name.get("iors.generate_synthetic", [])
    pairs = by_name.get("infer.predict_pair", [])
    pair_prompts = [s.attrs["chars"] for s in chats
                    if parent_name.get(s.parent) == "infer.predict_pair"]
    retrieves = by_name.get("kb.candidate_chunk_ids", [])
    return {
        "llm.backend_busy_s": (busy, "s"),
        "llm.chat_miss_ms_p50": (_pct(miss_ms, 50), "ms"),
        "llm.chat_miss_ms_p90": (_pct(miss_ms, 90), "ms"),
        "llm.chat_hit_ms_p50": (_pct([s.duration * 1e3 for s in hits], 50), "ms"),
        "llm.chat_live": (len(by_name.get("llm.complete", [])) / per_iter, "count"),
        "llm.cache_hits": (len(hits) / per_iter, "count"),
        "llm.cache_hit_ratio": (len(hits) / len(chats) if chats else 0.0, "ratio"),
        "llm.embed_texts": (per_round("llm.embed_batch", lambda s: s.attrs["texts"],
                                      iteration_rounds), "count"),
        "llm.embed_s": (per_round("llm.embed_batch", rounds=iteration_rounds), "s"),
        "kb.retrieve_ms_p50": (_pct(ms("kb.retrieve"), 50), "ms"),
        "kb.retrieve_ms_p90": (_pct(ms("kb.retrieve"), 90), "ms"),
        "kb.chunks_scored_per_query": (
            statistics.mean(s.attrs["scored"] for s in retrieves) if retrieves else 0.0,
            "count"),
        "kb.load_s": (per_round("kb.load"), "s"),
        "kb.build_s": (per_round("kb.build"), "s"),
        "kb.save_s": (per_round("kb.save"), "s"),
        "iors.triplet_ms_p50": (_pct(ms("iors.generate_synthetic"), 50), "ms"),
        "iors.triplet_ms_p90": (_pct(ms("iors.generate_synthetic"), 90), "ms"),
        "iors.rounds_per_triplet": (
            statistics.mean(s.attrs["rounds"] for s in triplets) if triplets else 0.0,
            "count"),
        "iors.accepted_ratio": (
            sum(s.attrs["accepted"] for s in triplets) / len(triplets) if triplets else 0.0,
            "ratio"),
        "infer.pair_ms_p50": (_pct(ms("infer.predict_pair"), 50), "ms"),
        "infer.pair_ms_p90": (_pct(ms("infer.predict_pair"), 90), "ms"),
        "infer.prompt_chars_mean": (
            statistics.mean(pair_prompts) if pair_prompts else 0.0, "chars"),
        "infer.unparseable": (
            sum(s.attrs["unparseable"] for s in pairs) / per_iter, "count"),
        "corpus.parse_s": (per_round("corpus.parse"), "s"),
        "corpus.load_s": (per_round("corpus.load"), "s"),
        "dataset.build_s": (per_round("dataset.build"), "s"),
        "evaluate.report_s": (per_round("evaluate.report"), "s"),
        "files.write_s": (per_round("files.write"), "s"),
        "files.bytes_written": (per_round("files.write", lambda s: s.attrs["bytes"]),
                                "bytes"),
    }
