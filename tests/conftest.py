"""Shared fixtures: sample builders, the packaged toy pipeline pieces and a
loopback HTTP stub."""

from __future__ import annotations

import contextlib
import threading
from importlib import resources
from typing import Iterator

import pytest

from adrcm.corpus import builtin_schema, parse_cui_map, parse_pubtator
from adrcm.kb import build_index, load_kb
from adrcm.llm import HashingEmbedder
from adrcm.mock import TOY_CHUNK_PARAMS
from adrcm.model import Document, Entity, Mention, TrainingSample, Triplet
from http_stub import StubServer


def make_sample(doc_id: str, sentences: list[str],
                entities: list[tuple[str, str, list[tuple[int, str]]]],
                triplets: list[tuple[str, str, str]] = ()) -> TrainingSample:
    """Build a consistent sample from sentence strings and mention specs.

    Each entity is (entity_id, etype, [(sentence_index, surface), ...]);
    the surface must occur inside that sentence. Offsets and sentence
    ranges are computed here so tests never hand-maintain them.
    """
    text = " ".join(sentences)
    ranges: list[tuple[int, int]] = []
    pos = 0
    for i, sentence in enumerate(sentences):
        end = pos + len(sentence)
        if i + 1 < len(sentences):
            end += 1
        ranges.append((pos, end))
        pos = end
    built = []
    for entity_id, etype, mentions in entities:
        ms = []
        for sent_idx, surface in mentions:
            start, end = ranges[sent_idx]
            at = text.find(surface, start, end)
            if at < 0:
                raise AssertionError(f"{surface!r} not in sentence {sent_idx}")
            ms.append(Mention(surface, sent_idx, (at, at + len(surface))))
        built.append(Entity(entity_id, etype, ms[0].surface, tuple(ms)))
    title = sentences[0]
    body = " ".join(sentences[1:])
    doc = Document(doc_id, title, body, tuple(ranges))
    return TrainingSample(doc, tuple(built),
                          tuple(Triplet(h, t, r) for h, t, r in triplets))


def load_toy_assets() -> tuple[str, dict[str, str], str]:
    """The packaged toy inputs: PubTator text, CUI map, KB snapshot text."""
    root = resources.files("adrcm.data.toy")
    pubtator = root.joinpath("toy_corpus.pubtator").read_text(encoding="utf-8")
    cui_map = parse_cui_map(root.joinpath("toy_cui_map.tsv").read_text(encoding="utf-8"))
    kb_text = root.joinpath("toy_kb.jsonl").read_text(encoding="utf-8")
    return pubtator, cui_map, kb_text


class OverlapBackend:
    """Chat backend that records concurrency and proves two calls overlap.

    ``reply`` maps the prompt text to an answer (or raises). The first two
    calls made off the main thread wait for each other on a barrier, which
    breaks after 5 s unless both are in flight at once; calls on the main
    thread never wait. Records the peak number of calls in flight and the
    threads that made calls.
    """

    def __init__(self, reply, *, parallel_safe: bool = True):
        self.reply = reply
        self.parallel_safe = parallel_safe
        self.calls = 0
        self.peak_in_flight = 0
        self.threads: set[int] = set()
        self._in_flight = 0
        self._to_pair = 2
        self._barrier = threading.Barrier(2, timeout=5)
        self._lock = threading.Lock()

    def complete(self, exchange):
        with self._lock:
            self.calls += 1
            self.threads.add(threading.get_ident())
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            pair = (threading.current_thread() is not threading.main_thread()
                    and self._to_pair > 0)
            self._to_pair -= pair
        try:
            if pair:
                self._barrier.wait()
            return self.reply(exchange.messages[-1].content)
        finally:
            with self._lock:
                self._in_flight -= 1


@pytest.fixture(scope="session")
def cdr_schema():
    return builtin_schema("cdr")


@pytest.fixture(scope="session")
def toy_corpus(cdr_schema):
    pubtator, cui_map, _ = load_toy_assets()
    return parse_pubtator(pubtator, cdr_schema, cui_map=cui_map, dataset_tag="CDR")


@pytest.fixture(scope="session")
def toy_kb_docs():
    _, _, kb_text = load_toy_assets()
    return load_kb(kb_text)


@pytest.fixture(scope="session")
def toy_index(toy_kb_docs):
    return build_index(toy_kb_docs, HashingEmbedder(), params=TOY_CHUNK_PARAMS)


@contextlib.contextmanager
def serving_stub() -> Iterator[StubServer]:
    server = StubServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def http_stub():
    with serving_stub() as server:
        yield server
