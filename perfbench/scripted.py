"""Scripted chat replies for the benchmark, and a latency-injecting backend.

The script is compiled by walking the exact prompts the pipeline will send,
built with the program's own prompt functions, and keying a canned reply by
``exchange_key``. Reply outcomes are assigned by position in a fixed cycle,
not by a hash of ids, so every seed gets the same number of synthesis rounds
and the same mix of right, wrong and unparseable answers: the seed changes
the ids and text, not the amount of work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from adrcm.infer import (
    InferenceConfig,
    assemble_prompt,
    build_instruction,
    retrieve_for_pair,
)
from adrcm.iors import IorsConfig, build_confirmation_prompt, build_summary_prompt
from adrcm.llm import (
    HashingEmbedder,
    LlmGateway,
    ScriptedBackend,
    exchange_key,
    user_exchange,
)

from scaleup import NONE_LABEL, POSITIVE_LABEL, Pair

# Rounds each triplet is rejected before its confirmation accepts; with
# beta = 3 the last entry is never accepted and the triplet is discarded.
FAIL_ROUNDS = (0, 1, 2, 3)
# Inference outcome by pair position: mostly right in three phrasings,
# two in ten wrong, one in ten unparseable.
INFER_OUTCOMES = ("right",) * 7 + ("wrong",) * 2 + ("unparseable",)
CONFIRM_REJECT = "These could be unrelated."
UNPARSEABLE_REPLY = "The text does not make this clear."


class LatencyBackend:
    """Wraps a chat backend with a fixed sleep on every live call.

    Counts live calls and the peak number of calls in flight at once.
    """

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.parallel_safe = inner.parallel_safe
        self.calls = 0
        self.max_concurrent = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def complete(self, exchange):
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.max_concurrent = max(self.max_concurrent, self._in_flight)
        try:
            if self.delay_s > 0:
                time.sleep(self.delay_s)
            return self.inner.complete(exchange)
        finally:
            with self._lock:
                self._in_flight -= 1


@dataclass(frozen=True)
class ExpectedSynthesis:
    accepted: dict[tuple[str, str, str], str]
    discarded: frozenset[tuple[str, str, str]]
    summary_calls: int
    confirmation_calls: int


@dataclass(frozen=True)
class ExpectedPrediction:
    label: str
    unparseable: bool
    raw_output: str
    snippet_ids: tuple[str, ...]


def _styled(label: str, position: int) -> str:
    style = position % 3
    if style == 1:
        return f"The relation is {label}."
    if style == 2:
        return label.lower() + "."
    return label


def _confirmation(schema, label: str, position: int) -> str:
    # Confirmation replies are matched by exact normalization only, so each
    # phrasing must normalize back to the label on its own.
    style = position % 3
    if style == 1:
        return label.lower() + "."
    if style == 2:
        return min(alias for alias, target in schema.aliases.items() if target == label)
    return label


class Script:
    """Replies keyed by request hash, plus the requests in compile order."""

    def __init__(self):
        self.replies: dict[str, str] = {}
        self.exchanges = []

    def add(self, exchange, reply: str) -> None:
        key = exchange_key(exchange)
        if key in self.replies:
            raise ValueError(f"two scripted replies for request {key[:12]}")
        self.replies[key] = reply
        self.exchanges.append(exchange)


def compile_synthesis(corpus, config: IorsConfig, script: Script) -> ExpectedSynthesis:
    """Add the synthesis exchanges of ``corpus`` to ``script``."""
    schema = corpus.schema
    accepted: dict[tuple[str, str, str], str] = {}
    discarded: set[tuple[str, str, str]] = set()
    summary_calls = confirmation_calls = 0
    position = 0
    for sample in corpus.samples:
        doc = sample.document
        triplets = sorted((t for t in sample.triplets if t.relation != schema.none_label),
                          key=lambda t: (t.head_id, t.tail_id, t.relation))
        for triplet in triplets:
            head, tail = sample.entity(triplet.head_id), sample.entity(triplet.tail_id)
            fail_rounds = FAIL_ROUNDS[position % len(FAIL_ROUNDS)]
            key = (doc.doc_id, triplet.head_id, triplet.tail_id)
            failures: list[str] = []
            for round_no in range(config.beta):
                prompt = build_summary_prompt(doc, head, tail, triplet.relation,
                                              config, failures)
                summary = (f"In document {doc.doc_id}, {head.canonical_name} stands in "
                           f"the {triplet.relation} relation to {tail.canonical_name} "
                           f"(draft {round_no + 1}).")
                script.add(user_exchange(prompt, temperature=config.summary_temperature,
                                         model_id=config.model_id), summary)
                check = build_confirmation_prompt(summary, head, tail, schema, config)
                ok = round_no >= fail_rounds
                script.add(user_exchange(check, temperature=config.confirmation_temperature,
                                         model_id=config.model_id),
                           _confirmation(schema, triplet.relation, position) if ok
                           else CONFIRM_REJECT)
                summary_calls += 1
                confirmation_calls += 1
                if ok:
                    accepted[key] = summary
                    break
                failures.append(summary)
            else:
                discarded.add(key)
            position += 1
    return ExpectedSynthesis(accepted, frozenset(discarded),
                             summary_calls, confirmation_calls)


def compile_inference(corpus, index, pairs: tuple[Pair, ...], config: InferenceConfig,
                      script: Script) -> dict[tuple[str, str, str], ExpectedPrediction]:
    """Add one inference exchange per candidate pair to ``script``.

    Retrieval runs through the program's own ``retrieve_for_pair``, so the
    compiled prompts are the ones a sequential run sends.
    """
    schema = corpus.schema
    samples = {s.document.doc_id: s for s in corpus.samples}
    instruction = build_instruction(schema, config.instruction)
    embedder_gateway = LlmGateway(ScriptedBackend({}), HashingEmbedder())
    expected: dict[tuple[str, str, str], ExpectedPrediction] = {}
    for position, pair in enumerate(pairs):
        sample = samples[pair.doc_id]
        head, tail = sample.entity(pair.head_id), sample.entity(pair.tail_id)
        snippets = retrieve_for_pair(embedder_gateway, index, schema, head, tail, config)
        prompt = assemble_prompt(instruction, sample.document.text,
                                 head.canonical_name, tail.canonical_name, snippets)
        outcome = INFER_OUTCOMES[position % len(INFER_OUTCOMES)]
        if outcome == "right":
            label, reply = pair.gold, _styled(pair.gold, position // len(INFER_OUTCOMES))
        elif outcome == "wrong":
            label = NONE_LABEL if pair.gold == POSITIVE_LABEL else POSITIVE_LABEL
            reply = label
        else:
            label, reply = NONE_LABEL, UNPARSEABLE_REPLY
        script.add(user_exchange(prompt, temperature=config.temperature,
                                 model_id=config.model_id,
                                 max_tokens=config.max_tokens), reply)
        expected[(pair.doc_id, pair.head_id, pair.tail_id)] = ExpectedPrediction(
            label, outcome == "unparseable", reply, tuple(s.chunk_id for s in snippets))
    return expected
