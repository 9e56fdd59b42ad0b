"""Iterative re-summarization: turning gold triplets into synthetic summaries.

For every positive triplet we ask the chat model for a document summary
focused on that relation, then ask it (from the summary alone) which
relation holds. If the confirmed relation matches the gold one the summary
is kept; otherwise it is fed back as a "previous unsatisfactory summary"
and we try again, up to a bounded number of rounds. Triplets that never
confirm are discarded rather than kept as noisy data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

from .config import DEFAULTS
from .corpus import Corpus
from .files import dump_jsonl, jsonl_lines, parse_jsonl
from .llm import ChatExchange, LlmGateway, ProtocolError, TransportError, user_exchange
from .model import Document, Entity, RelationSchema, TrainingSample, Triplet
from .templating import resolve


@dataclass(frozen=True)
class IorsConfig:
    """Knobs for the synthesis loop.

    ``beta`` bounds the number of summary rounds per triplet. The two
    instruction templates may be replaced wholesale; the summary template
    must have exactly the head/tail/relation slots and the confirmation
    template exactly the head/tail/labels slots. The confirmation template
    deliberately has no relation slot, so the checking step stays blind to
    the gold answer.
    """

    beta: int = DEFAULTS["beta"]
    summary_instruction: str | None = None
    confirmation_instruction: str | None = None
    model_id: str = DEFAULTS["chat_model"]
    # Fixed, not settings: summaries are sampled, confirmations read
    # deterministically, and a longer summary fails its round.
    summary_temperature: ClassVar[float] = 0.7
    confirmation_temperature: ClassVar[float] = 0.0
    max_summary_chars: ClassVar[int] = 4000

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        for name in ("summary_instruction", "confirmation_instruction"):
            object.__setattr__(self, name, resolve(name, getattr(self, name)))


def build_summary_prompt(document: Document, head: Entity, tail: Entity,
                         relation: str, config: IorsConfig,
                         previous_summaries: Sequence[str] = ()) -> str:
    parts = [
        config.summary_instruction.format(
            head=head.canonical_name, tail=tail.canonical_name, relation=relation).strip(),
        "Document:\n" + document.text,
    ]
    if previous_summaries:
        numbered = "\n".join(
            f"{i}. {summary}" for i, summary in enumerate(previous_summaries, start=1)
        )
        parts.append("Previous unsatisfactory summaries:\n" + numbered)
    return "\n\n".join(parts)


def build_confirmation_prompt(summary: str, head: Entity, tail: Entity,
                              schema: RelationSchema, config: IorsConfig) -> str:
    instruction = config.confirmation_instruction.format(
        head=head.canonical_name, tail=tail.canonical_name,
        labels=", ".join(schema.labels)).strip()
    return instruction + "\n\nSummary:\n" + summary


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of the loop for a single triplet."""

    accepted: bool
    summary: str | None
    iterations_used: int  # rounds run, one summary call each
    failures: tuple[str, ...]
    confirmation_calls: int


def generate_synthetic(chat: Callable[[ChatExchange], str], document: Document,
                       head: Entity, tail: Entity, relation: str, schema: RelationSchema,
                       config: IorsConfig | None = None) -> SynthesisResult:
    """Run the re-summarization loop for one triplet, asking ``chat`` for replies.

    Each round costs one summary call and, unless the summary is empty or
    over the length cap, one confirmation call. A round whose confirmed
    relation matches ``relation`` ends the loop; otherwise its summary
    joins the failure list shown to the next round.
    """
    config = config if config is not None else IorsConfig()
    if relation not in schema.positive_labels:
        raise ValueError(f"not a positive relation label: {relation!r}")
    failures: list[str] = []
    confirmation_calls = 0
    for iteration in range(config.beta):
        prompt = build_summary_prompt(document, head, tail, relation, config, failures)
        summary = chat(user_exchange(
            prompt, temperature=config.summary_temperature,
            model_id=config.model_id)).strip()
        if not summary or len(summary) > config.max_summary_chars:
            failures.append(summary)
            continue
        check = build_confirmation_prompt(summary, head, tail, schema, config)
        reply = chat(user_exchange(
            check, temperature=config.confirmation_temperature,
            model_id=config.model_id))
        confirmation_calls += 1
        if schema.label_of(reply) == relation:
            return SynthesisResult(True, summary, iteration + 1, tuple(failures),
                                   confirmation_calls)
        failures.append(summary)
    return SynthesisResult(False, None, config.beta, tuple(failures), confirmation_calls)


@dataclass(frozen=True)
class SyntheticRecord:
    """An accepted summary, tied back to its source document and triplet."""

    doc_id: str
    head_id: str
    tail_id: str
    relation: str
    summary: str

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not str:
                raise TypeError(f"{name} {value!r} is not a string")


@dataclass(frozen=True)
class DiscardedSynthesis:
    doc_id: str
    head_id: str
    tail_id: str
    relation: str


@dataclass(frozen=True)
class SynthesisReport:
    records: tuple[SyntheticRecord, ...]
    discarded: tuple[DiscardedSynthesis, ...]
    errors: tuple[str, ...]
    summary_calls: int
    confirmation_calls: int

    @property
    def accepted_count(self) -> int:
        return len(self.records)

    @property
    def discarded_count(self) -> int:
        return len(self.discarded)


def positive_triplets(sample: TrainingSample) -> list[Triplet]:
    """The gold triplets, each positive and one per pair in a Corpus, in pair order."""
    return sorted(sample.triplets, key=lambda t: (t.head_id, t.tail_id))


def run_corpus_synthesis(gateway: LlmGateway, corpus: Corpus,
                         config: IorsConfig | None = None) -> SynthesisReport:
    """Synthesize summaries for every positive triplet of every document.

    Triplets run through :meth:`LlmGateway.map`, up to ``max_in_flight`` at
    a time; the rounds of one triplet stay sequential. Each triplet's
    requests depend only on the corpus and its own replies, and results
    are folded in corpus order, triplets in canonical order, so the report
    does not depend on scheduling. Transport failures that survive the
    gateway's retries, and replies the backend refuses or garbles
    (``ProtocolError``), skip just the affected triplet and are reported, not
    raised. A ``ScriptExhaustedError`` still aborts: the script is broken.
    """
    config = config if config is not None else IorsConfig()
    jobs = [(sample, triplet) for sample in corpus.samples
            for triplet in positive_triplets(sample)]

    def synthesize(job: tuple[TrainingSample, Triplet]) -> SynthesisResult | Exception:
        sample, triplet = job
        try:
            return generate_synthetic(
                gateway.chat, sample.document, sample.entity(triplet.head_id),
                sample.entity(triplet.tail_id), triplet.relation,
                corpus.schema, config)
        except (TransportError, ProtocolError) as exc:
            return exc

    records: list[SyntheticRecord] = []
    discarded: list[DiscardedSynthesis] = []
    errors: list[str] = []
    summary_calls = 0
    confirmation_calls = 0
    for (sample, triplet), result in zip(jobs, gateway.map(synthesize, jobs)):
        doc_id = sample.document.doc_id
        if isinstance(result, Exception):
            errors.append(f"{doc_id}/{triplet.head_id}/{triplet.tail_id}: {result}")
            continue
        summary_calls += result.iterations_used
        confirmation_calls += result.confirmation_calls
        if result.accepted:
            assert result.summary is not None
            records.append(SyntheticRecord(
                doc_id, triplet.head_id, triplet.tail_id,
                triplet.relation, result.summary))
        else:
            discarded.append(DiscardedSynthesis(
                doc_id, triplet.head_id, triplet.tail_id, triplet.relation))
    return SynthesisReport(tuple(records), tuple(discarded), tuple(errors),
                           summary_calls, confirmation_calls)


def save_synthetic(records: Iterable[SyntheticRecord]) -> str:
    return dump_jsonl(records)


def load_synthetic(text: str) -> tuple[SyntheticRecord, ...]:
    return tuple(record for _, record in parse_jsonl(
        jsonl_lines(text), "synthetic", lambda row: SyntheticRecord(**row)))
