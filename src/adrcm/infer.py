"""Relation inference over candidate entity pairs.

For each candidate pair the prompt carries the instruction (with the label
inventory), the source document, any retrieved KB snippets for the pair's
concepts, and the two entity names. The model's raw reply is mapped back
onto a schema label; replies that name no label at all fall back to the
negative label and are flagged rather than dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

from .config import DEFAULTS
from .corpus import Corpus, enumerate_candidate_pairs
from .files import dump_jsonl, jsonl_lines, parse_jsonl
from .iors import normalize_relation_label
from .llm import ChatExchange, Embedder, LlmGateway, user_exchange
from .model import Entity, RelationSchema, TrainingSample
from .templating import resolve

RAG_MODES = ("cui", "chunks", "off")


@dataclass(frozen=True)
class InferenceConfig:
    """How prompts are built and retrieval is wired for prediction.

    ``rag_mode`` selects full concept-scoped retrieval ("cui"), similarity
    over all chunks with no concept scoping ("chunks"), or no retrieval at
    all ("off").
    """

    instruction: str | None = None
    k: int = DEFAULTS["k"]
    rag_mode: str = DEFAULTS["rag_mode"]
    model_id: str = DEFAULTS["chat_model"]
    # Fixed, not settings: each request asks for one short label, deterministically.
    temperature: ClassVar[float] = 0.0
    max_tokens: ClassVar[int] = 64

    def __post_init__(self) -> None:
        if self.rag_mode not in RAG_MODES:
            raise ValueError(f"rag_mode must be one of {RAG_MODES}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "instruction",
                           resolve("inference_instruction", self.instruction))


def build_instruction(schema: RelationSchema, template: str | None = None) -> str:
    return resolve("inference_instruction", template).format(
        labels=", ".join(schema.labels)).strip()


def build_task_input(text: str, head_name: str, tail_name: str,
                     snippets: Sequence[RetrievedSnippet] = ()) -> str:
    """The input half of a prompt: document, optional snippets, entities."""
    parts = ["Document:\n" + text]
    if snippets:
        lines = [
            f"[{i}] ({s.source}, {s.cui}) {s.text}"
            for i, s in enumerate(snippets, start=1)
        ]
        parts.append("Relevant snippets:\n" + "\n".join(lines))
    parts.append(f"Head entity: {head_name}\nTail entity: {tail_name}")
    return "\n\n".join(parts)


def assemble_prompt(instruction: str, text: str, head_name: str, tail_name: str,
                    snippets: Sequence[RetrievedSnippet] = ()) -> str:
    return instruction + "\n\n" + build_task_input(text, head_name, tail_name, snippets)


def pair_query_text(schema: RelationSchema, head: Entity, tail: Entity) -> str:
    return f"{head.canonical_name} {tail.canonical_name} {' '.join(schema.labels)}"


def parse_relation_output(raw: str, schema: RelationSchema) -> tuple[str, bool]:
    """Map a raw model reply onto a label.

    Exact (normalized) matches win. Otherwise the earliest whole-word
    occurrence of any label or alias in the reply is used, preferring the
    longest match at the same position. If nothing matches, the negative
    label is returned with the unparseable flag set.
    """
    exact = normalize_relation_label(raw, schema)
    if exact is not None:
        return exact, False
    surface_to_label = {label: label for label in schema.labels}
    surface_to_label.update(schema.aliases)
    best: tuple[int, int, str] | None = None
    for surface, label in surface_to_label.items():
        pattern = re.compile(rf"\b{re.escape(surface)}\b", re.IGNORECASE)
        match = pattern.search(raw)
        if match is None:
            continue
        key = (match.start(), -len(surface))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], label)
    if best is not None:
        return best[2], False
    return schema.none_label, True


@dataclass(frozen=True)
class PredictionRecord:
    doc_id: str
    head_id: str
    tail_id: str
    label: str
    raw_output: str
    snippets_used: tuple[str, ...]
    unparseable: bool


def retrieve(*args, **kwargs) -> list[RetrievedSnippet]:
    """:func:`kb.retrieve`, imported at the first call so that importing this module
    loads no numpy. perfbench's tracing wraps this name."""
    from . import kb
    return kb.retrieve(*args, **kwargs)


def retrieve_for_pair(embedder: Embedder, index: CuiIndex | None,
                      schema: RelationSchema, head: Entity, tail: Entity,
                      config: InferenceConfig) -> list[RetrievedSnippet]:
    if config.rag_mode == "off" or index is None:
        return []
    query_vec = embedder.embed_batch([pair_query_text(schema, head, tail)])[0]
    return retrieve(index, query_vec, head, tail, k=config.k,
                    cui_scoped=config.rag_mode == "cui")


def predict_pair(chat: Callable[[ChatExchange], str], embedder: Embedder,
                 index: CuiIndex | None, sample: TrainingSample, head_id: str,
                 tail_id: str, schema: RelationSchema,
                 config: InferenceConfig | None = None) -> PredictionRecord:
    config = config if config is not None else InferenceConfig()
    head = sample.entity(head_id)
    tail = sample.entity(tail_id)
    snippets = retrieve_for_pair(embedder, index, schema, head, tail, config)
    prompt = assemble_prompt(
        build_instruction(schema, config.instruction), sample.document.text,
        head.canonical_name, tail.canonical_name, snippets)
    raw = chat(user_exchange(
        prompt, temperature=config.temperature,
        model_id=config.model_id, max_tokens=config.max_tokens))
    label, unparseable = parse_relation_output(raw, schema)
    return PredictionRecord(
        sample.document.doc_id, head_id, tail_id, label, raw,
        tuple(s.chunk_id for s in snippets), unparseable)


def predict_corpus(gateway: LlmGateway, index: CuiIndex | None, corpus: Corpus,
                   config: InferenceConfig | None = None) -> list[PredictionRecord]:
    """Predict a label for every candidate pair, in canonical order.

    Pairs run through :meth:`LlmGateway.map`, up to ``max_in_flight`` at a
    time. Each pair's request is a pure function of corpus, index, and
    config, so reruns replay through the gateway cache and an interrupted
    run resumes where it stopped.
    """
    config = config if config is not None else InferenceConfig()
    jobs = [(sample, head_id, tail_id) for sample in corpus.samples
            for head_id, tail_id, _ in enumerate_candidate_pairs(sample, corpus.schema)]
    return gateway.map(lambda job: predict_pair(
        gateway.chat, gateway, index, *job, corpus.schema, config), jobs)


def save_predictions(predictions: Iterable[PredictionRecord]) -> str:
    return dump_jsonl(predictions)


def load_predictions(text: str) -> tuple[PredictionRecord, ...]:
    return tuple(record for _, record in parse_jsonl(
        jsonl_lines(text), "prediction", lambda row: PredictionRecord(
            **{**row, "snippets_used": tuple(row["snippets_used"])})))
