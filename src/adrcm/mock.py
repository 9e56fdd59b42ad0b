"""The chat script of the offline ``e2e-mock`` run over the packaged toy corpus.

Replies are a pure function of request content: the script is recorded up
front by running the synthesis and inference code with a recording chat
function, keyed by request hash. ``adrcm.cli.run_e2e_mock`` replays it
through the pipeline's stage functions, so reruns produce byte-identical
artifacts and an interrupted run resumes through the gateway's reply cache.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from .corpus import Corpus, enumerate_candidate_pairs
from .infer import InferenceConfig, build_instruction, predict_pair, retrieve_for_pair
from .iors import IorsConfig, generate_synthetic, positive_triplets
from .kb import ChunkParams, CuiIndex
from .llm import ChatExchange, Embedder, ScriptedBackend, exchange_key

TOY_CHUNK_PARAMS = ChunkParams(size=48, overlap=8, min_tail=8)

_CONFIRM_REJECT = "These could be unrelated."
_UNPARSEABLE_REPLY = "The text does not make this clear."


def _digest(*parts: str) -> int:
    blob = "|".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _styled_label(label: str, style: int) -> str:
    if style == 0:
        return label
    if style == 1:
        return f"The relation is {label}."
    return label.lower() + "."


def _confirm_reply(schema, label: str, style: int) -> str:
    # Confirmations are read with RelationSchema.label_of alone, so every
    # variant here must name the label as a whole.
    if style == 1:
        return label.lower() + "."
    if style == 2:
        for alias, target in sorted(schema.aliases.items()):
            if target == label:
                return alias
    return label


def build_mock_script(corpus: Corpus, index: CuiIndex | None, iors_config: IorsConfig,
                      infer_config: InferenceConfig, embedder: Embedder) -> dict[str, str]:
    """Compile request-hash -> reply for every chat call the pipeline makes, by
    running the synthesis and inference code with a recording chat function.
    Retrieval queries are embedded with ``embedder``, the one that built ``index``.

    Synthesis: each positive triplet fails a content-derived number of
    rounds (possibly all of them) before the confirmation accepts.
    Inference: most pairs answer with the gold label in varied phrasings;
    a slice answer wrongly and a slice are deliberately unparseable.
    """
    schema = corpus.schema
    positives = schema.positive_labels
    instruction = build_instruction(schema, infer_config.instruction)
    script: dict[str, str] = {}

    def recorder(replies: list[str]) -> Callable[[ChatExchange], str]:
        # Takes the next canned reply; a request recorded earlier keeps its first
        # reply, which is what the runtime will answer.
        complete = ScriptedBackend(replies).complete
        return lambda exchange: script.setdefault(exchange_key(exchange), complete(exchange))

    for sample in corpus.samples:
        doc = sample.document
        for triplet in positive_triplets(sample):
            head = sample.entity(triplet.head_id)
            tail = sample.entity(triplet.tail_id)
            fail_rounds = _digest("synth", doc.doc_id, triplet.head_id,
                                  triplet.tail_id) % 4
            replies: list[str] = []
            for round_no in range(iors_config.beta):
                replies.append(f"In document {doc.doc_id}, {head.canonical_name} is "
                               f"reported to stand in the {triplet.relation} relation "
                               f"to {tail.canonical_name} (draft {round_no + 1}).")
                replies.append(_confirm_reply(schema, triplet.relation, round_no % 3)
                               if round_no >= fail_rounds else _CONFIRM_REJECT)
            generate_synthetic(recorder(replies), doc, head, tail, triplet.relation,
                               schema, iors_config)

        for head_id, tail_id, gold in enumerate_candidate_pairs(sample, schema):
            roll = _digest("infer", doc.doc_id, head_id, tail_id)
            if roll % 10 == 9:
                reply = _UNPARSEABLE_REPLY
            elif roll % 10 in (7, 8):
                if gold == schema.none_label:
                    reply = positives[roll % len(positives)]
                else:
                    reply = schema.none_label
            else:
                reply = _styled_label(gold, (roll // 10) % 3)
            snippets = retrieve_for_pair(embedder, index, schema, sample.entity(head_id),
                                         sample.entity(tail_id), infer_config)
            predict_pair(recorder([reply]), instruction, sample, head_id, tail_id, snippets,
                         schema, infer_config)
    return script
