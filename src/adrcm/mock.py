"""Fully offline end-to-end pipeline over the packaged toy corpus.

The mock run calls the pipeline's stage functions in order with a
scripted chat backend and the hashing embedder. Replies are a pure
function of request content: the script is recorded up front by running
the synthesis and inference code against a stand-in gateway, keyed by
request hash. Reruns therefore produce byte-identical artifacts, and an
interrupted run resumes through the gateway's reply cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from importlib import resources

from .config import DEFAULTS
from .corpus import Corpus, builtin_schema, enumerate_candidate_pairs, parse_cui_map
from .files import atomic_write_text, read_text
from .infer import InferenceConfig, predict_pair
from .iors import IorsConfig, generate_synthetic, positive_triplets
from .kb import ChunkParams, CuiIndex
from .llm import ChatExchange, HashingEmbedder, LlmGateway, ScriptedBackend, exchange_key

TOY_CHUNK_PARAMS = ChunkParams(size=48, overlap=8, min_tail=8)

_CONFIRM_REJECT = "These could be unrelated."
_UNPARSEABLE_REPLY = "The text does not make this clear."


def load_toy_assets() -> tuple[str, dict[str, str], str]:
    """The packaged toy inputs: PubTator text, CUI map, KB snapshot text."""
    root = resources.files("adrcm.data.toy")
    pubtator = root.joinpath("toy_corpus.pubtator").read_text(encoding="utf-8")
    cui_map = parse_cui_map(root.joinpath("toy_cui_map.tsv").read_text(encoding="utf-8"))
    kb_text = root.joinpath("toy_kb.jsonl").read_text(encoding="utf-8")
    return pubtator, cui_map, kb_text


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
    # Confirmation matching is exact-normalize only, so every variant here
    # must normalize back to the label on its own.
    if style == 1:
        return label.lower() + "."
    if style == 2:
        for alias, target in sorted(schema.aliases.items()):
            if target == label:
                return alias
    return label


class _Recorder:
    """Stand-in gateway for one triplet or pair: ``chat`` takes the next of
    its canned replies and records it by request hash. A request recorded
    earlier keeps its first reply, which is what the runtime will answer."""

    embed_batch = HashingEmbedder().embed_batch

    def __init__(self, script: dict[str, str], replies: list[str]):
        self._script = script
        self._replies = ScriptedBackend(replies)

    def chat(self, exchange: ChatExchange) -> str:
        reply = self._replies.complete(exchange)
        return self._script.setdefault(exchange_key(exchange), reply)


def build_mock_script(corpus: Corpus, index: CuiIndex | None,
                      iors_config: IorsConfig,
                      infer_config: InferenceConfig) -> dict[str, str]:
    """Compile request-hash -> reply for every chat call the pipeline makes,
    by running the synthesis and inference code against :class:`_Recorder`.

    Synthesis: each positive triplet fails a content-derived number of
    rounds (possibly all of them) before the confirmation accepts.
    Inference: most pairs answer with the gold label in varied phrasings;
    a slice answer wrongly and a slice are deliberately unparseable.
    """
    schema = corpus.schema
    positives = schema.positive_labels
    script: dict[str, str] = {}
    for sample in corpus.samples:
        doc = sample.document
        for triplet in positive_triplets(sample, schema):
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
            generate_synthetic(_Recorder(script, replies), doc, head, tail,
                               triplet.relation, schema, iors_config)

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
            predict_pair(_Recorder(script, [reply]), index, sample, head_id,
                         tail_id, schema, infer_config)
    return script


def run_e2e_mock(workdir: str, *, rag_mode: str = DEFAULTS["rag_mode"]) -> dict[str, str]:
    """Run the pipeline stages from ingest to eval over the toy data.

    Returns a name -> path map of the artifacts written under ``workdir``.
    Only chat replies go through the on-disk cache, which is what makes
    interrupted runs resumable.
    """
    # Imported here: adrcm.cli imports this module, so a module-level import would be circular.
    from . import cli

    paths = {name: os.path.join(workdir, name) for name in (
        "corpus.jsonl", "mock_script.json", "synthetic.jsonl", "synth_report.json",
        "dataset.jsonl", "finetune.jsonl", "finetune_meta.json", "index.jsonl",
        "predictions.jsonl", "report.json")}
    toy = resources.files("adrcm.data.toy")
    corpus_path, index_path = paths["corpus.jsonl"], paths["index.jsonl"]
    corpus = cli.ingest_stage(str(toy.joinpath("toy_corpus.pubtator")), corpus_path,
                              builtin_schema("cdr"), str(toy.joinpath("toy_cui_map.tsv")), "CDR")
    index = cli.index_stage(str(toy.joinpath("toy_kb.jsonl")), index_path,
                            HashingEmbedder(), TOY_CHUNK_PARAMS)
    iors_config, infer_config = IorsConfig(), InferenceConfig(rag_mode=rag_mode)
    script = build_mock_script(corpus, index, iors_config, infer_config)
    atomic_write_text(paths["mock_script.json"],
                      json.dumps({"by_hash": script}, sort_keys=True, indent=2) + "\n")

    gateway = LlmGateway(ScriptedBackend(script), HashingEmbedder(),
                         cache_dir=os.path.join(workdir, "cache"))
    cli.synth_stage(corpus_path, paths["synthetic.jsonl"], paths["synth_report.json"],
                    gateway, iors_config)
    cli.build_adrcm_stage(corpus_path, paths["synthetic.jsonl"], paths["finetune.jsonl"],
                          paths["finetune_meta.json"], paths["dataset.jsonl"])
    cli.infer_stage(corpus_path, index_path, paths["predictions.jsonl"], gateway, infer_config)
    cli.evaluate_stage(corpus_path, paths["predictions.jsonl"], paths["report.json"])
    return paths


def describe_run(paths: dict[str, str]) -> str:
    report = json.loads(read_text(paths["report.json"]))
    lines = ["artifacts:"]
    lines.extend(f"  {name}: {path}" for name, path in sorted(paths.items()))
    micro = report["micro"]
    lines.append(
        f"micro P/R/F1: {micro['precision']:.4f}/{micro['recall']:.4f}/{micro['f1']:.4f}"
    )
    return "\n".join(lines)
