"""Command-line entry points for the pipeline stages.

Subcommands mirror the pipeline: ``ingest`` raw annotations into the
normalized corpus format, ``synth`` summaries for gold triplets,
``build-adrcm`` the augmented training set and its fine-tune export,
``index`` a KB snapshot, ``infer`` labels for candidate pairs, ``eval``
predictions against gold, and ``e2e-mock`` for the full offline loop on
the packaged toy data. Each subcommand hands its settings to one
``*_stage`` function, which writes the stage's artifacts and returns what
it built; the subcommand prints what it wrote and exits non-zero on bad input.
Only ``index`` and ``infer`` with retrieval import ``kb``, and numpy with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .config import DEFAULTS, load_config
from .corpus import (
    Corpus,
    builtin_schema,
    load_corpus,
    parse_cui_map,
    parse_pubtator,
    save_corpus,
    schema_from_dict,
)
from .dataset import (
    PRESETS,
    AugmentedRecord,
    FinetuneExport,
    build_dataset,
    export_finetune,
    preset_for,
    save_dataset,
    save_finetune_rows,
)
from .evaluate import EvalReport, compute_report, render_report, save_report
from .files import atomic_write_text, read_text
from .infer import (RAG_MODES, InferenceConfig, PredictionRecord, load_predictions,
                    predict_corpus, save_predictions)
from .iors import IorsConfig, SynthesisReport, load_synthetic, run_corpus_synthesis, save_synthetic
from .llm import (
    Embedder,
    HashingEmbedder,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
    ProtocolError,
    RetryPolicy,
    ScriptExhaustedError,
    ScriptedBackend,
    TransportError,
)
from .model import RelationSchema

USAGE_ERROR = 2


def ingest_stage(pubtator: str, out: str, schema: RelationSchema,
                 cui_map: str | None = None, dataset_tag: str | None = None) -> Corpus:
    cuis = parse_cui_map(read_text(cui_map)) if cui_map else None
    corpus = parse_pubtator(read_text(pubtator), schema, cui_map=cuis, dataset_tag=dataset_tag)
    atomic_write_text(out, save_corpus(corpus))
    return corpus


def synth_stage(corpus: str, out: str, report: str | None, gateway: LlmGateway,
                config: IorsConfig) -> SynthesisReport:
    result = run_corpus_synthesis(gateway, load_corpus(read_text(corpus)), config)
    atomic_write_text(out, save_synthetic(result.records))
    if report:
        atomic_write_text(report, json.dumps({
            "accepted": result.accepted_count, "discarded": result.discarded_count,
            "discarded_pairs": [vars(d) for d in result.discarded], "errors": list(result.errors),
            "summary_calls": result.summary_calls, "confirmation_calls": result.confirmation_calls,
        }, sort_keys=True, indent=2) + "\n")
    return result


def build_adrcm_stage(corpus: str, synthetic: str | None, out: str, sidecar: str,
                      records_out: str | None = None, preset: str | None = None,
                      **export_settings) -> tuple[tuple[AugmentedRecord, ...], FinetuneExport]:
    """Builds everything before it writes any file; ``export_settings`` go to export_finetune."""
    loaded = load_corpus(read_text(corpus))
    records = build_dataset(loaded, load_synthetic(read_text(synthetic)) if synthetic else ())
    export = export_finetune(loaded, records, preset_for(preset or loaded.schema.name),
                             **export_settings)
    if records_out:
        atomic_write_text(records_out, save_dataset(records))
    atomic_write_text(out, save_finetune_rows(export.rows))
    atomic_write_text(sidecar, json.dumps(export.sidecar, sort_keys=True, indent=2) + "\n")
    return records, export


def index_stage(kb: str, out: str, embedder: Embedder, params: ChunkParams) -> CuiIndex:
    from .kb import build_index, load_kb, save_index
    index = build_index(load_kb(read_text(kb)), embedder, params=params)
    atomic_write_text(out, save_index(index))
    return index


def infer_stage(corpus: str, index: str | None, out: str, gateway: LlmGateway,
                config: InferenceConfig) -> list[PredictionRecord]:
    loaded = load_corpus(read_text(corpus))
    kb_index = None
    if config.rag_mode != "off":
        from .kb import load_index
        if not index:
            raise ValueError(f"--index is required when rag mode is {config.rag_mode!r}")
        kb_index = load_index(read_text(index))
        built_by, identity = (json.dumps(e, sort_keys=True)
                              for e in (kb_index.embedder, gateway.embedder.identity))
        if built_by != identity:
            raise ValueError(f"{index} was built by embedder {built_by}, but infer "
                             f"embeds queries with {identity}; rebuild it with `adrcm index`")
    predictions = predict_corpus(gateway, kb_index, loaded, config)
    atomic_write_text(out, save_predictions(predictions))
    return predictions


def evaluate_stage(corpus: str, predictions: str, out: str | None = None) -> EvalReport:
    report = compute_report(load_corpus(read_text(corpus)),
                            load_predictions(read_text(predictions)))
    if out:
        atomic_write_text(out, save_report(report))
    return report


def run_e2e_mock(workdir: str, *, rag_mode: str = DEFAULTS["rag_mode"]) -> dict[str, str]:
    """Run the stages from ingest to eval over the toy data with one hashing embedder.

    Returns a name -> path map of the artifacts written under ``workdir``.
    Only chat replies go through the on-disk cache, which is what makes
    interrupted runs resumable.
    """
    from .mock import TOY_CHUNK_PARAMS, build_mock_script
    paths = {name: os.path.join(workdir, name) for name in (
        "corpus.jsonl", "mock_script.json", "synthetic.jsonl", "synth_report.json",
        "dataset.jsonl", "finetune.jsonl", "finetune_meta.json", "index.jsonl",
        "predictions.jsonl", "report.json")}
    toy = resources.files("adrcm.data.toy")
    corpus_path, index_path = paths["corpus.jsonl"], paths["index.jsonl"]
    embedder = HashingEmbedder()
    corpus = ingest_stage(str(toy.joinpath("toy_corpus.pubtator")), corpus_path,
                          builtin_schema("cdr"), str(toy.joinpath("toy_cui_map.tsv")), "CDR")
    index = index_stage(str(toy.joinpath("toy_kb.jsonl")), index_path, embedder,
                        TOY_CHUNK_PARAMS)
    iors_config, infer_config = IorsConfig(), InferenceConfig(rag_mode=rag_mode)
    script = build_mock_script(corpus, index, iors_config, infer_config, embedder)
    atomic_write_text(paths["mock_script.json"],
                      json.dumps({"by_hash": script}, sort_keys=True, indent=2) + "\n")

    gateway = LlmGateway(ScriptedBackend(script), embedder,
                         cache_dir=os.path.join(workdir, "cache"))
    synth_stage(corpus_path, paths["synthetic.jsonl"], paths["synth_report.json"],
                gateway, iors_config)
    build_adrcm_stage(corpus_path, paths["synthetic.jsonl"], paths["finetune.jsonl"],
                      paths["finetune_meta.json"], paths["dataset.jsonl"])
    infer_stage(corpus_path, index_path, paths["predictions.jsonl"], gateway, infer_config)
    evaluate_stage(corpus_path, paths["predictions.jsonl"], paths["report.json"])
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


def _settings(args) -> dict:
    """Every config key's value: the flag if given, else ``--config``, else
    the default. Flags that set a config key use that key as their dest."""
    cfg = load_config(read_text(args.config)) if args.config else dict(DEFAULTS)
    for key in cfg:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _resolve_schema(name_or_path: str):
    if name_or_path.endswith(".json"):
        return schema_from_dict(json.loads(read_text(name_or_path)))
    return builtin_schema(name_or_path)


def _embedder(cfg: dict):
    if not cfg["embed_url"]:
        return HashingEmbedder(cfg["embed_dimension"])
    return HttpEmbeddingBackend(cfg["embed_url"], model_id=cfg["embed_model"],
                                dimension=cfg["embed_dimension"])


def _chat_gateway(args, cfg: dict, embedder: Embedder | None = None) -> LlmGateway:
    """Pass ``embedder`` only when retrieval is on: others never build or check one."""
    if args.script:
        backend = ScriptedBackend.from_file(args.script)
    elif cfg["chat_url"]:
        backend = HttpChatBackend(cfg["chat_url"])
    else:
        raise ValueError("no chat backend configured; pass --script or --chat-url")
    return LlmGateway(
        backend, embedder, cache_dir=cfg["cache_dir"] or None,
        retry=RetryPolicy(max_attempts=cfg["retry_attempts"],
                          backoff_base=cfg["retry_backoff"]),
        max_in_flight=cfg["max_in_flight"],
    )


def _print_chat_stats(gateway: LlmGateway) -> None:
    stats = gateway.stats
    print(f"chat: {stats.chat_calls} live calls, {stats.cache_hits} cache hits, "
          f"{stats.retries} retries")


def _read_template(path: str | None) -> str | None:
    return read_text(path) if path else None


def cmd_ingest(args) -> int:
    cfg = _settings(args)
    corpus = ingest_stage(args.input, args.out, _resolve_schema(cfg["schema"]),
                          args.cui_map, cfg["dataset_tag"] or None)
    print(f"wrote {args.out}: {len(corpus.samples)} documents, "
          f"{sum(len(s.entities) for s in corpus.samples)} entities, "
          f"{sum(len(s.triplets) for s in corpus.samples)} triplets")
    for note in corpus.violations[:10]:
        print(f"note: {note}", file=sys.stderr)
    if len(corpus.violations) > 10:
        print(f"note: {len(corpus.violations) - 10} further issues", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    cfg = _settings(args)
    gateway = _chat_gateway(args, cfg)
    report = synth_stage(args.corpus, args.out, args.report, gateway, IorsConfig(
        beta=cfg["beta"], model_id=cfg["chat_model"],
        summary_instruction=_read_template(args.summary_template),
        confirmation_instruction=_read_template(args.confirmation_template)))
    if args.report:
        print(f"wrote {args.report}")
    print(f"wrote {args.out}: {report.accepted_count} accepted, "
          f"{report.discarded_count} discarded, {len(report.errors)} errors "
          f"({report.summary_calls} summary / {report.confirmation_calls} "
          f"confirmation calls)")
    _print_chat_stats(gateway)
    return 0 if not report.errors else 1


def cmd_build_adrcm(args) -> int:
    cfg = _settings(args)
    sidecar_path = args.sidecar if args.sidecar else args.out + ".meta.json"
    records, export = build_adrcm_stage(
        args.corpus, args.synthetic, args.out, sidecar_path, args.records_out, cfg["preset"],
        iors_beta=cfg["beta"], negative_ratio=cfg["negative_ratio"], seed=cfg["seed"],
        instruction_template=_read_template(args.instruction_template))
    if args.records_out:
        print(f"wrote {args.records_out}: {len(records)} records")
    sidecar, counts = export.sidecar, export.sidecar["row_counts"]
    print(f"wrote {args.out}: {counts['total']} rows "
          f"({counts['original']} original, {counts['synthetic']} synthetic, "
          f"{counts['negative']} negative)")
    print(f"wrote {sidecar_path}: preset {sidecar['preset']}, "
          f"rank {sidecar['lora_rank']}, alpha {sidecar['lora_alpha']}")
    return 0


def cmd_index(args) -> int:
    from .kb import ChunkParams
    cfg = _settings(args)
    index = index_stage(args.kb, args.out, _embedder(cfg), ChunkParams(
        size=cfg["chunk_size"], overlap=cfg["chunk_overlap"], min_tail=cfg["chunk_min_tail"]))
    print(f"wrote {args.out}: {len(index.documents)} articles, "
          f"{len(index)} chunks, dim {index.dimension}")
    print(f"fingerprint: {index.fingerprint}")
    return 0


def cmd_infer(args) -> int:
    cfg = _settings(args)
    gateway = _chat_gateway(args, cfg, _embedder(cfg) if cfg["rag_mode"] != "off" else None)
    predictions = infer_stage(args.corpus, args.index, args.out, gateway, InferenceConfig(
        instruction=_read_template(args.instruction_template), k=cfg["k"],
        rag_mode=cfg["rag_mode"], model_id=cfg["chat_model"]))
    flagged = sum(1 for p in predictions if p.unparseable)
    print(f"wrote {args.out}: {len(predictions)} predictions, {flagged} unparseable")
    _print_chat_stats(gateway)
    return 0


def cmd_eval(args) -> int:
    print(render_report(evaluate_stage(args.corpus, args.predictions, args.out)))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_e2e_mock(args) -> int:
    print(describe_run(run_e2e_mock(args.workdir, rag_mode=args.rag)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adrcm",
        description="Document-level relation extraction pipeline tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")

    chat = argparse.ArgumentParser(add_help=False)
    chat.add_argument("--script", help="scripted chat replies (JSON file)")
    chat.add_argument("--chat-url", help="chat completion endpoint base URL")
    chat.add_argument("--model", dest="chat_model", help="chat model id")
    chat.add_argument("--cache-dir", help="reply cache directory")

    embed = argparse.ArgumentParser(add_help=False)
    embed.add_argument("--embed-url", help="embedding endpoint base URL")
    embed.add_argument("--embed-model", help="embedding model id")
    embed.add_argument("--embed-dim", dest="embed_dimension", type=int,
                       help="embedding dimension")

    p = sub.add_parser("ingest", parents=[common],
                       help="parse PubTator annotations into a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", help="built-in schema name or a .json path")
    p.add_argument("--cui-map", help="identifier -> CUI TSV")
    p.add_argument("--tag", dest="dataset_tag",
                   help="dataset tag (default: derived from the schema)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[common, chat],
                       help="generate confirmed synthetic summaries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write a synthesis report JSON here")
    p.add_argument("--beta", type=int, help="max summary rounds per triplet")
    p.add_argument("--summary-template", help="summary instruction file")
    p.add_argument("--confirmation-template", help="confirmation instruction file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-adrcm", parents=[common],
                       help="build the augmented dataset and fine-tune export")
    p.add_argument("--corpus", required=True)
    p.add_argument("--synthetic", help="synthetic summaries JSONL")
    p.add_argument("--out", required=True, help="fine-tune rows JSONL")
    p.add_argument("--sidecar", help="settings sidecar path (default: <out>.meta.json)")
    p.add_argument("--records-out", help="also write the raw augmented records")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--beta", type=int, help="synthesis rounds recorded in the sidecar")
    p.add_argument("--negative-ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--instruction-template")
    p.set_defaults(func=cmd_build_adrcm)

    p = sub.add_parser("index", parents=[common, embed],
                       help="chunk and embed a KB snapshot")
    p.add_argument("--kb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chunk-size", type=int)
    p.add_argument("--chunk-overlap", type=int)
    p.add_argument("--chunk-min-tail", type=int)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("infer", parents=[common, chat, embed],
                       help="predict a relation for every candidate pair")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", help="index file (required unless --rag off)")
    p.add_argument("--out", required=True)
    p.add_argument("--rag", dest="rag_mode", choices=RAG_MODES)
    p.add_argument("--k", type=int, help="snippets per pair")
    p.add_argument("--instruction-template")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against the corpus gold")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("e2e-mock",
                       help="run the full pipeline offline on the toy corpus")
    p.add_argument("--workdir", required=True)
    p.add_argument("--rag", choices=RAG_MODES, default=DEFAULTS["rag_mode"])
    p.set_defaults(func=cmd_e2e_mock)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ScriptExhaustedError, TransportError,
            ProtocolError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
