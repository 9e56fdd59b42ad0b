"""Command-line entry points for the pipeline stages.

Subcommands mirror the pipeline: ``ingest`` raw annotations into the
normalized corpus format, ``synth`` summaries for gold triplets,
``build-adrcm`` the augmented training set and its fine-tune export,
``index`` a KB snapshot, ``infer`` labels for candidate pairs, ``eval``
predictions against gold, and ``e2e-mock`` for the full offline loop on
the packaged toy data. Every command prints the artifacts it wrote and
exits non-zero on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mock
from .config import DEFAULTS, load_config
from .corpus import (
    builtin_schema,
    load_corpus,
    parse_cui_map,
    parse_pubtator,
    save_corpus,
    schema_from_dict,
)
from .dataset import (
    PRESETS,
    build_dataset,
    export_finetune,
    preset_for,
    save_dataset,
    save_finetune_rows,
)
from .evaluate import compute_report, render_report, save_report
from .files import atomic_write_text, read_text
from .infer import RAG_MODES, InferenceConfig, load_predictions, predict_corpus, save_predictions
from .iors import IorsConfig, load_synthetic, run_corpus_synthesis, save_synthetic
from .kb import ChunkParams, build_index, load_index, load_kb, save_index
from .llm import (
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

USAGE_ERROR = 2


class UsageError(ValueError):
    pass


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


def _chat_gateway(args, cfg: dict) -> LlmGateway:
    if args.script:
        backend = ScriptedBackend.from_file(args.script)
    elif cfg["chat_url"]:
        backend = HttpChatBackend(cfg["chat_url"])
    else:
        raise UsageError("no chat backend configured; pass --script or --chat-url")
    return LlmGateway(
        backend, _embedder(cfg), cache_dir=cfg["cache_dir"] or None,
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
    schema = _resolve_schema(cfg["schema"])
    cui_map = parse_cui_map(read_text(args.cui_map)) if args.cui_map else None
    corpus = parse_pubtator(read_text(args.input), schema,
                            cui_map=cui_map, dataset_tag=cfg["dataset_tag"] or None)
    atomic_write_text(args.out, save_corpus(corpus))
    n_entities = sum(len(s.entities) for s in corpus.samples)
    n_triplets = sum(len(s.triplets) for s in corpus.samples)
    print(f"wrote {args.out}: {len(corpus.samples)} documents, "
          f"{n_entities} entities, {n_triplets} triplets")
    for note in corpus.violations[:10]:
        print(f"note: {note}", file=sys.stderr)
    if len(corpus.violations) > 10:
        print(f"note: {len(corpus.violations) - 10} further issues", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    cfg = _settings(args)
    corpus = load_corpus(read_text(args.corpus))
    gateway = _chat_gateway(args, cfg)
    iors_config = IorsConfig(
        beta=cfg["beta"],
        summary_instruction=_read_template(args.summary_template),
        confirmation_instruction=_read_template(args.confirmation_template),
        max_summary_chars=cfg["max_summary_chars"],
        model_id=cfg["chat_model"],
    )
    report = run_corpus_synthesis(gateway, corpus, iors_config)
    atomic_write_text(args.out, save_synthetic(report.records))
    if args.report:
        atomic_write_text(args.report, json.dumps({
            "accepted": report.accepted_count,
            "discarded": report.discarded_count,
            "discarded_pairs": [vars(d) for d in report.discarded],
            "errors": list(report.errors),
            "summary_calls": report.summary_calls,
            "confirmation_calls": report.confirmation_calls,
        }, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.report}")
    print(f"wrote {args.out}: {report.accepted_count} accepted, "
          f"{report.discarded_count} discarded, {len(report.errors)} errors "
          f"({report.summary_calls} summary / {report.confirmation_calls} "
          f"confirmation calls)")
    _print_chat_stats(gateway)
    return 0 if not report.errors else 1


def cmd_build_adrcm(args) -> int:
    cfg = _settings(args)
    corpus = load_corpus(read_text(args.corpus))
    synthetic = load_synthetic(read_text(args.synthetic)) if args.synthetic else ()
    records = build_dataset(corpus, synthetic)
    if args.records_out:
        atomic_write_text(args.records_out, save_dataset(records))
        print(f"wrote {args.records_out}: {len(records)} records")
    preset = preset_for(cfg["preset"] or corpus.schema.name)
    export = export_finetune(
        corpus, records, preset,
        iors_beta=cfg["beta"],
        negative_ratio=cfg["negative_ratio"],
        seed=cfg["seed"],
        instruction_template=_read_template(args.instruction_template),
    )
    sidecar_path = args.sidecar if args.sidecar else args.out + ".meta.json"
    atomic_write_text(args.out, save_finetune_rows(export.rows))
    atomic_write_text(sidecar_path,
                      json.dumps(export.sidecar, sort_keys=True, indent=2) + "\n")
    counts = export.sidecar["row_counts"]
    print(f"wrote {args.out}: {counts['total']} rows "
          f"({counts['original']} original, {counts['synthetic']} synthetic, "
          f"{counts['negative']} negative)")
    print(f"wrote {sidecar_path}: preset {preset.name}, "
          f"rank {preset.lora_rank}, alpha {preset.lora_alpha}")
    return 0


def cmd_index(args) -> int:
    cfg = _settings(args)
    docs = load_kb(read_text(args.kb))
    params = ChunkParams(size=cfg["chunk_size"], overlap=cfg["chunk_overlap"],
                         min_tail=cfg["chunk_min_tail"])
    index = build_index(docs, _embedder(cfg), params=params)
    atomic_write_text(args.out, save_index(index))
    print(f"wrote {args.out}: {len(index.documents)} articles, "
          f"{len(index)} chunks, dim {index.dimension}")
    print(f"fingerprint: {index.fingerprint}")
    return 0


def cmd_infer(args) -> int:
    cfg = _settings(args)
    corpus = load_corpus(read_text(args.corpus))
    gateway = _chat_gateway(args, cfg)
    rag_mode = cfg["rag_mode"]
    index = None
    if rag_mode != "off":
        if not args.index:
            raise UsageError(f"--index is required when rag mode is {rag_mode!r}")
        index = load_index(read_text(args.index))
        built_by, identity = (json.dumps(e, sort_keys=True)
                              for e in (index.embedder, gateway.embedder.identity))
        if built_by != identity:
            raise UsageError(f"{args.index} was built by embedder {built_by}, but infer "
                             f"embeds queries with {identity}; rebuild it with `adrcm index`")
    infer_config = InferenceConfig(
        instruction=_read_template(args.instruction_template),
        k=cfg["k"],
        rag_mode=rag_mode,
        model_id=cfg["chat_model"],
    )
    predictions = predict_corpus(gateway, index, corpus, infer_config)
    atomic_write_text(args.out, save_predictions(predictions))
    flagged = sum(1 for p in predictions if p.unparseable)
    print(f"wrote {args.out}: {len(predictions)} predictions, {flagged} unparseable")
    _print_chat_stats(gateway)
    return 0


def cmd_eval(args) -> int:
    corpus = load_corpus(read_text(args.corpus))
    predictions = load_predictions(read_text(args.predictions))
    report = compute_report(corpus, predictions)
    print(render_report(report))
    if args.out:
        atomic_write_text(args.out, save_report(report))
        print(f"wrote {args.out}")
    return 0


def cmd_e2e_mock(args) -> int:
    paths = mock.run_e2e_mock(args.workdir, rag_mode=args.rag)
    print(mock.describe_run(paths))
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
    p.add_argument("--max-summary-chars", type=int)
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
