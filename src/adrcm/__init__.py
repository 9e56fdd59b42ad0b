"""Document-level biomedical relation extraction with synthetic summaries
and concept-scoped retrieval.

The pipeline: parse annotated corpora into a normalized format, generate
confirmed synthetic summaries for gold triplets, assemble an augmented
fine-tune dataset, index a knowledge-base snapshot for concept-scoped
retrieval, predict relations for candidate entity pairs, and score the
predictions. Everything runs offline with scripted backends for tests.
"""

from .corpus import (
    Corpus,
    ParseError,
    SchemaMismatchError,
    builtin_schema,
    enumerate_candidate_pairs,
    load_corpus,
    parse_cui_map,
    parse_pubtator,
    save_corpus,
    schema_from_file,
    segment_sentences,
)
from .dataset import (
    AugmentedRecord,
    FinetunePreset,
    PRESETS,
    build_dataset,
    export_finetune,
    preset_for,
    split_sample,
)
from .evaluate import (
    EvalReport,
    Scores,
    classify_locality,
    compute_report,
    render_report,
    save_report,
)
from .infer import (
    InferenceConfig,
    PredictionRecord,
    assemble_prompt,
    pair_query_text,
    parse_relation_output,
    predict_corpus,
    predict_pair,
)
from .iors import (
    IorsConfig,
    SynthesisResult,
    SyntheticRecord,
    generate_synthetic,
    normalize_relation_label,
    run_corpus_synthesis,
)
from .kb import (
    ChunkParams,
    CuiIndex,
    KbDocument,
    RetrievedSnippet,
    build_index,
    chunk_text,
    cosine,
    load_index,
    load_kb,
    retrieve,
    save_index,
)
from .llm import (
    ChatExchange,
    ChatMessage,
    HashingEmbedder,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
    RetryPolicy,
    ScriptedBackend,
    TransportError,
    exchange_key,
    mock_gateway,
)
from .mock import build_mock_script, describe_run, load_toy_assets, run_e2e_mock
from .model import (
    Document,
    Entity,
    Mention,
    RelationSchema,
    TrainingSample,
    Triplet,
    validate_sample,
)

__version__ = "0.1.0"
