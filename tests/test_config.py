import inspect

import pytest

from adrcm.config import DEFAULTS, ConfigError, load_config, parse_config_text
from adrcm.dataset import export_finetune
from adrcm.infer import InferenceConfig
from adrcm.iors import IorsConfig
from adrcm.kb import ChunkParams, retrieve
from adrcm.llm import (
    HashingEmbedder,
    HttpEmbeddingBackend,
    LlmGateway,
    RetryPolicy,
    ScriptedBackend,
    user_exchange,
)


def test_parse_config_text_basics():
    text = """
# pipeline settings
beta = 5
rag_mode = "chunks"
negative_ratio = 0.5
chat_url =
schema = cdr
"""
    parsed = parse_config_text(text)
    assert parsed == {"beta": 5, "rag_mode": "chunks",
                      "negative_ratio": 0.5, "chat_url": "", "schema": "cdr"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("beta = 1\nbeta = 2\n")
    with pytest.raises(ConfigError, match="^line 2: empty key$"):
        parse_config_text("beta = 1\n = 2\n")


def test_load_config_applies_defaults_and_overrides():
    cfg = load_config("beta = 7\nk = 2\n")
    assert cfg["beta"] == 7
    assert cfg["k"] == 2
    assert cfg["rag_mode"] == DEFAULTS["rag_mode"]
    assert set(cfg) == set(DEFAULTS)


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        load_config("betta = 3\n")


def test_load_config_type_checks():
    with pytest.raises(ConfigError, match="beta"):
        load_config('beta = "three"\n')
    with pytest.raises(ConfigError):
        load_config("rag_mode = 4\n")
    # ints widen to float where a float is expected, bools never count as ints
    assert load_config("negative_ratio = 1\n")["negative_ratio"] == 1.0
    with pytest.raises(ConfigError):
        load_config("beta = true\n")


def test_library_defaults_are_the_config_defaults():
    iors, infer, chunks, retry = IorsConfig(), InferenceConfig(), ChunkParams(), RetryPolicy()
    http = HttpEmbeddingBackend("http://localhost:1")
    export = {name: p.default for name, p in inspect.signature(export_finetune).parameters.items()}
    got = [
        ("beta", iors.beta), ("beta", export["iors_beta"]),
        ("chat_model", iors.model_id), ("chat_model", infer.model_id),
        ("chat_model", user_exchange("q").model_id),
        ("k", infer.k), ("k", inspect.signature(retrieve).parameters["k"].default),
        ("rag_mode", infer.rag_mode),
        ("chunk_size", chunks.size), ("chunk_overlap", chunks.overlap),
        ("chunk_min_tail", chunks.min_tail),
        ("retry_attempts", retry.max_attempts), ("retry_backoff", retry.backoff_base),
        ("max_in_flight", LlmGateway(ScriptedBackend([])).max_in_flight),
        ("embed_dimension", HashingEmbedder().dimension),
        ("embed_dimension", http.dimension), ("embed_model", http.model_id),
        ("negative_ratio", export["negative_ratio"]), ("seed", export["seed"]),
    ]
    assert got == [(key, DEFAULTS[key]) for key, _ in got]
