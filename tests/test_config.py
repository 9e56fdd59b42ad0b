import pytest

from adrcm.config import DEFAULTS, ConfigError, load_config, parse_config_text


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

