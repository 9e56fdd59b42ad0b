"""Flat key/value run configuration.

The format is one ``key = value`` pair per line. Values are parsed as JSON
scalars when they look like one (numbers, true/false, quoted strings) and
kept as bare strings otherwise. Lines starting with ``#`` are comments.
Unknown keys are rejected so typos fail fast instead of silently using a
default. :data:`DEFAULTS` is also the one place where library code reads
these settings' defaults; this module imports nothing from the package.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

DEFAULTS: Mapping[str, Any] = {
    "schema": "cdr",
    "dataset_tag": "",
    "beta": 3,
    "chunk_size": 256,
    "chunk_overlap": 32,
    "chunk_min_tail": 16,
    "k": 5,
    "rag_mode": "cui",
    "chat_url": "",
    "chat_model": "default",
    "embed_url": "",
    "embed_model": "default",
    "embed_dimension": 64,
    "cache_dir": "",
    "preset": "",
    "negative_ratio": 1.0,
    "seed": 0,
    "max_in_flight": 4,
    "retry_attempts": 4,
    "retry_backoff": 0.5,
}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``key = value`` lines into a dict, without applying defaults."""
    out: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        try:
            out[key] = json.loads(value)
        except ValueError:
            out[key] = value
    return out


def load_config(text: str) -> dict[str, object]:
    """Parse a config document and merge it over the defaults.

    Every key must be known, and the value's type must agree with the
    default's type (int values are accepted where a float is expected).
    """
    parsed = parse_config_text(text)
    unknown = sorted(set(parsed) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    merged = dict(DEFAULTS)
    for key, value in parsed.items():
        expected = type(DEFAULTS[key])
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool) is not (expected is bool):
            raise ConfigError(
                f"config key {key!r} expects {expected.__name__}, got {value!r}")
        merged[key] = value
    return merged

