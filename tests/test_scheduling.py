"""Scheduling fuzz oracle: ``synth`` and ``infer`` write the same bytes at every width.

A scripted backend answers the toy pipeline after a seeded random wait of
0-3 ms per request, so calls in flight together finish in a different order
from run to run. Whatever that order, the artifacts and the reply cache must
be byte-identical to a width-1 run, the live-call count must be the same,
and no temp file may be left behind.
"""

from __future__ import annotations

import os
import random
import time
from importlib import resources

import pytest

from adrcm.cli import index_stage, infer_stage, ingest_stage, synth_stage
from adrcm.infer import InferenceConfig
from adrcm.iors import IorsConfig
from adrcm.llm import HashingEmbedder, LlmGateway, ScriptedBackend, exchange_key
from adrcm.mock import TOY_CHUNK_PARAMS, build_mock_script

WIDTHS = (1, 2, 4, 8)
SEEDS = (0, 1, 2)


class JitterBackend:
    """A map-mode script that waits 0-3 ms per request, the wait drawn from the
    seed and the request, so that a seed replays the same waits at every width."""

    parallel_safe = True

    def __init__(self, script: dict[str, str], seed: int):
        self.inner = ScriptedBackend(script)
        self.seed = seed

    def complete(self, exchange):
        time.sleep(random.Random(f"{self.seed}/{exchange_key(exchange)}").uniform(0, 0.003))
        return self.inner.complete(exchange)


@pytest.fixture(scope="module")
def toy_inputs(tmp_path_factory, cdr_schema):
    root = tmp_path_factory.mktemp("inputs")
    toy = resources.files("adrcm.data.toy")
    corpus_path, index_path = str(root / "corpus.jsonl"), str(root / "index.jsonl")
    corpus = ingest_stage(str(toy / "toy_corpus.pubtator"), corpus_path, cdr_schema,
                          str(toy / "toy_cui_map.tsv"), "CDR")
    embedder = HashingEmbedder()
    index = index_stage(str(toy / "toy_kb.jsonl"), index_path, embedder, TOY_CHUNK_PARAMS)
    script = build_mock_script(corpus, index, IorsConfig(), InferenceConfig(), embedder)
    return corpus_path, index_path, script


def _run(workdir, toy_inputs, seed: int, width: int) -> tuple[dict[str, bytes], int]:
    corpus, index, script = toy_inputs
    gateway = LlmGateway(JitterBackend(script, seed), HashingEmbedder(),
                         cache_dir=str(workdir / "cache"), max_in_flight=width)
    synth_stage(corpus, str(workdir / "synthetic.jsonl"), str(workdir / "synth_report.json"),
                gateway, IorsConfig())
    infer_stage(corpus, index, str(workdir / "predictions.jsonl"), gateway, InferenceConfig())
    files = {}
    for folder, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, workdir)] = fh.read()
    return files, gateway.stats.chat_calls


def test_synth_and_infer_do_not_depend_on_scheduling(tmp_path, toy_inputs):
    expected, calls = _run(tmp_path / "reference", toy_inputs, SEEDS[0], 1)
    assert calls == len(toy_inputs[2])
    assert sum(name.startswith("cache") for name in expected) == calls
    for seed in SEEDS:
        for width in WIDTHS[1:]:
            files, live = _run(tmp_path / f"s{seed}-w{width}", toy_inputs, seed, width)
            assert not [name for name in files if name.endswith(".tmp")], (seed, width)
            assert files == expected, (seed, width)
            assert live == calls, (seed, width)
