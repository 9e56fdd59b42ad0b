"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

import adrcm.infer
from adrcm.corpus import builtin_schema, parse_cui_map, parse_pubtator
from adrcm.infer import InferenceConfig, predict_corpus
from adrcm.kb import build_index, load_kb
from adrcm.llm import HashingEmbedder, ScriptedBackend

import checks
from scaleup import scale_up
from scripted import UNPARSEABLE_REPLY, LatencyBackend, Script, compile_inference
from speed import Timing, timed
from tracing import Tracer, layer_metrics, patched
from workloads import CHUNK_PARAMS, E2eLatency, Stages


def _parse(inputs):
    return parse_pubtator(inputs.pubtator, builtin_schema("cdr"),
                          cui_map=parse_cui_map(inputs.cui_map), dataset_tag="CDR")


def test_scaled_corpus_parses_cleanly_and_reaches_own_kb_copy():
    inputs = scale_up(7, copies=3, kb_copies=5)
    corpus = _parse(inputs)
    index = build_index(load_kb(inputs.kb), HashingEmbedder(), params=CHUNK_PARAMS)
    assert checks.check_scaled_corpus(corpus, inputs) == []
    assert corpus.violations == ()
    assert checks.check_cuis_reach_own_copy(corpus, index, inputs) == []
    assert len(inputs.pairs) == 3 * 16
    assert len(index.documents) == 5 * 24
    for sample in corpus.samples:
        copy = inputs.doc_copy[sample.document.doc_id]
        assert inputs.markers[copy] in sample.document.text
        reached = [d for e in sample.entities if e.cui for d in index.by_cui.get(e.cui, ())]
        assert reached and all(
            inputs.cui_copy[index.documents[d].cui] == copy for d in reached)


def test_scale_up_depends_only_on_the_seed():
    assert scale_up(3, 2) == scale_up(3, 2)
    assert scale_up(3, 2).pubtator != scale_up(4, 2).pubtator


def test_copies_send_distinct_prompts():
    inputs = scale_up(5, copies=2)
    corpus = _parse(inputs)
    index = build_index(load_kb(inputs.kb), HashingEmbedder(), params=CHUNK_PARAMS)
    script = Script()  # raises on a request seen twice
    compile_inference(corpus, index, inputs.pairs, InferenceConfig(rag_mode="cui"), script)
    assert len(script.replies) == len(inputs.pairs)


def test_latency_backend_counts_calls_in_flight():
    backend = LatencyBackend(ScriptedBackend({}), 0.2)
    backend.inner.complete = lambda exchange: "ok"
    threads = [threading.Thread(target=backend.complete, args=(None,)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert (backend.calls, backend.max_concurrent) == (2, 2)


def test_timing_rescales_the_cpu_part_and_drops_run_queue_waits():
    # A host at half the reference speed; 0.5 s spent waiting for a CPU.
    timing = Timing(wall_s=10.0, user_s=1.0, cpu_s=2.0, run_delay_s=0.5, factor=0.5)
    assert timing.ref_wall_s == 8.5  # 7.5 s asleep kept, 2 s on the CPU halved
    assert timing.ref_user_s == 0.5
    assert (Timing(10.0, 1.0, 2.0).ref_wall_s, Timing(10.0, 1.0, 2.0).ref_user_s) == (10.0, 1.0)


def test_timed_probes_the_host_and_counts_sleep_as_off_cpu():
    value, timing = timed(lambda: threading.Event().wait(0.05) or 7)
    assert value == 7
    assert timing.wall_s >= 0.05 and timing.cpu_s < 0.05
    assert timing.probed and timing.factor > 0
    value, timing = timed(lambda: 7, corrected=False)
    assert (value, timing.probed, timing.factor) == (7, False, 1.0)


@pytest.fixture()
def e2e(tmp_path):
    workload = E2eLatency(11, str(tmp_path))
    workload.latency_s = 0.0
    workload.prepare()
    return workload


def _run_once(workload):
    workload.setup(Tracer(False))
    iteration = workload.iterate(Tracer(False), 0)
    return iteration, workload.check(iteration)


def test_e2e_outputs_pass_every_check(e2e):
    iteration, failures = _run_once(e2e)
    assert failures == []
    assert iteration.counts["chat_calls_live"] == e2e.live_calls
    assert iteration.counts["max_concurrent"] == 1


def test_planted_wrong_reply_fails_the_checks(e2e):
    with open(e2e.script_path, encoding="utf-8") as fh:
        script = json.load(fh)
    key = next(k for k, reply in sorted(script["by_hash"].items())
               if reply == UNPARSEABLE_REPLY)
    script["by_hash"][key] = "CID"
    with open(e2e.script_path, "w", encoding="utf-8") as fh:
        json.dump(script, fh)
    _, failures = _run_once(e2e)
    assert any(f.startswith("predictions:") for f in failures)
    assert any(f.startswith("eval: micro F1") for f in failures)
    assert any(f.startswith("artifacts differ") for f in failures)


def test_retrieval_oracle_rejects_a_swapped_snippet(e2e):
    iteration, _ = _run_once(e2e)
    predictions = iteration.outputs["predictions"]
    corpus = iteration.outputs["corpus"]
    target = next(p for p in predictions if len(p.snippets_used) >= 2)
    swapped = dataclasses.replace(target, snippets_used=tuple(
        c for c in e2e.oracle.ids if c not in target.snippets_used)[:len(target.snippets_used)])
    key = (target.doc_id, target.head_id, target.tail_id)
    assert checks.check_retrieval(e2e.oracle, corpus, predictions, [key], 5, True) == []
    assert checks.check_retrieval(e2e.oracle, corpus, [swapped], [key], 5, True) != []


def test_tracing_patches_are_restored_and_hits_have_no_backend_call(tmp_path):
    inputs = scale_up(2, copies=1)
    corpus = _parse(inputs)
    index = build_index(load_kb(inputs.kb), HashingEmbedder(), params=CHUNK_PARAMS)
    script = Script()
    compile_inference(corpus, index, inputs.pairs, InferenceConfig(rag_mode="cui"), script)
    original = adrcm.infer.predict_pair
    tracer = Tracer(True)
    for number in range(2):
        tracer.round = f"iteration{number}"
        gateway = Stages(tracer).gateway(ScriptedBackend(script.replies),
                                         str(tmp_path / "cache"), 2)
        with patched(tracer):
            predict_corpus(gateway, index, corpus, InferenceConfig(rag_mode="cui"))
    assert adrcm.infer.predict_pair is original
    cold, warm = (layer_metrics([s for s in tracer.spans if s.round == r], [r])
                  for r in ("iteration0", "iteration1"))
    assert cold["llm.chat_live"][0] == len(inputs.pairs)
    assert (warm["llm.cache_hits"][0], warm["llm.chat_live"][0]) == (len(inputs.pairs), 0)
    assert warm["llm.cache_hit_ratio"][0] == 1.0
    pair_spans = [s for s in tracer.spans if s.name == "infer.predict_pair"]
    assert len({s.unit for s in pair_spans}) == len(inputs.pairs)
