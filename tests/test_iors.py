import threading

import pytest

import adrcm.iors

from adrcm.iors import (
    IorsConfig,
    build_confirmation_prompt,
    build_summary_prompt,
    generate_synthetic,
    load_synthetic,
    positive_triplets,
    run_corpus_synthesis,
    save_synthetic,
)
from adrcm.llm import (
    LlmGateway,
    ProtocolError,
    RetryPolicy,
    ScriptExhaustedError,
    ScriptedBackend,
    TransportError,
)
from adrcm.infer import InferenceConfig
from adrcm.templating import TemplateError, placeholders, resolve
from conftest import OverlapBackend, make_sample


@pytest.fixture()
def pair_sample():
    return make_sample(
        "201", ["Drugon causes angina.", "Angina settled on withdrawal."],
        [("D1", "chemical", [(0, "Drugon")]),
         ("D2", "disease", [(0, "angina"), (1, "Angina")])],
        [("D1", "D2", "CID")])


def test_template_helpers():
    assert placeholders("a {x} b {y:{z}} {x}") == {"x", "y", "z"}
    assert resolve("inference_instruction", "hi {labels}") == "hi {labels}"
    with pytest.raises(TemplateError, match="unknown placeholders"):
        resolve("inference_instruction", "hi {labels} {other}")
    with pytest.raises(TemplateError, match="unparseable template"):
        placeholders("hi {name")
    with pytest.raises(TemplateError, match="missing placeholders"):
        IorsConfig(summary_instruction="no slots here")
    for bad in ("Pick {labels:zz}", "Pick {labels!x}"):
        with pytest.raises(TemplateError, match="does not render"):
            InferenceConfig(instruction=bad)
    with pytest.raises(TemplateError, match=r"nested in a format spec: \['labels'\]$"):
        InferenceConfig(instruction="Pick {labels:{labels}}")
    for good in ("Pick {labels:>10}", "Pick {labels!r}"):
        assert InferenceConfig(instruction=good).instruction == good
    assert "{labels}" in resolve("confirmation_instruction")


@pytest.mark.parametrize("make_config", [
    lambda extra: IorsConfig(summary_instruction="{head} {tail} {relation}" + extra),
    lambda extra: IorsConfig(confirmation_instruction="{head} {tail} {labels}" + extra),
    lambda extra: InferenceConfig(instruction="{labels}" + extra),
], ids=["summary", "confirmation", "inference"])
def test_config_refuses_an_unknown_placeholder_when_built(make_config):
    make_config("")
    with pytest.raises(TemplateError, match=r"unknown placeholders: \['x'\]"):
        make_config(" {x}")


def test_iors_config_validation():
    with pytest.raises(ValueError):
        IorsConfig(beta=0)
    with pytest.raises(TypeError):
        IorsConfig(max_summary_chars=0)
    cfg = IorsConfig()
    assert cfg.beta == 3
    assert "{relation}" in cfg.summary_instruction


def test_build_summary_prompt(pair_sample):
    cfg = IorsConfig()
    head, tail = pair_sample.entities
    prompt = build_summary_prompt(pair_sample.document, head, tail, "CID", cfg)
    assert "Drugon" in prompt and "angina" in prompt and "CID" in prompt
    assert "Document:\n" + pair_sample.document.text in prompt
    assert "Previous unsatisfactory summaries" not in prompt

    redo = build_summary_prompt(pair_sample.document, head, tail, "CID", cfg,
                                ["first try", "second try"])
    assert "Previous unsatisfactory summaries:" in redo
    assert "1. first try" in redo and "2. second try" in redo


def test_build_confirmation_prompt(pair_sample, cdr_schema):
    cfg = IorsConfig()
    head, tail = pair_sample.entities
    prompt = build_confirmation_prompt("the summary", head, tail, cdr_schema, cfg)
    assert "CID, None" in prompt
    assert prompt.endswith("Summary:\nthe summary")
    assert "CID relation" not in prompt  # blind to the gold relation


def _run(sample, schema, replies, beta=3, **kw):
    gateway = LlmGateway(ScriptedBackend(replies))
    head, tail = sample.entity("D1"), sample.entity("D2")
    result = generate_synthetic(gateway.chat, sample.document, head, tail, "CID",
                                schema, IorsConfig(beta=beta, **kw))
    return result, gateway


def test_generate_accepts_first_round(pair_sample, cdr_schema):
    result, gateway = _run(pair_sample, cdr_schema, ["a fine summary", "CID"])
    assert result.accepted and result.summary == "a fine summary"
    assert result.iterations_used == 1
    assert result.failures == ()
    assert (result.iterations_used, result.confirmation_calls) == (1, 1)
    assert gateway.stats.chat_calls == 2


def test_generate_retries_then_accepts(pair_sample, cdr_schema):
    result, _ = _run(pair_sample, cdr_schema,
                     ["draft one", "None", "draft two", "cid."])
    assert result.accepted and result.summary == "draft two"
    assert result.iterations_used == 2
    assert result.failures == ("draft one",)
    assert (result.iterations_used, result.confirmation_calls) == (2, 2)


def test_generate_discards_after_beta(pair_sample, cdr_schema):
    result, _ = _run(pair_sample, cdr_schema,
                     ["d1", "None", "d2", "nonsense", "d3", "None"], beta=3)
    assert not result.accepted and result.summary is None
    assert result.iterations_used == 3
    assert result.failures == ("d1", "d2", "d3")
    assert (result.iterations_used, result.confirmation_calls) == (3, 3)


def test_generate_skips_confirmation_for_empty_summary(pair_sample, cdr_schema):
    result, _ = _run(pair_sample, cdr_schema, ["   ", "good summary", "CID"])
    assert result.accepted
    assert result.failures == ("",)
    assert (result.iterations_used, result.confirmation_calls) == (2, 1)


def test_generate_skips_confirmation_for_oversized_summary(pair_sample, cdr_schema):
    long = "x" * (IorsConfig.max_summary_chars + 1)
    result, _ = _run(pair_sample, cdr_schema, [long, "short", "CID"])
    assert result.accepted and result.summary == "short"
    assert result.failures == (long,)
    assert (result.iterations_used, result.confirmation_calls) == (2, 1)


def test_generate_rejects_unknown_relation(pair_sample, cdr_schema):
    head, tail = pair_sample.entities
    calls = []
    for relation in ("CURES", "None"):  # a summary of "no relation" is no training triplet
        with pytest.raises(ValueError, match="not a positive relation label"):
            generate_synthetic(calls.append, pair_sample.document, head, tail,
                               relation, cdr_schema)
    assert calls == []


def test_failed_summary_feeds_next_prompt(pair_sample, cdr_schema):
    seen = []
    replies = iter(["draft A", "None", "draft B", "CID"])

    def chat(exchange):
        seen.append(exchange.messages[-1].content)
        return next(replies)

    head, tail = pair_sample.entities
    generate_synthetic(chat, pair_sample.document, head, tail, "CID", cdr_schema)
    second_summary_prompt = seen[2]
    assert "1. draft A" in second_summary_prompt
    assert "draft A" not in seen[0]


def test_positive_triplets_sorted():
    sample = make_sample(
        "202", ["Aox and box cause cyst and dermatitis."],
        [("B1", "chemical", [(0, "box")]),
         ("A1", "chemical", [(0, "Aox")]),
         ("C1", "disease", [(0, "cyst")]),
         ("D1", "disease", [(0, "dermatitis")])],
        [("B1", "C1", "CID"), ("A1", "D1", "CID"), ("A1", "C1", "CID")])
    ordered = positive_triplets(sample)
    assert [(t.head_id, t.tail_id) for t in ordered] == [
        ("A1", "C1"), ("A1", "D1"), ("B1", "C1")]


def test_run_corpus_synthesis_counts_and_errors(cdr_schema):
    s1 = make_sample(
        "301", ["Aldrin causes nausea."],
        [("D1", "chemical", [(0, "Aldrin")]),
         ("D2", "disease", [(0, "nausea")])],
        [("D1", "D2", "CID")])
    s2 = make_sample(
        "302", ["Boldrin causes rash."],
        [("D1", "chemical", [(0, "Boldrin")]),
         ("D2", "disease", [(0, "rash")])],
        [("D1", "D2", "CID")])
    from adrcm.corpus import Corpus
    corpus = Corpus(cdr_schema, (s1, s2))

    class HalfBroken:
        parallel_safe = False

        def complete(self, exchange):
            prompt = exchange.messages[-1].content
            if "Aldrin" in prompt:
                raise TransportError("offline")
            return "CID" if prompt.startswith("Below is a summary") else "a summary"

    gateway = LlmGateway(HalfBroken(), retry=RetryPolicy(1, 0.0), max_in_flight=1)
    report = run_corpus_synthesis(gateway, corpus)
    assert report.accepted_count == 1
    assert report.records[0].doc_id == "302"
    assert len(report.errors) == 1 and "301" in report.errors[0]
    assert report.summary_calls == 1 and report.confirmation_calls == 1


def _four_doc_corpus(cdr_schema):
    from adrcm.corpus import Corpus
    samples = [
        make_sample(doc_id, [f"{drug} causes {effect}."],
                    [("D1", "chemical", [(0, drug)]),
                     ("D2", "disease", [(0, effect)])],
                    [("D1", "D2", "CID")])
        for doc_id, drug, effect in (("301", "Aldrin", "nausea"),
                                     ("302", "Boldrin", "rash"),
                                     ("303", "Caldrin", "fever"),
                                     ("304", "Doldrin", "cough"))]
    return Corpus(cdr_schema, tuple(samples))


def _confirm_unless_rash(prompt):
    if prompt.startswith("Below is a summary"):
        return "None" if "rash" in prompt else "CID"
    return "a summary"


def test_run_corpus_synthesis_concurrent_matches_sequential(cdr_schema):
    corpus = _four_doc_corpus(cdr_schema)

    def reply(prompt):
        if "Aldrin" in prompt or "Caldrin" in prompt:
            raise TransportError("offline")
        return _confirm_unless_rash(prompt)

    reports = {}
    for width in (1, 2):
        backend = OverlapBackend(reply)
        gateway = LlmGateway(backend, retry=RetryPolicy(1, 0.0), max_in_flight=width)
        reports[width] = run_corpus_synthesis(gateway, corpus)
        assert backend.peak_in_flight == width
    assert reports[2] == reports[1]
    report = reports[2]
    assert [e.split(":")[0] for e in report.errors] == ["301/D1/D2", "303/D1/D2"]
    assert [d.doc_id for d in report.discarded] == ["302"]
    assert [r.doc_id for r in report.records] == ["304"]
    assert (report.summary_calls, report.confirmation_calls) == (4, 4)


def test_protocol_error_costs_only_its_own_triplet(cdr_schema):
    corpus = _four_doc_corpus(cdr_schema)

    def reply(prompt):
        if "Aldrin" in prompt:
            raise ProtocolError("chat backend returned HTTP 400: bad request")
        if "Caldrin" in prompt:
            raise TransportError("offline")
        return _confirm_unless_rash(prompt)

    reports = {}
    for width in (1, 2):
        gateway = LlmGateway(OverlapBackend(reply), retry=RetryPolicy(1, 0.0),
                             max_in_flight=width)
        reports[width] = run_corpus_synthesis(gateway, corpus)
    assert reports[2] == reports[1]
    report = reports[2]
    assert [e.split(": ")[0] for e in report.errors] == ["301/D1/D2", "303/D1/D2"]
    assert "HTTP 400" in report.errors[0]
    assert [d.doc_id for d in report.discarded] == ["302"]
    assert [r.doc_id for r in report.records] == ["304"]

    def exhausted(prompt):
        if "Caldrin" in prompt:
            raise ScriptExhaustedError("no scripted reply left")
        return _confirm_unless_rash(prompt)

    gateway = LlmGateway(OverlapBackend(exhausted), retry=RetryPolicy(1, 0.0), max_in_flight=2)
    with pytest.raises(ScriptExhaustedError):
        run_corpus_synthesis(gateway, corpus)


def test_run_corpus_synthesis_warm_cache_stays_on_calling_thread(cdr_schema,
                                                                 monkeypatch):
    corpus = _four_doc_corpus(cdr_schema)
    gateway = LlmGateway(OverlapBackend(_confirm_unless_rash),
                         retry=RetryPolicy(1, 0.0), max_in_flight=4)
    cold = run_corpus_synthesis(gateway, corpus)
    calls = gateway.stats.chat_calls
    threads = []
    inner = adrcm.iors.generate_synthetic

    def spy(*args):
        threads.append(threading.get_ident())
        return inner(*args)

    # run_corpus_synthesis must look generate_synthetic up by its global name
    monkeypatch.setattr(adrcm.iors, "generate_synthetic", spy)
    assert run_corpus_synthesis(gateway, corpus) == cold
    assert threads == [threading.get_ident()] * 4
    assert gateway.stats.chat_calls == calls


def test_synthetic_round_trip():
    from adrcm.iors import SyntheticRecord
    records = (SyntheticRecord("1", "a", "b", "CID", "text one"),
               SyntheticRecord("2", "c", "d", "CID", "text two"))
    text = save_synthetic(records)
    assert load_synthetic(text) == records
    assert save_synthetic([]) == ""
    with pytest.raises(ValueError, match="line 1"):
        load_synthetic('{"doc_id": "1"}\n')
