import math
import random
import re
import threading

import pytest

import adrcm.infer
import adrcm.kb
from adrcm.corpus import Corpus, builtin_schema, enumerate_candidate_pairs
from adrcm.infer import (
    RAG_MODES,
    InferenceConfig,
    assemble_prompt,
    build_instruction,
    build_task_input,
    load_predictions,
    pair_query_text,
    parse_relation_output,
    predict_corpus,
    predict_pair,
    retrieve_for_pair,
    save_predictions,
)
from adrcm.iors import IorsConfig
from adrcm.kb import EMBED_BATCH_SIZE, RetrievedSnippet, build_index
from adrcm.llm import HashingEmbedder, LlmGateway, RetryPolicy, ScriptedBackend, exchange_key, user_exchange
from adrcm.mock import TOY_CHUNK_PARAMS, build_mock_script
from adrcm.model import RelationSchema
from conftest import OverlapBackend, make_sample


def _snippet(chunk_id="C0000001|kb|alpha#0000", text="alpha binds receptors"):
    return RetrievedSnippet(chunk_id, "C0000001|kb|alpha", "C0000001", "kb",
                            "alpha", text, 0.5)


def test_inference_config_validation():
    with pytest.raises(ValueError, match="rag_mode"):
        InferenceConfig(rag_mode="sometimes")
    with pytest.raises(ValueError):
        InferenceConfig(k=0)
    assert "{labels}" in InferenceConfig().instruction


def test_build_instruction(cdr_schema):
    text = build_instruction(cdr_schema)
    assert "CID, None" in text
    custom = build_instruction(cdr_schema, "Pick from {labels}.")
    assert custom == "Pick from CID, None."


def test_build_task_input_sections():
    bare = build_task_input("The document.", "aspirin", "rash")
    assert bare == ("Document:\nThe document.\n\n"
                    "Head entity: aspirin\nTail entity: rash")
    assert "Relevant snippets" not in bare

    with_snips = build_task_input("The document.", "aspirin", "rash",
                                  [_snippet(), _snippet("C0000002|kb|beta#0000", "beta text")])
    assert "Relevant snippets:\n[1] (kb, C0000001) alpha binds receptors\n" \
           "[2] (kb, C0000001) beta text" in with_snips
    head_pos = with_snips.index("Head entity:")
    snip_pos = with_snips.index("Relevant snippets:")
    doc_pos = with_snips.index("Document:")
    assert doc_pos < snip_pos < head_pos


def test_assemble_prompt_puts_instruction_first(cdr_schema):
    prompt = assemble_prompt(build_instruction(cdr_schema), "doc", "a", "b")
    assert prompt.index("Determine the relation") == 0
    assert prompt.index("Document:") > 0


def test_pair_query_text(cdr_schema):
    sample = make_sample(
        "501", ["Aspirin causes rash."],
        [("E1", "chemical", [(0, "Aspirin")]),
         ("E2", "disease", [(0, "rash")])])
    query = pair_query_text(cdr_schema, sample.entity("E1"), sample.entity("E2"))
    assert query == "Aspirin rash CID None"


def test_parse_relation_output_table(cdr_schema):
    cases = [
        ("CID", ("CID", False)),
        ("cid.", ("CID", False)),
        ("induces", ("CID", False)),
        ("None", ("None", False)),
        ("The relation is CID.", ("CID", False)),
        ("I believe the chemical induces the disease.", ("CID", False)),
        ("There is no relation between them.", ("None", False)),
        ("Totally inconclusive reply.", ("None", True)),
        ("", ("None", True)),
    ]
    for raw, expected in cases:
        assert parse_relation_output(raw, cdr_schema) == expected, raw


def test_parse_relation_output_earliest_whole_word(cdr_schema):
    # earliest occurrence wins over later ones
    label, flagged = parse_relation_output("None, not CID.", cdr_schema)
    assert (label, flagged) == ("None", False)
    # substrings inside words do not match
    label, flagged = parse_relation_output("placid lucidity", cdr_schema)
    assert (label, flagged) == ("None", True)


def test_parse_relation_output_longest_at_same_start():
    schema = RelationSchema(
        "demo", ("assoc", "assoc_strong", "assoc strong", "nil"), "nil",
        frozenset({("gene", "disease")}))
    label, flagged = parse_relation_output("verdict: assoc_strong", schema)
    assert (label, flagged) == ("assoc_strong", False)
    assert parse_relation_output("verdict: assoc strong", schema) == ("assoc strong", False)


def _reference_normalize_relation_label(raw, schema):
    """The exact reader that RelationSchema.label_of replaced."""
    folded = raw.strip().strip(".!?,;:\"'`").strip().casefold()
    for label in schema.labels:
        if folded == label.casefold():
            return label
    for alias, label in schema.aliases.items():
        if folded == alias.casefold():
            return label
    return None


def _reference_parse_relation_output(raw, schema):
    """The reply reader that parse_relation_output replaced: the exact reader, then
    one whole-word search per label and alias, the earliest and then longest kept."""
    exact = _reference_normalize_relation_label(raw, schema)
    if exact is not None:
        return exact, False
    surface_to_label = {label: label for label in schema.labels}
    surface_to_label.update(schema.aliases)
    best = None
    for surface, label in surface_to_label.items():
        match = re.search(rf"\b{re.escape(surface)}\b", raw, re.IGNORECASE)
        if match is not None and (best is None or (match.start(), -len(surface)) < best[:2]):
            best = (match.start(), -len(surface), label)
    return (schema.none_label, True) if best is None else (best[2], False)


_FILLER = ["the", "relation", "is", "not", "between", "placid", "answer:", "none-ish",
           "cid_x", "co", "treatment", "gene-disease"]


def _random_reply(rng, schema):
    """Labels, aliases and filler words in random case, between random spaces and
    punctuation."""
    words = rng.choices([*schema.labels, *schema.aliases, *_FILLER], k=rng.randint(0, 4))
    reply = rng.choice(["", " ", "\n", '"', "'"])
    for word in words:
        word = rng.choice([word, word.upper(), word.lower(), word.title(), word.swapcase()])
        reply += word + rng.choice([" ", "  ", ", ", ". ", "-", "_", ""])
    return reply + rng.choice(["", ".", "!", "?", " ", "`", ":\n"])


@pytest.mark.parametrize("name", ["cdr", "gda", "biored", "overlap"])
def test_readers_match_the_reference_readers(name):
    # In the builtin schemas, surfaces that can match at one position name one label.
    schema = builtin_schema(name) if name != "overlap" else RelationSchema(
        name, ("assoc", "assoc strong", "nil"), "nil", frozenset(),
        {"strong": "assoc strong", "assoc+": "assoc strong", "no": "nil", "no assoc": "nil",
         "assoc-weak": "assoc"})
    rng = random.Random(name)
    seen = {"exact": 0, "scanned": 0, "unparseable": 0}
    for _ in range(2000):
        reply = _random_reply(rng, schema)
        exact = schema.label_of(reply)
        assert exact == _reference_normalize_relation_label(reply, schema), reply
        got = parse_relation_output(reply, schema)
        assert got == _reference_parse_relation_output(reply, schema), reply
        seen["exact" if exact is not None else "unparseable" if got[1] else "scanned"] += 1
    assert min(seen.values()) >= 50, seen


@pytest.fixture()
def rag_setup(cdr_schema):
    from adrcm.kb import ChunkParams, KbDocument, build_index
    sample = make_sample(
        "601", ["Velcotin causes ataxia.", "Recovery was complete."],
        [("D1", "chemical", [(0, "Velcotin")]),
         ("D2", "disease", [(0, "ataxia")])],
        [("D1", "D2", "CID")])
    object.__setattr__(sample.entities[0], "cui", "C0000011")
    object.__setattr__(sample.entities[1], "cui", "C0000012")
    docs = [
        KbDocument("C0000011", "kb", "velcotin", "velcotin is a strong sedative agent"),
        KbDocument("C0000012", "kb", "ataxia", "ataxia is loss of coordination"),
        KbDocument("C0000013", "kb", "other", "completely unrelated article text"),
    ]
    index = build_index(docs, HashingEmbedder(), params=ChunkParams(8, 2, 1))
    corpus = Corpus(cdr_schema, (sample,))
    return corpus, index


def test_predict_pair_with_keyed_script(rag_setup, cdr_schema):
    corpus, index = rag_setup
    sample = corpus.samples[0]
    config = InferenceConfig()
    probe = LlmGateway(ScriptedBackend({}), HashingEmbedder(),
                       retry=RetryPolicy(1, 0.0))
    snippets = retrieve_for_pair(probe, index, cdr_schema,
                                 sample.entity("D1"), sample.entity("D2"), config)
    assert snippets and all(s.cui in ("C0000011", "C0000012") for s in snippets)
    prompt = assemble_prompt(build_instruction(cdr_schema), sample.document.text,
                             "Velcotin", "ataxia", snippets)
    script = {exchange_key(user_exchange(
        prompt, temperature=config.temperature, model_id=config.model_id,
        max_tokens=config.max_tokens)): "CID"}
    gateway = LlmGateway(ScriptedBackend(script), HashingEmbedder(),
                         retry=RetryPolicy(1, 0.0))
    record = predict_pair(gateway.chat, build_instruction(cdr_schema), sample, "D1", "D2",
                          snippets, cdr_schema, config)
    assert record.label == "CID"
    assert not record.unparseable
    assert record.snippets_used == tuple(s.chunk_id for s in snippets)
    assert record.doc_id == "601"


@pytest.mark.parametrize("rag_mode", RAG_MODES)
def test_predict_pair_takes_a_chat_function_and_a_bare_embedder(rag_setup, cdr_schema,
                                                                  rag_mode):
    corpus, index = rag_setup
    sample, config = corpus.samples[0], InferenceConfig(rag_mode=rag_mode)
    prompts = []

    def chat(exchange):
        prompts.append(exchange.messages[-1].content)
        return "The relation is CID."

    instruction = build_instruction(cdr_schema, config.instruction)
    snippets = retrieve_for_pair(HashingEmbedder(), index, cdr_schema, sample.entity("D1"),
                                 sample.entity("D2"), config)
    plain = predict_pair(chat, instruction, sample, "D1", "D2", snippets, cdr_schema, config)
    gateway = LlmGateway(ScriptedBackend({exchange_key(user_exchange(
        prompts[0], temperature=config.temperature, model_id=config.model_id,
        max_tokens=config.max_tokens)): "The relation is CID."}), HashingEmbedder(),
        retry=RetryPolicy(1, 0.0))
    assert predict_pair(gateway.chat, instruction, sample, "D1", "D2", snippets, cdr_schema,
                        config) == plain
    assert plain.label == "CID" and bool(plain.snippets_used) == (rag_mode != "off")


@pytest.mark.parametrize("rag_mode", RAG_MODES)
def test_retrieve_for_pair_gives_the_same_snippets_from_a_bare_embedder(toy_corpus,
                                                                        toy_index,
                                                                        cdr_schema,
                                                                        rag_mode):
    # perfbench's compile_inference embeds through a gateway that wraps the embedder.
    embedder, config = HashingEmbedder(), InferenceConfig(rag_mode=rag_mode)
    gateway = LlmGateway(ScriptedBackend({}), embedder)
    for sample in toy_corpus.samples:
        for head_id, tail_id, _ in enumerate_candidate_pairs(sample, cdr_schema):
            head, tail = sample.entity(head_id), sample.entity(tail_id)
            bare = retrieve_for_pair(embedder, toy_index, cdr_schema, head, tail, config)
            assert retrieve_for_pair(gateway, toy_index, cdr_schema, head, tail,
                                     config) == bare
            assert bool(bare) == (rag_mode != "off")


def test_predict_corpus_rag_off_calls_no_embeddings(rag_setup, cdr_schema):
    corpus, index = rag_setup

    class AlwaysNone:
        parallel_safe = True

        def complete(self, exchange):
            assert "Relevant snippets" not in exchange.messages[-1].content
            return "None"

    class CountingEmbedder(HashingEmbedder):
        texts = 0

        def embed_batch(self, texts):
            self.texts += len(texts)
            return super().embed_batch(texts)

    embedder = CountingEmbedder()
    gateway = LlmGateway(AlwaysNone(), embedder, retry=RetryPolicy(1, 0.0))
    predictions = predict_corpus(gateway, index, corpus,
                                 InferenceConfig(rag_mode="off"))
    assert embedder.texts == 0
    assert all(p.snippets_used == () for p in predictions)
    expected_pairs = [
        (s.document.doc_id, h, t)
        for s in corpus.samples
        for h, t, _ in enumerate_candidate_pairs(s, cdr_schema)]
    assert [(p.doc_id, p.head_id, p.tail_id) for p in predictions] == expected_pairs


def _by_length(prompt):
    return ("CID", "None", "no idea")[len(prompt) % 3]


def test_predict_corpus_concurrent_matches_sequential(toy_corpus, toy_index):
    runs = {}
    for width in (1, 2, 4):
        backend = OverlapBackend(_by_length)
        gateway = LlmGateway(backend, HashingEmbedder(), retry=RetryPolicy(1, 0.0),
                             max_in_flight=width)
        runs[width] = predict_corpus(gateway, toy_index, toy_corpus)
        assert min(width, 2) <= backend.peak_in_flight <= width  # two calls are made to meet
    assert len(runs[1]) == 16
    assert runs[2] == runs[4] == runs[1]
    assert {p.label for p in runs[1]} == {"CID", "None"}


def test_predict_corpus_warm_cache_stays_on_calling_thread(toy_corpus, toy_index,
                                                           monkeypatch):
    gateway = LlmGateway(OverlapBackend(_by_length), HashingEmbedder(),
                         retry=RetryPolicy(1, 0.0), max_in_flight=4)
    cold = predict_corpus(gateway, toy_index, toy_corpus)
    threads = []
    inner = adrcm.infer.predict_pair

    def spy(*args):
        threads.append(threading.get_ident())
        return inner(*args)

    # predict_corpus must look predict_pair up by its module-global name
    monkeypatch.setattr(adrcm.infer, "predict_pair", spy)
    assert predict_corpus(gateway, toy_index, toy_corpus) == cold
    assert threads == [threading.get_ident()] * len(cold)
    assert gateway.stats.chat_calls == len(cold)


def test_predict_corpus_retrieves_through_the_module_global_name(toy_corpus, toy_index,
                                                               monkeypatch):
    calls = []
    inner = adrcm.infer.retrieve

    def spy(*args, **kwargs):
        calls.append(kwargs["cui_scoped"])
        return inner(*args, **kwargs)

    # perfbench's tracing wraps retrieval under this name
    monkeypatch.setattr(adrcm.infer, "retrieve", spy)
    gateway = LlmGateway(OverlapBackend(_by_length), HashingEmbedder(),
                         retry=RetryPolicy(1, 0.0))
    predictions = predict_corpus(gateway, toy_index, toy_corpus, InferenceConfig(rag_mode="cui"))
    assert calls == [True] * math.ceil(len(predictions) / EMBED_BATCH_SIZE)
    assert any(p.snippets_used for p in predictions)


@pytest.mark.parametrize("batch_size", [EMBED_BATCH_SIZE, 5, 1])
def test_predict_corpus_embeds_and_retrieves_per_block_on_the_calling_thread(
        toy_corpus, toy_index, monkeypatch, batch_size):
    """The calling thread makes one embedding call and one retrieval per block of
    ``EMBED_BATCH_SIZE`` pairs, while a live ``parallel_safe`` backend at width 4 takes
    the chat calls on the pool; predictions do not depend on the block size."""
    want = predict_corpus(LlmGateway(OverlapBackend(_by_length), HashingEmbedder(),
                                     retry=RetryPolicy(1, 0.0), max_in_flight=1),
                          toy_index, toy_corpus, InferenceConfig(rag_mode="chunks"))
    threads, blocks = [], []
    inner = adrcm.infer.retrieve

    def spy(index, query_vecs, pairs, **kwargs):
        threads.append(threading.get_ident())
        blocks.append(len(pairs))
        return inner(index, query_vecs, pairs, **kwargs)

    embedded = []

    class CountingEmbedder(HashingEmbedder):
        def embed_batch(self, texts):
            threads.append(threading.get_ident())
            embedded.append(len(texts))
            return super().embed_batch(texts)

    monkeypatch.setattr(adrcm.infer, "retrieve", spy)
    monkeypatch.setattr(adrcm.kb, "EMBED_BATCH_SIZE", batch_size)
    backend = OverlapBackend(_by_length)
    gateway = LlmGateway(backend, CountingEmbedder(), retry=RetryPolicy(1, 0.0),
                         max_in_flight=4)
    assert predict_corpus(gateway, toy_index, toy_corpus,
                          InferenceConfig(rag_mode="chunks")) == want
    sizes = [min(batch_size, len(want) - at) for at in range(0, len(want), batch_size)]
    assert len(sizes) == math.ceil(len(want) / batch_size)
    assert blocks == embedded == sizes
    assert threads == [threading.get_ident()] * 2 * len(sizes)
    assert backend.peak_in_flight >= 2 and len(backend.threads) > 1


def test_mock_script_answers_queries_embedded_by_the_index_embedder(toy_corpus, toy_kb_docs):
    index = build_index(toy_kb_docs, HashingEmbedder(32), params=TOY_CHUNK_PARAMS)
    config = InferenceConfig(rag_mode="cui")
    script = build_mock_script(toy_corpus, index, IorsConfig(), config, HashingEmbedder(32))
    gateway = LlmGateway(ScriptedBackend(script), HashingEmbedder(32))
    predictions = predict_corpus(gateway, index, toy_corpus, config)
    assert len(predictions) == 16
    assert any(p.snippets_used for p in predictions)


def test_predictions_round_trip():
    from adrcm.infer import PredictionRecord
    records = (
        PredictionRecord("1", "a", "b", "CID", "CID", ("c1", "c2"), False),
        PredictionRecord("1", "a", "c", "None", "??", (), True),
    )
    assert load_predictions(save_predictions(records)) == records
    with pytest.raises(ValueError, match="line 1"):
        load_predictions('{"doc_id": "1"}\n')
