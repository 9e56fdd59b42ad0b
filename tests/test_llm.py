import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from adrcm.llm import (
    API_KEY_ENV,
    ChatExchange,
    ChatMessage,
    HashingEmbedder,
    HttpChatBackend,
    HttpEmbeddingBackend,
    LlmGateway,
    ProtocolError,
    RetryPolicy,
    ScriptExhaustedError,
    ScriptedBackend,
    TransportError,
    exchange_key,
    _ReplyCache,
    _fnv1a64,
    user_exchange,
)
from conftest import OverlapBackend
from http_stub import Reply


def test_chat_message_role_checked():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")


def test_exchange_invariants():
    with pytest.raises(ValueError):
        ChatExchange((ChatMessage("system", "s"),))
    with pytest.raises(ValueError):
        user_exchange("hi", temperature=-0.1)
    with pytest.raises(ValueError):
        user_exchange("hi", max_tokens=0)


def test_exchange_key_sensitivity():
    base = user_exchange("hello")
    assert exchange_key(base) == exchange_key(user_exchange("hello"))
    assert exchange_key(base) != exchange_key(user_exchange("hello!"))
    assert exchange_key(base) != exchange_key(user_exchange("hello", temperature=0.7))
    assert exchange_key(base) != exchange_key(
        ChatExchange((ChatMessage("system", "be brief"), *base.messages)))
    assert exchange_key(base) != exchange_key(
        user_exchange("hello", model_id="other"))
    assert len(exchange_key(base)) == 64


def test_scripted_backend_list_mode():
    backend = ScriptedBackend(["one", "two"])
    assert not backend.parallel_safe
    assert backend.complete(user_exchange("a")) == "one"
    assert backend.complete(user_exchange("b")) == "two"
    with pytest.raises(ScriptExhaustedError, match="after 2 replies"):
        backend.complete(user_exchange("c"))


def test_scripted_backend_map_mode():
    wanted = user_exchange("question")
    backend = ScriptedBackend({exchange_key(wanted): "answer"})
    assert backend.parallel_safe
    assert backend.complete(wanted) == "answer"
    assert backend.complete(wanted) == "answer"
    with pytest.raises(ScriptExhaustedError, match="no scripted reply"):
        backend.complete(user_exchange("other"))


def test_scripted_backend_from_file(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps({"replies": ["a"]}))
    assert ScriptedBackend.from_file(str(listed)).complete(user_exchange("x")) == "a"

    keyed = tmp_path / "map.json"
    wanted = user_exchange("q")
    keyed.write_text(json.dumps({"by_hash": {exchange_key(wanted): "r"}}))
    assert ScriptedBackend.from_file(str(keyed)).complete(wanted) == "r"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"oops": 1}))
    with pytest.raises(ValueError, match="replies"):
        ScriptedBackend.from_file(str(bad))


@pytest.mark.parametrize("text", [json.dumps(data) for data in (
    {"replies": "CID"}, {"replies": ["a", 1]}, {"replies": None}, {"by_hash": ["a"]},
    {"by_hash": {"k": 5}}, {"by_hash": "x", "replies": ["a"]}, ["a"], "CID")] + ["not json"])
def test_scripted_backend_from_file_refuses_replies_that_are_not_strings(tmp_path, text):
    # A string of replies would otherwise play back one character per call.
    path = tmp_path / "script.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected")):
        ScriptedBackend.from_file(str(path))


def _chat_payload(content):
    return {"choices": [{"message": {"content": content}}]}


def test_http_chat_backend_success(monkeypatch, http_stub):
    monkeypatch.setenv(API_KEY_ENV, "sk-test")
    http_stub.script = lambda request: Reply(body=_chat_payload("pong"))
    backend = HttpChatBackend(http_stub.url + "/v1/")
    reply = backend.complete(user_exchange("ping", temperature=0.5))
    assert reply == "pong"
    [sent] = http_stub.requests
    assert sent.path == "/v1/chat/completions"
    assert sent.headers["Authorization"] == "Bearer sk-test"
    assert sent.headers["Content-Type"] == "application/json"
    assert sent.json["temperature"] == 0.5
    assert sent.json["messages"] == [{"role": "user", "content": "ping"}]


def test_http_chat_backend_error_taxonomy(http_stub):
    for reply, expected in [
        (Reply(429), TransportError),
        (Reply(503), TransportError),
        (Reply(404, raw=b"missing"), ProtocolError),
        (Reply(raw=b"not json {"), ProtocolError),
        (Reply(body={"weird": True}), ProtocolError),
        (Reply(body=_chat_payload(42)), ProtocolError),
    ]:
        http_stub.script = lambda request: reply
        with pytest.raises(expected):
            HttpChatBackend(http_stub.url).complete(user_exchange("q"))
    assert http_stub.per_path == {"/chat/completions": 6}
    with socket.socket() as unused:
        unused.bind(("127.0.0.1", 0))  # bound but not listening: connecting is refused
        refused = HttpChatBackend(f"http://127.0.0.1:{unused.getsockname()[1]}")
        with pytest.raises(TransportError, match="chat request failed"):
            refused.complete(user_exchange("q"))


def test_http_embedding_backend(monkeypatch, http_stub):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    backend = HttpEmbeddingBackend(http_stub.url, dimension=2)

    def embed(rows, texts, *, status=200):
        http_stub.script = lambda request: Reply(status, body={
            "data": [{"embedding": row} for row in rows]})
        return backend.embed_batch(texts)

    vecs = embed([[1.0, 0.0], [0.0, 2.0]], ["a", "b"])
    assert [v.tolist() for v in vecs] == [[1.0, 0.0], [0.0, 2.0]]
    [sent] = http_stub.requests
    assert sent.path == "/embeddings"
    assert sent.json == {"model": "default", "input": ["a", "b"]}
    assert "Authorization" not in sent.headers
    with pytest.raises(ProtocolError, match="expected 2 embeddings"):
        embed([[1.0, 0.0]], ["a", "b"])
    with pytest.raises(ProtocolError, match="dim"):
        embed([[1.0]], ["a"])
    with pytest.raises(TransportError):
        embed([], ["a"], status=500)


def test_http_embedding_backend_refuses_non_finite_vectors(http_stub):
    backend = HttpEmbeddingBackend(http_stub.url, dimension=2)
    for raw in (b'{"data": [{"embedding": [NaN, 1.0]}]}',
                b'{"data": [{"embedding": [1.0, -Infinity]}]}',
                b'{"data": [{"embedding": [0.0, -0.0]}]}'):
        http_stub.script = lambda request: Reply(raw=raw)
        with pytest.raises(ProtocolError, match="^embedding of 'a' is zero or non-finite$"):
            backend.embed_batch(["a"])
    assert len(http_stub.requests) == 3


def test_http_backends_refuse_urls_that_are_not_http():
    for url in ("localhost:8000/v1", "127.0.0.1:9", "ftp://host/v1", "http:/host", ""):
        with pytest.raises(ValueError, match="is not an http"):
            HttpChatBackend(url)
        with pytest.raises(ValueError, match="is not an http"):
            HttpEmbeddingBackend(url)
    assert HttpChatBackend("HTTPS://api.example/v1").base_url == "HTTPS://api.example/v1"


def _fnv64(token: str) -> int:
    # independent FNV-1a reference
    h = 0xCBF29CE484222325
    for b in token.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) % 2**64
    return h


def test_hashing_embedder_matches_reference():
    emb = HashingEmbedder(dimension=16)
    vec = emb.embed_one("Alpha beta alpha")
    expected = np.zeros(16)
    for token in ["alpha", "beta", "alpha"]:
        expected[_fnv64(token) % 16] += 1.0
    expected /= math.sqrt(float((expected ** 2).sum()))
    assert np.array_equal(vec, expected)


def _reference_embedding(text: str, dimension: int) -> np.ndarray:
    # the per-token loop the batched embedder replaced
    vec = np.zeros(dimension, dtype=np.float64)
    for token in text.lower().split():
        vec[_fnv64(token) % dimension] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return vec / norm


def test_hashing_embed_batch_matches_per_token_loop_bit_for_bit():
    texts = ["", "  \t\n ", "Alpha beta ALPHA", "alpha gamma", "Ünïcode tökens ß ﬁ 漢字",
             "repeated repeated words", "repeated repeated words", "x " * 300, "\u2028 sep"]
    embedders = [HashingEmbedder(dimension) for dimension in (1, 7, 64)]
    hits = _fnv1a64.cache_info().hits
    # Interleaved dimensions share the hash cache, and the second round reads the
    # first round's hashes; no embedder may see another's buckets.
    for texts_now in (texts, texts[::-1] + ["alpha omega words"]):
        for emb in (*embedders, embedders[1]):
            got = emb.embed_batch(texts_now)
            assert len(got) == len(texts_now)
            for text, vec in zip(texts_now, got):
                want = _reference_embedding(text, emb.dimension)
                assert vec.dtype == np.float64 and vec.tobytes() == want.tobytes(), text
                assert emb.embed_one(text).tobytes() == want.tobytes()
    assert _fnv1a64.cache_info().hits > hits
    assert HashingEmbedder().embed_batch([]) == []


def _random_texts(rng, count, vocabulary):
    return [" ".join(rng.choices(vocabulary, k=rng.randint(0, 30))) for _ in range(count)]


def test_hashing_embed_batch_from_four_threads_matches_one_thread():
    rng = random.Random(7)
    # tokens no other test hashes, so the threads race on cache misses
    batches = [_random_texts(rng, 64, [f"t{rng.random()}" for _ in range(300)])
               for _ in range(8)]
    emb = HashingEmbedder(32)
    start = threading.Barrier(4)

    def run(_):
        start.wait()
        return [b"".join(v.tobytes() for v in emb.embed_batch(batch)) for batch in batches]

    with ThreadPoolExecutor(4) as pool:
        results = list(pool.map(run, range(4)))
    serial = [b"".join(_reference_embedding(text, 32).tobytes() for text in batch)
              for batch in batches]
    assert results == [serial] * 4


def test_embedder_identities():
    assert HashingEmbedder(32).identity == {"kind": "hashing", "model": "fnv1a64",
                                            "dimension": 32}
    assert HttpEmbeddingBackend("http://x", model_id="m", dimension=8).identity == {
        "kind": "http", "model": "m", "dimension": 8}


def test_hashing_embedder_properties():
    emb = HashingEmbedder()
    assert emb.dimension == 64
    v1 = emb.embed_one("some tokens here")
    v2 = emb.embed_one("some tokens here")
    assert np.array_equal(v1, v2)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-9
    empty = emb.embed_one("")
    assert empty[0] == 1.0 and np.linalg.norm(empty) == 1.0
    with pytest.raises(ValueError):
        HashingEmbedder(0)


class FlakyBackend:
    parallel_safe = True

    def __init__(self, failures, reply="done"):
        self.failures = failures
        self.reply = reply
        self.calls = 0

    def complete(self, exchange):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("blip")
        return self.reply


def test_gateway_retries_with_exponential_backoff():
    sleeps = []
    backend = FlakyBackend(failures=2)
    gateway = LlmGateway(backend, HashingEmbedder(),
                         retry=RetryPolicy(max_attempts=4, backoff_base=0.5),
                         sleep=sleeps.append)
    assert gateway.chat(user_exchange("q")) == "done"
    assert backend.calls == 3
    assert gateway.stats.retries == 2
    assert sleeps == [0.5, 1.0]


def test_gateway_gives_up_after_max_attempts():
    backend = FlakyBackend(failures=99)
    gateway = LlmGateway(backend, retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
                         sleep=lambda s: None)
    with pytest.raises(TransportError):
        gateway.chat(user_exchange("q"))
    assert backend.calls == 3


def test_gateway_cache_in_memory():
    gateway = LlmGateway(ScriptedBackend(["only"]))
    first = gateway.chat(user_exchange("q"))
    second = gateway.chat(user_exchange("q"))
    assert first == second == "only"
    assert gateway.stats.chat_calls == 1
    assert gateway.stats.cache_hits == 1


def test_gateway_cache_persists_on_disk(tmp_path):
    cache = str(tmp_path / "cache")
    g1 = LlmGateway(ScriptedBackend(["reply-a"]), cache_dir=cache)
    assert g1.chat(user_exchange("q")) == "reply-a"
    # a fresh gateway with an empty script must hit the disk cache
    g2 = LlmGateway(ScriptedBackend([]), cache_dir=cache)
    assert g2.chat(user_exchange("q")) == "reply-a"
    assert g2.stats.chat_calls == 0
    assert g2.stats.cache_hits == 1
    entries = list((tmp_path / "cache").iterdir())
    assert len(entries) == 1
    assert json.loads(entries[0].read_text())["reply"] == "reply-a"


@pytest.mark.parametrize("entry", [b'{"reply": 5}', b'["r"]', b"{}", b"not json", b"\xff",
                                   b'{"reply": "CID \\ud800"}'])
def test_gateway_refuses_a_malformed_cache_entry(tmp_path, entry):
    gateway = LlmGateway(ScriptedBackend(["live"]), cache_dir=str(tmp_path))
    path = tmp_path / f"{exchange_key(user_exchange('q'))}.json"
    path.write_bytes(entry)
    with pytest.raises(ValueError, match=re.escape(f"reply cache entry {path} is not")):
        gateway.chat(user_exchange("q"))
    assert gateway.stats.chat_calls == 0
    path.unlink()  # a missing entry is a miss
    assert gateway.chat(user_exchange("q")) == "live"


def test_gateway_reads_escaped_cache_replies_that_utf8_can_encode(tmp_path):
    """Only a lone surrogate is refused; an escaped surrogate pair is one character."""
    gateway = LlmGateway(ScriptedBackend([]), cache_dir=str(tmp_path))
    path = tmp_path / f"{exchange_key(user_exchange('q'))}.json"
    path.write_text('{"reply": "CID \\u00e9 \\ud83d\\ude00"}')
    assert gateway.chat(user_exchange("q")) == "CID \u00e9 \U0001f600"


def test_gateway_embed_passes_vectors_through():
    # Cosine retrieval is scale-invariant, so the gateway leaves vectors as
    # the embedder made them.
    class RawEmbedder:
        dimension = 3

        def embed_batch(self, texts):
            return [np.array([3.0, 4.0, 0.0]) for _ in texts]

    gateway = LlmGateway(ScriptedBackend([]), RawEmbedder())
    assert [v.tolist() for v in gateway.embed_batch(["x"])] == [[3.0, 4.0, 0.0]]
    assert gateway.embed_batch([]) == []


def test_gateway_rejects_bad_settings():
    with pytest.raises(ValueError):
        LlmGateway(ScriptedBackend([]), max_in_flight=0)
    with pytest.raises(ValueError, match="retry_attempts must be >= 1"):
        RetryPolicy(max_attempts=0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="retry_backoff must be a finite number >= 0"):
            RetryPolicy(backoff_base=bad)


def _echo_map(gateway, prompts):
    return gateway.map(lambda p: gateway.chat(user_exchange(p)), prompts)


def test_gateway_map_keeps_two_calls_in_flight():
    backend = OverlapBackend(lambda prompt: prompt.upper())
    gateway = LlmGateway(backend, max_in_flight=2)
    prompts = [f"q{i}" for i in range(7)]
    assert _echo_map(gateway, prompts) == [p.upper() for p in prompts]
    assert backend.peak_in_flight == 2
    assert gateway.stats.chat_calls == 7


def test_gateway_map_serial_backend_stays_on_calling_thread():
    backend = OverlapBackend(lambda prompt: prompt.upper(), parallel_safe=False)
    gateway = LlmGateway(backend, max_in_flight=4)
    prompts = [f"q{i}" for i in range(7)]
    assert _echo_map(gateway, prompts) == [p.upper() for p in prompts]
    assert backend.peak_in_flight == 1
    assert backend.threads == {threading.get_ident()}


def test_gateway_map_warm_cache_runs_on_calling_thread():
    gateway = LlmGateway(OverlapBackend(lambda prompt: prompt.upper()), max_in_flight=4)
    prompts = [f"q{i}" for i in range(7)]
    cold = _echo_map(gateway, prompts)
    threads = []

    def chat(prompt):
        threads.append(threading.get_ident())
        return gateway.chat(user_exchange(prompt))

    assert gateway.map(chat, prompts) == cold
    assert threads == [threading.get_ident()] * len(prompts)
    assert gateway.stats.chat_calls == len(prompts)
    assert gateway.stats.cache_hits == len(prompts)


def test_gateway_duplicate_requests_in_flight_make_one_live_call():
    class SlowDup:
        parallel_safe = True

        def complete(self, exchange):
            prompt = exchange.messages[-1].content
            if prompt == "dup":
                time.sleep(0.05)  # the other worker arrives while this call is live
            return prompt.upper()

    gateway = LlmGateway(SlowDup(), max_in_flight=2)
    assert _echo_map(gateway, ["first", "dup", "dup"]) == ["FIRST", "DUP", "DUP"]
    assert gateway.stats.chat_calls == 2
    assert gateway.stats.cache_hits == 1


def test_reply_cache_concurrent_puts_of_one_key(tmp_path):
    cache = _ReplyCache(str(tmp_path))
    start = threading.Barrier(8, timeout=5)
    errors = []

    def put(n):
        try:
            start.wait()
            cache.put("k", f"reply {n}")
        except Exception as exc:  # a collision surfaces here, not in the test thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=put, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    replies = {f"reply {n}" for n in range(8)}
    assert json.loads((tmp_path / "k.json").read_text())["reply"] in replies
    assert cache.get("k") in replies
    assert cache.get("absent") is None


def test_http_backend_gives_each_thread_its_own_session(http_stub):
    meet = threading.Barrier(2, timeout=5)

    def both_in_flight(request):
        meet.wait()
        return Reply(body=_chat_payload("ok"))

    http_stub.script = both_in_flight
    backend = HttpChatBackend(http_stub.url)
    replies = []
    threads = [threading.Thread(target=lambda: replies.append(
        backend.complete(user_exchange("q")))) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert replies == ["ok", "ok"]
    assert sorted(http_stub.per_connection.values()) == [1, 1]

    # One session shared by all threads would reuse an idle connection here.
    http_stub.script = lambda request: Reply(body=_chat_payload("ok"))
    for _ in range(3):
        assert backend.complete(user_exchange("q")) == "ok"
    assert sorted(http_stub.per_connection.values()) == [1, 1, 3]


def test_reply_cache_removes_temp_files_of_dead_writers(tmp_path):
    key = "a" * 64
    entry = tmp_path / f"{key}.json"
    # a writer killed between writing its temp file and the rename
    child = subprocess.Popen([sys.executable, "-c", (
        "import os, signal, sys\n"
        "from adrcm.files import atomic_write_text\n"
        "os.replace = lambda *_: os.kill(os.getpid(), signal.SIGKILL)\n"
        "atomic_write_text(sys.argv[1], '{')"), str(entry)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")))
    assert child.wait(timeout=60) == -signal.SIGKILL  # reaped: its pid names no process
    [dead] = tmp_path.iterdir()
    assert dead.name.startswith(f"{entry.name}.{child.pid}.")
    entry.write_text('{"reply": "kept"}')
    live = tmp_path / f"{key}.json.{os.getpid()}.1.tmp"
    live.write_text("{")
    cache = _ReplyCache(str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [entry.name, live.name]
    assert entry.read_text() == '{"reply": "kept"}'
    assert cache.get(key) == "kept"
