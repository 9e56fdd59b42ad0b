"""Chat and embedding access behind one gateway.

Every model call in the pipeline flows through :class:`LlmGateway`, which
adds a content-addressed disk cache, bounded concurrency, and retry with
exponential backoff. Backends are pluggable: HTTP backends speak an
OpenAI-style JSON protocol, while :class:`ScriptedBackend` and
:class:`HashingEmbedder` make the whole system runnable offline and
deterministically for tests and dry runs. The embedders import numpy when
they first embed, so commands that embed nothing start without it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, Sequence, TypeVar
from urllib.parse import urlsplit

from .config import DEFAULTS
from .files import atomic_write_text, remove_dead_temps

API_KEY_ENV = "ADRCM_API_KEY"
HTTP_TIMEOUT_S = 60.0
REPLY_CACHE_FORMAT = 1  # part of an HTTP backend's reply-cache keys

T = TypeVar("T")
R = TypeVar("R")


class TransportError(RuntimeError):
    """Transient failure talking to a backend; safe to retry."""


class ProtocolError(RuntimeError):
    """The backend answered, but not in the shape we require."""


class ScriptExhaustedError(RuntimeError):
    """A scripted backend had no reply left for a request."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role: {self.role!r}")


@dataclass(frozen=True)
class ChatExchange:
    """One self-contained chat request: messages plus sampling settings."""

    messages: tuple[ChatMessage, ...]
    model_id: str = DEFAULTS["chat_model"]
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not any(m.role == "user" for m in self.messages):
            raise ValueError("exchange needs at least one user message")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


def user_exchange(content: str, **settings: Any) -> ChatExchange:
    """An exchange of one user message; ``settings`` are its other :class:`ChatExchange` fields."""
    return ChatExchange((ChatMessage("user", content),), **settings)


def exchange_key(exchange: ChatExchange) -> str:
    """Stable content hash of an exchange, used for caching and scripting."""
    payload = {**vars(exchange),
               "messages": [[m.role, m.content] for m in exchange.messages]}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ChatBackend(Protocol):
    parallel_safe: bool

    def complete(self, exchange: ChatExchange) -> str: ...


class Embedder(Protocol):
    dimension: int
    identity: dict  # {"kind", "model", "dimension"}: what an index records as its builder

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]: ...


class ScriptedBackend:
    """Canned chat replies, either an ordered list or keyed by request hash.

    List mode consumes replies in order and is only safe sequentially.
    Map mode answers by ``exchange_key`` and is order-independent, which is
    what resumable end-to-end runs rely on.
    """

    def __init__(self, script: Sequence[str] | Mapping[str, str]):
        self._lock = threading.Lock()
        if isinstance(script, Mapping):
            self._by_key: dict[str, str] | None = dict(script)
            self._queue: list[str] | None = None
            self.parallel_safe = True
        else:
            self._by_key = None
            self._queue = list(script)
            self._cursor = 0
            self.parallel_safe = False

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError:  # not UTF-8 or not JSON
            data = None
        by_hash = data.get("by_hash") if isinstance(data, dict) else None
        replies = data.get("replies") if isinstance(data, dict) and by_hash is None else None
        if isinstance(by_hash, dict) and all(isinstance(r, str) for r in by_hash.values()):
            return cls(by_hash)
        if isinstance(replies, list) and all(isinstance(r, str) for r in replies):
            return cls(replies)
        raise ValueError(f"{path}: expected a 'replies' list of strings or a 'by_hash' "
                         "object of string replies")

    def complete(self, exchange: ChatExchange) -> str:
        with self._lock:
            if self._by_key is not None:
                key = exchange_key(exchange)
                try:
                    return self._by_key[key]
                except KeyError:
                    raise ScriptExhaustedError(
                        f"no scripted reply for request {key[:12]}"
                    ) from None
            assert self._queue is not None
            if self._cursor >= len(self._queue):
                raise ScriptExhaustedError(
                    f"script exhausted after {len(self._queue)} replies"
                )
            reply = self._queue[self._cursor]
            self._cursor += 1
            return reply


class _HttpClient:
    """OpenAI-style JSON POST shared by the HTTP backends.

    Sends the bearer token from ``ADRCM_API_KEY``, maps HTTP status to
    :class:`TransportError` (retryable) or :class:`ProtocolError`, and turns
    a reply that ``pick`` cannot read into a :class:`ProtocolError`. Each
    thread gets its own ``requests.Session``, which is not promised to be
    thread-safe; ``requests`` is imported at first use, so offline runs skip it.
    """

    kind: str  # names the backend in error messages

    def __init__(self, base_url: str):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"{self.kind} URL {base_url!r} is not an http(s) URL")
        self.base_url = base_url.rstrip("/")
        key = os.environ.get(API_KEY_ENV)
        self._headers = {"Authorization": f"Bearer {key}"} if key else {}
        self._local = threading.local()

    def _post(self, path: str, body: dict, pick: Callable[[Any], T]) -> T:
        import requests
        if not hasattr(self._local, "session"):
            self._local.session = requests.Session()
        try:  # json= sets the Content-Type
            response = self._local.session.post(f"{self.base_url}/{path}", json=body,
                                                headers=self._headers, timeout=HTTP_TIMEOUT_S)
        except requests.RequestException as exc:
            raise TransportError(f"{self.kind} request failed: {exc}") from exc
        if response.status_code == 429 or response.status_code >= 500:
            raise TransportError(f"{self.kind} backend returned HTTP {response.status_code}")
        if response.status_code != 200:
            raise ProtocolError(
                f"{self.kind} backend returned HTTP {response.status_code}: {response.text[:200]}"
            )
        try:
            return pick(response.json())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed {self.kind} response: {exc}") from exc


class HttpChatBackend(_HttpClient):
    """OpenAI-style ``/chat/completions`` client over ``requests``."""

    kind = "chat"
    parallel_safe = True

    def complete(self, exchange: ChatExchange) -> str:
        content = self._post("chat/completions", {
            "model": exchange.model_id,
            "messages": [vars(m) for m in exchange.messages],
            "temperature": exchange.temperature,
            "max_tokens": exchange.max_tokens,
        }, lambda reply: reply["choices"][0]["message"]["content"])
        if not isinstance(content, str):
            raise ProtocolError("chat response content is not text")
        try:  # a lone surrogate: no cache entry, prompt hash or output file can hold it
            content.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ProtocolError(f"chat response content is not UTF-8: {exc.reason}") from None
        return content


class HttpEmbeddingBackend(_HttpClient):
    """OpenAI-style ``/embeddings`` client over ``requests``."""

    kind = "embedding"

    def __init__(self, base_url: str, *, model_id: str = DEFAULTS["embed_model"],
                 dimension: int = DEFAULTS["embed_dimension"]):
        super().__init__(base_url)
        self.model_id = model_id
        self.dimension = dimension

    @property
    def identity(self) -> dict:
        return {"kind": "http", "model": self.model_id, "dimension": self.dimension}

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        import numpy as np
        vectors = self._post(
            "embeddings", {"model": self.model_id, "input": list(texts)},
            lambda reply: [np.asarray(row["embedding"], dtype=np.float64)
                           for row in reply["data"]])
        if len(vectors) != len(texts):
            raise ProtocolError(
                f"expected {len(texts)} embeddings, got {len(vectors)}"
            )
        for text, vec in zip(texts, vectors):
            if vec.ndim != 1 or vec.shape[0] != self.dimension:
                raise ProtocolError(
                    f"expected {self.dimension}-dim embeddings, got shape {vec.shape}"
                )
            # Cosine retrieval cannot score such a vector.
            if not vec.any() or not np.isfinite(vec).all():
                raise ProtocolError(f"embedding of {text[:40]!r} is zero or non-finite")
        return vectors


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = (1 << 64) - 1


# Holds hashes, not buckets, so embedders of every dimension share it; bounded, as
# a vocabulary can be large.
@functools.lru_cache(maxsize=1 << 16)
def _fnv1a64(token: str) -> int:
    value = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value


class HashingEmbedder:
    """Deterministic offline embedder: hashed token counts, L2-normalized.

    Whitespace tokens are bucketed by FNV-1a into a fixed number of
    dimensions. Crude, but stable across platforms and good enough to give
    related texts related vectors without any model weights. A text with
    no tokens gets the first unit vector.
    """

    def __init__(self, dimension: int = DEFAULTS["embed_dimension"]):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    @property
    def identity(self) -> dict:
        return {"kind": "hashing", "model": "fnv1a64", "dimension": self.dimension}

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        import numpy as np
        # Each distinct token of the batch is looked up once in the hash cache. Counts
        # are integers below 2**53, so the sums of squares are exact and the vectors
        # equal a per-text count, norm and divide bit for bit.
        dim = self.dimension
        # split() yields no "", so it can stand for an empty text: one count in
        # bucket 0, which normalizes to e_0
        tokens = [text.lower().split() or [""] for text in texts]
        flat = list(itertools.chain.from_iterable(tokens))
        buckets = {token: _fnv1a64(token) % dim for token in set(flat)}
        buckets[""] = 0
        cells = np.fromiter(map(buckets.__getitem__, flat), np.int64, len(flat))
        if len(texts) > 1:  # cell row * dim + bucket; a lone row needs no offset
            cells += np.repeat(np.arange(0, len(texts) * dim, dim), [len(t) for t in tokens])
        counts = np.bincount(cells, minlength=len(texts) * dim).astype(np.float64)
        counts = counts.reshape(len(texts), dim)
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        return list(counts / norms[:, None])


@dataclass
class RetryPolicy:
    max_attempts: int = DEFAULTS["retry_attempts"]
    backoff_base: float = DEFAULTS["retry_backoff"]

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(f"retry_backoff must be a finite number >= 0, got {self.backoff_base}")


class _ReplyCache:
    """Chat replies keyed by request hash; one small JSON file per entry.

    Entries are written by :func:`~adrcm.files.atomic_write_text`, so a killed
    process never leaves a truncated entry behind, and opening the cache
    removes the temp files of writers whose process no longer exists. The
    lock guards only the in-memory dict, never file I/O.
    """

    def __init__(self, cache_dir: str | None):
        self.cache_dir = cache_dir
        self._memory: dict[str, str] = {}
        self._lock = threading.Lock()
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            remove_dead_temps(cache_dir)

    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str) -> str | None:
        if self.cache_dir is None:
            with self._lock:
                return self._memory.get(key)
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                reply = json.load(fh)["reply"]  # TypeError or KeyError unless an object with it
            reply.encode("utf-8")  # AttributeError unless a str; a lone surrogate: ValueError
        except FileNotFoundError:
            return None
        except (ValueError, LookupError, TypeError, AttributeError):
            raise ValueError(f"reply cache entry {path} is not a JSON object with a "
                             "UTF-8 string reply") from None
        return reply

    def put(self, key: str, reply: str) -> None:
        if self.cache_dir is None:
            with self._lock:
                self._memory[key] = reply
            return
        atomic_write_text(self._path(key), json.dumps({"reply": reply}, ensure_ascii=False))


@dataclass
class GatewayStats:
    chat_calls: int = 0
    cache_hits: int = 0
    retries: int = 0


class LlmGateway:
    """Single entry point for chat and embedding calls.

    Responsibilities: consult the reply cache before touching the chat
    backend, retry transient transport failures with exponential backoff,
    run independent work units ``max_in_flight`` at a time (:meth:`map`),
    and count traffic.
    """

    def __init__(self, chat_backend: ChatBackend, embedder: Embedder | None = None, *,
                 cache_dir: str | None = None, retry: RetryPolicy | None = None,
                 max_in_flight: int = DEFAULTS["max_in_flight"], sleep=time.sleep):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.chat_backend = chat_backend
        self.embedder = embedder if embedder is not None else HashingEmbedder()
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_in_flight = max_in_flight
        self.stats = GatewayStats()
        self._cache = _ReplyCache(cache_dir)
        self._slots = threading.Semaphore(max_in_flight)
        self._lock = threading.Lock()  # guards stats and _claims
        self._claims: dict[str, list] = {}
        self._sleep = sleep
        # A cache shared between endpoints must not replay one endpoint's reply for another.
        self._endpoint = getattr(chat_backend, "base_url", None)

    def chat(self, exchange: ChatExchange) -> str:
        key = exchange_key(exchange)
        if self._endpoint is not None:
            key = hashlib.sha256(
                f"{REPLY_CACHE_FORMAT}\n{self._endpoint}\n{key}".encode("utf-8")).hexdigest()
        with self._claim(key):
            cached = self._cache.get(key)
            if cached is not None:
                with self._lock:
                    self.stats.cache_hits += 1
                return cached
            reply = self._complete_with_retry(exchange)
            self._cache.put(key, reply)
            return reply

    @contextlib.contextmanager
    def _claim(self, key: str) -> Iterator[None]:
        # One request per key at a time: a concurrent duplicate waits for the
        # first reply and reads it from the cache, as it would in a
        # sequential run, so live calls and cached replies do not depend on
        # scheduling.
        with self._lock:
            claim = self._claims.setdefault(key, [threading.Lock(), 0])
            claim[1] += 1
        try:
            with claim[0]:
                yield
        finally:
            with self._lock:
                claim[1] -= 1
                if claim[1] == 0:
                    del self._claims[key]

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``[fn(x) for x in items]``, running up to ``max_in_flight`` at once.

        Items run on the calling thread for as long as the reply cache
        answers them, so a warm rerun starts no threads. From the first item
        that makes a live chat call, the rest go to a thread pool, or stay
        on the calling thread if the backend is not ``parallel_safe``.
        Results keep input order; the first exception raised by ``fn``, in
        input order, propagates.
        """
        items = list(items)
        width = self.max_in_flight if self.chat_backend.parallel_safe else 1
        results: list[R] = []
        for item in items:
            calls = self.stats.chat_calls
            results.append(fn(item))
            if width > 1 and self.stats.chat_calls != calls:
                break
        rest = items[len(results):]
        if rest:
            with ThreadPoolExecutor(min(width, len(rest))) as pool:
                results.extend(pool.map(fn, rest))
        return results

    def _complete_with_retry(self, exchange: ChatExchange) -> str:
        last_error: TransportError | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt > 0:
                with self._lock:
                    self.stats.retries += 1
                self._sleep(self.retry.backoff_base * 2 ** (attempt - 1))
            with self._slots:
                with self._lock:
                    self.stats.chat_calls += 1
                try:
                    return self.chat_backend.complete(exchange)
                except TransportError as exc:
                    last_error = exc
        assert last_error is not None
        raise last_error

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            return []
        return self.embedder.embed_batch(texts)
