"""Knowledge-base snapshot index: CUI-scoped chunk retrieval.

A KB snapshot is a JSONL file of short concept articles, each tied to a
CUI. Articles are chunked with token-window overlap, chunks are embedded,
and everything is kept in a two-layer index: concept (CUI) to article, and
article to chunks, the chunks held as columns (vectors, character spans,
row ranges) rather than objects. At query time retrieval is scoped to the
CUIs of the two entities in question, so snippets about unrelated concepts
never make it into the prompt; chunks rank by cosine similarity, ties by (doc
id, chunk number), the index's row order. Articles can also be reached by
exact title match as a fallback for entities without a CUI.
"""

from __future__ import annotations

import base64
import bisect
import functools
import hashlib
import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULTS
from .files import jsonl_lines, parse_jsonl
from .llm import Embedder
from .model import CUI_PATTERN, Entity

# The 29 code points for which ``str.isspace()`` holds: the whitespace of ``str.split()``
# and of ``\s`` in a ``str`` regex.
_WHITESPACE = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0, 0x1680,
               *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
# one entry per code point up to the last whitespace one, then one for all above it
_IS_SPACE = np.zeros(max(_WHITESPACE) + 2, dtype=bool)
_IS_SPACE[list(_WHITESPACE)] = True

EMBED_BATCH_SIZE = 256
CHUNK_GROUP_SIZE = 256  # articles encoded at once: amortizes numpy calls, bounds the UTF-32 copy
SHORTLIST_MARGIN = 1e-9
INDEX_FORMAT = 7
ARTICLE_FIELDS = ("cui", "source", "title", "text")


@dataclass(frozen=True)
class KbDocument:
    """One KB article about a single concept."""

    cui: str
    source: str
    title: str
    text: str

    def __post_init__(self) -> None:
        for name in ARTICLE_FIELDS:  # not vars(self), which gives each article a __dict__
            value = getattr(self, name)
            if type(value) is not str:
                raise TypeError(f"KB document field {name!r} is not a string: {value!r}")
            if not value.strip():
                raise ValueError(f"KB document field {name!r} is empty")
            if not value.isascii():  # a lone surrogate, which no index file can hold
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ValueError(f"KB document field {name!r} is not UTF-8: {exc.reason}")
        if not CUI_PATTERN.fullmatch(self.cui):
            raise ValueError(f"bad CUI: {self.cui!r}")

    @property
    def doc_id(self) -> str:
        return f"{self.cui}|{self.source}|{self.title}"


def load_kb(text: str) -> tuple[KbDocument, ...]:
    """Parse a KB snapshot JSONL string; duplicate articles are an error."""
    docs: dict[str, KbDocument] = {}
    for line_no, doc in parse_jsonl(jsonl_lines(text), "KB", lambda row: KbDocument(
            row["cui"], row["source"], row["title"], row["text"])):
        doc_id = doc.doc_id
        if doc_id in docs:
            raise ValueError(f"line {line_no}: duplicate KB article {doc_id!r}")
        docs[doc_id] = doc
    return tuple(docs.values())


@dataclass(frozen=True)
class ChunkParams:
    size: int = DEFAULTS["chunk_size"]
    overlap: int = DEFAULTS["chunk_overlap"]
    min_tail: int = DEFAULTS["chunk_min_tail"]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("chunk size must be >= 1")
        if not 0 <= self.overlap < self.size:
            raise ValueError("overlap must satisfy 0 <= overlap < size")
        if self.min_tail < 1:
            raise ValueError("min_tail must be >= 1")


def _windows(first: int, end: int, params: ChunkParams) -> list[tuple[int, int]]:
    """``[first, last + 1)`` token ranges of the windows over tokens ``first:end``."""
    if first == end:
        return []
    # the first window, then one per stride while the previous one ends before token end
    starts = range(first, max(end - params.overlap, first + 1), params.size - params.overlap)
    windows = [(s, min(s + params.size, end)) for s in starts]
    if len(windows) >= 2 and windows[-1][1] - windows[-1][0] < params.min_tail:
        windows[-2:] = [(windows[-2][0], windows[-1][1])]
    return windows


def chunk_spans(texts: Sequence[str],
                params: ChunkParams | None = None) -> list[list[tuple[int, int]]]:
    """Per text, the ``(start, end)`` code-point offsets of its windows of whitespace
    tokens, from a window's first token to its last; windows advance by ``size -
    overlap`` tokens, and a final window shorter than ``min_tail`` tokens joins the one
    before. Whitespace is what ``str.isspace`` (and so ``str.split``) says it is."""
    params = params if params is not None else ChunkParams()
    per_text: list[list[tuple[int, int]]] = []
    for at in range(0, len(texts), CHUNK_GROUP_SIZE):
        group = texts[at:at + CHUNK_GROUP_SIZE]
        # "\n" keeps the texts apart; UTF-32 gives one code per str index
        codes = np.frombuffer("\n".join(group).encode("utf-32-le", "surrogatepass"), "<u4")
        space = _IS_SPACE.take(codes, mode="clip")  # codes past the table read its last entry
        # with whitespace on either side, the changes alternate: token start, token end
        edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
        token_starts, token_ends = edges[0::2], edges[1::2]
        lengths = np.fromiter(map(len, group), np.int64, len(group)) + 1  # with its "\n"
        bases = np.cumsum(lengths) - lengths  # where each text starts in the join
        firsts = np.searchsorted(token_starts, bases).tolist() + [len(token_starts)]
        windows = [_windows(first, end, params) for first, end in zip(firsts, firsts[1:])]
        counts = [len(w) for w in windows]
        bounds = np.array([window for w in windows for window in w], np.int64).reshape(-1, 2)
        shift = np.repeat(bases, counts)
        spans = zip((token_starts[bounds[:, 0]] - shift).tolist(),
                    (token_ends[bounds[:, 1] - 1] - shift).tolist())
        per_text += [list(itertools.islice(spans, n)) for n in counts]
    return per_text


Chunk = namedtuple("Chunk", "chunk_id doc_id cui source title text vector")


@dataclass
class CuiIndex:
    """Two-layer retrieval index: CUI to articles, article to chunks, as columns.

    ``documents`` is in doc-id order, its keys listed in ``doc_ids``. Article j owns
    rows ``offsets[j]:offsets[j + 1]``, one per chunk in chunk order. Row i has vector
    ``matrix[i]`` (``norms[i]`` is finite and not 0) and text ``spans[i]``, ``[start,
    end)`` offsets into its article's text. ``embedder`` is the identity of the embedder
    that built the vectors.
    """

    dimension: int
    embedder: dict
    params: ChunkParams
    documents: dict[str, KbDocument]
    by_cui: dict[str, tuple[str, ...]]
    by_title: dict[str, tuple[str, ...]]
    fingerprint: str
    doc_ids: tuple[str, ...] = field(repr=False, compare=False)
    matrix: np.ndarray = field(repr=False, compare=False)
    norms: np.ndarray = field(repr=False, compare=False)
    spans: np.ndarray = field(repr=False, compare=False)
    offsets: tuple[int, ...] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.matrix)

    def chunk(self, row: int) -> tuple[str, str, str, str, str, str]:
        """``(chunk id, doc id, cui, source, title, chunk text)`` of a row."""
        article = bisect.bisect_right(self.offsets, row) - 1
        doc_id = self.doc_ids[article]
        doc = self.documents[doc_id]
        start, end = self.spans[row].tolist()
        return (f"{doc_id}#{row - self.offsets[article]:04d}", doc_id, doc.cui,
                doc.source, doc.title, doc.text[start:end])

    @functools.cached_property
    def chunks(self) -> dict[str, Chunk]:
        """Chunk id to ``Chunk``, its ``vector`` a view of its row: a per-chunk view for
        code outside this package. It costs an object per chunk, so retrieval never reads it."""
        chunks = (Chunk(*self.chunk(row), self.matrix[row]) for row in range(len(self)))
        return {chunk.chunk_id: chunk for chunk in chunks}


def _assemble(embedder: dict, params: ChunkParams, documents: dict[str, KbDocument],
              matrix: np.ndarray, spans: np.ndarray | list, counts: list[int]) -> CuiIndex:
    """The index whose article j (of ``documents``) owns the next ``counts[j]`` rows of
    ``matrix`` and ``spans``; a zero or non-finite vector is a ``ValueError``."""
    spans = np.asarray(spans, np.int64).reshape(-1, 2)
    offsets = (0, *itertools.accumulate(counts))
    digest = hashlib.sha256(json.dumps([matrix.shape, len(offsets), vars(params), embedder],
                                       sort_keys=True).encode())
    for column, dtype in ((matrix, "<f8"), (spans, "<i8"), (offsets, "<i8")):
        digest.update(np.ascontiguousarray(column, dtype))
    # length-prefixed fields: an unambiguous encoding
    digest.update("".join(f"{len(doc.cui)}:{doc.cui}{len(doc.source)}:{doc.source}"
                          f"{len(doc.title)}:{doc.title}{len(doc.text)}:{doc.text}"
                          for doc in documents.values()).encode("utf-8"))
    by_cui: dict[str, list[str]] = {}
    by_title: dict[str, list[str]] = {}
    for doc_id, doc in documents.items():  # in doc-id order
        by_cui.setdefault(doc.cui, []).append(doc_id)
        by_title.setdefault(doc.title.casefold(), []).append(doc_id)
    norms = np.linalg.norm(matrix, axis=1)
    index = CuiIndex(
        matrix.shape[1], embedder, params, documents,
        by_cui={k: tuple(v) for k, v in sorted(by_cui.items())},
        by_title={k: tuple(v) for k, v in sorted(by_title.items())},
        fingerprint=digest.hexdigest(), doc_ids=tuple(documents), matrix=matrix, norms=norms,
        spans=spans, offsets=offsets)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if len(bad):
        raise ValueError(f"chunk {index.chunk(bad[0])[0]!r} has a zero or non-finite vector")
    return index


def build_index(docs: Sequence[KbDocument], embedder: Embedder, *,
                params: ChunkParams | None = None) -> CuiIndex:
    """Chunk and embed KB articles into a fresh index.

    The index records ``embedder.identity``. ``embedder.embed_batch`` receives chunk
    texts in article order, at most ``EMBED_BATCH_SIZE`` per call, so the result is
    reproducible for an embedder.
    """
    params = params if params is not None else ChunkParams()
    documents = dict(sorted(((d.doc_id, d) for d in docs), key=lambda item: item[0]))
    if len(documents) != len(docs):
        raise ValueError("duplicate KB article ids")
    per_article = chunk_spans([doc.text for doc in documents.values()], params)
    texts = [doc.text[start:end] for doc, spans in zip(documents.values(), per_article)
             for start, end in spans]
    if not texts:
        raise ValueError("KB snapshot produced no chunks")
    matrix = None
    for start in range(0, len(texts), EMBED_BATCH_SIZE):
        vectors = embedder.embed_batch(texts[start:start + EMBED_BATCH_SIZE])
        if matrix is None:
            matrix = np.empty((len(texts), len(vectors[0])))
        # raises ValueError unless the batch has one vector of the right length per text
        np.stack(vectors, out=matrix[start:start + EMBED_BATCH_SIZE])
    return _assemble(embedder.identity, params, documents, matrix,
                     [span for spans in per_article for span in spans],
                     [len(spans) for spans in per_article])


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # ``np.linalg.norm`` of a vector, without its per-call overhead
    norm_a = math.sqrt(a.dot(a))
    norm_b = math.sqrt(b.dot(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for zero vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


@dataclass(frozen=True)
class RetrievedSnippet:
    chunk_id: str
    doc_id: str
    cui: str
    source: str
    title: str
    text: str
    score: float


def candidate_chunk_ids(index: CuiIndex, head: Entity, tail: Entity, *,
                        cui_scoped: bool = True) -> Sequence[int]:
    """Rows of the chunks eligible for a pair query, ascending: those of the
    articles in scope, or every row when unscoped."""
    if not cui_scoped:
        return range(len(index))
    doc_ids = {doc_id for e in (head, tail) for doc_id in (
        index.by_cui.get(e.cui, ()) if e.cui is not None
        else index.by_title.get(e.canonical_name.casefold(), ()))}
    # ``doc_ids`` is sorted: build_index sorts the articles and load_index checks their order
    articles = sorted(bisect.bisect_left(index.doc_ids, doc_id) for doc_id in doc_ids)
    return [row for j in articles for row in range(index.offsets[j], index.offsets[j + 1])]


def retrieve(index: CuiIndex, query_vec: np.ndarray, head: Entity, tail: Entity,
             *, k: int = DEFAULTS["k"], cui_scoped: bool = True) -> list[RetrievedSnippet]:
    """:func:`retrieve_batch` of one query."""
    return retrieve_batch(index, [query_vec], [(head, tail)], k=k, cui_scoped=cui_scoped)[0]


def retrieve_batch(index: CuiIndex, query_vecs: Sequence[np.ndarray],
                   pairs: Sequence[tuple[Entity, Entity]], *, k: int = DEFAULTS["k"],
                   cui_scoped: bool = True) -> list[list[RetrievedSnippet]]:
    """Per query, the chunks eligible for its ``(head, tail)`` pair ranked by cosine
    similarity, ties by (doc id, chunk number), the index's row order; an empty scope
    yields an empty list. Scoped queries are scored by one einsum pass each, unscoped ones
    by one matrix product per ``index.dimension`` queries, a block no larger than the
    matrix. Only rows within ``SHORTLIST_MARGIN`` of a query's k-th best, a margin far above
    the rounding gap, are rescored with ``cosine``, as a scan would."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for query_vec in query_vecs:
        if query_vec.shape != (index.dimension,):
            raise ValueError(f"dimension mismatch: {query_vec.shape} vs {(index.dimension,)}")
    queries = np.array(query_vecs, float).reshape(len(query_vecs), index.dimension)
    query_norms = np.linalg.norm(queries, axis=1)
    if not query_norms.all():
        raise ValueError("cosine undefined for zero vector")
    ranked = []
    for i, (query, (head, tail)) in enumerate(zip(queries, pairs, strict=True)):
        if not cui_scoped and i % index.dimension == 0:  # cosine times the query norm
            block = queries[i:i + index.dimension] @ index.matrix.T / index.norms
        rows = candidate_chunk_ids(index, head, tail, cui_scoped=cui_scoped)
        if len(rows) > k:
            approx = (block[i % index.dimension] if not cui_scoped else
                      np.einsum("ij,j->i", index.matrix[rows], query) / index.norms[rows])
            kth = np.partition(approx, -k)[-k]
            kept = np.flatnonzero(approx >= kth - SHORTLIST_MARGIN * query_norms[i])
            rows = [rows[j] for j in kept]
        best = sorted((-cosine(query, index.matrix[row]), row) for row in rows)[:k]
        ranked.append([RetrievedSnippet(*index.chunk(row), -neg) for neg, row in best])
    return ranked


def save_index(index: CuiIndex) -> str:
    """Serialize an index to a JSONL string: a header, then per ``CHUNK_GROUP_SIZE`` articles
    in doc-id order a ``columns`` record of their ``ARTICLE_FIELDS``, a list each, and their
    chunk ``counts``, ``spans`` and ``vectors``, each a base64 block of ``<i8``/``<f8``."""
    def b64(column: np.ndarray, dtype: str) -> str:
        return base64.b64encode(np.ascontiguousarray(column, dtype)).decode("ascii")

    counts = np.diff(index.offsets)
    lines = [json.dumps({
        "kind": "header", "format": INDEX_FORMAT, "dimension": index.dimension,
        "embedder": index.embedder, "articles": len(counts), "chunks": len(index),
        "params": vars(index.params), "fingerprint": index.fingerprint}, sort_keys=True)]
    docs = list(index.documents.values())
    for at in range(0, len(counts), CHUNK_GROUP_SIZE):
        group = docs[at:at + CHUNK_GROUP_SIZE]
        rows = slice(index.offsets[at], index.offsets[at + len(group)])
        lines.append(json.dumps({
            "kind": "columns", **{name: [getattr(doc, name) for doc in group]
                                  for name in ARTICLE_FIELDS},
            "counts": b64(counts[at:at + CHUNK_GROUP_SIZE], "<i8"),
            "spans": b64(index.spans[rows], "<i8"), "vectors": b64(index.matrix[rows], "<f8"),
        }, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def _read_header(header: object, line_no: int,
                 text_length: int) -> tuple[dict, ChunkParams, int, int, int, str]:
    """``(embedder, params, article count, chunk count, dimension, fingerprint)`` of a
    header; the chunk count sizes the matrix, so ``text_length`` characters must hold it."""
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError("index file must start with a header record")
    if header.get("format") != INDEX_FORMAT:
        raise ValueError(f"index format {header.get('format')!r} is not {INDEX_FORMAT}; "
                         "rebuild it with `adrcm index`")
    try:
        params = ChunkParams(**header["params"])
        dimension, embedder, fingerprint = (
            header["dimension"], header["embedder"], header["fingerprint"])
        if type(dimension) is not int or dimension < 1:
            raise ValueError(f"dimension {dimension!r} is not a positive int")
        if not isinstance(embedder, dict) or type(fingerprint) is not str:
            raise ValueError("embedder must be an object and fingerprint a string")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"line {line_no}: bad index header: {exc}") from None
    articles, count = header.get("articles"), header.get("chunks")
    if not (type(articles) is int and articles >= 0 and type(count) is int
            and 0 <= count <= text_length // (8 * dimension)):
        raise ValueError("index header has no valid article and chunk counts; "
                         "rebuild it with `adrcm index`")
    return embedder, params, articles, count, dimension, fingerprint


def _read_columns(record: dict, size: int, matrix: np.ndarray,
                  spans: np.ndarray) -> tuple[list[KbDocument], list[int]]:
    """The ``size`` articles of ``record`` and their chunk counts; their chunks are copied
    into ``matrix`` and ``spans``."""
    def unpack(name: str, dtype: str, *shape: int) -> np.ndarray:  # base64 of 8-byte numbers
        try:
            raw = base64.b64decode(record[name], validate=True)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} are not base64: {exc}") from None
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"expected {' x '.join(map(str, shape))} {name}, "
                             f"got {len(raw)} bytes")
        return np.frombuffer(raw, dtype).reshape(shape)

    if (record.keys() != {"kind", *ARTICLE_FIELDS, "counts", "spans", "vectors"}
            or record["kind"] != "columns"):
        raise ValueError(f"fields {sorted(record)} are not those of a columns record")
    for name in ARTICLE_FIELDS:
        if type(record[name]) is not list or len(record[name]) != size:
            raise ValueError(f"{name} is not a list of {size} article fields")
    docs = list(map(KbDocument, *(record[name] for name in ARTICLE_FIELDS)))
    counts = unpack("counts", "<i8", size).tolist()
    n = sum(counts)
    if min(counts) < 0 or n > len(matrix):
        raise ValueError("chunk counts are negative or more than the header's chunks")
    group = unpack("spans", "<i8", n, 2)
    ends = np.repeat([len(doc.text) for doc in docs], counts)
    bad = np.flatnonzero((group[:, 0] < 0) | (group[:, 0] >= group[:, 1]) | (group[:, 1] > ends))
    if len(bad):
        doc = docs[bisect.bisect(list(itertools.accumulate(counts)), bad[0])]
        raise ValueError(f"span {group[bad[0]].tolist()} of article {doc.doc_id!r} is not "
                         f"[start, end] with 0 <= start < end <= {len(doc.text)}")
    spans[:n], matrix[:n] = group, unpack("vectors", "<f8", n, matrix.shape[1])
    return docs, counts


def load_index(text: str) -> CuiIndex:
    """Parse a ``save_index`` string; any inconsistency is a ``ValueError``."""
    lines = jsonl_lines(text)
    line_no, header = next(parse_jsonl(lines, "index", lambda row: row), (0, None))
    if header is None:
        raise ValueError("empty index file")
    embedder, params, articles, count, dimension, fingerprint = _read_header(
        header, line_no, len(text))
    documents: dict[str, KbDocument] = {}
    matrix, spans = np.empty((count, dimension)), np.empty((count, 2), np.int64)
    counts: list[int] = []
    for at, (line_no, line) in zip(range(0, articles, CHUNK_GROUP_SIZE), lines):
        try:
            docs, group = _read_columns(json.loads(line), min(CHUNK_GROUP_SIZE, articles - at),
                                        matrix[sum(counts):], spans[sum(counts):])
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"line {line_no}: bad columns record: {exc}") from None
        for doc in docs:
            doc_id = doc.doc_id
            if documents and doc_id <= last:
                raise ValueError(f"line {line_no}: article {doc_id!r} repeats or is out of order")
            documents[doc_id], last = doc, doc_id
        counts += group
    for line_no, _ in lines:
        raise ValueError(f"line {line_no}: record after the last columns record")
    if (len(counts), sum(counts)) != (articles, count):
        raise ValueError(f"index has {len(counts)} articles with chunks and {sum(counts)} "
                         f"chunks, its header says {articles} and {count}")
    index = _assemble(embedder, params, documents, matrix, spans, counts)
    if index.fingerprint != fingerprint:
        raise ValueError("index fingerprint does not match its contents")
    return index
