"""Knowledge-base snapshot index: CUI-scoped chunk retrieval.

A KB snapshot is a JSONL file of short concept articles, each tied to a
CUI. Articles are chunked with token-window overlap, chunks are embedded,
and everything is kept in a two-layer index: concept (CUI) to article, and
article to chunks. At query time retrieval is scoped to the CUIs of the
two entities in question, so snippets about unrelated concepts never make
it into the prompt. Articles can also be reached by exact title match as
a fallback for entities without a CUI.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .files import parse_jsonl
from .model import CUI_PATTERN, Entity

_TOKEN = re.compile(r"\S+")

DEFAULT_CHUNK_SIZE = 256
DEFAULT_CHUNK_OVERLAP = 32
MIN_TAIL_TOKENS = 16
EMBED_BATCH_SIZE = 256
SHORTLIST_MARGIN = 1e-9
INDEX_FORMAT = 4


@dataclass(frozen=True)
class KbDocument:
    """One KB article about a single concept."""

    cui: str
    source: str
    title: str
    text: str

    def __post_init__(self) -> None:
        if not CUI_PATTERN.fullmatch(self.cui):
            raise ValueError(f"bad CUI: {self.cui!r}")
        for name in ("source", "title", "text"):
            if not getattr(self, name).strip():
                raise ValueError(f"KB document field {name!r} is empty")

    @property
    def doc_id(self) -> str:
        return f"{self.cui}|{self.source}|{self.title}"


def load_kb(text: str) -> tuple[KbDocument, ...]:
    """Parse a KB snapshot JSONL string; duplicate articles are an error."""
    docs: list[KbDocument] = []
    seen: set[str] = set()
    for line_no, doc in parse_jsonl(text, "KB", lambda row: KbDocument(
            row["cui"], row["source"], row["title"], row["text"])):
        if doc.doc_id in seen:
            raise ValueError(f"line {line_no}: duplicate KB article {doc.doc_id!r}")
        seen.add(doc.doc_id)
        docs.append(doc)
    return tuple(docs)


@dataclass(frozen=True)
class ChunkParams:
    size: int = DEFAULT_CHUNK_SIZE
    overlap: int = DEFAULT_CHUNK_OVERLAP
    min_tail: int = MIN_TAIL_TOKENS

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("chunk size must be >= 1")
        if not 0 <= self.overlap < self.size:
            raise ValueError("overlap must satisfy 0 <= overlap < size")
        if self.min_tail < 1:
            raise ValueError("min_tail must be >= 1")


def chunk_text(text: str, params: ChunkParams | None = None) -> list[str]:
    """Split text into overlapping windows of whitespace tokens.

    Windows advance by ``size - overlap`` tokens. A final window shorter
    than ``min_tail`` tokens is merged into the previous one instead of
    standing alone. Each chunk is the original substring from its first
    to its last token, so no characters are invented or lost inside it.
    """
    params = params if params is not None else ChunkParams()
    spans = [m.span() for m in _TOKEN.finditer(text)]
    if not spans:
        return []
    n = len(spans)
    stride = params.size - params.overlap
    starts = [0]
    while starts[-1] + params.size < n:
        starts.append(starts[-1] + stride)
    windows = [(s, min(s + params.size, n)) for s in starts]
    if len(windows) >= 2 and windows[-1][1] - windows[-1][0] < params.min_tail:
        last = windows.pop()
        prev = windows.pop()
        windows.append((prev[0], last[1]))
    return [text[spans[s][0]:spans[e - 1][1]] for s, e in windows]


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    cui: str
    source: str
    title: str
    text: str
    vector: np.ndarray = field(repr=False, compare=False)


@dataclass
class CuiIndex:
    """Two-layer retrieval index: CUI to articles, article to chunks.

    ``chunks`` and ``chunk_ids`` are in article order (the order of ``documents``, then
    chunk number), so an article's chunks fill consecutive rows; row i of ``matrix``
    (norm ``norms[i]``) is the vector of ``chunk_ids[i]``, and ``Chunk.vector`` a view of it.
    ``embedder`` is the identity of the embedder that built the vectors.
    """

    dimension: int
    embedder: dict
    params: ChunkParams
    documents: dict[str, KbDocument]
    chunks: dict[str, Chunk]
    doc_chunks: dict[str, tuple[str, ...]]
    by_cui: dict[str, tuple[str, ...]]
    by_title: dict[str, tuple[str, ...]]
    fingerprint: str
    chunk_ids: tuple[str, ...] = field(repr=False)
    matrix: np.ndarray = field(repr=False, compare=False)
    norms: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.chunks)


def _chunk_rows(doc_id: str, pieces: Sequence[str]) -> list[tuple[str, str, str]]:
    """``(chunk_id, doc_id, text)`` of one article's chunk texts, in chunk order."""
    return [(f"{doc_id}#{i:04d}", doc_id, piece) for i, piece in enumerate(pieces)]


def _assemble(embedder: dict, params: ChunkParams, documents: dict[str, KbDocument],
              rows: Sequence[tuple[str, str, str]], matrix: np.ndarray) -> CuiIndex:
    """Build the lookup maps over the ``_chunk_rows`` of every article of
    ``documents`` in turn, row i of ``matrix`` being the vector of ``rows[i]``. The
    fingerprint covers the chunk parameters, ``embedder``, the vector bytes, the
    articles in order and the rows."""
    dimension = matrix.shape[1]
    digest = hashlib.sha256()
    digest.update(f"{dimension}|{params.size}|{params.overlap}|{params.min_tail}".encode())
    digest.update(json.dumps(embedder, sort_keys=True).encode())
    digest.update(matrix.astype("<f8").tobytes())
    for doc in documents.values():  # length-prefixed fields: an unambiguous encoding
        digest.update(f"{len(doc.cui)}:{doc.cui}{len(doc.source)}:{doc.source}"
                      f"{len(doc.title)}:{doc.title}{len(doc.text)}:{doc.text}".encode("utf-8"))
    chunks: dict[str, Chunk] = {}
    doc_chunks: dict[str, list[str]] = {d: [] for d in documents}
    for (chunk_id, doc_id, text), vec in zip(rows, matrix):
        doc = documents[doc_id]
        chunks[chunk_id] = Chunk(chunk_id, doc_id, doc.cui, doc.source, doc.title, text, vec)
        doc_chunks[doc_id].append(chunk_id)
        digest.update((chunk_id + text).encode("utf-8"))
    by_cui: dict[str, list[str]] = {}
    by_title: dict[str, list[str]] = {}
    for doc_id, doc in sorted(documents.items()):
        by_cui.setdefault(doc.cui, []).append(doc_id)
        by_title.setdefault(doc.title.casefold(), []).append(doc_id)
    return CuiIndex(
        dimension, embedder, params, documents, chunks,
        doc_chunks={k: tuple(v) for k, v in doc_chunks.items()},
        by_cui={k: tuple(v) for k, v in sorted(by_cui.items())},
        by_title={k: tuple(v) for k, v in sorted(by_title.items())},
        fingerprint=digest.hexdigest(), chunk_ids=tuple(chunks),
        matrix=matrix, norms=np.linalg.norm(matrix, axis=1))


def build_index(docs: Sequence[KbDocument], gateway, *,
                params: ChunkParams | None = None) -> CuiIndex:
    """Chunk and embed KB articles into a fresh index.

    ``gateway`` only needs an ``embed_batch`` method and an ``identity``,
    which the index records. ``embed_batch`` receives chunk
    texts in article order, at most ``EMBED_BATCH_SIZE`` per call, so the
    result is reproducible for a given embedder.
    """
    params = params if params is not None else ChunkParams()
    documents = {d.doc_id: d for d in sorted(docs, key=lambda d: d.doc_id)}
    if len(documents) != len(docs):
        raise ValueError("duplicate KB article ids")
    rows = [row for doc_id, doc in documents.items()
            for row in _chunk_rows(doc_id, chunk_text(doc.text, params))]
    if not rows:
        raise ValueError("KB snapshot produced no chunks")
    matrix = None
    for start in range(0, len(rows), EMBED_BATCH_SIZE):
        vectors = gateway.embed_batch([t for _, _, t in rows[start:start + EMBED_BATCH_SIZE]])
        if matrix is None:
            matrix = np.empty((len(rows), len(vectors[0])))
        # raises ValueError unless the batch has one vector of the right length per text
        np.stack(vectors, out=matrix[start:start + EMBED_BATCH_SIZE])
    return _assemble(gateway.identity, params, documents, rows, matrix)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
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


def _scope_doc_ids(index: CuiIndex, entity: Entity) -> list[str]:
    if entity.cui is not None:
        return list(index.by_cui.get(entity.cui, ()))
    return list(index.by_title.get(entity.canonical_name.casefold(), ()))


def candidate_chunk_ids(index: CuiIndex, head: Entity, tail: Entity, *,
                        cui_scoped: bool = True) -> Sequence[str]:
    """Chunk ids eligible for a pair query: sorted when scoped, else in row order."""
    if not cui_scoped:
        return index.chunk_ids
    doc_ids = set(_scope_doc_ids(index, head)) | set(_scope_doc_ids(index, tail))
    return sorted(c for doc_id in doc_ids for c in index.doc_chunks[doc_id])


def _shortlist(index: CuiIndex, chunk_ids: Sequence[str], query_vec: np.ndarray,
               k: int) -> list[str]:
    """Ids of the rows that can reach the top ``k`` of a whole-index scan.

    ``chunk_ids`` names the matrix rows in order. One pass scores every row;
    rows within ``SHORTLIST_MARGIN`` of the k-th best are kept for exact
    rescoring, a margin far above the rounding gap between the two, so ties
    resolve exactly as in a per-chunk ``cosine`` scan. The einsum stays off
    BLAS, whose gemv wakes a second thread that spins on the CPU.
    """
    if query_vec.shape != (index.dimension,):
        raise ValueError(f"dimension mismatch: {query_vec.shape} vs {(index.dimension,)}")
    query_norm = float(np.linalg.norm(query_vec))
    if query_norm == 0.0 or not index.norms.all():
        raise ValueError("cosine undefined for zero vector")
    approx = np.einsum("ij,j->i", index.matrix, query_vec) / (index.norms * query_norm)
    kth = np.partition(approx, -k)[-k] if k <= len(approx) else -np.inf
    return [chunk_ids[i] for i in np.flatnonzero(approx >= kth - SHORTLIST_MARGIN)]


def retrieve(index: CuiIndex, query_vec: np.ndarray, head: Entity, tail: Entity,
             *, k: int = 5, cui_scoped: bool = True) -> list[RetrievedSnippet]:
    """Rank eligible chunks by cosine similarity to the query vector.

    Ties are broken by chunk id so results are stable. An empty scope
    (no article for either entity) yields an empty list rather than
    falling back to the whole index. Unscoped, only a ``_shortlist`` is ranked.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    chunk_ids = candidate_chunk_ids(index, head, tail, cui_scoped=cui_scoped)
    if not cui_scoped:
        chunk_ids = _shortlist(index, chunk_ids, query_vec, k)
    chunks = [index.chunks[chunk_id] for chunk_id in chunk_ids]
    ranked = sorted((-cosine(query_vec, c.vector), c.chunk_id, c) for c in chunks)
    return [RetrievedSnippet(c.chunk_id, c.doc_id, c.cui, c.source, c.title, c.text, -neg)
            for neg, _, c in ranked[:k]]


def save_index(index: CuiIndex) -> str:
    """Serialize an index to a single JSONL string: a header, then one record per
    article, holding its chunks as ``spans`` of character offsets into its text
    and their ``vectors`` as one base64 block of little-endian float64 bytes."""
    lines = [json.dumps({
        "kind": "header", "format": INDEX_FORMAT, "dimension": index.dimension,
        "embedder": index.embedder, "chunks": len(index.chunks),
        "params": vars(index.params),
        "fingerprint": index.fingerprint,
    }, sort_keys=True)]
    for doc_id, doc in sorted(index.documents.items()):
        chunks = [index.chunks[chunk_id] for chunk_id in index.doc_chunks[doc_id]]
        spans: list[list[int]] = []
        start = 0
        for chunk in chunks:
            # chunks start in text order, and a passage may repeat within an article
            start = doc.text.index(chunk.text, start)
            spans.append([start, start + len(chunk.text)])
        block = b"".join(chunk.vector.astype("<f8").tobytes() for chunk in chunks)
        lines.append(json.dumps({**vars(doc), "spans": spans,
                                 "vectors": base64.b64encode(block).decode("ascii")},
                                sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def _read_header(header: object, line_no: int,
                 text_length: int) -> tuple[dict, ChunkParams, int, int, str]:
    """``(embedder, params, chunk count, dimension, fingerprint)`` of an index header.
    The count sizes the vector matrix, so ``text_length`` characters must hold it."""
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
    count = header.get("chunks")
    if type(count) is not int or not 0 <= count <= text_length // (8 * dimension):
        raise ValueError("index header has no valid chunk count; rebuild it with `adrcm index`")
    return embedder, params, count, dimension, fingerprint


def _read_article(row: dict, dimension: int) -> tuple[KbDocument, list[str], np.ndarray]:
    """``(article, chunk texts, vectors)`` of an article record. A malformed record
    raises ``ValueError``, ``KeyError``, ``TypeError`` or ``AttributeError``."""
    spans, vectors = row.pop("spans"), row.pop("vectors")
    doc = KbDocument(**row)
    if type(spans) is not list or not all(
            type(span) is list and len(span) == 2 and all(type(x) is int for x in span)
            and 0 <= span[0] < span[1] <= len(doc.text) for span in spans):
        raise ValueError(f"spans {spans!r} are not [start, end] pairs "
                         f"with 0 <= start < end <= {len(doc.text)}")
    try:
        raw = base64.b64decode(vectors, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"vectors are not base64: {exc}") from None
    if len(raw) != 8 * dimension * len(spans):
        raise ValueError(f"expected {len(spans)} {dimension}-dim vectors, got {len(raw)} bytes")
    return (doc, [doc.text[start:end] for start, end in spans],
            np.frombuffer(raw, dtype="<f8").reshape(len(spans), dimension))


def load_index(text: str) -> CuiIndex:
    """Parse a ``save_index`` string; any inconsistency is a ``ValueError``."""
    records = parse_jsonl(text, "index", lambda row: row)
    line_no, header = next(records, (0, None))
    if header is None:
        raise ValueError("empty index file")
    embedder, params, count, dimension, fingerprint = _read_header(header, line_no, len(text))
    documents: dict[str, KbDocument] = {}
    rows: list[tuple[str, str, str]] = []
    matrix = np.empty((count, dimension))
    for line_no, row in records:
        try:
            doc, pieces, vectors = _read_article(row, dimension)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {line_no}: bad article record: {exc}") from None
        if doc.doc_id in documents:
            raise ValueError(f"line {line_no}: duplicate article {doc.doc_id!r}")
        if len(rows) + len(pieces) > count:
            raise ValueError(f"line {line_no}: more chunks than the header's {count}")
        matrix[len(rows):len(rows) + len(pieces)] = vectors
        documents[doc.doc_id] = doc
        rows += _chunk_rows(doc.doc_id, pieces)
    if len(rows) != count:
        raise ValueError(f"index has {len(rows)} chunks, its header says {count}")
    index = _assemble(embedder, params, documents, rows, matrix)
    if index.fingerprint != fingerprint:
        raise ValueError("index fingerprint does not match its contents")
    return index
