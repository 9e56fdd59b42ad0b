import base64
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from adrcm import kb
from adrcm.files import dump_jsonl
from adrcm.kb import (
    ChunkParams,
    KbDocument,
    build_index,
    candidate_chunk_ids,
    chunk_spans,
    cosine,
    load_index,
    load_kb,
    retrieve,
    retrieve_batch,
    save_index,
)
from adrcm.llm import HashingEmbedder
from adrcm.mock import TOY_CHUNK_PARAMS
from adrcm.model import Entity, Mention


def _entity(entity_id, cui=None, name="thing"):
    return Entity(entity_id, "chemical", name,
                  (Mention(name, 0, (0, len(name))),), cui=cui)


def test_kb_document_validation():
    # the last: seven ARABIC-INDIC DIGITs, which ``\d`` matches
    for cui in ("X123", "C0000001\n", "C" + "\u0660" * 6 + "\u0661"):
        with pytest.raises(ValueError, match="bad CUI"):
            KbDocument(cui, "src", "title", "text")
    with pytest.raises(ValueError, match="empty"):
        KbDocument("C0000001", "src", " ", "text")
    for fields in ((1, "src", "t", "x"), ("C0000001", None, "t", "x"),
                   ("C0000001", "src", 5, "x"), ("C0000001", "src", "t", ["x"])):
        with pytest.raises(TypeError, match="is not a string"):
            KbDocument(*fields)
    doc = KbDocument("C0000001", "src", "aspirin", "Aspirin is a drug.")
    assert doc.doc_id == "C0000001|src|aspirin"


def test_load_save_kb_round_trip(toy_kb_docs):
    text = dump_jsonl(toy_kb_docs)
    assert load_kb(text) == toy_kb_docs
    with pytest.raises(ValueError, match="line 2: duplicate"):
        load_kb(text.splitlines()[0] + "\n" + text.splitlines()[0] + "\n")
    with pytest.raises(ValueError, match="line 1"):
        load_kb('{"cui": "C0000001"}\n')


def _tokens(n, prefix="t"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def _chunk_text(text, params=None):
    """The texts of the :func:`chunk_spans` windows of a lone ``text``."""
    return [text[start:end] for start, end in chunk_spans([text], params)[0]]


def test_chunk_params_validation():
    with pytest.raises(ValueError):
        ChunkParams(size=0)
    with pytest.raises(ValueError):
        ChunkParams(size=10, overlap=10)
    with pytest.raises(ValueError):
        ChunkParams(size=10, overlap=-1)
    with pytest.raises(ValueError):
        ChunkParams(min_tail=0)


def test_chunk_text_window_layout():
    text = _tokens(512)
    chunks = _chunk_text(text, ChunkParams(size=256, overlap=32))
    assert len(chunks) == 3
    sizes = [len(c.split()) for c in chunks]
    assert sizes == [256, 256, 64]
    # stride is size - overlap, so window i starts at token 224 * i
    assert chunks[1].split()[0] == "t224"
    assert chunks[2].split()[0] == "t448"
    assert chunks[2].split()[-1] == "t511"


def test_chunk_text_small_inputs():
    assert _chunk_text("") == []
    assert _chunk_text("   ") == []
    assert _chunk_text("one two", ChunkParams(size=256, overlap=32)) == ["one two"]


def test_chunk_text_merges_short_tail():
    text = _tokens(105)
    merged = _chunk_text(text, ChunkParams(size=100, overlap=0, min_tail=16))
    assert len(merged) == 1
    assert merged[0].split()[-1] == "t104"
    kept = _chunk_text(text, ChunkParams(size=100, overlap=0, min_tail=5))
    assert len(kept) == 2
    assert len(kept[1].split()) == 5


def test_chunk_text_token_coverage_property():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 400)
        size = rng.randrange(8, 64)
        overlap = rng.randrange(0, size)
        text = _tokens(n)
        chunks = _chunk_text(text, ChunkParams(size=size, overlap=overlap, min_tail=4))
        seen = set()
        for chunk in chunks:
            assert chunk in text
            seen.update(chunk.split())
        assert seen == set(text.split())


def test_chunk_text_preserves_inner_whitespace():
    text = "alpha   beta\tgamma  delta"
    chunks = _chunk_text(text, ChunkParams(size=3, overlap=1, min_tail=1))
    for chunk in chunks:
        assert chunk in text


_TOKEN = re.compile(r"\S+")


def _reference_chunk_spans(text, params):
    # the per-token chunker that chunk_spans replaced
    spans = [m.span() for m in _TOKEN.finditer(text)]
    if not spans:
        return []
    n = len(spans)
    starts = range(0, max(n - params.overlap, 1), params.size - params.overlap)
    windows = [(s, min(s + params.size, n)) for s in starts]
    if len(windows) >= 2 and windows[-1][1] - windows[-1][0] < params.min_tail:
        windows[-2:] = [(windows[-2][0], windows[-1][1])]
    return [(spans[s][0], spans[e - 1][1]) for s, e in windows]


def test_whitespace_table_is_str_isspace():
    assert len(kb._WHITESPACE) == 29
    assert set(kb._WHITESPACE) == {c for c in range(0x110000) if chr(c).isspace()}
    assert kb._IS_SPACE.nonzero()[0].tolist() == sorted(kb._WHITESPACE)


_SPACES = [chr(c) for c in kb._WHITESPACE]
# astral characters, lone surrogates and code points just past the whitespace table
_NON_SPACES = ["a", "Z", "7", ".", "é", "漢", "\U0001F600", "\U00010000", "\U0010FFFF",
               "\ud800", "\udfff", "\u3001", "\u2fff", "\u180e", "\u200b", "\ufeff"]


def _random_article(rng):
    shape = rng.random()
    if shape < 0.1:
        return ""
    if shape < 0.2:
        return "".join(rng.choices(_SPACES, k=rng.randint(1, 6)))
    return "".join("".join(rng.choices(_NON_SPACES if rng.random() < 0.6 else _SPACES,
                                       k=rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 120)))


def test_chunk_spans_matches_the_per_token_chunker():
    rng = random.Random(29)
    group = kb.CHUNK_GROUP_SIZE
    texts = [_random_article(rng) for _ in range(2 * group + 7)]
    # texts with no token on both sides of each group edge
    texts[group - 1], texts[group], texts[2 * group] = "", " \u3000\n", ""
    for params in (ChunkParams(1, 0, 1), ChunkParams(4, 1, 1), ChunkParams(5, 2, 4),
                   ChunkParams(8, 7, 3), ChunkParams(16, 4, 16), ChunkParams()):
        got = chunk_spans(texts, params)
        assert got == [_reference_chunk_spans(text, params) for text in texts], params
    assert chunk_spans([]) == []
    # a lone text
    for text in texts[:40]:
        params = ChunkParams(3, 1, 2)
        assert _chunk_text(text, params) == [
            text[start:end] for start, end in _reference_chunk_spans(text, params)]


def test_chunk_spans_overlap_and_tail_merge_match_the_per_token_chunker():
    rng = random.Random(31)
    for _ in range(200):
        size = rng.randint(1, 12)
        params = ChunkParams(size, rng.randrange(size), rng.randint(1, size + 2))
        texts = [_random_article(rng) for _ in range(rng.randint(1, 5))]
        assert chunk_spans(texts, params) == [
            _reference_chunk_spans(text, params) for text in texts], (params, texts)


def test_cosine_hand_values():
    a = np.array([1.0, 1.0])
    b = np.array([1.0, 0.0])
    assert abs(cosine(a, b) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert cosine(b, b) == 1.0
    assert abs(cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) < 1e-12
    with pytest.raises(ValueError, match="mismatch"):
        cosine(a, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="zero vector"):
        cosine(a, np.zeros(2))


def test_build_index_structure(toy_index, toy_kb_docs):
    assert toy_index.dimension == 64
    assert len(toy_index.documents) == len(toy_kb_docs)
    for doc in toy_kb_docs:
        assert doc.cui in toy_index.by_cui
        assert doc.title.casefold() in toy_index.by_title
    assert toy_index.doc_ids == tuple(sorted(d.doc_id for d in toy_kb_docs))
    assert toy_index.offsets[0] == 0 and toy_index.offsets[-1] == len(toy_index)
    for j, doc_id in enumerate(toy_index.doc_ids):
        rows = range(toy_index.offsets[j], toy_index.offsets[j + 1])
        assert rows
        assert [toy_index.chunk(row)[:2] for row in rows] == [
            (f"{doc_id}#{i:04d}", doc_id) for i in range(len(rows))]
        assert [toy_index.chunk(row)[5] for row in rows] == _chunk_text(
            toy_index.documents[doc_id].text, toy_index.params)
    assert np.array_equal(toy_index.norms, np.linalg.norm(toy_index.matrix, axis=1))
    assert np.allclose(toy_index.norms, 1.0, rtol=0, atol=1e-9)


def test_build_index_rejects_duplicates():
    doc = KbDocument("C0000001", "s", "t", "some text here")
    with pytest.raises(ValueError, match="duplicate"):
        build_index([doc, doc], HashingEmbedder())


def test_fingerprint_tracks_content():
    d1 = KbDocument("C0000001", "s", "a", "text one here")
    d2 = KbDocument("C0000001", "s", "a", "text two here")
    emb = HashingEmbedder()
    i1 = build_index([d1], emb)
    i2 = build_index([d2], emb)
    assert i1.fingerprint != i2.fingerprint
    assert i1.fingerprint == build_index([d1], emb).fingerprint


def _mini_index():
    docs = [
        KbDocument("C0000001", "kb", "alpha", "alpha compound binds receptors strongly"),
        KbDocument("C0000002", "kb", "beta", "beta disease presents with fever"),
        KbDocument("C0000003", "kb", "gamma", "gamma agent is unrelated entirely"),
    ]
    return build_index(docs, HashingEmbedder(), params=ChunkParams(4, 1, 1))


def test_retrieve_scopes_to_pair_cuis():
    index = _mini_index()
    head = _entity("E1", cui="C0000001")
    tail = _entity("E2", cui="C0000002")
    query = HashingEmbedder().embed_one("gamma agent is unrelated entirely")
    results = retrieve(index, query, head, tail, k=10)
    assert results
    assert {r.cui for r in results} <= {"C0000001", "C0000002"}
    unscoped = retrieve(index, query, head, tail, k=10, cui_scoped=False)
    assert any(r.cui == "C0000003" for r in unscoped)
    assert unscoped[0].cui == "C0000003"
    assert unscoped[0].score > max(r.score for r in results)


def test_retrieve_orders_by_score_then_chunk_id():
    index = _mini_index()
    head = _entity("E1", cui="C0000001")
    tail = _entity("E2", cui="C0000001")
    query = HashingEmbedder().embed_one("alpha compound binds receptors strongly")
    results = retrieve(index, query, head, tail, k=10)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)
    for earlier, later in zip(results, results[1:]):
        if earlier.score == later.score:
            assert earlier.chunk_id < later.chunk_id


def test_retrieve_title_fallback_and_empty_scope():
    index = _mini_index()
    named = _entity("E1", cui=None, name="Alpha")
    other = _entity("E2", cui=None, name="unknown thing")
    query = HashingEmbedder().embed_one("anything")
    results = retrieve(index, query, named, other, k=10)
    assert results and all(r.cui == "C0000001" for r in results)
    assert retrieve(index, query, other, other, k=10) == []
    assert candidate_chunk_ids(index, other, other) == []


def test_retrieve_k_limits_results():
    index = _mini_index()
    head = _entity("E1", cui="C0000001")
    tail = _entity("E2", cui="C0000002")
    query = HashingEmbedder().embed_one("alpha beta")
    assert len(retrieve(index, query, head, tail, k=1)) == 1
    with pytest.raises(ValueError):
        retrieve(index, query, head, tail, k=0)


def test_save_load_index_round_trip(toy_index):
    text = save_index(toy_index)
    again = load_index(text)
    assert again.dimension == toy_index.dimension
    assert again.params == toy_index.params
    assert again.fingerprint == toy_index.fingerprint
    assert again.doc_ids == toy_index.doc_ids
    assert again.offsets == toy_index.offsets
    for column in ("matrix", "norms", "spans"):
        assert np.array_equal(getattr(again, column), getattr(toy_index, column))
    assert again.by_cui == toy_index.by_cui
    # serialization is stable byte for byte
    assert save_index(again) == text


def test_load_index_rejects_tampering(toy_index):
    text = save_index(toy_index)

    def shorten_span(records):
        spans = _column(records[-1], "spans").copy()
        spans[0, 1] -= 1
        _set_column(records[-1], spans=spans)

    def flip_vector_byte(records):
        raw = bytearray(base64.b64decode(records[-1]["vectors"]))
        raw[0] ^= 1
        records[-1]["vectors"] = base64.b64encode(bytes(raw)).decode("ascii")

    for edit in (shorten_span, flip_vector_byte,
                 lambda rs: rs[0]["embedder"].update(model="other")):
        with pytest.raises(ValueError, match="fingerprint"):
            load_index(_retamper(text, edit))
    with pytest.raises(ValueError, match="header"):
        load_index("\n".join(text.splitlines()[1:]))
    with pytest.raises(ValueError, match="empty"):
        load_index("")


def test_index_file_layout(toy_index):
    header, columns = [json.loads(line) for line in save_index(toy_index).splitlines()]
    assert header["format"] == 7
    assert header["embedder"] == {"kind": "hashing", "model": "fnv1a64", "dimension": 64}
    assert header["chunks"] == len(toy_index)
    assert header["articles"] == len(toy_index.documents) < kb.CHUNK_GROUP_SIZE
    assert set(columns) == {"kind", "cui", "source", "title", "text", "counts", "spans",
                            "vectors"}
    assert columns["kind"] == "columns"
    articles = [dict(zip(kb.ARTICLE_FIELDS, fields))
                for fields in zip(*(columns[name] for name in kb.ARTICLE_FIELDS))]
    assert [f"{r['cui']}|{r['source']}|{r['title']}" for r in articles] == sorted(
        toy_index.documents)
    assert len(articles) == header["articles"]
    assert _column(columns, "counts").tolist() == np.diff(toy_index.offsets).tolist()
    assert _column(columns, "spans").tolist() == toy_index.spans.tolist()
    assert base64.b64decode(columns["vectors"]) == toy_index.matrix.astype("<f8").tobytes()
    for j, record in enumerate(articles):
        spans = toy_index.spans[toy_index.offsets[j]:toy_index.offsets[j + 1]].tolist()
        assert [record["text"][start:end] for start, end in spans] == _chunk_text(
            record["text"], toy_index.params)


def _format_2_records(index):
    """The records of ``index`` in the layout of format 2: one per article, then
    one per chunk with its ids, its span and its own vector."""
    records = [{"kind": "header", "format": 2, "dimension": index.dimension,
                "embedder": index.embedder, "chunks": len(index), "params": vars(index.params),
                "fingerprint": index.fingerprint}]
    records += [{"kind": "doc", **vars(doc)} for _, doc in sorted(index.documents.items())]
    for row in sorted(range(len(index)), key=lambda row: index.chunk(row)[0]):
        chunk_id, doc_id, *_ = index.chunk(row)
        records.append({"kind": "chunk", "chunk_id": chunk_id, "doc_id": doc_id,
                        "span": index.spans[row].tolist(),
                        "vector": base64.b64encode(index.matrix[row].tobytes()).decode("ascii")})
    return records


def _format_6_records(index):
    """The records of ``index`` in the layout of format 6: one per article, then one
    ``columns`` record of chunk counts, spans and vectors per group of articles."""
    records = _retamper(save_index(index), lambda rs: rs[0].update(format=6))
    header, *groups = map(json.loads, records.splitlines())
    articles = [{name: group[name][j] for name in kb.ARTICLE_FIELDS}
                for group in groups for j in range(len(group["cui"]))]
    return [header, *articles, *({name: group[name] for name in ("kind", *_DTYPES)}
                                 for group in groups)]


def test_load_index_refuses_format_2(toy_index):
    """A file in the per-chunk layout written before format 3 must be rebuilt, and so
    must a format 3 file, whose fingerprint does not cover the article records, a
    format 4 file, whose fingerprint hashes every chunk rather than the columns, a
    format 5 file, whose article records hold their own chunks, and a format 6 file,
    whose article records come before the columns records."""
    old = dump_jsonl(_format_2_records(toy_index))
    with pytest.raises(ValueError, match="index format 2 is not 7; rebuild it with `adrcm index`"):
        load_index(old)
    with pytest.raises(ValueError, match="index format 6 is not 7; rebuild it with `adrcm index`"):
        load_index(dump_jsonl(_format_6_records(toy_index)))
    for format_ in (3, 4, 5, 6):
        older = _retamper(save_index(toy_index), lambda rs: rs[0].update(format=format_))
        with pytest.raises(ValueError, match=f"index format {format_} is not 7; "
                                             "rebuild it with `adrcm index`"):
            load_index(older)


def test_load_index_refuses_format_1(toy_index):
    """A file in the layout written before format 2 must be rebuilt."""
    records = _format_2_records(toy_index)
    for record in records:
        record.pop("format", None)
        record.pop("embedder", None)
        if record["kind"] == "chunk":
            record.pop("chunk_id")
            start, end = record["span"]
            record["text"] = toy_index.documents[record["doc_id"]].text[start:end]
            record["vector"] = np.frombuffer(base64.b64decode(record["vector"])).tolist()
            del record["span"]
    old = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    with pytest.raises(ValueError, match="rebuild it with `adrcm index`"):
        load_index(old)


class _ScaledEmbedder:
    """Hashing vectors scaled by a text-dependent factor, so rows are not unit
    length; records the size of every batch it is asked for."""

    identity = {"kind": "test", "model": "scaled-fnv1a64", "dimension": 64}

    def __init__(self):
        self.inner = HashingEmbedder()
        self.batches = []

    def embed_batch(self, texts):
        self.batches.append(len(texts))
        return [(1.0 + len(t) % 7) * v for t, v in zip(texts, self.inner.embed_batch(texts))]


_VOCAB = ["alpha", "beta", "gamma", "delta", "kinase", "lesion", "fever", "dose"]
_TIED = "kinase lesion fever dose alpha"


def _tie_index():
    """Six articles with the same text under different CUIs, among others."""
    rng = random.Random(5)
    docs = [KbDocument(f"C{2000000 + i}", "kb", f"tied {i}", _TIED) for i in range(6)]
    docs += [KbDocument(f"C{3000000 + i}", "kb", f"other {i}",
                        " ".join(rng.choices(_VOCAB, k=rng.randint(3, 30))))
             for i in range(12)]
    return build_index(docs, _ScaledEmbedder(), params=ChunkParams(5, 1, 2))


def _brute_scan(index, query, k, rows=None):
    """``(chunk id, score)`` of the best k of ``rows`` (default: all), ranked by
    ``(-cosine, row)``."""
    rows = range(len(index)) if rows is None else rows
    scored = sorted((-cosine(query, index.matrix[row]), row) for row in rows)
    return [(index.chunk(row)[0], -neg) for neg, row in scored[:k]]


def test_unscoped_retrieve_equals_bruteforce_scan_with_ties():
    index = _tie_index()
    head, tail = _entity("E1", cui="C2000000"), _entity("E2", cui="C3000000")
    rng = random.Random(9)
    queries = [3.5 * HashingEmbedder().embed_one(_TIED)]
    queries += [rng.uniform(0.1, 9.0) * HashingEmbedder().embed_one(
        " ".join(rng.choices(_VOCAB, k=4))) for _ in range(20)]
    for index_ in (index, load_index(save_index(index))):
        for query in queries:
            for k in (1, 3, 5, 6, 7, 10, len(index) + 3):
                got = [(s.chunk_id, s.score)
                       for s in retrieve(index_, query, head, tail, k=k, cui_scoped=False)]
                want = _brute_scan(index_, query, k)
                assert [(c, s.hex()) for c, s in got] == [(c, s.hex()) for c, s in want]
    top = retrieve(index, queries[0], head, tail, k=6, cui_scoped=False)
    assert {r.cui for r in top} == {f"C{2000000 + i}" for i in range(6)}
    assert len({r.score for r in top}) == 1


def test_tied_chunks_rank_by_row_past_chunk_9999():
    """Equal scores rank by row, so ``…#10000`` ranks after ``…#9999``, not between
    ``…#1000`` and ``…#1001`` as its chunk id would sort."""
    index = build_index([KbDocument("C0000001", "kb", "t", " ".join(["x"] * 10_001))],
                        HashingEmbedder(), params=ChunkParams(1, 0, 1))
    assert len(index) == 10_001 and index.chunk(10_000)[0] == "C0000001|kb|t#10000"
    head = _entity("E1", cui="C0000001")
    want = [f"C0000001|kb|t#{i:04d}" for i in range(1002)]
    for scoped in (True, False):
        got = retrieve(index, HashingEmbedder().embed_one("x"), head, head, k=1002,
                       cui_scoped=scoped)
        assert [s.chunk_id for s in got] == want


def _nested_ids_kb(rng):
    """Articles under one CUI and source whose doc ids extend one another (``…|a``,
    ``…|a b``, ``…|a b c``), which sort by chunk id against their row order, with texts
    drawn from a pool of two, so that their chunks tie exactly; and other articles, some
    of them copies of a pool text under another CUI."""
    pool = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 20))) for _ in range(2)]
    docs = [KbDocument("C0000001", "kb", title, rng.choice(pool))
            for title in ("a", "a b", "a b c", "a bc")]
    docs += [KbDocument(f"C{6000000 + i}", "kb", "a", rng.choice(
        pool + [" ".join(rng.choices(_WORDS, k=rng.randint(1, 20)))])) for i in range(4)]
    rng.shuffle(docs)
    return docs


def test_retrieve_ranks_ties_by_row_on_nested_doc_ids():
    """Scoped and unscoped retrieval, on built and reloaded indexes, equal a brute
    ``(-cosine, row)`` scan where exact ties fall across articles whose ids nest."""
    rng = random.Random(31)
    ties = 0
    for _ in range(40):
        size = rng.randint(1, 6)
        built = build_index(_nested_ids_kb(rng), _ScaledEmbedder(),
                            params=ChunkParams(size, rng.randrange(0, size), rng.randint(1, 3)))
        head = _entity("E1", cui="C0000001")
        tail = _entity("E2", cui=rng.choice(["C6000000", "C6000003", "C0999999"]))
        queries = [rng.uniform(0.5, 4.0) * _ScaledEmbedder().embed_batch([built.chunk(
            rng.randrange(len(built)))[5]])[0] for _ in range(3)]
        queries.append(HashingEmbedder().embed_one(" ".join(rng.choices(_WORDS, k=3))))
        for index in (built, load_index(save_index(built))):
            scope = [row for row in range(len(index))
                     if index.chunk(row)[2] in (head.cui, tail.cui)]
            for query in queries:
                scores = [cosine(query, index.matrix[row]) for row in range(len(index))]
                ties += len(scores) - len(set(scores))
                for k in (1, 2, 3, 5, len(index) + 2):
                    for scoped, rows in ((True, scope), (False, None)):
                        got = [(s.chunk_id, s.score.hex()) for s in retrieve(
                            index, query, head, tail, k=k, cui_scoped=scoped)]
                        assert got == [(c, s.hex()) for c, s in _brute_scan(
                            index, query, k, rows)], (k, scoped)
    assert ties > 100


def test_unscoped_retrieve_rejects_bad_queries_like_the_scan():
    index = _tie_index()
    head, tail = _entity("E1", cui="C2000000"), _entity("E2", cui="C3000000")
    for query in (np.zeros(index.dimension), np.ones(index.dimension + 1)):
        messages = []
        for scoped in (True, False):
            with pytest.raises(ValueError) as info:
                retrieve(index, query, head, tail, k=3, cui_scoped=scoped)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "zero vector" in messages[0] or "mismatch" in messages[0]


def test_retrieve_batch_equals_one_query_retrieve():
    """Seeded random batches rank as one-query ``retrieve`` does, scoped and unscoped, for
    every k up to more than the rows in scope, with exact ties from repeated chunk texts
    and repeated queries, and more queries than a dim-8 index scores in one product."""
    rng = random.Random(34)
    texts = [" ".join(rng.choices(_VOCAB, k=rng.randint(1, 6))) for _ in range(4)]
    docs = [KbDocument(f"C{4000000 + i % 6}", "kb", f"t{i}", rng.choice(texts))
            for i in range(16)]
    index = build_index(docs, HashingEmbedder(8), params=ChunkParams(3, 1, 1))
    assert index.dimension == 8
    cuis = [*index.by_cui, "C0999999"]
    pairs = [(_entity("E1", cui=rng.choice(cuis)), _entity("E2", cui=rng.choice(cuis)))
             for _ in range(29)]
    queries = []
    for _ in pairs:
        kind = rng.randrange(3)
        if kind == 0 and queries:  # a query repeated
            queries.append(rng.choice(queries))
        elif kind == 1:  # a chunk's own direction, scaled
            queries.append(rng.uniform(0.5, 3.0) * index.matrix[rng.randrange(len(index))])
        else:
            queries.append(np.array([rng.gauss(0, 1) for _ in range(8)]))
    scores = [cosine(query, row) for query in queries for row in index.matrix]
    assert len(scores) - len(set(scores)) > 100
    ties = 0
    for scoped in (True, False):
        most = max(len(candidate_chunk_ids(index, *pair, cui_scoped=scoped)) for pair in pairs)
        for k in range(1, most + 3):
            got = retrieve_batch(index, queries, pairs, k=k, cui_scoped=scoped)
            want = [retrieve(index, query, *pair, k=k, cui_scoped=scoped)
                    for query, pair in zip(queries, pairs)]
            assert [[(s.chunk_id, s.score.hex()) for s in r] for r in got] == \
                   [[(s.chunk_id, s.score.hex()) for s in r] for r in want], (scoped, k)
            ties += sum(len(r) - len({s.score for s in r}) for r in got)
    assert ties > 100
    for scoped in (True, False):
        assert retrieve_batch(index, [], [], k=3, cui_scoped=scoped) == []
        for bad, message in ((np.zeros(8), "zero vector"), (np.ones(9), "dimension mismatch"),
                             (np.ones((8, 1)), "dimension mismatch")):
            for at in (0, 11, len(queries)):
                batch = queries[:at] + [bad] + queries[at:]
                with pytest.raises(ValueError, match=message):
                    retrieve_batch(index, batch, pairs[:1] * len(batch), k=3, cui_scoped=scoped)


def test_chunk_vectors_are_views_of_the_index_matrix():
    """The ``chunks`` view that code outside the package reads equals the columns."""
    built = _tie_index()
    for index in (built, load_index(save_index(built))):
        assert index.matrix.shape == (len(index), index.dimension)
        assert len(index.chunks) == len(index)
        articles = [j for j in range(len(index.doc_ids))
                    for _ in range(index.offsets[j], index.offsets[j + 1])]
        for row, (chunk_id, chunk), j in zip(range(len(index)), index.chunks.items(), articles):
            doc_id = index.doc_ids[j]
            start, end = index.spans[row]
            assert chunk.chunk_id == chunk_id == f"{doc_id}#{row - index.offsets[j]:04d}"
            assert chunk.doc_id == doc_id
            assert chunk.text == index.documents[doc_id].text[start:end]
            assert np.shares_memory(chunk.vector, index.matrix)
            assert np.array_equal(chunk.vector, index.matrix[row])
        assert np.allclose(index.norms, [np.linalg.norm(v) for v in index.matrix],
                           rtol=1e-15, atol=0)


def test_benchmark_facing_contract(monkeypatch):
    """What code outside the package relies on: the fingerprint survives a round
    trip, ``by_cui`` names keys of ``documents``, ``retrieve`` calls the module's
    ``candidate_chunk_ids`` once per query with one entry per row scored, and
    retrieval never builds the ``chunks`` view."""
    built = _tie_index()
    index = load_index(save_index(built))
    assert index.fingerprint == built.fingerprint
    assert all(d in index.documents for doc_ids in index.by_cui.values() for d in doc_ids)
    results = []

    def spy(*args, **kwargs):
        results.append(candidate_chunk_ids(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(kb, "candidate_chunk_ids", spy)
    head, tail = _entity("E1", cui="C2000000"), _entity("E2", cui="C3000001")
    query = HashingEmbedder().embed_one("kinase fever")
    for scoped in (True, False):
        assert len(retrieve(index, query, head, tail, k=1, cui_scoped=scoped)) == 1
    assert "chunks" not in vars(index)
    in_scope = [c for c in index.chunks.values() if c.cui in {head.cui, tail.cui}]
    assert len(in_scope) > 1
    assert [len(r) for r in results] == [len(in_scope), len(index)]


def _retamper(text, edit):
    records = [json.loads(line) for line in text.split("\n")[:-1]]
    edit(records)
    return "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)


_DTYPES = {"counts": "<i8", "spans": "<i8", "vectors": "<f8"}


def _column(record, name):
    """A block of a columns record as an array; spans as ``[start, end]`` rows."""
    column = np.frombuffer(base64.b64decode(record[name]), _DTYPES[name])
    return column.reshape(-1, 2) if name == "spans" else column


def _set_column(record, **columns):
    for name, column in columns.items():
        block = column if isinstance(column, bytes) else np.asarray(column, _DTYPES[name])
        record[name] = base64.b64encode(block).decode("ascii")


def _swap_cuis(records):
    """Out of doc-id order, each text still where its spans say."""
    cuis = records[-1]["cui"]
    assert cuis[0] != cuis[1]
    cuis[0], cuis[1] = cuis[1], cuis[0]


def _append_article(article):
    """Append ``article`` (one value per article field, or a function of the records
    that gives them) with no chunks to the last group."""
    def edit(records):
        values = article(records) if callable(article) else article
        for name, value in zip(kb.ARTICLE_FIELDS, values):
            records[-1][name].append(value)
        records[0]["articles"] += 1
        _set_column(records[-1], counts=np.r_[_column(records[-1], "counts"), 0])
    return edit


def _resize_article_list(name, extra):
    """Repeat the last item of the ``name`` list ``extra`` times, or drop ``-extra`` items."""
    def edit(records):
        values = records[-1][name]
        values[len(values) + min(extra, 0):] = values[-1:] * max(extra, 0)
    return edit


def _drop_vector_bytes(records):
    raw = base64.b64decode(records[-1]["vectors"])
    records[-1]["vectors"] = base64.b64encode(raw[:-8]).decode("ascii")


def _set_first_vector(value):
    def edit(records):
        raw = bytearray(base64.b64decode(records[-1]["vectors"]))
        raw[:8 * 64] = np.full(64, value, dtype="<f8").tobytes()
        records[-1]["vectors"] = base64.b64encode(bytes(raw)).decode("ascii")
    return edit


def _set_span(span, dtype="<i8"):
    """Set the last span, written as ``dtype`` numbers."""
    def edit(records):
        raw = base64.b64decode(records[-1]["spans"])
        _set_column(records[-1], spans=raw[:-16] + np.asarray(span, dtype).tobytes())
    return edit


def _resize_spans(extra):
    """Add ``extra`` bytes to the spans block, or drop ``-extra``."""
    def edit(records):
        raw = base64.b64decode(records[-1]["spans"])
        _set_column(records[-1], spans=raw + bytes(extra) if extra > 0 else raw[:extra])
    return edit


def _set_counts(change):
    def edit(records):
        _set_column(records[-1], counts=change(_column(records[-1], "counts").copy()))
    return edit


def _make_second_chunk_count_negative(counts):
    counts[:2] += [counts[1] + 1, -counts[1] - 1]
    return counts


def _move_first_chunk_count(counts):
    counts[:2] += [-1, 1]
    return counts


# ``{last}`` stands for the file line of the last record.
@pytest.mark.parametrize("edit, message", [
    (lambda rs: rs[0].update(chunks=rs[0]["chunks"] - 1),
     "^line {last}: bad columns record: chunk counts are negative or more than the header's"),
    (lambda rs: rs[0].update(chunks=rs[0]["chunks"] + 1), "header says"),
    (lambda rs: rs[0].pop("chunks"), "adrcm index"),
    (lambda rs: rs[0].update(chunks=10 ** 12), "adrcm index"),
    (lambda rs: rs[0].pop("articles"), "adrcm index"),
    (lambda rs: rs[0].update(articles=-1), "adrcm index"),
    (lambda rs: rs[0].update(articles=rs[0]["articles"] - 1),
     r"^line {last}: bad columns record: cui is not a list of \d+ article fields$"),
    (lambda rs: rs[0].update(articles=rs[0]["articles"] + 1),
     r"^line {last}: bad columns record: cui is not a list of \d+ article fields$"),
    (lambda rs: rs[0].pop("embedder"), "^line 1: bad index header: 'embedder'"),
    (lambda rs: rs[0].update(dimension="64"), "^line 1: bad index header: dimension"),
    (lambda rs: rs[0].update(params=[48]), "^line 1: bad index header"),
    (_swap_cuis, "^line 2: article .* repeats or is out of order"),
    (_append_article(lambda rs: [rs[-1][name][-1] for name in kb.ARTICLE_FIELDS]),
     "^line {last}: article .* repeats or is out of order"),
    (_drop_vector_bytes, r"^line {last}: bad columns record: expected \d+ x 64 vectors, got"),
    (_set_first_vector(0.0), "^chunk '.*#0000' has a zero or non-finite vector$"),
    (_set_first_vector(np.nan), "^chunk '.*#0000' has a zero or non-finite vector$"),
    (lambda rs: rs[-1].update(vectors="!" + rs[-1]["vectors"][1:]),
     "^line {last}: bad columns record: vectors are not base64"),
    (lambda rs: rs[-1].pop("spans"),
     r"^line {last}: bad columns record: fields \['counts', 'cui', 'kind', 'source', 'text', "
     r"'title', 'vectors'\] are not those of a columns record"),
    (lambda rs: rs[-1].update(chunk_id="x"), "^line {last}: bad columns record: .*'chunk_id'"),
    (lambda rs: rs[-1].update(vectors=[rs[-1]["vectors"]]),
     "^line {last}: bad columns record: vectors are not base64"),
    (_set_span([0.0, 3.0], "<f8"), r"^line {last}: bad columns record: span \[0, \d+\] of"),
    (lambda rs: rs[-1].update(spans=[[0, 3]]),
     "^line {last}: bad columns record: spans are not base64"),
    (_resize_spans(-8), r"^line {last}: bad columns record: expected \d+ x 2 spans"),
    (_resize_spans(8), r"^line {last}: bad columns record: expected \d+ x 2 spans"),
    (lambda rs: rs[-1].update(spans=rs[-1]["spans"][:-4] + "@@@@"),
     "^line {last}: bad columns record: spans are not base64"),
    (lambda rs: rs[-1].update(spans={"start": 0}),
     "^line {last}: bad columns record: spans are not base64"),
    (_set_span([-1, 3]), r"^line {last}: bad columns record: span \[-1, 3\] of article '"),
    (_set_span([3, 3]), r"^line {last}: bad columns record: span \[3, 3\]"),
    (lambda rs: _set_span([0, len(rs[-1]["text"][-1]) + 1])(rs),
     r"^line {last}: bad columns record: span \[0, \d+\]"),
    (lambda rs: rs[-1].update(url=["https://example.org"] * len(rs[-1]["cui"])),
     r"^line 2: bad columns record: fields \[.*'url', 'vectors'\] are not those of a"),
    (lambda rs: rs[-1].pop("source"),
     r"^line 2: bad columns record: fields \['counts', 'cui', 'kind', 'spans', 'text', 'title'"),
    (lambda rs: rs[-1].update(kind="doc"),
     "^line 2: bad columns record: fields .* are not those of a columns record"),
    (_append_article(["C9999999", "kb", "ghost", "never indexed"]), "fingerprint"),
    (lambda rs: rs[-1]["text"].__setitem__(0, rs[-1]["text"][0] + "   "), "fingerprint"),
    (_resize_article_list("title", -1),
     r"^line 2: bad columns record: title is not a list of \d+ article fields$"),
    (_resize_article_list("text", 1),
     r"^line 2: bad columns record: text is not a list of \d+ article fields$"),
    (lambda rs: rs[-1].update(source="kb"),
     r"^line 2: bad columns record: source is not a list of \d+ article fields$"),
    (lambda rs: rs[-1]["title"].__setitem__(0, 7),
     "^line 2: bad columns record: KB document field 'title' is not a string: 7$"),
    # without its vectors the file is too short for its chunk count; see the round trip
    # test for a missing record that leaves it long enough
    (lambda rs: rs.pop(), "^index header has no valid article and chunk counts"),
    (lambda rs: rs.append(dict(rs[-1])), "^line {last}: record after the last columns record"),
    (_set_counts(lambda counts: counts[:-1]),
     r"^line {last}: bad columns record: expected \d+ counts, got"),
    (_set_counts(_make_second_chunk_count_negative),
     "^line {last}: bad columns record: chunk counts are negative"),
    (_set_counts(_move_first_chunk_count), "fingerprint"),
], ids=["count-small", "count-large", "count-missing", "count-huge", "articles-missing",
        "articles-negative", "articles-small", "articles-large",
        "header-missing-field", "header-dimension-type", "header-params-type", "order",
        "duplicate", "vector-length", "vector-zero", "vector-nan", "vector-not-base64",
        "chunk-missing-field", "chunk-extra-field", "chunk-field-type", "span-float",
        "span-str", "span-bool", "span-three", "span-object", "spans-object",
        "span-negative", "span-empty", "span-past-end", "article-extra-field",
        "article-missing-field", "article-kind", "article-added", "article-text-edited",
        "article-list-short", "article-list-long", "article-field-not-list",
        "article-field-type", "columns-missing", "columns-extra", "counts-short",
        "counts-negative", "counts-moved"])
def test_load_index_rejects_inconsistent_records(toy_index, edit, message):
    text = save_index(toy_index)
    assert save_index(load_index(text)) == text
    tampered = _retamper(text, edit)
    with pytest.raises(ValueError, match=message.format(last=tampered.count("\n"))):
        load_index(tampered)


def test_build_index_embeds_in_bounded_batches(monkeypatch):
    docs = [KbDocument(f"C{4000000 + i}", "kb", f"topic {i}", _tokens(40, f"w{i}x"))
            for i in range(40)]
    params = ChunkParams(4, 1, 1)
    batched_embedder = _ScaledEmbedder()
    batched = build_index(docs, batched_embedder, params=params)
    assert len(batched) > 2 * kb.EMBED_BATCH_SIZE
    assert max(batched_embedder.batches) <= kb.EMBED_BATCH_SIZE
    assert sum(batched_embedder.batches) == len(batched)

    monkeypatch.setattr(kb, "EMBED_BATCH_SIZE", len(batched))
    single_embedder = _ScaledEmbedder()
    single = build_index(docs, single_embedder, params=params)
    assert single_embedder.batches == [len(batched)]
    assert single.fingerprint == batched.fingerprint
    assert single.doc_ids == batched.doc_ids
    assert single.offsets == batched.offsets
    for column in ("matrix", "spans"):
        assert np.array_equal(getattr(single, column), getattr(batched, column))


def test_build_index_rejects_short_embedding_batches():
    class Short(_ScaledEmbedder):
        def embed_batch(self, texts):
            return super().embed_batch(texts)[:-1]

    with pytest.raises(ValueError):
        build_index([KbDocument("C0000001", "kb", "t", _tokens(20))], Short(),
                    params=ChunkParams(4, 1, 1))


@pytest.mark.parametrize("bad", [np.zeros(64), np.full(64, np.nan), np.r_[np.inf, np.zeros(63)]],
                         ids=["zero", "nan", "inf"])
def test_build_index_refuses_zero_or_non_finite_vectors(bad):
    """Such a vector would pass ``--rag cui`` and fail every unscoped query, so the
    index is refused where it is built, naming the first bad chunk."""
    class Bad(_ScaledEmbedder):
        def embed_batch(self, texts):
            return [bad if "dose" in t else v for t, v in zip(texts, super().embed_batch(texts))]

    docs = [KbDocument("C0000001", "kb", "a", "alpha beta gamma delta"),
            KbDocument("C0000002", "kb", "b", "kinase fever dose lesion"),
            KbDocument("C0000003", "kb", "c", "dose")]
    with pytest.raises(ValueError, match=r"^chunk 'C0000002\|kb\|b#0001' has a zero or "
                                         "non-finite vector$"):
        build_index(docs, Bad(), params=ChunkParams(2, 0, 1))


def test_index_round_trip_keeps_unicode_line_separators():
    docs = [KbDocument("C0000001", "kb", "sep", "one\u2028two\x85three words here")]
    text = save_index(build_index(docs, HashingEmbedder()))
    assert save_index(load_index(text)) == text


def _copied_kb(toy_kb_docs, copies):
    """``copies`` copies of the toy KB, each under its own CUIs and titles."""
    return [KbDocument(f"C{6000000 + 100 * copy + j}", doc.source, f"{doc.title} {copy}",
                       doc.text)
            for copy in range(copies) for j, doc in enumerate(toy_kb_docs)]


def test_load_index_reports_file_line_numbers(toy_kb_docs):
    docs = _copied_kb(toy_kb_docs, 2 * kb.CHUNK_GROUP_SIZE // len(toy_kb_docs) + 1)
    lines = save_index(build_index(docs, HashingEmbedder(),
                                   params=TOY_CHUNK_PARAMS)).splitlines()
    assert len(lines) == 4  # the header and three groups
    truncated = lines[:2] + [lines[2][:-3]] + lines[3:]
    with pytest.raises(ValueError, match="^line 3: bad columns record: Unterminated string"):
        load_index("\n".join(truncated) + "\n")
    bad = json.loads(lines[2])
    bad["title"][1] = " "
    spaced = lines[:1] + ["", "  "] + lines[1:2] + [json.dumps(bad)] + lines[3:]
    with pytest.raises(ValueError, match="^line 5: bad columns record: .*'title' is empty"):
        load_index("\n".join(spaced) + "\n")
    # One record spread over two lines and two records on one line: joined by commas,
    # the lines would parse as all the records; one by one, the first line fails.
    split = lines[1].index('"text"')
    spread = lines[:1] + [lines[1][:split].rstrip(", "), lines[1][split:],
                          lines[2] + ", " + lines[3]]
    assert json.loads("[" + ",".join(spread[1:]) + "]") == [
        json.loads(line) for line in lines[1:]]
    with pytest.raises(ValueError, match="^line 2: bad columns record: Expecting"):
        load_index("\n".join(spread) + "\n")
    columns = lines[:-1] + ["", lines[-1][:-3]]
    with pytest.raises(ValueError, match=f"^line {len(lines) + 1}: bad columns record: "
                                         "Unterminated string"):
        load_index("\n".join(columns) + "\n")


def test_load_index_peak_memory_stays_within_twice_the_matrix(toy_kb_docs):
    """The vectors are read a group of articles at a time: at its peak, loading holds
    at most twice the matrix's bytes beyond what the loaded index keeps. A loader that
    reads all vectors from one record holds their JSON line, its decoded string and
    their bytes at once."""
    docs = _copied_kb(toy_kb_docs, 50)
    text = save_index(build_index(docs, HashingEmbedder(), params=TOY_CHUNK_PARAMS))
    tracemalloc.start()
    try:
        index = load_index(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.documents) >= 1000
    assert peak - kept <= 2 * index.matrix.nbytes, (peak - kept, index.matrix.nbytes)


_WORDS = ["alpha", "beta", "gamma", "kinase", "fever", "dose", "line\u2028sep", "next\x85line"]


def _random_kb(rng):
    """Articles of random length, among them a passage repeated inside one article,
    one-token articles, and the ids ``…|alpha`` and ``…|alpha beta``, whose chunk-id
    order ("alpha beta#0000" < "alpha#0000") is not their row order."""
    def words(n):
        return " ".join(rng.choices(_WORDS, k=n))

    passage = words(rng.randint(3, 12))
    docs = [KbDocument("C0000001", "kb", "alpha", words(rng.randint(1, 30))),
            KbDocument("C0000001", "kb", "alpha beta", words(rng.randint(1, 30))),
            KbDocument("C0000002", "kb", "repeat", " ".join([passage] * rng.randint(2, 5))),
            KbDocument("C0000003", "kb", "one", rng.choice(_WORDS))]
    docs += [KbDocument(f"C{4000000 + i}", rng.choice(["kb", "kb2"]), f"t{i}",
                        words(rng.randint(1, 40))) for i in range(rng.randint(0, 8))]
    rng.shuffle(docs)
    return docs


def _columns_records(text):
    return [r for r in map(json.loads, text.split("\n")[:-1]) if r.get("kind") == "columns"]


def test_format_7_round_trip_on_random_kbs():
    rng = random.Random(23)
    head, tail = _entity("E1", cui="C0000001"), _entity("E2", cui="C0000002")
    for _ in range(40):
        size = rng.randint(1, 6)
        params = ChunkParams(size, rng.randrange(0, size), rng.randint(1, 3))
        built = build_index(_random_kb(rng), _ScaledEmbedder(), params=params)
        text = save_index(built)
        loaded = load_index(text)
        assert save_index(loaded) == text
        assert [loaded.chunk(row) for row in range(len(loaded))] == [
            built.chunk(row) for row in range(len(built))]
        assert loaded.matrix.tobytes() == built.matrix.tobytes()
        assert np.array_equal(loaded.spans, built.spans)
        (columns,) = _columns_records(text)
        spans = _column(columns, "spans")
        for start, end in zip(built.offsets, built.offsets[1:]):
            starts = spans[start:end, 0].tolist()
            assert starts == sorted(starts)
        query = HashingEmbedder().embed_one(" ".join(rng.choices(_WORDS, k=3)))
        k = rng.randint(1, len(built) + 2)
        got = [(s.chunk_id, s.score.hex())
               for s in retrieve(loaded, query, head, tail, k=k, cui_scoped=False)]
        assert got == [(c, s.hex()) for c, s in _brute_scan(built, query, k)]

    # two groups of articles, the second of one article
    docs = [KbDocument(f"C{5000000 + i}", rng.choice(["kb", "kb2"]), f"t{i}",
                       " ".join(rng.choices(_WORDS, k=rng.randint(1, 40))))
            for i in range(kb.CHUNK_GROUP_SIZE + 1)]
    built = build_index(docs, _ScaledEmbedder(), params=ChunkParams(4, 1, 2))
    text = save_index(built)
    loaded = load_index(text)
    assert save_index(loaded) == text
    assert loaded.fingerprint == built.fingerprint
    assert loaded.matrix.tobytes() == built.matrix.tobytes()
    assert np.array_equal(loaded.spans, built.spans)
    lines = text.split("\n")[:-1]
    assert len(lines) == 1 + 2
    groups = _columns_records(text)
    assert [len(_column(r, "counts")) for r in groups] == [kb.CHUNK_GROUP_SIZE, 1]
    assert [len(r[name]) for r in groups for name in kb.ARTICLE_FIELDS] == (
        [kb.CHUNK_GROUP_SIZE] * 4 + [1] * 4)
    # doc ids must ascend across groups as within them
    with pytest.raises(ValueError, match=r"^line 3: article 'C5000000\|kb2?\|t256' repeats "
                                         "or is out of order$"):
        load_index(_retamper(text, lambda rs: rs[2]["cui"].__setitem__(0, "C5000000")))
    assert np.concatenate([_column(r, "counts") for r in groups]).tolist() == np.diff(
        built.offsets).tolist()
    # a bad span names the line of its own group's record
    for line_no in (len(lines) - 1, len(lines)):
        def reverse_first_span(records):
            spans = _column(records[line_no - 1], "spans").copy()
            spans[0] = spans[0, ::-1]
            _set_column(records[line_no - 1], spans=spans)

        with pytest.raises(ValueError, match=rf"^line {line_no}: bad columns record: span "
                                             rf"\[\d+, 0\] of article 'C\d+\|kb2?\|t"):
            load_index(_retamper(text, reverse_first_span))
    with pytest.raises(ValueError, match=f"^index has {kb.CHUNK_GROUP_SIZE} articles with "
                                         rf"chunks and \d+ chunks, its header says {len(docs)}"):
        load_index("\n".join(lines[:-1]) + "\n")
