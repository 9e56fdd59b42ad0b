"""Output checks for benchmark runs.

Every check returns a list of failure messages; an empty list means the
output is correct. Expected values come from the scale-up generator and the
compiled script, not from the stage under test.
"""

from __future__ import annotations

import numpy as np

from adrcm.infer import pair_query_text
from adrcm.llm import HashingEmbedder

from scaleup import NONE_LABEL, ScaledInputs

SCORE_TOLERANCE = 1e-9


def _key(record) -> tuple[str, str, str]:
    return (record.doc_id, record.head_id, record.tail_id)


def check_coverage(predictions, inputs: ScaledInputs) -> list[str]:
    """Predictions cover the candidate pairs exactly, once each."""
    got = [_key(p) for p in predictions]
    want = {_key(p) for p in inputs.pairs}
    missing, extra = want - set(got), set(got) - want
    failures = []
    if len(set(got)) != len(got):
        failures.append(f"coverage: {len(got) - len(set(got))} duplicate predictions")
    if missing or extra:
        failures.append(f"coverage: {len(missing)} pairs missing, {len(extra)} unexpected")
    return failures


def check_predictions(predictions, expected) -> list[str]:
    """Each prediction equals the one the script implies for its pair."""
    wrong = []
    for p in predictions:
        want = expected.get(_key(p))
        if want is None:
            continue
        got = (p.label, p.unparseable, p.raw_output, tuple(p.snippets_used))
        if got != (want.label, want.unparseable, want.raw_output, want.snippet_ids):
            wrong.append(_key(p))
    if wrong:
        return [f"predictions: {len(wrong)} differ from the script, first {wrong[0]}"]
    return []


def implied_micro_f1(inputs: ScaledInputs, expected) -> float:
    tp = fp = fn = 0
    for pair in inputs.pairs:
        label = expected[_key(pair)].label
        if label != NONE_LABEL:
            tp += label == pair.gold
            fp += label != pair.gold
        if pair.gold != NONE_LABEL and label != pair.gold:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def check_micro_f1(report: dict, inputs: ScaledInputs, expected) -> list[str]:
    got = report["micro"]["f1"]
    want = implied_micro_f1(inputs, expected)
    if abs(got - want) > SCORE_TOLERANCE:
        return [f"eval: micro F1 {got!r}, script implies {want!r}"]
    return []


def check_synthesis(records, report: dict, expected) -> list[str]:
    failures = []
    got = {_key(r): r.summary for r in records}
    if got != expected.accepted:
        failures.append(f"synthesis: {len(got)} accepted summaries, "
                        f"script implies {len(expected.accepted)}")
    counts = (report["accepted"], report["discarded"], report["summary_calls"],
              report["confirmation_calls"], len(report["errors"]))
    want = (len(expected.accepted), len(expected.discarded), expected.summary_calls,
            expected.confirmation_calls, 0)
    if counts != want:
        failures.append(f"synthesis report: (accepted, discarded, summary calls, "
                        f"confirmation calls, errors) = {counts}, expected {want}")
    return failures


def check_identical(artifacts: dict[str, bytes], reference: dict[str, bytes],
                    what: str) -> list[str]:
    differing = sorted(name for name in reference if artifacts.get(name) != reference[name])
    if differing or set(artifacts) != set(reference):
        return [f"artifacts differ from {what}: {differing or sorted(set(artifacts) ^ set(reference))}"]
    return []


class CosineOracle:
    """Brute-force cosine ranking over every chunk of an index."""

    def __init__(self, index):
        self.index = index
        self.ids = sorted(index.chunks)
        matrix = np.stack([index.chunks[c].vector for c in self.ids])
        self.matrix = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        docs = [index.documents[index.chunks[c].doc_id] for c in self.ids]
        self.cuis = np.array([d.cui for d in docs])
        self.titles = np.array([d.title.casefold() for d in docs])

    def ranked(self, query: np.ndarray, scope) -> list[tuple[str, float]]:
        scores = self.matrix @ (query / np.linalg.norm(query))
        if scope is None:
            rows = range(len(self.ids))
        else:
            mask = np.zeros(len(self.ids), dtype=bool)
            for entity in scope:
                mask |= (self.cuis == entity.cui) if entity.cui is not None else (
                    self.titles == entity.canonical_name.casefold())
            rows = np.flatnonzero(mask)
        return sorted(((self.ids[i], float(scores[i])) for i in rows),
                      key=lambda item: (-item[1], item[0]))


def check_retrieval(oracle: CosineOracle, corpus, predictions, keys, k: int,
                    scoped: bool) -> list[str]:
    """The snippets of the sampled pairs are a top-k of the oracle's ranking.

    Ids must match exactly, except that chunks whose scores agree within
    ``SCORE_TOLERANCE`` may trade places: the two sides sum in different
    orders, so exact ties can break either way.
    """
    samples = {s.document.doc_id: s for s in corpus.samples}
    by_key = {_key(p): p for p in predictions}
    embedder = HashingEmbedder(oracle.index.dimension)
    bad = []
    for key in keys:
        sample = samples[key[0]]
        head, tail = sample.entity(key[1]), sample.entity(key[2])
        query = embedder.embed_one(pair_query_text(corpus.schema, head, tail))
        ranking = oracle.ranked(query, (head, tail) if scoped else None)
        got = list(by_key[key].snippets_used) if key in by_key else None
        want = ranking[:k]
        if got == [cid for cid, _ in want]:
            continue
        scores = dict(ranking)
        if (got is None or len(got) != len(want) or len(set(got)) != len(got)
                or any(cid not in scores for cid in got)
                or any(abs(scores[g] - s) > SCORE_TOLERANCE for g, (_, s) in zip(got, want))):
            bad.append(key)
    if bad:
        return [f"retrieval: {len(bad)} of {len(keys)} sampled pairs disagree with "
                f"the cosine oracle, first {bad[0]}"]
    return []


def check_scaled_corpus(corpus, inputs: ScaledInputs) -> list[str]:
    failures = []
    if corpus.violations:
        failures.append(f"ingest: {len(corpus.violations)} violations, "
                        f"first {corpus.violations[0]!r}")
    want_docs = len(inputs.doc_copy)
    if len(corpus.samples) != want_docs:
        failures.append(f"ingest: {len(corpus.samples)} documents, expected {want_docs}")
    return failures


def check_cuis_reach_own_copy(corpus, index, inputs: ScaledInputs) -> list[str]:
    """Every linked entity's CUI belongs to its document's copy and, where the
    toy KB has an article for it, reaches that copy's article."""
    indexed = {doc.cui for doc in index.documents.values()}
    bad = []
    for sample in corpus.samples:
        copy = inputs.doc_copy[sample.document.doc_id]
        for entity in sample.entities:
            if entity.cui is None:
                continue
            if (inputs.cui_copy.get(entity.cui) != copy
                    or (entity.cui in inputs.kb_cuis) != (entity.cui in indexed)):
                bad.append((sample.document.doc_id, entity.entity_id))
    if bad:
        return [f"cui scoping: {len(bad)} entities do not reach their own KB copy, "
                f"first {bad[0]}"]
    return []


def check_index_roundtrip(built, loaded, sample_ids) -> list[str]:
    """The loaded index equals the built one, and sampled vectors equal a
    fresh embedding of their chunk text."""
    failures = []
    if loaded.fingerprint != built.fingerprint or sorted(loaded.chunks) != sorted(built.chunks):
        failures.append("index: loaded index differs from the built one")
    elif any(not np.array_equal(loaded.chunks[c].vector, built.chunks[c].vector)
             for c in built.chunks):
        failures.append("index: loaded vectors differ from the built ones")
    embedder = HashingEmbedder(built.dimension)
    off = [c for c in sample_ids
           if not np.allclose(built.chunks[c].vector,
                              embedder.embed_one(built.chunks[c].text), rtol=0, atol=1e-12)]
    if off:
        failures.append(f"index: {len(off)} sampled vectors differ from their text's "
                        f"embedding, first {off[0]}")
    return failures
