"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[criterion] name: PASS`` / ``FAIL`` line so the
suite output doubles as a checklist. Expected values come from independent
in-test oracles (straight-line re-implementations, brute-force scans) or
from hand-checked arithmetic, never from the code under test.
"""

import hashlib
import itertools
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from adrcm.cli import run_e2e_mock
from adrcm.corpus import (
    Corpus,
    enumerate_candidate_pairs,
    gold_pair_labels,
    parse_pubtator,
)
from adrcm.dataset import SyntheticRecord, build_dataset, export_finetune, preset_for
from adrcm.evaluate import Scores, classify_locality, compute_report
from adrcm.infer import (
    InferenceConfig,
    PredictionRecord,
    assemble_prompt,
    build_instruction,
    retrieve_for_pair,
)
from adrcm.iors import IorsConfig, generate_synthetic
from adrcm.kb import ChunkParams, KbDocument, build_index, cosine, load_kb, retrieve
from adrcm.llm import HashingEmbedder, LlmGateway, RetryPolicy, ScriptedBackend
from adrcm.model import Entity, Mention
from conftest import load_toy_assets, make_sample
from http_stub import Reply

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


# --- 1. re-summarization loop vs straight-line oracle -----------------------

def _loop_oracle(pattern, beta):
    """Literal transcription of the accept/retry loop, no shared code."""
    failures = []
    for theta in range(beta):
        summary = f"Round {theta} summary of the case."
        if pattern[theta]:
            return (True, summary, theta + 1, tuple(failures), theta + 1, theta + 1)
        failures.append(summary)
    return (False, None, beta, tuple(failures), beta, beta)


def _check_loop_against_oracle(cdr_schema, chat_for):
    """Run every accept/reject pattern with the chat function ``chat_for(replies)``."""
    sample = make_sample(
        "10", ["Drugazol causes hives.", "Symptoms resolved."],
        [("H", "chemical", [(0, "Drugazol")]),
         ("T", "disease", [(0, "hives")])],
        [("H", "T", "CID")])
    rng = random.Random(20260814)
    patterns = []
    for beta in (1, 2, 3):
        patterns.extend((beta, p) for p in
                        itertools.product((True, False), repeat=beta))
    patterns.extend(
        (5, tuple(rng.random() < 0.4 for _ in range(5))) for _ in range(12))
    assert len(patterns) >= 20

    start = time.perf_counter()
    for beta, pattern in patterns:
        replies = []
        for theta in range(beta):
            replies.append(f"Round {theta} summary of the case.")
            replies.append("CID" if pattern[theta]
                           else rng.choice(("None", "no clear link")))
        result = generate_synthetic(
            chat_for(replies), sample.document, sample.entity("H"), sample.entity("T"),
            "CID", cdr_schema, IorsConfig(beta=beta))
        got = (result.accepted, result.summary, result.iterations_used,
               result.failures, result.iterations_used, result.confirmation_calls)
        assert got == _loop_oracle(pattern, beta), (beta, pattern)
    assert time.perf_counter() - start < 1.0


def test_criterion_1_synthesis_loop_matches_oracle(cdr_schema):
    with criterion("1 synthesis loop vs straight-line oracle"):
        _check_loop_against_oracle(
            cdr_schema, lambda replies: LlmGateway(ScriptedBackend(replies)).chat)


def test_synthesis_loop_driven_by_a_plain_function_matches_oracle(cdr_schema):
    def chat_for(replies):
        remaining = iter(replies)
        return lambda exchange: next(remaining)

    _check_loop_against_oracle(cdr_schema, chat_for)


# --- 2. augmented dataset vs brute-force multiset ----------------------------

def _random_corpus(rng, schema):
    samples = []
    for i in range(rng.randint(1, 10)):
        doc_id = f"{7000 + i}"
        n_chem = rng.randint(1, 3)
        n_dis = rng.randint(1, 3)
        entities, sentences = [], []
        for c in range(n_chem):
            sentences.append(f"Chemalin{i}{c} was administered.")
            entities.append((f"C{c}", "chemical",
                             [(len(sentences) - 1, f"Chemalin{i}{c}")]))
        for d in range(n_dis):
            sentences.append(f"Malady{i}{d} was observed.")
            entities.append((f"D{d}", "disease",
                             [(len(sentences) - 1, f"Malady{i}{d}")]))
        pairs = [(f"C{c}", f"D{d}") for c in range(n_chem) for d in range(n_dis)]
        chosen = rng.sample(pairs, rng.randint(0, min(5, len(pairs))))
        samples.append(make_sample(doc_id, sentences, entities,
                                   [(h, t, "CID") for h, t in chosen]))
    return Corpus(schema, tuple(samples))


def test_criterion_2_dataset_matches_bruteforce(cdr_schema):
    with criterion("2 augmented dataset vs brute-force multiset"):
        rng = random.Random(5)
        start = time.perf_counter()
        for _ in range(25):
            corpus = _random_corpus(rng, cdr_schema)
            synthetic = []
            for s in corpus.samples:
                for t in s.triplets:
                    if rng.random() < 0.6:
                        synthetic.append(SyntheticRecord(
                            s.document.doc_id, t.head_id, t.tail_id, t.relation,
                            f"{t.head_id} led to {t.tail_id} in {s.document.doc_id}."))
            records = build_dataset(corpus, synthetic)

            expected = Counter()
            for s in corpus.samples:
                for t in s.triplets:
                    expected[(s.document.doc_id, t.head_id, t.tail_id,
                              t.relation, s.document.text, "original")] += 1
            for rec in synthetic:
                expected[(rec.doc_id, rec.head_id, rec.tail_id,
                          rec.relation, rec.summary, "synthetic")] += 1
            got = Counter((r.doc_id, r.head_id, r.tail_id, r.relation,
                           r.text, r.provenance) for r in records)
            assert got == expected
            n_triplets = sum(len(s.triplets) for s in corpus.samples)
            assert len(records) == n_triplets + len(synthetic)
        assert time.perf_counter() - start < 1.0


# --- 3. scoped retrieval vs brute-force cosine scan --------------------------

def _entity(name, cui):
    return Entity("E0", "chemical", name, (Mention(name, 0, (0, len(name))),), cui)


def _brute_retrieve(index, qvec, head, tail, k, cui_scoped):
    def in_scope(chunk, ent):
        _, _, cui, _, title, _ = chunk
        if ent.cui is not None:
            return cui == ent.cui
        return title.casefold() == ent.canonical_name.casefold()

    chunks = [index.chunk(row) for row in range(len(index))]
    eligible = [row for row, chunk in enumerate(chunks)
                if not cui_scoped or in_scope(chunk, head) or in_scope(chunk, tail)]
    scored = sorted((-cosine(qvec, index.matrix[row]), row) for row in eligible)
    return [(chunks[row][0], -neg) for neg, row in scored[:k]]


def test_criterion_3_retrieval_matches_bruteforce():
    with criterion("3 scoped retrieval vs brute-force scan"):
        rng = random.Random(17)
        vocab = ["alpha", "beta", "gamma", "delta", "kinase", "lesion"]
        embedder = HashingEmbedder()
        start = time.perf_counter()
        for trial in range(100):
            n_docs = rng.randint(1, 10)
            docs = []
            for i in range(n_docs):
                tokens = rng.choices(vocab, k=rng.randint(3, 60))
                docs.append(KbDocument(f"C{1000000 + i}", "kb",
                                       f"concept {trial}-{i}", " ".join(tokens)))
            index = build_index(docs, embedder, params=ChunkParams(8, 2, 2))

            def rand_entity():
                mode = rng.random()
                if mode < 0.5:
                    return _entity("whatever", rng.choice(docs).cui)
                if mode < 0.65:
                    return _entity("whatever", "C0999999")
                if mode < 0.9:
                    title = rng.choice(docs).title
                    if rng.random() < 0.5:
                        title = title.upper()
                    return _entity(title, None)
                return _entity("no such concept", None)

            head, tail = rand_entity(), rand_entity()
            qvec = embedder.embed_one(" ".join(rng.choices(vocab, k=5)))
            k = rng.randint(1, 8)
            scoped = rng.random() < 0.8
            got = [(s.chunk_id, s.score)
                   for s in retrieve(index, qvec, head, tail, k=k, cui_scoped=scoped)]
            assert got == _brute_retrieve(index, qvec, head, tail, k, scoped), trial
        assert time.perf_counter() - start < 5.0


# --- 4. scorer reproduces the recorded headline arithmetic -------------------

def test_criterion_4_metric_fidelity(cdr_schema):
    with criterion("4 scorer arithmetic incl. recorded P/R/F1 point"):
        # small sets against hand arithmetic first
        s = Scores.from_counts(3, 1, 2)
        assert (s.precision, s.recall) == (3 / 4, 3 / 5)
        assert s.f1 == 2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5)
        z = Scores.from_counts(0, 0, 0)
        assert (z.precision, z.recall, z.f1) == (0.0, 0.0, 0.0)

        # one big document realizing tp=13366 fp=3034 fn=7009:
        # 160 chemicals x 150 diseases = 24000 pairs, 20375 gold positives
        chems = [f"CH{i:04d}" for i in range(160)]
        dises = [f"DD{i:04d}" for i in range(150)]
        sentences, entities = [], []
        for j, cid in enumerate(chems):
            sentences.append(f"Agent{j:04d} was given.")
            entities.append((cid, "chemical", [(len(sentences) - 1, f"Agent{j:04d}")]))
        for j, did in enumerate(dises):
            sentences.append(f"Event{j:04d} occurred.")
            entities.append((did, "disease", [(len(sentences) - 1, f"Event{j:04d}")]))
        pairs = sorted((c, d) for c in chems for d in dises)
        gold_positive = pairs[:20375]
        sample = make_sample("42", sentences, entities,
                             [(h, t, "CID") for h, t in gold_positive])
        corpus = Corpus(cdr_schema, (sample,))

        predictions = []
        for i, (h, t) in enumerate(pairs):
            if i < 13366:
                label = "CID"          # gold CID -> tp
            elif i < 20375:
                label = "None"         # gold CID -> fn
            elif i < 20375 + 3034:
                label = "CID"          # gold None -> fp
            else:
                label = "None"         # gold None -> tn
            predictions.append(PredictionRecord("42", h, t, label, label, (), False))

        report = compute_report(corpus, predictions)
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == (13366, 3034, 7009)
        assert report.micro.precision == 0.815
        assert report.micro.recall == 0.656
        assert abs(report.micro.f1 - 0.727) < 5e-4


# --- 5. fine-tune presets carry the recorded hyperparameters -----------------

def test_criterion_5_preset_fidelity(cdr_schema):
    with criterion("5 preset hyperparameter fidelity"):
        expectations = {"cdr": (16, 32), "gda": (64, 16), "biored": (64, 16)}
        sample = make_sample(
            "11", ["Aximol causes chills.", "Chills passed."],
            [("H", "chemical", [(0, "Aximol")]),
             ("T", "disease", [(0, "chills")])],
            [("H", "T", "CID")])
        corpus = Corpus(cdr_schema, (sample,))
        records = build_dataset(corpus, ())
        for name, (rank, alpha) in expectations.items():
            preset = preset_for(name)
            assert (preset.lora_rank, preset.lora_alpha) == (rank, alpha), name
            assert preset.learning_rate == 2e-4
            assert preset.lora_dropout == 0.1
            assert preset.base_model_id == "LLaMA2-7B-Chat"
            sidecar = export_finetune(corpus, records, preset).sidecar
            assert sidecar["lora_rank"] == rank
            assert sidecar["lora_alpha"] == alpha
            assert sidecar["learning_rate"] == 2e-4
            assert sidecar["lora_dropout"] == 0.1
            assert sidecar["iors_beta"] == 3
            assert sidecar["base_model_id"] == "LLaMA2-7B-Chat"


# --- 6. offline end-to-end runs are byte-identical and resumable -------------

def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _stub_reply(request) -> Reply:
    """A pure function of the request text: a confirmation accepts, or a pair gets
    its label, for about two prompts in three."""
    prompt = request.json["messages"][-1]["content"]
    label = "CID" if hashlib.sha256(prompt.encode()).digest()[0] % 3 else "Not stated."
    return Reply(body={"choices": [{"message": {"content": label}}]})


def _adrcm(stub, argv: list[str], workdir: Path, *,
           kill_at: int | None = None) -> tuple[int, int]:
    """``(return code, stub requests)`` of ``adrcm argv``, writing ``workdir/out.jsonl``
    through the reply cache ``workdir/cache``, run as a process against ``stub``.
    On its request number ``kill_at``, the stub sends that process SIGKILL."""
    stub.requests.clear()
    ordinals = itertools.count(1)
    processes = []

    def script(request):
        if next(ordinals) == kill_at:
            processes[0].kill()
        return _stub_reply(request)

    stub.script = script
    processes.append(subprocess.Popen(
        [sys.executable, "-m", "adrcm.cli", *argv, "--out", str(workdir / "out.jsonl"),
         "--chat-url", stub.url, "--cache-dir", str(workdir / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))))
    _, err = processes[0].communicate(timeout=60)
    assert processes[0].returncode in (0, -signal.SIGKILL), err
    return processes[0].returncode, len(stub.requests)


def test_criterion_6_determinism_and_resume(tmp_path, http_stub):
    with criterion("6 byte-identical e2e runs incl. kill-and-resume"):
        start = time.perf_counter()
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        first = run_e2e_mock(str(run_a))
        run_e2e_mock(str(run_b))
        assert _tree(run_a) == _tree(run_b)

        # Resume e2e-mock from half of its cache, its stage outputs gone.
        for entry in sorted((run_a / "cache").glob("*.json"))[::2]:
            entry.unlink()
        for path in first.values():
            os.remove(path)
        run_e2e_mock(str(run_a))
        assert _tree(run_a) == _tree(run_b)

        # Kill real synth and infer processes mid-run, then resume each.
        corpus = ["--corpus", str(run_b / "corpus.jsonl")]
        for stage, argv in (("synth", ["synth", *corpus]),
                            ("infer", ["infer", *corpus, "--rag", "cui",
                                       "--index", str(run_b / "index.jsonl")])):
            whole, killed = tmp_path / f"{stage}_whole", tmp_path / f"{stage}_killed"
            status, total = _adrcm(http_stub, argv, whole)
            assert (status, total) == (0, len(list((whole / "cache").iterdir()))), stage
            assert total >= 16, stage
            assert _adrcm(http_stub, argv, killed, kill_at=16)[0] == -signal.SIGKILL, stage
            assert [p.name for p in killed.iterdir()] == ["cache"], stage
            cached = len(list((killed / "cache").glob("*.json")))
            assert _adrcm(http_stub, argv, killed) == (0, total - cached), stage
            assert (killed / "out.jsonl").read_bytes() == (whole / "out.jsonl").read_bytes()
            assert all(p.suffix == ".json" for p in (killed / "cache").iterdir()), stage
        assert time.perf_counter() - start < 30.0


# --- 7. retrieval ablations are wired and produce the frozen prompts ---------

def test_criterion_7_ablation_prompts_match_golden(toy_corpus, toy_index, cdr_schema, tmp_path):
    with criterion("7 ablation flags and golden prompts"):
        sample = next(s for s in toy_corpus.samples
                      if s.document.doc_id == "90001")
        head, tail = sample.entity("D90001"), sample.entity("D80001")
        gateway = LlmGateway(ScriptedBackend({}), HashingEmbedder(),
                             retry=RetryPolicy(1, 0.0))
        instruction = build_instruction(cdr_schema)
        for mode in ("cui", "chunks", "off"):
            config = InferenceConfig(rag_mode=mode)
            snippets = retrieve_for_pair(gateway, toy_index, cdr_schema,
                                         head, tail, config)
            prompt = assemble_prompt(instruction, sample.document.text,
                                     head.canonical_name, tail.canonical_name,
                                     snippets)
            frozen = (GOLDEN / f"prompt_{mode}.txt").read_bytes()
            assert prompt.encode("utf-8") == frozen, mode
            if mode == "cui":
                assert all(s.cui in (head.cui, tail.cui) for s in snippets)
            elif mode == "chunks":
                assert any(s.cui not in (head.cui, tail.cui) for s in snippets)
            else:
                assert snippets == []
                assert "Relevant snippets" not in prompt

        # both ablations stay reachable through the command line
        from adrcm.cli import main
        for mode in ("chunks", "off"):
            assert main(["e2e-mock", "--workdir", str(tmp_path / mode),
                         "--rag", mode]) == 0
            assert (tmp_path / mode / "report.json").exists()


# --- 8. intra/inter partition covers gold and matches hand labels ------------

def test_criterion_8_locality_partition(toy_corpus):
    with criterion("8 intra/inter partition"):
        predictions = tuple(
            PredictionRecord(doc, head, tail, label, label, (), False)
            for (doc, head, tail), label
            in sorted(gold_pair_labels(toy_corpus).items()))
        report = compute_report(toy_corpus, predictions)
        assert report.gold_positives == 11
        assert report.intra_gold + report.inter_gold == report.gold_positives
        assert (report.intra_gold, report.inter_gold) == (10, 1)

        sample = make_sample(
            "900",
            ["Axitol causes rash.", "It is common.",
             "Bovitan causes edema.", "Edema faded."],
            [("C1", "chemical", [(0, "Axitol")]),
             ("C2", "chemical", [(0, "Axitol"), (2, "Bovitan")]),
             ("C3", "chemical", [(1, "common")]),
             ("D1", "disease", [(0, "rash")]),
             ("D2", "disease", [(2, "edema"), (3, "Edema")])])
        labeled = [
            ("C1", "D1", "intra"),   # {0} vs {0}
            ("C1", "D2", "inter"),   # {0} vs {2,3}
            ("C2", "D2", "intra"),   # {0,2} vs {2,3}
            ("C3", "D1", "inter"),   # {1} vs {0}
            ("C2", "D1", "intra"),   # {0,2} vs {0}
        ]
        for head, tail, expected in labeled:
            assert classify_locality(sample, head, tail) == expected, (head, tail)


# --- toy corpus sanity backing several criteria ------------------------------

def test_toy_assets_parse_cleanly(cdr_schema):
    pubtator, cui_map, kb_text = load_toy_assets()
    corpus = parse_pubtator(pubtator, cdr_schema, cui_map=cui_map,
                            dataset_tag="CDR")
    assert len(corpus.samples) == 10
    assert sum(len(s.triplets) for s in corpus.samples) == 11
    pairs = sum(len(enumerate_candidate_pairs(s, cdr_schema))
                for s in corpus.samples)
    assert pairs == 16
    assert len(load_kb(kb_text)) == 24
