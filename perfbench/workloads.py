"""The benchmark's workloads.

Every workload drives the pipeline through the public functions that
``adrcm.cli`` calls, stage by stage and through files, with an
``LlmGateway`` the harness builds itself (``run_e2e_mock`` and
``mock_gateway`` fix ``max_in_flight=1`` and a backend with no latency).

- ``e2e_latency``: ingest -> synth (beta 3) -> build-adrcm -> index ->
  infer ``--rag cui`` -> eval on ten copies of the toy corpus, cold reply
  cache, ``max_in_flight=2``, 20 ms per live chat call. The dependent
  synthesis rounds and cache writes on every miss dominate; retrieval is
  scoped and cheap.
- ``infer_unscoped_warm``: infer ``--rag chunks``, k 5, for the 32 pairs of
  two corpus copies against 200 KB copies, with the reply cache warmed in
  set-up. Brute-force retrieval and cache reads dominate.
- ``ingest_index``: ingest 200 corpus copies, then load, chunk, embed, save
  and reload the 200-copy KB. The write side of the index; no chat calls.

Set-up (``setup_s``) is what the program does before the timed phase on
every invocation: for ``infer_unscoped_warm`` loading the corpus and the
index; for the other two, starting a fresh interpreter that imports
``adrcm.cli`` plus loading the chat script or reading the inputs. The
in-process loads alone take well under a millisecond to ten milliseconds,
too little to time steadily. Generating inputs and compiling the script
is harness work and is not timed.

Set-up and the timed phases of ``infer_unscoped_warm`` and ``ingest_index``
are measured with ``speed.timed``, which rescales their CPU time to a fixed
reference speed of the host; the timed phase of ``e2e_latency``, nearly all
of it injected latency, is reported as measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import adrcm
from adrcm.corpus import builtin_schema, load_corpus, parse_cui_map, parse_pubtator, save_corpus
from adrcm.dataset import build_dataset, export_finetune, preset_for, save_dataset, save_finetune_rows
from adrcm.evaluate import compute_report, report_to_dict, save_report
from adrcm.files import atomic_write_text, read_text
from adrcm.infer import InferenceConfig, load_predictions, predict_corpus, save_predictions
from adrcm.iors import IorsConfig, load_synthetic, run_corpus_synthesis, save_synthetic
from adrcm.kb import ChunkParams, build_index, load_index, load_kb, save_index
from adrcm.llm import HashingEmbedder, LlmGateway, RetryPolicy, ScriptedBackend

import checks
from scaleup import ScaledInputs, scale_up
from scripted import LatencyBackend, Script, compile_inference, compile_synthesis
from speed import Timing, timed
from tracing import Tracer

# The chunk parameters of the packaged toy KB.
CHUNK_PARAMS = ChunkParams(size=48, overlap=8, min_tail=8)
BETA = 3
K = 5
LATENCY_S = 0.020
MAX_IN_FLIGHT = 2
ORACLE_SAMPLE = 32
SRC = os.path.dirname(os.path.dirname(os.path.abspath(adrcm.__file__)))


@dataclass
class Iteration:
    """One timed pass of a workload and what its checks need."""

    timing: Timing
    units: int
    failed_units: int = 0
    counts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.timing.ref_wall_s

    @property
    def cpu_s(self) -> float:
        """User CPU at the reference speed.

        System time is left out: on a 2-vCPU VM it varied threefold between
        identical iterations (file creation and timer wake-ups), while user
        time, the Python overhead, stayed within 10%.
        """
        return self.timing.ref_user_s


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_inputs(inputs: ScaledInputs, directory: str) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, name)
             for name in ("corpus.pubtator", "cui_map.tsv", "kb.jsonl")}
    for name, text in zip(paths, (inputs.pubtator, inputs.cui_map, inputs.kb)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


class Stages:
    """Stage calls as the CLI makes them, each inside a span for its layer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def write(self, path: str, text: str) -> None:
        with self.tracer.span("files.write") as span:
            atomic_write_text(path, text)
        if span is not None:
            span.attrs["bytes"] = os.path.getsize(path)

    def gateway(self, backend, cache_dir: str, max_in_flight: int) -> LlmGateway:
        gateway = LlmGateway(backend, HashingEmbedder(), cache_dir=cache_dir,
                             retry=RetryPolicy(), max_in_flight=max_in_flight)
        self.tracer.instrument_gateway(gateway)
        return gateway

    def ingest(self, pubtator: str, cui_map: dict, schema, out: str):
        with self.tracer.span("corpus.parse"):
            corpus = parse_pubtator(pubtator, schema, cui_map=cui_map, dataset_tag="CDR")
            text = save_corpus(corpus)
        self.write(out, text)
        return corpus

    def load_corpus(self, path: str):
        with self.tracer.span("corpus.load"):
            return load_corpus(read_text(path))

    def index(self, kb_text: str, out: str):
        embedder = HashingEmbedder()
        self.tracer.instrument_embedder(embedder)
        with self.tracer.span("kb.build"):
            index = build_index(load_kb(kb_text), embedder, params=CHUNK_PARAMS)
        with self.tracer.span("kb.save"):
            text = save_index(index)
        self.write(out, text)
        return index

    def load_index(self, path: str):
        with self.tracer.span("kb.load"):
            return load_index(read_text(path))

    def infer(self, gateway, index, corpus, rag_mode: str, out: str):
        with self.tracer.span("infer.predict"):
            predictions = predict_corpus(gateway, index, corpus,
                                         InferenceConfig(k=K, rag_mode=rag_mode))
            text = save_predictions(predictions)
        self.write(out, text)
        return predictions


def _start_cli() -> None:
    """A fresh interpreter importing the CLI, as every command starts."""
    subprocess.run([sys.executable, "-c", "import adrcm.cli"], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": SRC})


class E2eLatency:
    """The full chain on ten corpus copies against a 20 ms chat backend."""

    name = "e2e_latency"
    setup_repeats = 5
    latency_s = LATENCY_S
    artifacts = ("corpus.jsonl", "synthetic.jsonl", "synth_report.json", "dataset.jsonl",
                 "finetune.jsonl", "finetune_meta.json", "index.jsonl",
                 "predictions.jsonl", "report.json")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.inputs = scale_up(self.seed, 10)
        self.paths = _write_inputs(self.inputs, os.path.join(self.workdir, "inputs"))
        schema = builtin_schema("cdr")
        corpus = parse_pubtator(self.inputs.pubtator, schema,
                                cui_map=parse_cui_map(self.inputs.cui_map), dataset_tag="CDR")
        index = build_index(load_kb(self.inputs.kb), HashingEmbedder(), params=CHUNK_PARAMS)
        script = Script()
        self.expected_synthesis = compile_synthesis(corpus, IorsConfig(beta=BETA), script)
        self.expected = compile_inference(corpus, index, self.inputs.pairs,
                                          InferenceConfig(k=K, rag_mode="cui"), script)
        self.live_calls = len(script.exchanges)
        self.script_path = os.path.join(self.workdir, "script.json")
        with open(self.script_path, "w", encoding="utf-8") as fh:
            json.dump({"by_hash": script.replies}, fh, sort_keys=True)
        self.oracle = checks.CosineOracle(index)
        keys = [(p.doc_id, p.head_id, p.tail_id) for p in self.inputs.pairs]
        self.oracle_keys = random.Random(self.seed).sample(keys, ORACLE_SAMPLE)
        # The sequential reference: one call in flight and no latency.
        reference = os.path.join(self.workdir, "reference")
        self._chain(Stages(Tracer(False)), reference,
                    LatencyBackend(ScriptedBackend(script.replies), 0.0), 1)
        self.reference = {n: _digest(os.path.join(reference, n)) for n in self.artifacts}

    def setup(self, tracer: Tracer) -> None:
        _start_cli()
        self.scripted = ScriptedBackend.from_file(self.script_path)

    def _chain(self, stages: Stages, out: str, backend, max_in_flight: int) -> dict:
        path = {name: os.path.join(out, name) for name in self.artifacts}
        schema = builtin_schema("cdr")
        cui_map = parse_cui_map(read_text(self.paths["cui_map.tsv"]))
        stages.ingest(read_text(self.paths["corpus.pubtator"]), cui_map, schema,
                      path["corpus.jsonl"])
        gateway = stages.gateway(backend, os.path.join(out, "cache"), max_in_flight)

        corpus = stages.load_corpus(path["corpus.jsonl"])
        with stages.tracer.span("iors.synthesis"):
            synthesis = run_corpus_synthesis(gateway, corpus, IorsConfig(beta=BETA))
            synthetic_text = save_synthetic(synthesis.records)
            report_text = json.dumps({
                "accepted": synthesis.accepted_count,
                "discarded": synthesis.discarded_count,
                "errors": list(synthesis.errors),
                "summary_calls": synthesis.summary_calls,
                "confirmation_calls": synthesis.confirmation_calls,
            }, sort_keys=True, indent=2) + "\n"
        stages.write(path["synthetic.jsonl"], synthetic_text)
        stages.write(path["synth_report.json"], report_text)

        corpus = stages.load_corpus(path["corpus.jsonl"])
        with stages.tracer.span("dataset.build"):
            records = build_dataset(corpus, load_synthetic(read_text(path["synthetic.jsonl"])))
            export = export_finetune(corpus, records, preset_for("cdr"), iors_beta=BETA,
                                     negative_ratio=1.0, seed=0)
            texts = (save_dataset(records), save_finetune_rows(export.rows),
                     json.dumps(export.sidecar, sort_keys=True, indent=2) + "\n")
        for name, text in zip(("dataset.jsonl", "finetune.jsonl", "finetune_meta.json"), texts):
            stages.write(path[name], text)

        stages.index(read_text(self.paths["kb.jsonl"]), path["index.jsonl"])

        corpus = stages.load_corpus(path["corpus.jsonl"])
        index = stages.load_index(path["index.jsonl"])
        predictions = stages.infer(gateway, index, corpus, "cui", path["predictions.jsonl"])

        corpus = stages.load_corpus(path["corpus.jsonl"])
        with stages.tracer.span("evaluate.report"):
            report = compute_report(corpus, load_predictions(read_text(path["predictions.jsonl"])))
            report_text = save_report(report)
        stages.write(path["report.json"], report_text)
        return {"synthesis": synthesis, "predictions": predictions, "corpus": corpus,
                "retries": gateway.stats.retries, "chunks": len(index.chunks),
                "index_bytes": os.path.getsize(path["index.jsonl"])}

    def iterate(self, tracer: Tracer, number: int) -> Iteration:
        out = os.path.join(self.workdir, f"iteration{number}")
        backend = LatencyBackend(self.scripted, self.latency_s)
        # 97% of this phase is the injected latency, and its short bursts
        # of CPU work between sleeps do not track the probe (see speed.py).
        result, timing = timed(lambda: self._chain(Stages(tracer), out, backend,
                                                   MAX_IN_FLIGHT), corrected=False)
        synthesis = result["synthesis"]
        calls = synthesis.summary_calls + synthesis.confirmation_calls
        missing = len(self.inputs.pairs) - len(
            {(p.doc_id, p.head_id, p.tail_id) for p in result["predictions"]})
        return Iteration(
            timing, units=len(self.inputs.positives) + len(self.inputs.pairs),
            failed_units=len(synthesis.errors) + max(missing, 0),
            counts={"chat_calls_live": backend.calls, "max_concurrent": backend.max_concurrent,
                    "retries": result["retries"], "chunks": result["chunks"],
                    "index_bytes": result["index_bytes"],
                    "calls_per_accepted_summary": calls / synthesis.accepted_count
                    if synthesis.accepted_count else 0.0},
            outputs={**result, "dir": out})

    def check(self, it: Iteration) -> list[str]:
        out = it.outputs
        artifacts = {n: _digest(os.path.join(out["dir"], n)) for n in self.artifacts}
        with open(os.path.join(out["dir"], "synth_report.json"), encoding="utf-8") as fh:
            synth_report = json.load(fh)
        with open(os.path.join(out["dir"], "report.json"), encoding="utf-8") as fh:
            eval_report = json.load(fh)
        failures = [
            *checks.check_identical(artifacts, self.reference, "the sequential reference"),
            *checks.check_synthesis(out["synthesis"].records, synth_report,
                                    self.expected_synthesis),
            *checks.check_coverage(out["predictions"], self.inputs),
            *checks.check_predictions(out["predictions"], self.expected),
            *checks.check_micro_f1(eval_report, self.inputs, self.expected),
            *checks.check_retrieval(self.oracle, out["corpus"], out["predictions"],
                                    self.oracle_keys, K, scoped=True),
        ]
        if it.counts["chat_calls_live"] != self.live_calls:
            failures.append(f"chat: {it.counts['chat_calls_live']} live calls on a cold "
                            f"cache, script has {self.live_calls} requests")
        return failures


class InferUnscopedWarm:
    """Unscoped retrieval over 200 KB copies with every reply already cached."""

    name = "infer_unscoped_warm"
    setup_repeats = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.inputs = scale_up(self.seed, 2, 200)
        paths = _write_inputs(self.inputs, os.path.join(self.workdir, "inputs"))
        stages = Stages(Tracer(False))
        self.corpus_path = os.path.join(self.workdir, "corpus.jsonl")
        self.index_path = os.path.join(self.workdir, "index.jsonl")
        corpus = stages.ingest(read_text(paths["corpus.pubtator"]),
                               parse_cui_map(read_text(paths["cui_map.tsv"])),
                               builtin_schema("cdr"), self.corpus_path)
        index = stages.index(read_text(paths["kb.jsonl"]), self.index_path)
        script = Script()
        self.expected = compile_inference(corpus, index, self.inputs.pairs,
                                          InferenceConfig(k=K, rag_mode="chunks"), script)
        self.scripted = ScriptedBackend(script.replies)
        self.cache_dir = os.path.join(self.workdir, "cache")
        warm = LlmGateway(self.scripted, HashingEmbedder(), cache_dir=self.cache_dir)
        for exchange in script.exchanges:
            warm.chat(exchange)
        self.oracle = checks.CosineOracle(index)
        keys = [(p.doc_id, p.head_id, p.tail_id) for p in self.inputs.pairs]
        self.oracle_keys = random.Random(self.seed).sample(keys, ORACLE_SAMPLE)
        self.first_digest = None

    def setup(self, tracer: Tracer) -> None:
        stages = Stages(tracer)
        self.corpus = stages.load_corpus(self.corpus_path)
        self.index = stages.load_index(self.index_path)

    def iterate(self, tracer: Tracer, number: int) -> Iteration:
        stages = Stages(tracer)
        out = os.path.join(self.workdir, f"predictions{number}.jsonl")
        backend = LatencyBackend(self.scripted, 0.0)

        def run():
            gateway = stages.gateway(backend, self.cache_dir, MAX_IN_FLIGHT)
            return stages.infer(gateway, self.index, self.corpus, "chunks", out), gateway

        (predictions, gateway), timing = timed(run)
        missing = len(self.inputs.pairs) - len(
            {(p.doc_id, p.head_id, p.tail_id) for p in predictions})
        return Iteration(
            timing, units=len(self.inputs.pairs), failed_units=max(missing, 0),
            counts={"chat_calls_live": backend.calls, "max_concurrent": backend.max_concurrent,
                    "retries": gateway.stats.retries, "index_bytes": os.path.getsize(
                        self.index_path), "chunks": len(self.index.chunks)},
            outputs={"predictions": predictions, "path": out})

    def check(self, it: Iteration) -> list[str]:
        predictions = it.outputs["predictions"]
        digest = _digest(it.outputs["path"])
        self.first_digest = self.first_digest or digest
        failures = [
            *checks.check_identical({"predictions.jsonl": digest},
                                    {"predictions.jsonl": self.first_digest},
                                    "the first iteration"),
            *checks.check_coverage(predictions, self.inputs),
            *checks.check_predictions(predictions, self.expected),
            *checks.check_micro_f1(report_to_dict(compute_report(self.corpus, predictions)),
                                   self.inputs, self.expected),
            *checks.check_retrieval(self.oracle, self.corpus, predictions,
                                    self.oracle_keys, K, scoped=False),
        ]
        if it.counts["chat_calls_live"]:
            failures.append(f"chat: {it.counts['chat_calls_live']} live calls on a warm cache")
        return failures


class IngestIndex:
    """Parse 200 corpus copies, then build, save and reload a 200-copy index."""

    name = "ingest_index"
    setup_repeats = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        self.inputs = scale_up(self.seed, 200, 200)
        self.paths = _write_inputs(self.inputs, os.path.join(self.workdir, "inputs"))
        self.first_digests = None

    def setup(self, tracer: Tracer) -> None:
        _start_cli()
        self.schema = builtin_schema("cdr")
        self.pubtator = read_text(self.paths["corpus.pubtator"])
        self.cui_map = parse_cui_map(read_text(self.paths["cui_map.tsv"]))
        self.kb_text = read_text(self.paths["kb.jsonl"])

    def iterate(self, tracer: Tracer, number: int) -> Iteration:
        stages = Stages(tracer)
        directory = os.path.join(self.workdir, f"iteration{number}")
        out = {name: os.path.join(directory, name) for name in ("corpus.jsonl", "index.jsonl")}

        def run():
            corpus = stages.ingest(self.pubtator, self.cui_map, self.schema, out["corpus.jsonl"])
            built = stages.index(self.kb_text, out["index.jsonl"])
            return corpus, built, stages.load_index(out["index.jsonl"])

        (corpus, built, loaded), timing = timed(run)
        return Iteration(
            timing, units=len(loaded.chunks),
            failed_units=len(set(built.chunks) - set(loaded.chunks)),
            counts={"index_bytes": os.path.getsize(out["index.jsonl"]),
                    "chunks": len(loaded.chunks)},
            outputs={"corpus": corpus, "built": built, "loaded": loaded, "paths": out,
                     "dir": directory})

    def check(self, it: Iteration) -> list[str]:
        out = it.outputs
        digests = {name: _digest(path) for name, path in out["paths"].items()}
        self.first_digests = self.first_digests or digests
        sample = random.Random(self.seed).sample(sorted(out["built"].chunks), ORACLE_SAMPLE)
        return [
            *checks.check_identical(digests, self.first_digests, "the first iteration"),
            *checks.check_scaled_corpus(out["corpus"], self.inputs),
            *checks.check_cuis_reach_own_copy(out["corpus"], out["loaded"], self.inputs),
            *checks.check_index_roundtrip(out["built"], out["loaded"], sample),
        ]


WORKLOADS = {w.name: w for w in (E2eLatency, InferUnscopedWarm, IngestIndex)}
