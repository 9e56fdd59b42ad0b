import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from adrcm.cli import _settings, build_parser, infer_stage, main
from adrcm.config import DEFAULTS
from adrcm.corpus import load_corpus
from adrcm.files import read_text
from adrcm.infer import InferenceConfig, load_predictions
from adrcm.kb import build_index, load_index, load_kb
from adrcm.llm import HashingEmbedder, LlmGateway, ScriptedBackend
from conftest import serving_stub
from http_stub import Reply


def _toy_path(name: str) -> str:
    return str(resources.files("adrcm.data.toy").joinpath(name))


@pytest.fixture()
def e2e_dir(tmp_path):
    work = tmp_path / "e2e"
    assert main(["e2e-mock", "--workdir", str(work)]) == 0
    return work


def test_e2e_mock_writes_all_artifacts(tmp_path, capsys):
    work = tmp_path / "e2e"
    assert main(["e2e-mock", "--workdir", str(work)]) == 0
    expected = {
        "corpus.jsonl", "mock_script.json", "synthetic.jsonl",
        "synth_report.json", "dataset.jsonl", "finetune.jsonl",
        "finetune_meta.json", "index.jsonl", "predictions.jsonl",
        "report.json",
    }
    assert expected <= {p.name for p in work.iterdir()}
    out = capsys.readouterr().out
    assert "micro P/R/F1:" in out
    report = json.loads((work / "report.json").read_text())
    assert report["counts"]["pairs"] == 16


def test_e2e_mock_takes_no_stage_settings(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["e2e-mock", "--workdir", str(tmp_path / "e2e"), "--beta", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --beta 1" in capsys.readouterr().err
    assert not (tmp_path / "e2e").exists()


def test_module_entry_point_runs_without_warnings(tmp_path):
    """``python -m adrcm.cli`` must not find adrcm.cli already imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "adrcm.cli",
         "e2e-mock", "--workdir", str(tmp_path / "e2e")],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_ingest_subcommand(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    rc = main([
        "ingest",
        "--input", _toy_path("toy_corpus.pubtator"),
        "--schema", "cdr",
        "--cui-map", _toy_path("toy_cui_map.tsv"),
        "--tag", "CDR",
        "--out", str(out),
    ])
    assert rc == 0
    corpus = load_corpus(out.read_text())
    assert len(corpus.samples) == 10
    assert "10 documents" in capsys.readouterr().out


GDA_PUBTATOR = (
    "7001|t|BRX1 variants in cardiomyopathy.\n"
    "7001\t0\t4\tBRX1\tGene\t5001\n"
    "7001\t17\t31\tcardiomyopathy\tDisease\tD70001\n"
    "7001\tGDA\t5001\tD70001\n")


def test_ingest_derives_tag_from_schema(tmp_path):
    pubtator = tmp_path / "gda.pubtator"
    pubtator.write_text(GDA_PUBTATOR)
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--input", str(pubtator), "--schema", "gda",
                 "--out", str(out)]) == 0
    corpus = load_corpus(out.read_text())
    assert json.loads(out.read_text().split("\n")[0])["dataset_tag"] == "GDA"
    assert corpus.dataset_tag == "GDA"


def test_manual_chain_matches_e2e_mock(tmp_path, e2e_dir):
    """Driving each stage through the CLI reproduces e2e-mock bytes."""
    corpus = tmp_path / "corpus.jsonl"
    index = tmp_path / "index.jsonl"
    synthetic = tmp_path / "synthetic.jsonl"
    finetune = tmp_path / "finetune.jsonl"
    predictions = tmp_path / "predictions.jsonl"
    report = tmp_path / "report.json"
    script = str(e2e_dir / "mock_script.json")

    assert main(["ingest", "--input", _toy_path("toy_corpus.pubtator"),
                 "--schema", "cdr", "--cui-map", _toy_path("toy_cui_map.tsv"),
                 "--tag", "CDR", "--out", str(corpus)]) == 0
    assert main(["index", "--kb", _toy_path("toy_kb.jsonl"), "--out", str(index),
                 "--chunk-size", "48", "--chunk-overlap", "8",
                 "--chunk-min-tail", "8"]) == 0
    assert main(["synth", "--corpus", str(corpus), "--out", str(synthetic),
                 "--script", script]) == 0
    assert main(["build-adrcm", "--corpus", str(corpus),
                 "--synthetic", str(synthetic), "--out", str(finetune)]) == 0
    assert main(["infer", "--corpus", str(corpus), "--index", str(index),
                 "--out", str(predictions), "--script", script]) == 0
    assert main(["eval", "--corpus", str(corpus),
                 "--predictions", str(predictions), "--out", str(report)]) == 0

    for name, path in (("corpus.jsonl", corpus), ("index.jsonl", index),
                       ("synthetic.jsonl", synthetic),
                       ("finetune.jsonl", finetune),
                       ("predictions.jsonl", predictions),
                       ("report.json", report)):
        assert path.read_bytes() == (e2e_dir / name).read_bytes(), name
    sidecar = json.loads((tmp_path / "finetune.jsonl.meta.json").read_text())
    assert sidecar == json.loads((e2e_dir / "finetune_meta.json").read_text())


def test_infer_requires_backend(tmp_path, e2e_dir, capsys):
    rc = main(["infer", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--index", str(e2e_dir / "index.jsonl"),
               "--out", str(tmp_path / "p.jsonl")])
    assert rc == 2
    assert "no chat backend configured" in capsys.readouterr().err


def test_infer_requires_index_unless_rag_off(tmp_path, e2e_dir, capsys):
    rc = main(["infer", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--out", str(tmp_path / "p.jsonl"),
               "--script", str(e2e_dir / "mock_script.json")])
    assert rc == 2
    assert "--index is required" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ['{"reply": 5}', "not json", '{"reply": "CID \\ud800"}'])
def test_infer_refuses_a_malformed_cache_entry(tmp_path, e2e_dir, capsys, entry):
    cache = e2e_dir / "cache"
    for path in cache.iterdir():
        path.write_text(entry)
    rc = main(["infer", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--index", str(e2e_dir / "index.jsonl"), "--out", str(tmp_path / "p.jsonl"),
               "--script", str(e2e_dir / "mock_script.json"), "--cache-dir", str(cache)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: reply cache entry {cache}{os.sep}")
    assert not (tmp_path / "p.jsonl").exists()


def test_synth_refuses_a_cached_reply_with_a_lone_surrogate(tmp_path, e2e_dir, capsys):
    """Refused by its cache entry's path, before the reply reaches an output file."""
    cache = e2e_dir / "cache"
    for path in cache.iterdir():
        path.write_text('{"reply": "CID \\ud800"}')
    capsys.readouterr()
    rc = main(["synth", "--corpus", str(e2e_dir / "corpus.jsonl"), "--out", str(tmp_path / "s"),
               "--report", str(tmp_path / "r.json"), "--script", str(e2e_dir / "mock_script.json"),
               "--cache-dir", str(cache)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: reply cache entry {cache}{os.sep}")
    assert "UTF-8 string reply" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["e2e"]


def test_infer_stage_refuses_a_missing_or_foreign_index(tmp_path, e2e_dir):
    """The index checks hold for every caller of the stage, not only ``adrcm infer``."""
    corpus, index, out = (str(e2e_dir / name) for name in ("corpus.jsonl", "index.jsonl", "p"))
    gateway = LlmGateway(ScriptedBackend(["CID"] * 16), HashingEmbedder())
    with pytest.raises(ValueError, match="--index is required when rag mode is 'chunks'"):
        infer_stage(corpus, None, out, gateway, InferenceConfig(rag_mode="chunks"))
    foreign = LlmGateway(gateway.chat_backend, HashingEmbedder(32))
    with pytest.raises(ValueError, match='index.jsonl was built by embedder .*"dimension": 32'):
        infer_stage(corpus, index, out, foreign, InferenceConfig())
    assert gateway.stats.chat_calls == foreign.stats.chat_calls == 0
    assert not os.path.exists(out)
    # With retrieval off, no index is needed.
    assert len(infer_stage(corpus, None, out, gateway, InferenceConfig(rag_mode="off"))) == 16


def test_build_adrcm_writes_nothing_when_its_export_fails(tmp_path, e2e_dir, capsys):
    template = tmp_path / "instruction.txt"
    template.write_text("Name the relation.\n")  # no {labels} placeholder
    capsys.readouterr()
    rc = main(["build-adrcm", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--synthetic", str(e2e_dir / "synthetic.jsonl"), "--out", str(tmp_path / "ft"),
               "--records-out", str(tmp_path / "records.jsonl"),
               "--instruction-template", str(template)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: template missing placeholders")
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["e2e", "instruction.txt"]


def test_build_adrcm_refuses_a_repeated_synthetic_record(tmp_path, e2e_dir, capsys):
    lines = (e2e_dir / "synthetic.jsonl").read_text().splitlines(keepends=True)
    synthetic = tmp_path / "synthetic.jsonl"
    synthetic.write_text("".join([lines[0], *lines]))
    first = json.loads(lines[0])
    capsys.readouterr()
    rc = main(["build-adrcm", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--synthetic", str(synthetic), "--out", str(tmp_path / "ft"),
               "--records-out", str(tmp_path / "records.jsonl"),
               "--sidecar", str(tmp_path / "meta.json")])
    assert rc == 2
    key = tuple(first[k] for k in ("doc_id", "head_id", "tail_id", "relation"))
    assert capsys.readouterr().err == (
        f"error: synthetic record 2: {key} is not a positive gold "
        "triplet of its document, or repeats one\n")
    assert sorted(os.listdir(tmp_path)) == ["e2e", "synthetic.jsonl"]


def test_build_adrcm_refuses_an_infinite_negative_ratio(tmp_path, e2e_dir, capsys):
    capsys.readouterr()
    rc = main(["build-adrcm", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--out", str(tmp_path / "ft"), "--negative-ratio", "inf"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: negative_ratio must be a finite number >= 0")
    assert os.listdir(tmp_path) == ["e2e"]


def test_missing_file_reports_error(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "absent.pubtator"),
               "--schema", "cdr", "--out", str(tmp_path / "c.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_schema_name_reports_error(tmp_path, capsys):
    rc = main(["ingest", "--input", _toy_path("toy_corpus.pubtator"),
               "--schema", "nosuch", "--out", str(tmp_path / "c.jsonl")])
    assert rc == 2
    assert "nosuch" in capsys.readouterr().err


def test_eval_rejects_mismatched_predictions(tmp_path, e2e_dir, capsys):
    truncated = tmp_path / "some.jsonl"
    lines = (e2e_dir / "predictions.jsonl").read_text().splitlines(keepends=True)
    truncated.write_text("".join(lines[:3]))
    rc = main(["eval", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--predictions", str(truncated)])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_infer_and_eval_refuse_an_edited_corpus(tmp_path, e2e_dir, capsys):
    lines = (e2e_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
    row = json.loads(lines[1])
    row["triplets"][0]["relation"] = "Bogus"
    edited = tmp_path / "corpus.jsonl"
    edited.write_text("".join([lines[0], json.dumps(row) + "\n", *lines[2:]]))
    e2e = {name: str(e2e_dir / name)
           for name in ("index.jsonl", "mock_script.json", "predictions.jsonl")}
    for argv in (["infer", "--index", e2e["index.jsonl"], "--script", e2e["mock_script.json"],
                  "--out", str(tmp_path / "p.jsonl")],
                 ["eval", "--predictions", e2e["predictions.jsonl"]]):
        assert main([*argv, "--corpus", str(edited)]) == 2
        assert (f"error: line 2: doc {row['doc_id']}: sample violates invariants: "
                "triplet" in capsys.readouterr().err)
    assert not (tmp_path / "p.jsonl").exists()


def test_config_file_overrides_defaults(tmp_path, e2e_dir):
    """A config file changes stage behavior the same way flags do."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chunk_size = 48\nchunk_overlap = 8\nchunk_min_tail = 8\n")
    out = tmp_path / "index.jsonl"
    assert main(["index", "--config", str(cfg),
                 "--kb", _toy_path("toy_kb.jsonl"), "--out", str(out)]) == 0
    assert out.read_bytes() == (e2e_dir / "index.jsonl").read_bytes()


def test_config_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chunk_size = 48\nchunk_overlap = 8\nchunk_min_tail = 8\n")
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["index", "--config", str(cfg), "--kb", _toy_path("toy_kb.jsonl"),
                 "--out", str(a)]) == 0
    assert main(["index", "--config", str(cfg), "--kb", _toy_path("toy_kb.jsonl"),
                 "--out", str(b), "--chunk-size", "64"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_bad_config_reports_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chunk_sze = 48\n")
    rc = main(["index", "--config", str(cfg),
               "--kb", _toy_path("toy_kb.jsonl"),
               "--out", str(tmp_path / "i.jsonl")])
    assert rc == 2
    assert "unknown" in capsys.readouterr().err


def test_eval_rejects_config_flag(tmp_path, e2e_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--config", str(tmp_path / "absent.cfg"),
              "--corpus", str(e2e_dir / "corpus.jsonl"),
              "--predictions", str(e2e_dir / "predictions.jsonl")])
    assert exit_info.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_synth_and_infer_report_chat_traffic(tmp_path, e2e_dir, capsys):
    corpus = str(e2e_dir / "corpus.jsonl")
    chat = ["--script", str(e2e_dir / "mock_script.json"),
            "--cache-dir", str(tmp_path / "cache")]
    stages = {
        "synth": ["synth", "--corpus", corpus, "--out", str(tmp_path / "s.jsonl")],
        "infer": ["infer", "--corpus", corpus, "--index", str(e2e_dir / "index.jsonl"),
                  "--out", str(tmp_path / "p.jsonl")],
    }
    capsys.readouterr()
    for name, live in (("synth", 48), ("infer", 16)):
        for expected in (f"chat: {live} live calls, 0 cache hits, 0 retries",
                         f"chat: 0 live calls, {live} cache hits, 0 retries"):
            assert main(stages[name] + chat) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-2].startswith("wrote "), name
            assert lines[-1] == expected


def test_synth_rejects_embedding_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["synth", "--corpus", "c.jsonl", "--out", str(tmp_path / "s.jsonl"),
              "--embed-url", "x"])
    assert exit_info.value.code == 2
    assert "--embed-url" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key, file_value, flag", [
    (["infer", "--corpus", "c", "--out", "o"], "rag_mode", "off", ["--rag", "chunks"]),
    (["infer", "--corpus", "c", "--out", "o"], "chat_model", "m-file", ["--model", "m-flag"]),
    (["ingest", "--input", "i", "--out", "o"], "dataset_tag", "GDA", ["--tag", "BioRED"]),
    (["index", "--kb", "k", "--out", "o"], "embed_dimension", 32, ["--embed-dim", "16"]),
], ids=["rag_mode", "chat_model", "dataset_tag", "embed_dimension"])
def test_flag_beats_config_file_beats_default(tmp_path, argv, key, file_value, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {json.dumps(file_value)}\n")

    def settings(*extra):
        return _settings(build_parser().parse_args([*argv, *extra]))

    assert settings()[key] == DEFAULTS[key]
    assert settings("--config", str(cfg))[key] == file_value
    assert settings("--config", str(cfg), *flag)[key] == type(file_value)(flag[1])


def test_dataset_tag_precedence_through_ingest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('dataset_tag = "custom"\n')
    out = tmp_path / "corpus.jsonl"

    def written_tag(*extra):
        assert main(["ingest", "--input", _toy_path("toy_corpus.pubtator"),
                     "--out", str(out), *extra]) == 0
        return json.loads(out.read_text().split("\n")[0])["dataset_tag"]

    assert written_tag() == "CDR"  # the default "" derives the tag from the schema
    assert written_tag("--config", str(cfg)) == "custom"
    assert written_tag("--config", str(cfg), "--tag", "BioRED") == "BioRED"


def test_chat_model_precedence_through_infer(tmp_path, e2e_dir, capsys):
    # The mock script answers only requests made with the default model id.
    cfg = tmp_path / "run.cfg"
    cfg.write_text('chat_model = "other"\n')
    infer = ["infer", "--corpus", str(e2e_dir / "corpus.jsonl"),
             "--index", str(e2e_dir / "index.jsonl"), "--out", str(tmp_path / "p.jsonl"),
             "--script", str(e2e_dir / "mock_script.json")]
    assert main(infer) == 0
    assert main([*infer, "--config", str(cfg)]) == 2
    assert "no scripted reply" in capsys.readouterr().err
    assert main([*infer, "--config", str(cfg), "--model", "default"]) == 0


@pytest.mark.parametrize("extra, config, want", [
    ([], "", ("gda", 64, 16)),
    (["--preset", "cdr"], "", ("cdr", 16, 32)),
    ([], 'preset = "biored"\n', ("biored", 64, 16)),
    (["--preset", "gda"], 'preset = "cdr"\n', ("gda", 64, 16)),
], ids=["schema", "flag", "config", "flag-beats-config"])
def test_build_adrcm_preset_defaults_to_corpus_schema(tmp_path, capsys, extra, config, want):
    pubtator = tmp_path / "gda.pubtator"
    pubtator.write_text(GDA_PUBTATOR)
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--input", str(pubtator), "--schema", "gda",
                 "--out", str(corpus)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "finetune.jsonl"
    assert main(["build-adrcm", "--corpus", str(corpus), "--out", str(out),
                 "--config", str(cfg), *extra]) == 0
    sidecar = json.loads((tmp_path / "finetune.jsonl.meta.json").read_text())
    assert (sidecar["preset"], sidecar["lora_rank"], sidecar["lora_alpha"]) == want
    assert capsys.readouterr().out.endswith(
        f"preset {want[0]}, rank {want[1]}, alpha {want[2]}\n")


def test_build_adrcm_rejects_unknown_preset(tmp_path, e2e_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('preset = "mini"\n')
    rc = main(["build-adrcm", "--corpus", str(e2e_dir / "corpus.jsonl"),
               "--out", str(tmp_path / "f.jsonl"), "--config", str(cfg)])
    assert rc == 2
    assert "unknown preset 'mini'" in capsys.readouterr().err


def test_index_embed_dim_applies_to_the_offline_embedder(tmp_path):
    out = tmp_path / "index.jsonl"
    assert main(["index", "--kb", _toy_path("toy_kb.jsonl"), "--out", str(out),
                 "--embed-dim", "32"]) == 0
    index = load_index(out.read_text())
    assert index.dimension == 32
    assert index.embedder == {"kind": "hashing", "model": "fnv1a64", "dimension": 32}
    assert index.matrix.shape == (len(index), 32)


def test_index_refuses_a_kb_field_that_is_not_a_string(tmp_path, capsys):
    """A field that is no ``str``, or one holding a lone surrogate, which UTF-8
    cannot encode, is refused with its line and name."""
    kb = tmp_path / "kb.jsonl"
    out = tmp_path / "index.jsonl"
    for field, value in (("title", 5), ("text", "alpha \ud800 beta")):
        record = {"cui": "C0000001", "source": "kb", "title": "t", "text": "alpha beta",
                  field: value}
        kb.write_text(json.dumps(record) + "\n")
        assert main(["index", "--kb", str(kb), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: bad KB record: "), err
        assert repr(field) in err
        assert not out.exists()


def test_a_chat_reply_that_is_not_utf8_is_a_protocol_error(tmp_path, e2e_dir, capsys,
                                                          http_stub):
    """A reply holding a lone surrogate costs ``synth`` its triplet and stops
    ``infer``, before the reply reaches the cache or an output file."""
    def replies(bad):
        return lambda request: Reply(body={"choices": [{"message": {"content": (
            "CID \ud800" if bad(request.json["messages"][-1]["content"]) else "CID")}}]})

    corpus = str(e2e_dir / "corpus.jsonl")
    chat = ["--chat-url", http_stub.url, "--cache-dir", str(tmp_path / "cache")]
    report = tmp_path / "report.json"
    http_stub.script = replies(lambda prompt: "Velotrine" in prompt)  # doc 90001 only
    capsys.readouterr()
    assert main(["synth", "--corpus", corpus, "--out", str(tmp_path / "s.jsonl"),
                 "--report", str(report), *chat]) == 1
    [error] = json.loads(report.read_text())["errors"]
    assert error.startswith("90001/D90001/D80001: chat response content is not UTF-8")
    assert capsys.readouterr().err == ""

    http_stub.script = replies(lambda prompt: True)
    cached = sorted(os.listdir(tmp_path / "cache"))
    out = tmp_path / "p.jsonl"
    assert main(["infer", "--corpus", corpus, "--index", str(e2e_dir / "index.jsonl"),
                 "--out", str(out), *chat]) == 2
    assert capsys.readouterr().err.startswith("error: chat response content is not UTF-8")
    assert sorted(os.listdir(tmp_path / "cache")) == cached
    assert sorted(os.listdir(tmp_path)) == ["cache", "e2e", "report.json", "s.jsonl"]


def test_the_reply_cache_does_not_replay_another_endpoint(tmp_path, e2e_dir, http_stub):
    """Two endpoints serving the same model id share a cache directory; each is
    answered live once, and each replays only its own replies."""
    argv = ["infer", "--corpus", str(e2e_dir / "corpus.jsonl"), "--rag", "off",
            "--out", str(tmp_path / "p.jsonl"), "--cache-dir", str(tmp_path / "cache")]
    with serving_stub() as other:
        for stub, label in ((http_stub, "CID"), (other, "None"), (http_stub, "CID")):
            stub.script = lambda request, label=label: Reply(body={
                "choices": [{"message": {"content": label}}]})
            assert main([*argv, "--chat-url", stub.url]) == 0
            assert {p.label for p in load_predictions(read_text(tmp_path / "p.jsonl"))} == {label}
    assert (len(http_stub.requests), len(other.requests)) == (16, 16)
    assert len(os.listdir(tmp_path / "cache")) == 32


def test_index_refuses_a_zero_embedding(tmp_path, capsys, http_stub):
    """``index`` fails, naming the chunk by its text, rather than every later
    unscoped query."""
    def script(request):
        vectors = [HashingEmbedder().embed_one(text).tolist() for text in request.json["input"]]
        vectors[2] = [0.0] * 64
        return Reply(body={"data": [{"embedding": v} for v in vectors]})

    http_stub.script = script
    out = tmp_path / "index.jsonl"
    kb = _toy_path("toy_kb.jsonl")
    rc = main(["index", "--kb", kb, "--out", str(out), "--embed-url", http_stub.url])
    assert rc == 2
    text = build_index(load_kb(Path(kb).read_text()), HashingEmbedder()).chunk(2)[-1]
    assert f"embedding of {text[:40]!r} is zero or non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_infer_refuses_an_index_built_by_another_embedder(tmp_path, e2e_dir, capsys,
                                                          http_stub):
    index = tmp_path / "index.jsonl"
    assert main(["index", "--kb", _toy_path("toy_kb.jsonl"), "--out", str(index)]) == 0
    capsys.readouterr()
    rc = main(["infer", "--corpus", str(e2e_dir / "corpus.jsonl"), "--index", str(index),
               "--out", str(tmp_path / "p.jsonl"), "--script", str(e2e_dir / "mock_script.json"),
               "--embed-url", http_stub.url, "--embed-dim", "64"])
    assert rc == 2
    err = capsys.readouterr().err
    assert '{"dimension": 64, "kind": "hashing", "model": "fnv1a64"}' in err
    assert '{"dimension": 64, "kind": "http", "model": "default"}' in err
    assert http_stub.requests == []
    assert not (tmp_path / "p.jsonl").exists()


def test_infer_refuses_a_format_5_index(tmp_path, e2e_dir, capsys, http_stub):
    header, rest = (e2e_dir / "index.jsonl").read_text().split("\n", 1)
    index = tmp_path / "index.jsonl"
    index.write_text(json.dumps({**json.loads(header), "format": 5}) + "\n" + rest)
    rc = main(["infer", "--corpus", str(e2e_dir / "corpus.jsonl"), "--index", str(index),
               "--out", str(tmp_path / "p.jsonl"), "--rag", "chunks",
               "--chat-url", http_stub.url])
    assert rc == 2
    assert ("error: index format 5 is not 7; rebuild it with `adrcm index`"
            in capsys.readouterr().err)
    assert http_stub.requests == []
    assert not (tmp_path / "p.jsonl").exists()


def test_urls_that_are_not_http_are_usage_errors(tmp_path, e2e_dir, capsys):
    # Before any call: a typo in a URL must not be retried as a network fault.
    synth = ["synth", "--corpus", str(e2e_dir / "corpus.jsonl"),
             "--out", str(tmp_path / "s.jsonl"), "--chat-url", "localhost:8000"]
    index = ["index", "--kb", _toy_path("toy_kb.jsonl"), "--out", str(tmp_path / "i.jsonl"),
             "--embed-url", "127.0.0.1:9"]
    for argv, url in ((synth, "localhost:8000"), (index, "127.0.0.1:9")):
        assert main(argv) == 2
        assert f"URL '{url}' is not an http(s) URL" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [e2e_dir]


def test_importing_the_cli_does_not_load_requests():
    # A fresh interpreter, because other tests load requests into this one.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = "import sys, adrcm.cli; print(sorted(m for m in sys.modules if 'requests' in m))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_importing_the_cli_does_not_load_numpy():
    # A fresh interpreter, because other tests load numpy into this one.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = "import sys, adrcm.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@pytest.fixture(scope="module")
def rag_off_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("e2e-off")
    assert main(["e2e-mock", "--workdir", str(work), "--rag", "off"]) == 0
    return work


@pytest.mark.parametrize("command, loads_numpy", [
    ("ingest --input {toy}/toy_corpus.pubtator --cui-map {toy}/toy_cui_map.tsv --out {out}",
     False),
    ("synth --corpus {e2e}/corpus.jsonl --script {e2e}/mock_script.json --out {out}", False),
    ("build-adrcm --corpus {e2e}/corpus.jsonl --synthetic {e2e}/synthetic.jsonl --out {out}",
     False),
    ("infer --rag off --corpus {e2e}/corpus.jsonl --script {e2e}/mock_script.json --out {out}",
     False),
    ("eval --corpus {e2e}/corpus.jsonl --predictions {e2e}/predictions.jsonl", False),
    ("index --kb {toy}/toy_kb.jsonl --out {out}", True),
], ids=["ingest", "synth", "build-adrcm", "infer-rag-off", "eval", "index"])
def test_only_commands_that_embed_load_numpy(rag_off_dir, tmp_path, command, loads_numpy):
    argv = command.format(toy=Path(_toy_path("toy_kb.jsonl")).parent, e2e=rag_off_dir,
                          out=tmp_path / "out").split()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import sys; from adrcm.cli import main; "
            "status = main(sys.argv[1:]); print(status, 'numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"0 {loads_numpy}"


@pytest.mark.parametrize("command, status", [
    ("synth --corpus {e2e}/corpus.jsonl --script {e2e}/mock_script.json --out {out}", 0),
    ("infer --rag off --corpus {e2e}/corpus.jsonl --script {e2e}/mock_script.json --out {out}",
     0),
    ("index --kb {toy}/toy_kb.jsonl --out {out}", 2),
    ("infer --rag cui --corpus {e2e}/corpus.jsonl --index {e2e}/index.jsonl "
     "--script {e2e}/mock_script.json --out {out}", 2),
], ids=["synth", "infer-rag-off", "index", "infer-rag-cui"])
def test_only_commands_that_embed_check_the_embedding_settings(rag_off_dir, tmp_path,
                                                              command, status):
    config = tmp_path / "bad.cfg"
    config.write_text('embed_url = "not-a-url"\n', encoding="utf-8")
    argv = command.format(toy=Path(_toy_path("toy_kb.jsonl")).parent, e2e=rag_off_dir,
                          out=tmp_path / "out").split() + ["--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = "import sys; from adrcm.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True)
    assert run.returncode == status, run.stderr
    refused = "error: embedding URL 'not-a-url' is not an http(s) URL"
    assert (refused in run.stderr) == (status == 2), run.stderr


def _first_mention(row):
    return row["entities"][0]["mentions"][0]


@pytest.mark.parametrize("artifact, edit", [
    ("corpus", lambda row: row.update(sentences=[
        [str(n) for n in row["sentences"][0]], *row["sentences"][1:]])),
    ("corpus", lambda row: row["sentences"][0].append(99)),
    ("corpus", lambda row: _first_mention(row).update(
        sentence_index=str(_first_mention(row)["sentence_index"]))),
    ("corpus", lambda row: _first_mention(row)["char_range"].append(99)),
    ("corpus", lambda row: _first_mention(row).update(surface=5)),
    ("corpus", lambda row: row.update(title=5)),
    ("corpus", lambda row: row.update(doc_id=7)),
    ("corpus", lambda row: row["entities"][0].update(canonical_name=5)),
    ("corpus", lambda row: row["triplets"][0].update(head_id=["D1"])),
    ("synthetic", lambda row: row.update(summary=5)),
], ids=["sentence-strings", "sentence-3-ints", "sentence-index-string", "char-range-3-ints",
        "surface-int", "title-int", "doc-id-int", "canonical-name-int", "head-id-list",
        "summary-int"])
def test_stages_refuse_a_record_field_of_the_wrong_json_type(rag_off_dir, tmp_path, capsys,
                                                             artifact, edit):
    """Each stage that reads the artifact exits 2 naming the edited line, not with a
    traceback, and nothing reads the wrong type as a value."""
    lines = (rag_off_dir / f"{artifact}.jsonl").read_text(encoding="utf-8").splitlines()
    at = 1 if artifact == "corpus" else 0  # the corpus starts with its header
    row = json.loads(lines[at])
    edit(row)
    lines[at] = json.dumps(row)
    edited = tmp_path / f"{artifact}.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    e2e = {name: str(rag_off_dir / f"{name}.jsonl")
           for name in ("corpus", "synthetic", "predictions")}
    e2e[artifact] = str(edited)
    script = ["--script", str(rag_off_dir / "mock_script.json")]
    commands = [["build-adrcm", "--corpus", e2e["corpus"], "--synthetic", e2e["synthetic"],
                 "--out", str(tmp_path / "finetune.jsonl")]]
    if artifact == "corpus":
        commands += [["synth", "--corpus", e2e["corpus"], *script,
                      "--out", str(tmp_path / "synthetic.jsonl")],
                     ["infer", "--rag", "off", "--corpus", e2e["corpus"], *script,
                      "--out", str(tmp_path / "predictions.jsonl")],
                     ["eval", "--corpus", e2e["corpus"], "--predictions", e2e["predictions"]]]
    for argv in commands:
        assert main(argv) == 2, argv
        assert f"error: line {at + 1}: bad {artifact if artifact == 'synthetic' else 'sample'} " \
               "record: " in capsys.readouterr().err, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == [edited.name]


# sha256 of every artifact `e2e-mock --rag cui` writes. Any change to an
# artifact format, prompt, or scoring rule shows up here as a changed digest.
E2E_CUI_DIGESTS = {
    "corpus.jsonl": "0a8608fa14b84dee4af3b42cd5043da0e49844682a48c9582af4ebb815031710",
    "dataset.jsonl": "1cfba3c35c62721f9b294ff1e20d5199c37d79642992320f8065e65542d6dace",
    "finetune.jsonl": "7266c96eba1da9be2d35d7ba913b7d600327133f29581ef17022efd37417a5be",
    "finetune_meta.json": "a7b1cfc9eb5d6db41e27dd89db2cf17d9344dc847a5e53028b3f9923bde2b962",
    "index.jsonl": "d53713b7b5cbf73b362d9bb4b63bd7d2ad717b291c63e253b06e5f0c416dd1da",
    "mock_script.json": "c33304cd762775056d421562dd44295749434d5b5882276392d4d41b2f0606c4",
    "predictions.jsonl": "3d6c5d6268029e6dca367603c929e0b42fc15af4cc0b3a61ebca71bf69268b9c",
    "report.json": "294c07d350af8a7442ae5e008a94ff4e1d1291d018ae576e7050a344d3725870",
    "synth_report.json": "ff8b9944d9b81405f37eb9d8bd2b8d3a7a1a0c891bd3e7567b454232a0aa5cf3",
    "synthetic.jsonl": "5f54e09a4abf1a54866978393d34104b302dce84a11e7e74e47e316f4f9b542c",
}


def test_e2e_mock_artifact_bytes_are_pinned(e2e_dir):
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in e2e_dir.iterdir() if path.is_file()}
    assert got == E2E_CUI_DIGESTS


# The chat script and predictions of the other two retrieval modes.
E2E_RAG_DIGESTS = {
    "chunks": {
        "mock_script.json": "16437d46bc4d8dbb72864163364aa48dc45a8d7be330ea448e2b5acffb9a539a",
        "predictions.jsonl": "dcacecd6a00b67f4634d7a20c065ee389abe0aeb7e9b8d8e7f6a5612da75ae63",
    },
    "off": {
        "mock_script.json": "8f8705993d1277e20dbd836d6e39405733e56c8a9d5d46b069906c9e2500aa1d",
        "predictions.jsonl": "a9e3dcb63e4b6d32ce626d438e18b0a00fd167a83c05796e0b9be7b88c3817ed",
    },
}


@pytest.mark.parametrize("rag", sorted(E2E_RAG_DIGESTS))
def test_e2e_mock_other_rag_modes_are_pinned(tmp_path, rag):
    work = tmp_path / "e2e"
    assert main(["e2e-mock", "--workdir", str(work), "--rag", rag]) == 0
    got = {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
           for name in E2E_RAG_DIGESTS[rag]}
    assert got == E2E_RAG_DIGESTS[rag]


def test_custom_schema_file_serves_every_later_stage(tmp_path, capsys):
    """The corpus header carries the schema, so no stage needs the file again."""
    cdr = json.loads(resources.files("adrcm.data.schemas").joinpath("cdr.json")
                     .read_text(encoding="utf-8"))
    schema = tmp_path / "mini.json"
    schema.write_text(json.dumps({**cdr, "name": "mini"}))
    corpus, predictions = tmp_path / "corpus.jsonl", tmp_path / "predictions.jsonl"
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"replies": ["None"] * 16}))

    assert main(["ingest", "--input", _toy_path("toy_corpus.pubtator"),
                 "--schema", str(schema), "--cui-map", _toy_path("toy_cui_map.tsv"),
                 "--out", str(corpus)]) == 0
    assert load_corpus(corpus.read_text()).schema.name == "mini"
    assert main(["build-adrcm", "--corpus", str(corpus), "--preset", "cdr",
                 "--out", str(tmp_path / "finetune.jsonl")]) == 0
    assert main(["infer", "--corpus", str(corpus), "--rag", "off",
                 "--script", str(script), "--out", str(predictions)]) == 0
    assert main(["eval", "--corpus", str(corpus), "--predictions", str(predictions),
                 "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"]["pairs"] == 16
    assert "error" not in capsys.readouterr().err


def test_ingest_refuses_a_schema_without_a_positive_label(tmp_path, capsys):
    schema = tmp_path / "empty.json"
    schema.write_text(json.dumps({"name": "empty", "labels": ["None"], "none_label": "None",
                                  "allowed_type_pairs": [["chemical", "disease"]]}))
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--input", _toy_path("toy_corpus.pubtator"),
                 "--schema", str(schema), "--out", str(out)]) == 2
    assert "at least one besides none_label" in capsys.readouterr().err
    assert not out.exists()


BIORED_PUBTATOR = (
    "8001|t|BRX1 binds drugox in cardiomyopathy.\n"
    "8001\t0\t4\tBRX1\tGene\t5001\n"
    "8001\t11\t17\tdrugox\tChemical\tD80001\n"
    "8001\t21\t35\tcardiomyopathy\tDisease\tD80002\n"
    "8001\tBind\t5001\tD80001\n")


def test_ingest_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    pubtator = tmp_path / "biored.pubtator"
    pubtator.write_text(BIORED_PUBTATOR)
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"corpus{seed}.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "adrcm.cli", "ingest", "--input", str(pubtator),
             "--schema", "biored", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
