import hashlib
import json
import math
import re

import pytest

from adrcm.corpus import Corpus, builtin_schema, enumerate_candidate_pairs, parse_pubtator
from adrcm.dataset import (
    PRESETS,
    AugmentedRecord,
    build_dataset,
    export_finetune,
    preset_for,
    save_dataset,
    save_finetune_rows,
    split_sample,
)
from adrcm.iors import SyntheticRecord
from conftest import make_sample


@pytest.fixture()
def two_doc_corpus(cdr_schema):
    s1 = make_sample(
        "401", ["Aldoxin causes tremor and rash.", "Both resolved."],
        [("C1", "chemical", [(0, "Aldoxin")]),
         ("D1", "disease", [(0, "tremor")]),
         ("D2", "disease", [(0, "rash")])],
        [("C1", "D2", "CID"), ("C1", "D1", "CID")])
    s2 = make_sample(
        "402", ["Bexolol was well tolerated.", "No dizziness occurred."],
        [("C2", "chemical", [(0, "Bexolol")]),
         ("D3", "disease", [(1, "dizziness")])],
        [])
    return Corpus(cdr_schema, (s1, s2))


def test_split_sample_one_record_per_triplet(two_doc_corpus):
    sample = two_doc_corpus.samples[0]
    records = split_sample(sample)
    assert len(records) == len(sample.triplets)
    assert [(r.head_id, r.tail_id) for r in records] == [("C1", "D1"), ("C1", "D2")]
    for record in records:
        assert record.text == sample.document.text
        assert record.provenance == "original"
        assert record.doc_id == "401"


def test_split_sample_empty(two_doc_corpus):
    assert split_sample(two_doc_corpus.samples[1]) == []


def test_build_dataset_order_and_size(two_doc_corpus):
    synth = (
        SyntheticRecord("401", "C1", "D2", "CID", "summary for D2"),
        SyntheticRecord("401", "C1", "D1", "CID", "summary for D1"),
    )
    records = build_dataset(two_doc_corpus, synth)
    total_triplets = sum(len(s.triplets) for s in two_doc_corpus.samples)
    assert len(records) == total_triplets + len(synth)
    assert [(r.provenance, r.head_id, r.tail_id) for r in records] == [
        ("original", "C1", "D1"), ("original", "C1", "D2"),
        ("synthetic", "C1", "D1"), ("synthetic", "C1", "D2")]
    assert records[2].text == "summary for D1"


def test_build_dataset_validates_synthetic_references(two_doc_corpus):
    biored = Corpus(builtin_schema("biored"), (make_sample(
        "501", ["Genex raises drugon levels."],
        [("G1", "gene", [(0, "Genex")]), ("D1", "chemical", [(0, "drugon")])],
        [("G1", "D1", "Positive_Correlation")]),))
    once = [("401", "C1", "D2", "CID"), ("401", "C1", "D1", "CID")]
    cases = [
        (two_doc_corpus, [("999", "C1", "D1", "CID")]),  # unknown document
        (two_doc_corpus, [("401", "CX", "D1", "CID")]),  # unknown entity
        (two_doc_corpus, [("401", "C1", "D1", "LOVES")]),  # relation not in the schema
        (two_doc_corpus, [("402", "C2", "D3", "CID")]),  # a pair whose gold label is None
        (two_doc_corpus, [*once, once[0]]),  # a repeat
        (biored, [("501", "G1", "D1", "Negative_Correlation")]),  # not the gold relation
    ]
    for corpus, records in cases:
        key = re.escape(repr(records[-1]))
        with pytest.raises(ValueError, match=f"^synthetic record {len(records)}: {key} is not "
                                             "a positive gold triplet of its document, or "
                                             "repeats one$"):
            build_dataset(corpus, [SyntheticRecord(*fields, "s") for fields in records])
    assert len(build_dataset(two_doc_corpus, [SyntheticRecord(*f, "s") for f in once])) == 4


def test_a_none_relation_line_is_dropped_and_exported_once(cdr_schema):
    corpus = parse_pubtator(
        "7|t|Drugox causes fever and rash.\n"
        "7\t0\t6\tDrugox\tChemical\tC1\n"
        "7\t14\t19\tfever\tDisease\tD1\n"
        "7\t24\t28\trash\tDisease\tD2\n"
        "7\tno relation\tC1\tD1\n"
        "7\tCID\tC1\tD2\n", cdr_schema)
    assert corpus.violations == (
        "doc 7: line 5: relation (C1, D1) has the none label 'None'; dropped",)
    records = build_dataset(corpus, ())
    assert [(r.head_id, r.tail_id, r.relation) for r in records] == [("C1", "D2", "CID")]
    rows = export_finetune(corpus, records, preset_for("cdr"), negative_ratio=10).rows
    assert [row["output"] for row in rows if row["input"].endswith("Tail entity: fever")] == [
        "None"]


def test_presets_hyperparameters():
    assert (PRESETS["cdr"].lora_rank, PRESETS["cdr"].lora_alpha) == (16, 32)
    assert (PRESETS["gda"].lora_rank, PRESETS["gda"].lora_alpha) == (64, 16)
    assert (PRESETS["biored"].lora_rank, PRESETS["biored"].lora_alpha) == (64, 16)
    for preset in PRESETS.values():
        assert preset.learning_rate == 2e-4
        assert preset.lora_dropout == 0.1
        assert preset.base_model_id == "LLaMA2-7B-Chat"
    assert preset_for("CDR").name == "cdr"
    with pytest.raises(KeyError):
        preset_for("t5")


def test_export_finetune_rows_and_sidecar(two_doc_corpus):
    synth = (SyntheticRecord("401", "C1", "D1", "CID", "an accepted summary"),)
    records = build_dataset(two_doc_corpus, synth)
    export = export_finetune(two_doc_corpus, records, preset_for("cdr"),
                             iors_beta=3, negative_ratio=1.0, seed=11)

    none_pairs = sum(
        1 for s in two_doc_corpus.samples
        for _, _, label in enumerate_candidate_pairs(s, two_doc_corpus.schema)
        if label == "None")
    expected_negatives = min(none_pairs, round(1.0 * len(records)))
    outputs = [row["output"] for row in export.rows]
    assert outputs.count("None") == expected_negatives
    assert len(export.rows) == len(records) + expected_negatives

    for row in export.rows:
        assert set(row) == {"instruction", "input", "output"}
        assert "CID, None" in row["instruction"]
        assert row["input"].startswith("Document:\n")
        assert "Head entity: " in row["input"] and "Tail entity: " in row["input"]

    sidecar = export.sidecar
    assert sidecar["lora_rank"] == 16 and sidecar["lora_alpha"] == 32
    assert sidecar["learning_rate"] == 2e-4 and sidecar["lora_dropout"] == 0.1
    assert sidecar["iors_beta"] == 3
    assert sidecar["row_counts"] == {
        "original": 2, "synthetic": 1,
        "negative": expected_negatives,
        "total": len(export.rows)}
    blob = save_finetune_rows(export.rows).encode("utf-8")
    assert sidecar["dataset_fingerprint"] == hashlib.sha256(blob).hexdigest()


def test_export_finetune_seed_reproducibility(two_doc_corpus):
    records = build_dataset(two_doc_corpus, ())
    a = export_finetune(two_doc_corpus, records, preset_for("cdr"),
                        negative_ratio=0.5, seed=1)
    b = export_finetune(two_doc_corpus, records, preset_for("cdr"),
                        negative_ratio=0.5, seed=1)
    assert a.rows == b.rows
    assert a.sidecar == b.sidecar


def test_export_finetune_negative_ratio_zero(two_doc_corpus):
    records = build_dataset(two_doc_corpus, ())
    export = export_finetune(two_doc_corpus, records, preset_for("cdr"),
                             negative_ratio=0.0)
    assert all(row["output"] != "None" for row in export.rows)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="negative_ratio must be a finite number >= 0"):
            export_finetune(two_doc_corpus, records, preset_for("cdr"), negative_ratio=bad)


def test_finetune_rows_sorted_and_json_lines(two_doc_corpus):
    records = build_dataset(two_doc_corpus, ())
    export = export_finetune(two_doc_corpus, records, preset_for("cdr"), seed=3)
    text = save_finetune_rows(export.rows)
    parsed = [json.loads(line) for line in text.splitlines()]
    assert parsed == list(export.rows)


def test_dataset_record_round_trip():
    records = (AugmentedRecord("1", "a", "b", "CID", "text", "original"),
               AugmentedRecord("1", "a", "b", "CID", "summary", "synthetic"))
    rows = [json.loads(line) for line in save_dataset(records).splitlines()]
    assert tuple(AugmentedRecord(**row) for row in rows) == records
    with pytest.raises(ValueError, match="provenance"):
        AugmentedRecord("1", "a", "b", "CID", "t", "guessed")
