import json

import pytest

from adrcm.corpus import Corpus, builtin_schema, gold_pair_labels
from adrcm.evaluate import (
    Scores,
    classify_locality,
    compute_report,
    render_report,
    report_to_dict,
    save_report,
)
from adrcm.infer import PredictionRecord
from conftest import make_sample


def test_scores_from_counts():
    s = Scores.from_counts(3, 1, 2)
    assert (s.precision, s.recall) == (0.75, 0.6)
    assert s.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert s.flags == ()


def test_scores_zero_denominators_flagged():
    s = Scores.from_counts(0, 0, 4)
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
    assert "no_predicted_positives" in s.flags
    t = Scores.from_counts(0, 3, 0)
    assert (t.precision, t.recall, t.f1) == (0.0, 0.0, 0.0)
    assert "no_gold_positives" in t.flags


def test_classify_locality():
    sample = make_sample(
        "700",
        ["Drugin causes fever.", "It is cheap.", "Maloxil causes chills."],
        [("C1", "chemical", [(0, "Drugin")]),
         ("C2", "chemical", [(2, "Maloxil")]),
         ("D1", "disease", [(0, "fever")]),
         ("D2", "disease", [(2, "chills")])])
    assert classify_locality(sample, "C1", "D1") == "intra"
    assert classify_locality(sample, "C1", "D2") == "inter"
    assert classify_locality(sample, "C2", "D2") == "intra"


def test_classify_locality_multi_mention():
    # entities sharing any sentence count as intra
    sample = make_sample(
        "701",
        ["Aspirin helps.", "Aspirin may cause rash.", "Rest helps too."],
        [("C1", "chemical", [(0, "Aspirin"), (1, "Aspirin")]),
         ("D1", "disease", [(1, "rash")])])
    assert classify_locality(sample, "C1", "D1") == "intra"


def _pred(doc, head, tail, label, raw=None):
    return PredictionRecord(doc, head, tail, label,
                            raw if raw is not None else label, (), False)


@pytest.fixture()
def confusion_corpus(cdr_schema):
    # Four chemicals x one disease inside one document gives four gold pairs
    # with a known confusion pattern once predictions are fixed below.
    sentences = [
        "Alphazol causes nausea.",
        "Betazol is safe.",
        "Gammazol causes nausea.",
        "Deltazol is inert.",
    ]
    sample = make_sample(
        "800", sentences,
        [("C1", "chemical", [(0, "Alphazol")]),
         ("C2", "chemical", [(1, "Betazol")]),
         ("C3", "chemical", [(2, "Gammazol")]),
         ("C4", "chemical", [(3, "Deltazol")]),
         ("D1", "disease", [(0, "nausea"), (2, "nausea")])],
        [("C1", "D1", "CID"), ("C3", "D1", "CID")])
    return Corpus(cdr_schema, (sample,))


def test_compute_report_hand_confusion(confusion_corpus):
    # gold: C1 CID, C2 None, C3 CID, C4 None
    # pred: C1 CID (tp), C2 CID (fp), C3 None (fn), C4 None (tn)
    predictions = (
        _pred("800", "C1", "D1", "CID"),
        _pred("800", "C2", "D1", "CID"),
        _pred("800", "C3", "D1", "None"),
        _pred("800", "C4", "D1", "None"),
    )
    report = compute_report(confusion_corpus, predictions)
    assert (report.micro.tp, report.micro.fp, report.micro.fn) == (1, 1, 1)
    assert report.micro.precision == 0.5
    assert report.micro.recall == 0.5
    assert report.micro.f1 == 0.5
    assert report.n_pairs == 4
    assert report.gold_positives == 2
    assert report.predicted_positives == 2
    # single positive label, so macro equals that label's scores
    assert set(report.per_label) == {"CID"}
    assert report.macro_f1 == report.per_label["CID"].f1
    # C1/D1 share sentence 0 (intra, tp); C3/D1 share sentence 2 (intra, fn)
    assert report.intra_gold == 2
    assert report.inter_gold == 0
    assert (report.intra.tp, report.intra.fn) == (1, 1)


def test_compute_report_per_label_counts_with_several_positive_labels():
    # A wrong positive label is an fp for the predicted label and an fn for
    # the gold one; other labels' counts do not move.
    sample = make_sample(
        "810", ["Xanol raises fever.", "Xanol lowers chills."],
        [("C1", "chemical", [(0, "Xanol"), (1, "Xanol")]),
         ("D1", "disease", [(0, "fever")]),
         ("D2", "disease", [(1, "chills")])],
        [("C1", "D1", "Association"), ("C1", "D2", "Positive_Correlation"),
         ("D1", "C1", "Bind")])
    corpus = Corpus(builtin_schema("biored"), (sample,))
    report = compute_report(corpus, (
        _pred("810", "C1", "D1", "Association"),
        _pred("810", "C1", "D2", "Association"),
        _pred("810", "D1", "C1", "None"),
        _pred("810", "D2", "C1", "Bind"),
    ))
    counts = {label: (s.tp, s.fp, s.fn) for label, s in report.per_label.items()
              if (s.tp, s.fp, s.fn) != (0, 0, 0)}
    assert counts == {"Association": (1, 1, 0), "Positive_Correlation": (0, 0, 1),
                      "Bind": (0, 1, 1)}
    assert (report.micro.tp, report.micro.fp, report.micro.fn) == (1, 2, 2)
    assert (report.intra.tp, report.intra.fp, report.intra.fn) == (1, 1, 2)


def test_compute_report_locality_partition(cdr_schema):
    sample = make_sample(
        "801",
        ["Oxatil causes tremor.", "Later, patients developed edema."],
        [("C1", "chemical", [(0, "Oxatil")]),
         ("D1", "disease", [(0, "tremor")]),
         ("D2", "disease", [(1, "edema")])],
        [("C1", "D1", "CID"), ("C1", "D2", "CID")])
    corpus = Corpus(cdr_schema, (sample,))
    predictions = (
        _pred("801", "C1", "D1", "CID"),
        _pred("801", "C1", "D2", "None"),
    )
    report = compute_report(corpus, predictions)
    assert report.intra_gold == 1
    assert report.inter_gold == 1
    assert (report.intra.tp, report.intra.fn) == (1, 0)
    assert (report.inter.tp, report.inter.fn) == (0, 1)
    assert report.intra.recall == 1.0
    assert report.inter.recall == 0.0


def test_compute_report_counts_unparseable(confusion_corpus):
    predictions = (
        _pred("800", "C1", "D1", "CID"),
        _pred("800", "C2", "D1", "None"),
        PredictionRecord("800", "C3", "D1", "None", "gibberish", (), True),
        _pred("800", "C4", "D1", "None"),
    )
    report = compute_report(confusion_corpus, predictions)
    assert report.unparseable == 1


def test_compute_report_rejects_coverage_mismatch(confusion_corpus):
    predictions = (
        _pred("800", "C1", "D1", "CID"),
        _pred("800", "C2", "D1", "None"),
    )
    with pytest.raises(ValueError, match="missing 2 pairs"):
        compute_report(confusion_corpus, predictions)
    extra = predictions + (
        _pred("800", "C3", "D1", "None"),
        _pred("800", "C4", "D1", "None"),
        _pred("800", "C9", "D1", "None"),
    )
    with pytest.raises(ValueError, match="unexpected 1 pairs"):
        compute_report(confusion_corpus, extra)


def test_compute_report_rejects_duplicates_and_unknown_labels(confusion_corpus):
    base = [
        _pred("800", "C1", "D1", "CID"),
        _pred("800", "C2", "D1", "None"),
        _pred("800", "C3", "D1", "None"),
        _pred("800", "C4", "D1", "None"),
    ]
    with pytest.raises(ValueError, match="duplicate prediction"):
        compute_report(confusion_corpus, base + [base[0]])
    bad = base[:3] + [_pred("800", "C4", "D1", "cures")]
    with pytest.raises(ValueError, match="unknown label"):
        compute_report(confusion_corpus, bad)


def test_gold_pair_labels(confusion_corpus):
    gold = gold_pair_labels(confusion_corpus)
    assert gold[("800", "C1", "D1")] == "CID"
    assert gold[("800", "C2", "D1")] == "None"
    assert len(gold) == 4


def test_report_serialization_and_rendering(confusion_corpus):
    predictions = (
        _pred("800", "C1", "D1", "CID"),
        _pred("800", "C2", "D1", "CID"),
        _pred("800", "C3", "D1", "None"),
        _pred("800", "C4", "D1", "None"),
    )
    report = compute_report(confusion_corpus, predictions)
    payload = report_to_dict(report)
    assert payload["micro"]["f1"] == 0.5
    assert payload["per_label"]["CID"]["tp"] == 1
    serialized = save_report(report)
    assert serialized.endswith("\n")
    assert json.loads(serialized) == payload

    table = render_report(report)
    lines = table.splitlines()
    assert any(line.startswith("micro") for line in lines)
    assert any(line.startswith("intra") for line in lines)
    assert any("macro" in line for line in lines)
    assert "0.5000" in table


def test_perfect_predictions_score_one(toy_corpus):
    predictions = tuple(
        _pred(doc, head, tail, label)
        for (doc, head, tail), label in sorted(gold_pair_labels(toy_corpus).items()))
    report = compute_report(toy_corpus, predictions)
    assert (report.micro.precision, report.micro.recall, report.micro.f1) == (1.0, 1.0, 1.0)
    assert report.intra_gold + report.inter_gold == report.gold_positives
    assert report.gold_positives == 11
    assert report.inter_gold == 1
