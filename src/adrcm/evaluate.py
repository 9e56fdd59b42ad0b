"""Scoring predictions against gold annotations.

Micro scores follow the usual extraction convention: a true positive is a
correctly labeled positive pair, a false positive is any positive
prediction with a different gold label, and a false negative is any gold
positive not predicted as such. Gold positives are additionally split by
locality: pairs whose entities share a sentence versus pairs whose
evidence spans sentences.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, PairKey, gold_pair_labels
from .infer import PredictionRecord
from .model import TrainingSample

INTRA = "intra"
INTER = "inter"


@dataclass(frozen=True)
class Scores:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "Scores":
        flags = []
        if tp + fp == 0:
            precision = 0.0
            flags.append("no_predicted_positives")
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall = 0.0
            flags.append("no_gold_positives")
        else:
            recall = tp / (tp + fn)
        if precision + recall == 0.0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        return cls(tp, fp, fn, precision, recall, f1, tuple(flags))


def classify_locality(sample: TrainingSample, head_id: str, tail_id: str) -> str:
    """"intra" when some sentence mentions both entities, else "inter"."""
    head_sentences = {m.sentence_index for m in sample.entity(head_id).mentions}
    tail_sentences = {m.sentence_index for m in sample.entity(tail_id).mentions}
    return INTRA if head_sentences & tail_sentences else INTER


@dataclass(frozen=True)
class EvalReport:
    micro: Scores
    per_label: Mapping[str, Scores]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    intra: Scores
    inter: Scores
    intra_gold: int
    inter_gold: int
    n_pairs: int
    gold_positives: int
    predicted_positives: int
    unparseable: int


def compute_report(corpus: Corpus,
                   predictions: Sequence[PredictionRecord]) -> EvalReport:
    """Score predictions; coverage must match the candidate pairs exactly."""
    schema = corpus.schema
    none = schema.none_label
    gold = gold_pair_labels(corpus)

    predicted: dict[PairKey, PredictionRecord] = {}
    for record in predictions:
        key = (record.doc_id, record.head_id, record.tail_id)
        if key in predicted:
            raise ValueError(f"duplicate prediction for pair {key}")
        if record.label not in schema.labels:
            raise ValueError(f"prediction with unknown label {record.label!r}")
        predicted[key] = record

    missing = sorted(set(gold) - set(predicted))
    extra = sorted(set(predicted) - set(gold))
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"missing {len(missing)} pairs, first {missing[:3]}")
        if extra:
            detail.append(f"unexpected {len(extra)} pairs, first {extra[:3]}")
        raise ValueError("prediction coverage mismatch: " + "; ".join(detail))

    def score(pairs: Iterable[tuple[str, str]]) -> Scores:
        """Count tp/fp/fn over ``(gold label, predicted label)`` pairs."""
        tp = fp = fn = 0
        for gold_label, pred_label in pairs:
            if pred_label != none:
                if pred_label == gold_label:
                    tp += 1
                else:
                    fp += 1
            if gold_label != none and pred_label != gold_label:
                fn += 1
        return Scores.from_counts(tp, fp, fn)

    samples = {s.document.doc_id: s for s in corpus.samples}
    keys = sorted(gold)
    pairs = [(gold[key], predicted[key].label) for key in keys]
    # Per-label scores treat every other label as none; locality scores
    # count the gold positives on their side only.
    per_label = {
        label: score((g if g == label else none, p if p == label else none)
                     for g, p in pairs)
        for label in schema.positive_labels
    }
    local: dict[str, list[tuple[str, str]]] = {INTRA: [], INTER: []}
    for (doc_id, head_id, tail_id), pair in zip(keys, pairs):
        if pair[0] != none:
            local[classify_locality(samples[doc_id], head_id, tail_id)].append(pair)

    macro_p = sum(s.precision for s in per_label.values()) / len(per_label)
    macro_r = sum(s.recall for s in per_label.values()) / len(per_label)
    macro_f = sum(s.f1 for s in per_label.values()) / len(per_label)

    return EvalReport(
        micro=score(pairs),
        per_label=per_label,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f,
        intra=score(local[INTRA]),
        inter=score(local[INTER]),
        intra_gold=len(local[INTRA]),
        inter_gold=len(local[INTER]),
        n_pairs=len(gold),
        gold_positives=sum(1 for label in gold.values() if label != none),
        predicted_positives=sum(1 for _, p in pairs if p != none),
        unparseable=sum(1 for p in predictions if p.unparseable),
    )


def _scores_dict(scores: Scores) -> dict:
    return {**asdict(scores), "flags": list(scores.flags)}


def report_to_dict(report: EvalReport) -> dict:
    return {
        "micro": _scores_dict(report.micro),
        "per_label": {label: _scores_dict(s) for label, s in sorted(report.per_label.items())},
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "intra": {**_scores_dict(report.intra), "gold": report.intra_gold},
        "inter": {**_scores_dict(report.inter), "gold": report.inter_gold},
        "counts": {
            "pairs": report.n_pairs,
            "gold_positives": report.gold_positives,
            "predicted_positives": report.predicted_positives,
            "unparseable": report.unparseable,
        },
    }


def save_report(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


def render_report(report: EvalReport) -> str:
    """Fixed-width text table for terminal output."""
    rows = [("micro", report.micro)]
    rows.extend(sorted(report.per_label.items()))
    rows.append(("intra", report.intra))
    rows.append(("inter", report.inter))
    width = max(len(name) for name, _ in rows)
    lines = [
        f"{'scope':<{width}}  {'P':>7}  {'R':>7}  {'F1':>7}  {'TP':>6}  {'FP':>6}  {'FN':>6}"
    ]
    for name, s in rows:
        lines.append(
            f"{name:<{width}}  {s.precision:>7.4f}  {s.recall:>7.4f}  "
            f"{s.f1:>7.4f}  {s.tp:>6d}  {s.fp:>6d}  {s.fn:>6d}"
        )
    lines.append(
        f"macro P/R/F1: {report.macro_precision:.4f}/"
        f"{report.macro_recall:.4f}/{report.macro_f1:.4f}"
    )
    lines.append(
        f"pairs: {report.n_pairs}  gold positives: {report.gold_positives} "
        f"(intra {report.intra_gold}, inter {report.inter_gold})  "
        f"predicted positives: {report.predicted_positives}  "
        f"unparseable: {report.unparseable}"
    )
    return "\n".join(lines)
