"""Augmented dataset construction and fine-tune export.

Original multi-relation documents are split so each gold triplet gets its
own single-relation record over the full document text. Accepted synthetic
summaries join as additional records for their triplet, and the per-document
unions are concatenated corpus-wide into one training set. Export turns
those records into instruction rows plus sampled negative pairs, with a
sidecar describing the adapter hyperparameters for the fine-tune job.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import ClassVar, Iterable, Mapping, Sequence

from .config import DEFAULTS
from .corpus import Corpus, gold_pair_labels
from .files import dump_jsonl
from .infer import build_instruction, build_task_input
from .iors import SyntheticRecord, positive_triplets
from .model import TrainingSample

PROVENANCE_ORIGINAL = "original"
PROVENANCE_SYNTHETIC = "synthetic"
_triplet_key = attrgetter("doc_id", "head_id", "tail_id", "relation")


@dataclass(frozen=True)
class AugmentedRecord:
    """One single-relation training record: a text plus exactly one triplet."""

    doc_id: str
    head_id: str
    tail_id: str
    relation: str
    text: str
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in (PROVENANCE_ORIGINAL, PROVENANCE_SYNTHETIC):
            raise ValueError(f"unknown provenance: {self.provenance!r}")


def split_sample(sample: TrainingSample) -> list[AugmentedRecord]:
    """One record per gold triplet, in pair order, each over the full document text."""
    doc = sample.document
    return [AugmentedRecord(doc.doc_id, t.head_id, t.tail_id, t.relation,
                            doc.text, PROVENANCE_ORIGINAL)
            for t in positive_triplets(sample)]


def build_dataset(corpus: Corpus,
                  synthetic: Sequence[SyntheticRecord]) -> tuple[AugmentedRecord, ...]:
    """Assemble the corpus-wide augmented dataset.

    Documents contribute in corpus order: first the split originals, then
    that document's accepted summaries in the same triplet order. Each
    synthetic record must name a positive gold triplet of its document,
    relation included, and no other record may name the same one.
    """
    originals = [split_sample(sample) for sample in corpus.samples]
    unused = {_triplet_key(r) for records in originals for r in records}
    summaries: dict[tuple[str, str, str, str], str] = {}
    for n, record in enumerate(synthetic, 1):
        key = _triplet_key(record)
        if key not in unused:
            raise ValueError(f"synthetic record {n}: {key} is not a positive gold "
                             "triplet of its document, or repeats one")
        unused.remove(key)
        summaries[key] = record.summary
    out: list[AugmentedRecord] = []
    for records in originals:
        out += records
        out += [replace(r, text=summaries[_triplet_key(r)], provenance=PROVENANCE_SYNTHETIC)
                for r in records if _triplet_key(r) in summaries]
    return tuple(out)


def save_dataset(records: Iterable[AugmentedRecord]) -> str:
    return dump_jsonl(records)


@dataclass(frozen=True)
class FinetunePreset:
    """Adapter hyperparameters for one benchmark configuration."""

    name: str
    lora_rank: int
    lora_alpha: int
    # Fixed, not settings: every benchmark configuration shares them.
    learning_rate: ClassVar[float] = 2e-4
    lora_dropout: ClassVar[float] = 0.1
    base_model_id: ClassVar[str] = "LLaMA2-7B-Chat"


PRESETS: Mapping[str, FinetunePreset] = {
    "cdr": FinetunePreset("cdr", lora_rank=16, lora_alpha=32),
    "gda": FinetunePreset("gda", lora_rank=64, lora_alpha=16),
    "biored": FinetunePreset("biored", lora_rank=64, lora_alpha=16),
}


def preset_for(name: str) -> FinetunePreset:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")


@dataclass(frozen=True)
class FinetuneExport:
    rows: tuple[dict, ...]
    sidecar: dict


def export_finetune(corpus: Corpus, records: Sequence[AugmentedRecord],
                    preset: FinetunePreset, *, iors_beta: int = DEFAULTS["beta"],
                    negative_ratio: float = DEFAULTS["negative_ratio"],
                    seed: int = DEFAULTS["seed"],
                    instruction_template: str | None = None) -> FinetuneExport:
    """Render instruction rows for adapter training plus a settings sidecar.

    Positive rows come from the augmented records. Negatives are drawn
    without replacement from the corpus's unrelated candidate pairs, at
    ``negative_ratio`` times the positive count (capped by pool size), with
    a seeded generator so exports reproduce exactly.
    """
    if not 0 <= negative_ratio < math.inf:
        raise ValueError(f"negative_ratio must be a finite number >= 0, got {negative_ratio}")
    samples = {s.document.doc_id: s for s in corpus.samples}
    instruction = build_instruction(corpus.schema, instruction_template)

    keyed_rows: list[tuple[tuple, dict]] = []

    def row(key: tuple[str, str, str, str], text: str, output: str) -> None:
        """Add the row for ``key = (doc_id, kind, head_id, tail_id)``."""
        doc_id, _, head_id, tail_id = key
        sample = samples.get(doc_id)
        if sample is None:
            raise ValueError(f"record for unknown document {doc_id!r}")
        keyed_rows.append((key, {
            "instruction": instruction,
            "input": build_task_input(text, sample.entity(head_id).canonical_name,
                                      sample.entity(tail_id).canonical_name),
            "output": output,
        }))

    for r in records:
        row((r.doc_id, r.provenance, r.head_id, r.tail_id), r.text, r.relation)

    counts = {kind: sum(1 for r in records if r.provenance == kind)
              for kind in (PROVENANCE_ORIGINAL, PROVENANCE_SYNTHETIC)}
    none = corpus.schema.none_label
    pool = sorted(key for key, label in gold_pair_labels(corpus).items() if label == none)
    want = min(len(pool), round(negative_ratio * len(records)))
    chosen = random.Random(seed).sample(pool, want) if want else []
    for doc_id, head_id, tail_id in chosen:
        row((doc_id, "negative", head_id, tail_id), samples[doc_id].document.text, none)
    counts["negative"] = len(chosen)

    keyed_rows.sort(key=lambda pair: pair[0])
    rows = tuple(r for _, r in keyed_rows)
    sidecar = {
        **vars(preset),
        "learning_rate": preset.learning_rate,
        "lora_dropout": preset.lora_dropout,
        "base_model_id": preset.base_model_id,
        "iors_beta": iors_beta,
        "negative_ratio": negative_ratio,
        "seed": seed,
        "row_counts": {**counts, "total": len(rows)},
        "dataset_fingerprint": hashlib.sha256(
            save_finetune_rows(rows).encode("utf-8")).hexdigest(),
    }
    sidecar["preset"] = sidecar.pop("name")
    return FinetuneExport(rows, sidecar)


def save_finetune_rows(rows: Iterable[dict]) -> str:
    return dump_jsonl(rows)
