"""Core data model for document-level biomedical relation extraction.

All types are frozen dataclasses: immutable after construction and safe to
share across threads. Structural checks that need no schema run in
``__post_init__``; everything that depends on a :class:`RelationSchema`
(positive-label membership, allowed entity-type pairs) is reported by
:func:`validate_sample` as violation strings rather than exceptions, so that
noisy data can be surveyed without crashing a pipeline run.

Character offsets are half-open ``[start, end)`` ranges over the single
coordinate system ``title + " " + body``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

CUI_PATTERN = re.compile(r"C[0-9]{7}")  # full-matched
_TERMINAL_PUNCT = ".!?,;:\"'`"

ENTITY_TYPES = ("chemical", "disease", "gene", "variant", "species", "cell_line")


@dataclass(frozen=True)
class Mention:
    """One surface occurrence of an entity inside a document."""

    surface: str
    sentence_index: int
    char_range: tuple[int, int]


@dataclass(frozen=True)
class Document:
    """A biomedical abstract with sentence offsets over ``title + " " + body``."""

    doc_id: str
    title: str
    body: str
    sentences: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")

    @property
    def text(self) -> str:
        """Full document text in the shared offset coordinate system."""
        if not self.body:
            return self.title
        return self.title + " " + self.body


@dataclass(frozen=True)
class Entity:
    """An annotated entity: dataset-native id plus all of its mentions.

    ``entity_id`` is the identity used by triplets; surfaces (aliases) live
    on the mentions. ``cui`` is the optional UMLS concept identifier used by
    CUI-scoped retrieval.
    """

    entity_id: str
    etype: str
    canonical_name: str
    mentions: tuple[Mention, ...]
    cui: str | None = None

    def __post_init__(self):
        if self.etype not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.etype!r}")
        if not self.mentions:
            raise ValueError(f"entity {self.entity_id!r} has no mentions")
        if self.cui is not None and not CUI_PATTERN.fullmatch(self.cui):
            raise ValueError(f"malformed CUI {self.cui!r} (expected C + 7 digits)")


@dataclass(frozen=True)
class RelationSchema:
    """Label inventory for one dataset, including the explicit no-relation label.

    ``aliases`` maps more surfaces to labels. No two surfaces (labels or
    aliases) equal ignoring case may name different labels.
    """

    name: str
    labels: tuple[str, ...]
    none_label: str
    allowed_type_pairs: frozenset[tuple[str, str]]
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not all(type(s) is str for s, _ in self.surfaces()):  # schema files are outside input
            raise ValueError("labels and aliases must be strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if self.none_label not in self.labels:
            raise ValueError(f"none_label {self.none_label!r} not in labels")
        if not self.positive_labels:
            # An eval report's macro average divides by their number.
            raise ValueError("labels need at least one besides none_label")
        bad = [v for v in self.aliases.values() if v not in self.labels]
        if bad:
            raise ValueError(f"aliases map to unknown labels: {bad}")
        named: dict[str, str] = {}
        for surface, label in self.surfaces():
            if (first := named.setdefault(surface.casefold(), label)) != label:
                raise ValueError(f"{surface!r} names both {first!r} and {label!r}")

    @property
    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.labels if l != self.none_label)

    def surfaces(self) -> list[tuple[str, str]]:
        """Each label, then each alias, with the label it names."""
        return [*zip(self.labels, self.labels), *self.aliases.items()]

    def label_of(self, text: str) -> str | None:
        """The label ``text`` names, ignoring case, outer space and end punctuation, or None."""
        folded = text.strip().strip(_TERMINAL_PUNCT).strip().casefold()
        return {s.casefold(): label for s, label in self.surfaces()}.get(folded)

    def label_in(self, text: str) -> str | None:
        """The label of the earliest whole-word surface in ``text`` (the longest there), or None."""
        surfaces = sorted(self.surfaces(), key=lambda s: -len(s[0]))
        match = re.search("|".join(rf"\b({re.escape(s)})\b" for s, _ in surfaces),
                          text, re.IGNORECASE)
        return None if match is None else surfaces[match.lastindex - 1][1]


@dataclass(frozen=True)
class Triplet:
    """An ordered head-tail entity pair with its relation label."""

    head_id: str
    tail_id: str
    relation: str

    def __post_init__(self):
        if self.head_id == self.tail_id:
            raise ValueError(f"triplet head and tail are identical: {self.head_id!r}")


@dataclass(frozen=True)
class TrainingSample:
    """One document together with its entities and annotated triplets."""

    document: Document
    entities: tuple[Entity, ...]
    triplets: tuple[Triplet, ...]

    def entity(self, entity_id: str) -> Entity:
        for e in self.entities:
            if e.entity_id == entity_id:
                return e
        raise KeyError(entity_id)


def validate_sample(sample: TrainingSample, schema: RelationSchema) -> list[str]:
    """Check every invariant of a sample against a schema.

    Returns a list of human-readable violation descriptions; an empty list
    means the sample is well formed. Pure: never mutates, never raises on
    bad data of the declared field types.
    """
    violations: list[str] = []
    doc = sample.document
    text_len = len(doc.text)

    prev_end = None
    for start, end in doc.sentences:
        if not (0 <= start < end <= text_len):
            violations.append(
                f"doc {doc.doc_id}: sentence range ({start}, {end}) outside text"
            )
        if prev_end is not None and start < prev_end:
            violations.append(
                f"doc {doc.doc_id}: sentence ranges unsorted or overlapping at {start}"
            )
        prev_end = end

    etypes: dict[str, str] = {}  # the first entity of an id wins, as in entity()
    for entity in sample.entities:
        if entity.entity_id in etypes:
            violations.append(f"duplicate entity id {entity.entity_id!r}")
        etypes.setdefault(entity.entity_id, entity.etype)
        for m in entity.mentions:
            if not (0 <= m.sentence_index < len(doc.sentences)):
                violations.append(
                    f"entity {entity.entity_id!r}: mention sentence index "
                    f"{m.sentence_index} out of range"
                )
                continue
            s_start, s_end = doc.sentences[m.sentence_index]
            m_start, m_end = m.char_range
            if not (s_start <= m_start < m_end <= s_end):
                violations.append(
                    f"entity {entity.entity_id!r}: mention range {m.char_range} "
                    f"outside sentence {m.sentence_index}"
                )

    seen_pairs = set()
    for t in sample.triplets:
        missing = [i for i in (t.head_id, t.tail_id) if i not in etypes]
        if missing:
            for entity_id in missing:
                violations.append(
                    f"triplet ({t.head_id}, {t.tail_id}): unknown entity id {entity_id!r}"
                )
            continue
        if t.relation not in schema.positive_labels:
            violations.append(
                f"triplet ({t.head_id}, {t.tail_id}): relation {t.relation!r} "
                f"not in schema {schema.name!r} as a positive label"
            )
        pair = (t.head_id, t.tail_id)
        if pair in seen_pairs:
            violations.append(f"duplicate triplet for pair {pair}")
        seen_pairs.add(pair)
        type_pair = (etypes[t.head_id], etypes[t.tail_id])
        if type_pair not in schema.allowed_type_pairs:
            violations.append(
                f"triplet ({t.head_id}, {t.tail_id}): type pair {type_pair} "
                f"not in allowed_type_pairs of schema {schema.name!r}"
            )
    return violations
