"""Corpus I/O: PubTator parsing, a normalized JSONL corpus format, candidate
pair enumeration, and sentence segmentation.

PubTator grammar accepted here:

    PMID|t|<title>
    PMID|a|<abstract>
    PMID<TAB>start<TAB>end<TAB>surface<TAB>type<TAB>identifier      (mention)
    PMID<TAB>label<TAB>id1<TAB>id2                                  (relation)

Blocks are separated by blank lines. Mention offsets address the
concatenation ``title + " " + abstract``.

The normalized corpus format is line-delimited JSON: a header object
carrying the dataset tag and the full relation schema (the fields of a
``data/schemas/*.json`` file), followed by one object per sample with the
fields doc_id, title, body, sentences, entities, triplets. A corpus file
therefore needs no schema from anywhere else, custom schemas included.
Negative (no-relation) pairs are never stored; they are materialized by
:func:`enumerate_candidate_pairs`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .files import jsonl_lines
from .model import (
    CUI_PATTERN,
    Document,
    Entity,
    Mention,
    RelationSchema,
    TrainingSample,
    Triplet,
    validate_sample,
)


class ParseError(ValueError):
    """Raised for malformed corpus files; the message leads with a 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


@dataclass(frozen=True)
class Corpus:
    """A relation schema plus the samples annotated under it.

    Every sample must satisfy :func:`validate_sample` under the schema,
    however the corpus was made. ``dataset_tag`` defaults to the tag that
    the schema name selects (``cdr`` gives ``CDR``), else ``custom``.
    ``violations`` collects per-line anomalies tolerated during parsing
    (dropped relations, conflicting duplicates). It is diagnostic only and
    is not serialized.
    """

    schema: RelationSchema
    samples: tuple[TrainingSample, ...]
    dataset_tag: str | None = None
    violations: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.dataset_tag is None:
            object.__setattr__(self, "dataset_tag",
                               _SCHEMA_DATASET_TAGS.get(self.schema.name, "custom"))
        if self.dataset_tag not in DATASET_TAGS:
            raise ValueError(f"unknown dataset_tag {self.dataset_tag!r}")
        ids = [s.document.doc_id for s in self.samples]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate doc_ids in corpus: {dupes}")
        for sample in self.samples:
            issues = validate_sample(sample, self.schema)
            if issues:
                raise ParseError(f"doc {sample.document.doc_id}: sample violates "
                                 "invariants: " + "; ".join(issues))


# PubTator entity-type strings, normalized case-insensitively.
ETYPE_MAP = {
    "chemical": "chemical",
    "chemicalentity": "chemical",
    "disease": "disease",
    "diseaseorphenotypicfeature": "disease",
    "gene": "gene",
    "geneorgeneproduct": "gene",
    "sequencevariant": "variant",
    "variant": "variant",
    "mutation": "variant",
    "species": "species",
    "organismtaxon": "species",
    "cellline": "cell_line",
}

_UNLINKED_IDS = {"", "-1"}

_SCHEMA_DATASET_TAGS = {"cdr": "CDR", "gda": "GDA", "biored": "BioRED"}
DATASET_TAGS = (*_SCHEMA_DATASET_TAGS.values(), "custom")


# A sentence ends after '.', '!' or '?' followed by whitespace or the end of
# the text, and takes that whitespace with it; a trailing segment without a
# terminator is its own sentence.
_SENTENCE = re.compile(r".*?[.!?](?:\s+|\Z)|.+", re.S)


def segment_sentences(text: str) -> list[tuple[int, int]]:
    """Split text into half-open sentence ranges that concatenate back to
    the input exactly."""
    return [m.span() for m in _SENTENCE.finditer(text)]


def parse_pubtator(
    content: str,
    schema: RelationSchema,
    cui_map: dict[str, str] | None = None,
    dataset_tag: str | None = None,
) -> Corpus:
    """Parse PubTator-formatted text into a normalized corpus.

    Mentions are grouped into entities by their dataset identifier; unlinked
    mentions (identifier ``-1`` or empty) are dropped. Relation lines whose
    identifiers never appear in mention lines, or whose entities' types the
    schema does not pair, become violation entries on the returned corpus
    rather than crashes. Structural problems (wrong field counts,
    offset/surface mismatches, unknown relation tags) raise
    :class:`ParseError` with the offending line number.
    """
    cui_map = cui_map or {}
    violations: list[str] = []
    # Blank lines, and one past the last line, bound the blocks. Line i has number i + 1.
    lines = content.split("\n")
    bounds = [-1, *(i for i, raw in enumerate(lines) if not raw.strip()), len(lines)]
    samples = [_parse_block(lines, first + 1, stop, schema, cui_map, violations)
               for first, stop in zip(bounds, bounds[1:]) if stop > first + 1]
    return Corpus(schema=schema, samples=tuple(samples), dataset_tag=dataset_tag,
                  violations=tuple(violations))


def _parse_block(
    lines: list[str],
    first: int,
    stop: int,
    schema: RelationSchema,
    cui_map: dict[str, str],
    violations: list[str],
) -> TrainingSample:
    head = lines[first].split("|", 2)
    if len(head) < 3 or head[1] != "t" or not head[0]:
        raise ParseError("expected 'PMID|t|<title>' line", first + 1)
    pmid, _, title = head

    body = ""
    first += 1
    if first < stop and lines[first].startswith(f"{pmid}|a|"):
        body = lines[first][len(pmid) + 3 :]
        first += 1

    text = title + " " + body if body else title
    mention_rows: list[tuple[int, int, int, str, str, str]] = []
    relation_rows: list[tuple[int, str, str, str]] = []

    for ln, raw in enumerate(lines[first:stop], first + 1):
        fields = raw.split("\t")
        if fields[0] != pmid:
            raise ParseError(f"annotation PMID {fields[0]!r} does not match block {pmid!r}", ln)
        if len(fields) == 6:
            _, start_s, end_s, surface, etype_s, identifier = fields
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise ParseError(f"non-integer offsets ({start_s!r}, {end_s!r})", ln)
            if not (0 <= start < end <= len(text)):
                raise ParseError(f"mention span ({start}, {end}) outside document", ln)
            if text[start:end] != surface:
                raise ParseError(
                    f"mention span ({start}, {end}) reads {text[start:end]!r}, "
                    f"annotation says {surface!r}",
                    ln,
                )
            etype = ETYPE_MAP.get(etype_s.lower())
            if etype is None:
                raise ParseError(f"unknown entity type {etype_s!r}", ln)
            mention_rows.append((start, end, ln, surface, etype, identifier))
        elif len(fields) == 4:
            _, tag, id1, id2 = fields
            label = tag if tag in schema.labels else schema.aliases.get(tag.lower())
            if label is None:
                raise ParseError(f"unknown relation tag {tag!r}", ln)
            relation_rows.append((ln, label, id1, id2))
        else:
            raise ParseError(
                f"malformed line: expected 6 fields (mention) or 4 (relation), got {len(fields)}",
                ln,
            )

    # The terminator rule has no abbreviation dictionary, so a mention such
    # as "E. coli" can straddle a sentence end; such an end is dropped. With
    # the rows sorted, reach[i] is the furthest end among the first i mentions.
    mention_rows.sort()
    starts = [row[0] for row in mention_rows]
    reach = list(itertools.accumulate([row[1] for row in mention_rows], max, initial=0))
    cuts = [cut for _, cut in segment_sentences(text)
            if reach[bisect.bisect_left(starts, cut)] <= cut]

    by_id: dict[str, list[tuple[int, int, int, str, str, str]]] = {}
    for row in mention_rows:
        if row[5] not in _UNLINKED_IDS:
            by_id.setdefault(row[5], []).append(row)

    entities = []
    for identifier, rows in sorted(by_id.items()):
        etype = rows[0][4]
        if any(row[4] != etype for row in rows):
            violations.append(
                f"doc {pmid}: entity {identifier!r} annotated with multiple types "
                f"{sorted({row[4] for row in rows})}; keeping {etype!r}"
            )
        entities.append(
            Entity(
                entity_id=identifier,
                etype=etype,
                canonical_name=rows[0][3],
                cui=cui_map.get(identifier),
                mentions=tuple(
                    Mention(surface, bisect.bisect_right(cuts, start), (start, end))
                    for start, end, _, surface, *_ in rows
                ),
            )
        )

    kept: dict[tuple[str, str], str] = {}  # pair to label, in file order
    for ln, label, id1, id2 in relation_rows:
        missing = [i for i in (id1, id2) if i not in by_id]
        if missing:
            violations.append(
                f"doc {pmid}: relation ({id1}, {id2}) references identifiers absent "
                f"from mention lines: {missing}; dropped"
            )
            continue
        if id1 == id2:
            violations.append(f"doc {pmid}: self-relation on {id1!r}; dropped")
            continue
        type_pair = (by_id[id1][0][4], by_id[id2][0][4])  # each entity's kept type
        if type_pair not in schema.allowed_type_pairs:
            violations.append(f"doc {pmid}: line {ln}: relation ({id1}, {id2}) has type pair "
                              f"{type_pair}, which schema {schema.name!r} does not allow; dropped")
            continue
        prev = kept.setdefault((id1, id2), label)
        if prev != label:
            violations.append(
                f"doc {pmid}: conflicting labels for pair ({id1}, {id2}): "
                f"{prev!r} kept, {label!r} dropped"
            )

    return TrainingSample(
        document=Document(
            doc_id=pmid,
            title=title,
            body=body,
            sentences=tuple(zip([0] + cuts, cuts)),
        ),
        entities=tuple(entities),
        triplets=tuple(Triplet(id1, id2, label) for (id1, id2), label in kept.items()),
    )


def save_corpus(corpus: Corpus) -> str:
    """Serialize a corpus to the normalized line-delimited format."""
    # The frozenset's iteration order depends on the hash seed.
    schema = {**vars(corpus.schema),
              "allowed_type_pairs": sorted(corpus.schema.allowed_type_pairs)}
    out = [json.dumps({"dataset_tag": corpus.dataset_tag, "schema": schema},
                      sort_keys=True)]
    for sample in corpus.samples:
        row = {**vars(sample.document), "entities": sample.entities,
               "triplets": sample.triplets}
        out.append(json.dumps(row, sort_keys=True, default=vars))
    return "\n".join(out) + "\n"


def load_corpus(text: str) -> Corpus:
    """Load a corpus saved by :func:`save_corpus`, schema from its header."""
    lines = jsonl_lines(text)
    line_no, first = next(lines, (0, None))
    if first is None:
        raise ParseError("empty corpus file")
    try:
        header = json.loads(first)
        tag = header["dataset_tag"]
        schema = schema_from_dict(header["schema"])
        if tag not in DATASET_TAGS:
            raise ValueError(f"unknown dataset_tag {tag!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad corpus header: {exc}; rerun `adrcm ingest` to "
                         "rewrite the file", line_no) from None

    samples = []
    for line_no, line in lines:
        try:
            obj = json.loads(line)
            samples.append(_sample_from_json(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad sample record: {exc}", line_no)
    return Corpus(schema=schema, samples=tuple(samples), dataset_tag=tag)


def _sample_from_json(obj: dict) -> TrainingSample:
    entities = obj.pop("entities")
    triplets = obj.pop("triplets")
    sentences = tuple(tuple(r) for r in obj.pop("sentences"))
    return TrainingSample(
        document=Document(**obj, sentences=sentences),
        entities=tuple(
            Entity(**{**e, "mentions": tuple(
                Mention(**{**m, "char_range": tuple(m["char_range"])})
                for m in e["mentions"])})
            for e in entities
        ),
        triplets=tuple(Triplet(**t) for t in triplets),
    )


PairKey = tuple[str, str, str]


def gold_pair_labels(corpus: Corpus) -> dict[PairKey, str]:
    """Gold label for every candidate pair in the corpus, keyed by
    ``(doc_id, head_id, tail_id)``."""
    gold: dict[PairKey, str] = {}
    for sample in corpus.samples:
        doc_id = sample.document.doc_id
        for head_id, tail_id, label in enumerate_candidate_pairs(sample, corpus.schema):
            gold[(doc_id, head_id, tail_id)] = label
    return gold


def enumerate_candidate_pairs(
    sample: TrainingSample, schema: RelationSchema
) -> list[tuple[str, str, str]]:
    """All ordered entity pairs with admissible types, with gold labels.

    Pairs carrying an annotated triplet get its label; every other pair gets
    the schema's none label. Output is sorted by (head_id, tail_id).
    """
    gold = {(t.head_id, t.tail_id): t.relation for t in sample.triplets}
    pairs = []
    for head in sample.entities:
        for tail in sample.entities:
            if head.entity_id == tail.entity_id:
                continue
            if (head.etype, tail.etype) not in schema.allowed_type_pairs:
                continue
            label = gold.get((head.entity_id, tail.entity_id), schema.none_label)
            pairs.append((head.entity_id, tail.entity_id, label))
    pairs.sort(key=lambda p: (p[0], p[1]))
    return pairs


def parse_cui_map(text: str) -> dict[str, str]:
    """Parse a two-column TSV mapping entity identifiers to CUIs."""
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected 'identifier<TAB>CUI'", line_no)
        identifier, cui = fields[0].strip(), fields[1].strip()
        if not identifier or not CUI_PATTERN.fullmatch(cui):
            raise ParseError(f"bad CUI mapping {identifier!r} -> {cui!r}", line_no)
        if identifier in mapping and mapping[identifier] != cui:
            raise ParseError(f"conflicting CUIs for {identifier!r}", line_no)
        mapping[identifier] = cui
    return mapping


def schema_from_dict(obj: dict) -> RelationSchema:
    return RelationSchema(
        name=obj["name"],
        labels=tuple(obj["labels"]),
        none_label=obj["none_label"],
        allowed_type_pairs=frozenset(tuple(p) for p in obj["allowed_type_pairs"]),
        aliases=dict(obj.get("aliases", {})),
    )


def builtin_schema(name: str) -> RelationSchema:
    """Load one of the shipped schema configurations: cdr, gda, or biored."""
    ref = resources.files("adrcm.data.schemas").joinpath(f"{name}.json")
    if not ref.is_file():
        raise KeyError(f"no built-in schema named {name!r}")
    return schema_from_dict(json.loads(ref.read_text(encoding="utf-8")))
