"""Seeded scale-up of the packaged toy corpus and KB snapshot.

Copy ``c`` of the toy data gets fresh PMIDs, entity ids and CUIs drawn from
``random.Random(seed)``, plus a copy-specific sentence appended to every
abstract. Appending keeps mention offsets valid, and the extra sentence
makes every copy's prompts distinct: verbatim copies would collapse in the
reply cache and leave the chat path mostly unused. KB articles get a single
copy tag token instead, which adds one chunk per copy (42 instead of 41 at
the toy chunk parameters) while giving every copy distinct vectors.

Corpus copy ``c`` and KB copy ``c`` share CUIs, so scoped retrieval for a
copy reaches only its own articles. KB copies beyond the corpus copies are
distractors that only unscoped retrieval ever scores.

The generator works on the raw PubTator, TSV and JSONL text; the program
under test receives only the generated text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

UNLINKED_IDS = ("", "-1")

# CDR candidate pairs are (chemical, disease); relation lines carry "CID".
HEAD_TYPES = ("chemical",)
TAIL_TYPES = ("disease",)
POSITIVE_LABEL = "CID"
NONE_LABEL = "None"


@dataclass(frozen=True)
class Pair:
    """One candidate pair of the generated corpus, with its gold label."""

    doc_id: str
    head_id: str
    tail_id: str
    gold: str


@dataclass(frozen=True)
class ScaledInputs:
    pubtator: str
    cui_map: str
    kb: str
    copies: int
    kb_copies: int
    markers: tuple[str, ...]
    pairs: tuple[Pair, ...]
    doc_copy: dict[str, int]
    cui_copy: dict[str, int]
    kb_cuis: frozenset[str]

    @property
    def positives(self) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if p.gold != NONE_LABEL)


def toy_text(name: str) -> str:
    return resources.files("adrcm.data.toy").joinpath(name).read_text(encoding="utf-8")


def _blocks(pubtator: str) -> list[list[str]]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in pubtator.split("\n") + [""]:
        if line.strip():
            current.append(line)
        elif current:
            blocks.append(current)
            current = []
    return blocks


def scale_up(seed: int, copies: int, kb_copies: int | None = None) -> ScaledInputs:
    """Build ``copies`` corpus copies and ``kb_copies`` KB copies from ``seed``."""
    kb_copies = copies if kb_copies is None else kb_copies
    if copies < 1 or kb_copies < copies:
        raise ValueError("need copies >= 1 and kb_copies >= copies")
    blocks = _blocks(toy_text("toy_corpus.pubtator"))
    cui_rows = [line.split("\t") for line in toy_text("toy_cui_map.tsv").splitlines()
                if line.strip() and not line.startswith("#")]
    kb_rows = [json.loads(line) for line in toy_text("toy_kb.jsonl").splitlines()
               if line.strip()]

    entity_ids = sorted({fields[5] for block in blocks for line in block[2:]
                         for fields in [line.split("\t")] if len(fields) == 6}
                        - set(UNLINKED_IDS) | {row[0] for row in cui_rows})
    cuis = sorted({row[1] for row in cui_rows} | {row["cui"] for row in kb_rows})

    rng = random.Random(seed)
    pmids = iter(rng.sample(range(10_000_000, 100_000_000), copies * len(blocks)))
    fresh_ids = iter(rng.sample(range(1_000_000, 10_000_000), copies * len(entity_ids)))
    fresh_cuis = iter(rng.sample(range(10_000_000), kb_copies * len(cuis)))
    tags = rng.sample(range(36 ** 5, 36 ** 6), kb_copies)
    kb_tags = tuple(f"[{_base36(t)}]" for t in tags)
    markers = tuple(f"Registry entry {_base36(t)} was reviewed." for t in tags)

    cui_of = [{cui: f"C{next(fresh_cuis):07d}" for cui in cuis} for _ in range(kb_copies)]
    cui_copy = {fresh: c for c, mapping in enumerate(cui_of) for fresh in mapping.values()}

    pub_out: list[str] = []
    map_out: list[str] = []
    pairs: list[Pair] = []
    doc_copy: dict[str, int] = {}
    for c in range(copies):
        ids = {old: f"D{next(fresh_ids):07d}" for old in entity_ids}
        for old, cui in cui_rows:
            map_out.append(f"{ids[old]}\t{cui_of[c][cui]}")
        for block in blocks:
            pmid = str(next(pmids))
            doc_copy[pmid] = c
            pub_out.append("\n".join(_rewrite_block(block, pmid, ids, markers[c],
                                                    pairs)))
    kb_out = []
    for c in range(kb_copies):
        for row in kb_rows:
            kb_out.append(json.dumps({
                "cui": cui_of[c][row["cui"]], "source": row["source"],
                "title": row["title"], "text": row["text"] + " " + kb_tags[c],
            }, sort_keys=True, ensure_ascii=False))
    return ScaledInputs(
        pubtator="\n\n".join(pub_out) + "\n",
        cui_map="\n".join(map_out) + "\n",
        kb="\n".join(kb_out) + "\n",
        copies=copies, kb_copies=kb_copies, markers=markers,
        pairs=tuple(pairs), doc_copy=doc_copy, cui_copy=cui_copy,
        kb_cuis=frozenset(cui_of[c][row["cui"]] for c in range(kb_copies) for row in kb_rows),
    )


def _base36(n: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = ""
    while n:
        n, r = divmod(n, 36)
        out = digits[r] + out
    return out


def _rewrite_block(block: list[str], pmid: str, ids: dict[str, str], marker: str,
                   pairs: list[Pair]) -> list[str]:
    """Rename one toy document and record its candidate pairs."""
    old_pmid, tag, title = block[0].split("|", 2)
    if tag != "t" or not block[1].startswith(f"{old_pmid}|a|"):
        raise ValueError(f"toy document {old_pmid} needs a title and an abstract line")
    abstract = block[1][len(old_pmid) + 3:]
    out = [f"{pmid}|t|{title}", f"{pmid}|a|{abstract} {marker}"]
    types: dict[str, str] = {}
    relations: dict[tuple[str, str], str] = {}
    for line in block[2:]:
        fields = line.split("\t")
        fields[0] = pmid
        if len(fields) == 6:
            if fields[5] not in UNLINKED_IDS:
                fields[5] = ids[fields[5]]
                types.setdefault(fields[5], fields[4].lower())
        elif len(fields) == 4:
            fields[2], fields[3] = ids[fields[2]], ids[fields[3]]
            relations[(fields[2], fields[3])] = POSITIVE_LABEL
        out.append("\t".join(fields))
    heads = sorted(e for e, t in types.items() if t in HEAD_TYPES)
    tails = sorted(e for e, t in types.items() if t in TAIL_TYPES)
    pairs.extend(Pair(pmid, h, t, relations.get((h, t), NONE_LABEL))
                 for h in heads for t in tails)
    return out
