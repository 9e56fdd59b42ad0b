import bisect
import json
import random
import re
from importlib import resources

import pytest

from adrcm.corpus import (
    ETYPE_MAP,
    Corpus,
    ParseError,
    builtin_schema,
    enumerate_candidate_pairs,
    load_corpus,
    parse_cui_map,
    parse_pubtator,
    save_corpus,
    segment_sentences,
)
from adrcm.model import (
    Document,
    Entity,
    Mention,
    RelationSchema,
    TrainingSample,
    Triplet,
    validate_sample,
)


def test_segment_sentences_hand_cases():
    assert segment_sentences("A b. C d.") == [(0, 5), (5, 9)]
    assert segment_sentences("") == []
    assert segment_sentences("No terminator") == [(0, 13)]
    assert segment_sentences("Hi! Ok? End.") == [(0, 4), (4, 8), (8, 12)]
    assert segment_sentences("One.  Two.") == [(0, 6), (6, 10)]


def _reference_sentences(text: str) -> list[tuple[int, int]]:
    """The character loop that segment_sentences replaced."""
    ranges: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            if j >= n or text[j].isspace():
                while j < n and text[j].isspace():
                    j += 1
                ranges.append((start, j))
                start = j
                i = j
                continue
        i += 1
    if start < n:
        ranges.append((start, n))
    return ranges


def test_segment_sentences_concatenation_property():
    rng = random.Random(7)
    alphabet = "ab .!?\n\t\u2028\u00a0\u0085\x1c\r"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        ranges = segment_sentences(text)
        assert ranges == _reference_sentences(text), text
        assert "".join(text[s:e] for s, e in ranges) == text
        assert all(s < e for s, e in ranges)
        assert [s for s, _ in ranges[1:]] == [e for _, e in ranges[:-1]]


SIMPLE = """\
101|t|Aspirin causes rash.
101|a|The rash faded. Aspirin was stopped.
101\t0\t7\tAspirin\tChemical\tD001
101\t15\t19\trash\tDisease\tD002
101\t25\t29\trash\tDisease\tD002
101\t37\t44\tAspirin\tChemical\tD001
101\tCID\tD001\tD002
"""


@pytest.fixture()
def simple_corpus(cdr_schema):
    return parse_pubtator(SIMPLE, cdr_schema, cui_map={"D001": "C0004057"})


def test_parse_pubtator_structure(simple_corpus):
    assert len(simple_corpus.samples) == 1
    sample = simple_corpus.samples[0]
    doc = sample.document
    assert doc.doc_id == "101"
    assert doc.title == "Aspirin causes rash."
    assert doc.body == "The rash faded. Aspirin was stopped."
    assert doc.text == SIMPLE.splitlines()[0][6:] + " " + SIMPLE.splitlines()[1][6:]
    assert [e.entity_id for e in sample.entities] == ["D001", "D002"]
    aspirin = sample.entity("D001")
    assert aspirin.cui == "C0004057"
    assert aspirin.canonical_name == "Aspirin"
    assert len(aspirin.mentions) == 2
    assert sample.entity("D002").cui is None
    assert sample.triplets == tuple(
        [type(sample.triplets[0])("D001", "D002", "CID")])


def test_parse_pubtator_sentence_indices(simple_corpus):
    sample = simple_corpus.samples[0]
    doc = sample.document
    # title, then two abstract sentences
    assert len(doc.sentences) == 3
    aspirin = sample.entity("D001")
    assert [m.sentence_index for m in aspirin.mentions] == [0, 2]
    rash = sample.entity("D002")
    assert [m.sentence_index for m in rash.mentions] == [0, 1]
    for entity in sample.entities:
        for m in entity.mentions:
            assert doc.text[m.char_range[0]:m.char_range[1]] == m.surface


def test_parse_pubtator_relation_alias(cdr_schema):
    content = SIMPLE.replace("101\tCID\t", "101\tinduces\t")
    corpus = parse_pubtator(content, cdr_schema)
    assert corpus.samples[0].triplets[0].relation == "CID"


def test_parse_pubtator_errors_carry_line_numbers(cdr_schema):
    bad_offsets = SIMPLE.replace("101\t0\t7\tAspirin", "101\t0\t6\tAspirin")
    with pytest.raises(ParseError, match="line 3"):
        parse_pubtator(bad_offsets, cdr_schema)

    bad_type = SIMPLE.replace("Chemical\tD001\n101\t15", "Potion\tD001\n101\t15")
    with pytest.raises(ParseError, match="unknown entity type"):
        parse_pubtator(bad_type, cdr_schema)

    bad_tag = SIMPLE.replace("101\tCID\t", "101\tPREVENTS\t")
    with pytest.raises(ParseError, match="unknown relation tag"):
        parse_pubtator(bad_tag, cdr_schema)

    bad_fields = SIMPLE + "101\tonly\tthree\n"
    with pytest.raises(ParseError, match="6 fields"):
        parse_pubtator(bad_fields, cdr_schema)

    with pytest.raises(ParseError, match="line 1"):
        parse_pubtator("junk without pipes\n", cdr_schema)

    with pytest.raises(ParseError, match=r"^line 1: expected 'PMID\|t\|<title>' line$"):
        parse_pubtator("|t|A title without a PMID.\n", cdr_schema)

    other_pmid = SIMPLE + "102\t0\t7\tAspirin\tChemical\tD001\n"
    with pytest.raises(ParseError, match="^line 8: annotation PMID '102' does not match"):
        parse_pubtator(other_pmid, cdr_schema)

    bad_number = SIMPLE.replace("101\t0\t7\tAspirin", "101\t0\tseven\tAspirin")
    with pytest.raises(ParseError, match="^line 3: non-integer offsets"):
        parse_pubtator(bad_number, cdr_schema)

    past_end = SIMPLE.replace("101\t37\t44\tAspirin", "101\t37\t440\tAspirin")
    with pytest.raises(ParseError, match=r"^line 6: mention span \(37, 440\) outside document"):
        parse_pubtator(past_end, cdr_schema)

    with pytest.raises(ValueError, match=r"duplicate doc_ids in corpus: \['101'\]"):
        parse_pubtator(SIMPLE + "\n" + SIMPLE, cdr_schema)


def test_parse_pubtator_tolerated_issues_become_violations(cdr_schema):
    content = (
        "102|t|Drugox causes fever.\n"
        "102\t0\t6\tDrugox\tChemical\tD001\n"
        "102\t7\t13\tcauses\tDisease\tD001\n"
        "102\t14\t19\tfever\tDisease\tD002\n"
        "102\tCID\tD001\tD999\n"
        "102\tCID\tD001\tD001\n"
        "102\tCID\tD001\tD002\n"
        "102\tinduces\tD001\tD002\n"
    )
    corpus = parse_pubtator(content, cdr_schema)
    sample = corpus.samples[0]
    assert len(sample.triplets) == 1
    notes = "\n".join(corpus.violations)
    assert "absent from mention lines" in notes
    assert "self-relation" in notes
    assert ("doc 102: entity 'D001' annotated with multiple types ['chemical', 'disease']; "
            "keeping 'chemical'") in notes
    assert sample.entity("D001").etype == "chemical"
    # same pair, same resolved label: silently deduplicated
    assert "conflicting labels" not in notes


def test_parse_pubtator_drops_a_relation_whose_type_pair_the_schema_refuses(cdr_schema):
    # D1 keeps its first type, chemical, so CID C1 D1 pairs two chemicals, as CID C2 C1 does.
    content = (
        "7|t|Drugox causes fever.\n"
        "7\t0\t6\tDrugox\tChemical\tC1\n"
        "7\t14\t19\tfever\tChemical\tD1\n"
        "7\t14\t19\tfever\tDisease\tD1\n"
        "7\tCID\tC1\tD1\n"
        "\n"
        "8|t|Drugox and drugon cause fever.\n"
        "8\t0\t6\tDrugox\tChemical\tC1\n"
        "8\t11\t17\tdrugon\tChemical\tC2\n"
        "8\t24\t29\tfever\tDisease\tD2\n"
        "8\tCID\tC2\tC1\n"
        "8\tCID\tC2\tD2\n"
    )
    corpus = parse_pubtator(content, cdr_schema)
    assert [s.triplets for s in corpus.samples] == [(), (Triplet("C2", "D2", "CID"),)]
    assert corpus.violations == (
        "doc 7: entity 'D1' annotated with multiple types ['chemical', 'disease']; "
        "keeping 'chemical'",
        "doc 7: line 5: relation (C1, D1) has type pair ('chemical', 'chemical'), "
        "which schema 'cdr' does not allow; dropped",
        "doc 8: line 11: relation (C2, C1) has type pair ('chemical', 'chemical'), "
        "which schema 'cdr' does not allow; dropped",
    )


def test_parse_pubtator_conflicting_labels_violation():
    schema = builtin_schema("biored")
    content = (
        "103|t|Genex binds drugon.\n"
        "103\t0\t5\tGenex\tGene\tG1\n"
        "103\t12\t18\tdrugon\tChemical\tD1\n"
        "103\tPositive_Correlation\tG1\tD1\n"
        "103\tNegative_Correlation\tG1\tD1\n"
    )
    corpus = parse_pubtator(content, schema)
    assert corpus.samples[0].triplets[0].relation == "Positive_Correlation"
    assert any("conflicting labels" in v for v in corpus.violations)


def test_parse_pubtator_drops_unlinked_mentions(cdr_schema):
    content = (
        "104|t|Drugox causes fever.\n"
        "104\t0\t6\tDrugox\tChemical\tD001\n"
        "104\t14\t19\tfever\tDisease\t-1\n"
    )
    corpus = parse_pubtator(content, cdr_schema)
    assert [e.entity_id for e in corpus.samples[0].entities] == ["D001"]


def test_parse_pubtator_merges_sentences_for_straddling_mentions(cdr_schema):
    # "E. coli" would be split by the terminator rule; the mention forces a merge
    content = (
        "105|t|E. coli sepsis after drugox.\n"
        "105\t0\t7\tE. coli\tSpecies\tS1\n"
        "105\t21\t27\tdrugox\tChemical\tD1\n"
    )
    corpus = parse_pubtator(content, cdr_schema)
    doc = corpus.samples[0].document
    assert len(doc.sentences) == 1
    assert corpus.samples[0].entity("S1").mentions[0].sentence_index == 0


def test_parse_pubtator_empty_title_has_no_sentences(cdr_schema):
    corpus = parse_pubtator("7|t|\n", cdr_schema)
    assert corpus.samples[0].document.sentences == ()
    assert load_corpus(save_corpus(corpus)) == corpus


def test_save_load_round_trip(toy_corpus, cdr_schema):
    text = save_corpus(toy_corpus)
    assert load_corpus(text) == toy_corpus
    # The header carries the whole schema, in the layout of its JSON file.
    header = json.loads(text.splitlines()[0])
    cdr_file = resources.files("adrcm.data.schemas").joinpath("cdr.json")
    assert header == {"dataset_tag": "CDR",
                      "schema": json.loads(cdr_file.read_text(encoding="utf-8"))}


def test_corpus_header_schema_needs_no_registry(toy_corpus):
    custom = RelationSchema(
        name="mini", labels=("CID", "Treats", "Nil"), none_label="Nil",
        allowed_type_pairs=frozenset({("disease", "chemical"), ("chemical", "disease")}),
        aliases={"causes": "CID"})
    corpus = Corpus(custom, toy_corpus.samples[:2])
    assert corpus.dataset_tag == "custom"
    text = save_corpus(corpus)
    assert load_corpus(text) == corpus
    pairs = json.loads(text.splitlines()[0])["schema"]["allowed_type_pairs"]
    assert pairs == [["chemical", "disease"], ["disease", "chemical"]]


def test_load_corpus_header_errors(toy_corpus, cdr_schema):
    text = save_corpus(toy_corpus)
    header, rest = text.split("\n", 1)
    bad_schema = json.loads(header)
    bad_schema["schema"]["none_label"] = "Nothing"
    with pytest.raises(ParseError, match="^line 1: bad corpus header: .*Nothing"):
        load_corpus(json.dumps(bad_schema) + "\n" + rest)
    broken = text.replace('"dataset_tag": "CDR"', '"dataset_tag": "XX"', 1)
    with pytest.raises(ParseError, match="^line 1: .*dataset_tag"):
        load_corpus(broken)
    with pytest.raises(ParseError, match="empty"):
        load_corpus("\n")
    headerless = "\n".join(text.splitlines()[1:])
    with pytest.raises(ParseError, match="^line 1: "):
        load_corpus(headerless)


def test_load_corpus_rejects_old_header_layout(toy_corpus, cdr_schema):
    # Corpus files used to name the schema and repeat its labels; the
    # schema itself came from the built-in registry.
    old = json.dumps({"dataset_tag": "CDR", "labels": list(cdr_schema.labels),
                      "none_label": "None", "schema": "cdr"}, sort_keys=True)
    rest = save_corpus(toy_corpus).split("\n", 1)[1]
    with pytest.raises(ParseError, match="^line 1: .*rerun `adrcm ingest`"):
        load_corpus(old + "\n" + rest)


def test_corpus_dataset_tag_defaults_to_the_schema_dataset(toy_corpus, cdr_schema):
    assert Corpus(cdr_schema, toy_corpus.samples).dataset_tag == "CDR"
    assert Corpus(builtin_schema("gda"), ()).dataset_tag == "GDA"
    tagged = Corpus(cdr_schema, toy_corpus.samples, dataset_tag="custom")
    assert tagged != toy_corpus
    assert load_corpus(save_corpus(tagged)) == tagged
    with pytest.raises(ValueError, match="unknown dataset_tag 'MINE'"):
        Corpus(cdr_schema, (), dataset_tag="MINE")


def _edit_first_sample(text: str, edit) -> str:
    lines = text.splitlines()
    row = json.loads(lines[1])
    edit(row)
    lines[1] = json.dumps(row)
    return "\n".join(lines) + "\n"


def _set_relation(row):
    row["triplets"][0]["relation"] = "Bogus"


def _cut_mention(row):
    # End the first sentence inside a mention that it holds.
    mention = row["entities"][0]["mentions"][0]
    assert mention["sentence_index"] == 0
    row["sentences"][0][1] = row["sentences"][1][0] = mention["char_range"][0] + 1


@pytest.mark.parametrize("edit, issue", [
    (_set_relation, "relation 'Bogus' not in schema 'cdr'"),
    (_cut_mention, "outside sentence 0"),
], ids=["relation", "mention"])
def test_load_corpus_refuses_an_edited_corpus(toy_corpus, edit, issue):
    doc_id = toy_corpus.samples[0].document.doc_id
    with pytest.raises(ParseError, match=f"^doc {doc_id}: sample violates invariants: .*{issue}"):
        load_corpus(_edit_first_sample(save_corpus(toy_corpus), edit))


def test_load_corpus_rejects_malformed_header():
    for text in ("{bad\n", "7\n"):
        with pytest.raises(ParseError, match="^line 1: bad corpus header: "):
            load_corpus(text)


def test_parse_cui_map():
    mapping = parse_cui_map("D001\tC0000001\n# comment\n\nD002\tC0000002\n")
    assert mapping == {"D001": "C0000001", "D002": "C0000002"}
    with pytest.raises(ParseError, match="line 1"):
        parse_cui_map("D001 C0000001\n")
    with pytest.raises(ParseError, match="bad CUI"):
        parse_cui_map("D001\tX123\n")
    with pytest.raises(ParseError, match="conflicting"):
        parse_cui_map("D001\tC0000001\nD001\tC0000002\n")


def test_enumerate_candidate_pairs_matches_bruteforce(toy_corpus, cdr_schema):
    for sample in toy_corpus.samples:
        gold = {(t.head_id, t.tail_id): t.relation for t in sample.triplets}
        expected = sorted(
            (h.entity_id, t.entity_id,
             gold.get((h.entity_id, t.entity_id), cdr_schema.none_label))
            for h in sample.entities
            for t in sample.entities
            if h.entity_id != t.entity_id
            and (h.etype, t.etype) in cdr_schema.allowed_type_pairs
        )
        assert enumerate_candidate_pairs(sample, cdr_schema) == expected


def test_builtin_schemas():
    cdr = builtin_schema("cdr")
    assert cdr.labels == ("CID", "None")
    assert cdr.positive_labels == ("CID",)
    gda = builtin_schema("gda")
    assert gda.positive_labels == ("GDA",)
    biored = builtin_schema("biored")
    assert len(biored.positive_labels) == 8
    assert biored.none_label in biored.labels
    with pytest.raises(KeyError):
        builtin_schema("nope")


# Tokens for random PubTator documents: terminators inside mentions ("E.",
# "Dr."), non-ASCII text, and Unicode whitespace that ends a sentence.
_TOKENS = ["aspirin", "rash", "E.", "coli", "Dr.", "fever!", "why?", "naïve",
           "β-blocker", "dose", "end.\u2028then", "ok.", "liver", "injury"]
_IDS = {"C1": "Chemical", "C2": "Chemical", "D1": "Disease", "D2": "Disease",
        "-1": "Disease"}


def _random_document(rng: random.Random, pmid: str) -> str:
    """One PubTator block with token-aligned mentions and noisy relations."""
    title = " ".join(rng.choices(_TOKENS, k=rng.randint(1, 6)))
    body = " ".join(rng.choices(_TOKENS, k=rng.randint(0, 20)))
    text = f"{title} {body}" if body else title
    spans, pos = [], 0
    for token in text.split(" "):
        spans.append((pos, pos + len(token)))
        pos += len(token) + 1
    lines = [f"{pmid}|t|{title}"] + ([f"{pmid}|a|{body}"] if body else [])
    for _ in range(rng.randint(0, 8)):
        first = rng.randrange(len(spans))
        last = min(len(spans) - 1, first + rng.randint(0, 2))
        start, end = spans[first][0], spans[last][1]
        identifier = rng.choice(sorted(_IDS))
        lines.append(f"{pmid}\t{start}\t{end}\t{text[start:end]}\t{_IDS[identifier]}"
                     f"\t{identifier}")
    for _ in range(rng.randint(0, 4)):
        # Relations to absent or repeated ids, self-relations and conflicting
        # labels become violations, not errors.
        head = rng.choice(["C1", "C2", "C9"])
        tail = rng.choice(["D1", "D2", "D9", head])
        lines.append(f"{pmid}\t{rng.choice(['CID', 'None'])}\t{head}\t{tail}")
    return "\n".join(lines) + "\n"


def test_parse_pubtator_random_documents_are_valid_and_round_trip(cdr_schema):
    rng = random.Random(11)
    for _ in range(60):
        content = "\n".join(_random_document(rng, str(1000 + i))
                            for i in range(rng.randint(1, 4)))
        cui_map = {"C1": "C0000001", "D2": "C0000002"} if rng.random() < 0.5 else None
        corpus = parse_pubtator(content, cdr_schema, cui_map=cui_map)
        for sample in corpus.samples:
            assert validate_sample(sample, cdr_schema) == []
            text = sample.document.text
            assert "".join(text[s:e] for s, e in sample.document.sentences) == text
        assert load_corpus(save_corpus(corpus)) == corpus


def _reference_parse_pubtator(content, schema, cui_map=None, dataset_tag=None):
    """The parser that parse_pubtator replaced: a ``(line number, line)`` tuple per
    line, and a scan of every mention for every sentence cut. It also drops a
    relation whose type pair the schema does not allow, which that parser left to
    the ``Corpus`` check to refuse the whole file for."""
    cui_map = cui_map or {}
    samples, violations = [], []
    block = []
    for line_no, raw in enumerate(content.split("\n") + [""], start=1):
        if raw.strip():
            block.append((line_no, raw))
            continue
        if block:
            samples.append(_reference_parse_block(block, schema, cui_map, violations))
            block = []
    return Corpus(schema=schema, samples=tuple(samples), dataset_tag=dataset_tag,
                  violations=tuple(violations))


def _reference_parse_block(block, schema, cui_map, violations):
    line_no, first = block[0]
    if first.count("|") < 2:
        raise ParseError("expected 'PMID|t|<title>' line", line_no)
    pmid, tag, title = first.split("|", 2)
    if tag != "t" or not pmid:
        raise ParseError("expected 'PMID|t|<title>' line", line_no)
    body = ""
    rest = block[1:]
    if rest and f"{pmid}|a|" == rest[0][1][: len(pmid) + 3]:
        body = rest[0][1][len(pmid) + 3 :]
        rest = rest[1:]
    text = title + " " + body if body else title
    mention_rows, relation_rows = [], []
    for ln, raw in rest:
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
                raise ParseError(f"mention span ({start}, {end}) reads {text[start:end]!r}, "
                                 f"annotation says {surface!r}", ln)
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
            raise ParseError("malformed line: expected 6 fields (mention) or 4 (relation), "
                             f"got {len(fields)}", ln)
    cuts = [cut for _, cut in segment_sentences(text)
            if not any(start < cut < end for start, end, *_ in mention_rows)]
    by_id = {}
    for start, end, ln, surface, etype, identifier in sorted(mention_rows):
        if identifier in ("", "-1"):
            continue
        by_id.setdefault(identifier, []).append((start, end, surface, etype))
    entities = []
    for identifier, rows in sorted(by_id.items()):
        etypes = {etype for *_, etype in rows}
        if len(etypes) > 1:
            violations.append(f"doc {pmid}: entity {identifier!r} annotated with multiple types "
                              f"{sorted(etypes)}; keeping {rows[0][3]!r}")
        entities.append(Entity(
            entity_id=identifier, etype=rows[0][3], canonical_name=rows[0][2],
            cui=cui_map.get(identifier),
            mentions=tuple(Mention(surface=surface,
                                   sentence_index=bisect.bisect_right(cuts, start),
                                   char_range=(start, end))
                           for start, end, surface, _ in rows)))
    known = {e.entity_id: e.etype for e in entities}
    triplets, seen = [], {}
    for ln, label, id1, id2 in relation_rows:
        missing = [i for i in (id1, id2) if i not in known]
        if missing:
            violations.append(f"doc {pmid}: relation ({id1}, {id2}) references identifiers "
                              f"absent from mention lines: {missing}; dropped")
            continue
        if id1 == id2:
            violations.append(f"doc {pmid}: self-relation on {id1!r}; dropped")
            continue
        if (known[id1], known[id2]) not in schema.allowed_type_pairs:
            violations.append(f"doc {pmid}: line {ln}: relation ({id1}, {id2}) has type pair "
                              f"{(known[id1], known[id2])}, which schema {schema.name!r} does "
                              "not allow; dropped")
            continue
        prev = seen.get((id1, id2))
        if prev is not None:
            if prev != label:
                violations.append(f"doc {pmid}: conflicting labels for pair ({id1}, {id2}): "
                                  f"{prev!r} kept, {label!r} dropped")
            continue
        seen[(id1, id2)] = label
        triplets.append(Triplet(head_id=id1, tail_id=id2, relation=label))
    return TrainingSample(
        document=Document(doc_id=pmid, title=title, body=body,
                          sentences=tuple(zip([0] + cuts, cuts))),
        entities=tuple(entities), triplets=tuple(triplets))


# Blank lines: whitespace only, as str.strip() sees it; "\u2028" and "\x85" do not
# end a line.
_SEPARATORS = ["", " ", "\t", "\r", "\x0b\x0c", "\u3000", "\x1c", "\u2028 ", "\x85"]
_TYPE_NAMES = {"Chemical": ["Chemical", "chemical", "ChemicalEntity"],
               "Disease": ["Disease", "DISEASE", "DiseaseOrPhenotypicFeature"]}


def _messy_pubtator(rng):
    """Random PubTator with whitespace-only separator lines, duplicate spans with
    another type or id, empty ids, alias relation tags and shuffled annotation lines."""
    blocks = []
    for i in range(rng.randint(1, 5)):
        pmid = str(2000 + i)
        title, *rest = _random_document(rng, pmid).split("\n")[:-1]
        head = [title] + [line for line in rest if "|a|" in line]
        annotations = [line for line in rest if "|a|" not in line]
        for line in [line for line in annotations if line.count("\t") == 5]:
            _, start, end, surface, etype, identifier = line.split("\t")
            roll = rng.random()
            if roll < 0.3:  # the same span under another type
                etype = "Chemical" if etype == "Disease" else "Disease"
            elif roll < 0.5:
                identifier = rng.choice(["", "-1", "C1", "D2"])
            annotations.append("\t".join(
                [pmid, start, end, surface, rng.choice(_TYPE_NAMES[etype]), identifier]))
        for _ in range(rng.randint(0, 3)):
            head_id, tail_id = rng.choice(["C1", "C2", "C9"]), rng.choice(["D1", "D2", "C1"])
            tag = rng.choice(["CID", "None", "induces", "Causes", "no relation", "cid"])
            annotations.append(f"{pmid}\t{tag}\t{head_id}\t{tail_id}")
        rng.shuffle(annotations)
        blocks.append(head + annotations)
    lines = rng.choices(_SEPARATORS, k=rng.randint(0, 2))
    for block in blocks:
        lines += block + rng.choices(_SEPARATORS, k=rng.randint(1, 3))
    return "\n".join(lines)


def _corrupt(rng, content):
    """``content`` with one non-blank line made malformed."""
    lines = content.split("\n")
    at = rng.choice([i for i, line in enumerate(lines) if line.strip()])
    fields = lines[at].split("\t")
    if "|" in lines[at]:
        lines[at] = rng.choice(["no pipes here", "|t|no pmid", lines[at].replace("|t|", "|x|"),
                                "999" + lines[at]])
    elif len(fields) == 6:
        k, value = rng.choice([(0, "999"), (1, "x"), (2, "99999"), (2, fields[1]), (3, "zz"),
                               (4, "Potion"), (1, "-1")])
        fields[k] = value
        lines[at] = "\t".join(rng.choice([fields, fields[:5], fields + ["extra"]]))
    else:
        fields[1] = rng.choice(["PREVENTS", fields[1]])
        lines[at] = "\t".join(rng.choice([fields, fields[:3], fields + ["x", "y"]]))
    return "\n".join(lines)


def _outcome(parse, content, schema, cui_map):
    try:
        corpus = parse(content, schema, cui_map=cui_map)
    except ValueError as exc:
        return type(exc), str(exc)
    return save_corpus(corpus), corpus.violations


def test_parse_pubtator_matches_the_reference_parser(cdr_schema):
    rng = random.Random(31)
    cui_map = {"C1": "C0000001", "D2": "C0000002"}
    seen = {"violations": 0, "type pairs": 0, "merged cuts": 0, "errors": set()}
    for _ in range(300):
        content = _messy_pubtator(rng)
        got = _outcome(parse_pubtator, content, cdr_schema, cui_map)
        assert got == _outcome(_reference_parse_pubtator, content, cdr_schema, cui_map), content
        if isinstance(got[0], str):
            corpus = parse_pubtator(content, cdr_schema, cui_map=cui_map)
            seen["violations"] += len(corpus.violations)
            seen["type pairs"] += sum("has type pair" in note for note in corpus.violations)
            seen["merged cuts"] += sum(
                len(sample.document.sentences) < len(segment_sentences(sample.document.text))
                for sample in corpus.samples)
        broken = _corrupt(rng, content)
        got = _outcome(parse_pubtator, broken, cdr_schema, cui_map)
        assert got == _outcome(_reference_parse_pubtator, broken, cdr_schema, cui_map), broken
        if not isinstance(got[0], str):
            seen["errors"].add(re.sub(r"[ (].*", "", got[1].split(": ", 1)[1]))
    assert seen["violations"] > 100 and seen["merged cuts"] > 30, seen
    assert seen["type pairs"] > 100, seen
    # each kind of malformed line was met: title, PMID, fields, offsets, span, type, tag
    assert seen["errors"] >= {"expected", "annotation", "malformed", "non-integer", "mention",
                              "unknown"}, seen["errors"]


def test_load_corpus_rejects_unknown_sample_fields(toy_corpus):
    lines = save_corpus(toy_corpus).splitlines()
    row = json.loads(lines[2])
    row["entities"][0]["url"] = "https://example.org"
    lines[2] = json.dumps(row)
    with pytest.raises(ParseError, match="^line 3: bad sample record: .*'url'"):
        load_corpus("\n".join(lines))


def test_load_corpus_reports_file_line_numbers(toy_corpus):
    header, first = save_corpus(toy_corpus).splitlines()[:2]
    with pytest.raises(ParseError, match="^line 4: bad sample record: "):
        load_corpus(f"{header}\n\n\n{first[:-3]}\n")
