import pytest

from adrcm.model import (
    CUI_PATTERN,
    Document,
    Entity,
    Mention,
    RelationSchema,
    TrainingSample,
    Triplet,
    validate_sample,
)
from conftest import make_sample


def _mention(surface="aspirin", sent=0, rng=(0, 7)):
    return Mention(surface, sent, rng)


def test_document_text_joins_title_and_body():
    doc = Document("d1", "Title.", "Body text.", ((0, 7), (7, 17)))
    assert doc.text == "Title. Body text."


def test_document_text_title_only_when_body_empty():
    doc = Document("d1", "Title.", "", ((0, 6),))
    assert doc.text == "Title."


def test_document_rejects_empty_id():
    with pytest.raises(ValueError):
        Document("", "t", "b", ())


def test_cui_pattern():
    """The pattern is full-matched: ASCII digits only, nothing before or after."""
    assert CUI_PATTERN.fullmatch("C0012345")
    for bad in ("C123", "D0012345", "C00123456", "C0012345\n", "xC0012345",
                "C\u0660\u0660\u0660\u0660\u0660\u0660\u0661"):
        assert not CUI_PATTERN.fullmatch(bad), bad


def test_entity_invariants():
    with pytest.raises(ValueError):
        Entity("e1", "molecule", "x", (_mention(),))
    with pytest.raises(ValueError):
        Entity("e1", "chemical", "x", ())
    for cui in ("Q0012345", "C0012345\n", "C\u0660\u0660\u0660\u0660\u0660\u0660\u0661"):
        with pytest.raises(ValueError, match="malformed CUI"):
            Entity("e1", "chemical", "x", (_mention(),), cui=cui)
    ok = Entity("e1", "chemical", "x", (_mention(),), cui="C0012345")
    assert ok.cui == "C0012345"


def test_triplet_rejects_self_relation():
    with pytest.raises(ValueError):
        Triplet("e1", "e1", "CID")


def test_schema_invariants():
    pairs = frozenset({("chemical", "disease")})
    with pytest.raises(ValueError):
        RelationSchema("s", ("CID", "CID"), "CID", pairs)
    with pytest.raises(ValueError):
        RelationSchema("s", ("CID",), "None", pairs)
    with pytest.raises(ValueError):
        RelationSchema("s", ("CID", "None"), "None", pairs, {"induce": "XX"})
    with pytest.raises(ValueError, match="at least one besides none_label"):
        RelationSchema("s", ("None",), "None", pairs)
    schema = RelationSchema("s", ("CID", "None"), "None", pairs)
    assert schema.positive_labels == ("CID",)


def test_schema_refuses_surfaces_that_collide():
    # Otherwise a reply "a" would be read as one of two labels by a precedence rule.
    with pytest.raises(ValueError, match="'a' names both 'A' and 'a'"):
        RelationSchema("s", ("A", "a", "None"), "None", frozenset())
    with pytest.raises(ValueError, match="'cid' names both 'CID' and 'None'"):
        RelationSchema("s", ("CID", "None"), "None", frozenset(), {"cid": "None"})
    with pytest.raises(ValueError, match="must be strings"):  # from a JSON schema file
        RelationSchema("s", (1, "None"), "None", frozenset())
    schema = RelationSchema("s", ("CID", "None"), "None", frozenset(),
                            {"cid": "CID", "Cid": "CID", "NONE": "None"})
    assert schema.label_of("cId") == "CID"


def test_label_of(cdr_schema):
    assert cdr_schema.label_of("CID") == "CID"
    assert cdr_schema.label_of("  cid.") == "CID"
    assert cdr_schema.label_of("Induces") == "CID"
    assert cdr_schema.label_of("no relation") == "None"
    assert cdr_schema.label_of("NONE!") == "None"
    assert cdr_schema.label_of("the answer is CID") is None
    assert cdr_schema.label_of("") is None


def test_sample_entity_lookup():
    sample = make_sample(
        "d1", ["Aspirin heals."],
        [("E1", "chemical", [(0, "Aspirin")])])
    assert sample.entity("E1").canonical_name == "Aspirin"
    with pytest.raises(KeyError):
        sample.entity("E2")


def test_validate_sample_clean(cdr_schema):
    sample = make_sample(
        "d1", ["Aspirin causes rash.", "It resolved."],
        [("E1", "chemical", [(0, "Aspirin")]),
         ("E2", "disease", [(0, "rash")])],
        [("E1", "E2", "CID")])
    assert validate_sample(sample, cdr_schema) == []


def test_validate_sample_structural_violations(cdr_schema):
    doc = Document("d1", "Aspirin causes rash.", "", ((0, 30),))
    ent = Entity("E1", "chemical", "Aspirin", (Mention("Aspirin", 3, (0, 7)),))
    sample = TrainingSample(doc, (ent, ent), ())
    issues = validate_sample(sample, cdr_schema)
    assert any("outside text" in v for v in issues)
    assert any("duplicate entity id" in v for v in issues)
    assert any("out of range" in v for v in issues)


def test_validate_sample_mention_outside_sentence(cdr_schema):
    doc = Document("d1", "Aspirin causes rash.", "", ((0, 20),))
    ent = Entity("E1", "chemical", "Aspirin", (Mention("Aspirin", 0, (15, 25)),))
    issues = validate_sample(TrainingSample(doc, (ent,), ()), cdr_schema)
    assert any("outside sentence" in v for v in issues)


def test_validate_sample_triplet_violations(cdr_schema):
    sample = make_sample(
        "d1", ["Aspirin causes rash."],
        [("E1", "chemical", [(0, "Aspirin")]),
         ("E2", "disease", [(0, "rash")])],
        [("E1", "EX", "CID"), ("E1", "E2", "cures"),
         ("E1", "E2", "CID"), ("E2", "E1", "CID")])
    issues = validate_sample(sample, cdr_schema)
    assert any("unknown entity id 'EX'" in v for v in issues)
    assert any("relation 'cures'" in v for v in issues)
    assert any("duplicate triplet" in v for v in issues)
    assert any("type pair ('disease', 'chemical')" in v for v in issues)


def test_validate_sample_unsorted_sentences(cdr_schema):
    doc = Document("d1", "One two three four.", "", ((5, 10), (0, 5)))
    issues = validate_sample(TrainingSample(doc, (), ()), cdr_schema)
    assert any("unsorted" in v for v in issues)
