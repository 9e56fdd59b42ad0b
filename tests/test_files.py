import json
import random

import pytest

from adrcm.files import atomic_write_text, dump_jsonl, jsonl_lines
from adrcm.infer import PredictionRecord, load_predictions, save_predictions
from adrcm.iors import SyntheticRecord, load_synthetic, save_synthetic
from adrcm.kb import KbDocument, load_kb

# json.dumps(..., ensure_ascii=False) leaves these unescaped; str.splitlines()
# would cut a record at either of them.
SEPARATORS = "before\u2028middle\u0085after"


@pytest.mark.parametrize("record, save, load", [
    (KbDocument("C0000001", "src", "aspirin", SEPARATORS), dump_jsonl, load_kb),
    (PredictionRecord("1", "H", "T", "CID", SEPARATORS, ("c1",), False),
     save_predictions, load_predictions),
    (SyntheticRecord("1", "H", "T", "CID", SEPARATORS), save_synthetic, load_synthetic),
], ids=["kb", "predictions", "synthetic"])
def test_jsonl_round_trip_keeps_line_separators(record, save, load):
    assert load(save([record])) == (record,)


@pytest.mark.parametrize("record, save, load, what", [
    (PredictionRecord("1", "H", "T", "CID", "CID", ("c1",), False),
     save_predictions, load_predictions, "prediction"),
    (SyntheticRecord("1", "H", "T", "CID", "a summary"), save_synthetic, load_synthetic,
     "synthetic"),
], ids=["predictions", "synthetic"])
def test_unknown_field_is_rejected_with_its_line_number(record, save, load, what):
    lines = save([record, record]).splitlines()
    row = json.loads(lines[1])
    row["note"] = "added by hand"
    lines[1] = json.dumps(row)
    with pytest.raises(ValueError, match=f"^line 2: bad {what} record: .*'note'"):
        load("\n".join(lines))


def test_kb_row_with_extra_field_still_loads():
    row = {"cui": "C0000001", "source": "src", "title": "aspirin", "text": "An analgesic.",
           "url": "https://example.org/aspirin"}
    assert load_kb(json.dumps(row) + "\n") == (
        KbDocument("C0000001", "src", "aspirin", "An analgesic."),)


def test_jsonl_lines_number_lines_like_split():
    rng = random.Random(17)
    alphabet = ["a", " ", "\t", "\n", "\r", "\r\n", "\u0085", " ", " ", "{}"]
    for _ in range(500):
        text = "".join(rng.choices(alphabet, k=rng.randrange(0, 40)))
        want = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
        assert list(jsonl_lines(text)) == want


def test_atomic_write_text_leaves_no_temp_file_when_the_write_fails(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(path), "\ud800")  # a lone surrogate, which UTF-8 cannot encode
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_text() == "old\n"
