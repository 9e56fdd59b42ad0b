import pytest

from adrcm.infer import PredictionRecord, load_predictions, save_predictions
from adrcm.iors import SyntheticRecord, load_synthetic, save_synthetic
from adrcm.kb import KbDocument, load_kb, save_kb

# json.dumps(..., ensure_ascii=False) leaves these unescaped; str.splitlines()
# would cut a record at either of them.
SEPARATORS = "before\u2028middle\u0085after"


@pytest.mark.parametrize("record, save, load", [
    (KbDocument("C0000001", "src", "aspirin", SEPARATORS), save_kb, load_kb),
    (PredictionRecord("1", "H", "T", "CID", SEPARATORS, ("c1",), False),
     save_predictions, load_predictions),
    (SyntheticRecord("1", "H", "T", "CID", SEPARATORS), save_synthetic, load_synthetic),
], ids=["kb", "predictions", "synthetic"])
def test_jsonl_round_trip_keeps_line_separators(record, save, load):
    assert load(save([record])) == (record,)
