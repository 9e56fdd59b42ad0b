"""Walk the re-summarization loop on one triplet with a scripted backend.

The loop asks for a relation-focused summary, has a second call confirm the
relation from the summary alone, and retries with the failed drafts in view.
Scripted replies make the retry path visible: the first summary is rejected
by the confirmation step, the second is accepted.
"""

from adrcm.corpus import builtin_schema, parse_pubtator
from adrcm.iors import IorsConfig, generate_synthetic
from adrcm.llm import LlmGateway, ScriptedBackend

PUBTATOR = """\
5550|t|Fenorazole-induced bradycardia in elderly patients.
5550|a|Three patients developed bradycardia while receiving fenorazole. Dose reduction reversed the effect.
5550\t0\t10\tFenorazole\tChemical\tD0001
5550\t19\t30\tbradycardia\tDisease\tD0002
5550\t77\t88\tbradycardia\tDisease\tD0002
5550\t105\t115\tfenorazole\tChemical\tD0001
5550\tCID\tD0001\tD0002
"""

REPLIES = [
    # round 1: a vague summary the confirmation step cannot support
    "Fenorazole is a drug that was studied in elderly patients.",
    "None",
    # round 2: a summary that states the relation, confirmed
    "Fenorazole caused bradycardia in three elderly patients; "
    "the effect reversed after dose reduction.",
    "CID",
]


def main() -> None:
    schema = builtin_schema("cdr")
    corpus = parse_pubtator(PUBTATOR, schema, dataset_tag="CDR")
    sample = corpus.samples[0]
    triplet = sample.triplets[0]

    gateway = LlmGateway(ScriptedBackend(REPLIES))
    result = generate_synthetic(
        gateway.chat, sample.document,
        sample.entity(triplet.head_id), sample.entity(triplet.tail_id),
        triplet.relation, schema, IorsConfig(beta=3))

    print(f"accepted: {result.accepted} after {result.iterations_used} round(s)")
    print(f"calls: {result.iterations_used} summary / "
          f"{result.confirmation_calls} confirmation")
    for i, failed in enumerate(result.failures, start=1):
        print(f"rejected draft {i}: {failed}")
    print(f"kept summary: {result.summary}")


if __name__ == "__main__":
    main()
