"""Compare concept-scoped retrieval against an unscoped scan of the index.

Builds a small knowledge-base index with the offline hashing embedder, then
runs the same query twice: once restricted to the chunks indexed under the
entity pair's concept identifiers, once over the whole index. The scoped
variant only ever returns passages about the two entities in question.
"""

from adrcm.corpus import builtin_schema, parse_pubtator
from adrcm.infer import pair_query_text
from adrcm.kb import ChunkParams, KbDocument, build_index, retrieve
from adrcm.llm import HashingEmbedder

ARTICLES = [
    KbDocument("C3900001", "demo_kb", "velotrine",
               "Velotrine is an antifungal agent with extensive hepatic "
               "metabolism. Reports link prolonged courses to liver injury "
               "including hepatic necrosis."),
    KbDocument("C3800001", "demo_kb", "hepatic necrosis",
               "Hepatic necrosis is death of liver tissue. Drug toxicity is "
               "a leading cause and management rests on withdrawal of the "
               "offending agent."),
    KbDocument("C3900009", "demo_kb", "quenaline",
               "Quenaline is a vasopressor used in intensive care. It raises "
               "blood pressure through alpha receptor agonism."),
    KbDocument("C3800008", "demo_kb", "photosensitivity",
               "Photosensitivity is an exaggerated skin response to sunlight, "
               "often drug induced."),
]

PUBTATOR = """\
7700|t|Velotrine-associated hepatic necrosis.
7700|a|A patient developed hepatic necrosis during velotrine therapy.
7700\t0\t9\tVelotrine\tChemical\tD0101
7700\t21\t37\thepatic necrosis\tDisease\tD0102
7700\t59\t75\thepatic necrosis\tDisease\tD0102
7700\t83\t92\tvelotrine\tChemical\tD0101
7700\tCID\tD0101\tD0102
"""


def show(title, snippets) -> None:
    print(title)
    for rank, snip in enumerate(snippets, start=1):
        print(f"  {rank}. [{snip.cui}] {snip.score:.3f}  {snip.text[:60]}...")
    print()


def main() -> None:
    schema = builtin_schema("cdr")
    corpus = parse_pubtator(
        PUBTATOR, schema, dataset_tag="CDR",
        cui_map={"D0101": "C3900001", "D0102": "C3800001"})
    sample = corpus.samples[0]
    head, tail = sample.entity("D0101"), sample.entity("D0102")

    embedder = HashingEmbedder()
    index = build_index(ARTICLES, embedder, params=ChunkParams(32, 4, 4))
    query = embedder.embed_one(pair_query_text(schema, head, tail))

    show("scoped to the pair's concepts:",
         retrieve(index, query, head, tail, k=3, cui_scoped=True))
    show("unscoped scan of every chunk:",
         retrieve(index, query, head, tail, k=3, cui_scoped=False))


if __name__ == "__main__":
    main()
