"""Document-level biomedical relation extraction with synthetic summaries
and concept-scoped retrieval.

The pipeline: parse annotated corpora into a normalized format, generate
confirmed synthetic summaries for gold triplets, assemble an augmented
fine-tune dataset, index a knowledge-base snapshot for concept-scoped
retrieval, predict relations for candidate entity pairs, and score the
predictions. Everything runs offline with scripted backends for tests.
"""

__version__ = "0.1.0"
