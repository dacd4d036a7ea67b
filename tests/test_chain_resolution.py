"""The annotator-name → stage-chain table. Every reference annotator name
resolves to its prerequisite-closed stage list in chain order (the
``ensurePrerequisiteAnnotators`` contract, StanfordCoreNLP.java:481-520),
and the flagship chain resolves to the seven annotation stages the fused
actor runs."""
import pytest

import corenlp_ray.pipelines.kg as kg
from corenlp_ray.pipeline_api import ANNOTATOR_STAGES, resolve_annotators
from corenlp_ray.pipelines.registry import build

_NER = ["tokenize", "pos", "ner"]
_COREF = ["tokenize", "pos", "ner", "coref"]
_KBP = ["tokenize", "pos", "lemma", "ner", "depparse", "coref"]

EXPECTED = {
    "cleanxml": ["cleanxml"],
    "tokenize": ["tokenize"],
    "ssplit": ["tokenize"],
    "pos": ["tokenize", "pos"],
    "lemma": ["tokenize", "pos", "lemma"],
    "ner": _NER,
    "regexner": _NER,
    "entitymentions": _NER,
    # the ner stage with its prerequisites, which is what apply runs
    "docdate": _NER,
    "depparse": ["tokenize", "pos", "depparse"],
    "parse": ["tokenize", "pos", "depparse", "parse"],
    "coref": _COREF,
    "dcoref": _COREF,
    "coref.mention": _COREF,
    "natlog": ["tokenize", "pos", "lemma", "depparse", "natlog"],
    "entitylink": _NER + ["entitylink"],
    "gender": _NER + ["gender"],
    "truecase": ["tokenize", "truecase"],
    "quote": ["tokenize", "pos", "lemma", "ner", "coref", "quote"],
    "sentiment": ["tokenize", "pos", "depparse", "parse",
                  "sentiment_tree"],
    "openie": _KBP + ["natlog"],
    "kbp": _KBP,
    "relation": ["tokenize", "pos", "lemma", "ner", "depparse"],
}


def test_table_covers_every_annotator_name():
    assert set(EXPECTED) == set(ANNOTATOR_STAGES)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_resolve_annotator(name):
    assert resolve_annotators(name) == EXPECTED[name]


def test_flagship_chain():
    assert [st.name for st in build(kg.ANNOTATE_STAGES)] == [
        "cleanxml", "tokenize", "pos", "lemma", "ner", "depparse", "coref"]
