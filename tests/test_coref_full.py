"""FULL dcoref configuration: RuleBasedCorefMentionFinder analogue +
the nominal/pronominal sieve stack (speaker match, nominal string
match, predicate nominative, pronoun-into-cluster), pinned on small
constructions and on the reference's shipped dcoref sample."""
import pyarrow as pa

from corenlp_ray.stages.coref import (coref_full_batch,
                                      detect_coref_mentions,
                                      resolve_coref)
from corenlp_ray.stages.ner import ner_batch
from corenlp_ray.stages.pos import pos_batch
from corenlp_ray.stages.tokenize import tokenize_ssplit_batch


def _annot(text: str) -> pa.Table:
    b = pa.table({"doc_id": pa.array([0], pa.int64()), "text": [text]})
    return coref_full_batch(ner_batch(pos_batch(tokenize_ssplit_batch(b))))


def _chains(b: pa.Table):
    words = b.column("tok_word").to_pylist()[0]
    out = {}
    for mb, me, ch in zip(b.column("men_begin").to_pylist()[0],
                          b.column("men_end").to_pylist()[0],
                          b.column("men_chain").to_pylist()[0]):
        out.setdefault(ch, set()).add(" ".join(words[mb:me]).lower())
    return [c for c in out.values() if len(c) > 1]


def test_nominal_mention_detection():
    words = ["The", "concert", "was", "good", "."]
    tags = ["DT", "NN", "VBD", "JJ", "."]
    men = detect_coref_mentions(words, tags, [0] * 5, [])
    assert (0, 2, "NOMINAL", "the concert") in men


def test_pronominal_mentions_not_double_covered():
    words = ["He", "saw", "it", "."]
    tags = ["PRP", "VBD", "PRP", "."]
    men = detect_coref_mentions(words, tags, [0] * 4, [])
    kinds = [(m[0], m[2]) for m in men]
    assert (0, "PRONOMINAL") in kinds and (2, "PRONOMINAL") in kinds


def test_nominal_exact_match_strips_determiner():
    ch = _chains(_annot("I went to a concert. The concert was great."))
    assert any({"a concert", "the concert"} <= c for c in ch)


def test_first_person_speaker_chain():
    ch = _chains(_annot("I think they saw me near my house."))
    assert any({"i", "me", "my"} <= c for c in ch)


def test_predicate_nominative():
    ch = _chains(_annot("Mohammed Munir is a strange person."))
    assert any("a strange person" in c and
               any("munir" in m for m in c) for c in ch)


def test_neutral_pronoun_nominal_antecedent():
    ch = _chains(_annot("The concert was loud. It lasted two hours."))
    assert any("it" in c and any("concert" in m for m in c) for c in ch)


def test_default_coref_batch_unchanged():
    """The flagship chain's entity-only coref must not see nominal
    mentions — planted outputs stay byte-stable."""
    from corenlp_ray.stages.coref import coref_batch

    b = pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": ["Alice Johnson met Bob Smith. She smiled."]})
    b = coref_batch(ner_batch(pos_batch(tokenize_ssplit_batch(b))))
    kinds = set(b.column("men_ner").to_pylist()[0])
    assert "NOMINAL" not in kinds and "PRONOMINAL" not in kinds


def test_dcoref_sample_band():
    """B³ on the reference's shipped expectedcoref: full sieves measured
    F 0.70 / 13 aligned mentions (BASELINE.md) — floor under it."""
    import sys
    sys.path.insert(0, "/root/repo/scripts")
    from eval_coref_sample import b_cubed, engine_clusters, gold_clusters

    gold = gold_clusters()
    pred = engine_clusters(False, full=True)
    P, R, F, n = b_cubed(gold, pred)
    assert n >= 10, (n, F)
    assert F >= 0.60, (n, F)


def test_full_mention_columns_stay_aligned():
    """coref.full replaces the mention list, men_sent included: every
    men_* list of a row has the same length, and each mention's sentence
    is the sentence of its first token."""
    import corenlp_ray.pipelines.kg  # noqa: F401  (registers coref.full)
    from corenlp_ray.pipelines.registry import Chain, build
    from corenlp_ray.sources.pages import synth_pages_table

    out = Chain(build(("coref.full",)))(synth_pages_table(n=6, seed=2))
    names = [c for c in out.column_names if c.startswith("men_")]
    assert {"men_begin", "men_sent", "men_chain"} <= set(names)
    rows = out.select(names + ["tok_sent"]).to_pylist()
    assert any(len(r["men_begin"]) > 0 for r in rows)
    for r in rows:
        assert len({len(r[c]) for c in names}) == 1, r
        assert r["men_sent"] == [r["tok_sent"][b] for b in r["men_begin"]]
