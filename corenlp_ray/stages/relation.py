"""ACE-style supervised relation extraction — the ``relation``
annotator (``RelationExtractorAnnotator``) analogue, completing
SURVEY §2.2 row 24.

Reference shape (src/edu/stanford/nlp/pipeline/
RelationExtractorAnnotator.java:30,58-74): entity mentions from the NER
layer are paired per sentence (machinereading's
``AnnotationUtils.getAllUnrelatedRelations`` candidate generation), each
ordered pair is classified by a ``LinearClassifier`` over
``BasicRelationFeatureFactory`` features into the Roth/Yih CoNLL-2004
inventory — Live_In, Located_In, OrgBased_In, Work_For, Kill — with
``_NR`` (RelationMention.UNRELATED) for unrelated pairs, and a
LabelValidator rejects type-incompatible predictions
(ie/machinereading/BasicRelationExtractor.java:146-163,
domains/roth/RothCONLL04Reader.java:66-80 for the Peop/Loc/Org →
PERSON/LOCATION/ORGANIZATION normalization).

This engine: an extractor (``RelationExtractor``; ``relation_batch``
runs the default one), a chain's last stage.
Default path is a deterministic cue-lemma cascade gated by the same
argument-type signatures; the trainable slot is
models/relation_classifier.py (averaged perceptron over the
BasicRelationFeatureFactory-shaped features), loaded once per chain.
Kept SEPARATE from the kbp stage exactly like the reference keeps
``relation`` out of its default annotator list (superseded by kbp) —
but present so the full annotator surface exists.

Output: one row per extracted relation mention,
(url, sent_idx, subj, subj_type, rel, obj, obj_type, confidence).
``_NR`` pairs are not materialized as rows (the reference keeps them in
the CoreMap but every consumer filters UNRELATED).
"""
from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

from corenlp_ray.models.relation_classifier import (ROTH_ENTITY_TYPES,
                                                    ROTH_SIGNATURES,
                                                    UNRELATED,
                                                    relation_features)

RELATION_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_idx", pa.int32()),
    ("subj", pa.string()),
    ("subj_type", pa.string()),
    ("rel", pa.string()),
    ("obj", pa.string()),
    ("obj_type", pa.string()),
    ("confidence", pa.float64()),
])

# cue lemma banks for the deterministic cascade (one per Roth relation;
# cues must appear strictly between the two mention spans)
_LIVE_CUES = {"live", "reside", "grow", "native", "resident", "home"}
_WORK_CUES = {"work", "employ", "join", "hire", "retire", "serve"}
_TITLE_CUES = {"president", "director", "chief", "executive", "head",
               "chairman", "chairwoman", "spokesman", "spokeswoman",
               "officer", "manager", "founder", "ceo", "editor",
               "secretary", "minister", "analyst", "engineer"}
_BASE_CUES = {"base", "headquarter", "locate"}
_LOC_IN_CUES = {"locate", "in", ","}
_KILL_CUES = {"kill", "murder", "assassinate", "shoot", "slay",
              "execute"}


def classify_pair_rules(lemmas: Sequence[str], tags: Sequence[str],
                        sb: int, se: int, ob: int, oe: int,
                        stype: str, otype: str) -> Tuple[str, float]:
    """Deterministic cascade for one ordered (subject, object) mention
    pair; sentence-local token indices. Returns (relation, confidence)
    with ``_NR`` when no rule fires. Signature-gated first (the
    LabelValidator contract), then cue lemmas between the spans decide
    relation and direction."""
    lo, hi = (se, ob) if sb < ob else (oe, sb)
    between = [lemmas[k].lower() for k in range(lo, min(hi, len(lemmas)))]
    bset = set(between)
    subj_first = sb < ob

    if (stype, otype) == ROTH_SIGNATURES["Live_In"]:
        if subj_first and (bset & _LIVE_CUES):
            return "Live_In", 0.9
    if (stype, otype) == ROTH_SIGNATURES["Work_For"]:
        if subj_first and (bset & _WORK_CUES):
            return "Work_For", 0.9
        # appositive "ORG president PERSON" — object precedes subject
        # and everything between is a title nominal
        if (not subj_first and between
                and all(w in _TITLE_CUES or w in {"'s", "the", "of"}
                        for w in between)
                and (bset & _TITLE_CUES)):
            return "Work_For", 0.8
    if (stype, otype) == ROTH_SIGNATURES["OrgBased_In"]:
        if subj_first and (bset & _BASE_CUES):
            return "OrgBased_In", 0.9
        # "LOC - based ORG": object (LOC) precedes subject (ORG)
        if not subj_first and ("base" in bset or "headquarter" in bset) \
                and len(between) <= 3:
            return "OrgBased_In", 0.8
    if (stype, otype) == ROTH_SIGNATURES["Located_In"]:
        # "Paris , France" / "Paris in France" / "Paris is located in
        # France" — subject is the contained place, left of the object
        if subj_first and len(between) <= 4 and (bset & _LOC_IN_CUES):
            return "Located_In", 0.8
    if (stype, otype) == ROTH_SIGNATURES["Kill"]:
        if bset & _KILL_CUES:
            passive = ("by" in bset
                       and any(tags[k] == "VBN"
                               for k in range(lo, min(hi, len(tags)))
                               if lemmas[k].lower() in _KILL_CUES))
            if passive and not subj_first:
                # "VICTIM was killed by KILLER" — killer on the right
                return "Kill", 0.85
            if not passive and subj_first:
                return "Kill", 0.9
    return UNRELATED, 0.0


class RelationCandidate(NamedTuple):
    """One ordered mention pair: features for the statistical slot plus
    the argument tuple the rule cascade consumes (used by distill)."""
    feats: List[str]
    rule_args: tuple
    subj: str
    stype: str
    obj: str
    otype: str
    sent_idx: int


def _sentence_candidates(words, lemmas, tags, heads, labels, mens,
                         sent_idx: int) -> List[RelationCandidate]:
    """All ordered pairs of Roth-type mentions in one sentence
    (AnnotationUtils.getAllUnrelatedRelations semantics). Indices are
    sentence-local."""
    from corenlp_ray.stages.openie import token_ner

    ners = token_ner(len(words), mens)
    out = []
    for i, (sb, se, stype, ssurf) in enumerate(mens):
        for j, (ob, oe, otype, osurf) in enumerate(mens):
            if i == j:
                continue
            feats = relation_features(words, lemmas, tags, heads,
                                      labels, ners, sb, se, ob, oe,
                                      stype, otype)
            out.append(RelationCandidate(
                feats, (lemmas, tags, sb, se, ob, oe, stype, otype),
                ssurf, stype, osurf, otype, sent_idx))
    return out


def candidate_relation_pairs(row: dict) -> List[RelationCandidate]:
    """Candidates for one annotated document row (pylist dict with the
    standard annotation columns); distill consumes this."""
    from corenlp_ray.stages.openie import sentence_views

    out: List[RelationCandidate] = []
    words, tags = row["tok_word"], row["tok_pos"]
    lemmas, labels = row["tok_lemma"], row["dep_label"]
    for si, b, e, l_heads, l_mens, _ in sentence_views(
            row, ("men_begin", "men_end", "men_ner")):
        l_mens = [(mb, me, t, " ".join(words[b + mb:b + me]))
                  for mb, me, t in l_mens if t in ROTH_ENTITY_TYPES]
        if len(l_mens) >= 2:
            out.extend(_sentence_candidates(
                words[b:e], lemmas[b:e], tags[b:e], l_heads, labels[b:e],
                l_mens, si))
    return out


# the annotation columns RelationExtractor reads besides the input ``url``
RELATION_COLUMNS = ("tok_word", "tok_pos", "tok_lemma", "sent_begin",
                    "sent_end", "dep_head", "dep_label", "men_begin",
                    "men_end", "men_ner")


class RelationExtractor:
    """Extractor: annotated docs → ACE relation rows. ``model_path``
    binds trained RelationClassifier weights once, when the chain is
    built on the driver (they ship with the chain to its tasks); without
    it the deterministic cascade runs (same default-vs-trained split as
    the pos/ner/depparse slots)."""

    def __init__(self, model_path: Optional[str] = None,
                 threshold: float = 0.5):
        self.classifier = None
        self.threshold = threshold
        if model_path:
            from corenlp_ray.models.relation_classifier import \
                RelationClassifier

            self.classifier = RelationClassifier.load(model_path)

    @stage_kernel()
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        lists = {name: col(batch, name, cols)
                 for name in ("url",) + RELATION_COLUMNS}
        rows: List[dict] = []
        for r in range(len(lists["url"])):
            row = {k: v[r] for k, v in lists.items()}
            for cand in candidate_relation_pairs(row):
                if self.classifier is not None:
                    rel, conf = self.classifier.predict(
                        cand.feats, cand.stype, cand.otype)
                    if rel == UNRELATED or conf < self.threshold:
                        continue
                else:
                    rel, conf = classify_pair_rules(*cand.rule_args)
                    if rel == UNRELATED:
                        continue
                rows.append({"url": row["url"], "sent_idx": cand.sent_idx,
                             "subj": cand.subj, "subj_type": cand.stype,
                             "rel": rel, "obj": cand.obj,
                             "obj_type": cand.otype,
                             "confidence": round(conf, 4)})
        return pa.Table.from_pylist(rows, schema=RELATION_SCHEMA)


def relation_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task variant for small/test pipelines."""
    return RelationExtractor()(batch)
