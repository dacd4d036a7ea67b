"""KBP statistical relation extractor — the trainable analogue of the
reference's logistic-regression KBP model
(src/edu/stanford/nlp/ie/KBPStatisticalExtractor.java: featurizer at
:246-545 — denseFeatures type signature + relative position,
surfaceFeatures lemma n-grams / distance bucket / punctuation parity /
interceding NER / context lemmas, dependencyFeatures path between
mention heads; training entry trainMultinomialClassifier at :609).

A multiclass averaged perceptron over the same feature shape with an
explicit ``no_relation`` class.  The ensemble contract mirrors
KBPEnsembleExtractor.java:58-66: rule extractors run first and the
statistical model only fills mention pairs no rule claimed.  Absent the
licensed TAC-KBP training corpus, ``distill`` learns the deterministic
rule bank's decisions (stages/kbp.kbp_sentence) so the scored path is
real and a labeled corpus drops into ``train`` unchanged.
"""
from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

NO_RELATION = "no_relation"

# Valid (subject type, object coarse-NER types) per relation, translated
# from RelationType's validNamedEntityLabels
# (ie/KBPRelationExtractor.java:121-170) onto this engine's coarse NER
# tag set (fine CITY/STATE_OR_PROVINCE/COUNTRY → LOCATION,
# NATIONALITY → MISC, DURATION → NUMBER).
SIGNATURES: Dict[str, Tuple[str, frozenset]] = {
    "per:alternate_names": ("PERSON", frozenset({"PERSON", "MISC"})),
    "per:children": ("PERSON", frozenset({"PERSON"})),
    "per:parents": ("PERSON", frozenset({"PERSON"})),
    "per:siblings": ("PERSON", frozenset({"PERSON"})),
    "per:other_family": ("PERSON", frozenset({"PERSON"})),
    "per:spouse": ("PERSON", frozenset({"PERSON"})),
    "per:cities_of_residence": ("PERSON", frozenset({"LOCATION"})),
    "per:countries_of_residence": ("PERSON", frozenset({"LOCATION"})),
    "per:stateorprovinces_of_residence": ("PERSON", frozenset({"LOCATION"})),
    "per:city_of_birth": ("PERSON", frozenset({"LOCATION"})),
    "per:country_of_birth": ("PERSON", frozenset({"LOCATION"})),
    "per:stateorprovince_of_birth": ("PERSON", frozenset({"LOCATION"})),
    "per:city_of_death": ("PERSON", frozenset({"LOCATION"})),
    "per:country_of_death": ("PERSON", frozenset({"LOCATION"})),
    "per:stateorprovince_of_death": ("PERSON", frozenset({"LOCATION"})),
    "per:LOCATION_of_birth": ("PERSON", frozenset({"LOCATION"})),
    "per:LOCATION_of_death": ("PERSON", frozenset({"LOCATION"})),
    "per:LOCATION_of_residence": ("PERSON", frozenset({"LOCATION"})),
    "per:employee_of": ("PERSON",
                        frozenset({"ORGANIZATION", "LOCATION"})),
    "per:member_of": ("PERSON", frozenset({"ORGANIZATION"})),
    "per:schools_attended": ("PERSON", frozenset({"ORGANIZATION"})),
    "per:origin": ("PERSON", frozenset({"MISC", "LOCATION"})),
    "per:age": ("PERSON", frozenset({"NUMBER"})),
    "per:date_of_birth": ("PERSON", frozenset({"DATE"})),
    "per:date_of_death": ("PERSON", frozenset({"DATE"})),
    "per:cause_of_death": ("PERSON", frozenset({"MISC", "O"})),
    "per:charges": ("PERSON", frozenset({"MISC", "O"})),
    "per:religion": ("PERSON", frozenset({"MISC", "O"})),
    "per:title": ("PERSON", frozenset({"TITLE", "MISC", "O"})),
    "org:alternate_names": ("ORGANIZATION",
                            frozenset({"ORGANIZATION", "MISC"})),
    "org:city_of_headquarters": ("ORGANIZATION", frozenset({"LOCATION"})),
    "org:country_of_headquarters": ("ORGANIZATION",
                                    frozenset({"LOCATION", "MISC"})),
    "org:stateorprovince_of_headquarters": ("ORGANIZATION",
                                            frozenset({"LOCATION"})),
    "org:LOCATION_of_headquarters": ("ORGANIZATION",
                                     frozenset({"LOCATION"})),
    "org:founded_by": ("ORGANIZATION",
                       frozenset({"PERSON", "ORGANIZATION"})),
    "org:member_of": ("ORGANIZATION",
                      frozenset({"ORGANIZATION", "LOCATION"})),
    "org:members": ("ORGANIZATION",
                    frozenset({"ORGANIZATION", "LOCATION"})),
    "org:parents": ("ORGANIZATION", frozenset({"ORGANIZATION"})),
    "org:subsidiaries": ("ORGANIZATION", frozenset({"ORGANIZATION"})),
    "org:shareholders": ("ORGANIZATION",
                         frozenset({"PERSON", "ORGANIZATION"})),
    "org:top_members/employees": ("ORGANIZATION", frozenset({"PERSON"})),
    "org:political/religious_affiliation": ("ORGANIZATION",
                                            frozenset({"MISC", "O",
                                                       "IDEOLOGY"})),
    "org:dissolved": ("ORGANIZATION", frozenset({"DATE"})),
    "org:founded": ("ORGANIZATION", frozenset({"DATE"})),
    "org:number_of_employees/members": ("ORGANIZATION",
                                        frozenset({"NUMBER"})),
    "org:website": ("ORGANIZATION", frozenset({"URL", "O"})),
}


def _dep_path(heads: Sequence[int], labels: Sequence[str],
              a: int, b: int, cap: int = 5) -> Optional[List[str]]:
    """Edge-label path a→b through the tree (dependencyPathBetween,
    KBPStatisticalExtractor.java:363-441, appos chunks dropped there;
    here capped at ``cap`` edges)."""
    anc_a = {}
    v, d = a, 0
    while v >= 0 and v not in anc_a and d <= len(heads):
        anc_a[v] = d
        v, d = heads[v], d + 1
    path_b = []
    v = b
    while v >= 0 and v not in anc_a and len(path_b) <= len(heads):
        path_b.append("<-" + labels[v])
        v = heads[v]
    if v not in anc_a:
        return None
    up = []
    u = a
    while u != v:
        up.append("-" + labels[u] + "->")
        u = heads[u]
    path = up + list(reversed(path_b))
    return path if len(path) <= cap else None


def kbp_features(words: Sequence[str], lemmas: Sequence[str],
                 tags: Sequence[str], ners: Sequence[str],
                 heads: Sequence[int], labels: Sequence[str],
                 sspan: Tuple[int, int], ospan: Tuple[int, int],
                 stype: str, otype: str) -> List[str]:
    """Feature templates mirroring KBPStatisticalExtractor.features
    (:545-557 calls the four featurizer groups re-expressed below)."""
    sb, se = sspan
    ob, oe = ospan
    n = len(words)
    subj_first = sb < ob
    lo, hi = (se, ob) if subj_first else (oe, sb)
    between = list(range(lo, hi))
    f = [
        "b",
        # denseFeatures (:246-254)
        "type_sig=" + stype + "," + otype,
        "subj_before_obj=" + ("y" if subj_first else "n"),
    ]
    # surfaceFeatures (:257-361)
    for i in range(n):
        f.append("sent_uni=" + lemmas[i].lower())
    last = "_^_"
    for i in between:
        lw = lemmas[i].lower()
        f.append("lemma_uni=" + lw)
        f.append("lemma_bi=" + last + " " + lw)
        last = lw
    f.append("lemma_bi=" + last + " _$_")
    d = len(between)
    bucket = ("0" if d == 0 else "<=3" if d <= 3 else "<=5" if d <= 5
              else "<=10" if d <= 10 else "<=15" if d <= 15 else ">10")
    f.append("dist=" + bucket)
    commas = sum(1 for i in between if words[i] == ",")
    quotes = sum(1 for i in between if words[i] in ('"', "``", "''"))
    paren = sum((words[i] in ("(", "-LRB-")) - (words[i] in (")", "-RRB-"))
                for i in between)
    f.append("comma_parity=" + ("even" if commas % 2 == 0 else "odd"))
    f.append("quote_parity=" + ("even" if quotes % 2 == 0 else "odd"))
    f.append("paren_parity=" + str(paren))
    inter = {ners[i] for i in between if ners[i] != "O"}
    if inter:
        f.append("has_interceding_ner=t")
        for t in sorted(inter):
            f.append("interceding_ner=" + t)
    f.append("subj_left=" + (lemmas[sb - 1].lower() if sb > 0 else "^"))
    f.append("subj_right=" + (lemmas[se].lower() if se < n else "$"))
    f.append("obj_left=" + (lemmas[ob - 1].lower() if ob > 0 else "^"))
    f.append("obj_right=" + (lemmas[oe].lower() if oe < n else "$"))
    if d == 1 and subj_first:
        left = lemmas[sb - 1].lower() if sb > 0 else "^"
        f.append("X<subj>Y<obj>=" + left + "_" + lemmas[between[0]].lower())
    # dependencyFeatures (:363-441): edge-label path between span heads
    shead = max(range(sb, se), key=lambda i: heads[i] < sb or heads[i] >= se)
    ohead = max(range(ob, oe), key=lambda i: heads[i] < ob or heads[i] >= oe)
    path = _dep_path(heads, labels, shead, ohead)
    if path is not None:
        f.append("dep_path=" + "".join(path))
        f.append("dep_path_len=" + str(len(path)))
    return f


class KbpClassifier:
    """Multiclass averaged perceptron: relation classes + no_relation,
    softmax confidence, type-signature gated at prediction time (the
    reference gates with RelationType.validNamedEntityLabels)."""

    def __init__(self, weights: Dict[str, Dict[str, float]] | None = None):
        self.weights = weights or {}

    @property
    def classes(self) -> List[str]:
        return sorted(self.weights)

    def scores(self, feats: List[str]) -> Dict[str, float]:
        return {c: sum(w.get(f, 0.0) for f in feats)
                for c, w in self.weights.items()}

    def predict(self, feats: List[str], stype: str,
                otype: str) -> Tuple[str, float]:
        """→ (relation | no_relation, softmax confidence). Relations
        whose type signature rejects (stype, otype) score -inf."""
        if not self.weights:
            return NO_RELATION, 1.0
        sc = self.scores(feats)
        for rel in list(sc):
            if rel == NO_RELATION:
                continue
            sig = SIGNATURES.get(rel)
            if sig is None or sig[0] != stype or otype not in sig[1]:
                sc[rel] = float("-inf")
        best = max(sc, key=lambda c: sc[c])
        mx = sc[best]
        z = sum(math.exp(s - mx) for s in sc.values() if s > float("-inf"))
        return best, (1.0 / z if z > 0 else 1.0)

    @classmethod
    def train(cls, examples: List[Tuple[List[str], str]],
              n_iter: int = 6, seed: int = 23) -> "KbpClassifier":
        """examples: (feature list, relation label or no_relation)."""
        import random

        classes = sorted({y for _, y in examples} | {NO_RELATION})
        w = {c: defaultdict(float) for c in classes}
        acc = {c: defaultdict(float) for c in classes}
        stamp = {c: defaultdict(int) for c in classes}
        rng = random.Random(seed)
        order = list(range(len(examples)))
        step = 0

        def upd(c: str, f: str, d: float):
            acc[c][f] += (step - stamp[c][f]) * w[c][f]
            stamp[c][f] = step
            w[c][f] += d

        for _ in range(n_iter):
            rng.shuffle(order)
            for i in order:
                feats, y = examples[i]
                guess = max(classes,
                            key=lambda c: sum(w[c].get(f, 0.0)
                                              for f in feats))
                if guess != y:
                    for f in feats:
                        upd(y, f, 1.0)
                        upd(guess, f, -1.0)
                step += 1
        out: Dict[str, Dict[str, float]] = {}
        for c in classes:
            cw = {}
            for f, wt in w[c].items():
                total = acc[c][f] + (step - stamp[c][f]) * wt
                avg = total / max(step, 1)
                if abs(avg) > 1e-9:
                    cw[f] = round(avg, 6)
            out[c] = cw
        return cls(weights=out)

    @classmethod
    def distill(cls, annotated_sentences, n_iter: int = 6,
                neg_keep: int = 3) -> "KbpClassifier":
        """Teacher = the deterministic rule bank (stages/kbp).

        ``annotated_sentences``: iterable of (words, tags, lemmas, heads,
        labels, ners, mentions) with ``mentions`` a list of
        stages.kbp.Mention.  Every candidate mention pair becomes an
        example: the rule-emitted relation if one fired for the pair,
        else no_relation (negatives kept 1-in-``neg_keep``,
        deterministic)."""
        from corenlp_ray.stages.kbp import kbp_sentence, load_dep_rules, \
            DEFAULT_RULES_PATH

        rules = load_dep_rules(DEFAULT_RULES_PATH)
        examples: List[Tuple[List[str], str]] = []
        neg_i = 0
        for (words, tags, lemmas, heads, labels, ners,
             mentions) in annotated_sentences:
            gold = {}
            for (s, rel, o, sner, oner, conf) in kbp_sentence(
                    words, tags, lemmas, heads, labels, mentions,
                    dep_rules=rules):
                gold[(s, o)] = rel
            for subj, obj, feats in candidate_pairs(
                    words, tags, lemmas, heads, labels, ners, mentions):
                y = gold.get((subj.canonical, obj.canonical), NO_RELATION)
                if y == NO_RELATION:
                    neg_i += 1
                    if neg_i % neg_keep:
                        continue
                examples.append((feats, y))
        return cls.train(examples, n_iter=n_iter)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"weights": self.weights}, fh)

    @classmethod
    def load(cls, path: str) -> "KbpClassifier":
        with open(path) as fh:
            return cls(weights=json.load(fh)["weights"])


def annotated_sentences(row: dict) -> List[tuple]:
    """``distill``'s input from one annotated document row (column name
    → pylist): per sentence (words, tags, lemmas, heads, labels, ners,
    mentions), sentence-local as ``KbpExtractor`` sees them."""
    from corenlp_ray.stages.kbp import MENTION_FIELDS, Mention
    from corenlp_ray.stages.openie import sentence_views, token_ner

    out = []
    for _, b, e, heads, mens, _ in sentence_views(row, MENTION_FIELDS):
        out.append((row["tok_word"][b:e], row["tok_pos"][b:e],
                    row["tok_lemma"][b:e], heads, row["dep_label"][b:e],
                    token_ner(e - b, mens), [Mention(*m) for m in mens]))
    return out


def candidate_pairs(words, tags, lemmas, heads, labels, ners, mentions):
    """(subj Mention, obj Mention, features) for every typed pair a KBP
    relation could hold over — subject PERSON/ORGANIZATION, object any
    other mention (KBPAnnotator pairs subject mentions with every other
    mention in the sentence, pipeline/KBPAnnotator.java:379-417)."""
    out = []
    for s in mentions:
        if s.type not in ("PERSON", "ORGANIZATION"):
            continue
        for o in mentions:
            if o is s or (s.b, s.e) == (o.b, o.e):
                continue
            feats = kbp_features(words, lemmas, tags, ners, heads, labels,
                                 (s.b, s.e), (o.b, o.e), s.type, o.type)
            out.append((s, o, feats))
    return out
