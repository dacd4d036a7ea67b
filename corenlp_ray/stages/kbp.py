"""KBP relation extraction (the KBPAnnotator analogue).

Reference shape: for each sentence, all ordered pairs of entity mentions
type-gated by ``RelationType.plausiblyHasRelation``, run through an
ensemble of tokensregex/semgrex pattern banks + a statistical extractor,
with canonical mentions from coref and per-sentence dedup keeping max
confidence (/root/reference/src/edu/stanford/nlp/pipeline/
KBPAnnotator.java:36,109-132,402-480,556-654; relation inventory
ie/KBPRelationExtractor.java:121-170). This engine implements the pattern
banks as a dependency/lemma rule library (the semgrex-analogue DSL is
plain predicates over the dep columns); the extractor is a class whose
pattern banks bind once, when the chain is built on the driver (the
LR-weights slot).

Relations emitted (TAC-KBP inventory subset, ~27 of the reference's
~45 after the round-2 bank expansion — geo relations split by
country/state/city subtype like the reference's fine NER types):
  per:title per:employee_of per:{city,stateorprovince,country}_of_birth
  per:date_of_birth per:{city,stateorprovince,country}_of_death
  per:date_of_death per:{cities,stateorprovinces,countries}_of_residence
  per:spouse per:siblings per:parents per:children per:other_family
  per:charges per:cause_of_death per:alternate_names per:age per:origin
  per:schools_attended org:{city,stateorprovince,country}_of_headquarters
  org:founded_by org:founded org:parents org:subsidiaries
  org:top_members/employees org:alternate_names org:shareholders
  org:member_of

Subjects/objects are canonical-mention surfaces (coref representative),
dates are normalized TIMEX-style values. Per-sentence dedup keeps the
max-confidence instance per (subj, rel, obj) — KBPAnnotator.java:631-649
semantics (the cross-document dedup happens later in the canonicalization
shuffle, SURVEY §2.4).

Output: triples rows with source='kbp' (same TRIPLES_SCHEMA as openie).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

from corenlp_ray.functions.tokenpattern import toks_of
from corenlp_ray.stages.openie import (TRIPLE_COLUMNS, TRIPLES_SCHEMA,
                                       sentence_views, token_ner)

_TITLE_NOUNS = {
    "officer", "ceo", "president", "director", "chairman", "chairwoman",
    "head", "chief", "founder", "executive", "manager", "secretary",
    "minister", "professor", "scientist", "engineer", "analyst",
    "spokesman", "spokeswoman", "editor", "author",
}
_SPOUSE_NOUNS = {"wife", "husband", "spouse"}

# ideology/religion modifiers for org:political/religious_affiliation
# (reference NER IDEOLOGY/RELIGION fine types,
# ie/KBPRelationExtractor.java ORG_POLITICAL_RELIGIOUS_AFFILIATION)
_IDEOLOGIES = {
    "islamic", "islamist", "christian", "catholic", "jewish", "hindu",
    "buddhist", "communist", "socialist", "conservative", "nationalist",
    "marxist", "secular", "evangelical", "liberal", "democratic",
    "republican", "leftist", "rightist", "fascist", "zionist",
}

# sentence-length guard, the reference's kbp.maxlen (KBPAnnotator.java:87)
KBP_MAXLEN = 100

import re as _re_mod

# URL-shaped token (the reference's URL fine NER type, org:website slot)
_URL_RE = _re_mod.compile(
    r"(?:https?://|www\.)\S+$|[A-Za-z0-9-]+\.(?:com|org|net|gov|edu)$")

# verb lemmas / surface forms that can start any verbal pattern below —
# the main loop skips the elif chain for everything else
_TRIGGER_LEMMAS = frozenset((
    "bear", "die", "work", "live", "reside", "marry", "found", "find",
    "establish", "start", "headquarter", "base", "locate", "graduate",
    "acquire", "buy", "purchase", "join"))
_TRIGGER_WORDS = frozenset((
    "born", "married", "headquartered", "based", "located"))


class DepRule:
    """One data-driven extraction rule: a DepPattern + relation mapping
    (the semgrex-rule-bank entry shape)."""

    __slots__ = ("pattern", "relation", "sv", "ov", "conf", "sym",
                 "gates")

    def __init__(self, pattern_src: str, relation: str, sv: str, ov: str,
                 conf: float, sym: bool):
        import re as _re

        from corenlp_ray.functions.tokenpattern import DepPattern

        self.pattern = DepPattern(pattern_src)
        # cheap per-sentence CONJUNCTIVE gate: every attribute constraint
        # anywhere in the pattern tree must be satisfiable by some token
        # in the sentence before the full matcher runs (26 ungated rules
        # x 40 tokens of regex fullmatch per sentence doubled KG wall
        # time at sf0.1; a kinship rule now only fires in sentences that
        # actually contain a kinship lemma)
        self.gates = []

        def _walk(node):
            cons = node.cons
            if cons.attr is not None:
                if cons.literal is not None:
                    self.gates.append((cons.attr, cons.literal, None))
                elif cons.rx is not None:
                    raw = cons.rx.pattern
                    if raw.endswith("\\Z"):
                        raw = raw[:-2]
                    self.gates.append(
                        (cons.attr, None,
                         _re.compile(r"(?m)^(?:" + raw + r")$")))
            for _edge, child in node.children:
                _walk(child)

        _walk(self.pattern.root)
        self.relation = relation
        self.sv = sv
        self.ov = ov
        self.conf = conf
        self.sym = sym


def load_dep_rules(path: str) -> List[DepRule]:
    """Load a TAB-separated dep-pattern rule bank (see
    resources/kbp_dep_rules.tsv for the format)."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            pattern, relation, sv, ov, conf = cols[:5]
            flags = cols[5] if len(cols) > 5 else ""
            out.append(DepRule(pattern, relation, sv, ov, float(conf),
                               "sym" in flags))
    return out


DEFAULT_RULES_PATH = __file__.rsplit("/", 2)[0] + "/resources/kbp_dep_rules.tsv"



# the reference picks the relation name from the slot's fine NER type
# (COUNTRY / STATE_OR_PROVINCE / CITY, ie/KBPRelationExtractor.java
# relation inventory); this engine subtypes via the lexicon
_GEO_REL = {
    "per:city_of_birth": ("per:country_of_birth",
                          "per:stateorprovince_of_birth"),
    "per:city_of_death": ("per:country_of_death",
                          "per:stateorprovince_of_death"),
    "per:cities_of_residence": ("per:countries_of_residence",
                                "per:stateorprovinces_of_residence"),
    "org:city_of_headquarters": ("org:country_of_headquarters",
                                 "org:stateorprovince_of_headquarters"),
}


# umbrella LOCATION relations for places whose fine geo type is unknown
# (PER_LOC_OF_BIRTH / PER_LOC_OF_DEATH / PER_LOC_OF_RESIDENCE /
# ORG_LOC_OF_HEADQUARTERS, ie/KBPRelationExtractor.java:129-131,154)
_GEO_UMBRELLA = {
    "per:city_of_birth": "per:LOCATION_of_birth",
    "per:city_of_death": "per:LOCATION_of_death",
    "per:cities_of_residence": "per:LOCATION_of_residence",
    "org:city_of_headquarters": "org:LOCATION_of_headquarters",
}


def geo_relation(city_relation: str, place: str) -> str:
    from corenlp_ray.functions.lexicon import LOCATIONS, geo_subtype

    country_rel, state_rel = _GEO_REL[city_relation]
    sub = geo_subtype(place)
    if sub == "country":
        return country_rel
    if sub == "state":
        return state_rel
    if place.lower().strip() not in LOCATIONS:
        # not a known city either: the reference backs off to the
        # umbrella LOCATION_of_* relation instead of guessing CITY
        return _GEO_UMBRELLA[city_relation]
    return city_relation


class Mention:
    __slots__ = ("b", "e", "type", "norm", "canonical")

    def __init__(self, b, e, type_, norm, canonical):
        self.b, self.e, self.type, self.norm = b, e, type_, norm
        self.canonical = canonical


# the mention columns a ``Mention`` is built from, in argument order
MENTION_FIELDS = ("men_begin", "men_end", "men_ner", "men_norm",
                  "men_canonical")


# --------------------------------------------- tokensregex surface bank ----

DEFAULT_SURFACE_PATH = \
    __file__.rsplit("/", 2)[0] + "/resources/kbp_surface_patterns.tsv"


class SurfaceRule:
    __slots__ = ("relation", "styp", "otyp", "gates", "weight", "inverse",
                 "pattern")

    def __init__(self, relation, styp, otyp, gates, weight, inverse,
                 pattern):
        self.relation, self.styp, self.otyp = relation, styp, otyp
        self.gates, self.weight, self.inverse = gates, weight, inverse
        self.pattern = pattern


def load_surface_rules(path: str) -> List[SurfaceRule]:
    """Load the per-relation tokensregex surface banks (see
    resources/kbp_surface_patterns.tsv for the format)."""
    from corenlp_ray.functions.tokensregex import TokensRegex

    out = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            rel, st, ot, gates, w, inv, pat = line.split("\t")
            out.append(SurfaceRule(
                rel, frozenset(st.split("|")), frozenset(ot.split("|")),
                frozenset() if gates == "-" else frozenset(gates.split("|")),
                float(w), None if inv == "-" else inv,
                TokensRegex.compile(pat)))
    return out


class KbpSurfaceBank:
    """KBPTokensregexExtractor analogue
    (ie/KBPTokensregexExtractor.java:59-135): per-relation tokensregex
    surface banks, run FIRST in the ensemble per the reference's
    extractor priority (KBPEnsembleExtractor.java:45-67, tokensregex →
    statistical → semgrex). For each type-gated ordered mention pair the
    pair's tokens are marked subj/obj (the Subject/Object annotations,
    :95-107), the relation's patterns run over the sentence, and the
    first matching relation wins for that pair (:110-128). Patterns
    compile once per extractor; a per-rule word gate skips sentences without
    the trigger word (one set lookup instead of a sequence match)."""

    def __init__(self, path: Optional[str] = DEFAULT_SURFACE_PATH):
        self.rules: List[SurfaceRule] = []
        if path:
            try:
                self.rules = load_surface_rules(path)
            except OSError:
                self.rules = []

    def classify(self, words, lemmas, tags, mentions
                 ) -> List[Tuple[str, str, str, str, str, float]]:
        if not self.rules or len(mentions) < 2 or len(words) > KBP_MAXLEN:
            return []
        lowers = [w.lower() for w in words]
        lowset = set(lowers)
        active = [r for r in self.rules
                  if not r.gates or (r.gates & lowset)]
        if not active:
            return []
        toks = [{"word": w, "lower": lw, "lemma": lm, "pos": t, "ner": "O"}
                for w, lw, lm, t in zip(words, lowers, lemmas, tags)]
        n = len(toks)
        for m in mentions:
            for k in range(m.b, min(m.e, n)):
                toks[k]["ner"] = m.type
        out = []
        for s in mentions:
            for o in mentions:
                if s is o or (s.b < o.e and o.b < s.e):
                    continue  # self / overlapping spans
                rules2 = [r for r in active
                          if s.type in r.styp and o.type in r.otyp]
                if not rules2:
                    continue
                for k in range(s.b, min(s.e, n)):
                    toks[k]["subj"] = "true"
                for k in range(o.b, min(o.e, n)):
                    toks[k]["obj"] = "true"
                try:
                    for r in rules2:
                        if not r.pattern.find_all(toks):
                            continue
                        rel = geo_relation(r.relation, o.canonical) \
                            if r.relation in _GEO_REL else r.relation
                        # value-typed objects use the normalized value:
                        # coref's appositive sieve makes "Mary, 47," give
                        # the NUMBER mention the PERSON's canonical
                        obj_val = o.norm if o.type in (
                            "DATE", "NUMBER", "MONEY") else o.canonical
                        out.append((s.canonical, rel, obj_val,
                                    s.type, o.type, r.weight))
                        if r.inverse:
                            out.append((o.canonical, r.inverse, s.canonical,
                                        o.type, s.type, r.weight))
                        break  # first matching relation wins for the pair
                finally:
                    for k in range(s.b, min(s.e, n)):
                        toks[k].pop("subj", None)
                    for k in range(o.b, min(o.e, n)):
                        toks[k].pop("obj", None)
        return out


def kbp_sentence(
    words: List[str], tags: List[str], lemmas: List[str],
    heads: List[int], labels: List[str], mentions: List[Mention],
    pron_canon: Optional[Dict[int, str]] = None,
    dep_rules: Optional[List[DepRule]] = None,
) -> List[Tuple[str, str, str, str, str, float]]:
    """Pure kernel → [(subj, rel, obj, subj_ner, obj_ner, conf)]."""
    if len(words) > KBP_MAXLEN:
        return []
    if not mentions and not pron_canon:
        # every KBP emission resolves its subject through a mention or
        # a coref-resolved pronoun; a bare sentence can't fire
        return []
    pron_canon = pron_canon or {}
    n = len(words)
    ch: Dict[int, List[Tuple[int, str]]] = {}
    _cop_heads = set()
    for i, (h, l) in enumerate(zip(heads, labels)):
        if h >= 0:
            ch.setdefault(h, []).append((i, l))
            if l == "cop":
                _cop_heads.add(h)

    # token → first covering mention, precomputed once (men_at is hit
    # ~10×/sentence across the verbal/copular/possessive patterns; the
    # per-call linear scan over mentions was the kernel's hottest line)
    _men_idx: List[Optional[Mention]] = [None] * n
    for m in reversed(mentions):   # earlier mentions win ties, as before
        for k in range(m.b, min(m.e, n)):
            _men_idx[k] = m

    def men_at(tok: int, types=None) -> Optional[Mention]:
        m = _men_idx[tok] if 0 <= tok < n else None
        if m is not None and (types is None or m.type in types):
            return m
        return None

    def subj_entity(v: int, types) -> Optional[Tuple[str, str]]:
        """Resolve nsubj/nsubj:pass of v to a canonical entity of a type in
        ``types`` (accepting resolved pronouns and relative pronouns —
        the latter through the acl:relcl antecedent)."""
        for c, l in ch.get(v, ()):
            if l in ("nsubj", "nsubj:pass"):
                if words[c].lower() in ("who", "which", "that") \
                        and heads[v] >= 0 and labels[v] == "acl:relcl":
                    c = heads[v]
                m = men_at(c, types)
                if m:
                    return m.canonical, m.type
                if c in pron_canon and tags[c] in ("PRP",):
                    # pronoun subject resolved by coref: assume PERSON for
                    # he/she, ORGANIZATION for it
                    ty = "PERSON" if words[c].lower() in (
                        "he", "she", "him", "her") else "ORGANIZATION"
                    if ty in types:
                        return pron_canon[c], ty
        return None

    def obls(v: int, cases) -> List[Mention]:
        out = []
        for c, l in ch.get(v, ()):
            if l == "obl":
                case = next((cc for cc, ll in ch.get(c, ()) if ll == "case"),
                            None)
                if case is not None and words[case].lower() in cases:
                    m = men_at(c)
                    if m:
                        out.append(m)
        return out

    def objs(v: int) -> List[Mention]:
        out = []
        for c, l in ch.get(v, ()):
            if l == "obj":
                m = men_at(c)
                if m:
                    out.append(m)
        return out

    rel_out: List[Tuple[str, str, str, str, str, float]] = []

    def emit(subj, rel, obj, sner, oner, conf):
        if subj and obj and subj != obj:
            rel_out.append((subj, rel, obj, sner, oner, conf))

    for v in range(n):
        lem = lemmas[v]
        if not tags[v].startswith("V"):
            # copular predicate patterns (root nominals with cop child)
            if v in _cop_heads:
                _copular_patterns(v, words, tags, ch, men_at, subj_entity,
                                  emit)
            continue
        if lem not in _TRIGGER_LEMMAS and \
                words[v].lower() not in _TRIGGER_WORDS:
            continue  # non-trigger verb: no pattern below can fire
        # ---- verbal patterns ----
        if lem == "bear" or words[v].lower() == "born":
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in obls(v, ("in", "at")):
                    if m.type == "LOCATION":
                        emit(se[0], geo_relation("per:city_of_birth", m.canonical), m.canonical,
                             "PERSON", "LOCATION", 0.99)
                    elif m.type == "DATE":
                        emit(se[0], "per:date_of_birth", m.norm,
                             "PERSON", "DATE", 0.99)
                for m in obls(v, ("on",)):
                    if m.type == "DATE":
                        emit(se[0], "per:date_of_birth", m.norm,
                             "PERSON", "DATE", 0.99)
        elif lem == "die":
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in obls(v, ("in", "at")):
                    if m.type == "LOCATION":
                        emit(se[0], geo_relation("per:city_of_death", m.canonical), m.canonical,
                             "PERSON", "LOCATION", 0.99)
                    elif m.type == "DATE":
                        emit(se[0], "per:date_of_death", m.norm,
                             "PERSON", "DATE", 0.98)
                for m in obls(v, ("on",)):
                    if m.type == "DATE":
                        emit(se[0], "per:date_of_death", m.norm,
                             "PERSON", "DATE", 0.98)
        elif lem == "work":
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in obls(v, ("for", "at")):
                    if m.type == "ORGANIZATION":
                        emit(se[0], "per:employee_of", m.canonical,
                             "PERSON", "ORGANIZATION", 0.95)
        elif lem in ("live", "reside"):
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in obls(v, ("in",)):
                    if m.type == "LOCATION":
                        emit(se[0], geo_relation("per:cities_of_residence", m.canonical), m.canonical,
                             "PERSON", "LOCATION", 0.95)
        elif lem == "marry" or words[v].lower() == "married":
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in obls(v, ("to",)):
                    if m.type == "PERSON":
                        emit(se[0], "per:spouse", m.canonical,
                             "PERSON", "PERSON", 0.98)
                        emit(m.canonical, "per:spouse", se[0],
                             "PERSON", "PERSON", 0.98)
                for m in objs(v):
                    if m.type == "PERSON":
                        emit(se[0], "per:spouse", m.canonical,
                             "PERSON", "PERSON", 0.9)
        elif lem in ("found", "find", "establish", "start") and tags[v] in ("VBD", "VBN"):
            se = subj_entity(v, ("PERSON", "ORGANIZATION"))
            if se:
                for m in objs(v):
                    if m.type == "ORGANIZATION":
                        emit(m.canonical, "org:founded_by", se[0],
                             "ORGANIZATION", se[1], 0.97)
                        for d in obls(v, ("in", "on")):
                            if d.type == "DATE":
                                emit(m.canonical, "org:founded", d.norm,
                                     "ORGANIZATION", "DATE", 0.97)
        elif lem in ("headquarter", "base", "locate") or words[v].lower() in (
                "headquartered", "based", "located"):
            se = subj_entity(v, ("ORGANIZATION",))
            if se:
                for m in obls(v, ("in", "at")):
                    if m.type == "LOCATION":
                        emit(se[0], geo_relation("org:city_of_headquarters", m.canonical), m.canonical,
                             "ORGANIZATION", "LOCATION", 0.98)
        elif lem == "graduate":
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in obls(v, ("from",)):
                    if m.type == "ORGANIZATION":
                        emit(se[0], "per:schools_attended", m.canonical,
                             "PERSON", "ORGANIZATION", 0.97)
        elif lem in ("acquire", "buy", "purchase"):
            se = subj_entity(v, ("ORGANIZATION",))
            if se:
                for m in objs(v):
                    if m.type == "ORGANIZATION":
                        emit(m.canonical, "org:parents", se[0],
                             "ORGANIZATION", "ORGANIZATION", 0.9)
                        emit(se[0], "org:subsidiaries", m.canonical,
                             "ORGANIZATION", "ORGANIZATION", 0.9)
        elif lem in ("join",):
            se = subj_entity(v, ("PERSON",))
            if se:
                for m in objs(v):
                    if m.type == "ORGANIZATION":
                        emit(se[0], "per:employee_of", m.canonical,
                             "PERSON", "ORGANIZATION", 0.9)

    # ---- mention-adjacency patterns (tokensregex-bank analogues) ----
    for mi, m in enumerate(mentions):
        # per:age — "X, 45," / "X, 45 years old"
        if m.type == "PERSON" and m.e + 1 < n and words[m.e] == ",":
            nxt = men_at(m.e + 1)
            if nxt and nxt.type == "NUMBER" \
                    and (nxt.e < n and (words[nxt.e] == "," or
                                        lemmas[min(nxt.e, n - 1)] == "year")):
                try:
                    age = float(nxt.norm)
                except ValueError:
                    age = -1
                if 5 <= age <= 120:
                    emit(m.canonical, "per:age", nxt.norm,
                         "PERSON", "NUMBER", 0.95)
        # per:origin — nationality adjective immediately before a PERSON
        if m.type == "PERSON" and m.b > 0 and tags[m.b - 1] in ("JJ", "NNP"):
            prev = men_at(m.b - 1)
            if prev and prev.type == "MISC":
                emit(m.canonical, "per:origin", prev.canonical,
                     "PERSON", "NATIONALITY", 0.9)
        # org:alternate_names — "Full Org Name ( ACRO )"
        if m.type == "ORGANIZATION" and m.e < n and words[m.e] in ("(", "-LRB-"):
            nxt = men_at(m.e + 1)
            close = m.e + 2
            if nxt and close < n and words[close] in (")", "-RRB-") \
                    and nxt.e - nxt.b == 1:
                acro = words[nxt.b]
                toks = [t for t in words[m.b:m.e] if t[:1].isalpha()]
                if acro.isupper() and len(toks) >= 2 and \
                        acro == "".join(t[0].upper() for t in toks):
                    emit(m.canonical, "org:alternate_names", acro,
                         "ORGANIZATION", "ORGANIZATION", 0.95)
                    emit(acro, "org:alternate_names", m.canonical,
                         "ORGANIZATION", "ORGANIZATION", 0.95)
        # org:political/religious_affiliation — ideology/religion word
        # inside or immediately before the ORG mention ("the Islamic
        # Salvation Front", "Communist Party"): the modifier is part of
        # the NNP run so no out-of-mention amod edge exists for the
        # dep-rule bank to catch
        if m.type == "ORGANIZATION":
            for k in range(max(0, m.b - 1), m.e):
                wl = words[k].lower()
                if wl in _IDEOLOGIES:
                    emit(m.canonical, "org:political/religious_affiliation",
                         words[k], "ORGANIZATION", "IDEOLOGY", 0.9)
        # per:title + per:employee_of — appositive "X, TITLE of ORG"
        if m.type == "PERSON" and m.e < n and words[m.e] == ",":
            j = m.e + 1
            if j < n and tags[j] == "DT":
                j += 1
            t_start = j
            while j < n and (tags[j].startswith("NN") or tags[j] == "JJ") \
                    and lemmas[j] not in ("of",):
                j += 1
            if j > t_start and lemmas[j - 1].lower() in _TITLE_NOUNS:
                title = " ".join(words[t_start:j])
                emit(m.canonical, "per:title", title, "PERSON", "TITLE",
                     0.93)
                if j < n and words[j].lower() == "of":
                    org = men_at(j + 1, ("ORGANIZATION",))
                    if org:
                        emit(m.canonical, "per:employee_of", org.canonical,
                             "PERSON", "ORGANIZATION", 0.93)
                        emit(org.canonical, "org:top_members/employees",
                             m.canonical, "ORGANIZATION", "PERSON", 0.93)

    # ---- org:website: URL-shaped token parenthesized after the ORG or
    # following a "website" token (ORG_WEBSITE slot; parse shapes around
    # URLs are too degraded for the dep-rule bank) ----
    url_toks = [k for k in range(n)
                if ("." in words[k] or "//" in words[k])
                and _URL_RE.match(words[k])]
    if url_toks:
        for m in mentions:
            if m.type != "ORGANIZATION":
                continue
            if m.e < n and words[m.e] in ("(", "-LRB-") \
                    and m.e + 2 < n and _URL_RE.match(words[m.e + 1]) \
                    and words[m.e + 2] in (")", "-RRB-"):
                emit(m.canonical, "org:website", words[m.e + 1],
                     "ORGANIZATION", "URL", 0.95)
        if any(lemmas[k] == "website" for k in range(n)):
            orgs = [m for m in mentions if m.type == "ORGANIZATION"]
            if len(orgs) == 1:
                emit(orgs[0].canonical, "org:website", words[url_toks[0]],
                     "ORGANIZATION", "URL", 0.9)

    # ---- possessive spouse: "X's wife, Y" ----
    for i in range(n):
        if lemmas[i] in _SPOUSE_NOUNS:
            poss = next((c for c, l in ch.get(i, ()) if l == "nmod:poss"),
                        None)
            if poss is None:
                continue
            pm = men_at(poss, ("PERSON",))
            if not pm:
                continue
            # appositive or adjacent PERSON after the noun
            for m in mentions:
                if m.type == "PERSON" and i < m.b <= i + 2:
                    emit(pm.canonical, "per:spouse", m.canonical,
                         "PERSON", "PERSON", 0.95)
                    emit(m.canonical, "per:spouse", pm.canonical,
                         "PERSON", "PERSON", 0.95)
                    break

    # ---- data-driven dep-pattern rule bank ----
    if dep_rules:
        tok_ner = ["O"] * n
        for m in mentions:
            for k in range(m.b, min(m.e, n)):
                tok_ner[k] = m.type
        # relative pronouns inherit the antecedent's type so ner-gated
        # patterns match through relative clauses (enhanced-dependency
        # style propagation)
        for v in range(n):
            if labels[v] == "acl:relcl" and heads[v] >= 0:
                for c, l in ch.get(v, ()):
                    if l == "nsubj" and words[c].lower() in (
                            "who", "which", "that"):
                        tok_ner[c] = tok_ner[heads[v]]
        toks = toks_of(words, lemmas, tags, tok_ner)
        # attribute-value sets for the per-rule gates (one regex search
        # per rule per sentence instead of per token)
        _gate_sets = {
            "lemma": set(lemmas), "ner": set(tok_ner),
            "word": set(words),
            "lower": {w.lower() for w in words},
            "pos": set(tags),
        }
        _gate_vals = {k: chr(10).join(v)
                      for k, v in _gate_sets.items()}
        for rule in dep_rules:
            ok = True
            for attr, lit, rx in rule.gates:
                vs = _gate_sets.get(attr)
                if vs is None:
                    continue
                if lit is not None:
                    if lit not in vs:
                        ok = False
                        break
                elif rx is not None \
                        and rx.search(_gate_vals[attr]) is None:
                    ok = False
                    break
            if not ok:
                continue
            for binding in rule.pattern.match(toks, heads, labels):
                si = binding.get(rule.sv)
                oi = binding.get(rule.ov)
                if si is None or oi is None:
                    continue
                gov = binding.get(rule.pattern.gov_name)
                if gov is not None and words[si].lower() in ("who", "which",
                                                            "that") \
                        and heads[gov] >= 0 and labels[gov] == "acl:relcl":
                    si = heads[gov]
                sm, om = men_at(si), men_at(oi)
                subj = sm.canonical if sm else words[si]
                obj = om.canonical if om else words[oi]
                sner = sm.type if sm else "O"
                oner = om.type if om else "O"
                emit(subj, rule.relation, obj, sner, oner, rule.conf)
                if rule.sym:
                    emit(obj, rule.relation, subj, oner, sner, rule.conf)

    # ---- distribute over conjoined subjects (enhanced++ conj) ----
    # "X and Y work for Z": the parser gives nsubj to the first conjunct;
    # relations found for it copy to same-type conjunct mentions
    conj_subjects: Dict[str, List[Tuple[str, str]]] = {}
    for c in range(n):
        if labels[c] not in ("nsubj", "nsubj:pass"):
            continue
        mc = men_at(c)
        if not mc:
            continue
        for p, l in ch.get(c, ()):  # conj children, via the edge map
            if l == "conj":
                mp = men_at(p)
                if mp and mp.type == mc.type:
                    conj_subjects.setdefault(mc.canonical, []).append(
                        (mp.canonical, mp.type))
    if conj_subjects:
        extra = []
        for (s, rel, o, sner, oner, conf) in rel_out:
            for (pc, pt) in conj_subjects.get(s, ()):
                if pc != o:
                    extra.append((pc, rel, o, pt, oner, conf * 0.95))
        rel_out.extend(extra)

    # per-sentence dedup, keep max confidence (KBPAnnotator.java:631-649)
    best: Dict[Tuple[str, str, str], Tuple[str, str, str, str, str, float]] = {}
    for t in rel_out:
        key = (t[0], t[1], t[2])
        if key not in best or t[5] > best[key][5]:
            best[key] = t
    return list(best.values())


def _copular_patterns(v, words, tags, ch, men_at, subj_entity, emit):
    """'X is the <title> of ORG' → per:title + per:employee_of +
    org:top_members/employees; 'X is a subsidiary of Y' → org:parents."""
    lw = words[v].lower()
    se_p = subj_entity(v, ("PERSON",))
    se_o = subj_entity(v, ("ORGANIZATION",))
    # collect the full title phrase (compound/amod chain on the predicate)
    mods = sorted([c for c, l in ch.get(v, ())
                   if l in ("compound", "amod")] + [v])
    title_phrase = " ".join(words[t] for t in mods)
    nmod_of = None
    for c, l in ch.get(v, ()):
        if l == "nmod":
            case = next((cc for cc, ll in ch.get(c, ()) if ll == "case"), None)
            if case is not None and words[case].lower() == "of":
                nmod_of = c
    if lw in _TITLE_NOUNS and se_p:
        emit(se_p[0], "per:title", title_phrase, "PERSON", "TITLE", 0.97)
        if nmod_of is not None:
            m = men_at(nmod_of, ("ORGANIZATION",))
            if m:
                emit(se_p[0], "per:employee_of", m.canonical,
                     "PERSON", "ORGANIZATION", 0.97)
                emit(m.canonical, "org:top_members/employees", se_p[0],
                     "ORGANIZATION", "PERSON", 0.97)
    if lw == "subsidiary" and se_o and nmod_of is not None:
        m = men_at(nmod_of, ("ORGANIZATION",))
        if m:
            emit(se_o[0], "org:parents", m.canonical,
                 "ORGANIZATION", "ORGANIZATION", 0.97)
            emit(m.canonical, "org:subsidiaries", se_o[0],
                 "ORGANIZATION", "ORGANIZATION", 0.97)


class KbpExtractor:
    """Extractor: docs → triples rows (source='kbp').

    ``rules_path``: optional extra dep-pattern rule bank (default ships
    resources/kbp_dep_rules.tsv) — patterns compile once in
    ``__init__``, when the chain is built on the driver, and ship with
    the chain to its tasks.

    ``classifier_path``: optional trained KbpClassifier weights
    (models/kbp_classifier.py). Ensemble order mirrors the reference's
    KBPEnsembleExtractor.java:58-66 — rules run first and the
    statistical model only classifies mention pairs no rule claimed
    (first-extractor-wins union)."""

    def __init__(self, rules_path: Optional[str] = DEFAULT_RULES_PATH,
                 classifier_path: Optional[str] = None,
                 classifier_threshold: float = 0.6,
                 surface_path: Optional[str] = DEFAULT_SURFACE_PATH):
        self.title_nouns = _TITLE_NOUNS  # pattern-bank binding point
        self.dep_rules: List[DepRule] = []
        if rules_path:
            try:
                self.dep_rules = load_dep_rules(rules_path)
            except OSError:
                self.dep_rules = []
        # tokensregex surface banks — the ensemble's FIRST extractor
        # (KBPEnsembleExtractor.java:45-67 priority order)
        self.surface_bank = KbpSurfaceBank(surface_path)
        self.classifier = None
        self.classifier_threshold = classifier_threshold
        if classifier_path:
            from corenlp_ray.models.kbp_classifier import KbpClassifier

            self.classifier = KbpClassifier.load(classifier_path)

    def _classify_rest(self, words, tags, lemmas, heads, labels,
                       mentions, claimed):
        """Statistical fallback over pairs the rule bank left unclaimed
        (the ensemble's last extractor)."""
        from corenlp_ray.models.kbp_classifier import (NO_RELATION,
                                                       candidate_pairs)

        ners = token_ner(len(words), [(m.b, m.e, m.type) for m in mentions])
        out = []
        for s, o, feats in candidate_pairs(words, tags, lemmas, heads,
                                           labels, ners, mentions):
            if (s.canonical, o.canonical) in claimed:
                continue
            rel, conf = self.classifier.predict(feats, s.type, o.type)
            if rel != NO_RELATION and conf >= self.classifier_threshold:
                out.append((s.canonical, rel, o.canonical, s.type,
                            o.type, round(conf, 4)))
        return out

    @stage_kernel()
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        # ``cols``: the chain's column store, shared with openie in the
        # fused chain
        cols = {name: col(batch, name, cols)
                for name in ("url",) + TRIPLE_COLUMNS}
        rows: List[dict] = []
        for r in range(len(cols["url"])):
            row = {name: v[r] for name, v in cols.items()}
            words, tags = row["tok_word"], row["tok_pos"]
            lemmas, labels = row["tok_lemma"], row["dep_label"]
            for si, b, e, l_heads, l_mens, l_pron in sentence_views(
                    row, MENTION_FIELDS):
                l_mens = [Mention(*m) for m in l_mens]
                # ensemble order (KBPEnsembleExtractor.java:45-67):
                # tokensregex surface banks first, then the dep-rule
                # banks, then the statistical extractor on pairs no
                # rule claimed; union deduped per (s, rel, o) max-conf
                triples = self.surface_bank.classify(
                    words[b:e], lemmas[b:e], tags[b:e], l_mens)
                triples = triples + kbp_sentence(
                    words[b:e], tags[b:e], lemmas[b:e], l_heads,
                    labels[b:e], l_mens, l_pron, self.dep_rules)
                if self.classifier is not None and e - b <= KBP_MAXLEN:
                    claimed = {(s, o) for (s, _, o, _, _, _) in triples}
                    triples = triples + self._classify_rest(
                        words[b:e], tags[b:e], lemmas[b:e], l_heads,
                        labels[b:e], l_mens, claimed)
                if triples:
                    best: Dict[Tuple[str, str, str], tuple] = {}
                    for t in triples:
                        key = (t[0], t[1], t[2])
                        if key not in best or t[5] > best[key][5]:
                            best[key] = t
                    triples = list(best.values())
                for (s, rel, o, sner, oner, conf) in triples:
                    rows.append({
                        "url": row["url"], "sent_idx": si, "subj": s, "pred": rel,
                        "obj": o, "subj_canonical": s, "obj_canonical": o,
                        "subj_ner": sner, "obj_ner": oner,
                        "confidence": conf, "source": "kbp"})
        return pa.Table.from_pylist(rows, schema=TRIPLES_SCHEMA)


def kbp_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task variant for small/test pipelines."""
    return KbpExtractor()(batch)
