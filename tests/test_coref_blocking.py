"""The blocked coref sieves and the windowed pronoun lookup give the
same clusters as the all-pairs scans they replace, and openie/kbp's
per-sentence mention buckets equal a per-sentence filter of the whole
list.

``all_pairs_resolve_coref`` / ``all_pairs_resolve_pronouns`` below are
the all-pairs kernels as they stood before blocking, renamed: a
test-only reference, not an engine path. Generated documents use a
small vocabulary (so heads, words and surfaces collide), titles,
corporate suffixes, pronouns, random mention types, overlapping and
unsorted mentions, and nondecreasing sentence ids."""
from typing import Dict, List, Tuple

import hypothesis.strategies as st
import pyarrow as pa
from hypothesis import example, given, settings

from corenlp_ray.functions.lexicon import (
    FEMALE_PRONOUNS, MALE_PRONOUNS, NEUTRAL_PRONOUNS, PLURAL_PRONOUNS,
)
from corenlp_ray.models.kbp_classifier import annotated_sentences
from corenlp_ray.stages import kbp as kbp_mod
from corenlp_ray.stages import openie as openie_mod
from corenlp_ray.stages.coref import (
    _BE_FORMS, _FIRST_PERSON, _SECOND_PERSON, _UF, _gender_of_person,
    _strip, detect_coref_mentions, finalize_clusters, resolve_coref,
    resolve_pronouns,
)
from corenlp_ray.stages.relation import candidate_relation_pairs


# ------------------------------------------------ all-pairs reference


def all_pairs_resolve_coref(
    words: List[str], tags: List[str], tok_sent: List[int],
    men: List[Tuple[int, int, str, str]],
    full: bool = False,
) -> Tuple[List[int], List[str], List[int], List[str]]:
    """Pure kernel. ``men`` = [(begin, end, type, norm)] doc-level mentions.

    Returns (men_chain, men_canonical, pron_idx, pron_canonical)."""
    nm = len(men)
    uf = _UF(nm)
    surfaces = [" ".join(words[b:e]) for b, e, _, _ in men]
    stripped = [_strip(s) for s in surfaces]
    entity_like = [i for i in range(nm)
                   if men[i][2] in ("PERSON", "ORGANIZATION", "LOCATION", "MISC")]

    # Sieve 1+2: exact / relaxed string match
    seen: Dict[str, int] = {}
    for i in entity_like:
        key = men[i][2] + "|" + stripped[i]
        if stripped[i] and key in seen:
            uf.union(seen[key], i)
        else:
            seen[key] = i

    if full:
        # FULL-mode sieves over nominal/pronominal mentions (the dcoref
        # passes the entity-only default cannot express):
        # exact/relaxed string match for NOMINAL mentions ("a concert"
        # / "the concert" — determiner-stripped, ExactStringMatch +
        # RelaxedStringMatch over common NPs)
        seen_n: Dict[str, int] = {}
        for i in range(nm):
            if men[i][2] != "NOMINAL" or not stripped[i]:
                continue
            if stripped[i] in seen_n:
                uf.union(seen_n[stripped[i]], i)
            else:
                seen_n[stripped[i]] = i
        # predicate nominative (PreciseConstructs): "<X> is <Y>" — only
        # a be-form (+adverbs) between two same-sentence mentions
        for i in range(nm - 1):
            b1, e1, t1, _ = men[i]
            for j in range(i + 1, nm):
                b2, e2, t2, _ = men[j]
                if b2 < e1:
                    continue
                if tok_sent[b1] != tok_sent[min(b2, len(words) - 1)] \
                        or b2 - e1 > 3 or b2 <= e1:
                    break
                between = list(range(e1, b2))
                if between and words[between[0]].lower() in _BE_FORMS \
                        and all(words[k].lower() in _BE_FORMS
                                or tags[k] == "RB" for k in between):
                    uf.union(i, j)
                break
        # speaker sieve (SpeakerMatch, single-speaker approximation):
        # first-person mentions corefer; second-person likewise
        for group in (_FIRST_PERSON, _SECOND_PERSON):
            first = -1
            for i in range(nm):
                if men[i][2] == "PRONOMINAL" and men[i][3] in group:
                    if first < 0:
                        first = i
                    else:
                        uf.union(first, i)
        # third-person pronominal mentions join their antecedent's
        # cluster (PronounMatch over the full mention list — nominal
        # antecedents allowed for neutral/plural pronouns)
        for i in range(nm):
            if men[i][2] != "PRONOMINAL":
                continue
            lw = men[i][3]
            if lw in _FIRST_PERSON or lw in _SECOND_PERSON:
                continue
            k = men[i][0]
            if lw in MALE_PRONOUNS:
                want, g = "PERSON", "m"
            elif lw in FEMALE_PRONOUNS:
                want, g = "PERSON", "f"
            elif lw in NEUTRAL_PRONOUNS:
                want, g = "NEUTRAL", None
            elif lw in PLURAL_PRONOUNS:
                want, g = "ANY_PLURAL", None
            else:
                continue
            best = -1
            for j in range(nm):
                b, e, t, _ = men[j]
                if e > k:
                    break
                if j == i or men[j][2] == "PRONOMINAL":
                    continue
                if tok_sent[k] - tok_sent[b] > 2:
                    continue
                if want == "PERSON":
                    if t != "PERSON":
                        continue
                    gg = _gender_of_person(surfaces[j])
                    if g and gg != "u" and gg != g:
                        continue
                elif want == "NEUTRAL":
                    if t not in ("ORGANIZATION", "LOCATION", "NOMINAL"):
                        continue
                    if t == "NOMINAL" and tags[e - 1] == "NNS":
                        continue
                elif want == "ANY_PLURAL":
                    if not (t in ("ORGANIZATION", "PERSON")
                            or (t == "NOMINAL" and tags[e - 1] == "NNS")):
                        continue
                best = j
            if best >= 0:
                uf.union(best, i)

    # Sieve 3: precise constructs — appositive "X , the Y ," (adjacent
    # mentions separated by a comma with a determiner-led second mention)
    for i in range(nm - 1):
        b1, e1, t1, _ = men[i]
        b2, e2, t2, _ = men[i + 1]
        if t1 in ("PERSON", "ORGANIZATION", "LOCATION") and e1 < len(words) \
                and words[e1] == "," and b2 == e1 + 1 \
                and tok_sent[b1] == tok_sent[b2] \
                and (t2 == t1 or t2 not in ("PERSON", "ORGANIZATION",
                                            "LOCATION")):
            # two DIFFERENT named types ("Hello"/ORG , "Mary Johnson"/
            # PERSON) are a list, not an appositive — dcoref requires
            # entityAttributesAgree (Rules.java:150) before this merge
            uf.union(i, i + 1)

    # Sieves 4-7: head-match family (StrictHeadMatch1-3, RelaxedHeadMatch;
    # Rules.java entityHeadsAgree:320, entityWordsIncluded:104,
    # entityHaveIncompatibleModifier:113,399). Head = last stripped token
    # that is not a corporate suffix (so "Gitano Group Inc." heads on
    # "group", not on "inc." — a bare last-token key would merge every
    # "Inc." org).
    from corenlp_ray.functions.lexicon import ORG_SUFFIXES

    _excl = {"the", "this", "mr.", "miss", "mrs.", "dr.", "ms.",
             "inc.", "ltd.", "corp.", "'s", "’s"}

    def head_of(i: int) -> str:
        toks = [t for t in stripped[i].split() if t not in _excl]
        while len(toks) > 1 and toks[-1] in ORG_SUFFIXES:
            toks = toks[:-1]
        return toks[-1] if toks else ""

    heads = {i: head_of(i) for i in entity_like}

    # Incremental root→{members, words, heads} maps, updated on each
    # union.
    _members: Dict[int, List[int]] = {}
    _cwords: Dict[int, set] = {}
    _cheads: Dict[int, set] = {}
    for i in entity_like:
        r = uf.find(i)
        _members.setdefault(r, []).append(i)
        _cwords.setdefault(r, set()).update(surfaces[i].lower().split())
        _cheads.setdefault(r, set()).add(heads[i])

    def union_tracked(a: int, b: int) -> None:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        uf.union(ra, rb)
        r = uf.find(ra)
        o = rb if r == ra else ra
        _members[r].extend(_members.pop(o, []))
        _cwords[r].update(_cwords.pop(o, set()))
        _cheads[r].update(_cheads.pop(o, set()))

    def cluster_members(i: int) -> List[int]:
        return _members.get(uf.find(i), [i])

    def cluster_words(i: int) -> set:
        return _cwords.get(uf.find(i), set())

    def cluster_heads(i: int) -> set:
        return _cheads.get(uf.find(i), set())

    def words_included(i: int, j: int) -> bool:
        """All of cluster(i)'s non-stop words (minus i's head) appear in
        cluster(j)'s words — Rules.entityWordsIncluded."""
        need = cluster_words(i) - _excl - {heads[i]}
        return need <= cluster_words(j)

    def compatible_modifiers(i: int, j: int) -> bool:
        """No incompatible modifier: i's non-head content words all
        appear in j's mention words (per-mention pairwise, Rules:399)."""
        for mi in cluster_members(i):
            mods = {w for w in surfaces[mi].lower().split()
                    if w not in _excl and w != heads[i]}
            for mj in cluster_members(j):
                if heads.get(mj) != heads[i]:
                    continue
                ant_words = set(surfaces[mj].lower().split())
                if not (mods <= ant_words):
                    return False
        return True

    def type_ok(i: int, j: int) -> bool:
        return men[i][2] == men[j][2]

    def run_head_sieve(check) -> None:
        for i in entity_like:
            if not heads[i]:
                continue
            for j in entity_like:
                if j >= i or uf.find(i) == uf.find(j):
                    continue
                if type_ok(i, j) and check(i, j):
                    union_tracked(j, i)
                    break

    # StrictHeadMatch1: heads agree + word inclusion + compatible mods
    run_head_sieve(lambda i, j: heads[i] in cluster_heads(j)
                   and words_included(i, j) and compatible_modifiers(i, j))
    # StrictHeadMatch2: heads agree + word inclusion
    run_head_sieve(lambda i, j: heads[i] in cluster_heads(j)
                   and words_included(i, j))
    # StrictHeadMatch3: heads agree + compatible modifiers
    run_head_sieve(lambda i, j: heads[i] in cluster_heads(j)
                   and compatible_modifiers(i, j))
    # RelaxedHeadMatch: mention head ∈ antecedent cluster words + word
    # inclusion ("Sanders" → cluster of "Bernard Sanders")
    run_head_sieve(lambda i, j: heads[i] in cluster_words(j)
                   and words_included(i, j))

    # Sieve 4b: acronym match (the AcronymMatcher pass,
    # util/AcronymMatcher.java:17 — +20% KBP recall per the reference's
    # own comment): an all-caps single-token mention equals the initials
    # of a multi-token ORGANIZATION mention
    from corenlp_ray.functions.shapes import acronym_of

    initials: Dict[str, int] = {}
    for i in entity_like:
        if men[i][2] == "ORGANIZATION":
            acro = acronym_of(surfaces[i].split())
            if acro:
                initials.setdefault(acro, i)
    for i in entity_like:
        s = surfaces[i]
        if " " not in s and s.isupper() and 2 <= len(s) <= 6 \
                and s in initials and initials[s] != i:
            uf.union(initials[s], i)

    # Sieve 5: pronoun match
    pron_idx, pron_canon_mention = all_pairs_resolve_pronouns(
        words, tags, tok_sent, men, surfaces)

    return finalize_clusters(uf, men, surfaces, entity_like,
                             pron_idx, pron_canon_mention)


def all_pairs_resolve_pronouns(words, tags, tok_sent, men, surfaces):
    """The deterministic PronounMatch sieve (shared by the sieve system
    and the statistical ranker, which ranks only entity mentions —
    matching the reference, whose statistical algorithm also keeps a
    rule-based pronoun component in the anaphoricity/ranking split).
    Returns (pron_idx, antecedent mention index per pronoun)."""
    nm = len(men)
    pron_idx: List[int] = []
    pron_canon_mention: List[int] = []
    for k in range(len(words)):
        lw = words[k].lower()
        if tags[k] not in ("PRP", "PRP$"):
            continue
        if lw in MALE_PRONOUNS:
            want = ("PERSON", "m")
        elif lw in FEMALE_PRONOUNS:
            want = ("PERSON", "f")
        elif lw in NEUTRAL_PRONOUNS:
            want = ("ORGANIZATION", None)  # it → org/location/thing
        elif lw in PLURAL_PRONOUNS:
            want = ("ANY_PLURAL", None)
        else:
            continue
        best = -1
        for i in range(nm):
            b, e, t, _ = men[i]
            if e > k:
                break
            if tok_sent[k] - tok_sent[b] > 2:  # antecedent within 2 sentences
                continue
            if want[0] == "PERSON":
                if t != "PERSON":
                    continue
                g = _gender_of_person(surfaces[i])
                if want[1] and g != "u" and g != want[1]:
                    continue
            elif want[0] == "ORGANIZATION":
                if t not in ("ORGANIZATION", "LOCATION"):
                    continue
            elif want[0] == "ANY_PLURAL":
                if t not in ("ORGANIZATION", "PERSON"):
                    continue
            best = i
        if best >= 0:
            pron_idx.append(k)
            pron_canon_mention.append(best)
    return pron_idx, pron_canon_mention




# ------------------------------------------------------ generated docs

_VOCAB = ["John", "Mary", "Smith", "Acme", "Corp.", "Inc.", "Group",
          "Bank", "Paris", "the", "The", "a", "Mr.", "Dr.", "president",
          "is", "was", ",", "and", "said", "IBM", "International",
          "Business", "Machines", "he", "she", "it", "they", "them", "his",
          "her", "its", "I", "you", "my"]
# few words, many commas: heads and surfaces collide, and appositives
# ("John , Smith") build clusters that mix mention types
_SMALL_VOCAB = ["John", "Smith", "Mary", "Acme", "Corp.", "Group", "the",
                "Mr.", ",", ",", "he", "it", "they"]
_PRONOUNS = (MALE_PRONOUNS | FEMALE_PRONOUNS | NEUTRAL_PRONOUNS
             | PLURAL_PRONOUNS | {"i", "you", "my"})
_FIXED_TAGS = {"the": "DT", "a": "DT", "is": "VBZ", "was": "VBD",
               ",": ",", "and": "CC"}
_ENTITY_TYPES = ["PERSON", "ORGANIZATION", "LOCATION", "MISC", "DATE"]


@st.composite
def docs(draw, types=tuple(_ENTITY_TYPES)):
    n = draw(st.integers(1, 40))
    vocab = draw(st.sampled_from([_SMALL_VOCAB, _VOCAB]))
    words = draw(st.lists(st.sampled_from(vocab), min_size=n, max_size=n))
    tags = []
    for w in words:
        lw = w.lower()
        if lw in _PRONOUNS:
            tags.append(draw(st.sampled_from(["PRP", "PRP$"])))
        elif lw in _FIXED_TAGS:
            tags.append(_FIXED_TAGS[lw])
        else:
            tags.append(draw(st.sampled_from(["NNP", "NN", "NNS", "JJ"])))
    steps = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    tok_sent = [sum(steps[1:k + 1]) for k in range(n)]
    men = []
    for b, length, t in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(1, 3),
            st.sampled_from(types)), max_size=20)):
        e = min(n, b + length)
        men.append((b, e, t, " ".join(words[b:e]).lower()))
    if draw(st.booleans()):
        men.sort(key=lambda m: (m[0], -m[1]))
    return words, tags, tok_sent, men


_APPOSITIVE_WORDS = ("John Smith , Acme met Mary John Smith and "
                     "Smith John Smith")


@settings(max_examples=400, deadline=None)
@given(docs())
# the appositive puts a surface with another head ("Acme") in the first
# cluster; compatible modifiers must compare only same-head surfaces, or
# the last mention joins "Mary John Smith" instead of "John Smith"
@example((_APPOSITIVE_WORDS.split(), ["NNP"] * 12, [0] * 12,
          [(0, 2, "PERSON", ""), (3, 4, "PERSON", ""),
           (5, 8, "PERSON", ""), (9, 12, "PERSON", "")]))
def test_blocked_coref_equals_all_pairs(doc):
    assert resolve_coref(*doc) == all_pairs_resolve_coref(*doc)


@settings(max_examples=300, deadline=None)
@given(docs())
def test_blocked_full_coref_equals_all_pairs(doc):
    """The full configuration as ``coref_full_batch`` runs it: detected
    nominal and pronominal mentions added, then every sieve."""
    words, tags, tok_sent, men = doc
    men = detect_coref_mentions(words, tags, tok_sent, men)
    assert resolve_coref(words, tags, tok_sent, men, full=True) == \
        all_pairs_resolve_coref(words, tags, tok_sent, men, full=True)


@settings(max_examples=300, deadline=None)
@given(docs(types=tuple(_ENTITY_TYPES) + ("NOMINAL", "PRONOMINAL")))
def test_windowed_pronouns_equal_all_pairs_unsorted(doc):
    """The window is exact for any mention order, in both the pronoun
    sieve and the full configuration's pronominal mentions."""
    words, tags, tok_sent, men = doc
    surfaces = [" ".join(words[b:e]) for b, e, _, _ in men]
    assert resolve_pronouns(words, tags, tok_sent, men, surfaces) == \
        all_pairs_resolve_pronouns(words, tags, tok_sent, men, surfaces)
    assert resolve_coref(words, tags, tok_sent, men, full=True) == \
        all_pairs_resolve_coref(words, tags, tok_sent, men, full=True)


def _annotated(texts):
    from corenlp_ray.pipelines.kg import ANNOTATE_STAGES
    from corenlp_ray.pipelines.registry import Chain, build
    from corenlp_ray.sources.pages import PAGES_SCHEMA

    pages = pa.Table.from_pylist([
        {"url": f"u{i}", "warc_ts": 0, "html": t.encode(), "text": t,
         "lang": "en"} for i, t in enumerate(texts)], schema=PAGES_SCHEMA)
    return Chain(build(ANNOTATE_STAGES))(pages)


def test_annotated_pages_equal_all_pairs():
    """Real tokenizer/NER output, including a repeated-sentence page."""
    from corenlp_ray.sources.pages import synth_pages_table

    texts = [t for t in synth_pages_table(n=30, seed=7)
             .column("text").to_pylist() if t]
    texts.append("John Smith of Acme Corp. said Smith and Acme will open "
                 "in Paris. He said it would hire them. " * 40)
    docs_ = _annotated(texts).to_pylist()
    for d in docs_:
        men = list(zip(d["men_begin"], d["men_end"], d["men_ner"],
                       d["men_norm"]))
        args = (d["tok_word"], d["tok_pos"], d["tok_sent"])
        assert resolve_coref(*args, men) == \
            all_pairs_resolve_coref(*args, men)
        full_men = detect_coref_mentions(*args, men)
        assert resolve_coref(*args, full_men, full=True) == \
            all_pairs_resolve_coref(*args, full_men, full=True)


# ------------------------------------------ openie / kbp sentence buckets


def _per_sentence_filter(sent_begin, sent_end, spans):
    """The filter openie and kbp ran over the whole list per sentence."""
    spans = list(spans)
    return [[s for s in spans if b <= s[0] and s[1] <= e]
            for b, e in zip(sent_begin, sent_end)]


@st.composite
def sentences_and_spans(draw):
    n = draw(st.integers(0, 30))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    bounds = [0] + cuts + [n]
    sb, se = bounds[:-1], bounds[1:]   # may hold empty sentences
    spans = [(b, b + draw(st.integers(0, 4)), i) for i, b in enumerate(
        draw(st.lists(st.integers(-1, n + 1), max_size=12)))]
    prons = [(k, k + 1, i) for i, k in enumerate(
        draw(st.lists(st.sampled_from(sb + [x - 1 for x in se] or [0]),
                      max_size=6)))]
    return sb, se, spans + prons


@settings(max_examples=400, deadline=None)
@given(sentences_and_spans())
def test_sentence_buckets_equal_per_sentence_filter(case):
    sb, se, spans = case
    assert openie_mod.sentence_buckets(sb, se, spans) == \
        _per_sentence_filter(sb, se, spans)


def _doc_level_distill_input(d, ner_mentions):
    """The KBP distill input as ``models/distill.py`` built it before
    ``annotated_sentences``: per-token NER tags from ``ner_mentions``
    (tuples of the ``MENTION_FIELDS``) at document level, clipped at the
    document end, then sliced per sentence; mentions filtered per
    sentence."""
    ners = ["O"] * len(d["tok_word"])
    for mb, me, ty, _, _ in ner_mentions:
        for k in range(mb, min(me, len(ners))):
            ners[k] = ty
    mens = list(zip(*(d[f] for f in kbp_mod.MENTION_FIELDS)))
    out = []
    for b, e in zip(d["sent_begin"], d["sent_end"]):
        heads = [(h - b) if h >= 0 else -1 for h in d["dep_head"][b:e]]
        out.append((d["tok_word"][b:e], d["tok_pos"][b:e],
                    d["tok_lemma"][b:e], heads, d["dep_label"][b:e],
                    ners[b:e], [(mb - b, me - b, *rest)
                                for mb, me, *rest in mens
                                if b <= mb and me <= e]))
    return out


def test_openie_kbp_rows_equal_per_sentence_filter(monkeypatch):
    """A mention crossing a sentence boundary, pronouns on a sentence's
    first and last token and a duplicate ``pron_idx``: every consumer of
    the bucketed ``sentence_views`` (openie, kbp, the relation
    candidates and the KBP distill input) gives what the per-sentence
    filter gives."""
    d = _annotated(["John Smith met Mary Jones in Paris. She was born in "
                    "London and he works for Acme Corp. in Boston. They "
                    "agreed with him."]).to_pylist()[0]
    sb, se = d["sent_begin"], d["sent_end"]
    assert len(sb) == 3
    d["men_begin"].append(se[0] - 2)          # crosses into sentence 1
    d["men_end"].append(sb[1] + 1)
    d["men_ner"].append("PERSON")
    d["men_norm"].append("")
    d["men_canonical"].append("Crossing Mention")
    for k, canon in ((sb[1], "Carol Brown"), (se[1] - 1, "Acme Corp."),
                     (sb[2], "Acme Corp."), (se[2] - 1, "John Smith")):
        d["pron_idx"].append(k)
        d["pron_canonical"].append(canon)
    batch = pa.Table.from_pylist([d])

    def rows():
        return (openie_mod.openie_batch(batch).to_pylist(),
                kbp_mod.KbpExtractor()(batch).to_pylist(),
                candidate_relation_pairs(d),
                [s[:6] + ([(m.b, m.e, m.type, m.norm, m.canonical)
                           for m in s[6]],)
                 for s in annotated_sentences(d)])

    bucketed = rows()
    monkeypatch.setattr(openie_mod, "sentence_buckets", _per_sentence_filter)
    assert rows() == bucketed
    assert all(bucketed)
    # the distill input tags tokens only from mentions inside the
    # sentence, as ``KbpExtractor._classify_rest`` does at inference; the
    # document-level tags differed on the crossing mention's tokens only
    mens = list(zip(*(d[f] for f in kbp_mod.MENTION_FIELDS)))
    assert bucketed[3] == _doc_level_distill_input(d, mens[:-1])
    assert bucketed[3] != _doc_level_distill_input(d, mens)
