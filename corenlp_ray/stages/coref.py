"""Deterministic sieve-based coreference (the dcoref analogue).

The reference's deterministic system runs 11 ordered sieves over mention
clusters (/root/reference/src/edu/stanford/nlp/dcoref/
SieveCoreferenceSystem.java:90,185-216; sieve order dcoref/Constants.java:56;
rules dcoref/Rules.java). Coreference is strictly within-document, so the
whole system is a PURE PER-ROW FUNCTION → stateless map_batches with
dictionaries loaded at import (SURVEY §2.2 row 14) — no cross-document
state, no shuffle.

Sieve subset implemented, in dcoref order:
  1. ExactStringMatch       — identical non-pronominal surface (case-folded)
  2. RelaxedStringMatch     — strip determiners/titles, then identical
  3. PreciseConstructs      — predicate nominative via copula (X is the Y),
                              appositive (X, the Y,)
  4. StrictHeadMatch1       — cluster head match + word inclusion +
                              compatible modifiers (sievepasses/
                              StrictHeadMatch1.java; Rules.java:104-120)
  5. StrictHeadMatch2       — head match + word inclusion only
  6. StrictHeadMatch3       — head match + compatible modifiers only
  7. RelaxedHeadMatch       — mention head ∈ antecedent cluster words,
                              NE-typed antecedent, word inclusion
                              (sievepasses/RelaxedHeadMatch.java)
  8. PronounMatch           — gender/number/animacy-gated nearest antecedent

Cluster representative = earliest non-pronominal mention (the reference's
most-representative-mention rule).

Adds columns (aligned with men_*):
  men_chain     list<int32>   cluster id per mention (doc-local)
  men_canonical list<string>  representative surface per mention
  pron_idx      list<int32>   token index of each resolved pronoun
  pron_canonical list<string> representative surface of its antecedent
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

from corenlp_ray.functions.lexicon import (
    FEMALE_NAMES, FEMALE_PRONOUNS, MALE_NAMES, MALE_PRONOUNS,
    NEUTRAL_PRONOUNS, PERSON_TITLES, PLURAL_PRONOUNS,
)

_DET = {"the", "a", "an", "this", "that", "these", "those"}


class _UF:
    def __init__(self, n: int):
        self.p = list(range(n))

    def find(self, x: int) -> int:
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller index as root → earliest mention is canonical
            if ra < rb:
                self.p[rb] = ra
            else:
                self.p[ra] = rb


def _strip(surface: str) -> str:
    toks = surface.lower().split()
    while toks and (toks[0] in _DET or toks[0] in PERSON_TITLES):
        toks = toks[1:]
    return " ".join(toks)


def _gender_of_person(surface: str) -> str:
    first = surface.lower().split()[0] if surface else ""
    if first in MALE_NAMES:
        return "m"
    if first in FEMALE_NAMES:
        return "f"
    return "u"


_FIRST_PERSON = {"i", "me", "my", "myself", "mine"}
_SECOND_PERSON = {"you", "your", "yourself", "yours"}
_BE_FORMS = {"is", "are", "was", "were", "am", "be", "been", "'s",
             "'re", "'m", "seems", "remains", "became", "becomes"}


def detect_coref_mentions(
    words: List[str], tags: List[str], tok_sent: List[int],
    men: List[Tuple[int, int, str, str]],
) -> List[Tuple[int, int, str, str]]:
    """RuleBasedCorefMentionFinder analogue (dcoref/
    RuleBasedCorefMentionFinder.java): extends the entity-mention list
    with NOMINAL noun-phrase mentions ((DT)? (JJ|NN)* NN(S) chunks) and
    PRONOMINAL single-token mentions, skipping spans already covered by
    an entity mention. Used by the FULL coref configuration (opt-in:
    the flagship chain keeps entity mentions only, so planted outputs
    are unchanged)."""
    n = len(words)
    covered = [False] * n
    for b, e, _, _ in men:
        for k in range(b, e):
            covered[k] = True
    out = list(men)
    i = 0
    while i < n:
        t = tags[i]
        if t in ("PRP", "PRP$") and not covered[i]:
            out.append((i, i + 1, "PRONOMINAL", words[i].lower()))
            i += 1
            continue
        if t == "DT" or t in ("JJ", "JJR", "JJS", "NN", "NNS"):
            b = i
            j = i + 1 if t == "DT" else i
            last_noun = j if t in ("NN", "NNS") else -1
            while j < n and tags[j] in ("JJ", "JJR", "JJS", "NN",
                                        "NNS", "VBG", "CD"):
                if tags[j] in ("NN", "NNS"):
                    last_noun = j
                j += 1
            if last_noun >= 0 and not any(covered[b:last_noun + 1]):
                out.append((b, last_noun + 1, "NOMINAL",
                            " ".join(w.lower()
                                     for w in words[b:last_noun + 1])))
                i = last_noun + 1
                continue
            i = max(j, i + 1)
            continue
        i += 1
    out.sort(key=lambda m: (m[0], -m[1]))
    return out


def resolve_coref(
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
        before = _antecedent_window(men, tok_sent)
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
            for j in before(k):
                _, e, t, _ = men[j]
                if j == i or t == "PRONOMINAL":
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
                break
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

    # a mention's head and word set depend only on its surface
    s_head: Dict[str, str] = {}
    s_words: Dict[str, frozenset] = {}
    for i in entity_like:
        if surfaces[i] not in s_head:
            s_head[surfaces[i]] = head_of(i)
            s_words[surfaces[i]] = frozenset(surfaces[i].lower().split())
    heads = {i: s_head[surfaces[i]] for i in entity_like}

    # Blocking indexes (token blocking: a head sieve only ever accepts an
    # antecedent cluster that holds i's head among its heads, or for
    # RelaxedHeadMatch among its words). Per root: its words, heads,
    # distinct surfaces and earliest member of each mention type; and
    # the inverted indexes head → roots and word → roots. All are
    # updated on each union, so a sieve looks up its candidate clusters
    # instead of scanning every earlier mention.
    _cwords: Dict[int, set] = {}
    _cheads: Dict[int, set] = {}
    _csurf: Dict[int, set] = {}
    _first: Dict[int, Dict[str, int]] = {}
    for i in entity_like:
        r = uf.find(i)
        _cwords.setdefault(r, set()).update(s_words[surfaces[i]])
        _cheads.setdefault(r, set()).add(heads[i])
        _csurf.setdefault(r, set()).add(surfaces[i])
        _first.setdefault(r, {}).setdefault(men[i][2], i)
    _by_head: Dict[str, set] = {}
    _by_word: Dict[str, set] = {}
    for index, per_root in ((_by_head, _cheads), (_by_word, _cwords)):
        for r, keys in per_root.items():
            for key in keys:
                index.setdefault(key, set()).add(r)

    def union_tracked(a: int, b: int) -> None:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        uf.union(ra, rb)
        r = uf.find(ra)
        o = rb if r == ra else ra
        for index, per_root in ((_by_head, _cheads), (_by_word, _cwords)):
            keys = per_root.pop(o)
            for key in keys:
                index[key].discard(o)
                index[key].add(r)
            per_root[r] |= keys
        _csurf[r] |= _csurf.pop(o)
        first = _first[r]
        for t, j in _first.pop(o).items():
            if j < first.get(t, j + 1):
                first[t] = j

    def cluster_words(i: int) -> set:
        return _cwords.get(uf.find(i), set())

    def words_included(i: int, j: int) -> bool:
        """All of cluster(i)'s non-stop words (minus i's head) appear in
        cluster(j)'s words — Rules.entityWordsIncluded."""
        need = cluster_words(i) - _excl - {heads[i]}
        return need <= cluster_words(j)

    def compatible_modifiers(i: int, j: int) -> bool:
        """No incompatible modifier: i's non-head content words all
        appear in j's mention words (per-mention pairwise, Rules:399),
        taken over the clusters' distinct surfaces."""
        h = heads[i]
        ants = [s_words[s] for s in _csurf[uf.find(j)] if s_head[s] == h]
        return all(s_words[s] - _excl - {h} <= ant
                   for s in _csurf[uf.find(i)] for ant in ants)

    def run_head_sieve(index: Dict[str, set], check) -> None:
        """For each i, union with the smallest earlier same-type j whose
        cluster passes ``check``. ``check`` sees j only through j's
        cluster, so the smallest such j is the earliest member of i's
        type in one of the clusters ``index`` lists under i's head;
        testing those in ascending order finds the same j as a scan of
        every earlier mention, and the unions happen in the same
        order."""
        for i in entity_like:
            h = heads[i]
            if not h:
                continue
            ri, t = uf.find(i), men[i][2]
            firsts = (_first[r].get(t, i) for r in index.get(h, ())
                      if r != ri)
            for j in sorted(j for j in firsts if j < i):
                if check(i, j):
                    union_tracked(j, i)
                    break

    # StrictHeadMatch1: heads agree + word inclusion + compatible mods
    run_head_sieve(_by_head, lambda i, j: words_included(i, j)
                   and compatible_modifiers(i, j))
    # StrictHeadMatch2: heads agree + word inclusion
    run_head_sieve(_by_head, words_included)
    # StrictHeadMatch3: heads agree + compatible modifiers
    run_head_sieve(_by_head, compatible_modifiers)
    # RelaxedHeadMatch: mention head ∈ antecedent cluster words + word
    # inclusion ("Sanders" → cluster of "Bernard Sanders")
    run_head_sieve(_by_word, words_included)

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
    pron_idx, pron_canon_mention = resolve_pronouns(
        words, tags, tok_sent, men, surfaces)

    return finalize_clusters(uf, men, surfaces, entity_like,
                             pron_idx, pron_canon_mention)


def _antecedent_window(men, tok_sent):
    """Antecedent candidates for a pronoun at token ``k``, nearest first.

    ``before(k)`` yields, in descending order, the indices ``i`` of the
    mentions ahead of the first mention that ends after ``k`` and that
    start within two sentences of ``k`` — the set an ascending scan
    that breaks at the first ``end > k`` would accept, so the first hit
    of a backward scan is that scan's last hit. A prefix maximum of the
    mention ends finds the cut by bisection, and a prefix maximum of
    the mentions' sentence ids stops the backward scan where no earlier
    mention can be close enough; both hold for unsorted mentions too,
    and the cost per pronoun is the mentions of its window."""
    end_max: List[int] = []
    for m in men:
        end_max.append(max(end_max[-1], m[1]) if end_max else m[1])
    sent_max: List[int] = []   # filled lazily, up to the largest cut

    def before(k: int):
        cut = bisect_right(end_max, k)
        while len(sent_max) < cut:
            s = tok_sent[men[len(sent_max)][0]]
            sent_max.append(max(sent_max[-1], s) if sent_max else s)
        lo = tok_sent[k] - 2
        for i in range(cut - 1, -1, -1):
            if sent_max[i] < lo:
                return
            if tok_sent[men[i][0]] >= lo:
                yield i

    return before


def resolve_pronouns(words, tags, tok_sent, men, surfaces):
    """The deterministic PronounMatch sieve (shared by the sieve system
    and the statistical ranker, which ranks only entity mentions —
    matching the reference, whose statistical algorithm also keeps a
    rule-based pronoun component in the anaphoricity/ranking split).
    Returns (pron_idx, antecedent mention index per pronoun)."""
    before = _antecedent_window(men, tok_sent)
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
        for i in before(k):   # antecedent within 2 sentences
            t = men[i][2]
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
            break
        if best >= 0:
            pron_idx.append(k)
            pron_canon_mention.append(best)
    return pron_idx, pron_canon_mention


def finalize_clusters(uf, men, surfaces, entity_like,
                      pron_idx, pron_canon_mention):
    """Cluster → output columns: canonical per cluster = earliest
    entity-like mention (the reference's most-representative-mention
    rule). Shared by the sieve system and the statistical ranker."""
    nm = len(men)
    roots: Dict[int, int] = {}
    for i in entity_like:
        r = uf.find(i)
        if r not in roots or i < roots[r]:
            roots[r] = min(roots.get(r, i), i)
    # clusters with no entity-like member (full mode: nominal/pronoun
    # chains) represent by their earliest non-pronominal member
    roots_all: Dict[int, int] = {}
    for i in range(nm):
        if men[i][2] == "PRONOMINAL":
            continue
        r = uf.find(i)
        if r not in roots_all or i < roots_all[r]:
            roots_all[r] = i
    men_chain = [uf.find(i) for i in range(nm)]
    men_canonical = []
    for i in range(nm):
        r = uf.find(i)
        rep = roots.get(r, roots_all.get(r, i))
        men_canonical.append(surfaces[rep])
    pron_canonical = [men_canonical[m] for m in pron_canon_mention]
    return men_chain, men_canonical, pron_idx, pron_canonical


@stage_kernel("coref.full")
def coref_full_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """FULL dcoref configuration: the RuleBasedCorefMentionFinder
    analogue extends men_* with nominal + pronominal mentions, then the
    full sieve stack (speaker, nominal string match, predicate
    nominative, head matches, pronoun match) chains them. REPLACES the
    men_* columns — opt-in; the flagship chain uses ``coref_batch``
    (entity mentions only) so planted outputs stay byte-stable."""
    words_col = col(batch, "tok_word", cols)
    tags_col = col(batch, "tok_pos", cols)
    tsent_col = col(batch, "tok_sent", cols)
    mb_col = col(batch, "men_begin", cols)
    me_col = col(batch, "men_end", cols)
    mn_col = col(batch, "men_ner", cols)
    mv_col = col(batch, "men_norm", cols)
    mb2, me2, ms2, mn2, mv2 = [], [], [], [], []
    chain_c, canon_c, pidx_c, pcan_c = [], [], [], []
    for r in range(batch.num_rows):
        tsent = tsent_col[r]
        men = list(zip(mb_col[r], me_col[r], mn_col[r], mv_col[r]))
        men = detect_coref_mentions(words_col[r], tags_col[r], tsent, men)
        chain, canon, pidx, pcan = resolve_coref(
            words_col[r], tags_col[r], tsent, men, full=True)
        mb2.append([m[0] for m in men])
        ms2.append([tsent[m[0]] for m in men])
        me2.append([m[1] for m in men])
        mn2.append([m[2] for m in men])
        mv2.append([m[3] for m in men])
        chain_c.append(chain)
        canon_c.append(canon)
        pidx_c.append(pidx)
        pcan_c.append(pcan)
    # the replaced men_* too: a downstream reader must not pair the
    # entity-only mentions with the new canonicals
    cols.update(men_begin=mb2, men_end=me2, men_sent=ms2, men_ner=mn2,
                men_norm=mv2, men_chain=chain_c, men_canonical=canon_c,
                pron_idx=pidx_c, pron_canonical=pcan_c)
    return batch


@stage_kernel("coref")
def coref_batch(batch: pa.Table, cols: dict,
                resolve=resolve_coref) -> pa.Table:
    """Stateless stage: + men_chain, men_canonical, pron_idx,
    pron_canonical. Requires tok_*, men_* columns. ``resolve`` is the
    per-document kernel (a trained ranker's, models/coref_ranker.py)."""
    chain_c, canon_c, pidx_c, pcan_c = [], [], [], []
    words_col = col(batch, "tok_word", cols)
    tags_col = col(batch, "tok_pos", cols)
    tsent_col = col(batch, "tok_sent", cols)
    mb_col = col(batch, "men_begin", cols)
    me_col = col(batch, "men_end", cols)
    mn_col = col(batch, "men_ner", cols)
    mv_col = col(batch, "men_norm", cols)
    for r in range(batch.num_rows):
        men = list(zip(mb_col[r], me_col[r], mn_col[r], mv_col[r]))
        chain, canon, pidx, pcan = resolve(
            words_col[r], tags_col[r], tsent_col[r], men)
        chain_c.append(chain)
        canon_c.append(canon)
        pidx_c.append(pidx)
        pcan_c.append(pcan)
    cols.update(men_chain=chain_c, men_canonical=canon_c, pron_idx=pidx_c,
                pron_canonical=pcan_c)
    return batch
