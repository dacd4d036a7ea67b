"""Small annotators: gender, truecase, quote detection + attribution.

Reference analogues:
  * gender — first-name lookup (/root/reference/src/edu/stanford/nlp/
    pipeline/GenderAnnotator.java:19).
  * truecase — CRF-based truecasing for caseless text
    (pipeline/TrueCaseAnnotator.java:21); this engine uses the
    deterministic lexicon path: sentence-initial capitalization + known
    proper-noun/gazetteer/acronym restoration.
  * quote — quote detection with nesting + speaker attribution sieves
    (pipeline/QuoteAnnotator.java:78, QuoteAttributionAnnotator.java:60);
    this engine implements paired-quote span extraction and the
    nearest-speaker-with-speech-verb attribution sieve.
"""
from __future__ import annotations

import re
from typing import List, Optional, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col, has

from corenlp_ray.functions.lexicon import (FEMALE_NAMES, LOCATIONS,
                                           MALE_NAMES, ORG_SUFFIXES)

# ------------------------------------------------------------------ gender ----

def gender_of(first_name: str) -> str:
    lw = first_name.lower()
    if lw in MALE_NAMES:
        return "MALE"
    if lw in FEMALE_NAMES:
        return "FEMALE"
    return "UNKNOWN"


@stage_kernel("gender")
def gender_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """+ men_gender (aligned with men_*): PERSON mentions get first-name
    gender, others UNKNOWN."""
    out = []
    words_col = col(batch, "tok_word", cols)
    mb_col = col(batch, "men_begin", cols)
    mn_col = col(batch, "men_ner", cols)
    for r in range(batch.num_rows):
        words = words_col[r]
        out.append([gender_of(words[b]) if t == "PERSON" else "UNKNOWN"
                    for b, t in zip(mb_col[r], mn_col[r])])
    cols["men_gender"] = out
    return batch


# ---------------------------------------------------------------- truecase ----

_PROPER = {w for w in (list(MALE_NAMES) + list(FEMALE_NAMES))}
_PROPER |= {c.lower() for c in LOCATIONS}
_ACRONYM_RE = re.compile(r"^[a-z]{2,5}$")
KNOWN_ACRONYMS = {"ibm", "nasa", "fbi", "cia", "un", "eu", "gdp", "ceo",
                  "usa", "uk", "tv", "ai", "it"}


# ambiguous surnames: capitalized only next to another proper token
# ("Heather brown" → Brown; "the brown dog" stays lower)
_SURNAMES = {"brown", "smith", "johnson", "williams", "jones", "miller",
             "davis", "garcia", "wilson", "anderson", "taylor", "thomas",
             "moore", "martin", "jackson", "thompson", "white", "harris",
             "clark", "lewis", "walker", "young", "allen", "king",
             "wright", "hill", "scott", "green", "adams", "baker"}
# institution heads: capitalized after a proper token (Duke University)
_INSTITUTION_HEADS = {"university", "college", "institute", "hospital",
                      "museum", "corporation", "academy"}
# multiword proper names (TrueCaseAnnotatorITest: "Good Morning America",
# "Duke University")
_PROPER_PHRASES = {
    ("duke", "university"): ("Duke", "University"),
    ("good", "morning", "america"): ("Good", "Morning", "America"),
    ("new", "york", "times"): ("New", "York", "Times"),
    ("wall", "street", "journal"): ("Wall", "Street", "Journal"),
    ("united", "nations"): ("United", "Nations"),
    ("world", "health", "organization"):
        ("World", "Health", "Organization"),
    ("stanford", "university"): ("Stanford", "University"),
    ("harvard", "university"): ("Harvard", "University"),
}
_MAX_PHRASE = max(len(k) for k in _PROPER_PHRASES)


# Gaelic Mac- surnames that take internal capitalization (MacArthur);
# a lexicon, not a prefix rule — see truecase_word
_MAC_SURNAMES = {
    "macarthur", "macdonald", "macgregor", "macintyre", "mackenzie",
    "macleod", "maclean", "macmillan", "macpherson", "macallister",
    "macnamara", "macdowell", "macfarlane", "mackay", "macneil",
    "maccarthy", "macbride", "maccormack", "macdougall", "macintosh"}


def truecase_word(lw: str, sent_initial: bool) -> str:
    """Pure kernel: lowercase word → truecased form (context-free)."""
    if lw in KNOWN_ACRONYMS:
        return lw.upper()
    if lw in _PROPER:
        return lw.capitalize()
    if (lw.startswith("mc") and len(lw) > 3) or lw in _MAC_SURNAMES:
        # McVey / MacArthur prefix capitalization
        # (TrueCaseAnnotatorITest.java:61-64 pins McVey). The Mac- branch
        # is gated on a surname lexicon: a bare prefix rule corrupted
        # common words (machine→MacHine, mackerel→MacKerel). English has
        # essentially no common words starting "mc", so that branch
        # stays lexicon-free.
        k = 2 if lw.startswith("mc") else 3
        return lw[:k].capitalize()[:1].upper() + lw[1:k] + \
            lw[k].upper() + lw[k + 1:]
    parts = lw.split(" ")
    if len(parts) > 1:
        return " ".join(truecase_word(p, False) for p in parts)
    if sent_initial:
        return lw[:1].upper() + lw[1:]
    return lw


def truecase_words(words: List[str],
                   sent_initials=frozenset((0,))) -> List[str]:
    """Sentence-level truecasing with the context rules the word kernel
    can't see (phrase lexicon, surname-next-to-name, institution heads)
    — TrueCaseAnnotatorITest.java:55-76 behavior."""
    lws = [w.lower() for w in words]
    n = len(words)
    out: List[str] = [None] * n
    proper = [False] * n     # capitalized on PROPER evidence (not just
    i = 0                    # sentence-initial position)
    while i < n:
        matched = False
        for k in range(min(_MAX_PHRASE, n - i), 1, -1):
            tpl = tuple(lws[i:i + k])
            if tpl in _PROPER_PHRASES:
                out[i:i + k] = list(_PROPER_PHRASES[tpl])
                for j in range(i, i + k):
                    proper[j] = True
                i += k
                matched = True
                break
        if matched:
            continue
        out[i] = truecase_word(lws[i], i in sent_initials)
        proper[i] = out[i] != lws[i] and i not in sent_initials or \
            lws[i] in _PROPER or lws[i] in KNOWN_ACRONYMS
        i += 1
    # context passes: surname / institution-head after a proper token
    for i in range(1, n):
        if out[i] != lws[i]:
            continue
        if lws[i] in _SURNAMES and proper[i - 1]:
            out[i] = lws[i].capitalize()
            proper[i] = True
        elif lws[i] in _INSTITUTION_HEADS and proper[i - 1]:
            out[i] = lws[i].capitalize()
            proper[i] = True
    return out


@stage_kernel("truecase")
def truecase_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """+ tok_truecase: restored casing for caseless text (requires tok_*;
    applies the deterministic lexicon + context rules)."""
    out = []
    words_col = col(batch, "tok_word", cols)
    sb_col = col(batch, "sent_begin", cols)
    for r in range(batch.num_rows):
        words = words_col[r]
        initials = set(sb_col[r])
        out.append(truecase_words(words, initials))
    cols["tok_truecase"] = out
    return batch


# ------------------------------------------------------------------- quote ----

_SPEECH_VERBS = {"say", "tell", "ask", "reply", "add", "note", "claim",
                 "state", "announce", "declare", "explain", "warn",
                 "write", "argue", "insist", "report"}
_OPEN_Q = {'"', "``", "“", "«"}
_CLOSE_Q = {'"', "''", "”", "»"}


def find_quotes(words: List[str]) -> List[Tuple[int, int]]:
    """Pure kernel: token spans (begin, end) of quoted content (exclusive
    of the quote marks). Straight quotes toggle; curly/PTB pairs nest.

    This is the token-level fast path used by the column pipeline. The
    reference-faithful CHARACTER-level extractor — latex quotes,
    same-kind embedding control, unclosed-quote recovery, max-length —
    lives in functions/quotes.py (extract_quotes) and passes the
    reference's own QuoteAnnotatorITest cases verbatim
    (tests/test_quotes_reference.py)."""
    spans = []
    stack = []
    for i, w in enumerate(words):
        if w in ("``", "“", "«"):
            stack.append(i)
        elif w in ("''", "”", "»") and stack:
            b = stack.pop()
            spans.append((b + 1, i))
        elif w == '"':
            if stack and words[stack[-1]] == '"':
                b = stack.pop()
                spans.append((b + 1, i))
            else:
                stack.append(i)
    return sorted(spans)


def attribute_quote(span: Tuple[int, int], words: List[str],
                    lemmas: List[str],
                    mentions: List[Tuple[int, int, str]]) -> Optional[str]:
    """Nearest-speaker sieve: a PERSON mention adjacent to a speech verb
    outside the quote, preferring after-quote ("..." said X) then
    before-quote (X said "..."). Kept as the chain's final 'loose'
    fallback (LooseConversationalSieve's role)."""
    b, e = span

    def near_speech_verb(idx: int) -> bool:
        lo, hi = max(0, idx - 3), min(len(words), idx + 4)
        return any(lemmas[k] in _SPEECH_VERBS for k in range(lo, hi))

    after = [m for m in mentions if m[2] == "PERSON" and m[0] >= e]
    for m in after[:2]:
        if near_speech_verb(m[0]):
            return " ".join(words[m[0]:m[1]])
    before = [m for m in mentions if m[2] == "PERSON" and m[1] <= b]
    for m in reversed(before[-2:]):
        if near_speech_verb(m[0]):
            return " ".join(words[m[0]:m[1]])
    return None


# speaker-capable third-person pronouns (QuoteAttributionUtils'
# animate pronoun scan)
_SPK_PRONOUNS = {"he", "she", "they"}
_BEFORE_QUOTE_PUNCT = {",", ":"}


def attribute_quote_sieves(
        qi: int, spans: List[Tuple[int, int]], words: List[str],
        tags: List[str], lemmas: List[str], sents: List[int],
        mentions: List[Tuple[int, int, str]],
        men_canonical: Optional[List[str]] = None,
        pron_canon: Optional[dict] = None,
        dep_head: Optional[List[int]] = None,
        dep_label: Optional[List[str]] = None,
        speakers: Optional[List[str]] = None,
) -> Tuple[str, str, str]:
    """Deterministic multi-sieve speaker attribution in the reference's
    DEFAULT_QMSIEVES order — tri, dep, onename, voc, conv, loose
    (pipeline/QuoteAttributionAnnotator.java:128
    ``tri,dep,onename,voc,paraend,conv,sup,loose``; the paragraph-end
    sieve needs paragraph breaks the token stream doesn't carry, and
    ``sup`` is the supervised-model slot — both documented omissions).
    The mention→speaker step mirrors the det/top MS sieves
    (MSSieves/DeterministicSpeakerSieve.java): pronoun mentions resolve
    through the coref pronoun map, name mentions through the mention's
    coref-representative surface.

    Returns (speaker, canonical_speaker, sieve_name); empty strings when
    no sieve fires.
    """
    b, e = spans[qi]
    n = len(words)
    pron_canon = pron_canon or {}
    speakers = speakers or []

    def inside_any_quote(i: int) -> bool:
        return any(s <= i < t for s, t in spans)

    def name_result(m, sieve):
        surface = " ".join(words[m[0]:m[1]])
        canon = surface
        if men_canonical is not None:
            try:
                canon = men_canonical[mentions.index(m)] or surface
            except ValueError:
                pass
        return surface, canon, sieve

    def pron_result(p, sieve):
        resolved = pron_canon.get(p)
        if resolved:
            return resolved, resolved, sieve
        return words[p], words[p], sieve

    persons = [m for m in mentions if m[2] == "PERSON"]
    prev_end = spans[qi - 1][1] + 1 if qi > 0 else 0
    next_beg = spans[qi + 1][0] - 1 if qi + 1 < len(spans) else n

    # ---- tri (TrigramSieve.java:32-150): CVQ/VCQ/PVQ/VPQ before,
    # QVC/QCV/QVP/QPV after the quote marks
    ob = b - 1                      # opening-quote token index
    off = 1 if ob - 1 >= prev_end and words[ob - 1] in \
        _BEFORE_QUOTE_PUNCT else 0
    if ob - 1 - off >= prev_end:
        prev_i = ob - 1 - off
        name_end_cvq = [m for m in persons if m[1] == prev_i]
        if tags[prev_i].startswith("V") and name_end_cvq:       # CVQ
            return name_result(name_end_cvq[-1], "tri-CVQ")
        name_end_vcq = [m for m in persons if m[1] == prev_i + 1]
        if name_end_vcq and name_end_vcq[-1][0] - 1 >= prev_end \
                and tags[name_end_vcq[-1][0] - 1].startswith("V"):  # VCQ
            return name_result(name_end_vcq[-1], "tri-VCQ")
        if tags[prev_i].startswith("V") and prev_i - 1 >= prev_end \
                and lemmas[prev_i - 1] in _SPK_PRONOUNS:        # PVQ
            return pron_result(prev_i - 1, "tri-PVQ")
        if lemmas[prev_i] in _SPK_PRONOUNS and prev_i - 1 >= prev_end \
                and tags[prev_i - 1].startswith("V"):           # VPQ
            return pron_result(prev_i, "tri-VPQ")
    if e + 1 < min(next_beg, n):
        nxt = e + 1
        if tags[nxt].startswith("V"):
            name_at = [m for m in persons if m[0] == nxt + 1]
            if name_at:                                         # QVC
                return name_result(name_at[0], "tri-QVC")
            if nxt + 1 < n and lemmas[nxt + 1] in _SPK_PRONOUNS:  # QVP
                return pron_result(nxt + 1, "tri-QVP")
        name_at = [m for m in persons if m[0] == nxt]
        if name_at and name_at[0][1] < n \
                and tags[name_at[0][1]].startswith("V"):        # QCV
            return name_result(name_at[0], "tri-QCV")
        if lemmas[nxt] in _SPK_PRONOUNS and nxt + 1 < n \
                and tags[nxt + 1].startswith("V"):              # QPV
            return pron_result(nxt, "tri-QPV")

    # ---- dep (DependencyParseSieve): an nsubj arc from a speech verb,
    # outside the quote, in the token range adjacent to it
    if dep_head is not None and dep_label is not None:
        for m in persons:
            if b <= m[0] < e or not (prev_end <= m[0] < next_beg):
                continue
            for k in range(m[0], m[1]):
                h = dep_head[k]
                if h is not None and h >= 0 and \
                        dep_label[k].startswith("nsubj") and \
                        lemmas[h] in _SPEECH_VERBS and \
                        not inside_any_quote(h):
                    return name_result(m, "dep")

    # ---- onename (OneNameSentenceSieve): exactly one name outside
    # quotes in the sentence holding the opening quote mark
    if 0 <= ob < n:
        sid = sents[ob]
        cand = [m for m in persons
                if sents[m[0]] == sid and not inside_any_quote(m[0])]
        if len(cand) == 1:
            return name_result(cand[0], "onename")

    # ---- voc (VocativeSieve): a name addressed inside the PREVIOUS
    # quote (name followed by comma / exclamation, or preceded by a
    # comma at quote end) speaks the current quote
    if qi > 0:
        pb, pe = spans[qi - 1]
        # vocatives close the address ("Hello, Mary!") — take the LAST
        # comma/exclamation-marked name in the previous quote
        for m in reversed(persons):
            if pb <= m[0] and m[1] <= pe:
                after_c = m[1] < pe and words[m[1]] in {",", "!"}
                before_c = m[0] > pb and words[m[0] - 1] == "," \
                    and m[1] >= pe - 1
                if after_c or before_c:
                    return name_result(m, "voc")

    # ---- conv (ConversationalSieve): two-party alternation — in a
    # dialogue run, quote i inherits the speaker of quote i-2
    if qi >= 2 and len(speakers) >= qi and speakers[qi - 2] and \
            speakers[qi - 1] and speakers[qi - 2] != speakers[qi - 1]:
        return speakers[qi - 2], speakers[qi - 2], "conv"

    # ---- loose: nearest speech-verb-adjacent name
    got = attribute_quote((b, e), words, lemmas, mentions)
    if got:
        return got, got, "loose"
    return "", "", ""


@stage_kernel("quote")
def quote_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """+ quo_begin/quo_end/quo_text/quo_speaker/quo_sieve parallel lists
    per doc (requires tok_*, tok_lemma, men_*).

    Attribution runs the deterministic multi-sieve chain
    (``attribute_quote_sieves`` — tri/dep/onename/voc/conv/loose per the
    reference's DEFAULT_QMSIEVES) when the pos/coref/depparse columns are
    upstream (the KG chain always carries them), else falls back to the
    single loose sieve."""
    qb_c, qe_c, qt_c, qs_c, qv_c = [], [], [], [], []
    full = all(has(batch, n, cols)
               for n in ("tok_pos", "tok_sent", "men_canonical"))

    def opt(name):
        return col(batch, name, cols) if has(batch, name, cols) \
            else [None] * batch.num_rows

    words_col = col(batch, "tok_word", cols)
    lem_col = opt("tok_lemma")
    mb_col, me_col, mn_col = (col(batch, n, cols)
                              for n in ("men_begin", "men_end", "men_ner"))
    pos_col, sent_col = opt("tok_pos"), opt("tok_sent")
    if not has(batch, "tok_lemma", cols) and has(batch, "tok_pos", cols):
        # a chain without the lemma stage (coref alone satisfies the
        # quote requires) fed lemmas=None into the sieves — most paths
        # never dereferenced it, but the PVQ/QVP pronoun checks and the
        # loose sieve crash on batches that reach them (r5: surfaced by
        # the weighted coref's different canonical routing)
        from corenlp_ray.stages.lemma import lemma_of

        lem_col = [[lemma_of(w, t) for w, t in zip(ws, ts)]
                   if ws is not None else None
                   for ws, ts in zip(words_col, pos_col)]
    mc_col = opt("men_canonical")
    pi_col, pc_col = opt("pron_idx"), opt("pron_canonical")
    dh_col, dl_col = opt("dep_head"), opt("dep_label")
    for r in range(batch.num_rows):
        words, lemmas = words_col[r], lem_col[r]
        mens = list(zip(mb_col[r], me_col[r], mn_col[r]))
        spans = find_quotes(words)
        qb, qe, qt, qs, qv = [], [], [], [], []
        surface_speakers: List[str] = []
        for qi, span in enumerate(spans):
            qb.append(span[0])
            qe.append(span[1])
            qt.append(" ".join(words[span[0]:span[1]]))
            if full:
                pron_canon = dict(zip(pi_col[r] or [], pc_col[r] or [])) \
                    if pi_col[r] is not None else {}
                spk, canon, sieve = attribute_quote_sieves(
                    qi, spans, words, pos_col[r], lemmas, sent_col[r],
                    mens, men_canonical=mc_col[r], pron_canon=pron_canon,
                    dep_head=dh_col[r], dep_label=dl_col[r],
                    speakers=surface_speakers)
                surface_speakers.append(canon)
                qs.append(canon)
                qv.append(sieve)
            else:
                got = attribute_quote(span, words, lemmas, mens) or ""
                surface_speakers.append(got)
                qs.append(got)
                qv.append("loose" if got else "")
        qb_c.append(qb); qe_c.append(qe); qt_c.append(qt)
        qs_c.append(qs); qv_c.append(qv)
    cols.update(quo_begin=qb_c, quo_end=qe_c, quo_text=qt_c,
                quo_speaker=qs_c, quo_sieve=qv_c)
    return batch
