"""OpenIE relation-triple extraction (the naturalli/OpenIE analogue).

Reference shape: clause splitting + forward entailment + ~10 verbal and
noun-based semgrex patterns mapping dependency fragments to
(subject, relation, object) with optional pronoun canonicalization from
coref (/root/reference/src/edu/stanford/nlp/naturalli/OpenIE.java:65,
RelationTripleSegmenter.java:39-120, coref canonicalization
OpenIE.java:393-432). Per-sentence and embarrassingly parallel →
stateless map_batches; the pattern library is code (SURVEY §2.2 row 16).

Patterns implemented over this engine's UD-style trees:
  V1 subj–verb–obj            (cats, have, tails)
  V2 subj–verb–obl(case)      (Smith, born in, Springfield)  [aux included]
  V3 subj–verb–xcomp chain    (she, wants to buy, a car)
  C1 copular predicate        (Johnson, is, chief executive officer)
  C2 copular pred + of-nmod   (Johnson, is chief executive officer of, Initech)
  N1 possessive               (IBM, has, research group)     [noun pattern]
  N2 appositive               (Smith, is, the founder)

Subject/object spans expand over det/amod/compound/nummod children;
leading determiners are dropped (matching the reference's golden triples:
"some cats have tails" → (cats, have, tails),
OpenIEITest.java:45-124). Single-pronoun subjects/objects are replaced by
their coref-chain representative when resolved (``canonicalizeCoref``).

This stage EXPLODES docs → one row per triple:
  triples(url, sent_idx, subj, pred, obj, subj_canonical, obj_canonical,
          subj_ner, obj_ner, confidence, source)
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col, memo

_VERB = {"VB", "VBP", "VBZ", "VBD", "VBN", "VBG"}
_MOD_LABELS = {"amod", "compound", "nummod", "flat", "nmod:poss", "case"}


TRIPLES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_idx", pa.int32()),
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("subj_canonical", pa.string()),
    ("obj_canonical", pa.string()),
    ("subj_ner", pa.string()),
    ("obj_ner", pa.string()),
    ("confidence", pa.float64()),
    ("source", pa.string()),
])
# the annotation columns the triple extractors (openie and kbp) read
# besides the input ``url``
TRIPLE_COLUMNS = ("tok_word", "tok_pos", "tok_lemma", "sent_begin",
                  "sent_end", "dep_head", "dep_label", "men_begin",
                  "men_end", "men_ner", "men_norm", "men_canonical",
                  "pron_idx", "pron_canonical")


def _children(heads: List[int], labels: List[str]) -> Dict[int, List[Tuple[int, str]]]:
    ch: Dict[int, List[Tuple[int, str]]] = {}
    for i, (h, l) in enumerate(zip(heads, labels)):
        if h >= 0:
            ch.setdefault(h, []).append((i, l))
    return ch


def _span_tokens(head: int, ch, words: List[str], drop_det: bool = True,
                 include_of: bool = False) -> List[int]:
    """Collect head + NP-internal modifiers, return sorted token indices."""
    keep = [head]
    stack = [head]
    while stack:
        h = stack.pop()
        for c, l in ch.get(h, ()):
            if l in _MOD_LABELS and l != "case":
                keep.append(c)
                stack.append(c)
            elif l == "case" and h != head:
                keep.append(c)
            elif include_of and l == "nmod":
                keep.append(c)
                stack.append(c)
                for cc, ll in ch.get(c, ()):
                    if ll == "case":
                        keep.append(cc)
    keep.sort()
    # contiguous window only (avoid swallowing far-away modifiers)
    lo = min(keep)
    hi = max(keep)
    toks = [k for k in range(lo, hi + 1) if k in set(keep)]
    return toks


def _phrase(toks: List[int], words: List[str], tags: List[str],
            drop_det: bool = True) -> str:
    # determiners are dropped, possessive pronouns KEPT — the reference's
    # triples read "my cats play with yarn", "established its first
    # production plant" (RelationTripleSegmenterTest:254,466)
    if drop_det:
        while toks and tags[toks[0]] == "DT":
            toks = toks[1:]
    return " ".join(words[t] for t in toks)


_KEEP_SUBTYPES = {"nmod:poss", "acl:relcl", "nsubj:pass", "aux:pass"}


def _norm_label(l: str) -> str:
    if l in _KEEP_SUBTYPES:
        return l
    if l == "dobj":
        return "obj"
    if l in ("compound:prt", "compound:ptr"):
        return "prt"
    if ":" in l:
        return l.split(":", 1)[0]
    return l


_NEG = {"not", "never", "n't"}
_DOUBT_NOUNS = {"doubt", "doubts", "denial", "myth"}


def clause_negated(words, heads, labels, ch, v: int) -> bool:
    """Natlog polarity gate (reduced): a triple under an explicit
    negation is rejected (the reference's strict-triple behavior —
    naturalli monotonicity marking, OpenIEITest testSara /
    testChessIsNotAPhysicalSport)."""
    frontier = [v] + [c for c, l in ch.get(v, ())
                      if l in ("cop", "aux", "aux:pass")]
    for t in frontier:
        for c, l in ch.get(t, ()):
            if l == "advmod" and words[c].lower() in _NEG:
                return True
    return False


def clause_blocked(words, tags, heads, labels, ch, v: int) -> bool:
    """ccomp under a negative-implicative noun ("There is doubt that
    ...") blocks extraction unless doubled by "no" (downward ×
    downward = upward monotone); infinitival acl is never a triple
    site (SegmenterTest testAcl:880)."""
    if labels[v] == "acl":
        return any(l == "mark" and words[c].lower() == "to"
                   for c, l in ch.get(v, ())) or tags[v] not in (
                       "VBG", "VBN")
    if labels[v] != "ccomp":
        return False
    g = heads[v]
    # existential governor: "There is (no) doubt that ..." parses with
    # the be-verb as head — the implicative noun is its nsubj pivot
    if g >= 0 and any(l == "expl" for _, l in ch.get(g, ())):
        g = next((c for c, l in ch.get(g, ()) if l == "nsubj"), g)
    if g < 0 or words[g].lower() not in _DOUBT_NOUNS:
        return False
    has_no = any(l == "det" and words[c].lower() == "no"
                 for c, l in ch.get(g, ()))
    return not has_no


def clause_admissible(words, tags, heads, labels, v: int) -> bool:
    """Pure decision: may token v head an extraction clause? (The
    rule-based stand-in for the reference's trained clause-splitter
    classifier, naturalli/ClauseSplitterSearchProblem.java:46 — also the
    distillation teacher for models/clause_classifier.py.)"""
    ch = _children(heads, [_norm_label(l) for l in labels])
    return not (clause_negated(words, heads, labels, ch, v)
                or clause_blocked(words, tags, heads, labels, ch, v))


def extract_sentence_triples(
    words: List[str], tags: List[str], lemmas: List[str],
    heads: List[int], labels: List[str],
    mentions: List[Tuple[int, int, str]],
    pron_canon: Optional[Dict[int, str]] = None,
) -> List[Tuple[str, str, str, str, str, str, str, float]]:
    """Pure kernel: one sentence (sentence-local indices) →
    [(subj, pred, obj, subj_canon, obj_canon, subj_ner, obj_ner, conf)].
    ``pron_canon``: {token: canonical}, or its items.

    Accepts both this engine's plain UD labels and the reference's
    subtyped ones (obl:with, nmod:of, conj:and, dobj, compound:prt) —
    normalized on entry so the graph-level parity suite
    (tests/test_segmenter_parity.py) can feed the reference's own test
    graphs verbatim."""
    pron_canon = dict(pron_canon or ())
    labels = [_norm_label(l) for l in labels]
    ch = _children(heads, labels)
    n = len(words)

    # token → covering-mention lookups precomputed once (first mention
    # in list order wins, as the per-call scans did); these helpers are
    # hit ~15×/sentence across the verb/noun patterns and the per-call
    # linear scans were the kernel's hottest lines after kbp got the
    # same treatment (stages/kbp.py _men_idx)
    _tok_ner = ["O"] * n
    _tok_ent: List[Optional[str]] = [None] * n
    _tok_in_ent = [False] * n
    for b, e, t in mentions:
        is_ent = t in ("PERSON", "ORGANIZATION", "LOCATION")
        span = " ".join(words[b:e]) if is_ent else None
        blocks = t in ("PERSON", "ORGANIZATION", "LOCATION", "MISC")
        for k in range(max(b, 0), min(e, n)):
            if _tok_ner[k] == "O":
                _tok_ner[k] = t
            if is_ent and _tok_ent[k] is None:
                _tok_ent[k] = span
            if blocks:
                _tok_in_ent[k] = True

    def ner_of(tok: int) -> str:
        return _tok_ner[tok] if 0 <= tok < n else "O"

    def canon_of(tok: int, surface: str) -> str:
        if tok in pron_canon:
            return pron_canon[tok]
        ent = _tok_ent[tok] if 0 <= tok < n else None
        return ent if ent is not None else surface

    out = []

    _TITLE_LEX = {"president", "ceo", "chairman", "director", "minister",
                  "secretary", "senator", "governor", "ally", "actor",
                  "actress", "founder", "co-founder", "chief", "captain",
                  "coach", "professor", "king", "queen", "mayor"}

    # nodes carrying an explicit advmod negation, marked in ONE pass over
    # the edge map (clause_negated re-scanned the frontier per verb; every
    # verb site queries this, so the per-call work is now set membership)
    _neg_marked = {t for t, lst in ch.items()
                   for c, l in lst
                   if l == "advmod" and words[c].lower() in _NEG}

    def _negated(v: int) -> bool:
        if not _neg_marked:
            return False
        if v in _neg_marked:
            return True
        return any(c in _neg_marked for c, l in ch.get(v, ())
                   if l in ("cop", "aux", "aux:pass"))

    def _clause_blocked(v: int) -> bool:
        return clause_blocked(words, tags, heads, labels, ch, v)

    def _in_mention(tok: int) -> bool:
        """Inside an entity-type mention (deletion would change the
        entity); value-type mentions (ORDINAL/NUMBER/DATE) stay
        strippable — they are ordinary entailment deletions."""
        return _tok_in_ent[tok] if 0 <= tok < n else False

    def _premods(h: int) -> List[int]:
        """Direct premodifier tokens of an NP head (sorted, excl. det)."""
        toks = [c for c, l in ch.get(h, ())
                if c < h and l in ("amod", "compound", "nummod", "cc",
                                   "flat")]
        return sorted(toks)

    def _np_variants(h: int) -> List[List[int]]:
        """ForwardEntailer-style shortened spans for an NP: start from
        the full premod span and repeatedly (a) reduce a premod
        coordination to its first conjunct, (b) delete a leading amod /
        ordinal that is not inside an entity mention. Mirrors the
        reference's entailment-shortened extraction sets
        (naturalli/ForwardEntailer; OpenIEITest golden families)."""
        extra = [c for c, l in ch.get(h, ()) if l == "cc" and c < h]
        for c, l in ch.get(h, ()):
            if l == "amod" and c < h:
                # conjoined premodifiers: "44th and current" may hang the
                # second conjunct (and its cc) under the first amod
                for g, gl in ch.get(c, ()):
                    if gl in ("conj", "cc") and g < h:
                        extra.append(g)
                        extra.extend(cc for cc, ll in ch.get(g, ())
                                     if ll == "cc" and cc < h)
        base = sorted(set(
            [t for t in _span_tokens(h, ch, words) if tags[t] != "DT"]
            + extra))
        variants = [base]
        work = list(base)
        while True:
            mods = [t for t in work if t != h]
            if not mods:
                break
            cc_toks = [t for t in mods if labels[t] == "cc"]
            if cc_toks:
                # conj-reduction: keep the first conjunct only
                # ("44th and current President" → "44th President")
                cut = min(cc_toks)
                work = [t for t in work if t < cut or t == h
                        or labels[t] not in ("cc", "amod", "conj")]
                variants.append(list(work))
                continue
            first = mods[0]
            # amod deletion only — nummods are date/quantity parts whose
            # removal changes the denotation ("21 February 2013")
            if labels[first] == "amod" and not _in_mention(first):
                work = [t for t in work if t != first]
                variants.append(list(work))
                continue
            break
        # dedup while preserving order
        seen, uniq = set(), []
        for v_ in variants:
            k = tuple(v_)
            if k not in seen:
                seen.add(k)
                uniq.append(v_)
        return uniq

    def _nmod_ext(h: int):
        """(extended_token_list, is_range) for an NP head with a cased
        nmod child ("loan from Peterborough United", "1992 to 2004"),
        else (None, False)."""
        for c, l in sorted(ch.get(h, ())):
            if l == "nmod" and c > h:
                case = next((cc for cc, ll in ch.get(c, ())
                             if ll == "case"), None)
                if case is None:
                    continue
                ext = ([t for t in _span_tokens(h, ch, words)
                        if tags[t] not in ("DT", "PRP$")]
                       + [case]
                       + [t for t in _span_tokens(c, ch, words)
                          if tags[t] != "DT"])
                return sorted(set(ext)), words[case].lower() in ("to",
                                                                 "until")
        return None, False

    def _words_of(toks: List[int]) -> str:
        return " ".join(words[t] for t in toks)

    def _conj_partners(tok: int) -> List[int]:
        """tok + its NP conjuncts (enhanced++ conj propagation — the
        subset of UniversalEnglishGrammaticalStructure the triple
        patterns consume)."""
        partners = [tok]
        for c, l in ch.get(tok, ()):
            if l == "conj":
                partners.append(c)
        h = heads[tok] if 0 <= tok < n else -1
        if h >= 0 and labels[tok] == "conj":
            partners.append(h)
            for c, l in ch.get(h, ()):
                if l == "conj" and c != tok:
                    partners.append(c)
        return partners

    def emit(s_tok, pred, o_tok, conf, s_surface=None, o_surface=None,
             o_expand=False):
        """o_expand: distribute over the object's NP conjuncts even when
        an explicit variant surface is supplied (the surface applies to
        o_tok itself; partners use their own spans)."""
        s_list = [s_tok] if s_surface is not None else _conj_partners(s_tok)
        o_list = _conj_partners(o_tok) \
            if (o_surface is None or o_expand) else [o_tok]
        for st in s_list:
            for ot in o_list:
                subj = s_surface if s_surface is not None else \
                    _phrase(_span_tokens(st, ch, words), words, tags)
                if o_surface is not None and ot == o_tok:
                    obj = o_surface
                else:
                    obj = _phrase(_span_tokens(ot, ch, words), words, tags)
                if not subj or not obj or not pred:
                    continue
                c = conf if (st == s_tok and ot == o_tok) else conf * 0.95
                out.append((subj, pred, obj,
                            canon_of(st, subj), canon_of(ot, obj),
                            ner_of(st), ner_of(ot), c))

    for v in range(n):
        kids = ch.get(v, ())
        subj = next((c for c, l in kids if l in ("nsubj", "nsubj:pass")), None)
        cop = next((c for c, l in kids if l == "cop"), None)
        if _negated(v) or _clause_blocked(v):
            continue
        # existential with the be-verb as root: "there are dogs in
        # heaven" → (dogs, is in, heaven) — the nmod rides on the
        # pivot nsubj (SegmenterTest testThereAreIn/With:551)
        if (lemmas[v] == "be" or words[v].lower() in
                ("is", "are", "was", "were")) and \
                any(l == "expl" or tags[c] == "EX" for c, l in kids):
            pivot = next((c for c, l in kids if l == "nsubj"), None)
            if pivot is not None:
                # the PP may ride on the pivot (nmod) or on the be-verb
                # itself (obl) depending on attachment — both mean
                # (pivot, is <prep>, complement)
                sites = list(ch.get(pivot, ())) + [
                    (c, l) for c, l in kids if l == "obl"]
                for m, ml in sites:
                    if ml in ("nmod", "obl"):
                        case = next((cc for cc, ll in ch.get(m, ())
                                     if ll == "case"), None)
                        if case is not None:
                            emit(pivot, "is " + words[case].lower(),
                                 m, 0.9)
            continue
        # relative-pronoun subject → the antecedent noun through acl:relcl
        # ("the man who founded X" → subject span = "man")
        if subj is not None and words[subj].lower() in ("who", "which", "that") \
                and heads[v] >= 0 and labels[v] == "acl:relcl":
            subj = heads[v]
        # conjoined verb shares the first conjunct's subject
        # ("worked as X and taught Y" → he taught Y)
        if subj is None and heads[v] >= 0 and labels[v] == "conj":
            subj = next((c for c, l in ch.get(heads[v], ())
                         if l in ("nsubj", "nsubj:pass")), None)
        # participial acl: the governing noun is the logical subject
        # ("dogs sitting in heaven" → dogs; SegmenterTest testThereAreVBing,
        # testAcl) — infinitival acl is blocked in _clause_blocked
        if subj is None and labels[v] == "acl" and heads[v] >= 0 \
                and tags[v] in ("VBG", "VBN"):
            subj = heads[v]
        if subj is None:
            # E1: existential — "There are cats with tails" →
            # (cats, is with, tails); subject slot filled by the pivot NP
            if cop is not None and any(tags[k] == "EX" for k in range(n)):
                for c, l in kids:
                    if l in ("obl", "nmod"):
                        case = next((cc for cc, ll in ch.get(c, ())
                                     if ll == "case"), None)
                        if case is not None:
                            emit(v, "is " + words[case].lower(), c, 0.9)
            continue
        # WH-pronoun subjects never ground a triple ("what is love" →
        # nothing; SegmenterTest testWh:287) — relcl subjects were
        # already rewritten to their antecedent above
        if tags[subj] in ("WP", "WDT"):
            continue
        auxes = sorted(c for c, l in kids if l in ("aux", "aux:pass"))
        if cop is not None:
            cop_word = words[cop] if lemmas[cop] == "be" else lemmas[cop]
            # temporal predicates are not triples ("State of the Union is
            # tomorrow" — SegmenterTest testStateOfTheUnion:969)
            if words[v].lower() in ("tomorrow", "yesterday", "today",
                                    "tonight"):
                continue
            # C0: cop + case directly on the predicate — "I am in
            # Florida" → (I, am in, Florida), never (I, am, Florida)
            # (SegmenterTest testIAmInFlorida:276)
            case0 = next((c for c, l in kids if l == "case"), None)
            if case0 is not None:
                for i, toks in enumerate(_np_variants(v)):
                    emit(subj, cop_word + " " + words[case0].lower(), v,
                         0.95 - 0.05 * i,
                         o_surface=_words_of([t for t in toks
                                              if t != case0]),
                         o_expand=True)
                continue
            # C1v: verbal copular predicate ("horses are grazing
            # peacefully" — SegmenterTest testAdvObject:605)
            if tags[v] in _VERB:
                tail = [c for c, l in sorted(kids)
                        if l == "advmod" and c > v]
                emit(subj, cop_word, v, 0.9,
                     o_surface=" ".join([words[v]]
                                        + [words[t] for t in tail]))
                continue
            # C1: copular predicate + ForwardEntailer-shortened variants
            # (conj-reduced / amod-deleted object spans; an object with a
            # premod coordination keeps only its reduced forms, matching
            # the reference's exact golden set for ObamaWikiOne)
            variants = _np_variants(v)
            has_cc = any(labels[t] == "cc" for t in variants[0])
            o_var = variants[1:] if has_cc and len(variants) > 1 else variants
            for i, toks in enumerate(o_var):
                emit(subj, cop_word, v, 1.0 - 0.05 * i,
                     o_surface=_words_of(toks), o_expand=True)
            # adjective-alone entailment ("Chess is a physical sport" →
            # Chess is physical) — non-ordinal direct amods only
            for c, l in kids:
                if l == "amod" and tags[c] == "JJ" and not _in_mention(c) \
                        and not words[c][0].isdigit() \
                        and not any(labels[t] == "cc" for t in variants[0]):
                    emit(subj, cop_word, c, 0.85, o_surface=words[c])
            # extended object with a non-"of" cased nmod: "he was
            # community organizer in Chicago" (SegmenterTest:334)
            ext0, rng0 = _nmod_ext(v)
            if ext0 is not None and not rng0:
                case_w = next((words[cc].lower() for c, l in kids
                               if l == "nmod"
                               for cc, ll in ch.get(c, ()) if ll == "case"),
                              "")
                if case_w != "of":
                    emit(subj, cop_word, v, 0.9, o_surface=_words_of(ext0))
            # C2: pred + of-nmod → relation through the predicate nominal,
            # one relation per shortened pred-span variant
            for c, l in kids:
                if l == "nmod":
                    case = next((cc for cc, ll in ch.get(c, ()) if ll == "case"), None)
                    if case is not None and words[case].lower() == "of":
                        for i, toks in enumerate(variants):
                            rel = (cop_word + " "
                                   + _words_of([t for t in toks if t != c])
                                   + " of")
                            emit(subj, rel, c, 0.95 - 0.05 * i)
            continue
        if tags[v] in _VERB:
            verb_words = [words[a] for a in auxes if words[a].lower() != "do"]
            apass = next((a for a in auxes
                          if any(l == "aux:pass" for c, l in kids
                                 if c == a)), None)
            prts = [c for c, l in sorted(kids) if l == "prt"]
            objs = [c for c, l in kids if l == "obj"]
            # V1: direct object (+ amod-deletion variants; of-nmod
            # extension when the object carries one). Exactly ONE object
            # — a verb with two bare objects is a malformed frame the
            # reference rejects (SegmenterTest testObjInRelation:513)
            if len(objs) == 1:
                c = objs[0]
                rel = " ".join(verb_words + [words[v]]
                               + [words[p] for p in prts])
                ext, is_range = _nmod_ext(c)
                if ext is not None and not is_range:
                    emit(subj, rel, c, 1.0, o_surface=_words_of(ext))
                for i, toks in enumerate(_np_variants(c)):
                    emit(subj, rel, c, 1.0 - 0.05 * i,
                         o_surface=_words_of(toks), o_expand=True)
            # V2: obliques with case — embedded objects appear in the
            # predicate in their maximally-shortened form ("taught law
            # at"); oblique objects emit bare + nmod-extended + shortened
            # variants; from-to ranges only the full range phrase.
            # Post-verbal advmods join the predicate ("play quietly
            # with", "be standing next to" — SegmenterTest:199,525);
            # an nmod riding directly on a verb is an oblique.
            for c, l in kids:
                # fronted obliques ("On 21 February 2013 ... joined")
                # keep their obl label; a verb-attached nmod is only an
                # oblique when post-verbal
                if l == "obl" or (l == "nmod" and c > v):
                    case = next((cc for cc, ll in ch.get(c, ()) if ll == "case"), None)
                    if case is not None:
                        vw = verb_words + [words[v]]
                        vw += [words[a] for a, al in sorted(kids)
                               if al == "advmod" and v < a < case]
                        if objs:
                            vw = vw + [_words_of(_np_variants(objs[0])[-1])]
                        rel = " ".join(vw + [words[case]])
                        ext, is_range = _nmod_ext(c)
                        if is_range and ext is not None:
                            emit(subj, rel, c, 0.9, o_surface=_words_of(ext))
                            continue
                        if ext is not None:
                            emit(subj, rel, c, 0.9, o_surface=_words_of(ext))
                        for i, toks in enumerate(_np_variants(c)):
                            emit(subj, rel, c, 0.9 - 0.05 * i,
                                 o_surface=_words_of(toks), o_expand=True)
                        # appos on the oblique substitutes the object
                        # ("published in Tucson, Arizona" → Arizona;
                        # SegmenterTest testApposInObject:417)
                        for a, al in ch.get(c, ()):
                            if al == "appos":
                                emit(subj, rel, a, 0.85,
                                     o_surface=_words_of(_np_variants(a)[0]))
            # passive-copular variants: "He was inaugurated as president
            # on January 20 2009" → (He, was, inaugurated) and
            # (He, was, inaugurated + all oblique phrases)
            if apass is not None and tags[v] == "VBN":
                emit(subj, words[apass], v, 0.85, o_surface=words[v])
                tail_parts: List[str] = [
                    words[a] for a, al in sorted(kids)
                    if al == "advmod" and a > v]
                for c, l in sorted(kids):
                    if l in ("obl", "nmod") and c > v:
                        case = next((cc for cc, ll in ch.get(c, ())
                                     if ll == "case"), None)
                        if case is not None:
                            tail_parts.append(
                                words[case] + " "
                                + _words_of(_np_variants(c)[0]))
                if tail_parts:
                    emit(subj, words[apass], v, 0.8,
                         o_surface=words[v] + " " + " ".join(tail_parts))
            # V3: xcomp — inner object ("want to buy a car"), bare
            # infinitive ("fish like to swim" → obj "to swim"), or a
            # nominal xcomp ("was named 2009 Nobel Peace Prize Laureate")
            for c, l in kids:
                if l == "xcomp":
                    mark = next((cc for cc, ll in ch.get(c, ()) if ll == "mark"), None)
                    inner = [cc for cc, ll in ch.get(c, ()) if ll == "obj"]
                    for cc in inner:
                        rel_toks = [words[v]] + (["to"] if mark is not None else []) + [words[c]]
                        emit(subj, " ".join(rel_toks), cc, 0.9)
                    if not inner:
                        rel = " ".join(verb_words + [words[v]])
                        if tags[c] not in _VERB:
                            emit(subj, rel, c, 0.9,
                                 o_surface=_words_of(_np_variants(c)[0]))
                        elif mark is not None:
                            emit(subj, rel, c, 0.85,
                                 o_surface="to " + words[c])
            # reflexive conjunct-as-object: an argumentless verb with a
            # coordinated subject relates the conjuncts ("Tom and Jerry
            # were fighting" → Tom, fighting, Jerry;
            # SegmenterTest testReflexive:440)
            if not objs and not prts \
                    and not any(l in ("obl", "xcomp", "ccomp") or
                                (l == "nmod" and c > v) for c, l in kids):
                partners = [p for p in _conj_partners(subj) if p != subj]
                for p in partners:
                    emit(subj, words[v], p, 0.7,
                         s_surface=_phrase(_span_tokens(subj, ch, words),
                                           words, tags),
                         o_surface=_phrase(_span_tokens(p, ch, words),
                                           words, tags))

    def _title_tok(t: int) -> bool:
        return ner_of(t) == "TITLE" or (labels[t] == "compound"
                                        and lemmas[t].lower() in _TITLE_LEX)

    # N1: possessive — X's Y → (X, has, Y); a TITLE compound stays out of
    # the possessed span ("IBM's CEO Rometty" → IBM has Rometty,
    # SegmenterTest testCompoundPossessive:843)
    for i in range(n):
        for c, l in ch.get(i, ()):
            if l == "nmod:poss" and tags[c] in ("NNP", "NNPS", "NN", "NNS"):
                emit(c, "has", i, 0.9,
                     s_surface=_phrase(_span_tokens(c, ch, words), words, tags),
                     o_surface=_phrase(
                         [t for t in _span_tokens(i, ch, words)
                          if t != c and labels[t] != "case"
                          and not _title_tok(t)],
                         words, tags))
                # possessor + TITLE compound: "IBM's CEO Rometty" →
                # (Rometty, is, CEO) + (Rometty, is CEO of, IBM)
                for t, tl in ch.get(i, ()):
                    if tl == "compound" and _title_tok(t):
                        rest = _phrase([k for k in _span_tokens(i, ch, words)
                                        if k != c and k != t
                                        and labels[k] != "case"],
                                       words, tags)
                        poss = _phrase(_span_tokens(c, ch, words), words,
                                       tags)
                        emit(i, "is", t, 0.85, s_surface=rest,
                             o_surface=words[t])
                        emit(i, "is " + words[t] + " of", c, 0.85,
                             s_surface=rest, o_surface=poss)
                # possessor's appositive names the holder: "United
                # States's president Obama" → (Obama, is president of,
                # United States) (SegmenterTest testUSPresidentObama:715)
                for a, al in ch.get(c, ()):
                    if al == "appos":
                        poss_sub = set(_span_tokens(c, ch, words))
                        h_span = _phrase([t for t in _span_tokens(i, ch, words)
                                          if t not in poss_sub
                                          and labels[t] != "case"],
                                         words, tags)
                        emit(a, "is " + h_span + " of", c, 0.85,
                             s_surface=_words_of(_np_variants(a)[0]),
                             o_surface=_phrase(
                                 [t for t in _span_tokens(c, ch, words)
                                  if labels[t] != "case" and t != a],
                                 words, tags))

    # N3: noun patterns over the reference's compound/nmod shapes
    for h in range(n):
        if tags[h] not in ("NNP", "NNPS"):
            continue
        h_ner = ner_of(h)
        # PERSON head + cased nmod: "Chris Manning of Stanford" →
        # (Chris Manning, is of, Stanford); "Obama in Tucson" →
        # (Obama, is in, Tucson) (SegmenterTest:771,806)
        if h_ner == "PERSON":
            for m, ml in ch.get(h, ()):
                if ml == "nmod" and ner_of(m) in ("ORGANIZATION",
                                                  "LOCATION"):
                    case = next((cc for cc, ll in ch.get(m, ())
                                 if ll == "case"), None)
                    if case is not None:
                        for i, toks in enumerate(_np_variants(m)):
                            emit(h, "is " + words[case].lower(), m,
                                 0.85 - 0.05 * i,
                                 o_surface=_words_of(toks))
        # appos + of-nmod: "Durin, son of Thorin" → (Durin, son of,
        # Thorin) (SegmenterTest testApposAsSubj:429)
        for a, al in ch.get(h, ()):
            if al == "appos" and tags[a] in ("NN", "NNS"):
                for m, ml in ch.get(a, ()):
                    if ml == "nmod":
                        case = next((cc for cc, ll in ch.get(m, ())
                                     if ll == "case"), None)
                        if case is not None and words[case].lower() == "of":
                            emit(h, words[a] + " of", m, 0.85,
                                 o_surface=_words_of(_np_variants(m)[0]))
        # compound-title run: "[United States] [president] [Barack] Obama"
        # → (Barack Obama, is president of, United States); "President
        # Obama" → (Obama, is, President) (SegmenterTest:680-771)
        if h_ner in ("PERSON", "ORGANIZATION", "LOCATION"):
            comps = sorted(c for c, l in ch.get(h, ())
                           if l == "compound" and c < h)
            if comps and all(heads[c] == h for c in comps):
                pivot = next(
                    (c for c in comps
                     if ner_of(c) == "TITLE"
                     or (ner_of(c) == "O"
                         and lemmas[c].lower() in _TITLE_LEX)),
                    None)
                if pivot is not None:
                    prefix = [c for c in comps if c < pivot
                              and ner_of(c) not in ("O",)]
                    suffix = [c for c in comps if c > pivot] + [h]
                    if prefix and all(ner_of(c) == ner_of(prefix[0])
                                      for c in prefix):
                        emit(h, "is " + words[pivot].lower() + " of",
                             prefix[0], 0.85,
                             s_surface=" ".join(words[t] for t in suffix),
                             o_surface=" ".join(words[t] for t in prefix))
                    elif not prefix:
                        emit(h, "is", pivot, 0.85,
                             s_surface=" ".join(words[t] for t in suffix),
                             o_surface=words[pivot])

    # N2: appositive — adjacent mentions "X , the Y"; NOT when the two
    # mentions are one NP linked by compound ("Honolulu, Hawaii" —
    # SegmenterTest testCommaDoesntOvergenerate:826)
    for mi in range(len(mentions) - 1):
        b1, e1, t1 = mentions[mi]
        b2, e2, t2 = mentions[mi + 1]
        if any(b2 <= heads[t] < e2 and labels[t] == "compound"
               for t in range(b1, e1)):
            continue
        if t1 in ("PERSON", "ORGANIZATION", "LOCATION") and e1 < n \
                and words[e1] == "," and b2 == e1 + 1:
            emit(b2 - 1, "is", b2, 0.85,
                 s_surface=" ".join(words[b1:e1]),
                 o_surface=" ".join(words[b2:e2]))

    # dedup within sentence (HashSet semantics, OpenIE.java:494-495)
    seen = set()
    uniq = []
    for t in out:
        key = (t[0].lower(), t[1].lower(), t[2].lower())
        if key not in seen:
            seen.add(key)
            uniq.append(t)
    return uniq


def sentence_buckets(sent_begin: List[int], sent_end: List[int],
                     spans: Iterable[tuple]) -> List[List[tuple]]:
    """``spans`` (tuples that start with token ``begin, end``) grouped
    per sentence: a span goes to every sentence ``(b, e)`` with
    ``b <= begin`` and ``end <= e``, and each group keeps the order of
    ``spans``. Sentences come in document order (begins and ends
    nondecreasing), so a bisection on the begins finds the last
    sentence that can hold a span, and the walk back over earlier
    sentences stops at the first one that ends too soon."""
    out: List[List[tuple]] = [[] for _ in sent_begin]
    for span in spans:
        si = bisect_right(sent_begin, span[0]) - 1
        while si >= 0 and span[1] <= sent_end[si]:
            out[si].append(span)
            si -= 1
    return out


def local_heads(heads: List[int], b: int, e: int) -> List[int]:
    """Document-level ``heads`` of sentence ``[b, e)`` made relative to
    ``b`` (-1 = root stays -1)."""
    return [(h - b) if h >= 0 else -1 for h in heads[b:e]]


def token_ner(n: int, mentions: Iterable[tuple]) -> List[str]:
    """Per-token NER types of an ``n``-token sentence from its
    ``mentions`` (tuples that start with ``begin, end, type``); a later
    mention overwrites an earlier one, tokens outside any are "O"."""
    ners = ["O"] * n
    for m in mentions:
        for k in range(m[0], min(m[1], n)):
            ners[k] = m[2]
    return ners


def sentence_views(row: dict, men_fields: Tuple[str, ...]):
    """One document ``row`` (column name → pylist) as sentence-local
    views, the stand-in for the reference's per-sentence ``CoreMap``:
    ``(si, b, e, heads, mentions, pron)`` per sentence ``[b, e)``, with
    heads relative to ``b`` (-1 = root), the mentions inside it as
    tuples of the ``men_fields`` columns (begin and end first, relative
    to ``b``, list order kept) and ``pron`` = {local token: canonical}.
    Mentions and pronouns (optional columns) are bucketed once."""
    sb, se, heads = row["sent_begin"], row["sent_end"], row["dep_head"]
    men_s = sentence_buckets(sb, se, zip(*(row[f] for f in men_fields)))
    pron = dict(zip(row.get("pron_idx", ()), row.get("pron_canonical", ())))
    pron_s = sentence_buckets(sb, se, [(k, k + 1, v)
                                       for k, v in pron.items()])
    for si, (b, e) in enumerate(zip(sb, se)):
        yield (si, b, e, local_heads(heads, b, e),
               [(m[0] - b, m[1] - b) + m[2:] for m in men_s[si]],
               {k - b: v for k, _, v in pron_s[si]})


@stage_kernel()
def openie_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """Extractor: docs → triples rows (source='openie').

    Requires the ``TRIPLE_COLUMNS``. Explodes rows; output schema is
    TRIPLES_SCHEMA. Stateless, per-sentence parallel. ``cols``: the
    chain's column store, shared with kbp in the fused chain."""
    extract = memo(cols, "openie", extract_sentence_triples)
    cols = {name: col(batch, name, cols)
            for name in ("url",) + TRIPLE_COLUMNS}
    rows: List[dict] = []
    for r in range(batch.num_rows):
        row = {name: v[r] for name, v in cols.items()}
        words, tags = tuple(row["tok_word"]), tuple(row["tok_pos"])
        lemmas, labels = tuple(row["tok_lemma"]), tuple(row["dep_label"])
        for si, b, e, l_heads, l_mens, l_pron in sentence_views(
                row, ("men_begin", "men_end", "men_ner")):
            for (s, p, o, sc, oc, sn, on, conf) in extract(
                    words[b:e], tags[b:e], lemmas[b:e], tuple(l_heads),
                    labels[b:e], tuple(l_mens), tuple(l_pron.items())):
                rows.append({"url": row["url"], "sent_idx": si, "subj": s,
                             "pred": p, "obj": o, "subj_canonical": sc,
                             "obj_canonical": oc, "subj_ner": sn,
                             "obj_ner": on, "confidence": conf,
                             "source": "openie"})
    return pa.Table.from_pylist(rows, schema=TRIPLES_SCHEMA)
