"""NER stage: entity typing + numeric/date normalization + mention chunking.

Reference shape: NERCombinerAnnotator runs CRF models in fallback
combination, then rule-based numeric classifiers, SUTime, gazetteer
(TokensRegexNER) overlays, and EntityMentionsAnnotator BIO→span chunking
(/root/reference/src/edu/stanford/nlp/pipeline/NERCombinerAnnotator.java:34,
ie/NERClassifierCombiner.java:28, pipeline/EntityMentionsAnnotator.java:35,
pipeline/LabeledChunkIdentifier.java:31). Numeric/date normalization mirrors
QuantifiableEntityNormalizer/SUTime semantics at reduced scope
(ie/QuantifiableEntityNormalizer.java, time/SUTime.java), resolving
relative-free dates against the page's ``warc_ts`` docdate (the DocDate
analogue, pipeline/DocDateAnnotator.java:22).

This engine types entities with deterministic gazetteer + shape + context
rules over the POS column (the model-swap point is the actor class, same as
POS). Types: PERSON ORGANIZATION LOCATION MISC DATE NUMBER MONEY PERCENT
ORDINAL DURATION, O.

Adds columns:
  tok_ner   list<string>   per-token type ("O" default)
  men_begin list<int32>    mention start (doc-level token idx)
  men_end   list<int32>    mention end (exclusive)
  men_sent  list<int32>    sentence index of mention
  men_ner   list<string>   mention type
  men_norm  list<string>   normalized value (dates ISO, numbers numeric)
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional, Tuple

import pyarrow as pa

from corenlp_ray.functions.lexicon import (
    FEMALE_NAMES, GAZETTEER, LOCATIONS, MALE_NAMES, MONTHS, NUMBER_WORDS,
    ORDINAL_WORDS, ORG_SUFFIXES, PERSON_TITLES,
)
from corenlp_ray.functions.sutime import RELATIVE_RE, resolve_relative

_NUM_RE = re.compile(r"^[+-]?\d+(?:,\d{3})*(?:\.\d+)?$|^\.\d+$")
_YEAR_RE = re.compile(r"^(1[6-9]\d\d|20\d\d)$")
_ORDNUM_RE = re.compile(r"^(\d+)(?:st|nd|rd|th)$")
_PERSON_SUFFIX_RE = re.compile(r"^(?:II|III|IV|Jr\.?|Sr\.?)$")
_RUN_TITLES = {"president", "queen", "king", "prince", "princess", "pope",
               "chancellor", "prime", "sir", "lady", "lord", "governor",
               "senator", "secretary", "general", "captain", "judge"}
# kinship heads: an NNP run right after one names a person ("son Rory",
# "sister Maya") — feeds the KBP family-relation dep rules
_KINSHIP_HEADS = {"son", "daughter", "brother", "sister", "wife",
                  "husband", "mother", "father", "uncle", "aunt",
                  "cousin", "nephew", "niece", "grandfather",
                  "grandmother", "grandson", "granddaughter"}
# geographic feature heads: an NNP run ending in one is a LOCATION even
# when the full span is not in the gazetteer ("Prince Edward Island")
_GEO_FEATURES = {"island", "islands", "river", "bay", "lake", "mountain",
                 "mountains", "valley", "beach", "falls", "strait", "gulf",
                 "peninsula", "desert", "sea", "coast", "hills"}


@lru_cache(maxsize=1 << 17)  # pure; web vocab repeats heavily
def _num_value(w: str) -> Optional[float]:
    if _NUM_RE.match(w):
        return float(w.replace(",", ""))
    return NUMBER_WORDS.get(w.lower())


def _type_nnp_run(words: List[str], lowers: List[str], b: int, e: int,
                  prev_word: str) -> str:
    """Type a maximal NNP run [b, e) (the CRF-combiner analogue)."""
    span_lower = " ".join(lowers[b:e])
    if span_lower in LOCATIONS:
        return "LOCATION"
    if span_lower in GAZETTEER:
        return GAZETTEER[span_lower]
    if lowers[e - 1] in ORG_SUFFIXES or (e - b >= 2 and lowers[e - 2] in ORG_SUFFIXES):
        return "ORGANIZATION"
    if lowers[b] in MALE_NAMES or lowers[b] in FEMALE_NAMES:
        return "PERSON"
    if prev_word in PERSON_TITLES or prev_word in _KINSHIP_HEADS:
        return "PERSON"
    # generational / regnal suffix: "Barack Hussein Obama II",
    # "John Smith Jr." — a multi-token run ending in a suffix is a person
    if e - b >= 2 and _PERSON_SUFFIX_RE.match(words[e - 1]):
        return "PERSON"
    if e - b >= 2 and lowers[e - 1] in _GEO_FEATURES:
        return "LOCATION"
    # leading title inside the run: "Queen Elizabeth II", "President Obama"
    # — short runs only, and never when a token suggests LOCATION/ORG
    # ("Prince Edward Island", "General Dynamics Land Systems")
    if (2 <= e - b <= 3 and lowers[b] in _RUN_TITLES
            and not any(lw in LOCATIONS or lw in ORG_SUFFIXES
                        for lw in lowers[b:e])):
        return "PERSON"
    if any(lw in LOCATIONS for lw in lowers[b:e]) and e - b <= 2:
        return "LOCATION"
    if prev_word in ("in", "at", "near", "to", "from") and e - b == 1:
        return "LOCATION"
    if e - b == 2 and words[b][:1].isupper() and words[b + 1][:1].isupper():
        # FirstName LastName shape with an unknown first name: PERSON if the
        # surname looks personal (no org suffix), else ORGANIZATION
        return "PERSON"
    return "ORGANIZATION"


from corenlp_ray.functions.sutime import WEEKDAYS as _SUTIME_WEEKDAYS

# first tokens that can open a SUTime-style relative/holiday expression
# (gate so the multi-token matcher only runs where it can succeed)
_REL_FIRST = (set(_SUTIME_WEEKDAYS)
              | {"last", "next", "this", "yesterday", "today", "tomorrow",
                 "tonight", "first", "second", "third", "fourth", "fifth",
                 "new", "inauguration", "groundhog", "st", "st.", "saint",
                 "valentine", "april", "cinco", "independence", "fourth",
                 "halloween", "veterans", "xmas", "x-mas", "christmas",
                 "martin", "mlk", "presidents", "president", "memorial",
                 "mother", "mothers", "father", "fathers", "labor",
                 "labour", "columbus", "thanksgiving", "easter", "good",
                 "ash", "one", "two", "three", "four", "five", "six",
                 "seven", "eight", "nine", "ten"})

# single-token expressions: no continuation needed
_REL_SINGLE = (set(_SUTIME_WEEKDAYS)
               | {"yesterday", "today", "tomorrow", "tonight", "halloween",
                  "thanksgiving", "easter", "christmas", "xmas", "x-mas"})
# required next token for multi-token openers — common words like
# "this"/"first"/"one"/"new" appear constantly in web text, and running
# the full regex at each would cost ~20% of the whole KG pipeline
# (measured at sf0.1); this two-token gate rejects ~all non-matches in
# one dict probe
_TIME_UNITS = {"day", "days", "week", "weeks", "month", "months", "year",
               "years", "quarter"}
_REL_NEXT = {
    "last": _TIME_UNITS | set(_SUTIME_WEEKDAYS),
    "next": _TIME_UNITS | set(_SUTIME_WEEKDAYS),
    "this": _TIME_UNITS | set(_SUTIME_WEEKDAYS),
    "first": {"quarter", "of"}, "second": {"quarter", "of"},
    "third": {"quarter", "of"}, "fourth": {"quarter", "of"},
    "fifth": {"of"},
    "new": {"year", "years", "year's", "year’s"},
    "inauguration": {"day"}, "groundhog": {"day"},
    "st": {"patrick", "patrick's", "patrick’s", "valentine",
           "valentine's", "valentine’s"},
    "st.": {"patrick", "patrick's", "patrick’s", "valentine",
            "valentine's", "valentine’s"},
    "saint": {"patrick", "patrick's", "patrick’s", "valentine",
              "valentine's", "valentine’s"},
    "valentine": {"'s", "’s", "s"},
    "april": {"fools", "fools'", "fool's"},
    "cinco": {"de"}, "independence": {"day"}, "veterans": {"day"},
    "christmas": {"eve", "day"}, "xmas": {"eve", "day"},
    "martin": {"luther"}, "mlk": {"day"},
    "presidents": {"day", "'", "’"}, "president": {"'s", "’s"},
    "memorial": {"day"},
    "mother": {"'s", "’s"}, "mothers": {"day", "'", "’"},
    "father": {"'s", "’s"}, "fathers": {"day", "'", "’"},
    "labor": {"day"}, "labour": {"day"}, "columbus": {"day"},
    "easter": {"sunday", "day"}, "good": {"friday"},
    "ash": {"wednesday"},
    "one": _TIME_UNITS, "two": _TIME_UNITS, "three": _TIME_UNITS,
    "four": _TIME_UNITS, "five": _TIME_UNITS, "six": _TIME_UNITS,
    "seven": _TIME_UNITS, "eight": _TIME_UNITS, "nine": _TIME_UNITS,
    "ten": _TIME_UNITS,
}


def _try_relative(words: List[str], lowers: List[str], i: int, n: int,
                  docdate: str) -> Optional[Tuple[int, str]]:
    """Longest relative/holiday expression starting at token i → (end,
    value), resolved against docdate (SUTime RangeAnnotator analogue).
    One anchored regex match per trigger token (the alternation is
    ordered longest-first), then one resolve call — not a per-span
    resolve loop (hot-path cost on web-scale token streams)."""
    lw = lowers[i]
    if lw not in _REL_FIRST and not lw[:1].isdigit():
        return None
    if lw not in _REL_SINGLE:
        nxt = lowers[i + 1] if i + 1 < n else ""
        need = _REL_NEXT.get(lw)
        if need is not None:
            if nxt not in need:
                return None
        elif lw[:1].isdigit():
            if nxt not in _TIME_UNITS:
                return None
    hi = min(i + 6, n)
    joined = " ".join(words[i:hi]).replace(" 's", "'s").replace(" ’s", "’s")
    m = RELATIVE_RE.match(joined)
    if m is None or (m.end() < len(joined) and joined[m.end()] != " "):
        return None
    phrase = m.group(0)
    # map the matched prefix back to a token boundary: walk tokens until
    # the rebuilt phrase covers the match
    acc = ""
    j = i
    while j < hi and len(acc) < len(phrase):
        tok = words[j]
        acc = tok if not acc else (
            acc + tok if tok in ("'s", "’s") else acc + " " + tok)
        j += 1
    if acc[:len(phrase)] != phrase or len(acc) != len(phrase):
        return None
    v = resolve_relative(phrase, docdate)
    if v is None:
        return None
    if j == i + 1 and j < n and (lowers[j] in MONTHS or words[j] == ","):
        # bare weekday heading an absolute date ("Friday , October 1 ,
        # 1999") — let the absolute-date rule win
        return None
    return j, v


# lowercase tokens at which ner_sentence reads the docdate: relative-date
# openers (_try_relative; also any digit) and month names (_fmt_date)
_DOCDATE_WORDS = frozenset(_REL_FIRST) | frozenset(MONTHS)


def reads_docdate(words) -> bool:
    """Whether ``ner_sentence`` can read the docdate on ``words``; when
    not, its output is the same for every docdate."""
    return any(w[:1].isdigit() or w.lower() in _DOCDATE_WORDS
               for w in words)


def ner_sentence(words: List[str], tags: List[str],
                 docdate: Optional[str] = None) -> Tuple[List[str], List[Tuple[int, int, str, str]]]:
    """Pure kernel: one sentence → (per-token types, mentions).

    Mentions are (begin, end, type, normalized) with sentence-local token
    indices.
    """
    n = len(words)
    lowers = [w.lower() for w in words]
    types = ["O"] * n
    mentions: List[Tuple[int, int, str, str]] = []
    i = 0
    while i < n:
        w, lw, t = words[i], lowers[i], tags[i]
        # ---- relative / holiday dates vs docdate (SUTime subset) ----
        if docdate is not None:
            rel = _try_relative(words, lowers, i, n, docdate)
            if rel is not None:
                j, v = rel
                for k in range(i, j):
                    types[k] = "DATE"
                mentions.append((i, j, "DATE", v))
                i = j
                continue
        # ---- money: $ CD ----
        if w in ("$", "US$", "C$", "€", "£", "¥") and i + 1 < n and _num_value(words[i + 1]) is not None:
            v = _num_value(words[i + 1])
            j = i + 2
            mult = 1.0
            if j < n and lowers[j] in ("million", "billion", "trillion", "thousand"):
                mult = float(NUMBER_WORDS[lowers[j]])
                j += 1
            for k in range(i, j):
                types[k] = "MONEY"
            mentions.append((i, j, "MONEY", _fmt_num(v * mult)))
            i = j
            continue
        # ---- percent: CD % ----
        if _num_value(w) is not None and i + 1 < n and (words[i + 1] == "%" or lowers[i + 1] == "percent"):
            types[i] = types[i + 1] = "PERCENT"
            mentions.append((i, i + 2, "PERCENT", _fmt_num(_num_value(w)) + "%"))
            i += 2
            continue
        # ---- dates: Month (D)(, Y) | Y | D Month Y ----
        if lw in MONTHS and t == "NNP":
            j = i + 1
            day = year = None
            if j < n and _NUM_RE.match(words[j]) and 1 <= float(words[j]) <= 31 and not _YEAR_RE.match(words[j]):
                day = int(float(words[j]))
                j += 1
            if j < n and words[j] == ",":
                j += 1
            if j < n and _YEAR_RE.match(words[j]):
                year = int(words[j])
                j += 1
            norm = _fmt_date(year, MONTHS[lw], day, docdate)
            for k in range(i, j):
                types[k] = "DATE"
            mentions.append((i, j, "DATE", norm))
            i = j
            continue
        if _YEAR_RE.match(w):
            types[i] = "DATE"
            mentions.append((i, i + 1, "DATE", w))
            i += 1
            continue
        if lw in ("yesterday", "today", "tomorrow"):
            types[i] = "DATE"
            mentions.append((i, i + 1, "DATE", lw.upper()))
            i += 1
            continue
        # ---- ordinals ----
        m = _ORDNUM_RE.match(lw)
        if m:
            types[i] = "ORDINAL"
            mentions.append((i, i + 1, "ORDINAL", m.group(1)))
            i += 1
            continue
        if lw in ORDINAL_WORDS and t == "JJ":
            types[i] = "ORDINAL"
            mentions.append((i, i + 1, "ORDINAL", str(ORDINAL_WORDS[lw])))
            i += 1
            continue
        # ---- plain numbers ----
        if _num_value(w) is not None and t == "CD":
            j = i + 1
            v = _num_value(w)
            while j < n and lowers[j] in ("hundred", "thousand", "million",
                                          "billion", "trillion"):
                v *= NUMBER_WORDS[lowers[j]]
                j += 1
            for k in range(i, j):
                types[k] = "NUMBER"
            mentions.append((i, j, "NUMBER", _fmt_num(v)))
            i = j
            continue
        # ---- proper-noun runs ----
        if t in ("NNP", "NNPS") and lw not in MONTHS:
            # a leading nationality adjective ("American John Smith") is
            # its own MISC mention, not part of the name run
            if GAZETTEER.get(lw) == "MISC" and i + 1 < n \
                    and tags[i + 1] in ("NNP", "NNPS"):
                types[i] = "MISC"
                mentions.append((i, i + 1, "MISC", words[i]))
                i += 1
                w, lw, t = words[i], lowers[i], tags[i]
            j = i
            while j < n and tags[j] in ("NNP", "NNPS") and lowers[j] not in MONTHS:
                j += 1
            # a leading title ("Dr.", "Sen.") stays outside the mention
            # span — but only when the rest of the run still looks like a
            # person: never strip it off an ORG-suffixed or gazetteered
            # run ("General Dynamics Land Systems" keeps "General";
            # round-2 verdict residue)
            run_key = " ".join(lowers[i:j])
            if (lw in PERSON_TITLES and j - i >= 2
                    and not any(l2 in ORG_SUFFIXES for l2 in lowers[i:j])
                    and lowers[j - 1] not in _GEO_FEATURES
                    and run_key not in LOCATIONS
                    and run_key not in GAZETTEER):
                i += 1
                w, lw, t = words[i], lowers[i], tags[i]
            prev_word = lowers[i - 1] if i > 0 else ""
            etype = _type_nnp_run(words, lowers, i, j, prev_word)
            for k in range(i, j):
                types[k] = etype
            mentions.append((i, j, etype, " ".join(words[i:j])))
            i = j
            continue
        # ---- gazetteer overlay (TokensRegexNER semantics: only writes O) ----
        g = GAZETTEER.get(lw)
        if g and types[i] == "O":
            types[i] = g
            mentions.append((i, i + 1, g, words[i]))
            i += 1
            continue
        i += 1
    return types, mentions


def _fmt_num(v: float) -> str:
    return str(int(v)) if v == int(v) else str(v)


def _fmt_date(year, month, day, docdate: Optional[str]) -> str:
    """TIMEX3-style value: YYYY-MM-DD with X padding for unknowns; an
    absent year resolves against the docdate year (SUTime semantics)."""
    if year is None and docdate:
        year = int(docdate[:4])
    y = f"{year:04d}" if year else "XXXX"
    m = f"{month:02d}" if month else "XX"
    if day:
        return f"{y}-{m}-{day:02d}"
    return f"{y}-{m}"


class NerTagger:
    """Actor-pool map_batches stage: + tok_ner, men_* columns.

    Gazetteers/dictionaries bind once per actor (the CRF-weights slot)."""

    def __init__(self):
        self.gazetteer = GAZETTEER

    def _sentence(self, words, tags, docdate):
        """Per-sentence kernel hook (overridden by WeightedNerTagger)."""
        return ner_sentence(words, tags, docdate)

    def __call__(self, batch: pa.Table,
                 cols: dict | None = None) -> pa.Table:
        from corenlp_ray.stages._cache import col, memo, put

        ner_c, mb_c, me_c, ms_c, mn_c, mv_c = ([] for _ in range(6))
        sentence = memo(cols, "ner", self._sentence)
        # keyed without the docdate where the kernel cannot read it
        dated = memo(cols, "ner.dated", reads_docdate)
        has_ts = "warc_ts" in batch.column_names
        ts_col = batch.column("warc_ts").to_pylist() if has_ts else None
        # cleanxml docdate (XML-embedded <date>/<datetime> content)
        # outranks the crawl timestamp — CleanXmlAnnotator's
        # DocDateAnnotation feeds SUTime before any metadata fallback
        xd_col = (batch.column("xml_docdate").to_pylist()
                  if "xml_docdate" in batch.column_names else None)
        words_col = col(batch, "tok_word", cols)
        tags_col = col(batch, "tok_pos", cols)
        sb_col = col(batch, "sent_begin", cols)
        se_col = col(batch, "sent_end", cols)
        for r in range(batch.num_rows):
            words, tags = tuple(words_col[r]), tuple(tags_col[r])
            docdate = None
            if xd_col is not None and xd_col[r]:
                from corenlp_ray.stages.extract import normalize_docdate

                docdate = normalize_docdate(xd_col[r]) or None
            if docdate is None and ts_col is not None \
                    and ts_col[r] is not None:
                docdate = str(ts_col[r])[:10]
            types: List[str] = ["O"] * len(words)
            mb, me, ms, mn, mv = [], [], [], [], []
            for si, (b, e) in enumerate(zip(sb_col[r], se_col[r])):
                sw = words[b:e]
                stypes, smentions = sentence(sw, tags[b:e],
                                             docdate if dated(sw) else None)
                types[b:e] = stypes
                for (lb, le, ty, norm) in smentions:
                    mb.append(b + lb)
                    me.append(b + le)
                    ms.append(si)
                    mn.append(ty)
                    mv.append(norm)
            # document-level annotation transfer (the reference's
            # NERCombinerAnnotator.java:430-472 pass): a later single-token
            # mention matching a token of an earlier PERSON mention is a
            # surname reference → retype PERSON
            person_toks = set()
            for k in range(len(mb)):
                if mn[k] == "PERSON":
                    person_toks.update(
                        words[t].lower() for t in range(mb[k], me[k]))
            for k in range(len(mb)):
                if mn[k] == "ORGANIZATION" and me[k] - mb[k] == 1 \
                        and words[mb[k]].lower() in person_toks:
                    mn[k] = "PERSON"
                    for t in range(mb[k], me[k]):
                        types[t] = "PERSON"
            ner_c.append(types)
            mb_c.append(mb); me_c.append(me); ms_c.append(ms)
            mn_c.append(mn); mv_c.append(mv)
        put(cols, men_begin=mb_c, men_end=me_c, men_ner=mn_c,
            men_norm=mv_c)
        i32 = pa.list_(pa.int32())
        s = pa.list_(pa.string())
        return (batch
                .append_column("tok_ner", pa.array(ner_c, type=s))
                .append_column("men_begin", pa.array(mb_c, type=i32))
                .append_column("men_end", pa.array(me_c, type=i32))
                .append_column("men_sent", pa.array(ms_c, type=i32))
                .append_column("men_ner", pa.array(mn_c, type=s))
                .append_column("men_norm", pa.array(mv_c, type=s)))


_ENTITY_TYPES = frozenset(("PERSON", "ORGANIZATION", "LOCATION", "MISC"))


class WeightedNerTagger(NerTagger):
    """Actor-pool stage combining a TRAINED sequence model with the
    rule-based value annotators, in the reference's NERCombinerAnnotator
    order (NERCombinerAnnotator.java:242-306): the statistical model
    decides the ENTITY types (PERSON/ORG/LOC/MISC — the CRF's job), the
    deterministic numeric/temporal cascade fills the VALUE types
    (DATE/NUMBER/MONEY/...) with their normalizations. The model JSON
    loads once per actor via register_weighted_models(ner_model_path=…)
    and dispatches on its ``kind`` marker: "crf" → the linear-chain CRF
    with Viterbi decoding (models/crf_ner.py — the reference's actual
    model family, ie/crf/CRFClassifier.java), else the history-feature
    averaged perceptron (models/perceptron_ner.py). Both are
    CoNLL-2003-trainable."""

    def __init__(self, model_path: str):
        super().__init__()
        import json

        with open(model_path) as fh:
            kind = json.load(fh).get("kind")
        if kind == "crf":
            from corenlp_ray.models.crf_ner import CrfNER

            self.model = CrfNER.load(model_path)
        else:
            from corenlp_ray.models.perceptron_ner import PerceptronNER

            self.model = PerceptronNER.load(model_path)

    def _sentence(self, words, tags, docdate):
        base_types, base_mentions = ner_sentence(words, tags, docdate)
        pred = self.model.tag(words, tags)
        n = len(words)
        types = []
        for k in range(n):
            if pred[k] in _ENTITY_TYPES:
                types.append(pred[k])            # model wins entities
            elif base_types[k] not in _ENTITY_TYPES:
                types.append(base_types[k])      # cascade value types
            else:
                types.append("O")                # model overrode entity
        mentions = [m for m in base_mentions
                    if m[2] not in _ENTITY_TYPES]  # keep value mentions
        k = 0
        while k < n:                              # re-chunk model entities
            if types[k] in _ENTITY_TYPES:
                j = k + 1
                while j < n and types[j] == types[k]:
                    j += 1
                mentions.append((k, j, types[k], " ".join(words[k:j])))
                k = j
            else:
                k += 1
        mentions.sort(key=lambda m: (m[0], m[1]))
        return types, mentions


def ner_batch(batch: pa.Table) -> pa.Table:
    """Stateless-task variant for small/test pipelines."""
    return NerTagger()(batch)
