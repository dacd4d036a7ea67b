"""PTB-style invertible tokenization + sentence splitting (fused stage).

Reference semantics rebuilt from scratch (NOT ported):
  * tokenize — TokenizerAnnotator/PTBTokenizer conventions: deterministic
    English tokenization with clitic splitting (do n't, John 's), URL/email
    atoms, abbreviation-period retention, number atoms, quote/dash/ellipsis
    normalization, and the ``invertible`` contract (original text + char
    offsets recoverable per token). Cf.
    /root/reference/src/edu/stanford/nlp/process/PTBLexer.flex:137-180 and
    pipeline/TokenizerAnnotator.java:30.
  * ssplit — WordsToSentencesAnnotator rules: a sentence ends at a
    boundary token ``[.!?]+`` (and CJK 。！？), then absorbs boundary
    followers (closing quotes/brackets). Cf.
    /root/reference/src/edu/stanford/nlp/process/WordToSentenceProcessor.java:79-87.
    Newline policy: NEVER (newlines are ordinary whitespace), the
    reference default (pipeline/StanfordCoreNLP.java:154).

Design decisions (documented divergences, applied consistently so that
downstream parity is at the triple level):
  * hyphenated words stay single tokens (splitHyphenated=false).
  * curly quotes/dashes/ellipses are normalized in ``word``; ``orig``
    keeps the exact input slice (invertibility invariant:
    text[begin:end] == orig).

Output columns (CoNLL-style parallel list columns per document row — the
columnar re-expression of the reference's List<CoreLabel>; cf. SURVEY §1.2):
  tok_word  list<string>   normalized token text
  tok_orig  list<string>   exact input slice
  tok_begin list<int32>    char offset begin (into ``text``)
  tok_end   list<int32>    char offset end (exclusive)
  tok_sent  list<int32>    sentence index per token
  sent_begin list<int32>   per sentence: first token index (doc-level)
  sent_end  list<int32>    per sentence: one-past-last token index
"""
from __future__ import annotations

import re
from typing import List, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

# ---------------------------------------------------------------- lexer ----

_ABBREVS = (
    "Mr|Mrs|Ms|Dr|Prof|Sr|Jr|St|Mt|Ft|Gen|Sen|Rep|Gov|Col|Capt|Lt|Sgt|Adm|"
    "Inc|Corp|Co|Ltd|Bros|vs|etc|Vol|Jan|Feb|Mar|Apr|Jun|"
    "Jul|Aug|Sep|Sept|Oct|Nov|Dec|approx|dept|est|Ave|Blvd|Rd|Hwy|Univ|"
    "Assn|Dept|Messrs|Mme|Mlle|Rev|Hon|Pres|Supt|Det|Insp|"
    # US state / place abbreviations (PTBLexer's ABBREV1 family)
    "Ala|Ariz|Ark|Calif|Colo|Conn|Del|Fla|Ga|Ill|Ind|Kan|Ky|La|Mass|Md|"
    "Mich|Minn|Miss|Mo|Mont|Neb|Nev|Okla|Ore|Pa|Tenn|Tex|Va|Vt|Wash|Wis|"
    "Wyo|Pty|Ph|cf|ca|viz|al|seq"
)
# abbreviations only when a number follows ("No. 24", "Fig. 3", "no.47" —
# but "No. I like" is a sentence end); case-insensitive
_NUM_ABBREVS = r"No|Nos|Art|Fig|Figs|pp|Op"

_L = r"A-Za-zÀ-ɏͰ-ϿЀ-ӿ"
_SHY = "­"  # soft hyphen: removed inside words, "-" standalone

_TOKEN_RE = re.compile(
    r"</?[A-Za-z][^>\n]*>|<!--.*?-->"                     # SGML/XML tag
    r"|(?:https?://|ftp://|svn(?:\+ssh)?://|www\.)"
    r"[^\s<>\"']*[^\s<>\"'.,;:!?)\]]"                     # URL
    r"|[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"    # email
    r"|@[A-Za-z0-9_]+"                                    # @handle
    r"|(?:[A-Z]\.[ ])+[A-Z]\.(?![\w])"                    # initials run B. A.
    r"|(?:[" + _L + r"]\.){2,}[" + _L + r"]?"             # acronym U.S. / U.S
    r"|(?<![" + _L + r"])(?:[" + _L + r"]{1,2}\.)+[" + _L + r"]{1,2}(?![\w.])"
    # dotted name without final period: Ph.D, Mesa A.B
    r"|(?<![" + _L + r"])(?:" + _ABBREVS + r")\."         # abbreviation + .
    r"|(?<![" + _L + r"])(?i:" + _NUM_ABBREVS + r")\.(?=\s?\d)"  # No. 24
    r"|(?<![" + _L + r"])(?:No|So)\."                     # No. Korea
    r"(?=\s(?:Korea|Dakota|Carolina|Calif(?:ornia)?\.?|Africa|America|Vietnam))"
    r"|(?:Yahoo|Jeopardy|OK|E)!(?=[ '\"]|$)"              # name! brands
    r"|[A-Z]+&[A-Z]+"                                     # AT&T
    r"|[" + _L + r"0-9_]+\.(?i:jpe?g|png|gif|pdf|txt|docx?|xlsx?|mp[34]"
    r"|avi|html?|zip|tar|gz)(?![\w])"                     # filename.ext
    r"|[" + _L + r"][" + _L + r"0-9]*(?:_[" + _L + r"0-9]+)+"  # snake_case
    r"|[" + _L + r"0-9]+(?:/[" + _L + r"0-9]+)+(?![\w])"  # OS/2 slash pair
    r"|[A-Z]{1,3}\$"                                      # US$
    r"|\d{1,2}:\d{2}(?::\d{2})?(?![\d-])"                 # clock time 4:45
    r"|mailto:[^\s<>()]+"                                 # mailto: atom
    r"|[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)*"
    r"\.(?:com|org|net|edu|gov|io|ai|uk|de|fr)(?![\w])"   # bare domain
    r"|\d+(?:,\d{3})*(?:\.\d+)?-\d+(?:,\d{3})*(?:\.\d+)?(?:'s)?(?![\d.\w-])"
    # number range 23-24 / 2-9.5 / 60-90's
    r"|(?:\.?\d+(?:[,.:]\d+)*|[" + _L + r"][" + _L + r"0-9]*)"
    r"(?:-(?:\d+(?:[,.:]\d+)*|[" + _L + r"][" + _L + r"0-9]*))+(?![\w])"
    # hyphen compounds with digits: 39-yard, 908-333-4444, 5:30-to-10
    r"|\d+\.(?:\d+|x)(?![\d.])"                           # version 3.1 / 3.x
    r"|[+-]?\d+(?:,\d{3})*(?:\.\d+)?(?:st|nd|rd|th)?"     # number / ordinal
    r"|\.\d+"                                             # .5
    r"|\.{3,}|\.(?: \.){2,}|…"                            # ellipsis forms
    r"|--+|—|–"                                           # dashes
    r"|[" + _L + r"]+\*+[" + _L + r"*]*[" + _L + r"]"     # censored f**k
    r"|[;:=8][-o^']?[()\[\]DPpd\\|](?!\w)|[;:=8][-o^']?/(?!/)"  # emoticon
    r"|\^_+\^|\([a-z][._-][a-z]\)"                        # ^_^  (x.x)
    r"|[" + _L + _SHY + r"][" + _L + _SHY + r"0-9]*"
    r"(?:[-'’`\x92][" + _L + r"0-9]+)*[#]?"              # word (incl. F#)
    r"|[!?！？]+|[。]"                                     # terminal punct runs
    r"|(?i:'em|'tis|'twas)(?![\w])"                       # 'em clitic atoms
    r"|``|''"                                             # PTB quote pairs
    r"|\S"                                                # any other char
)

# assimilated forms split per PTB ("Gimme" → "Gim"+"me";
# PTBLexer.flex ASSIMILATIONS); values are split offsets
_ASSIM = {"gonna": (3,), "gotta": (3,), "wanna": (3,), "lemme": (3,),
          "gimme": (3,), "outta": (3,), "dunno": (2, 3)}

# clitics split off the END of a word token (PTB convention)
_CLITIC_RE = re.compile(r"(?i)(n[’'`]t|[’'](?:s|m|re|ve|ll|d))$")

_NORM_MAP = {
    # PTB directional quotes (straight '"' is resolved by context below)
    "\u201c": "``", "\u201d": "''", "\u201e": "``", "\u00ab": "``",
    "\u00bb": "''",
    "\u2018": "`", "\u2019": "'", "\u201a": "`", "\u2039": "`",
    "\u203a": "'",
    "\u2014": "--", "\u2013": "--", "\u2026": "...",
    "\u00a0": " ", _SHY: "",
    # PTB bracket escapes (ptb3Escaping, PTBLexer.flex)
    "(": "-LRB-", ")": "-RRB-", "[": "-LSB-", "]": "-RSB-",
    "{": "-LCB-", "}": "-RCB-",
    # CP1252 mojibake repair (cf. PTBLexer CP1252 handling)
    "\x91": "`", "\x92": "'", "\x93": "``", "\x94": "''", "\x96": "--",
    "\x97": "--", "\x85": "...", "\x95": "\u2022",
}
# every key is a single char, so str.translate (C-speed) implements the
# map exactly; the table is hit once per token — the old per-token regex
# sub was the tokenizer's hottest line
_NORM_TABLE = str.maketrans(_NORM_MAP)


def _normalize_word(s: str) -> str:
    return s.translate(_NORM_TABLE)


_ALWAYS_ABBREV_RE = re.compile(
    r"(?:(?<![" + _L + r"])(?:" + _ABBREVS + r")|(?:[" + _L + r"]\.)+["
    + _L + r"])\.$")
_TAG_RE = re.compile(r"[ \t]*(?:\n|</?[A-Za-z][^>\n]*>|$)")
_OPEN_CTX = set(" \t\n\r([{\u201c\u2018`'\"")


def tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    """Pure kernel: text → list of (word, orig, char_begin, char_end).

    Invertible: text[begin:end] == orig for every token; tokens are in
    order; inter-token gaps are whitespace only. (One overlap exception:
    the duplicated sentence-final period after an abbreviation — "Kemper
    Corp." → "Corp." + "." — SHARES the abbreviation's final-period span
    [e-1, e), so text[begin:end] == orig still holds for it.)
    """
    toks: List[Tuple[str, str, int, int]] = []

    def push(orig: str, b: int, e: int):
        word = _normalize_word(orig)
        if orig == '"':
            # straight double quote: direction from the left context
            word = "``" if (b == 0 or text[b - 1] in _OPEN_CTX) else "''"
        elif orig == _SHY:
            word = "-"
        elif word == "" and orig:
            word = orig
        toks.append((word, orig, b, e))

    for m in _TOKEN_RE.finditer(text):
        orig = m.group(0)
        b, e = m.start(), m.end()
        if len(orig) == 1 and "\ud800" <= orig <= "\udfff":
            continue  # unpaired surrogate: dropped (PTBLexer behavior)
        c0 = orig[0]
        if c0 == ".":  # dot runs ("....", ". . .") all start with "."
            dots = orig.replace(" ", "")
            if set(dots) == {"."} and len(dots) >= 3:
                if len(dots) == 3:
                    toks.append(("...", orig, b, e))
                else:
                    last = text.rindex(".", b, e)
                    toks.append(("...", text[b:last], b, last))
                    toks.append((".", ".", last, e))
                continue
        if c0 == "-" and len(orig) > 2 and set(orig) == {"-"}:
            # PTB normalizes any longer dash run to "--"
            toks.append(("--", orig, b, e))
            continue
        if " " in orig and orig.endswith("."):
            # initials run "B. A." matched wholesale: one token per initial
            pos = b
            for part in orig.split(" "):
                if part:
                    toks.append((part, part, pos, pos + len(part)))
                pos += len(part) + 1
            continue
        if len(orig) == 5:  # every assimilation form is 5 chars
            low = orig.lower()
            if low in _ASSIM:
                # assimilation split: "Gimme" → "Gim" + "me"
                prev = 0
                for cut in _ASSIM[low] + (len(orig),):
                    push(orig[prev:cut], b + prev, b + cut)
                    prev = cut
                continue
        # clitics all contain an apostrophe char — skip the regex otherwise
        cm = (_CLITIC_RE.search(orig)
              if ("'" in orig or "’" in orig or "`" in orig
                  or "\x92" in orig) else None)
        # never split the clitic off a bare-apostrophe atom like "'s" itself
        if cm and cm.start() > 0:
            split = cm.start()
            push(orig[:split], b, b + split)
            push(orig[split:], b + split, e)
        else:
            push(orig, b, e)
            # sentence-final abbreviation duplicates its period when the
            # sentence visibly ends here (EOF / newline / SGML tag):
            # "Kemper Corp.\n</HEADLINE>" → "Corp." "." (PTB convention)
            if (orig[-1] == "." and _ALWAYS_ABBREV_RE.search(orig)
                    and _TAG_RE.match(text, e)):
                # duplicated sentence-final period shares the abbreviation's
                # final-period span (PTBLexer convention), preserving the
                # text[begin:end] == orig invariant for offset consumers
                toks.append((".", ".", e - 1, e))
    return toks


# --------------------------------------------------------------- ssplit ----

_BOUNDARY_RE = re.compile(r"^(?:[.!?！？]+|[。])$")
# boundary followers, cf. WordToSentenceProcessor.java:85
_FOLLOWER = {")", "]", "}", '"', "'", "''", "”", "’", "»", "…", "-RRB-", "-RSB-", "-RCB-"}


def ssplit(words: List[str], para_break_before=frozenset()) -> List[Tuple[int, int]]:
    """Pure kernel: token words → [(tok_begin, tok_end)] sentence spans.

    ``para_break_before``: token indices preceded by a blank line — these
    force a sentence boundary (the reference's TWO_CONSECUTIVE newline
    policy, ``WordToSentenceProcessor.java:76``; appropriate for web pages
    where CleanXml-style extraction separates blocks with blank lines).
    """
    sents: List[Tuple[int, int]] = []
    start = 0
    i = 0
    n = len(words)
    while i < n:
        if i > start and i in para_break_before:
            sents.append((start, i))
            start = i
        if _BOUNDARY_RE.match(words[i]):
            j = i + 1
            while j < n and words[j] in _FOLLOWER and j not in para_break_before:
                j += 1
            sents.append((start, j))
            start = j
            i = j
        else:
            i += 1
    if start < n:
        sents.append((start, n))
    return sents


# -------------------------------------------------------- batch transform ----

@stage_kernel("tokenize")
def tokenize_ssplit_batch(batch: pa.Table, text_col: str = "text",
                          newline_policy: str = "two", *,
                          cols: dict) -> pa.Table:
    """Stage: + tok_* and sent_* parallel list columns.

    Stateless task stage; regexes compile once per worker at import. The
    per-document loop is inherent (tokenization is sequential within a
    string); each document is processed by a single compiled-DFA pass.

    ``newline_policy`` mirrors the reference's
    ssplit.newlineIsSentenceBreak enum (WordToSentenceProcessor.java:76):
    "never" (newlines are whitespace), "two" (a blank line forces a
    boundary — the web-page default here), "always" (every newline
    forces a boundary).
    """
    words_c, origs_c, begins_c, ends_c, tsent_c, sb_c, se_c = ([] for _ in range(7))
    for text in col(batch, text_col, cols):
        text = text or ""
        toks = tokenize(text)
        words = [t[0] for t in toks]
        breaks = set()
        if newline_policy != "never":
            for k in range(1, len(toks)):
                gap = text[toks[k - 1][3]:toks[k][2]]
                if newline_policy == "always" and "\n" in gap:
                    breaks.add(k)
                elif "\n\n" in gap or gap.count("\n") >= 2:
                    breaks.add(k)
        sents = ssplit(words, breaks)
        tok_sent = [0] * len(toks)
        for si, (b, e) in enumerate(sents):
            for k in range(b, e):
                tok_sent[k] = si
        words_c.append(words)
        origs_c.append([t[1] for t in toks])
        begins_c.append([t[2] for t in toks])
        ends_c.append([t[3] for t in toks])
        tsent_c.append(tok_sent)
        sb_c.append([s[0] for s in sents])
        se_c.append([s[1] for s in sents])
    cols.update(tok_word=words_c, tok_orig=origs_c, tok_begin=begins_c,
                tok_end=ends_c, tok_sent=tsent_c, sent_begin=sb_c,
                sent_end=se_c)
    return batch
