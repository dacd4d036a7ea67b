"""POS tagging stage (the MaxentTagger analogue).

The reference tags with a maximum-entropy cyclic-dependency-network model
(/root/reference/src/edu/stanford/nlp/tagger/maxent/MaxentTagger.java:231,
inference in tagger/maxent/TestSentence.java:325-341). With no network and
no shipped model weights, this engine uses a deterministic
lexicon + shape/suffix + contextual-rule tagger (a compact Brill-style
cascade) over the PTB tagset. The stage SHAPE is the important parity: a
class whose model resources load once in ``__init__`` and whose
per-sentence ``_tag`` hook is the weights slot — swap in trained weights
without touching the pipeline.

Adds column: tok_pos list<string>.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import List

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col, memo

from corenlp_ray.functions.lexicon import (
    IRREGULAR_VERB_LEMMA, POS_LEXICON, S_SINGULAR, MONTHS, NUMBER_WORDS,
    ORDINAL_WORDS,
)

_NUM_RE = re.compile(r"^[+-]?\d+(?:,\d{3})*(?:\.\d+)?$|^\.\d+$")
_ORDNUM_RE = re.compile(r"^\d+(?:st|nd|rd|th)$")
_PUNCT_TAGS = {
    ".": ".", "!": ".", "?": ".", "...": ":", ",": ",", ":": ":", ";": ":",
    "--": ":", "(": "-LRB-", ")": "-RRB-", "[": "-LRB-", "]": "-RRB-",
    "-LRB-": "-LRB-", "-RRB-": "-RRB-", "-LSB-": "-LRB-", "-RSB-": "-RRB-",
    "-LCB-": "-LRB-", "-RCB-": "-RRB-",
    "{": "-LRB-", "}": "-RRB-", "$": "$", "#": "#", "``": "``", "''": "''",
    '"': "``", "'": "''", "%": "NN", "&": "CC", "/": ":", "。": ".",
}
_VERBAL = {"VB", "VBP", "VBZ", "VBD", "VBN", "VBG"}


@lru_cache(maxsize=1 << 17)  # pure; web vocab repeats heavily
def _base_tag(word: str, lower: str, sent_initial: bool) -> str:
    if word in _PUNCT_TAGS:
        return _PUNCT_TAGS[word]
    if _NUM_RE.match(word):
        return "CD"
    if _ORDNUM_RE.match(lower):
        return "JJ"
    if lower in NUMBER_WORDS:
        return "CD"
    if lower in ORDINAL_WORDS:
        return "JJ"
    if lower in MONTHS:
        return "NNP"
    if word == "I":
        return "PRP"  # the one capitalized pronoun; cap rule must not win
    in_lex = POS_LEXICON.get(lower)
    cap = word[:1].isupper()
    if cap and not sent_initial:
        from corenlp_ray.functions.lexicon import NATIONALITY_JJ
        if lower in NATIONALITY_JJ:
            return "JJ"   # "the French government" — JJ despite the cap
        if lower in ("holdings", "industries", "airlines", "airways",
                     "motors", "brothers", "partners", "systems",
                     "communications", "enterprises", "securities",
                     "investments", "sons", "associates"):
            return "NNPS"  # plural corporate-name heads
        # mid-sentence capitalization beats the lexicon → proper noun
        return "NNP"
    if in_lex:
        return in_lex
    if cap:
        return "NNP"
    # suffix heuristics (the tagger's unknown-word model)
    if lower.endswith("ly"):
        return "RB"
    if lower.endswith("ing") and len(lower) > 4:
        return "VBG"
    if lower.endswith("ed") and len(lower) > 3:
        return "VBD"
    if lower.endswith(("tion", "sion", "ment", "ness", "ity", "ance",
                       "ence", "ship", "hood", "ism", "ist", "ure", "age")):
        return "NN"
    if lower.endswith(("ous", "ful", "ive", "able", "ible", "less",
                       "ic", "ical", "ary", "ian")):
        return "JJ"
    if lower.endswith("ish") and len(lower) > 4:
        return "JJ"  # boyish, foolish — but not fish/dish/wish
    if lower.endswith("est") and len(lower) > 4:
        if lower in ("honest", "dishonest", "modest", "earnest"):
            return "JJ"
        if lower not in ("harvest", "forest", "interest", "contest",
                         "protest", "arrest", "request", "suggest",
                         "invest", "digest", "manifest", "tempest"):
            return "JJS"
    if lower in IRREGULAR_VERB_LEMMA:
        return "VBD"
    if lower.endswith("s") and not lower.endswith("ss") and len(lower) > 3 \
            and lower not in S_SINGULAR:
        return "NNS"
    if not any(c.isalpha() for c in word):
        return "SYM"
    return "NN"


def tag_sentence(words: List[str]) -> List[str]:
    """Pure kernel: one sentence's words → PTB tags (deterministic)."""
    n = len(words)
    lowers = [w.lower() for w in words]
    tags = []
    for i, (w, lw) in enumerate(zip(words, lowers)):
        # "sentence initial" for capitalization purposes: first alphabetic
        # token, or token after an open quote/bracket at position 0/1
        sent_initial = i == 0 or (i == 1 and words[0] in ('"', "``", "(", "-LRB-", "'", "`"))
        tags.append(_base_tag(w, lw, sent_initial))
    # contextual repair rules (ordered, Brill-style)
    for i in range(n):
        lw, t = lowers[i], tags[i]
        prev_t = tags[i - 1] if i > 0 else "<S>"
        prev_w = lowers[i - 1] if i > 0 else ""
        # TO/MD + verb-capable word → base verb; an UNKNOWN bare word
        # after to/should is almost surely a verb ("to swim")
        if prev_t in ("TO", "MD") and t in ("NN", "NNS", "VBP", "VBZ", "VBD"):
            base = POS_LEXICON.get(lw)
            if base in _VERBAL or (base is None and t == "NN") \
                    or lw in ("work", "study", "live", "visit"):
                tags[i] = "VB"
        # plural/pronoun subject + base verb → present plural ("rabbits eat")
        elif prev_t in ("NNS", "PRP") and t == "VB":
            tags[i] = "VBP"
        # DT/PRP$/JJ + verb tag → noun (e.g. "the work", "the meeting")
        # — but a gerund MODIFIER before a noun stays VBG ("the
        # breeding season")
        elif prev_t in ("DT", "PRP$", "JJ") and t in ("VB", "VBP", "VBG"):
            if not (t == "VBG" and i + 1 < n
                    and tags[i + 1] in ("NN", "NNS")):
                tags[i] = "NN"
        elif prev_t in ("DT", "PRP$", "JJ") and t == "VBZ":
            tags[i] = "NNS" if not lw.endswith("ss") else "NN"
        # PRP + NN with verb reading → VBP ("they work")
        elif prev_t == "PRP" and t == "NN" and POS_LEXICON.get(lw) in _VERBAL:
            tags[i] = "VBP"
        # PRP + apparent plural → 3sg verb ("she looks", "he counts");
        # a plural noun directly after a subject pronoun is ungrammatical
        elif prev_t == "PRP" and t == "NNS":
            tags[i] = "VBZ"
        # PRP + unknown singular → plural-agreement verb ("you love X")
        elif prev_t == "PRP" and t == "NN" and lw not in POS_LEXICON:
            tags[i] = "VBP"
        # predeterminer: all/both/half before a determiner — except the
        # preconjunct "both X and Y", which PTB tags CC
        if lw in ("all", "both", "half") and i + 1 < n \
                and tags[i + 1] in ("DT", "PRP$"):
            if lw == "both" and "and" in lowers[i + 1:i + 7]:
                tags[i] = "CC"
            else:
                tags[i] = "PDT"
        # approximation adverb before a number ("About 200 people")
        if lw in ("about", "around", "nearly", "roughly",
                  "approximately") and t == "IN" and i + 1 < n \
                and tags[i + 1] == "CD":
            tags[i] = "RB"
        # "like" after a subject pronoun is the verb ("you like to swim")
        if lw == "like" and t == "IN" and prev_t == "PRP":
            tags[i] = "VBP"
        # do-support: the lexical verb after do/does/did is the BASE
        # form ("do you live", "did Babbage invent") — gated on no
        # other verb between the auxiliary and this token
        if tags[i] in ("VBP", "NN") and lw not in POS_LEXICON:
            do_at = next((j for j in range(i) if lowers[j] in
                          ("do", "does", "did")), -1)
            if do_at >= 0 and not any(
                    tags[j].startswith("V") or tags[j] == "MD"
                    for j in range(do_at + 1, i)) \
                    and (i + 1 >= n or tags[i + 1] in ("DT", "PRP$",
                                                       "NN", "NNS",
                                                       "NNP", "IN")
                         or words[i + 1] in ".?!"):
                tags[i] = "VB"
        # determiner "what" before a noun ("What dignity is there...")
        if lw == "what" and t == "WP" and i + 1 < n \
                and tags[i + 1] in ("NN", "NNS"):
            tags[i] = "WDT"
        # participial-bias -ed verbs after a noun and before IN are
        # reduced relatives even with no later finite verb ("the
        # auction house founded in London")
        if t == "VBD" and lw in ("founded", "based", "located",
                                 "situated", "born", "named", "known",
                                 "called", "owned", "operated",
                                 "headquartered", "established") \
                and i > 0 and tags[i - 1] in ("NN", "NNS", "NNP",
                                              "NNPS") \
                and i + 1 < n and tags[i + 1] == "IN":
            tags[i] = "VBN"
        # mid-sentence complementizer: "says that you ..." — "that"
        # before a subject pronoun is IN, never a determiner
        if lw == "that" and t == "DT" and i + 1 < n \
                and tags[i + 1] == "PRP":
            tags[i] = "IN"
        # relativizer: NOUN + "that" + VERB → WDT ("species that live")
        elif lw == "that" and t == "DT" and 0 < i < n - 1 \
                and tags[i - 1] in ("NN", "NNS", "NNP", "NNPS") \
                and tags[i + 1] in _VERBAL:
            tags[i] = "WDT"
        # superlative adverb: most/least before an adjective/adverb
        if lw in ("most", "least") and t in ("JJS", "RBS", "JJ") \
                and i + 1 < n and tags[i + 1] in ("JJ", "RB"):
            tags[i] = "RBS"
        # noun subject + apparent plural + non-noun continuation → 3sg
        # verb ("survival depends heavily on", "success comes from")
        if t == "NNS" and i > 0 \
                and tags[i - 1] in ("NN", "NNP") \
                and i + 1 < n and tags[i + 1] in ("IN", "TO", "RB",
                                                  "DT", "PRP$", "CD") \
                and lw not in ("sales", "results", "profits", "shares",
                               "prices", "stocks", "officials") \
                and not lw.endswith("ss"):
            tags[i] = "VBZ"
        # "to" disambiguation: TO before verb/num stays TO, else IN
        if lw == "to" and i + 1 < n:
            nxt = tags[i + 1]
            if nxt not in ("VB", "CD", "DT", "NNP"):
                pass  # keep TO (PTB tags infinitival and prepositional 'to' TO)
        # possessive clitic 's after noun → POS
        if lw == "'s" and prev_t in ("NN", "NNS", "NNP", "NNPS"):
            tags[i] = "POS"
        # 's as copula after pronoun ("he's") stays VBZ
        elif lw == "'s" and prev_t == "PRP":
            tags[i] = "VBZ"
        # past participle after be/have → VBN ("was born", "has acquired",
        # "was recently founded" — adverbs between are skipped)
        if t == "VBD":
            j = i - 1
            while j > 0 and tags[j] == "RB":
                j -= 1
            if j >= 0 and lowers[j] in ("was", "were", "is", "are", "be",
                                        "been", "has", "have", "had",
                                        "am"):
                tags[i] = "VBN"
        # predicative adjective: be (+RB)* + UNKNOWN word at a phrase
        # boundary → JJ ("the claim is untrue", "truffles are tasty")
        if t == "NN" and lw not in POS_LEXICON:
            j = i - 1
            while j > 0 and tags[j] == "RB":
                j -= 1
            if j >= 0 and lowers[j] in ("am", "is", "are", "was", "were",
                                        "be", "been", "being", "'s",
                                        "'re", "'m", "seems", "seem",
                                        "looks", "look") \
                    and tags[j] != "POS" \
                    and (i + 1 >= n or tags[i + 1] in ("IN", "CC", "TO")
                         or words[i + 1] in (".", ",", "!", "?", ";",
                                             ":", "''")):
                tags[i] = "JJ"
        # relative-clause predicate: "N which (RB)* X" — a relative
        # pronoun is the clause subject, so a default-NN unknown right
        # after it is its verb ("which develop", "which also contain").
        # Gated off lexicon nouns and noun-suffix words ("which
        # direction") so only fallback-tagged unknowns flip.
        if lw == "which" and prev_t in ("NN", "NNS", "NNP", "NNPS",
                                        ",", "IN"):
            j = i + 1
            while j < n and tags[j] == "RB":
                j += 1
            if j < n and tags[j] in ("NN", "NNS") \
                    and lowers[j] not in POS_LEXICON \
                    and not lowers[j].endswith(
                        ("tion", "sion", "ment", "ness", "ity", "ance",
                         "ence", "ship", "hood", "ism", "ure", "age")):
                tags[j] = "VBZ" if tags[j] == "NNS" else "VBP"
    # sentence-initial complementizer: "That she lied ..." — a clause
    # subject right after "That" means it is IN, not a determiner
    if n > 2 and lowers[0] == "that" and tags[0] == "DT" \
            and tags[1] in ("PRP", "NNP", "DT", "PRP$"):
        tags[0] = "IN"
    # reduced relative: NOUN + Ved + IN with a LATER finite verb in the
    # same clause (no coordinator/subordinator between) is a participle
    # ("Truffles picked during the spring are tasty")
    _sub = ("after", "because", "if", "when", "while", "although",
            "though", "since", "before", "unless", "until", "once",
            "as", "whereas")
    for i in range(1, n - 1):
        if tags[i] != "VBD" or tags[i - 1] not in ("NN", "NNS", "NNP",
                                                   "NNPS"):
            continue
        if tags[i + 1] != "IN" or lowers[i + 1] in _sub:
            continue
        for j in range(i + 2, n):
            if tags[j] == "CC" or (tags[j] == "IN" and lowers[j] in _sub):
                break
            if tags[j] in ("VBZ", "VBP", "VBD", "MD"):
                tags[i] = "VBN"
                break
    # inverted passive: "What is the fear of cockroaches called ?" — a
    # clause-final Ved with a fronted be-auxiliary is a participle
    for i in range(2, n):
        if tags[i] != "VBD":
            continue
        if not all(tags[j] in ("IN", "RB") or lowers[j] in ".?!;:,"
                   for j in range(i + 1, n)):
            continue
        be_at = next((j for j in range(min(3, i)) if lowers[j] in
                      ("is", "are", "was", "were", "am")), -1)
        if be_at >= 0 and not any(
                tags[j] in ("VBZ", "VBP", "VBD", "MD")
                for j in range(be_at + 1, i)):
            tags[i] = "VBN"
    # verbless repair: an UNKNOWN noun before a clause-final -ly adverb
    # is the missing predicate ("Dogs sitting in heaven bark loudly .")
    if not any(t in ("VBZ", "VBP", "VBD", "MD") for t in tags):
        for i in range(1, n):
            if tags[i] == "NN" and lowers[i] not in POS_LEXICON \
                    and i + 1 < n and tags[i + 1] == "RB" \
                    and lowers[i + 1].endswith("ly"):
                plural = any(tags[j] in ("NNS", "NNPS")
                             or (tags[j] == "PRP" and lowers[j] in
                                 ("they", "we", "you", "i"))
                             for j in range(i))
                tags[i] = "VBP" if plural else "VBZ"
                break
    # verbless-sentence repair: a clause needs a verb; an NNS right after
    # a potential subject (NNP/PRP) whose stem is a known verb is almost
    # surely VBZ ("Acme Corp. employs 5,000 people") — gated on the
    # sentence having NO verbal tag so "GM plants closed" keeps NNS
    if not any(t in _VERBAL for t in tags):
        for i in range(1, n):
            if tags[i] == "NNS" and tags[i - 1] in ("NNP", "NNPS", "PRP"):
                lw = lowers[i]
                cands = [lw[:-1]]
                if lw.endswith("es"):
                    cands.append(lw[:-2])
                if lw.endswith("ies"):
                    cands.append(lw[:-3] + "y")
                if any(POS_LEXICON.get(c) in _VERBAL for c in cands):
                    tags[i] = "VBZ"
                    break
    return tags


class PosTagger:
    """Stage: + tok_pos. Model resources bind once in ``__init__``, when
    the chain is built on the driver; the chain is then shipped to the
    tasks that run it (pipelines/registry.launch). The weights slot is
    the ``_tag`` hook."""

    def __init__(self):
        self.lexicon = POS_LEXICON  # binding point for trained weights

    def _tag(self, words: List[str]) -> List[str]:
        """Per-sentence kernel hook (overridden by WeightedPosTagger)."""
        return tag_sentence(words)

    @stage_kernel("pos")
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        out = []
        tag = memo(cols, "pos", self._tag)
        words_col = col(batch, "tok_word", cols)
        sb_col = col(batch, "sent_begin", cols)
        se_col = col(batch, "sent_end", cols)
        for words, sbs, ses in zip(words_col, sb_col, se_col):
            tags: List[str] = [""] * len(words)
            words = tuple(words)
            for b, e in zip(sbs, ses):
                tags[b:e] = tag(words[b:e])
            out.append(tags)
        cols["tok_pos"] = out
        return batch


pos_batch = PosTagger()   # the default stage as a plain callable


class WeightedPosTagger(PosTagger):
    """The pos stage tagging with TRAINED averaged-perceptron weights
    (models/perceptron_tagger.py — the MaxentTagger-shaped slot): the
    model JSON loads once in ``__init__``, when the chain is built on
    the driver, and ships with the chain to its tasks. Use
    ``PerceptronTagger.train`` on a licensed treebank for reference-band
    accuracy, or ``PerceptronTagger.distill`` to learn the deterministic
    cascade's behavior (same labels, learned form) when no treebank can
    ship. Install it with ``register_weighted_models(pos_model_path=p)``.
    """

    def __init__(self, model_path: str):
        from corenlp_ray.models.perceptron_tagger import PerceptronTagger

        super().__init__()
        self.model = PerceptronTagger.load(model_path)

    def _tag(self, words: List[str]) -> List[str]:
        return self.model.tag(words)
