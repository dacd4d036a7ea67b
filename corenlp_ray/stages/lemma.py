"""Lemmatization stage (the MorphaAnnotator analogue).

The reference lemmatizes with the finite-state Morpha stemmer keyed on
(word, POS) (/root/reference/src/edu/stanford/nlp/pipeline/
MorphaAnnotator.java:27, process/Morphology.java:54, process/Morpha.flex).
This engine re-expresses the same contract — lemma is a pure function of
(word, POS) — as rule tables + irregular-form dictionaries, vectorizable
inside a stateless map_batches stage.

Conventions (matching the reference's observable behavior):
  * NNP/NNPS keep their case; all other lemmas are lowercased.
  * was/were→be, has→have, born→bear, n't→not, 's(POS) stays 's.

Adds column: tok_lemma list<string>.
"""
from __future__ import annotations

from functools import lru_cache
from typing import List

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

from corenlp_ray.functions.lexicon import (
    IRREGULAR_NOUN_LEMMA, IRREGULAR_VERB_LEMMA, S_SINGULAR,
)

_VOWELS = set("aeiou")

_DOUBLED = {"nn", "tt", "pp", "mm", "dd", "gg", "bb", "rr", "ll"}


def _strip_s(w: str) -> str:
    """Plural/3sg -s removal with es/ies rules."""
    if w.endswith("ies") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith(("ches", "shes", "xes", "zes", "sses")):
        return w[:-2]
    if w.endswith("oes") and len(w) > 4:
        return w[:-2]
    if w.endswith("s") and not w.endswith(("ss", "us", "is")):
        return w[:-1]
    return w


def _strip_ed(w: str) -> str:
    if w.endswith("ied") and len(w) <= 4:
        return w[:-1]  # died→die, lied→lie
    if w.endswith("ied") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith("eed"):
        return w[:-1] if w.endswith(("agreed", "freed")) else w[:-1]
    if w.endswith("ed") and len(w) > 3:
        stem = w[:-2]
        if stem[-2:] in _DOUBLED and len(stem) > 2 and stem[-3] in _VOWELS \
                and stem[:-1] in _DOUBLING_STEMS:
            return stem[:-1]
        if _needs_e(stem):
            return stem + "e"
        return stem
    return w


def _strip_ing(w: str) -> str:
    if w.endswith("ing") and len(w) > 4:
        stem = w[:-3]
        if stem[-2:] in _DOUBLED and len(stem) > 2 and stem[-3] in _VOWELS \
                and stem[:-1] in _DOUBLING_STEMS:
            return stem[:-1]
        if _needs_e(stem):
            return stem + "e"
        return stem
    return w


# -nge verbs that restore e (vs bang/hang/long/belong which take bare
# -ed); membership decides since no phonological rule separates them
_NG_E_STEMS = {"chang", "exchang", "rang", "arrang", "challeng", "plung",
               "hing", "aveng", "reveng", "cring", "loung", "scaveng"}


def _needs_e(stem: str) -> bool:
    """Restore silent e: mak→make, liv→live, acquir→acquire."""
    if len(stem) < 2:
        return False
    # clusters that cannot end an English verb without a silent e:
    # charg→charge, judg→judge, serv→serve, solv→solve, forc→force,
    # nurs→nurse, sens→sense, convinc→convince, argu→argue, seiz→seize
    if stem.endswith(("rg", "dg", "rc", "ns", "rs", "nc", "u")):
        return True
    if stem.endswith("v") and not stem.endswith("vv"):
        return True
    if stem.endswith("z") and not stem.endswith("zz"):
        return True
    if stem in _NG_E_STEMS:
        return True
    if stem.endswith(("at", "iv", "ir", "ak", "iz", "os", "us", "ut",
                      "om", "in", "ar", "or", "as", "ag", "ud", "uc",
                      "anc", "enc", "uat")):
        # heuristic consonant-e patterns; favored for latinate stems
        return stem[-1] not in _VOWELS and stem[-2] in _VOWELS and \
            not stem.endswith(("ain", "oin", "ean", "ear", "oor", "eat"))
    return False


# contracted / archaic / assimilated function words, keyed (word, tag);
# tag None = any tag (cf. reference MorphologyTest.java:11-66 goldens)
# -ese nationality adjectives/demonyms are number-invariant (Chinese NNS
# → Chinese); a bare endswith("ese") check would wrongly freeze geese /
# these / cheese, so membership is explicit.
_ESE_NATIONALITIES = {
    "chinese", "japanese", "burmese", "vietnamese", "portuguese",
    "taiwanese", "lebanese", "sudanese", "maltese", "nepalese",
    "senegalese", "congolese", "javanese", "balinese", "cantonese",
    "assamese", "bhutanese", "siamese", "guyanese", "genoese",
    "viennese", "milanese",
}

_FUNC_LEMMAS = {
    ("n't", None): "not", ("n’t", None): "not", ("nt", "RB"): "not",
    ("not", None): "not",
    ("'d", "MD"): "would", ("d", "MD"): "would",
    ("'ll", "MD"): "will", ("wo", "MD"): "will", ("ll", "MD"): "will",
    ("ca", "MD"): "can", ("sha", "MD"): "shall",
    ("ai", None): "be", ("re", "VBP"): "be", ("r", "VBP"): "be",
    ("s", "VBZ"): "be", ("'s", "VBZ"): "be", ("'m", None): "be",
    ("m", "VBP"): "be", ("'re", None): "be",
    ("'ve", None): "have", ("ve", "VBP"): "have", ("hath", None): "have",
    ("du", "VBP"): "do", ("no", "VBP"): "know",
    ("na", "TO"): "to", ("gon", "VBG"): "go",
    ("wan", "VB"): "want", ("wan", "VBP"): "want",
    ("an", "DT"): "a",
}

# pronoun lemma = nominative of the person (her→she, them→they, US→we)
_PRONOUN_LEMMAS = {
    "i": "I", "me": "I", "my": "I", "mine": "I", "myself": "I",
    "we": "we", "us": "we", "our": "we", "ours": "we", "ourselves": "we",
    "you": "you", "your": "you", "yours": "you", "yourself": "you",
    "he": "he", "him": "he", "his": "he", "himself": "he",
    "she": "she", "her": "she", "hers": "she", "herself": "she",
    "it": "it", "its": "it", "itself": "it",
    "they": "they", "them": "they", "their": "they", "theirs": "they",
    "themselves": "they",
}

# comparatives/superlatives that do not strip (or strip irregularly)
_COMP_IRREG = {
    "better": "good", "best": "good", "worse": "bad", "worst": "bad",
    "gooier": "gooey", "gooiest": "gooey", "more": "more", "most": "most",
    "less": "less", "least": "least", "further": "further",
    "furthest": "furthest", "farther": "farther", "farthest": "farthest",
}

# plural-looking invariants beyond S_SINGULAR
_PLURAL_INVARIANT = {"feces", "goggles", "olympics", "scissors", "pants",
                     "trousers", "binoculars", "measles", "shambles"}

_EXTRA_NOUN_IRREG = {"graffiti": "graffito", "data": "datum",
                     "bacteria": "bacterium", "alumni": "alumnus"}
_EXTRA_VERB_IRREG = {"rode": "ride", "strode": "stride", "outgrew": "outgrow"}

# verbs whose final consonant doubles before -ed/-ing (undoubling is only
# licensed for these; "xopped" stays "xopp" — Morpha's behavior)
_DOUBLING_STEMS = {
    "stop", "plan", "run", "sit", "get", "put", "set", "drop", "grab",
    "swim", "begin", "refer", "occur", "admit", "commit", "permit",
    "prefer", "regret", "pat", "chat", "ship", "shop", "slip", "trip",
    "wrap", "nod", "rob", "hug", "jog", "pin", "scan", "spot", "step",
    "stir", "tan", "tap", "top", "trim", "chop", "clip", "drag", "drum",
    "flag", "flip", "grin", "grip", "knit", "map", "mob", "mop", "nap",
    "net", "pet", "plug", "pop", "rub", "skip", "slam", "snap", "sob",
    "span", "spin", "stab", "swap", "throb", "tug", "wag", "whip", "zip",
    "ban", "bat", "beg", "bet", "blot", "bug", "can", "cap", "clap",
    "cram", "crop", "cut", "dam", "dig", "dim", "dip", "dot", "fan",
    "fit", "fog", "gun", "hit", "hop", "hum", "jam", "jot", "log",
    "glum", "gem", "win", "quit", "stun", "sum", "tag", "tip", "trap",
    "trot", "wed", "wet", "equip", "control", "propel", "rebel", "repel",
    "travel", "cancel", "label", "model", "level", "quarrel", "signal",
    "grovel", "pummel",
}


def _strip_comp(lw: str, suf: str) -> str:
    """Comparative/superlative stripper: -er/-est with y/e/doubling
    repair (easier→easy, wider→wide, glummer→glum, quicker→quick)."""
    if len(lw) <= len(suf) + 1 or not lw.endswith(suf):
        return lw
    if lw.endswith("i" + suf):
        return lw[: -len(suf) - 1] + "y"
    stem = lw[: -len(suf)]
    if stem[-2:] in _DOUBLED:
        return stem[:-1]
    if (len(stem) >= 3 and stem[-1] not in _VOWELS
            and stem[-1] not in "wxy" and stem[-2] in _VOWELS
            and stem[-3] not in _VOWELS):
        return stem + "e"
    return stem


@lru_cache(maxsize=1 << 17)  # pure; web vocab repeats heavily
def lemma_of(word: str, pos: str) -> str:
    """Pure kernel: (word, POS) → lemma (the Morphology.lemmatizeStatic
    contract; goldens in reference test/process/MorphologyTest.java)."""
    if pos in ("NNP", "NNPS"):
        return word
    lw = word.lower()
    hit = _FUNC_LEMMAS.get((lw, pos)) or _FUNC_LEMMAS.get((lw, None))
    if hit is not None:
        return hit
    if pos in ("PRP", "PRP$") and lw in _PRONOUN_LEMMAS:
        return _PRONOUN_LEMMAS[lw]
    if lw in _ESE_NATIONALITIES:      # Chinese/Burmese: invariant, keep case
        return word
    if pos.startswith("V") or pos == "MD":
        if lw in IRREGULAR_VERB_LEMMA:
            return IRREGULAR_VERB_LEMMA[lw]
        if lw in _EXTRA_VERB_IRREG:
            return _EXTRA_VERB_IRREG[lw]
        # hyphenated prefix verbs recurse on the head (out-rode→out-ride)
        if "-" in lw:
            pre, _, tail = lw.rpartition("-")
            irr = IRREGULAR_VERB_LEMMA.get(tail) or _EXTRA_VERB_IRREG.get(tail)
            if irr:
                return pre + "-" + irr
        if lw.endswith("'d"):
            return lw[:-2]            # ski'd → ski
        if pos == "VBZ":
            return _strip_s(lw)
        if pos in ("VBD", "VBN"):
            return _strip_ed(lw)
        if pos == "VBG":
            return _strip_ing(lw)
        return lw
    if pos == "NNS":
        if len(word) == 3 and word[1] in "'’" and word.endswith("s"):
            return lw[0]              # K's → k
        if len(word) > 2 and word.endswith(("s", "S")) \
                and word[:-1].isupper():
            return word[:-1]          # ABCs → ABC (acronym plural)
        if lw in IRREGULAR_NOUN_LEMMA:
            return IRREGULAR_NOUN_LEMMA[lw]
        if lw in _EXTRA_NOUN_IRREG:
            return _EXTRA_NOUN_IRREG[lw]
        if lw in _PLURAL_INVARIANT:
            return word if word[:1].isupper() else lw  # Olympics keeps case
        if lw in S_SINGULAR:
            return lw
        return _strip_s(lw)
    if pos in ("JJR", "RBR"):
        return _COMP_IRREG.get(lw) or _strip_comp(lw, "er")
    if pos in ("JJS", "RBS"):
        return _COMP_IRREG.get(lw) or _strip_comp(lw, "est")
    return lw


@stage_kernel("lemma")
def lemma_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """Stateless stage: + tok_lemma (requires tok_pos)."""
    cols["tok_lemma"] = [
        [lemma_of(w, t) for w, t in zip(words, tags)]
        for words, tags in zip(col(batch, "tok_word", cols),
                               col(batch, "tok_pos", cols))]
    return batch
