"""Constituency trees via deterministic dependency→constituency
projection — the ParserAnnotator surface (src/edu/stanford/nlp/pipeline/
ParserAnnotator.java:40) without the lexicalized parser: each head
token projects a phrase over itself and its dependents' phrases
(the inverse of the Collins head-finder mapping,
trees/CollinsHeadFinder.java), labeled from the head's PTB tag. The
result is a well-formed PTB-style bracketing whose leaves are exactly
the sentence tokens — the tree API downstream consumers (tregex-style
matching, tree-structured sentiment) need, with fidelity bounded by the
dependency cascade rather than a trained grammar (documented ◐ vs the
reference's shift-reduce/lexparser models).

Adds column: parse_tree list<string> (one bracketing per sentence).
"""
from __future__ import annotations

from typing import List

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

_PHRASE_OF = {
    "NN": "NP", "NNS": "NP", "NNP": "NP", "NNPS": "NP", "PRP": "NP",
    "PRP$": "NP", "WP": "NP", "EX": "NP", "CD": "QP",
    "VB": "VP", "VBD": "VP", "VBG": "VP", "VBN": "VP", "VBP": "VP",
    "VBZ": "VP", "MD": "VP",
    "JJ": "ADJP", "JJR": "ADJP", "JJS": "ADJP",
    "RB": "ADVP", "RBR": "ADVP", "RBS": "ADVP", "WRB": "ADVP",
    "IN": "PP", "TO": "PP",
    "DT": "NP", "WDT": "NP",
    "UH": "INTJ",
}


def _escape(tok: str) -> str:
    """PTB bracket escaping for terminals."""
    return (tok.replace("(", "-LRB-").replace(")", "-RRB-"))


def dep_to_constituency(words: List[str], tags: List[str],
                        heads: List[int]) -> str:
    """Sentence-local (words, tags, heads with -1 root) → PTB-style
    bracketed tree string '(ROOT (S ...))'."""
    n = len(words)
    if n == 0:
        return "(ROOT)"
    children: dict = {}
    roots = []
    for i, h in enumerate(heads):
        if 0 <= h < n:
            children.setdefault(h, []).append(i)
        else:
            roots.append(i)
    if not roots:                       # defensive: cycle → flat tree
        roots = [0]
        children = {}

    def project(i: int) -> str:
        leaf = f"({_escape(tags[i] or 'XX')} {_escape(words[i])})"
        deps = sorted(children.get(i, []))
        if not deps:
            return leaf
        label = _PHRASE_OF.get(tags[i], "X")
        parts = []
        placed = False
        for d in deps:
            if d > i and not placed:
                parts.append(leaf)
                placed = True
            parts.append(project(d))
        if not placed:
            parts.append(leaf)
        return f"({label} " + " ".join(parts) + ")"

    body = " ".join(project(r) for r in sorted(roots))
    return f"(ROOT (S {body}))"


import re as _re

_LEAF_RE = _re.compile(r"\(([^()\s]+) ([^()\s]+)\)")


def tree_leaves(tree: str) -> List[str]:
    """Terminal words of a bracketed tree (inverse check helper)."""
    return [m.group(2) for m in _LEAF_RE.finditer(tree)]


class ParseTree:
    """Stage: + parse_tree (one bracketing per sentence; requires
    tok_word, tok_pos, dep_head, sent_begin/sent_end). The weights slot
    is the per-sentence ``_parse`` hook."""

    def _parse(self, words, tags, local_heads) -> str:
        """Per-sentence kernel hook (overridden by WeightedParseTree):
        the dependency projection."""
        return dep_to_constituency(words, tags, local_heads)

    @stage_kernel("parse")
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        out = []
        words_col = col(batch, "tok_word", cols)
        tags_col = col(batch, "tok_pos", cols)
        heads_col = col(batch, "dep_head", cols)
        sb_col = col(batch, "sent_begin", cols)
        se_col = col(batch, "sent_end", cols)
        for words, tags, heads, sbs, ses in zip(words_col, tags_col,
                                                heads_col, sb_col, se_col):
            out.append([self._parse(
                words[b:e], tags[b:e],
                [(h - b) if (h is not None and b <= h < e) else -1
                 for h in heads[b:e]]) for b, e in zip(sbs, ses)])
        cols["parse_tree"] = out
        return batch


parse_tree_batch = ParseTree()   # the default parse stage


class WeightedParseTree(ParseTree):
    """The parse stage with a TRAINED PCFG (models/pcfg_parser.py — the
    LexicalizedParser-shaped slot): the grammar JSON loads once, when
    the chain is built on the driver, and ships with the chain to its
    tasks. Sentences the grammar can't derive or that exceed the model's
    max_len fall back to the deterministic projection, mirroring
    ParserAnnotator's ``parse.maxlen`` flat-tree fallback
    (ParserAnnotator.java:126). Install it with
    ``register_weighted_models(parse_model_path=p)``.
    """

    def __init__(self, model_path: str):
        from corenlp_ray.models.pcfg_parser import PcfgParser

        self.model = PcfgParser.load(model_path)

    def _parse(self, words, tags, local_heads) -> str:
        return (self.model.parse(words, tags)
                or super()._parse(words, tags, local_heads))
