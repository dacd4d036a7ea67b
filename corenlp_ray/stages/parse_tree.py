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


class WeightedParseTree:
    """Actor-pool stage parsing with a TRAINED PCFG
    (models/pcfg_parser.py — the LexicalizedParser-shaped slot): the
    grammar JSON loads ONCE per actor. Sentences the grammar can't
    derive or that exceed the model's max_len fall back to the
    deterministic projection, mirroring ParserAnnotator's
    ``parse.maxlen`` flat-tree fallback (ParserAnnotator.java:126).

    Use: ds.map_batches(WeightedParseTree,
                        fn_constructor_kwargs={"model_path": p},
                        batch_format="pyarrow", concurrency=N)
    """

    def __init__(self, model_path: str):
        from corenlp_ray.models.pcfg_parser import PcfgParser

        self.model = PcfgParser.load(model_path)

    def __call__(self, batch: pa.Table,
                 cols: dict | None = None) -> pa.Table:
        from corenlp_ray.stages._cache import col

        out = []
        words_col = col(batch, "tok_word", cols)
        tags_col = col(batch, "tok_pos", cols)
        heads_col = col(batch, "dep_head", cols)
        sb_col = col(batch, "sent_begin", cols)
        se_col = col(batch, "sent_end", cols)
        for words, tags, heads, sbs, ses in zip(words_col, tags_col,
                                                heads_col, sb_col, se_col):
            trees = []
            for b, e in zip(sbs, ses):
                t = self.model.parse(words[b:e], tags[b:e])
                if t is None:
                    local = [(h - b) if (h is not None and b <= h < e)
                             else -1 for h in heads[b:e]]
                    t = dep_to_constituency(words[b:e], tags[b:e], local)
                trees.append(t)
            out.append(trees)
        return batch.append_column(
            "parse_tree", pa.array(out, type=pa.list_(pa.string())))


def parse_tree_batch(batch: pa.Table,
                     cols: dict | None = None) -> pa.Table:
    """+ parse_tree (one bracketing per sentence; requires tok_word,
    tok_pos, dep_head, sent_begin/sent_end)."""
    from corenlp_ray.stages._cache import col

    out = []
    words_col = col(batch, "tok_word", cols)
    tags_col = col(batch, "tok_pos", cols)
    heads_col = col(batch, "dep_head", cols)
    sb_col = col(batch, "sent_begin", cols)
    se_col = col(batch, "sent_end", cols)
    for words, tags, heads, sbs, ses in zip(words_col, tags_col,
                                            heads_col, sb_col, se_col):
        trees = []
        for b, e in zip(sbs, ses):
            local_heads = [(h - b) if (h is not None and h >= b and h < e)
                           else -1 for h in heads[b:e]]
            trees.append(dep_to_constituency(words[b:e], tags[b:e],
                                             local_heads))
        out.append(trees)
    return batch.append_column(
        "parse_tree", pa.array(out, type=pa.list_(pa.string())))
