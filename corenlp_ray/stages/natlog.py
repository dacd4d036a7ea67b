"""Natural-logic annotations: operator scopes + token polarity (the
NaturalLogicAnnotator analogue).

The reference marks quantifier operator instances and per-token
monotonicity polarity via semgrex patterns over the dependency graph
(/root/reference/src/edu/stanford/nlp/naturalli/NaturalLogicAnnotator.java:
36,405-526). This engine implements the deterministic core: a table of
monotonicity operators (quantifiers/negation) with (subj-restrictor,
body) monotonicities; tokens inside a downward-monotone scope get
polarity "down", doubly-negated flips back to "up".

Scopes over this engine's dep trees: a quantifier DT/negation attaches to
a head; its restrictor scope = that head's subtree; its body scope = the
rest of the clause to the right (the reference's default-scope behavior
for determiners).

Adds: tok_polarity list<string> ("up" | "down" | "flat").
"""
from __future__ import annotations

from typing import List, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

# operator → (restrictor monotonicity, body monotonicity)
# cf. the reference's OPERATORS table semantics (naturalli/Operator.java)
OPERATORS = {
    "all": ("down", "up"), "every": ("down", "up"), "each": ("down", "up"),
    "no": ("down", "down"), "none": ("down", "down"),
    "not": (None, "down"), "n't": (None, "down"), "never": (None, "down"),
    "without": (None, "down"), "nobody": (None, "down"),
    "nothing": (None, "down"), "few": ("down", "down"),
    "some": ("up", "up"), "a": ("up", "up"), "an": ("up", "up"),
    "the": ("up", "up"), "most": ("flat", "up"), "many": ("up", "up"),
    "several": ("up", "up"),
}


def _flip(p: str) -> str:
    return {"up": "down", "down": "up", "flat": "flat"}[p]


def polarity_sentence(words: List[str], tags: List[str],
                      heads: List[int], labels: List[str]) -> List[str]:
    """Pure kernel: per-token polarity for one sentence (sentence-local
    heads, -1 root)."""
    n = len(words)
    pol = ["up"] * n
    children = {}
    for i, h in enumerate(heads):
        if h >= 0:
            children.setdefault(h, []).append(i)

    def subtree(root: int) -> List[int]:
        out = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for c in children.get(x, ()):
                out.append(c)
                stack.append(c)
        return out

    for i in range(n):
        lw = words[i].lower()
        op = OPERATORS.get(lw)
        if op is None or lw in ("a", "an", "the"):  # vacuous ups skipped
            continue
        restr_mono, body_mono = op
        h = heads[i]
        if restr_mono and restr_mono != "up" and h >= 0:
            # restrictor scope: the governor's subtree (minus the operator)
            for t in subtree(h):
                if t != i and t <= max(subtree(h)):
                    if restr_mono == "down":
                        pol[t] = _flip(pol[t])
                    elif restr_mono == "flat":
                        pol[t] = "flat"
        if body_mono and body_mono != "up":
            if restr_mono is None and h >= 0:
                # negation adverb ("did not visit Paris"): scope = the
                # governed predicate's yield RIGHT of the operator —
                # robust to 'not' attaching to the verb (UD) or its aux
                g = h
                if labels[h] in ("aux", "aux:pass", "cop") \
                        and heads[h] >= 0:
                    g = heads[h]
                scope = [t for t in subtree(g) if t > i]
                if not scope:
                    scope = list(range(i + 1, n))
                for t in scope:
                    if body_mono == "down":
                        pol[t] = _flip(pol[t])
                    else:
                        pol[t] = "flat"
                continue
            # quantifier body scope: everything right of the governed
            # phrase (the restrictor NP)
            right_of = max(subtree(h)) if h >= 0 else i
            for t in range(right_of + 1, n):
                if body_mono == "down":
                    pol[t] = _flip(pol[t])
                else:
                    pol[t] = "flat"
    return pol


@stage_kernel("natlog")
def natlog_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """Stateless stage: + tok_polarity (requires dep_*)."""
    from corenlp_ray.stages.openie import local_heads

    out = []
    words_col = col(batch, "tok_word", cols)
    tags_col = col(batch, "tok_pos", cols)
    heads_col = col(batch, "dep_head", cols)
    labels_col = col(batch, "dep_label", cols)
    sb_col = col(batch, "sent_begin", cols)
    se_col = col(batch, "sent_end", cols)
    for r in range(batch.num_rows):
        words, tags = words_col[r], tags_col[r]
        heads, labels = heads_col[r], labels_col[r]
        pol = ["up"] * len(words)
        for b, e in zip(sb_col[r], se_col[r]):
            pol[b:e] = polarity_sentence(words[b:e], tags[b:e],
                                         local_heads(heads, b, e),
                                         labels[b:e])
        out.append(pol)
    cols["tok_polarity"] = out
    return batch
