"""Enhanced++ Universal Dependencies rewrites (Schuster & Manning 2016).

Basic-UD → enhanced edge list, the graph the reference's semgrex /
OpenIE consumers read. Rewrite inventory and naming pinned by the
reference's own test gold (/root/reference/test/src/edu/stanford/nlp/
trees/UniversalEnglishGrammaticalStructureTest.java: NON_COLLAPSED /
COLLAPSED / CC_PROCESSED cases; implementation reference
trees/UniversalEnglishGrammaticalStructure.java:38):

  1. case augmentation        nmod/obl + case-child lemma → nmod:of,
                              obl:from (fixed chains joined with _)
  2. passive agents           obl + "by" case under an aux:pass verb →
                              obl:agent (:1967,1976 gold)
  3. conj augmentation        conj + cc-child lemma → conj:and/conj:nor
  4. conjoined dependents     (G,g,L) core role + conj(g,d) → (G,d,L)
                              ("boys and girls are" → nsubj(are, girls))
  5. conjoined governors      conj(g,d) + (g,c,subj/obj) → (d,c,same)
                              ("big and honest" → nsubj(honest, Bill))
  6. controlled subjects      xcomp(g,d): obj-of-g (object control)
                              else subject-of-g → nsubj:xsubj(d, s),
                              propagated along xcomp chains (:1827)
  7. relative clauses         acl:relcl(n,v): ref(n, wh) and the
                              antecedent inherits the wh's role edge
                              (:1847-1886 gold)

Deliberate reduction (documented): no copy nodes (the reference's
"flies-2'" duplication for shared governors of conjoined obliques) —
edges attach to the original token instead; every other enhanced
consumer in this engine reads token-indexed edges.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col, has

_CORE_PROPAGATE = ("nsubj", "nsubj:pass", "csubj", "csubj:pass",
                   "obj", "iobj")
_WH_TAGS = {"WP", "WDT", "WP$", "WRB"}
_WH_LEMMAS = {"who", "whom", "whose", "which", "that", "where", "when"}
_SUBJ = ("nsubj", "nsubj:pass", "csubj", "csubj:pass", "nsubj:xsubj")

Edge = Tuple[int, int, str]


def _children(heads: Sequence[int], labels: Sequence[str], g: int,
              *labs: str) -> List[int]:
    return [d for d in range(len(heads))
            if heads[d] == g and (not labs or labels[d] in labs
                                  or any(labels[d].startswith(p + ":")
                                         for p in labs))]


def _case_lemma(words, lemmas, heads, labels, d: int) -> str | None:
    """Lemma string of d's case/mark marker, fixed chains joined by _."""
    for c in _children(heads, labels, d, "case"):
        parts = [lemmas[c] if lemmas else words[c].lower()]
        for f in _children(heads, labels, c, "fixed"):
            parts.append(lemmas[f] if lemmas else words[f].lower())
        return "_".join(p.lower() for p in parts)
    return None


def enhance_dependencies(words: Sequence[str], tags: Sequence[str],
                         lemmas: Sequence[str] | None,
                         heads: Sequence[int],
                         labels: Sequence[str]) -> List[Edge]:
    """One sentence of basic UD (heads sentence-local, -1 = root) →
    enhanced edge list [(gov, dep, label)], gov -1 for root."""
    n = len(words)
    edges: List[Edge] = [(heads[d], d, labels[d]) for d in range(n)]
    lem = [l.lower() for l in (lemmas if lemmas is not None
                               else [w.lower() for w in words])]

    # -- 7. relative clauses: ref + antecedent role inheritance --------
    for d in range(n):
        if labels[d] != "acl:relcl":
            continue
        noun, verb = heads[d], d
        wh = None
        for w in range(n):
            if tags[w] in _WH_TAGS and lem[w] in _WH_LEMMAS:
                # inside the relative clause: ancestor chain reaches verb
                a, hops = w, 0
                while a != -1 and hops <= n:
                    if a == verb:
                        wh = w
                        break
                    a, hops = heads[a], hops + 1
                if wh is not None:
                    break
        if wh is None:
            continue
        edges.append((noun, wh, "ref"))
        # the antecedent inherits the wh word's role edge
        for i, (g, dd, L) in enumerate(edges):
            if dd == wh and L not in ("ref",):
                if tags[wh] == "WP$":
                    # "whose": the possessed noun's nmod:poss re-points
                    edges[i] = (g, noun, L) if L == "nmod:poss" \
                        else edges[i]
                else:
                    edges[i] = (g, noun, L)
                break

    # -- 2. passive agents, 1. case augmentation -----------------------
    for i, (g, d, L) in enumerate(edges):
        if L not in ("nmod", "obl"):
            continue
        marker = _case_lemma(words, lem, heads, labels, d)
        if marker is None:
            continue
        if L == "obl" and marker == "by" and g >= 0 and \
                _children(heads, labels, g, "aux:pass"):
            edges[i] = (g, d, "obl:agent")
        else:
            edges[i] = (g, d, f"{L}:{marker}")

    # -- 2b. advcl subtyped by its marker ("counts contracts when they
    # are awarded" → advcl:when; infinitival/complementizer marks stay
    # bare) -------------------------------------------------------------
    for i, (g, d, L) in enumerate(edges):
        if L != "advcl":
            continue
        marks = _children(heads, labels, d, "mark") or \
            _children(heads, labels, d, "case")
        if marks and lem[marks[0]] not in ("to", "that", "whether"):
            edges[i] = (g, d, f"advcl:{lem[marks[0]]}")

    # -- 3. conj augmentation ------------------------------------------
    conj_pairs: List[Tuple[int, int]] = []
    for i, (g, d, L) in enumerate(edges):
        if L != "conj":
            continue
        cc = _children(heads, labels, d, "cc") or \
            _children(heads, labels, g, "cc")
        marker = lem[cc[0]] if cc else "and"
        if marker == "not":          # "but not X" → conj:negcc
            marker = "negcc"
        edges[i] = (g, d, f"conj:{marker}")
        conj_pairs.append((g, d))

    # -- 4./5. conj propagation ----------------------------------------
    base = list(edges)
    for g, d in conj_pairs:
        own_subj = {L for (gg, dd, L) in base if gg == d and L in _SUBJ}
        for (G, dep, L) in base:
            if dep == g and G != d and (
                    L in _CORE_PROPAGATE
                    or L.partition(":")[0] in ("nmod", "obl")):
                # conjoined dependent keeps its role under the shared
                # governor, SUBTYPE INCLUDED ("Activation of Akt and
                # NFkappaB" → nmod:of(Activation, NFkappaB); "boys and
                # girls are" → nsubj(are, girls))
                edges.append((G, d, L))
            elif G == g and dep != d and L in _SUBJ:
                # conjoined governor shares its SUBJECT (objects are
                # NOT distributed — "noticed a cockroach and departed"
                # adds nsubj to departed, never obj) unless the second
                # conjunct brought its own subject
                if own_subj:
                    continue
                edges.append((d, dep, L))

    # -- 6. xcomp controlled subjects ----------------------------------
    # fixpoint loop: an xcomp chain ("you like to be able to swim")
    # resolves outer-first, each pass letting the next link inherit
    # only VERBAL xcomps inherit a controlled subject — a nominal
    # predicate xcomp ("is becoming a problem") gets no xsubj edge
    # (UniversalEnglishGrammaticalStructure addExtraNSubj semantics)
    xcomps = [(g, d) for (g, d, L) in edges
              if L == "xcomp" and g >= 0 and tags[d].startswith("VB")]
    changed, guard = True, 0
    while changed and guard <= n:
        changed, guard = False, guard + 1
        for g, d in xcomps:
            if any(gg == d and L in _SUBJ for (gg, _, L) in edges):
                continue  # the embedded verb brought its own subject
            objs = [dd for (gg, dd, L) in edges
                    if gg == g and L in ("obj", "iobj")]
            subjs = objs or [dd for (gg, dd, L) in edges
                             if gg == g and L in _SUBJ]
            if subjs:
                edges.append((d, subjs[0], "nsubj:xsubj"))
                changed = True
    return edges


@stage_kernel("enhanced")
def enhanced_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """Stage: + enh_gov/enh_dep/enh_label (flattened edge lists per doc,
    token indices doc-global). Requires tok_pos, dep_head, dep_label,
    sent_begin/sent_end; uses tok_lemma if upstream. Stateless task
    stage — the kernel is pure Python over thin lists."""
    words_c = col(batch, "tok_word", cols)
    tags_c = col(batch, "tok_pos", cols)
    lem_c = col(batch, "tok_lemma", cols) \
        if has(batch, "tok_lemma", cols) else [None] * batch.num_rows
    dh_c = col(batch, "dep_head", cols)
    dl_c = col(batch, "dep_label", cols)
    sb_c = col(batch, "sent_begin", cols)
    se_c = col(batch, "sent_end", cols)
    gov_c, dep_c, lab_c = [], [], []
    for r in range(batch.num_rows):
        words, tags = words_c[r], tags_c[r]
        lem, dh, dl = lem_c[r], dh_c[r], dl_c[r]
        govs: List[int] = []
        deps: List[int] = []
        labs: List[str] = []
        for b, e in zip(sb_c[r], se_c[r]):
            heads = [(h - b) if h is not None and h >= 0 else -1
                     for h in dh[b:e]]
            for g, d, L in enhance_dependencies(
                    words[b:e], tags[b:e],
                    lem[b:e] if lem is not None else None,
                    heads, dl[b:e]):
                govs.append(g + b if g >= 0 else -1)
                deps.append(d + b)
                labs.append(L)
        gov_c.append(govs)
        dep_c.append(deps)
        lab_c.append(labs)
    cols.update(enh_gov=gov_c, enh_dep=dep_c, enh_label=lab_c)
    return batch
