"""Statistical mention-ranking coreference — the trainable analogue of
the reference's DEFAULT coref system
(src/edu/stanford/nlp/coref/statistical/StatisticalCorefAlgorithm.java:35
greedy best-antecedent linking over pairwise scores with a link
threshold; pairwise features from
coref/statistical/FeatureExtractor.java — mention types, string/head
match, distance buckets, agreement; trained models in
coref/statistical/MetaFeatureExtractor + PairwiseModel).

A binary averaged perceptron over pair features scores (anaphor,
antecedent); inference links each entity mention to its best-scoring
earlier mention when the score clears 0 (the NO-ANTECEDENT option),
greedily left-to-right exactly like the reference's algorithm. The
pronoun pass and cluster finalization are shared with the sieve system
(stages/coref.resolve_pronouns / finalize_clusters).

Absent the licensed CoNLL-2012 corpus behind the reference's 63.27
CoNLL F1 (itest/.../StatisticalCorefCoNLLBenchmarkSlowITest.java:13),
``distill`` learns the deterministic sieve system's link decisions so
the scored path is real end-to-end; ``train`` takes gold chains in the
same shape and a real corpus drops in unchanged.
"""
from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages.coref import (_UF, _gender_of_person, _strip,
                                      coref_batch, finalize_clusters,
                                      resolve_coref, resolve_pronouns)

_ENTITY_TYPES = ("PERSON", "ORGANIZATION", "LOCATION", "MISC")
# candidate window: rank against at most this many previous mentions
# (the reference's maxMentionDistance; keeps inference O(n·W))
MAX_ANTECEDENTS = 50


def _head(stripped: str) -> str:
    """Mention head = last stripped token that is not a corporate
    suffix (same rule as the sieve system's head_of)."""
    excl = {"the", "this", "mr.", "miss", "mrs.", "dr.", "ms.",
            "inc.", "ltd.", "corp.", "'s", "'s"}
    toks = [t for t in stripped.split() if t not in excl]
    return toks[-1] if toks else ""


def _bucket(d: int) -> str:
    for hi in (0, 1, 2, 3, 5, 8, 16, 32, 64):
        if d <= hi:
            return str(hi)
    return "inf"


def pair_features(i: int, j: int, men, surfaces, stripped, heads,
                  sents) -> List[str]:
    """Features for linking anaphor j to antecedent i (i < j) —
    the FeatureExtractor.java inventory re-expressed over this
    engine's mention tuples."""
    bi, ei, ti, _ = men[i]
    bj, ej, tj, _ = men[j]
    si, sj = stripped[i], stripped[j]
    f = [
        "tp=" + ti + "|" + tj,
        "exact=" + str(surfaces[i].lower() == surfaces[j].lower()),
        "relax=" + str(bool(si) and si == sj),
        "head=" + str(bool(heads[i]) and heads[i] == heads[j]),
        "sdist=" + _bucket(sents[j] - sents[i]),
        "mdist=" + _bucket(j - i),
        "inc=" + str(bool(si) and bool(sj) and
                     set(sj.split()) <= set(si.split())),
    ]
    if ti == "PERSON" and tj == "PERSON":
        gi, gj = _gender_of_person(surfaces[i]), _gender_of_person(
            surfaces[j])
        f.append("gen=" + ("agree" if "u" in (gi, gj) or gi == gj
                           else "clash"))
        # last-name match ("Sanders" ← "Bernard Sanders")
        f.append("lname=" + str(si.split()[-1:] == sj.split()[-1:]))
    f.append("caseq=" + str(surfaces[i] == surfaces[j]))
    f.append("lenj=" + _bucket(len(sj.split())))
    return f


def _prep(words, men):
    surfaces = [" ".join(words[b:e]) for b, e, _, _ in men]
    stripped = [_strip(s) for s in surfaces]
    heads = [_head(s) for s in stripped]
    return surfaces, stripped, heads


class CorefRanker:
    """Binary averaged-perceptron pairwise model + greedy best-
    antecedent inference (StatisticalCorefAlgorithm's decoding)."""

    def __init__(self, weights: Dict[str, float] | None = None):
        self.weights = weights or {}

    def score(self, feats: Sequence[str]) -> float:
        w = self.weights
        return sum(w.get(f, 0.0) for f in feats)

    # ------------------------------------------------------- inference

    def resolve(self, words, tags, tok_sent, men):
        """Same contract as stages/coref.resolve_coref: →
        (men_chain, men_canonical, pron_idx, pron_canonical)."""
        nm = len(men)
        uf = _UF(nm)
        surfaces, stripped, heads = _prep(words, men)
        entity_like = [i for i in range(nm) if men[i][2] in _ENTITY_TYPES]
        sents = [tok_sent[b] if b < len(tok_sent) else 0
                 for b, _, _, _ in men]
        for pos, j in enumerate(entity_like):
            best, best_s = -1, 0.0   # 0 = the NO-ANTECEDENT option
            for i in entity_like[max(0, pos - MAX_ANTECEDENTS):pos]:
                s = self.score(pair_features(i, j, men, surfaces,
                                             stripped, heads, sents))
                if s > best_s:
                    best, best_s = i, s
            if best >= 0:
                uf.union(best, j)
        pron_idx, pron_men = resolve_pronouns(words, tags, tok_sent,
                                              men, surfaces)
        return finalize_clusters(uf, men, surfaces, entity_like,
                                 pron_idx, pron_men)

    # -------------------------------------------------------- training

    @classmethod
    def train(cls, docs, n_iter: int = 8, seed: int = 29) -> "CorefRanker":
        """docs: [(words, tags, tok_sent, men, gold_chain)] where
        gold_chain[k] is the cluster id of mention k. Perceptron on the
        greedy decision: for each anaphor, the best-scoring gold
        antecedent must outscore both 0 and every non-gold candidate
        (the reference trains the same pairwise objective with slack
        rescaling; PairwiseModel.java)."""
        import random

        w: Dict[str, float] = defaultdict(float)
        acc: Dict[str, float] = defaultdict(float)
        stamp: Dict[str, int] = defaultdict(int)
        step = 0

        def upd(f: str, d: float):
            nonlocal step
            acc[f] += (step - stamp[f]) * w[f]
            stamp[f] = step
            w[f] += d

        rng = random.Random(seed)
        order = list(range(len(docs)))
        for _ in range(n_iter):
            rng.shuffle(order)
            for di in order:
                words, tags, tok_sent, men, gold = docs[di]
                surfaces, stripped, heads = _prep(words, men)
                entity_like = [i for i in range(len(men))
                               if men[i][2] in _ENTITY_TYPES]
                sents = [tok_sent[b] if b < len(tok_sent) else 0
                         for b, _, _, _ in men]
                for pos, j in enumerate(entity_like):
                    cands = entity_like[max(0, pos - MAX_ANTECEDENTS):pos]
                    gold_c = [i for i in cands if gold[i] == gold[j]]
                    feats = {i: pair_features(i, j, men, surfaces,
                                              stripped, heads, sents)
                             for i in cands}
                    sc = {i: sum(w.get(f, 0.0) for f in feats[i])
                          for i in cands}
                    pred = max(cands, key=lambda i: sc[i]) \
                        if cands and max(sc.values()) > 0 else -1
                    want = max(gold_c, key=lambda i: sc[i]) \
                        if gold_c else -1
                    if pred != want:
                        if want >= 0:
                            for f in feats[want]:
                                upd(f, 1.0)
                        if pred >= 0:
                            for f in feats[pred]:
                                upd(f, -1.0)
                    step += 1
        out = {}
        for f, wt in w.items():
            total = acc[f] + (step - stamp[f]) * wt
            avg = total / max(step, 1)
            if abs(avg) > 1e-9:
                out[f] = round(avg, 6)
        return cls(weights=out)

    @classmethod
    def distill(cls, docs, n_iter: int = 8) -> "CorefRanker":
        """Teacher = the deterministic sieve system: label each doc's
        mentions with resolve_coref's chains, then train."""
        labeled = []
        for words, tags, tok_sent, men in docs:
            chain, _, _, _ = resolve_coref(words, tags, tok_sent, men)
            labeled.append((words, tags, tok_sent, men, chain))
        return cls.train(labeled, n_iter=n_iter)

    # ------------------------------------------------------------- io

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"weights": self.weights}, fh)

    @classmethod
    def load(cls, path: str) -> "CorefRanker":
        with open(path) as fh:
            return cls(weights=json.load(fh)["weights"])


class StatisticalCoref:
    """The coref stage with PINNED ranker weights, loaded once when the
    chain is built on the driver and shipped with it to its tasks —
    swap in via pipelines.kg.register_weighted_models(coref_model_path=...)."""

    def __init__(self, model_path: str):
        self.ranker = CorefRanker.load(model_path)

    @stage_kernel("coref")
    def __call__(self, batch, cols: dict):
        return coref_batch(batch, cols=cols, resolve=self.ranker.resolve)
