"""Averaged-perceptron POS tagger — the trainable analogue of the
reference's MaxentTagger (src/edu/stanford/nlp/tagger/maxent/
MaxentTagger.java:231; default 'left3words' feature architecture in
tagger/maxent/ExtractorFrames.java:133-200: words in a (-1,+1) window,
the previous two tags, suffixes and word shapes; greedy left-to-right
inference as in TestSentence.java).

Training is a standard averaged perceptron (Collins 2002) — fully
deterministic given the corpus order and seed. The reference's accuracy
band (≥ 97.21 on PTB §22-24) requires the licensed Penn Treebank, which
cannot ship here; the infrastructure is complete, so dropping a treebank
into ``train`` reproduces the setup. Absent that, ``distill`` trains on
the deterministic rule cascade's own output (same labels, learned form)
so the weighted inference path is real and exercised.

Model = {feature string → {tag → weight}} serialized to JSON; loaded
once in the stage's ``__init__``, when the chain is built on the driver
(pinned weights, shipped with the chain to its tasks).
"""
from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple


def _shape(word: str) -> str:
    # the reference tagger's actual shape extractor
    # (ExtractorWordShapeClassifier → WordShapeClassifier chris2)
    from corenlp_ray.functions.shapes import word_shape_chris2

    return word_shape_chris2(word)


def features(words: Sequence[str], i: int, prev: str, prev2: str) \
        -> List[str]:
    """Feature template: left3words arch + suffix/prefix/shape extractors
    (ExtractorFrames.java words(-1,1), tags(-2,-1), Extractor suffix(4),
    ExtractorWordShapeClassifier)."""
    w = words[i]
    lw = w.lower()
    wm1 = words[i - 1].lower() if i > 0 else "<s>"
    wp1 = words[i + 1].lower() if i + 1 < len(words) else "</s>"
    f = [
        "b",                       # bias
        "w=" + lw,
        "w-1=" + wm1,
        "w+1=" + wp1,
        "t-1=" + prev,
        "t-2t-1=" + prev2 + "|" + prev,
        "t-1w=" + prev + "|" + lw,
        "sh=" + _shape(w),
        "s1=" + lw[-1:],
        "s2=" + lw[-2:],
        "s3=" + lw[-3:],
        "s4=" + lw[-4:],
        "p1=" + lw[:1],
        "p2=" + lw[:2],
        "p3=" + lw[:3],
    ]
    if any(c.isdigit() for c in w):
        f.append("hasdigit")
    if "-" in w:
        f.append("hashyphen")
    if i == 0:
        f.append("first")
    elif w[:1].isupper():
        f.append("cap")
    return f


class PerceptronTagger:
    def __init__(self, weights: Dict[str, Dict[str, float]] | None = None,
                 tags: Iterable[str] = ()):
        self.weights: Dict[str, Dict[str, float]] = weights or {}
        self.tags: List[str] = sorted(tags) if tags else sorted(
            {t for fv in self.weights.values() for t in fv})

    # ------------------------------------------------------- inference ----
    def _predict(self, feats: List[str]) -> str:
        scores: Dict[str, float] = defaultdict(float)
        for f in feats:
            fv = self.weights.get(f)
            if fv:
                for tag, w in fv.items():
                    scores[tag] += w
        if not scores:
            return "NN"
        # deterministic argmax: score desc, tag asc
        return min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]

    def tag(self, words: Sequence[str]) -> List[str]:
        prev, prev2 = "<s>", "<s>"
        out = []
        for i in range(len(words)):
            t = self._predict(features(words, i, prev, prev2))
            out.append(t)
            prev2, prev = prev, t
        return out

    # -------------------------------------------------------- training ----
    @classmethod
    def train(cls, corpus: List[Tuple[List[str], List[str]]],
              n_iter: int = 8, seed: int = 13) -> "PerceptronTagger":
        """Averaged perceptron over (words, gold_tags) sentences.
        Deterministic: fixed seed drives the per-epoch shuffle."""
        import random

        self = cls()
        self.tags = sorted({t for _, ts in corpus for t in ts})
        w: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        acc: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        stamp: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        rng = random.Random(seed)
        order = list(range(len(corpus)))
        step = 0

        def upd(f: str, tag: str, delta: float):
            acc[f][tag] += (step - stamp[f][tag]) * w[f][tag]
            stamp[f][tag] = step
            w[f][tag] += delta

        for _ in range(n_iter):
            rng.shuffle(order)
            for si in order:
                words, gold = corpus[si]
                prev, prev2 = "<s>", "<s>"
                for i in range(len(words)):
                    feats = features(words, i, prev, prev2)
                    scores: Dict[str, float] = defaultdict(float)
                    for f in feats:
                        if f in w:
                            for tag, wt in w[f].items():
                                scores[tag] += wt
                    guess = min(scores.items(),
                                key=lambda kv: (-kv[1], kv[0]))[0] \
                        if scores else "NN"
                    if guess != gold[i]:
                        for f in feats:
                            upd(f, gold[i], 1.0)
                            upd(f, guess, -1.0)
                    step += 1
                    prev2, prev = prev, gold[i]   # gold history (training)
        # average
        self.weights = {}
        for f, fv in w.items():
            av = {}
            for tag, wt in fv.items():
                total = acc[f][tag] + (step - stamp[f][tag]) * wt
                avg = total / step
                if abs(avg) > 1e-9:
                    av[tag] = round(avg, 6)
            if av:
                self.weights[f] = av
        return self

    @classmethod
    def distill(cls, sentences: List[List[str]],
                n_iter: int = 6) -> "PerceptronTagger":
        """Train on the rule cascade's own output (teacher = deterministic
        cascade) — yields real learned weights exercising the identical
        inference path a treebank-trained model would use."""
        from corenlp_ray.stages.pos import tag_sentence

        corpus = [(s, tag_sentence(s)) for s in sentences if s]
        return cls.train(corpus, n_iter=n_iter)

    # ----------------------------------------------------- persistence ----
    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"tags": self.tags, "weights": self.weights}, fh)

    @classmethod
    def load(cls, path: str) -> "PerceptronTagger":
        with open(path) as fh:
            d = json.load(fh)
        return cls(weights=d["weights"], tags=d["tags"])


def read_conllu(path: str) -> List[Tuple[List[str], List[str]]]:
    """CoNLL-U → [(words, xpos_tags)] (the reference's tagged-data shape,
    e.g. data/edu/stanford/nlp/pipeline/en-example.conllu)."""
    out: List[Tuple[List[str], List[str]]] = []
    words: List[str] = []
    tags: List[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                if words:
                    out.append((words, tags))
                    words, tags = [], []
                continue
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if "." in cols[0] or "-" in cols[0]:
                continue          # skip empty/multiword rows
            words.append(cols[1])
            tags.append(cols[4] if cols[4] != "_" else cols[3])
    if words:
        out.append((words, tags))
    return out
