"""Sentence sentiment (the SentimentAnnotator's SLOT, not its model).

The reference scores sentiment with an RNTN over binarized constituency
trees (/root/reference/src/edu/stanford/nlp/pipeline/SentimentAnnotator.
java:40, sentiment/ package) — a constituency parse this engine does not
build (SURVEY §2.2 rows 12/23: out of v1 scope). This stage is the
DOCUMENTED APPROXIMATION filling the same output slot: a deterministic
valence-lexicon scorer with negation flipping and intensifier weighting
over the dependency tokens, emitting the reference's 5-class labels
(Very negative / Negative / Neutral / Positive / Very positive).

Adds: sent_sentiment list<string> (one label per sentence).
"""
from __future__ import annotations

from typing import List

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

POSITIVE = {
    "good": 1, "great": 2, "excellent": 2, "amazing": 2, "wonderful": 2,
    "best": 2, "love": 2, "happy": 1, "nice": 1, "fine": 1, "win": 1,
    "success": 1, "successful": 1, "improve": 1, "improved": 1,
    "strong": 1, "positive": 1, "beautiful": 2, "fantastic": 2,
    "perfect": 2, "enjoy": 1, "like": 1, "better": 1, "impressive": 1,
}
NEGATIVE = {
    "bad": -1, "terrible": -2, "awful": -2, "horrible": -2, "worst": -2,
    "hate": -2, "sad": -1, "poor": -1, "fail": -1, "failed": -1,
    "failure": -1, "lose": -1, "lost": -1, "weak": -1, "negative": -1,
    "ugly": -1, "disappointing": -2, "wrong": -1, "problem": -1,
    "worse": -1, "broken": -1, "die": -1, "died": -1, "kill": -2,
}
NEGATORS = {"not", "n't", "no", "never", "without", "none", "neither"}
INTENSIFIERS = {"very": 2.0, "extremely": 2.5, "really": 1.5,
                "quite": 1.3, "so": 1.5, "too": 1.3}

LABELS = ["Very negative", "Negative", "Neutral", "Positive",
          "Very positive"]


def sentiment_sentence(words: List[str]) -> str:
    """Pure kernel: one sentence's words → 5-class label."""
    score = 0.0
    lowers = [w.lower() for w in words]
    for i, lw in enumerate(lowers):
        v = POSITIVE.get(lw, 0) + NEGATIVE.get(lw, 0)
        if v == 0:
            continue
        mult = 1.0
        for j in range(max(0, i - 3), i):
            if lowers[j] in NEGATORS:
                mult *= -1.0
            elif lowers[j] in INTENSIFIERS:
                mult *= INTENSIFIERS[lowers[j]]
        score += v * mult
    if score <= -2:
        return LABELS[0]
    if score < 0:
        return LABELS[1]
    if score == 0:
        return LABELS[2]
    if score < 2:
        return LABELS[3]
    return LABELS[4]


def sentiment_batch(batch: pa.Table) -> pa.Table:
    """Stateless map_batches stage: + sent_sentiment (requires tok_*)."""
    out = []
    words_col = batch.column("tok_word").to_pylist()
    sb_col = batch.column("sent_begin").to_pylist()
    se_col = batch.column("sent_end").to_pylist()
    for words, sbs, ses in zip(words_col, sb_col, se_col):
        out.append([sentiment_sentence(words[b:e])
                    for b, e in zip(sbs, ses)])
    return batch.append_column("sent_sentiment",
                               pa.array(out, type=pa.list_(pa.string())))


# ----------------------------------------------- tree composition ----

def sentiment_tree(tree: str) -> str:
    """Compositional sentiment over a constituency bracketing (the
    RNTN-shaped slot, reference sentiment/SentimentCoreAnnotations +
    RNNCoreAnnotations: per-node scores composed bottom-up). Without the
    trained tensor, composition is deterministic: leaf valence from the
    lexicon; at each phrase node child scores sum, a negator child
    flips the sibling sum's sign, an intensifier child scales it —
    scope follows the TREE (the advantage over the flat window kernel:
    'not (good at all)' flips everything under the phrase, however far
    the window is).

    Input: a bracketing from stages/parse_tree.py. Output: 5-class
    label (same bands as sentiment_sentence)."""
    pos = 0

    def parse_node():
        nonlocal pos
        assert tree[pos] == "("
        pos += 1
        # label
        while pos < len(tree) and tree[pos] not in " ()":
            pos += 1
        children = []
        leaf_word = None
        while pos < len(tree):
            if tree[pos] == " ":
                pos += 1
                continue
            if tree[pos] == "(":
                children.append(parse_node())
            elif tree[pos] == ")":
                pos += 1
                break
            else:
                start = pos
                while pos < len(tree) and tree[pos] not in " ()":
                    pos += 1
                leaf_word = tree[start:pos]
        if leaf_word is not None and not children:
            lw = leaf_word.lower()
            if lw in NEGATORS:
                return ("mod", -1.0, 1.0)
            if lw in INTENSIFIERS:
                return ("mod", 1.0, INTENSIFIERS[lw])
            return ("val", float(POSITIVE.get(lw, 0)
                                 + NEGATIVE.get(lw, 0)), 0.0)
        total = 0.0
        flip = 1.0
        scale = 1.0
        for child in children:
            if child[0] == "mod":
                flip *= child[1]
                scale *= child[2]
            else:
                total += child[1]
        if total == 0.0 and (flip != 1.0 or scale != 1.0):
            # modifier with nothing local to modify — applies at the
            # parent ("was not" VP next to the ADJP it negates)
            return ("mod", flip, scale)
        return ("val", total * flip * scale, 0.0)

    try:
        node = parse_node()
    except (AssertionError, IndexError):
        return LABELS[2]
    score = node[1] if node[0] == "val" else 0.0
    if score <= -2:
        return LABELS[0]
    if score < 0:
        return LABELS[1]
    if score == 0:
        return LABELS[2]
    if score < 2:
        return LABELS[3]
    return LABELS[4]


class SentimentTree:
    """Stage: + sent_sentiment_tree (requires parse_tree). The weights
    slot is the per-tree ``_label`` hook."""

    def _label(self, tree: str) -> str:
        """Per-sentence kernel hook (overridden by WeightedSentimentTree):
        the deterministic tree scorer."""
        return sentiment_tree(tree)

    @stage_kernel("sentiment_tree")
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        cols["sent_sentiment_tree"] = [
            [self._label(t) for t in trees]
            for trees in col(batch, "parse_tree", cols)]
        return batch


sentiment_tree_batch = SentimentTree()   # the default stage


class WeightedSentimentTree(SentimentTree):
    """The sentiment_tree stage scored by an RNTN (models/rntn.py — the
    SentimentAnnotator's trained path, reference
    sentiment/SentimentModel.java + SentimentCostAndGradient
    backprop-through-structure). The weights load once, when the chain
    is built on the driver, and ship with the chain to its tasks; the
    stage emits the same sent_sentiment_tree column as the
    deterministic scorer, so the two are drop-in swappable via
    register_weighted_models(sentiment_model_path=p)."""

    def __init__(self, model_path: str):
        from corenlp_ray.models.rntn import RNTN

        self.model = RNTN.load(model_path)

    def _label(self, tree: str) -> str:
        return self.model.predict_label(tree)
