"""RNTN sentiment slot (models/rntn.py) — the trained-tensor path for
SURVEY §2.2 row 23. Pins: tensor-composition training fits a small
PTB-sentiment-format treebank exactly (the Stanford Sentiment Treebank
drops into the same train()), distillation from the deterministic tree
scorer reproduces its decisions on this engine's projected trees,
persistence round-trips bit-exact predictions, and the actor stage
swaps in via register_weighted_models."""
import pyarrow as pa
import pytest

from corenlp_ray.models.rntn import RNTN, _binarize, parse_tree
from corenlp_ray.stages.sentiment import (LABELS, WeightedSentimentTree,
                                          sentiment_tree)

TOY_TREEBANK = [
    "(4 (2 (2 the) (2 movie)) (4 (2 was) (4 great)))",
    "(0 (2 (2 the) (2 movie)) (0 (2 was) (0 terrible)))",
    "(3 (2 it) (3 (2 was) (3 good)))",
    "(1 (2 it) (1 (2 was) (1 bad)))",
    "(2 (2 the) (2 table))",
    "(1 (2 (2 the) (2 film)) (1 (2 was) (1 (2 not) (3 good))))",
    "(3 (2 (2 the) (2 film)) (3 (2 was) (3 (2 not) (1 bad))))",
    "(4 (2 acting) (4 (2 was) (4 excellent)))",
    "(0 (2 plot) (0 (2 was) (0 awful)))",
]


@pytest.fixture(scope="module")
def toy_model():
    return RNTN.train(TOY_TREEBANK, d=10, n_epochs=100)


def test_treebank_fit_exact(toy_model):
    for t in TOY_TREEBANK:
        assert toy_model.predict_tree(t) == int(t[1]), t


def test_training_is_deterministic(toy_model):
    again = RNTN.train(TOY_TREEBANK, d=10, n_epochs=100)
    for t in TOY_TREEBANK:
        assert toy_model.predict_tree(t) == again.predict_tree(t)


def test_save_load_roundtrip(toy_model, tmp_path):
    p = str(tmp_path / "rntn.json")
    toy_model.save(p)
    back = RNTN.load(p)
    for t in TOY_TREEBANK:
        assert back.predict_tree(t) == toy_model.predict_tree(t)


def test_nary_binarization():
    n = _binarize(parse_tree("(2 (2 a) (2 b) (2 c) (2 d))"))
    # left-binarized: ((a b) c) d — every internal node binary
    def check(node):
        if node.word is None:
            assert len(node.children) == 2
            for c in node.children:
                check(c)
    check(n)


def _projected_trees(texts):
    from corenlp_ray.api import Document
    from corenlp_ray.stages.parse_tree import parse_tree_batch

    trees = []
    for text in texts:
        d = Document(text)
        d._need("depparse")
        tbl = parse_tree_batch(d._tbl)
        trees.extend(tbl.column("parse_tree").to_pylist()[0])
    return trees


def test_distill_reproduces_tree_scorer():
    texts = ["The movie was great.", "The plot was terrible.",
             "It was good.", "It was bad.", "The table is round.",
             "The film was not good.", "Acting was excellent."]
    trees = _projected_trees(texts)
    model = RNTN.distill(trees, d=10, n_epochs=100)
    agree = sum(model.predict_label(t) == sentiment_tree(t)
                for t in trees)
    # distillation fit on its own training trees (the licensed-SST
    # band needs the licensed treebank; this pins the learning path)
    assert agree == len(trees), [
        (t, model.predict_label(t), sentiment_tree(t)) for t in trees]


def test_weighted_stage_batch(tmp_path):
    texts = ["The movie was great.", "The plot was terrible."]
    trees = _projected_trees(texts)
    model = RNTN.distill(trees, d=10, n_epochs=100)
    p = str(tmp_path / "rntn.json")
    model.save(p)
    stage = WeightedSentimentTree(model_path=p)
    batch = pa.Table.from_pydict(
        {"parse_tree": [trees[:1], trees[1:]]},
        schema=pa.schema([("parse_tree", pa.list_(pa.string()))]))
    out = stage(batch)
    got = [labs for labs in
           out.column("sent_sentiment_tree").to_pylist()]
    assert got[0][0] in LABELS and got[1][0] in LABELS
    assert got[0][0] == sentiment_tree(trees[0])
    assert got[1][0] == sentiment_tree(trees[1])


def test_document_sentiments_use_registered_slot(tmp_path):
    """``Document.sentiments()`` runs the registered sentiment_tree stage:
    with an RNTN slot that labels praise "Very negative", it equals the
    chain's ``sent_sentiment_tree`` column, not the rule scorer."""
    from corenlp_ray.api import Document
    from corenlp_ray.pipelines import kg, registry

    inverted = ["(0 (0 (0 the) (0 movie)) (0 (0 was) (0 great)))",
                "(0 (0 it) (0 (0 was) (0 excellent)))"]
    p = str(tmp_path / "rntn.json")
    RNTN.train(inverted, d=10, n_epochs=100).save(p)
    text = "The movie was great."
    saved = registry.get("sentiment_tree")
    try:
        kg.register_weighted_models(sentiment_model_path=p)
        got = Document(text).sentiments()
        want = registry.Chain(registry.build(("sentiment_tree",)))(
            Document(text)._table()).column(
                "sent_sentiment_tree").to_pylist()[0]
    finally:
        registry.register(saved)
    assert got == want
    assert got != [sentiment_tree(t) for t in _projected_trees([text])]
