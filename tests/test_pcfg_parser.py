"""Trainable PCFG constituency slot (models/pcfg_parser.py — the
LexicalizedParser-shaped slot, parser/lexparser/LexicalizedParser.java;
stage fallback semantics per ParserAnnotator.java:126 parse.maxlen):
CKY Viterbi over POS-tag terminals, right binarization with @-labels,
unary closure, distillation from the dep→constituency projection."""
import pyarrow as pa
import pytest

from corenlp_ray.models.pcfg_parser import PcfgParser, parse_bracketing
from corenlp_ray.stages.depparse import parse_sentence
from corenlp_ray.stages.parse_tree import (WeightedParseTree,
                                           dep_to_constituency,
                                           tree_leaves)
from corenlp_ray.stages.pos import tag_sentence

SENTS = ["The quick dog chased a cat .",
         "John Smith works for Acme Corp .",
         "Mary gave the book to John .",
         "A very old man slept quietly ."]


def _pairs_and_trees():
    pairs, trees = [], []
    for s in SENTS:
        w = s.split()
        t = tag_sentence(w)
        pairs.append((w, t))
        h, _ = parse_sentence(w, t)
        trees.append(dep_to_constituency(w, t, h))
    return pairs, trees


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    pairs, _ = _pairs_and_trees()
    m = PcfgParser.distill(pairs)
    p = str(tmp_path_factory.mktemp("pcfg") / "m.json")
    m.save(p)
    return m, p


def test_parse_bracketing_round_trip():
    t = parse_bracketing("(ROOT (S (NP (DT the) (NN dog)) (VP (VBD ran))))")
    assert t[0] == "ROOT"
    s = t[1][0]
    assert s[0] == "S" and s[1][0][0] == "NP"
    assert s[1][0][1] == [("DT", "the"), ("NN", "dog")]


def test_distilled_grammar_fits_teacher_trees(model):
    m, _ = model
    pairs, trees = _pairs_and_trees()
    for (w, t), gold in zip(pairs, trees):
        assert m.parse(w, t) == gold


def test_generalizes_to_unseen_same_shape(model):
    m, _ = model
    w = "The lazy cat chased a dog .".split()
    t = tag_sentence(w)
    got = m.parse(w, t)
    assert got is not None and tree_leaves(got) == w
    assert got.startswith("(ROOT (S ")


def test_maxlen_guard_returns_none(model):
    m, _ = model
    assert m.parse(["a"] * (m.max_len + 1), ["DT"] * (m.max_len + 1)) is None


def test_save_load_identical_parses(model, tmp_path):
    m, p = model
    m2 = PcfgParser.load(p)
    pairs, _ = _pairs_and_trees()
    assert all(m2.parse(w, t) == m.parse(w, t) for w, t in pairs)


def test_weighted_stage_with_projection_fallback(model):
    m, p = model
    stage = WeightedParseTree(model_path=p)
    w = SENTS[0].split()
    t = tag_sentence(w)
    h, _ = parse_sentence(w, t)
    long_w = ["word"] * (m.max_len + 2)
    long_t = ["NN"] * (m.max_len + 2)
    long_h = [-1] + [0] * (m.max_len + 1)
    batch = pa.Table.from_pylist([{
        "tok_word": w + long_w, "tok_pos": t + long_t,
        "dep_head": h + [x + len(w) if x >= 0 else -1 for x in long_h],
        "sent_begin": [0, len(w)],
        "sent_end": [len(w), len(w) + len(long_w)],
    }])
    out = stage(batch).column("parse_tree")[0].as_py()
    assert out[0] == m.parse(w, t)                 # grammar path
    assert tree_leaves(out[1]) == long_w           # projection fallback
    assert out[1].startswith("(ROOT (S ")


def test_register_weighted_parse_stage(ray_session, model):
    import ray.data as rd

    from corenlp_ray.pipelines import kg as kg_mod
    from corenlp_ray.pipelines import registry
    from corenlp_ray.pipelines.registry import apply

    _, p = model
    saved = registry.get("parse")
    try:
        kg_mod.register_weighted_models(parse_model_path=p)
        docs = rd.from_arrow(pa.Table.from_pydict(
            {"url": ["a"], "text": ["The quick dog chased a cat."]},
            schema=pa.schema([("url", pa.string()),
                              ("text", pa.string())])))
        ann = apply(docs, ("tokenize", "pos", "lemma", "ner", "depparse",
                           "parse"))
        rows = ann.take_all()
        assert rows and rows[0]["parse_tree"][0].startswith("(ROOT")
    finally:
        registry.register(saved)
