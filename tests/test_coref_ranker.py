"""Statistical mention-ranking coref slot (models/coref_ranker.py) —
the trainable analogue of the reference's default statistical system
(coref/statistical/StatisticalCorefAlgorithm.java:35 greedy decoding,
FeatureExtractor.java pairwise features, PairwiseModel training;
published band 63.27 CoNLL F1 in
itest/.../StatisticalCorefCoNLLBenchmarkSlowITest.java:13)."""
import pyarrow as pa
import pytest

from corenlp_ray.api import Document
from corenlp_ray.models.coref_ranker import (CorefRanker, StatisticalCoref,
                                             pair_features)
from corenlp_ray.stages.coref import resolve_coref

DOCS = [
    "John Smith joined Acme Corp. Smith leads the company. "
    "John Smith lives in Springfield.",
    "Mary Johnson founded Globex Inc. Johnson sold Globex Inc. in 1999. "
    "Mary Johnson retired.",
    "Robert Brown met Patricia Davis. Brown greeted Davis warmly. "
    "Robert Brown left.",
    "Stark Industries opened a plant. Stark Industries hired engineers. "
    "The plant is in Madison.",
    "Barbara Taylor visited Dover. Taylor liked Dover. "
    "Barbara Taylor returned home.",
    "Cyberdyne Systems bought Initech. Cyberdyne Systems grew. "
    "Initech dissolved.",
]


def _doc_tuple(text):
    d = Document(text)
    d._need("ner")
    r = d._row
    men = list(zip(r["men_begin"], r["men_end"], r["men_ner"],
                   r["men_norm"]))
    return r["tok_word"], r["tok_pos"], r["tok_sent"], men


@pytest.fixture(scope="module")
def distilled(tmp_path_factory):
    docs = [_doc_tuple(t) for t in DOCS]
    ranker = CorefRanker.distill(docs, n_iter=10)
    path = str(tmp_path_factory.mktemp("coref") / "ranker.json")
    ranker.save(path)
    return ranker, path, docs


def test_pair_features_shape():
    words, tags, tok_sent, men = _doc_tuple(DOCS[0])
    surfaces = [" ".join(words[b:e]) for b, e, _, _ in men]
    from corenlp_ray.models.coref_ranker import _head, _prep
    surfaces, stripped, heads = _prep(words, men)
    sents = [tok_sent[b] for b, _, _, _ in men]
    f = pair_features(0, 1, men, surfaces, stripped, heads, sents)
    groups = {x.split("=")[0] for x in f}
    # the FeatureExtractor.java-derived template groups
    assert {"tp", "exact", "relax", "head", "sdist", "mdist",
            "inc"} <= groups


def test_distill_learns_sieve_links(distilled):
    """The ranker reproduces the teacher's cluster partition on its
    training docs (same-chain relation, label-id agnostic)."""
    ranker, _, docs = distilled
    for words, tags, tok_sent, men in docs:
        want, _, _, _ = resolve_coref(words, tags, tok_sent, men)
        got, _, _, _ = ranker.resolve(words, tags, tok_sent, men)
        n = len(men)
        pairs_w = {(i, j) for i in range(n) for j in range(n)
                   if i < j and want[i] == want[j]}
        pairs_g = {(i, j) for i in range(n) for j in range(n)
                   if i < j and got[i] == got[j]}
        assert pairs_w == pairs_g, (words, pairs_w ^ pairs_g)


def test_generalizes_to_unseen_doc(distilled):
    """Held-out doc with the same coreference shapes: exact-match and
    head-match (last-name) chains must link."""
    ranker, _, _ = distilled
    words, tags, tok_sent, men = _doc_tuple(
        "Susan Clark runs Vandelay Industries. Clark promoted staff. "
        "Susan Clark spoke.")
    chain, canon, _, _ = ranker.resolve(words, tags, tok_sent, men)
    persons = [k for k, m in enumerate(men) if m[2] == "PERSON"]
    assert len({chain[k] for k in persons}) == 1
    assert all(canon[k] == "Susan Clark" for k in persons)


def test_save_load_roundtrip(distilled):
    ranker, path, docs = distilled
    loaded = CorefRanker.load(path)
    words, tags, tok_sent, men = docs[0]
    assert loaded.resolve(words, tags, tok_sent, men) == \
        ranker.resolve(words, tags, tok_sent, men)


def test_pinned_weight_actor_stage(distilled):
    """StatisticalCoref produces the same columns as coref_batch and
    resolves with the pinned weights."""
    _, path, _ = distilled
    stage = StatisticalCoref(model_path=path)
    d = Document(DOCS[0])
    d._need("ner")
    tbl = pa.Table.from_pydict({k: [v] for k, v in d._row.items()})
    out = stage(tbl)
    for c in ("men_chain", "men_canonical", "pron_idx",
              "pron_canonical"):
        assert c in out.column_names
    canon = out.column("men_canonical")[0].as_py()
    assert "John Smith" in canon


def test_register_swap(distilled):
    """register_weighted_models(coref_model_path=...) re-registers the
    coref stage as the pinned-weight actor class; restore after."""
    from corenlp_ray.pipelines import registry
    from corenlp_ray.pipelines.kg import register_weighted_models
    from corenlp_ray.stages.coref import coref_batch

    _, path, _ = distilled
    before = registry.get("coref")
    try:
        register_weighted_models(coref_model_path=path)
        st = registry.get("coref")
        assert st.fn is StatisticalCoref
        assert st.init_kwargs["model_path"] == path
    finally:
        registry.register(before)
    assert registry.get("coref").fn is coref_batch
