"""End-to-end integration of ALL trainable statistical slots at once:
distill tiny pos / depparse / kbp / coref models, register every
weighted path (the reference's equivalent: pointing pos.model /
depparse.model / kbp.model / coref.algorithm at .ser.gz files), and run
the full distributed annotate → extract chain with the weights pinned
in each chain actor. Guards the slot composition — each swap is unit-tested
alone; this pins that they coexist in one pipeline."""
import pyarrow as pa
import pytest

from corenlp_ray.api import Document

DOCS = [
    "John Smith works for Acme Corp. He leads Acme Corp.",
    "Mary Johnson was born in Springfield. Johnson lives there.",
    "Robert Brown studies robotics. Brown visited Georgetown.",
    "Globex Inc. acquired Initech. Globex Inc. grew quickly.",
    "Patricia Davis met Linda Martinez. Davis greeted Martinez.",
    "Stark Industries is headquartered in Madison.",
]


def _annotated_rows():
    rows = []
    for text in DOCS:
        d = Document(text)
        d._need(*Document._transitive("kbp"))
        rows.append(dict(d._row))
    return rows


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    from corenlp_ray.models.coref_ranker import CorefRanker
    from corenlp_ray.models.kbp_classifier import KbpClassifier
    from corenlp_ray.models.perceptron_tagger import PerceptronTagger
    from corenlp_ray.models.transition_parser import TransitionParser
    from corenlp_ray.stages.kbp import Mention

    tmp = tmp_path_factory.mktemp("weighted")
    rows = _annotated_rows()
    sents, kbp_sents, coref_docs = [], [], []
    for r in rows:
        men = list(zip(r["men_begin"], r["men_end"], r["men_ner"],
                       r["men_norm"]))
        coref_docs.append((r["tok_word"], r["tok_pos"], r["tok_sent"],
                           men))
        mens = [Mention(b, e, ty, nv, cv) for b, e, ty, nv, cv in zip(
            r["men_begin"], r["men_end"], r["men_ner"], r["men_norm"],
            r["men_canonical"])]
        ners = ["O"] * len(r["tok_word"])
        for m in mens:
            for k in range(m.b, min(m.e, len(ners))):
                ners[k] = m.type
        for b, e in zip(r["sent_begin"], r["sent_end"]):
            sents.append((r["tok_word"][b:e], r["tok_pos"][b:e]))
            heads = [(h - b) if h >= 0 else -1 for h in r["dep_head"][b:e]]
            l_mens = [Mention(m.b - b, m.e - b, m.type, m.norm,
                              m.canonical)
                      for m in mens if b <= m.b and m.e <= e]
            kbp_sents.append((r["tok_word"][b:e], r["tok_pos"][b:e],
                              r["tok_lemma"][b:e], heads,
                              r["dep_label"][b:e], ners[b:e], l_mens))
    paths = {}
    for name, model in (
            ("pos", PerceptronTagger.distill([w for w, _ in sents],
                                             n_iter=4)),
            ("dep", TransitionParser.distill(sents, n_iter=3)),
            ("kbp", KbpClassifier.distill(kbp_sents, n_iter=4)),
            ("coref", CorefRanker.distill(coref_docs, n_iter=4))):
        p = str(tmp / f"{name}.json")
        model.save(p)
        paths[name] = p
    return paths


def _keys(t: pa.Table):
    return sorted(zip(*(t.column(c).to_pylist() for c in (
        "url", "subj", "pred", "obj", "source"))))


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def test_all_weighted_slots_compose(ray_session, model_paths):
    """Full distributed chain with every statistical slot registered:
    weighted pos + depparse + coref stages, kbp ensemble with the
    classifier fallback — produces triples with the flagship schema.
    The fused chain runs the same registered slots, in-process and in
    the actor pool (whose stages the driver resolves), so its triples
    equal the staged path's."""
    import ray.data as rd

    from corenlp_ray.pipelines import kg as kg_mod
    from corenlp_ray.pipelines import registry
    from corenlp_ray.pipelines.registry import apply
    from corenlp_ray.sources.pages import synth_pages_table

    saved, saved_paths = registry.registry(), dict(kg_mod._MODEL_PATHS)
    try:
        kg_mod.register_weighted_models(
            pos_model_path=model_paths["pos"],
            dep_model_path=model_paths["dep"],
            kbp_model_path=model_paths["kbp"],
            coref_model_path=model_paths["coref"])
        docs = rd.from_arrow(pa.Table.from_pydict(
            {"url": [str(i) for i in range(len(DOCS))],
             "text": list(DOCS)},
            schema=pa.schema([("url", pa.string()),
                              ("text", pa.string())])))
        ann = apply(docs, ("lemma", "depparse", "coref"),
                    distributed=True)
        t = _collect(kg_mod.extract_triples(ann, distributed=True))
        assert t.num_rows > 0
        for c in ("url", "subj", "pred", "obj", "confidence", "source"):
            assert c in t.column_names, c
        assert set(t.column("source").to_pylist()) <= {"openie", "kbp"}

        pages = synth_pages_table(n=12, seed=41)
        staged = _keys(_collect(kg_mod.extract_triples(
            kg_mod.annotate_pages(rd.from_arrow(pages), distributed=False),
            distributed=False)))
        assert staged
        assert _keys(kg_mod.FusedDocAnnotator()(pages)) == staged
        pooled = kg_mod.pages_to_triples(rd.from_arrow(pages),
                                         distributed=True)
        assert _keys(_collect(pooled)) == staged
    finally:
        for st in saved.values():
            registry.register(st)
        kg_mod._MODEL_PATHS = saved_paths
    assert registry.get("pos").fn.__name__ != "WeightedPosTagger"


def test_relation_model_property_reaches_extractor(ray_session, tmp_path):
    """``relation.model`` binds trained weights into the relation
    extractor of ``Pipeline("relation").triples`` (the rule cascade
    must not run in its place)."""
    import ray.data as rd

    from corenlp_ray.models.relation_classifier import RelationClassifier
    from corenlp_ray.pipeline_api import Pipeline
    from corenlp_ray.pipelines import kg as kg_mod
    from corenlp_ray.pipelines.planted import _relation_text
    from corenlp_ray.stages.relation import (RelationExtractor,
                                             relation_batch)

    texts = [_relation_text(i) for i in range(10)]
    docs = pa.Table.from_pydict({"url": [str(i) for i in range(10)],
                                 "text": texts})
    ann = kg_mod.apply(rd.from_arrow(docs), ("lemma", "ner", "depparse"),
                       distributed=False)
    ann = _collect(ann)
    p = str(tmp_path / "relation.json")
    RelationClassifier.distill(ann.to_pylist(), n_iter=2).save(p)
    want = RelationExtractor(model_path=p)(ann).to_pylist()
    assert want and want != relation_batch(ann).to_pylist()

    saved_paths = dict(kg_mod._MODEL_PATHS)
    try:
        pl = Pipeline("relation", distributed=False,
                      properties={"relation.model": p})
        got = pl.triples(rd.from_arrow(docs)).take_all()
    finally:
        kg_mod._MODEL_PATHS = saved_paths

    def key(r):
        return (r["url"], r["sent_idx"], r["subj"], r["rel"], r["obj"])

    assert sorted(got, key=key) == sorted(want, key=key)
