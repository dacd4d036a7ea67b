"""The chain's column store ``cols`` is the only interface between
stages: an annotator writes its columns into it and returns its input
table, and only ``registry.Chain`` builds Arrow columns, when the
annotated table is the output."""
import pyarrow as pa

import corenlp_ray.pipelines.kg as kg
from corenlp_ray.pipelines.registry import Chain, build
from corenlp_ray.sources.pages import synth_pages_table


def test_fused_stages_each_feed_a_later_reader():
    """Every annotator of the fused KG chain provides a column that a
    later stage or the triple extractor reads; a stage whose output
    nothing reads (cleanxml's ``text_extracted``) is not in it."""
    stages = kg.fused_stages()
    assert stages[-1].requires == kg.TRIPLE_COLUMNS
    for i, st in enumerate(stages[:-1]):
        read_later = {r for later in stages[i + 1:] for r in later.requires}
        assert read_later & set(st.provides), st.name


def test_fused_chain_annotators_return_their_input():
    """The fused chain run stage by stage over one ``cols``: each
    annotator returns its input table object (it builds no Arrow
    column) and leaves every column it provides in ``cols``; the
    extractor's triples equal the fused call's."""
    pages = synth_pages_table(n=12, seed=5)
    stages = kg.fused_stages()
    annot = kg.FusedDocAnnotator(stages)
    cols: dict = {}
    for st, stage in zip(stages[:-1], list(annot.chain.values())[:-1]):
        assert stage(pages, cols=cols) is pages, st.name
        assert set(st.provides) <= set(cols), st.name
    triples = annot.chain["triples"](pages, cols=cols)
    assert triples.num_rows > 0
    assert triples.equals(kg.FusedDocAnnotator(stages)(pages))


def test_chain_appends_declared_columns_once():
    """``Chain`` appends each provided column in chain order with the
    type its stage declares; ``coref.full`` replaces the mention columns
    ner provided instead of adding a second copy."""
    pages = synth_pages_table(n=6, seed=2)
    out = Chain(build(("coref", "coref.full")))(pages)
    assert len(out.column_names) == len(set(out.column_names))
    types = {}
    for st in build(("coref", "coref.full")):
        types.update(st.provides)
    for name, typ in types.items():
        assert out.schema.field(name).type == typ, name
    assert out.column_names[-8:] == list(kg.get("coref.full").provides)


def _doc(text: str) -> pa.Table:
    return pa.table({"url": ["u"], "text": [text], "lang": ["en"]})


def test_enhanced_and_quote_see_upstream_columns_in_cols(monkeypatch):
    """Inside a chain the upstream columns sit in ``cols``, not in the
    input table: enhanced still gets the lemmas and quote still runs the
    full sieve stack (pos, tok_sent, coref canonicals), the same as each
    stage called on its own over the annotated Arrow table."""
    import corenlp_ray.functions.enhanced_ud as enh

    seen = []
    real = enh.enhance_dependencies

    def spy(words, tags, lemmas, heads, labels):
        seen.append(lemmas)
        return real(words, tags, lemmas, heads, labels)

    monkeypatch.setattr(enh, "enhance_dependencies", spy)
    tbl = _doc('"We will win," said Mary Johnson. '
               'She works for the bank in Boston.')
    names = ("depparse", "coref", "enhanced", "quote")
    out = Chain(build(names))(tbl)
    assert seen and all(lem is not None for lem in seen)
    assert out.column("quo_sieve").to_pylist()[0] == ["tri-QVC"]

    upstream = Chain(build(("lemma", "depparse", "coref")))(tbl)
    alone = kg.get("quote").fn(enh.enhanced_batch(upstream))
    for name in ("enh_gov", "enh_dep", "enh_label", "quo_begin", "quo_end",
                 "quo_text", "quo_speaker", "quo_sieve"):
        assert out.column(name).equals(alone.column(name)), name
