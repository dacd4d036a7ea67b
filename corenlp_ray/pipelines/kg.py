"""The flagship end-to-end KG-construction pipeline.

pages → tokenize+ssplit → pos → lemma → ner → depparse → coref →
(openie ∪ kbp) triples → canonicalization shuffle → KG store.

The annotation chain is not written out here: the fused chain
(``FusedDocAnnotator``) is what the stage registry resolves for the
columns the triple extractor reads (``TRIPLE_COLUMNS``), in registration
order. ``annotate_pages``, the CLI and the catalog run
``ANNOTATE_STAGES``: that plus cleanxml. Each, and the simple API, is a
registry ``Chain``, so a slot installed with ``register_weighted_models``
reaches all of them.

Execution shapes (SURVEY §7.3):
  * per-document chain: one ``Chain`` built on the driver, run by the
    plain tasks of one map per Dataset pass (``registry.launch``)
  * shuffles:           alias-map two-phase aggregate; (subj,pred,obj) dedup
  * layout:             hash(subj)-bucketed Parquet

The default registry below is the annotator-name table
(cf. /root/reference/src/edu/stanford/nlp/pipeline/Annotator.java:90-119).
"""
from __future__ import annotations

from dataclasses import replace
from importlib import import_module

import pyarrow as pa

from corenlp_ray.ops._partition import cluster_cpus as _ncpus  # perfbench
from corenlp_ray.pipelines.registry import (Chain, Stage, apply, build,
                                            extract, get, launch, register,
                                            stage_kernel)
from corenlp_ray.stages.canonicalize import build_kg, resolve_alias_scale
from corenlp_ray.stages.coref import coref_batch
from corenlp_ray.stages.depparse import DepParser
from corenlp_ray.stages.extract import extract_text_batch
from corenlp_ray.stages.kbp import KbpExtractor
from corenlp_ray.stages.lemma import lemma_batch
from corenlp_ray.stages.ner import NerTagger
from corenlp_ray.stages.openie import TRIPLE_COLUMNS, openie_batch
from corenlp_ray.stages.pos import PosTagger
from corenlp_ray.stages.relation import RELATION_COLUMNS, RelationExtractor
from corenlp_ray.stages.tokenize import tokenize_ssplit_batch


# ---- the annotator registry (names mirror the reference's canon) ----
# Registration order is chain order, and the first stage registered with
# a column is its default provider. Each stage declares the Arrow type
# of every column it provides.
_STRS, _I32S = pa.list_(pa.string()), pa.list_(pa.int32())
register(Stage("cleanxml", (), dict(text_extracted=pa.string()),
               extract_text_batch))
register(Stage("tokenize", (),
               dict(tok_word=_STRS, tok_orig=_STRS, tok_begin=_I32S,
                    tok_end=_I32S, tok_sent=_I32S, sent_begin=_I32S,
                    sent_end=_I32S), tokenize_ssplit_batch))
register(Stage("pos", ("tok_word",), dict(tok_pos=_STRS), PosTagger))
register(Stage("lemma", ("tok_pos",), dict(tok_lemma=_STRS), lemma_batch))
_NER_COLUMNS = dict(tok_ner=_STRS, men_begin=_I32S, men_end=_I32S,
                    men_sent=_I32S, men_ner=_STRS, men_norm=_STRS)
register(Stage("ner", ("tok_pos",), _NER_COLUMNS, NerTagger))
register(Stage("depparse", ("tok_pos",),
               dict(dep_head=_I32S, dep_label=_STRS), DepParser))
_COREF_COLUMNS = dict(men_chain=_I32S, men_canonical=_STRS, pron_idx=_I32S,
                      pron_canonical=_STRS)
register(Stage("coref", ("men_begin", "tok_pos"), _COREF_COLUMNS,
               coref_batch))
from corenlp_ray.stages.coref import coref_full_batch  # noqa: E402
# the full sieve stack: an alternative provider, run only when named;
# it replaces the mention columns too
_FULL = ("men_begin", "men_end", "men_sent", "men_ner", "men_norm")
register(Stage("coref.full", ("men_begin", "tok_pos"), {
    c: _NER_COLUMNS[c] for c in _FULL} | _COREF_COLUMNS, coref_full_batch))

# optional annotators (not in the flagship chain; demand-driven)
from corenlp_ray.stages.entitylink import entitylink_batch  # noqa: E402
from corenlp_ray.stages.misc_annotators import (  # noqa: E402
    gender_batch, quote_batch, truecase_batch)
from corenlp_ray.stages.natlog import natlog_batch  # noqa: E402

register(Stage("natlog", ("dep_head",), dict(tok_polarity=_STRS),
               natlog_batch))
register(Stage("entitylink", ("men_begin",), dict(men_link=_STRS),
               entitylink_batch))
register(Stage("gender", ("men_begin",), dict(men_gender=_STRS),
               gender_batch))
register(Stage("truecase", ("tok_word",), dict(tok_truecase=_STRS),
               truecase_batch))

from corenlp_ray.functions.enhanced_ud import enhanced_batch  # noqa: E402

register(Stage("enhanced", ("dep_head", "tok_pos"),
               dict(enh_gov=_I32S, enh_dep=_I32S, enh_label=_STRS),
               enhanced_batch))
register(Stage("quote", ("tok_lemma", "men_begin"),
               dict(quo_begin=_I32S, quo_end=_I32S, quo_text=_STRS,
                    quo_speaker=_STRS, quo_sieve=_STRS), quote_batch))

from corenlp_ray.stages.parse_tree import parse_tree_batch  # noqa: E402

register(Stage("parse", ("tok_pos", "dep_head"), dict(parse_tree=_STRS),
               parse_tree_batch))

from corenlp_ray.stages.sentiment import sentiment_tree_batch  # noqa: E402

register(Stage("sentiment_tree", ("parse_tree",),
               dict(sent_sentiment_tree=_STRS), sentiment_tree_batch))

# A triple producer's prerequisites: the columns its extractor reads.
PRODUCER_COLUMNS = {"openie": TRIPLE_COLUMNS, "kbp": TRIPLE_COLUMNS,
                    "relation": RELATION_COLUMNS}

# The annotation chain callers get back as a table: cleanxml plus every
# stage the triple extractor's columns need.
ANNOTATE_STAGES = tuple(st.name for st in build(("cleanxml",),
                                                TRIPLE_COLUMNS))


# register_weighted_models keyword → (slot, corenlp_ray module, trained-
# weights class). A stage slot re-registers that stage as the class with
# its weights pinned; a triple-producer slot (no class) records the path
# in _MODEL_PATHS for its extractor stage, which the driver resolves.
_WEIGHTED_SLOTS = {
    "pos_model_path": ("pos", "stages.pos", "WeightedPosTagger"),
    "dep_model_path": ("depparse", "stages.depparse", "WeightedDepParser"),
    "ner_model_path": ("ner", "stages.ner", "WeightedNerTagger"),
    "coref_model_path": ("coref", "models.coref_ranker", "StatisticalCoref"),
    "parse_model_path": ("parse", "stages.parse_tree", "WeightedParseTree"),
    "sentiment_model_path": ("sentiment_tree", "stages.sentiment",
                             "WeightedSentimentTree"),
    "kbp_model_path": ("kbp", None, None),
    "relation_model_path": ("relation", None, None),
}
_MODEL_PATHS: dict = {}


def register_weighted_models(**model_paths: str | None) -> None:
    """Swap rule cascades for TRAINED weights, one slot per keyword in
    ``_WEIGHTED_SLOTS``: the pos, depparse, ner, coref, parse and
    sentiment_tree stages, and the kbp and relation extractors. Every
    pipeline built afterwards runs the weighted path: the staged chain,
    the fused KG chain, the Pipeline API and the simple API. The
    reference's equivalent is pointing pos.model / depparse.model /
    kbp.model / ... at different .ser.gz files."""
    unknown = sorted(set(model_paths) - set(_WEIGHTED_SLOTS))
    if unknown:
        raise TypeError(f"unknown model slot(s): {unknown}")
    for key, path in model_paths.items():
        slot, module, cls = _WEIGHTED_SLOTS[key]
        if path is None:
            continue
        if module is None:
            _MODEL_PATHS[slot] = path
            continue
        fn = getattr(import_module(f"corenlp_ray.{module}"), cls)
        register(replace(get(slot), fn=fn, init_kwargs={"model_path": path}))


def annotate_pages(pages_ds):
    """pages Dataset → fully annotated docs Dataset (append-only columns)."""
    return apply(pages_ds, ANNOTATE_STAGES)


class TripleExtractor:
    """Fused openie+kbp extraction in ONE pass over the annotated docs
    (a union of two branches would re-execute the whole upstream
    annotation chain once per branch — the lazy-Dataset double-consume
    trap). A chain's last stage: the KBP pattern banks bind once per
    chain. Both kernels read the ``TRIPLE_COLUMNS`` from the chain's
    column store."""

    def __init__(self, kbp_classifier_path=None):
        self.kbp = KbpExtractor(classifier_path=kbp_classifier_path
                                or _MODEL_PATHS.get("kbp"))

    @stage_kernel()
    def __call__(self, batch, cols: dict):
        return pa.concat_tables([openie_batch(batch, cols=cols),
                                 self.kbp(batch, cols=cols)])


def triples_stage() -> Stage:
    """``TripleExtractor`` as a chain stage, with the registered kbp
    weights."""
    return Stage("triples", TRIPLE_COLUMNS, (), TripleExtractor,
                 {"kbp_classifier_path": _MODEL_PATHS.get("kbp")})


def relation_stage() -> Stage:
    """``RelationExtractor`` as a chain stage: trained weights when the
    relation slot is registered, else the rule cascade."""
    return Stage("relation", RELATION_COLUMNS, (), RelationExtractor,
                 {"model_path": _MODEL_PATHS.get("relation")})


def extract_triples(docs_ds):
    """annotated docs → triples Dataset (openie ∪ kbp, single pass)."""
    return extract(docs_ds, triples_stage())


def extract_relations(docs_ds):
    """annotated docs → ACE relation rows."""
    return extract(docs_ds, relation_stage())


def fused_stages():
    """The flagship chain: the providers of the ``TRIPLE_COLUMNS``, then
    the triple extractor. No cleanxml: nothing in it reads
    ``text_extracted`` (tokenize reads ``text``)."""
    return build((), TRIPLE_COLUMNS) + [triples_stage()]


class FusedDocAnnotator(Chain):
    """The whole per-document KG chain as one ``Chain``: the resolved
    annotation stages, then ``TripleExtractor``.

    This is the flagship execution shape: the chain is per-row pure, so
    fusing it removes inter-operator block transfers, and one map of
    equal tasks balances itself. ``stages`` defaults to
    ``fused_stages()`` resolved in this process; ``launch`` builds the
    chain on the driver and ships it to the tasks."""

    def __init__(self, stages=None):
        super().__init__(stages or fused_stages())
        # per-stage handles for harnesses that time the chain a stage
        # at a time
        self.pos, self.ner, self.dep, self.triples = map(
            self.chain.get, ("pos", "ner", "depparse", "triples"))


class DocsToTriples(FusedDocAnnotator):
    """documents rows → synthesized English pages → triples, all inside
    ONE map operator — the lang filter and page synthesis run in the
    same task as the chain, so no page block crosses the object store
    (explicit fusion instead of relying on the planner's
    operator-fusion heuristics)."""

    def __init__(self, pages_per_doc: int = 1, stages=None):
        super().__init__(stages)
        self.pages_per_doc = pages_per_doc

    def __call__(self, batch):
        import pyarrow.compute as pc

        from corenlp_ray.sources.pages import _docs_to_pages

        # a page has its document's language, so filter the documents
        # and synthesize only the English pages
        docs = batch.filter(pc.equal(batch.column("lang"), "en"))
        return super().__call__(_docs_to_pages(docs, self.pages_per_doc))


def pages_to_triples(pages_ds):
    """pages → triples via the fused annotator chain."""
    return launch(pages_ds, FusedDocAnnotator, {"stages": fused_stages()},
                  batch_size=16)


def documents_to_triples(sf_dir: str, pages_per_doc: int | None = None):
    """The flagship front half: documents.parquet → triples Dataset, one
    fused task map, read split for sub-second task granularity."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    if pages_per_doc is None:
        pages_per_doc = int(os.environ.get("GRAFT_PAGES_PER_DOC", "1"))
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    # granularity: ~4 tasks per CPU balances the map without drowning
    # the scheduler in per-task dispatch and chain-unpickle overhead
    blocks = max(8, min(n_docs, 4 * _ncpus()))
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "text"],
                           override_num_blocks=blocks)
    return launch(docs, DocsToTriples, {"stages": fused_stages(),
                                        "pages_per_doc": pages_per_doc})


def triples_to_kg(triples, num_buckets: int = 16):
    """The shared KG tail. The triples table is a stage boundary consumed
    twice (alias-map aggregate + dedup shuffle), so it is pinned once in
    the object store (triples ≪ pages, the safe-materialize regime)."""
    # coalesce the ~hundreds of annotation-task micro-blocks before the
    # wide phases — groupby fan-out scales with block count, and triples
    # rows are tiny relative to the pages they came from
    triples = triples.repartition(_ncpus()).materialize()
    # broadcast dict up to ALIAS_VOCAB_BROADCAST_MAX norms, bucketed-join
    # rewrite against the same per-bucket canonical picks above it
    alias, triples = resolve_alias_scale(triples)
    return build_kg(triples, alias_map=alias, num_buckets=num_buckets)


def kg_pipeline(pages_ds, num_buckets: int = 16):
    """Full pipeline: pages → KG Dataset (not yet written).

    English-only (documented limitation, SURVEY §2.2 row 26): non-en rows
    are dropped at the head — prune before any expensive stage."""
    import pyarrow.compute as pc

    pages_ds = pages_ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en")),
        batch_format="pyarrow")
    return triples_to_kg(pages_to_triples(pages_ds), num_buckets)


def kg_from_documents(sf_dir: str, num_buckets: int = 16,
                      pages_per_doc: int | None = None):
    """Flagship end-to-end: documents.parquet → KG Dataset via the fused
    task map + canonicalization shuffle."""
    return triples_to_kg(
        documents_to_triples(sf_dir, pages_per_doc=pages_per_doc),
        num_buckets)
