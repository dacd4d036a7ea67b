"""The flagship end-to-end KG-construction pipeline.

pages → extract_text → tokenize+ssplit → pos → lemma → ner → depparse →
coref → (openie ∪ kbp) triples → canonicalization shuffle → KG store.

The annotation chain is not written out here: it is what the stage
registry resolves for ``ANNOTATE_STAGES`` — cleanxml plus every stage
the triple extractor's columns need, in registration order. The fused
actor (``FusedDocAnnotator``), ``annotate_pages`` + ``extract_triples``
and the simple API all run that resolution as a registry ``Chain``, so
a slot installed with ``register_weighted_models`` reaches each of them.

Execution shapes (SURVEY §7.3):
  * per-document chain: one ``Chain`` per actor (model state pinned per
    actor), one pool per Dataset pass (``registry.launch``)
  * shuffles:           alias-map two-phase aggregate; (subj,pred,obj) dedup
  * layout:             hash(subj)-bucketed Parquet

The default registry below is the annotator-name table
(cf. /root/reference/src/edu/stanford/nlp/pipeline/Annotator.java:90-119).
"""
from __future__ import annotations

from dataclasses import replace
from importlib import import_module

from corenlp_ray.pipelines.registry import (Chain, Stage, _ncpus, apply,
                                            build, extract, get, launch,
                                            register)
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
# a column is its default provider.
register(Stage("cleanxml", (), ("text_extracted",), extract_text_batch))
register(Stage("tokenize", (),
               ("tok_word", "tok_orig", "tok_begin", "tok_end", "tok_sent",
                "sent_begin", "sent_end"), tokenize_ssplit_batch))
register(Stage("pos", ("tok_word",), ("tok_pos",), PosTagger))
register(Stage("lemma", ("tok_pos",), ("tok_lemma",), lemma_batch))
register(Stage("ner", ("tok_pos",),
               ("tok_ner", "men_begin", "men_end", "men_sent", "men_ner",
                "men_norm"), NerTagger))
register(Stage("depparse", ("tok_pos",), ("dep_head", "dep_label"),
               DepParser))
_COREF_COLUMNS = ("men_chain", "men_canonical", "pron_idx", "pron_canonical")
register(Stage("coref", ("men_begin", "tok_pos"), _COREF_COLUMNS,
               coref_batch))
from corenlp_ray.stages.coref import coref_full_batch  # noqa: E402
# the full sieve stack: an alternative provider, run only when named
register(Stage("coref.full", ("men_begin", "tok_pos"), _COREF_COLUMNS,
               coref_full_batch))

# optional annotators (not in the flagship chain; demand-driven)
from corenlp_ray.stages.entitylink import entitylink_batch  # noqa: E402
from corenlp_ray.stages.misc_annotators import (  # noqa: E402
    gender_batch, quote_batch, truecase_batch)
from corenlp_ray.stages.natlog import natlog_batch  # noqa: E402

register(Stage("natlog", ("dep_head",), ("tok_polarity",), natlog_batch))
register(Stage("entitylink", ("men_begin",), ("men_link",),
               entitylink_batch))
register(Stage("gender", ("men_begin",), ("men_gender",), gender_batch))
register(Stage("truecase", ("tok_word",), ("tok_truecase",),
               truecase_batch))

from corenlp_ray.functions.enhanced_ud import enhanced_batch  # noqa: E402

register(Stage("enhanced", ("dep_head", "tok_pos"),
               ("enh_gov", "enh_dep", "enh_label"), enhanced_batch))
register(Stage("quote", ("tok_lemma", "men_begin"),
               ("quo_begin", "quo_text", "quo_speaker"), quote_batch))

from corenlp_ray.stages.parse_tree import parse_tree_batch  # noqa: E402

register(Stage("parse", ("tok_pos", "dep_head"), ("parse_tree",),
               parse_tree_batch))

from corenlp_ray.stages.sentiment import sentiment_tree_batch  # noqa: E402

register(Stage("sentiment_tree", ("parse_tree",),
               ("sent_sentiment_tree",), sentiment_tree_batch))

# A triple producer's prerequisites: the columns its extractor reads.
PRODUCER_COLUMNS = {"openie": TRIPLE_COLUMNS, "kbp": TRIPLE_COLUMNS,
                    "relation": RELATION_COLUMNS}

# The flagship annotation chain: cleanxml plus every stage the triple
# extractor's columns need.
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


def annotate_pages(pages_ds, distributed: bool = True):
    """pages Dataset → fully annotated docs Dataset (append-only columns)."""
    return apply(pages_ds, ANNOTATE_STAGES, distributed=distributed)


class TripleExtractor:
    """Fused openie+kbp extraction in ONE pass over the annotated docs
    (a union of two branches would re-execute the whole upstream
    annotation chain once per branch — the lazy-Dataset double-consume
    trap). A chain's last stage: the KBP pattern banks bind once per
    chain. Both kernels read the ``TRIPLE_COLUMNS`` through one pylist
    cache, so each column is converted from Arrow once."""

    def __init__(self, kbp_classifier_path=None):
        self.kbp = KbpExtractor(classifier_path=kbp_classifier_path
                                or _MODEL_PATHS.get("kbp"))

    def __call__(self, batch, cols=None):
        import pyarrow as pa

        # the chain's cache (stages/_cache.py) already holds most of the
        # columns; the first kernel deposits the rest for the second
        cols = {} if cols is None else cols
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


def extract_triples(docs_ds, distributed: bool = True):
    """annotated docs → triples Dataset (openie ∪ kbp, single pass)."""
    return extract(docs_ds, triples_stage(), distributed=distributed)


def extract_relations(docs_ds, distributed: bool = True):
    """annotated docs → ACE relation rows."""
    return extract(docs_ds, relation_stage(), distributed=distributed)


def fused_stages():
    """The flagship chain: ``ANNOTATE_STAGES`` resolved, then the triple
    extractor."""
    return build(ANNOTATE_STAGES) + [triples_stage()]


class FusedDocAnnotator(Chain):
    """The whole per-document KG chain as one ``Chain``: the resolved
    annotation stages, then ``TripleExtractor``.

    This is the flagship execution shape: the chain is per-row pure, so
    fusing it removes inter-pool block transfers and the pool-balance
    problem (chained pools bottleneck on the heaviest stage; one pool
    self-balances). ``stages`` defaults to ``fused_stages()`` resolved
    in this process; ``launch`` ships the driver's resolution to the
    actors."""

    def __init__(self, stages=None):
        super().__init__(stages or fused_stages())
        # per-stage handles for harnesses that time the chain a stage
        # at a time
        self.pos, self.ner, self.dep, self.triples = map(
            self.chain.get, ("pos", "ner", "depparse", "triples"))


class DocsToTriples(FusedDocAnnotator):
    """documents rows → synthesized English pages → triples, all inside
    ONE actor pool — page synthesis and the lang filter run on the pool
    too, so no task stage competes with the reserved actors for CPUs
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


def pages_to_triples(pages_ds, distributed: bool = True):
    """pages → triples via the fused annotator chain."""
    return launch(pages_ds, FusedDocAnnotator, {"stages": fused_stages()},
                  distributed, batch_size=16)


def documents_to_triples(sf_dir: str, pages_per_doc: int | None = None):
    """The flagship front half: documents.parquet → triples Dataset, one
    fused actor pool, read split for sub-second task granularity."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    if pages_per_doc is None:
        pages_per_doc = int(os.environ.get("GRAFT_PAGES_PER_DOC", "1"))
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    # granularity: ~4 tasks per actor balances the pool without drowning
    # the scheduler in per-task dispatch overhead
    blocks = max(8, min(n_docs, 4 * _ncpus()))
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "text"],
                           override_num_blocks=blocks)
    return launch(docs, DocsToTriples, {"stages": fused_stages(),
                                        "pages_per_doc": pages_per_doc})


def _triples_to_kg(triples, num_buckets: int):
    """The shared KG tail. The triples table is a stage boundary consumed
    twice (alias-map aggregate + dedup shuffle), so it is pinned once in
    the object store (triples ≪ pages, the safe-materialize regime)."""
    # coalesce the ~hundreds of annotation-task micro-blocks before the
    # wide phases — groupby fan-out scales with block count, and triples
    # rows are tiny relative to the pages they came from
    triples = triples.repartition(_ncpus()).materialize()
    # broadcast dict below ALIAS_VOCAB_BROADCAST_MAX surface forms, fully
    # distributed argmax + bucketed-join rewrite above it
    alias, triples = resolve_alias_scale(triples)
    return build_kg(triples, alias_map=alias, num_buckets=num_buckets)


def kg_pipeline(pages_ds, num_buckets: int = 16, distributed: bool = True):
    """Full pipeline: pages → KG Dataset (not yet written).

    English-only (documented limitation, SURVEY §2.2 row 26): non-en rows
    are dropped at the head — prune before any expensive stage."""
    import pyarrow.compute as pc

    pages_ds = pages_ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en")),
        batch_format="pyarrow")
    return _triples_to_kg(pages_to_triples(pages_ds, distributed=distributed),
                          num_buckets)


def kg_from_documents(sf_dir: str, num_buckets: int = 16,
                      pages_per_doc: int | None = None):
    """Flagship end-to-end: documents.parquet → KG Dataset via the fused
    pool + canonicalization shuffle."""
    return _triples_to_kg(
        documents_to_triples(sf_dir, pages_per_doc=pages_per_doc),
        num_buckets)
