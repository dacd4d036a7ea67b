"""Property-string pipeline API — the ``StanfordCoreNLP(properties)``
analogue (src/edu/stanford/nlp/pipeline/StanfordCoreNLP.java: the
``annotators`` property names a comma-separated annotator list;
``ensurePrerequisiteAnnotators`` :481-520 closes it over
``Annotator.DEFAULT_REQUIREMENTS`` and orders it canonically). A
reference user's ``annotators = tokenize,ssplit,pos,lemma,ner,kbp``
maps 1:1:

    >>> from corenlp_ray.pipeline_api import Pipeline
    >>> pl = Pipeline("tokenize,ssplit,pos,lemma,ner")
    >>> ann = pl.annotate(pages_ds)          # Dataset -> Dataset
    >>> trip = Pipeline("openie,kbp").triples(pages_ds)

Names map to registry stages (``ANNOTATOR_STAGES``); the stage registry
(pipelines/registry.py) closes them over their prerequisites and orders
them, the same resolution every other execution shape runs.
``annotate`` appends annotation columns by running the resolved stages
as one registry ``Chain`` (one task map over the Dataset);
``triples`` ends that same chain with an extractor: the fused
openie∪kbp extraction when either is requested, else the relation
extractor. Unknown annotator names raise ``ValueError`` (the reference
throws IllegalArgumentException for unknown annotators).
"""
from __future__ import annotations

from typing import List, Sequence

# CoreNLP annotator name → this engine's registry stage(s), plus any
# prerequisite the reference declares that no column read implies
# (natlog→lemma, quote→coref, openie→natlog). ssplit is fused into
# tokenize (WordToSentenceProcessor runs inside the same kernel);
# entitymentions/regexner/docdate are part of the ner stage; dcoref is
# the sieve coref. Names match Annotator.java's STANFORD_* constants.
ANNOTATOR_STAGES = {
    "cleanxml": ("cleanxml",),
    "tokenize": ("tokenize",),
    "ssplit": ("tokenize",),
    "pos": ("pos",),
    "lemma": ("lemma",),
    "ner": ("ner",),
    "regexner": ("ner",),
    "entitymentions": ("ner",),
    "docdate": ("ner",),
    "depparse": ("depparse",),
    "parse": ("parse",),
    "coref": ("coref",),
    "dcoref": ("coref",),
    "coref.mention": ("coref",),
    "natlog": ("lemma", "natlog"),
    "entitylink": ("entitylink",),
    "gender": ("gender",),
    "truecase": ("truecase",),
    "quote": ("coref", "quote"),
    "sentiment": ("parse", "sentiment_tree"),
    # triple producers: extraction runs in .triples() (the engine emits
    # triples as their own Dataset, not sentence-attached CoreMaps); the
    # columns their extractors read pull the rest of the chain
    "openie": ("natlog",),
    "kbp": (),
    "relation": (),
}


def resolve_annotators(annotators: str | Sequence[str]) -> List[str]:
    """Comma list → prerequisite-closed, chain-ordered registry stage
    list (ensurePrerequisiteAnnotators semantics)."""
    from corenlp_ray.pipelines.kg import PRODUCER_COLUMNS, build

    names = [a.strip().lower() for a in
             (annotators.split(",") if isinstance(annotators, str)
              else annotators) if a.strip()]
    unknown = [n for n in names if n not in ANNOTATOR_STAGES]
    if unknown:
        raise ValueError("unknown annotator(s): %s (known: %s)"
                         % (unknown, sorted(ANNOTATOR_STAGES)))
    stages = [s for n in names for s in ANNOTATOR_STAGES[n]]
    columns = [c for n in names for c in PRODUCER_COLUMNS.get(n, ())]
    return [st.name for st in build(stages, columns)]


# model-path property keys → register_weighted_models kwargs (the
# reference's pos.model / ner.model / depparse.model / parse.model /
# coref.statistical.ranking.model / kbp.model .ser.gz properties,
# DefaultPaths.java)
_MODEL_PROPERTIES = {
    "pos.model": "pos_model_path",
    "depparse.model": "dep_model_path",
    "ner.model": "ner_model_path",
    "parse.model": "parse_model_path",
    "kbp.model": "kbp_model_path",
    "coref.statistical.ranking.model": "coref_model_path",
    "coref.model": "coref_model_path",
    "sentiment.model": "sentiment_model_path",
    "relation.model": "relation_model_path",
}


class Pipeline:
    def __init__(self, annotators: str | Sequence[str]
                 = "tokenize,ssplit,pos,lemma,ner",
                 properties: dict | None = None):
        """``properties``: reference-style configuration. Supported:
        the model-path keys in ``_MODEL_PROPERTIES`` (each re-registers
        the named stage with pinned TRAINED weights, exactly like
        pointing the reference's .ser.gz properties at other files) and
        ``coref.algorithm`` ("dcoref"/"clustering" = the sieve default;
        "statistical" requires a coref model path property — the
        reference's CorefProperties.algorithm switch,
        coref/CorefProperties.java:35-41)."""
        self.annotators = [a.strip().lower() for a in
                           (annotators.split(",")
                            if isinstance(annotators, str)
                            else annotators) if a.strip()]
        self.stages = resolve_annotators(self.annotators)
        props = dict(properties or {})
        algo = props.pop("coref.algorithm", None)
        model_kwargs = {}
        for key, kwarg in _MODEL_PROPERTIES.items():
            if key in props:
                model_kwargs[kwarg] = props.pop(key)
        if algo == "statistical" and "coref_model_path" not in \
                model_kwargs:
            raise ValueError(
                "coref.algorithm=statistical needs a model path "
                "(coref.statistical.ranking.model=<weights.json>)")
        if algo not in (None, "statistical", "dcoref", "clustering"):
            raise ValueError("unknown coref.algorithm %r" % algo)
        if props:
            raise ValueError("unsupported properties: %s"
                             % sorted(props))
        if model_kwargs:
            from corenlp_ray.pipelines.kg import register_weighted_models

            register_weighted_models(**model_kwargs)

    def annotate(self, pages_ds):
        """pages/docs Dataset → Dataset with annotation columns
        appended (one registry chain)."""
        from corenlp_ray.pipelines.kg import apply

        return apply(pages_ds, tuple(self.stages))

    def triples(self, pages_ds):
        """pages Dataset → triples Dataset. openie/kbp run fused (one
        extraction pass); relation runs its own extractor (trained
        weights when ``relation.model`` is set). The annotation stages
        and the extractor are one chain. Raises unless at least one
        triple producer was requested."""
        from corenlp_ray.pipelines.kg import (extract, relation_stage,
                                              triples_stage)

        producers = {"openie", "kbp", "relation"} & set(self.annotators)
        if not producers:
            raise ValueError(
                "no triple producer among annotators %s — add openie, "
                "kbp, or relation" % self.annotators)
        only = producers & {"openie", "kbp"}
        extractor = triples_stage() if only else relation_stage()
        out = extract(pages_ds, extractor, self.stages)
        if len(only) == 1:
            import pyarrow as pa
            import pyarrow.compute as pc

            src = next(iter(only))

            def keep(b: pa.Table, _src=src) -> pa.Table:
                return b.filter(pc.equal(b.column("source"), _src))

            out = out.map_batches(keep, batch_format="pyarrow")
        return out
