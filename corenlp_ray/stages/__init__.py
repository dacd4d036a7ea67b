"""Annotation-chain stages. Each module exposes

  * pure kernels (testable without Ray), and
  * a stage ``fn(batch, cols)``: a function, or a class whose
    ``__call__`` is one (model resources bind in ``__init__``).

A stage reads its inputs from the chain's column store ``cols``
(``_cache.col``), writes the columns it provides into it and returns
``batch`` unchanged: it only ADDS columns (the moral equivalent of the
reference's ``Annotator.requirementsSatisfied()`` contract — see
/root/reference/src/edu/stanford/nlp/pipeline/Annotator.java:73-80).
``pipelines.registry.Chain`` converts the columns to Arrow; a stage
called without ``cols`` runs as a one-stage chain. An extractor
(openie, kbp, relation) returns rows of its own schema instead.
"""
