"""Access to a chain call's column store ``cols``: column name → Python
list, one entry per row, plus memos of the pure per-sentence kernels.

``cols`` is the only interface between stages (the reference's one
``CoreMap`` per document, Annotation.java:49). A stage reads each input
with ``col`` (from ``cols`` if an upstream stage wrote it, else from the
input table, converted once and kept), writes every column it provides
into ``cols``, and returns its input table unchanged. Only
``pipelines.registry.Chain`` converts to Arrow, with the types declared
on the registry stages, and only when the annotated table is the
output: the fused KG chain ends in the triple extractor and converts no
annotation column. A stage called on its own runs as a one-stage chain
(``registry.stage_kernel``), so it gets a store too.

Web pages repeat sentences (navigation, footers, template lines): in a
16-page batch about 43% of the sentences repeat one seen earlier in the
same call (scripts/sentence_repeats.py). pos, ner, depparse and openie
therefore run their per-sentence kernel through ``memo``, once per
distinct input. The memos live in ``cols`` too, under ``(name, fn)``
keys (column names are strings), so they die with the call: no
instance state, nothing kept between batches, and a chain pickles the
same before and after a call.
"""
from __future__ import annotations

from functools import lru_cache


def col(batch, name: str, cols: dict):
    """The list of column ``name``: from ``cols``, or converted once from
    ``batch`` and kept there."""
    v = cols.get(name)
    if v is None:
        v = cols[name] = batch.column(name).to_pylist()
    return v


def has(batch, name: str, cols: dict) -> bool:
    """Whether an upstream stage or the input table holds ``name``."""
    return name in cols or name in batch.column_names


def memo(cols: dict, name: str, fn):
    """``fn`` memoized on its argument tuple for the rest of the call.

    Arguments must be hashable (pass tuples, not lists) and must be the
    kernel's whole input. A hit returns the object the first call
    built, so callers only read the result. The memo is an unbounded
    ``functools.lru_cache``: one hash and one C-level dict probe per
    call, with no Python frame of its own."""
    key = (name, fn)
    cached = cols.get(key)
    if cached is None:
        cached = cols[key] = lru_cache(maxsize=None)(fn)
    return cached
