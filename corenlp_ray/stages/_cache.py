"""Per-call cache for the fused per-document chain: Arrow→pylist
columns, and memos of the pure per-sentence kernels.

Every stage kernel converts its input list columns with ``to_pylist()``;
in the fused chain (pipelines/kg.FusedDocAnnotator) consecutive kernels
re-convert the SAME columns (tok_word alone is read by six stages —
measured ~15-20% of the chain's wall time). The fused path threads one
mutable ``cols`` dict through the kernels: reads hit the cache, and each
stage deposits the Python lists it just built (it has them in hand
before constructing the Arrow arrays).

Web pages repeat sentences (navigation, footers, template lines): in a
16-page batch about 43% of the sentences repeat one seen earlier in the
same call (scripts/sentence_repeats.py). pos, ner, depparse and openie
therefore run their per-sentence kernel through ``memo``, once per
distinct input. The memos live in ``cols`` too, under ``(name, fn)``
keys (column names are strings), so they die with the call: no
instance state, nothing kept between batches, and a chain pickles the
same before and after a call.

Staged / registry execution passes no dict: columns convert per stage
and each stage memoizes within its own call. Kernel outputs are
identical either way (tests/test_fused_vs_staged.py,
tests/test_sentence_memo.py).
"""
from __future__ import annotations


def col(batch, name: str, cols: dict | None):
    """pylist of ``batch[name]``, via the cache when one is threaded."""
    if cols is None:
        return batch.column(name).to_pylist()
    v = cols.get(name)
    if v is None:
        v = batch.column(name).to_pylist()
        cols[name] = v
    return v


def put(cols: dict | None, **named_lists) -> None:
    """Deposit freshly built pylists for downstream stages."""
    if cols is not None:
        cols.update(named_lists)


def memo(cols: dict | None, name: str, fn):
    """``fn`` memoized on its argument tuple for the rest of the call.

    Arguments must be hashable (pass tuples, not lists) and must be the
    kernel's whole input. A hit returns the object the first call
    built, so callers only read the result. The memo is an unbounded
    ``functools.lru_cache``: one hash and one C-level dict probe per
    call, with no Python frame of its own."""
    from functools import lru_cache

    key = (name, fn)
    cached = None if cols is None else cols.get(key)
    if cached is None:
        cached = lru_cache(maxsize=None)(fn)
        if cols is not None:
            cols[key] = cached
    return cached
