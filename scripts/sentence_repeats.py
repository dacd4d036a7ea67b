"""Sentence repeats per chain call: how much work the per-call sentence
memos (``stages/_cache.memo``) save on each perfbench workload.

Each workload's inputs are cut into the calls its engine path makes:

- ``web_pages``: 16-page units (4 English docs at 4 pages each);
- ``long_pages``: one page per call (one 14-page round);
- ``kg_job``: the 500-doc corpus in 63-doc blocks at 8 pages per doc,
  the block size ``documents_to_triples`` reads on a 2-CPU cluster.

Every call runs the fused chain with a fresh ``cols`` cache. The table
gives calls, sentences, distinct sentences (the sum over calls of the
distinct word sequences in each call) and, per memo, the hit rate:
the share of that stage's kernel calls answered from the memo.

Run from the repository root:
    python scripts/sentence_repeats.py
    python scripts/sentence_repeats.py --seed 2 --web-units 32
"""
from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402

MEMOS = ("pos", "ner", "depparse", "openie")


def web_calls(seed: int, units: int):
    from perfbench import corpus

    from corenlp_ray.sources.pages import _docs_to_pages

    docs = corpus.documents_table(corpus.WEB_DOCS, corpus.WEB_CORPUS_SEED)
    stream = corpus.en_units(docs, seed, corpus.WEB_EN_DOCS_PER_UNIT)
    for _ in range(units):
        unit = docs.take(pa.array(next(stream)))
        unit = unit.filter(pc.equal(unit.column("lang"), "en"))
        yield _docs_to_pages(unit, corpus.WEB_PAGES_PER_DOC)


def long_calls(seed: int):
    from perfbench import corpus

    for key in next(corpus.long_rounds(seed)):
        yield corpus.long_page(key)


def kg_calls(block_docs: int = 63):
    from perfbench import corpus

    from corenlp_ray.sources.pages import _docs_to_pages

    docs = corpus.documents_table(corpus.KG_DOCS, corpus.KG_CORPUS_SEED)
    docs = docs.filter(pc.equal(docs.column("lang"), "en"))
    ids = docs.column("doc_id").to_pylist()
    for lo in range(0, corpus.KG_DOCS, block_docs):
        rows = [i for i, d in enumerate(ids) if lo <= d < lo + block_docs]
        yield _docs_to_pages(docs.take(pa.array(rows, pa.int64())),
                             corpus.KG_PAGES_PER_DOC)


def count(annotate, calls):
    """→ (calls, sentences, distinct, {memo: kernel runs})."""
    n_calls = sentences = 0
    runs = dict.fromkeys(MEMOS, 0)
    for pages in calls:
        cols: dict = {}
        annotate(pages, cols=cols)
        n_calls += 1
        sentences += sum(len(s) for s in cols["sent_begin"])
        for key, memo in cols.items():
            if isinstance(key, tuple) and key[0] in runs:
                runs[key[0]] += memo.cache_info().misses
    return n_calls, sentences, runs["pos"], runs


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1,
                    help="perfbench seed for web_pages and long_pages")
    ap.add_argument("--web-units", type=int, default=16,
                    help="web_pages units to count (16 = one round)")
    args = ap.parse_args(argv)

    from corenlp_ray.pipelines.kg import FusedDocAnnotator

    annotate = FusedDocAnnotator()
    workloads = {"web_pages": web_calls(args.seed, args.web_units),
                 "long_pages": long_calls(args.seed),
                 "kg_job": kg_calls()}
    print("| workload | calls | sentences | distinct | repeat share | "
          + " | ".join(f"{m} hit" for m in MEMOS) + " |")
    print("|---" * (5 + len(MEMOS)) + "|")
    for name, calls in workloads.items():
        n, sentences, distinct, runs = count(annotate, calls)
        hits = " | ".join("%.1f%%" % (100 * (1 - runs[m] / sentences))
                          for m in MEMOS)
        print("| %s | %d | %s | %s | %.1f%% | %s |"
              % (name, n, f"{sentences:,}", f"{distinct:,}",
                 100 * (1 - distinct / sentences), hits), flush=True)


if __name__ == "__main__":
    main()
