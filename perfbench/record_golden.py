#!/usr/bin/env python3
"""Record the expected outputs of every workload into golden.json.

    python3 perfbench/record_golden.py

Run from the repository root at the commit whose outputs are the
reference. For each web_pages document and each long_pages bank page it
records (triple count, multiset hash over (subj, pred, obj), token
count); for kg_job the written KG's row count and multiset hash over
(subj, pred, obj, support_count), with its English page and token
totals. The fused call and the stage-by-stage chain must agree.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _chunks(seq, n):
    for i in range(0, len(seq), n):
        yield seq[i:i + n]


def _traced(annot, batch, pages_per_doc):
    import spans

    return spans.traced_chain(annot, batch, spans.Tracer("record"),
                              spans.ChainCounts(), pages_per_doc)


def record_web(corpus) -> dict:
    import pyarrow as pa

    from corenlp_ray.pipelines.kg import DocsToTriples

    ppd = corpus.WEB_PAGES_PER_DOC
    docs = corpus.documents_table(corpus.WEB_DOCS, corpus.WEB_CORPUS_SEED)
    langs = docs.column("lang").to_pylist()
    english = [i for i, lang in enumerate(langs) if lang == "en"]
    annot = DocsToTriples(pages_per_doc=ppd)
    out = {}
    for idx in _chunks(english, corpus.WEB_EN_DOCS_PER_UNIT):
        batch = docs.take(pa.array(idx))
        fused = annot(batch)
        traced, tokens = _traced(annot, batch, ppd)
        if corpus.triple_digest(traced) != corpus.triple_digest(fused):
            raise RuntimeError(f"traced != fused on docs {idx}")
        page_doc = [int(u.rsplit("/", 1)[1]) // ppd
                    for u in fused.column("url").to_pylist()]
        for k, doc in enumerate(idx):
            rows = [j for j, d in enumerate(page_doc) if d == doc]
            n, h = corpus.triple_digest(fused.take(pa.array(rows, pa.int64())))
            out[str(doc)] = [n, h, sum(tokens[k * ppd:(k + 1) * ppd])]
    return out


def record_long(corpus) -> dict:
    from corenlp_ray.pipelines.kg import FusedDocAnnotator

    annot = FusedDocAnnotator()
    out = {}
    for key in corpus.long_bank_keys():
        page = corpus.long_page(key)
        fused = annot(page)
        traced, tokens = _traced(annot, page, None)
        digest = corpus.triple_digest(fused)
        if corpus.triple_digest(traced) != digest:
            raise RuntimeError(f"traced != fused on long page {key}")
        out[key] = [digest[0], digest[1], tokens[0]]
    return out


def record_kg(corpus, workloads) -> dict:
    import pyarrow as pa

    from corenlp_ray.pipelines.kg import DocsToTriples

    ppd = corpus.KG_PAGES_PER_DOC
    docs = corpus.documents_table(corpus.KG_DOCS, corpus.KG_CORPUS_SEED)
    english = [i for i, lang in enumerate(docs.column("lang").to_pylist())
               if lang == "en"]
    annot = DocsToTriples(pages_per_doc=ppd)
    tokens = 0
    for idx in _chunks(english, 2):
        _, t = _traced(annot, docs.take(pa.array(idx)), ppd)
        tokens += sum(t)
    work = os.path.join(ROOT, ".bw", "record")
    sf_dir = workloads.write_docs(docs, os.path.join(work, "sf"))
    out_dir = os.path.join(work, "kg")
    workloads.ray_start(2, workloads.ray_temp_dir())
    try:
        triples, _, _ = workloads.kg_job(sf_dir, out_dir)
        triples_in = triples.count()
        kg_rows, h = workloads.kg_digest(out_dir)
    finally:
        workloads.stop_children()
        shutil.rmtree(os.path.join(ROOT, ".bw"), ignore_errors=True)
    return {"kg_rows": kg_rows, "hash": h, "triples_in": triples_in,
            "en_pages": len(english) * ppd, "tokens": tokens}


def main() -> int:
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import corpus
    import workloads

    golden = {}
    for name, fn in (("web", lambda: record_web(corpus)),
                     ("long", lambda: record_long(corpus)),
                     ("kg", lambda: record_kg(corpus, workloads))):
        t0 = time.perf_counter()
        golden[name] = fn()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        # one document or bank page per line
        f.write(json.dumps(golden, sort_keys=True).replace("], ", "],\n"))
        f.write("\n")
    print(json.dumps(golden["kg"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
