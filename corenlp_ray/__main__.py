"""CLI driver — the ``ray job submit`` entry point.

  python -m corenlp_ray kg --sf-dir /root/testdata/sf0.01 --out /tmp/kg
  python -m corenlp_ray annotate --sf-dir ... --out /tmp/docs [--json]
  python -m corenlp_ray query --name dedup_exact --sf-dir ...

The KG job is resumable: rerunning with the same inputs skips completed
subject-hash buckets via the lineage manifest (state/manifest.py).

This script OWNS the Ray session (guarded init; the library never
inits). On a cluster, submit with:
  ray job submit --working-dir . -- python -m corenlp_ray kg ...
"""
from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="corenlp_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    kg = sub.add_parser("kg", help="resumable KG construction job")
    kg.add_argument("--sf-dir", required=True)
    kg.add_argument("--out", required=True)
    kg.add_argument("--num-buckets", type=int, default=16)
    kg.add_argument("--pages-per-doc", type=int, default=None)

    an = sub.add_parser("annotate", help="write annotated docs")
    an.add_argument("--sf-dir", required=True)
    an.add_argument("--out", required=True)
    an.add_argument("--json", action="store_true",
                    help="also write reference-shaped JSON docs")
    an.add_argument("--annotators", default=None,
                    help="CoreNLP-style comma list (the reference's "
                         "-annotators flag), e.g. "
                         "tokenize,ssplit,pos,lemma,ner; default = the "
                         "full flagship chain")
    an.add_argument("--output-format", default=None,
                    choices=["parquet", "json", "xml", "conll",
                             "conllu", "text"],
                    help="the reference's -outputFormat flag "
                         "(default parquet; --json is a shorthand for "
                         "json)")

    q = sub.add_parser("query", help="run one catalog query")
    q.add_argument("--name", required=True)
    q.add_argument("--sf-dir", required=True)
    q.add_argument("--limit", type=int, default=20)

    tr = sub.add_parser(
        "train", help="train a model slot (pos | depparse | ner | "
        "clause | kbp | coref); real corpora drop into the same flags")
    tr.add_argument("--model", required=True,
                    choices=["pos", "depparse", "ner", "crf-ner",
                             "clause", "kbp", "coref", "parse",
                             "sentiment", "relation"])
    tr.add_argument("--out", required=True,
                    help="weights JSON output path")
    tr.add_argument("--conllu", default=None,
                    help="CoNLL-U training file (pos/depparse)")
    tr.add_argument("--conll2003", default=None,
                    help="CoNLL-2003 training file (ner)")
    tr.add_argument("--tsv", default=None,
                    help="word<TAB>tag training file (pos)")
    tr.add_argument("--distill-sf-dir", default=None,
                    help="distill from the rule cascade over this "
                         "sf dir's documents instead of a corpus")
    tr.add_argument("--n-iter", type=int, default=8)
    tr.add_argument("--limit-docs", type=int, default=200)

    args = ap.parse_args(argv)
    _ensure_ray()

    if args.cmd == "kg":
        from corenlp_ray.state.manifest import kg_job

        result = kg_job(args.sf_dir, args.out,
                        num_buckets=args.num_buckets,
                        pages_per_doc=args.pages_per_doc)
        print(json.dumps({"job": "kg", "out": args.out, **result}))
    elif args.cmd == "annotate":
        from corenlp_ray.sources.pages import read_pages

        pages = read_pages(args.sf_dir)
        if args.annotators:
            from corenlp_ray.pipeline_api import Pipeline

            docs = Pipeline(args.annotators).annotate(pages)
        else:
            from corenlp_ray.pipelines.kg import annotate_pages

            docs = annotate_pages(pages)
        fmt = args.output_format or ("json" if args.json else "parquet")
        if fmt == "parquet":
            docs.write_parquet(args.out)
            print(json.dumps({"job": "annotate", "out": args.out}))
        else:
            from corenlp_ray.sources import outputters
            from corenlp_ray.sources.conllu import write_conllu
            sink = {"json": outputters.write_json,
                    "xml": outputters.write_xml,
                    "conll": outputters.write_conll,
                    "conllu": write_conllu,
                    "text": outputters.write_text}[fmt]
            stats = sink(docs, args.out).take_all()
            print(json.dumps({"job": f"annotate-{fmt}",
                              "docs": sum(r["docs"] for r in stats)}))
    elif args.cmd == "query":
        from corenlp_ray.pipelines.queries import QUERIES

        if args.name not in QUERIES:
            print(f"unknown query {args.name}; have: {sorted(QUERIES)}",
                  file=sys.stderr)
            return 2
        out = QUERIES[args.name](args.sf_dir)
        if hasattr(out, "take"):
            rows = out.take(args.limit)
        else:
            rows = out.to_pylist()[:args.limit]
        for r in rows:
            print(json.dumps(r, default=str))
    elif args.cmd == "train":
        out = _train(args)
        print(json.dumps(out))
    import ray

    ray.shutdown()
    return 0


def _distill_sentences(sf_dir: str, limit: int):
    import pyarrow.parquet as pq

    from corenlp_ray.stages.pos import tag_sentence
    from corenlp_ray.stages.tokenize import ssplit, tokenize

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["text"]).slice(0, limit)
    sents = []
    for text in t.column("text").to_pylist():
        toks = [w for w, _, _, _ in tokenize(text or "")]
        for b, e in ssplit(toks):
            words = toks[b:e]
            if words:
                sents.append((words, tag_sentence(words)))
    return sents


def _distill_kbp_sentences(sf_dir: str, limit: int):
    """Fully annotated sentences for KbpClassifier.distill — the same
    kernels the KbpExtractor stage sees, via the simple API."""
    import pyarrow.parquet as pq

    from corenlp_ray.api import Document
    from corenlp_ray.models.kbp_classifier import annotated_sentences
    from corenlp_ray.sources.pages import make_page

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"]).slice(0, limit)
    out = []
    for doc_id, filler in zip(t.column("doc_id").to_pylist(),
                              t.column("text").to_pylist()):
        # same page synthesis the KG pipeline annotates (read_pages):
        # entity-bearing text, not the raw word-soup filler
        text = make_page(int(doc_id), filler=filler or "")["text"]
        doc = Document(text or "")
        doc._need(*Document._transitive("kbp"))
        out.extend(annotated_sentences(doc._row))
    return out


def _distill_coref_docs(sf_dir: str, limit: int):
    """Per-DOC (words, tags, tok_sent, men) tuples for
    CorefRanker.distill — the annotate chain through ner via the
    simple API (mentions exist, coref not yet run)."""
    import pyarrow.parquet as pq

    from corenlp_ray.api import Document
    from corenlp_ray.sources.pages import make_page

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"]).slice(0, limit)
    out = []
    for doc_id, filler in zip(t.column("doc_id").to_pylist(),
                              t.column("text").to_pylist()):
        text = make_page(int(doc_id), filler=filler or "")["text"]
        doc = Document(text or "")
        doc._need("ner")
        r = doc._row
        men = list(zip(r["men_begin"], r["men_end"], r["men_ner"],
                       r["men_norm"]))
        out.append((r["tok_word"], r["tok_pos"], r["tok_sent"], men))
    return out


def _train(args) -> dict:
    if args.cmd != "train":
        raise ValueError
    if args.model == "pos":
        from corenlp_ray.models.perceptron_tagger import (PerceptronTagger,
                                                          read_conllu)
        if args.conllu:
            m = PerceptronTagger.train(read_conllu(args.conllu),
                                       n_iter=args.n_iter)
        elif args.tsv:
            from corenlp_ray.sources.conll2003 import read_tsv_tagged

            m = PerceptronTagger.train(read_tsv_tagged(args.tsv),
                                       n_iter=args.n_iter)
        else:
            sents = _distill_sentences(args.distill_sf_dir,
                                       args.limit_docs)
            m = PerceptronTagger.distill([w for w, _ in sents],
                                         n_iter=args.n_iter)
    elif args.model == "depparse":
        from corenlp_ray.models.transition_parser import (
            TransitionParser, read_conllu_trees)
        if args.conllu:
            m = TransitionParser.train(read_conllu_trees(args.conllu),
                                       n_iter=args.n_iter)
        else:
            m = TransitionParser.distill(
                _distill_sentences(args.distill_sf_dir,
                                   args.limit_docs),
                n_iter=args.n_iter)
    elif args.model == "ner":
        from corenlp_ray.models.perceptron_ner import PerceptronNER
        if args.conll2003:
            from corenlp_ray.sources.conll2003 import read_conll2003

            m = PerceptronNER.train(read_conll2003(args.conll2003),
                                    n_iter=args.n_iter)
        else:
            m = PerceptronNER.distill(
                _distill_sentences(args.distill_sf_dir,
                                   args.limit_docs),
                n_iter=args.n_iter)
    elif args.model == "crf-ner":     # linear-chain CRF slot
        from corenlp_ray.models.crf_ner import CrfNER
        if args.conll2003:
            from corenlp_ray.sources.conll2003 import read_conll2003

            m = CrfNER.train(read_conll2003(args.conll2003),
                             n_iter=args.n_iter)
        else:
            m = CrfNER.distill(
                _distill_sentences(args.distill_sf_dir,
                                   args.limit_docs),
                n_iter=args.n_iter)
        m.save(args.out)
        return {"job": "train", "model": args.model, "out": args.out,
                "n_features": len(m.feat_index)}
    elif args.model == "parse":        # PCFG constituency slot
        from corenlp_ray.models.pcfg_parser import PcfgParser

        m = PcfgParser.distill(
            _distill_sentences(args.distill_sf_dir, args.limit_docs))
        m.save(args.out)
        return {"job": "train", "model": args.model, "out": args.out}
    elif args.model == "sentiment":    # RNTN slot
        from corenlp_ray.api import Document
        from corenlp_ray.models.rntn import RNTN
        from corenlp_ray.stages.parse_tree import parse_tree_batch

        trees = []
        for words, _tags in _distill_sentences(args.distill_sf_dir,
                                               args.limit_docs):
            d = Document(" ".join(words))
            d._need("depparse")
            trees.extend(parse_tree_batch(d._tbl)
                         .column("parse_tree").to_pylist()[0])
        m = RNTN.distill(trees, n_epochs=args.n_iter)
        m.save(args.out)
        return {"job": "train", "model": args.model, "out": args.out}
    elif args.model == "relation":     # ACE relation slot
        import pyarrow.parquet as pq

        from corenlp_ray.api import Document
        from corenlp_ray.models.relation_classifier import \
            RelationClassifier
        from corenlp_ray.sources.pages import make_page

        # synthesized entity-bearing pages (the same text the KG
        # pipeline annotates), not the raw word-soup filler — the
        # cascade needs entity pairs to label
        t = pq.read_table(f"{args.distill_sf_dir}/documents.parquet",
                          columns=["doc_id", "text"]) \
            .slice(0, args.limit_docs)
        rows = []
        for doc_id, filler in zip(t.column("doc_id").to_pylist(),
                                  t.column("text").to_pylist()):
            text = make_page(int(doc_id), filler=filler or "")["text"]
            d = Document(text or "")
            d._need("lemma", "ner", "depparse")
            rows.append({**d._row, "url": str(doc_id)})
        m = RelationClassifier.distill(rows, n_iter=args.n_iter)
        m.save(args.out)
        return {"job": "train", "model": args.model, "out": args.out,
                "n_classes": len(m.w)}
    elif args.model == "clause":
        from corenlp_ray.models.clause_classifier import ClauseClassifier
        from corenlp_ray.stages.depparse import parse_sentence

        parsed = []
        for words, tags in _distill_sentences(args.distill_sf_dir,
                                              args.limit_docs):
            heads, labels = parse_sentence(words, tags)
            parsed.append((words, tags, heads, labels))
        m = ClauseClassifier.distill(parsed, n_iter=args.n_iter)
    elif args.model == "kbp":          # kbp statistical extractor slot
        from corenlp_ray.models.kbp_classifier import KbpClassifier

        m = KbpClassifier.distill(
            _distill_kbp_sentences(args.distill_sf_dir, args.limit_docs),
            n_iter=args.n_iter)
    else:                              # coref statistical ranker slot
        from corenlp_ray.models.coref_ranker import CorefRanker

        m = CorefRanker.distill(
            _distill_coref_docs(args.distill_sf_dir, args.limit_docs),
            n_iter=args.n_iter)
    m.save(args.out)
    return {"job": "train", "model": args.model, "out": args.out,
            "n_features": len(m.weights)}


if __name__ == "__main__":
    raise SystemExit(main())
