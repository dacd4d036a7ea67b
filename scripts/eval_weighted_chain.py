"""Cascade-vs-weighted chain decision evidence (r4 verdict task 3).

Computes, for BOTH configurations:
  1. micro P/R on the reference's OpenIE exact sets (north bar >= 0.95)
  2. planted value-hash gates (openie/kbp/quotes_planted vs oracle SQL)
  3. (no throughput figure: the weighted chain's triples miss the
     exact sets, so its speed measures nothing; the last recorded
     figures are in BASELINE.md)

Run: PYTHONPATH=/root/repo python scripts/eval_weighted_chain.py
"""
import json
import sys
import tempfile

sys.path.insert(0, "/root/repo")
sys.path.insert(0, "/root/repo/tests")

from test_openie_exact_sets import SETS, triples as cascade_triples  # noqa: E402

from corenlp_ray.stages.depparse import parse_sentence  # noqa: E402
from corenlp_ray.stages.lemma import lemma_of  # noqa: E402
from corenlp_ray.stages.openie import extract_sentence_triples  # noqa: E402
from corenlp_ray.stages.tokenize import tokenize  # noqa: E402


def micro_pr(fn):
    tp = fp = fn_ = 0
    for text, gold in SETS:
        got = fn(text)
        tp += len(got & gold)
        fp += len(got - gold)
        fn_ += len(gold - got)
    P = tp / (tp + fp) if tp + fp else 1.0
    R = tp / (tp + fn_) if tp + fn_ else 1.0
    return P, R, tp, fp, fn_


def main():
    tmp = tempfile.mkdtemp(prefix="graft_weval_")
    from corenlp_ray.models.distill import distill_and_register
    from corenlp_ray.pipelines import kg as kg_mod
    from corenlp_ray.pipelines import registry

    saved, saved_paths = registry.registry(), dict(kg_mod._MODEL_PATHS)
    results = {}
    try:
        distill_and_register(tmp)
        from corenlp_ray.models.perceptron_tagger import PerceptronTagger
        from corenlp_ray.models.transition_parser import TransitionParser
        from corenlp_ray.stages.ner import WeightedNerTagger

        pos_m = PerceptronTagger.load(f"{tmp}/pos.json")
        dep_m = TransitionParser.load(f"{tmp}/dep.json")
        wner = WeightedNerTagger(model_path=f"{tmp}/ner.json")

        def weighted_triples(text):
            words = [t[0] for t in tokenize(text)]
            tags = pos_m.tag(words)
            lemmas = [lemma_of(w, t) for w, t in zip(words, tags)]
            types, mentions = wner._sentence(words, tags, None)
            heads, labels = dep_m.parse(words, tags)
            mens = [(b, e, t) for b, e, t, _ in mentions]
            got = extract_sentence_triples(words, tags, lemmas, heads,
                                           labels, mens)
            return {(s.lower(), p.lower(), o.lower())
                    for s, p, o, *_ in got}

        for name, fn in (("cascade", cascade_triples),
                         ("weighted", weighted_triples)):
            P, R, tp, fp, fn_ = micro_pr(fn)
            results[f"openie_sets_{name}"] = {
                "P": round(P, 4), "R": round(R, 4),
                "tp": tp, "fp": fp, "fn": fn_}

        # planted value-hash gates under the weighted registration
        import duckdb
        import pandas.util as pu
        import ray

        if not ray.is_initialized():
            ray.init(address="local", num_cpus=8,
                     include_dashboard=False, logging_level="ERROR")
        import ray.data as rd
        rd.DataContext.get_current().enable_progress_bars = False
        import __ray_entry__ as E
        qs, osql = E.queries(), E.oracle_sql()
        sf = "/root/testdata/sf0.01"
        con = duckdb.connect()
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf}/documents.parquet')")
        for q in ("openie_planted", "kbp_planted", "quotes_planted"):
            r = qs[q](sf).to_pandas()
            o = con.execute(osql[q]).df()
            cols = sorted(r.columns)
            r = r[cols].sort_values(cols).reset_index(drop=True)
            o = o[cols].sort_values(cols).reset_index(drop=True)
            results[f"planted_weighted_{q}"] = {
                "rows_match": len(r) == len(o),
                "hash_match": bool(
                    pu.hash_pandas_object(r).sum()
                    == pu.hash_pandas_object(o).sum())}
    finally:
        for st in saved.values():
            registry.register(st)
        kg_mod._MODEL_PATHS = saved_paths
    print(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
