"""Property-string Pipeline API (corenlp_ray/pipeline_api.py) — the
StanfordCoreNLP(properties) analogue. Pins: prerequisite closure
matches ensurePrerequisiteAnnotators semantics (StanfordCoreNLP.java:
481-520), unknown annotators raise, ssplit fuses into tokenize, and
annotate/triples run real Ray Data pipelines end-to-end."""
import pytest

from corenlp_ray.pipeline_api import Pipeline, resolve_annotators


def test_prerequisite_closure_and_order():
    # kbp pulls its whole annotation chain, canonically ordered
    got = resolve_annotators("kbp")
    assert got == ["tokenize", "pos", "lemma", "ner", "depparse",
                   "coref"]
    # ssplit alone = the fused tokenize stage
    assert resolve_annotators("tokenize,ssplit") == ["tokenize"]
    # sentiment pulls parse which pulls depparse
    got = resolve_annotators("sentiment")
    assert "parse" in got and "depparse" in got \
        and got.index("depparse") < got.index("parse")


def test_unknown_annotator_raises():
    with pytest.raises(ValueError, match="unknown annotator"):
        Pipeline("tokenize,flux")


def test_annotate_appends_columns(ray_session):
    import ray.data as rd

    from corenlp_ray.sources.pages import synth_pages_table

    pl = Pipeline("tokenize,ssplit,pos,lemma,ner", distributed=False)
    ds = rd.from_arrow(synth_pages_table(n=6, seed=21))
    out = pl.annotate(ds)
    row = out.take(1)[0]
    for col in ("tok_word", "tok_pos", "tok_lemma", "men_begin"):
        assert col in row
    assert "dep_head" not in row   # not requested, not pulled


def test_triples_requires_producer():
    with pytest.raises(ValueError, match="triple producer"):
        Pipeline("tokenize,pos").triples(None)


def test_triples_kbp_only_filters_source(ray_session):
    import ray.data as rd

    from corenlp_ray.sources.pages import synth_pages_table

    pl = Pipeline("kbp", distributed=False)
    ds = rd.from_arrow(synth_pages_table(n=8, seed=22))
    rows = pl.triples(ds).take_all()
    assert rows and all(r["source"] == "kbp" for r in rows)


def test_properties_model_swap_and_restore(ray_session, tmp_path):
    """pos.model property swaps the trained slot in (the reference's
    .ser.gz property semantics); restoring the default registry
    afterwards keeps other tests deterministic."""
    import ray.data as rd

    from corenlp_ray.models.perceptron_tagger import PerceptronTagger
    from corenlp_ray.sources.pages import synth_pages_table

    import corenlp_ray.pipelines.kg  # noqa: F401  (registers defaults)
    from corenlp_ray.pipelines import registry

    sents = [(["The", "cat", "sat", "."],)]
    m = PerceptronTagger.distill([w for (w,) in sents], n_iter=2)
    p = str(tmp_path / "pos.json")
    m.save(p)
    snapshot = dict(registry._REGISTRY)
    try:
        pl = Pipeline("tokenize,ssplit,pos", distributed=False,
                      properties={"pos.model": p})
        out = pl.annotate(rd.from_arrow(synth_pages_table(n=3, seed=5)))
        assert "tok_pos" in out.take(1)[0]
    finally:
        registry._REGISTRY.clear()
        registry._REGISTRY.update(snapshot)   # restore defaults


def test_properties_statistical_coref_requires_model():
    with pytest.raises(ValueError, match="statistical"):
        Pipeline("coref", properties={"coref.algorithm": "statistical"})


def test_properties_unknown_key_raises():
    with pytest.raises(ValueError, match="unsupported properties"):
        Pipeline("pos", properties={"pos.flavor": "maxent"})


def test_default_distributed_triples_finish_on_small_cluster():
    """``Pipeline("openie,kbp").triples`` with the default
    ``distributed=True`` finishes on a 4-CPU cluster with an input
    repartitioned into 8 blocks (one chained actor pool per model stage
    reserved every CPU there, so the repartition tasks never ran), and
    its triples equal the in-process task run's. Runs in its own process under a wall-clock
    bound."""
    import os
    import subprocess
    import sys

    code = "\n".join([
        "import ray, ray.data as rd",
        "from corenlp_ray.pipeline_api import Pipeline",
        "from corenlp_ray.sources.pages import synth_pages_table",
        "ray.init(address='local', num_cpus=4, include_dashboard=False,",
        "         logging_level='ERROR')",
        "rd.DataContext.get_current().enable_progress_bars = False",
        "tbl = synth_pages_table(n=48, seed=7)",
        "ds = rd.from_arrow(tbl).repartition(8)",
        "def keys(d):",
        "    return sorted(map(tuple, (r.values() for r in d.select_columns(",
        "        ['url', 'subj', 'pred', 'obj', 'source']).take_all())))",
        "got = keys(Pipeline('openie,kbp').triples(ds))",
        "want = keys(Pipeline('openie,kbp', distributed=False).triples(ds))",
        "assert got and got == want, (len(got), len(want))",
        "ray.shutdown()",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=root,
                   env=env, timeout=150)
