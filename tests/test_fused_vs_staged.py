"""The fused annotator pool and the staged registry pipeline must produce
identical triples (same kernels, same order — determinism across
execution shapes, which is also what makes the output independent of
parallelism level)."""
import pyarrow as pa
import pytest

from corenlp_ray.sources.pages import synth_pages_table
from corenlp_ray.pipelines import registry
from corenlp_ray.pipelines.kg import (FusedDocAnnotator, TripleExtractor,
                                      annotate_pages)
from corenlp_ray.stages.coref import coref_batch
from corenlp_ray.stages.depparse import depparse_batch
from corenlp_ray.stages.extract import extract_text_batch
from corenlp_ray.stages.lemma import lemma_batch
from corenlp_ray.stages.ner import ner_batch
from corenlp_ray.stages.pos import pos_batch
from corenlp_ray.stages.tokenize import tokenize_ssplit_batch


def staged_triples(tbl: pa.Table) -> pa.Table:
    b = extract_text_batch(tbl)
    b = tokenize_ssplit_batch(b)
    b = pos_batch(b)
    b = lemma_batch(b)
    b = ner_batch(b)
    b = depparse_batch(b)
    b = coref_batch(b)
    return TripleExtractor()(b)


def normalize(t: pa.Table):
    return sorted(map(tuple, zip(t.column("url").to_pylist(),
                                 t.column("subj").to_pylist(),
                                 t.column("pred").to_pylist(),
                                 t.column("obj").to_pylist(),
                                 t.column("source").to_pylist())))


def test_fused_equals_staged():
    tbl = synth_pages_table(n=25, seed=31)
    fused = FusedDocAnnotator()(tbl)
    staged = staged_triples(tbl)
    assert normalize(fused) == normalize(staged)
    assert fused.num_rows > 0


def test_batch_split_invariance():
    """Triples are identical whether the table arrives as one batch or
    many — the property that makes output independent of batch_size /
    parallelism."""
    tbl = synth_pages_table(n=20, seed=33)
    whole = normalize(FusedDocAnnotator()(tbl))
    parts = []
    for i in range(0, 20, 5):
        parts.append(FusedDocAnnotator()(tbl.slice(i, 5)))
    split = normalize(pa.concat_tables(parts))
    assert whole == split


def test_in_process_chain_does_not_import_ray():
    """Building and calling the in-process chain (fused actor classes
    and the simple API) never imports Ray: importing it costs more than
    the whole in-process set-up, so resolving and running a chain must
    not ask the cluster for its CPU count."""
    import os
    import subprocess
    import sys

    code = "\n".join([
        "import sys",
        "import pyarrow as pa",
        "import corenlp_ray.pipelines.kg as kg",
        "from corenlp_ray.api import Document",
        "from corenlp_ray.sources.pages import synth_pages_table",
        "kg.FusedDocAnnotator()(synth_pages_table(n=2, seed=0))",
        "docs = pa.table({'doc_id': [1, 2], 'lang': ['en', 'de'],",
        "                 'text': ['Acme Corp hired John Smith.', 'Hallo']})",
        "kg.DocsToTriples(pages_per_doc=2)(docs)",
        "Document('Some cats have tails.').sentences()[0].openie()",
        "assert 'ray' not in sys.modules, 'ray was imported'",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], check=True, cwd=root)


@pytest.mark.parametrize("name", sorted(registry.registry()))
def test_cached_chain_equals_uncached_kernels(name):
    """Every registered stage, with its prerequisites: the chain with one
    shared pylist cache gives the same table as the kernels called one
    by one without a cache, and every list it leaves in the cache still
    matches its table column (a stage that replaces a column must
    replace the cached list too, or a later cached reader pairs stale
    and new columns). Kernel memos sit in the cache under non-string
    ``(name, fn)`` keys and are not columns."""
    tbl = synth_pages_table(n=25, seed=31)
    stages = registry.build((name,))
    uncached = tbl
    for st in stages:
        uncached = registry.instantiate(st)(uncached)
    cols: dict = {}
    cached = registry.Chain(stages)(tbl, cols=cols)
    assert cached.equals(uncached)
    columns = {k: v for k, v in cols.items() if isinstance(k, str)}
    for column, values in columns.items():
        assert values == cached.column(column).to_pylist(), column
