"""``registry.launch`` maps every chain as plain tasks: a Dataset pass
starts no actor and reserves no CPU, so chained launches finish on a
small cluster, and the Ray path equals the chain called in-process."""
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import processes_naming, run_bounded


def test_documents_to_triples_starts_no_actor(ray_session, tmp_path):
    """The flagship front half runs as tasks: no actor is created while
    it materializes, and ``ds.stats()`` still names the read and the
    fused map (the operator names trace tooling looks up)."""
    import ray.data as rd
    from ray._private import state

    from corenlp_ray.pipelines.kg import documents_to_triples

    langs = ["en", "en", "de", "en", "fr", "en", "en", "es"] * 3
    docs = pa.Table.from_pydict(
        {"doc_id": list(range(len(langs))), "lang": langs,
         "text": ["market report filler words"] * len(langs)},
        schema=pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                          ("text", pa.string())]))
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    # Ray Data's own bookkeeping actors start with its first execution
    rd.range(4).map_batches(lambda b: b).materialize()
    before = set(state.actors())
    triples = documents_to_triples(str(tmp_path), pages_per_doc=2)
    triples = triples.materialize()
    started = [a["ActorClassName"] for k, a in state.actors().items()
               if k not in before]
    assert started == []
    assert triples.count() > 0
    stats = triples.stats()
    assert "ReadParquet" in stats
    assert "MapBatches(DocsToTriples)" in stats


_CHAINED = """
import json, signal, sys
import pyarrow as pa
import ray, ray.data as rd


def _timeout(*_):
    raise TimeoutError("chained launch did not finish")


signal.signal(signal.SIGALRM, _timeout)
signal.alarm(int(sys.argv[1]))
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False, _temp_dir=sys.argv[2])
try:
    rd.DataContext.get_current().enable_progress_bars = False
    from corenlp_ray.pipelines.kg import (FusedDocAnnotator, annotate_pages,
                                          extract_triples)
    from corenlp_ray.sources.pages import synth_pages_table

    def keys(t):
        return sorted(json.dumps(r, sort_keys=True) for r in t.select(
            ["url", "subj", "pred", "obj", "source"]).to_pylist())

    pages = synth_pages_table(n=24, seed=13)
    ds = rd.from_arrow(pages).repartition(8)
    out = extract_triples(annotate_pages(ds))
    got = keys(pa.concat_tables(list(out.iter_batches(
        batch_format="pyarrow"))))
    want = keys(FusedDocAnnotator()(pages))
    print(json.dumps({"n": len(want), "equal": got == want}))
finally:
    signal.alarm(0)
    ray.shutdown()
"""


def test_chained_launch_finishes_on_two_cpus():
    """Two chained launches (annotate, then extract) over 8 input
    blocks finish on a 2-CPU cluster and give the in-process fused
    chain's triples. Two actor pools of one CPU each once reserved both
    CPUs there, and the repartition tasks never ran. A separate driver
    process with its own cluster (``conftest.run_bounded``)."""
    res = run_bounded(_CHAINED, 180, "chained launch")
    assert res["n"] > 0 and res["equal"]


_HANG = """
import sys, time
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False, _temp_dir=sys.argv[2])


@ray.remote
def hang():
    time.sleep(3600)


hang.remote()
time.sleep(3600)
"""


def test_hung_driver_leaves_no_process(monkeypatch):
    """A driver that hangs on purpose (no alarm, a task that never ends)
    is killed at the bound together with every process of its cluster:
    the cluster was up when the bound hit, and afterwards no process
    names its Ray temp dir."""
    import conftest

    temp_dir = tempfile.mkdtemp(prefix="rb")
    seen = []

    def spy(text):
        seen.append(processes_naming(text))
        return seen[-1]

    monkeypatch.setattr(conftest, "processes_naming", spy)
    with pytest.raises(pytest.fail.Exception, match="hung"):
        run_bounded(_HANG, 45, "hanging driver", temp_dir=temp_dir)
    monkeypatch.undo()
    assert len(seen[0]) >= 3     # the driver, raylet, GCS, workers, ...
    assert processes_naming(temp_dir) == []
