"""End-to-end KG pipeline over Ray Data (FIXTURES F8): dedup across
documents, max-confidence retention, alias resolution, bucketed layout,
determinism under parallelism."""
import pyarrow as pa
import pytest

from corenlp_ray.sources.pages import PAGES_SCHEMA, synth_pages_table
from corenlp_ray.stages.canonicalize import (build_alias_map, normalize_surface,
                                             subj_bucket)
import corenlp_ray.pipelines.kg  # noqa: F401  (populates the registry)
from corenlp_ray.pipelines.registry import build


def test_registry_topological_order():
    stages = [s.name for s in build(["coref"])]
    assert stages.index("tokenize") < stages.index("pos")
    assert stages.index("pos") < stages.index("ner")
    assert stages.index("ner") < stages.index("coref")


def test_registry_unknown_requirement():
    from corenlp_ray.pipelines.registry import Stage, register
    register(Stage("_broken", ("nope",), ("x",), lambda b: b))
    with pytest.raises(ValueError):
        build(["_broken"])


def test_normalize_surface():
    assert normalize_surface("The Acme Corp.") == "acme corp"
    assert normalize_surface("Dr. John Smith") == "john smith"
    assert normalize_surface("Springfield,") == "springfield"


def test_subj_bucket_deterministic():
    assert subj_bucket("John Smith", 16) == subj_bucket("John Smith", 16)
    assert 0 <= subj_bucket("anything", 16) < 16


@pytest.fixture(scope="module")
def kg_result(ray_session, tmp_path_factory):
    import ray.data as rd
    from corenlp_ray.pipelines.kg import kg_pipeline

    tbl = synth_pages_table(n=40, seed=21)
    ds = rd.from_arrow(tbl)
    kg = kg_pipeline(ds, num_buckets=8)
    out = tmp_path_factory.mktemp("kg")
    kg.write_parquet(str(out), partition_cols=["subj_bucket"])
    import pyarrow.dataset as pads

    return pads.dataset(str(out), partitioning="hive").to_table()


def test_kg_schema_and_rows(kg_result):
    names = set(kg_result.column_names)
    assert {"subj", "pred", "obj", "confidence", "support_count",
            "example_url", "subj_bucket"} <= names
    assert kg_result.num_rows > 0


def test_kg_dedup_unique_keys(kg_result):
    keys = list(zip(kg_result.column("subj").to_pylist(),
                    kg_result.column("pred").to_pylist(),
                    kg_result.column("obj").to_pylist()))
    assert len(keys) == len(set(keys))


def test_kg_support_counts(kg_result):
    # cross-document dedup: at least one triple supported by >1 occurrence
    assert max(kg_result.column("support_count").to_pylist()) >= 2
    assert all(c >= 1 for c in kg_result.column("support_count").to_pylist())


def test_kg_buckets_match_hash(kg_result):
    for s, b in zip(kg_result.column("subj").to_pylist(),
                    kg_result.column("subj_bucket").to_pylist()):
        assert int(b) == subj_bucket(s, 8)


def test_kg_contains_expected_relations(kg_result):
    preds = set(kg_result.column("pred").to_pylist())
    assert "per:city_of_birth" in preds or "per:employee_of" in preds
    assert any(p in preds for p in ("org:city_of_headquarters",
                                    "org:founded_by", "per:spouse"))


def test_alias_map_two_phase(ray_session):
    import ray.data as rd

    rows = [
        {"url": "a", "subj_canonical": "John Smith", "pred": "x",
         "obj_canonical": "Initech", "confidence": 1.0},
        {"url": "b", "subj_canonical": "the John Smith", "pred": "x",
         "obj_canonical": "Initech", "confidence": 1.0},
        {"url": "c", "subj_canonical": "John Smith", "pred": "x",
         "obj_canonical": "Dover", "confidence": 1.0},
    ]
    ds = rd.from_items(rows)
    alias = build_alias_map(ds)
    assert alias[normalize_surface("John Smith")] == "John Smith"
    assert alias["initech"] == "Initech"


def test_alias_scale_join_path_matches_broadcast(ray_session):
    """resolve_alias_scale above the vocab threshold (forced with
    vocab_broadcast_max=0) must rewrite triples to the SAME canonical
    surfaces the broadcast dict path produces — the round-2 verdict's
    'bucketed-join default above vocabulary threshold' gate."""
    import ray.data as rd

    from corenlp_ray.stages.canonicalize import (ResolveAliases,
                                                 resolve_alias_scale)

    rows = [
        {"url": f"u{i}", "subj_canonical": s, "pred": "x",
         "obj_canonical": o, "confidence": 1.0}
        for i, (s, o) in enumerate([
            ("John Smith", "Initech"),
            ("the John Smith", "Initech Inc."),
            ("John Smith", "Dover"),
            ("INITECH", "John Smith"),
            ("Mary Jones", "the Dover"),
        ] * 4)
    ]
    ds = rd.from_items(rows)

    # broadcast regime (threshold high): returns the driver dict
    alias, same_ds = resolve_alias_scale(ds, vocab_broadcast_max=10**9)
    assert alias is not None and same_ds is ds
    import ray as _ray
    resolver = ResolveAliases(_ray.put(alias))
    want = []
    for b in ds.to_arrow_refs():
        t = _ray.get(b)
        out = resolver.resolve(t)
        want += list(zip(out.column("url").to_pylist(),
                         out.column("subj_canonical").to_pylist(),
                         out.column("obj_canonical").to_pylist()))

    # join regime (threshold forced to 0): triples come back rewritten
    alias2, resolved = resolve_alias_scale(ds, vocab_broadcast_max=0)
    assert alias2 is None
    got = []
    for b in resolved.iter_batches(batch_format="pyarrow"):
        got += list(zip(b.column("url").to_pylist(),
                        b.column("subj_canonical").to_pylist(),
                        b.column("obj_canonical").to_pylist()))
    assert sorted(got) == sorted(want)
    # schema preserved for the downstream combiner
    cols = set(resolved.schema().names)
    assert {"url", "subj_canonical", "pred", "obj_canonical",
            "confidence"} <= cols


@pytest.mark.parametrize("vocab_broadcast_max", [10**9, 0],
                         ids=["broadcast", "join"])
def test_canonical_tie_break_both_regimes(ray_session, vocab_broadcast_max):
    """Equal support → the lexicographically smallest surface, in the
    driver-dict regime and in the distributed join regime alike; null
    and empty surfaces never enter the alias vocabulary."""
    import ray.data as rd

    from corenlp_ray.stages.canonicalize import (_alias_totals,
                                                 resolve_alias_scale)

    pairs = [("Ibm", "Acme"), ("IBM", "ACME"), ("IBM", ""), ("Ibm", None),
             (None, "acme"), ("", "Acme")]
    rows = [{"url": f"u{i}", "subj_canonical": s, "pred": "x",
             "obj_canonical": o, "confidence": 1.0}
            for i, (s, o) in enumerate(pairs)]
    ds = rd.from_items(rows)
    # "IBM"/"Ibm" tie at 2; "Acme" (2) beats "ACME" and "acme" (1 each)
    vocab = _alias_totals(ds).to_pandas()
    assert sorted(vocab["surface"]) == ["ACME", "Acme", "IBM", "Ibm", "acme"]

    alias, resolved = resolve_alias_scale(
        ds, vocab_broadcast_max=vocab_broadcast_max)
    if vocab_broadcast_max:
        assert alias == {"ibm": "IBM", "acme": "Acme"}
    else:
        assert alias is None
        got = {r["url"]: (r["subj_canonical"], r["obj_canonical"])
               for r in resolved.take_all()}
        assert got == {"u0": ("IBM", "Acme"), "u1": ("IBM", "Acme"),
                       "u2": ("IBM", ""), "u3": ("IBM", None),
                       "u4": (None, "Acme"), "u5": ("", "Acme")}


_ONE_CPU_KG = """
import json, signal, sys
import ray, ray.data as rd


def _timeout(*_):
    raise TimeoutError("1-CPU KG did not finish")


signal.signal(signal.SIGALRM, _timeout)
signal.alarm(int(sys.argv[1]))
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False, _temp_dir=sys.argv[2])
try:
    rd.DataContext.get_current().enable_progress_bars = False
    import pyarrow.compute as pc
    from corenlp_ray.pipelines.kg import (FusedDocAnnotator, triples_to_kg,
                                          kg_pipeline)
    from corenlp_ray.sources.pages import synth_pages_table

    def rows(kg):
        return sorted(json.dumps(r, sort_keys=True) for r in kg.take_all())

    tbl = synth_pages_table(n=12, seed=21)
    got = rows(kg_pipeline(rd.from_arrow(tbl).repartition(4),
                           num_buckets=4))
    # the same chain run in this process, then the same KG tail
    en = tbl.filter(pc.equal(tbl.column("lang"), "en"))
    want = rows(triples_to_kg(rd.from_arrow(FusedDocAnnotator()(en)), 4))
    print(json.dumps({"n": len(want), "equal": got == want}))
finally:
    signal.alarm(0)
    ray.shutdown()
"""


def test_one_cpu_kg_finishes():
    """On a 1-CPU cluster the KG pipeline finishes, and its KG equals the
    one built from the fused chain run in the driver process. A separate
    driver process with its own 1-CPU cluster
    (``conftest.run_bounded``)."""
    from conftest import run_bounded

    res = run_bounded(_ONE_CPU_KG, 150, "1-CPU KG")
    assert res["n"] > 0 and res["equal"]
