"""The KG tail's two wide steps are ONE bucket aggregate: the combiner
tags its partial rows with their bucket, and each bucket's rows merge by
an Arrow ``group_by``. For the dedup (max confidence, summed support,
min url, grouped by subject bucket) and for the alias vocabulary
(summed (norm, surface) counts and the canonical pick, grouped by norm
bucket) the result must equal one ``group_by`` over all partial rows,
whatever the block split and the bucket count."""
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from corenlp_ray.stages import canonicalize as cz
from corenlp_ray.stages.canonicalize import (KG_SCHEMA, build_kg,
                                             normalize_surface, subj_bucket,
                                             write_kg)

_TRIPLES = pa.schema([
    ("url", pa.string()), ("subj_canonical", pa.string()),
    ("pred", pa.string()), ("obj_canonical", pa.string()),
    ("confidence", pa.float64()),
])
N_SUBJECTS = 40


def _blocks(n_blocks: int = 4):
    """Triples in ``n_blocks`` blocks; the two hot triples sit in every
    block, cold ones spread over 40 subjects."""
    blocks = []
    for k in range(n_blocks):
        rows = []
        for i in range(300):
            if i % 3 == 0:
                s, p, o = "Barack Obama", "per:title", "president"
            elif i % 5 == 0:
                s, p, o = "the Barack Obama", "per:title", "president"
            else:
                s, p, o = f"Subj {i % N_SUBJECTS}", "rel", f"Obj {i % 7}"
            rows.append({"url": f"u{(7 * i + k) % 97:02d}",
                         "subj_canonical": s, "pred": p, "obj_canonical": o,
                         "confidence": ((i * 13 + k) % 100) / 100})
        blocks.append(pa.Table.from_pylist(rows, schema=_TRIPLES))
    return blocks


def _one_group_by(partials: pa.Table, num_buckets: int) -> list:
    """The reference: one Arrow group_by over all partial rows."""
    agg = partials.group_by(["subj", "pred", "obj"]).aggregate(
        [("confidence", "max"), ("support_count", "sum"),
         ("example_url", "min")])
    return sorted(zip(agg["subj"].to_pylist(), agg["pred"].to_pylist(),
                      agg["obj"].to_pylist(),
                      agg["confidence_max"].to_pylist(),
                      agg["support_count_sum"].to_pylist(),
                      agg["example_url_min"].to_pylist(),
                      [subj_bucket(s, num_buckets)
                       for s in agg["subj"].to_pylist()]))


def _rows(ds) -> list:
    t = pa.concat_tables(ds.iter_batches(batch_size=None,
                                         batch_format="pyarrow"))
    assert t.schema == KG_SCHEMA
    return sorted(zip(*(t[c].to_pylist() for c in KG_SCHEMA.names)))


# the last count exceeds the number of subjects (41)
@pytest.mark.parametrize("num_buckets", [1, 16, 10 * N_SUBJECTS])
@pytest.mark.parametrize("aliased", [False, True], ids=["plain", "alias"])
def test_bucket_dedup_equals_one_group_by(ray_session, num_buckets,
                                          aliased):
    blocks = _blocks()
    ds = rd.from_arrow(blocks)
    assert ds.materialize().num_blocks() >= 3
    alias = {normalize_surface("Barack Obama"): "Barack Obama"} \
        if aliased else None
    resolver = cz.ResolveAliases(None, num_buckets)
    resolver.aliases = alias or {}
    partials = pa.concat_tables(resolver(b) for b in blocks)
    assert partials.column_names[-1] == "subj_bucket"
    hot = pc.equal(partials["subj"], "Barack Obama")
    assert pc.sum(hot.cast(pa.int64())).as_py() >= 3   # one per block
    got = _rows(build_kg(ds, alias_map=alias, num_buckets=num_buckets))
    assert got == _one_group_by(partials, num_buckets)


def test_empty_triples_give_an_empty_kg(ray_session, tmp_path):
    empty = rd.from_arrow(_TRIPLES.empty_table())
    for alias in (None, {}):
        kg = build_kg(empty, alias_map=alias)
        assert kg.count() == 0
        out = tmp_path / f"kg_{alias is None}"
        write_kg(kg, str(out))
        written = pq.read_table(str(out))
        assert written.num_rows == 0
        assert written.column_names == KG_SCHEMA.names
    # the bucket expansion of an empty aggregate output is the schema
    none = pa.table({"subj_bucket": pa.array([], pa.int32()),
                     cz._CELL: pa.array([], pa.binary())})
    assert cz._expand_buckets(none, "subj_bucket", lambda rows: rows,
                              KG_SCHEMA).schema == KG_SCHEMA


def test_alias_path_normalizes_each_distinct_surface_once(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return normalize_surface(s)

    monkeypatch.setattr(cz, "normalize_surface", counting)
    t = pa.concat_tables(_blocks(2))   # subject and object surfaces differ
    distinct = set(t["subj_canonical"].to_pylist()
                   + t["obj_canonical"].to_pylist())
    for run in (cz._surface_partial_counts, cz._norm_cols_batch):
        calls.clear()
        run(t)
        assert sorted(calls) == sorted(distinct)
    resolver = cz.ResolveAliases(None)
    resolver.aliases = {}
    calls.clear()
    resolver.resolve(t)
    assert sorted(calls) == sorted(distinct)


def _vocab_triples(n_blocks: int = 4) -> list:
    """Triples whose hot norm "barack obama" (three surfaces, "Barack
    Obama" the most frequent) sits in every block, next to 30 cold norms
    with one or two surfaces."""
    blocks = []
    for k in range(n_blocks):
        rows = []
        for i in range(120):
            s = ("Barack Obama", "the Barack Obama", "BARACK OBAMA",
                 "Barack Obama")[i // 2 % 4] if i % 2 == 0 \
                else f"Subj {i % 30}"
            o = f"Org {i % 11}" if (i + k) % 4 else f"the org {i % 11}"
            rows.append({"url": f"u{k}-{i}", "subj_canonical": s,
                         "pred": "rel", "obj_canonical": o,
                         "confidence": 1.0})
        blocks.append(pa.Table.from_pylist(rows, schema=_TRIPLES))
    return blocks


@pytest.mark.parametrize("num_buckets", [1, 4, 200])
def test_alias_picks_equal_one_group_by(ray_session, num_buckets):
    """The picks Dataset (the bucket aggregate of the vocabulary) equals
    the canonical pick over ONE group_by of all partial counts, with one
    bucket, a few, and more buckets than norms."""
    blocks = _vocab_triples()
    ds = rd.from_arrow(blocks)
    assert ds.materialize().num_blocks() >= 3
    partials = pa.concat_tables(cz._surface_partial_counts(b)
                                for b in blocks)
    hot = pc.equal(partials["norm"], "barack obama")
    assert pc.sum(hot.cast(pa.int64())).as_py() >= 3 * len(blocks)
    assert len(set(partials["norm"].to_pylist())) < 200
    agg = partials.group_by(["norm", "surface"]).aggregate([("n", "sum")])
    want = cz._pick_canonical(pa.table({
        "norm": agg["norm"], "surface": agg["surface"], "n": agg["n_sum"]}))
    got = pa.concat_tables(cz._alias_picks(ds, num_buckets).iter_batches(
        batch_size=None, batch_format="pyarrow"))
    assert got.schema == cz._PICKS_SCHEMA
    assert sorted(zip(got["norm"].to_pylist(),
                      got["canonical"].to_pylist())) == sorted(
        zip(want["norm"].to_pylist(), want["canonical"].to_pylist()))
    assert got["norm_bucket"].to_pylist() == [
        subj_bucket(n, num_buckets) for n in got["norm"].to_pylist()]


def test_alias_routing_counts_norms(ray_session):
    """The broadcast threshold counts norms, the size of the dict it
    would ship: a threshold of ``len(alias)`` keeps the broadcast even
    though one norm has several surfaces, one less takes the join."""
    ds = rd.from_arrow(_vocab_triples(2))
    alias, _ = cz.resolve_alias_scale(ds, vocab_broadcast_max=10**9)
    pairs = cz._surface_partial_counts(pa.concat_tables(_vocab_triples(2)))
    assert len(alias) < pairs.num_rows     # "barack obama" has 3 surfaces
    kept, same2 = cz.resolve_alias_scale(ds, vocab_broadcast_max=len(alias))
    assert kept == alias and same2 is ds
    joined, resolved = cz.resolve_alias_scale(
        ds, vocab_broadcast_max=len(alias) - 1)
    assert joined is None
    subj = set(r["subj_canonical"] for r in resolved.take_all())
    hot = {s for s in subj if normalize_surface(s) == "barack obama"}
    assert hot == {alias["barack obama"]} == {"Barack Obama"}
