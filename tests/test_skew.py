"""Hot-key skew stress: the SURVEY §4.2 claims, demonstrated.

At 10^12 web documents one entity ("Obama"-scale) or one domain can
dominate a shuffle key. The engine's defusal is the two-phase aggregate:
a vectorized per-batch combiner collapses each batch to ≤1 row per key
BEFORE the all-to-all, so a hot key contributes one row per batch (the
batch is the implicit salt), and the final native groupby only ever sees
pre-collapsed rows. These tests build pathologically skewed corpora —
one key carrying ~90% of the rows — and pin (a) the pre-shuffle volume
reduction, (b) result exactness vs a driver-side reference computation,
and (c) determinism across batch splits (the salted phases must not
change answers when parallelism changes).
"""
from collections import Counter

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from corenlp_ray.stages.canonicalize import (
    _surface_partial_counts, _triple_partial_agg, build_alias_map,
    build_kg, normalize_surface,
)

N_HOT = 9000
N_COLD = 1000


def _skewed_triples_table() -> pa.Table:
    """90% of triples share ONE hot subject (with two alias surfaces);
    the rest spread over 500 cold subjects."""
    rows = []
    for i in range(N_HOT):
        surf = "Barack Obama" if i % 3 else "President Barack Obama"
        rows.append({
            "url": f"https://hot.example.com/p{i}", "sent_idx": 0,
            "subj": surf, "pred": "per:title", "obj": "president",
            "subj_canonical": surf, "obj_canonical": "president",
            "subj_ner": "PERSON", "obj_ner": "TITLE",
            "confidence": 0.9 + (i % 7) * 0.01, "source": "kbp",
        })
    for i in range(N_COLD):
        surf = f"Person {i % 500}"
        rows.append({
            "url": f"https://cold{i % 97}.example.org/p{i}", "sent_idx": 0,
            "subj": surf, "pred": "per:employee_of", "obj": f"Org {i % 200}",
            "subj_canonical": surf, "obj_canonical": f"Org {i % 200}",
            "subj_ner": "PERSON", "obj_ner": "ORGANIZATION",
            "confidence": 0.8, "source": "kbp",
        })
    return pa.Table.from_pylist(rows)


@pytest.fixture(scope="module")
def skewed_ds(ray_session):
    # many small blocks → many combiner invocations, the worst case for
    # a hot key (every batch contains it)
    return rd.from_arrow(_skewed_triples_table()).repartition(32)


def test_hot_key_collapses_before_shuffle(skewed_ds):
    """The combiner output (what actually enters the all-to-all) must be
    batch-count-sized for the hot key, not occurrence-sized."""
    partials = skewed_ds.map_batches(_surface_partial_counts,
                                     batch_format="pyarrow").materialize()
    df = partials.to_pandas()
    hot = df[df["norm"] == "barack obama"]
    assert hot["n"].sum() == N_HOT          # nothing lost in the combine
    assert len(hot) <= 2 * 32               # ≤ surfaces × batches rows
    # enter the shuffle — not 9000 occurrence rows


def test_hot_entity_alias_map_exact(skewed_ds):
    alias = build_alias_map(skewed_ds)
    # majority surface wins the canonical pick (6000 "Barack Obama"
    # vs 3000 "President Barack Obama", which normalizes to the same key)
    assert alias[normalize_surface("Barack Obama")] == "Barack Obama"
    assert alias[normalize_surface("President Barack Obama")] == "Barack Obama"


def test_skewed_kg_exact_and_batch_invariant(skewed_ds, ray_session):
    alias = build_alias_map(skewed_ds)
    kg = build_kg(skewed_ds, alias_map=alias, num_buckets=8).to_pandas()
    kg = kg.sort_values(["subj", "pred", "obj"], ignore_index=True)

    # driver-side reference computation on the same rows
    df = _skewed_triples_table().to_pandas()
    for c in ("subj_canonical", "obj_canonical"):
        df[c] = [alias.get(normalize_surface(s), s) for s in df[c]]
    want = (df.groupby([df["subj_canonical"].rename("subj"),
                        df["pred"], df["obj_canonical"].rename("obj")])
            .agg(confidence=("confidence", "max"),
                 support_count=("confidence", "size"),
                 example_url=("url", "min"))
            .reset_index().sort_values(["subj", "pred", "obj"],
                                       ignore_index=True))
    assert len(kg) == len(want)
    hot_row = kg[kg["subj"] == "Barack Obama"]
    assert len(hot_row) == 1                       # fully deduplicated
    assert int(hot_row["support_count"].iloc[0]) == N_HOT
    pd.testing.assert_frame_equal(
        kg[["subj", "pred", "obj", "confidence", "support_count",
            "example_url"]], want, check_dtype=False)

    # determinism across parallelism: different block structure, same KG
    kg2 = build_kg(rd.from_arrow(_skewed_triples_table()).repartition(5),
                   alias_map=alias, num_buckets=8).to_pandas()
    kg2 = kg2.sort_values(["subj", "pred", "obj"], ignore_index=True)
    pd.testing.assert_frame_equal(kg, kg2, check_dtype=False)


def test_triple_partial_agg_bounds_hot_key():
    """Per-batch combiner: one output row per (s,p,o) regardless of how
    many times the hot triple repeats inside the batch."""
    t = _skewed_triples_table()
    out = _triple_partial_agg(t)
    hot = out.to_pandas().query("subj == 'Barack Obama'")
    assert len(hot) == 1
    assert int(hot["support_count"].iloc[0]) == N_HOT - N_HOT // 3


def _fold_triples(rows):
    """Reference dedup fold: (s,p,o) → [max conf, rows, min url]."""
    acc = {}
    for r in rows:
        key = (r["subj_canonical"], r["pred"], r["obj_canonical"])
        a = acc.setdefault(key, [r["confidence"], 0, r["url"]])
        a[0] = max(a[0], r["confidence"])
        a[1] += 1
        a[2] = min(a[2], r["url"])
    return Counter(k + tuple(a) for k, a in acc.items())


def _fold_surfaces(rows):
    """Reference surface count: (norm, surface) → occurrences."""
    acc = {}
    for r in rows:
        for s in (r["subj_canonical"], r["obj_canonical"]):
            if s and normalize_surface(s):
                key = (normalize_surface(s), s)
                acc[key] = acc.get(key, 0) + 1
    return Counter(k + (n,) for k, n in acc.items())


_TRIPLE_TYPES = pa.schema([
    ("url", pa.string()), ("subj_canonical", pa.string()),
    ("pred", pa.string()), ("obj_canonical", pa.string()),
    ("confidence", pa.float64()),
])


def _row(url, s, o, conf, p="per:employee_of"):
    return {"url": url, "subj_canonical": s, "pred": p,
            "obj_canonical": o, "confidence": conf}


@pytest.mark.parametrize("rows", [
    [_row("u3", "Ann Lee", "Initech", 0.5),
     _row("u1", "Ann Lee", "Initech", 0.9),
     _row("u2", "Ann Lee", "Initech", 0.7),
     _row("u0", "Ann Lee", "Initech", 0.6, p="per:spouse"),
     _row("u4", "the Ann Lee", "Dr. Ann Lee", 0.4)],
    [_row("u2", "Ann Lee", None, 0.3), _row("u1", "Ann Lee", None, 0.8),
     _row("u0", "Ann Lee", "", 0.1), _row("u5", "", "Initech", 0.2),
     _row("u6", "The", "Initech", 0.2)],
    [],
], ids=["duplicate_keys", "null_and_empty_obj", "empty_batch"])
def test_arrow_combiners_equal_plain_fold(rows):
    t = pa.Table.from_pylist(rows, schema=_TRIPLE_TYPES)
    got = _triple_partial_agg(t)
    assert Counter(tuple(r.values()) for r in got.to_pylist()) \
        == _fold_triples(rows)
    got = _surface_partial_counts(t)
    assert Counter(tuple(r.values()) for r in got.to_pylist()) \
        == _fold_surfaces(rows)


def test_bucketed_join_pathological_skew(ray_session):
    """Every left row carries the SAME join key: the bucketed hash join
    must still complete (one hot partition, bounded by data volume) and
    match the pandas merge exactly."""
    from corenlp_ray.ops.joins import bucketed_hash_join

    left = pa.table({"k": ["hot"] * 5000,
                     "v": list(range(5000))})
    right = pa.table({"k": ["hot", "cold"], "w": [1, 2]})
    got = bucketed_hash_join(rd.from_arrow(left).repartition(16),
                             rd.from_arrow(right), on="k").to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k")
    got = got.sort_values(["k", "v"], ignore_index=True)[want.columns.tolist()]
    want = want.sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
