"""Entity canonicalization + triple dedup + KG materialization (the wide,
shuffling steps — SURVEY §2.4).

The reference has no cross-document step (documents never meet); this is
the part the north_rule adds: a groupby-aggregate canonicalization shuffle
(surface-form clustering + alias resolution) materializing a deduplicated
(subj, pred, obj) triple store partitioned by subject hash.

Scale design (what holds at 10^12 documents):
  * ALL aggregations are two-phase: a vectorized per-batch partial
    aggregate (combiner) inside ``map_batches`` collapses each batch to
    ≤1 row per key BEFORE the shuffle, so a hot key ("Obama") contributes
    one row per batch, not one per occurrence — this is the salt: the
    batch id is an implicit salt and the partial aggregate is the salted
    first phase; the final ``groupby`` only sees pre-collapsed rows.
  * The alias map (normalized surface → canonical surface) is built the
    same two-phase way, then BROADCAST via ``ray.put`` once and read in
    every task — never re-shipped per batch, never a shuffle join. At
    dictionary sizes beyond object-store reach, swap in the bucketed
    hash-join (hash-partition both sides on norm-key buckets); the
    broadcast path is correct for vocabulary ≪ corpus, which is the
    regime here (entity vocabulary grows sublinearly in documents).
  * Output is hash(subj)-bucketed partitioned Parquet (resumable layout:
    one directory per bucket).
  * Determinism: canonical pick = (max support, then lexicographic);
    bucket = crc32 (process-stable, unlike Python ``hash``).
"""
from __future__ import annotations

import zlib
from typing import Dict, List

import pandas as pd
import pyarrow as pa

from corenlp_ray.functions.lexicon import PERSON_TITLES

_DET = {"the", "a", "an", "this", "that", "these", "those"}

KG_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("confidence", pa.float64()),
    ("support_count", pa.int64()),
    ("example_url", pa.string()),   # deterministic lineage sample (min url)
    ("subj_bucket", pa.int32()),
])


def normalize_surface(s: str) -> str:
    """Normalized surface form — the canonicalization shuffle key."""
    toks = s.lower().replace(",", " ").split()
    while toks and (toks[0] in _DET or toks[0] in PERSON_TITLES):
        toks = toks[1:]
    return " ".join(t.strip(".,;:!?\"'") or t for t in toks)


def subj_bucket(s: str, num_buckets: int) -> int:
    return zlib.crc32(s.encode("utf-8")) % num_buckets


# ------------------------------------------------------------- alias map ----

def _surface_partial_counts(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner: triples batch → ≤1 row per (norm, surface) with a
    partial count. Runs before the shuffle; defuses hot keys."""
    counts: Dict[tuple, int] = {}
    for col in ("subj_canonical", "obj_canonical"):
        for s in batch.column(col).to_pylist():
            if not s:
                continue
            key = (normalize_surface(s), s)
            if key[0]:
                counts[key] = counts.get(key, 0) + 1
    norms, surfaces, cnts = [], [], []
    for (n, s), c in counts.items():
        norms.append(n)
        surfaces.append(s)
        cnts.append(c)
    return pa.Table.from_pydict(
        {"norm": norms, "surface": surfaces, "n": cnts},
        schema=pa.schema([("norm", pa.string()), ("surface", pa.string()),
                          ("n", pa.int64())]))


def _alias_totals(triples_ds):
    """(norm, surface, n) aggregated vocabulary Dataset — the shared
    front half of both alias-resolution paths."""
    from ray.data.aggregate import Sum

    partials = triples_ds.map_batches(_surface_partial_counts,
                                      batch_format="pyarrow")
    return partials.groupby(["norm", "surface"]).aggregate(
        Sum("n", alias_name="n"))


def build_alias_map(triples_ds, totals=None) -> Dict[str, str]:
    """Cross-document surface-form clustering → {norm: canonical}.

    Two-phase aggregate: vectorized per-batch partials → native hash
    aggregate (Sum) over (norm, surface) — no per-group Python. The
    canonical pick (max support, ties lexicographic) runs on the driver
    over the AGGREGATED vocabulary table, which is entity-vocabulary-
    sized (≪ corpus; it is about to become a broadcast dict anyway).
    This is the BROADCAST regime — above ``ALIAS_VOCAB_BROADCAST_MAX``
    entries the pipeline switches to ``build_alias_assignments`` +
    ``resolve_aliases_join`` (fully distributed; no driver dict).
    """
    if totals is None:
        totals = _alias_totals(triples_ds)
    best: Dict[str, tuple] = {}
    for b in totals.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for n, s, c in zip(b.column("norm").to_pylist(),
                           b.column("surface").to_pylist(),
                           b.column("n").to_pylist()):
            cur = best.get(n)
            # max support; ties → lexicographically smallest surface
            if cur is None or (-c, s) < cur:
                best[n] = (-c, s)
    return {n: s for n, (_, s) in best.items()}


# vocabulary size above which the driver-dict broadcast path is replaced
# by the distributed argmax + bucketed-join path (at 10^12 web documents
# the surface-form vocabulary is billions of rows — no driver dict)
ALIAS_VOCAB_BROADCAST_MAX = 2_000_000


def _pick_canonical_group(df):
    """Per-norm canonical pick: max support, ties lexicographically
    smallest surface — one vectorized pandas pass per group."""
    sub = df.sort_values(["n", "surface"], ascending=[False, True])
    return sub.iloc[:1][["norm", "surface"]].rename(
        columns={"surface": "canonical"})


def build_alias_assignments(triples_ds, totals=None):
    """Distributed alias resolution: → Dataset(norm, canonical).

    The scale path: canonical picks computed via groupby(norm) argmax
    inside the cluster — the vocabulary never lands on the driver.
    Uses the coarse hash-partition + vectorized in-partition groupby
    (ops/dedup.partitioned_group_apply) rather than per-norm map_groups:
    at billions of norms a per-tiny-group Python dispatch is the
    map_groups trap the repo's groupbys all avoid."""
    from corenlp_ray.ops.dedup import partitioned_group_apply

    if totals is None:
        totals = _alias_totals(triples_ds)

    def pick_partition(df):
        sub = df.sort_values(["n", "surface"], ascending=[False, True])
        out = sub.groupby("norm", sort=False).head(1)[["norm", "surface"]]
        return out.rename(columns={"surface": "canonical"})

    return partitioned_group_apply(totals, ["norm"], pick_partition,
                                   inner_is_partition=True)


def resolve_alias_scale(triples_ds, vocab_broadcast_max: int | None = None):
    """Route alias canonicalization by vocabulary size.

    → ``(alias_map, triples_ds)``: below the threshold the broadcast
    regime returns the driver dict (``ray.put`` once, read per actor);
    above it (billions of surface forms at web scale) ``alias_map`` is
    None and the returned triples are ALREADY rewritten via the fully
    distributed argmax + bucketed-join path."""
    limit = ALIAS_VOCAB_BROADCAST_MAX if vocab_broadcast_max is None \
        else vocab_broadcast_max
    # vocabulary-sized (≪ corpus) and consumed twice (count + pick):
    # pin it once
    totals = _alias_totals(triples_ds).materialize()
    if totals.count() <= limit:
        return build_alias_map(None, totals=totals), triples_ds
    # the assignments Dataset feeds TWO bucketed joins (subj, obj) —
    # pin it once so the argmax isn't recomputed per consumer
    assignments = build_alias_assignments(None, totals=totals).materialize()
    return None, resolve_aliases_join(triples_ds, assignments)


def _norm_cols_batch(batch: pa.Table) -> pa.Table:
    subs = [normalize_surface(s or "")
            for s in batch.column("subj_canonical").to_pylist()]
    objs = [normalize_surface(o or "")
            for o in batch.column("obj_canonical").to_pylist()]
    return (batch
            .append_column("_subj_norm", pa.array(subs, type=pa.string()))
            .append_column("_obj_norm", pa.array(objs, type=pa.string())))


def resolve_aliases_join(triples_ds, alias_ds, num_partitions: int = 32):
    """Join-based alias resolve (the >broadcast-regime path): two
    bucketed hash joins (subj norm, then obj norm) against the
    distributed (norm, canonical) assignments — the same co-partitioned
    join kernel the wikidict linker uses (ops/joins.bucketed_hash_join).
    Output schema matches the broadcast resolver (combiner NOT fused —
    the caller's partial-agg stage follows)."""
    from corenlp_ray.ops.joins import bucketed_hash_join

    def _renamed(ds, key_name, canon_name):
        def rn(b: pa.Table) -> pa.Table:
            return b.select(["norm", "canonical"]).rename_columns(
                [key_name, canon_name])
        return ds.map_batches(rn, batch_format="pyarrow")

    withnorm = triples_ds.map_batches(_norm_cols_batch,
                                      batch_format="pyarrow")
    j1 = bucketed_hash_join(
        withnorm, _renamed(alias_ds, "_subj_norm", "sal_canonical"),
        on="_subj_norm", how="left", npart=num_partitions)
    j2 = bucketed_hash_join(
        j1, _renamed(alias_ds, "_obj_norm", "oal_canonical"),
        on="_obj_norm", how="left", npart=num_partitions)

    def _apply(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sc = pc.coalesce(batch.column("sal_canonical"),
                         batch.column("subj_canonical"))
        oc = pc.coalesce(batch.column("oal_canonical"),
                         batch.column("obj_canonical"))
        out = (batch
               .set_column(batch.schema.get_field_index("subj_canonical"),
                           "subj_canonical", sc)
               .set_column(batch.schema.get_field_index("obj_canonical"),
                           "obj_canonical", oc))
        drop = [c for c in out.column_names
                if c.startswith(("_subj_norm", "_obj_norm", "sal_",
                                 "oal_"))]
        return out.drop_columns(drop)

    return j2.map_batches(_apply, batch_format="pyarrow")


class ResolveAliases:
    """map_batches stage: rewrite subj/obj to canonical cluster surfaces.

    ``alias_ref`` is a ``ray.ObjectRef`` from ``ray.put(alias_map)`` —
    fetched ONCE per actor (zero-copy from the local object store), never
    shipped per batch. With ``combine=True`` the per-batch dedup combiner
    runs in the same stage (resolve + partial-aggregate in one pass)."""

    def __init__(self, alias_ref, combine: bool = False):
        import ray

        self.aliases: Dict[str, str] = ray.get(alias_ref)
        self.combine = combine

    def __call__(self, batch: pa.Table) -> pa.Table:
        subs, objs = [], []
        al = self.aliases
        for s in batch.column("subj_canonical").to_pylist():
            subs.append(al.get(normalize_surface(s or ""), s) or s)
        for o in batch.column("obj_canonical").to_pylist():
            objs.append(al.get(normalize_surface(o or ""), o) or o)
        out = (batch
               .set_column(batch.schema.get_field_index("subj_canonical"),
                           "subj_canonical", pa.array(subs, type=pa.string()))
               .set_column(batch.schema.get_field_index("obj_canonical"),
                           "obj_canonical", pa.array(objs, type=pa.string())))
        return _triple_partial_agg(out) if self.combine else out


# ----------------------------------------------------------- triple dedup ----

_PARTIAL_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("confidence", pa.float64()), ("support_count", pa.int64()),
    ("example_url", pa.string()),
])


def _triple_partial_agg(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner for triple dedup: batch → ≤1 row per (s,p,o) with
    max confidence, partial support count, min example url."""
    acc: Dict[tuple, list] = {}
    urls = batch.column("url").to_pylist()
    subs = batch.column("subj_canonical").to_pylist()
    preds = batch.column("pred").to_pylist()
    objs = batch.column("obj_canonical").to_pylist()
    confs = batch.column("confidence").to_pylist()
    for u, s, p, o, c in zip(urls, subs, preds, objs, confs):
        key = (s, p, o)
        if key in acc:
            a = acc[key]
            a[0] = max(a[0], c)
            a[1] += 1
            a[2] = min(a[2], u)
        else:
            acc[key] = [c, 1, u]
    rows = [{"subj": k[0], "pred": k[1], "obj": k[2], "confidence": a[0],
             "support_count": a[1], "example_url": a[2]}
            for k, a in acc.items()]
    return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)


def _add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    b = [subj_bucket(s, num_buckets)
         for s in batch.column("subj").to_pylist()]
    return batch.append_column("subj_bucket", pa.array(b, type=pa.int32()))


def build_kg(triples_ds, alias_map=None, num_buckets: int = 16):
    """triples Dataset → deduplicated KG Dataset partitioned by subj hash.

    Pipeline: [resolve aliases via broadcast] → per-batch partial dedup
    (combiner) → NATIVE hash aggregate on (subj, pred, obj) — Max/Sum/Min
    over pre-collapsed rows, no per-group Python — → bucket column.
    """
    import ray
    from ray.data.aggregate import Max, Min, Sum

    if alias_map is not None:
        from corenlp_ray.pipelines.registry import _ncpus

        ref = ray.put(alias_map)
        ncpus = _ncpus()
        # resolve + combine fused into one actor-pool pass
        partial = triples_ds.map_batches(
            ResolveAliases, batch_format="pyarrow",
            concurrency=max(1, min(ncpus - 1, ncpus // 8 + 1)),
            fn_constructor_args=(ref, True))
    else:
        partial = triples_ds.map_batches(_triple_partial_agg,
                                         batch_format="pyarrow")
    merged = partial.groupby(["subj", "pred", "obj"]).aggregate(
        Max("confidence", alias_name="confidence"),
        Sum("support_count", alias_name="support_count"),
        Min("example_url", alias_name="example_url"))
    return merged.map_batches(
        lambda b: _add_bucket(b, num_buckets), batch_format="pyarrow")


def write_kg(kg_ds, path: str):
    """Materialize the triple store: hash(subj)-bucketed Parquet layout
    (one directory per bucket → resumable / skippable partitions)."""
    kg_ds.write_parquet(path, partition_cols=["subj_bucket"])
