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
    same two-phase way, then BROADCAST via ``ray.put`` once; each task of
    the resolve map fetches it from the local object store on its first
    batch — never re-shipped per batch, never a shuffle join. Resolution
    keeps no state between blocks, so it runs as plain tasks, not an
    actor pool. Above ``ALIAS_VOCAB_BROADCAST_MAX`` surface forms the
    bucketed hash-join (hash-partition both sides on norm-key buckets)
    replaces the broadcast; the broadcast path is correct for
    vocabulary ≪ corpus, the usual regime (entity vocabulary grows
    sublinearly in documents).
  * Output is hash(subj)-bucketed partitioned Parquet (resumable layout:
    one directory per bucket).
  * Determinism: canonical pick = (max support, then lexicographic),
    stated once in ``_pick_canonical`` and used by both regimes;
    bucket = crc32 (process-stable, unlike Python ``hash``).
"""
from __future__ import annotations

import zlib
from typing import Dict

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
    norms, surfaces = [], []
    for col in ("subj_canonical", "obj_canonical"):
        for s in batch.column(col).to_pylist():
            n = normalize_surface(s) if s else ""
            if n:
                norms.append(n)
                surfaces.append(s)
    counted = pa.table({"norm": pa.array(norms, type=pa.string()),
                        "surface": pa.array(surfaces, type=pa.string())}
                       ).group_by(["norm", "surface"], use_threads=False
                                  ).aggregate([([], "count_all")])
    return pa.table({"norm": counted["norm"], "surface": counted["surface"],
                     "n": counted["count_all"]})


def _alias_totals(triples_ds):
    """(norm, surface, n) aggregated vocabulary Dataset — the shared
    front half of both alias-resolution paths."""
    from ray.data.aggregate import Sum

    partials = triples_ds.map_batches(_surface_partial_counts,
                                      batch_format="pyarrow")
    return partials.groupby(["norm", "surface"]).aggregate(
        Sum("n", alias_name="n"))


def _pick_canonical(totals: pa.Table) -> pa.Table:
    """(norm, surface, n) → (norm, canonical): the one canonical-pick rule
    — max support, ties → the lexicographically smallest surface. Both
    alias regimes run it: on the driver over the whole vocabulary, and
    per hash partition of it."""
    first = (totals.sort_by([("n", "descending"), ("surface", "ascending")])
             .group_by("norm", use_threads=False)
             .aggregate([("surface", "first")]))
    return pa.table({"norm": first["norm"],
                     "canonical": first["surface_first"]})


def build_alias_map(triples_ds, totals=None) -> Dict[str, str]:
    """Cross-document surface-form clustering → {norm: canonical}.

    Two-phase aggregate: vectorized per-batch partials → native hash
    aggregate (Sum) over (norm, surface) — no per-group Python. The
    canonical pick runs on the driver over the AGGREGATED vocabulary
    table, which is entity-vocabulary-sized (≪ corpus; it is about to
    become a broadcast dict anyway). This is the BROADCAST regime —
    above ``ALIAS_VOCAB_BROADCAST_MAX`` entries the pipeline switches to
    ``build_alias_assignments`` + ``resolve_aliases_join`` (fully
    distributed; no driver dict).
    """
    if totals is None:
        totals = _alias_totals(triples_ds)
    parts = list(totals.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not parts:
        return {}
    picked = _pick_canonical(pa.concat_tables(parts))
    return dict(zip(picked["norm"].to_pylist(),
                    picked["canonical"].to_pylist()))


# vocabulary size above which the driver-dict broadcast path is replaced
# by the distributed argmax + bucketed-join path (at 10^12 web documents
# the surface-form vocabulary is billions of rows — no driver dict)
ALIAS_VOCAB_BROADCAST_MAX = 2_000_000


def build_alias_assignments(totals):
    """Distributed alias resolution: (norm, surface, n) totals Dataset →
    Dataset(norm, canonical).

    The scale path: canonical picks computed inside the cluster — the
    vocabulary never lands on the driver. Uses the coarse hash-partition
    + in-partition ``_pick_canonical`` (ops/dedup.partitioned_group_apply)
    rather than per-norm map_groups: at billions of norms a
    per-tiny-group Python dispatch is the map_groups trap the repo's
    groupbys all avoid."""
    from corenlp_ray.ops.dedup import partitioned_group_apply

    def pick_partition(df):
        return _pick_canonical(
            pa.Table.from_pandas(df, preserve_index=False)).to_pandas()

    return partitioned_group_apply(totals, ["norm"], pick_partition,
                                   inner_is_partition=True)


def resolve_alias_scale(triples_ds, vocab_broadcast_max: int | None = None):
    """Route alias canonicalization by vocabulary size.

    → ``(alias_map, triples_ds)``: below the threshold the broadcast
    regime returns the driver dict (``build_kg`` puts it once);
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
    assignments = build_alias_assignments(totals).materialize()
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
    """map_batches callable: rewrite subj/obj to canonical cluster
    surfaces, then run the per-batch dedup combiner.

    ``alias_ref`` is a ``ray.ObjectRef`` from ``ray.put(alias_map)``. The
    instance is shipped to plain tasks (resolution keeps no state between
    blocks), and each task fetches the dict from its local object store
    on its first batch — the dict is never shipped per batch."""

    def __init__(self, alias_ref):
        self.alias_ref = alias_ref
        self.aliases: Dict[str, str] | None = None

    def resolve(self, batch: pa.Table) -> pa.Table:
        if self.aliases is None:
            import ray

            self.aliases = ray.get(self.alias_ref)
        al = self.aliases
        subs = [al.get(normalize_surface(s or ""), s) or s
                for s in batch.column("subj_canonical").to_pylist()]
        objs = [al.get(normalize_surface(o or ""), o) or o
                for o in batch.column("obj_canonical").to_pylist()]
        return (batch
                .set_column(batch.schema.get_field_index("subj_canonical"),
                            "subj_canonical", pa.array(subs, type=pa.string()))
                .set_column(batch.schema.get_field_index("obj_canonical"),
                            "obj_canonical", pa.array(objs, type=pa.string())))

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _triple_partial_agg(self.resolve(batch))


# ----------------------------------------------------------- triple dedup ----

_PARTIAL_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("confidence", pa.float64()), ("support_count", pa.int64()),
    ("example_url", pa.string()),
])


def _triple_partial_agg(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner for triple dedup: batch → ≤1 row per (s,p,o) with
    max confidence, partial support count (rows), min example url."""
    agg = batch.group_by(["subj_canonical", "pred", "obj_canonical"],
                         use_threads=False).aggregate(
        [("confidence", "max"), ([], "count_all"), ("url", "min")])
    return pa.table([agg["subj_canonical"], agg["pred"], agg["obj_canonical"],
                     agg["confidence_max"], agg["count_all"], agg["url_min"]],
                    names=_PARTIAL_SCHEMA.names).cast(_PARTIAL_SCHEMA)


def _add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    b = [subj_bucket(s, num_buckets)
         for s in batch.column("subj").to_pylist()]
    return batch.append_column("subj_bucket", pa.array(b, type=pa.int32()))


def build_kg(triples_ds, alias_map=None, num_buckets: int = 16):
    """triples Dataset → deduplicated KG Dataset partitioned by subj hash.

    Pipeline: per-batch [alias resolve via the broadcast dict, then]
    partial dedup (combiner) as one task map → NATIVE hash aggregate on
    (subj, pred, obj) — Max/Sum/Min over pre-collapsed rows, no
    per-group Python — → bucket column.
    """
    import ray
    from ray.data.aggregate import Max, Min, Sum

    combine = _triple_partial_agg if alias_map is None \
        else ResolveAliases(ray.put(alias_map))
    partial = triples_ds.map_batches(combine, batch_format="pyarrow")
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
