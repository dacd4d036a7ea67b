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
    one directory per bucket). The final dedup shuffles on that same
    key: the combiner tags its partial rows with their subject bucket,
    and ONE aggregate grouped by bucket merges each bucket's rows with
    an Arrow ``group_by``, so Ray runs Python per bucket, not per triple.
  * Every per-row Python call (surface normalization, alias lookup,
    bucket hash) runs once per distinct value of a batch.
  * Determinism: canonical pick = (max support, then lexicographic),
    stated once in ``_pick_canonical`` and used by both regimes;
    bucket = crc32 (process-stable, unlike Python ``hash``).
"""
from __future__ import annotations

import zlib
from functools import partial
from typing import Dict

import pyarrow as pa
import pyarrow.compute as pc

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


NUM_BUCKETS = 16  # default KG fan-out (one output directory per bucket)


def subj_bucket(s: str, num_buckets: int) -> int:
    return zlib.crc32(s.encode("utf-8")) % num_buckets


# ------------------------------------------------------------- alias map ----

def _per_distinct(column, fn, out_type=pa.string()) -> pa.Array:
    """``fn`` over a string column, called once per distinct value (a
    batch repeats its surfaces many times over); nulls stay null."""
    enc = pc.dictionary_encode(column.cast(pa.string()).combine_chunks())
    return pa.array([fn(s) for s in enc.dictionary.to_pylist()],
                    type=out_type).take(enc.indices)


def _surface_partial_counts(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner: triples batch → ≤1 row per (norm, surface) with a
    partial count. Runs before the shuffle; defuses hot keys."""
    surfaces = pa.chunked_array(
        [batch.column(c).cast(pa.string()).combine_chunks()
         for c in ("subj_canonical", "obj_canonical")])
    t = pa.table({"norm": _per_distinct(surfaces, normalize_surface),
                  "surface": surfaces})
    counted = t.filter(pc.not_equal(t["norm"], "")).group_by(
        ["norm", "surface"], use_threads=False).aggregate([([], "count_all")])
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

    Two-phase aggregate: vectorized per-batch partials → Ray's sort
    aggregate (Sum) over (norm, surface), which runs Python per group,
    but over the vocabulary (≪ triples) rather than per triple. The
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
    def norms(name):
        return pc.fill_null(_per_distinct(batch.column(name),
                                          normalize_surface), "")
    return (batch.append_column("_subj_norm", norms("subj_canonical"))
            .append_column("_obj_norm", norms("obj_canonical")))


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
    surfaces, then run the per-batch dedup combiner
    (``_bucketed_partials``).

    ``alias_ref`` is a ``ray.ObjectRef`` from ``ray.put(alias_map)``. The
    instance is shipped to plain tasks (resolution keeps no state between
    blocks), and each task fetches the dict from its local object store
    on its first batch — the dict is never shipped per batch."""

    def __init__(self, alias_ref, num_buckets: int = NUM_BUCKETS):
        self.alias_ref = alias_ref
        self.num_buckets = num_buckets
        self.aliases: Dict[str, str] | None = None

    def resolve(self, batch: pa.Table) -> pa.Table:
        if self.aliases is None:
            import ray

            self.aliases = ray.get(self.alias_ref)
        al = self.aliases

        def canonical(s):
            return al.get(normalize_surface(s), s) or s

        for name in ("subj_canonical", "obj_canonical"):
            batch = batch.set_column(
                batch.schema.get_field_index(name), name,
                _per_distinct(batch.column(name), canonical))
        return batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _bucketed_partials(self.resolve(batch), self.num_buckets)


# ----------------------------------------------------------- triple dedup ----

_PARTIAL_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("confidence", pa.float64()), ("support_count", pa.int64()),
    ("example_url", pa.string()),
])


def _dedup(rows: pa.Table) -> pa.Table:
    """Partial rows → one row per (subj, pred, obj): max confidence,
    summed support, min example url. The one merge rule of the dedup,
    used by the per-batch combiner and by the per-bucket aggregate."""
    agg = rows.group_by(["subj", "pred", "obj"], use_threads=False).aggregate(
        [("confidence", "max"), ("support_count", "sum"),
         ("example_url", "min")])
    return pa.table([agg["subj"], agg["pred"], agg["obj"],
                     agg["confidence_max"], agg["support_count_sum"],
                     agg["example_url_min"]],
                    names=_PARTIAL_SCHEMA.names).cast(_PARTIAL_SCHEMA)


def _triple_partial_agg(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner for triple dedup: batch → ≤1 row per (s,p,o) with
    max confidence, partial support count (rows), min example url."""
    return _dedup(pa.table({
        "subj": batch["subj_canonical"], "pred": batch["pred"],
        "obj": batch["obj_canonical"], "confidence": batch["confidence"],
        "support_count": pa.repeat(1, batch.num_rows),
        "example_url": batch["url"]}))


def _bucketed_partials(batch: pa.Table, num_buckets: int) -> pa.Table:
    """The dedup combiner: ``_triple_partial_agg`` plus each row's
    subject bucket, the key of the final aggregate."""
    part = _triple_partial_agg(batch)
    return part.append_column("subj_bucket", _per_distinct(
        part["subj"], lambda s: subj_bucket(s, num_buckets), pa.int32()))


def _to_ipc(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def _from_ipc(buf: bytes) -> pa.Table:
    return pa.ipc.open_stream(buf).read_all()


_KG_CELL = "kg_rows"  # the aggregate's accumulator column


def _bucket_dedup_fn():
    """The final dedup as ONE ``AggregateFnV2`` grouped by subject bucket.

    Its accumulator is the bucket's deduplicated partial rows (Arrow IPC
    bytes, one binary cell per bucket). ``aggregate_block`` and
    ``combine`` each merge rows with one Arrow ``group_by`` (``_dedup``),
    so Ray's sort aggregate runs Python once per bucket and block, not
    once per (subj, pred, obj) group."""
    from ray.data.aggregate import AggregateFnV2

    class BucketDedup(AggregateFnV2):
        def __init__(self):
            super().__init__(_KG_CELL, zero_factory=bytes, on=None,
                             ignore_nulls=True)

        def aggregate_block(self, block: pa.Table) -> bytes:
            return _to_ipc(_dedup(block.select(_PARTIAL_SCHEMA.names)))

        def combine(self, acc: bytes, new: bytes) -> bytes:
            return _to_ipc(_dedup(pa.concat_tables(
                [_from_ipc(acc), _from_ipc(new)])))

    return BucketDedup()


def _expand_buckets(buckets: pa.Table) -> pa.Table:
    """Aggregate output (one row per bucket) → ``KG_SCHEMA`` rows."""
    parts = []
    for b, cell in zip(buckets["subj_bucket"].to_pylist(),
                       buckets[_KG_CELL].to_pylist()):
        rows = _from_ipc(cell).sort_by([("subj", "ascending"),
                                        ("pred", "ascending"),
                                        ("obj", "ascending")])
        parts.append(rows.append_column(
            "subj_bucket", pa.repeat(pa.scalar(b, pa.int32()),
                                     rows.num_rows)))
    return pa.concat_tables(parts) if parts else KG_SCHEMA.empty_table()


def build_kg(triples_ds, alias_map=None, num_buckets: int = NUM_BUCKETS):
    """triples Dataset → deduplicated KG Dataset partitioned by subj hash.

    Pipeline: per-batch [alias resolve via the broadcast dict, then]
    partial dedup (combiner) as one task map, which also tags each row
    with its subject bucket → ONE ``groupby("subj_bucket")`` aggregate
    whose accumulator is the bucket's deduplicated rows, merged with an
    Arrow ``group_by`` (max confidence, summed support, min url) → a map
    that expands each bucket into ``KG_SCHEMA`` rows. The shuffle is
    keyed on the output's own partitioning, and Ray's per-group Python
    runs once per bucket, not once per triple.
    """
    import ray

    combine = partial(_bucketed_partials, num_buckets=num_buckets) \
        if alias_map is None \
        else ResolveAliases(ray.put(alias_map), num_buckets)
    partials = triples_ds.map_batches(combine, batch_format="pyarrow")
    buckets = partials.groupby("subj_bucket").aggregate(_bucket_dedup_fn())
    # a lambda, so the operator keeps the name perfbench's traced mode
    # reads (``MapBatches(<lambda>)->Write``)
    return buckets.map_batches(lambda b: _expand_buckets(b),
                               batch_format="pyarrow")


def write_kg(kg_ds, path: str):
    """Materialize the triple store: hash(subj)-bucketed Parquet layout
    (one directory per bucket → resumable / skippable partitions)."""
    kg_ds.write_parquet(path, partition_cols=["subj_bucket"])
