"""Entity canonicalization + triple dedup + KG materialization (the wide,
shuffling steps — SURVEY §2.4).

The reference has no cross-document step (documents never meet); this is
the part the north_rule adds: a groupby-aggregate canonicalization shuffle
(surface-form clustering + alias resolution) materializing a deduplicated
(subj, pred, obj) triple store partitioned by subject hash.

Scale design (what holds at 10^12 documents):
  * ALL aggregations are two-phase: a vectorized per-batch combiner
    collapses each batch to ≤1 row per key BEFORE the shuffle, so a hot
    key ("Obama") contributes one row per batch, not one per occurrence
    (the batch is the implicit salt).
  * Both wide steps are ONE mechanism, ``_bucket_aggregate``: the
    combiner tags each row with the crc32 bucket of its key, and ONE
    aggregate grouped by bucket keeps each bucket's rows as an Arrow
    table merged by one Arrow ``group_by`` (Ray runs Python per bucket,
    not per key); a map then expands each bucket.
  * Alias map (norm → canonical surface): the vocabulary aggregate sums
    (norm, surface) counts per norm bucket and picks each norm's
    canonical inside its bucket. The two regimes apply the same picks
    Dataset. Up to ``ALIAS_VOCAB_BROADCAST_MAX`` norms it becomes a dict
    BROADCAST via ``ray.put`` once, fetched by each resolve task on its
    first batch (plain tasks: resolution keeps no state between blocks).
    Above it, the picks feed a bucketed hash join on the norm. Entity
    vocabulary grows sublinearly in documents, so broadcast is the
    usual regime.
  * Output is hash(subj)-bucketed partitioned Parquet (one directory per
    bucket, resumable); the dedup aggregate is keyed on that bucket.
  * Every per-row Python call (surface normalization, alias lookup,
    bucket hash) runs once per distinct value of a batch.
  * Determinism: canonical pick = (max support, then lexicographic),
    stated once in ``_pick_canonical``; bucket = crc32 (process-stable,
    unlike Python ``hash``).
"""
from __future__ import annotations

import os
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


# --------------------------------------------------------- bucket aggregate ----

def _per_distinct(column, fn, out_type=pa.string()) -> pa.Array:
    """``fn`` over a string column, called once per distinct value (a
    batch repeats its surfaces many times over); nulls stay null."""
    enc = pc.dictionary_encode(column.cast(pa.string()).combine_chunks())
    return pa.array([fn(s) for s in enc.dictionary.to_pylist()],
                    type=out_type).take(enc.indices)


def _tag_bucket(rows: pa.Table, column: str, key: str,
                num_buckets: int) -> pa.Table:
    """``rows`` plus ``key``: the crc32 bucket of each row's ``column``."""
    return rows.append_column(key, _per_distinct(
        rows[column], lambda s: subj_bucket(s, num_buckets), pa.int32()))


def _to_ipc(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def _from_ipc(buf: bytes) -> pa.Table:
    return pa.ipc.open_stream(buf).read_all()


_CELL = "rows"  # the bucket aggregate's accumulator column


def _bucket_merge_fn(merge, key: str):
    """ONE ``AggregateFnV2`` for a groupby on the bucket column ``key``:
    the accumulator is the bucket's rows (Arrow IPC bytes, one cell per
    bucket); ``aggregate_block`` and ``combine`` merge them with
    ``merge``, so Ray runs Python once per bucket and block."""
    from ray.data.aggregate import AggregateFnV2

    class BucketMerge(AggregateFnV2):
        def __init__(self):
            super().__init__(_CELL, zero_factory=bytes, on=None,
                             ignore_nulls=True)

        def aggregate_block(self, block: pa.Table) -> bytes:
            return _to_ipc(merge(block.drop_columns([key])))

        def combine(self, acc: bytes, new: bytes) -> bytes:
            return _to_ipc(merge(pa.concat_tables(
                [_from_ipc(acc), _from_ipc(new)])))

    return BucketMerge()


def _expand_buckets(buckets: pa.Table, key: str, finish,
                    schema: pa.Schema) -> pa.Table:
    """Aggregate output (one row per bucket) → ``finish`` of each
    bucket's merged rows, tagged with the bucket: ``schema`` rows."""
    parts = []
    for b, cell in zip(buckets[key].to_pylist(), buckets[_CELL].to_pylist()):
        rows = finish(_from_ipc(cell))
        parts.append(rows.append_column(
            key, pa.repeat(pa.scalar(b, pa.int32()), rows.num_rows)))
    return pa.concat_tables(parts) if parts else schema.empty_table()


def _bucket_aggregate(partials, key: str, merge, finish, schema: pa.Schema):
    """The tail's one wide step, run by the vocabulary and the dedup:
    ``partials`` (rows tagged with their bucket ``key``) → ONE
    ``groupby(key)`` aggregate merging each bucket's rows with ``merge``
    → a map expanding each bucket into ``finish`` of its merged rows.
    The bucket count is set where ``key`` is tagged."""
    buckets = partials.groupby(key).aggregate(_bucket_merge_fn(merge, key))
    # a lambda, so the operator keeps the name perfbench's traced mode
    # reads (``MapBatches(<lambda>)->Write``)
    return buckets.map_batches(
        lambda b: _expand_buckets(b, key, finish, schema),
        batch_format="pyarrow")


# ------------------------------------------------------------- alias map ----

def _sum_counts(rows: pa.Table) -> pa.Table:
    """(norm, surface, n) rows → one row per (norm, surface), ``n``
    summed. The one merge rule of the vocabulary, used by the per-batch
    combiner and by the per-bucket aggregate."""
    agg = rows.group_by(["norm", "surface"], use_threads=False).aggregate(
        [("n", "sum")])
    return pa.table({"norm": agg["norm"], "surface": agg["surface"],
                     "n": agg["n_sum"]})


def _surface_partial_counts(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner: triples batch → ≤1 row per (norm, surface) with a
    partial count. Runs before the shuffle; defuses hot keys."""
    surfaces = pa.chunked_array(
        [batch.column(c).cast(pa.string()).combine_chunks()
         for c in ("subj_canonical", "obj_canonical")])
    t = pa.table({"norm": _per_distinct(surfaces, normalize_surface),
                  "surface": surfaces, "n": pa.repeat(1, len(surfaces))})
    return _sum_counts(t.filter(pc.not_equal(t["norm"], "")))


def _pick_canonical(totals: pa.Table) -> pa.Table:
    """(norm, surface, n) → (norm, canonical): the one canonical-pick rule
    — max support, ties → the lexicographically smallest surface. It
    runs once per norm bucket; a norm lives in exactly one bucket, so the
    pick per bucket is the pick over the whole vocabulary."""
    first = (totals.sort_by([("n", "descending"), ("surface", "ascending")])
             .group_by("norm", use_threads=False)
             .aggregate([("surface", "first")]))
    return pa.table({"norm": first["norm"],
                     "canonical": first["surface_first"]})


_PICKS_SCHEMA = pa.schema([("norm", pa.string()), ("canonical", pa.string()),
                           ("norm_bucket", pa.int32())])


def _alias_picks(triples_ds, num_buckets: int | None = None):
    """triples Dataset → the (norm, canonical, norm_bucket) picks Dataset,
    materialized once: the per-batch (norm, surface) counts, tagged with
    their norm bucket (by default the fan-out of the repo's partitioned
    groupbys) → the bucket aggregate summing the counts → the canonical
    pick of each bucket."""
    from corenlp_ray.ops._partition import coarse_partitions

    num_buckets = num_buckets or coarse_partitions()
    partials = triples_ds.map_batches(
        lambda b: _tag_bucket(_surface_partial_counts(b), "norm",
                              "norm_bucket", num_buckets),
        batch_format="pyarrow")
    return _bucket_aggregate(partials, "norm_bucket", _sum_counts,
                             _pick_canonical, _PICKS_SCHEMA).materialize()


def _alias_dict(picks) -> Dict[str, str]:
    """The picks Dataset as the broadcast regime's {norm: canonical}."""
    alias: Dict[str, str] = {}
    for b in picks.iter_batches(batch_size=None, batch_format="pyarrow"):
        alias.update(zip(b["norm"].to_pylist(), b["canonical"].to_pylist()))
    return alias


def build_alias_map(triples_ds) -> Dict[str, str]:
    """Cross-document surface-form clustering → {norm: canonical}, the
    dict of the BROADCAST regime. The picks are made in the cluster,
    bucket by bucket; the driver only collects them."""
    return _alias_dict(_alias_picks(triples_ds))


# number of norms above which the driver-dict broadcast is replaced by
# the bucketed join against the picks Dataset (at 10^12 web documents
# the vocabulary is billions of norms — no driver dict)
ALIAS_VOCAB_BROADCAST_MAX = 2_000_000


def resolve_alias_scale(triples_ds, vocab_broadcast_max: int | None = None):
    """Route alias canonicalization by the number of norms.

    → ``(alias_map, triples_ds)``. Both regimes apply the same picks
    Dataset; its row count is the size of the dict a broadcast would
    ship. Up to the threshold the picks become the driver dict
    (``build_kg`` puts it once) and the triples come back unchanged;
    above it ``alias_map`` is None and the returned triples are ALREADY
    rewritten by the bucketed join against the picks."""
    limit = ALIAS_VOCAB_BROADCAST_MAX if vocab_broadcast_max is None \
        else vocab_broadcast_max
    picks = _alias_picks(triples_ds)
    if picks.count() <= limit:
        return _alias_dict(picks), triples_ds
    return None, resolve_aliases_join(triples_ds, picks)


def _norm_cols_batch(batch: pa.Table) -> pa.Table:
    def norms(name):
        return pc.fill_null(_per_distinct(batch.column(name),
                                          normalize_surface), "")
    return (batch.append_column("_subj_norm", norms("subj_canonical"))
            .append_column("_obj_norm", norms("obj_canonical")))


def resolve_aliases_join(triples_ds, alias_ds, num_partitions: int = 32):
    """Join-based alias resolve (the >broadcast-regime path): two
    bucketed hash joins (subj norm, then obj norm) against the (norm,
    canonical) picks Dataset. Output schema matches the broadcast
    resolver (combiner NOT fused — the caller's partial-agg follows)."""
    from corenlp_ray.ops.joins import bucketed_hash_join

    def _renamed(ds, key_name, canon_name):
        return ds.map_batches(lambda b: b.select(["norm", "canonical"])
                              .rename_columns([key_name, canon_name]),
                              batch_format="pyarrow")

    withnorm = triples_ds.map_batches(_norm_cols_batch,
                                      batch_format="pyarrow")
    j1 = bucketed_hash_join(
        withnorm, _renamed(alias_ds, "_subj_norm", "sal_canonical"),
        on="_subj_norm", how="left", npart=num_partitions)
    j2 = bucketed_hash_join(
        j1, _renamed(alias_ds, "_obj_norm", "oal_canonical"),
        on="_obj_norm", how="left", npart=num_partitions)

    def _apply(batch: pa.Table) -> pa.Table:
        for name, picked in (("subj_canonical", "sal_canonical"),
                             ("obj_canonical", "oal_canonical")):
            batch = batch.set_column(
                batch.schema.get_field_index(name), name,
                pc.coalesce(batch.column(picked), batch.column(name)))
        return batch.drop_columns([
            c for c in batch.column_names
            if c.startswith(("_subj_norm", "_obj_norm", "sal_", "oal_"))])

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
    return _tag_bucket(_triple_partial_agg(batch), "subj", "subj_bucket",
                       num_buckets)


def build_kg(triples_ds, alias_map=None, num_buckets: int = NUM_BUCKETS):
    """triples Dataset → deduplicated KG Dataset partitioned by subj hash.

    Pipeline: per-batch [alias resolve via the broadcast dict, then]
    partial dedup (combiner) as one task map, which also tags each row
    with its subject bucket → the bucket aggregate keyed on
    ``subj_bucket``, merging with ``_dedup`` → ``KG_SCHEMA`` rows sorted
    within each bucket. The shuffle is keyed on the output's own
    partitioning."""
    import ray

    combine = partial(_bucketed_partials, num_buckets=num_buckets) \
        if alias_map is None \
        else ResolveAliases(ray.put(alias_map), num_buckets)
    partials = triples_ds.map_batches(combine, batch_format="pyarrow")
    return _bucket_aggregate(
        partials, "subj_bucket", _dedup,
        lambda rows: rows.sort_by([("subj", "ascending"),
                                   ("pred", "ascending"),
                                   ("obj", "ascending")]), KG_SCHEMA)


def write_kg(kg_ds, path: str):
    """Materialize the triple store: hash(subj)-bucketed Parquet layout
    (one directory per bucket → resumable / skippable partitions). An
    empty KG, for which Ray writes nothing, is one empty ``KG_SCHEMA``
    file, so the path always reads as a table."""
    import pyarrow.parquet as pq

    kg_ds.write_parquet(path, partition_cols=["subj_bucket"])
    os.makedirs(path, exist_ok=True)
    if not os.listdir(path):
        pq.write_table(KG_SCHEMA.empty_table(),
                       os.path.join(path, "empty.parquet"))
