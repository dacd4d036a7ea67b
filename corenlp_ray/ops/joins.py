"""Distributed join operators (the engine's relational layer).

Three shapes, matching the guide's decision table:

  * ``broadcast_join`` — small side pinned once via ``ray.put``, Arrow
    join per batch in plain tasks. No shuffle. (Dimension tables,
    dictionaries — the wikidict path.)
  * ``bucketed_hash_join`` — both sides large: tag rows with a side
    marker, co-partition both sides on vectorized hash(key) buckets, merge inside
    each bucket with pandas. Explicit partitioned hash join; salt knob
    for hot keys is the partition count.
  * ``asof_join`` — ordered semantics: co-partition by key, sort by
    timestamp inside partitions, ``pd.merge_asof`` per key group.

All deterministic; oracle-SQL checkable (see pipelines/queries.py).
"""
from __future__ import annotations

from typing import List, Sequence

import pandas as pd
import pyarrow as pa

from corenlp_ray.ops._partition import (cluster_cpus, import_polars,
                                        partition_codes)


def _npart() -> int:
    return max(8, 2 * cluster_cpus())


_ARROW_JOIN_TYPE = {"inner": "inner", "left": "left outer",
                    "right": "right outer", "outer": "full outer"}


class Joiner:
    """map_batches callable: ``batch ⋈ right`` on the zero-copy Arrow
    kernel (``pa.Table.join``). ``right_ref`` is a ``ray.ObjectRef`` from
    ``ray.put(right)``; the instance is shipped to plain tasks, and each
    task fetches the table from its local object store on its first
    batch."""

    def __init__(self, right_ref, on: List[str], join_type: str):
        self.right_ref = right_ref
        self.on = on
        self.join_type = join_type
        self.right: pa.Table | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.right is None:
            import ray

            self.right = ray.get(self.right_ref)
        return batch.join(self.right, keys=self.on, join_type=self.join_type)


def broadcast_join(left_ds, right: pa.Table, on: Sequence[str] | str,
                   how: str = "inner"):
    """Join a Dataset against a small in-memory table (broadcast once),
    as one task map: no shuffle, no actor, no CPU reserved. ``how`` is
    one of ``_ARROW_JOIN_TYPE``'s keys."""
    import ray

    if how not in _ARROW_JOIN_TYPE:
        raise ValueError(f"broadcast_join: unsupported how={how!r}")
    on = [on] if isinstance(on, str) else list(on)
    return left_ds.map_batches(
        Joiner(ray.put(right), on, _ARROW_JOIN_TYPE[how]),
        batch_format="pyarrow")


def _pandas_dtypes(ds_schema) -> dict:
    """Ray ``Dataset.schema()`` → {column: pandas dtype}, whether the
    underlying blocks are Arrow or pandas."""
    base = getattr(ds_schema, "base_schema", None)
    if isinstance(base, pa.Schema):
        proto = base.empty_table().to_pandas()
        return {c: proto[c].dtype for c in proto.columns}
    out = {}
    for name, typ in zip(ds_schema.names, ds_schema.types):
        if isinstance(typ, pa.DataType):
            typ = typ.to_pandas_dtype()
        try:
            out[name] = pd.api.types.pandas_dtype(typ)
        except TypeError:
            pass  # object / tensor columns never need restoring
    return out


def _arrow_schema(ds_schema) -> pa.Schema | None:
    """Ray ``Dataset.schema()`` → a concrete ``pa.Schema``, whether the
    underlying blocks are Arrow or pandas (pandas-block schemas have no
    ``empty_table()``, so per-partition null fills need this eager
    conversion). ``None`` only when a column type can't be mapped."""
    base = getattr(ds_schema, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    try:
        fields = []
        for name, typ in zip(ds_schema.names, ds_schema.types):
            if not isinstance(typ, pa.DataType):
                typ = pa.from_numpy_dtype(pd.api.types.pandas_dtype(typ))
            fields.append(pa.field(name, typ))
        return pa.schema(fields)
    except (TypeError, ValueError, pa.ArrowNotImplementedError):
        return None


def _dtype_restorer(schema):
    """Build a closure that undoes the union null-fill dtype upcast.

    ``lt.union(rt)`` fills each side's missing columns with nulls, so an
    int64 passthrough column becomes float64 once the partition hits
    pandas (NaN has no int representation). After splitting the sides
    back apart the NaNs are gone, so we can cast each column back to its
    source dtype; columns that still hold nulls (outer-join misses) go to
    the pandas nullable equivalent (Int64/boolean) instead, which
    round-trips to Arrow as the original type."""
    targets = {}
    for c, dt in _pandas_dtypes(schema).items():
        if pd.api.types.is_integer_dtype(dt):
            nullable = ("UInt" if str(dt).startswith("u") else "Int") + \
                str(dt.itemsize * 8)
            targets[c] = (dt, nullable)
        elif pd.api.types.is_bool_dtype(dt):
            targets[c] = (dt, "boolean")

    def restore(df: pd.DataFrame) -> pd.DataFrame:
        for c, (dt, nullable) in targets.items():
            if c in df.columns and df[c].dtype != dt:
                try:
                    df[c] = df[c].astype(
                        nullable if df[c].isna().any() else dt)
                except (TypeError, ValueError):
                    pass
        return df

    return restore


def _tag_and_bucket(batch: pa.Table, side: int, on: List[str],
                    npart: int) -> pa.Table:
    part = partition_codes(batch, on, npart)
    return (batch
            .append_column("_side", pa.array([side] * batch.num_rows,
                                             type=pa.int8()))
            .append_column("_part", part))


def bucketed_hash_join(left_ds, right_ds, on: Sequence[str] | str,
                       how: str = "inner", npart: int | None = None):
    """Partitioned hash join of two Datasets on equality keys.

    Implementation: tag each side, co-partition on a vectorized
    hash(key) % npart (one polars row-hash per batch),
    one Ray group per partition, pandas merge inside. Key skew is
    bounded by the per-partition data volume; raise npart (or pre-salt
    hot keys into the key) for pathological skew."""
    on = [on] if isinstance(on, str) else list(on)
    npart = npart or _npart()
    left_schema, right_schema = left_ds.schema(), right_ds.schema()
    left_cols = left_schema.names
    right_cols = right_schema.names
    restore_l = _dtype_restorer(left_schema)
    restore_r = _dtype_restorer(right_schema)
    lt = left_ds.map_batches(
        lambda b: _tag_and_bucket(b, 0, on, npart), batch_format="pyarrow")
    rt = right_ds.map_batches(
        lambda b: _tag_and_bucket(b, 1, on, npart), batch_format="pyarrow")
    both = lt.union(rt)

    if how in ("inner", "left"):
        # Arrow + polars per-partition merge — pandas blocks here pay
        # ~50x in block-format overhead (object dtypes + per-column
        # size estimation), same finding as _filter_join
        lbase = _arrow_schema(left_schema)
        rbase = _arrow_schema(right_schema)
        # overlapping non-key columns take the pandas merge suffixes
        # (_x/_y) so the output schema is join-type-independent
        overlap = [c for c in left_cols
                   if c in right_cols and c not in on]

        def _side_frame(df, side: int, cols, base):
            pl = import_polars()
            f = df.filter(pl.col("_side") == side)
            missing = [c for c in cols if c not in f.columns]
            if missing:
                # a partition fed by only one side lacks the other
                # side's columns entirely; type the null fills from the
                # side's Arrow schema so the join keys stay joinable
                if base is not None:
                    empties = pl.from_arrow(base.empty_table())
                    f = f.with_columns([
                        pl.lit(None, dtype=empties[c].dtype).alias(c)
                        for c in missing])
                else:
                    f = f.with_columns([
                        pl.lit(None).alias(c) for c in missing])
            return f.select(list(cols))

        def merge(part: pa.Table) -> pa.Table:
            pl = import_polars()
            df = pl.from_arrow(part)
            lhs = _side_frame(df, 0, left_cols, lbase)
            rhs = _side_frame(df, 1, right_cols, rbase)
            if overlap:
                lhs = lhs.rename({c: c + "_x" for c in overlap})
                rhs = rhs.rename({c: c + "_y" for c in overlap})
            return lhs.join(rhs, on=on, how=how).to_arrow()

        return both.groupby("_part").map_groups(merge,
                                                batch_format="pyarrow")

    def merge_pd(part: pd.DataFrame) -> pd.DataFrame:
        # explicit schemas: a partition fed by only one side may lack the
        # other side's columns entirely
        lhs = restore_l(
            part[part["_side"] == 0].reindex(columns=list(left_cols)))
        rhs = restore_r(
            part[part["_side"] == 1].reindex(columns=list(right_cols)))
        if rhs.empty:
            rhs = rhs.dropna(subset=on)  # keep join-key dtypes sane
        return lhs.merge(rhs, on=on, how=how)

    return both.groupby("_part").map_groups(merge_pd, batch_format="pandas")


def asof_join(left_ds, right_ds, key: str, ts: str,
              direction: str = "backward", npart: int | None = None):
    """As-of join: for each left row, the latest right row with
    right.ts <= left.ts (direction='backward') sharing ``key``.

    Co-partition by key hash, then per-key ``pd.merge_asof`` over
    ts-sorted groups (ordering state stays inside the partition)."""
    npart = npart or _npart()
    left_schema, right_schema = left_ds.schema(), right_ds.schema()
    left_cols = left_schema.names
    right_cols = right_schema.names
    restore_l = _dtype_restorer(left_schema)
    restore_r = _dtype_restorer(right_schema)
    lt = left_ds.map_batches(
        lambda b: _tag_and_bucket(b, 0, [key], npart),
        batch_format="pyarrow")
    rt = right_ds.map_batches(
        lambda b: _tag_and_bucket(b, 1, [key], npart),
        batch_format="pyarrow")
    both = lt.union(rt)
    out_cols = list(left_cols) + [
        (c if c not in left_cols else c + "_r")
        for c in right_cols if c not in (key, ts)]

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        # reindex: a partition fed by only one side may lack the other
        # side's columns entirely
        lhs = restore_l(part[part["_side"] == 0].reindex(
            columns=list(left_cols))).sort_values(ts)
        rhs = restore_r(part[part["_side"] == 1].reindex(
            columns=list(right_cols)).dropna(subset=[ts])).sort_values(ts)
        if lhs.empty:
            return pd.DataFrame({c: [] for c in out_cols})
        if rhs.empty:
            # left-join semantics: keep left rows, null right columns
            return lhs.reindex(columns=out_cols)
        merged = pd.merge_asof(lhs, rhs, on=ts, by=key, direction=direction,
                               suffixes=("", "_r")).reindex(columns=out_cols)
        # unmatched left rows null-fill right columns → re-restore those
        # (nullable Int64 where NaNs remain, so Arrow keeps integer type)
        return restore_r(merged)

    return both.groupby("_part").map_groups(merge, batch_format="pandas")


def range_join(left_ds, intervals_ds, ts: str = "ts", lo: str = "lo",
               hi: str = "hi", keys: Sequence[str] = (),
               bucket_us: int = 86_400_000_000,
               npart: int | None = None):
    """Interval (range) join — the brief's named custom operator: each
    left row pairs with every interval where ``lo <= ts < hi`` (and the
    optional ``keys`` columns are equal). Output = left columns +
    interval columns (key columns once).

    Distributed shape (time-bucket replication — the standard
    band-join decomposition): quantize the time axis into fixed
    ``bucket_us`` buckets; every LEFT row routes to exactly ONE bucket
    (its ts), every interval replicates to EACH bucket it overlaps;
    co-partition by hash(bucket [, keys]) and run one vectorized pandas
    equi-merge + range filter per partition. No sort, no broadcast —
    both sides shuffle once. Replication factor = ceil(span /
    bucket_us) + 1, so size ``bucket_us`` near the typical interval
    span; a pathological axis-spanning interval replicates to every
    bucket (same hot-key discipline as elsewhere: pre-split such
    intervals or raise bucket_us — the join stays CORRECT either way,
    the cost is the replicas). Timestamps compare as int64 epoch-µs —
    exact, no float rounding.

    (The reference has no relational layer; Ray Data has no range join
    either — composition per SURVEY §2.4's shuffle catalogue.)"""
    import numpy as np
    import pyarrow.compute as pc

    from corenlp_ray.ops._partition import partition_codes

    keys = list(keys)
    npart = npart or _npart()
    left_schema, right_schema = left_ds.schema(), intervals_ds.schema()
    left_cols, right_cols = left_schema.names, right_schema.names
    restore_l = _dtype_restorer(left_schema)
    restore_r = _dtype_restorer(right_schema)
    out_cols = list(left_cols) + [c for c in right_cols
                                  if c not in keys]

    def _us(col: pa.ChunkedArray) -> np.ndarray:
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def prep_left(b: pa.Table) -> pa.Table:
        t = _us(b.column(ts))
        b = b.append_column("_b", pa.array(t // bucket_us, pa.int64()))
        b = b.append_column("_side", pa.array([0] * b.num_rows,
                                              pa.int32()))
        return b.append_column("_part", partition_codes(
            b, ["_b"] + keys, npart))

    def prep_intervals(b: pa.Table) -> pa.Table:
        l_us, h_us = _us(b.column(lo)), _us(b.column(hi))
        first = l_us // bucket_us
        # hi is exclusive: the last overlapped bucket is (hi-1)//bucket
        last = np.maximum(first, (np.maximum(h_us, l_us + 1) - 1)
                          // bucket_us)
        reps = (last - first + 1).astype(np.int64)
        reps[h_us <= l_us] = 0          # empty interval → no buckets
        idx = np.repeat(np.arange(b.num_rows, dtype=np.int64), reps)
        # bucket offset within each replicated run
        off = np.arange(len(idx), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps)
        out = b.take(pa.array(idx, pa.int64()))
        out = out.append_column("_b", pa.array(
            first[idx] + off, pa.int64()))
        out = out.append_column("_side", pa.array([1] * out.num_rows,
                                                  pa.int32()))
        return out.append_column("_part", partition_codes(
            out, ["_b"] + keys, npart))

    both = (left_ds.map_batches(prep_left, batch_format="pyarrow")
            .union(intervals_ds.map_batches(prep_intervals,
                                            batch_format="pyarrow")))

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        lhs = restore_l(part[part["_side"] == 0].reindex(
            columns=list(left_cols) + ["_b"]))
        rhs = restore_r(part[part["_side"] == 1].reindex(
            columns=list(right_cols) + ["_b"]))
        if lhs.empty or rhs.empty:
            return pd.DataFrame({c: [] for c in out_cols})
        m = lhs.merge(rhs, on=["_b"] + keys, suffixes=("", "_iv"))
        if m.empty:
            return pd.DataFrame({c: [] for c in out_cols})
        m = m[(m[lo] <= m[ts]) & (m[ts] < m[hi])]
        return m.reindex(columns=out_cols)

    return both.groupby("_part").map_groups(merge, batch_format="pandas")


def _filter_join(left_ds, right_ds, on, keep_matched: bool,
                 npart: int | None = None):
    keys = [on] if isinstance(on, str) else list(on)
    npart = npart or _npart()
    left_schema = left_ds.schema()
    left_cols = left_schema.names
    base = _arrow_schema(left_schema)
    lt = left_ds.map_batches(
        lambda b: _tag_and_bucket(b, 0, keys, npart),
        batch_format="pyarrow")
    # right side thins to DISTINCT keys per batch before the shuffle
    def thin(b: pa.Table) -> pa.Table:
        pl = import_polars()
        t = pl.from_arrow(b.select(keys)).unique().to_arrow()
        return _tag_and_bucket(t, 1, keys, npart)

    both = lt.union(right_ds.map_batches(thin, batch_format="pyarrow"))

    # the whole per-partition membership test stays in Arrow/polars —
    # pandas blocks here cost ~50x in block-format overhead (object
    # dtypes + per-column size estimation), measured on TPC-H Q4
    def pick(part: pa.Table) -> pa.Table:
        pl = import_polars()
        df = pl.from_arrow(part)
        lhs = df.filter(pl.col("_side") == 0)
        missing = [c for c in left_cols if c not in lhs.columns]
        if missing:
            # a partition fed only by the thin right side lacks the
            # left side's non-key columns entirely; null-fill typed
            # from the left schema (lhs is empty here, so the fills
            # only shape the schema)
            if base is not None:
                empties = pl.from_arrow(base.empty_table())
                lhs = lhs.with_columns([
                    pl.lit(None, dtype=empties[c].dtype).alias(c)
                    for c in missing])
            else:
                lhs = lhs.with_columns([
                    pl.lit(None).alias(c) for c in missing])
        lhs = lhs.select(left_cols)
        if lhs.height:
            rk = (df.filter(pl.col("_side") == 1)
                  .select(keys).unique())
            lhs = lhs.join(rk, on=keys,
                           how="semi" if keep_matched else "anti")
        out = lhs.to_arrow()
        if base is not None:
            out = out.cast(base)
        return out

    return both.groupby("_part").map_groups(pick, batch_format="pyarrow")


def semi_join(left_ds, right_ds, on, npart: int | None = None):
    """Distributed semi join: left rows whose key appears in right
    (left columns only, no duplication from right multiplicity). The
    right side ships one DISTINCT key row per batch — the thin-side
    discipline every membership join here follows."""
    return _filter_join(left_ds, right_ds, on, True, npart)


def anti_join(left_ds, right_ds, on, npart: int | None = None):
    """Distributed anti join: left rows whose key does NOT appear in
    right (the TPC-H Q22 / incremental-dedup shape, generalized)."""
    return _filter_join(left_ds, right_ds, on, False, npart)
