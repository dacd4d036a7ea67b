"""Shared mutable entity index — the one state shape the Dataset API
genuinely cannot express (a cross-batch, cross-stage mutable assignment),
so it drops to a raw Ray actor (SURVEY §2.4's "global annotator cache"
row: actors hold shared state; everything else stays in Dataset land).

``EntityIndex`` assigns STABLE dense integer ids to canonical entity
surfaces, first-come-first-assigned. The stage calls it once per batch
with the batch's NOVEL surfaces only (a per-task memo caches known ids),
so actor traffic is one bounded RPC per batch, not per row. At real
cluster scale, shard the index by ``crc32(surface) % n_shards`` actors —
``num_shards`` implements that here.

Determinism note: id ASSIGNMENT ORDER depends on batch arrival order, so
ids are stable within a run but not across runs — exactly the semantics
of an identity dictionary service. For run-reproducible ids use the KG
store's crc32 bucket key instead.
"""
from __future__ import annotations

import zlib
from typing import Dict, List

import pyarrow as pa
import ray


@ray.remote(num_cpus=0)
class _IndexShard:
    def __init__(self):
        self.ids: Dict[str, int] = {}

    def assign(self, surfaces: List[str]) -> List[int]:
        out = []
        for s in surfaces:
            i = self.ids.get(s)
            if i is None:
                i = len(self.ids)
                self.ids[s] = i
            out.append(i)
        return out

    def size(self) -> int:
        return len(self.ids)


class EntityIndex:
    """Driver-side handle: a pool of index-shard actors."""

    def __init__(self, num_shards: int = 4):
        self.num_shards = num_shards
        self.shards = [_IndexShard.remote() for _ in range(num_shards)]

    def _shard_of(self, s: str) -> int:
        return zlib.crc32(s.encode("utf-8")) % self.num_shards

    def assign_batch(self, surfaces: List[str]) -> List[int]:
        """Global ids = shard_local_id * num_shards + shard (dense per
        shard, disjoint across shards)."""
        by_shard: Dict[int, List[int]] = {}
        for pos, s in enumerate(surfaces):
            by_shard.setdefault(self._shard_of(s), []).append(pos)
        out = [0] * len(surfaces)
        futs = {}
        for shard, positions in by_shard.items():
            futs[shard] = self.shards[shard].assign.remote(
                [surfaces[p] for p in positions])
        for shard, positions in by_shard.items():
            local = ray.get(futs[shard])
            for p, lid in zip(positions, local):
                out[p] = lid * self.num_shards + shard
        return out

    def total(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))


class AssignEntityIds:
    """map_batches stage: + subj_id, obj_id from the shared index.

    The instance, holding the index handle (shard actor refs), is
    shipped to plain tasks; each task memoizes ids it has already seen
    so the shards only hear about novel surfaces."""

    def __init__(self, index: EntityIndex):
        self.index = index
        self.memo: Dict[str, int] = {}

    def _ids(self, surfaces: List[str]) -> List[int]:
        novel = sorted({s for s in surfaces if s not in self.memo})
        if novel:
            for s, i in zip(novel, self.index.assign_batch(novel)):
                self.memo[s] = i
        return [self.memo[s] for s in surfaces]

    def __call__(self, batch: pa.Table) -> pa.Table:
        subs = batch.column("subj").to_pylist()
        objs = batch.column("obj").to_pylist()
        return (batch
                .append_column("subj_id", pa.array(self._ids(subs),
                                                   type=pa.int64()))
                .append_column("obj_id", pa.array(self._ids(objs),
                                                  type=pa.int64())))


def with_entity_ids(kg_ds, num_shards: int = 4):
    """KG Dataset → + subj_id/obj_id via the shared index actors."""
    index = EntityIndex(num_shards)
    return kg_ds.map_batches(AssignEntityIds(index),
                             batch_format="pyarrow"), index
