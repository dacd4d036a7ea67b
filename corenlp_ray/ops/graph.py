"""Graph analytics over the materialized knowledge graph.

The reference stops at triple extraction; a KG-construction engine at
100 TB also has to ANALYZE the graph it materializes (the north rule's
"graph materialize" step): entity importance for ranking/linking
priors, degree for hot-key detection. ``kg_degree`` lives in the query
catalog already; this module adds PageRank as an iterative Ray Data
computation.

Distributed shape (the standard edge-partitioned formulation):

- the DISTINCT edge list, joined once with out-degrees, is materialized
  and co-partitioned by ``src`` (``ops/joins.bucketed_hash_join`` —
  the vectorized polars row-hash partitioner);
- each iteration is exactly two shuffles: rank ⋈ edges on ``src``
  (bucketed, co-partitioned) and a native hash aggregate of the edge
  contributions on ``dst`` (map-combined partials);
- ranks materialize per round (the iteration barrier — same pattern as
  the min-label-propagation connected components in ``ops/dedup.py``).

Dangling vertices (no out-edges) leak their mass, the common simple
variant — the SAME formula the fixed-iteration SQL oracle
(``pagerank_planted``) evaluates, so the semantics are pinned
end-to-end. Hot vertices (a celebrity entity with millions of
in-edges) cost one combiner row per block in the dst-aggregate, not a
shuffled row per edge.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

_RANK_SCHEMA = pa.schema([("node", pa.string()), ("rank", pa.float64())])


def _rename(batch: pa.Table, mapping: dict) -> pa.Table:
    return batch.rename_columns(
        [mapping.get(c, c) for c in batch.column_names])


def pagerank(edges_ds, iterations: int = 3, damping: float = 0.85,
             src_col: str = "subj", dst_col: str = "obj"):
    """PageRank over the directed graph given by ``edges_ds``.

    Returns a Dataset of (node: string, rank: float64) for every vertex
    that appears as a source or destination. Parallel edges collapse to
    one (DISTINCT semantics)."""
    from ray.data.aggregate import Count, Sum

    from corenlp_ray.ops.joins import bucketed_hash_join

    # distinct edge list, normalized column names
    edges = (edges_ds
             .select_columns([src_col, dst_col])
             .map_batches(lambda b: _rename(b, {src_col: "src",
                                                dst_col: "dst"}),
                          batch_format="pyarrow")
             .groupby(["src", "dst"]).aggregate(Count())
             .select_columns(["src", "dst"]))

    deg = edges.groupby("src").aggregate(Count(alias_name="outdeg"))
    edges_deg = bucketed_hash_join(edges, deg, on="src").materialize()

    def _verts(b: pa.Table) -> pa.Table:
        vals = pa.concat_arrays([
            c.cast(pa.string()) for col in ("src", "dst")
            for c in b.column(col).chunks]) if b.num_rows else \
            pa.array([], pa.string())
        return pa.table({"node": vals})

    verts = (edges.map_batches(_verts, batch_format="pyarrow")
             .groupby("node").aggregate(Count())
             .select_columns(["node"]).materialize())
    n = verts.count()
    if n == 0:
        import ray.data as rd
        return rd.from_arrow(_RANK_SCHEMA.empty_table())
    base = (1.0 - damping) / n
    init = 1.0 / n

    def _init(b: pa.Table) -> pa.Table:
        return b.append_column(
            "rank", pa.array(np.full(b.num_rows, init), pa.float64()))

    rank = verts.map_batches(_init, batch_format="pyarrow").materialize()

    for _ in range(iterations):
        # contributions: rank(src)/outdeg(src) summed per dst
        r_src = rank.map_batches(
            lambda b: _rename(b, {"node": "src"}), batch_format="pyarrow")
        contrib = (bucketed_hash_join(edges_deg, r_src, on="src")
                   .map_batches(
                       lambda b: pa.table({
                           "dst": b.column("dst"),
                           "w": pa.array(
                               b.column("rank").to_numpy(zero_copy_only=False)
                               / b.column("outdeg").to_numpy(
                                   zero_copy_only=False),
                               pa.float64())}),
                       batch_format="pyarrow")
                   .groupby("dst").aggregate(Sum("w", alias_name="w_in")))
        joined = bucketed_hash_join(
            verts, contrib.map_batches(
                lambda b: _rename(b, {"dst": "node"}),
                batch_format="pyarrow"),
            on="node", how="left")

        def _update(b: pa.Table) -> pa.Table:
            w = b.column("w_in").to_numpy(zero_copy_only=False)
            w = np.where(np.isnan(w.astype(np.float64)), 0.0,
                         w.astype(np.float64))
            return pa.Table.from_pydict(
                {"node": b.column("node"),
                 "rank": base + damping * w}, schema=_RANK_SCHEMA)

        rank = joined.map_batches(_update,
                                  batch_format="pyarrow").materialize()

    return rank


def triangle_count(edges_ds, src_col: str = "subj", dst_col: str = "obj"):
    """Per-node triangle participation counts over the UNDIRECTED simple
    graph induced by ``edges_ds`` (direction ignored, self-loops and
    parallel edges dropped). Returns (node: string, n_tri: int64) for
    every node that closes at least one triangle; ``sum(n_tri) / 3`` is
    the global triangle count.

    Distributed shape — the degree-ordered orientation algorithm
    (Schank-Wagner / Cohen's MapReduce formulation): orient every
    undirected edge from its lower-(degree, node) endpoint to its
    higher one, which bounds every out-neighborhood by O(√m) and makes
    wedge generation O(m^1.5) TOTAL, independent of hot-vertex skew (a
    celebrity node with 10^6 in-edges generates NO wedges from those
    edges — exactly why plain u-groupby wedge counting dies at 100 TB
    and this one doesn't). Three steps, each a bounded all-to-all:
      1. degree aggregate over the distinct edge list (native groupby);
      2. wedge generation — oriented adjacency co-partitioned by
         center u, one vectorized pandas self-merge per partition;
      3. wedge ⋈ oriented-edges on (v, w) (bucketed hash join), then a
         3-way unpivot + one final count aggregate per corner node."""
    from ray.data.aggregate import Count, Sum

    from corenlp_ray.ops.dedup import partitioned_group_apply
    from corenlp_ray.ops.joins import bucketed_hash_join

    # ---- distinct undirected edges as (lo, hi), self-loops dropped ----
    def undirect(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s, d = b.column(src_col), b.column(dst_col)
        lo = pc.min_element_wise(s, d)
        hi = pc.max_element_wise(s, d)
        t = pa.table({"lo": lo, "hi": hi})
        return t.filter(pc.not_equal(t.column("lo"), t.column("hi")))

    # materialized: the distinct edge list IS the graph (≪ corpus) and
    # feeds BOTH the degree aggregate and the orientation join — a lazy
    # Dataset re-executes its upstream once per consumer
    edges = (edges_ds.select_columns([src_col, dst_col])
             .map_batches(undirect, batch_format="pyarrow")
             .groupby(["lo", "hi"]).aggregate(Count())
             .select_columns(["lo", "hi"])).materialize()

    # ---- degrees (over the deduped undirected edge list) ----
    def both_ends(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays([b.column("lo").combine_chunks().cast(pa.string()),
                                  b.column("hi").combine_chunks().cast(pa.string())])
        return pa.table({"node": nodes})

    # materialized: one row per vertex, consumed by both endpoint joins
    deg = (edges.map_batches(both_ends, batch_format="pyarrow")
           .groupby("node")
           .aggregate(Count(alias_name="deg"))).materialize()

    # partition count scales with the GRAPH, not the cluster: edges is
    # materialized so count() is metadata-free; ~5k edge rows per
    # partition keeps small graphs at a handful of tasks per all-to-all
    # (a CPU-scaled count costs all-to-alls × hundreds of near-empty
    # partitions of pure scheduling overhead) while a 10^12-edge KG
    # still fans out wide
    from corenlp_ray.ops._partition import cluster_cpus

    n_edges = edges.count()
    npart = max(4, min(cluster_cpus(), n_edges // 5000 + 1))

    # ---- orient by (deg, node): u -> v iff (deg_u, u) < (deg_v, v) ----
    def orient_arrays(b: pa.Table, dl: np.ndarray,
                      dh: np.ndarray) -> pa.Table:
        import pyarrow.compute as pc

        lo = b.column("lo").combine_chunks().cast(pa.string())
        hi = b.column("hi").combine_chunks().cast(pa.string())
        # lo < hi by construction, so (deg,node) order reduces to degree
        # order with the lexicographic tie already resolved forward
        fwd = dl <= dh
        fwd_pa = pa.array(fwd)
        return pa.table({"u": pc.if_else(fwd_pa, lo, hi),
                         "v": pc.if_else(fwd_pa, hi, lo),
                         "dv_key": pa.array(np.where(fwd, dh, dl),
                                            pa.int64()),
                         "dv_node": pc.if_else(fwd_pa, hi, lo)})

    if deg.count() <= 2_000_000:
        # small-vertex-set fast path: broadcast the degree table once
        # per worker (the alias-map doctrine, stages/canonicalize.py:127
        # — same 2M threshold) and orient in ONE map pass; the shuffle
        # join below stays the >2M-vertex scale path
        import pyarrow.compute as pc
        import ray

        deg_df = deg.to_pandas()  # ≤ 2M (node, deg) rows by the gate
        deg_ref = ray.put((pa.array(deg_df["node"], pa.string()),
                           deg_df["deg"].to_numpy()))

        def orient_bcast(b: pa.Table) -> pa.Table:
            nodes, degs = ray.get(deg_ref)
            dl = degs[pc.index_in(b.column("lo"),
                                  value_set=nodes).to_numpy(
                zero_copy_only=False)]
            dh = degs[pc.index_in(b.column("hi"),
                                  value_set=nodes).to_numpy(
                zero_copy_only=False)]
            return orient_arrays(b, dl, dh)

        oriented = edges.map_batches(orient_bcast,
                                     batch_format="pyarrow").materialize()
    else:
        # materialize between the two joins: bucketed_hash_join reads
        # .schema() from its (lazy) inputs, which would re-execute the
        # first join's whole upstream a second time
        e_lo = bucketed_hash_join(
            edges, deg.map_batches(
                lambda b: b.rename_columns(["lo", "deg_lo"]),
                batch_format="pyarrow"), on="lo",
            npart=npart).materialize()
        e_both = bucketed_hash_join(
            e_lo, deg.map_batches(
                lambda b: b.rename_columns(["hi", "deg_hi"]),
                batch_format="pyarrow"), on="hi", npart=npart)

        def orient(b: pa.Table) -> pa.Table:
            return orient_arrays(
                b, b.column("deg_lo").to_numpy(zero_copy_only=False),
                b.column("deg_hi").to_numpy(zero_copy_only=False))

        # materialized: consumed twice (wedge centers + closing side)
        oriented = e_both.map_batches(orient,
                                      batch_format="pyarrow").materialize()

    # ---- wedges: per-center self-merge over (deg, node)-sorted out-nbrs
    import pandas as pd

    def wedges(part: pd.DataFrame) -> pd.DataFrame:
        left = part[["u", "v", "dv_key", "dv_node"]]
        m = left.merge(left, on="u", suffixes=("_a", "_b"))
        m = m[(m["dv_key_a"] < m["dv_key_b"])
              | ((m["dv_key_a"] == m["dv_key_b"])
                 & (m["dv_node_a"] < m["dv_node_b"]))]
        return pd.DataFrame({"u": m["u"].values, "v": m["v_a"].values,
                             "w": m["v_b"].values})

    # materialized: the closing join reads .schema() from its inputs —
    # a lazy wedge_ds would re-execute the wedge stage for that alone
    wedge_ds = partitioned_group_apply(oriented, ["u"], wedges,
                                       npart=npart,
                                       inner_is_partition=True).materialize()

    closing = oriented.map_batches(
        lambda b: b.select(["u", "v"]).rename_columns(["v", "w"]),
        batch_format="pyarrow")
    tri = bucketed_hash_join(wedge_ds, closing, on=["v", "w"],
                             npart=npart)

    # ---- unpivot corners, count per node ----
    def corners(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays([
            b.column(c).combine_chunks().cast(pa.string())
            for c in ("u", "v", "w")])
        return pa.table({"node": nodes})

    return (tri.map_batches(corners, batch_format="pyarrow")
            .groupby("node").aggregate(Count(alias_name="n_tri")))


def khop_reachability(edges_ds, k: int = 3, src_col: str = "subj",
                      dst_col: str = "obj"):
    """Bounded transitive closure: all directed (src, dst) pairs
    connected by a path of ≤ ``k`` edges, labeled with ``hops`` = the
    SHORTEST such path length. The KG query behind subsidiary chains
    ("X controls Y controls Z"), is-a hierarchy rollups, and influence
    neighborhoods.

    Distributed shape — level-synchronous BFS on pair sets, every
    round over THIN (src, dst, hops) rows, never payloads:

    - round h: frontier(h-1) ⋈ edges on the middle vertex (one
      bucketed co-partitioned join), then a distinct-pair groupby
      (collapses path multiplicity BEFORE it can amplify — the
      round's candidate set is bounded by |V|², not by path count),
      then an anti join against everything already reached (so a pair
      is emitted at its FIRST discovery = min hops, and saturated
      regions stop expanding — cycles terminate without a visited
      flag per path);
    - reached pairs materialize per round (the iteration barrier, same
      as PageRank ranks and the CC label table).

    The oracle is DuckDB's recursive CTE with ``hops < k`` + a final
    MIN(hops) rollup — path-enumerating, so it pins that the BFS
    first-discovery label equals the true shortest length."""
    import pyarrow.compute as pc

    from corenlp_ray.ops.joins import anti_join, bucketed_hash_join

    def as_pairs(b: pa.Table) -> pa.Table:
        return (b.select([src_col, dst_col])
                .rename_columns(["src", "dst"]))

    def distinct(ds):
        return (ds.groupby(["src", "dst"]).count()
                .map_batches(lambda b: b.select(["src", "dst"]),
                             batch_format="pyarrow"))

    edges = distinct(edges_ds.map_batches(
        as_pairs, batch_format="pyarrow")).materialize()

    def with_hops(ds, h: int):
        return ds.map_batches(
            lambda b: b.append_column(
                "hops", pa.array(np.full(b.num_rows, h), type=pa.int64())),
            batch_format="pyarrow")

    reached = with_hops(edges, 1).materialize()
    frontier = edges
    for h in range(2, int(k) + 1):
        mid_l = frontier.map_batches(
            lambda b: b.rename_columns(["src", "mid"]),
            batch_format="pyarrow")
        mid_r = edges.map_batches(
            lambda b: b.rename_columns(["mid", "dst"]),
            batch_format="pyarrow")
        cand = distinct(bucketed_hash_join(mid_l, mid_r, on="mid")
                        .map_batches(lambda b: b.select(["src", "dst"]),
                                     batch_format="pyarrow")).materialize()
        # an empty candidate set has no schema — saturated, stop here
        if cand.count() == 0:
            break
        fresh = anti_join(cand, reached, on=["src", "dst"]).materialize()
        if fresh.count() == 0:
            break
        reached = reached.union(with_hops(fresh, h)).materialize()
        frontier = fresh
    return reached


def cooccurrence_edges(mentions_ds, doc_col: str = "doc_id",
                       ent_col: str = "surface"):
    """Entity co-occurrence edge generation — the relation-candidate /
    KG-edge-prior builder: for every unordered entity pair mentioned in
    the same document, the number of distinct documents where they
    co-occur. (Downstream, :func:`~corenlp_ray.ops.lm.pmi_collocations`
    -style association scoring turns these counts into edge weights.)

    Distributed shape: the input is reduced to THIN DISTINCT
    (doc, entity) rows first (one two-phase groupby — so mention
    multiplicity within a document never inflates counts and the join
    input is minimal), then a single bucketed self-join co-partitioned
    on the document key emits each document's pairs inside vectorized
    per-partition merges (no per-document Python), ordered
    ``ent_a < ent_b`` so each pair counts once, and one final native
    two-phase count aggregates per pair. The m²-per-document pair
    fan-out is inherent to co-occurrence; documents with pathological
    mention counts should be capped upstream (the mention extractors
    bound mentions per sentence already)."""
    import pyarrow.compute as pc

    from corenlp_ray.ops.joins import bucketed_hash_join

    def thin(b: pa.Table) -> pa.Table:
        return (b.select([doc_col, ent_col])
                .rename_columns(["doc", "ent"]))

    ents = (mentions_ds.map_batches(thin, batch_format="pyarrow")
            .groupby(["doc", "ent"]).count()
            .map_batches(lambda b: b.select(["doc", "ent"]),
                         batch_format="pyarrow"))
    left = ents.map_batches(
        lambda b: b.rename_columns(["doc", "ent_a"]),
        batch_format="pyarrow")
    right = ents.map_batches(
        lambda b: b.rename_columns(["doc", "ent_b"]),
        batch_format="pyarrow")
    pairs = bucketed_hash_join(left, right, on="doc").map_batches(
        lambda b: b.filter(pc.less(b.column("ent_a"),
                                   b.column("ent_b")))
                   .select(["ent_a", "ent_b"]),
        batch_format="pyarrow")
    return (pairs.groupby(["ent_a", "ent_b"]).count()
            .map_batches(lambda b: b.rename_columns(
                ["ent_a", "ent_b", "n_docs"]), batch_format="pyarrow"))
