"""Training-data ops: dedup family, similarity search, textstats, windows,
multimodal plumbing — checked against local DuckDB oracles where the
semantics are SQL-expressible."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest

from corenlp_ray.ops.dedup import (embedding_neardup_pairs, exact_dedup,
                                   jaccard, minhash_dedup, minhash_signature,
                                   simhash64, simhash_pairs)
from corenlp_ray.ops.multimodal import (DecodeImage, decode_pipeline,
                                        synth_media_table)
from corenlp_ray.ops.similarity import brute_force_topk, ivf_topk
from corenlp_ray.ops.textstats import (fingerprint_batch, langid_batch,
                                       quality_batch, token_count_batch,
                                       top_tokens)
from corenlp_ray.ops.windows import tumbling_window

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{SF}/embeddings.parquet'")
    return con


def test_token_count_matches_duckdb(docs_ds, duck):
    got = dict(
        (r["doc_id"], r["n_tokens"]) for r in
        docs_ds.map_batches(token_count_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"]).take_all())
    want = dict(duck.execute(
        "SELECT doc_id, CASE WHEN trim(text)='' THEN 0 ELSE "
        "len(regexp_split_to_array(trim(text), '\\s+')) END FROM documents"
    ).fetchall())
    assert got == want


def test_quality_matches_duckdb(docs_ds, duck):
    got = {r["doc_id"]: (r["n_alpha"], r["n_digit"]) for r in
           docs_ds.map_batches(quality_batch, batch_format="pyarrow")
           .select_columns(["doc_id", "n_alpha", "n_digit"]).take_all()}
    want = {d: (a, g) for d, a, g in duck.execute(
        "SELECT doc_id, length(regexp_replace(text, '[^A-Za-z]', '', 'g')),"
        " length(regexp_replace(text, '[^0-9]', '', 'g')) FROM documents"
    ).fetchall()}
    assert got == want


def test_exact_dedup_matches_duckdb(docs_ds, duck):
    got = {r["text_hash"]: (r["canonical_doc_id"], r["dup_count"])
           for r in exact_dedup(docs_ds).take_all()}
    want = {h: (c, n) for h, c, n in duck.execute(
        "SELECT md5(text), min(doc_id), count(*) FROM documents GROUP BY md5(text)"
    ).fetchall()}
    assert got == want


def test_top_tokens_matches_duckdb(docs_ds, duck):
    got = [(r["token"], r["cnt"]) for r in top_tokens(docs_ds, k=20).take_all()]
    want = duck.execute(
        "SELECT t AS token, count(*) AS cnt FROM (SELECT unnest("
        "regexp_split_to_array(lower(text), '[^a-z]+')) AS t FROM documents)"
        " WHERE t <> '' GROUP BY t ORDER BY cnt DESC, token ASC LIMIT 20"
    ).fetchall()
    assert got == [tuple(w) for w in want]


def test_langid_on_marker_sentences(ray_session):
    # (the sf documents corpus is language-agnostic word salad, so langid
    # is exercised on real marker-bearing sentences instead)
    import ray.data as rd

    rows = [
        {"doc_id": 0, "text": "the cat sat on the mat and the dog is in the house for now"},
        {"doc_id": 1, "text": "der Hund ist nicht mit der Katze und das Haus ist für die Frau"},
        {"doc_id": 2, "text": "le chat est dans la maison et les chiens ne sont pas pour une fête"},
        {"doc_id": 3, "text": "el perro es grande y la casa en los montes por una mañana"},
        {"doc_id": 4, "text": "zzz qqq xxx"},
    ]
    got = {r["doc_id"]: r["lang_pred"] for r in
           rd.from_items(rows).map_batches(langid_batch,
                                           batch_format="pyarrow").take_all()}
    assert got == {0: "en", 1: "de", 2: "fr", 3: "es", 4: "unk"}


def test_minhash_signature_properties():
    a = "the quick brown fox jumped over the lazy dog again and again"
    b = "the quick brown fox jumped over the lazy dog again and then"
    c = "completely different words appear within this unrelated sentence"
    sa, sb, sc = (minhash_signature(t) for t in (a, b, c))
    sim_ab = float(np.mean(sa == sb))
    sim_ac = float(np.mean(sa == sc))
    assert sim_ab > 0.5 > sim_ac
    assert np.array_equal(sa, minhash_signature(a))  # deterministic


def test_minhash_dedup_finds_neardups(ray_session):
    import ray.data as rd

    base = ("the quick brown fox jumped over the lazy dog and then ran "
            "far away into the deep green forest before nightfall came")
    rows = [{"doc_id": 0, "text": base},
            {"doc_id": 1, "text": base.replace("nightfall", "sunrise")},
            {"doc_id": 2, "text": "unrelated text about ray data pipelines"},
            {"doc_id": 3, "text": base}]
    ds = rd.from_items(rows)
    cl = {r["doc_id"]: r["cluster_id"]
          for r in minhash_dedup(ds, threshold=0.7).take_all()}
    assert cl[0] == cl[1] == cl[3] == 0
    assert cl[2] == 2


def test_simhash_pairs(ray_session):
    import ray.data as rd

    base = "the quick brown fox jumped over the lazy dog near the river bank today"
    rows = [{"doc_id": 0, "text": base},
            {"doc_id": 1, "text": base.replace("today", "today okay")},
            {"doc_id": 2, "text": "ray data shuffles arrow blocks with backpressure"}]
    got = simhash_pairs(rd.from_items(rows), max_hamming=8).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert (0, 1) in pairs
    assert not any(2 in p for p in pairs)


def test_jaccard_kernel():
    assert jaccard("a b c d", "a b c d") == 1.0
    assert jaccard("a b c d", "x y z w") == 0.0


def test_simhash_deterministic():
    assert simhash64("hello world") == simhash64("hello world")


def test_embedding_neardup(ray_session):
    import ray.data as rd

    v = np.random.RandomState(3).randn(6, 8)
    v[1] = v[0] + 1e-3  # near-dup of 0
    rows = [{"vec_id": i, "embedding": v[i].tolist()} for i in range(6)]
    got = embedding_neardup_pairs(rd.from_items(rows),
                                  threshold=0.99).take_all()
    assert any(r["vec_a"] == 0 and r["vec_b"] == 1 for r in got)


def test_brute_force_topk_exact(ray_session):
    import ray.data as rd

    E = pa.Table.from_pylist(
        [{"vec_id": i, "embedding": np.random.RandomState(i).randn(16).tolist()}
         for i in range(200)])
    q = np.random.RandomState(999).randn(16)
    got = brute_force_topk(rd.from_arrow(E), q, k=5).to_pylist()
    # numpy reference
    V = np.array(E.column("embedding").to_pylist())
    Vn = V / np.linalg.norm(V, axis=1)[:, None]
    sims = Vn @ (q / np.linalg.norm(q))
    want = list(np.argsort(-sims)[:5])
    assert [r["vec_id"] for r in got] == want


def test_ivf_topk_reasonable(ray_session):
    import ray.data as rd

    E = pa.Table.from_pylist(
        [{"vec_id": i, "embedding": np.random.RandomState(i).randn(16).tolist()}
         for i in range(300)])
    q = np.random.RandomState(1234).randn(16)
    exact = {r["vec_id"] for r in
             brute_force_topk(rd.from_arrow(E), q, k=10).to_pylist()}
    approx = {r["vec_id"] for r in
              ivf_topk(rd.from_arrow(E), q, k=10, n_centroids=8,
                       n_probe=4).to_pylist()}
    assert len(exact & approx) >= 5  # recall@10 ≥ 0.5 for the approx path


def test_tumbling_window_matches_duckdb(ray_session, duck):
    import ray.data as rd

    ev = rd.read_parquet(f"{SF}/events.parquet")
    got = {(r["user_id"], r["window_start"]): (r["n_events"], round(r["sum_value"], 9))
           for r in tumbling_window(ev, "hour").take_all()}
    want = {(u, w): (n, round(s, 9)) for u, w, n, s in duck.execute(
        "SELECT user_id, date_trunc('hour', ts), count(*), sum(value) "
        "FROM events GROUP BY 1, 2").fetchall()}
    assert got == want


def test_multimodal_stub_raises_without_fake():
    d = DecodeImage(fake=False)
    with pytest.raises(NotImplementedError):
        d(synth_media_table(2))


def test_multimodal_fake_pipeline(ray_session):
    import ray.data as rd

    out = decode_pipeline(rd.from_arrow(synth_media_table(12)),
                          fake=True).take_all()
    assert len(out) == 12
    assert all(len(r["img_feat"]) == DecodeImage.FEAT_DIM for r in out)
    vids = [r for r in out if r["kind"] == "video"]
    assert all(len(r["frame_offsets_ms"]) == 4 for r in vids)


def test_bpe_token_count():
    import pyarrow as pa
    from corenlp_ray.ops.textstats import bpe_token_count_batch
    tbl = pa.Table.from_pydict({"text": ["Hello world's 123!", "", None]})
    out = bpe_token_count_batch(tbl).column("n_bpe_tokens").to_pylist()
    # Hello| world|'s| 123|! → 5 pieces
    assert out == [5, 0, 0]


def test_dedup_keep_first_drops_planted_dups(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.dedup import dedup_keep_first

    rows = [{"doc_id": 1, "text": "alpha"},
            {"doc_id": 2, "text": "beta"},
            {"doc_id": 3, "text": "alpha"},      # dup of 1
            {"doc_id": 4, "text": "gamma"},
            {"doc_id": 5, "text": "beta"}]       # dup of 2
    out = {r["doc_id"] for r in
           dedup_keep_first(rd.from_items(rows)).take_all()}
    assert out == {1, 2, 4}


def test_simhash_dedup_clusters_neardups(ray_session):
    import ray.data as rd

    base = ("the quick brown fox jumped over the lazy dog and ran far "
            "into the woods before nightfall came down on the valley")
    far = "completely different text about ray data pipelines and shuffles"
    rows = [{"doc_id": 0, "text": base},
            {"doc_id": 1, "text": base + " extra"},
            {"doc_id": 2, "text": far}]
    from corenlp_ray.ops.dedup import simhash64, simhash_dedup

    # hash-robust threshold: exactly the 0↔1 distance, with asserted
    # separation from the unrelated doc (the exact Hamming value depends
    # on the base hash function, which the op is free to change)
    h = [simhash64(r["text"]) for r in rows]
    d01 = bin(h[0] ^ h[1]).count("1")
    assert d01 <= 12
    assert min(bin(h[0] ^ h[2]).count("1"),
               bin(h[1] ^ h[2]).count("1")) > d01
    cl = {r["doc_id"]: r["cluster_id"]
          for r in simhash_dedup(rd.from_items(rows),
                                 max_hamming=d01).take_all()}
    assert cl[0] == cl[1]
    assert cl[2] != cl[0]


def test_hopping_window_counts(ray_session):
    import datetime as dt

    import ray.data as rd

    rows = [{"user_id": 1,
             "ts": dt.datetime(2024, 1, 1, 10, 15), "value": 1.0},
            {"user_id": 1,
             "ts": dt.datetime(2024, 1, 1, 10, 45), "value": 2.0}]
    from corenlp_ray.ops.windows import hopping_window

    out = {(r["user_id"], str(r["window_start"])): r["n_events"]
           for r in hopping_window(rd.from_items(rows), 60, 30).take_all()}
    # 10:15 event → windows starting 09:30 and 10:00;
    # 10:45 event → windows starting 10:00 and 10:30
    assert out[(1, "2024-01-01 10:00:00")] == 2
    assert out[(1, "2024-01-01 09:30:00")] == 1
    assert out[(1, "2024-01-01 10:30:00")] == 1


def test_grouped_top_k(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.textstats import grouped_top_k

    rows = [{"doc_id": i, "lang": l, "n_tokens": n}
            for i, (l, n) in enumerate([
                ("en", 5), ("en", 9), ("en", 7), ("en", 9), ("de", 3),
                ("de", 1)])]
    out = grouped_top_k(rd.from_items(rows), "lang", "n_tokens",
                        k=2).take_all()
    en = sorted((r["doc_id"], r["n_tokens"]) for r in out
                if r["lang"] == "en")
    de = sorted((r["doc_id"], r["n_tokens"]) for r in out
                if r["lang"] == "de")
    assert en == [(1, 9), (3, 9)]     # ties broken by smaller doc_id
    assert de == [(4, 3), (5, 1)]


def test_hot_bucket_cap_logs_dropped(caplog):
    import logging

    from corenlp_ray.ops import dedup as dd

    # a bucket 3× over the cap must truncate AND report what it dropped
    # (round-3 verdict item #10: no silent caps)
    import pandas as pd

    big = pd.DataFrame({"doc_id": list(range(3 * dd._MAX_BUCKET))})
    before = dd.DROPPED_BY_CAP.get("minhash_lsh_pairs", 0)
    with caplog.at_level(logging.WARNING, logger="corenlp_ray.ops.dedup"):
        pairs = dd._bucket_pairs(big)
    assert len(pairs) == dd._MAX_BUCKET * (dd._MAX_BUCKET - 1) // 2
    assert dd.DROPPED_BY_CAP["minhash_lsh_pairs"] - before == 2 * dd._MAX_BUCKET
    assert any("hot-bucket cap" in r.message for r in caplog.records)
    # an under-cap bucket must not log or count
    n0 = dd.DROPPED_BY_CAP["minhash_lsh_pairs"]
    dd._bucket_pairs(pd.DataFrame({"doc_id": [1, 2, 3]}))
    assert dd.DROPPED_BY_CAP["minhash_lsh_pairs"] == n0


def test_query_catalog_oracles_first():
    # the driver's correctness pass walks QUERIES in dict order with a
    # fixed budget — every oracled query must precede every rows-only one
    from corenlp_ray.pipelines.queries import ORACLE_SQL, QUERIES

    keys = list(QUERIES)
    first_rows_only = next(i for i, k in enumerate(keys)
                           if k not in ORACLE_SQL)
    assert all(k in ORACLE_SQL for k in keys[:first_rows_only])
    assert not any(k in ORACLE_SQL for k in keys[first_rows_only:])
    assert set(ORACLE_SQL) <= set(QUERIES)


def test_cosine_pairs_exact_multiblock(ray_session):
    # cross-block pairs must be emitted exactly once, min/max ordered —
    # exercised by forcing many small blocks with interleaved ids
    import ray.data as rd

    from corenlp_ray.ops.similarity import cosine_pairs_exact

    rng = np.random.RandomState(7)
    V = rng.randn(60, 12)
    ids = rng.permutation(60)  # interleave ids across blocks
    rows = [{"vec_id": int(ids[i]), "embedding": V[i].tolist()}
            for i in range(60)]
    got = {(r["vec_a"], r["vec_b"]): round(r["cosine"], 9)
           for r in cosine_pairs_exact(
               rd.from_items(rows).repartition(7), threshold=0.4).take_all()}
    Vn = V / np.linalg.norm(V, axis=1)[:, None]
    S = Vn @ Vn.T
    want = {}
    for i in range(60):
        for j in range(60):
            a, b = int(ids[i]), int(ids[j])
            if a < b and S[i, j] >= 0.4:
                want[(a, b)] = round(float(S[i, j]), 9)
    assert got == want and len(want) > 10


def test_minhash_broadcast_and_joinback_regimes_agree(ray_session,
                                                      monkeypatch):
    """The small-corpus broadcast verify and the at-scale bucketed
    join-back must emit IDENTICAL verified edges (the regime switch is
    a pure execution-strategy choice, ops/dedup._SIG_BROADCAST_MAX)."""
    import ray.data as rd

    import corenlp_ray.ops.dedup as dd

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    rows = [{"doc_id": i, "text": base + (" shared" if i % 2 == 0
                                          else f" unique{i} words")}
            for i in range(12)]
    # a multi-block signature index, with doc 4 listed twice
    more = rows + [dict(rows[4])] + [
        {"doc_id": 20 + i, "text": base + f" shared extra{i % 3}"}
        for i in range(9)]
    inputs = [rd.from_items(rows),
              rd.from_items(more).repartition(4).materialize()]
    assert inputs[1].num_blocks() == 4

    def edges(docs):
        got = dd.minhash_verified_edges(docs, threshold=0.7).take_all()
        return {(r["doc_a"], r["doc_b"], round(r["est_jaccard"], 6))
                for r in got}

    broadcast = [edges(d) for d in inputs]    # n ≤ threshold
    monkeypatch.setattr(dd, "_SIG_BROADCAST_MAX", -1)
    joinback = [edges(d) for d in inputs]     # forced join-back path
    assert broadcast == joinback and all(broadcast)


def test_broadcast_sig_index_keeps_the_last_row_of_a_repeated_id():
    """Over several signature blocks, a doc id listed twice resolves to
    its last row (the row an ``{id: row}`` dict built in block order
    keeps); ids are looked up by binary search in the sorted index."""
    import corenlp_ray.ops.dedup as dd

    def block(ids, fill):
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "sig": [np.full(4, f, np.uint64).tobytes()
                                 for f in fill]})

    # doc 5: [1,1,1,1] in the first block, [2,2,2,2] in the last
    blocks = [block([9, 5], [2, 1]), block([], []), block([3], [2]),
              block([5, 7], [2, 1])]
    v = dd._BroadcastSigVerify(None, threshold=0.5)
    v.index = dd._sig_index(4, *blocks)
    assert v.index[0].tolist() == [3, 5, 5, 7, 9]
    out = v(pa.table({"doc_a": pa.array([3, 5, 5], pa.int64()),
                      "doc_b": pa.array([5, 7, 9], pa.int64())}))
    assert out.schema == dd._EDGE_SCHEMA
    assert out.to_pylist() == [
        {"doc_a": 3, "doc_b": 5, "est_jaccard": 1.0},
        {"doc_a": 5, "doc_b": 9, "est_jaccard": 1.0}]


def test_incremental_dedup_handcrafted(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.dedup import incremental_dedup

    prior = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": ["alpha", "beta", "beta"]}))
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "text": ["beta",        # in prior → dropped
                 "gamma", "gamma",  # new-only dup → survives once, n=2
                 "alpha",       # in prior → dropped
                 "delta"]}))    # unique new → survives, n=1
    out = (incremental_dedup(new, prior).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    assert out["doc_id"].tolist() == [11, 14]
    assert out["dup_count"].tolist() == [2, 1]
    # hash routing is repartition-invariant
    out2 = (incremental_dedup(new.repartition(5), prior.repartition(3))
            .to_pandas().sort_values("doc_id", ignore_index=True))
    assert out2["doc_id"].tolist() == out["doc_id"].tolist()


def test_inverted_index_handcrafted(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.textstats import inverted_index

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([3, 1, 2], pa.int64()),
        "text": ["the cat the CAT",   # 'the'/'cat' distinct per doc
                 "the dog",
                 "a cat"]}))
    out = (inverted_index(docs, min_df=2, max_postings=2).to_pandas()
           .sort_values("token", ignore_index=True))
    # 'the' df=2 (docs 1,3), 'cat' df=2 (docs 2,3); 'dog'/'a' df=1 pruned
    assert out["token"].tolist() == ["cat", "the"]
    assert out["df"].tolist() == [2, 2]
    assert out["postings"].tolist() == ["2,3", "1,3"]
    # the postings CAP truncates deterministically while df stays exact
    out2 = (inverted_index(docs, min_df=2, max_postings=1).to_pandas()
            .sort_values("token", ignore_index=True))
    assert out2["df"].tolist() == [2, 2]
    assert out2["postings"].tolist() == ["2", "1"]
