"""The ops layer runs as plain task maps, like ``registry.launch``: its
broadcast operators start no actor and reserve no CPU, so the catalog
queries built on them finish on a 1- or 2-CPU cluster and give the
results of a roomier one."""
import json

import numpy as np
import pyarrow as pa
import pytest
from conftest import run_bounded

SF = "/root/testdata/sf0.001"

_SMALL_CLUSTER = """
import json, signal, sys
import ray, ray.data as rd

sys.path.insert(0, "tests")   # for ``digest`` below


def _timeout(*_):
    raise TimeoutError("query did not finish")


signal.signal(signal.SIGALRM, _timeout)
signal.alarm(int(sys.argv[1]))
ray.init(address="local", num_cpus={num_cpus}, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False, _temp_dir=sys.argv[2])
try:
    rd.DataContext.get_current().enable_progress_bars = False
    from corenlp_ray.pipelines.queries import QUERIES
    from test_ops_tasks import digest

    print(json.dumps({{name: digest(QUERIES[name]({sf!r}))
                      for name in {names!r}}}))
finally:
    signal.alarm(0)
    ray.shutdown()
"""


def digest(res) -> list:
    """A query result (Dataset or Arrow table) as its sorted JSON rows,
    columns sorted by name."""
    if not isinstance(res, pa.Table):
        res = pa.concat_tables(list(res.iter_batches(batch_format="pyarrow")))
    res = res.select(sorted(res.column_names))
    return sorted(json.dumps(r, sort_keys=True) for r in res.to_pylist())


def _on_cluster(num_cpus: int, names: list, timeout_s: float) -> dict:
    script = _SMALL_CLUSTER.format(num_cpus=num_cpus, sf=SF, names=names)
    return run_bounded(script, timeout_s,
                       f"{names} on a {num_cpus}-CPU cluster")


def test_broadcast_queries_finish_on_small_clusters(ray_session):
    """The broadcast-join, top-k and signature-verify queries finish on
    a 1-CPU cluster, and two chained broadcast joins on a 2-CPU one, with
    the results of the 4-CPU session. Fixed actor pools of half-CPU
    actors once took every CPU there and starved the reads feeding them.
    Separate driver processes with their own clusters
    (``conftest.run_bounded``)."""
    from corenlp_ray.pipelines.queries import QUERIES

    names = ["customer_orders", "region_suppliers", "ann_topk",
             "minhash_dedup"]
    want = {name: digest(QUERIES[name](SF)) for name in names}
    assert all(want.values())
    assert _on_cluster(1, names, 240) == want
    two = _on_cluster(2, ["region_suppliers"], 180)
    assert two == {"region_suppliers": want["region_suppliers"]}


def _new_actors(run) -> list:
    """Class names of the actors created while ``run()`` executes."""
    import ray.data as rd
    from ray._private import state

    # Ray Data's own bookkeeping actors start with its first execution
    rd.range(4).map_batches(lambda b: b).materialize()
    before = set(state.actors())
    run()
    return [a["ActorClassName"] for k, a in state.actors().items()
            if k not in before]


def test_broadcast_join_starts_no_actor(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.joins import broadcast_join

    left = rd.from_arrow(pa.table({"k": list(range(40)),
                                   "v": [i * 3 for i in range(40)]})) \
        .repartition(4)
    right = pa.table({"k": [1, 5, 7], "name": ["a", "b", "c"]})
    out = []
    assert _new_actors(lambda: out.extend(
        broadcast_join(left, right, on="k").take_all())) == []
    assert sorted((r["k"], r["v"], r["name"]) for r in out) == [
        (1, 3, "a"), (5, 15, "b"), (7, 21, "c")]


def test_broadcast_join_rejects_unknown_how(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.joins import broadcast_join

    with pytest.raises(ValueError, match="semi"):
        broadcast_join(rd.range(3), pa.table({"id": [1]}), on="id",
                       how="semi")


def test_brute_force_topk_starts_no_actor(ray_session):
    import ray.data as rd

    from corenlp_ray.ops.similarity import brute_force_topk

    rng = np.random.RandomState(3)
    vecs = rng.randn(30, 8)
    ds = rd.from_arrow(pa.table({"vec_id": list(range(30)),
                                 "embedding": vecs.tolist()})).repartition(3)
    out = []
    assert _new_actors(lambda: out.append(
        brute_force_topk(ds, vecs[4], k=3))) == []
    assert out[0].column("vec_id").to_pylist()[0] == 4
    assert out[0].num_rows == 3
