"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import corpus  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------- percentile rule ----

def test_percentile_interpolates_like_numpy():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert report.percentile(vals, 0) == 1.0
    assert report.percentile(vals, 50) == 3.0
    assert report.percentile(vals, 100) == 5.0
    assert report.percentile(vals, 75) == 4.0
    assert report.percentile([1.0, 2.0], 50) == 1.5


def _beyond(n, level):
    """Reference count: sample ranks strictly above the interpolation
    position of the ``level`` percentile."""
    return sum(1 for i in range(n) if i > (n - 1) * level / 100.0)


@pytest.mark.parametrize("n,level", [(20, 50.0), (37, 50.0), (38, 75.0),
                                     (100, 90.0), (200, 95.0),
                                     (1000, 99.0)])
def test_tail_level_examples(n, level):
    assert report.tail_level(n) == level


def test_tail_level_is_highest_with_ten_beyond():
    for n in range(1, 1200):
        assert report.samples_beyond(n, 95.0) == _beyond(n, 95.0)
        ok = [lv for lv in report.TAIL_GRID if _beyond(n, lv) >= 10]
        assert report.tail_level(n) == (max(ok) if ok else None)


def test_tail_level_none_below_twenty_samples():
    assert report.tail_level(19) is None
    assert report.samples_beyond(19, 50.0) == 9


def test_workload_minimums_support_their_tail_levels():
    assert report.tail_level(workloads.WEB_MIN_UNITS) >= 95.0
    assert report.tail_level(workloads.LONG_MIN_PAGES) >= 75.0


def test_tail_reports_level_and_sample_count():
    vals = [float(i) for i in range(1, 201)]
    assert report.tail(vals) == (report.percentile(vals, 95.0), 95.0, 200)
    # capped at the workload's level
    assert report.tail(vals, 75.0) == (report.percentile(vals, 75.0),
                                       75.0, 200)
    # too few samples for any level: the maximum, at level 100
    assert report.tail([3.0, 1.0, 2.0], 95.0) == (3.0, 100.0, 3)
    assert report.tail([3.0, 1.0]) == (3.0, 100.0, 2)


# ---------------------------------------------------------- metric names ----

def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_match_pattern():
    spec = _bench_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert report.NAME.match(name), name
    with pytest.raises(ValueError):
        report.result_line(True, 1, 0, {"bad name": (1.0, "s")})
    with pytest.raises(ValueError):
        report.result_line(True, 1, 0, {"ray.op/x": (1.0, "s")})


def test_emitted_layer_metrics_are_the_declared_ones():
    declared = {m["name"] for m in _bench_spec()["per_layer"]}
    m = spans.stage_metrics(spans.Tracer("t"), spans.ChainCounts(), [1.0])
    m.update(workloads._absent_kg_metrics())
    m["trace.overhead_frac"] = (0.0, "fraction")
    assert set(m) == declared


# ------------------------------------------------------------ output hash ----

def _triples(n, seed):
    rng = random.Random(seed)
    words = ["John Smith", "Acme Corp.", "works for", "Salem", "is", "a"]
    return pa.table({c: [rng.choice(words) for _ in range(n)]
                     for c in ("subj", "pred", "obj")})


def test_digest_is_order_independent():
    t = _triples(300, 1)
    order = list(range(t.num_rows))
    random.Random(2).shuffle(order)
    assert corpus.triple_digest(t) == corpus.triple_digest(
        t.take(pa.array(order)))


def test_digest_adds_over_batches_and_counts_duplicates():
    t = _triples(300, 3)
    parts = [t.slice(0, 100), t.slice(100, 150), t.slice(250)]
    assert corpus.add_digests(map(corpus.triple_digest, parts)) == \
        corpus.triple_digest(t)
    doubled = pa.concat_tables([t, t.slice(0, 1)])
    assert corpus.triple_digest(doubled) != corpus.triple_digest(t)


def test_digest_sees_field_changes():
    t = _triples(10, 4)
    other = t.set_column(0, "subj", pa.array(["X"] * 10))
    assert corpus.triple_digest(t) != corpus.triple_digest(other)


# ----------------------------------------------------------------- inputs ----

def test_inputs_are_seeded():
    a = corpus.documents_table(200, 7)
    assert a.equals(corpus.documents_table(200, 7))
    units = corpus.en_units(a, 5, 4)
    first = [next(units) for _ in range(5)]
    again = corpus.en_units(a, 5, 4)
    assert first == [next(again) for _ in range(5)]
    langs = a.column("lang").to_pylist()
    for u in first:
        assert sum(langs[i] == "en" for i in u) == 4
        assert langs[u[-1]] == "en"
    r1, r2 = corpus.long_rounds(9), corpus.long_rounds(9)
    assert next(r1) == next(r2)
    assert sorted(int(k.split("-")[0]) for k in next(r1)) == \
        sorted(corpus.LONG_ROUND)


# -------------------------------------------------------------- ds.stats ----

STATS = """\
Operator 1 ReadParquet->SplitBlocks(8): 1 tasks executed, 8 blocks produced in 0.34s
* Remote wall time: 399.37us min, 10.76ms max, 1.87ms mean, 14.93ms total
* UDF time: 0us min, 0us max, 0.0us mean, 0us total
* Output num rows per block: 62 min, 63 max, 62 mean, 500 total
* Output size bytes per block: 17566 min, 21181 max, 19771 mean, 158174 total

Operator 2 Aggregate: executed in 4.47s

\tSuboperator 0 AggregateMap: 1 tasks executed, 2 blocks produced
\t* Output num rows per block: 3814 min, 3858 max, 3836 mean, 7672 total
\t* Output size bytes per block: 386670 min, 394120 max, 390395 mean, 780790 total

\tSuboperator 1 AggregateReduce: 1 tasks executed, 2 blocks produced
\t* UDF time: 1ms min, 2ms max, 1.5ms mean, 3ms total
\t* Output num rows per block: 1506 min, 3289 max, 2397 mean, 4795 total
\t* Output size bytes per block: 151708 min, 333954 max, 242831 mean, 485662 total

Dataset throughput:
\t* Ray Data throughput: 0.14 rows/s
"""


def test_parse_stats_takes_last_suboperator_totals():
    ops = spans.parse_stats(STATS)
    assert [o["name"] for o in ops] == ["ReadParquet->SplitBlocks(8)",
                                        "Aggregate"]
    assert ops[0]["wall_s"] == pytest.approx(0.34)
    assert (ops[0]["rows_out"], ops[0]["bytes_out"]) == (500, 158174)
    assert ops[1]["wall_s"] == pytest.approx(4.47)
    assert (ops[1]["rows_out"], ops[1]["bytes_out"]) == (4795, 485662)
    assert ops[1]["udf_s"] == pytest.approx(0.003)


# ------------------------------------------------------------ smoke runs ----

@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "WEB_MIN_UNITS", workloads.WEB_ROUND)
    monkeypatch.setattr(workloads, "LONG_MIN_PAGES", 1)
    monkeypatch.setattr(workloads, "KG_SAMPLE_UNITS", 1)
    yield
    shutil.rmtree(os.path.join(ROOT, ".bw"), ignore_errors=True)


def _run(workload, traced):
    return workloads.Run(workload, seed=11, seconds=0.1, traced=traced)


@pytest.mark.parametrize("workload", ["web_pages", "long_pages"])
def test_smoke_in_process(small, workload):
    e2e = {m["name"] for m in _bench_spec()["end_to_end"]}
    run = _run(workload, False)
    m = workloads.run_in_process(run)
    assert run.failed == 0 and run.attempted >= 1
    assert set(m) == e2e and all(v > 0 for v, _ in m.values())
    run = _run(workload, True)
    m = workloads.trace_in_process(run)
    assert run.failed == 0
    assert m["tokenize.tokens"][0] > 0


def test_smoke_kg_job(small):
    spec = _bench_spec()
    run = _run("kg_job", False)
    try:
        m = workloads.run_kg(run, 2, workloads.ray_temp_dir())
    finally:
        workloads.stop_children()
    assert run.failed == 0 and run.attempted == 1
    assert set(m) == {x["name"] for x in spec["end_to_end"]}
    assert all(v > 0 for v, _ in m.values())
