"""The three workloads: ``web_pages`` and ``long_pages`` (in-process, no
Ray) and ``kg_job`` (the Ray Data flagship job on a local cluster).

Each is a closed loop from one driver process: the next unit starts
when the previous one has returned and been checked. Set-up is timed on
its own and excluded from every other timed figure.
"""
from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

import pyarrow as pa

import corpus
import report
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 3
UNIT_TIMEOUT_S = 60.0       # one in-process unit
JOB_TIMEOUT_S = 60.0        # one kg_job set-up or job
RUN_BUDGET_S = 165.0        # a run stops starting work after this
WEB_MIN_UNITS = 200         # ten beyond p95
WEB_ROUND = 16              # units per web_pages job: 256 English pages
LONG_MIN_PAGES = 40         # ten beyond p75
KG_NUM_BUCKETS = 16
KG_OBJECT_STORE_BYTES = 256 * 1024 * 1024
KG_SAMPLE_UNITS = 16        # traced kg_job: in-process chain sample
# Ray's socket paths under its temp dir must fit AF_UNIX's 107 bytes;
# the session directory and socket name take up to 62 of them
RAY_SOCKET_SUFFIX = 62
SOCKET_PATH_MAX = 107


class UnitTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise ``UnitTimeout`` in the main thread after ``seconds``."""
    def on_alarm(signum, frame):
        raise UnitTimeout(f"no result within {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as f:
        return json.load(f)


class Run:
    """Counters and deadline of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool):
        self.t0 = time.monotonic()
        self.workload, self.seed = workload, seed
        self.seconds, self.traced = seconds, traced
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.detail: dict = {}
        self.work = os.path.join(ROOT, ".bw", f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.t0)

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {exc!r}")

    def trace_path(self) -> str:
        """Where the traced run writes its spans (kept after the run)."""
        d = os.path.join(ROOT, ".bench_traces")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"{self.workload}-{self.seed}.jsonl")

    def limit(self, cap: float):
        return time_limit(min(cap, max(self.left(), 0.01)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- set-up ----

def setup_probe(workload: str) -> float:
    """One set-up of an in-process workload, in a fresh interpreter:
    import, annotator construction and one warm-up call."""
    warm_docs = corpus.documents_table(8, corpus.WEB_CORPUS_SEED)
    t0 = time.perf_counter()
    from corenlp_ray.pipelines.kg import DocsToTriples, FusedDocAnnotator
    from corenlp_ray.sources.pages import synth_pages_table

    if workload == "web_pages":
        DocsToTriples(pages_per_doc=corpus.WEB_PAGES_PER_DOC)(warm_docs)
    else:
        FusedDocAnnotator()(synth_pages_table(n=4, seed=0))
    return time.perf_counter() - t0


def in_process_setup_s(run: Run) -> float:
    """Median of ``SETUP_REPEATS`` set-ups, each in a fresh interpreter
    so import-time work counts."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             run.workload], cwd=ROOT, capture_output=True, text=True,
            timeout=max(5.0, min(60.0, run.left())), check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    run.detail["setup_samples_s"] = samples
    return report.median(samples)


# ---------------------------------------------------------- in-process ----

class Unit(NamedTuple):
    batch: pa.Table     # the annotator's input
    expected: tuple     # recorded (count, multiset hash) of its triples
    pages: int          # English pages in it
    tokens: int         # recorded token count of those pages
    key: str = ""       # long_pages bank key


def _web_units(golden: dict, seed: int):
    docs = corpus.documents_table(corpus.WEB_DOCS, corpus.WEB_CORPUS_SEED)
    web = golden["web"]
    for idx in corpus.en_units(docs, seed, corpus.WEB_EN_DOCS_PER_UNIT):
        per_doc = [web.get(str(i), (0, 0, 0)) for i in idx]
        yield Unit(docs.take(pa.array(idx)),
                   corpus.add_digests((d[0], d[1]) for d in per_doc),
                   corpus.WEB_EN_DOCS_PER_UNIT * corpus.WEB_PAGES_PER_DOC,
                   sum(d[2] for d in per_doc))


def _long_units(golden: dict, seed: int):
    pages: dict = {}
    for keys in corpus.long_rounds(seed):
        for key in keys:
            if key not in pages:
                pages[key] = corpus.long_page(key)
            n, h, tokens = golden["long"][key]
            yield Unit(pages[key], (n, h), 1, tokens, key)


def _annotator(workload: str):
    from corenlp_ray.pipelines.kg import DocsToTriples, FusedDocAnnotator

    if workload == "web_pages":
        return DocsToTriples(pages_per_doc=corpus.WEB_PAGES_PER_DOC)
    return FusedDocAnnotator()


def _units(run: Run, golden: dict):
    if run.workload == "web_pages":
        return _web_units(golden, run.seed)
    return _long_units(golden, run.seed)


def run_in_process(run: Run) -> dict:
    golden = load_golden()
    web = run.workload == "web_pages"
    min_n, round_len, level = ((WEB_MIN_UNITS, WEB_ROUND, 95.0) if web else
                               (LONG_MIN_PAGES, len(corpus.LONG_ROUND),
                                75.0))
    setup_s = in_process_setup_s(run)
    annot = _annotator(run.workload)
    units = _units(run, golden)
    annot(next(_units(run, golden)).batch)

    lat: list[float] = []
    rounds: list[float] = []
    this_round, round_ok = 0.0, True
    pages = tokens = 0
    while run.left() > 0:
        if (sum(lat) >= run.seconds and len(lat) >= min_n
                and run.attempted % round_len == 0):
            break
        u = next(units)
        run.attempted += 1
        try:
            with run.limit(UNIT_TIMEOUT_S):
                t0 = time.perf_counter()
                out = annot(u.batch)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed unit is counted, not fatal
            run.fail("unit", exc)
            round_ok = False
        else:
            got = corpus.triple_digest(out)
            if got != tuple(u.expected):
                run.fail("check", f"digest {got} != {tuple(u.expected)}")
                round_ok = False
            else:
                lat.append(dt)
                this_round += dt
                pages += u.pages
                tokens += u.tokens
        if run.attempted % round_len == 0:
            if round_ok:
                rounds.append(this_round)
            this_round, round_ok = 0.0, True

    if not lat:
        raise RuntimeError("no unit completed")
    busy = sum(lat)
    tail_v, tail_lv, n = report.tail(lat, level)
    run.detail.update(samples=n, tail_level=tail_lv, busy_s=busy,
                      rounds=len(rounds),
                      unit="16-page batch" if web else "page")
    return {
        "setup_s": (setup_s, "s"),
        "pages_per_s": (pages / busy, "1/s"),
        "tokens_per_s": (tokens / busy, "1/s"),
        "latency_p50_ms": (report.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_v * 1e3, "ms"),
        "job_s": (report.median(rounds) if rounds else busy, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def trace_in_process(run: Run) -> dict:
    """Traced run: each unit goes once through the fused call (timed) and
    once through the stage-by-stage chain (spans); both must give the
    recorded triples."""
    golden = load_golden()
    web = run.workload == "web_pages"
    annot = _annotator(run.workload)
    units = _units(run, golden)
    annot(next(_units(run, golden)).batch)
    tracer = spans.Tracer(f"{run.workload}-{run.seed}")
    counts = spans.ChainCounts()
    fused_s = traced_s = 0.0
    sum_fracs: list[float] = []
    in_call = spans.STAGES if web else spans.STAGES[1:]
    while run.left() > 0 and fused_s + traced_s < run.seconds:
        u = next(units)
        run.attempted += 1
        first_span = len(tracer.spans)
        try:
            with run.limit(UNIT_TIMEOUT_S):
                if not web:
                    # long pages are built outside the fused call; time
                    # a rebuild as the synthesis layer's work
                    with tracer.span("sources.synth"):
                        corpus.long_page(u.key)
                # alternate which goes first, so warm caches favour neither
                (f_s, out), (t_s, (traced_out, _)) = _timed_pair(
                    lambda: annot(u.batch),
                    lambda: spans.traced_chain(
                        annot, u.batch, tracer, counts,
                        corpus.WEB_PAGES_PER_DOC if web else None),
                    swap=run.attempted % 2 == 0)
        except Exception as exc:
            run.fail("unit", exc)
            continue
        fused_s += f_s
        traced_s += t_s
        sum_fracs.append(spans.unit_sum_frac(tracer, first_span, f_s,
                                             in_call))
        got = corpus.triple_digest(out)
        if got != tuple(u.expected):
            run.fail("check", f"digest {got} != {tuple(u.expected)}")
        elif corpus.triple_digest(traced_out) != got:
            run.fail("trace", "traced chain triples differ from fused")
    m = spans.stage_metrics(tracer, counts, sum_fracs)
    m["trace.overhead_frac"] = (
        len(tracer.spans) * spans.span_cost_s() / traced_s
        if traced_s else 0.0, "fraction")
    m.update(_absent_kg_metrics())
    tracer.write(run.trace_path())
    run.detail.update(fused_s=fused_s, traced_s=traced_s,
                      spans=len(tracer.spans))
    return m


def _timed_pair(first, second, swap: bool):
    """Call both, ``second`` first when ``swap``; → ((s, result) each)."""
    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    if swap:
        b = timed(second)
        return timed(first), b
    a = timed(first)
    return a, timed(second)


def _absent_kg_metrics() -> dict:
    """The kg_job layers read 0 on workloads that do not run them."""
    m = {}
    for name in ("kg.annotate_s", "kg.alias_s", "kg.build_write_s"):
        m[name] = (0.0, "s")
    for name in ("canonicalize.triples_in", "canonicalize.alias_vocab",
                 "canonicalize.kg_rows"):
        m[name] = (0, "count")
    m["canonicalize.dedup_ratio"] = (0.0, "fraction")
    for op in spans.RAY_OPS:
        m[f"ray.{op}.wall_s"] = (0.0, "s")
        m[f"ray.{op}.rows_out"] = (0, "count")
        m[f"ray.{op}.bytes_out"] = (0, "bytes")
    return m


# -------------------------------------------------------------- kg_job ----

def _psutil():
    import ray  # noqa: F401  (puts Ray's bundled psutil on sys.path)
    import psutil

    return psutil


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and all its descendants (the Ray
    head processes and workers), sampled every 0.1 s."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self._stop_evt = threading.Event()

    def run(self):
        psutil = _psutil()
        me = psutil.Process()
        while not self._stop_evt.wait(0.1):
            total = 0
            for p in [me] + me.children(recursive=True):
                try:
                    total += p.memory_info().rss
                except psutil.Error:
                    pass
            self.peak = max(self.peak, total)

    def stop(self) -> float:
        self._stop_evt.set()
        self.join(timeout=5)
        return self.peak / (1024.0 * 1024.0)


def ray_temp_dir() -> str:
    """Ray's temp dir: inside the checkout unless its socket paths would
    exceed the AF_UNIX limit there."""
    d = os.path.join(ROOT, ".bw")
    if len(d) + RAY_SOCKET_SUFFIX > SOCKET_PATH_MAX:
        return tempfile.mkdtemp(prefix="pb")
    return d


def ray_start(num_cpus: int, temp_dir: str) -> None:
    import ray
    import ray.data

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=KG_OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    ray.data.DataContext.get_current().enable_progress_bars = False


def write_docs(table: pa.Table, directory: str) -> str:
    import pyarrow.parquet as pq

    os.makedirs(directory, exist_ok=True)
    pq.write_table(table, os.path.join(directory, "documents.parquet"))
    return directory


def kg_job(sf_dir: str, out_dir: str, tracer: spans.Tracer | None = None):
    """The flagship job: documents.parquet → written bucketed KG.
    → (pinned triples, alias map, KG dataset)."""
    from corenlp_ray.pipelines.kg import _ncpus, documents_to_triples
    from corenlp_ray.stages.canonicalize import (build_kg,
                                                 resolve_alias_scale,
                                                 write_kg)

    span = tracer.span if tracer else _no_span
    shutil.rmtree(out_dir, ignore_errors=True)
    with span("kg.annotate"):
        triples = documents_to_triples(
            sf_dir, pages_per_doc=corpus.KG_PAGES_PER_DOC
        ).repartition(_ncpus()).materialize()
    with span("kg.alias"):
        alias, resolved = resolve_alias_scale(triples)
    with span("kg.build_write"):
        kg = build_kg(resolved, alias_map=alias, num_buckets=KG_NUM_BUCKETS)
        write_kg(kg, out_dir)
    return triples, alias, kg


@contextmanager
def _no_span(name: str):
    yield


def kg_digest(out_dir: str):
    import pyarrow.parquet as pq

    return corpus.triple_digest(
        pq.read_table(out_dir),
        columns=("subj", "pred", "obj", "support_count"))


def kg_setup(run: Run, num_cpus: int, temp_dir: str) -> float:
    """Median of ``SETUP_REPEATS`` cold starts: ``ray.init`` plus a pool
    warm-up (the fused pool on a few documents). The last cluster stays
    up."""
    import ray

    from corenlp_ray.pipelines.kg import documents_to_triples

    docs = corpus.documents_table(corpus.KG_DOCS, corpus.KG_CORPUS_SEED)
    warm_dir = write_docs(docs.slice(0, 6), os.path.join(run.work, "warm"))
    samples = []
    for i in range(SETUP_REPEATS):
        with run.limit(JOB_TIMEOUT_S):
            t0 = time.perf_counter()
            ray_start(num_cpus, temp_dir)
            documents_to_triples(
                warm_dir, pages_per_doc=corpus.KG_PAGES_PER_DOC).materialize()
            samples.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            ray.shutdown()
    run.detail["setup_samples_s"] = samples
    return report.median(samples)


def run_kg(run: Run, num_cpus: int, temp_dir: str) -> dict:
    golden = load_golden()["kg"]
    setup_s = kg_setup(run, num_cpus, temp_dir)
    docs = corpus.documents_table(corpus.KG_DOCS, corpus.KG_CORPUS_SEED)
    order = list(range(docs.num_rows))
    random.Random(run.seed).shuffle(order)
    sf_dir = write_docs(docs.take(pa.array(order)),
                        os.path.join(run.work, "sf"))
    out_dir = os.path.join(run.work, "kg")
    expected = (golden["kg_rows"], golden["hash"])

    if run.traced:
        return trace_kg(run, sf_dir, out_dir, expected)

    jobs: list[float] = []
    rss = RssSampler()
    rss.start()
    try:
        while run.left() > 0 and (not jobs or sum(jobs) < run.seconds):
            run.attempted += 1
            try:
                with run.limit(JOB_TIMEOUT_S):
                    t0 = time.perf_counter()
                    kg_job(sf_dir, out_dir)
                    dt = time.perf_counter() - t0
            except Exception as exc:
                run.fail("job", exc)
                break   # a stalled cluster is not reused
            got = kg_digest(out_dir)
            if got != expected:
                run.fail("check", f"digest {got} != {expected}")
            else:
                jobs.append(dt)
    finally:
        peak = rss.stop()
    if not jobs:
        raise RuntimeError("no job completed")
    job_s = report.median(jobs)
    tail_v, tail_lv, n = report.tail(jobs)
    run.detail.update(samples=n, tail_level=tail_lv, jobs_s=jobs,
                      unit="job")
    return {
        "setup_s": (setup_s, "s"),
        "pages_per_s": (golden["en_pages"] / job_s, "1/s"),
        "tokens_per_s": (golden["tokens"] / job_s, "1/s"),
        "latency_p50_ms": (job_s * 1e3, "ms"),
        "latency_tail_ms": (tail_v * 1e3, "ms"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def trace_kg(run: Run, sf_dir: str, out_dir: str, expected) -> dict:
    """Traced kg_job: one job with phase spans and the ``ds.stats()``
    digest, then the in-process chain traced on a sample of its docs."""
    from ray.data import Dataset

    from corenlp_ray.pipelines.kg import DocsToTriples

    tracer = spans.Tracer(f"kg_job-{run.seed}")
    captured: list = []
    materialize = Dataset.materialize

    def recording_materialize(self, *a, **kw):
        out = materialize(self, *a, **kw)
        captured.append(out)
        return out

    run.attempted += 1
    Dataset.materialize = recording_materialize
    try:
        with run.limit(JOB_TIMEOUT_S), tracer.span("kg.job"):
            triples, alias, kg = kg_job(sf_dir, out_dir, tracer)
    finally:
        Dataset.materialize = materialize
    got = kg_digest(out_dir)
    if got != expected:
        run.fail("check", f"digest {got} != {expected}")
    # the other materialized dataset is the alias vocabulary totals
    totals = next(d for d in captured if d is not triples)
    m = spans.ray_op_metrics(triples.stats(), totals.stats(), kg.stats())
    triples_in = triples.count()
    m["kg.annotate_s"] = (tracer.busy("kg.annotate"), "s")
    m["kg.alias_s"] = (tracer.busy("kg.alias"), "s")
    m["kg.build_write_s"] = (tracer.busy("kg.build_write"), "s")
    m["canonicalize.triples_in"] = (triples_in, "count")
    m["canonicalize.alias_vocab"] = (len(alias) if alias is not None
                                     else totals.count(), "count")
    m["canonicalize.kg_rows"] = (got[0], "count")
    m["canonicalize.dedup_ratio"] = (got[0] / triples_in if triples_in
                                     else 0.0, "fraction")

    # the per-stage layer figures, from the same documents in-process
    annot = DocsToTriples(pages_per_doc=corpus.KG_PAGES_PER_DOC)
    docs = corpus.documents_table(corpus.KG_DOCS, corpus.KG_CORPUS_SEED)
    units = corpus.en_units(docs, run.seed, 2)
    annot(docs.take(pa.array(next(units))))
    counts = spans.ChainCounts()
    fused_s = traced_s = 0.0
    sum_fracs: list[float] = []
    n_spans = len(tracer.spans)
    for _ in range(KG_SAMPLE_UNITS):
        batch = docs.take(pa.array(next(units)))
        run.attempted += 1
        first_span = len(tracer.spans)
        with run.limit(UNIT_TIMEOUT_S):
            (f_s, out), (t_s, (traced_out, _)) = _timed_pair(
                lambda: annot(batch),
                lambda: spans.traced_chain(annot, batch, tracer, counts,
                                           corpus.KG_PAGES_PER_DOC),
                swap=run.attempted % 2 == 0)
        fused_s += f_s
        traced_s += t_s
        sum_fracs.append(spans.unit_sum_frac(tracer, first_span, f_s,
                                             spans.STAGES))
        if corpus.triple_digest(traced_out) != corpus.triple_digest(out):
            run.fail("trace", "traced chain triples differ from fused")
    m.update(spans.stage_metrics(tracer, counts, sum_fracs))
    m["trace.overhead_frac"] = (
        (len(tracer.spans) - n_spans) * spans.span_cost_s() / traced_s,
        "fraction")
    tracer.write(run.trace_path())
    run.detail.update(fused_s=fused_s, traced_s=traced_s,
                      spans=len(tracer.spans))
    return m


def stop_children(timeout: float = 20.0) -> None:
    """Stop every process this run started and wait for each to end."""
    psutil = _psutil()
    import ray

    if ray.is_initialized():
        ray.shutdown()
    procs = psutil.Process().children(recursive=True)
    for p in procs:
        try:
            p.terminate()
        except psutil.Error:
            pass
    _, alive = psutil.wait_procs(procs, timeout=timeout)
    for p in alive:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(alive, timeout=timeout)
