"""Tracing for the traced run: spans kept in memory, the KG chain called
stage by stage, and a digest of Ray Data's ``ds.stats()`` text.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; no engine code is changed.
"""
from __future__ import annotations

import json
import re
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc

STAGES = ("sources.synth", "extract", "tokenize", "pos", "lemma", "ner",
          "depparse", "coref", "openie", "kbp")

# the columns TripleExtractor converts once and shares by openie and kbp
_SHARED_COLS = ("url", "tok_word", "tok_pos", "tok_lemma", "sent_begin",
                "sent_end", "dep_head", "dep_label", "men_begin", "men_end",
                "men_ner", "men_norm", "men_canonical", "pron_idx",
                "pron_canonical")


class Tracer:
    """Spans as (name, start, end, parent index, run id), in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def busy(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _ in self.spans
                   if n == name and e is not None)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run_id}) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one span (open + close)."""
    t = Tracer("calibration")
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / n


class ChainCounts:
    """Per-layer work counts and failures of the traced chain."""

    def __init__(self):
        self.pages_in = self.pages_kept = 0
        self.tokens = self.sentences = self.mentions = 0
        self.openie_triples = self.kbp_triples = 0
        self.errors = dict.fromkeys(STAGES, 0)


def traced_chain(annot, batch: pa.Table, tracer: Tracer,
                 counts: ChainCounts, pages_per_doc: int | None = None):
    """The fused chain of ``annot`` (a ``FusedDocAnnotator``) called one
    stage at a time, in ``FusedDocAnnotator.__call__`` order with one
    shared ``cols`` dict. With ``pages_per_doc`` the batch holds
    documents rows and synthesis plus the English filter run first, as
    in ``DocsToTriples.__call__``.

    → (triples table, per-page token counts). openie's span includes the
    shared pylist conversion of ``TripleExtractor``; kbp's includes the
    final concat, so the spans cover the whole call."""
    from corenlp_ray.sources.pages import _docs_to_pages
    from corenlp_ray.stages._cache import col
    from corenlp_ray.stages.coref import coref_batch
    from corenlp_ray.stages.extract import extract_text_batch
    from corenlp_ray.stages.lemma import lemma_batch
    from corenlp_ray.stages.openie import openie_batch
    from corenlp_ray.stages.tokenize import tokenize_ssplit_batch

    def stage(name, fn, *args, **kw):
        with tracer.span(name):
            try:
                return fn(*args, **kw)
            except Exception:
                counts.errors[name] += 1
                raise

    if pages_per_doc is not None:
        def synth(docs):
            pages = _docs_to_pages(docs, pages_per_doc)
            counts.pages_in += pages.num_rows
            return pages.filter(pc.equal(pages.column("lang"), "en"))
        batch = stage("sources.synth", synth, batch)
    else:
        counts.pages_in += batch.num_rows
    counts.pages_kept += batch.num_rows
    cols: dict = {}
    b = stage("extract", extract_text_batch, batch)
    b = stage("tokenize", tokenize_ssplit_batch, b, cols=cols)
    b = stage("pos", annot.pos, b, cols=cols)
    b = stage("lemma", lemma_batch, b, cols=cols)
    b = stage("ner", annot.ner, b, cols=cols)
    b = stage("depparse", annot.dep, b, cols=cols)
    b = stage("coref", coref_batch, b, cols=cols)

    def openie(b):
        shared = {name: col(b, name, cols) for name in _SHARED_COLS}
        return shared, openie_batch(b, cols=shared)
    shared, oie = stage("openie", openie, b)
    kbp = stage("kbp", annot.triples.kbp, b, cols=shared)
    out = stage("kbp", pa.concat_tables, [oie, kbp])

    tokens = [len(w) for w in col(b, "tok_word", cols)]
    counts.tokens += sum(tokens)
    counts.sentences += sum(len(s) for s in col(b, "sent_begin", cols))
    counts.mentions += sum(len(m) for m in col(b, "men_begin", cols))
    counts.openie_triples += oie.num_rows
    counts.kbp_triples += kbp.num_rows
    return out, tokens


def stage_metrics(tracer: Tracer, counts: ChainCounts,
                  sum_fracs: list[float]) -> dict:
    """Per-stage busy/share/errors plus chain counts and ratios.
    ``sum_fracs`` holds one ``unit_sum_frac`` per unit."""
    busy = {s: tracer.busy(s) for s in STAGES}
    total = sum(busy.values())
    m = {}
    for s in STAGES:
        m[f"{s}.busy_s"] = (busy[s], "s")
        m[f"{s}.share"] = (busy[s] / total if total else 0.0, "fraction")
        m[f"{s}.errors"] = (counts.errors[s], "count")
    m["sources.pages_in"] = (counts.pages_in, "count")
    m["sources.pages_kept"] = (counts.pages_kept, "count")
    m["sources.kept_frac"] = (counts.pages_kept / counts.pages_in
                              if counts.pages_in else 0.0, "fraction")
    m["tokenize.tokens"] = (counts.tokens, "count")
    m["tokenize.sentences"] = (counts.sentences, "count")
    m["ner.mentions"] = (counts.mentions, "count")
    m["openie.triples"] = (counts.openie_triples, "count")
    m["kbp.triples"] = (counts.kbp_triples, "count")
    # the median over units resists the host's swings in speed
    m["chain.stage_sum_frac"] = (
        statistics.median(sum_fracs) if sum_fracs else 0.0, "fraction")
    return m


def unit_sum_frac(tracer: Tracer, first_span: int, fused_s: float,
                  in_call: tuple[str, ...]) -> float:
    """Sum of one unit's stage spans (those from ``first_span`` on) that
    run inside the fused call, over the fused call's time."""
    return sum(e - s for n, s, e, _, _ in tracer.spans[first_span:]
               if n in in_call) / fused_s


# ---------------------------------------------------------- ds.stats() ----

_OP = re.compile(r"^Operator \d+ (?P<name>.+?): .*\bin "
                 r"(?P<wall>[\d.]+)(?P<unit>us|ms|s)\s*$")
_TOTAL = re.compile(r"^\s*\* (?P<what>Output num rows per block|"
                    r"Output size bytes per block|UDF time): .*?"
                    r"(?P<val>[\d.]+)(?P<unit>us|ms|s)? total\s*$")
_SECONDS = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}


def parse_stats(text: str) -> list[dict]:
    """Operators of a ``ds.stats()`` text, in order, each with its wall
    time and the output rows, bytes and UDF time of its last
    (sub)operator."""
    ops: list[dict] = []
    for line in text.splitlines():
        if line.startswith("Dataset throughput"):
            break
        m = _OP.match(line)
        if m:
            ops.append({"name": m["name"], "rows_out": 0, "bytes_out": 0,
                        "udf_s": 0.0,
                        "wall_s": float(m["wall"]) * _SECONDS[m["unit"]]})
            continue
        m = _TOTAL.match(line)
        if m and ops:
            val = float(m["val"])
            if m["what"] == "UDF time":
                ops[-1]["udf_s"] = val * _SECONDS[m["unit"]]
            elif m["what"].startswith("Output num rows"):
                ops[-1]["rows_out"] = int(val)
            else:
                ops[-1]["bytes_out"] = int(val)
    return ops


RAY_OPS = ("read", "docs_to_triples", "repartition", "alias_aggregate",
           "resolve_aliases", "dedup_aggregate", "bucket", "write")


def ray_op_metrics(triples_stats: str, alias_stats: str,
                   kg_stats: str) -> dict:
    """``ray.<op>.{wall_s,rows_out,bytes_out}`` from the stats of the
    pinned triples, the alias totals and the written KG datasets.

    Ray fuses the bucket map into the write operator
    (``MapBatches(<lambda>)->Write``): ``bucket`` reports that operator's
    UDF time with its 1:1 input (the dedup aggregate's output), and
    ``write`` the fused operator's own figures."""
    def find(ops, prefix):
        # the last match: each later dataset's stats repeat the operators
        # of the pinned triples it was built from
        for op in reversed(ops):
            if op["name"].startswith(prefix):
                return op
        raise ValueError(f"no operator {prefix!r} in ds.stats()")

    tr = parse_stats(triples_stats)
    kg = parse_stats(kg_stats)
    al = parse_stats(alias_stats)
    dedup = find(kg, "Aggregate")
    write = find(kg, "MapBatches(<lambda>)->Write")
    picked = {
        "read": find(tr, "ReadParquet"),
        "docs_to_triples": find(tr, "MapBatches(DocsToTriples)"),
        "repartition": find(tr, "Repartition"),
        "alias_aggregate": find(al, "Aggregate"),
        "resolve_aliases": find(kg, "MapBatches(ResolveAliases)"),
        "dedup_aggregate": dedup,
        "bucket": {"wall_s": write["udf_s"], "rows_out": dedup["rows_out"],
                   "bytes_out": dedup["bytes_out"]},
        "write": write,
    }
    m = {}
    for name in RAY_OPS:
        op = picked[name]
        m[f"ray.{name}.wall_s"] = (op["wall_s"], "s")
        m[f"ray.{name}.rows_out"] = (op["rows_out"], "count")
        m[f"ray.{name}.bytes_out"] = (op["bytes_out"], "bytes")
    return m
