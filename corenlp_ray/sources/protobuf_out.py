"""CoreNLP protobuf wire-format sink — the ProtobufAnnotationSerializer
analogue (pipeline/ProtobufAnnotationSerializer.java:141; message layout
pipeline/CoreNLP.proto). Parquet remains this engine's native
serialization; this sink exists so a CoreNLP-ecosystem consumer can read
the engine's annotations with `ProtobufAnnotationSerializer.read()`
unchanged.

The encoder is a hand-rolled protobuf WIRE writer (varints + tagged
fields — the protobuf runtime is not in this container and is not
needed: the wire format is a stable public spec). Field numbers below
are copied from CoreNLP.proto and cite it per message. Output is the
reference's stream framing: varint-length-delimited Document messages
(`writeDelimitedTo`), one `.pb` file per Ray block (resumable
partitioned output, never one giant file).

Fields written (what the engine computes):
  Document  text=1, sentence=2, docID=4, docDate=7,
            mentions=9 (NERMention), hasEntityMentionsAnnotation=13
  Sentence  token=1, tokenOffsetBegin=2, tokenOffsetEnd=3,
            sentenceIndex=4, characterOffsetBegin=5,
            characterOffsetEnd=6, basicDependencies=8,
            openieTriple=14, kbpTriple=16
  Token     word=1, pos=2, value=3, originalText=7, ner=8,
            normalizedNER=9, lemma=10, beginChar=11, endChar=12
  DependencyGraph  node=1 (sentenceIndex=1, index=2), edge=2
            (source=1, target=2, dep=3), root=3 [packed] — 1-based
            indices, the reference's SemanticGraph convention
  NERMention  sentenceIndex=1, tokenStartInSentenceInclusive=2,
            tokenEndInSentenceExclusive=3, ner=4, normalizedNER=5,
            entityMentionText=12
  RelationTriple  subject=1, relation=2, object=3, confidence=4
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import pyarrow as pa

# ------------------------------------------------------ wire primitives ----


def _varint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _varint((field << 3) | wire)


def _str(field: int, s: str) -> bytes:
    b = s.encode("utf-8")
    return _tag(field, 2) + _varint(len(b)) + b


def _uint(field: int, n: int) -> bytes:
    return _tag(field, 0) + _varint(n)


def _bool(field: int, v: bool) -> bytes:
    return _tag(field, 0) + _varint(1 if v else 0)


def _double(field: int, x: float) -> bytes:
    import struct

    return _tag(field, 1) + struct.pack("<d", x)


def _msg(field: int, body: bytes) -> bytes:
    return _tag(field, 2) + _varint(len(body)) + body


def _packed_uints(field: int, ns: Iterable[int]) -> bytes:
    body = b"".join(_varint(n) for n in ns)
    return _tag(field, 2) + _varint(len(body)) + body


# --------------------------------------------------------- message build ----


def _token(word: str, pos: str, lemma: str, ner: str, norm: Optional[str],
           begin: int, end: int) -> bytes:
    out = [_str(1, word), _str(2, pos), _str(3, word), _str(7, word),
           _str(8, ner or "O")]
    if norm:
        out.append(_str(9, norm))
    out.append(_str(10, lemma))
    out.append(_uint(11, begin))
    out.append(_uint(12, end))
    return b"".join(out)


def _dep_graph(sent_idx: int, heads: List[int], labels: List[str]) -> bytes:
    """Local (sentence-relative, 0-based, -1=root) heads → CoreNLP
    DependencyGraph with 1-based node indices (CoreNLP.proto:205-236)."""
    out = []
    for i in range(len(heads)):
        out.append(_msg(1, _uint(1, sent_idx) + _uint(2, i + 1)))
    roots = []
    for i, (h, lab) in enumerate(zip(heads, labels)):
        if h < 0:
            roots.append(i + 1)
        else:
            out.append(_msg(2, _uint(1, h + 1) + _uint(2, i + 1)
                            + _str(3, lab or "dep")))
    if roots:
        out.append(_packed_uints(3, roots))
    return b"".join(out)


def _relation_triple(subj: str, rel: str, obj: str, conf: float) -> bytes:
    return (_str(1, subj) + _str(2, rel) + _str(3, obj)
            + _double(4, float(conf)))


def document_to_proto(row: Dict, triples: Optional[List[Dict]] = None
                      ) -> bytes:
    """One annotated row (the engine's nested-column doc schema) → a
    serialized CoreNLP ``Document`` message. ``triples`` (optional):
    this doc's TRIPLES_SCHEMA rows, routed to each sentence's
    openieTriple/kbpTriple by ``sent_idx``."""
    from corenlp_ray.stages.openie import local_heads

    def _col(key, default=None):
        # None-safe (values may be numpy arrays, whose truthiness throws)
        v = row.get(key)
        return default if v is None else v

    words = row["tok_word"]
    poss = _col("tok_pos", ["XX"] * len(words))
    lemmas = _col("tok_lemma", list(words))
    ners = _col("tok_ner", ["O"] * len(words))
    begins = _col("tok_begin", [0] * len(words))
    ends = _col("tok_end", [0] * len(words))
    heads = row.get("dep_head")
    labels = row.get("dep_label")
    sent_begin = row["sent_begin"]
    sent_end = row["sent_end"]
    by_sent: Dict[int, List[Dict]] = {}
    for t in triples or ():
        by_sent.setdefault(int(t.get("sent_idx", 0)), []).append(t)

    out = [_str(1, row.get("text") or "")]
    for si, (b, e) in enumerate(zip(sent_begin, sent_end)):
        body = []
        for k in range(b, e):
            body.append(_msg(1, _token(words[k], poss[k], lemmas[k],
                                       ners[k], None, begins[k], ends[k])))
        body.append(_uint(2, b))
        body.append(_uint(3, e))
        body.append(_uint(4, si))
        if e > b:
            body.append(_uint(5, begins[b]))
            body.append(_uint(6, ends[e - 1]))
        if heads is not None and labels is not None:
            body.append(_msg(8, _dep_graph(si, local_heads(heads, b, e),
                                           labels[b:e])))
        for t in by_sent.get(si, ()):
            fld = 16 if t.get("source") == "kbp" else 14
            body.append(_msg(fld, _relation_triple(
                t["subj"], t["pred"], t["obj"],
                t.get("confidence", 1.0))))
        out.append(_msg(2, b"".join(body)))
    if row.get("url"):
        out.append(_str(4, str(row["url"])))
    if row.get("docdate"):
        out.append(_str(7, str(row["docdate"])))
    men_b = row.get("men_begin")
    if men_b is not None:
        men_e, men_ner = row["men_end"], row["men_ner"]
        men_norm = _col("men_norm", [None] * len(men_b))
        men_sent = _col("men_sent", [0] * len(men_b))
        for b, e, ty, nv, si in zip(men_b, men_e, men_ner, men_norm,
                                    men_sent):
            sb = sent_begin[si] if si < len(sent_begin) else 0
            m = [_uint(1, si), _uint(2, b - sb), _uint(3, e - sb),
                 _str(4, ty)]
            if nv:
                m.append(_str(5, str(nv)))
            m.append(_str(12, " ".join(words[b:e])))
            out.append(_msg(9, b"".join(m)))
        out.append(_bool(13, True))
    return b"".join(out)


def _delimited(msg: bytes) -> bytes:
    """writeDelimitedTo framing: varint byte-length prefix + message."""
    return _varint(len(msg)) + msg


def proto_block(batch: pa.Table, triples_by_url: Optional[Dict] = None
                ) -> bytes:
    """One Arrow block of annotated docs → one delimited-stream blob."""
    out = []
    for row in batch.to_pylist():
        tr = (triples_by_url or {}).get(row.get("url"))
        out.append(_delimited(document_to_proto(row, tr)))
    return b"".join(out)


def write_protobuf(ann_ds, path: str, triples_ds=None):
    """Distributed sink: annotated docs Dataset → directory of ``.pb``
    files, each a CoreNLP-compatible length-delimited Document stream,
    one file per input block (resumable partitioned output). If
    ``triples_ds`` (TRIPLES_SCHEMA) is given, its rows are grouped per
    url with a bucketed shuffle and each doc's triples are embedded in
    its sentences' openieTriple/kbpTriple fields via a bucketed join
    (both sides hash-partitioned on url — no driver materialization).

    Returns the list of written file paths."""
    import os

    os.makedirs(path, exist_ok=True)

    if triples_ds is not None:
        # attach each doc's triples as a serialized side column via a
        # bucketed join on url, then write
        import json

        from corenlp_ray.ops.joins import bucketed_hash_join

        def collapse(batch: pa.Table) -> pa.Table:
            rows: Dict[str, List[Dict]] = {}
            for t in batch.to_pylist():
                rows.setdefault(t["url"], []).append(
                    {"sent_idx": t["sent_idx"], "subj": t["subj"],
                     "pred": t["pred"], "obj": t["obj"],
                     "confidence": t["confidence"],
                     "source": t["source"]})
            return pa.Table.from_pydict(
                {"url": list(rows),
                 "_triples_json": [json.dumps(v) for v in rows.values()]},
                schema=pa.schema([("url", pa.string()),
                                  ("_triples_json", pa.string())]))

        # per-batch partial collapse, then an exact per-url merge in a
        # groupby (urls can span batches at block boundaries)
        sides = triples_ds.map_batches(collapse, batch_format="pyarrow")

        def merge_json(group):
            import pandas as pd

            merged = []
            for js in group["_triples_json"]:
                merged.extend(json.loads(js))
            return pd.DataFrame({"url": [group["url"].iloc[0]],
                                 "_triples_json": [json.dumps(merged)]})

        sides = sides.groupby("url").map_groups(merge_json,
                                                batch_format="pandas")
        ann_ds = bucketed_hash_join(ann_ds, sides, on="url", how="left")

        def write_block(batch) -> pa.Table:
            # pandas in: the join emits pandas blocks whose nested
            # annotation columns (numpy arrays of lists) don't convert
            # back to Arrow; the encoder only needs per-row indexing
            import json as _json
            import uuid

            rows = batch.to_dict("records")
            blob = b"".join(
                _delimited(document_to_proto(
                    r, _json.loads(r["_triples_json"])
                    if isinstance(r.get("_triples_json"), str) else None))
                for r in rows)
            fp = os.path.join(path, f"part-{uuid.uuid4().hex}.pb")
            with open(fp, "wb") as fh:
                fh.write(blob)
            return pa.Table.from_pydict(
                {"path": [fp], "n_docs": [len(rows)]},
                schema=pa.schema([("path", pa.string()),
                                  ("n_docs", pa.int64())]))

        res = ann_ds.map_batches(write_block, batch_format="pandas")
    else:
        def write_block(batch: pa.Table) -> pa.Table:
            import uuid

            blob = proto_block(batch)
            fp = os.path.join(path, f"part-{uuid.uuid4().hex}.pb")
            with open(fp, "wb") as fh:
                fh.write(blob)
            return pa.Table.from_pydict(
                {"path": [fp], "n_docs": [batch.num_rows]},
                schema=pa.schema([("path", pa.string()),
                                  ("n_docs", pa.int64())]))

        res = ann_ds.map_batches(write_block, batch_format="pyarrow")
    return sorted(r["path"] for r in res.take_all())


# ----------------------------------------------------------- wire reader ----
# (round-trip verification; a CoreNLP consumer would use
# ProtobufAnnotationSerializer.read instead)


def _read_varint(buf: bytes, i: int):
    shift, n = 0, 0
    while True:
        b = buf[i]
        n |= (b & 0x7F) << shift
        i += 1
        if not b & 0x80:
            return n, i
        shift += 7


def parse_message(buf: bytes) -> Dict[int, list]:
    """Generic wire parse: {field: [values]}; nested messages stay bytes."""
    out: Dict[int, list] = {}
    i = 0
    while i < len(buf):
        key, i = _read_varint(buf, i)
        field, wire = key >> 3, key & 7
        if wire == 0:
            v, i = _read_varint(buf, i)
        elif wire == 1:
            v, i = buf[i:i + 8], i + 8
        elif wire == 2:
            ln, i = _read_varint(buf, i)
            v, i = buf[i:i + ln], i + ln
        else:
            raise ValueError(f"unsupported wire type {wire}")
        out.setdefault(field, []).append(v)
    return out


def read_delimited(blob: bytes) -> List[bytes]:
    msgs, i = [], 0
    while i < len(blob):
        ln, i = _read_varint(blob, i)
        msgs.append(blob[i:i + ln])
        i += ln
    return msgs
