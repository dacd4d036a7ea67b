"""CoNLL-U reading/writing (the CoNLLUReader / CoNLLUOutputter analogue,
/root/reference/src/edu/stanford/nlp/pipeline/CoNLLUReader.java and
CoNLLUOutputter.java:84).

The reader turns CoNLL-U text into the engine's doc-table columns (the
dep_gold fixture loader, FIXTURES F3 — tests operators independently of
parser quality); the writer renders annotated doc rows back to CoNLL-U.
Both are pure kernels + thin Dataset adapters (``read_conllu`` uses
``read_text`` + ``flat_map``-style batch splitting).
"""
from __future__ import annotations

from typing import Dict, List

import pyarrow as pa

from corenlp_ray.sources.outputters import write_sharded

DOC_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("text", pa.string()),
    ("tok_word", pa.list_(pa.string())),
    ("tok_lemma", pa.list_(pa.string())),
    ("tok_pos", pa.list_(pa.string())),
    ("tok_sent", pa.list_(pa.int32())),
    ("sent_begin", pa.list_(pa.int32())),
    ("sent_end", pa.list_(pa.int32())),
    ("dep_head", pa.list_(pa.int32())),
    ("dep_label", pa.list_(pa.string())),
])


def parse_conllu(text: str, doc_id: str = "conllu") -> Dict:
    """Pure kernel: CoNLL-U text (one document, blank-line-separated
    sentences) → one doc-table row. Head column is 1-based with 0=root →
    converted to doc-level 0-based with -1=root. UPOS lands in tok_pos."""
    words: List[str] = []
    lemmas: List[str] = []
    pos: List[str] = []
    tok_sent: List[int] = []
    sb: List[int] = []
    se: List[int] = []
    heads: List[int] = []
    labels: List[str] = []
    sent_tokens: List[List[str]] = []
    cur: List[tuple] = []

    def flush():
        nonlocal cur
        if not cur:
            return
        b = len(words)
        si = len(sb)
        for (form, lemma, upos, head, rel) in cur:
            words.append(form)
            lemmas.append(lemma)
            pos.append(upos)
            tok_sent.append(si)
            heads.append(b + head - 1 if head > 0 else -1)
            labels.append(rel)
        sb.append(b)
        se.append(len(words))
        sent_tokens.append([c[0] for c in cur])
        cur = []

    for line in text.split("\n"):
        line = line.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 8 or "-" in cols[0] or "." in cols[0]:
            continue  # skip multiword/empty nodes
        head = int(cols[6]) if cols[6].isdigit() else 0
        cur.append((cols[1], cols[2], cols[3], head, cols[7]))
    flush()
    return {
        "url": doc_id,
        "text": " ".join(" ".join(s) for s in sent_tokens),
        "tok_word": words, "tok_lemma": lemmas, "tok_pos": pos,
        "tok_sent": tok_sent, "sent_begin": sb, "sent_end": se,
        "dep_head": heads, "dep_label": labels,
    }


def docs_from_conllu(texts: List[str], ids: List[str] = None) -> pa.Table:
    ids = ids or [f"conllu://{i}" for i in range(len(texts))]
    return pa.Table.from_pylist(
        [parse_conllu(t, i) for t, i in zip(texts, ids)], schema=DOC_SCHEMA)


def to_conllu(row: Dict) -> str:
    """Pure kernel: one annotated doc row → CoNLL-U text."""
    out = []
    for si, (b, e) in enumerate(zip(row["sent_begin"], row["sent_end"])):
        out.append(f"# sent_id = {row.get('url', 'doc')}-{si}")
        for k in range(b, e):
            head = row["dep_head"][k]
            h = 0 if head < 0 else head - b + 1
            lemma = row.get("tok_lemma", [None] * (e))[k] or "_"
            upos = row.get("tok_pos", [None] * (e))[k] or "_"
            rel = row.get("dep_label", [None] * (e))[k] or "_"
            misc = "_"
            ner = row.get("tok_ner")
            if ner and ner[k] != "O":
                misc = f"NER={ner[k]}"
            out.append("\t".join([
                str(k - b + 1), row["tok_word"][k], lemma, upos, "_", "_",
                str(h), rel, "_", misc]))
        out.append("")
    return "\n".join(out) + "\n"


def write_conllu(docs_ds, path: str):
    """Dataset sink: one .conllu part file per block (streaming)."""
    return write_sharded(docs_ds, path, "conllu", to_conllu)
