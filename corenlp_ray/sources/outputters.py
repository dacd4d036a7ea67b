"""Debug/parity outputters mirroring the reference's JSON/text output
shapes (/root/reference/src/edu/stanford/nlp/pipeline/JSONOutputter.java:45
— tokens, sentences, triples at :131-136; TextOutputter.java:33; CoNLL in
sources/conllu.py). Parquet is the engine's real sink; these exist so a
reference user can diff outputs shape-for-shape.
"""
from __future__ import annotations

import json
import os
import uuid
from typing import Dict

import pyarrow as pa


def write_sharded(docs_ds, path: str, ext: str, render_row, mode="w"):
    """Dataset sink: one ``part-<uuid>.<ext>`` file per block under
    ``path`` (streaming and resumable, never one giant file), holding
    ``render_row`` of each row in order (``mode="wb"`` for bytes). →
    Dataset of (file, docs), one row per written file."""
    os.makedirs(path, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        name = os.path.join(path, f"part-{uuid.uuid4().hex}.{ext}")
        with open(name, mode) as f:
            for r in rows:
                f.write(render_row(r))
        return pa.table({"file": [name], "docs": [len(rows)]})

    return docs_ds.map_batches(write_block, batch_format="pyarrow")


def doc_to_json(row: Dict, triples=None) -> Dict:
    """One annotated doc row → the reference's JSON document shape."""
    sentences = []
    for si, (b, e) in enumerate(zip(row["sent_begin"], row["sent_end"])):
        tokens = []
        for k in range(b, e):
            tok = {
                "index": k - b + 1,
                "word": row["tok_word"][k],
                "originalText": row.get("tok_orig", row["tok_word"])[k],
                "characterOffsetBegin": row["tok_begin"][k],
                "characterOffsetEnd": row["tok_end"][k],
            }
            if "tok_lemma" in row:
                tok["lemma"] = row["tok_lemma"][k]
            if "tok_pos" in row:
                tok["pos"] = row["tok_pos"][k]
            if "tok_ner" in row:
                tok["ner"] = row["tok_ner"][k]
            tokens.append(tok)
        sent: Dict = {"index": si, "tokens": tokens}
        if "dep_head" in row:
            deps = []
            for k in range(b, e):
                h = row["dep_head"][k]
                deps.append({
                    "dep": row["dep_label"][k],
                    "governor": 0 if h < 0 else h - b + 1,
                    "governorGloss": "ROOT" if h < 0 else row["tok_word"][h],
                    "dependent": k - b + 1,
                    "dependentGloss": row["tok_word"][k],
                })
            sent["basicDependencies"] = deps
        if triples is not None:
            sent["openie"] = [
                {"subject": t["subj"], "relation": t["pred"],
                 "object": t["obj"], "confidence": t["confidence"]}
                for t in triples
                if t["url"] == row.get("url") and t["sent_idx"] == si
                and t["source"] == "openie"]
            sent["kbp"] = [
                {"subject": t["subj"], "relation": t["pred"],
                 "object": t["obj"], "confidence": t["confidence"]}
                for t in triples
                if t["url"] == row.get("url") and t["sent_idx"] == si
                and t["source"] == "kbp"]
        sentences.append(sent)
    doc: Dict = {"docId": row.get("url", ""), "sentences": sentences}
    if "men_begin" in row:
        doc["entitymentions"] = [
            {"text": " ".join(row["tok_word"][mb:me]), "ner": t,
             "normalizedNER": nv}
            for mb, me, t, nv in zip(row["men_begin"], row["men_end"],
                                     row["men_ner"], row["men_norm"])]
    if "men_chain" in row:
        chains: Dict[int, list] = {}
        for mi, c in enumerate(row["men_chain"]):
            chains.setdefault(c, []).append({
                "mentionBegin": row["men_begin"][mi],
                "mentionEnd": row["men_end"][mi],
                "text": " ".join(
                    row["tok_word"][row["men_begin"][mi]:row["men_end"][mi]]),
            })
        doc["corefs"] = {str(k): v for k, v in chains.items()
                         if len(v) > 1}
    return doc


def write_json(docs_ds, path: str):
    """Dataset sink: one .jsonl part per block (one JSON doc per line)."""
    return write_sharded(docs_ds, path, "jsonl",
                         lambda r: json.dumps(doc_to_json(r)) + "\n")


def doc_to_text(row: Dict) -> str:
    """TextOutputter-style human-readable rendering."""
    out = [f"Document: {row.get('url', '')}"]
    for si, (b, e) in enumerate(zip(row["sent_begin"], row["sent_end"])):
        out.append(f"Sentence #{si + 1}:")
        out.append(" ".join(row["tok_word"][b:e]))
        if "tok_pos" in row:
            out.append(" ".join(
                f"{row['tok_word'][k]}/{row['tok_pos'][k]}"
                for k in range(b, e)))
    return "\n".join(out) + "\n"


def doc_to_conll(row: Dict) -> str:
    """CoNLLOutputter-style columnar rendering (pipeline/
    CoNLLOutputter.java:98-137 default keys): per token
    ``idx word lemma pos ner head deprel`` tab-separated, 1-based
    sentence-local indices, blank line between sentences, '_' for
    absent values."""
    def _or(v):
        return "_" if v in (None, "", -1) else str(v)

    lines = []
    words = row["tok_word"]
    lemmas = row.get("tok_lemma") or [None] * len(words)
    pos = row.get("tok_pos") or [None] * len(words)
    ner = row.get("tok_ner") or [None] * len(words)
    heads = row.get("dep_head") or [-1] * len(words)
    rels = row.get("dep_label") or [None] * len(words)
    for b, e in zip(row["sent_begin"], row["sent_end"]):
        for k in range(b, e):
            h = heads[k]
            head_local = (h - b + 1) if (h is not None and b <= h < e) \
                else 0 if h == -1 else "_"
            lines.append("\t".join([
                str(k - b + 1), _or(words[k]), _or(lemmas[k]),
                _or(pos[k]), _or(ner[k]), str(head_local),
                _or(rels[k])]))
        lines.append("")
    return "\n".join(lines) + "\n"


def write_conll(docs_ds, path: str):
    """Distributed CoNLL sink: one .conll file per block under ``path``."""
    return write_sharded(docs_ds, path, "conll", doc_to_conll)


def doc_to_xml(row: Dict, triples=None) -> str:
    """XMLOutputter-style rendering (pipeline/XMLOutputter.java:47 —
    root/document/sentences/sentence/tokens/token with word, lemma,
    CharacterOffsetBegin/End, POS, NER, NormalizedNER sub-elements
    per addWordInfo :438-470; <dependencies type="basic-dependencies">
    with governor/dependent idx attributes per buildDependencyTreeInfo
    :295-330; per-sentence <openie>/<kbp> triple blocks :183-197;
    document-level <coreference> chains).

    ``triples``: optional list of (sent_idx, subj, rel, obj,
    confidence, source) for the openie/kbp blocks."""
    from xml.sax.saxutils import escape

    out = ['<?xml version="1.0" encoding="UTF-8"?>', "<root>",
           "  <document>"]
    if row.get("url"):
        out.append("    <docId>%s</docId>" % escape(str(row["url"])))
    out.append("    <sentences>")
    words = row["tok_word"]
    lemmas = row.get("tok_lemma")
    pos = row.get("tok_pos")
    ner = row.get("tok_ner")
    norm = row.get("tok_norm")
    tb, te = row.get("tok_begin"), row.get("tok_end")
    heads, rels = row.get("dep_head"), row.get("dep_label")
    by_sent = {}
    for t in (triples or []):
        by_sent.setdefault((t[0], t[5]), []).append(t)
    for si, (b, e) in enumerate(zip(row["sent_begin"], row["sent_end"])):
        out.append('      <sentence id="%d">' % (si + 1))
        out.append("        <tokens>")
        for k in range(b, e):
            out.append('          <token id="%d">' % (k - b + 1))
            out.append("            <word>%s</word>" % escape(words[k]))
            if lemmas:
                out.append("            <lemma>%s</lemma>"
                           % escape(lemmas[k]))
            if tb is not None and te is not None:
                out.append("            <CharacterOffsetBegin>%d"
                           "</CharacterOffsetBegin>" % tb[k])
                out.append("            <CharacterOffsetEnd>%d"
                           "</CharacterOffsetEnd>" % te[k])
            if pos:
                out.append("            <POS>%s</POS>" % escape(pos[k]))
            if ner:
                out.append("            <NER>%s</NER>" % escape(ner[k]))
            if norm and norm[k]:
                out.append("            <NormalizedNER>%s"
                           "</NormalizedNER>" % escape(norm[k]))
            out.append("          </token>")
        out.append("        </tokens>")
        if heads is not None:
            out.append('        <dependencies type="basic-dependencies">')
            for k in range(b, e):
                h = heads[k]
                if h is None:
                    continue
                gov_idx = 0 if h < 0 or not (b <= h < e) else h - b + 1
                gov_word = "ROOT" if gov_idx == 0 else words[h]
                out.append('          <dep type="%s">'
                           % escape(rels[k] if rels else "dep"))
                out.append('            <governor idx="%d">%s</governor>'
                           % (gov_idx, escape(gov_word)))
                out.append('            <dependent idx="%d">%s'
                           "</dependent>" % (k - b + 1, escape(words[k])))
                out.append("          </dep>")
            out.append("        </dependencies>")
        for src, tag in (("openie", "openie"), ("kbp", "kbp")):
            ts = by_sent.get((si, src))
            if ts:
                out.append("        <%s>" % tag)
                for (_si, s, rl, o, conf, _src) in ts:
                    out.append("          <triple confidence=\"%.3f\">"
                               % conf)
                    out.append("            <subject>%s</subject>"
                               % escape(s))
                    out.append("            <relation>%s</relation>"
                               % escape(rl))
                    out.append("            <object>%s</object>"
                               % escape(o))
                    out.append("          </triple>")
                out.append("        </%s>" % tag)
        out.append("      </sentence>")
    out.append("    </sentences>")
    chains = row.get("men_chain")
    if chains:
        out.append("    <coreference>")
        by_chain = {}
        for mi, c in enumerate(chains):
            by_chain.setdefault(c, []).append(mi)
        for c in sorted(by_chain):
            mis = by_chain[c]
            if len(mis) < 2:
                continue
            out.append("      <coreference>")
            for j, mi in enumerate(mis):
                mb, me = row["men_begin"][mi], row["men_end"][mi]
                rep = ' representative="true"' if j == 0 else ""
                out.append("        <mention%s>" % rep)
                out.append("          <start>%d</start>" % (mb + 1))
                out.append("          <end>%d</end>" % (me + 1))
                out.append("          <text>%s</text>"
                           % escape(" ".join(words[mb:me])))
                out.append("        </mention>")
            out.append("      </coreference>")
        out.append("    </coreference>")
    out.append("  </document>")
    out.append("</root>")
    return "\n".join(out) + "\n"


def doc_to_tagged(row: Dict) -> str:
    """TAGGED output format (StanfordCoreNLP.java:88 enum): word_POS
    per token, one sentence per line."""
    lines = []
    pos = row.get("tok_pos") or [None] * len(row["tok_word"])
    for b, e in zip(row["sent_begin"], row["sent_end"]):
        lines.append(" ".join(
            "%s_%s" % (row["tok_word"][k], pos[k] or "XX")
            for k in range(b, e)))
    return "\n".join(lines) + "\n"


def write_xml(docs_ds, path: str):
    """Distributed XML sink: one .xml file per block under ``path``."""
    return write_sharded(docs_ds, path, "xml", doc_to_xml)


def doc_to_inline_xml(row: Dict) -> str:
    """INLINEXML output format (StanfordCoreNLP.java:88 enum; the
    classic CRFClassifier inline-NER rendering): contiguous same-type
    NER token runs wrapped as <TYPE>…</TYPE>, O tokens bare, one
    sentence per line."""
    from xml.sax.saxutils import escape

    words = row["tok_word"]
    ner = row.get("tok_ner") or ["O"] * len(words)
    lines = []
    for b, e in zip(row["sent_begin"], row["sent_end"]):
        parts = []
        k = b
        while k < e:
            t = ner[k]
            if t in (None, "O"):
                parts.append(escape(words[k]))
                k += 1
                continue
            j = k
            while j < e and ner[j] == t:
                j += 1
            parts.append("<%s>%s</%s>"
                         % (t, escape(" ".join(words[k:j])), t))
            k = j
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def write_text(docs_ds, path: str):
    """Distributed TEXT sink (TextOutputter format): one .txt file per
    block under ``path``."""
    return write_sharded(docs_ds, path, "txt", doc_to_text)
