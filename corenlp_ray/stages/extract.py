"""HTML → text extraction (the CleanXml analogue).

Reference semantics: CleanXmlAnnotator removes XML/SGML tag tokens and keeps
the text between allowed tags, preserving character offsets of surviving
text (/root/reference/src/edu/stanford/nlp/pipeline/CleanXmlAnnotator.java:27).
Our engine runs extraction BEFORE tokenization (web pages arrive as raw
HTML bytes), with a deterministic, documented spec so the extracted ``text``
column is byte-identical per url across runs and parallelism levels — the
per-row invariant from BASELINE.json.

Extraction spec (deterministic, order matters):
  1. Decode bytes as UTF-8 (errors="replace").
  2. Drop ``<!-- ... -->`` comments and the complete contents of
     ``<script>``, ``<style>``, ``<head>``, ``<noscript>``, ``<template>``,
     ``<iframe>``, ``<svg>`` elements (the reference's "non-allowed tags").
  3. Replace every remaining tag with: "\n" if it is a block-level tag
     (p, div, br, hr, h1-h6, li, ul, ol, tr, td, th, table, blockquote,
     pre, section, article, header, footer, nav, figure, figcaption, title,
     body, html, form, fieldset, dl, dt, dd, address, aside, main, option,
     select, textarea, caption), else "" (inline tags: a, b, i, em, strong,
     span, code, small, sub, sup, u, abbr, time, mark, q, cite, ...).
  4. Decode HTML character entities (named common set + numeric).
  5. Normalize: split on newlines, strip each line, drop empty lines,
     then join consecutive non-empty lines into paragraphs? No — simpler
     and fully deterministic: each non-empty stripped line IS a paragraph;
     paragraphs are joined with "\n\n". Intra-line whitespace runs collapse
     to a single space.

``corenlp_ray.sources.pages`` generates HTML whose extraction equals the
``text`` column exactly, which is how tests pin the invariant.
"""
from __future__ import annotations

import html as _htmllib
import re

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

# Elements whose entire content is dropped.
_DROP_CONTENT = ("script", "style", "head", "noscript", "template", "iframe", "svg")

_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_DROP_RES = [
    re.compile(r"<%s\b[^>]*>.*?</%s\s*>" % (t, t), re.S | re.I) for t in _DROP_CONTENT
]
_BLOCK_TAGS = {
    "p", "div", "br", "hr", "h1", "h2", "h3", "h4", "h5", "h6", "li", "ul",
    "ol", "tr", "td", "th", "table", "blockquote", "pre", "section",
    "article", "header", "footer", "nav", "figure", "figcaption", "title",
    "body", "html", "form", "fieldset", "dl", "dt", "dd", "address",
    "aside", "main", "option", "select", "textarea", "caption",
}
_TAG_RE = re.compile(r"</?\s*([a-zA-Z][a-zA-Z0-9:-]*)[^>]*>")
_WS_RUN_RE = re.compile(r"[ \t\r\f\v ]+")


def _tag_repl(m: re.Match) -> str:
    return "\n" if m.group(1).lower() in _BLOCK_TAGS else ""


def extract_text(html: bytes | str | None) -> str:
    """Pure kernel: HTML (bytes or str) → canonical extracted text."""
    if html is None:
        return ""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    s = _COMMENT_RE.sub("", html)
    for rx in _DROP_RES:
        s = rx.sub("\n", s)
    s = _TAG_RE.sub(_tag_repl, s)
    s = _htmllib.unescape(s)
    # the run class excludes \n, so one whole-document sub is identical to
    # the per-line sub (and ~40x fewer regex calls on real pages)
    s = _WS_RUN_RE.sub(" ", s)
    return "\n\n".join(ln for ln in map(str.strip, s.split("\n")) if ln)


def canonicalize_text(text: str) -> str:
    """Normalize arbitrary source text into the same canonical paragraph
    form ``extract_text`` produces (used by the pages generator so that
    text == extract_text(html_of(text)) byte-identically)."""
    text = _WS_RUN_RE.sub(" ", text)
    return "\n\n".join(ln for ln in map(str.strip, text.split("\n")) if ln)


# token-level CleanXml (the reference's actual annotator shape:
# PTBTokenizer emits SGML tags as tokens, CleanXmlAnnotator drops them
# while PRESERVING character offsets into the original string —
# src/edu/stanford/nlp/pipeline/CleanXmlAnnotator.java:27-41; behavior
# pinned by test/pipeline/CleanXmlAnnotatorTest.java cases in
# tests/test_cleanxml_reference.py)
_SGML_TOKEN_RE = re.compile(r"^</?[A-Za-z][^>]*>$|^<!--.*-->$", re.S)


def cleanxml_tokens(toks):
    """[(word, orig, begin, end)] → same with tag tokens removed; the
    survivors keep their original char offsets (the invertibility
    contract CleanXmlAnnotatorTest.testInvertible checks)."""
    return [t for t in toks if not _SGML_TOKEN_RE.match(t[0])]


# ------------------------------------------- doc attributes (cleanxml) ----
# CleanXmlAnnotator collects tokens whose INNERMOST enclosing tag matches
# dateTags/docIdTags/docTypeTags and joins them into DocDate / DocID /
# DocType document annotations; docAnnotationPatterns ("docID=doc[id]")
# pull attribute values; speaker tags set the current speaker per turn
# (CleanXmlAnnotator.java:64-100,512-608,920-935). Columnar analogue:
# one map_batches stage emitting xml_docdate / xml_docid / xml_doctype /
# xml_speakers columns from the raw html.

_DATE_TAGS_DEFAULT = r"datetime|date"        # DEFAULT_DATE_TAGS:64
_DOCID_TAGS_DEFAULT = r"docid"               # DEFAULT_DOCID_TAGS:71
_DOCTYPE_TAGS_DEFAULT = r"doctype"           # DEFAULT_DOCTYPE_TAGS:78
_SPEAKER_TAGS_DEFAULT = r"speaker"           # DEFAULT_SPEAKER_TAGS:92
# DEFAULT_DOC_ANNOTATIONS_PATTERNS:100 — docID=doc[id] (attr fallback)
_DOC_ATTR_PATTERNS = (("docid", "doc", "id"), ("doctype", "doc", "type"))

_FULL_TAG_RE = re.compile(
    r"<(/?)\s*([a-zA-Z][a-zA-Z0-9:_-]*)((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)"
    r"(/?)>", re.S)
_ATTR_RE = re.compile(
    r"([a-zA-Z][a-zA-Z0-9:_-]*)\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*)")


def _clean_join(parts) -> str:
    return _WS_RUN_RE.sub(" ", " ".join(
        p.strip() for p in parts if p.strip())).strip()


def extract_doc_attrs(html: bytes | str | None,
                      date_tags: str = _DATE_TAGS_DEFAULT,
                      docid_tags: str = _DOCID_TAGS_DEFAULT,
                      doctype_tags: str = _DOCTYPE_TAGS_DEFAULT,
                      speaker_tags: str = _SPEAKER_TAGS_DEFAULT) -> dict:
    """Pure kernel: raw XML/HTML → {docdate, docid, doctype, speakers}.

    Tag-content collection matches the reference's innermost-enclosing-
    tag rule; ``docID=doc[id]`` / ``doctype=doc[type]`` attribute
    patterns fill docid/doctype when no tag content provided them.
    ``speakers`` is the ordered per-turn speaker list (the reference
    sets SpeakerAnnotation on subsequent tokens; a columnar engine
    keeps the sequence instead)."""
    if html is None:
        return {"docdate": "", "docid": "", "doctype": "", "speakers": []}
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    s = _COMMENT_RE.sub("", html)
    date_re = re.compile(r"^(?:%s)$" % date_tags, re.I)
    docid_re = re.compile(r"^(?:%s)$" % docid_tags, re.I)
    doctype_re = re.compile(r"^(?:%s)$" % doctype_tags, re.I)
    speaker_re = re.compile(r"^(?:%s)$" % speaker_tags, re.I)
    stack: list = []
    dates: list = []
    docids: list = []
    doctypes: list = []
    speakers: list = []
    attr_hits = {"docid": "", "doctype": ""}
    pos = 0
    for m in _FULL_TAG_RE.finditer(s):
        text = s[pos:m.start()]
        pos = m.end()
        if text.strip() and stack:
            innermost = stack[-1]
            if date_re.match(innermost):
                dates.append(text)
            if docid_re.match(innermost):
                docids.append(text)
            if doctype_re.match(innermost):
                doctypes.append(text)
            if speaker_re.match(innermost):
                speakers.append(_clean_join([_htmllib.unescape(text)]))
        closing, name, attrs, selfclose = m.groups()
        lname = name.lower()
        if closing:
            # flaw-tolerant pop (DEFAULT_ALLOW_FLAWS): unwind to match
            while stack:
                top = stack.pop()
                if top == lname:
                    break
        elif not selfclose:
            stack.append(lname)
        if not closing and attrs:
            for target, tag, attr in _DOC_ATTR_PATTERNS:
                if lname == tag and not attr_hits[target]:
                    for an, av in _ATTR_RE.findall(attrs):
                        if an.lower() == attr:
                            attr_hits[target] = _htmllib.unescape(
                                av.strip("\"'"))
    return {
        "docdate": _clean_join([_htmllib.unescape(d) for d in dates]),
        "docid": _clean_join([_htmllib.unescape(d) for d in docids])
                 or attr_hits["docid"],
        "doctype": _clean_join([_htmllib.unescape(d) for d in doctypes])
                   or attr_hits["doctype"],
        "speakers": speakers,
    }


_ISO_DATE_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")
_COMPACT_DATE_RE = re.compile(r"^(\d{4})(\d{2})(\d{2})$")


def normalize_docdate(raw: str | None) -> str:
    """DocDate string → ISO yyyy-mm-dd for SUTime resolution (the
    reference hands the raw string to SUTime's date parser; this engine
    accepts ISO timestamps/dates and compact yyyymmdd)."""
    if not raw:
        return ""
    raw = raw.strip()
    m = _ISO_DATE_RE.search(raw)
    if m:
        return "-".join(m.groups())
    m = _COMPACT_DATE_RE.match(raw)
    if m:
        return "-".join(m.groups())
    return ""


def extract_doc_attrs_batch(batch: pa.Table) -> pa.Table:
    """map_batches stage: + xml_docdate, xml_docid, xml_doctype,
    xml_speakers from the raw ``html`` column. Stateless task stage."""
    attrs = [extract_doc_attrs(v)
             for v in batch.column("html").to_pylist()]
    return (batch
            .append_column("xml_docdate", pa.array(
                [a["docdate"] for a in attrs], type=pa.string()))
            .append_column("xml_docid", pa.array(
                [a["docid"] for a in attrs], type=pa.string()))
            .append_column("xml_doctype", pa.array(
                [a["doctype"] for a in attrs], type=pa.string()))
            .append_column("xml_speakers", pa.array(
                [a["speakers"] for a in attrs],
                type=pa.list_(pa.string()))))


@stage_kernel("cleanxml")
def extract_text_batch(batch: pa.Table, cols: dict) -> pa.Table:
    """Stage: pages(url, warc_ts, html, ...) → + text_extracted.

    Stateless task stage (pure function of ``html``); regexes are compiled
    once per worker process at module import.
    """
    cols["text_extracted"] = [extract_text(v)
                              for v in col(batch, "html", cols)]
    return batch
