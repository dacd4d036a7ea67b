"""Planted-sentence oracles for the annotation chain.

Round-2 verdict task 5: the annotation chain (tokenize → pos → ner →
depparse → coref → openie/kbp) was only rows-only checked because its
output over arbitrary web text is not SQL-expressible. The
``sutime_relative`` pattern generalizes: plant sentences derived from
``doc_id`` by MODULAR ARITHMETIC ONLY (hence exactly reproducible in
DuckDB), run the REAL distributed annotation stages over them, and
hash-compare the extracted mentions/triples against a SQL oracle that
computes what the chain must find. A wrong POS tag, a shifted NER span,
a missing dep arc, or a KBP rule that stops firing changes the Ray-side
output and fails the driver's value-hash gate — these are full-chain
correctness oracles, not row counters.

The slot vocabularies are the same template-bank constants the pages
source uses (sources/pages.py), embedded into the SQL from the SAME
Python lists so the two sides cannot drift. Determinism of every
(template × slot) combination is pinned by tests/test_planted_oracles.py
over the full cross-product.

Reference anchors for what the chain must produce on these
constructions: the reference's own regression sentences in
itest/src/edu/stanford/nlp/naturalli/OpenIEITest.java:45-124 and the
TAC-KBP relation definitions in
src/edu/stanford/nlp/ie/KBPRelationExtractor.java:121-170.
"""
from __future__ import annotations

from typing import List

import pyarrow as pa

from corenlp_ray.sources.pages import CITIES, ORGS, PERSONS, TOPICS


def _sql_list(values: List[str]) -> str:
    return "[" + ", ".join(
        "'" + v.replace("'", "''") + "'" for v in values) + "]"


def _docs_ids(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])


# --------------------------------------------------------------- mentions

def _mention_text(i: int) -> str:
    return "{} visited {} on January {}, 2003.".format(
        PERSONS[i % 12], CITIES[i % 10], i % 28 + 1)


def q_entity_mentions_planted(sf_dir: str):
    """tokenize→pos→ner over planted sentences; PERSON + LOCATION +
    DATE-normalization all oracle-checked per document."""
    from corenlp_ray.pipelines.kg import apply

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids,
             "text": [_mention_text(i) for i in ids]},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string())]))

    ann = apply(_docs_ids(sf_dir).map_batches(synth,
                                              batch_format="pyarrow"),
                ("ner",))

    def explode(b: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "surface": [], "ner": [], "normalized": []}
        for r in range(b.num_rows):
            did = b.column("doc_id")[r].as_py()
            words = b.column("tok_word")[r].as_py()
            for mb, me, ty, nv in zip(b.column("men_begin")[r].as_py(),
                                      b.column("men_end")[r].as_py(),
                                      b.column("men_ner")[r].as_py(),
                                      b.column("men_norm")[r].as_py()):
                rows["doc_id"].append(did)
                rows["surface"].append(" ".join(words[mb:me]))
                rows["ner"].append(ty)
                rows["normalized"].append(nv)
        return pa.Table.from_pydict(rows, schema=pa.schema(
            [("doc_id", pa.int64()), ("surface", pa.string()),
             ("ner", pa.string()), ("normalized", pa.string())]))

    return ann.map_batches(explode, batch_format="pyarrow")


def entity_mentions_planted_sql() -> str:
    return (
        "WITH d AS (SELECT doc_id, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS p, "
        f"list_extract({_sql_list(CITIES)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS c, "
        "CAST(doc_id % 28 AS INT) + 1 AS day FROM documents) "
        "SELECT doc_id, p AS surface, 'PERSON' AS ner, p AS normalized "
        "FROM d "
        "UNION ALL SELECT doc_id, c, 'LOCATION', c FROM d "
        "UNION ALL SELECT doc_id, printf('January %d , 2003', day), "
        "'DATE', printf('2003-01-%02d', day) FROM d")


# -------------------------------------------------------------------- kbp

# (sentence format, [(subj_slot, relation, obj_slot), ...]); every
# combination of template × slot values is pinned deterministic by the
# cross-product test before the oracle relies on it.
KBP_PLANTED_TEMPLATES = [
    ("{P} was born in {C}.", [("P", "per:city_of_birth", "C")]),
    ("{P} works for {O}.", [("P", "per:employee_of", "O")]),
    ("{O} is headquartered in {C}.",
     [("O", "org:city_of_headquarters", "C")]),
    ("{P} died in {C}.", [("P", "per:city_of_death", "C")]),
    ("{P} lives in {C}.", [("P", "per:cities_of_residence", "C")]),
    ("{O} is a subsidiary of {O2}.",
     [("O", "org:parents", "O2"), ("O2", "org:subsidiaries", "O")]),
    ("{P} is married to {P2}.",
     [("P", "per:spouse", "P2"), ("P2", "per:spouse", "P")]),
]


def _kbp_slots(i: int) -> dict:
    return {"P": PERSONS[i % 12], "P2": PERSONS[(i + 5) % 12],
            "O": ORGS[i % 10], "O2": ORGS[(i + 3) % 10],
            "C": CITIES[i % 10]}


def _kbp_text(i: int) -> str:
    return KBP_PLANTED_TEMPLATES[i % 7][0].format(**_kbp_slots(i))


def _planted_triples(sf_dir: str, text_fn):
    """planted docs → REAL annotate chain → fused openie+kbp extraction
    (the same TripleExtractor stage that ends the flagship KG chain),
    with doc_id carried through the url column."""
    from corenlp_ray.pipelines.kg import extract, triples_stage

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"url": [str(i) for i in ids],
             "text": [text_fn(i) for i in ids]},
            schema=pa.schema([("url", pa.string()),
                              ("text", pa.string())]))

    return extract(_docs_ids(sf_dir).map_batches(synth,
                                                 batch_format="pyarrow"),
                   triples_stage(),
                   ("tokenize", "pos", "lemma", "ner", "depparse", "coref"))


def _project_triples(triples, source: str):
    import pyarrow.compute as pc

    def proj(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("source"), source))
        return pa.Table.from_pydict(
            {"doc_id": pc.cast(b.column("url"), pa.int64()),
             "subj": b.column("subj"),
             "rel": b.column("pred"),
             "obj": b.column("obj")},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("subj", pa.string()),
                              ("rel", pa.string()),
                              ("obj", pa.string())]))

    return triples.map_batches(proj, batch_format="pyarrow")


def q_kbp_planted(sf_dir: str):
    """Full-chain KBP oracle: planted relation-bearing sentences →
    tokenize→pos→lemma→ner→depparse→coref→kbp; the exact (subj, rel,
    obj) set per document is SQL-computable from doc_id."""
    return _project_triples(_planted_triples(sf_dir, _kbp_text), "kbp")


def kbp_planted_sql() -> str:
    slots = ("WITH d AS (SELECT doc_id, CAST(doc_id % 7 AS INT) AS t, "
             f"list_extract({_sql_list(PERSONS)}, "
             "CAST(doc_id % 12 AS INT) + 1) AS p, "
             f"list_extract({_sql_list(PERSONS)}, "
             "CAST((doc_id + 5) % 12 AS INT) + 1) AS p2, "
             f"list_extract({_sql_list(ORGS)}, "
             "CAST(doc_id % 10 AS INT) + 1) AS o, "
             f"list_extract({_sql_list(ORGS)}, "
             "CAST((doc_id + 3) % 10 AS INT) + 1) AS o2, "
             f"list_extract({_sql_list(CITIES)}, "
             "CAST(doc_id % 10 AS INT) + 1) AS c FROM documents) ")
    first = (
        "SELECT doc_id, "
        "CASE t WHEN 2 THEN o WHEN 5 THEN o ELSE p END AS subj, "
        "CASE t WHEN 0 THEN 'per:city_of_birth' "
        "WHEN 1 THEN 'per:employee_of' "
        "WHEN 2 THEN 'org:city_of_headquarters' "
        "WHEN 3 THEN 'per:city_of_death' "
        "WHEN 4 THEN 'per:cities_of_residence' "
        "WHEN 5 THEN 'org:parents' "
        "ELSE 'per:spouse' END AS rel, "
        "CASE t WHEN 1 THEN o WHEN 5 THEN o2 WHEN 6 THEN p2 "
        "ELSE c END AS obj FROM d ")
    second = (
        "UNION ALL SELECT doc_id, "
        "CASE t WHEN 5 THEN o2 ELSE p2 END, "
        "CASE t WHEN 5 THEN 'org:subsidiaries' ELSE 'per:spouse' END, "
        "CASE t WHEN 5 THEN o ELSE p END FROM d WHERE t IN (5, 6)")
    return slots + first + second


# ------------------------------------------------------------------ openie

def _openie_text(i: int) -> str:
    t = i % 4
    if t == 0:
        return "Some cats have tails."
    if t == 1:
        return "All rabbits eat vegetables."
    if t == 2:
        return "{} studies {}.".format(PERSONS[i % 12], TOPICS[i % 5])
    return "{} acquired {}.".format(ORGS[i % 10], ORGS[(i + 3) % 10])


def q_openie_planted(sf_dir: str):
    """Full-chain OpenIE oracle over the reference's own golden
    constructions (quantified subjects, transitive SVO)."""
    return _project_triples(_planted_triples(sf_dir, _openie_text),
                            "openie")


# ------------------------------------------------- natlog / sentiment

# (text or None=use person template, n_tokens, n_downward): polarity
# marks follow the reference's NaturalLogicAnnotator operator scopes
# (naturalli/Polarity.java; PolarityTest) — 'All' flips its restrictor
# down, 'No'/'not' flip their scope down, 'Some' is upward-monotone.
NATLOG_PLANTED_TEMPLATES = [
    ("All rabbits eat vegetables.", 5, 1),
    ("No students attended the lecture.", 6, 5),
    ("Some cats have tails.", 5, 0),
    (None, 7, 3),   # "{P} did not visit {C}." — P is always 2 tokens
]


def _natlog_text(i: int) -> str:
    t = NATLOG_PLANTED_TEMPLATES[i % 4][0]
    if t is not None:
        return t
    return "{} did not visit {}.".format(PERSONS[i % 12], CITIES[i % 10])


def q_natlog_planted(sf_dir: str):
    """Full-chain natlog oracle: planted quantifier/negation sentences →
    tokenize→pos→depparse→natlog; per-doc downward-token counts are
    template constants."""
    import pyarrow.compute as pc

    from corenlp_ray.pipelines.kg import apply

    ann = apply(_planted_doc_texts(sf_dir, _natlog_text), ("natlog",))

    def project(b: pa.Table) -> pa.Table:
        downs = [sum(1 for p in pol if p == "down")
                 for pol in b.column("tok_polarity").to_pylist()]
        return pa.Table.from_pydict(
            {"doc_id": b.column("doc_id"),
             "n_tokens": pc.cast(
                 pc.list_value_length(b.column("tok_word")), pa.int64()),
             "n_downward": pa.array(downs, type=pa.int64())},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("n_tokens", pa.int64()),
                              ("n_downward", pa.int64())]))

    return ann.map_batches(project, batch_format="pyarrow")


def natlog_planted_sql() -> str:
    toks = ", ".join(str(t[1]) for t in NATLOG_PLANTED_TEMPLATES)
    downs = ", ".join(str(t[2]) for t in NATLOG_PLANTED_TEMPLATES)
    return (
        "SELECT doc_id, "
        f"CAST(list_extract([{toks}], CAST(doc_id % 4 AS INT) + 1) "
        "AS BIGINT) AS n_tokens, "
        f"CAST(list_extract([{downs}], CAST(doc_id % 4 AS INT) + 1) "
        "AS BIGINT) AS n_downward FROM documents")


SENTIMENT_PLANTED_TEMPLATES = [
    ("The excellent film was wonderful.", "Very positive"),
    ("The terrible film was awful.", "Very negative"),
    ("The film was shown in theaters.", "Neutral"),
]


def _sentiment_text(i: int) -> str:
    return SENTIMENT_PLANTED_TEMPLATES[i % 3][0]


def q_sentiment_planted(sf_dir: str):
    """Tree-compositional sentiment over planted valence sentences
    (dep→constituency projection + lexicon composition); the per-doc
    class label is a template constant."""
    from corenlp_ray.pipelines.kg import apply
    from corenlp_ray.stages.sentiment import sentiment_batch

    ann = apply(_planted_doc_texts(sf_dir, _sentiment_text),
                ("depparse",)) \
        .map_batches(sentiment_batch, batch_format="pyarrow")

    def project(b: pa.Table) -> pa.Table:
        labs = [s[0] if s else "" for s in
                b.column("sent_sentiment").to_pylist()]
        return pa.Table.from_pydict(
            {"doc_id": b.column("doc_id"),
             "sentiment": pa.array(labs, type=pa.string())},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("sentiment", pa.string())]))

    return ann.map_batches(project, batch_format="pyarrow")


def sentiment_planted_sql() -> str:
    labs = ", ".join("'" + t[1] + "'" for t in SENTIMENT_PLANTED_TEMPLATES)
    return ("SELECT doc_id, "
            f"list_extract([{labs}], CAST(doc_id % 3 AS INT) + 1) "
            "AS sentiment FROM documents")


# ----------------------------------------------- extract / tokenize

def _extract_html(i: int) -> str:
    return ("<html><head><title>skip</title></head><body>"
            "<h1>{} Report</h1><p>{} research in {}.</p>"
            "<!-- note --></body></html>").format(
                PERSONS[i % 12], TOPICS[i % 5], CITIES[i % 10])


def q_extract_planted(sf_dir: str):
    """CleanXml-semantics oracle: planted HTML (head-drop, block-tag
    newlines, comment removal, paragraph joining) through the REAL
    extract stage; the exact extracted string is SQL-computable, making
    the byte-identical per-url invariant a value-hash check."""
    from corenlp_ray.pipelines.kg import apply

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids,
             "html": [_extract_html(int(i)).encode() for i in ids]},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("html", pa.binary())]))

    out = apply(_docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow"),
                ("cleanxml",))
    return out.select_columns(["doc_id", "text_extracted"]) \
        .map_batches(lambda b: b.rename_columns(["doc_id", "text"]),
                     batch_format="pyarrow")


def extract_planted_sql() -> str:
    return (
        "SELECT doc_id, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) || ' Report' || chr(10) || "
        f"chr(10) || list_extract({_sql_list(TOPICS)}, "
        "CAST(doc_id % 5 AS INT) + 1) || ' research in ' || "
        f"list_extract({_sql_list(CITIES)}, "
        "CAST(doc_id % 10 AS INT) + 1) || '.' AS text FROM documents")


# ------------------------------------------- enhanced++ dependencies ----

# each template's enhanced edge set is a constant of the cascade's
# deterministic parse (PERSONS are uniformly 2 tokens, CITIES 1, so
# indices never shift); verified name-invariant across all constants
_ENHANCED_TEMPLATES = (
    "{P} was defeated by {P2}.",      # obl:agent + nsubj:pass
    "{P} visited {C} and {C2}.",      # conj:and + propagated obj
    "{P} traveled from {C} to {C2}.", # obl:from / obl:to augmentation
)
_ENHANCED_GOLD = (
    "aux:pass(3,2);case(6,4);compound(1,0);compound(6,5);"
    "nsubj:pass(3,1);obl:agent(3,6);punct(3,7);root(-1,3)",
    "cc(5,4);compound(1,0);conj:and(3,5);nsubj(2,1);obj(2,3);obj(2,5);"
    "punct(2,6);root(-1,2)",
    "case(4,3);case(6,5);compound(1,0);nsubj(2,1);obl:from(2,4);"
    "obl:to(2,6);punct(2,7);root(-1,2)",
)


def _enhanced_text(i: int) -> str:
    return _ENHANCED_TEMPLATES[i % 3].format(
        P=PERSONS[i % 12], P2=PERSONS[(i + 5) % 12],
        C=CITIES[i % 10], C2=CITIES[(i + 3) % 10])


def q_enhanced_deps_planted(sf_dir: str):
    """Enhanced++ UD rewrites (functions/enhanced_ud.py — obl:agent,
    conj:<cc> + shared-argument propagation, case augmentation) through
    the REAL tokenize→pos→depparse chain; the per-template edge set is
    a deterministic constant the oracle reproduces by doc_id."""
    from corenlp_ray.pipelines.kg import apply

    ann = apply(_planted_doc_texts(sf_dir, _enhanced_text), ("enhanced",))

    def project(b: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "edges": []}
        for r in range(b.num_rows):
            es = sorted(
                f"{l}({g},{d})" for g, d, l in zip(
                    b.column("enh_gov")[r].as_py(),
                    b.column("enh_dep")[r].as_py(),
                    b.column("enh_label")[r].as_py()))
            rows["doc_id"].append(b.column("doc_id")[r].as_py())
            rows["edges"].append(";".join(es))
        return pa.Table.from_pydict(rows, schema=pa.schema(
            [("doc_id", pa.int64()), ("edges", pa.string())]))

    return ann.map_batches(project, batch_format="pyarrow")


def enhanced_deps_planted_sql() -> str:
    golds = ", ".join("'" + g + "'" for g in _ENHANCED_GOLD)
    return (f"SELECT doc_id, list_extract([{golds}], "
            "CAST(doc_id % 3 AS INT) + 1) AS edges FROM documents")


# --------------------------------------- cleanxml doc attributes ----

_CLEANXML_PHRASES = ("yesterday", "today", "tomorrow")


def _cleanxml_html(i: int) -> str:
    """LDC-style SGML document: docid/doctype/date tag content +
    doc[id]/doc[type] attributes + a turn/speaker pair + one relative
    date whose resolution depends on the XML-embedded docdate
    (CleanXmlAnnotator.java:64-100 tag defaults)."""
    import datetime as _dt

    iso = (_dt.date(2003, 4, 14)
           + _dt.timedelta(days=i % 60)).isoformat()
    return ("<doc id=\"ATTR{i}\" type=\"forum\">\n"
            "<docid>D{i}</docid>\n<doctype>news</doctype>\n"
            "<date>{iso}</date>\n"
            "<turn><speaker>{p}</speaker>\n"
            "<p>The meeting happened {phrase}.</p></turn>\n"
            "</doc>").format(i=i, iso=iso, p=PERSONS[i % 12],
                             phrase=_CLEANXML_PHRASES[i % 3])


def q_cleanxml_docdate_planted(sf_dir: str):
    """cleanxml attribute extraction end-to-end: XML-embedded
    docid/date/speaker tags → xml_* columns → the XML docdate (NOT the
    decoy warc_ts, planted at 1999-01-01 to prove precedence) resolves
    the relative date through the real tokenize→pos→ner SUTime chain."""
    import datetime as _dt

    from corenlp_ray.pipelines.kg import apply
    from corenlp_ray.stages.extract import extract_doc_attrs_batch

    decoy = _dt.datetime(1999, 1, 1)

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids,
             "html": [_cleanxml_html(int(i)).encode() for i in ids],
             "warc_ts": [decoy] * len(ids)},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("html", pa.binary()),
                              ("warc_ts", pa.timestamp("us"))]))

    ds = (apply(_docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow"),
                ("cleanxml",))
          .map_batches(extract_doc_attrs_batch, batch_format="pyarrow")
          .map_batches(lambda b: b.drop_columns(["html"])
                       .rename_columns([
                           "text" if c == "text_extracted" else c
                           for c in b.drop_columns(["html"]).column_names]),
                       batch_format="pyarrow"))
    ann = apply(ds, ("ner",))
    rel = set(_CLEANXML_PHRASES)

    def project(b: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "docid": [], "docdate": [], "speaker": [],
                "value": []}
        for r in range(b.num_rows):
            words = b.column("tok_word")[r].as_py()
            speakers = b.column("xml_speakers")[r].as_py()
            for mb, me, ty, nv in zip(b.column("men_begin")[r].as_py(),
                                      b.column("men_end")[r].as_py(),
                                      b.column("men_ner")[r].as_py(),
                                      b.column("men_norm")[r].as_py()):
                surface = " ".join(words[mb:me]).lower()
                if ty == "DATE" and surface in rel:
                    rows["doc_id"].append(
                        b.column("doc_id")[r].as_py())
                    rows["docid"].append(b.column("xml_docid")[r].as_py())
                    rows["docdate"].append(
                        b.column("xml_docdate")[r].as_py())
                    rows["speaker"].append(
                        speakers[0] if speakers else "")
                    rows["value"].append(nv)
        return pa.Table.from_pydict(rows, schema=pa.schema(
            [("doc_id", pa.int64()), ("docid", pa.string()),
             ("docdate", pa.string()), ("speaker", pa.string()),
             ("value", pa.string())]))

    return ann.map_batches(project, batch_format="pyarrow")


def cleanxml_docdate_planted_sql() -> str:
    phrases_base = "DATE '2003-04-14' + CAST(doc_id % 60 AS INT)"
    return (
        "SELECT doc_id, "
        "'D' || CAST(doc_id AS VARCHAR) AS docid, "
        f"strftime({phrases_base}, '%Y-%m-%d') AS docdate, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS speaker, "
        f"strftime({phrases_base} + (CAST(doc_id % 3 AS INT) - 1), "
        "'%Y-%m-%d') AS value FROM documents")


# (text or None=slot template, n_tokens, n_sents): PTB tokenization +
# sentence splitting — abbreviation non-boundary (Dr.), ?!-boundaries,
# comma splitting; counts are template constants.
TOKENIZE_PLANTED_TEMPLATES = [
    ("Dr. Smith arrived. He left early.", 8, 2),
    (None, 7, 1),   # "{P} studies {T} in {C}." — P always 2 tokens
    ("Wait, what? Yes! Fine.", 8, 3),
]


def _tokenize_text(i: int) -> str:
    t = TOKENIZE_PLANTED_TEMPLATES[i % 3][0]
    if t is not None:
        return t
    return "{} studies {} in {}.".format(
        PERSONS[i % 12], TOPICS[i % 5], CITIES[i % 10])


def q_tokenize_planted(sf_dir: str):
    """Tokenizer + ssplit oracle: per-template token and sentence
    counts through the real tokenize_ssplit_batch stage."""
    import pyarrow.compute as pc

    from corenlp_ray.pipelines.kg import apply

    out = apply(_planted_doc_texts(sf_dir, _tokenize_text), ("tokenize",))
    return out.map_batches(
        lambda b: pa.Table.from_pydict(
            {"doc_id": b.column("doc_id"),
             "n_tokens": pc.cast(
                 pc.list_value_length(b.column("tok_word")), pa.int64()),
             "n_sents": pc.cast(
                 pc.list_value_length(b.column("sent_begin")),
                 pa.int64())},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("n_tokens", pa.int64()),
                              ("n_sents", pa.int64())])),
        batch_format="pyarrow")


def tokenize_planted_sql() -> str:
    toks = ", ".join(str(t[1]) for t in TOKENIZE_PLANTED_TEMPLATES)
    sents = ", ".join(str(t[2]) for t in TOKENIZE_PLANTED_TEMPLATES)
    return ("SELECT doc_id, "
            f"CAST(list_extract([{toks}], CAST(doc_id % 3 AS INT) + 1) "
            "AS BIGINT) AS n_tokens, "
            f"CAST(list_extract([{sents}], CAST(doc_id % 3 AS INT) + 1) "
            "AS BIGINT) AS n_sents FROM documents")


def q_protobuf_planted(sf_dir: str):
    """Protobuf wire-format sink oracle (ProtobufAnnotationSerializer
    analogue, sources/protobuf_out.py): planted sentences → the real
    tokenize stage → ``write_protobuf`` (distributed, varint-delimited
    CoreNLP Document stream, one .pb per block) → wire-level re-read.
    The per-doc token/sentence counts recovered FROM THE PROTOBUF BYTES
    must equal the template constants (the tokenizer oracle's SQL) —
    this pins field numbers, delimited framing, and the sentence/token
    nesting in one value-hashed check. The driver-side read-back is the
    verification step over the tiny sink output, not a pipeline stage."""
    import tempfile

    import pyarrow.compute as pc

    from corenlp_ray.sources.protobuf_out import (parse_message,
                                                  read_delimited,
                                                  write_protobuf)
    from corenlp_ray.pipelines.kg import apply

    def add_url(b: pa.Table) -> pa.Table:
        return b.append_column(
            "url", pc.cast(b.column("doc_id"), pa.string()))

    ann = apply(_planted_doc_texts(sf_dir, _tokenize_text)
                .map_batches(add_url, batch_format="pyarrow"),
                ("tokenize",))
    out_dir = tempfile.mkdtemp(prefix="graft_pb_planted_")
    paths = write_protobuf(ann, out_dir)
    rows = {"doc_id": [], "n_tokens": [], "n_sents": []}
    for p in paths:
        with open(p, "rb") as fh:
            blob = fh.read()
        for msg in read_delimited(blob):
            doc = parse_message(msg)
            sents = [parse_message(s) for s in doc.get(2, [])]
            rows["doc_id"].append(int(doc[4][0].decode("utf-8")))
            rows["n_tokens"].append(sum(len(s.get(1, ())) for s in sents))
            rows["n_sents"].append(len(sents))
    return pa.Table.from_pydict(rows, schema=pa.schema(
        [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
         ("n_sents", pa.int64())]))


def protobuf_planted_sql() -> str:
    return tokenize_planted_sql()


def q_simhash_pairs_planted(sf_dir: str):
    """SimHash pair oracle over the planted dedup corpus: identical
    intra-group texts → exactly the intra-group pairs at Hamming 0."""
    from corenlp_ray.ops.dedup import simhash_pairs

    return simhash_pairs(_planted_dedup_docs(sf_dir), max_hamming=3)


def simhash_pairs_planted_sql() -> str:
    g = DEDUP_GROUP_SIZE
    return ("SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "CAST(0 AS BIGINT) AS hamming FROM documents a JOIN documents b "
            f"ON a.doc_id // {g} = b.doc_id // {g} "
            "AND a.doc_id < b.doc_id")


# ------------------------------------------------------------- IVF ANN

# planted embedding geometry: 8 orthogonal unit clusters (dim = id % 8)
# with a tiny jitter dimension (8 + id % 4, weight 0.001). Clusters are
# maximally separated, so seeded k-means puts its centroids ON the
# cluster points and IVF partition pruning (n_probe=4 of 8) provably
# keeps every vector of the query's cluster → IVF == exact top-k, and
# the cosines are analytic: 1.0 for same-jitter members, 1/1.000001
# (= 0.999999 at 6 dp) for other members of the cluster.

def _planted_vec(i: int):
    v = [0.0] * 16
    v[i % 8] = 1.0
    v[8 + i % 4] = 0.001
    return v


def q_ivf_planted(sf_dir: str):
    """IVF-pruned ANN oracle: the REAL ivf_topk (seeded k-means, batch
    assignment, partition pruning, brute-force within probed
    partitions) over the planted cluster geometry; top-10 of the
    min-id query is SQL-computable analytically."""
    import numpy as np
    import pyarrow.compute as pc

    from corenlp_ray.ops.similarity import ivf_topk

    def synth(b: pa.Table) -> pa.Table:
        ids = [int(i) for i in b.column("doc_id").to_pylist()]
        return pa.Table.from_pydict(
            {"vec_id": ids, "embedding": [_planted_vec(i) for i in ids]},
            schema=pa.schema([("vec_id", pa.int64()),
                              ("embedding", pa.list_(pa.float64()))]))

    embeds = _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow")
    m0 = 0   # documents doc_ids start at 0; verified by the oracle match
    out = ivf_topk(embeds, np.asarray(_planted_vec(m0)), k=10,
                   n_centroids=8, n_probe=4)
    out = out.select(["vec_id", "cosine"])
    return out.set_column(out.column_names.index("cosine"), "cosine",
                          pc.round(out.column("cosine"), 6))


def ivf_planted_sql() -> str:
    # query = vector of doc_id 0 → cluster 0, jitter dim 0
    return (
        "SELECT doc_id AS vec_id, "
        "CASE WHEN doc_id % 4 = 0 THEN 1.0 ELSE 0.999999 END AS cosine "
        "FROM documents WHERE doc_id % 8 = 0 "
        "ORDER BY cosine DESC, vec_id LIMIT 10")


# ------------------------------------------------------------ multimodal

def q_multimodal_planted(sf_dir: str):
    """Multimodal-plumbing oracle: one media row per doc_id (the same
    deterministic synth as ops/multimodal.synth_media_table) through the
    REAL decode_pipeline task stages (fake decoder — no image libs in
    this container, documented); the SQL-checkable surface is the
    plumbing contract: payload size, frame-sampling plan (kind/duration
    arithmetic), and the normalized-feature invariant sum(img_feat)=1.0
    (exact: histogram counts over a 2^11-byte payload)."""
    import hashlib

    from corenlp_ray.ops.multimodal import MEDIA_SCHEMA, decode_pipeline

    def synth(b: pa.Table) -> pa.Table:
        rows = []
        for i in b.column("doc_id").to_pylist():
            i = int(i)
            payload = hashlib.sha256(f"0:{i}".encode()).digest() * 64
            rows.append({
                "media_id": i,
                "kind": ("image", "audio", "video")[i % 3],
                "payload": payload,
                "mime": "application/octet-stream",
                "width": 64 + (i % 8) * 16, "height": 48 + (i % 6) * 16,
                "duration_ms": -1 if i % 3 == 0 else 1000 + i * 250,
            })
        return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

    media = _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow")
    out = decode_pipeline(media, fake=True)

    def project(b: pa.Table) -> pa.Table:
        feats = b.column("img_feat").to_pylist()
        offs = b.column("frame_offsets_ms").to_pylist()
        pay = b.column("payload").to_pylist()
        return pa.Table.from_pydict(
            {"media_id": b.column("media_id"),
             "kind": b.column("kind"),
             "payload_bytes": pa.array([len(p) for p in pay],
                                       type=pa.int64()),
             "n_frames": pa.array([len(o) for o in offs],
                                  type=pa.int64()),
             "first_offset_ms": pa.array(
                 [o[0] if o else -1 for o in offs], type=pa.int64()),
             "feat_sum": pa.array([round(sum(f), 6) for f in feats],
                                  type=pa.float64())},
            schema=pa.schema([("media_id", pa.int64()),
                              ("kind", pa.string()),
                              ("payload_bytes", pa.int64()),
                              ("n_frames", pa.int64()),
                              ("first_offset_ms", pa.int64()),
                              ("feat_sum", pa.float64())]))

    return out.map_batches(project, batch_format="pyarrow")


def multimodal_planted_sql() -> str:
    return (
        "SELECT doc_id AS media_id, "
        "list_extract(['image', 'audio', 'video'], "
        "CAST(doc_id % 3 AS INT) + 1) AS kind, "
        "CAST(2048 AS BIGINT) AS payload_bytes, "
        "CAST(CASE WHEN doc_id % 3 = 2 THEN 4 ELSE 0 END AS BIGINT) AS n_frames, "
        "CASE WHEN doc_id % 3 = 2 THEN 200 + 50 * doc_id "
        "ELSE -1 END AS first_offset_ms, "
        "1.0 AS feat_sum FROM documents")


# --------------------------------------------------------- full KG chain

def q_kg_planted(sf_dir: str):
    """FLAGSHIP-chain oracle: planted sentences → the REAL kg pipeline
    (annotate → fused openie∪kbp extraction → cross-document alias map →
    native (subj, pred, obj) aggregate with Max-confidence /
    Sum-support / Min-example-url) — the canonicalization and dedup
    stages the per-doc planted oracles don't cover. Expected output per
    template (openie SVO at 1.0; the acquisition shape also fires the
    KBP rule bank: org:subsidiaries + org:parents at 0.9) is
    SQL-computable including support counts across the doc corpus."""
    from corenlp_ray.pipelines.kg import triples_to_kg

    kg = triples_to_kg(_planted_triples(sf_dir, _openie_text))
    return kg.drop_columns(["subj_bucket"])


def kg_planted_sql() -> str:
    d = ("WITH d AS (SELECT doc_id, CAST(doc_id % 4 AS INT) AS t, "
         f"list_extract({_sql_list(PERSONS)}, "
         "CAST(doc_id % 12 AS INT) + 1) AS p, "
         f"list_extract({_sql_list(TOPICS)}, "
         "CAST(doc_id % 5 AS INT) + 1) AS tp, "
         f"list_extract({_sql_list(ORGS)}, "
         "CAST(doc_id % 10 AS INT) + 1) AS o, "
         f"list_extract({_sql_list(ORGS)}, "
         "CAST((doc_id + 3) % 10 AS INT) + 1) AS o2 FROM documents), "
         # one row per emitted triple instance, then the same
         # (subj, pred, obj) aggregate build_kg runs
         "x AS ("
         "SELECT doc_id, "
         "CASE t WHEN 0 THEN 'cats' WHEN 1 THEN 'rabbits' "
         "WHEN 2 THEN p ELSE o END AS subj, "
         "CASE t WHEN 0 THEN 'have' WHEN 1 THEN 'eat' "
         "WHEN 2 THEN 'studies' ELSE 'acquired' END AS pred, "
         "CASE t WHEN 0 THEN 'tails' WHEN 1 THEN 'vegetables' "
         "WHEN 2 THEN tp ELSE o2 END AS obj, 1.0 AS conf FROM d "
         "UNION ALL SELECT doc_id, o, 'org:subsidiaries', o2, 0.9 "
         "FROM d WHERE t = 3 "
         "UNION ALL SELECT doc_id, o2, 'org:parents', o, 0.9 "
         "FROM d WHERE t = 3) ")
    return (d + "SELECT subj, pred, obj, MAX(conf) AS confidence, "
            "COUNT(*) AS support_count, "
            "MIN(CAST(doc_id AS VARCHAR)) AS example_url "
            "FROM x GROUP BY subj, pred, obj")


# --------------------------------------- multilingual segmenters + parse

# (text, lang, n_tokens): zh MaxMatch, ar clitic segmentation, es/fr MWT
# expansion (del→de el, du→de le, au→à le), en PTB — the token counts
# are template constants pinned by tests/test_planted_oracles.py.
SEGMENTER_PLANTED_TEMPLATES = [
    ("北京大学的学生在学习。", "zh", 7),
    ("ذهب الطالب إلى المكتبة.", "ar", 5),
    ("El estudiante habla del proyecto.", "es", 7),
    ("Je parle du projet au bureau.", "fr", 9),
    ("The quick brown fox jumps.", "en", 6),
]


def q_multilingual_planted(sf_dir: str):
    """Language-routed segmentation oracle: the REAL segment_text_batch
    stage (zh MaxMatch / ar clitics / es-fr MWT / PTB) over planted
    sentences; per-template token counts SQL-computable."""
    import pyarrow.compute as pc

    from corenlp_ray.stages.segmenter import segment_text_batch

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        texts, langs = [], []
        for i in ids:
            t, lg, _ = SEGMENTER_PLANTED_TEMPLATES[int(i) % 5]
            texts.append(t)
            langs.append(lg)
        return pa.Table.from_pydict(
            {"doc_id": ids, "text": texts, "lang": langs},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string()),
                              ("lang", pa.string())]))

    out = _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow") \
        .map_batches(segment_text_batch, batch_format="pyarrow")
    return out.map_batches(
        lambda b: pa.Table.from_pydict(
            {"doc_id": b.column("doc_id"),
             "lang": b.column("lang"),
             "n_tokens": pc.cast(b.column("n_tokens"), pa.int64())},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("lang", pa.string()),
                              ("n_tokens", pa.int64())])),
        batch_format="pyarrow")


def multilingual_planted_sql() -> str:
    langs = ", ".join("'" + t[1] + "'" for t in SEGMENTER_PLANTED_TEMPLATES)
    toks = ", ".join(str(t[2]) for t in SEGMENTER_PLANTED_TEMPLATES)
    return ("SELECT doc_id, "
            f"list_extract([{langs}], CAST(doc_id % 5 AS INT) + 1) AS lang, "
            f"CAST(list_extract([{toks}], CAST(doc_id % 5 AS INT) + 1) "
            "AS BIGINT) AS n_tokens FROM documents")


# dep→constituency projection bracketings for the two planted shapes;
# {F}/{L}/{C} are the person first/last token and the (single-token)
# city — pinned by tests/test_planted_oracles.py.
PARSE_PLANTED_TEMPLATES = [
    ("All rabbits eat vegetables.",
     "(ROOT (S (VP (NP (DT All) (NNS rabbits)) (VBP eat) "
     "(NNS vegetables) (. .))))"),
    (None,   # "{P} visited {C}."
     "(ROOT (S (VP (NP (NNP {F}) (NNP {L})) (VBD visited) "
     "(NNP {C}) (. .))))"),
]


def _parse_text(i: int) -> str:
    if i % 2 == 0:
        return PARSE_PLANTED_TEMPLATES[0][0]
    return "{} visited {}.".format(PERSONS[i % 12], CITIES[i % 10])


def q_parse_planted(sf_dir: str):
    """Constituency-projection oracle: planted sentences → tokenize→pos→
    depparse→parse_tree; the PTB bracketing string per doc is
    SQL-computable from the slot values."""
    from corenlp_ray.pipelines.kg import apply

    ann = apply(_planted_doc_texts(sf_dir, _parse_text), ("parse",))

    def project(b: pa.Table) -> pa.Table:
        trees = [t[0] if t else "" for t in
                 b.column("parse_tree").to_pylist()]
        return pa.Table.from_pydict(
            {"doc_id": b.column("doc_id"),
             "tree": pa.array(trees, type=pa.string())},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("tree", pa.string())]))

    return ann.map_batches(project, batch_format="pyarrow")


def parse_planted_sql() -> str:
    fixed = PARSE_PLANTED_TEMPLATES[0][1].replace("'", "''")
    shaped = PARSE_PLANTED_TEMPLATES[1][1] \
        .replace("{F}", "%s").replace("{L}", "%s").replace("{C}", "%s")
    return (
        "WITH d AS (SELECT doc_id, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS p, "
        f"list_extract({_sql_list(CITIES)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS c FROM documents) "
        "SELECT doc_id, CASE WHEN doc_id % 2 = 0 THEN "
        f"'{fixed}' ELSE printf('{shaped}', "
        "split_part(p, ' ', 1), split_part(p, ' ', 2), c) END AS tree "
        "FROM d")


# ----------------------------------------------- entity linking + gender

def _linking_text(i: int) -> str:
    return "{} works for {} in {}.".format(
        PERSONS[i % 12], ORGS[i % 10], CITIES[i % 10])


def q_linking_planted(sf_dir: str):
    """Entity-link + gender oracle: planted PERSON/ORG/LOCATION
    sentences → ner → curated-dict linking + first-name gender; all
    three mentions' (surface, ner, link, gender) SQL-computable.
    Link normalization and the name→gender table are pinned by
    tests/test_planted_oracles.py over the full slot cross-product."""
    from corenlp_ray.pipelines.kg import apply

    ann = apply(_planted_doc_texts(sf_dir, _linking_text),
                ("entitylink", "gender"))

    def explode(b: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "surface": [], "ner": [], "link": [],
                "gender": []}
        for r in range(b.num_rows):
            did = b.column("doc_id")[r].as_py()
            words = b.column("tok_word")[r].as_py()
            for mb, me, ty, lk, g in zip(
                    b.column("men_begin")[r].as_py(),
                    b.column("men_end")[r].as_py(),
                    b.column("men_ner")[r].as_py(),
                    b.column("men_link")[r].as_py(),
                    b.column("men_gender")[r].as_py()):
                rows["doc_id"].append(did)
                rows["surface"].append(" ".join(words[mb:me]))
                rows["ner"].append(ty)
                rows["link"].append(lk)
                rows["gender"].append(g)
        return pa.Table.from_pydict(rows, schema=pa.schema(
            [("doc_id", pa.int64()), ("surface", pa.string()),
             ("ner", pa.string()), ("link", pa.string()),
             ("gender", pa.string())]))

    return ann.map_batches(explode, batch_format="pyarrow")


def linking_planted_sql() -> str:
    # even person index → MALE, odd → FEMALE (the curated first-name
    # gender lexicon alternates over this slot list; pinned by test)
    return (
        "WITH d AS (SELECT doc_id, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS p, "
        f"list_extract({_sql_list(ORGS)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS o, "
        f"list_extract({_sql_list(CITIES)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS c FROM documents) "
        "SELECT doc_id, p AS surface, 'PERSON' AS ner, "
        "replace(p, ' ', '_') AS link, "
        "CASE WHEN doc_id % 12 % 2 = 0 THEN 'MALE' ELSE 'FEMALE' END "
        "AS gender FROM d "
        "UNION ALL SELECT doc_id, o, 'ORGANIZATION', "
        "replace(replace(o, '.', ''), ' ', '_'), 'UNKNOWN' FROM d "
        "UNION ALL SELECT doc_id, c, 'LOCATION', c, 'UNKNOWN' FROM d")


def _planted_doc_texts(sf_dir: str, text_fn):
    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids, "text": [text_fn(int(i)) for i in ids]},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string())]))

    return _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow")


# --------------------------------------------------------------- quotes

# (text template, quote-token template): the quote text is the
# TOKENIZED span inside the quotation marks; all three constructions
# exercise different attribution sieves (tri-CVQ, tri-QVC) and are
# pinned deterministic by tests/test_planted_oracles.py.
QUOTE_PLANTED_TEMPLATES = [
    ('{P} said, "{T} is essential."', "{T} is essential ."),
    ('"{T} is vital," said {P}.', "{T} is vital ,"),
    ('{P} added, "We value {T}."', "We value {T} ."),
]


def _quote_text(i: int) -> str:
    return QUOTE_PLANTED_TEMPLATES[i % 3][0].format(
        P=PERSONS[i % 12], T=TOPICS[i % 5])


def q_quotes_planted(sf_dir: str):
    """Full-chain quote oracle: planted speech sentences → tokenize→pos→
    ner→depparse→coref → char-level quote extraction → multi-sieve
    speaker attribution; (quote tokens, speaker) SQL-computable."""
    from corenlp_ray.pipelines.kg import apply

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids,
             "text": [_quote_text(int(i)) for i in ids]},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string())]))

    ann = apply(_docs_ids(sf_dir).map_batches(synth,
                                              batch_format="pyarrow"),
                ("quote",))

    def explode(b: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "quote": [], "speaker": []}
        for r in range(b.num_rows):
            did = b.column("doc_id")[r].as_py()
            for qt, qs in zip(b.column("quo_text")[r].as_py(),
                              b.column("quo_speaker")[r].as_py()):
                rows["doc_id"].append(did)
                rows["quote"].append(qt)
                rows["speaker"].append(qs)
        return pa.Table.from_pydict(rows, schema=pa.schema(
            [("doc_id", pa.int64()), ("quote", pa.string()),
             ("speaker", pa.string())]))

    return ann.map_batches(explode, batch_format="pyarrow")


def quotes_planted_sql() -> str:
    return (
        "WITH d AS (SELECT doc_id, CAST(doc_id % 3 AS INT) AS t, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS p, "
        f"list_extract({_sql_list(TOPICS)}, "
        "CAST(doc_id % 5 AS INT) + 1) AS tp FROM documents) "
        "SELECT doc_id, "
        "CASE t WHEN 0 THEN tp || ' is essential .' "
        "WHEN 1 THEN tp || ' is vital ,' "
        "ELSE 'We value ' || tp || ' .' END AS quote, "
        "p AS speaker FROM d")


# ------------------------------------------------------------ dedup chain

# Planted near-dup corpus for the hash-based dedup pipelines: documents
# in the same block of DEDUP_GROUP_SIZE consecutive doc_ids get
# IDENTICAL text built from group-unique synthetic tokens, so
#   * intra-group word-shingle Jaccard is exactly 1.0 (≥ any verify
#     threshold; every LSH band collides) and SimHash Hamming is 0,
#   * cross-group shingle sets are DISJOINT (Jaccard 0; band collisions
#     and Hamming ≤ 3 across groups don't occur for these fixed texts —
#     pinned by tests/test_planted_oracles.py),
# which makes the full distributed pipeline's (doc_id, cluster_id)
# output SQL-computable: cluster_id = MIN(doc_id) over the group.
# Group size 10 stays under the hot-bucket cap (_MAX_BUCKET = 64) at
# EVERY scale factor because groups are consecutive-id blocks, not
# modular classes.

DEDUP_GROUP_SIZE = 10


def _dedup_text(i: int) -> str:
    g = i // DEDUP_GROUP_SIZE
    return " ".join(f"w{g}x{j}" for j in range(20))


def _planted_dedup_docs(sf_dir: str):
    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids, "text": [_dedup_text(int(i)) for i in ids]},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string())]))

    return _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow")


def q_minhash_planted(sf_dir: str):
    """The REAL minhash_dedup pipeline (LSH → in-cluster verify →
    distributed connected components → label join) over the planted
    near-dup corpus; cluster assignment fully oracle-checked."""
    from corenlp_ray.ops.dedup import minhash_dedup

    return minhash_dedup(_planted_dedup_docs(sf_dir), threshold=0.8)


def q_simhash_planted(sf_dir: str):
    """The REAL simhash_dedup pipeline (block explode → bucket verify →
    distributed CC) over the same planted corpus; same oracle."""
    from corenlp_ray.ops.dedup import simhash_dedup

    return simhash_dedup(_planted_dedup_docs(sf_dir), max_hamming=3)


def dedup_planted_sql() -> str:
    return ("SELECT doc_id, MIN(doc_id) OVER "
            f"(PARTITION BY doc_id // {DEDUP_GROUP_SIZE}) AS cluster_id "
            "FROM documents")


def q_ngram_jaccard_planted(sf_dir: str):
    """The REAL ngram_jaccard_pairs operator (LSH candidates → two
    bucketed text joins → per-batch exact-Jaccard kernel) over the
    planted corpus: exactly the intra-group pairs at jaccard 1.0."""
    from corenlp_ray.ops.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_planted_dedup_docs(sf_dir))


def ngram_jaccard_planted_sql() -> str:
    g = DEDUP_GROUP_SIZE
    return ("SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "1.0 AS jaccard FROM documents a JOIN documents b "
            f"ON a.doc_id // {g} = b.doc_id // {g} "
            "AND a.doc_id < b.doc_id")


def openie_planted_sql() -> str:
    return (
        "WITH d AS (SELECT doc_id, CAST(doc_id % 4 AS INT) AS t, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS p, "
        f"list_extract({_sql_list(TOPICS)}, "
        "CAST(doc_id % 5 AS INT) + 1) AS tp, "
        f"list_extract({_sql_list(ORGS)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS o, "
        f"list_extract({_sql_list(ORGS)}, "
        "CAST((doc_id + 3) % 10 AS INT) + 1) AS o2 FROM documents) "
        "SELECT doc_id, "
        "CASE t WHEN 0 THEN 'cats' WHEN 1 THEN 'rabbits' "
        "WHEN 2 THEN p ELSE o END AS subj, "
        "CASE t WHEN 0 THEN 'have' WHEN 1 THEN 'eat' "
        "WHEN 2 THEN 'studies' ELSE 'acquired' END AS rel, "
        "CASE t WHEN 0 THEN 'tails' WHEN 1 THEN 'vegetables' "
        "WHEN 2 THEN tp ELSE o2 END AS obj FROM d")


# ----------------------------------------------------------- ACE relation

# (sentence format, relation, subj slot, obj slot) — the Roth/Yih
# CoNLL-2004 inventory the reference's `relation` annotator targets
# (pipeline/RelationExtractorAnnotator.java:30, domains/roth/
# RothCONLL04Reader.java). Every template × slot combination is pinned
# deterministic by tests/test_relation_stage.py's cross-product test.
RELATION_PLANTED_TEMPLATES = [
    ("{P} lives in {C}.", "Live_In", "P", "C"),
    ("{P} works for {O}.", "Work_For", "P", "O"),
    ("{O} is headquartered in {C}.", "OrgBased_In", "O", "C"),
    ("{C} is located in {C2}.", "Located_In", "C", "C2"),
    ("{P} killed {P2}.", "Kill", "P", "P2"),
]


def _relation_slots(i: int) -> dict:
    return {"P": PERSONS[i % 12], "P2": PERSONS[(i + 5) % 12],
            "O": ORGS[i % 10], "C": CITIES[i % 10],
            "C2": CITIES[(i + 4) % 10]}


def _relation_text(i: int) -> str:
    return RELATION_PLANTED_TEMPLATES[i % 5][0].format(**_relation_slots(i))


def q_relation_planted(sf_dir: str):
    """Full-chain ACE-relation oracle: planted Roth-style sentences →
    tokenize→pos→lemma→ner→depparse → RelationExtractor; the exact
    (subj, rel, obj) per document is SQL-computable from doc_id."""
    import pyarrow.compute as pc

    from corenlp_ray.pipelines.kg import extract, relation_stage

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"url": [str(i) for i in ids],
             "text": [_relation_text(i) for i in ids]},
            schema=pa.schema([("url", pa.string()),
                              ("text", pa.string())]))

    rels = extract(_docs_ids(sf_dir).map_batches(synth,
                                                 batch_format="pyarrow"),
                   relation_stage(),
                   ("tokenize", "pos", "lemma", "ner", "depparse"))

    def proj(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"doc_id": pc.cast(b.column("url"), pa.int64()),
             "subj": b.column("subj"),
             "rel": b.column("rel"),
             "obj": b.column("obj")},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("subj", pa.string()),
                              ("rel", pa.string()),
                              ("obj", pa.string())]))

    return rels.map_batches(proj, batch_format="pyarrow")


def relation_planted_sql() -> str:
    return (
        "WITH d AS (SELECT doc_id, CAST(doc_id % 5 AS INT) AS t, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST(doc_id % 12 AS INT) + 1) AS p, "
        f"list_extract({_sql_list(PERSONS)}, "
        "CAST((doc_id + 5) % 12 AS INT) + 1) AS p2, "
        f"list_extract({_sql_list(ORGS)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS o, "
        f"list_extract({_sql_list(CITIES)}, "
        "CAST(doc_id % 10 AS INT) + 1) AS c, "
        f"list_extract({_sql_list(CITIES)}, "
        "CAST((doc_id + 4) % 10 AS INT) + 1) AS c2 FROM documents) "
        "SELECT doc_id, "
        "CASE t WHEN 0 THEN p WHEN 1 THEN p WHEN 2 THEN o "
        "WHEN 3 THEN c ELSE p END AS subj, "
        "CASE t WHEN 0 THEN 'Live_In' WHEN 1 THEN 'Work_For' "
        "WHEN 2 THEN 'OrgBased_In' WHEN 3 THEN 'Located_In' "
        "ELSE 'Kill' END AS rel, "
        "CASE t WHEN 0 THEN c WHEN 1 THEN o WHEN 2 THEN c "
        "WHEN 3 THEN c2 ELSE p2 END AS obj FROM d")


def q_kg_degree_planted(sf_dir: str):
    """Graph-analytics step on the MATERIALIZED KG (north_rule "graph
    materialize"): per-subject out-degree (distinct predicates, total
    edges, summed support) over the same planted flagship-chain KG that
    kg_planted oracles — a groupby over the subject-bucketed triple
    store, the access pattern the hash(subj) partitioning exists for."""
    import pyarrow as pa  # noqa: F401  (schema below)

    from ray.data.aggregate import Count, Sum

    from corenlp_ray.pipelines.kg import triples_to_kg

    kg = triples_to_kg(_planted_triples(sf_dir, _openie_text))
    out = kg.groupby("subj").aggregate(
        Count(alias_name="out_degree"),
        Sum("support_count", alias_name="total_support"))

    def conform(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"subj": b.column("subj"),
             "out_degree": b.column("out_degree").cast(pa.int64()),
             "total_support": b.column("total_support").cast(pa.int64())},
            schema=pa.schema([("subj", pa.string()),
                              ("out_degree", pa.int64()),
                              ("total_support", pa.int64())]))

    return out.map_batches(conform, batch_format="pyarrow")


def kg_degree_planted_sql() -> str:
    inner = kg_planted_sql()
    return ("SELECT subj, COUNT(*) AS out_degree, "
            "CAST(SUM(support_count) AS BIGINT) AS total_support FROM (" + inner
            + ") GROUP BY subj")


# -------------------------------------------------------------------- pii

def _pii_text(i: int) -> str:
    """Deterministic PII-bearing sentence per doc: 1-2 emails, an
    optional phone, one IP, plus decoys the patterns must NOT hit
    (v1.2.3.4000 — last octet fails \\b; 'example dot com')."""
    parts = [f"Order {i} shipped.",
             f" Contact agent{i}@mail{i % 5}.example.com now."]
    if i % 3 == 0:
        parts.append(f" CC audit{i}@example.org too.")
    if i % 2 == 0:
        parts.append(" Call 555-{:03d}-{:04d} today.".format(
            100 + i % 900, 1000 + (7 * i) % 9000))
    parts.append(f" Logged from 192.168.{i % 256}.{(3 * i) % 254}.")
    parts.append(" Version v1.2.3.4000 untouched;"
                 " reach me at example dot com.")
    return "".join(parts)


def q_pii_planted(sf_dir: str):
    """PII detect/redact (ops/webfilters.pii_batch — pure Arrow-RE2
    kernels) over planted PII constructions; DuckDB's RE2 applies the
    SAME declared patterns to independently-synthesized text, so the
    oracle checks the regex semantics end to end, not just the
    construction arithmetic."""
    from corenlp_ray.ops.webfilters import pii_batch

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return pa.Table.from_pydict(
            {"doc_id": ids, "text": [_pii_text(i) for i in ids]},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string())]))

    return (_docs_ids(sf_dir)
            .map_batches(synth, batch_format="pyarrow")
            .map_batches(pii_batch, batch_format="pyarrow")
            .select_columns(["doc_id", "n_emails", "n_phones",
                             "n_ips", "redacted_len"]))


def pii_planted_sql() -> str:
    from corenlp_ray.ops.webfilters import PII_PATTERNS

    pats = {name: pat for name, pat, _ in PII_PATTERNS}
    red = "text"
    for name, pat, repl in PII_PATTERNS:
        red = f"regexp_replace({red}, '{pat}', '{repl}', 'g')"
    return (
        "WITH synth AS (SELECT doc_id, "
        "'Order ' || doc_id || ' shipped.' || "
        "' Contact agent' || doc_id || '@mail' || (doc_id % 5) || "
        "'.example.com now.' || "
        "CASE WHEN doc_id % 3 = 0 THEN ' CC audit' || doc_id || "
        "'@example.org too.' ELSE '' END || "
        "CASE WHEN doc_id % 2 = 0 THEN printf(' Call 555-%03d-%04d "
        "today.', 100 + doc_id % 900, 1000 + (7*doc_id) % 9000) "
        "ELSE '' END || "
        "' Logged from 192.168.' || (doc_id % 256) || '.' || "
        "((3*doc_id) % 254) || '.' || "
        "' Version v1.2.3.4000 untouched; reach me at example dot com.' "
        "AS text FROM documents) "
        "SELECT doc_id, "
        f"CAST(len(regexp_extract_all(text, '{pats['email']}')) AS "
        "BIGINT) AS n_emails, "
        f"CAST(len(regexp_extract_all(text, '{pats['phone']}')) AS "
        "BIGINT) AS n_phones, "
        f"CAST(len(regexp_extract_all(text, '{pats['ip']}')) AS BIGINT) "
        "AS n_ips, "
        f"CAST(length({red}) AS BIGINT) AS redacted_len FROM synth")


# ------------------------------------------------------------- url ops ----

# the planted URL construction: 4 ids per 20-block share a domain+path
# (i, i+5, i+10, i+15 → same group, all four messiness variants), so
# normalization collapses the three tracking/fragment variants onto the
# clean base while the ?id= variant stays distinct
_URL_DOMAINS = ["news.example.com", "blog.example.net", "wiki.example.org",
                "shop.example.io", "hot.example.org"]


def _planted_url(i: int) -> str:
    base = "https://{}/p/{}".format(_URL_DOMAINS[i % 5], (i // 20) % 1000)
    v = i % 4
    if v == 0:
        return base
    if v == 1:
        return base + "?utm_source=feed&utm_medium=rss"
    if v == 2:
        return base + "?id=" + str(i % 9) + "&utm_campaign=x#sec"
    return base + "#frag-" + str(i % 3)


_URL_SYNTH_SQL = (
    "SELECT doc_id, 'https://' || list_extract({doms}, (doc_id % 5) + 1) "
    "|| '/p/' || ((doc_id // 20) % 1000) || "
    "CASE doc_id % 4 WHEN 0 THEN '' "
    "WHEN 1 THEN '?utm_source=feed&utm_medium=rss' "
    "WHEN 2 THEN '?id=' || (doc_id % 9) || '&utm_campaign=x#sec' "
    "ELSE '#frag-' || (doc_id % 3) END AS url, n_chars FROM documents")


def _url_norm_sql(col: str) -> str:
    """The ops/urls normalization chain, spelled in DuckDB RE2 — the
    SAME pattern literals the Arrow kernels use."""
    from corenlp_ray.ops.urls import (
        DANGLING_PAT, FRAGMENT_PAT, PROMOTE_PAT, TRACKING_PAT)

    s = f"regexp_replace({col}, '{FRAGMENT_PAT}', '')"
    s = f"regexp_replace({s}, '{TRACKING_PAT}', '', 'g')"
    s = f"regexp_replace({s}, '{PROMOTE_PAT}', '\\1?')"
    return f"regexp_replace({s}, '{DANGLING_PAT}', '')"


def _url_synth_ds(sf_dir: str, with_chars: bool = False):
    import ray.data as rd

    cols = ["doc_id", "n_chars"] if with_chars else ["doc_id"]
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        return b.append_column(
            "url", pa.array([_planted_url(i) for i in ids],
                            type=pa.string()))

    return ds.map_batches(synth, batch_format="pyarrow")


def q_url_normalize_planted(sf_dir: str):
    """URL canonicalization (ops/urls.normalize_urls — pure Arrow-RE2);
    DuckDB applies the same pattern chain to the independently
    synthesized URLs, pinning the regex semantics end to end."""
    from corenlp_ray.ops.urls import url_normalize_batch

    return (_url_synth_ds(sf_dir)
            .map_batches(url_normalize_batch, batch_format="pyarrow")
            .select_columns(["doc_id", "url", "url_norm"]))


def url_normalize_planted_sql() -> str:
    synth = _URL_SYNTH_SQL.format(doms=_sql_list(_URL_DOMAINS))
    return (f"WITH synth AS ({synth}) "
            f"SELECT doc_id, url, {_url_norm_sql('url')} AS url_norm "
            "FROM synth")


def q_url_dedup_planted(sf_dir: str):
    """URL-level exact dedup (ops/urls.url_dedup): one row per
    normalized URL with canonical (min) doc_id and duplicate count."""
    from corenlp_ray.ops.urls import url_dedup

    return url_dedup(_url_synth_ds(sf_dir))


def url_dedup_planted_sql() -> str:
    synth = _URL_SYNTH_SQL.format(doms=_sql_list(_URL_DOMAINS))
    return (f"WITH synth AS ({synth}) "
            f"SELECT {_url_norm_sql('url')} AS url_norm, "
            "MIN(doc_id) AS canonical_doc_id, "
            "COUNT(*) AS dup_count FROM synth GROUP BY 1")


def q_domain_stats_planted(sf_dir: str):
    """Per-domain corpus share (ops/urls.domain_stats): page count +
    total chars per registered host — the crawl-mix / hot-domain-skew
    input table."""
    from corenlp_ray.ops.urls import domain_stats

    return domain_stats(_url_synth_ds(sf_dir, with_chars=True))


def domain_stats_planted_sql() -> str:
    from corenlp_ray.ops.urls import DOMAIN_PAT

    synth = _URL_SYNTH_SQL.format(doms=_sql_list(_URL_DOMAINS))
    # DuckDB regexp_extract group 1 == the Arrow kernel's named group
    pat = DOMAIN_PAT.replace("(?P<host>", "(")
    return (f"WITH synth AS ({synth}), d AS ("
            f"SELECT regexp_replace(regexp_extract(url, '{pat}', 1), "
            "'^www\\.', '') AS domain, n_chars FROM synth) "
            "SELECT domain, COUNT(*) AS n_pages, "
            "CAST(SUM(n_chars) AS BIGINT) AS total_chars FROM d GROUP BY 1")


# --------------------------------------------- sampling / packing ops ----

def q_packing_planted(sf_dir: str):
    """GPT-style sequence-packing plan (ops/packing.pack_sequences):
    documents concatenated in doc_id order, cut every 128 tokens; each
    row assigns a within-doc token span to a training sequence. The
    oracle re-derives the plan with a window cumsum + generate_series,
    pinning the distributed prefix-sum (group offsets + per-group
    cumsum) exactly."""
    import ray.data as rd

    from corenlp_ray.ops.packing import pack_sequences

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return pack_sequences(docs, seq_len=128, group_size=64)


def packing_planted_sql() -> str:
    return (
        "WITH t AS (SELECT doc_id, CASE WHEN trim(text)='' THEN 0 "
        "ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n "
        "FROM documents), "
        "c AS (SELECT doc_id, n, CAST(COALESCE(SUM(n) OVER ("
        "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
        "1 PRECEDING), 0) AS BIGINT) AS off FROM t), "
        "u AS (SELECT doc_id, off, n, unnest(generate_series("
        "off // 128, (off + n - 1) // 128)) AS seq_id "
        "FROM c WHERE n > 0) "
        "SELECT doc_id, seq_id, "
        "GREATEST(seq_id * 128, off) - off AS tok_start, "
        "LEAST((seq_id + 1) * 128, off + n) - off AS tok_end FROM u")


_SAMPLE_RATE, _SAMPLE_SEED = 0.35, 7


def q_hash_sample_planted(sf_dir: str):
    """Deterministic Bernoulli corpus sample (ops/sampling.hash_sample):
    keep a doc iff mix32(doc_id, seed) < rate * 2^32. The oracle
    evaluates the IDENTICAL mix in HUGEINT arithmetic, so the driver
    pins the hash semantics bit-for-bit."""
    import ray.data as rd

    from corenlp_ray.ops.sampling import hash_sample

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    return hash_sample(docs, _SAMPLE_RATE, seed=_SAMPLE_SEED)


def hash_sample_planted_sql() -> str:
    from corenlp_ray.ops.sampling import mix32_sql

    thr = int(_SAMPLE_RATE * float(1 << 32))
    return (f"SELECT doc_id, n_chars FROM documents "
            f"WHERE {mix32_sql('doc_id', _SAMPLE_SEED)} < {thr}")


_QUOTAS = {"hot.example.org": 0.2, "news.example.com": 0.6}
_QUOTA_DEFAULT, _QUOTA_SEED = 0.9, 3


def q_domain_quota_planted(sf_dir: str):
    """Crawl-mix enforcement (ops/sampling.domain_quota_sample): the
    planted hot domain is capped at 20%, the news domain at 60%, the
    rest kept at 90% — all decisions pure functions of doc_id."""
    from corenlp_ray.ops.sampling import domain_quota_sample
    from corenlp_ray.ops.urls import domain_batch

    ds = _url_synth_ds(sf_dir).map_batches(domain_batch,
                                           batch_format="pyarrow")
    return (domain_quota_sample(ds, _QUOTAS, default_rate=_QUOTA_DEFAULT,
                                seed=_QUOTA_SEED)
            .select_columns(["doc_id", "domain"]))


def domain_quota_planted_sql() -> str:
    from corenlp_ray.ops.sampling import mix32_sql
    from corenlp_ray.ops.urls import DOMAIN_PAT

    synth = _URL_SYNTH_SQL.format(doms=_sql_list(_URL_DOMAINS))
    pat = DOMAIN_PAT.replace("(?P<host>", "(")
    cases = " ".join(
        f"WHEN '{d}' THEN {int(r * float(1 << 32))}"
        for d, r in sorted(_QUOTAS.items()))
    thr = f"CASE domain {cases} ELSE {int(_QUOTA_DEFAULT * float(1 << 32))} END"
    return (f"WITH synth AS ({synth}), d AS ("
            f"SELECT doc_id, regexp_replace(regexp_extract(url, '{pat}', 1), "
            "'^www\\.', '') AS domain FROM synth) "
            f"SELECT doc_id, domain FROM d "
            f"WHERE {mix32_sql('doc_id', _QUOTA_SEED)} < {thr}")


# ---------------------------------------------------------- graph ops ----

def q_pagerank_planted(sf_dir: str):
    """PageRank over the planted flagship KG (ops/graph.pagerank):
    3 damped iterations of the edge-partitioned formulation — per
    round, one co-partitioned rank ⋈ edges join and one native
    dst-aggregate. The oracle unrolls the identical 3 iterations as
    correlated-subquery CTEs over the SAME SQL-derived KG, so the
    driver pins the iterative semantics (dangling-mass leak included)
    to 6 decimals."""
    import pyarrow as pa  # noqa: F401
    import pyarrow.compute as pc

    from corenlp_ray.ops.graph import pagerank
    from corenlp_ray.pipelines.kg import triples_to_kg

    kg = triples_to_kg(_planted_triples(sf_dir, _openie_text))
    out = pagerank(kg, iterations=3, damping=0.85,
                   src_col="subj", dst_col="obj")

    def _round(b: pa.Table) -> pa.Table:
        return b.set_column(b.column_names.index("rank"), "rank",
                            pc.round(b.column("rank"), ndigits=6))

    return out.map_batches(_round, batch_format="pyarrow")


def pagerank_planted_sql() -> str:
    inner = kg_planted_sql()
    # one grouped join per iteration — the correlated-scalar-subquery
    # form re-ran the whole e⋈d⋈prev join per node (244 s at sf0.01,
    # a driver-timeout hazard); this computes the same per-dst sums
    # once (4 s at sf0.01, value-identical to 6 decimals)
    it = ("SELECT v.node, 0.15/(SELECT n FROM nn) + "
          "0.85*COALESCE(c.contrib, 0) AS r FROM v LEFT JOIN ("
          "SELECT e.dst AS node, SUM({prev}.r / d.outdeg) AS contrib "
          "FROM e JOIN d ON d.src = e.src "
          "JOIN {prev} ON {prev}.node = e.src "
          "GROUP BY e.dst) c ON c.node = v.node")
    return (
        f"WITH kg AS ({inner}), "
        "e AS (SELECT DISTINCT subj AS src, obj AS dst FROM kg), "
        "v AS (SELECT src AS node FROM e UNION SELECT dst FROM e), "
        "nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM v), "
        "d AS (SELECT src, COUNT(*) AS outdeg FROM e GROUP BY src), "
        "r0 AS (SELECT node, 1.0/(SELECT n FROM nn) AS r FROM v), "
        f"r1 AS ({it.format(prev='r0')}), "
        f"r2 AS ({it.format(prev='r1')}), "
        f"r3 AS ({it.format(prev='r2')}) "
        "SELECT node, round(r, 6) AS rank FROM r3")


def q_khop_planted(sf_dir: str):
    """Bounded transitive closure over the planted flagship KG
    (ops/graph.khop_reachability, k=3): level-synchronous BFS —
    per round one bucketed mid-vertex join, a distinct-pair collapse,
    and an anti join against the reached set, so each pair carries its
    true shortest hop count. The oracle's path-enumerating recursive
    CTE + MIN(hops) rollup pins that first-discovery == shortest."""
    from corenlp_ray.ops.graph import khop_reachability
    from corenlp_ray.pipelines.kg import triples_to_kg

    kg = triples_to_kg(_planted_triples(sf_dir, _openie_text))
    return khop_reachability(kg, k=3, src_col="subj", dst_col="obj")


def khop_planted_sql() -> str:
    inner = kg_planted_sql()
    return (
        f"WITH RECURSIVE kg AS ({inner}), "
        "e AS (SELECT DISTINCT subj AS src, obj AS dst FROM kg), "
        "r AS (SELECT src, dst, 1 AS hops FROM e "
        "UNION ALL SELECT r.src, e.dst, r.hops + 1 FROM r "
        "JOIN e ON e.src = r.dst WHERE r.hops < 3) "
        "SELECT src, dst, CAST(MIN(hops) AS BIGINT) AS hops "
        "FROM r GROUP BY src, dst")


def q_cooccurrence_planted(sf_dir: str):
    """Entity co-occurrence edges (ops/graph.cooccurrence_edges) over
    the REAL tokenize→pos→ner mention chain on the planted sentences:
    distinct (doc, entity) thin rows → one bucketed self-join
    co-partitioned on doc → ordered-pair count. The oracle re-derives
    the mention set analytically and self-joins in SQL, so the counts
    pin both the NER chain and the pair semantics (the CRT-style
    overlap of the %12 person / %10 city / %28 day cycles makes the
    per-pair counts non-uniform — a constant-count bug cannot pass)."""
    from corenlp_ray.ops.graph import cooccurrence_edges

    return cooccurrence_edges(q_entity_mentions_planted(sf_dir),
                              doc_col="doc_id", ent_col="surface")


def cooccurrence_planted_sql() -> str:
    inner = entity_mentions_planted_sql()
    return (
        f"WITH m AS ({inner}), "
        "e AS (SELECT DISTINCT doc_id, surface FROM m) "
        "SELECT a.surface AS ent_a, b.surface AS ent_b, "
        "count(*) AS n_docs FROM e a "
        "JOIN e b ON a.doc_id = b.doc_id AND a.surface < b.surface "
        "GROUP BY 1, 2")


def q_repeated_spans_planted(sf_dir: str):
    """Substring-level dedup (ops/dedup.repeated_ngram_spans): maximal
    token spans covered by 8-shingles occurring ≥2 times corpus-wide
    (Lee et al. 2022 shape). One shingle-key all-to-all + per-doc
    gaps-and-islands merge; the oracle re-derives it with
    generate_series + window islands over the raw documents table."""
    import ray.data as rd

    from corenlp_ray.ops.dedup import repeated_ngram_spans

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return repeated_ngram_spans(docs, k=8)


def repeated_spans_planted_sql() -> str:
    return (
        "WITH t AS (SELECT doc_id, "
        "regexp_split_to_array(trim(text), '\\s+') AS toks "
        "FROM documents WHERE trim(text) <> ''), "
        "g AS (SELECT doc_id, unnest(generate_series(1, "
        "len(toks) - 8 + 1)) AS pos, toks FROM t WHERE len(toks) >= 8), "
        "s AS (SELECT doc_id, pos, "
        "array_to_string(toks[pos:pos+7], ' ') AS sh FROM g), "
        "dup AS (SELECT sh FROM s GROUP BY sh HAVING COUNT(*) >= 2), "
        "p AS (SELECT doc_id, pos FROM s JOIN dup USING (sh)), "
        "i AS (SELECT doc_id, pos, pos - ROW_NUMBER() OVER ("
        "PARTITION BY doc_id ORDER BY pos) AS grp FROM p) "
        "SELECT doc_id, MIN(pos) - 1 AS tok_start, "
        "MAX(pos) - 1 + 8 AS tok_end FROM i GROUP BY doc_id, grp")


def q_lm_perplexity_planted(sf_dir: str):
    """CCNet-style LM quality scoring (ops/lm.lm_perplexity): train an
    add-one-smoothed bigram LM on the corpus (one two-phase gram
    aggregate), broadcast the count table, score every doc to mean
    bits/token. The oracle re-derives counts AND scores from the raw
    documents table, so the driver pins tokenizer, smoothing and the
    per-doc mean to 6 decimals."""
    import ray.data as rd

    from corenlp_ray.ops.lm import lm_perplexity

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return lm_perplexity(docs)


def lm_perplexity_planted_sql() -> str:
    return (
        "WITH t AS (SELECT doc_id, "
        "regexp_split_to_array(trim(text), '\\s+') AS toks "
        "FROM documents WHERE trim(text) <> ''), "
        "e AS (SELECT doc_id, unnest(generate_series(1, len(toks))) "
        "AS pos, toks FROM t), "
        "w AS (SELECT doc_id, pos, toks[pos] AS tok, "
        "CASE WHEN pos > 1 THEN toks[pos - 1] END AS prev FROM e), "
        "uc AS (SELECT tok AS w, CAST(COUNT(*) AS DOUBLE) AS c "
        "FROM w GROUP BY tok), "
        "nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM w), "
        "vv AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM uc), "
        "bc AS (SELECT prev AS w1, tok AS w2, "
        "CAST(COUNT(*) AS DOUBLE) AS c FROM w "
        "WHERE prev IS NOT NULL GROUP BY prev, tok), "
        "s AS (SELECT w.doc_id, CASE WHEN w.prev IS NULL THEN "
        "log2((SELECT n FROM nn) + (SELECT v FROM vv)) - log2(u1.c + 1) "
        "ELSE log2(up.c + (SELECT v FROM vv)) - log2(COALESCE(b.c, 0) + 1) "
        "END AS nll FROM w "
        "LEFT JOIN uc u1 ON u1.w = w.tok "
        "LEFT JOIN uc up ON up.w = w.prev "
        "LEFT JOIN bc b ON b.w1 = w.prev AND b.w2 = w.tok) "
        "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens, "
        "round(AVG(nll), 6) AS lm_bits FROM s GROUP BY doc_id")


def q_kmeans_planted(sf_dir: str):
    """Distributed k-means oracle (ops/clustering.kmeans): the REAL
    Lloyd's pipeline (min-id init, 2 broadcast-assign/partial-reduce
    rounds, final assignment pass) over the planted cluster geometry —
    8 well-separated one-hot clusters with a small jitter dim, so the
    converged assignment is analytically doc_id % 8 (cross-cluster
    distance ~2 vs within-cluster jitter ~1e-3; no argmin ties)."""
    from corenlp_ray.ops.clustering import kmeans_assignments

    def synth(b: pa.Table) -> pa.Table:
        ids = [int(i) for i in b.column("doc_id").to_pylist()]
        return pa.Table.from_pydict(
            {"vec_id": ids, "embedding": [_planted_vec(i) for i in ids]},
            schema=pa.schema([("vec_id", pa.int64()),
                              ("embedding", pa.list_(pa.float64()))]))

    embeds = _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow")
    return kmeans_assignments(embeds, k=8, iterations=2)


def kmeans_planted_sql() -> str:
    return ("SELECT doc_id AS vec_id, doc_id % 8 AS cluster "
            "FROM documents")


def q_semantic_dedup_planted(sf_dir: str):
    """SemDeDup oracle (ops/clustering.semantic_dedup): the REAL
    pipeline — k-means fence, within-cluster cosine matmul, distributed
    connected components, label join-back — over the planted geometry.
    Every member of a planted cluster has pairwise cosine ≥ 0.999998,
    far above the 0.99 threshold, so each residue class collapses to
    one dup group whose representative is its minimum id = doc_id % 8
    (the analytic oracle)."""
    from corenlp_ray.ops.clustering import semantic_dedup

    def synth(b: pa.Table) -> pa.Table:
        ids = [int(i) for i in b.column("doc_id").to_pylist()]
        return pa.Table.from_pydict(
            {"vec_id": ids, "embedding": [_planted_vec(i) for i in ids]},
            schema=pa.schema([("vec_id", pa.int64()),
                              ("embedding", pa.list_(pa.float64()))]))

    embeds = _docs_ids(sf_dir).map_batches(synth, batch_format="pyarrow")
    return semantic_dedup(embeds, k=8, threshold=0.99, iterations=2)


def semantic_dedup_planted_sql() -> str:
    return ("SELECT doc_id AS vec_id, doc_id % 8 AS dup_group "
            "FROM documents")


def q_dsir_planted(sf_dir: str):
    """DSIR importance weights (ops/lm.dsir_logratio): target corpus =
    the English pages, raw = everything; each raw doc scored by the
    mean per-token log2-likelihood ratio between the two add-one
    unigram LMs. The oracle re-derives both count tables and every
    weight from the raw documents table."""
    import ray.data as rd

    from corenlp_ray.ops.lm import dsir_logratio

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    raw = docs.select_columns(["doc_id", "text"])
    target = (docs.filter(expr="lang == 'en'")
              .select_columns(["doc_id", "text"]))
    return dsir_logratio(raw, target)


def dsir_planted_sql() -> str:
    return (
        "WITH t AS (SELECT doc_id, lang, "
        "regexp_split_to_array(trim(text), '\\s+') AS toks "
        "FROM documents WHERE trim(text) <> ''), "
        "w AS (SELECT doc_id, lang, unnest(toks) AS tok FROM t), "
        "tc AS (SELECT tok, CAST(COUNT(*) AS DOUBLE) AS c FROM w "
        "WHERE lang = 'en' GROUP BY tok), "
        "rc AS (SELECT tok, CAST(COUNT(*) AS DOUBLE) AS c FROM w "
        "GROUP BY tok), "
        "nt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM w "
        "WHERE lang = 'en'), "
        "vt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM tc), "
        "nr AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM w), "
        "vr AS (SELECT CAST(COUNT(*) AS DOUBLE) AS v FROM rc), "
        "s AS (SELECT w.doc_id, "
        "(log2(COALESCE(tc.c, 0) + 1) - "
        "log2((SELECT n FROM nt) + (SELECT v FROM vt))) - "
        "(log2(rc.c + 1) - "
        "log2((SELECT n FROM nr) + (SELECT v FROM vr))) AS bits "
        "FROM w LEFT JOIN tc ON tc.tok = w.tok "
        "LEFT JOIN rc ON rc.tok = w.tok) "
        "SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens, "
        "round(AVG(bits), 6) AS dsir_bits FROM s GROUP BY doc_id")


_SHUF_PACK_SEED = 11


def q_packing_shuffled_planted(sf_dir: str):
    """Shuffled packing plan (ops/packing.pack_sequences_shuffled):
    docs concatenated in (mix32(doc_id, seed), doc_id) order — the
    deterministic shuffle-before-packing recipe. The oracle re-derives
    the plan with the IDENTICAL HUGEINT hash + window cumsum, so the
    driver pins shuffle order, prefix sums and span cuts together."""
    import ray.data as rd

    from corenlp_ray.ops.packing import pack_sequences_shuffled

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return pack_sequences_shuffled(docs, seq_len=128,
                                   seed=_SHUF_PACK_SEED)


def packing_shuffled_planted_sql() -> str:
    from corenlp_ray.ops.sampling import mix32_sql

    h = mix32_sql("doc_id", _SHUF_PACK_SEED)
    return (
        "WITH t AS (SELECT doc_id, CASE WHEN trim(text)='' THEN 0 "
        "ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS n, "
        f"{h} AS key FROM documents), "
        "c AS (SELECT doc_id, n, CAST(COALESCE(SUM(n) OVER ("
        "ORDER BY key, doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
        "1 PRECEDING), 0) AS BIGINT) AS off FROM t), "
        "u AS (SELECT doc_id, off, n, unnest(generate_series("
        "off // 128, (off + n - 1) // 128)) AS seq_id "
        "FROM c WHERE n > 0) "
        "SELECT doc_id, seq_id, "
        "GREATEST(seq_id * 128, off) - off AS tok_start, "
        "LEAST((seq_id + 1) * 128, off + n) - off AS tok_end FROM u")


def q_tfidf_planted(sf_dir: str):
    """TF-IDF keyword extraction (ops/tfidf.tfidf_top_terms): per-doc
    top-5 terms by tf * log2((N+1)/(df+1)), rank ties broken term-asc.
    The oracle re-derives tf, df, N, scores, and the windowed rank from
    the raw documents table."""
    import ray.data as rd

    from corenlp_ray.ops.tfidf import tfidf_top_terms

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return tfidf_top_terms(docs, k=5)


def tfidf_planted_sql() -> str:
    return (
        "WITH t AS (SELECT doc_id, "
        "regexp_split_to_array(trim(text), '\\s+') AS toks "
        "FROM documents WHERE trim(text) <> ''), "
        "w AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
        "tf AS (SELECT doc_id, tok, CAST(COUNT(*) AS DOUBLE) AS tf "
        "FROM w GROUP BY doc_id, tok), "
        "df AS (SELECT tok, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) "
        "AS df FROM w GROUP BY tok), "
        "nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM t), "
        "s AS (SELECT tf.doc_id, tf.tok, tf.tf * "
        "log2(((SELECT n FROM nn) + 1) / (df.df + 1)) AS score "
        "FROM tf JOIN df USING (tok)), "
        "r AS (SELECT doc_id, tok, score, ROW_NUMBER() OVER ("
        "PARTITION BY doc_id ORDER BY score DESC, tok ASC) AS rank "
        "FROM s) "
        "SELECT doc_id, tok AS term, round(score, 6) AS score, "
        "CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 5")


_SPLITS = {"train": 0.9, "valid": 0.05, "test": 0.05}
_SPLIT_SEED = 19


def q_hash_split_planted(sf_dir: str):
    """Deterministic train/valid/test split (ops/sampling.hash_split):
    split = mix32(doc_id, seed) bucketed by cumulative integer
    thresholds. The oracle evaluates the IDENTICAL HUGEINT hash and
    thresholds, pinning the assignment bit-for-bit."""
    import ray.data as rd

    from corenlp_ray.ops.sampling import hash_split

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    return hash_split(docs, _SPLITS, seed=_SPLIT_SEED)


def hash_split_planted_sql() -> str:
    from corenlp_ray.ops.sampling import mix32_sql, split_thresholds

    h = mix32_sql("doc_id", _SPLIT_SEED)
    ths = split_thresholds(_SPLITS)
    cases = " ".join(f"WHEN {h} < {t} THEN '{n}'"
                     for n, t in ths[:-1])
    return (f"SELECT doc_id, lang, CASE {cases} "
            f"ELSE '{ths[-1][0]}' END AS split FROM documents")


_QUALITY_K = 16  # the word-salad corpus has ~31 unique tokens; k=16
# keeps the OOV path non-trivial at every sf (production default is 512)


def q_quality_classifier_planted(sf_dir: str):
    """Classifier-based quality filtering (ops/quality_model.py): top-k
    corpus vocab (count DESC, token ASC) with mix32(rank) integer
    thousandth weights, broadcast once, scored per batch. Integer
    quality_units + one float division make the oracle bit-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from corenlp_ray.ops.quality_model import classify_quality

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def _cast_keep(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("keep")
        return b.set_column(i, "keep", pc.cast(b.column("keep"),
                                               pa.int64()))

    return (classify_quality(docs, k=_QUALITY_K)
            .select_columns(["doc_id", "n_tokens", "n_oov",
                             "quality_units", "quality_score", "keep"])
            .map_batches(_cast_keep, batch_format="pyarrow"))


def quality_classifier_planted_sql() -> str:
    from corenlp_ray.ops.quality_model import (OOV_UNITS, WEIGHT_SEED,
                                               _UNITS)
    from corenlp_ray.ops.sampling import mix32_sql

    h = mix32_sql("rank", WEIGHT_SEED)
    span = 2 * _UNITS + 1
    return (
        "WITH toks AS (SELECT doc_id, unnest(list_filter("
        "regexp_split_to_array(lower(text), '[^a-z]+'), "
        "x -> x != '')) AS tok FROM documents), "
        "cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok), "
        "ranked AS (SELECT tok, row_number() OVER "
        "(ORDER BY c DESC, tok) AS rank FROM cnt), "
        f"vocab AS (SELECT tok, ({h}) % {span} - {_UNITS} AS w "
        f"FROM ranked WHERE rank <= {_QUALITY_K}), "
        "sc AS (SELECT t.doc_id, count(*) AS n_tokens, "
        "count(*) - count(v.w) AS n_oov, "
        f"CAST(sum(COALESCE(v.w, {OOV_UNITS})) AS BIGINT) "
        "AS quality_units "
        "FROM toks t LEFT JOIN vocab v ON t.tok = v.tok "
        "GROUP BY t.doc_id) "
        "SELECT d.doc_id, "
        "CAST(COALESCE(sc.n_tokens, 0) AS BIGINT) AS n_tokens, "
        "CAST(COALESCE(sc.n_oov, 0) AS BIGINT) AS n_oov, "
        "COALESCE(sc.quality_units, 0) AS quality_units, "
        "CASE WHEN sc.n_tokens > 0 THEN sc.quality_units / "
        f"({_UNITS}.0 * sc.n_tokens) ELSE 0.0 END AS quality_score, "
        "CAST(COALESCE(sc.quality_units, 0) > 0 AS BIGINT) AS keep "
        "FROM documents d LEFT JOIN sc ON d.doc_id = sc.doc_id")


def q_perplexity_buckets_planted(sf_dir: str):
    """CCNet head/middle/tail perplexity buckets (ops/lm.
    perplexity_buckets): the real bigram-LM scorer feeds an exact
    distributed ntile(3) over (lm_bits, doc_id) — sort of the thin
    score table for the two boundary rows, then a broadcast compare.
    The oracle is the same score SQL wrapped in ``ntile(3) OVER
    (ORDER BY lm_bits, doc_id)``; lm_bits rounds to 6 decimals on both
    sides, so the rank order is bit-identical."""
    import ray.data as rd

    from corenlp_ray.ops.lm import lm_perplexity, perplexity_buckets

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return perplexity_buckets(lm_perplexity(docs))


def perplexity_buckets_planted_sql() -> str:
    return (
        f"WITH base AS ({lm_perplexity_planted_sql()}) "
        "SELECT doc_id, n_tokens, lm_bits, "
        "CASE ntile(3) OVER (ORDER BY lm_bits, doc_id) "
        "WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END "
        "AS bucket FROM base")


def _weblines_text(doc_id: int, text: str) -> str:
    """Python twin of _sqlfrags.weblines_ctes: deterministic multi-line
    webtext from a doc's whitespace tokens (stopword-led 5-token lines,
    bullet/javascript/period/ellipsis decorations, 3-line paragraphs,
    '{ code }' trailer for doc_id % 13 == 0)."""
    import re as _re

    from corenlp_ray.pipelines._sqlfrags import GOPHER_STOPS

    toks = [x for x in _re.split(r"\s+", text.strip()) if x]
    lines = []
    for k in range(1, (len(toks) + 4) // 5 + 1):
        rest = " ".join(toks[5 * k - 4:5 * k])
        base = GOPHER_STOPS[k % 8] + ((" " + rest) if rest else "")
        lines.append(("- " if k % 6 == 0 else "") + base
                     + (" javascript" if k % 12 == 0 else "")
                     + ("." if k % 4 != 0 else "")
                     + (" ..." if k % 9 == 0 else ""))
    body = "\n\n".join("\n".join(lines[p * 3:p * 3 + 3])
                       for p in range((len(lines) + 2) // 3))
    return body + ("\n{ code }" if doc_id % 13 == 0 else "")


def _webdocs(sf_dir: str):
    """documents → synthesized multi-line webtext Dataset (doc_id, text)."""
    import ray.data as rd

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        txt = b.column("text").to_pylist()
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([_weblines_text(int(i), t or "")
                              for i, t in zip(ids, txt)], pa.string())})

    return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(synth, batch_format="pyarrow"))


def q_c4_planted(sf_dir: str):
    """C4 cleaning over the weblines construction: periods, javascript
    lines, bullets, short lines and '{ code }' pages all occur, so
    n_lines_kept/page_keep vary per doc and the REAL c4_clean_batch is
    pinned non-trivially (the raw-corpus c4_clean oracle is all-zero on
    word salad)."""
    import pyarrow.compute as pc

    from corenlp_ray.ops.webfilters import c4_clean_batch

    def cast(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("page_keep")
        return b.set_column(i, "page_keep",
                            pc.cast(b.column("page_keep"), pa.int64()))

    return (_webdocs(sf_dir)
            .map_batches(c4_clean_batch, batch_format="pyarrow")
            .select_columns(["doc_id", "n_lines_kept", "page_keep"])
            .map_batches(cast, batch_format="pyarrow"))


def c4_planted_sql() -> str:
    from corenlp_ray.pipelines._sqlfrags import c4_clean_sql, weblines_ctes

    inner = c4_clean_sql("webdocs")
    assert inner.startswith("WITH ")
    return f"WITH {weblines_ctes('documents')}, {inner[len('WITH '):]}"


def q_gopher_planted(sf_dir: str):
    """Gopher gates over the weblines construction: stopwords cycle in,
    bullet/ellipsis fractions and symbol counts vary, so every gate can
    flip and gopher_keep is non-trivial per doc."""
    import pyarrow.compute as pc

    from corenlp_ray.ops.webfilters import gopher_rules_batch

    def cast(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("gopher_keep")
        return b.set_column(i, "gopher_keep",
                            pc.cast(b.column("gopher_keep"), pa.int64()))

    return (_webdocs(sf_dir)
            .map_batches(gopher_rules_batch, batch_format="pyarrow")
            .select_columns(["doc_id", "n_words", "n_lines", "n_symbols",
                             "n_bullet_lines", "n_ellipsis_lines",
                             "n_alpha_words", "n_stop_hits",
                             "gopher_keep"])
            .map_batches(cast, batch_format="pyarrow"))


def gopher_planted_sql() -> str:
    from corenlp_ray.pipelines._sqlfrags import (gopher_rules_sql,
                                                 weblines_ctes)

    inner = gopher_rules_sql("webdocs")
    assert inner.startswith("WITH ")
    return f"WITH {weblines_ctes('documents')}, {inner[len('WITH '):]}"


# constant boilerplate paragraph shared by EVERY page — the classic
# cross-document duplicate that paragraph-level dedup exists to remove
_SHARED_HEADER = ("the shared boilerplate header repeats across pages.\n"
                  "be advised this paragraph is identical everywhere.\n"
                  "to be removed by paragraph dedup.")


def q_paragraph_dedup_planted(sf_dir: str):
    """Paragraph-level corpus dedup (ops/dedup.paragraph_dedup) over the
    weblines construction with a constant boilerplate header paragraph
    prepended to every page: the header survives only on the minimum
    doc_id; organic cross-page paragraph collisions (the 31-token salad
    vocabulary makes some 3-line paragraphs coincide) dedup too. The
    oracle re-derives winners with row_number() OVER (PARTITION BY
    paragraph ORDER BY doc_id, para_idx)."""
    from corenlp_ray.ops.dedup import paragraph_dedup

    def add_header(b: pa.Table) -> pa.Table:
        txt = [(_SHARED_HEADER + "\n\n" + t) for t in
               b.column("text").to_pylist()]
        return b.set_column(b.schema.get_field_index("text"), "text",
                            pa.array(txt, pa.string()))

    return paragraph_dedup(
        _webdocs(sf_dir).map_batches(add_header, batch_format="pyarrow"))


def paragraph_dedup_planted_sql() -> str:
    from corenlp_ray.pipelines._sqlfrags import weblines_ctes

    header_sql = _SHARED_HEADER.replace("\n", "' || chr(10) || '")
    return (
        f"WITH {weblines_ctes('documents')}, "
        f"pages AS (SELECT doc_id, '{header_sql}' || chr(10) || chr(10) "
        "|| text AS text FROM webdocs), "
        "split AS (SELECT doc_id, string_split(text, chr(10) || "
        "chr(10)) AS ps FROM pages), "
        "parts AS (SELECT doc_id, i - 1 AS para_idx, ps[i] AS para "
        "FROM (SELECT doc_id, ps, unnest(generate_series(1, len(ps))) "
        "AS i FROM split)), "
        "kept AS (SELECT doc_id, para_idx, para FROM "
        "(SELECT doc_id, para_idx, para, row_number() OVER "
        "(PARTITION BY para ORDER BY doc_id, para_idx) AS rn "
        "FROM parts) WHERE rn = 1), "
        "counts AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_paras "
        "FROM parts GROUP BY doc_id) "
        "SELECT k.doc_id, c.n_paras, "
        "CAST(count(*) AS BIGINT) AS n_paras_kept, "
        "string_agg(k.para, chr(10) || chr(10) ORDER BY k.para_idx) "
        "AS text_dedup FROM kept k JOIN counts c ON k.doc_id = "
        "c.doc_id GROUP BY k.doc_id, c.n_paras")


# ------------------------------------- cross-snapshot incremental dedup ----

def q_incremental_dedup_planted(sf_dir: str):
    """Cross-snapshot incremental dedup (ops/dedup.incremental_dedup):
    the PRIOR corpus is every doc with doc_id % 3 == 0, the NEW
    snapshot is the rest (CCNet's per-crawl operating mode). Two
    planted duplicate families make both dedup modes non-trivial on
    the all-distinct test corpus: docs with doc_id % 7 == 0 share 13
    'XSNAP k' texts that straddle both snapshots (anti-joined away),
    and docs with doc_id % 7 == 1 ∧ doc_id % 3 != 0 share 5 'NEWDUP k'
    texts that exist ONLY in the new snapshot (each survives once with
    dup_count > 1). The oracle re-derives the planting, the md5
    fingerprints, the prior anti-join and the min-doc_id winner pick
    in SQL."""
    import ray.data as rd

    from corenlp_ray.ops.dedup import incremental_dedup

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        out = []
        for i, t in zip(ids, b.column("text").to_pylist()):
            if i % 7 == 0:
                out.append(f"XSNAP {i % 13}")
            elif i % 7 == 1 and i % 3 != 0:
                out.append(f"NEWDUP {i % 5}")
            else:
                out.append(t)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(out, pa.string())})

    planted = docs.map_batches(plant, batch_format="pyarrow")

    def _mod3(batch: pa.Table, want_zero: bool) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = (ids % 3 == 0) if want_zero else (ids % 3 != 0)
        return batch.filter(pa.array(mask))

    prior = planted.map_batches(lambda b: _mod3(b, True),
                                batch_format="pyarrow")
    new = planted.map_batches(lambda b: _mod3(b, False),
                              batch_format="pyarrow")
    return incremental_dedup(new, prior)


def incremental_dedup_planted_sql() -> str:
    return (
        "WITH p AS (SELECT doc_id, CASE "
        "WHEN doc_id % 7 = 0 THEN 'XSNAP ' || CAST(doc_id % 13 AS VARCHAR) "
        "WHEN doc_id % 7 = 1 AND doc_id % 3 <> 0 THEN "
        "'NEWDUP ' || CAST(doc_id % 5 AS VARCHAR) "
        "ELSE text END AS text FROM documents), "
        "h AS (SELECT doc_id, md5(text) AS text_hash FROM p), "
        "prior AS (SELECT DISTINCT text_hash FROM h WHERE doc_id % 3 = 0), "
        "nw AS (SELECT * FROM h WHERE doc_id % 3 <> 0) "
        "SELECT min(doc_id) AS doc_id, text_hash, "
        "CAST(count(*) AS BIGINT) AS dup_count FROM nw "
        "WHERE text_hash NOT IN (SELECT text_hash FROM prior) "
        "GROUP BY text_hash")


# --------------------------------------------------- triangle counting ----

def q_triangle_planted(sf_dir: str):
    """Per-node triangle counts (ops/graph.triangle_count) over a
    deterministic 37-node graph synthesized from documents: each doc
    contributes the edge (doc_id % 37) → (doc_id % 37 + 1 + doc_id % 2)
    mod 37, i.e. the ring plus distance-2 chords — every residue class
    is populated at sf ≥ 0.001, so the undirected simple graph is
    exactly C37 + chords and every node closes 3 triangles. Parallel
    edges, both orientations and the odd/even families exercise the
    dedup / orientation / wedge-join path; the oracle re-derives the
    construction and counts corners with a three-way self-join."""
    import ray.data as rd

    from corenlp_ray.ops.graph import triangle_count

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        r = ids % 37
        s = [f"n{v}" for v in r]
        o = [f"n{v}" for v in (r + 1 + ids % 2) % 37]
        return pa.table({"subj": pa.array(s, pa.string()),
                         "obj": pa.array(o, pa.string())})

    return triangle_count(docs.map_batches(synth, batch_format="pyarrow"))


def triangle_planted_sql() -> str:
    return (
        "WITH raw AS (SELECT 'n' || CAST(doc_id % 37 AS VARCHAR) AS s, "
        "'n' || CAST((doc_id % 37 + 1 + doc_id % 2) % 37 AS VARCHAR) "
        "AS o FROM documents), "
        "e AS (SELECT DISTINCT least(s, o) AS lo, greatest(s, o) AS hi "
        "FROM raw WHERE s <> o), "
        "tri AS (SELECT a.lo AS x, a.hi AS y, b.hi AS z FROM e a "
        "JOIN e b ON a.lo = b.lo AND a.hi < b.hi "
        "JOIN e c ON c.lo = a.hi AND c.hi = b.hi), "
        "corners AS (SELECT x AS node FROM tri UNION ALL "
        "SELECT y FROM tri UNION ALL SELECT z FROM tri) "
        "SELECT node, CAST(count(*) AS BIGINT) AS n_tri "
        "FROM corners GROUP BY node")


# ----------------------------------------------------------- range join ----

_RJ_BASE_US = 1_704_067_200_000_000          # TIMESTAMP '2024-01-01' in µs
_RJ_DAY_US = 86_400_000_000
_RJ_SPAN_US = 36 * 3_600_000_000


def q_range_join_planted(sf_dir: str):
    """Interval (range) join (ops/joins.range_join): per distinct
    events user, three 36-hour maintenance windows starting
    2024-01-01 + (user_id % 28) days + k·5 days; every event pairs
    with each of its user's windows containing its timestamp
    (lo ≤ ts < hi). Windows straddle day buckets and users overlap, so
    the bucket-replication path, the key equi-merge and the range
    filter are all exercised; the oracle is the plain BETWEEN join."""
    import numpy as np
    import ray.data as rd

    from corenlp_ray.ops.joins import range_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])

    def synth(b: pa.Table) -> pa.Table:
        uids = np.unique(b.column("user_id").to_numpy(
            zero_copy_only=False))
        iid, uu, lo = [], [], []
        for u in uids:
            for k in range(3):
                iid.append(int(u) * 3 + k)
                uu.append(int(u))
                lo.append(_RJ_BASE_US + int(u % 28) * _RJ_DAY_US
                          + k * 5 * _RJ_DAY_US)
        return pa.table({
            "interval_id": pa.array(iid, pa.int64()),
            "user_id": pa.array(uu, pa.int64()),
            "lo": pa.array(lo, pa.int64()).cast(pa.timestamp("us")),
            "hi": pa.array([x + _RJ_SPAN_US for x in lo],
                           pa.int64()).cast(pa.timestamp("us"))})

    users = (ev.select_columns(["user_id"]).groupby("user_id").count()
             .select_columns(["user_id"]))
    iv = users.map_batches(synth, batch_format="pyarrow")
    out = range_join(ev, iv, ts="ts", lo="lo", hi="hi",
                     keys=["user_id"])
    return out.select_columns(["event_id", "interval_id", "user_id",
                               "value"])


def range_join_planted_sql() -> str:
    return (
        "WITH u AS (SELECT DISTINCT user_id FROM events), "
        "iv AS (SELECT user_id * 3 + k AS interval_id, user_id, "
        "TIMESTAMP '2024-01-01' + (user_id % 28) * INTERVAL 1 DAY "
        "+ k * INTERVAL 5 DAY AS lo FROM u, range(3) t(k)), "
        "iv2 AS (SELECT interval_id, user_id, lo, "
        "lo + INTERVAL 36 HOUR AS hi FROM iv) "
        "SELECT e.event_id, iv2.interval_id, e.user_id, e.value "
        "FROM events e JOIN iv2 ON e.user_id = iv2.user_id "
        "AND e.ts >= iv2.lo AND e.ts < iv2.hi")


# ------------------------------------------------------------ coref.full

# (text, n_mentions, n_multi_chains, max_chain): the FULL dcoref
# configuration (stages/coref.py coref_full_batch — nominal+pronominal
# mentions, speaker / nominal-exact / predicate-nominative / pronoun
# sieves). Expected stats are template constants, hand-checked:
#  T0 pred-nominative + nominal exact  → one chain of 3
#  T1 nominal exact + neutral pronoun  → one chain of 3 (7 mentions:
#     concert×2, It, I, Paris, two hours→CD skipped ⇒ measured 7)
#  T2 first-person speaker chain       → one chain of 3
#  T3 PERSON pronoun + nominal repeat  → two chains of 2
COREF_FULL_PLANTED_TEMPLATES = [
    ("Mohammed Munir is a strange person. The strange person smiled.",
     3, 1, 3),
    ("I saw a concert in Paris. The concert was loud. "
     "It lasted two hours.", 7, 1, 3),
    ("I think they saw me near my house.", 5, 1, 3),
    ("Alice Johnson founded the company. She runs the company.",
     4, 2, 2),
]


def _coref_full_text(i: int) -> str:
    return COREF_FULL_PLANTED_TEMPLATES[i % 4][0]


def q_coref_full_planted(sf_dir: str):
    """Full-sieve coref oracle: planted coreference constructions →
    tokenize→pos→ner→coref.full; per-doc chain stats are template
    constants (dcoref's sieve families over nominal/pronominal
    mentions, cf. RuleBasedCorefMentionFinder.java,
    dcoref/SieveCoreferenceSystem.java)."""
    from collections import Counter

    from corenlp_ray.pipelines.kg import apply

    ann = apply(_planted_doc_texts(sf_dir, _coref_full_text),
                ("coref.full",))

    def project(b: pa.Table) -> pa.Table:
        n_men, n_multi, mx = [], [], []
        for ch in b.column("men_chain").to_pylist():
            sizes = Counter(ch)
            n_men.append(len(ch))
            n_multi.append(sum(1 for v in sizes.values() if v > 1))
            mx.append(max(sizes.values()) if sizes else 0)
        return pa.Table.from_pydict(
            {"doc_id": b.column("doc_id"),
             "n_mentions": pa.array(n_men, type=pa.int64()),
             "n_multi_chains": pa.array(n_multi, type=pa.int64()),
             "max_chain": pa.array(mx, type=pa.int64())},
            schema=pa.schema([("doc_id", pa.int64()),
                              ("n_mentions", pa.int64()),
                              ("n_multi_chains", pa.int64()),
                              ("max_chain", pa.int64())]))

    return ann.map_batches(project, batch_format="pyarrow")


def coref_full_planted_sql() -> str:
    men = ", ".join(str(t[1]) for t in COREF_FULL_PLANTED_TEMPLATES)
    mul = ", ".join(str(t[2]) for t in COREF_FULL_PLANTED_TEMPLATES)
    mx = ", ".join(str(t[3]) for t in COREF_FULL_PLANTED_TEMPLATES)
    return (
        "SELECT doc_id, "
        f"CAST(list_extract([{men}], CAST(doc_id % 4 AS INT) + 1) "
        "AS BIGINT) AS n_mentions, "
        f"CAST(list_extract([{mul}], CAST(doc_id % 4 AS INT) + 1) "
        "AS BIGINT) AS n_multi_chains, "
        f"CAST(list_extract([{mx}], CAST(doc_id % 4 AS INT) + 1) "
        "AS BIGINT) AS max_chain FROM documents")
