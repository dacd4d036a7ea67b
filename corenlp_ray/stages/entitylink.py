"""Entity linking (the WikidictAnnotator analogue).

The reference maps mention surface forms to Wikipedia titles through a
21M-entry TSV dictionary (text → link → score), with DATE/NUMBER
mentions taking their normalized value instead
(/root/reference/src/edu/stanford/nlp/pipeline/WikidictAnnotator.java:
31,57,144-179; dict path DefaultPaths.java:66).

This engine ships a small deterministic dictionary (the v1 path per
SURVEY §2.2 row 18) + a deterministic title-casing fallback. The SCALE
path is the broadcast pattern already used for the alias map: ``ray.put``
the dict once, fetch it in ``__init__``; beyond object-store reach, a
bucketed hash-join of (mention surface) against a dict Dataset on
normalized form. The stage is a class with the dict bound in
``__init__`` (the 21M-entry slot).

Adds: men_link list<string> (aligned with men_*).
"""
from __future__ import annotations

from typing import Dict, Optional

import pyarrow as pa

from corenlp_ray.pipelines.registry import stage_kernel
from corenlp_ray.stages._cache import col

from corenlp_ray.stages.canonicalize import normalize_surface

# curated head of the dictionary (scores omitted: deterministic 1.0 tier)
WIKIDICT: Dict[str, str] = {
    "u.s.": "United_States", "usa": "United_States",
    "united states": "United_States", "u.k.": "United_Kingdom",
    "uk": "United_Kingdom", "united kingdom": "United_Kingdom",
    "america": "United_States", "england": "England", "france": "France",
    "germany": "Germany", "china": "China", "japan": "Japan",
    "india": "India", "russia": "Russia", "new york": "New_York_City",
    "london": "London", "paris": "Paris", "berlin": "Berlin",
    "tokyo": "Tokyo", "washington": "Washington,_D.C.",
    "ibm": "IBM", "stanford university": "Stanford_University",
}


def link_of(surface: str, ner: str, normalized: str,
            wikidict: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Pure kernel: one mention → link value (WikidictAnnotator.link
    semantics: numeric/date mentions link to their normalized value;
    entities to a dictionary title; else a deterministic title form)."""
    if ner in ("DATE", "NUMBER", "MONEY", "PERCENT", "ORDINAL", "DURATION"):
        return normalized or None
    d = WIKIDICT if wikidict is None else wikidict
    # dictionary lookup keeps internal punctuation ("u.s."); the
    # canonicalization key strips it — try both
    toks = surface.lower().split()
    while toks and toks[0] in ("the", "a", "an"):
        toks = toks[1:]
    raw_key = " ".join(toks)
    key = normalize_surface(surface)
    if not key and not raw_key:
        return None
    hit = d.get(raw_key) or d.get(key)
    if hit:
        return hit
    if ner in ("PERSON", "ORGANIZATION", "LOCATION", "MISC"):
        # deterministic fallback title: Title_Case_With_Underscores
        return "_".join(w.capitalize() for w in key.split())
    return None


class EntityLinker:
    """Stage: + men_link (requires men_*).

    ``dict_ref``: optional ray.ObjectRef of a large dict to broadcast;
    defaults to the embedded WIKIDICT."""

    def __init__(self, dict_ref=None):
        if dict_ref is not None:
            import ray

            self.wikidict = ray.get(dict_ref)
        else:
            self.wikidict = WIKIDICT

    @stage_kernel("entitylink")
    def __call__(self, batch: pa.Table, cols: dict) -> pa.Table:
        out = []
        words_col = col(batch, "tok_word", cols)
        mb_col = col(batch, "men_begin", cols)
        me_col = col(batch, "men_end", cols)
        mn_col = col(batch, "men_ner", cols)
        mv_col = col(batch, "men_norm", cols)
        for r in range(batch.num_rows):
            words = words_col[r]
            links = []
            for b, e, t, nv in zip(mb_col[r], me_col[r], mn_col[r],
                                   mv_col[r]):
                links.append(link_of(" ".join(words[b:e]), t, nv,
                                     wikidict=self.wikidict) or "")
            out.append(links)
        cols["men_link"] = out
        return batch


entitylink_batch = EntityLinker()   # the default stage, embedded dict


# ---------------------------------------------- real wikidict TSV format ----

def load_wikidict_tsv(path: str, threshold: float = 0.0,
                      caseless: bool = False) -> Dict[str, str]:
    """Load the reference's real wikidict TSV (``text\\tlink\\tscore``,
    WikidictAnnotator.java:57-114) into a plain dict for the broadcast
    path: lines starting with a tab are skipped, the score filter only
    applies when threshold > 0.0 (the reference never parses the score
    otherwise), caseless lowercases the surface, and duplicate surfaces
    are last-wins (HashMap.put). Use for dictionaries that fit one
    worker's heap; broadcast via ``ray.put`` and pass the ref to
    ``EntityLinker(dict_ref=...)``."""
    out: Dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line or line[0] == "\t":
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 3:
                continue
            if threshold > 0.0 and float(fields[2]) < threshold:
                continue
            surface = fields[0].lower() if caseless else fields[0]
            out[surface] = fields[1]
    return out


def wikidict_tsv_dataset(path: str, threshold: float = 0.0,
                         caseless: bool = False):
    """The same TSV as a (surface, link) Dataset — the 21M-entry scale
    path that feeds :func:`wikidict_link_join` (the dictionary never
    lands on one node). ``read_csv`` with quoting disabled mirrors the
    reference's raw splitOnChar('\\t') parse."""
    import ray.data as rd
    from pyarrow import csv as pacsv

    ds = rd.read_csv(
        path,
        read_options=pacsv.ReadOptions(
            column_names=["surface", "link", "score"]),
        parse_options=pacsv.ParseOptions(delimiter="\t",
                                         quote_char=False),
        convert_options=pacsv.ConvertOptions(
            column_types={"surface": pa.string(), "link": pa.string(),
                          "score": pa.float64()}))

    def conform(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        surface = batch.column("surface")
        keep = pc.and_(surface.is_valid(),
                       pc.not_equal(pc.coalesce(surface, ""), ""))
        if threshold > 0.0:
            keep = pc.and_(keep, pc.greater_equal(
                batch.column("score"), threshold))
        batch = batch.filter(keep)
        surface = batch.column("surface")
        if caseless:
            surface = pc.utf8_lower(surface)
        return pa.table({"surface": surface,
                         "link": batch.column("link")})

    return ds.map_batches(conform, batch_format="pyarrow")


# ------------------------------------------------- 21M-entry scale path ----

def distinct_tokens(docs_ds):
    """documents → one row per distinct lowercase alpha token (the probe
    side of the dictionary join). Distinct via groupby — never collected
    to the driver."""
    import re

    word_re = re.compile(r"[a-z]+")

    def explode(batch: pa.Table) -> pa.Table:
        toks = sorted({t for text in batch.column("text").to_pylist()
                       for t in word_re.findall((text or "").lower())})
        return pa.Table.from_pydict(
            {"surface": toks}, schema=pa.schema([("surface", pa.string())]))

    from ray.data.aggregate import Count

    return (docs_ds.map_batches(explode, batch_format="pyarrow")
            .groupby("surface").aggregate(Count(alias_name="_n"))
            .map_batches(lambda b: b.select(["surface"]),
                         batch_format="pyarrow"))


def synthetic_wikidict(tokens_ds):
    """Deterministic large-dictionary stand-in: a token enters the dict
    iff md5(token) starts with 0-3 (≈ 1/4 of the vocabulary), linking to
    'Wiki_<token>'. Stands in for the reference's 21M-entry TSV
    (WikidictAnnotator.java:57) so the JOIN path is exercised at any
    scale without shipping the real dictionary."""
    import hashlib

    def build(batch: pa.Table) -> pa.Table:
        keys, links = [], []
        for t in batch.column("surface").to_pylist():
            if hashlib.md5(t.encode()).hexdigest()[0] in "0123":
                keys.append(t)
                links.append("Wiki_" + t)
        return pa.Table.from_pydict(
            {"surface": keys, "link": links},
            schema=pa.schema([("surface", pa.string()),
                              ("link", pa.string())]))

    return tokens_ds.map_batches(build, batch_format="pyarrow")


def wikidict_link_join(probe_ds, dict_ds, key: str = "surface"):
    """The scale path for entity linking: bucketed hash join of mention
    surfaces against a dictionary DATASET (both sides large — the 21M
    Wikidict doesn't fit a broadcast at 10^12-doc scale). Co-partitions
    on crc32(surface); skew from hot surface forms is bounded by the
    partition count knob."""
    from corenlp_ray.ops.joins import bucketed_hash_join

    return bucketed_hash_join(probe_ds, dict_ds, on=key, how="inner")
