"""Simple API — the analogue of the reference's ``simple`` package
(/root/reference/src/edu/stanford/nlp/simple/Document.java,
Sentence.java): wrap a text, lazily run exactly the stages each accessor
needs, cache results. Demand-driven annotation over the same kernels the
distributed pipeline uses — handy for exploration and for writing tests;
NOT the scale path (that is the Dataset pipeline).

    >>> from corenlp_ray.api import Document
    >>> d = Document("Some cats have tails. They purr.")
    >>> d.sentences()[0].words()
    ['Some', 'cats', 'have', 'tails', '.']
    >>> d.sentences()[0].openie()
    {('cats', 'have', 'tails')}
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import pyarrow as pa

from corenlp_ray.sources.pages import PAGES_SCHEMA


class Document:
    def __init__(self, text: str, docdate: Optional[str] = None):
        self.text = text
        self.docdate = docdate
        self._row: Dict = {}
        self._done: set = set()
        self._triples_tbl = None

    # ------------------------------------------------------ lazy driving ----

    def _table(self) -> pa.Table:
        ts = 0
        if self.docdate:
            import datetime as _dt

            d = _dt.datetime.fromisoformat(self.docdate)
            ts = int(d.timestamp() * 1_000_000)
        return pa.Table.from_pylist([{
            "url": "simple://doc", "warc_ts": ts, "html": b"",
            "text": self.text, "lang": "en"}], schema=PAGES_SCHEMA)

    def _need(self, *stages: str):
        """Run the named registry stages and their prerequisites, each
        at most once per document, as one registry chain."""
        if self._done.issuperset(stages):
            return
        from corenlp_ray.pipelines.kg import Chain, build

        tbl = self._tbl if self._done else self._table()
        todo = [st for st in build(stages) if st.name not in self._done]
        self._tbl = Chain(todo)(tbl)
        self._done.update(st.name for st in todo)
        self._row = self._tbl.to_pylist()[0]

    @staticmethod
    def _transitive(producer: str) -> Tuple[str, ...]:
        """The stages a triple producer's extractor (openie, kbp,
        relation) reads from, in chain order. Any other stage is its own
        request: ``_need`` closes it over its prerequisites."""
        from corenlp_ray.pipelines.kg import PRODUCER_COLUMNS, build

        return tuple(st.name for st in build((), PRODUCER_COLUMNS[producer]))

    def _ensure_triples(self):
        if self._triples_tbl is not None:
            return
        self._need(*self._transitive("openie"))
        from corenlp_ray.pipelines.kg import Chain, triples_stage

        self._triples_tbl = Chain([triples_stage()])(self._tbl)

    # ---------------------------------------------------------- accessors ----

    def sentences(self) -> List["Sentence"]:
        self._need("tokenize")
        return [Sentence(self, i)
                for i in range(len(self._row["sent_begin"]))]

    def coref_chains(self) -> Dict[int, List[str]]:
        self._need("coref")
        chains: Dict[int, List[str]] = {}
        r = self._row
        for mi, c in enumerate(r["men_chain"]):
            surface = " ".join(
                r["tok_word"][r["men_begin"][mi]:r["men_end"][mi]])
            chains.setdefault(c, []).append(surface)
        return {k: v for k, v in chains.items() if len(v) > 1}

    def kbp(self) -> Set[Tuple[str, str, str]]:
        self._ensure_triples()
        t = self._triples_tbl
        return {(s, p, o) for s, p, o, src in zip(
            t.column("subj").to_pylist(), t.column("pred").to_pylist(),
            t.column("obj").to_pylist(), t.column("source").to_pylist())
            if src == "kbp"}

    def relations(self) -> Set[Tuple[str, str, str]]:
        """ACE-style relation mentions (the `relation` annotator,
        stages/relation.py — Roth/Yih inventory)."""
        from corenlp_ray.pipelines.kg import Chain, relation_stage

        self._need(*self._transitive("relation"))
        out = Chain([relation_stage()])(self._tbl)
        return {(s, r, o) for s, r, o in zip(
            out.column("subj").to_pylist(), out.column("rel").to_pylist(),
            out.column("obj").to_pylist())}

    def sentiments(self) -> List[str]:
        """Per-sentence 5-class sentiment (the sentiment_tree stage, so a
        registered parse or sentiment slot applies)."""
        self._need("sentiment_tree")
        return self._row["sent_sentiment_tree"]


class Sentence:
    def __init__(self, doc: Document, idx: int):
        self.doc = doc
        self.idx = idx

    def _span(self):
        r = self.doc._row
        return r["sent_begin"][self.idx], r["sent_end"][self.idx]

    def words(self) -> List[str]:
        b, e = self._span()
        return self.doc._row["tok_word"][b:e]

    def pos_tags(self) -> List[str]:
        self.doc._need("pos")
        b, e = self._span()
        return self.doc._row["tok_pos"][b:e]

    def lemmas(self) -> List[str]:
        self.doc._need("lemma")
        b, e = self._span()
        return self.doc._row["tok_lemma"][b:e]

    def ner_tags(self) -> List[str]:
        self.doc._need("ner")
        b, e = self._span()
        return self.doc._row["tok_ner"][b:e]

    def dependencies(self) -> List[Tuple[int, str, int]]:
        """[(head_idx, label, dep_idx)] sentence-local, -1 = root."""
        self.doc._need("depparse")
        b, e = self._span()
        r = self.doc._row
        out = []
        for k in range(b, e):
            h = r["dep_head"][k]
            out.append(((h - b) if h >= 0 else -1, r["dep_label"][k],
                        k - b))
        return out

    def openie(self) -> Set[Tuple[str, str, str]]:
        self.doc._ensure_triples()
        t = self.doc._triples_tbl
        return {(s, p, o) for s, p, o, si, src in zip(
            t.column("subj").to_pylist(), t.column("pred").to_pylist(),
            t.column("obj").to_pylist(), t.column("sent_idx").to_pylist(),
            t.column("source").to_pylist())
            if si == self.idx and src == "openie"}
