"""Per-call sentence memos (stages/_cache.memo): pos, ner, depparse and
openie run their per-sentence kernel once per distinct input within one
call. A repeated sentence whose kernel input differs in any one field
must still get its own result, the memo must not change any output, and
it must not outlive the call."""
import pickle
from datetime import datetime

import cloudpickle
import pyarrow as pa
import pyarrow.compute as pc

from corenlp_ray.pipelines.kg import (DocsToTriples, FusedDocAnnotator,
                                      TripleExtractor)
from corenlp_ray.sources.pages import PAGES_SCHEMA, _docs_to_pages
from corenlp_ray.stages.coref import coref_batch
from corenlp_ray.stages.depparse import DepParser, parse_sentence
from corenlp_ray.stages.extract import extract_text_batch
from corenlp_ray.stages.lemma import lemma_batch
from corenlp_ray.stages.ner import NerTagger, ner_sentence
from corenlp_ray.stages.openie import (TRIPLE_COLUMNS,
                                       extract_sentence_triples,
                                       openie_batch, sentence_views)
from corenlp_ray.stages.pos import PosTagger, tag_sentence
from corenlp_ray.stages.tokenize import tokenize_ssplit_batch

BOILERPLATE = "Home. About us. Contact. © example.org. "


def pages(texts, days=None):
    days = days or [1] * len(texts)
    return pa.Table.from_pylist([
        {"url": f"https://memo.example.org/{i}",
         "warc_ts": datetime(2020, 3, d), "html": t.encode("utf-8"),
         "text": t, "lang": "en"}
        for i, (t, d) in enumerate(zip(texts, days))], schema=PAGES_SCHEMA)


def tokenized(texts, days=None):
    return tokenize_ssplit_batch(extract_text_batch(pages(texts, days)))


def staged(tbl):
    """The chain's kernels up to coref, one at a time, no shared cache."""
    b = extract_text_batch(tbl)
    for fn in (tokenize_ssplit_batch, PosTagger(), lemma_batch,
               NerTagger(), DepParser(), coref_batch):
        b = fn(b)
    return b


def sentences(b):
    """(row, b, e) of every sentence in a tokenized batch."""
    return [(r, s, e) for r, (sb, se) in enumerate(zip(
        b.column("sent_begin").to_pylist(), b.column("sent_end").to_pylist()))
        for s, e in zip(sb, se)]


def normalize(t: pa.Table):
    return sorted(map(tuple, zip(*(t.column(c).to_pylist() for c in (
        "url", "sent_idx", "subj", "pred", "obj", "subj_canonical",
        "obj_canonical", "confidence", "source")))))


class CountingPos(PosTagger):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def _tag(self, words):
        self.calls += 1
        return super()._tag(words)


def test_pos_repeats_equal_kernel_calls_and_run_once():
    text = "Acme Corp hired John Smith. Acme Corp hired John Smith."
    b = tokenized([text, text + " He left."])
    tagger = CountingPos()
    tags = tagger(b).column("tok_pos").to_pylist()
    words = b.column("tok_word").to_pylist()
    for r, s, e in sentences(b):
        assert tags[r][s:e] == tag_sentence(words[r][s:e])
    assert tagger.calls == 2        # two distinct sentences of five


def test_ner_repeat_with_other_docdate_is_not_shared():
    """The same sentence in two documents with different crawl dates:
    the relative date resolves against each document's own date."""
    text = "The board met yesterday."
    b = PosTagger()(tokenized([text, text, text], days=[10, 20, 10]))
    out = NerTagger()(b)
    norms = out.column("men_norm").to_pylist()
    assert norms[0] == norms[2] != norms[1]
    words = b.column("tok_word").to_pylist()
    tags = b.column("tok_pos").to_pylist()
    types = out.column("tok_ner").to_pylist()
    for r, s, e in sentences(b):
        docdate = f"2020-03-{[10, 20, 10][r]:02d}"
        k_types, k_mens = ner_sentence(words[r][s:e], tags[r][s:e], docdate)
        assert types[r][s:e] == k_types
        assert norms[r] == [m[3] for m in k_mens]


def test_depparse_repeat_with_other_supplied_tags_is_not_shared():
    """Same words, different supplied tok_pos: each gets its own parse."""
    b = tokenized(["Visiting relatives can be boring."] * 2)
    words = b.column("tok_word").to_pylist()
    tags = [tag_sentence(words[0]), tag_sentence(words[1])]
    tags[1][0] = "JJ"                    # "Visiting" as a modifier
    b = b.append_column("tok_pos", pa.array(tags, pa.list_(pa.string())))
    out = DepParser()(b)
    heads = out.column("dep_head").to_pylist()
    labels = out.column("dep_label").to_pylist()
    kernel = [parse_sentence(words[r], tags[r]) for r in range(2)]
    assert kernel[0] != kernel[1]
    for r in range(2):
        hs, ls = kernel[r]
        assert heads[r] == hs and labels[r] == ls


def kernel_openie(b):
    """openie_batch's rows from one kernel call per sentence, no memo."""
    cols = {c: b.column(c).to_pylist()
            for c in ("url",) + TRIPLE_COLUMNS}
    rows = []
    for r in range(b.num_rows):
        row = {c: v[r] for c, v in cols.items()}
        w, t, lm, lb = (row[c] for c in ("tok_word", "tok_pos",
                                         "tok_lemma", "dep_label"))
        for si, s, e, hs, mens, pron in sentence_views(
                row, ("men_begin", "men_end", "men_ner")):
            for tr in extract_sentence_triples(w[s:e], t[s:e], lm[s:e], hs,
                                               lb[s:e], mens, pron):
                rows.append((row["url"], si) + tuple(tr))
    return sorted(rows)


def memo_openie(b):
    t = openie_batch(b)
    return sorted(map(tuple, zip(*(t.column(c).to_pylist() for c in (
        "url", "sent_idx", "subj", "pred", "obj", "subj_canonical",
        "obj_canonical", "subj_ner", "obj_ner", "confidence")))))


def test_openie_repeat_with_other_pronoun_canonical_is_not_shared():
    """"He founded Acme." twice: "He" resolves to a different
    antecedent each time, so the two copies have different triples."""
    text = ("John Smith lives in Paris. He founded Acme. "
            "Bob Brown met Mary in Rome. He founded Acme.")
    b = staged(pages([text]))
    rows = memo_openie(b)
    assert rows == kernel_openie(b)
    subjects = {r[5] for r in rows if r[1] in (1, 3)}
    assert {"John Smith", "Bob Brown"} <= subjects


def test_openie_repeat_with_other_mention_is_not_shared():
    """Two identical sentences whose mention types differ: the edited
    copy must not take the first copy's cached triples."""
    text = "Acme Corp hired John Smith. Acme Corp hired John Smith."
    b = staged(pages([text]))
    ner = b.column("men_ner").to_pylist()
    sent = b.column("men_sent").to_pylist()[0]
    ner[0] = [t if s == 0 else "MISC" for t, s in zip(ner[0], sent)]
    b = b.set_column(b.schema.get_field_index("men_ner"), "men_ner",
                     pa.array(ner, pa.list_(pa.string())))
    rows = memo_openie(b)
    assert rows == kernel_openie(b)
    by_sent = [{r[2:] for r in rows if r[1] == si} for si in (0, 1)]
    assert by_sent[0] != by_sent[1]


def repeat_heavy_pages():
    body = ["Acme Corp hired John Smith in Paris. He founded Bolt Inc.",
            "Mary Jones lives in Rome. She works for Acme Corp.",
            "Acme Corp hired John Smith in Paris. The deal closed today."]
    return pages([BOILERPLATE + body[i % 3] + " " + BOILERPLATE
                  for i in range(12)], days=[1 + i % 4 for i in range(12)])


def test_fused_equals_staged_on_repeat_heavy_batch():
    tbl = repeat_heavy_pages()
    fused = normalize(FusedDocAnnotator()(tbl))
    assert fused == normalize(TripleExtractor()(staged(tbl)))
    # one page per call: no sentence is shared across rows
    annot = FusedDocAnnotator()
    one_by_one = pa.concat_tables(annot(tbl.slice(i, 1))
                                  for i in range(tbl.num_rows))
    assert fused == normalize(one_by_one)
    assert len(fused) > 0


def test_chain_keeps_no_state_after_a_call():
    chain = FusedDocAnnotator()
    before = dict(vars(chain))
    before_bytes = cloudpickle.dumps(chain)
    before_pickle = pickle.dumps(chain)
    chain(repeat_heavy_pages())
    assert dict(vars(chain)) == before
    assert cloudpickle.dumps(chain) == before_bytes
    assert pickle.dumps(chain) == before_pickle


def test_docs_to_triples_filters_language_before_synthesis():
    docs = pa.table({"doc_id": [3, 4, 5, 6],
                     "lang": ["en", "de", "en", None],
                     "text": ["Acme Corp hired John Smith.", "Hallo Welt.",
                              "Mary Jones lives in Rome.", "x"]})
    synth = _docs_to_pages(docs, 2)
    english = synth.filter(pc.equal(synth.column("lang"), "en"))
    expect = normalize(FusedDocAnnotator()(english))
    assert normalize(DocsToTriples(pages_per_doc=2)(docs)) == expect
    assert len(expect) > 0
