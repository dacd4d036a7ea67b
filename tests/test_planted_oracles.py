"""Cross-product determinism pins for the planted annotation-chain
oracles (pipelines/planted.py): every (template × slot) combination the
modular-arithmetic plant can produce must yield EXACTLY the mention /
triple set the SQL oracle computes — via the same per-doc kernels the
distributed stages run (kernel identity is pinned by
tests/test_fused_vs_staged.py)."""
from corenlp_ray.api import Document
from corenlp_ray.pipelines.planted import (
    KBP_PLANTED_TEMPLATES, _kbp_slots, _kbp_text, _mention_text,
    _openie_text)
from corenlp_ray.sources.pages import CITIES, ORGS, PERSONS, TOPICS


def _mentions(text):
    d = Document(text)
    d._need("ner")
    r = d._row
    w = r["tok_word"]
    return [(" ".join(w[b:e]), t, nv)
            for b, e, t, nv in zip(r["men_begin"], r["men_end"],
                                   r["men_ner"], r["men_norm"])]


def _triples(text, source):
    d = Document(text)
    d._ensure_triples()
    t = d._triples_tbl
    return {(s, p, o) for s, p, o, src in zip(
        t.column("subj").to_pylist(), t.column("pred").to_pylist(),
        t.column("obj").to_pylist(), t.column("source").to_pylist())
        if src == source}


def test_mention_plant_full_cross_product():
    # 420 = lcm(12, 10, 28) / 4 cycles the person/city/day combinations;
    # doc_ids beyond the lcm repeat these exact texts
    for i in range(420):
        P, C, D = PERSONS[i % 12], CITIES[i % 10], i % 28 + 1
        got = _mentions(_mention_text(i))
        assert got == [(P, "PERSON", P), (C, "LOCATION", C),
                       (f"January {D} , 2003", "DATE",
                        "2003-01-%02d" % D)], (i, got)


def test_kbp_plant_full_cross_product():
    # 420 = lcm(7 templates, 12 persons, 10 orgs/cities)
    for i in range(420):
        s = _kbp_slots(i)
        _, rels = KBP_PLANTED_TEMPLATES[i % 7]
        want = {(s.get(a, a), rel, s.get(b, b)) for a, rel, b in rels}
        got = _triples(_kbp_text(i), "kbp")
        assert got == want, (i, _kbp_text(i), got, want)


def test_quote_plant_full_cross_product():
    # 60 = lcm(3 templates, 12 persons, 5 topics)
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import (QUOTE_PLANTED_TEMPLATES,
                                               _quote_text)
    from corenlp_ray.stages.misc_annotators import quote_batch

    for i in range(60):
        P, T = PERSONS[i % 12], TOPICS[i % 5]
        d = Document(_quote_text(i))
        d._need("coref")
        tbl = pa.Table.from_pydict({k: [v] for k, v in d._row.items()})
        out = quote_batch(tbl)
        want_quote = QUOTE_PLANTED_TEMPLATES[i % 3][1].format(T=T)
        assert out.column("quo_text")[0].as_py() == [want_quote], i
        assert out.column("quo_speaker")[0].as_py() == [P], i


def test_natlog_plant_full_cross_product():
    # 60 = lcm(4 templates, 12 persons, 10 cities) / 4 cycles
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import (NATLOG_PLANTED_TEMPLATES,
                                               _natlog_text)
    from corenlp_ray.stages.natlog import natlog_batch

    for i in range(240):
        _, n_tok, n_down = NATLOG_PLANTED_TEMPLATES[i % 4]
        d = Document(_natlog_text(i))
        d._need("depparse")
        tbl = pa.Table.from_pydict({k: [v] for k, v in d._row.items()})
        pol = natlog_batch(tbl).column("tok_polarity")[0].as_py()
        assert len(pol) == n_tok, (i, _natlog_text(i), pol)
        assert sum(1 for p in pol if p == "down") == n_down, (i, pol)


def test_sentiment_plant_templates():
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import SENTIMENT_PLANTED_TEMPLATES
    from corenlp_ray.stages.sentiment import sentiment_batch

    for text, want in SENTIMENT_PLANTED_TEMPLATES:
        d = Document(text)
        d._need("depparse")
        tbl = pa.Table.from_pydict({k: [v] for k, v in d._row.items()})
        got = sentiment_batch(tbl).column("sent_sentiment")[0].as_py()
        assert got == [want], (text, got)


def test_linking_plant_full_cross_product():
    # 60 = lcm(12 persons, 10 orgs/cities); pins the curated-dict link
    # normalization and the first-name gender table the SQL relies on
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import _linking_text
    from corenlp_ray.stages.entitylink import entitylink_batch
    from corenlp_ray.stages.misc_annotators import gender_batch

    for i in range(60):
        P, O, C = PERSONS[i % 12], ORGS[i % 10], CITIES[i % 10]
        d = Document(_linking_text(i))
        d._need("ner")
        tbl = gender_batch(entitylink_batch(
            pa.Table.from_pydict({k: [v] for k, v in d._row.items()})))
        words = tbl.column("tok_word")[0].as_py()
        got = [(" ".join(words[b:e]), ty, lk, g) for b, e, ty, lk, g in
               zip(tbl.column("men_begin")[0].as_py(),
                   tbl.column("men_end")[0].as_py(),
                   tbl.column("men_ner")[0].as_py(),
                   tbl.column("men_link")[0].as_py(),
                   tbl.column("men_gender")[0].as_py())]
        want = [
            (P, "PERSON", P.replace(" ", "_"),
             "MALE" if (i % 12) % 2 == 0 else "FEMALE"),
            (O, "ORGANIZATION", O.replace(".", "").replace(" ", "_"),
             "UNKNOWN"),
            (C, "LOCATION", C, "UNKNOWN"),
        ]
        assert got == want, (i, _linking_text(i), got, want)


def test_kg_plant_acquisition_triples_cross_product():
    """The t3 openie plant ("{O} acquired {O2}.") must emit exactly the
    openie SVO at 1.0 plus the KBP acquisition pair (org:subsidiaries +
    org:parents at 0.9) the kg_planted SQL oracle predicts — for every
    (O, O2) combination."""
    for i in range(3, 43, 4):
        from corenlp_ray.pipelines.planted import _openie_text

        text = _openie_text(i)
        O, O2 = ORGS[i % 10], ORGS[(i + 3) % 10]
        d = Document(text)
        d._ensure_triples()
        t = d._triples_tbl
        got = {(s, p, o, round(c, 2)) for s, p, o, c in zip(
            t.column("subj").to_pylist(), t.column("pred").to_pylist(),
            t.column("obj").to_pylist(),
            t.column("confidence").to_pylist())}
        want = {(O, "acquired", O2, 1.0),
                (O, "org:subsidiaries", O2, 0.9),
                (O2, "org:parents", O, 0.9)}
        assert got == want, (i, text, got, want)


def test_extract_plant_full_cross_product():
    # 60 = lcm(12 persons, 5 topics, 10 cities)
    from corenlp_ray.pipelines.planted import _extract_html
    from corenlp_ray.stages.extract import extract_text

    for i in range(60):
        P, T, C = PERSONS[i % 12], TOPICS[i % 5], CITIES[i % 10]
        want = f"{P} Report\n\n{T} research in {C}."
        assert extract_text(_extract_html(i)) == want, i


def test_tokenize_plant_templates():
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import (TOKENIZE_PLANTED_TEMPLATES,
                                               _tokenize_text)
    from corenlp_ray.stages.tokenize import tokenize_ssplit_batch

    for i in range(36):
        _, n_tok, n_sent = TOKENIZE_PLANTED_TEMPLATES[i % 3]
        b = tokenize_ssplit_batch(
            pa.Table.from_pydict({"text": [_tokenize_text(i)]}))
        assert len(b.column("tok_word")[0].as_py()) == n_tok, i
        assert len(b.column("sent_begin")[0].as_py()) == n_sent, i


def test_segmenter_plant_templates():
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import SEGMENTER_PLANTED_TEMPLATES
    from corenlp_ray.stages.segmenter import segment_text_batch

    tbl = pa.Table.from_pydict(
        {"doc_id": list(range(len(SEGMENTER_PLANTED_TEMPLATES))),
         "text": [t[0] for t in SEGMENTER_PLANTED_TEMPLATES],
         "lang": [t[1] for t in SEGMENTER_PLANTED_TEMPLATES]})
    out = segment_text_batch(tbl)
    for r, (_, lang, n) in enumerate(SEGMENTER_PLANTED_TEMPLATES):
        assert out.column("n_tokens")[r].as_py() == n, (lang, r)


def test_parse_plant_full_cross_product():
    # 120 = lcm(2 templates, 12 persons, 10 cities)
    import pyarrow as pa

    from corenlp_ray.pipelines.planted import (PARSE_PLANTED_TEMPLATES,
                                               _parse_text)
    from corenlp_ray.stages.parse_tree import parse_tree_batch

    for i in range(120):
        d = Document(_parse_text(i))
        d._need("depparse")
        tbl = pa.Table.from_pydict({k: [v] for k, v in d._row.items()})
        got = parse_tree_batch(tbl).column("parse_tree")[0].as_py()
        if i % 2 == 0:
            want = PARSE_PLANTED_TEMPLATES[0][1]
        else:
            f, l = PERSONS[i % 12].split()
            want = PARSE_PLANTED_TEMPLATES[1][1].replace(
                "{F}", f).replace("{L}", l).replace("{C}", CITIES[i % 10])
        assert got == [want], (i, _parse_text(i), got, want)


def test_dedup_plant_disjointness_pins():
    """The planted dedup corpus's two load-bearing invariants: identical
    text inside a consecutive-id group (word-shingle Jaccard 1.0,
    SimHash Hamming 0) and ZERO cross-group affinity (disjoint shingle
    sets → Jaccard 0; SimHash Hamming far above the ≤3 verify gate) for
    every group pair in the first 1000 planted docs."""
    from corenlp_ray.ops.dedup import jaccard, simhash64
    from corenlp_ray.pipelines.planted import (DEDUP_GROUP_SIZE,
                                               _dedup_text)

    n_groups = 100
    texts = [_dedup_text(g * DEDUP_GROUP_SIZE) for g in range(n_groups)]
    for g in range(n_groups):
        for i in range(1, DEDUP_GROUP_SIZE):
            assert _dedup_text(g * DEDUP_GROUP_SIZE + i) == texts[g]
    sims = [simhash64(t) for t in texts]
    shingle_sets = [set(t.split()) for t in texts]
    for a in range(n_groups):
        for b in range(a + 1, n_groups):
            assert not (shingle_sets[a] & shingle_sets[b])
            assert jaccard(texts[a], texts[b], 3) == 0.0
            d = bin((sims[a] ^ sims[b]) & ((1 << 64) - 1)).count("1")
            assert d > 3, (a, b, d)


def test_openie_plant_full_cross_product():
    # 60 = lcm(4 templates, 12 persons, 5 topics, 10 orgs)
    for i in range(120):
        t = i % 4
        if t == 0:
            want = {("cats", "have", "tails")}
        elif t == 1:
            want = {("rabbits", "eat", "vegetables")}
        elif t == 2:
            want = {(PERSONS[i % 12], "studies", TOPICS[i % 5])}
        else:
            want = {(ORGS[i % 10], "acquired", ORGS[(i + 3) % 10])}
        got = _triples(_openie_text(i), "openie")
        assert got == want, (i, _openie_text(i), got, want)
