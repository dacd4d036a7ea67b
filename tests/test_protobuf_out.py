"""CoreNLP protobuf wire-format sink tests: hand-decoded round-trips of
the exact field numbers in pipeline/CoreNLP.proto (Document text=1
sentence=2 docID=4 mentions=9; Sentence token=1 offsets=2/3
basicDependencies=8 openieTriple=14 kbpTriple=16; Token word=1 pos=2
ner=8 lemma=10; DependencyGraph node/edge/root 1-based), and the
distributed sink's delimited-stream framing."""
import struct

import pyarrow as pa

from corenlp_ray.sources.protobuf_out import (document_to_proto,
                                              parse_message, proto_block,
                                              read_delimited,
                                              write_protobuf)


def _row():
    return {
        "url": "doc-1",
        "text": "John Smith works. He rests.",
        "tok_word": ["John", "Smith", "works", ".", "He", "rests", "."],
        "tok_pos": ["NNP", "NNP", "VBZ", ".", "PRP", "VBZ", "."],
        "tok_lemma": ["John", "Smith", "work", ".", "he", "rest", "."],
        "tok_ner": ["PERSON", "PERSON", "O", "O", "O", "O", "O"],
        "tok_begin": [0, 5, 11, 16, 18, 21, 26],
        "tok_end": [4, 10, 16, 17, 20, 26, 27],
        "sent_begin": [0, 4],
        "sent_end": [4, 7],
        "dep_head": [1, 2, -1, 2, 5, -1, 5],
        "dep_label": ["compound", "nsubj", "root", "punct",
                      "nsubj", "root", "punct"],
        "men_begin": [0],
        "men_end": [2],
        "men_ner": ["PERSON"],
        "men_norm": ["John Smith"],
        "men_sent": [0],
    }


def _s(v):
    return v.decode("utf-8")


def test_document_fields_round_trip():
    buf = document_to_proto(_row())
    doc = parse_message(buf)
    assert _s(doc[1][0]) == "John Smith works. He rests."   # text
    assert _s(doc[4][0]) == "doc-1"                          # docID
    assert len(doc[2]) == 2                                  # sentences
    s0 = parse_message(doc[2][0])
    assert (s0[2][0], s0[3][0]) == (0, 4)   # tokenOffsetBegin/End
    assert s0[4][0] == 0                    # sentenceIndex
    assert (s0[5][0], s0[6][0]) == (0, 17)  # char offsets
    toks = [parse_message(t) for t in s0[1]]
    assert [_s(t[1][0]) for t in toks] == ["John", "Smith", "works", "."]
    assert [_s(t[2][0]) for t in toks] == ["NNP", "NNP", "VBZ", "."]
    assert _s(toks[0][8][0]) == "PERSON"            # ner
    assert _s(toks[2][10][0]) == "work"             # lemma
    assert (toks[1][11][0], toks[1][12][0]) == (5, 10)  # beginChar/endChar


def test_dependency_graph_one_based_with_root():
    doc = parse_message(document_to_proto(_row()))
    s1 = parse_message(doc[2][1])                   # second sentence
    g = parse_message(s1[8][0])                     # basicDependencies
    nodes = [parse_message(n) for n in g[1]]
    assert [n[2][0] for n in nodes] == [1, 2, 3]    # 1-based indices
    edges = [parse_message(e) for e in g[2]]
    got = {(e[1][0], e[2][0], _s(e[3][0])) for e in edges}
    assert got == {(2, 1, "nsubj"), (2, 3, "punct")}
    # packed root = varint list
    root_payload = g[3][0]
    assert list(root_payload) == [2]                # token 2 is root


def test_ner_mentions_sentence_relative():
    doc = parse_message(document_to_proto(_row()))
    m = parse_message(doc[9][0])
    assert m[1][0] == 0 and (m[2][0], m[3][0]) == (0, 2)
    assert _s(m[4][0]) == "PERSON"
    assert _s(m[12][0]) == "John Smith"
    assert doc[13][0] == 1                          # hasEntityMentions


def test_relation_triples_routed_by_source_and_sentence():
    triples = [
        {"sent_idx": 0, "subj": "John Smith", "pred": "works",
         "obj": "hard", "confidence": 0.75, "source": "openie"},
        {"sent_idx": 1, "subj": "He", "pred": "per:title", "obj": "rester",
         "confidence": 0.9, "source": "kbp"},
    ]
    doc = parse_message(document_to_proto(_row(), triples))
    s0, s1 = parse_message(doc[2][0]), parse_message(doc[2][1])
    t0 = parse_message(s0[14][0])                   # openieTriple
    assert (_s(t0[1][0]), _s(t0[2][0]), _s(t0[3][0])) == \
        ("John Smith", "works", "hard")
    assert struct.unpack("<d", t0[4][0])[0] == 0.75
    t1 = parse_message(s1[16][0])                   # kbpTriple
    assert _s(t1[2][0]) == "per:title"
    assert 14 not in s1 and 16 not in s0


def test_delimited_stream_framing():
    tbl = pa.Table.from_pylist([_row(), _row()])
    blob = proto_block(tbl)
    msgs = read_delimited(blob)
    assert len(msgs) == 2
    assert _s(parse_message(msgs[0])[4][0]) == "doc-1"


def test_write_protobuf_sink_with_triples(ray_session, tmp_path):
    import ray.data as rd

    from corenlp_ray.pipelines.kg import apply, extract_triples

    docs = rd.from_arrow(pa.Table.from_pydict(
        {"url": ["a", "b"],
         "text": ["John Smith works for Acme Corp.",
                  "Mary Jones lives in Paris."]},
        schema=pa.schema([("url", pa.string()), ("text", pa.string())])))
    ann = apply(docs, ("tokenize", "pos", "lemma", "ner", "depparse",
                       "coref")).materialize()
    triples = extract_triples(ann)
    out = str(tmp_path / "pb")
    paths = write_protobuf(ann, out, triples_ds=triples)
    assert paths
    msgs = []
    for p in paths:
        msgs.extend(read_delimited(open(p, "rb").read()))
    assert len(msgs) == 2
    docs_parsed = {_s(parse_message(m)[4][0]): parse_message(m)
                   for m in msgs}
    assert set(docs_parsed) == {"a", "b"}
    # doc a must embed at least one triple in some sentence
    sents = [parse_message(s) for s in docs_parsed["a"][2]]
    assert any(14 in s or 16 in s for s in sents)
